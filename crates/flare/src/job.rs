//! Declarative job configuration (NVFlare's `job.json`/`config_fed_server`
//! equivalent).
//!
//! NVFlare deployments describe a run — workflow, rounds, aggregator,
//! filters — in a static config shipped to the server. This module gives
//! `clinfl-flare` the same operational surface: a typed [`JobConfig`]
//! parsed from a simple `key = value` text format (no external
//! serialization crates are available offline). A job is a simulator run,
//! so its federation settings land directly in a [`SimulatorConfig`];
//! every key a job leaves out keeps the value of the host's base config.
//!
//! ```text
//! # adr-finetune.job
//! name        = adr-finetune
//! rounds      = 10
//! min_clients = 8
//! timeout_s   = 600
//! validate    = true
//! aggregator  = weighted_fedavg
//! ```

use crate::aggregator::{Aggregator, CoordinateMedian, MaskedSum, TrimmedMean, WeightedFedAvg};
use crate::simulator::SimulatorConfig;
use crate::FlareError;
use std::time::Duration;

/// Aggregation rule selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Example-count-weighted FedAvg (default).
    WeightedFedAvg,
    /// Coordinate-wise median.
    CoordinateMedian,
    /// Trimmed mean, dropping one value per end.
    TrimmedMean,
    /// Masked sum for secure aggregation.
    MaskedSum,
}

impl AggregatorKind {
    /// Instantiates the aggregator.
    pub fn build(self) -> Box<dyn Aggregator> {
        match self {
            AggregatorKind::WeightedFedAvg => Box::new(WeightedFedAvg),
            AggregatorKind::CoordinateMedian => Box::new(CoordinateMedian),
            AggregatorKind::TrimmedMean => Box::new(TrimmedMean { trim: 1 }),
            AggregatorKind::MaskedSum => Box::new(MaskedSum),
        }
    }

    fn parse(s: &str) -> Result<Self, FlareError> {
        match s {
            "weighted_fedavg" | "fedavg" => Ok(AggregatorKind::WeightedFedAvg),
            "coordinate_median" | "median" => Ok(AggregatorKind::CoordinateMedian),
            "trimmed_mean" => Ok(AggregatorKind::TrimmedMean),
            "masked_sum" | "secure_sum" => Ok(AggregatorKind::MaskedSum),
            other => Err(FlareError::Codec(format!(
                "unknown aggregator {other:?} (expected weighted_fedavg, coordinate_median, trimmed_mean, masked_sum)"
            ))),
        }
    }
}

/// A parsed federated job description.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Job name (for logs, result files and the host's per-job checkpoint
    /// directory): 1–64 characters of `[A-Za-z0-9_-]`.
    pub name: String,
    /// Free-form model selector, interpreted by the host that launches
    /// the job (`clinfl serve` maps `lstm` / `bert` / `bert-mini`).
    /// `None` leaves the host's default.
    pub model: Option<String>,
    /// Aggregation rule.
    pub aggregator: AggregatorKind,
    /// The federation the job runs: the host's base config with the job's
    /// `clients`, `rounds`, `min_clients`, `timeout_s`, `validate` and
    /// `seed` written over it.
    pub federation: SimulatorConfig,
}

impl JobConfig {
    /// Parses the `key = value` job format onto `base`. Unknown keys are
    /// rejected (config typos must fail loudly, not silently fall back to
    /// defaults); blank lines and `#` comments are ignored.
    ///
    /// ```
    /// use clinfl_flare::job::JobConfig;
    /// use clinfl_flare::simulator::SimulatorConfig;
    /// let job = JobConfig::parse("rounds = 5\nmin_clients = 8\n", &SimulatorConfig::default())?;
    /// assert_eq!(job.federation.sag.rounds, 5);
    /// # Ok::<(), clinfl_flare::FlareError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`FlareError::Codec`] with a line-numbered message on any
    /// malformed, unknown, or duplicated entry (a duplicate key would
    /// silently shadow the earlier value — in a config that gates a
    /// multi-hour run, that must fail loudly instead), on a name that could
    /// leave the host's checkpoint root, and on a quorum the job's own
    /// clients could never meet.
    pub fn parse(text: &str, base: &SimulatorConfig) -> Result<Self, FlareError> {
        let mut cfg = JobConfig {
            name: "job".to_string(),
            model: None,
            aggregator: AggregatorKind::WeightedFedAvg,
            federation: base.clone(),
        };
        let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(FlareError::Codec(format!(
                    "line {}: expected `key = value`, got {line:?}",
                    lineno + 1
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            if let Some(first) = seen.insert(key.to_string(), lineno + 1) {
                return Err(FlareError::Codec(format!(
                    "line {}: duplicate job key {key:?} (first set on line {first})",
                    lineno + 1
                )));
            }
            let bad = |what: &str| {
                FlareError::Codec(format!("line {}: invalid {what}: {value:?}", lineno + 1))
            };
            match key {
                "name" if valid_name(value) => cfg.name = value.to_string(),
                "name" => return Err(bad("name (1-64 characters of A-Z a-z 0-9 _ -)")),
                "rounds" => cfg.federation.sag.rounds = value.parse().map_err(|_| bad("rounds"))?,
                "min_clients" => {
                    cfg.federation.sag.min_clients =
                        value.parse().map_err(|_| bad("min_clients"))?
                }
                "timeout_s" => {
                    cfg.federation.sag.round_timeout =
                        Duration::from_secs(value.parse().map_err(|_| bad("timeout_s"))?)
                }
                "validate" => {
                    cfg.federation.sag.validate_global = match value {
                        "true" | "yes" | "1" => true,
                        "false" | "no" | "0" => false,
                        _ => return Err(bad("validate")),
                    }
                }
                "aggregator" => cfg.aggregator = AggregatorKind::parse(value)?,
                "clients" => {
                    cfg.federation.n_clients = value.parse().map_err(|_| bad("clients"))?
                }
                "model" => cfg.model = Some(value.to_string()),
                "seed" => cfg.federation.seed = value.parse().map_err(|_| bad("seed"))?,
                other => {
                    return Err(FlareError::Codec(format!(
                        "line {}: unknown job key {other:?}",
                        lineno + 1
                    )))
                }
            }
        }
        let fed = &cfg.federation;
        if fed.sag.rounds == 0 {
            return Err(FlareError::Codec("rounds must be at least 1".into()));
        }
        if fed.n_clients == 0 {
            return Err(FlareError::Codec("clients must be at least 1".into()));
        }
        if fed.sag.min_clients > fed.n_clients {
            return Err(FlareError::Codec(format!(
                "min_clients {} exceeds clients {}: no round could reach quorum",
                fed.sag.min_clients, fed.n_clients
            )));
        }
        Ok(cfg)
    }
}

/// A job name the host may use as a path component: 1–64 characters of
/// `[A-Za-z0-9_-]`, so never `..`, a separator, or an absolute path.
fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobConfig, FlareError> {
        JobConfig::parse(text, &SimulatorConfig::default())
    }

    #[test]
    fn parses_full_job() {
        let cfg = parse(
            "# ADR fine-tune job\n\
             name = adr-finetune\n\
             rounds = 10\n\
             min_clients = 8\n\
             timeout_s = 120\n\
             validate = true\n\
             aggregator = weighted_fedavg\n",
        )
        .unwrap();
        let sag = &cfg.federation.sag;
        assert_eq!(cfg.name, "adr-finetune");
        assert_eq!(sag.rounds, 10);
        assert_eq!(sag.min_clients, 8);
        assert_eq!(sag.round_timeout, Duration::from_secs(120));
        assert!(sag.validate_global);
        assert_eq!(cfg.aggregator, AggregatorKind::WeightedFedAvg);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let cfg = parse("rounds = 3\n").unwrap();
        assert_eq!(cfg.federation.sag.rounds, 3);
        assert_eq!(cfg.federation.sag.min_clients, 1);
        assert!(cfg.federation.sag.validate_global);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let base = SimulatorConfig::default();
        let cfg = parse("\n# only comments\n\n").unwrap();
        assert_eq!(cfg.name, "job");
        assert_eq!(cfg.model, None);
        assert_eq!(cfg.aggregator, AggregatorKind::WeightedFedAvg);
        assert_eq!(cfg.federation.sag, base.sag);
        assert_eq!(cfg.federation.n_clients, base.n_clients);
        assert_eq!(cfg.federation.seed, base.seed);
    }

    #[test]
    fn unknown_key_rejected_with_line_number() {
        let err = parse("rounds = 2\nbogus = 7\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn malformed_values_rejected() {
        assert!(parse("rounds = many").is_err());
        assert!(parse("validate = maybe").is_err());
        assert!(parse("not a kv line").is_err());
        assert!(parse("rounds = 0").is_err());
        assert!(parse("clients = 0").is_err());
        assert!(parse("seed = minus-one").is_err());
    }

    #[test]
    fn duplicate_key_rejected_with_both_line_numbers() {
        let err = parse(
            "name = a\n\
             rounds = 2\n\
             # comment between\n\
             rounds = 5\n",
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("duplicate"), "{msg}");
        assert!(msg.contains("rounds"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn serve_mode_keys_parse() {
        let cfg = parse("clients = 4\nmodel = lstm\nseed = 99\n").unwrap();
        assert_eq!(cfg.federation.n_clients, 4);
        assert_eq!(cfg.model.as_deref(), Some("lstm"));
        assert_eq!(cfg.federation.seed, 99);
        // Absent keys keep the host's base values.
        let base = SimulatorConfig {
            seed: 7,
            ..SimulatorConfig::default()
        };
        let cfg = JobConfig::parse("rounds = 1\n", &base).unwrap();
        assert_eq!(cfg.federation.n_clients, 8);
        assert_eq!(cfg.model, None);
        assert_eq!(cfg.federation.seed, 7);
    }

    /// The name becomes a directory under the host's checkpoint root, so
    /// anything but a plain path component is refused on its own line.
    #[test]
    fn names_must_be_path_safe() {
        for name in ["x/../../../victim", "..", "/abs", "a b", "a\\b", "é"] {
            let err = parse(&format!("rounds = 1\nname = {name}\n")).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 2") && msg.contains("invalid name"),
                "{msg}"
            );
        }
        assert!(parse("name =").is_err());
        assert!(parse(&format!("name = {}", "n".repeat(65))).is_err());
        let long = "A-z_09".repeat(10) + "abcd";
        assert_eq!(parse(&format!("name = {long}")).unwrap().name, long);
    }

    #[test]
    fn unreachable_quorum_rejected() {
        let msg = parse("clients = 2\nmin_clients = 3\n")
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("min_clients 3") && msg.contains("clients 2"),
            "{msg}"
        );
        assert!(parse("clients = 3\nmin_clients = 3\n").is_ok());
    }

    #[test]
    fn aggregator_aliases() {
        for (alias, kind) in [
            ("fedavg", AggregatorKind::WeightedFedAvg),
            ("median", AggregatorKind::CoordinateMedian),
            ("trimmed_mean", AggregatorKind::TrimmedMean),
            ("secure_sum", AggregatorKind::MaskedSum),
        ] {
            let cfg = parse(&format!("aggregator = {alias}")).unwrap();
            assert_eq!(cfg.aggregator, kind);
        }
        assert!(parse("aggregator = quantum").is_err());
    }

    #[test]
    fn build_produces_named_aggregators() {
        assert_eq!(
            AggregatorKind::WeightedFedAvg.build().name(),
            "WeightedFedAvg"
        );
        assert_eq!(AggregatorKind::MaskedSum.build().name(), "MaskedSum");
    }
}
