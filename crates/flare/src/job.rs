//! Declarative job configuration (NVFlare's `job.json`/`config_fed_server`
//! equivalent).
//!
//! NVFlare deployments describe a run — workflow, rounds, aggregator,
//! filters — in a static config shipped to the server. This module gives
//! `clinfl-flare` the same operational surface: a typed [`JobConfig`]
//! parsed from a simple `key = value` text format (no external
//! serialization crates are available offline). A job is a simulator run:
//! besides `name`, `model` and `aggregator`, every key is a key of the
//! federation spec ([`crate::spec`]) and lands in a [`SimulatorConfig`]
//! through [`SimulatorConfig::apply`], bar the keys only the host may
//! set (checkpointing, faults, retry). Every key a job leaves out keeps
//! the value of the host's base config.
//!
//! ```text
//! # adr-finetune.job
//! name        = adr-finetune
//! rounds      = 10
//! min_clients = 8
//! timeout_s   = 600
//! validate    = true
//! aggregator  = weighted_fedavg
//! codec       = delta+topk0.05+int8
//! tree        = 2x3
//! ```

use crate::aggregator::{Aggregator, CoordinateMedian, MaskedSum, TrimmedMean, WeightedFedAvg};
use crate::simulator::SimulatorConfig;
use crate::FlareError;

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

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "weighted_fedavg" | "fedavg" => Ok(AggregatorKind::WeightedFedAvg),
            "coordinate_median" | "median" => Ok(AggregatorKind::CoordinateMedian),
            "trimmed_mean" => Ok(AggregatorKind::TrimmedMean),
            "masked_sum" | "secure_sum" => Ok(AggregatorKind::MaskedSum),
            other => Err(format!(
                "unknown aggregator {other:?} (expected weighted_fedavg, coordinate_median, trimmed_mean, masked_sum)"
            )),
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
    /// spec keys written over it.
    pub federation: SimulatorConfig,
}

/// Spec keys only the host may set: a job text naming one is refused, so
/// a submitted job can never choose where the host writes, nor inject
/// faults or retry settings whose delays and copy counts an abort cannot
/// cut short.
const HOST_KEYS: [&str; 8] = [
    "checkpoint_dir",
    "faults",
    "resume",
    "retain",
    "retry_backoff_ms",
    "retry_max_attempts",
    "retry_message_timeout_s",
    "retry_submit_copies",
];

impl JobConfig {
    /// Parses the `key = value` job format onto `base`: the job-only keys
    /// `name`, `model` and `aggregator`, and every federation key of
    /// [`crate::spec`] but the host-owned `checkpoint_dir`, `resume`,
    /// `retain`, `faults` and `retry_*`. Unknown keys are rejected (config
    /// typos must fail loudly, not silently fall back to defaults); blank
    /// lines and `#` comments are ignored.
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
    /// malformed, unknown, host-owned or duplicated entry (a duplicate
    /// key would silently shadow the earlier value — in a config that
    /// gates a multi-hour run, that must fail loudly instead), on a name
    /// that could leave the host's checkpoint root, and on a federation
    /// [`SimulatorConfig::validate`] refuses.
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
            let at = |msg: String| FlareError::Codec(format!("line {}: {msg}", lineno + 1));
            let Some((key, value)) = line.split_once('=') else {
                return Err(at(format!("expected `key = value`, got {line:?}")));
            };
            let (key, value) = (key.trim(), value.trim());
            if let Some(first) = seen.insert(key.to_string(), lineno + 1) {
                return Err(at(format!(
                    "duplicate job key {key:?} (first set on line {first})"
                )));
            }
            if HOST_KEYS.contains(&key) {
                return Err(at(format!("{key} is set by the host, not by a job")));
            }
            match key {
                "name" if valid_name(value) => cfg.name = value.to_string(),
                "name" => {
                    return Err(at(format!(
                        "invalid name (1-64 characters of A-Z a-z 0-9 _ -): {value:?}"
                    )))
                }
                "model" => cfg.model = Some(value.to_string()),
                "aggregator" => cfg.aggregator = AggregatorKind::parse(value).map_err(at)?,
                _ => cfg.federation.apply(key, value).map_err(at)?,
            }
        }
        cfg.federation.validate().map_err(FlareError::Codec)?;
        if cfg.aggregator == AggregatorKind::MaskedSum
            && cfg.federation.sag.client_sample_fraction < 1.0
        {
            return Err(FlareError::Codec(
                "masked_sum needs every site every round: its masks cancel only in the full sum, \
                 so sample_fraction must be 1"
                    .into(),
            ));
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
    use std::time::Duration;

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
        let mut want = SimulatorConfig::default();
        want.sag.rounds = 3;
        assert_eq!(parse("rounds = 3\n").unwrap().federation, want);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let base = SimulatorConfig::default();
        let cfg = parse("\n# only comments\n\n").unwrap();
        assert_eq!(cfg.name, "job");
        assert_eq!(cfg.model, None);
        assert_eq!(cfg.aggregator, AggregatorKind::WeightedFedAvg);
        assert_eq!(cfg.federation, base);
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

    /// Job text arrives over HTTP: sizes that would exhaust memory or the
    /// stack are refused on their line, and so are the keys that would
    /// let a job choose where the host writes or stall its own threads
    /// past an abort.
    #[test]
    fn hostile_jobs_are_refused_on_their_line() {
        for (line, what) in [
            ("clients = 10000000000", "invalid clients"),
            ("clients = 4097", "invalid clients"),
            ("tree = 1000000x2", "invalid tree"),
            ("checkpoint_dir = /tmp/x", "set by the host"),
            ("resume = true", "set by the host"),
            ("retain = 1", "set by the host"),
            (
                "faults = delay:1000,delay_ms:4294967296000",
                "set by the host",
            ),
            ("retry_submit_copies = 4294967295", "set by the host"),
            ("retry_backoff_ms = 4294967296000", "set by the host"),
            ("retry_max_attempts = 4294967295", "set by the host"),
            ("retry_message_timeout_s = 4294967296", "set by the host"),
            ("retry_heartbeat = false", "unknown key"),
            ("dp = clip:1,sigma:0", "invalid dp"),
            ("dp = clip:inf", "invalid dp"),
            ("dp = clip:1,delta:1", "invalid dp"),
        ] {
            let msg = parse(&format!("rounds = 1\n{line}\n"))
                .unwrap_err()
                .to_string();
            assert!(msg.contains("line 2") && msg.contains(what), "{msg}");
        }
        let job = parse("clients = 4096\ntree = 12x2\n").unwrap();
        assert_eq!(job.federation.n_clients, crate::spec::MAX_SITES);
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

    /// DP-SGD is a job key; `masked_sum`'s masks cancel only over every
    /// site, so a sampled masked-sum job is refused.
    #[test]
    fn dp_is_a_job_key_and_masked_sum_needs_every_site() {
        let job = parse("dp = clip:2,sigma:0.5\n").unwrap();
        let dp = job.federation.dp.unwrap();
        assert_eq!((dp.clip, dp.sigma, dp.delta), (2.0, 0.5, 1e-5));
        let msg = parse("aggregator = masked_sum\nsample_fraction = 0.5\n")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("masked_sum needs every site"), "{msg}");
        assert!(parse("aggregator = masked_sum\n").is_ok());
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
