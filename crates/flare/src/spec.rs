//! The federation spec's text form: one `key = value` grammar over
//! [`SimulatorConfig`].
//!
//! NVFlare describes a run in one job-config document that the simulator
//! and a deployment both read. Here that document is the spec text:
//! [`SimulatorConfig::apply`] writes one key, [`SimulatorConfig::to_text`]
//! prints every key in canonical form, and [`SimulatorConfig::validate`]
//! holds the cross-key range checks. One table, [`SPEC_KEYS`], maps each
//! key to its field in both directions, so the job format
//! ([`crate::job::JobConfig::parse`]), the `clinfl` flags and the
//! checkpoint record all speak the same grammar. No environment
//! variable reshapes a run: what the text says is what runs.
//!
//! ```text
//! clients = 8
//! codec = delta+topk0.05+int8
//! dp = clip:1,sigma:0.8,delta:0.00001
//! faults = none
//! min_clients = 1
//! rounds = 10
//! sample_fraction = 1
//! seed = 2023
//! timeout_s = 600
//! tree = 2x3
//! validate = true
//! ```
//!
//! Optional fields print only when set, and a missing key leaves the
//! field as it was (a spec without `tree` runs a flat fleet). A crashed
//! site is the `faults` key's `crash:S@R`.

use crate::codec::CodecSpec;
use crate::faults::FaultConfig;
use crate::privacy::DpConfig;
use crate::simulator::{SimulatorConfig, TreeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Most sites one federation may have. Text from outside the process (a
/// job submitted over HTTP) sizes per-site allocations by `clients`, so
/// the grammar refuses anything larger.
pub const MAX_SITES: usize = 4096;

/// Deepest aggregation tree the grammar accepts: `log2(MAX_SITES)`. Past
/// that depth every fan-out of at least 2 already covers [`MAX_SITES`],
/// so deeper trees only add single-child relays.
pub const MAX_TREE_DEPTH: u32 = MAX_SITES.ilog2();

/// Longest duration the grammar accepts (2^32 s, about 136 years), so a
/// deadline computed from it can never overflow an `Instant`.
const MAX_DURATION_NS: u128 = (1 << 32) * S;

/// Nanoseconds per unit of the `_ms` and `_s` keys.
pub(crate) const MS: u128 = 1_000_000;
const S: u128 = 1_000_000_000;

/// One key of the grammar: its name, the value placeholder `--help`
/// shows, and how it reads and writes its field.
pub struct SpecKey {
    /// The key, as written in spec text and as a `--<key>` flag.
    pub name: &'static str,
    /// Value placeholder for usage text (`N`, `DxF`, …).
    pub hint: &'static str,
    get: fn(&SimulatorConfig) -> Option<String>,
    set: fn(&mut SimulatorConfig, &str) -> Result<(), String>,
}

/// Every key of the grammar, sorted by name (the order
/// [`SimulatorConfig::to_text`] prints).
pub const SPEC_KEYS: &[SpecKey] = &[
    SpecKey {
        name: "checkpoint_dir",
        hint: "DIR",
        get: |c| c.checkpoint_dir.as_ref().map(|d| d.display().to_string()),
        set: |c, v| match v {
            "" => Err("expected a directory".into()),
            dir => put(&mut c.checkpoint_dir, Ok(Some(PathBuf::from(dir)))),
        },
    },
    SpecKey {
        name: "clients",
        hint: "N",
        get: |c| Some(c.n_clients.to_string()),
        set: |c, v| match num(v)? {
            n if n <= MAX_SITES => put(&mut c.n_clients, Ok(n)),
            _ => Err(format!("at most {MAX_SITES} sites")),
        },
    },
    SpecKey {
        name: "codec",
        hint: "CODEC",
        get: |c| Some(c.wire.to_string()),
        set: |c, v| put(&mut c.wire, CodecSpec::parse(v)),
    },
    SpecKey {
        name: "dp",
        hint: "clip:C[,sigma:S][,delta:D]",
        get: |c| c.dp.map(|dp| dp.to_string()),
        set: |c, v| match v {
            "off" => put(&mut c.dp, Ok(None)),
            dp => put(&mut c.dp, DpConfig::parse(dp).map(Some)),
        },
    },
    SpecKey {
        name: "faults",
        hint: "FAULTS",
        get: |c| Some(c.faults.to_string()),
        set: |c, v| put(&mut c.faults, FaultConfig::parse(v)),
    },
    SpecKey {
        name: "min_clients",
        hint: "N",
        get: |c| Some(c.sag.min_clients.to_string()),
        set: |c, v| put(&mut c.sag.min_clients, num(v)),
    },
    SpecKey {
        name: "quorum_grace_ms",
        hint: "MS",
        get: |c| c.sag.quorum_grace.map(|g| format_duration(g, MS)),
        set: |c, v| put(&mut c.sag.quorum_grace, parse_duration(v, MS).map(Some)),
    },
    SpecKey {
        name: "resume",
        hint: "BOOL",
        get: |c| Some(c.resume.to_string()),
        set: |c, v| put(&mut c.resume, boolean(v)),
    },
    SpecKey {
        name: "retain",
        hint: "N",
        get: |c| c.retain_checkpoints.map(|n| n.to_string()),
        set: |c, v| put(&mut c.retain_checkpoints, num(v).map(Some)),
    },
    SpecKey {
        name: "retry_backoff_ms",
        hint: "MS",
        get: |c| Some(format_duration(c.retry.backoff, MS)),
        set: |c, v| put(&mut c.retry.backoff, parse_duration(v, MS)),
    },
    SpecKey {
        name: "retry_max_attempts",
        hint: "N",
        get: |c| Some(c.retry.max_attempts.to_string()),
        set: |c, v| put(&mut c.retry.max_attempts, num(v)),
    },
    SpecKey {
        name: "retry_message_timeout_s",
        hint: "S",
        get: |c| Some(format_duration(c.retry.message_timeout, S)),
        set: |c, v| put(&mut c.retry.message_timeout, parse_duration(v, S)),
    },
    SpecKey {
        name: "retry_submit_copies",
        hint: "N",
        get: |c| Some(c.retry.submit_copies.to_string()),
        set: |c, v| put(&mut c.retry.submit_copies, num(v)),
    },
    SpecKey {
        name: "rounds",
        hint: "N",
        get: |c| Some(c.sag.rounds.to_string()),
        set: |c, v| put(&mut c.sag.rounds, num(v)),
    },
    SpecKey {
        name: "sample_fraction",
        hint: "F",
        get: |c| Some(c.sag.client_sample_fraction.to_string()),
        set: |c, v| put(&mut c.sag.client_sample_fraction, num(v)),
    },
    SpecKey {
        name: "seed",
        hint: "N",
        get: |c| Some(c.seed.to_string()),
        set: |c, v| put(&mut c.seed, num(v)),
    },
    SpecKey {
        name: "timeout_s",
        hint: "S",
        get: |c| Some(format_duration(c.sag.round_timeout, S)),
        set: |c, v| put(&mut c.sag.round_timeout, parse_duration(v, S)),
    },
    SpecKey {
        name: "tree",
        hint: "DxF",
        get: |c| c.tree.map(|t| format!("{}x{}", t.depth, t.fanout)),
        set: |c, v| match TreeConfig::parse(v) {
            Some(t) if (1..=MAX_TREE_DEPTH).contains(&t.depth) => put(&mut c.tree, Ok(Some(t))),
            _ => Err(format!(
                "expected DEPTHxFANOUT with depth 1..={MAX_TREE_DEPTH}"
            )),
        },
    },
    SpecKey {
        name: "validate",
        hint: "BOOL",
        get: |c| Some(c.sag.validate_global.to_string()),
        set: |c, v| put(&mut c.sag.validate_global, boolean(v)),
    },
];

impl SimulatorConfig {
    /// Sets one spec key from its text value (trimmed).
    ///
    /// ```
    /// use clinfl_flare::simulator::SimulatorConfig;
    /// let mut spec = SimulatorConfig::default();
    /// spec.apply("codec", "delta+int8")?;
    /// spec.apply("tree", "2x3")?;
    /// assert!(spec.to_text().contains("codec = delta+int8\n"));
    /// # Ok::<(), String>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A message naming the key, for an unknown key or a malformed or
    /// out-of-range value. The config is unchanged on error.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        let value = value.trim();
        let spec = SPEC_KEYS
            .iter()
            .find(|k| k.name == key)
            .ok_or_else(|| format!("unknown key {key:?}"))?;
        (spec.set)(self, value).map_err(|e| format!("invalid {key} {value:?}: {e}"))
    }

    /// The canonical spec text: one `key = value` line per set key, in
    /// key order. Applying its lines to a default config rebuilds this
    /// one.
    pub fn to_text(&self) -> String {
        SPEC_KEYS
            .iter()
            .filter_map(|k| Some(format!("{} = {}\n", k.name, (k.get)(self)?)))
            .collect()
    }

    /// Checks the ranges no single key can: at least one round and one
    /// site, a quorum the sites can meet, and a positive sampling
    /// fraction.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn validate(&self) -> Result<(), String> {
        let sag = &self.sag;
        if sag.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if self.n_clients == 0 {
            return Err("clients must be at least 1".into());
        }
        if sag.min_clients > self.n_clients {
            return Err(format!(
                "min_clients {} exceeds clients {}: no round could reach quorum",
                sag.min_clients, self.n_clients
            ));
        }
        if sag.client_sample_fraction.is_nan() || sag.client_sample_fraction <= 0.0 {
            return Err(format!(
                "sample_fraction must be positive, got {}",
                sag.client_sample_fraction
            ));
        }
        Ok(())
    }
}

/// Keys a resume may change: a run can be extended (`rounds`) and its
/// checkpoint directory moved or pruned differently without changing the
/// bits of any round. `tree` is not compared either: a resume restores
/// the recorded topology.
const RESUME_EXEMPT: [&str; 5] = ["checkpoint_dir", "resume", "retain", "rounds", "tree"];

/// Why a run whose effective spec is `current` may not resume a
/// checkpoint recorded under `recorded`: every non-exempt key whose
/// values differ, with both values. `None` when they agree.
pub(crate) fn resume_mismatch(recorded: &str, current: &str) -> Option<String> {
    let entries = |text| -> BTreeMap<&str, &str> {
        text_lines(text)
            .filter(|(k, _)| !RESUME_EXEMPT.contains(k))
            .collect()
    };
    let (was, now) = (entries(recorded), entries(current));
    let unset = "(unset)";
    let diffs: Vec<String> = was
        .keys()
        .chain(now.keys())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|k| was.get(*k) != now.get(*k))
        .map(|k| {
            format!(
                "{k}: checkpoint has {}, this run has {}",
                was.get(k).unwrap_or(&unset),
                now.get(k).unwrap_or(&unset)
            )
        })
        .collect();
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

fn text_lines(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
}

/// Stores a parsed value; on error the field keeps its old value.
fn put<T>(field: &mut T, value: Result<T, String>) -> Result<(), String> {
    *field = value?;
    Ok(())
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "expected a number".to_string())
}

fn boolean(v: &str) -> Result<bool, String> {
    match v {
        "true" | "yes" | "1" => Ok(true),
        "false" | "no" | "0" => Ok(false),
        _ => Err("expected true or false".into()),
    }
}

/// `d` as an exact decimal count of `unit_ns`-nanosecond units (`1.5`
/// for 1500 ms in seconds); [`parse_duration`] reads it back.
pub(crate) fn format_duration(d: Duration, unit_ns: u128) -> String {
    let ns = d.as_nanos();
    let (whole, frac) = (ns / unit_ns, ns % unit_ns);
    if frac == 0 {
        return whole.to_string();
    }
    let width = unit_ns.ilog10() as usize;
    let digits = format!("{frac:0width$}");
    format!("{whole}.{}", digits.trim_end_matches('0'))
}

/// Parses a non-negative decimal count of `unit_ns`-nanosecond units,
/// exact to the nanosecond.
pub(crate) fn parse_duration(v: &str, unit_ns: u128) -> Result<Duration, String> {
    let bad = || "expected a non-negative duration of at most 2^32 s".to_string();
    let width = unit_ns.ilog10() as usize;
    let (whole, frac) = v.split_once('.').unwrap_or((v, ""));
    if whole.is_empty() || frac.len() > width || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    let whole: u128 = whole.parse().map_err(|_| bad())?;
    let frac: u128 = format!("{frac:0<width$}").parse().map_err(|_| bad())?;
    whole
        .checked_mul(unit_ns)
        .and_then(|ns| ns.checked_add(frac))
        .filter(|ns| *ns <= MAX_DURATION_NS)
        .and_then(|ns| u64::try_from(ns).ok())
        .map(Duration::from_nanos)
        .ok_or_else(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::QuantMode;

    /// The value of `key` in spec text, if the text sets it.
    fn spec_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        text_lines(text).find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    #[test]
    fn keys_are_sorted_and_unique() {
        assert!(SPEC_KEYS.windows(2).all(|w| w[0].name < w[1].name));
    }

    #[test]
    fn default_text_round_trips_and_omits_unset_options() {
        let text = SimulatorConfig::default().to_text();
        for absent in ["checkpoint_dir", "dp", "quorum_grace_ms", "retain", "tree"] {
            assert_eq!(spec_value(&text, absent), None, "{text}");
        }
        assert_eq!(spec_value(&text, "codec"), Some("raw"));
        assert_eq!(spec_value(&text, "faults"), Some("none"));
        let mut back = SimulatorConfig::default();
        for (k, v) in text_lines(&text) {
            back.apply(k, v).unwrap();
        }
        assert_eq!(back, SimulatorConfig::default());
    }

    #[test]
    fn apply_maps_keys_to_fields() {
        let mut c = SimulatorConfig::default();
        for (k, v) in [
            ("clients", "12"),
            ("codec", "delta+topk0.05+int8"),
            ("dp", "sigma:0.8, clip:1.5"),
            ("faults", "aggressive,seed:4"),
            ("quorum_grace_ms", "250"),
            ("retry_message_timeout_s", "1.5"),
            ("sample_fraction", "0.5"),
            ("timeout_s", "90"),
            ("tree", "2x3"),
            ("validate", "no"),
        ] {
            c.apply(k, v).unwrap();
        }
        assert_eq!(c.n_clients, 12);
        assert_eq!(c.wire.quant, QuantMode::Int8);
        assert_eq!(c.wire.topk_permille, Some(50));
        assert_eq!(
            c.dp,
            Some(DpConfig {
                clip: 1.5,
                sigma: 0.8,
                delta: 1e-5
            })
        );
        assert_eq!(c.faults, FaultConfig::aggressive(4));
        assert_eq!(c.sag.quorum_grace, Some(Duration::from_millis(250)));
        assert_eq!(c.retry.message_timeout, Duration::from_millis(1500));
        assert_eq!(c.sag.client_sample_fraction, 0.5);
        assert_eq!(c.sag.round_timeout, Duration::from_secs(90));
        assert_eq!(
            c.tree,
            Some(TreeConfig {
                depth: 2,
                fanout: 3
            })
        );
        assert!(!c.sag.validate_global);
    }

    #[test]
    fn hostile_values_are_refused_and_leave_the_config_unchanged() {
        let mut c = SimulatorConfig::default();
        for (k, v) in [
            ("clients", "10000000000"),
            ("clients", "4097"),
            ("tree", "1000000x2"),
            ("tree", "13x2"),
            ("tree", "0"),
            ("timeout_s", "18446744073709551615"),
            ("timeout_s", "-1"),
            ("quorum_grace_ms", "1.0000001"),
            ("faults", "drop:1001"),
            ("faults", "crash:5"),
            ("codec", "zip"),
            ("dp", "sigma:1"),
            ("dp", "clip:0"),
            ("dp", "clip:NaN"),
            ("dp", "clip:1e39"),
            ("dp", "clip:1,sigma:0"),
            ("dp", "clip:1,sigma:inf"),
            ("dp", "clip:1,delta:1"),
            ("dp", "clip:1,delta:0"),
            ("dp", "clip:1,clip:2"),
            ("dp", "clip:1,noise:2"),
            ("validate", "maybe"),
            ("bogus", "1"),
        ] {
            let err = c.apply(k, v).unwrap_err();
            assert!(err.contains(k), "{k} = {v}: {err}");
        }
        assert_eq!(c, SimulatorConfig::default());
        c.apply("clients", &MAX_SITES.to_string()).unwrap();
        c.apply("tree", &format!("{MAX_TREE_DEPTH}x2")).unwrap();
        c.apply("dp", "clip:1").unwrap();
        assert_eq!(
            spec_value(&c.to_text(), "dp"),
            Some("clip:1,sigma:1,delta:0.00001")
        );
        c.apply("dp", "off").unwrap();
        assert_eq!(c.dp, None);
    }

    #[test]
    fn validate_holds_the_cross_key_checks() {
        let ok = SimulatorConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let with = |k: &str, v: &str| {
            let mut c = SimulatorConfig::default();
            c.apply(k, v).unwrap();
            c.validate()
        };
        assert!(with("rounds", "0").unwrap_err().contains("rounds"));
        assert!(with("clients", "0").unwrap_err().contains("clients"));
        assert!(with("min_clients", "9")
            .unwrap_err()
            .contains("min_clients 9"));
        assert!(with("sample_fraction", "0").is_err());
        assert!(with("sample_fraction", "NaN").is_err());
        assert_eq!(with("min_clients", "8"), Ok(()));
    }

    #[test]
    fn durations_print_exactly() {
        let ms = MS;
        for (d, s) in [
            (Duration::from_millis(1500), "1500"),
            (Duration::from_micros(2500), "2.5"),
            (Duration::from_nanos(1), "0.000001"),
        ] {
            assert_eq!(format_duration(d, ms), s);
            assert_eq!(parse_duration(s, ms), Ok(d));
        }
        assert!(parse_duration(".5", ms).is_err());
        assert!(parse_duration("1.0000001", ms).is_err());
    }

    #[test]
    fn resume_mismatch_names_each_key_and_skips_exempt_ones() {
        let mut a = SimulatorConfig::default();
        let mut b = a.clone();
        b.sag.rounds = 20;
        b.resume = true;
        b.checkpoint_dir = Some("elsewhere".into());
        assert_eq!(resume_mismatch(&a.to_text(), &b.to_text()), None);
        b.apply("codec", "delta").unwrap();
        a.apply("quorum_grace_ms", "100").unwrap();
        b.apply("dp", "clip:1").unwrap();
        let why = resume_mismatch(&a.to_text(), &b.to_text()).unwrap();
        assert!(
            why.contains("codec: checkpoint has raw, this run has delta"),
            "{why}"
        );
        assert!(
            why.contains("quorum_grace_ms: checkpoint has 100, this run has (unset)"),
            "{why}"
        );
        assert!(
            why.contains("dp: checkpoint has (unset), this run has clip:1,sigma:1,delta:0.00001"),
            "{why}"
        );
    }

    /// A checkpoint recorded under a key that no longer exists
    /// (`retry_heartbeat`, whose heartbeat is now always on) is refused
    /// at resume, and the refusal names the key.
    #[test]
    fn resume_refuses_a_spec_naming_a_removed_key() {
        let now = SimulatorConfig::default().to_text();
        let recorded = format!("{now}retry_heartbeat = true\n");
        let why = resume_mismatch(&recorded, &now).unwrap();
        assert_eq!(
            why, "retry_heartbeat: checkpoint has true, this run has (unset)",
            "{why}"
        );
    }
}
