//! Frozen views of the metrics registry: JSON in/out, a human summary
//! table, and `target/obs/<run>.json` artifacts.

use crate::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frozen state of one [`crate::Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs; bucket `i` holds samples
    /// `v` with `i == 64 - v.leading_zeros()`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("count", Value::UInt(self.count)),
            ("sum", Value::UInt(self.sum)),
            ("min", Value::UInt(self.min)),
            ("max", Value::UInt(self.max)),
            (
                "buckets",
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram field {k:?} missing or not a u64"))
        };
        let buckets = v
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or("histogram field \"buckets\" missing")?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().filter(|p| p.len() == 2);
                match pair {
                    Some([i, n]) => match (i.as_u64(), n.as_u64()) {
                        (Some(i), Some(n)) if i < crate::HISTOGRAM_BUCKETS as u64 => {
                            Ok((i as u8, n))
                        }
                        _ => Err("bad histogram bucket".to_string()),
                    },
                    _ => Err("bad histogram bucket".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }
}

/// A frozen, deterministically ordered view of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name (includes `span.*` timings).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Converts to a JSON value tree (sorted keys, canonical form).
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            (
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| {
                            let num = if v >= 0 {
                                Value::UInt(v as u64)
                            } else {
                                Value::Int(v)
                            };
                            (k.clone(), num)
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes to canonical JSON. Because the maps are sorted and
    /// the writer is canonical, equal snapshots always produce equal
    /// strings.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let mut snap = MetricsSnapshot::default();
        if let Some(Value::Object(pairs)) = v.get("counters") {
            for (k, val) in pairs {
                let val = val
                    .as_u64()
                    .ok_or_else(|| format!("counter {k:?} is not a u64"))?;
                snap.counters.insert(k.clone(), val);
            }
        }
        if let Some(Value::Object(pairs)) = v.get("gauges") {
            for (k, val) in pairs {
                let val = val
                    .as_i64()
                    .ok_or_else(|| format!("gauge {k:?} is not an i64"))?;
                snap.gauges.insert(k.clone(), val);
            }
        }
        if let Some(Value::Object(pairs)) = v.get("histograms") {
            for (k, val) in pairs {
                snap.histograms
                    .insert(k.clone(), HistogramSnapshot::from_value(val)?);
            }
        }
        Ok(snap)
    }

    /// Writes this snapshot to `<obs_dir>/<run>-<pid>-<seq>.json` and
    /// returns the path. The directory defaults to `target/obs/` at the
    /// workspace root; `CLINFL_OBS_DIR` overrides it. The pid/sequence
    /// suffix keeps concurrent runs (parallel test binaries) from
    /// clobbering each other.
    pub fn write_artifact(&self, run: &str) -> std::io::Result<PathBuf> {
        self.write_artifact_tagged(run, "")
    }

    /// Like [`MetricsSnapshot::write_artifact`], but prefixes the file
    /// name with a job/run `tag`: `<obs_dir>/<tag>-<run>-<pid>-<seq>.json`.
    /// Concurrent jobs sharing one `CLINFL_OBS_DIR` pass their unique job
    /// tag here so their snapshot files stay distinguishable (and cannot
    /// clobber each other even if the sequence counter were reset). Both
    /// components are sanitized to `[A-Za-z0-9._-]` — tags come from
    /// user-submitted job names.
    pub fn write_artifact_tagged(&self, run: &str, tag: &str) -> std::io::Result<PathBuf> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        fn sanitize(s: &str) -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let dir = match std::env::var_os("CLINFL_OBS_DIR") {
            Some(d) => PathBuf::from(d),
            // crates/obs/../../target/obs == <workspace>/target/obs.
            None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/obs"),
        };
        std::fs::create_dir_all(&dir)?;
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let stem = if tag.is_empty() {
            sanitize(run)
        } else {
            format!("{}-{}", sanitize(tag), sanitize(run))
        };
        let path = dir.join(format!("{stem}-{}-{seq}.json", std::process::id()));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.calls".into(), 3);
        snap.counters.insert("b.bytes".into(), u64::MAX);
        snap.gauges.insert("g.peak".into(), -5);
        snap.gauges.insert("g.pos".into(), 7);
        snap.histograms.insert(
            "span.run".into(),
            HistogramSnapshot {
                count: 2,
                sum: 300,
                min: 100,
                max: 200,
                buckets: vec![(7, 1), (8, 1)],
            },
        );
        snap
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // Deterministic: serializing again yields the identical string.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn counter_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("a.calls"), 3);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("{").is_err());
        assert!(MetricsSnapshot::from_json(r#"{"counters":{"x":-1}}"#).is_err());
    }
}
