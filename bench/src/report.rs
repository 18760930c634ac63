//! Metric tables and the JSON the benchmark prints and records.
//!
//! The two tables are the single list of metric names: `BENCHMARK.json`
//! must agree with them (a unit test reads the file) and a run must give a
//! value for every name of the table it reports.

use crate::adapter::Json;

/// `(name, unit, better, bound)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("round_s", "s", "lower", 0.20),
    ("cpu_s_per_round", "s", "lower", 0.20),
    ("examples_per_s", "1/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("wire_bytes_per_round", "B", "lower", 0.01),
    ("final_error", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("completed_share", "ratio", "higher", 0.001),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("tensor.kernels.gemm_calls_per_round", "count", "lower"),
    ("tensor.kernels.gemm_busy_ms_per_round", "ms", "lower"),
    ("tensor.kernels.gemm_gflops", "GFLOP/s", "higher"),
    ("tensor.kernels.rowwise_busy_ms_per_round", "ms", "lower"),
    ("tensor.arena.hit_ratio", "ratio", "higher"),
    ("tensor.arena.misses_per_round", "count", "lower"),
    ("tensor.graph.nodes_per_step", "count", "lower"),
    ("models.forward_ms_per_step", "ms", "lower"),
    ("tensor.graph.backward_ms_per_step", "ms", "lower"),
    ("tensor.optim.step_ms_per_step", "ms", "lower"),
    ("core.executor.train_busy_ms_per_round", "ms", "lower"),
    ("core.executor.validate_busy_ms_per_round", "ms", "lower"),
    ("core.executor.train_wait_ms_per_round", "ms", "lower"),
    ("core.executor.slowest_site_share", "ratio", "lower"),
    ("core.weights.load_ms_per_call", "ms", "lower"),
    ("core.weights.export_ms_per_call", "ms", "lower"),
    ("flare.dxo.build_ms_per_call", "ms", "lower"),
    ("flare.codec.uplink_encode_ms_per_call", "ms", "lower"),
    ("flare.codec.uplink_decode_ms_per_call", "ms", "lower"),
    ("flare.codec.downlink_encode_ms_per_call", "ms", "lower"),
    ("flare.codec.downlink_decode_ms_per_call", "ms", "lower"),
    ("flare.codec.encode_gib_s", "GiB/s", "higher"),
    ("flare.codec.decode_gib_s", "GiB/s", "higher"),
    ("flare.codec.reduction", "ratio", "higher"),
    ("flare.wire.encode_ms_per_call", "ms", "lower"),
    ("flare.wire.decode_ms_per_call", "ms", "lower"),
    ("flare.security.seal_ms_per_call", "ms", "lower"),
    ("flare.security.open_ms_per_call", "ms", "lower"),
    ("flare.security.seal_gib_s", "GiB/s", "higher"),
    ("flare.security.open_gib_s", "GiB/s", "higher"),
    ("flare.transport.send_busy_ms_per_round", "ms", "lower"),
    ("flare.transport.recv_wait_ms_per_round", "ms", "lower"),
    ("flare.transport.frames_per_round", "count", "lower"),
    ("flare.transport.bytes_per_round", "B", "lower"),
    ("flare.transport.loopback_gib_s", "GiB/s", "higher"),
    ("flare.client.pre_train_gap_ms_per_round", "ms", "lower"),
    ("flare.client.retries_per_round", "count", "lower"),
    ("flare.client.send_errors", "count", "lower"),
    ("flare.server.frame_work_ms_per_round", "ms", "lower"),
    ("flare.controller.gather_wait_ms_per_round", "ms", "lower"),
    ("flare.aggregator.aggregate_ms_per_round", "ms", "lower"),
    ("flare.persistor.save_ms_per_round", "ms", "lower"),
    ("flare.persistor.checkpoint_ms_per_round", "ms", "lower"),
    ("flare.persistor.bytes_per_round", "B", "lower"),
    ("data.cohort.generate_ms", "ms", "lower"),
    ("data.partition_ms", "ms", "lower"),
    ("text.tokenize_ms", "ms", "lower"),
    ("core.learner.init_ms", "ms", "lower"),
    ("flare.provision.register_ms", "ms", "lower"),
    ("ledger.cpu_coverage", "ratio", "higher"),
    ("ledger.unattributed_ms_per_round", "ms", "lower"),
    ("ledger.tensor_kernels_share", "ratio", "lower"),
    ("ledger.tensor_step_share", "ratio", "lower"),
    ("ledger.core_executor_share", "ratio", "lower"),
    ("ledger.weights_dxo_share", "ratio", "lower"),
    ("ledger.flare_codec_share", "ratio", "lower"),
    ("ledger.wire_security_share", "ratio", "lower"),
    ("ledger.flare_transport_share", "ratio", "lower"),
    ("ledger.flare_endpoints_share", "ratio", "lower"),
    ("ledger.aggregate_persist_share", "ratio", "lower"),
    ("ledger.setup_share", "ratio", "lower"),
    ("harness.round_p_hi_s", "s", "lower"),
    ("harness.round_samples", "count", "higher"),
    ("harness.trace_overhead", "ratio", "lower"),
];

/// Ledger shares a history row keeps.
pub const LEDGER_SHARES: [&str; 10] = [
    "ledger.tensor_kernels_share",
    "ledger.tensor_step_share",
    "ledger.core_executor_share",
    "ledger.weights_dxo_share",
    "ledger.flare_codec_share",
    "ledger.wire_security_share",
    "ledger.flare_transport_share",
    "ledger.flare_endpoints_share",
    "ledger.aggregate_persist_share",
    "ledger.setup_share",
];

/// Named values of one run, in table order.
pub type Metrics = Vec<(&'static str, f64)>;

/// One enforced check, printed by every run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result object the contract asks for as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value)| {
            (
                name.to_string(),
                Json::object(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit_of(name).to_string())),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_json()
}

/// Every name of the table must have exactly one finite value, in order.
pub fn table_mismatch(names: &[&str], metrics: &Metrics) -> Option<String> {
    if names.len() != metrics.len() {
        return Some(format!(
            "{} metrics reported, {} in the table",
            metrics.len(),
            names.len()
        ));
    }
    names
        .iter()
        .zip(metrics)
        .find(|(n, (m, v))| *n != m || !v.is_finite())
        .map(|(n, (m, v))| format!("expected {n}, got {m} = {v}"))
}

/// One `history.jsonl` row: commit, seed, workload, the eight end-to-end
/// metrics and the ledger shares.
pub fn history_row(
    commit: &str,
    seed: u64,
    workload: &str,
    end_to_end: &[(String, f64)],
    ledger: &[(String, f64)],
) -> Json {
    let floats = |pairs: &[(String, f64)]| {
        Json::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    };
    Json::object(vec![
        ("schema", Json::Str(HISTORY_SCHEMA.to_string())),
        ("commit", Json::Str(commit.to_string())),
        ("seed", Json::UInt(seed)),
        ("workload", Json::Str(workload.to_string())),
        ("end_to_end", floats(end_to_end)),
        ("ledger", floats(ledger)),
    ])
}

pub const HISTORY_SCHEMA: &str = "fedbench-history/v1";

/// Checks a parsed history row against the schema; `Err` names the fault.
pub fn check_history_row(row: &Json) -> Result<(), String> {
    if row.get("schema").and_then(Json::as_str) != Some(HISTORY_SCHEMA) {
        return Err("schema tag missing or unknown".to_string());
    }
    for key in ["commit", "workload"] {
        row.get(key)
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or(format!("{key} missing"))?;
    }
    row.get("seed")
        .and_then(Json::as_u64)
        .ok_or("seed missing")?;
    let section = |key: &str, names: &mut dyn Iterator<Item = &str>| -> Result<(), String> {
        let obj = row.get(key).ok_or(format!("{key} missing"))?;
        for name in names {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("{key}.{name} missing"))?;
        }
        Ok(())
    };
    section("end_to_end", &mut END_TO_END.iter().map(|m| m.0))?;
    section("ledger", &mut LEDGER_SHARES.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
            assert!(unit_of(n).len() <= 16 && !unit_of(n).is_empty(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for share in LEDGER_SHARES {
            assert!(PER_LAYER.iter().any(|m| m.0 == share), "{share}");
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Object(pairs) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, &(name, unit, better, bound)) in listed.iter().zip(&END_TO_END) {
            assert_eq!(str_of(entry, "name"), name);
            assert_eq!(str_of(entry, "unit"), unit);
            assert_eq!(str_of(entry, "better"), better);
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let listed = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(entry, "name"), name);
            assert_eq!(str_of(entry, "unit"), unit);
            assert_eq!(str_of(entry, "better"), better);
        }
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<String> = listed.iter().map(|w| str_of(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert!(listed.iter().all(|w| str_of(w, "why").len() <= 200));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics: Metrics = vec![("round_s", 1.25), ("setup_s", 0.5)];
        let line = result_line(true, 192, 0, &metrics);
        let doc = Json::parse(&line).unwrap();
        let Json::Object(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let round = doc.get("metrics").and_then(|m| m.get("round_s")).unwrap();
        assert_eq!(round.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(round.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn table_mismatch_catches_order_count_and_nan() {
        let table = || [END_TO_END[0].0, END_TO_END[1].0];
        assert_eq!(
            table_mismatch(&table(), &vec![("round_s", 1.0), ("cpu_s_per_round", 2.0)]),
            None
        );
        assert!(table_mismatch(&table(), &vec![("round_s", 1.0)]).is_some());
        assert!(
            table_mismatch(&table(), &vec![("cpu_s_per_round", 2.0), ("round_s", 1.0)]).is_some()
        );
        assert!(table_mismatch(
            &table(),
            &vec![("round_s", f64::NAN), ("cpu_s_per_round", 2.0)]
        )
        .is_some());
    }

    #[test]
    fn history_rows_round_trip_through_the_schema_check() {
        let e2e: Vec<(String, f64)> = END_TO_END.iter().map(|m| (m.0.to_string(), 1.5)).collect();
        let ledger: Vec<(String, f64)> =
            LEDGER_SHARES.iter().map(|n| (n.to_string(), 0.1)).collect();
        let row = history_row("129e7279f1dc", 7, "lstm_finetune", &e2e, &ledger);
        let parsed = Json::parse(&row.to_json()).unwrap();
        assert_eq!(check_history_row(&parsed), Ok(()));
        let short = history_row("c", 7, "w", &e2e[1..], &ledger);
        assert!(check_history_row(&short).unwrap_err().contains("round_s"));
        assert!(check_history_row(&Json::object(vec![])).is_err());
    }

    fn committed_rows() -> Vec<Json> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/history.jsonl");
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn committed_history_rows_match_the_schema() {
        let rows = committed_rows();
        assert!(rows.len() >= 8, "two run-sets of four workloads");
        for row in &rows {
            check_history_row(row).unwrap();
        }
    }

    /// Each group of layers takes at least 15 % of the CPU on the workload
    /// built for it and at least 3x its share on the workload built to
    /// bypass it — in every committed run-set.
    #[test]
    fn committed_rows_show_each_workload_stresses_its_layers() {
        let share = |row: &Json, names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| {
                    let key = format!("ledger.{n}_share");
                    row.get("ledger")
                        .and_then(|l| l.get(&key))
                        .and_then(Json::as_f64)
                        .unwrap()
                })
                .sum()
        };
        let of = |rows: &[Json], workload: &str| -> Vec<Json> {
            rows.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
                .cloned()
                .collect()
        };
        let rows = committed_rows();
        let step = [
            "tensor_kernels",
            "tensor_step",
            "core_executor",
            "weights_dxo",
        ];
        let codec = ["flare_codec"];
        let exchange = ["wire_security", "flare_transport", "aggregate_persist"];
        for (group, built_for, bypassed_by) in [
            (&step[..], "lstm_finetune", "exchange_raw_tcp"),
            (&codec[..], "exchange_codec", "exchange_raw_tcp"),
            (&exchange[..], "exchange_raw_tcp", "exchange_codec"),
        ] {
            let pairs = of(&rows, built_for).into_iter().zip(of(&rows, bypassed_by));
            for (on, off) in pairs {
                let (on, off) = (share(&on, group), share(&off, group));
                assert!(on >= 0.15, "{group:?} on {built_for}: {on}");
                assert!(
                    on >= 3.0 * off,
                    "{group:?}: {on} on {built_for}, {off} on {bypassed_by}"
                );
            }
        }
    }
}
