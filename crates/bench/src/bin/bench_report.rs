//! Machine-readable bench telemetry: runs a real federated smoke
//! workload with observability on and writes a schema-stable
//! `BENCH_report.json` summarizing kernel time, round time, wire
//! traffic, and arena efficiency.
//!
//! Modes:
//!
//! * `bench_report --smoke [--out PATH]` — exercise the tensor kernels
//!   directly, then run the paper's 8-site federated LSTM pipeline at
//!   fast-demo scale, and write the report (default `BENCH_report.json`)
//!   built from the before/after metrics-snapshot delta.
//! * `bench_report --check PATH [--min-reduction R]` — validate an
//!   existing report against the `clinfl-bench-report/v1` schema; exits
//!   non-zero (listing every violation) if the file is missing,
//!   unparsable, or incomplete. `--min-reduction R` additionally requires
//!   the report's `wire.reduction` (raw bytes / encoded bytes) to be at
//!   least `R`.
//!
//! The smoke workload honors `CLINFL_WIRE_CODEC` (a value of the spec's
//! `codec` key, as `clinfl --codec` takes, e.g. `delta+topk0.05+int8`) so
//! CI can benchmark compressed weight exchange, and `CLINFL_FAULTS`
//! (`mild`, `aggressive`) to run the workload under link faults with the
//! fault-tolerant runtime settings from the chaos suite.
//!
//! CI runs both back to back (`scripts/check.sh bench-smoke` and
//! `scripts/check.sh wire-codec`) and uploads the JSON as build
//! artifacts.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_flare::faults::FaultConfig;
use clinfl_obs::json::Value;
use clinfl_obs::{HistogramSnapshot, MetricsSnapshot};
use std::time::Duration;

/// Schema identifier stamped into (and required from) every report.
const SCHEMA: &str = "clinfl-bench-report/v1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_report.json");
    let mut check: Option<String> = None;
    let mut min_reduction: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out requires a path").clone(),
            "--check" => check = Some(it.next().expect("--check requires a path").clone()),
            "--min-reduction" => {
                min_reduction = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-reduction requires a number"),
                );
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_report --smoke [--out PATH] | --check PATH [--min-reduction R]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = check {
        run_check(&path, min_reduction);
        return;
    }
    if !smoke {
        eprintln!("usage: bench_report --smoke [--out PATH] | --check PATH [--min-reduction R]");
        std::process::exit(2);
    }
    run_smoke(&out);
}

/// Applies the `CLINFL_WIRE_CODEC` / `CLINFL_FAULTS` environment knobs to
/// the smoke config. Fault profiles also switch on the chaos suite's
/// fault-tolerant runtime settings (quorum of 3, grace period, redundant
/// submits) so aggressive link faults cannot wedge the round.
fn apply_env(cfg: &mut PipelineConfig) {
    if let Ok(codec) = std::env::var("CLINFL_WIRE_CODEC") {
        if let Err(e) = cfg.federation.apply("codec", &codec) {
            eprintln!("CLINFL_WIRE_CODEC: {e}");
            std::process::exit(2);
        }
    }
    let faults = FaultConfig::from_env(cfg.federation.seed.wrapping_add(7));
    if faults.is_active() {
        cfg.federation.faults = faults;
        cfg.federation.sag.min_clients = 3;
        cfg.federation.sag.round_timeout = Duration::from_secs(120);
        cfg.federation.sag.quorum_grace = Some(Duration::from_secs(8));
        cfg.federation.retry.message_timeout = Duration::from_secs(60);
        cfg.federation.retry.submit_copies = 2;
    }
}

/// Touches every instrumented tensor kernel once so the report's kernel
/// section is populated even for workloads that skip some ops.
fn kernel_smoke() {
    use clinfl_tensor::kernels;
    let m = 8;
    let a = vec![0.5f32; m * m];
    let b = vec![0.25f32; m * m];
    let mut c = vec![0.0f32; m * m];
    kernels::matmul_acc(&a, &b, &mut c, m, m, m);
    kernels::softmax_rows(&mut c, m);
}

fn run_smoke(out: &str) {
    clinfl_obs::set_enabled(true);
    let before = clinfl_obs::snapshot();
    kernel_smoke();
    let mut cfg = PipelineConfig::fast_demo();
    apply_env(&mut cfg);
    let codec = &cfg.federation.wire;
    let outcome =
        drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federated smoke run failed");
    let after = clinfl_obs::snapshot();
    let delta = snapshot_delta(&before, &after);

    let report = build_report(&cfg, outcome.accuracy, &delta);
    std::fs::write(out, report.to_json()).expect("write report");
    println!(
        "== bench_report: federated LSTM smoke ({} sites, {} rounds, codec {codec}) ==",
        cfg.federation.n_clients, cfg.federation.sag.rounds
    );
    println!("accuracy: {:.3}", outcome.accuracy);
    let (raw, enc) = (
        delta.counter("flare.wire.bytes_tx_raw") + delta.counter("flare.wire.bytes_rx_raw"),
        delta.counter("flare.wire.bytes_tx_encoded") + delta.counter("flare.wire.bytes_rx_encoded"),
    );
    if enc > 0 {
        println!(
            "wire: {raw} raw-equivalent bytes -> {enc} on the wire ({:.1}x reduction)",
            raw as f64 / enc as f64
        );
    }
    println!("{}", delta.render_table());
    println!("report written to {out}");
}

/// Per-metric difference `after - before`, so a report reflects only the
/// measured workload even when the process recorded earlier activity.
fn snapshot_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut delta = MetricsSnapshot::default();
    for (k, &v) in &after.counters {
        let prev = before.counters.get(k).copied().unwrap_or(0);
        delta.counters.insert(k.clone(), v.saturating_sub(prev));
    }
    // Gauges are level readings (peaks), not rates: report the latest.
    delta.gauges = after.gauges.clone();
    for (k, h) in &after.histograms {
        let prev = before.histograms.get(k);
        let mut buckets = Vec::new();
        for &(i, n) in &h.buckets {
            let p = prev
                .and_then(|p| p.buckets.iter().find(|&&(pi, _)| pi == i))
                .map_or(0, |&(_, pn)| pn);
            if n > p {
                buckets.push((i, n - p));
            }
        }
        delta.histograms.insert(
            k.clone(),
            HistogramSnapshot {
                count: h.count.saturating_sub(prev.map_or(0, |p| p.count)),
                sum: h.sum.saturating_sub(prev.map_or(0, |p| p.sum)),
                min: h.min,
                max: h.max,
                buckets,
            },
        );
    }
    delta
}

fn build_report(cfg: &PipelineConfig, accuracy: f64, m: &MetricsSnapshot) -> Value {
    // Kernel table: every `<name>.calls` counter under the tensor/model
    // namespaces pairs with its `<name>.time_ns` twin.
    let mut kernels = Vec::new();
    for (key, &calls) in &m.counters {
        let Some(name) = key.strip_suffix(".calls") else {
            continue;
        };
        if !(name.starts_with("tensor.") || name.starts_with("model.")) {
            continue;
        }
        let time_ns = m.counter(&format!("{name}.time_ns"));
        let mut entry = vec![
            ("calls", Value::UInt(calls)),
            ("total_ms", Value::Float(time_ns as f64 / 1e6)),
            (
                "mean_ns",
                Value::Float(time_ns as f64 / calls.max(1) as f64),
            ),
        ];
        // GEMM kernels also record a `.flops` counter, from which a
        // machine-legible throughput estimate follows.
        let flops = m.counter(&format!("{name}.flops"));
        if flops > 0 && time_ns > 0 {
            entry.push(("gflops", Value::Float(flops as f64 / time_ns as f64)));
        }
        kernels.push((name.to_string(), Value::object(entry)));
    }

    let round = m
        .histograms
        .get("flare.round.time_ns")
        .cloned()
        .unwrap_or_default();
    let round_count = m.counter("flare.round.count");
    let (hits, misses) = (
        m.counter("tensor.arena.hits"),
        m.counter("tensor.arena.misses"),
    );
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let bytes_tx = m.counter("flare.client.bytes_tx") + m.counter("flare.server.bytes_tx");
    let bytes_rx = m.counter("flare.client.bytes_rx") + m.counter("flare.server.bytes_rx");

    // Codec accounting: raw-equivalent vs on-the-wire byte totals for the
    // weight-bearing frames (see `clinfl_flare::codec`). For an all-raw
    // run both totals are equal and the reduction reports 1.0.
    let codec = cfg.federation.wire.to_string();
    let wire_tx_raw = m.counter("flare.wire.bytes_tx_raw");
    let wire_tx_enc = m.counter("flare.wire.bytes_tx_encoded");
    let wire_rx_raw = m.counter("flare.wire.bytes_rx_raw");
    let wire_rx_enc = m.counter("flare.wire.bytes_rx_encoded");
    let reduction = if wire_tx_enc + wire_rx_enc == 0 {
        1.0
    } else {
        (wire_tx_raw + wire_rx_raw) as f64 / (wire_tx_enc + wire_rx_enc) as f64
    };

    Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("federated-lstm-smoke".to_string())),
                ("n_clients", Value::UInt(cfg.federation.n_clients as u64)),
                ("rounds", Value::UInt(cfg.federation.sag.rounds as u64)),
                ("seed", Value::UInt(cfg.federation.seed)),
                ("accuracy", Value::Float(accuracy)),
            ]),
        ),
        ("kernels", Value::Object(kernels)),
        (
            "round",
            Value::object(vec![
                ("count", Value::UInt(round_count)),
                ("total_ms", Value::Float(round.sum as f64 / 1e6)),
                ("mean_ms", Value::Float(round.mean() / 1e6)),
            ]),
        ),
        (
            "wire",
            Value::object(vec![
                ("bytes_tx", Value::UInt(bytes_tx)),
                ("bytes_rx", Value::UInt(bytes_rx)),
                ("codec", Value::Str(codec)),
                ("bytes_tx_raw", Value::UInt(wire_tx_raw)),
                ("bytes_tx_encoded", Value::UInt(wire_tx_enc)),
                ("bytes_rx_raw", Value::UInt(wire_rx_raw)),
                ("bytes_rx_encoded", Value::UInt(wire_rx_enc)),
                ("reduction", Value::Float(reduction)),
            ]),
        ),
        (
            "arena",
            Value::object(vec![
                ("hits", Value::UInt(hits)),
                ("misses", Value::UInt(misses)),
                ("hit_rate", Value::Float(hit_rate)),
            ]),
        ),
        ("metrics", m.to_value()),
    ])
}

/// Validates `path` against the v1 schema; prints every violation and
/// exits 1 if any is found. With `min_reduction`, also requires
/// `wire.reduction >= R` (compressed runs must actually compress).
fn run_check(path: &str, min_reduction: Option<f64>) {
    let mut errors = Vec::new();
    let report = match std::fs::read_to_string(path) {
        Ok(text) => match Value::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL {path}: unparsable JSON: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("FAIL {path}: unreadable: {e}");
            std::process::exit(1);
        }
    };

    if report.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errors.push(format!("schema field is not {SCHEMA:?}"));
    }
    let kernel_calls = report
        .get("kernels")
        .and_then(|k| k.get("tensor.matmul"))
        .and_then(|k| k.get("calls"))
        .and_then(Value::as_u64);
    if kernel_calls.is_none_or(|c| c == 0) {
        errors.push("kernels[\"tensor.matmul\"].calls missing or zero".to_string());
    }
    for field in ["total_ms", "mean_ns", "gflops"] {
        if report
            .get("kernels")
            .and_then(|k| k.get("tensor.matmul"))
            .and_then(|k| k.get(field))
            .and_then(Value::as_f64)
            .is_none()
        {
            errors.push(format!("kernels[\"tensor.matmul\"].{field} missing"));
        }
    }
    let rounds = report
        .get("round")
        .and_then(|r| r.get("count"))
        .and_then(Value::as_u64);
    if rounds.is_none_or(|c| c < 1) {
        errors.push("round.count missing or zero".to_string());
    }
    for field in ["bytes_tx", "bytes_rx"] {
        let v = report
            .get("wire")
            .and_then(|w| w.get(field))
            .and_then(Value::as_u64);
        if v.is_none_or(|b| b == 0) {
            errors.push(format!("wire.{field} missing or zero"));
        }
    }
    if report
        .get("arena")
        .and_then(|a| a.get("hit_rate"))
        .and_then(Value::as_f64)
        .is_none()
    {
        errors.push("arena.hit_rate missing".to_string());
    }
    if report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .is_none()
    {
        errors.push("embedded metrics snapshot missing".to_string());
    }
    if let Some(min) = min_reduction {
        match report
            .get("wire")
            .and_then(|w| w.get("reduction"))
            .and_then(Value::as_f64)
        {
            Some(r) if r >= min => {}
            Some(r) => errors.push(format!("wire.reduction {r:.2} below required {min}")),
            None => errors.push("wire.reduction missing".to_string()),
        }
    }

    if errors.is_empty() {
        println!("OK {path}: valid {SCHEMA}");
    } else {
        for e in &errors {
            eprintln!("FAIL {path}: {e}");
        }
        std::process::exit(1);
    }
}
