//! Scaling-curve gate for the event-driven server and aggregation tree:
//! runs the in-process federation at 8 → 64 → 256 → 1024 simulated sites
//! (fan-out 8, auto-sized tree depth, 3 rounds) and writes
//! `BENCH_scaling.json` with per-scale root round latency, byte totals at
//! the root vs the interior nodes vs the leaves, and peak session counts.
//!
//! `bench_scaling` takes no arguments. Every scale runs with a trivial
//! arithmetic executor (no training, no sleeping — the curve isolates
//! runtime overhead) and records into its own metrics registry. The run
//! prints every violation and exits 1 if root round work at 1024 sites
//! exceeds `MAX_RATIO` (4) times the 64-site figure, or if at any scale
//! the root or an interior node held more sessions at once than the
//! fan-out (8): under a tree every node serves only its children.
//!
//! "Root round work" is the root server's measured per-round frame
//! processing time (`flare.server.frame_work_ns` / rounds): the work
//! attributable to the root itself. With tree aggregation that is
//! `O(fanout)` per round instead of `O(n)` — a flat 1024-site fleet
//! funnels every submission through the root and blows the gate, a tree
//! root handles only its children. End-to-end round wall time
//! (`round_mean_ms`, also recorded) is *not* gated: every leaf still
//! trains and serializes each round, so on a fixed-core box total round
//! time grows with n under any topology — the tree flattens the root's
//! share of it, which is exactly what the gate pins.

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{WeightTensor, Weights};
use clinfl_obs::json::Value;
use clinfl_obs::{MetricsSnapshot, Registry};
use std::time::{Duration, Instant};

/// Schema identifier stamped into every report.
const SCHEMA: &str = "clinfl-bench-scaling/v1";

/// Where the report lands (a CI upload artifact; nothing reads it back).
const OUT: &str = "BENCH_scaling.json";

/// Site counts swept, from the paper's 8 sites to a 1024-site fleet.
const SCALES: [usize; 4] = [8, 64, 256, 1024];

/// The gate compares the largest scale against this one.
const ANCHOR_SITES: usize = 64;
const TOP_SITES: usize = SCALES[SCALES.len() - 1];

const ROUNDS: u32 = 3;
const FANOUT: usize = 8;

/// Floor for the gate's denominator: sub-millisecond root work is
/// dominated by scheduler noise, not aggregation cost. A flat 1024-site
/// root still burns tens of ms/round on frame handling, so the floor
/// keeps the gate meaningful while absorbing timer jitter.
const LATENCY_FLOOR_MS: f64 = 2.0;

/// Gate: root work at the largest scale within 4× the anchor's.
const MAX_RATIO: f64 = 4.0;

/// A small but non-degenerate model so byte counts are meaningful:
/// four 256-float tensors (4 KiB of payload per exchange).
fn initial_weights() -> Weights {
    let mut w = Weights::new();
    for name in ["embed", "lstm.ih", "lstm.hh", "head"] {
        w.insert(
            name.to_string(),
            WeightTensor::new(vec![256], vec![0.01; 256]),
        );
    }
    w
}

struct ScaleOutcome {
    sites: usize,
    depth: u32,
    wall: Duration,
    /// Everything the run recorded, in its own registry.
    metrics: MetricsSnapshot,
}

impl ScaleOutcome {
    /// Root-attributable processing per round: the root reactor's frame
    /// handling time (decrypt, decode, route, submit bookkeeping) divided
    /// by the round count. Registration-time frames amortize into this
    /// too, which only makes the gate stricter for a root with wide
    /// fan-in.
    fn root_work_ms(&self) -> f64 {
        self.metrics.counter("flare.server.frame_work_ns") as f64 / 1e6 / f64::from(ROUNDS)
    }

    /// Peak of a `*.sessions_peak` gauge (0 if the run never set it).
    fn peak(&self, gauge: &str) -> i64 {
        self.metrics.gauges.get(gauge).copied().unwrap_or(0)
    }

    fn round_ms(&self) -> (f64, f64) {
        self.metrics
            .histograms
            .get("flare.round.time_ns")
            .map_or((0.0, 0.0), |h| (h.mean() / 1e6, h.max as f64 / 1e6))
    }
}

fn run_scale(sites: usize) -> ScaleOutcome {
    let tree = TreeConfig::auto(sites, FANOUT);
    let config = SimulatorConfig {
        n_clients: sites,
        sag: SagConfig {
            rounds: ROUNDS,
            min_clients: 1,
            round_timeout: Duration::from_secs(300),
            validate_global: false,
            ..SagConfig::default()
        },
        seed: 2023,
        tree: (tree.depth >= 2).then_some(tree),
        ..SimulatorConfig::default()
    };
    let registry = Registry::new();
    let runner =
        SimulatorRunner::new(config).with_registry(registry.clone(), format!("scale{sites}"));
    let started = Instant::now();
    let result = runner
        .run_simple(
            initial_weights(),
            |i, _| {
                Box::new(ArithmeticExecutor {
                    delta: 1e-4 * (i % 7 + 1) as f32,
                    n_examples: 50 + (i as u64 % 13),
                })
            },
            &WeightedFedAvg,
        )
        .unwrap_or_else(|e| panic!("{sites}-site run failed: {e}"));
    let wall = started.elapsed();
    assert_eq!(
        result.workflow.rounds.len(),
        ROUNDS as usize,
        "{sites}-site run completed {} of {ROUNDS} rounds",
        result.workflow.rounds.len()
    );
    ScaleOutcome {
        sites,
        depth: tree.depth.max(1),
        wall,
        metrics: registry.snapshot(),
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_scaling (takes no arguments)");
        std::process::exit(2);
    }
    clinfl_obs::set_enabled(true);
    println!("== bench_scaling: {SCALES:?} sites, {ROUNDS} rounds, fan-out {FANOUT} ==");
    let outcomes: Vec<ScaleOutcome> = SCALES.iter().map(|&n| run_scale(n)).collect();
    for o in &outcomes {
        let m = &o.metrics;
        let root_bytes = m.counter("flare.server.bytes_tx") + m.counter("flare.server.bytes_rx");
        println!(
            "{:>5} sites (depth {}): {:>8.1} ms/round end-to-end, \
             root work {:>6.2} ms/round, root {:>6} B/round, wall {:.2}s",
            o.sites,
            o.depth,
            o.round_ms().0,
            o.root_work_ms(),
            root_bytes / u64::from(ROUNDS),
            o.wall.as_secs_f64(),
        );
    }

    let work_at = |sites| {
        outcomes
            .iter()
            .find(|o| o.sites == sites)
            .map_or(0.0, ScaleOutcome::root_work_ms)
    };
    let (anchor, top) = (work_at(ANCHOR_SITES), work_at(TOP_SITES));
    let ratio = top / anchor.max(LATENCY_FLOOR_MS);

    let report = build_report(&outcomes, anchor, top, ratio);
    std::fs::write(OUT, report.to_json()).expect("write report");
    println!("report written to {OUT}");

    let mut violations = Vec::new();
    if ratio > MAX_RATIO {
        violations.push(format!(
            "root round latency grew super-logarithmically: root work at \
             {TOP_SITES} sites is {top:.2} ms/round, {ratio:.2}x the {ANCHOR_SITES}-site \
             anchor (allowed {MAX_RATIO}x)"
        ));
    }
    for o in &outcomes {
        for (node, gauge) in [
            ("root", "flare.server.sessions_peak"),
            ("interior", "flare.tree.sessions_peak"),
        ] {
            let peak = o.peak(gauge);
            if peak > FANOUT as i64 {
                violations.push(format!(
                    "{} sites: {node} peak sessions {peak} exceed the fan-out {FANOUT}",
                    o.sites
                ));
            }
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        std::process::exit(1);
    }
    println!(
        "OK: root work ratio {ratio:.2}x <= {MAX_RATIO}x; root and interior peak \
         sessions <= {FANOUT} at every scale"
    );
}

fn build_report(outcomes: &[ScaleOutcome], anchor: f64, top: f64, ratio: f64) -> Value {
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("scaling-curve".to_string())),
                ("rounds", Value::UInt(u64::from(ROUNDS))),
                ("fanout", Value::UInt(FANOUT as u64)),
            ]),
        ),
        (
            "scales",
            Value::Array(outcomes.iter().map(scale_record).collect()),
        ),
        (
            "gate",
            Value::object(vec![
                ("metric", Value::Str("root_round_work_ms".to_string())),
                ("anchor_sites", Value::UInt(ANCHOR_SITES as u64)),
                ("anchor_root_work_ms", Value::Float(anchor)),
                ("top_sites", Value::UInt(TOP_SITES as u64)),
                ("top_root_work_ms", Value::Float(top)),
                ("latency_floor_ms", Value::Float(LATENCY_FLOOR_MS)),
                ("ratio", Value::Float(ratio)),
            ]),
        ),
    ])
}

fn scale_record(o: &ScaleOutcome) -> Value {
    let m = &o.metrics;
    let pair = |ns: &str| {
        Value::object(vec![
            (
                "bytes_tx",
                Value::UInt(m.counter(&format!("{ns}.bytes_tx"))),
            ),
            (
                "bytes_rx",
                Value::UInt(m.counter(&format!("{ns}.bytes_rx"))),
            ),
        ])
    };
    let peak = |g: &str| Value::Int(o.peak(g));
    let (round_mean, round_max) = o.round_ms();
    Value::object(vec![
        ("sites", Value::UInt(o.sites as u64)),
        ("tree_depth", Value::UInt(u64::from(o.depth))),
        ("fanout", Value::UInt(FANOUT as u64)),
        ("rounds", Value::UInt(u64::from(ROUNDS))),
        ("root_round_work_ms", Value::Float(o.root_work_ms())),
        ("round_mean_ms", Value::Float(round_mean)),
        ("round_max_ms", Value::Float(round_max)),
        ("wall_ms", Value::Float(o.wall.as_secs_f64() * 1e3)),
        ("root", pair("flare.server")),
        ("interior", pair("flare.tree")),
        ("interior_uplink", pair("flare.tree.uplink")),
        ("leaves", pair("flare.client")),
        (
            "sessions",
            Value::object(vec![
                ("root_peak", peak("flare.server.sessions_peak")),
                ("interior_peak", peak("flare.tree.sessions_peak")),
            ]),
        ),
    ])
}
