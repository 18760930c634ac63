//! Observability integration: metrics must stay lossless under the
//! worker pool's concurrency, spans must balance across a fault-ridden
//! federation, and snapshots must round-trip deterministically.
//!
//! Metric names used here are unique to this file (or asserted as
//! deltas), because the registry is process-global and other tests in
//! this binary may record into it concurrently.

use clinfl::drivers::{build_mlm_data, pretrain_mlm, ClinicalSites, MlmScheme};
use clinfl::{ModelSpec, PipelineConfig};
use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::RetryPolicy;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::{EventLog, WeightTensor, Weights};
use clinfl_obs as obs;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Simulations record spans into the global registry, and
/// `spans_balance_under_aggressive_faults` counts `span.run` records
/// exactly, so every test that runs a simulation takes this lock.
fn simulation_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn concurrent_counter_updates_are_lossless() {
    let workers = 8usize;
    let per_worker = 10_000u64;
    let counter = obs::counter("obs_test.concurrent.counter");
    let before = counter.get();
    let jobs: Vec<_> = (0..workers)
        .map(|_| {
            let c = counter.clone();
            move || {
                for _ in 0..per_worker {
                    c.incr();
                }
            }
        })
        .collect();
    clinfl_tensor::pool::run_jobs(jobs);
    assert_eq!(counter.get() - before, workers as u64 * per_worker);
}

#[test]
fn concurrent_histogram_updates_are_lossless() {
    let workers = 8usize;
    let per_worker = 5_000u64;
    let hist = obs::histogram("obs_test.concurrent.histogram");
    let before = (hist.count(), hist.sum());
    let jobs: Vec<_> = (0..workers)
        .map(|w| {
            let h = hist.clone();
            move || {
                for i in 0..per_worker {
                    h.record(w as u64 * per_worker + i);
                }
            }
        })
        .collect();
    clinfl_tensor::pool::run_jobs(jobs);
    let total = workers as u64 * per_worker;
    assert_eq!(hist.count() - before.0, total);
    // Sum of 0..workers*per_worker, recorded exactly once each.
    let expected_sum = total * (total - 1) / 2;
    assert_eq!(hist.sum() - before.1, expected_sum);
    // Every sample landed in a bucket.
    let frozen = hist.freeze();
    assert_eq!(
        frozen.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        frozen.count
    );
}

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
    w
}

#[test]
fn spans_balance_under_aggressive_faults() {
    if !obs::enabled() {
        return; // CLINFL_OBS=0: nothing is recorded, nothing to check.
    }
    let _serial = simulation_guard();
    let runs_before = obs::snapshot()
        .histograms
        .get("span.run")
        .map_or(0, |h| h.count);
    let cfg = SimulatorConfig {
        n_clients: 4,
        sag: SagConfig {
            rounds: 3,
            min_clients: 2,
            round_timeout: Duration::from_secs(8),
            validate_global: false,
            quorum_grace: Some(Duration::from_millis(1500)),
            ..SagConfig::default()
        },
        seed: 31,
        faults: FaultConfig::aggressive(12),
        retry: RetryPolicy {
            message_timeout: Duration::from_secs(30),
            submit_copies: 2,
            ..RetryPolicy::default()
        },
        ..SimulatorConfig::default()
    };
    let res = SimulatorRunner::new(cfg)
        .run_simple(
            initial(),
            |i, _| {
                Box::new(ArithmeticExecutor {
                    delta: (i as f32 + 1.0) * 0.5,
                    n_examples: 10,
                })
            },
            &WeightedFedAvg,
        )
        .expect("faulty simulation completes");
    assert_eq!(res.workflow.rounds.len(), 3);

    // Every span opened on this thread was closed again...
    assert_eq!(obs::span_depth(), 0, "unbalanced span stack after run");
    assert_eq!(obs::current_span_path(), "");
    // ...and the nested timings were recorded under their full paths.
    let snap = obs::snapshot();
    assert_eq!(
        snap.histograms.get("span.run").map_or(0, |h| h.count),
        runs_before + 1,
        "the run span must be recorded exactly once per simulation"
    );
    let rounds = snap.histograms.get("span.run>round").expect("round spans");
    assert!(
        rounds.count >= 3,
        "expected at least 3 run>round spans, got {}",
        rounds.count
    );
}

/// A real-model federation feeds every layer's metrics: the GEMM kernel
/// timers, the tape arena and the validated-row count record into the
/// process-global registry (checked as deltas), and the run's own registry
/// holds its round count and the root's traffic.
#[test]
fn real_model_federation_records_kernel_arena_and_round_metrics() {
    if !obs::enabled() {
        return; // CLINFL_OBS=0: nothing is recorded, nothing to check.
    }
    let _serial = simulation_guard();
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 120;
    cfg.federation.n_clients = 3;
    let rounds = cfg.federation.sag.rounds;
    let sites = ClinicalSites::build(&cfg, ModelSpec::Lstm, &cfg.balanced_partitioner());
    let names = [
        "tensor.matmul.calls",
        "tensor.matmul.time_ns",
        "tensor.matmul.flops",
        "tensor.arena.hits",
        "tensor.arena.misses",
        "core.executor.validate_rows",
    ];
    let before = names.map(obs::counter_value);
    let run = obs::Registry::new();
    let log = EventLog::new();
    SimulatorRunner::new(cfg.federation.clone())
        .with_registry(run.clone(), "obs-test")
        .run_simple(
            sites.initial(),
            |i, _| sites.executor(i, &log),
            &WeightedFedAvg,
        )
        .expect("federation completes");
    let grown: Vec<u64> = names
        .iter()
        .zip(before)
        .map(|(name, b)| obs::counter_value(name) - b)
        .collect();

    for (name, g) in names.iter().zip(&grown).take(3) {
        assert!(*g > 0, "{name} did not grow over a real-model run");
    }
    assert!(
        grown[3] + grown[4] > 0,
        "the tape arena recorded no traffic"
    );
    // Each round the sites split the shared validation split between
    // them: every row is scored once, not once per site.
    assert_eq!(grown[5], u64::from(rounds) * sites.valid.len() as u64);
    assert_eq!(run.counter_value("flare.round.count"), u64::from(rounds));
    for name in ["flare.server.bytes_tx", "flare.server.bytes_rx"] {
        assert!(
            run.counter_value(name) > 0,
            "{name} is zero in the run's registry"
        );
    }
}

/// Across a flat 8-site LSTM roster with every site taking part, each
/// local epoch's probe scores the shared split once, not once per site,
/// and each round's validation scores it once; MLM sites do not probe.
#[test]
fn probe_and_validation_score_the_shared_split_once_per_roster() {
    if !obs::enabled() {
        return; // CLINFL_OBS=0: nothing is recorded, nothing to check.
    }
    let _serial = simulation_guard();
    let names = ["core.executor.probe_rows", "core.executor.validate_rows"];
    let grown = |before: [u64; 2]| -> Vec<u64> {
        names
            .iter()
            .zip(before)
            .map(|(name, b)| obs::counter_value(name) - b)
            .collect()
    };

    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 200;
    cfg.local_epochs = 2;
    assert_eq!(cfg.federation.n_clients, 8);
    assert_eq!(cfg.federation.sag.client_sample_fraction, 1.0);
    let rounds = u64::from(cfg.federation.sag.rounds);
    let sites = ClinicalSites::build(&cfg, ModelSpec::Lstm, &cfg.imbalanced_partitioner());
    let valid = sites.valid.len() as u64;
    let before = names.map(obs::counter_value);
    let log = EventLog::new();
    SimulatorRunner::new(cfg.federation.clone())
        .run_simple(
            sites.initial(),
            |i, _| sites.executor(i, &log),
            &WeightedFedAvg,
        )
        .expect("federation completes");
    let epochs = u64::from(cfg.local_epochs);
    assert_eq!(
        grown(before),
        [rounds * epochs * valid, rounds * valid],
        "probe and validate rows over {rounds} rounds of {epochs} local epochs, {valid} rows"
    );

    let mut cfg = PipelineConfig::fast_demo();
    cfg.pretrain.scale = 4096;
    cfg.pretrain_rounds = 1;
    let data = build_mlm_data(&cfg);
    let before = names.map(obs::counter_value);
    pretrain_mlm(&cfg, MlmScheme::FlBalanced, &data).expect("MLM federation completes");
    assert_eq!(grown(before), [0, data.valid.len() as u64]);
}

#[test]
fn snapshot_json_round_trips_deterministically() {
    // Populate at least one metric of each kind, then freeze.
    obs::counter("obs_test.roundtrip.counter").add(41);
    obs::gauge("obs_test.roundtrip.gauge").set(-7);
    obs::histogram("obs_test.roundtrip.histogram").record(1234);
    let snap = obs::snapshot();

    let text = snap.to_json();
    let back = obs::MetricsSnapshot::from_json(&text).expect("parse back");
    assert_eq!(back, snap, "snapshot changed across a JSON round-trip");
    // Canonical writer + sorted maps: byte-identical re-serialization
    // (the test-serial CI leg repeats this under CLINFL_THREADS=1).
    assert_eq!(back.to_json(), text);
    if obs::enabled() {
        assert_eq!(back.counter("obs_test.roundtrip.counter"), 41);
    }
}
