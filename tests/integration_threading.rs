//! The thread budget must never change results: a federated run with
//! parallel site execution has to reproduce the sequential run exactly
//! (bit-identical kernels + name-sorted aggregation), and standalone
//! training must report the same per-site accuracies at any budget.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_tensor::pool;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that reconfigure the process-global thread budget.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 240;
    cfg.cohort.seed = 77;
    cfg.federation.sag.rounds = 2;
    cfg.local_epochs = 1;
    cfg.epochs = 1;
    cfg.federation.seed = 42;
    cfg
}

#[test]
fn federated_round_identical_at_any_thread_budget() {
    let _guard = config_lock();
    let cfg = test_cfg();
    pool::set_threads(1);
    let serial = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("serial run");
    pool::set_threads(4);
    let parallel = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("parallel run");
    assert_eq!(
        serial.accuracy.to_bits(),
        parallel.accuracy.to_bits(),
        "final accuracy differs: serial {} vs parallel {}",
        serial.accuracy,
        parallel.accuracy
    );
    assert_eq!(serial.history.len(), parallel.history.len());
    for (r, ((sl, sa), (pl, pa))) in serial.history.iter().zip(&parallel.history).enumerate() {
        assert_eq!(
            sl.to_bits(),
            pl.to_bits(),
            "round {r} mean train loss differs: {sl} vs {pl}"
        );
        assert_eq!(
            sa.to_bits(),
            pa.to_bits(),
            "round {r} global metric differs: {sa} vs {pa}"
        );
    }
}

#[test]
fn standalone_identical_at_any_thread_budget() {
    let _guard = config_lock();
    let cfg = test_cfg();
    pool::set_threads(1);
    let serial = drivers::train_standalone(&cfg, ModelSpec::Lstm);
    pool::set_threads(4);
    let parallel = drivers::train_standalone(&cfg, ModelSpec::Lstm);
    assert_eq!(serial.per_site.len(), parallel.per_site.len());
    for (i, (s, p)) in serial.per_site.iter().zip(&parallel.per_site).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "site {i} accuracy differs: {s} vs {p}"
        );
    }
}
