//! Cross-crate integration: federated fine-tuning end to end
//! (data → models → flare runtime → metrics).

use clinfl::{drivers, ModelSpec, PipelineConfig};

fn test_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 480;
    cfg.cohort.seed = 77;
    cfg.federation.sag.rounds = 3;
    cfg.local_epochs = 1;
    cfg.epochs = 3;
    cfg.federation.seed = 42;
    cfg
}

#[test]
fn federated_lstm_learns_better_than_chance() {
    let cfg = test_cfg();
    let out = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federation runs");
    // Positive rate ~21%, so majority-class is ~0.79; "better than chance"
    // here means clearly above 0.5 and the history must be non-empty.
    assert!(out.accuracy > 0.55, "accuracy {}", out.accuracy);
    assert_eq!(out.history.len(), cfg.federation.sag.rounds as usize);
}

#[test]
fn federated_run_produces_fig3_log_structure() {
    let cfg = test_cfg();
    let out = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federation runs");
    let log = out.log.expect("federated runs carry a log");
    for phrase in [
        "Create the simulate clients.",
        "New client site-1@127.0.0.1 joined",
        "Successfully registered client:site-8",
        "Local epoch site-1: 1/1",
        "aggregating 8 update(s) at round 0",
        "Start persist model on server.",
        "Round 2 finished.",
    ] {
        assert!(log.contains(phrase), "missing log phrase {phrase:?}");
    }
    // Per-epoch timing is reported like the paper's "12.7 sec/local epoch".
    assert!(
        log.lines().iter().any(|l| l.contains("sec/local epoch")),
        "missing local-epoch timing"
    );
}

#[test]
fn federated_tracks_centralized_on_same_budget() {
    // With an identical total epoch budget, FL should land in the same
    // accuracy neighbourhood as centralized training (Table III shows a
    // ≤0.4pt gap at paper scale; allow a loose margin at test scale).
    let cfg = test_cfg();
    let central = drivers::train_centralized(&cfg, ModelSpec::Lstm);
    let fl = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federation runs");
    assert!(
        (central.accuracy - fl.accuracy).abs() < 0.25,
        "centralized {:.3} vs FL {:.3}",
        central.accuracy,
        fl.accuracy
    );
}

#[test]
fn standalone_sites_vary_and_average_below_centralized_bound() {
    let cfg = test_cfg();
    let standalone = drivers::train_standalone(&cfg, ModelSpec::Lstm);
    assert_eq!(standalone.per_site.len(), 8);
    // Tiny sites (2-4% of data) should not beat the best-possible 0.92
    // Bayes accuracy; sanity-check the whole range.
    for acc in &standalone.per_site {
        assert!((0.0..=1.0).contains(acc));
    }
    assert!(standalone.mean_accuracy < 0.92);
}
