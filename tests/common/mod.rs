//! Helpers shared by the chaos suites, `integration_faults` and
//! `integration_resume`.
//!
//! `CLINFL_TREE=DxF` reruns every federation of those suites on that
//! aggregation tree (the `scale` leg of `scripts/check.sh`). The product
//! never reads the variable: these helpers turn it into the `tree` spec
//! key, and check that each run really formed the tree.

use clinfl_flare::simulator::SimulatorConfig;
use clinfl_flare::EventLog;

/// Sets the `tree` spec key from `CLINFL_TREE`, when that is set.
pub fn env_tree(cfg: &mut SimulatorConfig) {
    if let Ok(tree) = std::env::var("CLINFL_TREE") {
        cfg.apply("tree", &tree)
            .expect("CLINFL_TREE holds a `tree` value");
    }
}

/// Fails unless a run whose config asks for a tree logged that tree's
/// bring-up, so a `CLINFL_TREE` rerun cannot quietly run flat. Sampled
/// runs are exempt: the simulator runs those flat by design.
pub fn assert_topology(cfg: &SimulatorConfig, log: &EventLog) {
    let sampled = cfg.sag.client_sample_fraction < 1.0;
    if let Some(t) = cfg.tree.filter(|t| t.depth >= 2 && !sampled) {
        let line = format!("Aggregation tree: depth {}, fan-out {}", t.depth, t.fanout);
        assert!(
            log.contains(&line),
            "the run did not form its tree ({line})"
        );
    }
}
