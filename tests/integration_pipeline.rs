//! Cross-crate integration: the experiment runners that regenerate the
//! paper's Table III and Fig. 2, exercised at micro scale.

use clinfl::experiments::{run_fig2, run_table3, Scheme};
use clinfl::{ModelSpec, PipelineConfig};

fn micro_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 160;
    cfg.epochs = 1;
    cfg.federation.sag.rounds = 1;
    cfg.local_epochs = 1;
    cfg.pretrain.scale = 4096; // ~110 sequences
    cfg.pretrain_rounds = 1;
    cfg
}

#[test]
fn table3_grid_is_complete_and_in_range() {
    let cfg = micro_cfg();
    let table = run_table3(&cfg).expect("all nine runs complete");
    assert_eq!(table.cells.len(), 3);
    for row in &table.cells {
        assert_eq!(row.len(), 3);
        for &cell in row {
            assert!((0.0..=100.0).contains(&cell), "accuracy {cell}%");
        }
    }
    // The Display form prints measured and paper values side by side.
    let shown = table.to_string();
    assert!(shown.contains("TABLE III"));
    assert!(shown.contains("87.9"), "paper reference column present");
    assert_eq!(table.shape_report().len(), 3);
    // Accessors agree with the grid.
    let c = table.get(Scheme::Centralized, ModelSpec::Bert);
    assert_eq!(c, table.cells[0][0]);
}

#[test]
fn fig2_produces_four_decreasing_capable_curves() {
    let cfg = micro_cfg();
    let fig = run_fig2(&cfg).expect("all four schemes complete");
    assert_eq!(fig.curves.len(), 4);
    for (scheme, curve) in &fig.curves {
        assert_eq!(
            curve.len(),
            (cfg.pretrain_rounds + 1) as usize,
            "{scheme}: curve length"
        );
        assert!(
            curve.iter().all(|v| v.is_finite() && *v > 0.0),
            "{scheme}: losses finite and positive: {curve:?}"
        );
    }
    let shown = fig.to_string();
    assert!(shown.contains("FIG. 2"));
}
