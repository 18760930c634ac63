//! Scenario-matrix sweep: federated runs across partition skew × client
//! sampling × DP-SGD × personalization, written as
//! `BENCH_scenarios.json` (DESIGN.md §3k).
//!
//! `scenario_matrix` takes no arguments. It runs the 10-cell smoke grid
//! ({balanced, dirichlet(0.3)} partitions × sample fraction {1.0, 0.5}
//! × DP {off, on}, plus one personalization + FedProx arm per
//! partition) at fast-demo scale, writes the report, and exits 1 —
//! listing every violation — unless at least `MIN_VALID_CELLS` (8) cells
//! are valid (accuracy in `[0, 1]`; on DP cells a finite positive ε and
//! a δ in `(0, 1)`) and the baseline cell (balanced, fraction 1.0, DP
//! off) is bit-identical to a re-run through the plain
//! `train_federated_with` path: sampling and DP knobs at their disabled
//! settings take the exact legacy code path.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_data::SitePartitioner;
use clinfl_flare::privacy::DpConfig;
use clinfl_flare::EventLog;
use clinfl_obs::json::Value;

/// Schema identifier stamped into every report.
const SCHEMA: &str = "clinfl-bench-scenarios/v1";

/// Where the report lands (a CI upload artifact; nothing reads it back).
const OUT: &str = "BENCH_scenarios.json";

/// Gate: at least this many cells must produce valid results.
const MIN_VALID_CELLS: usize = 8;

/// One point of the sweep grid.
struct Cell {
    partition: &'static str,
    /// Dirichlet concentration when `partition == "dirichlet"`.
    alpha: f64,
    sample_fraction: f64,
    dp: bool,
    fedprox_mu: f32,
    personalize_epochs: u32,
}

impl Cell {
    fn name(&self) -> String {
        let mut name = format!("{}/f{:.2}", self.partition, self.sample_fraction);
        name.push_str(if self.dp { "/dp-on" } else { "/dp-off" });
        if self.personalize_epochs > 0 {
            name.push_str("/personalized");
        }
        name
    }
}

/// The smoke grid: the full 2×2×2 core (both partitions × sampling
/// on/off × DP on/off) plus a personalization + FedProx arm per
/// partition.
fn smoke_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for partition in ["balanced", "dirichlet"] {
        for sample_fraction in [1.0, 0.5] {
            for dp in [false, true] {
                cells.push(Cell {
                    partition,
                    alpha: 0.3,
                    sample_fraction,
                    dp,
                    fedprox_mu: 0.0,
                    personalize_epochs: 0,
                });
            }
        }
        cells.push(Cell {
            partition,
            alpha: 0.3,
            sample_fraction: 0.5,
            dp: false,
            fedprox_mu: 0.01,
            personalize_epochs: 1,
        });
    }
    cells
}

/// The shared base config every cell perturbs: fast-demo scale with a
/// slightly smaller cohort so the full grid stays CI-friendly.
fn base_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 160;
    cfg
}

/// DP-SGD settings used by every DP-on cell.
const DP_CLIP: f32 = 1.0;
const DP_SIGMA: f32 = 0.8;

fn run_cell(cell: &Cell) -> drivers::TrainOutcome {
    let mut cfg = base_config();
    cfg.federation.sag.client_sample_fraction = cell.sample_fraction;
    if cell.dp {
        cfg.federation.dp = Some(DpConfig {
            clip: DP_CLIP,
            sigma: DP_SIGMA,
            delta: 1e-5,
        });
    }
    if cell.fedprox_mu > 0.0 {
        cfg.fedprox_mu = Some(cell.fedprox_mu);
    }
    cfg.personalize_epochs = cell.personalize_epochs;
    let partitioner = match cell.partition {
        "balanced" => cfg.balanced_partitioner(),
        "dirichlet" => SitePartitioner::Dirichlet {
            n_sites: cfg.federation.n_clients,
            alpha: cell.alpha,
        },
        other => unreachable!("unknown partition kind {other:?}"),
    };
    drivers::train_federated_with(&cfg, ModelSpec::Lstm, &partitioner, EventLog::new())
        .expect("scenario cell failed")
}

fn cell_value(cell: &Cell, outcome: &drivers::TrainOutcome) -> Value {
    let (epsilon, delta) = outcome.privacy.unwrap_or((0.0, 0.0));
    Value::object(vec![
        ("name", Value::Str(cell.name())),
        ("partition", Value::Str(cell.partition.to_string())),
        (
            "alpha",
            if cell.partition == "dirichlet" {
                Value::Float(cell.alpha)
            } else {
                Value::Null
            },
        ),
        ("sample_fraction", Value::Float(cell.sample_fraction)),
        ("dp", Value::Bool(cell.dp)),
        (
            "dp_clip",
            if cell.dp {
                Value::Float(f64::from(DP_CLIP))
            } else {
                Value::Null
            },
        ),
        (
            "dp_sigma",
            if cell.dp {
                Value::Float(f64::from(DP_SIGMA))
            } else {
                Value::Null
            },
        ),
        ("fedprox_mu", Value::Float(f64::from(cell.fedprox_mu))),
        (
            "personalize_epochs",
            Value::UInt(u64::from(cell.personalize_epochs)),
        ),
        ("accuracy", Value::Float(outcome.accuracy)),
        (
            "epsilon",
            if cell.dp {
                Value::Float(epsilon)
            } else {
                Value::Null
            },
        ),
        (
            "delta",
            if cell.dp {
                Value::Float(delta)
            } else {
                Value::Null
            },
        ),
        (
            "personalized_mean",
            match outcome.personalized_mean {
                Some(m) => Value::Float(m),
                None => Value::Null,
            },
        ),
    ])
}

/// Why `outcome` is not a valid result for `cell`, if it is not.
fn cell_violation(cell: &Cell, outcome: &drivers::TrainOutcome) -> Option<String> {
    if !(0.0..=1.0).contains(&outcome.accuracy) {
        return Some(format!("accuracy {} outside [0, 1]", outcome.accuracy));
    }
    if cell.dp {
        match outcome.privacy {
            Some((eps, delta)) if eps > 0.0 && eps.is_finite() && delta > 0.0 && delta < 1.0 => {}
            other => return Some(format!("DP on but (eps, delta) = {other:?} is invalid")),
        }
    }
    None
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: scenario_matrix (takes no arguments)");
        std::process::exit(2);
    }
    let cfg = base_config();
    let cells = smoke_grid();
    println!(
        "== scenario_matrix: {} cells ({} sites, {} rounds each) ==",
        cells.len(),
        cfg.federation.n_clients,
        cfg.federation.sag.rounds
    );
    let mut errors = Vec::new();
    let mut rows = Vec::new();
    for cell in &cells {
        let outcome = run_cell(cell);
        let mut line = format!("{:<40} accuracy={:.3}", cell.name(), outcome.accuracy);
        if let Some((eps, delta)) = outcome.privacy {
            line.push_str(&format!("  (eps={eps:.3}, delta={delta:.0e})"));
        }
        if let Some(mean) = outcome.personalized_mean {
            line.push_str(&format!("  personalized={mean:.3}"));
        }
        println!("{line}");
        if let Some(why) = cell_violation(cell, &outcome) {
            errors.push(format!("cell {}: {why}", cell.name()));
        }
        rows.push((cell, outcome));
    }
    let valid = rows.len() - errors.len();
    if valid < MIN_VALID_CELLS {
        errors.push(format!(
            "only {valid} valid cells, need >= {MIN_VALID_CELLS}"
        ));
    }

    // The disabled-knob cell must be bit-identical to the plain driver
    // path: fraction >= 1.0 and DP off change no code that touches data.
    let baseline = rows
        .iter()
        .find(|(c, _)| c.partition == "balanced" && c.sample_fraction >= 1.0 && !c.dp)
        .expect("grid always contains the baseline cell");
    let reference = drivers::train_federated_with(
        &cfg,
        ModelSpec::Lstm,
        &cfg.balanced_partitioner(),
        EventLog::new(),
    )
    .expect("reference run failed");
    if baseline.1.accuracy.to_bits() != reference.accuracy.to_bits() {
        errors.push(format!(
            "baseline cell accuracy {} is not bit-identical to the plain federated path's {}",
            baseline.1.accuracy, reference.accuracy
        ));
    }

    let report = Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("scenario-matrix-smoke".to_string())),
                ("n_clients", Value::UInt(cfg.federation.n_clients as u64)),
                ("rounds", Value::UInt(u64::from(cfg.federation.sag.rounds))),
                ("seed", Value::UInt(cfg.federation.seed)),
                ("cells", Value::UInt(rows.len() as u64)),
            ]),
        ),
        (
            "cells",
            Value::Array(rows.iter().map(|(c, o)| cell_value(c, o)).collect()),
        ),
    ]);
    std::fs::write(OUT, report.to_json()).expect("write report");
    println!("report written to {OUT}");

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("FAIL: {e}");
        }
        std::process::exit(1);
    }
    println!("OK: {valid} valid cells; baseline cell == plain federated run");
}
