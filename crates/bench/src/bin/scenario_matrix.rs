//! Scenario-matrix sweep: federated runs across partition skew × client
//! sampling × DP-SGD × personalization, written as a schema-stable
//! `BENCH_scenarios.json` (ROADMAP item 4; DESIGN.md §3k).
//!
//! Modes:
//!
//! * `scenario_matrix --smoke [--out PATH]` — run the 10-cell smoke grid
//!   ({balanced, dirichlet(0.3)} partitions × sample fraction {1.0, 0.5}
//!   × DP {off, on}, plus one personalization + FedProx arm per
//!   partition) at fast-demo scale and write the report (default
//!   `BENCH_scenarios.json`). The baseline cell (balanced, fraction 1.0,
//!   DP off) is re-run through the plain `train_federated_with` path and
//!   must match bit-for-bit: sampling and DP knobs at their disabled
//!   settings take the exact legacy code path.
//! * `scenario_matrix --check PATH` — validate an existing report
//!   against the `clinfl-bench-scenarios/v1` schema; exits non-zero
//!   (listing every violation) if the file is missing, unparsable, or
//!   incomplete: ≥ 8 cells, both partition kinds present, every accuracy
//!   in `[0, 1]`, and a finite positive ε on every DP cell.
//!
//! CI runs both back to back (`scripts/check.sh scenarios`) and uploads
//! the JSON as a build artifact.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_data::SitePartitioner;
use clinfl_flare::privacy::DpConfig;
use clinfl_flare::EventLog;
use clinfl_obs::json::Value;

/// Schema identifier stamped into (and required from) every report.
const SCHEMA: &str = "clinfl-bench-scenarios/v1";

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

fn run_smoke(out: &str) {
    let cfg = base_config();
    let cells = smoke_grid();
    println!(
        "== scenario_matrix: {} cells ({} sites, {} rounds each) ==",
        cells.len(),
        cfg.federation.n_clients,
        cfg.federation.sag.rounds
    );
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
        rows.push((cell, outcome));
    }

    // The disabled-knob cell must be bit-identical to the plain driver
    // path: fraction >= 1.0 and DP off change no code that touches data.
    let baseline = rows
        .iter()
        .find(|(c, _)| c.partition == "balanced" && c.sample_fraction >= 1.0 && !c.dp)
        .expect("grid always contains the baseline cell");
    let cfg = base_config();
    let reference = drivers::train_federated_with(
        &cfg,
        ModelSpec::Lstm,
        &cfg.balanced_partitioner(),
        EventLog::new(),
    )
    .expect("reference run failed");
    assert_eq!(
        baseline.1.accuracy.to_bits(),
        reference.accuracy.to_bits(),
        "baseline cell must be bit-identical to the plain federated path"
    );
    println!("determinism check passed: baseline cell == plain federated run");

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
    std::fs::write(out, report.to_json()).expect("write report");
    println!("report written to {out}");
}

/// Validates `path` against the v1 schema; prints every violation and
/// exits 1 if any is found.
fn run_check(path: &str) {
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
    let cells = report.get("cells").and_then(Value::as_array).unwrap_or(&[]);
    if cells.len() < 8 {
        errors.push(format!("only {} cells, need >= 8", cells.len()));
    }
    let mut partitions = std::collections::BTreeSet::new();
    let (mut sampled_on, mut sampled_off, mut dp_on, mut dp_off) = (0, 0, 0, 0);
    for (i, cell) in cells.iter().enumerate() {
        let name = cell
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        match cell.get("partition").and_then(Value::as_str) {
            Some(p) => {
                partitions.insert(p.to_string());
            }
            None => errors.push(format!("cell {i} ({name}): partition missing")),
        }
        match cell.get("accuracy").and_then(Value::as_f64) {
            Some(a) if (0.0..=1.0).contains(&a) => {}
            Some(a) => errors.push(format!("cell {i} ({name}): accuracy {a} outside [0, 1]")),
            None => errors.push(format!("cell {i} ({name}): accuracy missing")),
        }
        match cell.get("sample_fraction").and_then(Value::as_f64) {
            Some(f) if f >= 1.0 => sampled_off += 1,
            Some(f) if f > 0.0 => sampled_on += 1,
            _ => errors.push(format!("cell {i} ({name}): bad sample_fraction")),
        }
        let dp = matches!(cell.get("dp"), Some(Value::Bool(true)));
        if dp {
            dp_on += 1;
            match cell.get("epsilon").and_then(Value::as_f64) {
                Some(eps) if eps > 0.0 && eps.is_finite() => {}
                other => errors.push(format!(
                    "cell {i} ({name}): DP on but epsilon {other:?} is not finite-positive"
                )),
            }
            match cell.get("delta").and_then(Value::as_f64) {
                Some(d) if d > 0.0 && d < 1.0 => {}
                other => errors.push(format!(
                    "cell {i} ({name}): DP on but delta {other:?} outside (0, 1)"
                )),
            }
        } else {
            dp_off += 1;
        }
    }
    for p in ["balanced", "dirichlet"] {
        if !partitions.contains(p) {
            errors.push(format!("no {p:?} partition cell in the grid"));
        }
    }
    for (what, n) in [
        ("sampling-on", sampled_on),
        ("sampling-off", sampled_off),
        ("dp-on", dp_on),
        ("dp-off", dp_off),
    ] {
        if n == 0 {
            errors.push(format!("no {what} cell in the grid"));
        }
    }

    if errors.is_empty() {
        println!("OK {path}: valid {SCHEMA} ({} cells)", cells.len());
    } else {
        for e in &errors {
            eprintln!("FAIL {path}: {e}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_scenarios.json");
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out requires a path").clone(),
            "--check" => check = Some(it.next().expect("--check requires a path").clone()),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: scenario_matrix --smoke [--out PATH] | --check PATH");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = check {
        run_check(&path);
        return;
    }
    if !smoke {
        eprintln!("usage: scenario_matrix --smoke [--out PATH] | --check PATH");
        std::process::exit(2);
    }
    run_smoke(&out);
}
