//! `fedbench`: the federated-round benchmark.
//!
//! ```text
//! fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fedbench verify [--seed <n>]
//! fedbench record --seed <n> --seconds <s> --out <history.jsonl>
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name with its unit, the checks, and as the last line the
//! result object `BENCHMARK.json`'s contract asks for. `verify` proves the
//! harness drives the shipped path. `record` runs every workload untraced
//! and traced, each in a fresh process, and appends one row per workload to
//! a history file.

mod adapter;
mod report;
mod runner;
mod stats;
mod sys;
mod trace;
mod workloads;

use adapter::Json;
use report::{Metrics, END_TO_END, LEDGER_SHARES, PER_LAYER};
use std::io::Write;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Flag values by name; every flag takes exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)
            .ok_or(format!("--{name} is required"))?
            .parse()
            .map_err(|_| format!("--{name} is not a valid number"))
    }
}

/// Refuses builds whose numbers would not be comparable. Cargo reads
/// `.cargo/config.toml` from the working directory, not from the manifest's:
/// invoked outside the repository tree it silently drops `x86-64-v3` and
/// the GEMMs run about 4x slower.
fn build_guard() -> Result<(), String> {
    if !cfg!(target_feature = "avx2") {
        return Err("built without AVX2: run cargo from the repository root, \
                    where .cargo/config.toml sets target-cpu=x86-64-v3"
            .to_string());
    }
    if cfg!(debug_assertions) {
        return Err("built without optimisation: pass --release".to_string());
    }
    Ok(())
}

fn header(w: &Workload, seed: u64, seconds: f64, traced: bool) -> String {
    Json::object(vec![
        ("fedbench", Json::Str(w.name.to_string())),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        ("traced", Json::Bool(traced)),
        ("nproc", Json::UInt(sys::nproc() as u64)),
        ("threads", Json::UInt(workloads::THREADS as u64)),
        ("sites", Json::UInt(workloads::N_SITES as u64)),
        ("rustc", Json::Str(sys::rustc_version())),
        ("commit", Json::Str(sys::commit())),
        ("profile", Json::Str("release".to_string())),
        ("target_features", Json::Str("avx2".to_string())),
    ])
    .to_json()
}

fn print_metrics(metrics: &Metrics) {
    for &(name, value) in metrics {
        println!("{name} = {value} {}", report::unit_of(name));
    }
}

fn run(flags: &Flags) -> Result<bool, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seed: u64 = flags.number("seed")?;
    let seconds: f64 = flags.number("seconds")?;
    let traced = match flags.get("trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    println!("{}", header(w, seed, seconds, traced));
    let report = runner::run_workload(w, seed, seconds, traced)?;
    println!("rounds: {:?}", report.schedule);
    print_metrics(&report.end_to_end);
    println!(
        "harness.round_p_hi_s = {} s (p{:.0} of {} rounds)",
        report.round_p_hi.1, report.round_p_hi.0, report.round_samples
    );
    print_metrics(&report.per_layer);
    let mut correct = true;
    for check in &report.checks {
        println!(
            "check {}: {} ({})",
            if check.ok { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
        correct &= check.ok;
    }
    // The last line carries the end-to-end metrics of an untraced run and
    // the per-layer metrics of a traced one.
    let (table, metrics): (Vec<&str>, &Metrics) = if traced {
        (PER_LAYER.iter().map(|m| m.0).collect(), &report.per_layer)
    } else {
        (END_TO_END.iter().map(|m| m.0).collect(), &report.end_to_end)
    };
    if let Some(fault) = report::table_mismatch(&table, metrics) {
        return Err(format!("metric table mismatch: {fault}"));
    }
    println!(
        "{}",
        report::result_line(correct, report.attempted, report.failed, metrics)
    );
    Ok(correct)
}

/// Path fidelity: on two-round cuts of the two compute workloads, the
/// harness's final global weights must equal, bit for bit, those of the
/// shipped `SimulatorRunner::run` with the same configuration and seed.
fn verify(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.get("seed").map_or(Ok(1), |_| flags.number("seed"))?;
    adapter::set_threads(workloads::THREADS);
    adapter::set_obs(false);
    let mut all = true;
    for name in ["lstm_finetune", "bert_mlm"] {
        let w = workloads::find(name).expect("both are in the table");
        let rounds = workloads::VERIFY_SCHEDULE.total();
        let probes = adapter::Probes::new(None);
        let dir = runner::out_dir().join(format!("verify-{}", std::process::id()));
        let prepared = adapter::prepare(w, seed, rounds);
        let ours = adapter::run_federation(w, seed, rounds, prepared, &probes, &dir)
            .map_err(|e| format!("{name}: harness federation failed: {e}"))?;
        let theirs = adapter::simulator_final_weights(w, seed, rounds)
            .map_err(|e| format!("{name}: SimulatorRunner failed: {e}"))?;
        let equal = adapter::weights_bits_equal(&ours.final_weights, &theirs);
        println!(
            "verify {name} seed {seed}: harness final weights {} SimulatorRunner::run's",
            if equal {
                "bit-identical to"
            } else {
                "DIFFER from"
            }
        );
        all &= equal;
    }
    Ok(all)
}

/// Runs this binary again with `args` and returns the result object of its
/// last stdout line.
fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawning fedbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("fedbench {args:?} failed:\n{stdout}"));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child result line: {e}"))
}

fn values(
    result: &Json,
    names: &mut dyn Iterator<Item = &str>,
) -> Result<Vec<(String, f64)>, String> {
    names
        .map(|name| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .map(|v| (name.to_string(), v))
                .ok_or(format!("child result lacks {name}"))
        })
        .collect()
}

/// One run-set: every workload untraced and traced, each in a fresh
/// process, appended to the history file as one row per workload.
fn record(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed")?;
    let seconds: f64 = flags.number("seconds")?;
    let out = flags.get("out").ok_or("--out is required")?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("opening {out}: {e}"))?;
    for w in &WORKLOADS {
        let args = |trace: &str| -> Vec<String> {
            ["--workload", w.name, "--trace", trace]
                .iter()
                .map(|s| s.to_string())
                .chain(["--seed".to_string(), seed.to_string()])
                .chain(["--seconds".to_string(), seconds.to_string()])
                .collect()
        };
        let untraced = run_child(&args("0"))?;
        let traced = run_child(&args("1"))?;
        let row = report::history_row(
            &sys::commit(),
            seed,
            w.name,
            &values(&untraced, &mut END_TO_END.iter().map(|m| m.0))?,
            &values(&traced, &mut LEDGER_SHARES.iter().copied())?,
        );
        report::check_history_row(&row)?;
        writeln!(file, "{}", row.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("{}", row.to_json());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("verify") => ("verify", &args[1..]),
        Some("record") => ("record", &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = build_guard()
        .and_then(|()| Flags::parse(rest))
        .and_then(|flags| match command {
            "verify" => verify(&flags),
            "record" => record(&flags),
            _ => run(&flags),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fedbench: {message}");
            ExitCode::from(2)
        }
    }
}
