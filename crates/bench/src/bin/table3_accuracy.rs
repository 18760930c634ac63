//! Regenerates the paper's **Table III** (top-1 accuracy of BERT /
//! BERT-mini / LSTM under centralized, standalone and FL training).
//!
//! Default scale divides the paper's cohort by 10 for a single-core CPU
//! budget; pass `--scale 1` for the full 8,638-patient cohort.
//!
//! ```sh
//! cargo run -p clinfl-bench --release --bin table3_accuracy -- --scale 10
//! ```

use clinfl::experiments::run_table3_with;
use std::time::Instant;

fn main() {
    let args = clinfl_bench::parse_args(10);
    let cfg = args.config();
    eprintln!(
        "Table III at scale {} ({} patients, {} rounds x {} local epochs / {} epochs)…",
        args.scale, cfg.cohort.n_patients, cfg.federation.sag.rounds, cfg.local_epochs, cfg.epochs
    );
    let start = Instant::now();
    let table = run_table3_with(&cfg, |scheme, model| {
        eprintln!(
            "  [{:>6.1}s] running {scheme} / {model}…",
            start.elapsed().as_secs_f64()
        );
    })
    .expect("table runs");
    println!("{table}");
    println!("Shape check:");
    for note in table.shape_report() {
        println!("  {note}");
    }
    println!(
        "\n(total wall-clock {:.1}s at scale {}; EXPERIMENTS.md records the archived run)",
        start.elapsed().as_secs_f64(),
        args.scale
    );
}
