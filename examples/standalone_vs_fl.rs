//! Standalone-vs-federated comparison (the core claim of the paper's
//! Table III): eight clinics with imbalanced data volumes train alone,
//! then collaboratively with FedAvg — without sharing records.
//!
//! ```sh
//! cargo run --release --example standalone_vs_fl
//! ```

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_data::PAPER_IMBALANCED_RATIOS;

fn main() {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 600;
    cfg.epochs = 4;
    cfg.federation.sag.rounds = 4;
    cfg.local_epochs = 1;

    println!("Site data shares (paper §IV-B1): {PAPER_IMBALANCED_RATIOS:?}\n");

    println!("[1/2] Standalone LSTM: every site trains only on its own shard…");
    let standalone = drivers::train_standalone(&cfg, ModelSpec::Lstm);
    for (i, acc) in standalone.per_site.iter().enumerate() {
        println!(
            "  site-{} ({:>4.0}% of data): accuracy {:>5.1}%",
            i + 1,
            100.0 * PAPER_IMBALANCED_RATIOS[i],
            100.0 * acc
        );
    }
    println!(
        "  => standalone mean accuracy {:.1}%",
        100.0 * standalone.mean_accuracy
    );

    println!("\n[2/2] Federated LSTM over the same shards…");
    let fl = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federation runs");
    println!("  => federated accuracy {:.1}%", 100.0 * fl.accuracy);

    println!(
        "\nCollaboration gains {:+.1} accuracy points over isolated training.",
        100.0 * (fl.accuracy - standalone.mean_accuracy)
    );
}
