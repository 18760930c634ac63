//! Quickstart: generate a synthetic clinical cohort, train the paper's
//! LSTM centrally, then federate it across 8 sites with the NVFlare-style
//! runtime — in under a minute on a laptop.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clinfl::{drivers, ModelSpec, PipelineConfig};

fn main() {
    let cfg = PipelineConfig::fast_demo();
    println!(
        "Synthetic clopidogrel cohort: {} patients, {} federated sites",
        cfg.cohort.n_patients, cfg.federation.n_clients
    );

    println!("\n[1/2] Centralized LSTM ({} epochs)…", cfg.epochs);
    let central = drivers::train_centralized(&cfg, ModelSpec::Lstm);
    for (i, (loss, acc)) in central.history.iter().enumerate() {
        println!(
            "  epoch {:>2}: train_loss={loss:.3} valid_acc={acc:.3}",
            i + 1
        );
    }
    println!(
        "  => centralized top-1 accuracy {:.1}%",
        100.0 * central.accuracy
    );

    println!(
        "\n[2/2] Federated LSTM ({} rounds x {} local epochs, imbalanced sites)…",
        cfg.federation.sag.rounds, cfg.local_epochs
    );
    let fl = drivers::train_federated(&cfg, ModelSpec::Lstm).expect("federation runs");
    for (i, (loss, acc)) in fl.history.iter().enumerate() {
        println!(
            "  round {:>2}: mean_train_loss={loss:.3} global_valid_acc={acc:.3}",
            i + 1
        );
    }
    println!("  => federated top-1 accuracy {:.1}%", 100.0 * fl.accuracy);

    println!(
        "\nFL retains {:.1} points of the centralized accuracy without any site sharing raw records.",
        100.0 * (fl.accuracy - central.accuracy)
    );
}
