//! The paper's Fig. 3 demonstration: an 8-site federated fine-tuning run
//! with live NVFlare-style logs — client registration with tokens, local
//! epochs with `train_loss`/`valid_acc`, per-epoch timing, aggregation and
//! round persistence.
//!
//! ```sh
//! cargo run --release --example fl_finetune
//! ```

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_flare::EventLog;

fn main() {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 400;
    cfg.federation.sag.rounds = 3;
    cfg.local_epochs = 2;

    println!("=== Initialize server and clients (provision + token registration) ===");
    let log = EventLog::echoing();
    let out = drivers::train_federated_with(
        &cfg,
        ModelSpec::BertMini,
        &cfg.imbalanced_partitioner(),
        log,
    )
    .expect("federation runs");

    println!("\n=== Result ===");
    println!(
        "Final global BERT-mini top-1 accuracy: {:.1}% after {} rounds",
        100.0 * out.accuracy,
        cfg.federation.sag.rounds
    );
}
