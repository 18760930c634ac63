//! Regenerates the paper's **Fig. 3** (demonstration of BERT fine-tuning on
//! the NVFlare-style runtime): live log of client initialization with
//! tokens, local epochs with loss/accuracy and sec/local-epoch timing,
//! aggregation, persistence, and the federated round loop.
//!
//! ```sh
//! cargo run -p clinfl-bench --release --bin fig3_demo
//! ```

use clinfl::{drivers, ModelSpec};
use clinfl_flare::EventLog;

fn main() {
    let args = clinfl_bench::parse_args(16);
    let mut cfg = args.config();
    cfg.federation.sag.rounds = 3;
    cfg.local_epochs = 2;

    println!("=== Fig. 3 demonstration: BERT fine-tuning on the federated runtime ===\n");
    let log = EventLog::echoing();
    let out =
        drivers::train_federated_with(&cfg, ModelSpec::Bert, &cfg.imbalanced_partitioner(), log)
            .expect("federation runs");
    println!(
        "\nFinal global BERT accuracy {:.1}% after {} rounds (scale {}).",
        100.0 * out.accuracy,
        cfg.federation.sag.rounds,
        args.scale
    );
}
