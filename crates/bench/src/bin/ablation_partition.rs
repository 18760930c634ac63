//! Ablation: the paper's Fig. 2 imbalanced-vs-balanced comparison applied
//! to the fine-tuning task (Table III is run on the imbalanced split;
//! this measures how much the split shape matters).

use clinfl::{drivers, ModelSpec};
use clinfl_flare::EventLog;

fn main() {
    let args = clinfl_bench::parse_args(8);
    let cfg = args.config();
    println!(
        "ABLATION — site partition shape (LSTM, {} patients, {} rounds x {} local epochs)\n",
        cfg.cohort.n_patients, cfg.federation.sag.rounds, cfg.local_epochs
    );
    let imb = drivers::train_federated_with(
        &cfg,
        ModelSpec::Lstm,
        &cfg.imbalanced_partitioner(),
        EventLog::new(),
    )
    .expect("imbalanced run");
    let bal = drivers::train_federated_with(
        &cfg,
        ModelSpec::Lstm,
        &cfg.balanced_partitioner(),
        EventLog::new(),
    )
    .expect("balanced run");
    println!(
        "FL (imbalanced {:?}): {:.1}%",
        clinfl_data::PAPER_IMBALANCED_RATIOS,
        100.0 * imb.accuracy
    );
    println!("FL (balanced 8 x 12.5%): {:.1}%", 100.0 * bal.accuracy);
    println!(
        "\nPaper expectation (from Fig. 2's MLM curves): with FedAvg weighting by example count,\nimbalanced and balanced splits land close together. Gap here: {:.1} points.",
        100.0 * (imb.accuracy - bal.accuracy).abs()
    );
}
