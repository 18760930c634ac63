//! Ablation (extension beyond the paper): aggregation rules under label
//! skew — weighted FedAvg vs coordinate median vs trimmed mean, on the
//! same federated LSTM task with increasingly biased site label
//! distributions.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_data::SitePartitioner;
use clinfl_flare::job::AggregatorKind;
use clinfl_flare::EventLog;

fn run_with(cfg: &PipelineConfig, bias: f64, aggregator: AggregatorKind) -> f64 {
    let mut cfg = cfg.clone();
    cfg.federation.sag.validate_global = false;
    cfg.aggregator = aggregator;
    let partitioner = SitePartitioner::LabelSkew {
        n_sites: cfg.federation.n_clients,
        bias,
    };
    drivers::train_federated_with(&cfg, ModelSpec::Lstm, &partitioner, EventLog::new())
        .expect("simulation runs")
        .accuracy
}

fn main() {
    let args = clinfl_bench::parse_args(12);
    let cfg = args.config();
    println!(
        "ABLATION — aggregation rule vs label skew (LSTM, {} patients, {} rounds)\n",
        cfg.cohort.n_patients, cfg.federation.sag.rounds
    );
    println!(
        "{:<10} {:>16} {:>18} {:>14}",
        "bias", "WeightedFedAvg", "CoordinateMedian", "TrimmedMean"
    );
    for bias in [0.0, 0.5, 0.9] {
        let fedavg = run_with(&cfg, bias, AggregatorKind::WeightedFedAvg);
        let median = run_with(&cfg, bias, AggregatorKind::CoordinateMedian);
        let trimmed = run_with(&cfg, bias, AggregatorKind::TrimmedMean);
        println!(
            "{bias:<10} {:>15.1}% {:>17.1}% {:>13.1}%",
            100.0 * fedavg,
            100.0 * median,
            100.0 * trimmed
        );
    }
    println!("\n(robust rules trade accuracy under uniform data for stability under skew)");
}
