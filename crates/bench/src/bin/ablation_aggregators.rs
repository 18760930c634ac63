//! Ablation (extension beyond the paper): aggregation rules under label
//! skew — weighted FedAvg vs coordinate median vs trimmed mean, on the
//! same federated LSTM task with increasingly biased site label
//! distributions.

use clinfl::{drivers, ClinicalExecutor, Learner, ModelSpec, PipelineConfig, TrainHyper};
use clinfl_data::SitePartitioner;
use clinfl_flare::aggregator::{Aggregator, CoordinateMedian, TrimmedMean, WeightedFedAvg};
use clinfl_flare::controller::SagConfig;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::EventLog;

fn run_with(cfg: &PipelineConfig, bias: f64, aggregator: &dyn Aggregator) -> f64 {
    let seed = cfg.federation.seed;
    let data = drivers::build_task_data(cfg);
    let partitioner = SitePartitioner::LabelSkew {
        n_sites: cfg.federation.n_clients,
        bias,
    };
    let shards = partitioner.partition(&data.train, seed);
    let hyper = TrainHyper::for_model(ModelSpec::Lstm);
    let vocab = data.code_system.vocab().len();
    let seed_learner = Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed);
    let initial = seed_learner.export_weights();
    let log = EventLog::new();
    let runner = SimulatorRunner::with_log(
        SimulatorConfig {
            sag: SagConfig {
                validate_global: false,
                ..cfg.federation.sag.clone()
            },
            ..cfg.federation.clone()
        },
        log.clone(),
    );
    let valid = data.valid.clone();
    let result = runner
        .run_simple(
            initial,
            |i, _| {
                Box::new(ClinicalExecutor::new(
                    Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed),
                    shards[i].clone(),
                    valid.clone(),
                    cfg.local_epochs,
                    log.clone(),
                ))
            },
            aggregator,
        )
        .expect("simulation runs");
    let mut eval = Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed);
    eval.load_weights(&result.workflow.final_weights);
    eval.evaluate(&data.valid)
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
        let fedavg = run_with(&cfg, bias, &WeightedFedAvg);
        let median = run_with(&cfg, bias, &CoordinateMedian);
        let trimmed = run_with(&cfg, bias, &TrimmedMean { trim: 1 });
        println!(
            "{bias:<10} {:>15.1}% {:>17.1}% {:>13.1}%",
            100.0 * fedavg,
            100.0 * median,
            100.0 * trimmed
        );
    }
    println!("\n(robust rules trade accuracy under uniform data for stability under skew)");
}
