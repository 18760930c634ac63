//! Ablation (extension): FedAvg vs FedAvg + FedProx proximal local
//! training under label-skewed sites. FedProx (Li et al., MLSys 2020)
//! penalizes local drift from the global model, which matters exactly when
//! site distributions diverge.

use clinfl::{drivers, ClinicalExecutor, Learner, ModelSpec, PipelineConfig, TrainHyper};
use clinfl_data::SitePartitioner;
use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::EventLog;

fn run(cfg: &PipelineConfig, bias: f64, prox_mu: Option<f32>) -> f64 {
    let seed = cfg.federation.seed;
    let data = drivers::build_task_data(cfg);
    let shards = SitePartitioner::LabelSkew {
        n_sites: cfg.federation.n_clients,
        bias,
    }
    .partition(&data.train, seed);
    let hyper = TrainHyper::for_model(ModelSpec::Lstm);
    let vocab = data.code_system.vocab().len();
    let initial = Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed).export_weights();
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
                let mut ex = ClinicalExecutor::new(
                    Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed),
                    shards[i].clone(),
                    valid.clone(),
                    cfg.local_epochs,
                    log.clone(),
                );
                if let Some(mu) = prox_mu {
                    ex = ex.with_prox(mu);
                }
                Box::new(ex)
            },
            &WeightedFedAvg,
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
        "ABLATION — FedProx under label skew (LSTM, {} patients, {} rounds x {} local epochs)\n",
        cfg.cohort.n_patients, cfg.federation.sag.rounds, cfg.local_epochs
    );
    println!(
        "{:<8} {:>12} {:>18} {:>18}",
        "bias", "FedAvg", "FedProx mu=0.01", "FedProx mu=0.1"
    );
    for bias in [0.0, 0.6, 0.9] {
        let plain = run(&cfg, bias, None);
        let prox_small = run(&cfg, bias, Some(0.01));
        let prox_large = run(&cfg, bias, Some(0.1));
        println!(
            "{bias:<8} {:>11.1}% {:>17.1}% {:>17.1}%",
            100.0 * plain,
            100.0 * prox_small,
            100.0 * prox_large
        );
    }
}
