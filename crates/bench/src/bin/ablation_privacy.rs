//! Ablation (extension): NVFlare-style privacy filters on the federated
//! LSTM task — differential-privacy noise sweep and secure-aggregation
//! masking, measuring the accuracy cost of each privacy mechanism.

use clinfl::{drivers, ClinicalExecutor, Learner, ModelSpec, PipelineConfig, TrainHyper};
use clinfl_flare::aggregator::{Aggregator, MaskedSum, WeightedFedAvg};
use clinfl_flare::controller::SagConfig;
use clinfl_flare::filters::{DpGaussian, FilterChain, SecureAggMask};
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::EventLog;

enum Privacy {
    None,
    Dp { sigma: f32 },
    SecureAgg,
}

fn run(cfg: &PipelineConfig, privacy: &Privacy) -> f64 {
    let seed = cfg.federation.seed;
    let data = drivers::build_task_data(cfg);
    let shards = cfg.imbalanced_partitioner().partition(&data.train, seed);
    let hyper = TrainHyper::for_model(ModelSpec::Lstm);
    let vocab = data.code_system.vocab().len();
    let initial = Learner::new(ModelSpec::Lstm, vocab, cfg.seq_len, hyper, seed).export_weights();
    let log = EventLog::new();
    let runner = SimulatorRunner::with_log(
        SimulatorConfig {
            sag: SagConfig {
                min_clients: cfg.federation.n_clients,
                validate_global: false,
                ..cfg.federation.sag.clone()
            },
            ..cfg.federation.clone()
        },
        log.clone(),
    );
    let aggregator: Box<dyn Aggregator> = match privacy {
        Privacy::SecureAgg => Box::new(MaskedSum),
        _ => Box::new(WeightedFedAvg),
    };
    let n_sites = cfg.federation.n_clients;
    let valid = data.valid.clone();
    let result = runner
        .run(
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
            aggregator.as_ref(),
            |i| {
                let mut chain = FilterChain::new();
                match privacy {
                    Privacy::None => {}
                    Privacy::Dp { sigma } => {
                        chain.push(Box::new(DpGaussian {
                            clip_norm: 10.0,
                            sigma: *sigma,
                            seed: seed ^ i as u64,
                        }));
                    }
                    Privacy::SecureAgg => {
                        chain.push(Box::new(SecureAggMask {
                            site_index: i,
                            n_sites,
                            session_seed: seed,
                        }));
                    }
                }
                chain
            },
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
        "ABLATION — privacy mechanisms (LSTM, {} patients, {} rounds)\n",
        cfg.cohort.n_patients, cfg.federation.sag.rounds
    );
    let baseline = run(&cfg, &Privacy::None);
    println!("no filter (plain FedAvg):      {:.1}%", 100.0 * baseline);
    for sigma in [0.0001f32, 0.001, 0.01] {
        let acc = run(&cfg, &Privacy::Dp { sigma });
        println!(
            "DP-Gaussian sigma={sigma:<7}:      {:.1}%  ({:+.1})",
            100.0 * acc,
            100.0 * (acc - baseline)
        );
    }
    let sec = run(&cfg, &Privacy::SecureAgg);
    println!(
        "secure aggregation (masked):   {:.1}%  ({:+.1}; masks cancel, so only f32 rounding differs)",
        100.0 * sec,
        100.0 * (sec - baseline)
    );
}
