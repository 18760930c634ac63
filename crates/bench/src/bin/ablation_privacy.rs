//! Ablation (extension): NVFlare-style privacy filters on the federated
//! LSTM task — differential-privacy noise sweep and secure-aggregation
//! masking, measuring the accuracy cost of each privacy mechanism.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_flare::job::AggregatorKind;
use clinfl_flare::privacy::DpConfig;

enum Privacy {
    None,
    Dp { sigma: f32 },
    SecureAgg,
}

fn run(cfg: &PipelineConfig, privacy: &Privacy) -> f64 {
    let mut cfg = cfg.clone();
    cfg.federation.sag.min_clients = cfg.federation.n_clients;
    cfg.federation.sag.validate_global = false;
    match privacy {
        Privacy::None => {}
        Privacy::Dp { sigma } => {
            cfg.federation.dp = Some(DpConfig {
                clip: 10.0,
                sigma: *sigma,
                delta: 1e-5,
            })
        }
        Privacy::SecureAgg => cfg.aggregator = AggregatorKind::MaskedSum,
    }
    drivers::train_federated(&cfg, ModelSpec::Lstm)
        .expect("simulation runs")
        .accuracy
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
