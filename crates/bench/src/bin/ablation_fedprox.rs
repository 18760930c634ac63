//! Ablation (extension): FedAvg vs FedAvg + FedProx proximal local
//! training under label-skewed sites. FedProx (Li et al., MLSys 2020)
//! penalizes local drift from the global model, which matters exactly when
//! site distributions diverge.

use clinfl::{drivers, ModelSpec, PipelineConfig};
use clinfl_data::SitePartitioner;
use clinfl_flare::EventLog;

fn run(cfg: &PipelineConfig, bias: f64, prox_mu: Option<f32>) -> f64 {
    let mut cfg = cfg.clone();
    cfg.federation.sag.validate_global = false;
    cfg.fedprox_mu = prox_mu;
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
