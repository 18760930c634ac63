//! Pipeline configuration (the paper's Table I, with a scale knob).

use clinfl_data::{CohortSpec, PretrainSpec};
use clinfl_flare::controller::SagConfig;
use clinfl_flare::job::AggregatorKind;
use clinfl_flare::simulator::SimulatorConfig;
use std::time::Duration;

/// Which of the paper's three models to build (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// BERT: hidden 128, 6 heads, 12 layers.
    Bert,
    /// BERT-mini: hidden 50, 2 heads, 6 layers.
    BertMini,
    /// LSTM: hidden 128, 3 layers.
    Lstm,
}

impl ModelSpec {
    /// All three, in Table II column order.
    pub fn all() -> [ModelSpec; 3] {
        [ModelSpec::Bert, ModelSpec::BertMini, ModelSpec::Lstm]
    }

    /// Display name matching the paper's tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelSpec::Bert => "BERT",
            ModelSpec::BertMini => "BERT-mini",
            ModelSpec::Lstm => "LSTM",
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Optimization hyper-parameters for one training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainHyper {
    /// Adam learning rate. Table I lists `1e-2`; that is stable for the
    /// LSTM but (as the paper itself notes in §IV-B3, "differences in
    /// optimization methods … learning rate") too aggressive for the
    /// transformers, which default lower here.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Gradient-clipping max norm (0 disables).
    pub clip_norm: f32,
}

impl TrainHyper {
    /// Defaults for BERT MLM pretraining: smaller batches (more optimizer
    /// steps per pass over a scaled-down corpus) and a higher rate paired
    /// with the `MlmLearner`'s warmup schedule.
    pub fn for_mlm() -> Self {
        TrainHyper {
            lr: 2e-3,
            batch_size: 16,
            clip_norm: 1.0,
        }
    }

    /// Per-model defaults.
    pub fn for_model(model: ModelSpec) -> Self {
        match model {
            ModelSpec::Lstm => TrainHyper {
                // Table I lists Adam 1e-2; on this substrate 1e-2 spends
                // most of training on the majority-class plateau while
                // 3e-3 converges steadily (see EXPERIMENTS.md calibration
                // notes), so the default backs off by ~3x.
                lr: 3e-3,
                batch_size: 32,
                clip_norm: 5.0,
            },
            ModelSpec::Bert | ModelSpec::BertMini => TrainHyper {
                lr: 1e-3,
                batch_size: 32,
                clip_norm: 1.0,
            },
        }
    }
}

/// End-to-end pipeline configuration.
///
/// `paper()` mirrors Table I exactly (8 clients; 8,638-patient cohort split
/// 6,927 / 1,732 ≈ 80/20; pretraining corpus 453,377 / 8,683). Because the
/// reproduction substrate is a single-core CPU rather than the paper's
/// 4×RTX 2080 Ti + p3.8xlarge, `scale` divides the data volumes;
/// experiment records in EXPERIMENTS.md state the scale used per run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Local epochs per round (Fig. 3 shows 10 local epochs).
    pub local_epochs: u32,
    /// Centralized / standalone training epochs (compute-matched to
    /// `rounds * local_epochs`).
    pub epochs: u32,
    /// Tokenizer sequence length.
    pub seq_len: usize,
    /// Train fraction of the cohort (paper: 6,927 / 8,638 ≈ 0.802).
    pub train_frac: f64,
    /// The synthetic cohort spec (scaled).
    pub cohort: CohortSpec,
    /// The synthetic pretraining corpus spec (scaled).
    pub pretrain: PretrainSpec,
    /// MLM pretraining epochs per scheme / rounds in FL pretraining.
    pub pretrain_rounds: u32,
    /// The federation every federated phase runs, and the master seed
    /// (`federation.seed`): sites (paper: 8), fine-tuning rounds `E`,
    /// quorum and deadlines, faults, retry, checkpoints, wire codec,
    /// aggregation tree, client sampling and DP-SGD (`federation.dp`).
    pub federation: SimulatorConfig,
    /// Aggregation rule of federated fine-tuning (the job key
    /// `aggregator`); `masked_sum` brings its site masks along.
    pub aggregator: AggregatorKind,
    /// FedProx proximal coefficient μ: local training adds
    /// `μ/2 · ‖w − w_global‖²` to anchor sites near the global model
    /// under non-IID drift. `None` keeps plain FedAvg local training.
    pub fedprox_mu: Option<f32>,
    /// Post-FL personalization: each site fine-tunes the final global
    /// model on its own shard for this many local epochs (0 disables).
    pub personalize_epochs: u32,
}

impl PipelineConfig {
    /// The paper's full-scale configuration (Table I). Expect hours of CPU
    /// time; use [`PipelineConfig::scaled`] for routine runs.
    pub fn paper() -> Self {
        PipelineConfig {
            local_epochs: 2,
            epochs: 20,
            seq_len: 26,
            train_frac: 0.802,
            cohort: CohortSpec::default(),
            pretrain: PretrainSpec {
                scale: 1,
                ..PretrainSpec::default()
            },
            pretrain_rounds: 10,
            federation: SimulatorConfig {
                sag: SagConfig {
                    round_timeout: Duration::from_secs(3600),
                    ..SagConfig::default()
                },
                seed: 20230,
                ..SimulatorConfig::default()
            },
            aggregator: AggregatorKind::WeightedFedAvg,
            fedprox_mu: None,
            personalize_epochs: 0,
        }
    }

    /// Paper configuration with data volumes divided by `scale` and a
    /// matching compute budget (the default experiment setting; see
    /// EXPERIMENTS.md).
    pub fn scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        let mut cfg = PipelineConfig::paper();
        cfg.cohort.n_patients = (cfg.cohort.n_patients / scale).max(64);
        cfg.pretrain.scale = 16 * scale;
        if scale >= 4 {
            cfg.federation.sag.rounds = 5;
            cfg.local_epochs = 2;
            cfg.epochs = 10;
            cfg.pretrain_rounds = 6;
        }
        cfg
    }

    /// A seconds-scale configuration for tests and the quickstart example.
    pub fn fast_demo() -> Self {
        let mut cfg = PipelineConfig::scaled(32);
        cfg.cohort.n_patients = 240;
        cfg.federation.sag.rounds = 2;
        cfg.local_epochs = 1;
        cfg.epochs = 2;
        cfg.pretrain_rounds = 2;
        cfg.pretrain.scale = 2048;
        cfg
    }

    /// The paper's imbalanced-site partitioner (§IV-B1 ratios).
    pub fn imbalanced_partitioner(&self) -> clinfl_data::SitePartitioner {
        assert_eq!(
            self.federation.n_clients, 8,
            "the paper's imbalanced ratios are defined for 8 clients"
        );
        clinfl_data::SitePartitioner::paper_imbalanced()
    }

    /// A balanced partitioner over the federation's sites.
    pub fn balanced_partitioner(&self) -> clinfl_data::SitePartitioner {
        clinfl_data::SitePartitioner::Balanced {
            n_sites: self.federation.n_clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_flare::client::RetryPolicy;
    use clinfl_flare::faults::FaultConfig;

    #[test]
    fn paper_counts() {
        let cfg = PipelineConfig::paper();
        assert_eq!(cfg.federation.n_clients, 8);
        assert_eq!(cfg.cohort.n_patients, 8_638);
        assert_eq!(cfg.pretrain.n_train(), 453_377);
        assert_eq!(cfg.pretrain.n_valid(), 8_683);
        // 80/20 split reproduces the paper's 6,927 / 1,732 within rounding.
        let train = (8_638.0 * cfg.train_frac).round() as usize;
        assert_eq!(train, 6_928); // vs paper 6,927 (±1 from their rounding)
        assert_eq!(8_638 - train, 1_710);
    }

    /// The federation defaults every driver and the CLI start from.
    #[test]
    fn paper_federation_defaults() {
        let fed = PipelineConfig::paper().federation;
        assert_eq!(fed.n_clients, 8);
        assert_eq!(fed.sag.rounds, 10);
        assert_eq!(fed.seed, 20230);
        assert_eq!(fed.sag.round_timeout, Duration::from_secs(3600));
        assert_eq!(fed.sag.min_clients, 1);
        assert_eq!(fed.sag.quorum_grace, None);
        assert!(fed.sag.validate_global);
        assert_eq!(fed.sag.client_sample_fraction, 1.0);
        assert!(fed.wire.is_raw());
        assert_eq!(fed.tree, None);
        assert_eq!(fed.faults, FaultConfig::none());
        assert_eq!(fed.retry, RetryPolicy::default());
        assert_eq!(fed.checkpoint_dir, None);
        assert!(!fed.resume);
        assert_eq!(fed.retain_checkpoints, None);
        assert_eq!(fed.dp, None);
    }

    #[test]
    fn scaled_reduces_volume() {
        let cfg = PipelineConfig::scaled(4);
        assert_eq!(cfg.cohort.n_patients, 2_159);
        assert!(cfg.pretrain.n_train() < 10_000);
        assert_eq!(cfg.federation.sag.rounds, 5);
    }

    #[test]
    fn hyper_defaults_differ_by_model() {
        assert!(
            TrainHyper::for_model(ModelSpec::Lstm).lr > TrainHyper::for_model(ModelSpec::Bert).lr
        );
    }

    #[test]
    fn model_spec_names() {
        assert_eq!(ModelSpec::Bert.to_string(), "BERT");
        assert_eq!(ModelSpec::all().len(), 3);
    }
}
