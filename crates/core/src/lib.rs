//! # clinfl
//!
//! The integrated pipeline of *"Multi-Site Clinical Federated Learning
//! using Recursive and Attentive Models and NVFlare"* (ICDCS 2023),
//! assembled from the workspace substrates:
//!
//! * [`clinfl_tensor`] — autograd engine (replaces PyTorch),
//! * [`clinfl_text`] — tokenizer + MLM masking,
//! * [`clinfl_data`] — synthetic clopidogrel/ADR cohort (replaces the
//!   proprietary EHR) and the paper's 8-site partitions,
//! * [`clinfl_models`] — LSTM, BERT, BERT-mini (paper Table II),
//! * [`clinfl_flare`] — the NVFlare-workalike federated runtime.
//!
//! Following the paper's Fig. 1 pipeline, this crate provides:
//!
//! * [`PipelineConfig`] — Table I parameters with a scale knob,
//! * [`SiteLearner`] — local training and evaluation, one loop for both
//!   tasks, with a [`Head`] supplying what differs: [`ClassifyHead`] for
//!   ADR fine-tuning of any [`clinfl_models::SequenceClassifier`]
//!   ([`Learner`]), [`MlmHead`] for BERT MLM pretraining ([`MlmLearner`]),
//! * [`SiteExecutor`] — the NVFlare executor around one learner (the
//!   `CiBertLearner` of the paper's Fig. 3; [`ClinicalExecutor`] /
//!   [`MlmExecutor`]),
//! * [`drivers`] — centralized / standalone / federated fine-tuning (every
//!   federated run's sites from one [`drivers::ClinicalSites`]) and the
//!   four MLM pretraining schemes,
//! * [`experiments`] — typed runners regenerating Table III and Fig. 2.
//!
//! ## Quickstart
//!
//! ```no_run
//! use clinfl::{drivers, ModelSpec, PipelineConfig};
//!
//! let cfg = PipelineConfig::fast_demo();
//! let outcome = drivers::train_federated(&cfg, ModelSpec::Lstm).unwrap();
//! println!("FL LSTM top-1 accuracy: {:.1}%", 100.0 * outcome.accuracy);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod config;
pub mod drivers;
mod executor;
pub mod experiments;
mod learner;
mod weights;

pub use clinfl_obs as obs;
pub use config::{ModelSpec, PipelineConfig, TrainHyper};
pub use executor::{ClinicalExecutor, MlmExecutor, SiteExecutor};
pub use learner::{ClassifyHead, EpochStats, Head, Learner, MlmHead, MlmLearner, SiteLearner};
pub use weights::{params_to_weights, weights_to_params};
