//! # clinfl-data
//!
//! Synthetic clinical-EHR substrate for the `clinfl` reproduction of
//! *"Multi-Site Clinical Federated Learning using Recursive and Attentive
//! Models and NVFlare"* (ICDCS 2023).
//!
//! The paper's dataset — electronic health records of **8,638 clopidogrel
//! patients, 1,824 of whom were treatment-failure cases** (≈ 21%), from
//! Cipherome (its ref. \[13\]) — is proprietary and HIPAA-protected, so this
//! crate generates a synthetic cohort that exercises the same code paths:
//!
//! * [`CodeSystem`] — a deterministic clinical code vocabulary (ATC-like
//!   drug codes, ICD-like diagnosis codes) organized in condition clusters,
//!   shared by the pretraining corpus and the fine-tuning cohort.
//! * [`CohortSpec`] / [`generate_cohort`] — patient event sequences with an
//!   **order-sensitive** adverse-drug-reaction (ADR) outcome: treatment
//!   failure depends on *when* an interacting drug (a CYP2C19 inhibitor
//!   like omeprazole) is prescribed relative to clopidogrel initiation, not
//!   merely on its presence. A recursive model therefore has a genuine
//!   representational advantage, matching the paper's observation that the
//!   LSTM outperforms BERT on this task.
//! * [`PretrainSpec`] / [`generate_corpus`] — an MLM pretraining corpus
//!   with cluster-structured co-occurrence statistics (so MLM loss can
//!   actually fall, as in the paper's Fig. 2).
//! * [`SitePartitioner`] — the paper's exact 8-site imbalanced split
//!   ratios `{0.29, 0.22, 0.17, 0.14, 0.09, 0.04, 0.03, 0.02}`, a balanced
//!   split, and a label-skew split for ablations.
//! * [`ClassifyDataset`] / [`Batch`] — tokenized, batched training data.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod codes;
mod cohort;
mod corpus;
mod dataset;
mod partition;

pub use codes::{CodeSystem, CodeSystemSpec};
pub use cohort::{generate_cohort, Cohort, CohortSpec, Patient};
pub use corpus::{generate_corpus, Corpus, PretrainSpec};
pub use dataset::{Batch, BatchIter, ClassifyDataset, Example};
pub use partition::{allocate_counts, SitePartitioner, PAPER_IMBALANCED_RATIOS};
