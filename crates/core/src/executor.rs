//! NVFlare executors wiring the learners into the federated runtime
//! (the paper Fig. 3's `CiBertLearner`).

use crate::learner::{Learner, MlmLearner, ParkOnDrop};
use clinfl_data::ClassifyDataset;
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::{Dxo, EventLog, Weights};
use clinfl_text::Encoded;
use std::collections::BTreeMap;

/// Federated executor for the ADR fine-tuning task: on each `Train` task it
/// loads the global model, runs `local_epochs` of local training on the
/// site's shard, and submits the updated weights with
/// `train_loss`/`valid_acc` metrics — producing exactly the log lines of
/// the paper's Fig. 3.
pub struct ClinicalExecutor {
    learner: Learner,
    train: ClassifyDataset,
    valid: ClassifyDataset,
    /// Small validation probe used for the per-epoch log lines. The
    /// round's validation is [`Executor::validate`], where each site
    /// scores its shard of `valid`.
    valid_probe: ClassifyDataset,
    local_epochs: u32,
    log: EventLog,
}

impl std::fmt::Debug for ClinicalExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClinicalExecutor")
            .field("train_examples", &self.train.len())
            .field("local_epochs", &self.local_epochs)
            .finish_non_exhaustive()
    }
}

impl ClinicalExecutor {
    /// Creates the executor for one site.
    pub fn new(
        learner: Learner,
        train: ClassifyDataset,
        valid: ClassifyDataset,
        local_epochs: u32,
        log: EventLog,
    ) -> Self {
        let probe_n = valid.len().min(96);
        let valid_probe =
            ClassifyDataset::from_examples(valid.examples()[..probe_n].to_vec(), valid.seq_len());
        ClinicalExecutor {
            learner,
            train,
            valid,
            valid_probe,
            local_epochs,
            log,
        }
    }

    /// Enables FedProx local training with coefficient `mu` (extension;
    /// see [`Learner::set_prox`]).
    pub fn with_prox(mut self, mu: f32) -> Self {
        self.learner.set_prox(mu);
        self
    }
}

impl Executor for ClinicalExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        // The site goes idle after this task: its tape arena moves on to
        // the next site that gets a compute permit (DESIGN.md §3d).
        let mut learner = ParkOnDrop(&mut self.learner);
        learner.load_weights(global);
        learner.reset_optimizer();
        let mut last_loss = 0.0;
        let mut last_acc = 0.0;
        for e in 0..self.local_epochs {
            let stats = learner.train_epoch(&self.train);
            last_loss = stats.mean_loss;
            last_acc = learner.evaluate(&self.valid_probe);
            self.log.info(
                "CiBertLearner",
                format!(
                    "Local epoch {site}: {cur}/{total} (lr={lr}), train_loss={loss:.3}, valid_acc={acc:.3} [{secs:.1} sec/local epoch]",
                    site = ctx.site,
                    cur = e + 1,
                    total = self.local_epochs,
                    lr = learner.hyper().lr,
                    loss = stats.mean_loss,
                    acc = last_acc,
                    secs = stats.seconds,
                ),
            );
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), last_loss);
        metrics.insert("valid_acc".to_string(), last_acc);
        let mut dxo = Dxo::from_weights(learner.export_weights(), self.train.len() as u64);
        dxo.metrics = metrics;
        dxo
    }

    /// `valid` is the split every site shares: this site scores its
    /// `ctx.shard` of it ([`Learner::validate_shard`]).
    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        ParkOnDrop(&mut self.learner).validate_shard(global, &self.valid, ctx.shard)
    }
}

/// Federated executor for BERT MLM pretraining (the paper's Fig. 2 FL
/// schemes). Validation reports the **MLM loss** on the shared held-out
/// corpus — lower is better, so round summaries carry the loss curve
/// directly.
pub struct MlmExecutor {
    learner: MlmLearner,
    train: Vec<Encoded>,
    valid: Vec<Encoded>,
    local_epochs: u32,
    log: EventLog,
}

impl std::fmt::Debug for MlmExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlmExecutor")
            .field("train_sequences", &self.train.len())
            .finish_non_exhaustive()
    }
}

impl MlmExecutor {
    /// Creates the executor for one site.
    pub fn new(
        learner: MlmLearner,
        train: Vec<Encoded>,
        valid: Vec<Encoded>,
        local_epochs: u32,
        log: EventLog,
    ) -> Self {
        MlmExecutor {
            learner,
            train,
            valid,
            local_epochs,
            log,
        }
    }
}

impl Executor for MlmExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        let mut learner = ParkOnDrop(&mut self.learner);
        learner.load_weights(global);
        let mut last = 0.0;
        for e in 0..self.local_epochs {
            let stats = learner.train_epoch(&self.train);
            last = stats.mean_loss;
            self.log.info(
                "CiBertLearner",
                format!(
                    "MLM epoch {site}: {cur}/{total}, mlm_loss={loss:.3} [{secs:.1} sec]",
                    site = ctx.site,
                    cur = e + 1,
                    total = self.local_epochs,
                    loss = stats.mean_loss,
                    secs = stats.seconds,
                ),
            );
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("mlm_loss".to_string(), last);
        let mut dxo = Dxo::from_weights(learner.export_weights(), self.train.len() as u64);
        dxo.metrics = metrics;
        dxo
    }

    /// `valid` is the held-out corpus every site shares: this site scores
    /// its `ctx.shard` of it ([`MlmLearner::validate_shard`]).
    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        ParkOnDrop(&mut self.learner).validate_shard(global, &self.valid, ctx.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelSpec, TrainHyper};
    use clinfl_data::{generate_cohort, CodeSystem, CohortSpec};
    use clinfl_flare::executor::Shard;
    use clinfl_models::BertConfig;
    use clinfl_text::ClinicalTokenizer;

    const SEQ_LEN: usize = 24;

    /// 150 rows: ten eval batches of 16 with a short last one.
    fn split() -> (CodeSystem, ClassifyDataset) {
        let cs = CodeSystem::new();
        let cohort = generate_cohort(&cs, &CohortSpec::small(150, 5));
        let tok = ClinicalTokenizer::new(cs.vocab().clone(), SEQ_LEN);
        (cs, ClassifyDataset::from_cohort(&cohort, &tok))
    }

    /// The mean of the roster's answers, as the controller takes it.
    fn roster_mean(of: usize, mut answer: impl FnMut(Shard) -> f64) -> f64 {
        (0..of)
            .map(|index| answer(Shard { index, of }))
            .sum::<f64>()
            / of as f64
    }

    fn ctx(shard: Shard) -> TaskContext {
        TaskContext {
            site: format!("site-{}", shard.index + 1),
            round: 0,
            total_rounds: 1,
            shard,
        }
    }

    fn assert_close(mean: f64, full: f64, what: &str) {
        assert!(full > 0.0, "{what}: degenerate reference {full}");
        assert!(
            (mean - full).abs() <= 1e-12 * full,
            "{what}: roster mean {mean} vs full split {full}"
        );
    }

    #[test]
    fn clinical_roster_mean_is_the_full_split_accuracy() {
        let (cs, valid) = split();
        let mut hyper = TrainHyper::for_model(ModelSpec::Lstm);
        hyper.batch_size = 16;
        let learner = || Learner::new(ModelSpec::Lstm, cs.vocab().len(), SEQ_LEN, hyper, 3);
        let global = learner().export_weights();
        let full = learner().evaluate(&valid);
        for of in [1, 2, 3, 8, 9, 10, 13] {
            let mut site =
                ClinicalExecutor::new(learner(), valid.clone(), valid.clone(), 1, EventLog::new());
            let mean = roster_mean(of, |shard| site.validate(&global, &ctx(shard)));
            assert_close(mean, full, &format!("{of} validators"));
        }
        let mut site = ClinicalExecutor::new(learner(), valid.clone(), valid, 1, EventLog::new());
        assert_eq!(
            site.validate(&global, &ctx(Shard { index: 0, of: 1 })),
            full
        );
        assert_eq!(
            site.validate(&global, &ctx(Shard { index: 12, of: 13 })),
            0.0
        );
    }

    #[test]
    fn mlm_roster_mean_is_the_full_split_loss() {
        let (cs, valid) = split();
        let seqs: Vec<Encoded> = valid.examples()[..70]
            .iter()
            .map(|e| e.encoded.clone())
            .collect();
        let bert = BertConfig::bert_mini(cs.vocab().len(), SEQ_LEN);
        let hyper = TrainHyper::for_mlm();
        let learner = || MlmLearner::new(&bert, cs.vocab().clone(), hyper, 3);
        let global = learner().export_weights();
        let full = learner().eval_loss(&seqs);
        // 70 sequences in batches of 16: five eval batches.
        for of in [1, 2, 3, 8, 9] {
            let mut site =
                MlmExecutor::new(learner(), seqs.clone(), seqs.clone(), 1, EventLog::new());
            let mean = roster_mean(of, |shard| site.validate(&global, &ctx(shard)));
            assert_close(mean, full, &format!("{of} validators"));
        }
    }
}
