//! NVFlare executors wiring the learners into the federated runtime
//! (the paper Fig. 3's `CiBertLearner`).

use crate::learner::{ClassifyHead, Head, MlmHead, ParkOnDrop, SiteLearner};
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::{Dxo, EventLog, Weights};
use std::borrow::Borrow;

/// A site's data, owned.
type Owned<H> = <<H as Head>::Data as ToOwned>::Owned;

/// Federated executor for one site: on each `Train` task it loads the
/// global model, runs `local_epochs` of local training on the site's
/// shard, and submits the updated weights with the head's metrics,
/// logging the per-epoch lines of the paper's Fig. 3. On each `Validate`
/// task it scores its shard of the split every site shares.
///
/// A head that [probes](Head::PROBES) scores, after every local epoch,
/// the same shard of that split under the weights just trained
/// ([`SiteLearner::probe_shard`]), so across the roster each local epoch
/// scores the split once. A site whose shard owns no eval batch has no
/// probe score: its line says `valid_acc=n/a` and its update carries no
/// `valid_acc`.
pub struct SiteExecutor<H: Head> {
    learner: SiteLearner<H>,
    train: Owned<H>,
    /// The validation split every site shares.
    valid: Owned<H>,
    local_epochs: u32,
    log: EventLog,
}

/// Federated executor for the ADR fine-tuning task: reports
/// `train_loss`/`valid_acc` and validates by top-1 accuracy.
pub type ClinicalExecutor = SiteExecutor<ClassifyHead>;

/// Federated executor for BERT MLM pretraining (the paper's Fig. 2 FL
/// schemes). Validation reports the **MLM loss** on the shared held-out
/// corpus — lower is better, so round summaries carry the loss curve
/// directly.
pub type MlmExecutor = SiteExecutor<MlmHead>;

impl<H: Head> std::fmt::Debug for SiteExecutor<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(std::any::type_name::<Self>())
            .field("train_rows", &H::len(self.train.borrow()))
            .field("local_epochs", &self.local_epochs)
            .finish_non_exhaustive()
    }
}

impl<H: Head> SiteExecutor<H> {
    /// Creates the executor for one site.
    pub fn new(
        learner: SiteLearner<H>,
        train: Owned<H>,
        valid: Owned<H>,
        local_epochs: u32,
        log: EventLog,
    ) -> Self {
        SiteExecutor {
            learner,
            train,
            valid,
            local_epochs,
            log,
        }
    }
}

impl ClinicalExecutor {
    /// Enables FedProx local training with coefficient `mu` (extension;
    /// see [`SiteLearner::set_prox`]).
    pub fn with_prox(mut self, mu: f32) -> Self {
        self.learner.set_prox(mu);
        self
    }
}

impl<H: Head> Executor for SiteExecutor<H> {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        // The site goes idle after this task: its tape arena moves on to
        // the next site that gets a compute permit (DESIGN.md §3d).
        let mut learner = ParkOnDrop(&mut self.learner);
        learner.load_weights(global);
        if H::FRESH_OPTIMIZER_EACH_ROUND {
            learner.reset_optimizer();
        }
        let (mut last_loss, mut last_probe) = (0.0, None);
        for e in 0..self.local_epochs {
            let stats = learner.train_epoch(self.train.borrow());
            last_loss = stats.mean_loss;
            if H::PROBES {
                last_probe = learner.probe_shard(self.valid.borrow(), ctx.shard);
            }
            let lr = learner.hyper().lr;
            let line = H::epoch_line(&ctx.site, e + 1, self.local_epochs, lr, &stats, last_probe);
            self.log.info("CiBertLearner", line);
        }
        let n_examples = H::len(self.train.borrow()) as u64;
        let mut dxo = Dxo::from_weights(learner.export_weights(), n_examples);
        dxo.metrics = H::metrics(last_loss, last_probe);
        dxo
    }

    /// `valid` is the split every site shares: this site scores its
    /// `ctx.shard` of it ([`SiteLearner::validate_shard`]).
    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        ParkOnDrop(&mut self.learner).validate_shard(global, self.valid.borrow(), ctx.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelSpec, TrainHyper};
    use crate::learner::{Learner, MlmLearner};
    use clinfl_data::{generate_cohort, ClassifyDataset, CodeSystem, CohortSpec, Example};
    use clinfl_flare::codec::weights_digest;
    use clinfl_flare::executor::Shard;
    use clinfl_flare::WeightTensor;
    use clinfl_models::BertConfig;
    use clinfl_text::{ClinicalTokenizer, Encoded};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SEQ_LEN: usize = 24;

    /// 150 rows: ten eval batches of 16 with a short last one.
    fn split() -> (CodeSystem, ClassifyDataset) {
        let cs = CodeSystem::new();
        let cohort = generate_cohort(&cs, &CohortSpec::small(150, 5));
        let tok = ClinicalTokenizer::new(cs.vocab().clone(), SEQ_LEN);
        (cs, ClassifyDataset::from_cohort(&cohort, &tok))
    }

    fn ctx(shard: Shard) -> TaskContext {
        TaskContext {
            site: format!("site-{}", shard.index + 1),
            round: 0,
            total_rounds: 1,
            shard,
        }
    }

    /// Sites that share `valid` and validate as a roster of `of`, for each
    /// `of` in `rosters`, answer a mean equal to the full split's score;
    /// a roster of one answers it exactly; and a shard past the last eval
    /// batch answers 0 without loading the weights it is handed.
    fn assert_roster_mean_is_the_full_split_score<H: Head>(
        learner: impl Fn() -> SiteLearner<H>,
        valid: Owned<H>,
        rosters: &[usize],
    ) where
        Owned<H>: Clone,
    {
        let site =
            || SiteExecutor::new(learner(), valid.clone(), valid.clone(), 1, EventLog::new());
        let global = learner().export_weights();
        let full = learner().evaluate(valid.borrow());
        assert!(full > 0.0, "degenerate reference {full}");
        for &of in rosters {
            let mut site = site();
            let mean = (0..of)
                .map(|index| site.validate(&global, &ctx(Shard { index, of })))
                .sum::<f64>()
                / of as f64;
            assert!(
                (mean - full).abs() <= 1e-12 * full,
                "{of} validators: roster mean {mean} vs full split {full}"
            );
        }
        assert_eq!(site().validate(&global, &ctx(Shard::WHOLE)), full);

        // Weights no learner can load: loading them panics.
        let mismatched: Weights = global
            .keys()
            .map(|name| (name.clone(), WeightTensor::new(vec![1], vec![0.0])))
            .collect();
        let load = catch_unwind(AssertUnwindSafe(|| learner().load_weights(&mismatched)));
        assert!(load.is_err(), "mismatched weights loaded");
        let batches = H::len(valid.borrow()).div_ceil(learner().hyper().batch_size);
        let past_the_end = Shard {
            index: batches,
            of: batches + 1,
        };
        assert_eq!(site().validate(&mismatched, &ctx(past_the_end)), 0.0);
    }

    #[test]
    fn roster_mean_is_the_full_split_score_under_either_head() {
        let (cs, valid) = split();
        let mut hyper = TrainHyper::for_model(ModelSpec::Lstm);
        hyper.batch_size = 16;
        let learner = || Learner::new(ModelSpec::Lstm, cs.vocab().len(), SEQ_LEN, hyper, 3);
        let rosters = [1, 2, 3, 8, 9, 10, 13];
        assert_roster_mean_is_the_full_split_score(learner, valid.clone(), &rosters);

        // 70 sequences in batches of 16: five eval batches.
        let seqs: Vec<Encoded> = valid.examples()[..70]
            .iter()
            .map(|e| e.encoded.clone())
            .collect();
        let bert = BertConfig::bert_mini(cs.vocab().len(), SEQ_LEN);
        let learner = || MlmLearner::new(&bert, cs.vocab().clone(), TrainHyper::for_mlm(), 3);
        assert_roster_mean_is_the_full_split_score(learner, seqs, &[1, 2, 3, 8, 9]);
    }

    /// A FedProx site's round-1 update is the bits an eager learner sent:
    /// the anchor is the loaded global either way, and building the site
    /// draws nothing.
    #[test]
    fn fedprox_round_one_update_keeps_its_bits() {
        let cs = CodeSystem::new();
        let cohort = generate_cohort(&cs, &CohortSpec::small(160, 3));
        let data =
            ClassifyDataset::from_cohort(&cohort, &ClinicalTokenizer::new(cs.vocab().clone(), 36));
        for (spec, update) in [
            (ModelSpec::Lstm, 0x959c_6d5d_c720_77bd),
            (ModelSpec::BertMini, 0x93e8_942e_99f1_1023),
        ] {
            let mut hyper = TrainHyper::for_model(spec);
            hyper.batch_size = 16;
            let learner = |seed| Learner::new(spec, cs.vocab().len(), 36, hyper, seed);
            let global = learner(7).export_weights();
            let log = EventLog::new();
            let site = SiteExecutor::new(learner(11), data.clone(), data.clone(), 1, log);
            let dxo = site.with_prox(0.5).train(&global, &ctx(Shard::WHOLE));
            assert_eq!(weights_digest(&dxo.weights), update, "{spec:?}");
        }
    }

    /// The rows of `shard`'s eval batches of `valid` (batches of `bs`, in
    /// the order validation scores them), as a dataset of their own.
    fn shard_rows(valid: &ClassifyDataset, bs: usize, shard: Shard) -> ClassifyDataset {
        let rows = shard.select(valid.batches(bs, 0)).flat_map(|b| {
            (0..b.batch_size).map(move |r| {
                let cols = r * b.seq_len..(r + 1) * b.seq_len;
                let encoded = Encoded {
                    ids: b.ids[cols.clone()].to_vec(),
                    attention_mask: b.mask[cols].to_vec(),
                };
                let label = b.labels[r] as u8;
                Example { encoded, label }
            })
        });
        ClassifyDataset::from_examples(rows.collect(), valid.seq_len())
    }

    /// A site's per-epoch probe is the top-1 of the weights it submits on
    /// its own shard of the shared split, as an independent evaluation of
    /// those rows answers it; a site whose shard owns no eval batch has no
    /// probe score to log or send.
    #[test]
    fn probe_scores_the_sites_shard_of_the_shared_split() {
        let (cs, valid) = split();
        let mut hyper = TrainHyper::for_model(ModelSpec::Lstm);
        hyper.batch_size = 16;
        let learner = || Learner::new(ModelSpec::Lstm, cs.vocab().len(), SEQ_LEN, hyper, 3);
        let train = ClassifyDataset::from_examples(valid.examples()[..48].to_vec(), SEQ_LEN);
        let global = learner().export_weights();
        let site = |log: &EventLog| {
            SiteExecutor::new(learner(), train.clone(), valid.clone(), 2, log.clone())
        };

        // Eval batches 1, 5 and 9 of ten (the last one short): 38 rows.
        let shard = Shard { index: 1, of: 4 };
        let log = EventLog::new();
        let dxo = site(&log).train(&global, &ctx(shard));
        let rows = shard_rows(&valid, hyper.batch_size, shard);
        assert_eq!(rows.len(), 38);
        let mut reference = learner();
        reference.load_weights(&dxo.weights);
        let acc = reference.evaluate(&rows);
        assert_eq!(dxo.metrics.get("valid_acc"), Some(&acc));
        let line = format!("Local epoch site-2: 2/2 (lr={}), ", hyper.lr);
        let line = log.lines().into_iter().find(|l| l.contains(&line));
        let line = line.expect("the last epoch's line");
        assert!(line.contains(&format!("valid_acc={acc:.3} [")), "{line}");

        // Past the last eval batch: no score, and no key sent.
        let past_the_end = Shard { index: 10, of: 11 };
        let log = EventLog::new();
        let dxo = site(&log).train(&global, &ctx(past_the_end));
        assert!(dxo.metrics.contains_key("train_loss"));
        assert!(!dxo.metrics.contains_key("valid_acc"), "{:?}", dxo.metrics);
        let epochs = log.messages_from("CiBertLearner");
        assert_eq!(epochs.len(), 2);
        assert!(
            epochs.iter().all(|l| l.contains("valid_acc=n/a [")),
            "{epochs:?}"
        );
    }
}
