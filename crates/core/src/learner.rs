//! Local training engines around the paper's models.

use crate::config::{ModelSpec, TrainHyper};
use crate::weights::{params_to_weights, weights_to_params};
use clinfl_data::{Batch, ClassifyDataset};
use clinfl_flare::executor::Shard;
use clinfl_flare::Weights;
use clinfl_models::{
    BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch,
};
use clinfl_tensor::{Adam, GradClip, Graph, LrSchedule, Optimizer};
use clinfl_text::{Encoded, MlmMasker, Vocab};

/// Summary of one local training epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch's batches.
    pub mean_loss: f64,
    /// Number of batches processed.
    pub batches: usize,
    /// Wall-clock seconds for the epoch (the paper's Fig. 3 reports
    /// "Training cost: 12.7 sec/local epoch").
    pub seconds: f64,
}

fn token_batch(b: &Batch) -> TokenBatch<'_> {
    TokenBatch {
        ids: &b.ids,
        mask: &b.mask,
        batch_size: b.batch_size,
        seq_len: b.seq_len,
    }
}

/// A learner whose tape arena can be handed on between tasks.
pub(crate) trait ParkArena {
    /// Hands the learner's tape arena (the buffers of its last step,
    /// ~50 MB for the LSTM, ~160 MB for BERT MLM) to the next learner that
    /// computes; see [`Graph::park`]. For when a task ends and the learner
    /// goes idle. Results never depend on it.
    fn park_arena(&mut self);
}

/// Scope of one task on a learner: derefs to the learner and parks its
/// tape arena when dropped, so a task that unwinds returns the arena too.
/// Create it inside the compute permit the task runs under.
pub(crate) struct ParkOnDrop<'a, L: ParkArena>(pub(crate) &'a mut L);

impl<L: ParkArena> std::ops::Deref for ParkOnDrop<'_, L> {
    type Target = L;
    fn deref(&self) -> &L {
        self.0
    }
}

impl<L: ParkArena> std::ops::DerefMut for ParkOnDrop<'_, L> {
    fn deref_mut(&mut self) -> &mut L {
        self.0
    }
}

impl<L: ParkArena> Drop for ParkOnDrop<'_, L> {
    fn drop(&mut self) {
        self.0.park_arena();
    }
}

/// A classification learner: one of the paper's three models plus an Adam
/// optimizer and hyper-parameters, trainable locally and exchangeable with
/// the federated runtime via [`Weights`].
pub struct Learner {
    model: Box<dyn SequenceClassifier + Send>,
    hyper: TrainHyper,
    optimizer: Adam,
    /// Reused autograd tape: reset (not reallocated) per step so buffers
    /// recycle across iterations, until [`ParkArena::park_arena`] hands them on.
    graph: Graph,
    epoch_counter: u64,
    seed: u64,
    /// FedProx proximal coefficient μ and the reference (global) weights:
    /// when set, every step adds `μ (w - w_global)` to the gradients,
    /// penalizing local drift (Li et al., *Federated Optimization in
    /// Heterogeneous Networks*). Extension beyond the paper.
    prox: Option<(f32, Weights)>,
}

impl ParkArena for Learner {
    fn park_arena(&mut self) {
        self.graph.park();
    }
}

impl std::fmt::Debug for Learner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Learner")
            .field("hyper", &self.hyper)
            .finish_non_exhaustive()
    }
}

impl Learner {
    /// Builds the given model (Table II geometry) over a vocabulary.
    pub fn new(
        spec: ModelSpec,
        vocab_size: usize,
        seq_len: usize,
        hyper: TrainHyper,
        seed: u64,
    ) -> Self {
        let model: Box<dyn SequenceClassifier + Send> = match spec {
            ModelSpec::Bert => {
                Box::new(BertModel::new(&BertConfig::bert(vocab_size, seq_len), seed))
            }
            ModelSpec::BertMini => Box::new(BertModel::new(
                &BertConfig::bert_mini(vocab_size, seq_len),
                seed,
            )),
            ModelSpec::Lstm => Box::new(LstmClassifier::new(
                &LstmConfig::with_vocab(vocab_size),
                seed,
            )),
        };
        Learner {
            model,
            hyper,
            optimizer: Adam::with_lr(hyper.lr),
            graph: Graph::new(),
            epoch_counter: 0,
            seed,
            prox: None,
        }
    }

    /// Enables FedProx local training: gradients gain `mu (w - w_global)`
    /// where `w_global` is the weight set from the most recent
    /// [`Learner::load_weights`] call after this one. Pass `mu = 0` or call
    /// with `None`-like semantics via [`Learner::clear_prox`] to disable.
    pub fn set_prox(&mut self, mu: f32) {
        let anchor = self.export_weights();
        self.prox = Some((mu, anchor));
    }

    /// Disables the FedProx proximal term.
    pub fn clear_prox(&mut self) {
        self.prox = None;
    }

    /// The hyper-parameters in use.
    pub fn hyper(&self) -> &TrainHyper {
        &self.hyper
    }

    /// Current weights in federated wire form.
    pub fn export_weights(&self) -> Weights {
        params_to_weights(self.model.params())
    }

    /// Loads global weights (e.g. at the start of a federated round).
    /// When FedProx is enabled, the loaded weights become the new proximal
    /// anchor.
    pub fn load_weights(&mut self, weights: &Weights) {
        weights_to_params(weights, self.model.params_mut());
        if let Some((_mu, anchor)) = &mut self.prox {
            *anchor = weights.clone();
        }
    }

    /// Resets optimizer state (fresh Adam moments, as when a federated
    /// round restarts local training from new global weights).
    pub fn reset_optimizer(&mut self) {
        self.optimizer = Adam::with_lr(self.hyper.lr);
    }

    /// Runs one epoch of mini-batch training; returns loss statistics.
    pub fn train_epoch(&mut self, data: &ClassifyDataset) -> EpochStats {
        let start = std::time::Instant::now();
        self.epoch_counter += 1;
        let shuffle_seed = self
            .seed
            .wrapping_mul(0x100000001b3)
            .wrapping_add(self.epoch_counter);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for batch in data.batches(self.hyper.batch_size, shuffle_seed) {
            let _step_span = clinfl_obs::span("train_step");
            self.graph.reset_with_seed(shuffle_seed ^ batches as u64);
            self.graph.set_training(true);
            let g = &mut self.graph;
            let loss = self
                .model
                .classification_loss(g, &token_batch(&batch), &batch.labels);
            total += g.value(loss).item() as f64;
            g.backward(loss);
            self.graph.grads_into(self.model.params_mut());
            self.apply_prox_gradient();
            if self.hyper.clip_norm > 0.0 {
                GradClip {
                    max_norm: self.hyper.clip_norm,
                }
                .apply(self.model.params_mut());
            }
            self.optimizer.step(self.model.params_mut());
            batches += 1;
        }
        EpochStats {
            mean_loss: if batches == 0 {
                0.0
            } else {
                total / batches as f64
            },
            batches,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Adds the FedProx gradient `μ (w - w_anchor)` directly into the
    /// parameter gradients (equivalent to the μ/2‖w−w₀‖² loss term, without
    /// paying for it on the autograd tape).
    fn apply_prox_gradient(&mut self) {
        let Some((mu, anchor)) = &self.prox else {
            return;
        };
        let mu = *mu;
        if mu == 0.0 {
            return;
        }
        for (name, w, g) in self.model.params_mut().iter_grads_mut() {
            let Some(a) = anchor.get(name) else { continue };
            for ((gv, &wv), &av) in g.data_mut().iter_mut().zip(w.data()).zip(&a.data) {
                *gv += mu * (wv - av);
            }
        }
    }

    /// Top-1 accuracy on a dataset (evaluation mode).
    pub fn evaluate(&mut self, data: &ClassifyDataset) -> f64 {
        let (correct, total) = self.count_correct(data, Shard::WHOLE);
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// A validate task on a split that `shard.of` validators share: loads
    /// `global` and scores the eval batches of [`Self::evaluate`] that
    /// `shard` owns. Answers `of · correct / data.len()`, so the mean of
    /// the roster's answers is `evaluate(data)`. A shard with no batches
    /// answers 0 and loads nothing.
    pub fn validate_shard(
        &mut self,
        global: &Weights,
        data: &ClassifyDataset,
        shard: Shard,
    ) -> f64 {
        if shard.index >= data.len().div_ceil(self.hyper.batch_size) {
            return 0.0;
        }
        self.load_weights(global);
        let (correct, rows) = self.count_correct(data, shard);
        clinfl_obs::add_counter("core.executor.validate_rows", rows as u64);
        shard.of as f64 * correct as f64 / data.len() as f64
    }

    /// Correct predictions and rows over `shard`'s eval batches of `data`.
    fn count_correct(&mut self, data: &ClassifyDataset, shard: Shard) -> (usize, usize) {
        let mut correct = 0usize;
        let mut total = 0usize;
        for batch in shard.select(data.batches(self.hyper.batch_size, 0)) {
            let preds = self
                .model
                .predict_with(&mut self.graph, &token_batch(&batch));
            correct += preds
                .iter()
                .zip(&batch.labels)
                .filter(|(p, l)| **p as i32 == **l)
                .count();
            total += batch.labels.len();
        }
        (correct, total)
    }
}

/// An MLM pretraining learner around [`BertModel`] (the paper's §III-B
/// pretraining stage, Fig. 2).
pub struct MlmLearner {
    model: BertModel,
    vocab: Vocab,
    masker: MlmMasker,
    hyper: TrainHyper,
    optimizer: Adam,
    schedule: LrSchedule,
    /// Reused autograd tape: reset (not reallocated) per step so buffers
    /// recycle across iterations, until [`ParkArena::park_arena`] hands them on.
    graph: Graph,
    step_counter: u64,
    epoch_counter: u64,
    seed: u64,
}

impl ParkArena for MlmLearner {
    fn park_arena(&mut self) {
        self.graph.park();
    }
}

impl std::fmt::Debug for MlmLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlmLearner")
            .field("hyper", &self.hyper)
            .finish_non_exhaustive()
    }
}

impl MlmLearner {
    /// Builds a BERT MLM learner (use [`BertConfig::bert`] or
    /// [`BertConfig::bert_mini`] geometry via `config`).
    pub fn new(config: &BertConfig, vocab: Vocab, hyper: TrainHyper, seed: u64) -> Self {
        MlmLearner {
            model: BertModel::new(config, seed),
            vocab,
            masker: MlmMasker::default(),
            hyper,
            optimizer: Adam::with_lr(hyper.lr),
            // Standard transformer warmup: ramp the rate over the first
            // optimizer steps so the 12-layer stack does not destabilize.
            schedule: LrSchedule::LinearWarmup { warmup_steps: 64 },
            graph: Graph::new(),
            step_counter: 0,
            epoch_counter: 0,
            seed,
        }
    }

    /// Overrides the learning-rate schedule (default: 64-step linear
    /// warmup).
    pub fn set_schedule(&mut self, schedule: LrSchedule) {
        self.schedule = schedule;
    }

    /// Current weights in federated wire form.
    pub fn export_weights(&self) -> Weights {
        params_to_weights(self.model.params())
    }

    /// Loads global weights.
    pub fn load_weights(&mut self, weights: &Weights) {
        weights_to_params(weights, self.model.params_mut());
    }

    /// The underlying model (e.g. to transfer the pretrained backbone into
    /// a fine-tuning learner).
    pub fn model(&self) -> &BertModel {
        &self.model
    }

    fn masked_batch(
        &self,
        seqs: &[Encoded],
        idx: &[usize],
        seed: u64,
    ) -> (Vec<u32>, Vec<u8>, Vec<i32>) {
        let seq_len = seqs[idx[0]].ids.len();
        let mut ids = Vec::with_capacity(idx.len() * seq_len);
        let mut mask = Vec::with_capacity(idx.len() * seq_len);
        let mut labels = Vec::with_capacity(idx.len() * seq_len);
        for (k, &i) in idx.iter().enumerate() {
            let m = self
                .masker
                .mask(&seqs[i].ids, &self.vocab, seed.wrapping_add(k as u64));
            ids.extend_from_slice(&m.input_ids);
            mask.extend_from_slice(&seqs[i].attention_mask);
            labels.extend_from_slice(&m.labels);
        }
        (ids, mask, labels)
    }

    /// One epoch of MLM training with fresh dynamic masking; returns loss
    /// statistics.
    pub fn train_epoch(&mut self, seqs: &[Encoded]) -> EpochStats {
        let start = std::time::Instant::now();
        self.epoch_counter += 1;
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        // Deterministic shuffle differing per epoch.
        let mut state = self.seed ^ self.epoch_counter.wrapping_mul(0x9E3779B97F4A7C15);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(self.hyper.batch_size) {
            let _step_span = clinfl_obs::span("train_step");
            let mask_seed = state.wrapping_add(batches as u64 * 7919);
            let (ids, mask, labels) = self.masked_batch(seqs, chunk, mask_seed);
            let seq_len = ids.len() / chunk.len();
            let batch = TokenBatch {
                ids: &ids,
                mask: &mask,
                batch_size: chunk.len(),
                seq_len,
            };
            self.graph.reset_with_seed(mask_seed);
            self.graph.set_training(true);
            let g = &mut self.graph;
            let loss = self.model.mlm_loss(g, &batch, &labels);
            total += g.value(loss).item() as f64;
            g.backward(loss);
            self.graph.grads_into(self.model.params_mut());
            if self.hyper.clip_norm > 0.0 {
                GradClip {
                    max_norm: self.hyper.clip_norm,
                }
                .apply(self.model.params_mut());
            }
            self.step_counter += 1;
            self.optimizer
                .set_learning_rate(self.schedule.lr_at(self.hyper.lr, self.step_counter));
            self.optimizer.step(self.model.params_mut());
            batches += 1;
        }
        EpochStats {
            mean_loss: if batches == 0 {
                0.0
            } else {
                total / batches as f64
            },
            batches,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Mean MLM loss on held-out sequences (fixed masking seed, evaluation
    /// mode) — the quantity plotted in the paper's Fig. 2.
    pub fn eval_loss(&mut self, seqs: &[Encoded]) -> f64 {
        if seqs.is_empty() {
            return 0.0;
        }
        let (total, _) = self.sum_batch_losses(seqs, Shard::WHOLE);
        total / seqs.len().div_ceil(self.hyper.batch_size) as f64
    }

    /// A validate task on held-out sequences that `shard.of` validators
    /// share: loads `global` and sums the losses of the eval batches of
    /// [`Self::eval_loss`] that `shard` owns. Answers `of · sum / (all
    /// batches)`, so the mean of the roster's answers is
    /// `eval_loss(seqs)`. A shard with no batches answers 0 and loads
    /// nothing.
    pub fn validate_shard(&mut self, global: &Weights, seqs: &[Encoded], shard: Shard) -> f64 {
        let n_batches = seqs.len().div_ceil(self.hyper.batch_size);
        if shard.index >= n_batches {
            return 0.0;
        }
        self.load_weights(global);
        let (total, rows) = self.sum_batch_losses(seqs, shard);
        clinfl_obs::add_counter("core.executor.validate_rows", rows as u64);
        shard.of as f64 * total / n_batches as f64
    }

    /// Summed loss over `shard`'s eval batches of `seqs`, and the rows
    /// they hold.
    fn sum_batch_losses(&mut self, seqs: &[Encoded], shard: Shard) -> (f64, usize) {
        let idx: Vec<usize> = (0..seqs.len()).collect();
        let mut total = 0.0f64;
        let mut rows = 0usize;
        for chunk in shard.select(idx.chunks(self.hyper.batch_size)) {
            const EVAL_MASK_SEED: u64 = 0xE7A1_5EED;
            let (ids, mask, labels) = self.masked_batch(seqs, chunk, EVAL_MASK_SEED);
            let seq_len = ids.len() / chunk.len();
            let batch = TokenBatch {
                ids: &ids,
                mask: &mask,
                batch_size: chunk.len(),
                seq_len,
            };
            self.graph.reset();
            self.graph.set_training(false);
            let g = &mut self.graph;
            let loss = self.model.mlm_loss(g, &batch, &labels);
            total += g.value(loss).item() as f64;
            rows += chunk.len();
        }
        (total, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_data::{generate_cohort, CodeSystem, CohortSpec};
    use clinfl_text::ClinicalTokenizer;

    fn small_data() -> (CodeSystem, ClassifyDataset) {
        let cs = CodeSystem::new();
        let cohort = generate_cohort(&cs, &CohortSpec::small(160, 3));
        let tok = ClinicalTokenizer::new(cs.vocab().clone(), 36);
        (cs, ClassifyDataset::from_cohort(&cohort, &tok))
    }

    #[test]
    fn lstm_learner_trains_and_improves_loss() {
        let (cs, data) = small_data();
        let mut hyper = TrainHyper::for_model(ModelSpec::Lstm);
        hyper.batch_size = 16;
        let mut learner = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 1);
        let first = learner.train_epoch(&data);
        let mut last = first;
        for _ in 0..4 {
            last = learner.train_epoch(&data);
        }
        assert!(first.batches == 10);
        assert!(
            last.mean_loss < first.mean_loss,
            "loss should fall: {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
        let acc = learner.evaluate(&data);
        assert!(acc > 0.5, "training-set accuracy {acc}");
    }

    #[test]
    fn weights_roundtrip_through_wire_form() {
        let (cs, _) = small_data();
        let hyper = TrainHyper::for_model(ModelSpec::Lstm);
        let learner = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 5);
        let w = learner.export_weights();
        let mut other = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 99);
        assert_ne!(other.export_weights(), w, "different seeds differ");
        other.load_weights(&w);
        assert_eq!(other.export_weights(), w);
    }

    #[test]
    fn fedprox_keeps_weights_near_anchor() {
        let (cs, data) = small_data();
        let mut hyper = TrainHyper::for_model(ModelSpec::Lstm);
        hyper.batch_size = 16;
        // Plain local training vs heavily-proximal training from the same
        // start: the proximal run must stay closer to the anchor.
        let drift = |mu: Option<f32>| -> f32 {
            let mut l = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 11);
            if let Some(mu) = mu {
                l.set_prox(mu);
            }
            let anchor = l.export_weights();
            l.load_weights(&anchor);
            l.train_epoch(&data);
            let after = l.export_weights();
            anchor
                .iter()
                .map(|(name, t)| {
                    t.data
                        .iter()
                        .zip(&after[name].data)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                })
                .sum::<f32>()
                .sqrt()
        };
        let free = drift(None);
        let proximal = drift(Some(10.0));
        assert!(
            proximal < free,
            "prox drift {proximal} should be below free drift {free}"
        );
    }

    #[test]
    fn park_guard_returns_the_arena_when_the_task_unwinds() {
        /// Counts the parks it forwards to the learner.
        struct Counted<'a> {
            learner: &'a mut Learner,
            parks: u32,
        }
        impl ParkArena for Counted<'_> {
            fn park_arena(&mut self) {
                self.parks += 1;
                self.learner.park_arena();
            }
        }
        let (cs, data) = small_data();
        let hyper = TrainHyper::for_model(ModelSpec::Lstm);
        let mut learner = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 3);
        let mut counted = Counted {
            learner: &mut learner,
            parks: 0,
        };
        let task = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut site = ParkOnDrop(&mut counted);
            site.learner.train_epoch(&data);
            panic!("site fails mid-task");
        }));
        assert!(task.is_err());
        assert_eq!(counted.parks, 1, "the arena left with the guard");
        // The learner itself is intact and takes an arena back on demand.
        assert!(learner.evaluate(&data) > 0.0);
    }

    #[test]
    fn evaluate_on_empty_dataset_is_zero() {
        let (cs, _) = small_data();
        let hyper = TrainHyper::for_model(ModelSpec::Lstm);
        let mut learner = Learner::new(ModelSpec::Lstm, cs.vocab().len(), 36, hyper, 1);
        let empty = ClassifyDataset::from_examples(vec![], 36);
        assert_eq!(learner.evaluate(&empty), 0.0);
    }
}
