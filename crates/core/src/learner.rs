//! Local training engines around the paper's models: one [`SiteLearner`]
//! that runs either [`Head`], ADR classification or MLM pretraining.

use crate::config::{ModelSpec, TrainHyper};
use crate::weights::{params_to_weights, weights_to_params};
use clinfl_data::{Batch, ClassifyDataset};
use clinfl_flare::executor::Shard;
use clinfl_flare::Weights;
use clinfl_models::{
    BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch,
};
use clinfl_tensor::{Adam, GradClip, Graph, LrSchedule, Optimizer, Params, Var};
use clinfl_text::{Encoded, MlmMasker, Vocab};
use std::collections::BTreeMap;

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

/// Training batches, each with the seed its step's graph is reset with.
pub type Steps<'a> = Box<dyn Iterator<Item = (Batch, u64)> + 'a>;

/// Evaluation batches.
pub type Batches<'a> = Box<dyn Iterator<Item = Batch> + 'a>;

/// What one learning task adds to the [`SiteLearner`] both tasks share:
/// its model, its batches, its loss and score, whether its federated train
/// task probes validation, and what that task logs and reports. Weight
/// exchange, the epoch loop (graph reset, forward, backward, clip, Adam
/// step), FedProx, sharded validation and the sharded probe are the
/// learner's.
pub trait Head: Send + 'static {
    /// The network the head trains.
    type Model: SequenceClassifier + Send + ?Sized;
    /// One site's data: labelled rows, or a corpus of sequences.
    type Data: ?Sized + ToOwned<Owned: Send>;
    /// Whether each federated train task starts from fresh Adam moments.
    /// A clinical site resets them, so its round depends only on the
    /// global weights, its shard and its epoch count, not on moments
    /// gathered on weights the server has since replaced. An MLM site
    /// keeps its moments and its warm-up step across rounds, so the
    /// warm-up ramps once per run; resetting them would move Fig. 2.
    const FRESH_OPTIMIZER_EACH_ROUND: bool;
    /// Whether the score is a mean over eval batches (a loss) rather than
    /// over rows (an accuracy).
    const MEAN_PER_BATCH: bool;
    /// Whether a federated train task scores, after every local epoch,
    /// its shard of the validation split every site shares
    /// ([`SiteLearner::probe_shard`]) for its log line and metrics.
    const PROBES: bool;

    /// Rows (examples or sequences) in `data`.
    fn len(data: &Self::Data) -> usize;
    /// Training epoch `epoch`'s batches of `data`, `bs` rows each, for a
    /// learner seeded with `seed`.
    fn epoch<'a>(&'a self, data: &'a Self::Data, bs: usize, seed: u64, epoch: u64) -> Steps<'a>;
    /// One training batch's loss.
    fn loss(model: &Self::Model, g: &mut Graph, batch: &Batch) -> Var;
    /// `shard`'s eval batches of `data`, `bs` rows each.
    fn eval_batches<'a>(&'a self, data: &'a Self::Data, bs: usize, shard: Shard) -> Batches<'a>;
    /// One eval batch's summed score (correct predictions, or its loss),
    /// in evaluation mode.
    fn eval_score(model: &Self::Model, g: &mut Graph, batch: &Batch) -> f64;
    /// A train task's log line after local epoch `epoch` of `epochs`, with
    /// the epoch's probe score (`None`: no probe, or an empty shard).
    fn epoch_line(
        site: &str,
        epoch: u32,
        epochs: u32,
        lr: f32,
        stats: &EpochStats,
        probe: Option<f64>,
    ) -> String;
    /// A train task's DXO metrics: its last epoch's loss and probe score
    /// (`None`: no probe, or an empty shard).
    fn metrics(loss: f64, probe: Option<f64>) -> BTreeMap<String, f64>;
}

/// A site's learner: a [`Head`]'s model plus an Adam optimizer and
/// hyper-parameters, trainable locally and exchangeable with the
/// federated runtime via [`Weights`].
pub struct SiteLearner<H: Head> {
    head: H,
    model: Box<H::Model>,
    hyper: TrainHyper,
    optimizer: Adam,
    schedule: LrSchedule,
    /// Reused autograd tape: reset (not reallocated) per step so buffers
    /// recycle across iterations, until [`ParkArena::park_arena`] hands them on.
    graph: Graph,
    step_counter: u64,
    epoch_counter: u64,
    seed: u64,
    /// FedProx proximal coefficient μ and the reference (global) weights:
    /// when set, every step adds `μ (w - w_global)` to the gradients,
    /// penalizing local drift (Li et al., *Federated Optimization in
    /// Heterogeneous Networks*). Extension beyond the paper.
    prox: Option<(f32, Weights)>,
}

/// The ADR classification learner: one of the paper's three models.
pub type Learner = SiteLearner<ClassifyHead>;

/// The MLM pretraining learner around [`BertModel`] (the paper's §III-B
/// pretraining stage, Fig. 2).
pub type MlmLearner = SiteLearner<MlmHead>;

impl<H: Head> ParkArena for SiteLearner<H> {
    fn park_arena(&mut self) {
        self.graph.park();
    }
}

impl<H: Head> std::fmt::Debug for SiteLearner<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(std::any::type_name::<Self>())
            .field("hyper", &self.hyper)
            .finish_non_exhaustive()
    }
}

impl<H: Head> SiteLearner<H> {
    fn build(
        head: H,
        model: Box<H::Model>,
        hyper: TrainHyper,
        schedule: LrSchedule,
        seed: u64,
    ) -> Self {
        SiteLearner {
            head,
            model,
            hyper,
            optimizer: Adam::with_lr(hyper.lr),
            schedule,
            graph: Graph::new(),
            step_counter: 0,
            epoch_counter: 0,
            seed,
            prox: None,
        }
    }

    /// Enables FedProx local training: gradients gain `mu (w - w_global)`
    /// where `w_global` is the weight set from the most recent
    /// [`Self::load_weights`] call after this one. `mu = 0` disables it.
    pub fn set_prox(&mut self, mu: f32) {
        let anchor = self.export_weights();
        self.prox = Some((mu, anchor));
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
    pub fn train_epoch(&mut self, data: &H::Data) -> EpochStats {
        let start = std::time::Instant::now();
        self.epoch_counter += 1;
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let (bs, epoch) = (self.hyper.batch_size, self.epoch_counter);
        for (batch, graph_seed) in self.head.epoch(data, bs, self.seed, epoch) {
            let _step_span = clinfl_obs::span("train_step");
            self.graph.reset_with_seed(graph_seed);
            self.graph.set_training(true);
            let g = &mut self.graph;
            let loss = H::loss(&self.model, g, &batch);
            total += g.value(loss).item() as f64;
            g.backward(loss);
            let params = self.model.params_mut();
            self.graph.grads_into(params);
            if let Some((mu, anchor)) = &self.prox {
                apply_prox_gradient(*mu, anchor, params);
            }
            if self.hyper.clip_norm > 0.0 {
                GradClip {
                    max_norm: self.hyper.clip_norm,
                }
                .apply(params);
            }
            self.step_counter += 1;
            let lr = self.schedule.lr_at(self.hyper.lr, self.step_counter);
            self.optimizer.set_learning_rate(lr);
            self.optimizer.step(params);
            batches += 1;
        }
        EpochStats {
            mean_loss: total / batches.max(1) as f64,
            batches,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// The head's score on all of `data` (evaluation mode): top-1
    /// accuracy, or the mean MLM loss. Empty `data` scores 0.
    pub fn evaluate(&mut self, data: &H::Data) -> f64 {
        if H::len(data) == 0 {
            return 0.0;
        }
        let (sum, rows, batches) = self.score(data, Shard::WHOLE);
        sum / Self::denominator(rows, batches) as f64
    }

    /// A validate task on a split that `shard.of` validators share: loads
    /// `global` and scores the eval batches of [`Self::evaluate`] that
    /// `shard` owns. Answers `of · (its part of the score's sum) / (the
    /// full split's denominator)`, so the mean of the roster's answers is
    /// `evaluate(data)`. A shard with no batches answers 0 and loads
    /// nothing.
    pub fn validate_shard(&mut self, global: &Weights, data: &H::Data, shard: Shard) -> f64 {
        let (len, batches) = (H::len(data), H::len(data).div_ceil(self.hyper.batch_size));
        if shard.index >= batches {
            return 0.0;
        }
        self.load_weights(global);
        let (sum, rows, _) = self.score(data, shard);
        clinfl_obs::add_counter("core.executor.validate_rows", rows as u64);
        shard.of as f64 * sum / Self::denominator(len, batches) as f64
    }

    /// A train task's per-epoch probe under the weights it has trained:
    /// the head's score on the eval batches of `data` that `shard` owns,
    /// as that shard's own mean (correct predictions over the rows it
    /// scored, or loss over its batches), not scaled to the roster as
    /// [`Self::validate_shard`] is. `None` when the shard owns no batch.
    pub fn probe_shard(&mut self, data: &H::Data, shard: Shard) -> Option<f64> {
        let (sum, rows, batches) = self.score(data, shard);
        if batches == 0 {
            return None;
        }
        clinfl_obs::add_counter("core.executor.probe_rows", rows as u64);
        Some(sum / Self::denominator(rows, batches) as f64)
    }

    /// `shard`'s summed score on `data` under the loaded weights, with the
    /// rows and eval batches it scored.
    fn score(&mut self, data: &H::Data, shard: Shard) -> (f64, usize, usize) {
        let (mut sum, mut rows, mut batches) = (0.0f64, 0usize, 0usize);
        for batch in self.head.eval_batches(data, self.hyper.batch_size, shard) {
            sum += H::eval_score(&self.model, &mut self.graph, &batch);
            rows += batch.batch_size;
            batches += 1;
        }
        (sum, rows, batches)
    }

    /// What the head's summed score is divided by over `rows` rows in
    /// `batches` eval batches.
    fn denominator(rows: usize, batches: usize) -> usize {
        if H::MEAN_PER_BATCH {
            batches
        } else {
            rows
        }
    }
}

/// Adds the FedProx gradient `μ (w - w_anchor)` directly into the
/// parameter gradients (equivalent to the μ/2‖w−w₀‖² loss term, without
/// paying for it on the autograd tape).
fn apply_prox_gradient(mu: f32, anchor: &Weights, params: &mut Params) {
    if mu == 0.0 {
        return;
    }
    for (name, w, g) in params.iter_grads_mut() {
        let Some(a) = anchor.get(name) else { continue };
        for ((gv, &wv), &av) in g.data_mut().iter_mut().zip(w.data()).zip(&a.data) {
            *gv += mu * (wv - av);
        }
    }
}

/// The ADR classification head: one of the paper's three models (Table
/// II) at a constant rate, scored by top-1 accuracy.
#[derive(Debug)]
pub struct ClassifyHead;

impl Head for ClassifyHead {
    type Model = dyn SequenceClassifier + Send;
    type Data = ClassifyDataset;
    const FRESH_OPTIMIZER_EACH_ROUND: bool = true;
    const MEAN_PER_BATCH: bool = false;
    const PROBES: bool = true;

    fn len(data: &ClassifyDataset) -> usize {
        data.len()
    }

    fn epoch<'a>(&self, data: &'a ClassifyDataset, bs: usize, seed: u64, epoch: u64) -> Steps<'a> {
        let shuffle_seed = seed.wrapping_mul(0x100000001b3).wrapping_add(epoch);
        let batches = data.batches(bs, shuffle_seed).enumerate();
        Box::new(batches.map(move |(j, batch)| (batch, shuffle_seed ^ j as u64)))
    }

    fn loss(model: &Self::Model, g: &mut Graph, batch: &Batch) -> Var {
        model.classification_loss(g, &token_batch(batch), &batch.labels)
    }

    fn eval_batches<'a>(&self, data: &'a ClassifyDataset, bs: usize, shard: Shard) -> Batches<'a> {
        Box::new(shard.select(data.batches(bs, 0)))
    }

    fn eval_score(model: &Self::Model, g: &mut Graph, batch: &Batch) -> f64 {
        let preds = model.predict_with(g, &token_batch(batch));
        let correct = preds.iter().zip(&batch.labels);
        correct.filter(|(p, l)| **p as i32 == **l).count() as f64
    }

    fn epoch_line(
        site: &str,
        epoch: u32,
        epochs: u32,
        lr: f32,
        stats: &EpochStats,
        probe: Option<f64>,
    ) -> String {
        format!(
            "Local epoch {site}: {epoch}/{epochs} (lr={lr}), train_loss={loss:.3}, valid_acc={acc} [{secs:.1} sec/local epoch]",
            loss = stats.mean_loss,
            acc = probe.map_or("n/a".into(), |acc| format!("{acc:.3}")),
            secs = stats.seconds,
        )
    }

    fn metrics(loss: f64, probe: Option<f64>) -> BTreeMap<String, f64> {
        let mut metrics = BTreeMap::from([("train_loss".into(), loss)]);
        if let Some(acc) = probe {
            metrics.insert("valid_acc".into(), acc);
        }
        metrics
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
        SiteLearner::build(ClassifyHead, model, hyper, LrSchedule::Constant, seed)
    }
}

/// The MLM pretraining head: BERT under fresh dynamic masking every
/// epoch, scored by the mean MLM loss under a fixed masking.
#[derive(Debug)]
pub struct MlmHead {
    vocab: Vocab,
    masker: MlmMasker,
}

impl MlmHead {
    /// Batch `j` of `bs` sequences of `seqs` taken in `order`, masked
    /// under `seed`.
    fn masked(&self, seqs: &[Encoded], order: &[usize], bs: usize, j: usize, seed: u64) -> Batch {
        let idx = &order[j * bs..order.len().min(j * bs + bs)];
        let n = idx.len() * seqs[idx[0]].ids.len();
        let mut ids = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for (k, &i) in idx.iter().enumerate() {
            let m = self
                .masker
                .mask(&seqs[i].ids, &self.vocab, seed.wrapping_add(k as u64));
            ids.extend_from_slice(&m.input_ids);
            mask.extend_from_slice(&seqs[i].attention_mask);
            labels.extend_from_slice(&m.labels);
        }
        let (batch_size, seq_len) = (idx.len(), ids.len() / idx.len());
        Batch {
            ids,
            mask,
            labels,
            batch_size,
            seq_len,
        }
    }
}

impl Head for MlmHead {
    type Model = BertModel;
    type Data = [Encoded];
    const FRESH_OPTIMIZER_EACH_ROUND: bool = false;
    const MEAN_PER_BATCH: bool = true;
    const PROBES: bool = false;

    fn len(seqs: &[Encoded]) -> usize {
        seqs.len()
    }

    fn epoch<'a>(&'a self, seqs: &'a [Encoded], bs: usize, seed: u64, epoch: u64) -> Steps<'a> {
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        // Deterministic shuffle differing per epoch.
        let mut state = seed ^ epoch.wrapping_mul(0x9E3779B97F4A7C15);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let steps = 0..order.len().div_ceil(bs);
        Box::new(steps.map(move |j| {
            let mask_seed = state.wrapping_add(j as u64 * 7919);
            (self.masked(seqs, &order, bs, j, mask_seed), mask_seed)
        }))
    }

    fn loss(model: &BertModel, g: &mut Graph, batch: &Batch) -> Var {
        model.mlm_loss(g, &token_batch(batch), &batch.labels)
    }

    fn eval_batches<'a>(&'a self, seqs: &'a [Encoded], bs: usize, shard: Shard) -> Batches<'a> {
        const EVAL_MASK_SEED: u64 = 0xE7A1_5EED;
        let order: Vec<usize> = (0..seqs.len()).collect();
        let steps = shard.select(0..order.len().div_ceil(bs));
        Box::new(steps.map(move |j| self.masked(seqs, &order, bs, j, EVAL_MASK_SEED)))
    }

    fn eval_score(model: &BertModel, g: &mut Graph, batch: &Batch) -> f64 {
        g.reset();
        g.set_training(false);
        let loss = model.mlm_loss(g, &token_batch(batch), &batch.labels);
        g.value(loss).item() as f64
    }

    fn epoch_line(
        site: &str,
        epoch: u32,
        epochs: u32,
        _lr: f32,
        stats: &EpochStats,
        _probe: Option<f64>,
    ) -> String {
        format!(
            "MLM epoch {site}: {epoch}/{epochs}, mlm_loss={loss:.3} [{secs:.1} sec]",
            loss = stats.mean_loss,
            secs = stats.seconds,
        )
    }

    fn metrics(loss: f64, _probe: Option<f64>) -> BTreeMap<String, f64> {
        BTreeMap::from([("mlm_loss".into(), loss)])
    }
}

impl MlmLearner {
    /// Builds a BERT MLM learner (use [`BertConfig::bert`] or
    /// [`BertConfig::bert_mini`] geometry via `config`).
    pub fn new(config: &BertConfig, vocab: Vocab, hyper: TrainHyper, seed: u64) -> Self {
        let head = MlmHead {
            vocab,
            masker: MlmMasker::default(),
        };
        // Standard transformer warmup: ramp the rate over the first
        // optimizer steps so the 12-layer stack does not destabilize.
        let schedule = LrSchedule::LinearWarmup { warmup_steps: 64 };
        let model = Box::new(BertModel::new(config, seed));
        SiteLearner::build(head, model, hyper, schedule, seed)
    }

    /// Overrides the learning-rate schedule (default: 64-step linear
    /// warmup).
    pub fn set_schedule(&mut self, schedule: LrSchedule) {
        self.schedule = schedule;
    }

    /// Mean MLM loss on held-out sequences (fixed masking seed, evaluation
    /// mode) — the quantity plotted in the paper's Fig. 2.
    pub fn eval_loss(&mut self, seqs: &[Encoded]) -> f64 {
        self.evaluate(seqs)
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
