//! The common interface federated executors train against.

use clinfl_tensor::{Graph, Params, Var};

/// A borrowed mini-batch of token sequences in flat row-major layout.
///
/// This is the model-side view of `clinfl_data::Batch`; keeping it borrowed
/// lets executors batch without copying.
#[derive(Clone, Copy, Debug)]
pub struct TokenBatch<'a> {
    /// Token ids, `batch_size * seq_len` entries.
    pub ids: &'a [u32],
    /// Attention mask aligned with `ids` (1 = real token, 0 = padding).
    pub mask: &'a [u8],
    /// Number of sequences.
    pub batch_size: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
}

impl TokenBatch<'_> {
    /// Validates the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if `ids`/`mask` lengths disagree with
    /// `batch_size * seq_len`.
    pub fn validate(&self) {
        assert_eq!(
            self.ids.len(),
            self.batch_size * self.seq_len,
            "ids length mismatch"
        );
        assert_eq!(
            self.mask.len(),
            self.batch_size * self.seq_len,
            "mask length mismatch"
        );
    }
}

/// Which of the paper's three models a component refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// BERT (hidden 128, 6 heads, 12 layers).
    Bert,
    /// BERT-mini (hidden 50, 2 heads, 6 layers).
    BertMini,
    /// LSTM (hidden 128, 3 layers).
    Lstm,
}

impl ModelKind {
    /// All three paper models, in Table II column order.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::Bert, ModelKind::BertMini, ModelKind::Lstm]
    }

    /// Display name matching the paper's tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Bert => "BERT",
            ModelKind::BertMini => "BERT-mini",
            ModelKind::Lstm => "LSTM",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A trainable sequence classifier: the contract between models and the
/// training/federated layers.
///
/// Implementations own a [`Params`] store; the FL runtime exchanges weights
/// through it, optimizers update it, and `classification_loss` builds the
/// per-batch autograd graph.
pub trait SequenceClassifier {
    /// The parameter store (for weight exchange and optimizers).
    fn params(&self) -> &Params;

    /// Mutable parameter store.
    fn params_mut(&mut self) -> &mut Params;

    /// Builds the forward graph for a labelled batch and returns the scalar
    /// cross-entropy loss variable. `labels` has one entry per sequence.
    fn classification_loss(&self, g: &mut Graph, batch: &TokenBatch<'_>, labels: &[i32]) -> Var;

    /// Predicted class per sequence (evaluation mode, no dropout), built on
    /// a caller-provided graph so training loops can reuse one tape (and its
    /// buffer pool) across steps.
    ///
    /// Implementations reset `g` and switch it to evaluation mode
    /// themselves; the caller is responsible for restoring training mode
    /// (and the dropout seed) afterwards.
    fn predict_with(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Vec<usize>;

    /// Class-probability rows per sequence (softmax over logits, evaluation
    /// mode) on a caller-provided graph; see [`Self::predict_with`] for the
    /// reset contract. Row order matches the batch; each row sums to 1.
    fn predict_proba_with(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Vec<Vec<f32>>;

    /// Predicted class per sequence (evaluation mode, no dropout).
    fn predict(&self, batch: &TokenBatch<'_>) -> Vec<usize> {
        let mut g = Graph::new();
        self.predict_with(&mut g, batch)
    }

    /// Class-probability rows per sequence (softmax over logits,
    /// evaluation mode). Row order matches the batch; each row sums to 1.
    fn predict_proba(&self, batch: &TokenBatch<'_>) -> Vec<Vec<f32>> {
        let mut g = Graph::new();
        self.predict_proba_with(&mut g, batch)
    }

    /// Top-1 accuracy on a labelled batch.
    fn accuracy(&self, batch: &TokenBatch<'_>, labels: &[i32]) -> f64 {
        let preds = self.predict(batch);
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|(p, l)| **p as i32 == **l)
            .count();
        correct as f64 / labels.len().max(1) as f64
    }
}
