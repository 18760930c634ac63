//! Tokenized classification datasets and mini-batching.

use crate::cohort::Cohort;
use clinfl_text::{ClinicalTokenizer, Encoded};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One tokenized, labelled example.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Example {
    /// Tokenized event sequence.
    pub encoded: Encoded,
    /// Class label (0 = no ADR, 1 = treatment failure).
    pub label: u8,
}

/// A mini-batch in the flat layout the models consume.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// Token ids, `batch_size * seq_len`, row-major.
    pub ids: Vec<u32>,
    /// Attention mask aligned with `ids` (1 = real token).
    pub mask: Vec<u8>,
    /// One label per sequence.
    pub labels: Vec<i32>,
    /// Number of sequences in this batch.
    pub batch_size: usize,
    /// Sequence length.
    pub seq_len: usize,
}

/// A tokenized binary-classification dataset (the ADR fine-tuning task).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifyDataset {
    examples: Vec<Example>,
    seq_len: usize,
}

impl ClassifyDataset {
    /// Tokenizes a cohort.
    pub fn from_cohort(cohort: &Cohort, tokenizer: &ClinicalTokenizer) -> Self {
        let examples = cohort
            .patients
            .iter()
            .map(|p| Example {
                encoded: tokenizer.encode(&p.events),
                label: p.adr as u8,
            })
            .collect();
        ClassifyDataset {
            examples,
            seq_len: tokenizer.max_len(),
        }
    }

    /// Builds a dataset directly from examples (used by partitioners).
    ///
    /// # Panics
    ///
    /// Panics if examples disagree on sequence length.
    pub fn from_examples(examples: Vec<Example>, seq_len: usize) -> Self {
        assert!(
            examples.iter().all(|e| e.encoded.ids.len() == seq_len),
            "examples must share seq_len {seq_len}"
        );
        ClassifyDataset { examples, seq_len }
    }

    /// The examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Tokenized sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.examples.is_empty() {
            return 0.0;
        }
        self.examples.iter().filter(|e| e.label == 1).count() as f64 / self.examples.len() as f64
    }

    /// Splits into `(train, valid)` with `train_frac` of examples in train,
    /// after a deterministic shuffle.
    ///
    /// With the paper's cohort size (8,638) and `train_frac = 0.802`, this
    /// yields the paper's 6,927 / 1,732 split (8,638 × 0.802 ≈ 6,927,
    /// remainder 1,711≈1,732 — see EXPERIMENTS.md for the exact counts).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < train_frac < 1.0`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (ClassifyDataset, ClassifyDataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac must be in (0,1), got {train_frac}"
        );
        let mut idx: Vec<usize> = (0..self.examples.len()).collect();
        shuffle(&mut idx, seed);
        let n_train = ((self.examples.len() as f64) * train_frac).round() as usize;
        let (a, b) = idx.split_at(n_train.min(self.examples.len()));
        let take = |ids: &[usize]| {
            ClassifyDataset::from_examples(
                ids.iter().map(|&i| self.examples[i].clone()).collect(),
                self.seq_len,
            )
        };
        (take(a), take(b))
    }

    /// Iterates over shuffled mini-batches (last partial batch included).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn batches(&self, batch_size: usize, seed: u64) -> BatchIter<'_> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<usize> = (0..self.examples.len()).collect();
        shuffle(&mut order, seed);
        BatchIter {
            dataset: self,
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Concatenates datasets (e.g. to reassemble a centralized dataset from
    /// site shards).
    ///
    /// # Panics
    ///
    /// Panics if sequence lengths differ.
    pub fn concat(parts: &[ClassifyDataset]) -> ClassifyDataset {
        let seq_len = parts.first().map(|d| d.seq_len).unwrap_or(0);
        let examples = parts
            .iter()
            .inspect(|d| assert_eq!(d.seq_len, seq_len, "seq_len mismatch in concat"))
            .flat_map(|d| d.examples.iter().cloned())
            .collect();
        ClassifyDataset { examples, seq_len }
    }
}

/// Fisher–Yates shuffle deterministic in `seed`.
fn shuffle(idx: &mut [usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..idx.len()).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
}

/// Iterator over mini-batches of a [`ClassifyDataset`].
#[derive(Debug)]
pub struct BatchIter<'a> {
    dataset: &'a ClassifyDataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let slice = &self.order[self.cursor..end];
        self.cursor = end;
        let s = self.dataset.seq_len;
        let mut ids = Vec::with_capacity(slice.len() * s);
        let mut mask = Vec::with_capacity(slice.len() * s);
        let mut labels = Vec::with_capacity(slice.len());
        for &i in slice {
            let ex = &self.dataset.examples[i];
            ids.extend_from_slice(&ex.encoded.ids);
            mask.extend_from_slice(&ex.encoded.attention_mask);
            labels.push(ex.label as i32);
        }
        Some(Batch {
            ids,
            mask,
            labels,
            batch_size: slice.len(),
            seq_len: s,
        })
    }

    /// Skips `n` batches by moving the cursor, without assembling them
    /// (a validation shard's `skip`/`step_by` lands here).
    fn nth(&mut self, n: usize) -> Option<Batch> {
        let skipped = n.saturating_mul(self.batch_size);
        self.cursor = self.cursor.saturating_add(skipped).min(self.order.len());
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::CodeSystem;
    use crate::cohort::{generate_cohort, CohortSpec};

    fn dataset(n: usize) -> ClassifyDataset {
        let cs = CodeSystem::new();
        let cohort = generate_cohort(&cs, &CohortSpec::small(n, 3));
        let tok = ClinicalTokenizer::new(cs.vocab().clone(), 32);
        ClassifyDataset::from_cohort(&cohort, &tok)
    }

    #[test]
    fn from_cohort_tokenizes_all() {
        let d = dataset(100);
        assert_eq!(d.len(), 100);
        assert_eq!(d.seq_len(), 32);
        assert!(d.examples().iter().all(|e| e.encoded.ids.len() == 32));
    }

    #[test]
    fn split_partitions_exactly() {
        let d = dataset(100);
        let (tr, va) = d.split(0.8, 1);
        assert_eq!(tr.len(), 80);
        assert_eq!(va.len(), 20);
        assert_eq!(tr.len() + va.len(), d.len());
    }

    #[test]
    fn split_deterministic_and_disjoint() {
        let d = dataset(50);
        let (a1, b1) = d.split(0.5, 9);
        let (a2, _) = d.split(0.5, 9);
        assert_eq!(a1, a2);
        // Disjointness via multiset size: concatenation is a permutation of
        // the original examples.
        let joined = ClassifyDataset::concat(&[a1.clone(), b1.clone()]);
        assert_eq!(joined.len(), d.len());
    }

    #[test]
    fn batches_cover_every_example_once() {
        let d = dataset(53);
        let mut seen = 0usize;
        for b in d.batches(16, 4) {
            assert!(b.batch_size <= 16);
            assert_eq!(b.ids.len(), b.batch_size * 32);
            assert_eq!(b.labels.len(), b.batch_size);
            seen += b.batch_size;
        }
        assert_eq!(seen, 53);
    }

    #[test]
    fn nth_returns_the_batch_next_would_reach() {
        let d = dataset(53);
        for k in 0..6 {
            let mut walked = d.batches(16, 4);
            let expected = (0..=k).map(|_| walked.next()).last().flatten();
            let mut skipped = d.batches(16, 4);
            assert_eq!(skipped.nth(k), expected, "nth({k})");
            assert_eq!(skipped.next(), walked.next(), "after nth({k})");
        }
    }

    #[test]
    fn batches_shuffled_by_seed() {
        let d = dataset(64);
        let first: Vec<i32> = d.batches(64, 1).next().unwrap().labels;
        let second: Vec<i32> = d.batches(64, 2).next().unwrap().labels;
        assert_ne!(first, second, "different seeds should shuffle differently");
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_panics() {
        dataset(4).batches(0, 0);
    }

    #[test]
    #[should_panic(expected = "train_frac")]
    fn bad_split_panics() {
        dataset(4).split(1.5, 0);
    }
}
