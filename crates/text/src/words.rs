//! Word-level tokenizer for free-text clinical notes.
//!
//! The paper frames its models as operating on "medical records, clinical
//! notes, and other text-based health information"; its dataset is code
//! sequences (handled by [`crate::ClinicalTokenizer`]), but a deployment
//! also meets narrative notes. This module provides the standard
//! frequency-thresholded word vocabulary and tokenizer for that case.

use crate::vocab::{SpecialToken, Vocab};
use std::collections::HashMap;

/// Builds a [`Vocab`] from raw text by frequency.
///
/// Words are lowercased and split on whitespace and punctuation (digits are
/// kept, so dosages like `75mg` survive as tokens). Words occurring fewer
/// than `min_count` times map to `[UNK]` at encode time.
#[derive(Clone, Debug)]
pub struct WordVocabBuilder {
    min_count: usize,
    counts: HashMap<String, usize>,
}

impl WordVocabBuilder {
    /// Creates a builder keeping words seen at least `min_count` times.
    ///
    /// # Panics
    ///
    /// Panics if `min_count` is zero.
    pub fn new(min_count: usize) -> Self {
        assert!(min_count > 0, "min_count must be at least 1");
        WordVocabBuilder {
            min_count,
            counts: HashMap::new(),
        }
    }

    /// Accumulates the words of one document.
    pub fn feed(&mut self, text: &str) -> &mut Self {
        for w in tokenize_words(text) {
            *self.counts.entry(w).or_insert(0) += 1;
        }
        self
    }

    /// Finalizes the vocabulary: words meeting the threshold, ordered by
    /// descending frequency (ties broken alphabetically for determinism).
    pub fn build(&self) -> Vocab {
        let mut kept: Vec<(&String, &usize)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= self.min_count)
            .collect();
        kept.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let mut vocab = Vocab::new();
        for (w, _) in kept {
            vocab.add(w);
        }
        vocab
    }
}

/// Splits text into lowercase word tokens (alphanumeric runs).
pub fn tokenize_words(text: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            words.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        words.push(current);
    }
    words
}

/// Tokenizer over a word vocabulary: note text → fixed-length id sequence
/// (`[CLS] words… [SEP] [PAD]…`), mirroring [`crate::ClinicalTokenizer`]'s
/// output contract so the same models consume either representation.
#[derive(Clone, Debug)]
pub struct NoteTokenizer {
    vocab: Vocab,
    max_len: usize,
}

impl NoteTokenizer {
    /// Creates a tokenizer producing sequences of exactly `max_len` ids.
    ///
    /// # Panics
    ///
    /// Panics if `max_len < 3`.
    pub fn new(vocab: Vocab, max_len: usize) -> Self {
        assert!(max_len >= 3, "max_len must be at least 3, got {max_len}");
        NoteTokenizer { vocab, max_len }
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Encodes a note, truncating to the **first** words (notes lead with
    /// the salient complaint, unlike code timelines which end with it).
    pub fn encode(&self, text: &str) -> crate::Encoded {
        let body = self.max_len - 2;
        let mut ids = Vec::with_capacity(self.max_len);
        ids.push(SpecialToken::Cls.id());
        for w in tokenize_words(text).into_iter().take(body) {
            ids.push(self.vocab.id_or_unk(&w));
        }
        ids.push(SpecialToken::Sep.id());
        let real = ids.len();
        ids.resize(self.max_len, SpecialToken::Pad.id());
        let mut attention_mask = vec![0u8; self.max_len];
        attention_mask[..real].fill(1);
        crate::Encoded {
            ids,
            attention_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_words_splits_and_lowercases() {
        assert_eq!(
            tokenize_words("Pt started Clopidogrel 75mg, stable."),
            vec!["pt", "started", "clopidogrel", "75mg", "stable"]
        );
        assert_eq!(tokenize_words("  "), Vec::<String>::new());
    }

    #[test]
    fn builder_thresholds_by_frequency() {
        let mut b = WordVocabBuilder::new(2);
        b.feed("chest pain chest pain dyspnea");
        let v = b.build();
        assert!(v.id("chest").is_some());
        assert!(v.id("pain").is_some());
        assert!(v.id("dyspnea").is_none(), "below min_count");
    }

    #[test]
    fn builder_orders_by_frequency_then_alpha() {
        let mut b = WordVocabBuilder::new(1);
        b.feed("beta alpha beta gamma alpha beta");
        let v = b.build();
        // beta (3) < alpha (2) < gamma (1), ids after the 5 specials.
        assert_eq!(v.id("beta"), Some(5));
        assert_eq!(v.id("alpha"), Some(6));
        assert_eq!(v.id("gamma"), Some(7));
    }

    #[test]
    fn note_tokenizer_encodes_with_unk_and_padding() {
        let mut b = WordVocabBuilder::new(1);
        b.feed("chest pain admitted");
        let tok = NoteTokenizer::new(b.build(), 8);
        let e = tok.encode("Chest pain, rule-out MI");
        assert_eq!(e.ids.len(), 8);
        assert_eq!(e.ids[0], SpecialToken::Cls.id());
        assert_eq!(e.ids[1], tok.vocab().id("chest").unwrap());
        // "rule", "out", "mi" are unknown.
        assert_eq!(e.ids[3], SpecialToken::Unk.id());
        assert!(e.attention_mask.iter().filter(|&&m| m == 1).count() >= 6);
    }

    #[test]
    fn note_truncation_keeps_leading_words() {
        let mut b = WordVocabBuilder::new(1);
        b.feed("a b c d e f");
        let tok = NoteTokenizer::new(b.build(), 5); // room for 3 words
        let e = tok.encode("a b c d e f");
        assert_eq!(e.ids[1], tok.vocab().id("a").unwrap());
        assert_eq!(e.ids[3], tok.vocab().id("c").unwrap());
        assert_eq!(e.ids[4], SpecialToken::Sep.id());
    }

    #[test]
    #[should_panic(expected = "min_count")]
    fn zero_min_count_panics() {
        WordVocabBuilder::new(0);
    }
}
