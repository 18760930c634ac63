//! Clinical-event tokenizer: code sequences → fixed-length id sequences.

use crate::vocab::{SpecialToken, Vocab};

/// A tokenized sequence: ids plus an attention mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Encoded {
    /// Token ids, exactly `max_len` long (`[CLS] events… [SEP] [PAD]…`).
    pub ids: Vec<u32>,
    /// 1 for real tokens (incl. `[CLS]`/`[SEP]`), 0 for padding.
    pub attention_mask: Vec<u8>,
}

impl Encoded {
    /// Number of non-padding positions.
    pub fn real_len(&self) -> usize {
        self.attention_mask.iter().filter(|&&m| m == 1).count()
    }
}

/// Tokenizer for clinical event sequences (prescription / diagnosis codes).
///
/// Unlike natural-language BERT, clinical-code models (paper ref. \[13\])
/// treat each event code as one token, so no sub-word segmentation is
/// needed. Sequences are wrapped as `[CLS] e1 e2 … [SEP]`, truncated to
/// keep the **most recent** events (the clinically informative ones for
/// outcome prediction), and padded to `max_len`.
#[derive(Clone, Debug)]
pub struct ClinicalTokenizer {
    vocab: Vocab,
    max_len: usize,
}

impl ClinicalTokenizer {
    /// Creates a tokenizer over `vocab` producing sequences of exactly
    /// `max_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `max_len < 3` (no room for `[CLS]`, one event, `[SEP]`).
    pub fn new(vocab: Vocab, max_len: usize) -> Self {
        assert!(max_len >= 3, "max_len must be at least 3, got {max_len}");
        ClinicalTokenizer { vocab, max_len }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The fixed output length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Encodes a sequence of event-code strings.
    ///
    /// Unknown codes map to `[UNK]`. If the sequence is longer than fits,
    /// the **earliest** events are dropped.
    pub fn encode<S: AsRef<str>>(&self, events: &[S]) -> Encoded {
        let ids: Vec<u32> = events
            .iter()
            .map(|e| self.vocab.id_or_unk(e.as_ref()))
            .collect();
        self.encode_ids(&ids)
    }

    /// Encodes pre-looked-up event ids (no `[UNK]` mapping applied).
    pub fn encode_ids(&self, event_ids: &[u32]) -> Encoded {
        let body = self.max_len - 2;
        let start = event_ids.len().saturating_sub(body);
        let kept = &event_ids[start..];
        let mut ids = Vec::with_capacity(self.max_len);
        ids.push(SpecialToken::Cls.id());
        ids.extend_from_slice(kept);
        ids.push(SpecialToken::Sep.id());
        let real = ids.len();
        ids.resize(self.max_len, SpecialToken::Pad.id());
        let mut attention_mask = vec![0u8; self.max_len];
        attention_mask[..real].fill(1);
        Encoded {
            ids,
            attention_mask,
        }
    }

    /// Decodes ids back to surface forms, skipping padding.
    pub fn decode(&self, ids: &[u32]) -> Vec<String> {
        ids.iter()
            .filter(|&&id| id != SpecialToken::Pad.id())
            .map(|&id| {
                self.vocab
                    .token(id)
                    .unwrap_or(SpecialToken::Unk.as_str())
                    .to_string()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok() -> ClinicalTokenizer {
        ClinicalTokenizer::new(Vocab::from_tokens(["A", "B", "C", "D"]), 6)
    }

    #[test]
    fn wraps_with_cls_sep_and_pads() {
        let e = tok().encode(&["A", "B"]);
        assert_eq!(e.ids, vec![2, 5, 6, 3, 0, 0]);
        assert_eq!(e.attention_mask, vec![1, 1, 1, 1, 0, 0]);
        assert_eq!(e.real_len(), 4);
    }

    #[test]
    fn truncation_keeps_most_recent() {
        // max_len 6 → body 4; "A B C D A B" keeps "C D A B".
        let e = tok().encode(&["A", "B", "C", "D", "A", "B"]);
        assert_eq!(e.ids, vec![2, 7, 8, 5, 6, 3]);
        assert_eq!(e.real_len(), 6);
    }

    #[test]
    fn unknown_becomes_unk() {
        let e = tok().encode(&["ZZZ"]);
        assert_eq!(e.ids[1], SpecialToken::Unk.id());
    }

    #[test]
    fn empty_sequence_is_cls_sep() {
        let e = tok().encode::<&str>(&[]);
        assert_eq!(e.ids[..2], [2, 3]);
        assert_eq!(e.real_len(), 2);
    }

    #[test]
    fn decode_skips_padding() {
        let e = tok().encode(&["A"]);
        assert_eq!(tok().decode(&e.ids), vec!["[CLS]", "A", "[SEP]"]);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_max_len_panics() {
        ClinicalTokenizer::new(Vocab::new(), 2);
    }
}
