//! Token vocabulary with the five BERT special tokens.

use std::collections::HashMap;

/// The special tokens every [`Vocab`] contains, at fixed ids `0..=4`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecialToken {
    /// Padding (`[PAD]`, id 0).
    Pad,
    /// Unknown token (`[UNK]`, id 1).
    Unk,
    /// Sequence-start / classification token (`[CLS]`, id 2).
    Cls,
    /// Sequence separator (`[SEP]`, id 3).
    Sep,
    /// MLM mask token (`[MASK]`, id 4).
    Mask,
}

impl SpecialToken {
    /// The token id (stable across all vocabularies).
    pub fn id(self) -> u32 {
        match self {
            SpecialToken::Pad => 0,
            SpecialToken::Unk => 1,
            SpecialToken::Cls => 2,
            SpecialToken::Sep => 3,
            SpecialToken::Mask => 4,
        }
    }

    /// The surface form, e.g. `"[PAD]"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpecialToken::Pad => "[PAD]",
            SpecialToken::Unk => "[UNK]",
            SpecialToken::Cls => "[CLS]",
            SpecialToken::Sep => "[SEP]",
            SpecialToken::Mask => "[MASK]",
        }
    }

    /// All special tokens in id order.
    pub fn all() -> [SpecialToken; 5] {
        [
            SpecialToken::Pad,
            SpecialToken::Unk,
            SpecialToken::Cls,
            SpecialToken::Sep,
            SpecialToken::Mask,
        ]
    }
}

/// A token vocabulary mapping surface forms to dense ids.
///
/// Ids `0..=4` are always the [`SpecialToken`]s; regular tokens follow in
/// insertion order, making vocabulary construction deterministic — a
/// requirement for federated sites to agree on the token space.
#[derive(Clone, Debug, PartialEq)]
pub struct Vocab {
    tokens: Vec<String>,
    index: HashMap<String, u32>,
}

impl Vocab {
    /// Creates a vocabulary containing only the special tokens.
    pub fn new() -> Self {
        let mut v = Vocab {
            tokens: Vec::new(),
            index: HashMap::new(),
        };
        for s in SpecialToken::all() {
            v.push(s.as_str().to_string());
        }
        v
    }

    /// Builds a vocabulary from an iterator of token strings (duplicates
    /// are fine and keep their first-seen id).
    pub fn from_tokens<I, S>(tokens: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut v = Vocab::new();
        for t in tokens {
            v.add(t.as_ref());
        }
        v
    }

    fn push(&mut self, token: String) -> u32 {
        let id = self.tokens.len() as u32;
        self.index.insert(token.clone(), id);
        self.tokens.push(token);
        id
    }

    /// Adds a token if absent; returns its id either way.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.index.get(token) {
            id
        } else {
            self.push(token.to_string())
        }
    }

    /// Looks up a token id, falling back to `[UNK]`.
    pub fn id_or_unk(&self, token: &str) -> u32 {
        self.index
            .get(token)
            .copied()
            .unwrap_or(SpecialToken::Unk.id())
    }

    /// Looks up a token id.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// The surface form for an id, if in range.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.tokens.get(id as usize).map(String::as_str)
    }

    /// Total vocabulary size including special tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Always false (a vocabulary at least contains the special tokens).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of special tokens at the front of the id space.
    pub fn num_special(&self) -> usize {
        SpecialToken::all().len()
    }

    /// True if `id` refers to a special token.
    pub fn is_special(&self, id: u32) -> bool {
        (id as usize) < self.num_special()
    }

    /// Ids of regular (non-special) tokens, useful for drawing random
    /// replacement tokens during MLM masking.
    pub fn regular_ids(&self) -> std::ops::Range<u32> {
        self.num_special() as u32..self.len() as u32
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_have_fixed_ids() {
        let v = Vocab::new();
        assert_eq!(v.len(), 5);
        assert_eq!(v.id("[PAD]"), Some(0));
        assert_eq!(v.id("[MASK]"), Some(4));
        assert_eq!(SpecialToken::Cls.id(), 2);
        assert!(v.is_special(0));
        assert!(!v.is_special(5));
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.add("RX:ASPIRIN");
        let b = v.add("RX:ASPIRIN");
        assert_eq!(a, b);
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn unknown_maps_to_unk() {
        let v = Vocab::from_tokens(["A"]);
        assert_eq!(v.id_or_unk("A"), 5);
        assert_eq!(v.id_or_unk("NOPE"), SpecialToken::Unk.id());
    }

    #[test]
    fn token_roundtrip() {
        let v = Vocab::from_tokens(["A", "B"]);
        assert_eq!(v.token(5), Some("A"));
        assert_eq!(v.token(6), Some("B"));
        assert_eq!(v.token(99), None);
    }

    #[test]
    fn regular_ids_range() {
        let v = Vocab::from_tokens(["A", "B", "C"]);
        assert_eq!(v.regular_ids(), 5..8);
    }
}
