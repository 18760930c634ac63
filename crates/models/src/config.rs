//! Model hyper-parameter configurations (paper Table II).

/// Configuration of the [`crate::BertModel`] transformer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BertConfig {
    /// Vocabulary size (token embedding rows).
    pub vocab_size: usize,
    /// Hidden dimension (paper: 128 for BERT, 50 for BERT-mini).
    pub hidden: usize,
    /// Number of attention heads (paper: 6 / 2).
    pub heads: usize,
    /// Number of transformer blocks (paper: 12 / 6).
    pub layers: usize,
    /// Feed-forward inner dimension (we use `2 * hidden`; the paper does
    /// not specify it).
    pub ffn: usize,
    /// Maximum sequence length (position embedding rows).
    pub max_seq_len: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Number of output classes for the classification head.
    pub num_classes: usize,
}

impl BertConfig {
    /// The paper's **BERT** column of Table II (hidden 128, 6 heads,
    /// 12 layers). `vocab_size`/`max_seq_len` must still be set for the
    /// corpus at hand.
    pub fn bert(vocab_size: usize, max_seq_len: usize) -> Self {
        BertConfig {
            vocab_size,
            hidden: 128,
            heads: 6,
            layers: 12,
            ffn: 256,
            max_seq_len,
            dropout: 0.1,
            num_classes: 2,
        }
    }

    /// The paper's **BERT-mini** column of Table II (hidden 50, 2 heads,
    /// 6 layers).
    pub fn bert_mini(vocab_size: usize, max_seq_len: usize) -> Self {
        BertConfig {
            vocab_size,
            hidden: 50,
            heads: 2,
            layers: 6,
            ffn: 100,
            max_seq_len,
            dropout: 0.1,
            num_classes: 2,
        }
    }

    /// Per-head dimension. When `hidden` is not divisible by `heads` (the
    /// paper's BERT has 128/6), heads use `ceil(hidden/heads)` and the
    /// attention output is projected back from `heads * head_dim` to
    /// `hidden`.
    pub fn head_dim(&self) -> usize {
        self.hidden.div_ceil(self.heads)
    }

    /// Total inner width of the attention projections
    /// (`heads * head_dim`).
    pub fn attn_inner(&self) -> usize {
        self.heads * self.head_dim()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized fields or `dropout ∉ [0, 1)`.
    pub fn validate(&self) {
        assert!(self.vocab_size > 0, "vocab_size must be positive");
        assert!(self.hidden > 0, "hidden must be positive");
        assert!(self.heads > 0, "heads must be positive");
        assert!(self.layers > 0, "layers must be positive");
        assert!(self.ffn > 0, "ffn must be positive");
        assert!(self.max_seq_len > 0, "max_seq_len must be positive");
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0,1)"
        );
    }
}

/// Configuration of the [`crate::LstmClassifier`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LstmConfig {
    /// Vocabulary size (embedding rows).
    pub vocab_size: usize,
    /// Hidden dimension (paper: 128).
    pub hidden: usize,
    /// Number of stacked LSTM layers (paper: 3).
    pub layers: usize,
    /// Dropout applied between layers and before the head.
    pub dropout: f32,
    /// Number of output classes.
    pub num_classes: usize,
}

impl LstmConfig {
    /// The paper's **LSTM** column of Table II (hidden 128, 3 layers),
    /// with `vocab_size` left at a placeholder of 1 to be overridden.
    pub fn paper() -> Self {
        LstmConfig {
            vocab_size: 1,
            hidden: 128,
            layers: 3,
            dropout: 0.1,
            num_classes: 2,
        }
    }

    /// Paper LSTM over a concrete vocabulary.
    pub fn with_vocab(vocab_size: usize) -> Self {
        LstmConfig {
            vocab_size,
            ..LstmConfig::paper()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized fields or `dropout ∉ [0, 1)`.
    pub fn validate(&self) {
        assert!(self.vocab_size > 0, "vocab_size must be positive");
        assert!(self.hidden > 0, "hidden must be positive");
        assert!(self.layers > 0, "layers must be positive");
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0,1)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bert_spec() {
        let c = BertConfig::bert(500, 36);
        assert_eq!((c.hidden, c.heads, c.layers), (128, 6, 12));
        // 128 not divisible by 6 → head_dim 22, inner 132.
        assert_eq!(c.head_dim(), 22);
        assert_eq!(c.attn_inner(), 132);
        c.validate();
    }

    #[test]
    fn table2_bert_mini_spec() {
        let c = BertConfig::bert_mini(500, 36);
        assert_eq!((c.hidden, c.heads, c.layers), (50, 2, 6));
        assert_eq!(c.head_dim(), 25);
        assert_eq!(c.attn_inner(), 50);
        c.validate();
    }

    #[test]
    fn table2_lstm_spec() {
        let c = LstmConfig::with_vocab(500);
        assert_eq!((c.hidden, c.layers), (128, 3));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "heads must be positive")]
    fn zero_heads_panics() {
        BertConfig {
            heads: 0,
            ..BertConfig::bert(10, 8)
        }
        .validate();
    }
}
