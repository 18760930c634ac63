//! # clinfl-text
//!
//! Text substrate for the `clinfl` clinical federated-learning stack:
//! vocabulary management, a clinical-event tokenizer, BERT-style
//! masked-language-model (MLM) masking, and batch assembly.
//!
//! The paper (*Multi-Site Clinical Federated Learning using Recursive and
//! Attentive Models and NVFlare*, ICDCS 2023) models patient records as
//! token sequences of prescription and diagnosis codes (following its
//! reference \[13\], Lee et al., MLHC 2022) and pretrains BERT with the MLM
//! objective at masking probability `p = 0.15`, where 10% of the selected
//! tokens are left unmasked but still included in the loss. This crate
//! implements exactly those mechanics.
//!
//! ```
//! use clinfl_text::{Vocab, ClinicalTokenizer, MlmMasker};
//!
//! let vocab = Vocab::from_tokens(["RX:CLOPIDOGREL", "DX:I21", "RX:OMEPRAZOLE"]);
//! let tok = ClinicalTokenizer::new(vocab, 8);
//! let enc = tok.encode(&["RX:CLOPIDOGREL", "DX:I21"]);
//! assert_eq!(enc.ids.len(), 8); // [CLS] … [SEP] + padding
//!
//! let masker = MlmMasker::default();
//! let masked = masker.mask(&enc.ids, tok.vocab(), 42);
//! assert_eq!(masked.input_ids.len(), masked.labels.len());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod masking;
mod tokenizer;
mod vocab;

pub use masking::{MaskedSequence, MlmMasker};
pub use tokenizer::{ClinicalTokenizer, Encoded};
pub use vocab::{SpecialToken, Vocab};

/// Target value that excludes a position from loss computation, matching
/// the conventional `ignore_index` of cross-entropy implementations.
pub const IGNORE_INDEX: i32 = -100;
