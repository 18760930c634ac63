//! GEMM flops per BERT-mini step on a ragged batch, pinned exactly. The
//! encoder packs each sequence to its first `max(len, 1)` rows, so every
//! position-wise GEMM runs on `R = Σ max(len_b, 1)` rows, and attention
//! computes the `len_b²` (query, key) pairs per head among real tokens
//! only. The MLM head runs on the labelled rows alone.
//!
//! The kernel counters are process-global, so this file holds a single
//! test: no other test in the binary can record into them meanwhile.

use clinfl_models::{BertConfig, BertModel, SequenceClassifier, TokenBatch};
use clinfl_obs as obs;
use clinfl_tensor::Graph;
use clinfl_text::IGNORE_INDEX;

const FLOPS: [&str; 3] = [
    "tensor.matmul.flops",
    "tensor.matmul_a_bt.flops",
    "tensor.matmul_at_b.flops",
];

fn flops() -> [u64; 3] {
    FLOPS.map(obs::counter_value)
}

fn flops_delta(before: [u64; 3]) -> [u64; 3] {
    let now = flops();
    [0, 1, 2].map(|i| now[i] - before[i])
}

#[test]
fn bert_mini_step_flops_follow_real_rows() {
    if !obs::enabled() {
        return; // CLINFL_OBS=0: nothing is recorded, nothing to check.
    }
    let cfg = BertConfig::bert_mini(30, 8);
    let model = BertModel::new(&cfg, 5);
    // Lengths 5, 8, 0 and 1 of 8.
    let lens = [5usize, 8, 0, 1];
    let (b, s) = (lens.len(), 8);
    let ids: Vec<u32> = (0..b * s).map(|i| 5 + (i as u32 % 20)).collect();
    let mask: Vec<u8> = lens
        .iter()
        .flat_map(|&len| (0..s).map(move |i| u8::from(i < len)))
        .collect();
    let batch = TokenBatch {
        ids: &ids,
        mask: &mask,
        batch_size: b,
        seq_len: s,
    };

    let (h, f, v, c) = (cfg.hidden, cfg.ffn, cfg.vocab_size, cfg.num_classes);
    let (inner, dh, layers) = (cfg.attn_inner(), cfg.head_dim(), cfg.layers);
    // 15 rows: 5 + 8 + 1 (the empty sequence keeps its [CLS]) + 1.
    let rows: usize = lens.iter().map(|&l| l.max(1)).sum();
    assert_eq!(rows, 15);
    let pairs: usize = lens.iter().map(|&l| cfg.heads * l * l).sum();
    // Per layer: the packed QKV projection, the output projection and the
    // two FFN GEMMs over every row; one attention product over the pairs.
    let lin = layers * 2 * rows * (h * 3 * inner + inner * h + 2 * h * f);
    let att = layers * 2 * pairs * dh;
    let head = 2 * b * h * c;
    let as_u64 = |x: [usize; 3]| x.map(|v| v as u64);

    // Predict: q·kᵀ is an a·bᵀ product, p·v a plain one.
    let before = (flops(), obs::counter_value("models.tokens"));
    model.predict(&batch);
    assert_eq!(flops_delta(before.0), as_u64([lin + att + head, att, 0]));
    assert_eq!(obs::counter_value("models.tokens") - before.1, rows as u64);

    // One classification training step. Each linear GEMM's backward adds
    // its dX (a·bᵀ) and dW (aᵀ·b); attention's adds dy·vᵀ (a·bᵀ), ds·k
    // (plain), and dsᵀ·q and pᵀ·dy (aᵀ·b).
    let before = flops();
    let mut g = Graph::new();
    let loss = model.classification_loss(&mut g, &batch, &[0, 1, 0, 1]);
    g.backward(loss);
    let step = lin + head + 2 * att;
    assert_eq!(flops_delta(before), as_u64([step; 3]));

    // One MLM training step with 3 labelled real positions: the dense
    // layer and the tied decoder (a·bᵀ forward, plain dX, aᵀ·b dW) run on
    // those 3 rows only.
    let mut labels = vec![IGNORE_INDEX; b * s];
    for pos in [1, s + 7, 3 * s] {
        labels[pos] = 7;
    }
    let labelled = 3;
    let dense = 2 * labelled * h * h;
    let dec = 2 * labelled * h * v;
    let before = flops();
    let mut g = Graph::new();
    let loss = model.mlm_loss(&mut g, &batch, &labels);
    g.backward(loss);
    let enc = lin + 2 * att;
    assert_eq!(flops_delta(before), as_u64([enc + dense + dec; 3]));
}
