//! GEMM calls and flops per LSTM step, pinned exactly. Each layer is one
//! projection GEMM over the batch's real tokens plus one recurrent GEMM
//! per step after the first up to the longest row, forward and backward,
//! so the count is linear in the longest length with no per-gate factor,
//! and the flops count real tokens only.
//!
//! The kernel counters are process-global, so this file holds a single
//! test: no other test in the binary can record into them meanwhile.

use clinfl_models::{LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch};
use clinfl_obs as obs;
use clinfl_tensor::Graph;

const KERNELS: [&str; 3] = [
    "tensor.matmul.calls",
    "tensor.matmul_a_bt.calls",
    "tensor.matmul_at_b.calls",
];

const FLOPS: [&str; 3] = [
    "tensor.matmul.flops",
    "tensor.matmul_a_bt.flops",
    "tensor.matmul_at_b.flops",
];

fn calls() -> [u64; 3] {
    KERNELS.map(obs::counter_value)
}

fn flops() -> [u64; 3] {
    FLOPS.map(obs::counter_value)
}

fn delta(before: [u64; 3]) -> [u64; 3] {
    let now = calls();
    [0, 1, 2].map(|i| now[i] - before[i])
}

fn flops_delta(before: [u64; 3]) -> [u64; 3] {
    let now = flops();
    [0, 1, 2].map(|i| now[i] - before[i])
}

#[test]
fn lstm_step_gemm_calls_are_pinned() {
    if !obs::enabled() {
        return; // CLINFL_OBS=0: nothing is recorded, nothing to check.
    }
    // 2 layers, batch 2, 5 steps.
    let cfg = LstmConfig {
        vocab_size: 20,
        hidden: 8,
        layers: 2,
        dropout: 0.1,
        num_classes: 2,
    };
    let model = LstmClassifier::new(&cfg, 3);
    let ids: Vec<u32> = (0..10).map(|i| 1 + i % 7).collect();
    let mask = [1, 1, 1, 1, 1, 1, 1, 1, 0, 0];
    let batch = TokenBatch {
        ids: &ids,
        mask: &mask,
        batch_size: 2,
        seq_len: 5,
    };

    // Forward only: per layer 1 projection + 4 recurrent, plus the head.
    let before = (calls(), flops());
    model.predict(&batch);
    assert_eq!(delta(before.0), [2 * (1 + 4) + 1, 0, 0]);
    // The flops of real tokens only: 8 real rows, 6 of them after their
    // sequence's first step; H = 8, 4H = 32, 2 classes, 2 layers.
    let (real, carried, h, b, classes) = (8, 6, 8, 2, 2);
    let proj = 2 * real * h * 4 * h;
    let rec = 2 * carried * h * 4 * h;
    let head = 2 * b * h * classes;
    assert_eq!(flops_delta(before.1), [2 * (proj + rec) + head, 0, 0]);

    // One training step. Backward adds, per layer, 4 recurrent
    // `dZ_t·Whᵀ` products (pre-packed, so counted as `matmul`), the
    // projection's dX and dW, and one dWh over all steps; the head adds
    // its dX and dW.
    let before = (calls(), flops());
    let mut g = Graph::new();
    let loss = model.classification_loss(&mut g, &batch, &[0, 1]);
    g.backward(loss);
    assert_eq!(delta(before.0), [2 * (1 + 4 + 4) + 1, 2 + 1, 2 * 2 + 1]);
    // Backward: the recurrent dX over the carried rows; the projection's
    // dX over every real row; dW of the projection, of the recurrence
    // (carried rows) and of the head.
    assert_eq!(
        flops_delta(before.1),
        [
            2 * (proj + 2 * rec) + head,
            2 * proj + head,
            2 * (proj + rec) + head
        ]
    );

    // A batch whose last column is all padding (lengths 4 and 3 of 5):
    // the recurrence stops at the longest row, 3 steps after the first.
    let short = [1, 1, 1, 1, 0, 1, 1, 1, 0, 0];
    let batch = TokenBatch {
        mask: &short,
        ..batch
    };
    let before = calls();
    model.predict(&batch);
    assert_eq!(delta(before), [2 * (1 + 3) + 1, 0, 0]);
}
