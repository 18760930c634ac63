//! The attention node against the unfused composition it replaces.
//!
//! The reference runs, per (sequence, head) on the full padded `S × S`
//! grid, the nodes the BERT encoder used to record: the `a·bᵀ` score
//! product, the scale, an additive `-1e4` mask on padded keys, the
//! softmax and the context product — and their backward rules in the
//! same order — through the public kernels. At every real query the node
//! must give the same bits, forward and backward.

use clinfl_tensor::{gradcheck, kernels, Graph, Tensor};

const NEG_ATTN: f32 = -1.0e4;

/// One (sequence, head) operand: rows `b·S..(b+1)·S` of `src` (row stride
/// `stride`), columns `col..col + dh`, copied to a contiguous `[S, dh]`.
fn head_rows(src: &[f32], stride: usize, b: usize, s: usize, col: usize, dh: usize) -> Vec<f32> {
    (0..s)
        .flat_map(|i| src[(b * s + i) * stride + col..][..dh].to_vec())
        .collect()
}

fn put_rows(
    dst: &mut [f32],
    stride: usize,
    b: usize,
    s: usize,
    col: usize,
    dh: usize,
    rows: &[f32],
) {
    for i in 0..s {
        dst[(b * s + i) * stride + col..][..dh].copy_from_slice(&rows[i * dh..][..dh]);
    }
}

/// The unfused forward and backward: returns the context `[B·S, inner]`
/// and the gradient of `qkv` for the context gradient `dctx`.
fn reference(
    qkv: &[f32],
    lens: &[usize],
    heads: usize,
    dh: usize,
    dctx: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let (inner, b_n) = (heads * dh, lens.len());
    let w = 3 * inner;
    let s = qkv.len() / w / b_n;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut ctx = vec![0.0; b_n * s * inner];
    let mut dqkv = vec![0.0; b_n * s * w];
    for (b, &len) in lens.iter().enumerate() {
        for h in 0..heads {
            let q = head_rows(qkv, w, b, s, h * dh, dh);
            let k = head_rows(qkv, w, b, s, inner + h * dh, dh);
            let v = head_rows(qkv, w, b, s, 2 * inner + h * dh, dh);
            let mut scores = vec![0.0; s * s];
            kernels::matmul_a_bt_acc(&q, &k, &mut scores, s, dh, s);
            for (at, x) in scores.iter_mut().enumerate() {
                *x *= scale;
                *x += if at % s < len { 0.0 } else { NEG_ATTN };
            }
            kernels::softmax_rows(&mut scores, s);
            let probs = scores;
            let mut c = vec![0.0; s * dh];
            kernels::matmul_acc(&probs, &v, &mut c, s, s, dh);
            put_rows(&mut ctx, inner, b, s, h * dh, dh, &c);

            let dc = head_rows(dctx, inner, b, s, h * dh, dh);
            let mut dprobs = vec![0.0; s * s];
            kernels::matmul_a_bt_acc(&dc, &v, &mut dprobs, s, dh, s);
            let mut dv = vec![0.0; s * dh];
            kernels::matmul_at_b_acc(&probs, &dc, &mut dv, s, s, dh);
            let mut dscores = vec![0.0; s * s];
            kernels::softmax_rows_backward(&probs, &dprobs, &mut dscores, s);
            for x in &mut dscores {
                *x *= scale;
            }
            let mut dq = vec![0.0; s * dh];
            kernels::matmul_acc(&dscores, &k, &mut dq, s, s, dh);
            let mut dk = vec![0.0; s * dh];
            kernels::matmul_at_b_acc(&dscores, &q, &mut dk, s, s, dh);
            put_rows(&mut dqkv, w, b, s, h * dh, dh, &dq);
            put_rows(&mut dqkv, w, b, s, inner + h * dh, dh, &dk);
            put_rows(&mut dqkv, w, b, s, 2 * inner + h * dh, dh, &dv);
        }
    }
    (ctx, dqkv)
}

/// A context gradient that is zero on padded query rows, which the loss
/// `sum(ctx ⊙ weights)` passes back unchanged.
fn row_weights(lens: &[usize], s: usize, inner: usize, seed: u64) -> Tensor {
    let mut w = Tensor::randn(&[lens.len() * s, inner], 1.0, seed);
    for (row, chunk) in w.data_mut().chunks_mut(inner).enumerate() {
        if row % s >= lens[row / s] {
            chunk.fill(0.0);
        }
    }
    w
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn matches_the_unfused_composition_bitwise_on_ragged_lengths() {
    // Lengths 7 (= S), 1, 4 and 0; dh = 5 leaves a vector tail.
    let (s, heads, dh) = (7, 3, 5);
    let lens = [7, 1, 4, 0];
    let inner = heads * dh;
    let rows = lens.len() * s;
    let qkv = Tensor::randn(&[rows, 3 * inner], 1.5, 31);
    let weights = row_weights(&lens, s, inner, 32);

    let mut g = Graph::new(); // training mode, but p = 0: no dropout
    let x = g.input(qkv.clone());
    let ctx = g.attention(x, &lens, heads, 0.0);
    let out = g.value(ctx).data().to_vec();
    let wv = g.input(weights.clone());
    let weighted = g.mul(ctx, wv);
    let loss = g.sum(weighted);
    g.backward(loss);
    let dqkv = g.grad(x).unwrap().data().to_vec();

    let (ref_ctx, ref_dqkv) = reference(qkv.data(), &lens, heads, dh, weights.data());
    for row in 0..rows {
        let real = row % s < lens[row / s];
        let got = &out[row * inner..][..inner];
        if real {
            assert_eq!(
                bits(got),
                bits(&ref_ctx[row * inner..][..inner]),
                "ctx row {row}"
            );
        } else {
            assert!(got.iter().all(|&v| v == 0.0), "padded ctx row {row}");
        }
        let got = &dqkv[row * 3 * inner..][..3 * inner];
        let want = &ref_dqkv[row * 3 * inner..][..3 * inner];
        assert_eq!(bits(got), bits(want), "dqkv row {row}");
        if !real {
            assert!(got.iter().all(|&v| v == 0.0), "padded dqkv row {row}");
        }
    }
    assert!(dqkv.iter().any(|&v| v != 0.0));
}

#[test]
fn gradcheck_with_padding() {
    let (s, heads, dh) = (4, 2, 3);
    let lens = [4, 2, 1];
    let inner = heads * dh;
    let weights = row_weights(&lens, s, inner, 41);
    let qkv = Tensor::randn(&[lens.len() * s, 3 * inner], 1.0, 42);
    let report = gradcheck(&[qkv], |g, v| {
        let ctx = g.attention(v[0], &lens, heads, 0.0);
        let w = g.input(weights.clone());
        let weighted = g.mul(ctx, w);
        g.sum(weighted)
    });
    assert_eq!(report.checked, lens.len() * s * 3 * inner);
    assert!(report.passes(1e-2), "{report:?}");
}

#[test]
fn dropout_gradients_match_finite_differences() {
    // A graph with a fixed seed draws the same mask every time, so the
    // trained-mode node is a fixed function of its input.
    let (s, heads, dh) = (5, 2, 4);
    let lens = [5, 3];
    let inner = heads * dh;
    let weights = row_weights(&lens, s, inner, 51);
    let qkv = Tensor::randn(&[lens.len() * s, 3 * inner], 1.0, 52);
    let run = |x: &Tensor| {
        let mut g = Graph::with_seed(9);
        let xv = g.input(x.clone());
        let ctx = g.attention(xv, &lens, heads, 0.3);
        let w = g.input(weights.clone());
        let weighted = g.mul(ctx, w);
        let loss = g.sum(weighted);
        g.backward(loss);
        (g.value(loss).item(), g.grad(xv).unwrap().data().to_vec())
    };
    let (loss, grad) = run(&qkv);
    assert_ne!(
        loss,
        run_eval(&qkv, &lens, heads, &weights),
        "dropout is active"
    );
    let eps = 1e-2;
    for at in (0..qkv.numel()).step_by(7) {
        let mut plus = qkv.clone();
        plus.data_mut()[at] += eps;
        let mut minus = qkv.clone();
        minus.data_mut()[at] -= eps;
        let numeric = (run(&plus).0 - run(&minus).0) / (2.0 * eps);
        let diff = (numeric - grad[at]).abs() / numeric.abs().max(grad[at].abs()).max(1.0);
        assert!(
            diff < 1e-2,
            "element {at}: analytic {} vs numeric {numeric}",
            grad[at]
        );
    }
}

fn run_eval(x: &Tensor, lens: &[usize], heads: usize, weights: &Tensor) -> f32 {
    let mut g = Graph::with_seed(9);
    g.set_training(false);
    let xv = g.input(x.clone());
    let ctx = g.attention(xv, lens, heads, 0.3);
    let w = g.input(weights.clone());
    let weighted = g.mul(ctx, w);
    let loss = g.sum(weighted);
    g.value(loss).item()
}

#[test]
#[should_panic(expected = "exceeds the sequence length")]
fn key_length_beyond_the_sequence_panics() {
    let mut g = Graph::new();
    let x = g.input(Tensor::zeros(&[4, 6]));
    g.attention(x, &[3, 3], 1, 0.0);
}
