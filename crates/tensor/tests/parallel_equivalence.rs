//! Parallel kernels must be *bit-identical* to their serial runs: the
//! row-blocked partitioning keeps every output element's accumulation
//! order unchanged, so these tests compare `to_bits()`, not approximate
//! closeness, across odd and degenerate shapes.

use clinfl_tensor::{kernels, pool, Graph, Tensor};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that reconfigure the process-global thread budget.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at 1 thread and at 4 threads and asserts the outputs match
/// bit for bit.
fn assert_bit_identical(label: &str, f: impl Fn() -> Vec<f32>) {
    pool::set_threads(1);
    let serial = f();
    pool::set_threads(4);
    let parallel = f();
    assert_eq!(serial.len(), parallel.len(), "{label}: length mismatch");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{label}: element {i} differs: serial {s} vs parallel {p}"
        );
    }
}

/// Odd, prime-ish, and power-of-two shapes; includes rows below, at, and
/// above typical block boundaries.
const SHAPES: [(usize, usize, usize); 6] = [
    (1, 1, 1),
    (3, 5, 7),
    (17, 31, 13),
    (64, 64, 64),
    (129, 65, 33),
    (2, 512, 19),
];

#[test]
fn matmuls_bit_identical_across_shapes() {
    let _guard = config_lock();
    for &(m, k, n) in &SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, 7 + m as u64);
        let b = Tensor::randn(&[k, n], 1.0, 11 + n as u64);
        assert_bit_identical(&format!("matmul_acc {m}x{k}x{n}"), || {
            let mut c = vec![0.5f32; m * n];
            kernels::matmul_acc(a.data(), b.data(), &mut c, m, k, n);
            c
        });
        let at = Tensor::randn(&[k, m], 1.0, 13 + m as u64);
        assert_bit_identical(&format!("matmul_at_b_acc {m}x{k}x{n}"), || {
            let mut c = vec![0.5f32; m * n];
            kernels::matmul_at_b_acc(at.data(), b.data(), &mut c, m, k, n);
            c
        });
        // matmul_a_bt_acc computes c[m, k'] += a[m, n'] * b[k', n']^T;
        // here n' = k (the contraction dim) and k' = n.
        let bt = Tensor::randn(&[n, k], 1.0, 17 + n as u64);
        assert_bit_identical(&format!("matmul_a_bt_acc {m}x{n}x{k}"), || {
            let mut c = vec![0.5f32; m * n];
            kernels::matmul_a_bt_acc(a.data(), bt.data(), &mut c, m, k, n);
            c
        });
    }
}

#[test]
fn row_kernels_bit_identical_across_widths() {
    let _guard = config_lock();
    for &(rows, width) in &[(1usize, 1usize), (7, 3), (333, 31), (1024, 64), (5, 257)] {
        let x = Tensor::randn(&[rows * width], 2.0, 23 + width as u64);
        assert_bit_identical(&format!("softmax_rows {rows}x{width}"), || {
            let mut d = x.data().to_vec();
            kernels::softmax_rows(&mut d, width);
            d
        });
        assert_bit_identical(&format!("layer_norm_rows_rstd {rows}x{width}"), || {
            let mut d = x.data().to_vec();
            let mut rstd = vec![0.0f32; rows];
            kernels::layer_norm_rows_rstd(&mut d, width, 1e-5, &mut rstd);
            d.extend(rstd);
            d
        });
    }
}

#[test]
fn backward_kernels_bit_identical() {
    let _guard = config_lock();
    for &(rows, width) in &[(9usize, 5usize), (257, 33), (1024, 128)] {
        let n = rows * width;
        let mut y = Tensor::randn(&[n], 1.0, 31).data().to_vec();
        kernels::softmax_rows(&mut y, width);
        let dy = Tensor::randn(&[n], 1.0, 37);
        assert_bit_identical(&format!("softmax_rows_backward {rows}x{width}"), || {
            let mut dx = vec![0.0f32; n];
            kernels::softmax_rows_backward(&y, dy.data(), &mut dx, width);
            dx
        });
    }
}

#[test]
fn elementwise_helpers_bit_identical() {
    let _guard = config_lock();
    let x = Tensor::randn(&[100_003], 3.0, 43);
    assert_bit_identical("map_into(gelu)", || {
        let mut out = vec![0.0f32; x.numel()];
        kernels::map_into(x.data(), &mut out, 32, kernels::gelu);
        out
    });
    let d0 = Tensor::randn(&[100_003], 1.0, 47);
    assert_bit_identical("mul_map_inplace(tanh_fast_grad)", || {
        let mut d = d0.data().to_vec();
        kernels::mul_map_inplace(x.data(), &mut d, 16, kernels::tanh_fast_grad);
        d
    });
}

#[test]
fn batched_matmul_bit_identical() {
    let _guard = config_lock();
    for &(batch, m, k, n) in &[
        (1usize, 5usize, 7usize, 3usize),
        (8, 16, 32, 16),
        (3, 1, 257, 1),
    ] {
        let a = Tensor::randn(&[batch, m, k], 1.0, 53);
        let b = Tensor::randn(&[k, n], 1.0, 61);
        assert_bit_identical(&format!("batched matmul {batch}x{m}x{k}x{n}"), || {
            let mut g = Graph::new();
            let (x, y) = (g.input(a.clone()), g.input(b.clone()));
            let c = g.matmul(x, y);
            g.value(c).data().to_vec()
        });
    }
}

#[test]
fn attention_bit_identical_with_dropout() {
    let _guard = config_lock();
    // BERT's shape: 16 ragged sequences of up to 26 tokens, 6 heads of 22.
    let (s, heads, dh) = (26, 6, 22);
    let lens: Vec<usize> = (0..16).map(|b| 10 + (b * 7) % 17).collect();
    let inner = heads * dh;
    let qkv = Tensor::randn(&[lens.len() * s, 3 * inner], 1.0, 67);
    let weights = Tensor::randn(&[lens.len() * s, inner], 1.0, 71);
    assert_bit_identical("attention forward and backward", || {
        let mut g = Graph::with_seed(5);
        let x = g.input(qkv.clone());
        let ctx = g.attention(x, &lens, heads, 0.1);
        let w = g.input(weights.clone());
        let weighted = g.mul(ctx, w);
        let loss = g.sum(weighted);
        g.backward(loss);
        let mut out = g.value(ctx).data().to_vec();
        out.extend_from_slice(g.grad(x).unwrap().data());
        out
    });
}
