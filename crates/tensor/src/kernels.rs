//! Raw `f32` slice kernels shared by forward and backward passes.
//!
//! These functions operate on plain slices so they can be reused by the
//! [`crate::Tensor`] convenience methods, the autograd backward
//! implementations in `ops`, and the `bench_kernels` timer without any
//! graph overhead. All layouts are row-major.
//!
//! # GEMM family
//!
//! The three matrix products (`c += a·b`, `c += aᵀ·b`, `c += a·bᵀ`) share
//! one packed, register-blocked implementation (see DESIGN.md §3j): both
//! operands are packed into contiguous `MR`-row / `NR`-column panels held
//! in thread-local scratch, and an `MR×NR` register-tile micro-kernel walks
//! the panels with a fully unrolled inner loop that LLVM autovectorizes —
//! no intrinsics, no `unsafe` (the crate denies it). Transposed operands
//! are handled by the packing strides, so the backward passes never
//! materialize a transposed copy. A product over a batch of rows with one
//! shared weight matrix is a single GEMM over all the rows, so the weight
//! is packed once.
//!
//! Every accumulation step is one `f32::mul_add`: a fused multiply-add
//! with a single rounding, which IEEE 754 specifies exactly, so it yields
//! the same bits on every host (`vfmadd` under the pinned `x86-64-v3`
//! build, a correctly rounded `fmaf` elsewhere). The compiler contracts
//! or reassociates nothing implicitly; the only fusion is the explicit one.
//!
//! The serial reference kernels ([`matmul_acc_ref`] and friends) keep the
//! naive loop orders with the same per-element `mul_add` chain, so the
//! packed kernels match them bitwise; `bench_kernels` (CI leg `kernels`)
//! times the packed kernels against them and fails below an enforced
//! speedup floor.
//!
//! The matrix and row kernels parallelize over contiguous blocks of output
//! rows (output *tiles*, for the GEMMs) through [`crate::pool`] when the
//! operation is large enough. Every output element is accumulated in the
//! same floating-point order regardless of thread count, so results are
//! bit-identical from `CLINFL_THREADS=1` to the full budget (see the pool
//! module's threading model).

use crate::pool;
use clinfl_obs::KernelTimer;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

// Per-op wall-time + invocation counters (see DESIGN.md §3e). Each is a
// static so the registry handles resolve once; a timed call costs two
// clock reads and two relaxed atomic adds. The attention node
// (`crate::attention`) times its products and softmax passes under the
// same names.
pub(crate) static OBS_MATMUL: KernelTimer = KernelTimer::new("tensor.matmul");
pub(crate) static OBS_MATMUL_AT_B: KernelTimer = KernelTimer::new("tensor.matmul_at_b");
pub(crate) static OBS_MATMUL_A_BT: KernelTimer = KernelTimer::new("tensor.matmul_a_bt");
pub(crate) static OBS_SOFTMAX: KernelTimer = KernelTimer::new("tensor.softmax");
pub(crate) static OBS_SOFTMAX_BWD: KernelTimer = KernelTimer::new("tensor.softmax_backward");
static OBS_LAYER_NORM: KernelTimer = KernelTimer::new("tensor.layer_norm");
static OBS_LAYER_NORM_BWD: KernelTimer = KernelTimer::new("tensor.layer_norm_backward");

/// Cached handle for a `<kernel>.flops` counter: pairs with the
/// [`KernelTimer`] of the same family so a metrics snapshot yields a
/// GFLOP/s estimate (`flops / time_ns`).
pub(crate) struct FlopsCounter {
    name: &'static str,
    handle: OnceLock<Arc<clinfl_obs::Counter>>,
}

impl FlopsCounter {
    const fn new(name: &'static str) -> Self {
        FlopsCounter {
            name,
            handle: OnceLock::new(),
        }
    }

    pub(crate) fn add(&self, flops: usize) {
        if clinfl_obs::enabled() {
            self.handle
                .get_or_init(|| clinfl_obs::counter(self.name))
                .add(flops as u64);
        }
    }
}

pub(crate) static FLOPS_MATMUL: FlopsCounter = FlopsCounter::new("tensor.matmul.flops");
pub(crate) static FLOPS_MATMUL_AT_B: FlopsCounter = FlopsCounter::new("tensor.matmul_at_b.flops");
pub(crate) static FLOPS_MATMUL_A_BT: FlopsCounter = FlopsCounter::new("tensor.matmul_a_bt.flops");

// ---------------------------------------------------------------------------
// Packed register-blocked GEMM core (DESIGN.md §3j)
// ---------------------------------------------------------------------------

/// Register-tile height: rows of `c` held in accumulators per micro-kernel
/// pass. One packed A panel row is `MR` floats (32 bytes).
pub const GEMM_MR: usize = 6;
/// Register-tile width: columns of `c` held in accumulators per pass. One
/// packed B panel row is `NR` floats — 64 bytes, one cache line.
pub const GEMM_NR: usize = 16;
/// k-chunk: the packed panels are walked in `KC`-deep slices so one
/// A-panel slice (`KC·MR` floats) plus one B-panel slice (`KC·NR` floats)
/// stay L1-resident. Accumulators live in registers *across* chunks, so
/// chunking never changes the floating-point chain.
const GEMM_KC: usize = 512;

const MR: usize = GEMM_MR;
const NR: usize = GEMM_NR;

thread_local! {
    /// Reusable packing scratch (A panels, B panels). Thread-local rather
    /// than drawn from the graph's `BufferPool`: the kernels are free
    /// functions with no pool handle, and pool worker threads could not
    /// share the graph-owned `&mut BufferPool` anyway. The effect is the
    /// same as the arena's — on the training thread the two buffers are
    /// allocated once and recycled for every GEMM thereafter.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The register-tile inner loop: `acc[i][j] = fma(a_panel[kk][i],
/// b_panel[kk][j], acc[i][j])` for every `kk` in the panel slices — one
/// rounding per step.
///
/// The fixed-size array refs let LLVM fully unroll the `MR×NR` body and
/// vectorize the `j` loop into `vfmadd231ps`; the accumulators stay in
/// registers for the whole walk. Vector lanes run across `j` (distinct
/// output elements), so vectorization never reorders any single
/// element's chain.
#[inline]
fn micro_kernel(acc: &mut [[f32; NR]; MR], a_panel: &[f32], b_panel: &[f32]) {
    for (a_row, b_row) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let a_row: &[f32; MR] = a_row.try_into().expect("A panel row is MR wide");
        let b_row: &[f32; NR] = b_row.try_into().expect("B panel row is NR wide");
        for (&av, acc_row) in a_row.iter().zip(acc.iter_mut()) {
            for (&bv, cv) in b_row.iter().zip(acc_row.iter_mut()) {
                *cv = av.mul_add(bv, *cv);
            }
        }
    }
}

/// Packs the logical `m×k` left operand (element `(i, p)` at
/// `a[i*rs + p*cs]`) into `MR`-row panels: panel `ip` holds rows
/// `ip*MR..`, laid out `[kk][ii]` so the micro-kernel reads one
/// contiguous `MR`-float row per `kk`. Edge panels are zero-padded to
/// full `MR` height.
fn pack_a(a: &[f32], rs: usize, cs: usize, m: usize, k: usize, out: &mut Vec<f32>) {
    let panels = m.div_ceil(MR);
    out.clear();
    out.resize(panels * k * MR, 0.0);
    for (ip, panel) in out.chunks_exact_mut(k * MR).enumerate() {
        let i0 = ip * MR;
        let mr = (m - i0).min(MR);
        for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (ii, d) in dst[..mr].iter_mut().enumerate() {
                *d = a[(i0 + ii) * rs + kk * cs];
            }
        }
    }
}

/// Packs the logical `k×n` right operand (element `(p, j)` at
/// `b[p*rs + j*cs]`) into `NR`-column panels laid out `[kk][jj]`. Edge
/// panels are zero-padded to full `NR` width. Row-major operands
/// (`cs == 1`) pack with straight slice copies.
///
/// Public for [`matmul_packed_acc`]: a loop that multiplies many left
/// operands by one matrix — the LSTM recurrence, every step times the
/// recurrent weights — packs it once instead of once per product. A
/// row-major `[k, n]` matrix is `(rs, cs) = (n, 1)`; the transpose of a
/// row-major `[n, k]` matrix is `(1, k)`.
pub fn pack_rhs(b: &[f32], rs: usize, cs: usize, k: usize, n: usize, out: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    out.clear();
    out.resize(panels * k * NR, 0.0);
    for (jp, panel) in out.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let nr = (n - j0).min(NR);
        if cs == 1 {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst[..nr].copy_from_slice(&b[kk * rs + j0..kk * rs + j0 + nr]);
            }
        } else {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (jj, d) in dst[..nr].iter_mut().enumerate() {
                    *d = b[kk * rs + (j0 + jj) * cs];
                }
            }
        }
    }
}

/// Computes one horizontal slab of the output (`c_slab` = rows from
/// `row0`, each `n` wide at a stride of `ldc`) from the packed panels.
/// `row0` must be a multiple of `MR` (slab partitioning is tile-aligned).
///
/// Per `MR×NR` tile: load the live `mr×nr` sub-tile of `c` into the
/// accumulator array, run the micro-kernel over every k-chunk, store the
/// live sub-tile back. Each output element therefore accumulates its
/// products in ascending-`k` order on top of the entering value of `c` —
/// the same per-element chain as the naive reference kernels. Padded
/// accumulator lanes are computed but never stored.
#[allow(clippy::too_many_arguments)]
fn gemm_slab(
    a_pack: &[f32],
    b_pack: &[f32],
    c_slab: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    ldc: usize,
) {
    debug_assert_eq!(row0 % MR, 0, "slab start must be tile-aligned");
    let jp_count = n.div_ceil(NR);
    for (pi, c_rows) in c_slab.chunks_mut(MR * ldc).enumerate() {
        let ip = row0 / MR + pi;
        let a_panel = &a_pack[ip * k * MR..(ip + 1) * k * MR];
        for jp in 0..jp_count {
            let j0 = jp * NR;
            let nr = (n - j0).min(NR);
            let b_panel = &b_pack[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            for (acc_row, c_row) in acc.iter_mut().zip(c_rows.chunks(ldc)) {
                acc_row[..nr].copy_from_slice(&c_row[j0..j0 + nr]);
            }
            for (a_chunk, b_chunk) in a_panel
                .chunks(GEMM_KC * MR)
                .zip(b_panel.chunks(GEMM_KC * NR))
            {
                micro_kernel(&mut acc, a_chunk, b_chunk);
            }
            for (acc_row, c_row) in acc.iter().zip(c_rows.chunks_mut(ldc)) {
                c_row[j0..j0 + nr].copy_from_slice(&acc_row[..nr]);
            }
        }
    }
}

/// One strided GEMM through the packed core: `c[m, n] += A·B` where
/// `A[i, p] = a[i*rs_a + p*cs_a]`, `B[p, j] = b[p*rs_b + j*cs_b]` (`p` =
/// contraction index, `0..k`) and row `i` of the output is
/// `c[i*ldc..][..n]` (`c` ends with the last row's `n`-th element). All
/// three public GEMM variants reduce to this by choice of strides, with
/// `ldc = n`; the attention node runs its per-head products through it
/// with the strides of the packed projection.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strided(
    a: &[f32],
    (rs_a, cs_a): (usize, usize),
    b: &[f32],
    (rs_b, cs_b): (usize, usize),
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (a_buf, b_buf) = &mut *scratch;
        pack_rhs(b, rs_b, cs_b, k, n, b_buf);
        gemm_packed_b(a, rs_a, cs_a, b_buf, a_buf, c, ldc, m, k, n);
    });
}

/// The rest of [`gemm_strided`] once `B` is packed: packs `A` into `a_buf`
/// on the calling thread (so parallel workers share the read-only
/// panels), then splits the output into `MR`-aligned row slabs across the
/// worker pool.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_b(
    a: &[f32],
    rs_a: usize,
    cs_a: usize,
    b_pack: &[f32],
    a_buf: &mut Vec<f32>,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    pack_a(a, rs_a, cs_a, m, k, a_buf);
    let a_pack = a_buf.as_slice();
    let panels = m.div_ceil(MR);
    let w = pool::workers_for(panels, 2 * MR * k * n);
    if w <= 1 {
        gemm_slab(a_pack, b_pack, c, 0, k, n, ldc);
        return;
    }
    let slab_rows = panels.div_ceil(w) * MR;
    let jobs: Vec<_> = c
        .chunks_mut(slab_rows * ldc)
        .enumerate()
        .map(|(si, c_slab)| move || gemm_slab(a_pack, b_pack, c_slab, si * slab_rows, k, n, ldc))
        .collect();
    pool::run_jobs(jobs);
}

// ---------------------------------------------------------------------------
// Public GEMM entry points
// ---------------------------------------------------------------------------

/// `c[m, n] += a[m, k] * b[k, n]` (single matrix, accumulate).
///
/// Packed register-blocked implementation; each element of `c`
/// accumulates its `k` products in ascending order on top of the entering
/// value, the same per-element chain as [`matmul_acc_ref`] — results are
/// bit-identical to the reference for finite inputs (see DESIGN.md §3j
/// for the determinism argument) and across every thread count.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`, `m*n`.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _obs = OBS_MATMUL.start();
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    assert_eq!(c.len(), m * n, "matmul out length");
    FLOPS_MATMUL.add(2 * m * k * n);
    gemm_strided(a, (k, 1), b, (n, 1), c, n, m, k, n);
}

/// `c[m, n] += a[m, k] * B` for a right operand `B` packed by
/// [`pack_rhs`]. The same per-element chains as [`matmul_acc`] over the
/// unpacked operand, so the results are bit-identical to it. Records one
/// `tensor.matmul` invocation.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, the packed `k×n`
/// operand, and `m*n`.
pub fn matmul_packed_acc(a: &[f32], b_pack: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _obs = OBS_MATMUL.start();
    assert_eq!(a.len(), m * k, "matmul_packed lhs length");
    assert_eq!(
        b_pack.len(),
        n.div_ceil(NR) * k * NR,
        "matmul_packed rhs length"
    );
    assert_eq!(c.len(), m * n, "matmul_packed out length");
    FLOPS_MATMUL.add(2 * m * k * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_SCRATCH.with(|cell| {
        let a_buf = &mut cell.borrow_mut().0;
        gemm_packed_b(a, k, 1, b_pack, a_buf, c, n, m, k, n);
    });
}

/// `c[m, n] += a[k, m]^T * b[k, n]` — matmul with the left operand
/// transposed, used by backward passes (`dW = x^T dy`).
///
/// The packing strides absorb the transpose (no transposed copy is ever
/// built); each output element accumulates over ascending `p` exactly
/// like [`matmul_at_b_acc_ref`], so results are bit-identical to the
/// reference and across thread counts.
///
/// # Panics
///
/// Panics if the slice lengths do not match `k*m`, `k*n`, `m*n`.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let _obs = OBS_MATMUL_AT_B.start();
    assert_eq!(a.len(), k * m, "matmul_at lhs length");
    assert_eq!(b.len(), k * n, "matmul_at rhs length");
    assert_eq!(c.len(), m * n, "matmul_at out length");
    FLOPS_MATMUL_AT_B.add(2 * m * k * n);
    gemm_strided(a, (1, m), b, (n, 1), c, n, m, k, n);
}

/// `c[m, k] += a[m, n] * b[k, n]^T` — matmul with the right operand
/// transposed, used by backward passes (`dx = dy W^T`) and the tied MLM
/// decoder (`h·Eᵀ`).
///
/// The packing strides absorb the transpose. Each output element
/// accumulates its products in ascending `n` order on top of the entering
/// value of `c`, exactly like [`matmul_a_bt_acc_ref`], so results are
/// bit-identical to the reference and across thread counts.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*n`, `k*n`, `m*k`.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let _obs = OBS_MATMUL_A_BT.start();
    assert_eq!(a.len(), m * n, "matmul_bt lhs length");
    assert_eq!(b.len(), k * n, "matmul_bt rhs length");
    assert_eq!(c.len(), m * k, "matmul_bt out length");
    FLOPS_MATMUL_A_BT.add(2 * m * k * n);
    gemm_strided(a, (n, 1), b, (1, n), c, k, m, n, k);
}

// ---------------------------------------------------------------------------
// Naive reference GEMMs (retained for bench_kernels and the proptests)
// ---------------------------------------------------------------------------

/// Serial reference for [`matmul_acc`]: the naive `i-k-j` loop (with its
/// zero-skip fast path) over the packed kernel's `mul_add` chain.
/// Retained so `bench_kernels` and the kernel proptests can pin the
/// packed implementation against it.
pub fn matmul_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    assert_eq!(c.len(), m * n, "matmul out length");
    for (i, c_row) in c.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv = av.mul_add(bv, *cv);
            }
        }
    }
}

/// Serial reference for [`matmul_at_b_acc`]: the naive `p`-outer
/// streaming loop over the same `mul_add` chain.
pub fn matmul_at_b_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_at lhs length");
    assert_eq!(b.len(), k * n, "matmul_at rhs length");
    assert_eq!(c.len(), m * n, "matmul_at out length");
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv = av.mul_add(bv, *cv);
            }
        }
    }
}

/// Serial reference for [`matmul_a_bt_acc`]: the naive per-element dot
/// product, its `mul_add` chain starting at the entering value of `c`.
pub fn matmul_a_bt_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n, "matmul_bt lhs length");
    assert_eq!(b.len(), k * n, "matmul_bt rhs length");
    assert_eq!(c.len(), m * k, "matmul_bt out length");
    for (i, c_row) in c.chunks_mut(k).enumerate() {
        let a_row = &a[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * n..(j + 1) * n];
            for (&av, &bv) in a_row.iter().zip(b_row) {
                *cv = av.mul_add(bv, *cv);
            }
        }
    }
}

/// In-place numerically-stable softmax over contiguous rows of width
/// `width`. Rows are independent and run on pool threads in blocks.
///
/// # Panics
///
/// Panics if `width` is 0 or does not divide `data.len()`.
pub fn softmax_rows(data: &mut [f32], width: usize) {
    let _obs = OBS_SOFTMAX.start();
    assert!(width > 0, "softmax row width must be > 0");
    assert_eq!(
        data.len() % width,
        0,
        "softmax data not a multiple of width"
    );
    let rows = data.len() / width;
    let w = pool::workers_for(rows, 8 * width);
    if w <= 1 {
        for row in data.chunks_mut(width) {
            softmax_row(row);
        }
        return;
    }
    let block_rows = rows.div_ceil(w).max(1);
    let jobs: Vec<_> = data
        .chunks_mut(block_rows * width)
        .map(|block| {
            move || {
                for row in block.chunks_mut(width) {
                    softmax_row(row);
                }
            }
        })
        .collect();
    pool::run_jobs(jobs);
}

/// Per-row body shared by the serial and parallel paths of
/// [`softmax_rows`] and by the attention node.
#[inline]
pub(crate) fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Per-row body shared by the serial and parallel paths of
/// [`layer_norm_rows_rstd`]: normalizes the row in place and returns its
/// `rstd`.
#[inline]
fn layer_norm_row(row: &mut [f32], width: usize, eps: f32) -> f32 {
    let mean = row.iter().sum::<f32>() / width as f32;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / width as f32;
    let rstd = 1.0 / (var + eps).sqrt();
    for v in row.iter_mut() {
        *v = (*v - mean) * rstd;
    }
    rstd
}

/// Normalizes each row to zero mean / unit variance and writes the per-row
/// `rstd`, which the backward pass needs, into a caller-provided
/// (typically recycled) buffer. Row blocks run on pool threads, each
/// writing its own span of `rstd_out`.
///
/// # Panics
///
/// Panics if `width` is 0, does not divide `data.len()`, or `rstd_out` is
/// not exactly one element per row.
pub fn layer_norm_rows_rstd(data: &mut [f32], width: usize, eps: f32, rstd_out: &mut [f32]) {
    let _obs = OBS_LAYER_NORM.start();
    assert!(width > 0, "layer_norm row width must be > 0");
    assert_eq!(
        data.len() % width,
        0,
        "layer_norm data not a multiple of width"
    );
    let rows = data.len() / width;
    assert_eq!(rstd_out.len(), rows, "layer_norm rstd_out rows");
    let w = pool::workers_for(rows, 6 * width);
    if w <= 1 {
        for (row, rv) in data.chunks_mut(width).zip(rstd_out) {
            *rv = layer_norm_row(row, width, eps);
        }
        return;
    }
    let block_rows = rows.div_ceil(w).max(1);
    let jobs: Vec<_> = data
        .chunks_mut(block_rows * width)
        .zip(rstd_out.chunks_mut(block_rows))
        .map(|(block, rstd_block)| {
            move || {
                for (row, rv) in block.chunks_mut(width).zip(rstd_block) {
                    *rv = layer_norm_row(row, width, eps);
                }
            }
        })
        .collect();
    pool::run_jobs(jobs);
}

/// Backward of [`layer_norm_rows_rstd`]: given normalized outputs `y`, per-row
/// `rstd` and upstream gradient `dy`, accumulates `dx` into `dx_acc`. Row
/// blocks run on pool threads.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `y.len()` and `width`.
pub fn layer_norm_rows_backward(
    y: &[f32],
    rstd: &[f32],
    dy: &[f32],
    dx_acc: &mut [f32],
    width: usize,
) {
    let rows = y.len() / width;
    let _obs = OBS_LAYER_NORM_BWD.start();
    assert_eq!(rstd.len(), rows, "layer_norm backward rstd rows");
    assert_eq!(dy.len(), y.len(), "layer_norm backward dy length");
    assert_eq!(dx_acc.len(), y.len(), "layer_norm backward dx length");
    let workers = pool::workers_for(rows, 8 * width);
    if workers <= 1 {
        layer_norm_backward_block(y, rstd, dy, dx_acc, 0, width);
        return;
    }
    let block_rows = rows.div_ceil(workers).max(1);
    let jobs: Vec<_> = dx_acc
        .chunks_mut(block_rows * width)
        .enumerate()
        .map(|(blk, dx_block)| {
            move || layer_norm_backward_block(y, rstd, dy, dx_block, blk * block_rows, width)
        })
        .collect();
    pool::run_jobs(jobs);
}

/// Row-block body shared by the serial and parallel paths of
/// [`layer_norm_rows_backward`].
#[inline]
fn layer_norm_backward_block(
    y: &[f32],
    rstd: &[f32],
    dy: &[f32],
    dx_block: &mut [f32],
    r0: usize,
    width: usize,
) {
    let w = width as f32;
    for (local, dxs) in dx_block.chunks_mut(width).enumerate() {
        let r = r0 + local;
        let ys = &y[r * width..(r + 1) * width];
        let dys = &dy[r * width..(r + 1) * width];
        let sum_dy: f32 = dys.iter().sum();
        let sum_dy_y: f32 = dys.iter().zip(ys).map(|(a, b)| a * b).sum();
        for ((dx, &yv), &dyv) in dxs.iter_mut().zip(ys).zip(dys) {
            *dx += rstd[r] * (dyv - sum_dy / w - yv * sum_dy_y / w);
        }
    }
}

/// `dst[i] = f(src[i])` for every element, on pool threads for large
/// slices. `work_hint` is the approximate work units each application of
/// `f` costs (used by the pool's spawn threshold; e.g. ~16 for
/// [`tanh_fast`]-family activations).
///
/// # Panics
///
/// Panics if `src` and `dst` lengths differ.
pub fn map_into(src: &[f32], dst: &mut [f32], work_hint: usize, f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(src.len(), dst.len(), "map_into length mismatch");
    pool::for_blocks(dst, work_hint, |offset, block| {
        let len = block.len();
        for (d, &s) in block.iter_mut().zip(&src[offset..offset + len]) {
            *d = f(s);
        }
    });
}

/// `d[i] *= f(x[i])` for every element — the shape of the elementwise
/// backward rules (`dx = dy ⊙ f'(x)`) — on pool threads for large slices.
/// `work_hint` is the per-element cost of `f` in work units.
///
/// # Panics
///
/// Panics if `x` and `d` lengths differ.
pub fn mul_map_inplace(x: &[f32], d: &mut [f32], work_hint: usize, f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(x.len(), d.len(), "mul_map_inplace length mismatch");
    pool::for_blocks(d, work_hint, |offset, block| {
        let len = block.len();
        for (dv, &xv) in block.iter_mut().zip(&x[offset..offset + len]) {
            *dv *= f(xv);
        }
    });
}

/// Backward of [`softmax_rows`]: `dx = y ⊙ (dy - Σ(dy ⊙ y))` per row,
/// where `y` is the saved softmax output. Row blocks run on pool threads.
///
/// # Panics
///
/// Panics if `width` is 0 or the slice lengths disagree.
pub fn softmax_rows_backward(y: &[f32], dy: &[f32], dx: &mut [f32], width: usize) {
    let _obs = OBS_SOFTMAX_BWD.start();
    assert!(width > 0, "softmax backward width must be > 0");
    assert_eq!(dy.len(), y.len(), "softmax backward dy length");
    assert_eq!(dx.len(), y.len(), "softmax backward dx length");
    let rows = y.len() / width;
    let w = pool::workers_for(rows, 4 * width);
    if w <= 1 {
        softmax_backward_block(y, dy, dx, 0, width);
        return;
    }
    let block_rows = rows.div_ceil(w).max(1);
    let jobs: Vec<_> = dx
        .chunks_mut(block_rows * width)
        .enumerate()
        .map(|(blk, dx_block)| {
            move || softmax_backward_block(y, dy, dx_block, blk * block_rows * width, width)
        })
        .collect();
    pool::run_jobs(jobs);
}

/// Row-block body shared by the serial and parallel paths of
/// [`softmax_rows_backward`]; `at0` is the element offset of the block.
#[inline]
fn softmax_backward_block(y: &[f32], dy: &[f32], dx_block: &mut [f32], at0: usize, width: usize) {
    for (local, dxrow) in dx_block.chunks_mut(width).enumerate() {
        let at = at0 + local * width;
        let yrow = &y[at..at + width];
        let dyrow = &dy[at..at + width];
        let dot: f32 = yrow.iter().zip(dyrow).map(|(a, b)| a * b).sum();
        for ((d, &yv), &dyv) in dxrow.iter_mut().zip(yrow).zip(dyrow) {
            *d = yv * (dyv - dot);
        }
    }
}

/// Fast `tanh` via the order-7 continued-fraction rational
/// `x (135135 + 17325x² + 378x⁴ + x⁶) / (135135 + 62370x² + 3150x⁴ + 28x⁶)`,
/// clamped to ±1 beyond |x| ≈ 4.97 (where the rational crosses 1).
///
/// Absolute error is below ~2e-6 inside the clamp — numerically
/// indistinguishable from libm `tanh` for training, several times faster,
/// and hot: GELU and the LSTM gates evaluate it millions of times per
/// batch.
pub fn tanh_fast(x: f32) -> f32 {
    if x > 4.97 {
        1.0
    } else if x < -4.97 {
        -1.0
    } else {
        let u = x * x;
        let n = 135135.0 + u * (17325.0 + u * (378.0 + u));
        let d = 135135.0 + u * (62370.0 + u * (3150.0 + u * 28.0));
        x * n / d
    }
}

/// Derivative of [`tanh_fast`]. Because the rational tracks true `tanh` to
/// ~1e-6, the standard `1 - tanh²` identity is consistent with the forward
/// value to the same precision (0 in the clamped region).
pub fn tanh_fast_grad(x: f32) -> f32 {
    if !(-4.97..=4.97).contains(&x) {
        0.0
    } else {
        let t = tanh_fast(x);
        1.0 - t * t
    }
}

/// GELU activation (tanh approximation, as used by BERT).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + tanh_fast(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu`] (differentiating the implemented approximant, so
/// analytic and numeric gradients agree).
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = 0.044715 * x * x * x;
    let u = C * (x + x3);
    let t = tanh_fast(u);
    0.5 * (1.0 + t) + 0.5 * x * tanh_fast_grad(u) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Logistic sigmoid (via [`tanh_fast`]).
pub fn sigmoid(x: f32) -> f32 {
    0.5 * (1.0 + tanh_fast(0.5 * x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = [1., 2., 3., 4.];
        let b = [5., 6., 7., 8.];
        let mut c = [0.0f32; 4];
        matmul_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_accumulates() {
        let a = [1.0f32];
        let b = [2.0f32];
        let mut c = [10.0f32];
        matmul_acc(&a, &b, &mut c, 1, 1, 1);
        assert_eq!(c, [12.0]);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        // a is 3x2 stored (k=3, m=2); a^T is 2x3.
        let a = [1., 2., 3., 4., 5., 6.]; // rows: [1 2], [3 4], [5 6]
        let b = [1., 0., 0., 1., 1., 1.]; // 3x2
        let mut c = [0.0f32; 4]; // 2x2 = a^T(2x3) * b(3x2)
        matmul_at_b_acc(&a, &b, &mut c, 2, 3, 2);
        // a^T = [1 3 5; 2 4 6]; a^T*b = [[1+0+5, 0+3+5],[2+0+6, 0+4+6]]
        assert_eq!(c, [6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        // a: 2x3, b: 2x3 (interpreted as b^T: 3x2) => c: 2x2
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [1., 1., 0., 0., 1., 1.];
        let mut c = [0.0f32; 4];
        matmul_a_bt_acc(&a, &b, &mut c, 2, 3, 2);
        // row0 . brow0 = 1+2+0 = 3; row0 . brow1 = 0+2+3 = 5
        // row1 . brow0 = 4+5 = 9;   row1 . brow1 = 5+6 = 11
        assert_eq!(c, [3., 5., 9., 11.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut d = [1., 2., 3., 1000., 1000., 1000.];
        softmax_rows(&mut d, 3);
        let s0: f32 = d[..3].iter().sum();
        let s1: f32 = d[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
        assert!(d[3..].iter().all(|v| (v - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut d = [1., 2., 3., 4., 10., 20., 30., 40.];
        let mut rstds = [0.0f32; 2];
        layer_norm_rows_rstd(&mut d, 4, 1e-5, &mut rstds);
        // Row 1 is row 0 times 10: a tenth of the reciprocal stddev.
        assert!((rstds[0] / rstds[1] - 10.0).abs() < 1e-3);
        for row in d.chunks(4) {
            let m: f32 = row.iter().sum::<f32>() / 4.0;
            let v: f32 = row.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn tanh_fast_accuracy_and_continuity() {
        let mut x = -6.0f32;
        while x < 6.0 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            assert!(err < 1e-4, "x={x} err={err}");
            x += 0.01;
        }
        // Nearly continuous at the clamp boundary.
        assert!((tanh_fast(4.97) - 1.0).abs() < 1e-4);
        assert_eq!(tanh_fast(100.0), 1.0);
        assert_eq!(tanh_fast(-100.0), -1.0);
    }

    #[test]
    fn tanh_fast_grad_matches_finite_difference() {
        for &x in &[-4.0f32, -2.9, -1.0, -0.1, 0.0, 0.5, 1.5, 2.9, 4.0] {
            let eps = 1e-3;
            let num = (tanh_fast(x + eps) - tanh_fast(x - eps)) / (2.0 * eps);
            let ana = tanh_fast_grad(x);
            assert!(
                (ana - num).abs() < 2e-3,
                "x={x} analytic={ana} numeric={num}"
            );
        }
        assert_eq!(tanh_fast_grad(5.0), 0.0);
        assert!((tanh_fast_grad(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Large inputs saturate to identity / zero.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - num).abs() < 1e-2,
                "x={x} analytic={} numeric={num}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
    }
}
