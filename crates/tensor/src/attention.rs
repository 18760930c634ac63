//! Multi-head self-attention as one tape node: the passes behind
//! [`crate::Graph::attention`] and its hand-written backward.
//!
//! The input is the packed projection `qkv`, `[B·S, 3·inner]`: row `b·S + i`
//! holds token `i` of sequence `b`, its query, key and value side by side,
//! each `inner = heads·dh` wide, head `h` at columns `h·dh..(h+1)·dh`. Heads
//! are read and written in place through that row stride. A sequence's real
//! tokens come first, so per (sequence, head) only the `L × L` (query, key)
//! pairs among its `L` real tokens are computed; the pair buffers (saved
//! probabilities, dropout mask, score gradients) hold exactly those pairs,
//! sequence by sequence, head by head, row-major.
//!
//! Every product is one small GEMM per (sequence, head) through the packed
//! core ([`kernels::gemm_strided`]), its operands addressed by strides: one
//! `f32::mul_add` chain per output element, from 0 over the contraction
//! index in ascending order, the chain the unfused composition's batched
//! GEMMs gave each element. Each pass splits the sequences into contiguous
//! blocks over [`crate::pool`]; an element is computed by one thread in a
//! fixed order, so results do not depend on the thread count.

use crate::kernels;
use crate::pool;

/// Geometry of one attention node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Dims {
    /// Rows per sequence (`S`).
    pub(crate) seq: usize,
    /// Number of heads.
    pub(crate) heads: usize,
    /// Width of one head.
    pub(crate) dh: usize,
}

impl Dims {
    /// Width of the context, `heads·dh`.
    pub(crate) fn inner(self) -> usize {
        self.heads * self.dh
    }

    /// Row stride of `qkv`.
    fn width(self) -> usize {
        3 * self.inner()
    }

    fn scale(self) -> f32 {
        1.0 / (self.dh as f32).sqrt()
    }

    /// Length of a pair buffer over sequences of real lengths `lens`.
    pub(crate) fn pairs(self, lens: &[u32]) -> usize {
        lens.iter().map(|&l| self.heads * (l as usize).pow(2)).sum()
    }
}

/// Forward: `probs` (zeroed) receives the softmax of the scaled scores
/// (before dropout) and `out` (`[B·S, inner]`, zeroed) the context. `mask` is the
/// dropout mask over the same pairs, already scaled by `1/(1-p)`, or empty.
pub(crate) fn forward(
    qkv: &[f32],
    lens: &[u32],
    d: Dims,
    probs: &mut [f32],
    mask: &[f32],
    out: &mut [f32],
) {
    let (w, inner, dh) = (d.width(), d.inner(), d.dh);
    let flops = 2 * d.pairs(lens) * dh;
    {
        // scores = (q·kᵀ) · scale
        let _obs = kernels::OBS_MATMUL_A_BT.start();
        kernels::FLOPS_MATMUL_A_BT.add(flops);
        let scale = d.scale();
        for_each_head(lens, d, &mut [], 0, probs, |head, _, scores| {
            let (q, k) = (head.at(qkv, w, 0), head.at(qkv, w, inner));
            let len = head.len;
            kernels::gemm_strided(q, (w, 1), k, (1, w), scores, len, len, dh, len);
            for x in scores.iter_mut() {
                *x *= scale;
            }
        });
    }
    {
        let _obs = kernels::OBS_SOFTMAX.start();
        for_each_head(lens, d, &mut [], 0, probs, |head, _, p| {
            for row in p.chunks_exact_mut(head.len.max(1)) {
                kernels::softmax_row(row);
            }
        });
    }
    // ctx = dropout(probs)·v
    let _obs = kernels::OBS_MATMUL.start();
    kernels::FLOPS_MATMUL.add(flops);
    let probs = &*probs;
    for_each_head(lens, d, out, inner, &mut [], |head, rows, _| {
        let v = head.at(qkv, w, 2 * inner);
        let len = head.len;
        with_dropout(probs, mask, head, |p| {
            let ctx = head.rows_out(rows, 0, inner, dh);
            kernels::gemm_strided(p, (len, 1), v, (w, 1), ctx, inner, len, len, dh);
        });
    });
}

/// Backward: from the context gradient `dy` (`[B·S, inner]`) writes the
/// gradient of `qkv` into `dqkv` (zeroed). `ds` is zeroed scratch over the
/// pairs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    qkv: &[f32],
    lens: &[u32],
    d: Dims,
    probs: &[f32],
    mask: &[f32],
    dy: &[f32],
    ds: &mut [f32],
    dqkv: &mut [f32],
) {
    let (w, inner, dh) = (d.width(), d.inner(), d.dh);
    let flops = 2 * d.pairs(lens) * dh;
    {
        // The gradient of the dropped-out probabilities, dy·vᵀ.
        let _obs = kernels::OBS_MATMUL_A_BT.start();
        kernels::FLOPS_MATMUL_A_BT.add(flops);
        for_each_head(lens, d, &mut [], 0, ds, |head, _, dp| {
            let (dc, v) = (head.at(dy, inner, 0), head.at(qkv, w, 2 * inner));
            let len = head.len;
            kernels::gemm_strided(dc, (inner, 1), v, (1, w), dp, len, len, dh, len);
        });
    }
    {
        // Through the dropout, the softmax and the scale, row by row:
        // ds = (p ⊙ (g − Σ p ⊙ g)) · scale with g = dp ⊙ m.
        let _obs = kernels::OBS_SOFTMAX_BWD.start();
        let scale = d.scale();
        for_each_head(lens, d, &mut [], 0, ds, |head, _, g| {
            if !mask.is_empty() {
                for (g, &m) in g.iter_mut().zip(head.pairs(mask)) {
                    *g *= m;
                }
            }
            let width = head.len.max(1);
            for (g, p) in g
                .chunks_exact_mut(width)
                .zip(head.pairs(probs).chunks_exact(width))
            {
                let dot: f32 = p.iter().zip(g.iter()).map(|(a, b)| a * b).sum();
                for (g, &p) in g.iter_mut().zip(p) {
                    *g = p * (*g - dot) * scale;
                }
            }
        });
    }
    let ds = &*ds;
    {
        // dq = ds·k
        let _obs = kernels::OBS_MATMUL.start();
        kernels::FLOPS_MATMUL.add(flops);
        for_each_head(lens, d, dqkv, w, &mut [], |head, rows, _| {
            let (g, k) = (head.pairs(ds), head.at(qkv, w, inner));
            let len = head.len;
            let dq = head.rows_out(rows, 0, w, dh);
            kernels::gemm_strided(g, (len, 1), k, (w, 1), dq, w, len, len, dh);
        });
    }
    // dk = dsᵀ·q and dv = dropout(probs)ᵀ·dy
    let _obs = kernels::OBS_MATMUL_AT_B.start();
    kernels::FLOPS_MATMUL_AT_B.add(2 * flops);
    for_each_head(lens, d, dqkv, w, &mut [], |head, rows, _| {
        let (g, q) = (head.pairs(ds), head.at(qkv, w, 0));
        let len = head.len;
        let dk = head.rows_out(rows, inner, w, dh);
        kernels::gemm_strided(g, (1, len), q, (w, 1), dk, w, len, len, dh);
        let dc = head.at(dy, inner, 0);
        with_dropout(probs, mask, head, |p| {
            let dv = head.rows_out(rows, 2 * inner, w, dh);
            kernels::gemm_strided(p, (1, len), dc, (inner, 1), dv, w, len, len, dh);
        });
    });
}

/// One (sequence, head): its first row in `qkv`, its real length, its first
/// column within each of q, k and v, and where its pairs start.
#[derive(Clone, Copy)]
struct Head {
    row0: usize,
    len: usize,
    col: usize,
    pair0: usize,
}

impl Head {
    /// The head's columns at `offset` of a buffer with `[B·S]` rows of
    /// `stride`, from its sequence's first row on.
    fn at(self, buf: &[f32], stride: usize, offset: usize) -> &[f32] {
        &buf[self.row0 * stride + offset + self.col..]
    }

    /// The head's `len²` pairs of a pair buffer.
    fn pairs(self, buf: &[f32]) -> &[f32] {
        &buf[self.pair0..self.pair0 + self.len * self.len]
    }

    /// The head's `len` real rows of `dh` columns at `offset + col` in a
    /// sequence's rows of `stride`, as a GEMM output with that row stride.
    fn rows_out(self, rows: &mut [f32], offset: usize, stride: usize, dh: usize) -> &mut [f32] {
        if self.len == 0 {
            return &mut [];
        }
        let start = offset + self.col;
        &mut rows[start..start + (self.len - 1) * stride + dh]
    }
}

/// Runs `f(head, rows, pairs)` for every (sequence, head). `rows` is the
/// sequence's `S·row_width` slice of `rows_buf` and `pairs` the head's
/// `L²` slice of `pairs_buf`; a pass that writes only one of the two
/// passes the other empty. Contiguous blocks of sequences run on the pool.
fn for_each_head(
    lens: &[u32],
    d: Dims,
    rows_buf: &mut [f32],
    row_width: usize,
    pairs_buf: &mut [f32],
    f: impl Fn(Head, &mut [f32], &mut [f32]) + Sync,
) {
    let n = lens.len();
    let work = d.pairs(lens) * d.dh;
    let per = n.div_ceil(pool::workers_for(n, work / n.max(1))).max(1);
    let f = &f;
    let (mut rows_rest, mut pairs_rest) = (rows_buf, pairs_buf);
    let mut pair0 = 0;
    let mut jobs = Vec::new();
    for b0 in (0..n).step_by(per) {
        let block = &lens[b0..(b0 + per).min(n)];
        let rows = split_off(&mut rows_rest, block.len() * d.seq * row_width);
        let n_pairs = d.pairs(block);
        let pairs = split_off(&mut pairs_rest, n_pairs);
        let block_pair0 = pair0;
        pair0 += n_pairs;
        jobs.push(move || {
            let (mut rows, mut pairs, mut pair0) = (rows, pairs, block_pair0);
            for (k, &len) in block.iter().enumerate() {
                let len = len as usize;
                let seq_rows = split_off(&mut rows, d.seq * row_width);
                for h in 0..d.heads {
                    let head = Head {
                        row0: (b0 + k) * d.seq,
                        len,
                        col: h * d.dh,
                        pair0,
                    };
                    f(head, seq_rows, split_off(&mut pairs, len * len));
                    pair0 += len * len;
                }
            }
        });
    }
    pool::run_jobs(jobs);
}

/// Splits the first `n` elements off `buf`. An empty `buf` stays empty: the
/// buffer a pass does not write.
fn split_off<'a>(buf: &mut &'a mut [f32], n: usize) -> &'a mut [f32] {
    if buf.is_empty() {
        return &mut [];
    }
    let (head, tail) = std::mem::take(buf).split_at_mut(n);
    *buf = tail;
    head
}

thread_local! {
    /// The dropped-out probabilities of the head in hand.
    static DROPPED: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on the head's probabilities after dropout: `probs` itself
/// without a mask, else `p ⊙ m` in a thread-local scratch.
fn with_dropout(probs: &[f32], mask: &[f32], head: Head, f: impl FnOnce(&[f32])) {
    if mask.is_empty() {
        return f(head.pairs(probs));
    }
    DROPPED.with(|cell| {
        let dropped = &mut *cell.borrow_mut();
        dropped.clear();
        let kept = head.pairs(probs).iter().zip(head.pairs(mask));
        dropped.extend(kept.map(|(&p, &m)| p * m));
        f(dropped);
    });
}
