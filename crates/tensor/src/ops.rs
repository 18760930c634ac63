//! Operation records for the autograd tape and their backward rules.
//!
//! Backward rules draw every gradient buffer from the graph's
//! [`BufferPool`] and return consumed upstream gradients to it, so a
//! reused graph reaches an allocation-free steady state. Each rule is
//! annotated with whether its output buffer must be zeroed (accumulation /
//! partial writes) or may start with unspecified contents (every element
//! overwritten) — the distinction that keeps recycled buffers bit-identical
//! to fresh ones.

use crate::arena::BufferPool;
use crate::attention;
use crate::kernels;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// How the right-hand operand of an element-wise op is broadcast onto the
/// left-hand operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Broadcast {
    /// Identical shapes.
    None,
    /// RHS is a vector matching the last dimension of LHS (bias add).
    Row,
    /// RHS is a single element.
    Scalar,
}

/// A recorded operation. Each variant stores whatever forward-pass state its
/// backward rule needs (e.g. dropout masks, layer-norm reciprocal stddevs).
#[derive(Debug)]
pub(crate) enum Op {
    /// Graph input or parameter copy; no backward.
    Leaf,
    /// `a + b` with RHS broadcast.
    Add(Broadcast),
    /// `a * b` (element-wise) with RHS broadcast.
    Mul(Broadcast),
    /// Matrix product `a · b` with a rank-2 `b`, every leading dimension
    /// of `a` taken as rows.
    Matmul,
    /// Matrix product with the rank-2 RHS transposed in place (`a · bᵀ`),
    /// computed directly by the packed `a·bᵀ` kernel: the tied MLM decoder
    /// (`h·Eᵀ`) without materializing a transposed operand.
    MatmulABt,
    /// Shape change over the same data.
    Reshape,
    /// Concatenation of two tensors along the last dimension.
    ConcatLast,
    /// Sum of all elements to a scalar.
    Sum,
    /// Selection of one index along axis 1 of a rank-3 tensor
    /// (`[B, S, H] -> [B, H]`), used for `[CLS]` pooling.
    Select {
        /// Selected index along axis 1.
        index: usize,
        /// Extent of axis 1 in the input.
        axis_len: usize,
    },
    /// Mean cross-entropy from logits `[N, C]` against integer targets.
    CrossEntropy {
        /// Per-row class targets; rows equal to `ignore_index` are skipped.
        targets: Vec<i32>,
        /// Target value marking rows excluded from the loss.
        ignore_index: i32,
        /// Number of rows that participated in the loss.
        n_valid: usize,
        /// Softmax probabilities saved from the forward pass.
        probs: Vec<f32>,
    },
    /// Embedding-table row gather; input 0 is the `[V, H]` table.
    Embedding {
        /// Row index per output position.
        ids: Vec<u32>,
    },
    /// Zero-mean/unit-variance normalization of the last dimension
    /// (non-affine part of layer norm).
    NormalizeLast {
        /// Per-row reciprocal standard deviations from the forward pass.
        rstd: Vec<f32>,
    },
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Inverted dropout; the mask already includes the `1/(1-p)` scale.
    Dropout {
        /// Multiplicative mask applied in the forward pass.
        mask: Vec<f32>,
    },
    /// One LSTM layer over a whole time-major sequence (see
    /// [`crate::Graph::lstm_layer`]); inputs are the input projection
    /// `[S·B, 4H]`, the packed recurrent weights `[H, 4H]` and the packed
    /// biases `[4H]`, the output every step's hidden state `[S·B, H]`.
    LstmLayer {
        /// Rows per timestep.
        batch: usize,
        /// Per-row carry flag, time-major `[S·B]`: 1 on a real token, 0 on
        /// padding (the row keeps its previous state).
        keep: Vec<f32>,
        /// Forward state for BPTT, time-major: the gates' `tanh_fast`
        /// values `[S·B, 4H]` (of `z/2` for i, f, o, of `z` for g), then
        /// `tanh_fast(c)` and the carried cell state, `[S·B, H]` each.
        saved: Vec<f32>,
    },
    /// Multi-head self-attention over each sequence's real tokens (see
    /// [`crate::Graph::attention`]); the input is the packed projection
    /// `[B·S, 3·inner]`, the output the context `[B·S, inner]`.
    Attention {
        /// Number of heads.
        heads: usize,
        /// Real length of each sequence.
        lens: Vec<u32>,
        /// Softmax probabilities of every real (query, key) pair, before
        /// dropout (layout in [`crate::attention`]).
        probs: Vec<f32>,
        /// Dropout mask over the same pairs, scaled by `1/(1-p)`; empty
        /// when dropout was off.
        mask: Vec<f32>,
    },
}

/// A node on the tape: the operation and its input node ids. Forward
/// values live in the graph's parallel `values` array so metadata and
/// value storage recycle independently across [`crate::Graph::reset`].
///
/// No op takes more than three inputs, so the ids are stored inline —
/// pushing a node never allocates.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) op: Op,
    ins: [usize; 3],
    n_ins: u8,
}

impl Node {
    /// Creates a node record for `op` over the given input node ids.
    pub(crate) fn new(op: Op, inputs: &[usize]) -> Self {
        debug_assert!(inputs.len() <= 3, "ops take at most three inputs");
        let mut ins = [0usize; 3];
        ins[..inputs.len()].copy_from_slice(inputs);
        Node {
            op,
            ins,
            n_ins: inputs.len() as u8,
        }
    }

    /// The input node ids.
    pub(crate) fn inputs(&self) -> &[usize] {
        &self.ins[..self.n_ins as usize]
    }
}

/// Adds `contrib` into the gradient slot for node `id`. When the slot is
/// already populated the contribution's buffer is recycled after the
/// accumulation.
pub(crate) fn accumulate(
    grads: &mut [Option<Tensor>],
    pool: &mut BufferPool,
    id: usize,
    contrib: Tensor,
) {
    match &mut grads[id] {
        Some(g) => {
            g.axpy(1.0, &contrib);
            pool.recycle(contrib);
        }
        slot @ None => *slot = Some(contrib),
    }
}

/// Reduces a full-shape gradient back to the shape of a broadcast RHS,
/// leaving `full` intact (the caller still needs it).
fn reduce_for_broadcast(
    pool: &mut BufferPool,
    full: &Tensor,
    bcast: Broadcast,
    rhs_shape: Shape,
) -> Tensor {
    match bcast {
        Broadcast::None => pool.tensor_copy(full),
        Broadcast::Scalar => {
            let mut t = pool.tensor_uninit(rhs_shape);
            t.data_mut()[0] = full.sum();
            t
        }
        Broadcast::Row => {
            let width = full.shape().last_dim();
            let mut t = pool.tensor_zeroed(rhs_shape);
            let acc = t.data_mut();
            for row in full.data().chunks(width) {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            t
        }
    }
}

/// Like [`reduce_for_broadcast`] but consumes `full`: with no broadcast it
/// is returned as-is, otherwise its buffer is recycled after the reduction.
fn reduce_for_broadcast_owned(
    pool: &mut BufferPool,
    full: Tensor,
    bcast: Broadcast,
    rhs_shape: Shape,
) -> Tensor {
    match bcast {
        Broadcast::None => full,
        Broadcast::Scalar | Broadcast::Row => {
            let reduced = reduce_for_broadcast(pool, &full, bcast, rhs_shape);
            pool.recycle(full);
            reduced
        }
    }
}

/// Applies the backward rule of node `id`, accumulating into the gradients
/// of its inputs. `grads[id]` must already contain the upstream gradient;
/// it is consumed (and its buffer recycled or reused) except for leaves,
/// which keep theirs for later retrieval.
pub(crate) fn backward_node(
    nodes: &[Node],
    values: &[Tensor],
    grads: &mut [Option<Tensor>],
    pool: &mut BufferPool,
    id: usize,
) {
    let node = &nodes[id];
    let dy = match grads[id].take() {
        Some(g) => g,
        None => return,
    };
    let ins = node.inputs();
    match &node.op {
        Op::Leaf => {
            // Restore: leaves keep their gradient for later retrieval.
            grads[id] = Some(dy);
        }
        Op::Add(bcast) => {
            let rhs_shape = *values[ins[1]].shape();
            let db = reduce_for_broadcast(pool, &dy, *bcast, rhs_shape);
            accumulate(grads, pool, ins[1], db);
            accumulate(grads, pool, ins[0], dy);
        }
        Op::Mul(bcast) => {
            let a = &values[ins[0]];
            let b = &values[ins[1]];
            // da = dy * b (with b broadcast), db = reduce(dy * a)
            let mut da = pool.tensor_copy(&dy);
            match bcast {
                Broadcast::None => {
                    for (x, &bv) in da.data_mut().iter_mut().zip(b.data()) {
                        *x *= bv;
                    }
                }
                Broadcast::Scalar => {
                    let c = b.data()[0];
                    for x in da.data_mut() {
                        *x *= c;
                    }
                }
                Broadcast::Row => {
                    let width = a.shape().last_dim();
                    for row in da.data_mut().chunks_mut(width) {
                        for (x, &bv) in row.iter_mut().zip(b.data()) {
                            *x *= bv;
                        }
                    }
                }
            }
            let rhs_shape = *b.shape();
            // dyxa reuses the upstream gradient's buffer directly.
            let mut dyxa = dy;
            for (x, &av) in dyxa.data_mut().iter_mut().zip(a.data()) {
                *x *= av;
            }
            let db = reduce_for_broadcast_owned(pool, dyxa, *bcast, rhs_shape);
            accumulate(grads, pool, ins[1], db);
            accumulate(grads, pool, ins[0], da);
        }
        Op::Matmul => {
            let a = &values[ins[0]];
            let b = &values[ins[1]];
            let (batch, m, k) = a.shape().as_batched_matrix();
            let n = b.shape().last_dim();
            let rows = batch * m;
            // da = dy · bᵀ ; db = aᵀ · dy over all rows at once. The packing
            // strides absorb the transposes — no transposed copy of `b` is
            // built.
            // Zeroed: the kernels accumulate into these.
            let mut da = pool.tensor_zeroed(*a.shape());
            let mut db = pool.tensor_zeroed(*b.shape());
            kernels::matmul_a_bt_acc(dy.data(), b.data(), da.data_mut(), rows, n, k);
            kernels::matmul_at_b_acc(a.data(), dy.data(), db.data_mut(), k, rows, n);
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], da);
            accumulate(grads, pool, ins[1], db);
        }
        Op::MatmulABt => {
            // y = a · bᵀ with a `[.., nc]` (rows m), b `[kr, nc]`, dy `[.., kr]`:
            //   da = dy · b          (plain matmul)
            //   db = dyᵀ · a         (lands directly in b's layout)
            let a = &values[ins[0]];
            let b = &values[ins[1]];
            let (batch, m, nc) = a.shape().as_batched_matrix();
            let kr = b.dims()[0];
            let rows = batch * m;
            let mut da = pool.tensor_zeroed(*a.shape());
            let mut db = pool.tensor_zeroed(*b.shape());
            kernels::matmul_acc(dy.data(), b.data(), da.data_mut(), rows, kr, nc);
            kernels::matmul_at_b_acc(dy.data(), a.data(), db.data_mut(), kr, rows, nc);
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], da);
            accumulate(grads, pool, ins[1], db);
        }
        Op::Reshape => {
            // Zero-copy: the gradient keeps its buffer under the input
            // shape (same element count by construction).
            let in_shape = *values[ins[0]].shape();
            let dx = Tensor::from_raw(in_shape, dy.into_data());
            accumulate(grads, pool, ins[0], dx);
        }
        Op::ConcatLast => {
            let a = &values[ins[0]];
            let b = &values[ins[1]];
            let wa = a.shape().last_dim();
            let wb = b.shape().last_dim();
            // Uninit: every row of both outputs is fully copied below.
            let mut da = pool.tensor_uninit(*a.shape());
            let mut db = pool.tensor_uninit(*b.shape());
            for (row, (dra, drb)) in dy.data().chunks(wa + wb).zip(
                da.data_mut()
                    .chunks_mut(wa)
                    .zip(db.data_mut().chunks_mut(wb)),
            ) {
                dra.copy_from_slice(&row[..wa]);
                drb.copy_from_slice(&row[wa..]);
            }
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], da);
            accumulate(grads, pool, ins[1], db);
        }
        Op::Sum => {
            let g = dy.item();
            pool.recycle(dy);
            let dx = pool.tensor_full(*values[ins[0]].shape(), g);
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Select { index, axis_len } => {
            let src_shape = *values[ins[0]].shape();
            let dims = src_shape.dims();
            let (b, s, h) = (dims[0], dims[1], dims[2]);
            debug_assert_eq!(s, *axis_len);
            // Zeroed: only the selected rows are written.
            let mut dx = pool.tensor_zeroed(src_shape);
            for bi in 0..b {
                let dst = &mut dx.data_mut()[(bi * s + index) * h..(bi * s + index + 1) * h];
                dst.copy_from_slice(&dy.data()[bi * h..(bi + 1) * h]);
            }
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], dx);
        }
        Op::CrossEntropy {
            targets,
            ignore_index,
            n_valid,
            probs,
        } => {
            let logits_shape = *values[ins[0]].shape();
            let classes = logits_shape.last_dim();
            let scale = dy.item() / (*n_valid).max(1) as f32;
            pool.recycle(dy);
            // Zeroed: ignored rows must keep zero gradient.
            let mut dx = pool.tensor_zeroed(logits_shape);
            for (row, &t) in targets.iter().enumerate() {
                if t == *ignore_index {
                    continue;
                }
                let p = &probs[row * classes..(row + 1) * classes];
                let d = &mut dx.data_mut()[row * classes..(row + 1) * classes];
                for (j, (dv, &pv)) in d.iter_mut().zip(p).enumerate() {
                    let y = if j as i32 == t { 1.0 } else { 0.0 };
                    *dv = (pv - y) * scale;
                }
            }
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Embedding { ids } => {
            let table_shape = *values[ins[0]].shape();
            let h = table_shape.last_dim();
            // Zeroed: the scatter accumulates into gathered rows only.
            let mut dt = pool.tensor_zeroed(table_shape);
            for (pos, &id) in ids.iter().enumerate() {
                let dst = &mut dt.data_mut()[id as usize * h..(id as usize + 1) * h];
                let src = &dy.data()[pos * h..(pos + 1) * h];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], dt);
        }
        Op::NormalizeLast { rstd } => {
            let y = &values[id];
            let width = y.shape().last_dim();
            // Zeroed: the kernel accumulates (`+=`) into dx.
            let mut dx = pool.tensor_zeroed(*y.shape());
            kernels::layer_norm_rows_backward(y.data(), rstd, dy.data(), dx.data_mut(), width);
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Tanh => {
            // Differentiates the tanh_fast approximant (from the saved
            // input), keeping analytic and numeric gradients consistent.
            let x = &values[ins[0]];
            let mut dx = dy;
            kernels::mul_map_inplace(x.data(), dx.data_mut(), 16, kernels::tanh_fast_grad);
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Sigmoid => {
            // sigmoid(x) = (1 + tanh_fast(x/2)) / 2 → s'(x) = P'(x/2) / 4.
            let x = &values[ins[0]];
            let mut dx = dy;
            kernels::mul_map_inplace(x.data(), dx.data_mut(), 16, |xv| {
                0.25 * kernels::tanh_fast_grad(0.5 * xv)
            });
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Gelu => {
            let x = &values[ins[0]];
            let mut dx = dy;
            kernels::mul_map_inplace(x.data(), dx.data_mut(), 32, kernels::gelu_grad);
            accumulate(grads, pool, ins[0], dx);
        }
        Op::Dropout { mask } => {
            let mut dx = dy;
            crate::pool::for_blocks(dx.data_mut(), 2, |offset, block| {
                let len = block.len();
                for (d, &m) in block.iter_mut().zip(&mask[offset..offset + len]) {
                    *d *= m;
                }
            });
            accumulate(grads, pool, ins[0], dx);
        }
        Op::LstmLayer { batch, keep, saved } => {
            lstm_layer_backward(values, grads, pool, id, ins, *batch, keep, saved, dy);
        }
        Op::Attention {
            heads,
            lens,
            probs,
            mask,
        } => {
            let qkv = &values[ins[0]];
            let dims = qkv.dims();
            let d = attention::Dims {
                seq: dims[0] / lens.len(),
                heads: *heads,
                dh: dims[1] / (3 * heads),
            };
            // Zeroed: the products accumulate into both, and padded rows
            // keep a zero gradient.
            let mut ds = pool.take_f32_zeroed(probs.len());
            let mut dqkv = pool.tensor_zeroed(*qkv.shape());
            attention::backward(
                qkv.data(),
                lens,
                d,
                probs,
                mask,
                dy.data(),
                &mut ds,
                dqkv.data_mut(),
            );
            pool.give_f32(ds);
            pool.recycle(dy);
            accumulate(grads, pool, ins[0], dqkv);
        }
    }
}

/// Backpropagation through time for one [`Op::LstmLayer`] node.
///
/// Walks the steps last to first. Each step writes its pre-activation
/// gradient `dZ_t` — which is also the input projection's gradient — and
/// hands `dh` and `dc` to the step before it; the hidden-state carry costs
/// one `dZ_t · Whᵀ` GEMM. After the walk, the recurrent weights take a
/// single `H_prevᵀ · dZ` GEMM over all steps and the biases a column sum
/// of `dZ`. The gate and cell derivatives are those of the `tanh_fast`
/// approximants at the forward pre-activations, taken from the saved
/// `tanh_fast` values: `tanh_fast'(x) = 1 - tanh_fast(x)²` (exactly 0 where
/// it clamps to ±1), and `sigmoid'(x) = (1 - tanh_fast(x/2)²) / 4` — the
/// values [`Op::Tanh`] and [`Op::Sigmoid`] compute.
#[allow(clippy::too_many_arguments)]
fn lstm_layer_backward(
    values: &[Tensor],
    grads: &mut [Option<Tensor>],
    pool: &mut BufferPool,
    id: usize,
    ins: &[usize],
    batch: usize,
    keep: &[f32],
    saved: &[f32],
    dy: Tensor,
) {
    let out = values[id].data();
    let wh = &values[ins[1]];
    let h = values[id].shape().last_dim();
    let (rows, h4) = (keep.len(), 4 * h);
    let (tanh_z, rest) = saved.split_at(rows * h4);
    let (tanh_c, c_carry) = rest.split_at(rows * h);
    // `dZ_t · Whᵀ` for every step: pack `Whᵀ` once.
    let mut wht_packed = pool.take_f32(h * h4);
    kernels::pack_rhs(wh.data(), 1, h4, h4, h, &mut wht_packed);
    // Uninit: every row is assigned by its step below.
    let mut dz = pool.tensor_uninit(Shape::new(&[rows, h4]));
    // Gradients carried from step t+1 into step t (zero past the end), and
    // the cell state before the first step.
    let mut dh = pool.take_f32_zeroed(batch * h);
    let mut dc = pool.take_f32_zeroed(batch * h);
    let zeros = pool.take_f32_zeroed(batch * h);
    for t in (0..rows / batch).rev() {
        let r0 = t * batch;
        let dz_t = &mut dz.data_mut()[r0 * h4..(r0 + batch) * h4];
        for bi in 0..batch {
            let r = r0 + bi;
            let (k, hold) = (keep[r], 1.0 - keep[r]);
            let tz = &tanh_z[r * h4..(r + 1) * h4];
            let (ti, tf, g_g, to) = (&tz[..h], &tz[h..2 * h], &tz[2 * h..3 * h], &tz[3 * h..]);
            let tc = &tanh_c[r * h..(r + 1) * h];
            let row = bi * h..(bi + 1) * h;
            let cp = if t == 0 {
                &zeros[row.clone()]
            } else {
                &c_carry[(r - batch) * h..(r - batch + 1) * h]
            };
            let dyr = &dy.data()[r * h..(r + 1) * h];
            let (dhr, dcr) = (&mut dh[row.clone()], &mut dc[row]);
            let dzr = &mut dz_t[bi * h4..(bi + 1) * h4];
            let (dz_if, dz_go) = dzr.split_at_mut(2 * h);
            let (dz_i, dz_f) = dz_if.split_at_mut(h);
            let (dz_g, dz_o) = dz_go.split_at_mut(h);
            for j in 0..h {
                let (i_g, f_g) = (0.5 * (1.0 + ti[j]), 0.5 * (1.0 + tf[j]));
                let o_g = 0.5 * (1.0 + to[j]);
                let dht = dyr[j] + dhr[j];
                let dct = dcr[j];
                let dh_new = dht * k;
                let dc_new = dct * k + dh_new * o_g * (1.0 - tc[j] * tc[j]);
                dz_i[j] = dc_new * g_g[j] * (0.25 * (1.0 - ti[j] * ti[j]));
                dz_f[j] = dc_new * cp[j] * (0.25 * (1.0 - tf[j] * tf[j]));
                dz_g[j] = dc_new * i_g * (1.0 - g_g[j] * g_g[j]);
                dz_o[j] = dh_new * tc[j] * (0.25 * (1.0 - to[j] * to[j]));
                dcr[j] = dct * hold + dc_new * f_g;
                dhr[j] = dht * hold;
            }
        }
        if t > 0 {
            kernels::matmul_packed_acc(dz_t, &wht_packed, &mut dh, batch, h4, h);
        }
    }
    pool.give_f32(wht_packed);
    pool.give_f32(zeros);
    pool.give_f32(dh);
    pool.give_f32(dc);
    pool.recycle(dy);
    // Zeroed: both are accumulated into.
    let mut dwh = pool.tensor_zeroed(*wh.shape());
    if rows > batch {
        let prev = rows - batch;
        kernels::matmul_at_b_acc(
            &out[..prev * h],
            &dz.data()[batch * h4..],
            dwh.data_mut(),
            h,
            prev,
            h4,
        );
    }
    let mut db = pool.tensor_zeroed(Shape::new(&[h4]));
    for row in dz.data().chunks(h4) {
        for (a, &v) in db.data_mut().iter_mut().zip(row) {
            *a += v;
        }
    }
    accumulate(grads, pool, ins[1], dwh);
    accumulate(grads, pool, ins[2], db);
    accumulate(grads, pool, ins[0], dz);
}
