//! The autograd tape: forward-op construction and reverse-mode backward.

use crate::arena::{BufferPool, PARKED};
use crate::attention;
use crate::kernels;
use crate::ops::{accumulate, backward_node, Broadcast, Node, Op};
use crate::optim::{ParamId, Params};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Handle to a node on a [`Graph`] tape.
///
/// A `Var` is only meaningful for the graph — and the graph *generation* —
/// that produced it: [`Graph::reset`] invalidates all outstanding handles.
/// Using a stale handle panics in debug builds (generation check) instead
/// of silently indexing a recycled node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) idx: usize,
    pub(crate) gen: u32,
}

/// A reverse-mode automatic-differentiation tape.
///
/// A `Graph` is built per forward pass (the "define-by-run" style): each
/// operation appends a node holding its result, and [`Graph::backward`]
/// walks the tape in reverse applying each node's gradient rule.
/// Parameters enter the graph via [`Graph::param`], and their gradients are
/// exported back to the [`Params`] store with [`Graph::grads_into`].
///
/// Rather than constructing a fresh graph per training step, call
/// [`Graph::reset`] between steps: the tape is cleared but every buffer it
/// owned (values, gradients, dropout masks, saved statistics) is retained
/// in an internal pool and recycled by the next step's ops, so steady-state
/// training performs almost no heap allocation. `reset` also replays the
/// dropout RNG from the stored seed, making a reused graph bit-identical
/// to a freshly constructed one.
///
/// # Example
///
/// ```
/// use clinfl_tensor::{Graph, Tensor};
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_vec(&[2], vec![3.0, 4.0])?);
/// let sq = g.mul(x, x);
/// let loss = g.sum(sq); // x0^2 + x1^2
/// g.backward(loss);
/// assert_eq!(g.grad(x).unwrap().data(), &[6.0, 8.0]); // d/dx = 2x
/// # Ok::<(), clinfl_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    param_links: Vec<(usize, ParamId)>,
    training: bool,
    rng: StdRng,
    seed: u64,
    generation: u32,
    pool: BufferPool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape in training mode (dropout active) with a fixed
    /// default seed for dropout masks.
    pub fn new() -> Self {
        Self::with_seed(0x5eed)
    }

    /// Creates an empty tape with an explicit dropout seed.
    pub fn with_seed(seed: u64) -> Self {
        Graph {
            nodes: Vec::new(),
            values: Vec::new(),
            grads: Vec::new(),
            param_links: Vec::new(),
            training: true,
            rng: StdRng::seed_from_u64(seed),
            seed,
            generation: 0,
            pool: BufferPool::default(),
        }
    }

    /// Clears the tape for the next step, recycling every buffer it owned
    /// into the internal pool, and reseeds the dropout RNG with `seed`.
    ///
    /// After this call the graph is observationally identical to
    /// [`Graph::with_seed`]`(seed)` (the training-mode flag is preserved),
    /// except that subsequent ops draw their buffers from the pool instead
    /// of the allocator. All outstanding [`Var`] handles become stale.
    ///
    /// A graph that holds no buffer at all at this point — a new one, or
    /// one that [`park`](Graph::park)ed its pool — adopts the pool parked
    /// longest ago, if there is one.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.clear_tape(seed);
        if self.pool.is_empty() {
            if let Some(pool) = PARKED.adopt() {
                self.pool = pool;
            }
        }
    }

    /// Clears the tape and hands the buffer pool to the process-wide queue
    /// of parked pools, where the next graph to reset with an empty pool
    /// adopts it (oldest first). Call it when a unit of work ends and the
    /// graph will sit idle, e.g. a federated site between two tasks: the
    /// process then keeps one pool per thread that computes rather than
    /// one per graph. At most [`crate::pool::num_threads`] pools stay
    /// parked; the oldest beyond that are freed.
    ///
    /// The graph stays usable and its results do not change: a pool's
    /// contents are never observable. A graph that is never parked keeps
    /// its pool for life.
    pub fn park(&mut self) {
        self.clear_tape(self.seed);
        PARKED.park(std::mem::take(&mut self.pool), crate::pool::num_threads());
    }

    fn clear_tape(&mut self, seed: u64) {
        self.generation = self.generation.wrapping_add(1);
        for v in self.values.drain(..) {
            self.pool.recycle(v);
        }
        for node in self.nodes.drain(..) {
            match node.op {
                Op::Dropout { mask } => self.pool.give_f32(mask),
                Op::CrossEntropy { targets, probs, .. } => {
                    self.pool.give_f32(probs);
                    self.pool.give_i32(targets);
                }
                Op::Embedding { ids } => self.pool.give_u32(ids),
                Op::NormalizeLast { rstd } => self.pool.give_f32(rstd),
                Op::LstmLayer { keep, saved, .. } => {
                    self.pool.give_f32(keep);
                    self.pool.give_f32(saved);
                }
                Op::Attention {
                    lens, probs, mask, ..
                } => {
                    self.pool.give_u32(lens);
                    self.pool.give_f32(probs);
                    self.pool.give_f32(mask);
                }
                _ => {}
            }
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
        self.param_links.clear();
        self.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        // Everything is back in the pool: publish hit/miss deltas and the
        // held-bytes high-water mark to the global obs registry once per
        // step (metrics only — no effect on graph state).
        self.pool.publish_obs();
    }

    /// [`Graph::reset_with_seed`] with the seed the graph was created (or
    /// last reset) with, replaying the same dropout streams.
    pub fn reset(&mut self) {
        let seed = self.seed;
        self.reset_with_seed(seed);
    }

    /// Switches between training mode (dropout active) and evaluation mode
    /// (dropout is the identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resolves a handle to its node index, checking (in debug builds) that
    /// it belongs to the current tape generation.
    #[inline]
    fn chk(&self, v: Var) -> usize {
        debug_assert_eq!(
            v.gen, self.generation,
            "stale Var used after Graph::reset()"
        );
        v.idx
    }

    fn push(&mut self, op: Op, inputs: &[usize], value: Tensor) -> Var {
        self.nodes.push(Node::new(op, inputs));
        self.values.push(value);
        Var {
            idx: self.nodes.len() - 1,
            gen: self.generation,
        }
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[self.chk(v)]
    }

    /// Gradient of a leaf variable after [`Graph::backward`]; `None` if the
    /// variable did not receive a gradient.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        let idx = self.chk(v);
        self.grads.get(idx).and_then(|g| g.as_ref())
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Adds a constant input (leaf) to the tape, taking ownership of `t`
    /// as-is.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, &[], t)
    }

    /// Adds a parameter (leaf) to the tape, copying its current value from
    /// the store and remembering the link so [`Graph::grads_into`] can route
    /// the gradient back.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        let value = self.pool.tensor_copy(params.value(id));
        let v = self.push(Op::Leaf, &[], value);
        self.param_links.push((v.idx, id));
        v
    }

    // ------------------------------------------------------------------
    // Element-wise & scalar ops
    // ------------------------------------------------------------------

    fn broadcast_kind(&self, a: Var, b: Var, what: &str) -> Broadcast {
        let sa = self.values[self.chk(a)].shape();
        let sb = self.values[self.chk(b)].shape();
        if sa == sb {
            Broadcast::None
        } else if sb.numel() == 1 {
            Broadcast::Scalar
        } else if sb.rank() == 1 && sb.last_dim() == sa.last_dim() {
            Broadcast::Row
        } else {
            panic!("{what}: cannot broadcast {sb} onto {sa}");
        }
    }

    fn apply_broadcast(
        pool: &mut BufferPool,
        a: &Tensor,
        b: &Tensor,
        bcast: Broadcast,
        f: impl Fn(f32, f32) -> f32,
    ) -> Tensor {
        let mut out = pool.tensor_copy(a);
        match bcast {
            Broadcast::None => {
                for (o, &bv) in out.data_mut().iter_mut().zip(b.data()) {
                    *o = f(*o, bv);
                }
            }
            Broadcast::Scalar => {
                let bv = b.data()[0];
                for o in out.data_mut() {
                    *o = f(*o, bv);
                }
            }
            Broadcast::Row => {
                let width = a.shape().last_dim();
                for row in out.data_mut().chunks_mut(width) {
                    for (o, &bv) in row.iter_mut().zip(b.data()) {
                        *o = f(*o, bv);
                    }
                }
            }
        }
        out
    }

    /// `a + b`. `b` may be the same shape, a scalar, or a last-dim vector.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let bcast = self.broadcast_kind(a, b, "add");
        let (ia, ib) = (self.chk(a), self.chk(b));
        let value = Self::apply_broadcast(
            &mut self.pool,
            &self.values[ia],
            &self.values[ib],
            bcast,
            |x, y| x + y,
        );
        self.push(Op::Add(bcast), &[ia, ib], value)
    }

    /// Element-wise `a * b`, with the same broadcasting rules as
    /// [`Graph::add`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let bcast = self.broadcast_kind(a, b, "mul");
        let (ia, ib) = (self.chk(a), self.chk(b));
        let value = Self::apply_broadcast(
            &mut self.pool,
            &self.values[ia],
            &self.values[ib],
            bcast,
            |x, y| x * y,
        );
        self.push(Op::Mul(bcast), &[ia, ib], value)
    }

    // ------------------------------------------------------------------
    // Linear algebra & shape
    // ------------------------------------------------------------------

    /// Matrix product `a[.., M, K] · b[K, N] -> [.., M, N]`: the rows of
    /// every leading dimension of `a` form one GEMM against the shared `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is below rank 2, `b` is not rank-2, or the inner
    /// dimensions differ.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (ia, ib) = (self.chk(a), self.chk(b));
        let out_shape = self.values[ia].matmul_shape(&self.values[ib]);
        // Zeroed: the matmul kernel accumulates into its output.
        let mut value = self.pool.tensor_zeroed(out_shape);
        self.values[ia].matmul_into(&self.values[ib], &mut value);
        self.push(Op::Matmul, &[ia, ib], value)
    }

    /// Matrix product with the right operand transposed in place:
    /// `a[.., M, K] · b[N, K]ᵀ -> [.., M, N]`. The packed `a·bᵀ` kernel
    /// absorbs the transpose into its packing strides, so no transposed
    /// copy of `b` (or of its gradient) is ever materialized. This is the
    /// tied-decoder (`h·Eᵀ`) fast path.
    ///
    /// # Panics
    ///
    /// Panics if `a` is below rank 2, `b` is not rank-2, or the inner
    /// dimensions differ.
    pub fn matmul_bt(&mut self, a: Var, b: Var) -> Var {
        let (ia, ib) = (self.chk(a), self.chk(b));
        let out_shape = self.values[ia].matmul_bt_shape(&self.values[ib]);
        // Zeroed: the kernel accumulates into its output.
        let mut value = self.pool.tensor_zeroed(out_shape);
        self.values[ia].matmul_bt_into(&self.values[ib], &mut value);
        self.push(Op::MatmulABt, &[ia, ib], value)
    }

    /// Reshapes to `dims` (same element count).
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let ia = self.chk(a);
        let src = &self.values[ia];
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            src.numel(),
            "reshape from {} to {shape} changes element count",
            src.shape()
        );
        let mut value = self.pool.tensor_uninit(shape);
        value.data_mut().copy_from_slice(self.values[ia].data());
        self.push(Op::Reshape, &[ia], value)
    }

    /// Selects `[:, index, :]` from a rank-3 tensor (`[B, S, H] -> [B, H]`),
    /// e.g. the `[CLS]` position.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-3 or `index` is out of bounds.
    pub fn select_axis1(&mut self, a: Var, index: usize) -> Var {
        let ia = self.chk(a);
        let src = &self.values[ia];
        let dims = src.dims();
        assert_eq!(dims.len(), 3, "select_axis1 requires rank-3 input");
        let (b, s, h) = (dims[0], dims[1], dims[2]);
        assert!(index < s, "select_axis1 index {index} out of bounds {s}");
        // Uninit: every output row is fully copied.
        let mut out = self.pool.tensor_uninit(Shape::new(&[b, h]));
        let src = &self.values[ia];
        for bi in 0..b {
            out.data_mut()[bi * h..(bi + 1) * h]
                .copy_from_slice(&src.data()[(bi * s + index) * h..(bi * s + index + 1) * h]);
        }
        self.push(Op::Select { index, axis_len: s }, &[ia], out)
    }

    /// Concatenates two tensors along the last dimension. All leading
    /// dimensions must match.
    ///
    /// # Panics
    ///
    /// Panics if the leading dimensions differ.
    pub fn concat_last(&mut self, a: Var, b: Var) -> Var {
        let (ia, ib) = (self.chk(a), self.chk(b));
        let (sa, sb) = (*self.values[ia].shape(), *self.values[ib].shape());
        assert_eq!(
            sa.dims()[..sa.rank() - 1],
            sb.dims()[..sb.rank() - 1],
            "concat_last leading dims differ: {sa} vs {sb}"
        );
        let (wa, wb) = (sa.last_dim(), sb.last_dim());
        // Uninit: every output row is fully written.
        let mut out = self.pool.tensor_uninit(sa.with_last(wa + wb));
        let av = &self.values[ia];
        let bv = &self.values[ib];
        for ((row, ra), rb) in out
            .data_mut()
            .chunks_mut(wa + wb)
            .zip(av.data().chunks(wa))
            .zip(bv.data().chunks(wb))
        {
            row[..wa].copy_from_slice(ra);
            row[wa..].copy_from_slice(rb);
        }
        self.push(Op::ConcatLast, &[ia, ib], out)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let ia = self.chk(a);
        let v = self.values[ia].sum();
        let value = self.pool.tensor_full(Shape::new(&[]), v);
        self.push(Op::Sum, &[ia], value)
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// `tanh(a)` (fast Padé approximation; see
    /// [`kernels::tanh_fast`](crate::kernels::tanh_fast)).
    pub fn tanh(&mut self, a: Var) -> Var {
        let ia = self.chk(a);
        let mut value = self.pool.tensor_uninit(*self.values[ia].shape());
        kernels::map_into(
            self.values[ia].data(),
            value.data_mut(),
            16,
            kernels::tanh_fast,
        );
        self.push(Op::Tanh, &[ia], value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let ia = self.chk(a);
        let mut value = self.pool.tensor_uninit(*self.values[ia].shape());
        kernels::map_into(
            self.values[ia].data(),
            value.data_mut(),
            16,
            kernels::sigmoid,
        );
        self.push(Op::Sigmoid, &[ia], value)
    }

    /// GELU (tanh approximation, as in BERT).
    pub fn gelu(&mut self, a: Var) -> Var {
        let ia = self.chk(a);
        let mut value = self.pool.tensor_uninit(*self.values[ia].shape());
        kernels::map_into(self.values[ia].data(), value.data_mut(), 16, kernels::gelu);
        self.push(Op::Gelu, &[ia], value)
    }

    /// Inverted dropout with probability `p`. Identity in evaluation mode.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1)`.
    pub fn dropout(&mut self, a: Var, p: f32) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let ia = self.chk(a);
        if !self.training || p == 0.0 {
            return a;
        }
        let mut mask = self.pool.take_f32(self.values[ia].numel());
        self.dropout_mask(p, &mut mask);
        let mut value = self.pool.tensor_copy(&self.values[ia]);
        for (v, &m) in value.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.push(Op::Dropout { mask }, &[ia], value)
    }

    /// Fills `mask` with an inverted-dropout mask: each element is
    /// `1/(1-p)` with probability `1-p`, else 0.
    ///
    /// Mask generation is on the hot path (every activation tensor in a
    /// transformer); a xorshift64* stream seeded from one draw of the graph
    /// RNG is an order of magnitude faster than drawing each element from
    /// StdRng while remaining deterministic per graph seed.
    fn dropout_mask(&mut self, p: f32, mask: &mut [f32]) {
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut state: u64 = self.rng.random::<u64>() | 1;
        let threshold = (keep as f64 * (1u64 << 32) as f64) as u64;
        for m in mask.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *m = if (state >> 32) < threshold {
                scale
            } else {
                0.0
            };
        }
    }

    // ------------------------------------------------------------------
    // NN-specific ops
    // ------------------------------------------------------------------

    /// Gathers rows of an embedding table.
    ///
    /// `table` must be a `[V, H]` matrix; the output is `[ids.len(), H]`
    /// (callers typically [`Graph::reshape`] to `[B, S, H]`).
    ///
    /// # Panics
    ///
    /// Panics if the table is not rank-2 or an id is out of range.
    pub fn embedding(&mut self, table: Var, ids: &[u32]) -> Var {
        let it = self.chk(table);
        let t = &self.values[it];
        assert_eq!(t.shape().rank(), 2, "embedding table must be rank-2");
        let v = t.dims()[0];
        let h = t.dims()[1];
        // Uninit: every output row is fully copied.
        let mut out = self.pool.tensor_uninit(Shape::new(&[ids.len(), h]));
        let t = &self.values[it];
        for (pos, &id) in ids.iter().enumerate() {
            assert!(
                (id as usize) < v,
                "embedding id {id} out of range for table with {v} rows"
            );
            out.data_mut()[pos * h..(pos + 1) * h]
                .copy_from_slice(&t.data()[id as usize * h..(id as usize + 1) * h]);
        }
        let mut ids_buf = self.pool.take_u32(ids.len());
        ids_buf.copy_from_slice(ids);
        self.push(Op::Embedding { ids: ids_buf }, &[it], out)
    }

    /// Normalizes the last dimension to zero mean and unit variance (the
    /// non-affine core of layer normalization). Combine with broadcast
    /// [`Graph::mul`]/[`Graph::add`] for the learned gain and bias.
    pub fn normalize_last(&mut self, a: Var, eps: f32) -> Var {
        let ia = self.chk(a);
        let mut value = self.pool.tensor_copy(&self.values[ia]);
        let width = value.shape().last_dim();
        let rows = value.numel() / width.max(1);
        let mut rstd = self.pool.take_f32(rows);
        kernels::layer_norm_rows_rstd(value.data_mut(), width, eps, &mut rstd);
        self.push(Op::NormalizeLast { rstd }, &[ia], value)
    }

    /// Mean cross-entropy of logits against integer class targets.
    ///
    /// `logits` is reshaped internally to `[N, C]` where `C` is the last
    /// dimension. `targets` has one entry per row; rows whose target equals
    /// `ignore_index` contribute neither to the loss nor to gradients (used
    /// for non-masked MLM positions and padding).
    ///
    /// Returns a scalar. If every row is ignored the loss is 0.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows, or a
    /// non-ignored target is outside `[0, C)`.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[i32], ignore_index: i32) -> Var {
        let il = self.chk(logits);
        let lv = &self.values[il];
        let classes = lv.shape().last_dim();
        let rows = lv.numel() / classes;
        assert_eq!(
            targets.len(),
            rows,
            "cross_entropy: {} targets for {rows} rows",
            targets.len()
        );
        let mut probs = self.pool.take_f32(lv.numel());
        probs.copy_from_slice(self.values[il].data());
        kernels::softmax_rows(&mut probs, classes);
        let mut loss = 0.0f64;
        let mut n_valid = 0usize;
        for (row, &t) in targets.iter().enumerate() {
            if t == ignore_index {
                continue;
            }
            assert!(
                (0..classes as i32).contains(&t),
                "cross_entropy target {t} out of range 0..{classes}"
            );
            let p = probs[row * classes + t as usize].max(1e-12);
            loss -= (p as f64).ln();
            n_valid += 1;
        }
        let mean = if n_valid == 0 {
            0.0
        } else {
            (loss / n_valid as f64) as f32
        };
        let mut tbuf = self.pool.take_i32(targets.len());
        tbuf.copy_from_slice(targets);
        let value = self.pool.tensor_full(Shape::new(&[]), mean);
        self.push(
            Op::CrossEntropy {
                targets: tbuf,
                ignore_index,
                n_valid,
                probs,
            },
            &[il],
            value,
        )
    }

    /// One LSTM layer over a whole time-major sequence, as one tape node.
    ///
    /// `xz` is every step's input projection, `[S·B, 4H]` with the gate
    /// columns in the order i, f, g, o; `wh` the recurrent weights packed
    /// the same way, `[H, 4H]`; `b` the packed biases, `[4H]`. `keep` has
    /// one flag per row of `xz`: nonzero on a real token, zero on padding,
    /// where the row carries its previous hidden and cell state unchanged.
    /// The initial states are zero. The output is every step's hidden
    /// state, `[S·B, H]`, so step `t` occupies rows `t·B..(t+1)·B`.
    ///
    /// Each step runs one `[B, H]×[H, 4H]` GEMM, then `z = (xz + h·wh) + b`,
    /// `c = sigmoid(z_f)·c_prev + sigmoid(z_i)·tanh(z_g)`,
    /// `h = sigmoid(z_o)·tanh(c)`, and the carry `h·keep + h_prev·hold` —
    /// the operations and rounding order of the per-gate composition of
    /// [`Graph::matmul`], [`Graph::add`], [`Graph::sigmoid`],
    /// [`Graph::tanh`] and [`Graph::mul`], so the forward value is
    /// bit-identical to it. Backward is a hand-written BPTT loop.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes, or if `keep.len()` is not the row
    /// count of `xz` or not a multiple of `batch`.
    pub fn lstm_layer(&mut self, xz: Var, wh: Var, b: Var, keep: &[u8], batch: usize) -> Var {
        let (ix, iw, ib) = (self.chk(xz), self.chk(wh), self.chk(b));
        let dims = self.values[ix].dims();
        assert_eq!(dims.len(), 2, "lstm_layer: xz must be [S·B, 4H]");
        let (rows, h4) = (dims[0], dims[1]);
        let h = h4 / 4;
        assert!(h > 0 && h4 == 4 * h, "lstm_layer: xz width {h4} is not 4H");
        assert_eq!(
            self.values[iw].dims(),
            [h, h4],
            "lstm_layer: wh must be [H, 4H]"
        );
        assert_eq!(self.values[ib].dims(), [h4], "lstm_layer: b must be [4H]");
        assert!(
            keep.len() == rows && batch > 0 && rows % batch == 0,
            "lstm_layer: {} keep flags for {rows} rows in steps of {batch}",
            keep.len()
        );
        let mut keep_f = self.pool.take_f32(rows);
        for (k, &m) in keep_f.iter_mut().zip(keep) {
            *k = if m != 0 { 1.0 } else { 0.0 };
        }
        // Uninit, as are `out` and `hz`: every element is written before it
        // is read.
        let mut saved = self.pool.take_f32(rows * 6 * h);
        let mut out = self.pool.tensor_uninit(Shape::new(&[rows, h]));
        let mut hz = self.pool.take_f32(batch * h4);
        // The states before the first step.
        let zeros = self.pool.take_f32_zeroed(batch * h);
        let mut wh_packed = self.pool.take_f32(h * h4);
        kernels::pack_rhs(self.values[iw].data(), h4, 1, h, h4, &mut wh_packed);
        let (xzd, bd) = (self.values[ix].data(), self.values[ib].data());
        let (tanh_z, rest) = saved.split_at_mut(rows * h4);
        let (tanh_c, c_carry) = rest.split_at_mut(rows * h);
        for t in 0..rows / batch {
            let r0 = t * batch;
            let (h_done, h_rest) = out.data_mut().split_at_mut(r0 * h);
            let (c_done, c_rest) = c_carry.split_at_mut(r0 * h);
            let (h_prev, c_prev) = if t == 0 {
                (&zeros[..], &zeros[..])
            } else {
                (&h_done[(r0 - batch) * h..], &c_done[(r0 - batch) * h..])
            };
            // Before the first step `h·wh` is the all-zero product.
            hz.fill(0.0);
            if t > 0 {
                kernels::matmul_packed_acc(h_prev, &wh_packed, &mut hz, batch, h, h4);
            }
            for bi in 0..batch {
                let r = r0 + bi;
                let tz = &mut tanh_z[r * h4..(r + 1) * h4];
                for ((v, &x), (&hv, &bv)) in tz
                    .iter_mut()
                    .zip(&xzd[r * h4..(r + 1) * h4])
                    .zip(hz[bi * h4..(bi + 1) * h4].iter().zip(bd))
                {
                    *v = (x + hv) + bv;
                }
                // sigmoid(z) = (1 + tanh_fast(z/2)) / 2 for i, f and o, as in
                // `kernels::sigmoid`; the g gate is tanh_fast(z) itself.
                for (gate, zs) in tz.chunks_mut(h).enumerate() {
                    let scale = if gate == 2 { 1.0 } else { 0.5 };
                    for v in zs {
                        *v = kernels::tanh_fast(scale * *v);
                    }
                }
                let (ti, tf, g_g, to) = (&tz[..h], &tz[h..2 * h], &tz[2 * h..3 * h], &tz[3 * h..]);
                let (k, hold) = (keep_f[r], 1.0 - keep_f[r]);
                let row = bi * h..(bi + 1) * h;
                let (hp, cp) = (&h_prev[row.clone()], &c_prev[row.clone()]);
                let (h_t, c_t) = (&mut h_rest[row.clone()], &mut c_rest[row]);
                let tc = &mut tanh_c[r * h..(r + 1) * h];
                for j in 0..h {
                    let (i_g, f_g) = (0.5 * (1.0 + ti[j]), 0.5 * (1.0 + tf[j]));
                    let c = f_g * cp[j] + i_g * g_g[j];
                    tc[j] = kernels::tanh_fast(c);
                    c_t[j] = c * k + cp[j] * hold;
                    h_t[j] = (0.5 * (1.0 + to[j]) * tc[j]) * k + hp[j] * hold;
                }
            }
        }
        self.pool.give_f32(hz);
        self.pool.give_f32(zeros);
        self.pool.give_f32(wh_packed);
        self.push(
            Op::LstmLayer {
                batch,
                keep: keep_f,
                saved,
            },
            &[ix, iw, ib],
            out,
        )
    }

    /// Multi-head scaled dot-product self-attention over each sequence's
    /// real tokens, as one tape node.
    ///
    /// `qkv` is the packed projection `[B·S, 3·inner]`: row `b·S + i` holds
    /// token `i` of sequence `b`, its query, key and value side by side,
    /// each `inner = heads·dh` wide with head `h` at columns `h·dh..`.
    /// `key_lens[b]` is the number of real tokens of sequence `b`, which
    /// come first (padding trails). Per sequence and head, over its `L`
    /// real tokens only:
    ///
    /// - scores `q·kᵀ`, one `mul_add` chain per pair over ascending `d`,
    ///   then `× 1/√dh` as its own rounding;
    /// - a softmax over the `L` keys of each query;
    /// - inverted dropout with probability `p` in training mode, its mask
    ///   drawn serially from the graph's RNG over the real pairs;
    /// - the context `probs · v`, one `mul_add` chain per element over
    ///   ascending keys.
    ///
    /// The output is the context `[B·S, inner]`, with zero rows at padded
    /// queries. Heads are addressed through the row stride; no per-head
    /// tensor is built.
    ///
    /// Without dropout, every real query row gets the bits of the unfused
    /// composition this replaces (`a·bᵀ` product, scale, an additive `-1e4`
    /// mask on padded keys, softmax, product): a masked key's softmax
    /// weight was exactly 0 there, and the softmax sums a row in order.
    ///
    /// Backward is hand-written from the saved probabilities and dropout
    /// mask of the real pairs; padded rows get a zero gradient. Work is
    /// split over blocks of sequences, so results are the same at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `qkv` is not `[B·S, 3·heads·dh]` for `B = key_lens.len()`,
    /// a key length exceeds `S`, or `p` is not within `[0, 1)`.
    pub fn attention(&mut self, qkv: Var, key_lens: &[usize], heads: usize, p: f32) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let iq = self.chk(qkv);
        let dims = self.values[iq].dims();
        assert_eq!(dims.len(), 2, "attention: qkv must be [B·S, 3·inner]");
        let (rows, width) = (dims[0], dims[1]);
        let batch = key_lens.len();
        assert!(
            batch > 0 && rows % batch == 0,
            "attention: {rows} rows do not split into {batch} sequences"
        );
        assert!(
            heads > 0 && width > 0 && width % (3 * heads) == 0,
            "attention: width {width} is not 3·{heads}·dh"
        );
        let d = attention::Dims {
            seq: rows / batch,
            heads,
            dh: width / (3 * heads),
        };
        assert!(
            key_lens.iter().all(|&l| l <= d.seq),
            "attention: a key length exceeds the sequence length {}",
            d.seq
        );
        let mut lens = self.pool.take_u32(batch);
        for (l, &k) in lens.iter_mut().zip(key_lens) {
            *l = k as u32;
        }
        let n_pairs = d.pairs(&lens);
        let mut mask = Vec::new();
        if self.training && p > 0.0 {
            mask = self.pool.take_f32(n_pairs);
            self.dropout_mask(p, &mut mask);
        }
        // Zeroed, as is `out`: the products accumulate into them, and
        // padded query rows of `out` stay zero.
        let mut probs = self.pool.take_f32_zeroed(n_pairs);
        let mut out = self.pool.tensor_zeroed(Shape::new(&[rows, d.inner()]));
        attention::forward(
            self.values[iq].data(),
            &lens,
            d,
            &mut probs,
            &mask,
            out.data_mut(),
        );
        self.push(
            Op::Attention {
                heads,
                lens,
                probs,
                mask,
            },
            &[iq],
            out,
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` (must be scalar).
    ///
    /// After this call, [`Graph::grad`] returns gradients for leaves and
    /// [`Graph::grads_into`] exports parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) variable.
    pub fn backward(&mut self, loss: Var) {
        let lid = self.chk(loss);
        assert_eq!(
            self.values[lid].numel(),
            1,
            "backward requires a scalar loss"
        );
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
        self.grads.resize_with(self.nodes.len(), || None);
        let seed = self.pool.tensor_full(Shape::new(&[]), 1.0);
        accumulate(&mut self.grads, &mut self.pool, lid, seed);
        for id in (0..=lid).rev() {
            backward_node(
                &self.nodes,
                &self.values,
                &mut self.grads,
                &mut self.pool,
                id,
            );
        }
    }

    /// Adds the gradients of parameter leaves into the [`Params`] store
    /// (accumulating, so several graphs can contribute to one step).
    pub fn grads_into(&self, params: &mut Params) {
        for &(node_id, pid) in &self.param_links {
            if let Some(g) = self.grads.get(node_id).and_then(|g| g.as_ref()) {
                params.grad_mut(pid).axpy(1.0, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(dims, data.to_vec()).unwrap()
    }

    #[test]
    fn add_backward_same_shape() {
        let mut g = Graph::new();
        let a = g.input(t(&[2], &[1.0, 2.0]));
        let b = g.input(t(&[2], &[3.0, 4.0]));
        let s = g.add(a, b);
        let loss = g.sum(s);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn add_row_broadcast_backward_reduces() {
        let mut g = Graph::new();
        let a = g.input(t(&[2, 3], &[0.; 6]));
        let b = g.input(t(&[3], &[1., 2., 3.]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).data(), &[1., 2., 3., 1., 2., 3.]);
        let loss = g.sum(s);
        g.backward(loss);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_scalar_broadcast() {
        let mut g = Graph::new();
        let a = g.input(t(&[2], &[3.0, 5.0]));
        let c = g.input(Tensor::full(&[], 2.0));
        let m = g.mul(a, c);
        assert_eq!(g.value(m).data(), &[6.0, 10.0]);
        let loss = g.sum(m);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.grad(c).unwrap().item(), 8.0);
    }

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A B); dA = 1 * B^T, dB = A^T * 1
        let mut g = Graph::new();
        let a = g.input(t(&[2, 2], &[1., 2., 3., 4.]));
        let b = g.input(t(&[2, 2], &[5., 6., 7., 8.]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[11., 15., 11., 15.]);
        assert_eq!(g.grad(b).unwrap().data(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn matmul_broadcast_rhs_accumulates_batch() {
        let mut g = Graph::new();
        let a = g.input(t(&[2, 1, 2], &[1., 2., 3., 4.]));
        let w = g.input(t(&[2, 1], &[1., 1.]));
        let c = g.matmul(a, w);
        let loss = g.sum(c);
        g.backward(loss);
        // dW = sum over batch of a^T = [1+3, 2+4]
        assert_eq!(g.grad(w).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 4]));
        let loss = g.cross_entropy(x, &[0, 3], -100);
        assert!((g.value(loss).item() - (4.0f32).ln()).abs() < 1e-5);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        // Gradient: (p - y)/N with p = 0.25.
        assert!((gx.data()[0] - (0.25 - 1.0) / 2.0).abs() < 1e-6);
        assert!((gx.data()[1] - 0.25 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_ignore_index() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 4]));
        let loss = g.cross_entropy(x, &[1, -100], -100);
        assert!((g.value(loss).item() - (4.0f32).ln()).abs() < 1e-5);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        // Second row fully ignored.
        assert!(gx.data()[4..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn cross_entropy_all_ignored_is_zero() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 4]));
        let loss = g.cross_entropy(x, &[-100], -100);
        assert_eq!(g.value(loss).item(), 0.0);
        g.backward(loss);
        assert!(g.grad(x).unwrap().data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn embedding_gather_and_scatter() {
        let mut g = Graph::new();
        let table = g.input(t(&[3, 2], &[1., 2., 3., 4., 5., 6.]));
        let e = g.embedding(table, &[2, 0, 2]);
        assert_eq!(g.value(e).data(), &[5., 6., 1., 2., 5., 6.]);
        let loss = g.sum(e);
        g.backward(loss);
        // Row 2 used twice, row 0 once, row 1 never.
        assert_eq!(g.grad(table).unwrap().data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn select_axis1_cls() {
        let mut g = Graph::new();
        let x = g.input(t(&[2, 2, 2], &[1., 2., 3., 4., 5., 6., 7., 8.]));
        let cls = g.select_axis1(x, 0);
        assert_eq!(g.value(cls).data(), &[1., 2., 5., 6.]);
        let loss = g.sum(cls);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[1., 1., 0., 0., 1., 1., 0., 0.]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut g = Graph::new();
        g.set_training(false);
        let x = g.input(t(&[4], &[1., 2., 3., 4.]));
        let d = g.dropout(x, 0.5);
        assert_eq!(d, x);
    }

    #[test]
    fn dropout_train_scales_kept() {
        let mut g = Graph::with_seed(3);
        let x = g.input(Tensor::ones(&[1000]));
        let d = g.dropout(x, 0.5);
        let vals = g.value(d).data();
        let kept = vals.iter().filter(|&&v| v != 0.0).count();
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!((350..650).contains(&kept), "kept {kept}");
    }

    #[test]
    fn normalize_last_statistics() {
        let mut g = Graph::new();
        let x = g.input(t(&[2, 4], &[1., 2., 3., 4., -1., 0., 1., 2.]));
        let n = g.normalize_last(x, 1e-5);
        for row in g.value(n).data().chunks(4) {
            let m: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5);
        }
    }

    #[test]
    fn reshape_grad_flows() {
        let mut g = Graph::new();
        let x = g.input(t(&[2, 2], &[1., 2., 3., 4.]));
        let r = g.reshape(x, &[4]);
        let sq = g.mul(r, r);
        let loss = g.sum(sq);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[2., 4., 6., 8.]);
        assert_eq!(g.grad(x).unwrap().dims(), &[2, 2]);
    }

    #[test]
    fn concat_last_values_and_grads() {
        let mut g = Graph::new();
        let a = g.input(t(&[2, 2], &[1., 2., 3., 4.]));
        let b = g.input(t(&[2, 1], &[10., 20.]));
        let c = g.concat_last(a, b);
        assert_eq!(g.value(c).dims(), &[2, 3]);
        assert_eq!(g.value(c).data(), &[1., 2., 10., 3., 4., 20.]);
        let w = g.input(t(&[2, 3], &[1., 1., 5., 1., 1., 7.]));
        let p = g.mul(c, w);
        let loss = g.sum(p);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[1., 1., 1., 1.]);
        assert_eq!(g.grad(b).unwrap().data(), &[5., 7.]);
    }

    #[test]
    fn grad_reused_var_accumulates() {
        // loss = sum(x * x) uses x twice.
        let mut g = Graph::new();
        let x = g.input(t(&[2], &[3.0, -2.0]));
        let sq = g.mul(x, x);
        let loss = g.sum(sq);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[6.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_non_scalar_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2]));
        g.backward(x);
    }

    #[test]
    fn reset_replays_dropout_stream() {
        let mut g = Graph::with_seed(42);
        let x = g.input(Tensor::ones(&[512]));
        let d = g.dropout(x, 0.3);
        let first: Vec<f32> = g.value(d).data().to_vec();
        g.reset();
        let x2 = g.input(Tensor::ones(&[512]));
        let d2 = g.dropout(x2, 0.3);
        assert_eq!(g.value(d2).data(), &first[..]);
        assert!(
            g.pool.hits() > 0,
            "second pass should reuse recycled buffers"
        );
    }

    #[test]
    fn reset_reuse_is_bit_identical_to_fresh() {
        fn step(g: &mut Graph) -> (u32, Vec<u32>, Vec<u32>) {
            let x = g.input(t(&[2, 3], &[0.5, -1.0, 2.0, 1.5, 0.0, -0.5]));
            let w = g.input(t(&[3, 2], &[0.1, 0.2, -0.3, 0.4, 0.5, -0.6]));
            let h = g.matmul(x, w);
            let a = g.tanh(h);
            let d = g.dropout(a, 0.25);
            let n = g.normalize_last(d, 1e-5);
            let c = g.input(t(&[2, 2], &[1.0, -2.0, 0.5, 3.0]));
            let p = g.mul(n, c);
            let loss = g.sum(p);
            g.backward(loss);
            (
                g.value(loss).item().to_bits(),
                g.grad(x)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                g.grad(w)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            )
        }
        let mut reused = Graph::with_seed(11);
        for _ in 0..3 {
            reused.reset_with_seed(11);
            let got = step(&mut reused);
            let mut fresh = Graph::with_seed(11);
            let want = step(&mut fresh);
            assert_eq!(got, want);
        }
        assert!(reused.pool.hits() > 0, "reused graph should hit the pool");
    }

    #[test]
    fn reset_handles_shape_changes_without_bleed_through() {
        let mut g = Graph::new();
        let x = g.input(t(&[4], &[5.0; 4]));
        let s = g.add(x, x);
        let loss = g.sum(s);
        g.backward(loss);
        g.reset();
        // Smaller tensors next step: recycled buffers must be re-sized and
        // (where required) re-zeroed.
        let y = g.input(t(&[2], &[1.0, 0.0]));
        assert_eq!(g.value(y).data(), &[1.0, 0.0]);
        let sq = g.mul(y, y);
        let loss2 = g.sum(sq);
        g.backward(loss2);
        assert_eq!(g.grad(y).unwrap().data(), &[2.0, 0.0]);
    }

    #[test]
    fn never_parked_graph_keeps_its_pool() {
        let mut g = Graph::new();
        for _ in 0..3 {
            g.reset();
            let x = g.input(Tensor::ones(&[64]));
            let s = g.add(x, x);
            let loss = g.sum(s);
            g.backward(loss);
        }
        assert!(
            g.pool.hits() > 0,
            "later steps reuse the first step's buffers"
        );
        assert!(g.pool.peak_bytes() > 0);
    }

    #[test]
    fn parked_graph_gives_up_its_pool_and_stays_usable() {
        fn step(g: &mut Graph) -> u32 {
            g.reset_with_seed(9);
            let x = g.input(Tensor::full(&[32], 0.5));
            let d = g.dropout(x, 0.25);
            let loss = g.sum(d);
            g.backward(loss);
            g.value(loss).item().to_bits()
        }
        let mut g = Graph::new();
        let want = step(&mut g);
        g.park();
        assert!(g.is_empty());
        let pool = (g.pool.hits(), g.pool.misses(), g.pool.peak_bytes());
        assert_eq!(pool, (0, 0, 0), "the pool left with park()");
        // Whatever pool the next reset adopts (its own, another test's, or
        // none), the step repeats bit for bit.
        assert_eq!(step(&mut g), want);
    }

    #[test]
    fn lstm_layer_gradcheck_with_padding() {
        // B = 3, S = 5, H = 4, time-major rows t·B + b. Sequence 0 is padded
        // mid-sequence (steps 1 and 3), sequence 1 is never padded, sequence
        // 2 is padding throughout.
        let (b, s, h) = (3, 5, 4);
        let mask = [[1, 0, 1, 0, 1], [1; 5], [0; 5]];
        let keep: Vec<u8> = (0..s * b).map(|r| mask[r % b][r / b]).collect();
        let inputs = [
            Tensor::randn(&[s * b, 4 * h], 0.8, 21),
            Tensor::randn(&[h, 4 * h], 0.5, 22),
            Tensor::randn(&[4 * h], 0.5, 23),
        ];
        let weights = Tensor::randn(&[s * b, h], 1.0, 24);
        let report = crate::gradcheck(&inputs, |g, v| {
            let out = g.lstm_layer(v[0], v[1], v[2], &keep, b);
            let w = g.input(weights.clone());
            let weighted = g.mul(out, w);
            g.sum(weighted)
        });
        assert_eq!(report.checked, s * b * 4 * h + 4 * h * h + 4 * h);
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn lstm_layer_padded_rows_carry_state_and_get_no_gradient() {
        let (b, h) = (2, 3);
        let keep = [1, 1, 1, 0];
        let mut g = Graph::new();
        let xz = g.input(Tensor::randn(&[4, 4 * h], 1.0, 5));
        let wh = g.input(Tensor::randn(&[h, 4 * h], 0.5, 6));
        let bias = g.input(Tensor::zeros(&[4 * h]));
        let out = g.lstm_layer(xz, wh, bias, &keep, b);
        let rows: Vec<&[f32]> = g.value(out).data().chunks(h).collect();
        assert_eq!(rows[3], rows[1], "padded step carries its row's state");
        let loss = g.sum(out);
        g.backward(loss);
        let dxz = g.grad(xz).unwrap().data();
        assert!(dxz[3 * 4 * h..].iter().all(|&v| v == 0.0));
        assert!(dxz[..3 * 4 * h].iter().any(|&v| v != 0.0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale Var")]
    fn stale_var_after_reset_panics() {
        let mut g = Graph::new();
        let x = g.input(t(&[2], &[1.0, 2.0]));
        g.reset();
        let _ = g.value(x);
    }
}
