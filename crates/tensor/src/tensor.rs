//! Dense row-major `f32` tensor.

use crate::kernels;
use crate::shape::Shape;
use crate::TensorError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A dense, row-major, n-dimensional `f32` array.
///
/// `Tensor` is plain data: it carries no gradient information. Automatic
/// differentiation happens on the [`crate::Graph`] tape, which stores
/// `Tensor` values at each node.
///
/// ```
/// use clinfl_tensor::Tensor;
/// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.matmul(&t).data(), &[7.0, 10.0, 15.0, 22.0]);
/// # Ok::<(), clinfl_tensor::TensorError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor from a shape and a backing buffer whose length is
    /// already known to match (e.g. one recycled from the buffer pool).
    pub(crate) fn from_raw(shape: Shape, data: Vec<f32>) -> Self {
        debug_assert_eq!(shape.numel(), data.len(), "from_raw shape/data mismatch");
        Tensor { shape, data }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![v],
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor of the given shape filled with `v`.
    pub fn full(dims: &[usize], v: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![v; n],
        }
    }

    /// Tensor with entries drawn i.i.d. from `N(0, std^2)`, deterministic in
    /// `seed`.
    pub fn randn(dims: &[usize], std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        // Box-Muller from uniform samples keeps us independent of
        // rand_distr, which is not in the allowed dependency set.
        let mut i = 0;
        while i < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random();
            let r = (-2.0f32 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            i += 1;
            if i < n {
                data.push(r * theta.sin() * std);
                i += 1;
            }
        }
        Tensor { shape, data }
    }

    /// Tensor with entries drawn i.i.d. from `U(lo, hi)`, deterministic in
    /// `seed`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = Shape::new(dims);
        let n = shape.numel();
        let data = (0..n).map(|_| rng.random_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, got shape {}",
            self.shape
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {shape} changes element count",
            self.shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Matrix product supporting batched operands.
    ///
    /// `self` may have rank >= 2 (`[.., M, K]`). `rhs` is either rank-2
    /// (`[K, N]`, broadcast over the batch) or has the same batch dimensions
    /// as `self` (`[.., K, N]`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or batch mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.matmul_shape(rhs).dims());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// The output shape of `self.matmul(rhs)`, validating the operands.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or batch mismatch (same conditions as
    /// [`Tensor::matmul`]).
    pub(crate) fn matmul_shape(&self, rhs: &Tensor) -> Shape {
        let (lb, _m, k) = self.shape.as_batched_matrix();
        let (rb, rk, n) = rhs.shape.as_batched_matrix();
        assert_eq!(
            k, rk,
            "matmul inner dims differ: {} vs {}",
            self.shape, rhs.shape
        );
        if rhs.shape.rank() != 2 {
            assert_eq!(
                lb, rb,
                "matmul batch dims differ: {} vs {}",
                self.shape, rhs.shape
            );
        }
        self.shape.with_last(n)
    }

    /// Batched matrix product accumulated into `out`, which must have the
    /// shape from [`Tensor::matmul_shape`] and be pre-zeroed (the kernel
    /// accumulates). Lets callers supply a recycled output buffer.
    pub(crate) fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (lb, m, k) = self.shape.as_batched_matrix();
        let n = rhs.shape.last_dim();
        let rhs_broadcast = rhs.shape.rank() == 2;
        debug_assert_eq!(out.numel(), lb * m * n, "matmul_into out size");
        if out.numel() == 0 || k == 0 {
            return;
        }
        // One batched kernel entry: a broadcast RHS is packed once for the
        // whole batch; per-batch right-hand sides parallelize over batch
        // blocks inside the kernel.
        kernels::matmul_batch_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            lb,
            m,
            k,
            n,
            rhs_broadcast,
        );
    }

    /// Matrix product with the right operand transposed:
    /// `self[.., M, K] · rhs[.., N, K]ᵀ -> [.., M, N]`, with `rhs` either
    /// rank-2 (broadcast over the batch) or batch-matched. Computed
    /// directly by the packed `a·bᵀ` kernel — no transposed copy of `rhs`
    /// is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or batch mismatch.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.matmul_bt_shape(rhs).dims());
        self.matmul_bt_into(rhs, &mut out);
        out
    }

    /// The output shape of `self.matmul_bt(rhs)`, validating the operands.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or batch mismatch (same conditions as
    /// [`Tensor::matmul_bt`]).
    pub(crate) fn matmul_bt_shape(&self, rhs: &Tensor) -> Shape {
        let (lb, _m, k) = self.shape.as_batched_matrix();
        let (rb, n, rk) = rhs.shape.as_batched_matrix();
        assert_eq!(
            k, rk,
            "matmul_bt inner dims differ: {} vs {}",
            self.shape, rhs.shape
        );
        if rhs.shape.rank() != 2 {
            assert_eq!(
                lb, rb,
                "matmul_bt batch dims differ: {} vs {}",
                self.shape, rhs.shape
            );
        }
        self.shape.with_last(n)
    }

    /// Batched `self · rhsᵀ` accumulated into `out` (shape from
    /// [`Tensor::matmul_bt_shape`], pre-zeroed).
    pub(crate) fn matmul_bt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (lb, m, k) = self.shape.as_batched_matrix();
        let (_, n, _) = rhs.shape.as_batched_matrix();
        let rhs_broadcast = rhs.shape.rank() == 2;
        debug_assert_eq!(out.numel(), lb * m * n, "matmul_bt_into out size");
        if out.numel() == 0 || k == 0 {
            return;
        }
        kernels::matmul_a_bt_batch_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            lb,
            m,
            k,
            n,
            rhs_broadcast,
        );
    }

    /// Returns the tensor with its last two dimensions transposed.
    ///
    /// # Panics
    ///
    /// Panics if the rank is < 2.
    pub fn transposed_last2(&self) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        self.transpose_last2_into(&mut out);
        Tensor {
            shape: self.shape.transposed_last2(),
            data: out,
        }
    }

    /// Writes the last-two-dims transpose into `out` (fully overwriting
    /// it), so callers can supply a recycled buffer.
    ///
    /// # Panics
    ///
    /// Panics if the rank is < 2 or `out` has the wrong length.
    pub(crate) fn transpose_last2_into(&self, out: &mut [f32]) {
        let (b, m, n) = self.shape.as_batched_matrix();
        assert_eq!(out.len(), self.numel(), "transpose out length");
        for bi in 0..b {
            let src = &self.data[bi * m * n..(bi + 1) * m * n];
            let dst = &mut out[bi * m * n..(bi + 1) * m * n];
            for i in 0..m {
                for j in 0..n {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }

    /// Swaps axes 1 and 2 of a rank-4 tensor (`[B, S, H, D]` →
    /// `[B, H, S, D]`), the permutation used to split attention heads.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 4.
    pub fn swapped_axes12(&self) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        self.swap_axes12_into(&mut out);
        Tensor {
            shape: self.shape.swapped_axes12(),
            data: out,
        }
    }

    /// Writes the axes-1/2 permutation into `out` (fully overwriting it),
    /// so callers can supply a recycled buffer.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 4 or `out` has the wrong length.
    pub(crate) fn swap_axes12_into(&self, out: &mut [f32]) {
        let dims = self.dims();
        assert_eq!(dims.len(), 4, "swapped_axes12 requires rank-4 input");
        assert_eq!(out.len(), self.numel(), "swap_axes12 out length");
        let (b, s, h, d) = (dims[0], dims[1], dims[2], dims[3]);
        for bi in 0..b {
            for si in 0..s {
                for hi in 0..h {
                    let src = &self.data[((bi * s + si) * h + hi) * d..][..d];
                    let dst = &mut out[((bi * h + hi) * s + si) * d..][..d];
                    dst.copy_from_slice(src);
                }
            }
        }
    }

    /// Element-wise map, parallel across the worker pool for large tensors.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        kernels::map_into(&self.data, &mut data, 16, f);
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Element-wise addition of same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Element-wise subtraction of same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Scales every element by `c`.
    pub fn scaled(&self, c: f32) -> Tensor {
        self.map(|v| v * c)
    }

    /// In-place `self += rhs * c` (axpy). Used by optimizers and aggregators.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, c: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += c * b;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in each row of the trailing dimension.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let width = self.shape.last_dim();
        self.data
            .chunks(width)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let n = self.numel().min(8);
        write!(f, "[")?;
        for (i, v) in self.data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.numel() > n {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
        let err = Tensor::from_vec(&[2, 2], vec![0.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).numel(), 6);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0, 1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let a = Tensor::randn(&[1000], 1.0, 7);
        let b = Tensor::randn(&[1000], 1.0, 7);
        assert_eq!(a, b);
        let mean = a.mean();
        let var = a
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn rand_uniform_bounds() {
        let t = Tensor::rand_uniform(&[500], -2.0, 3.0, 1);
        assert!(t.data().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }

    #[test]
    fn matmul_batched_rhs_broadcast() {
        // Batch of two 1x2 matrices times a shared 2x1.
        let a = Tensor::from_vec(&[2, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec(&[2, 1], vec![10., 100.]).unwrap();
        let c = a.matmul(&w);
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.data(), &[210., 430.]);
    }

    #[test]
    fn matmul_batched_both() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(&[2, 2, 1], vec![1., 1., 2., 2.]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.data(), &[3., 14.]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transposed_last2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(tt.transposed_last2(), t);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 5.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_and_norms() {
        let mut a = Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap();
        assert_eq!(a.l2_norm(), 5.0);
        let b = Tensor::from_vec(&[2], vec![1.0, 1.0]).unwrap();
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[5.0, 6.0]);
        a.zero_();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn display_shows_shape() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let shown = t.to_string();
        assert!(shown.contains("Tensor[2, 2]"), "{shown}");
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Tensor>();
        assert_sync::<Tensor>();
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
