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
/// assert_eq!(t.sum(), 10.0);
/// assert_eq!(t.argmax_rows(), vec![1, 1]);
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

    /// The output shape of `self · rhs` (see [`crate::Graph::matmul`] for
    /// the shape rules), validating the operands.
    ///
    /// # Panics
    ///
    /// Panics if `self` is below rank 2, `rhs` is not rank-2, or the inner
    /// dimensions differ.
    pub(crate) fn matmul_shape(&self, rhs: &Tensor) -> Shape {
        let (_, _, k) = self.shape.as_batched_matrix();
        assert_eq!(
            rhs.shape.rank(),
            2,
            "matmul rhs must be rank-2, got {}",
            rhs.shape
        );
        assert_eq!(
            k,
            rhs.dims()[0],
            "matmul inner dims differ: {} vs {}",
            self.shape,
            rhs.shape
        );
        self.shape.with_last(rhs.dims()[1])
    }

    /// `self · rhs` accumulated into `out`, which must have the shape from
    /// [`Tensor::matmul_shape`] and be pre-zeroed (the kernel accumulates).
    /// The rows of every leading dimension form one GEMM, so `rhs` is
    /// packed once.
    pub(crate) fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (lb, m, k) = self.shape.as_batched_matrix();
        let n = rhs.shape.last_dim();
        kernels::matmul_acc(&self.data, &rhs.data, &mut out.data, lb * m, k, n);
    }

    /// The output shape of `self · rhsᵀ` (see [`crate::Graph::matmul_bt`]),
    /// validating the operands.
    ///
    /// # Panics
    ///
    /// Panics if `self` is below rank 2, `rhs` is not rank-2, or the inner
    /// dimensions differ.
    pub(crate) fn matmul_bt_shape(&self, rhs: &Tensor) -> Shape {
        let (_, _, k) = self.shape.as_batched_matrix();
        assert_eq!(
            rhs.shape.rank(),
            2,
            "matmul_bt rhs must be rank-2, got {}",
            rhs.shape
        );
        assert_eq!(
            k,
            rhs.dims()[1],
            "matmul_bt inner dims differ: {} vs {}",
            self.shape,
            rhs.shape
        );
        self.shape.with_last(rhs.dims()[0])
    }

    /// `self · rhsᵀ` accumulated into `out` (shape from
    /// [`Tensor::matmul_bt_shape`], pre-zeroed), as one GEMM over all rows.
    pub(crate) fn matmul_bt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (lb, m, k) = self.shape.as_batched_matrix();
        let n = rhs.dims()[0];
        kernels::matmul_a_bt_acc(&self.data, &rhs.data, &mut out.data, lb * m, k, n);
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
        assert_eq!(Tensor::full(&[], 2.5).item(), 2.5);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let a = Tensor::randn(&[1000], 1.0, 7);
        let b = Tensor::randn(&[1000], 1.0, 7);
        assert_eq!(a, b);
        let mean = a.sum() / 1000.0;
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

    fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.matmul_shape(b).dims());
        a.matmul_into(b, &mut out);
        out
    }

    #[test]
    fn matmul_batched_rhs_broadcast() {
        // Batch of two 1x2 matrices times a shared 2x1.
        let a = Tensor::from_vec(&[2, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec(&[2, 1], vec![10., 100.]).unwrap();
        let c = matmul(&a, &w);
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.data(), &[210., 430.]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul(&a, &b);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 5.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_and_zero() {
        let mut a = Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap();
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
