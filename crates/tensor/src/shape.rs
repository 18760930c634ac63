//! Shape utilities shared by [`crate::Tensor`] and the autograd graph.

use std::fmt;

/// Maximum rank (number of dimensions) a [`Shape`] can represent.
///
/// The models in this workspace never exceed rank 3 (`[B, S, H]`); 6 leaves
/// headroom without bloating the inline representation.
pub const MAX_RANK: usize = 6;

/// A tensor shape: the extent of each dimension, row-major.
///
/// `Shape` stores its extents inline in a fixed-size array (rather than a
/// heap `Vec`), so shapes are `Copy` and constructing one — which happens
/// for every node pushed onto the autograd tape — never allocates. Unused
/// trailing slots are kept at zero so the derived `PartialEq`/`Hash` agree
/// with dimension-wise equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// A zero-dimensional shape (`&[]`) denotes a scalar with one element.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_RANK`] dimensions are given.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds the maximum supported rank {MAX_RANK}",
            dims.len()
        );
        let mut d = [0usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: d,
            rank: dims.len() as u8,
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extent of the last dimension, or 1 for a scalar.
    pub fn last_dim(&self) -> usize {
        self.dims().last().copied().unwrap_or(1)
    }

    /// For rank >= 2: `(batch, rows, cols)` where `batch` is the product of
    /// all leading dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the rank is < 2.
    pub fn as_batched_matrix(&self) -> (usize, usize, usize) {
        assert!(
            self.rank() >= 2,
            "as_batched_matrix requires rank >= 2, got shape {self}"
        );
        let n = self.rank();
        let rows = self.dims[n - 2];
        let cols = self.dims[n - 1];
        let batch: usize = self.dims[..n - 2].iter().product();
        (batch, rows, cols)
    }

    /// Shape with the last dimension replaced by `n` (e.g. the output shape
    /// of a matmul).
    ///
    /// # Panics
    ///
    /// Panics if the shape is rank-0.
    pub(crate) fn with_last(&self, n: usize) -> Shape {
        assert!(self.rank >= 1, "with_last requires rank >= 1");
        let mut s = *self;
        s.dims[self.rank as usize - 1] = n;
        s
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({:?})", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.last_dim(), 4);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.last_dim(), 1);
    }

    #[test]
    fn batched_matrix_view() {
        let s = Shape::new(&[2, 3, 4, 5]);
        assert_eq!(s.as_batched_matrix(), (6, 4, 5));
        let m = Shape::new(&[4, 5]);
        assert_eq!(m.as_batched_matrix(), (1, 4, 5));
    }

    #[test]
    #[should_panic(expected = "rank >= 2")]
    fn batched_matrix_rank1_panics() {
        Shape::new(&[3]).as_batched_matrix();
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    #[test]
    fn equality_ignores_unused_slots() {
        // Shapes with the same extents compare equal regardless of how they
        // were built; different ranks with zero-extent tails do not.
        assert_eq!(Shape::new(&[2, 3]), Shape::from(vec![2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 0]));
    }

    #[test]
    fn with_last_replaces_trailing_dim() {
        assert_eq!(Shape::new(&[2, 3, 4]).with_last(7), Shape::new(&[2, 3, 7]));
    }

    #[test]
    #[should_panic(expected = "maximum supported rank")]
    fn over_max_rank_panics() {
        Shape::new(&[1, 1, 1, 1, 1, 1, 1]);
    }
}
