//! Weight initialization schemes.

use crate::tensor::Tensor;

/// Weight initialization scheme for model parameters.
///
/// All schemes are deterministic given the seed passed to
/// [`Init::tensor`], so a model's seeded init is reproducible: the same
/// seed draws the same initial global model, and the same standalone or
/// centralized start. Federated sites draw none: as the NVFlare server
/// distributes the initial weights, each site loads them over a model
/// built without drawing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Init {
    /// All zeros (biases, layer-norm shift).
    Zeros,
    /// All ones (layer-norm gain).
    Ones,
    /// Normal with the given standard deviation (BERT uses 0.02).
    Normal(f32),
    /// Xavier/Glorot uniform for a `[fan_in, fan_out]` matrix.
    XavierUniform,
}

impl Init {
    /// Materializes a tensor of shape `dims` under this scheme.
    ///
    /// For [`Init::XavierUniform`], `dims` must be rank-2 (`[fan_in,
    /// fan_out]`).
    ///
    /// # Panics
    ///
    /// Panics if `XavierUniform` is used with a non-rank-2 shape.
    pub fn tensor(self, dims: &[usize], seed: u64) -> Tensor {
        match self {
            Init::Zeros => Tensor::zeros(dims),
            Init::Ones => Tensor::ones(dims),
            Init::Normal(std) => Tensor::randn(dims, std, seed),
            Init::XavierUniform => {
                assert_eq!(
                    dims.len(),
                    2,
                    "XavierUniform requires a rank-2 shape, got {dims:?}"
                );
                let bound = (6.0 / (dims[0] + dims[1]) as f32).sqrt();
                Tensor::rand_uniform(dims, -bound, bound, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        assert!(Init::Zeros.tensor(&[3], 0).data().iter().all(|&v| v == 0.0));
        assert!(Init::Ones.tensor(&[3], 0).data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn normal_std_scales() {
        let t = Init::Normal(0.02).tensor(&[1000], 9);
        let std = (t.data().iter().map(|v| v * v).sum::<f32>() / 1000.0).sqrt();
        assert!((std - 0.02).abs() < 0.005, "std {std}");
    }

    #[test]
    fn xavier_bounds() {
        let t = Init::XavierUniform.tensor(&[100, 50], 4);
        let bound = (6.0 / 150.0f32).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            Init::Normal(1.0).tensor(&[8], 42),
            Init::Normal(1.0).tensor(&[8], 42)
        );
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn xavier_rank1_panics() {
        Init::XavierUniform.tensor(&[10], 0);
    }
}
