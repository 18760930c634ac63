//! Conversions between the autograd parameter store and the federated
//! wire format.

use clinfl_flare::{WeightTensor, Weights};
use clinfl_tensor::Params;

/// Exports a [`Params`] store as federated [`Weights`].
pub fn params_to_weights(params: &Params) -> Weights {
    params
        .iter()
        .map(|(_, name, t)| {
            (
                name.to_string(),
                WeightTensor::new(t.dims().to_vec(), t.data().to_vec()),
            )
        })
        .collect()
}

/// Loads federated [`Weights`] into a [`Params`] store (matching by name).
/// Returns the number of parameters updated.
///
/// # Panics
///
/// Panics if a named tensor has a different shape locally — that means two
/// sites built different architectures, which must fail loudly.
pub fn weights_to_params(weights: &Weights, params: &mut Params) -> usize {
    params.copy_values_from(|name| {
        weights
            .get(name)
            .map(|wt| (wt.dims.as_slice(), wt.data.as_slice()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_tensor::Tensor;

    #[test]
    fn roundtrip_preserves_values() {
        let mut p = Params::new();
        let pa = p.register("a", Tensor::randn(&[3, 2], 1.0, 1));
        p.register("b", Tensor::ones(&[4]));
        let w = params_to_weights(&p);
        assert_eq!(w.len(), 2);
        assert_eq!(w["a"].dims, vec![3, 2]);

        let mut q = Params::new();
        let qa = q.register("a", Tensor::zeros(&[3, 2]));
        q.register("b", Tensor::zeros(&[4]));
        assert_eq!(weights_to_params(&w, &mut q), 2);
        assert_eq!(q.value(qa), p.value(pa));
    }

    #[test]
    fn extra_wire_tensors_ignored() {
        let mut p = Params::new();
        p.register("a", Tensor::zeros(&[2]));
        let mut w = params_to_weights(&p);
        w.insert("extra".into(), WeightTensor::new(vec![1], vec![5.0]));
        let mut q = Params::new();
        q.register("a", Tensor::zeros(&[2]));
        assert_eq!(weights_to_params(&w, &mut q), 1);
    }
}
