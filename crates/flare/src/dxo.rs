//! Data-exchange objects: the payloads moving between server and clients.
//!
//! NVFlare calls its typed payload a *DXO* ("data exchange object") and Fig. 3
//! of the paper shows its `DXOAggregator` at work; this module is the
//! equivalent.

use std::collections::BTreeMap;

/// A dense named weight tensor as it travels on the wire (framework-
/// agnostic: no autograd attached).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightTensor {
    /// Dimension extents, row-major.
    pub dims: Vec<usize>,
    /// Flat data.
    pub data: Vec<f32>,
}

impl WeightTensor {
    /// Creates a tensor, validating the element count.
    ///
    /// # Panics
    ///
    /// Panics if `dims` does not multiply out to `data.len()`.
    pub fn new(dims: Vec<usize>, data: Vec<f32>) -> Self {
        let expect: usize = dims.iter().product();
        assert_eq!(expect, data.len(), "weight tensor shape/data mismatch");
        WeightTensor { dims, data }
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Decomposes into `(dims, data)`, handing the buffers to the caller
    /// without copying (e.g. to rebuild an autograd tensor from a received
    /// payload).
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.dims, self.data)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// A full named model: the unit of federated weight exchange.
pub type Weights = BTreeMap<String, WeightTensor>;

/// What a [`Dxo`] payload carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DxoKind {
    /// Full model weights.
    Weights,
    /// Weight *differences* against the broadcast global model (used with
    /// differential-privacy filters).
    WeightDiff,
    /// Metric values only.
    Metrics,
}

/// NVFlare-style data exchange object: typed payload plus metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Dxo {
    /// Payload type.
    pub kind: DxoKind,
    /// Model weights (empty for pure-metric DXOs).
    pub weights: Weights,
    /// Scalar metrics (e.g. `train_loss`, `valid_acc`).
    pub metrics: BTreeMap<String, f64>,
    /// Number of local examples backing this update (aggregation weight).
    pub n_examples: u64,
}

impl Dxo {
    /// A weights DXO with no metrics.
    pub fn from_weights(weights: Weights, n_examples: u64) -> Self {
        Dxo {
            kind: DxoKind::Weights,
            weights,
            metrics: BTreeMap::new(),
            n_examples,
        }
    }

    /// A metrics-only DXO.
    pub fn from_metrics(metrics: BTreeMap<String, f64>) -> Self {
        Dxo {
            kind: DxoKind::Metrics,
            weights: Weights::new(),
            metrics,
            n_examples: 0,
        }
    }

    /// Total scalar elements across all weight tensors.
    pub fn num_elements(&self) -> usize {
        self.weights.values().map(WeightTensor::numel).sum()
    }

    /// Validates the payload: every tensor finite, and (if `reference` is
    /// given) the same names and shapes as the reference model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self, reference: Option<&Weights>) -> Result<(), String> {
        for (name, t) in &self.weights {
            if !t.all_finite() {
                return Err(format!("tensor {name:?} contains non-finite values"));
            }
        }
        if let Some(r) = reference {
            if r.len() != self.weights.len() {
                return Err(format!(
                    "update has {} tensors, global model has {}",
                    self.weights.len(),
                    r.len()
                ));
            }
            for (name, t) in &self.weights {
                match r.get(name) {
                    None => return Err(format!("unknown tensor {name:?} in update")),
                    Some(rt) if rt.dims != t.dims => {
                        return Err(format!(
                            "tensor {name:?} shape {:?} != reference {:?}",
                            t.dims, rt.dims
                        ))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> Weights {
        let mut w = Weights::new();
        w.insert(
            "a".into(),
            WeightTensor::new(vec![2, 2], vec![1., 2., 3., 4.]),
        );
        w.insert("b".into(), WeightTensor::new(vec![3], vec![0.; 3]));
        w
    }

    #[test]
    fn numel_sums() {
        let d = Dxo::from_weights(weights(), 10);
        assert_eq!(d.num_elements(), 7);
        assert_eq!(d.n_examples, 10);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_tensor_panics() {
        WeightTensor::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn validate_accepts_matching() {
        let d = Dxo::from_weights(weights(), 1);
        assert!(d.validate(Some(&weights())).is_ok());
        assert!(d.validate(None).is_ok());
    }

    #[test]
    fn validate_rejects_nan() {
        let mut w = weights();
        w.get_mut("a").unwrap().data[0] = f32::NAN;
        let d = Dxo::from_weights(w, 1);
        let err = d.validate(None).unwrap_err();
        assert!(err.contains("non-finite"));
    }

    #[test]
    fn validate_rejects_shape_change() {
        let mut w = weights();
        w.insert("a".into(), WeightTensor::new(vec![4], vec![0.; 4]));
        let d = Dxo::from_weights(w, 1);
        let err = d.validate(Some(&weights())).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn validate_rejects_unknown_tensor() {
        let mut w = weights();
        w.insert("zzz".into(), WeightTensor::new(vec![1], vec![0.]));
        let d = Dxo::from_weights(w, 1);
        assert!(d.validate(Some(&weights())).is_err());
    }
}
