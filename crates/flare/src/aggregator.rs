//! Server-side aggregation of client updates.
//!
//! The paper's runs use NVFlare's default weighted federated averaging
//! (its Fig. 3 shows the `DXOAggregator` "aggregating 8 update(s)"); the
//! robust aggregators are extensions used by the ablation benches.

use crate::dxo::{Dxo, WeightTensor, Weights};
use crate::filters::{Filter, SecureAggMask};
use crate::FlareError;

/// An aggregation rule combining per-site updates into a new global model.
pub trait Aggregator: Send + Sync {
    /// Combines `updates` (site name + DXO) given the current global model
    /// `reference`.
    ///
    /// # Errors
    ///
    /// Implementations reject empty update sets and malformed updates.
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError>;

    /// Human-readable rule name (for logs and bench tables).
    fn name(&self) -> &'static str;

    /// The filter this rule needs last in site `site`'s outgoing chain
    /// (of `n_sites`, in a run seeded with `seed`);
    /// [`crate::simulator::SimulatorRunner::run`] appends it. Plain rules
    /// need none.
    fn site_filter(&self, site: usize, n_sites: usize, seed: u64) -> Option<Box<dyn Filter>> {
        let _ = (site, n_sites, seed);
        None
    }

    /// Whether this rule decomposes over disjoint shards: an interior
    /// tree-aggregator node may combine its shard with [`Aggregator::partial`]
    /// and forward one update, with the root's [`Aggregator::aggregate`]
    /// over the partials equal to a flat aggregation over all leaves.
    /// Order statistics (median, trimmed mean) do not decompose and keep
    /// the default `false`; the simulator then falls back to a flat
    /// topology.
    fn supports_partial(&self) -> bool {
        false
    }

    /// Combines a shard of updates into one partial update whose
    /// `n_examples` carries the shard's total weight upstream. Only
    /// meaningful when [`Aggregator::supports_partial`] is `true`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Aggregator::aggregate`]; additionally
    /// [`FlareError::RejectedUpdate`] when the rule does not decompose.
    fn partial(&self, updates: &[(String, Dxo)], reference: &Weights) -> Result<Dxo, FlareError> {
        let _ = (updates, reference);
        Err(FlareError::RejectedUpdate(format!(
            "{} does not support partial (tree) aggregation",
            self.name()
        )))
    }
}

fn check_updates(updates: &[(String, Dxo)], reference: &Weights) -> Result<(), FlareError> {
    if updates.is_empty() {
        return Err(FlareError::NotEnoughClients { got: 0, needed: 1 });
    }
    for (site, dxo) in updates {
        dxo.validate(Some(reference))
            .map_err(|e| FlareError::RejectedUpdate(format!("{site}: {e}")))?;
    }
    Ok(())
}

/// Example-count-weighted federated averaging (McMahan et al.'s FedAvg,
/// NVFlare's default): `w = Σ nᵢ wᵢ / Σ nᵢ`.
///
/// Sites reporting `n_examples == 0` participate with weight 1 so a
/// metrics-less site cannot zero out a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedFedAvg;

impl Aggregator for WeightedFedAvg {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        check_updates(updates, reference)?;
        let weights: Vec<f64> = updates
            .iter()
            .map(|(_, d)| {
                if d.n_examples == 0 {
                    1.0
                } else {
                    d.n_examples as f64
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut out = Weights::new();
        for (name, ref_t) in reference {
            let mut acc = vec![0.0f64; ref_t.numel()];
            for ((_, dxo), &w) in updates.iter().zip(&weights) {
                let t = &dxo.weights[name];
                for (a, &v) in acc.iter_mut().zip(&t.data) {
                    *a += w * v as f64;
                }
            }
            let data: Vec<f32> = acc.into_iter().map(|v| (v / total) as f32).collect();
            out.insert(name.clone(), WeightTensor::new(ref_t.dims.clone(), data));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "WeightedFedAvg"
    }

    fn supports_partial(&self) -> bool {
        true
    }

    /// The weighted mean decomposes: a shard's partial is its weighted
    /// mean carrying `Σ nᵢ` (with `nᵢ == 0` counted as 1) upstream, and
    /// the root's weighted mean over partials equals the flat result.
    fn partial(&self, updates: &[(String, Dxo)], reference: &Weights) -> Result<Dxo, FlareError> {
        let weights = self.aggregate(updates, reference)?;
        let n: u64 = updates
            .iter()
            .map(|(_, d)| if d.n_examples == 0 { 1 } else { d.n_examples })
            .sum();
        Ok(Dxo::from_weights(weights, n))
    }
}

/// Masked-sum aggregation for the secure-aggregation filter: sums the
/// (mask-cancelling) client payloads and divides by the total example
/// count. Clients must pre-multiply their weights by `n_examples` and
/// mask them ([`SecureAggMask`], which [`Aggregator::site_filter`] hands
/// the simulator for every site).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaskedSum;

impl Aggregator for MaskedSum {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        if updates.is_empty() {
            return Err(FlareError::NotEnoughClients { got: 0, needed: 1 });
        }
        // Masked payloads are intentionally perturbed; validate shapes only.
        for (site, dxo) in updates {
            if dxo.weights.len() != reference.len() {
                return Err(FlareError::RejectedUpdate(format!(
                    "{site}: tensor count mismatch"
                )));
            }
        }
        let total: f64 = updates.iter().map(|(_, d)| d.n_examples as f64).sum();
        if total == 0.0 {
            return Err(FlareError::RejectedUpdate(
                "masked-sum requires positive example counts".into(),
            ));
        }
        let mut out = Weights::new();
        for (name, ref_t) in reference {
            let mut acc = vec![0.0f64; ref_t.numel()];
            for (_, dxo) in updates {
                let t = dxo.weights.get(name).ok_or_else(|| {
                    FlareError::RejectedUpdate(format!("missing tensor {name:?}"))
                })?;
                for (a, &v) in acc.iter_mut().zip(&t.data) {
                    *a += v as f64;
                }
            }
            let data: Vec<f32> = acc.into_iter().map(|v| (v / total) as f32).collect();
            out.insert(name.clone(), WeightTensor::new(ref_t.dims.clone(), data));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "MaskedSum"
    }

    /// The pairwise masks, seeded by the run seed over all `n_sites`.
    fn site_filter(&self, site: usize, n_sites: usize, seed: u64) -> Option<Box<dyn Filter>> {
        Some(Box::new(SecureAggMask {
            site_index: site,
            n_sites,
            session_seed: seed,
        }))
    }

    fn supports_partial(&self) -> bool {
        true
    }

    /// Summation is linear, so a shard's partial is the *undivided* sum
    /// of its payloads carrying `Σ nᵢ`: pairwise masks spanning different
    /// shards only cancel once the root adds every partial, and the
    /// root's final divide by the total example count then recovers the
    /// weighted mean.
    fn partial(&self, updates: &[(String, Dxo)], reference: &Weights) -> Result<Dxo, FlareError> {
        if updates.is_empty() {
            return Err(FlareError::NotEnoughClients { got: 0, needed: 1 });
        }
        for (site, dxo) in updates {
            if dxo.weights.len() != reference.len() {
                return Err(FlareError::RejectedUpdate(format!(
                    "{site}: tensor count mismatch"
                )));
            }
        }
        let total_n: u64 = updates.iter().map(|(_, d)| d.n_examples).sum();
        let mut out = Weights::new();
        for (name, ref_t) in reference {
            let mut acc = vec![0.0f64; ref_t.numel()];
            for (_, dxo) in updates {
                let t = dxo.weights.get(name).ok_or_else(|| {
                    FlareError::RejectedUpdate(format!("missing tensor {name:?}"))
                })?;
                for (a, &v) in acc.iter_mut().zip(&t.data) {
                    *a += v as f64;
                }
            }
            let data: Vec<f32> = acc.into_iter().map(|v| v as f32).collect();
            out.insert(name.clone(), WeightTensor::new(ref_t.dims.clone(), data));
        }
        Ok(Dxo::from_weights(out, total_n))
    }
}

/// Coordinate-wise median: robust to a minority of corrupted updates
/// (extension; ablation bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordinateMedian;

impl Aggregator for CoordinateMedian {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        check_updates(updates, reference)?;
        let mut out = Weights::new();
        let mut column: Vec<f32> = Vec::with_capacity(updates.len());
        for (name, ref_t) in reference {
            let mut data = Vec::with_capacity(ref_t.numel());
            for i in 0..ref_t.numel() {
                column.clear();
                column.extend(updates.iter().map(|(_, d)| d.weights[name].data[i]));
                column.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
                let mid = column.len() / 2;
                let median = if column.len() % 2 == 1 {
                    column[mid]
                } else {
                    0.5 * (column[mid - 1] + column[mid])
                };
                data.push(median);
            }
            out.insert(name.clone(), WeightTensor::new(ref_t.dims.clone(), data));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "CoordinateMedian"
    }
}

/// Trimmed mean: drops the `trim` highest and lowest values per coordinate
/// before averaging (extension; ablation bench).
#[derive(Clone, Copy, Debug)]
pub struct TrimmedMean {
    /// Values trimmed from each end (must leave at least one value).
    pub trim: usize,
}

impl Aggregator for TrimmedMean {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        check_updates(updates, reference)?;
        if updates.len() <= 2 * self.trim {
            return Err(FlareError::RejectedUpdate(format!(
                "trimmed mean needs more than {} updates, got {}",
                2 * self.trim,
                updates.len()
            )));
        }
        let mut out = Weights::new();
        let mut column: Vec<f32> = Vec::with_capacity(updates.len());
        for (name, ref_t) in reference {
            let mut data = Vec::with_capacity(ref_t.numel());
            for i in 0..ref_t.numel() {
                column.clear();
                column.extend(updates.iter().map(|(_, d)| d.weights[name].data[i]));
                column.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
                let kept = &column[self.trim..column.len() - self.trim];
                data.push(kept.iter().sum::<f32>() / kept.len() as f32);
            }
            out.insert(name.clone(), WeightTensor::new(ref_t.dims.clone(), data));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "TrimmedMean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f32) -> Weights {
        let mut m = Weights::new();
        m.insert("p".into(), WeightTensor::new(vec![2], vec![v, v * 2.0]));
        m
    }

    fn update(site: &str, v: f32, n: u64) -> (String, Dxo) {
        (site.to_string(), Dxo::from_weights(w(v), n))
    }

    #[test]
    fn fedavg_weighted_mean() {
        // (1*1 + 3*3) / 4 = 2.5
        let updates = vec![update("a", 1.0, 1), update("b", 3.0, 3)];
        let out = WeightedFedAvg.aggregate(&updates, &w(0.0)).unwrap();
        assert_eq!(out["p"].data, vec![2.5, 5.0]);
    }

    #[test]
    fn fedavg_equal_when_counts_equal() {
        let updates = vec![update("a", 2.0, 5), update("b", 4.0, 5)];
        let out = WeightedFedAvg.aggregate(&updates, &w(0.0)).unwrap();
        assert_eq!(out["p"].data, vec![3.0, 6.0]);
    }

    #[test]
    fn fedavg_zero_count_treated_as_one() {
        let updates = vec![update("a", 0.0, 0), update("b", 4.0, 0)];
        let out = WeightedFedAvg.aggregate(&updates, &w(0.0)).unwrap();
        assert_eq!(out["p"].data, vec![2.0, 4.0]);
    }

    #[test]
    fn fedavg_rejects_empty() {
        assert!(WeightedFedAvg.aggregate(&[], &w(0.0)).is_err());
    }

    #[test]
    fn fedavg_rejects_nan_update() {
        let mut bad = w(1.0);
        bad.get_mut("p").unwrap().data[0] = f32::NAN;
        let updates = vec![("a".to_string(), Dxo::from_weights(bad, 1))];
        let err = WeightedFedAvg.aggregate(&updates, &w(0.0)).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn fedavg_rejects_shape_mismatch() {
        let mut bad = Weights::new();
        bad.insert("p".into(), WeightTensor::new(vec![3], vec![0.0; 3]));
        let updates = vec![("a".to_string(), Dxo::from_weights(bad, 1))];
        assert!(WeightedFedAvg.aggregate(&updates, &w(0.0)).is_err());
    }

    #[test]
    fn median_ignores_outlier() {
        let updates = vec![
            update("a", 1.0, 1),
            update("b", 1.2, 1),
            update("evil", 1000.0, 1),
        ];
        let out = CoordinateMedian.aggregate(&updates, &w(0.0)).unwrap();
        assert_eq!(out["p"].data[0], 1.2);
    }

    #[test]
    fn median_even_count_averages_middle() {
        let updates = vec![update("a", 1.0, 1), update("b", 3.0, 1)];
        let out = CoordinateMedian.aggregate(&updates, &w(0.0)).unwrap();
        assert_eq!(out["p"].data[0], 2.0);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let updates = vec![
            update("a", -100.0, 1),
            update("b", 1.0, 1),
            update("c", 2.0, 1),
            update("d", 3.0, 1),
            update("evil", 500.0, 1),
        ];
        let out = TrimmedMean { trim: 1 }
            .aggregate(&updates, &w(0.0))
            .unwrap();
        assert_eq!(out["p"].data[0], 2.0);
    }

    #[test]
    fn trimmed_mean_needs_enough_updates() {
        let updates = vec![update("a", 1.0, 1), update("b", 2.0, 1)];
        assert!(TrimmedMean { trim: 1 }
            .aggregate(&updates, &w(0.0))
            .is_err());
    }

    #[test]
    fn masked_sum_divides_by_total() {
        // Clients send n_i * w_i; sum / Σn is the weighted mean.
        let updates = vec![update("a", 2.0, 2), update("b", 9.0, 3)];
        // payloads: 2.0 (pretend = 2*1.0), 9.0 (= 3*3.0) → (2+9)/5 = 2.2
        let out = MaskedSum.aggregate(&updates, &w(0.0)).unwrap();
        assert!((out["p"].data[0] - 2.2).abs() < 1e-6);
    }

    #[test]
    fn fedavg_partial_composes_to_flat_result() {
        // Four updates split into two shards of two; the two-level
        // weighted mean must equal the flat one.
        let all = vec![
            update("a", 1.0, 2),
            update("b", 3.0, 6),
            update("c", 5.0, 4),
            update("d", 7.0, 4),
        ];
        let flat = WeightedFedAvg.aggregate(&all, &w(0.0)).unwrap();
        let p1 = WeightedFedAvg.partial(&all[..2], &w(0.0)).unwrap();
        let p2 = WeightedFedAvg.partial(&all[2..], &w(0.0)).unwrap();
        assert_eq!(p1.n_examples, 8);
        assert_eq!(p2.n_examples, 8);
        let partials = vec![("agg-0".to_string(), p1), ("agg-1".to_string(), p2)];
        let tree = WeightedFedAvg.aggregate(&partials, &w(0.0)).unwrap();
        assert_eq!(tree["p"].data, flat["p"].data);
    }

    #[test]
    fn fedavg_partial_counts_zero_as_one() {
        let shard = vec![update("a", 2.0, 0), update("b", 4.0, 0)];
        let p = WeightedFedAvg.partial(&shard, &w(0.0)).unwrap();
        assert_eq!(p.n_examples, 2);
        assert_eq!(p.weights["p"].data, vec![3.0, 6.0]);
    }

    #[test]
    fn masked_sum_partial_preserves_mask_cancellation() {
        // Payloads +m and -m in different shards: partials keep the mask
        // residue, the root sum cancels it, the divide recovers the mean.
        let m = 1000.0;
        let all = vec![
            update("a", 2.0 + m, 2),
            update("b", 9.0, 3),
            update("c", 4.0 - m, 4),
            update("d", 5.0, 1),
        ];
        let flat = MaskedSum.aggregate(&all, &w(0.0)).unwrap();
        let p1 = MaskedSum.partial(&all[..2], &w(0.0)).unwrap();
        let p2 = MaskedSum.partial(&all[2..], &w(0.0)).unwrap();
        assert_eq!(p1.n_examples, 5);
        assert_eq!(p2.n_examples, 5);
        let partials = vec![("agg-0".to_string(), p1), ("agg-1".to_string(), p2)];
        let tree = MaskedSum.aggregate(&partials, &w(0.0)).unwrap();
        for (t, f) in tree["p"].data.iter().zip(&flat["p"].data) {
            assert!((t - f).abs() < 1e-4, "tree {t} vs flat {f}");
        }
    }

    #[test]
    fn order_statistics_do_not_decompose() {
        assert!(!CoordinateMedian.supports_partial());
        assert!(!TrimmedMean { trim: 1 }.supports_partial());
        let updates = vec![update("a", 1.0, 1), update("b", 2.0, 1)];
        let err = CoordinateMedian.partial(&updates, &w(0.0)).unwrap_err();
        assert!(err.to_string().contains("partial"));
    }

    #[test]
    fn names() {
        assert_eq!(WeightedFedAvg.name(), "WeightedFedAvg");
        assert_eq!(CoordinateMedian.name(), "CoordinateMedian");
        assert_eq!(TrimmedMean { trim: 1 }.name(), "TrimmedMean");
        assert_eq!(MaskedSum.name(), "MaskedSum");
    }
}
