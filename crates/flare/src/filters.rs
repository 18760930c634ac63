//! Client-side DXO filters (NVFlare's privacy-filter concept).
//!
//! Filters transform an outgoing update before it leaves the site —
//! differential-privacy noise, secure-aggregation masking. They compose in
//! a [`FilterChain`].

use crate::dxo::{Dxo, Weights};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A transformation applied to an outgoing update.
pub trait Filter: Send {
    /// Transforms `dxo`, given the global weights the round started from.
    fn apply(&mut self, dxo: Dxo, global: &Weights, round: u32) -> Dxo;

    /// Filter name for logs.
    fn name(&self) -> &'static str;
}

/// An ordered chain of filters.
#[derive(Default)]
pub struct FilterChain {
    filters: Vec<Box<dyn Filter>>,
}

impl std::fmt::Debug for FilterChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FilterChain({} filters)", self.filters.len())
    }
}

impl FilterChain {
    /// An empty chain (identity).
    pub fn new() -> Self {
        FilterChain::default()
    }

    /// Appends a filter.
    pub fn push(&mut self, f: Box<dyn Filter>) -> &mut Self {
        self.filters.push(f);
        self
    }

    /// Appends every filter of `other`, in order.
    pub fn append(&mut self, mut other: FilterChain) -> &mut Self {
        self.filters.append(&mut other.filters);
        self
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Applies every filter in order.
    pub fn apply(&mut self, mut dxo: Dxo, global: &Weights, round: u32) -> Dxo {
        for f in &mut self.filters {
            dxo = f.apply(dxo, global, round);
        }
        dxo
    }
}

/// Differential-privacy filter: clips the update's deviation from the
/// global model to `clip_norm` (global L2) and adds Gaussian noise with
/// standard deviation `sigma * clip_norm` to each coordinate.
#[derive(Clone, Debug)]
pub struct DpGaussian {
    /// Maximum L2 norm of the weight delta.
    pub clip_norm: f32,
    /// Noise multiplier.
    pub sigma: f32,
    /// Noise seed (per-site).
    pub seed: u64,
}

impl Filter for DpGaussian {
    fn apply(&mut self, mut dxo: Dxo, global: &Weights, round: u32) -> Dxo {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (round as u64).wrapping_mul(0x9E37));
        // Compute the global L2 norm of the delta.
        let mut sq = 0.0f64;
        for (name, t) in &dxo.weights {
            if let Some(g) = global.get(name) {
                for (a, b) in t.data.iter().zip(&g.data) {
                    let d = (a - b) as f64;
                    sq += d * d;
                }
            }
        }
        let norm = sq.sqrt() as f32;
        let scale = if norm > self.clip_norm && norm > 0.0 {
            self.clip_norm / norm
        } else {
            1.0
        };
        let noise_std = self.sigma * self.clip_norm;
        for (name, t) in dxo.weights.iter_mut() {
            if let Some(g) = global.get(name) {
                for (a, &b) in t.data.iter_mut().zip(&g.data) {
                    let delta = (*a - b) * scale;
                    let noise = gaussian(&mut rng) * noise_std;
                    *a = b + delta + noise;
                }
            }
        }
        dxo
    }

    fn name(&self) -> &'static str {
        "DpGaussian"
    }
}

/// Pairwise secure-aggregation masking (Bonawitz et al.-style, toy PRG):
/// site `i` adds, for every peer `j`, a pseudorandom mask derived from the
/// shared pair seed — positive when `i < j`, negative otherwise — after
/// scaling its weights by `n_examples`. Summing all sites' payloads cancels
/// every mask, so the server (using [`crate::aggregator::MaskedSum`]) sees
/// only `Σ nᵢwᵢ` while individual updates look like noise.
#[derive(Clone, Debug)]
pub struct SecureAggMask {
    /// This site's index in `0..n_sites`.
    pub site_index: usize,
    /// Total number of sites participating every round.
    pub n_sites: usize,
    /// Shared session seed (from provisioning).
    pub session_seed: u64,
}

impl SecureAggMask {
    fn pair_seed(&self, a: usize, b: usize, round: u32, name: &str) -> u64 {
        let mut h = self.session_seed ^ 0x51_7e_ed;
        for byte in name.bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
        h ^ ((a as u64) << 40) ^ ((b as u64) << 20) ^ round as u64
    }
}

impl Filter for SecureAggMask {
    fn apply(&mut self, mut dxo: Dxo, _global: &Weights, round: u32) -> Dxo {
        let n = dxo.n_examples.max(1) as f32;
        for (name, t) in dxo.weights.iter_mut() {
            // Scale to n·w so MaskedSum recovers the weighted mean.
            for v in t.data.iter_mut() {
                *v *= n;
            }
            for peer in 0..self.n_sites {
                if peer == self.site_index {
                    continue;
                }
                let (lo, hi) = if self.site_index < peer {
                    (self.site_index, peer)
                } else {
                    (peer, self.site_index)
                };
                let sign = if self.site_index < peer { 1.0 } else { -1.0 };
                let mut rng = StdRng::seed_from_u64(self.pair_seed(lo, hi, round, name));
                for v in t.data.iter_mut() {
                    *v += sign * (rng.random::<f32>() - 0.5) * 2.0;
                }
            }
        }
        dxo
    }

    fn name(&self) -> &'static str {
        "SecureAggMask"
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-12);
    let u2: f32 = rng.random();
    (-2.0f32 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dxo::WeightTensor;

    fn weights(v: f32) -> Weights {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![4], vec![v; 4]));
        w
    }

    #[test]
    fn dp_clips_large_delta() {
        let global = weights(0.0);
        let update = Dxo::from_weights(weights(100.0), 10);
        let mut f = DpGaussian {
            clip_norm: 1.0,
            sigma: 0.0,
            seed: 1,
        };
        let out = f.apply(update, &global, 0);
        let norm: f32 = out.weights["p"]
            .data
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "clipped norm {norm}");
    }

    #[test]
    fn dp_noise_perturbs() {
        let global = weights(0.0);
        let update = Dxo::from_weights(weights(0.1), 10);
        let mut f = DpGaussian {
            clip_norm: 10.0,
            sigma: 0.5,
            seed: 3,
        };
        let out = f.apply(update.clone(), &global, 0);
        assert_ne!(out.weights["p"].data, update.weights["p"].data);
        // Deterministic per (seed, round).
        let mut f2 = DpGaussian {
            clip_norm: 10.0,
            sigma: 0.5,
            seed: 3,
        };
        let out2 = f2.apply(update.clone(), &global, 0);
        assert_eq!(out.weights["p"].data, out2.weights["p"].data);
        let out3 = f2.apply(update, &global, 1);
        assert_ne!(out.weights["p"].data, out3.weights["p"].data);
    }

    #[test]
    fn secure_masks_cancel_in_sum() {
        let global = weights(0.0);
        let n_sites = 4;
        let values = [1.0f32, 2.0, 3.0, 4.0];
        let counts = [10u64, 20, 30, 40];
        let mut masked: Vec<Dxo> = Vec::new();
        for i in 0..n_sites {
            let mut f = SecureAggMask {
                site_index: i,
                n_sites,
                session_seed: 99,
            };
            masked.push(f.apply(Dxo::from_weights(weights(values[i]), counts[i]), &global, 2));
        }
        // Individual payloads look nothing like n*w … (checked over the
        // whole vector: a single coordinate's masks can nearly cancel)
        let dist: f32 = masked[0].weights["p"]
            .data
            .iter()
            .map(|v| (v - 10.0).abs())
            .sum();
        assert!(dist > 0.5, "masked payload too close to n*w: {dist}");
        // … but the sum is exactly Σ n_i w_i.
        let mut sum = [0.0f64; 4];
        for m in &masked {
            for (s, &v) in sum.iter_mut().zip(&m.weights["p"].data) {
                *s += v as f64;
            }
        }
        let expected: f64 = values
            .iter()
            .zip(counts)
            .map(|(v, c)| *v as f64 * c as f64)
            .sum();
        for s in sum {
            assert!((s - expected).abs() < 1e-2, "{s} vs {expected}");
        }
    }

    #[test]
    fn chain_applies_in_order() {
        let global = weights(0.0);
        let mut chain = FilterChain::new();
        assert!(chain.is_empty());
        for seed in 0..2 {
            chain.push(Box::new(DpGaussian {
                clip_norm: 1e6,
                sigma: 0.0,
                seed,
            }));
        }
        assert_eq!(chain.len(), 2);
        let update = Dxo::from_weights(weights(1.5), 5);
        let out = chain.apply(update.clone(), &global, 0);
        // Both filters are identity at these settings.
        for (a, b) in out.weights["p"].data.iter().zip(&update.weights["p"].data) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
