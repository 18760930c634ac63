//! (ε, δ) accounting for the DP-SGD mode (moments-accountant style).
//!
//! The [`crate::filters::DpGaussian`] filter clips each site's update to
//! `clip_norm` (global L2) and adds per-coordinate Gaussian noise with
//! standard deviation `sigma · clip_norm` — the Gaussian mechanism with
//! noise multiplier `sigma` on a query of sensitivity `clip_norm`. This
//! module tracks the cumulative privacy loss of releasing one such update
//! per round, using Rényi differential privacy (RDP):
//!
//! * One release of the Gaussian mechanism satisfies
//!   `ε_RDP(α) = α / (2σ²)` at every Rényi order `α > 1`.
//! * With per-round client sampling at rate `q`, the loss is amplified to
//!   approximately `q²·α / σ²` (the Abadi et al. moments bound, valid in
//!   the `q·α ≪ σ` regime — documented as an approximation, and an upper
//!   bound of the exact subsampled-Gaussian RDP in that regime).
//! * RDP composes additively over rounds, and converts to `(ε, δ)`-DP via
//!   `ε = min_α [ T·ε_RDP(α) + ln(1/δ) / (α − 1) ]` over a grid of
//!   orders.
//!
//! The accountant is deterministic, allocation-light, and published per
//! round as obs gauges (`flare.dp.epsilon_micro`, in millionths, because
//! [`clinfl_obs::Gauge`] is integral).
//!
//! A federation asks for DP-SGD with the spec key `dp` ([`DpConfig`]);
//! [`crate::simulator::SimulatorRunner::run`] then puts the filter first
//! in every site's outgoing chain and runs the accountant over the
//! completed rounds.

use crate::filters::DpGaussian;
use std::fmt;

/// Rényi orders the conversion minimizes over (the standard Opacus-style
/// grid: dense low orders where subsampled losses bottom out, sparse high
/// orders for the pure-Gaussian regime).
const ALPHA_GRID: [f64; 20] = [
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0,
];

/// Tracks the cumulative (ε, δ) privacy loss of a DP-SGD run.
#[derive(Clone, Debug)]
pub struct DpAccountant {
    /// Noise multiplier σ of the Gaussian mechanism (noise std divided by
    /// clipping norm).
    sigma: f64,
    /// Per-round client sampling rate in `(0, 1]`; `1.0` means every
    /// site participates every round (no amplification).
    sample_rate: f64,
    /// Target δ of the (ε, δ) guarantee.
    delta: f64,
    /// Completed rounds (composition steps).
    steps: u32,
}

impl DpAccountant {
    /// Creates an accountant for noise multiplier `sigma`, per-round
    /// sampling rate `sample_rate`, and target `delta`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`, `0 < sample_rate <= 1`, and
    /// `0 < delta < 1`.
    pub fn new(sigma: f64, sample_rate: f64, delta: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        assert!(
            sample_rate > 0.0 && sample_rate <= 1.0,
            "sample_rate must be in (0,1], got {sample_rate}"
        );
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0,1), got {delta}"
        );
        DpAccountant {
            sigma,
            sample_rate,
            delta,
            steps: 0,
        }
    }

    /// Records one completed round (one noised release per participating
    /// site).
    pub fn step(&mut self) {
        self.steps += 1;
    }

    /// Completed rounds so far.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// The target δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Per-step RDP loss at Rényi order `alpha`.
    fn rdp_step(&self, alpha: f64) -> f64 {
        let base = alpha / (2.0 * self.sigma * self.sigma);
        if self.sample_rate >= 1.0 {
            base
        } else {
            // Subsampled amplification (Abadi-style moments bound):
            // ε_RDP(α) ≈ q²·α / σ², valid for q·α ≪ σ. 2·q²·base = q²α/σ².
            2.0 * self.sample_rate * self.sample_rate * base
        }
    }

    /// The ε of the `(ε, δ)` guarantee after the recorded rounds: RDP
    /// composed over steps, converted at the best order on the grid.
    /// Zero before the first step; monotone non-decreasing in rounds.
    pub fn epsilon(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        let t = self.steps as f64;
        let log_inv_delta = (1.0 / self.delta).ln();
        ALPHA_GRID
            .iter()
            .map(|&alpha| t * self.rdp_step(alpha) + log_inv_delta / (alpha - 1.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// Publishes the current budget into `obs` as integral gauges:
    /// `flare.dp.epsilon_micro` (ε in millionths), `flare.dp.delta_exp`
    /// (⌈−log₁₀ δ⌉), and `flare.dp.rounds`.
    pub fn publish(&self, obs: &clinfl_obs::Registry) {
        if !clinfl_obs::enabled() {
            return;
        }
        let eps_micro = (self.epsilon() * 1e6).round();
        let eps_micro = if eps_micro.is_finite() {
            eps_micro.clamp(0.0, i64::MAX as f64) as i64
        } else {
            i64::MAX
        };
        obs.gauge("flare.dp.epsilon_micro").set(eps_micro);
        obs.gauge("flare.dp.delta_exp")
            .set((-self.delta.log10()).ceil() as i64);
        obs.gauge("flare.dp.rounds").set(self.steps as i64);
    }
}

/// DP-SGD settings of a federation: the value of the spec key `dp`,
/// `clip:C[,sigma:S][,delta:D]` (σ defaults to 1, δ to 1e-5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DpConfig {
    /// Global L2 norm each site's weight delta is clipped to.
    pub clip: f32,
    /// Noise multiplier σ: per-coordinate noise std is `sigma · clip`.
    pub sigma: f32,
    /// Target δ of the tracked (ε, δ) guarantee.
    pub delta: f64,
}

impl DpConfig {
    /// Parses `clip:C[,sigma:S][,delta:D]` in any order, `clip` required.
    ///
    /// # Errors
    ///
    /// A message for a missing `clip`, an unknown or repeated item, a
    /// non-finite or non-positive `clip` or `sigma`, or a `delta` outside
    /// `(0, 1)` — every value [`DpAccountant::new`] would panic on.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (mut clip, mut sigma, mut delta) = (None, None, None);
        for item in s.split(',').map(str::trim) {
            let bad = || format!("bad dp item {item:?}");
            let (name, value) = item.split_once(':').ok_or_else(bad)?;
            let slot = match name {
                "clip" => &mut clip,
                "sigma" => &mut sigma,
                "delta" => &mut delta,
                _ => return Err(bad()),
            };
            if slot.replace(value).is_some() {
                return Err(format!("dp item {name:?} given twice"));
            }
        }
        let positive = |name: &str, v: &str| match v.parse::<f32>() {
            Ok(x) if x > 0.0 && x.is_finite() => Ok(x),
            _ => Err(format!(
                "dp {name} must be a positive finite number, got {v:?}"
            )),
        };
        Ok(DpConfig {
            clip: positive("clip", clip.ok_or("dp needs clip:C")?)?,
            sigma: sigma.map_or(Ok(1.0), |v| positive("sigma", v))?,
            delta: match delta.map(str::parse::<f64>) {
                None => 1e-5,
                Some(Ok(d)) if d > 0.0 && d < 1.0 => d,
                _ => {
                    let got = delta.unwrap_or_default();
                    return Err(format!("dp delta must be in (0, 1), got {got:?}"));
                }
            },
        })
    }

    /// Site `site`'s noise filter in a run seeded with `run_seed`.
    pub fn filter(&self, run_seed: u64, site: usize) -> DpGaussian {
        DpGaussian {
            clip_norm: self.clip,
            sigma: self.sigma,
            seed: run_seed ^ (site as u64 + 1).wrapping_mul(0xD1FF),
        }
    }

    /// The accountant after `rounds` releases at per-round sampling rate
    /// `sample_rate`.
    pub fn account(&self, sample_rate: f64, rounds: usize) -> DpAccountant {
        let mut acc = DpAccountant::new(f64::from(self.sigma), sample_rate, self.delta);
        for _ in 0..rounds {
            acc.step();
        }
        acc
    }
}

/// The canonical text form [`DpConfig::parse`] reads back.
impl fmt::Display for DpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clip:{},sigma:{},delta:{}",
            self.clip, self.sigma, self.delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_starts_at_zero_and_grows_monotonically() {
        let mut acc = DpAccountant::new(1.0, 1.0, 1e-5);
        assert_eq!(acc.epsilon(), 0.0);
        let mut last = 0.0;
        for _ in 0..50 {
            acc.step();
            let eps = acc.epsilon();
            assert!(eps > last, "epsilon must strictly grow: {eps} vs {last}");
            last = eps;
        }
    }

    /// Hand-computed reference: for the unsampled Gaussian mechanism the
    /// continuous-α optimum of `T·α/(2σ²) + ln(1/δ)/(α−1)` is
    /// `ε* = T/(2σ²) + √(2·T·ln(1/δ))/σ`. With σ = 1, T = 1, δ = 1e-5:
    /// ε* = 0.5 + √(2·ln(1e5)) ≈ 5.2983. The grid minimum can only be
    /// slightly above the continuous optimum.
    #[test]
    fn matches_closed_form_reference() {
        let mut acc = DpAccountant::new(1.0, 1.0, 1e-5);
        acc.step();
        let exact = 0.5 + (2.0 * (1e5f64).ln()).sqrt();
        let eps = acc.epsilon();
        assert!(eps >= exact - 1e-9, "grid min {eps} below optimum {exact}");
        assert!(
            eps < exact * 1.02,
            "grid min {eps} too far above optimum {exact}"
        );
    }

    #[test]
    fn more_noise_means_less_epsilon() {
        let eps_at = |sigma: f64| {
            let mut acc = DpAccountant::new(sigma, 1.0, 1e-5);
            for _ in 0..10 {
                acc.step();
            }
            acc.epsilon()
        };
        assert!(eps_at(2.0) < eps_at(1.0));
        assert!(eps_at(4.0) < eps_at(2.0));
    }

    #[test]
    fn sampling_amplifies_privacy() {
        let eps_at = |q: f64| {
            let mut acc = DpAccountant::new(2.0, q, 1e-5);
            for _ in 0..20 {
                acc.step();
            }
            acc.epsilon()
        };
        assert!(eps_at(0.25) < eps_at(1.0));
        assert!(eps_at(0.1) < eps_at(0.5));
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_zero_sigma() {
        DpAccountant::new(0.0, 1.0, 1e-5);
    }
}
