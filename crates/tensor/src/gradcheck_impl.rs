//! Finite-difference gradient checking.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Result of a [`gradcheck`] run.
#[derive(Clone, Debug)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Largest relative difference (|a-n| / max(1, |a|, |n|)).
    pub max_rel_diff: f32,
    /// Number of elements checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// True when the differences are within `tol` (relative).
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_diff <= tol
    }
}

/// Verifies the analytic gradients of a scalar function against central
/// finite differences.
///
/// `build` receives a fresh [`Graph`] (in evaluation mode, so dropout is
/// inactive and the function is deterministic) and the input variables, and
/// must return a scalar loss variable.
///
/// This is `O(numel^2)` work — use small shapes. Internal computations run
/// in `f32`, so tolerances around `1e-2` relative are appropriate.
///
/// # Panics
///
/// Panics if `build` returns a non-scalar loss.
///
/// # Example
///
/// ```
/// use clinfl_tensor::{gradcheck, Tensor};
/// let report = gradcheck(
///     &[Tensor::randn(&[2, 3], 1.0, 1)],
///     |g, vars| {
///         let t = g.tanh(vars[0]);
///         g.sum(t)
///     },
/// );
/// assert!(report.passes(1e-2));
/// ```
pub fn gradcheck(inputs: &[Tensor], build: impl Fn(&mut Graph, &[Var]) -> Var) -> GradCheckReport {
    let eval = |tensors: &[Tensor]| -> f32 {
        let mut g = Graph::new();
        g.set_training(false);
        let vars: Vec<Var> = tensors.iter().map(|t| g.input(t.clone())).collect();
        let loss = build(&mut g, &vars);
        g.value(loss).item()
    };

    // Analytic gradients.
    let mut g = Graph::new();
    g.set_training(false);
    let vars: Vec<Var> = inputs.iter().map(|t| g.input(t.clone())).collect();
    let loss = build(&mut g, &vars);
    g.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .zip(inputs)
        .map(|(v, t)| {
            g.grad(*v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(t.dims()))
        })
        .collect();

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;
    let eps = 1e-2f32;
    let mut work: Vec<Tensor> = inputs.to_vec();
    for (ti, input) in inputs.iter().enumerate() {
        for ei in 0..input.numel() {
            let orig = input.data()[ei];
            work[ti].data_mut()[ei] = orig + eps;
            let up = eval(&work);
            work[ti].data_mut()[ei] = orig - eps;
            let down = eval(&work);
            work[ti].data_mut()[ei] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic[ti].data()[ei];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1.0);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
            checked += 1;
        }
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_passes() {
        let r = gradcheck(&[Tensor::randn(&[3], 1.0, 5)], |g, v| {
            let sq = g.mul(v[0], v[0]);
            g.sum(sq)
        });
        assert!(r.passes(1e-2), "{r:?}");
        assert_eq!(r.checked, 3);
    }

    #[test]
    fn input_used_twice_accumulates() {
        // f = sum(x + x): both uses of x must reach its gradient (2 each).
        let base = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let r = gradcheck(&[base], |g, v| {
            let y = g.add(v[0], v[0]);
            g.sum(y)
        });
        assert!(r.passes(1e-2));
    }
}
