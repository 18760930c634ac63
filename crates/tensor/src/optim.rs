//! Named parameter store and gradient-descent optimizers.

use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Opaque handle to a parameter inside a [`Params`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(usize);

#[derive(Clone, Debug)]
struct Entry {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A named store of trainable parameters and their gradients.
///
/// `Params` is the single source of truth shared by model definitions,
/// optimizers, and the federated weight exchange: models register tensors by
/// name, training accumulates gradients via
/// [`crate::Graph::grads_into`], optimizers update values in place, and the
/// FL layer reads/writes the full set with [`Params::to_named`] /
/// [`Params::load_named`].
///
/// Iteration order (and therefore serialization order) is the registration
/// order, which is deterministic for a given model constructor.
#[derive(Clone, Debug, Default)]
pub struct Params {
    entries: Vec<Entry>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Registers a tensor under `name`, returning its handle. The gradient
    /// starts at zero.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "parameter {name:?} registered twice"
        );
        let grad = Tensor::zeros(value.dims());
        self.entries.push(Entry { name, value, grad });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalar elements).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar elements across all parameters.
    pub fn num_elements(&self) -> usize {
        self.entries.iter().map(|e| e.value.numel()).sum()
    }

    /// The value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access to a parameter value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable access to the accumulated gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// The mutable value and the accumulated gradient of one parameter,
    /// borrowed together so optimizers can update in place without cloning
    /// either tensor.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let e = &mut self.entries[id.0];
        (&mut e.value, &e.grad)
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Looks up a parameter by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(ParamId)
    }

    /// Iterates over `(id, name, value)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ParamId(i), e.name.as_str(), &e.value))
    }

    /// Iterates over `(name, value, gradient)` in registration order with
    /// the gradient mutable, for in-place gradient terms that read the
    /// value (e.g. a proximal penalty) without cloning either tensor.
    pub fn iter_grads_mut(&mut self) -> impl Iterator<Item = (&str, &Tensor, &mut Tensor)> {
        self.entries
            .iter_mut()
            .map(|e| (e.name.as_str(), &e.value, &mut e.grad))
    }

    /// Zeroes all gradients (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.zero_();
        }
    }

    /// Global L2 norm over all gradients.
    pub fn grad_l2_norm(&self) -> f32 {
        self.entries
            .iter()
            .map(|e| e.grad.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Exports all values as a name → tensor map (the federated "model
    /// weights" payload).
    pub fn to_named(&self) -> BTreeMap<String, Tensor> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.value.clone()))
            .collect()
    }

    /// Loads values from a name → tensor map produced by [`Params::to_named`]
    /// on an identically-constructed model.
    ///
    /// Returns the number of parameters updated.
    ///
    /// # Panics
    ///
    /// Panics if a named tensor exists locally with a different shape
    /// (indicates a model-architecture mismatch between FL sites). Names
    /// present in the map but not registered locally are ignored, so a
    /// server checkpoint with extra heads can still initialize a backbone.
    pub fn load_named(&mut self, named: &BTreeMap<String, Tensor>) -> usize {
        self.copy_values_from(|name| named.get(name).map(|t| (t.dims(), t.data())))
    }

    /// Loads parameter values by copying from borrowed `(dims, data)` slices
    /// produced by `lookup`, reusing each parameter's existing buffer (no
    /// tensor allocation). Names `lookup` does not know are left untouched.
    ///
    /// Returns the number of parameters updated.
    ///
    /// # Panics
    ///
    /// Panics if a looked-up entry has a different shape than the local
    /// parameter (model-architecture mismatch between FL sites).
    pub fn copy_values_from<'a>(
        &mut self,
        mut lookup: impl FnMut(&str) -> Option<(&'a [usize], &'a [f32])>,
    ) -> usize {
        let mut updated = 0;
        for e in &mut self.entries {
            if let Some((dims, data)) = lookup(&e.name) {
                assert_eq!(
                    dims,
                    e.value.dims(),
                    "parameter {:?} shape mismatch on load",
                    e.name
                );
                e.value.data_mut().copy_from_slice(data);
                updated += 1;
            }
        }
        updated
    }

    /// Loads parameter values by taking ownership of tensors produced by
    /// `take`, replacing each parameter's buffer outright (the consuming
    /// counterpart of [`Params::copy_values_from`] for callers that already
    /// hold owned storage, e.g. deserialized wire payloads).
    ///
    /// Returns the number of parameters updated.
    ///
    /// # Panics
    ///
    /// Panics if a taken tensor has a different shape than the local
    /// parameter.
    pub fn replace_values(&mut self, mut take: impl FnMut(&str) -> Option<Tensor>) -> usize {
        let mut updated = 0;
        for e in &mut self.entries {
            if let Some(t) = take(&e.name) {
                assert_eq!(
                    t.dims(),
                    e.value.dims(),
                    "parameter {:?} shape mismatch on load",
                    e.name
                );
                e.value = t;
                updated += 1;
            }
        }
        updated
    }
}

/// Learning-rate schedule applied on top of an optimizer's base rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Linear ramp from 0 to the base rate over `warmup_steps`, then
    /// constant (the standard transformer warmup).
    LinearWarmup {
        /// Steps to reach the base rate.
        warmup_steps: u64,
    },
    /// Linear warmup followed by cosine decay to zero at `total_steps`.
    WarmupCosine {
        /// Steps to reach the base rate.
        warmup_steps: u64,
        /// Step at which the rate reaches zero.
        total_steps: u64,
    },
}

impl LrSchedule {
    /// The learning rate at `step` (1-based) for a base rate `base`.
    pub fn lr_at(&self, base: f32, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::LinearWarmup { warmup_steps } => {
                if warmup_steps == 0 || step >= warmup_steps {
                    base
                } else {
                    base * step as f32 / warmup_steps as f32
                }
            }
            LrSchedule::WarmupCosine {
                warmup_steps,
                total_steps,
            } => {
                if step < warmup_steps && warmup_steps > 0 {
                    base * step as f32 / warmup_steps as f32
                } else if step >= total_steps {
                    0.0
                } else {
                    let span = (total_steps - warmup_steps).max(1) as f32;
                    let t = (step - warmup_steps) as f32 / span;
                    base * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())
                }
            }
        }
    }
}

/// A gradient-descent optimizer over a [`Params`] store.
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then zeroes them.
    fn step(&mut self, params: &mut Params);
    /// The current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Optional global-norm gradient clipping applied before an update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f32,
}

impl GradClip {
    /// Scales all gradients so their global L2 norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn apply(&self, params: &mut Params) -> f32 {
        let norm = params.grad_l2_norm();
        if norm > self.max_norm && norm > 0.0 {
            let scale = self.max_norm / norm;
            for i in 0..params.len() {
                let id = ParamId(i);
                for v in params.grad_mut(id).data_mut() {
                    *v *= scale;
                }
            }
        }
        norm
    }
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// SGD with the given learning rate and no momentum.
    pub fn with_lr(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params) {
        if self.velocity.len() != params.len() {
            self.velocity = (0..params.len())
                .map(|i| Tensor::zeros(params.value(ParamId(i)).dims()))
                .collect();
        }
        for i in 0..params.len() {
            let id = ParamId(i);
            let (value, grad) = params.value_and_grad_mut(id);
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                for (vv, gv) in v.data_mut().iter_mut().zip(grad.data()) {
                    *vv = self.momentum * *vv + gv;
                }
                value.axpy(-self.lr, &self.velocity[i]);
            } else {
                value.axpy(-self.lr, grad);
            }
        }
        params.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Configuration for [`Adam`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdamConfig {
    /// Learning rate (the paper uses `1e-2`).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style); 0 disables.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba), the optimizer used in the paper
/// (Table I: "Adam, 1e-2").
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the given config.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam {
            cfg,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with default betas and the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(AdamConfig {
            lr,
            ..AdamConfig::default()
        })
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params) {
        if self.m.len() != params.len() {
            self.m = (0..params.len())
                .map(|i| Tensor::zeros(params.value(ParamId(i)).dims()))
                .collect();
            self.v = self.m.clone();
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        for i in 0..params.len() {
            let id = ParamId(i);
            let (value, grad) = params.value_and_grad_mut(id);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mv, vv), &g) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data())
            {
                *mv = self.cfg.beta1 * *mv + (1.0 - self.cfg.beta1) * g;
                *vv = self.cfg.beta2 * *vv + (1.0 - self.cfg.beta2) * g * g;
            }
            let lr = self.cfg.lr;
            let eps = self.cfg.eps;
            let wd = self.cfg.weight_decay;
            for ((x, &mv), &vv) in value
                .data_mut()
                .iter_mut()
                .zip(self.m[i].data())
                .zip(self.v[i].data())
            {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                let mut upd = mhat / (vhat.sqrt() + eps);
                if wd > 0.0 {
                    upd += wd * *x;
                }
                *x -= lr * upd;
            }
        }
        params.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.cfg.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut p = Params::new();
        let a = p.register("a", Tensor::ones(&[2, 2]));
        let b = p.register("b", Tensor::zeros(&[3]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_elements(), 7);
        assert_eq!(p.name(a), "a");
        assert_eq!(p.id_of("b"), Some(b));
        assert_eq!(p.id_of("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.register("a", Tensor::ones(&[1]));
        p.register("a", Tensor::ones(&[1]));
    }

    #[test]
    fn named_roundtrip() {
        let mut p = Params::new();
        let a = p.register("w", Tensor::randn(&[4], 1.0, 3));
        let map = p.to_named();
        let mut q = Params::new();
        let qa = q.register("w", Tensor::zeros(&[4]));
        assert_eq!(q.load_named(&map), 1);
        assert_eq!(q.value(qa), p.value(a));
    }

    #[test]
    fn load_named_ignores_unknown() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(&[2]));
        let mut map = p.to_named();
        map.insert("extra".into(), Tensor::ones(&[5]));
        assert_eq!(p.load_named(&map), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_named_shape_mismatch_panics() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(&[2]));
        let mut map = BTreeMap::new();
        map.insert("w".to_string(), Tensor::zeros(&[3]));
        p.load_named(&map);
    }

    #[test]
    fn replace_values_moves_owned_tensors() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[2]));
        let mut incoming = BTreeMap::new();
        incoming.insert(
            "w".to_string(),
            Tensor::from_vec(&[2], vec![1.5, -2.5]).unwrap(),
        );
        incoming.insert("extra".to_string(), Tensor::ones(&[3]));
        assert_eq!(p.replace_values(|name| incoming.remove(name)), 1);
        assert_eq!(p.value(w).data(), &[1.5, -2.5]);
        // Unknown names are left in the source, known ones were consumed.
        assert!(incoming.contains_key("extra") && !incoming.contains_key("w"));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn replace_values_shape_mismatch_panics() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(&[2]));
        p.replace_values(|_| Some(Tensor::zeros(&[3])));
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap());
        p.grad_mut(w).data_mut().copy_from_slice(&[0.5, -0.5]);
        let mut opt = Sgd::with_lr(0.1);
        opt.step(&mut p);
        assert_eq!(p.value(w).data(), &[0.95, -0.95]);
        // Gradients are cleared after the step.
        assert_eq!(p.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[1]));
        let mut opt = Sgd::with_momentum(1.0, 0.5);
        for _ in 0..2 {
            p.grad_mut(w).data_mut()[0] = 1.0;
            opt.step(&mut p);
        }
        // v1 = 1, x = -1; v2 = 1.5, x = -2.5
        assert!((p.value(w).data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, |first Adam update| == lr regardless of
        // gradient magnitude.
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[1]));
        p.grad_mut(w).data_mut()[0] = 123.0;
        let mut opt = Adam::with_lr(0.01);
        opt.step(&mut p);
        assert!((p.value(w).data()[0] + 0.01).abs() < 1e-4);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize (w - 3)^2 — gradient 2(w-3).
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[1]));
        let mut opt = Adam::with_lr(0.1);
        for _ in 0..300 {
            let wv = p.value(w).data()[0];
            p.grad_mut(w).data_mut()[0] = 2.0 * (wv - 3.0);
            opt.step(&mut p);
        }
        assert!((p.value(w).data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn weight_decay_shrinks() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::from_vec(&[1], vec![10.0]).unwrap());
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..AdamConfig::default()
        });
        // Zero gradient: only decay acts.
        opt.step(&mut p);
        assert!(p.value(w).data()[0] < 10.0);
    }

    #[test]
    fn lr_schedules() {
        let c = LrSchedule::Constant;
        assert_eq!(c.lr_at(0.1, 1), 0.1);
        let w = LrSchedule::LinearWarmup { warmup_steps: 10 };
        assert!((w.lr_at(1.0, 5) - 0.5).abs() < 1e-6);
        assert_eq!(w.lr_at(1.0, 10), 1.0);
        assert_eq!(w.lr_at(1.0, 100), 1.0);
        let wc = LrSchedule::WarmupCosine {
            warmup_steps: 10,
            total_steps: 110,
        };
        assert!((wc.lr_at(1.0, 5) - 0.5).abs() < 1e-6);
        assert!((wc.lr_at(1.0, 60) - 0.5).abs() < 1e-6); // cosine midpoint
        assert_eq!(wc.lr_at(1.0, 110), 0.0);
        assert_eq!(wc.lr_at(1.0, 500), 0.0);
        // Degenerate warmup never divides by zero.
        let z = LrSchedule::LinearWarmup { warmup_steps: 0 };
        assert_eq!(z.lr_at(1.0, 1), 1.0);
    }

    #[test]
    fn grad_clip_limits_norm() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[2]));
        p.grad_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let clip = GradClip { max_norm: 1.0 };
        let pre = clip.apply(&mut p);
        assert_eq!(pre, 5.0);
        assert!((p.grad_l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn grad_clip_noop_under_limit() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(&[2]));
        p.grad_mut(w).data_mut().copy_from_slice(&[0.3, 0.4]);
        GradClip { max_norm: 1.0 }.apply(&mut p);
        assert_eq!(p.grad(w).data(), &[0.3, 0.4]);
    }
}
