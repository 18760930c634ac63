//! The client-side training interface (NVFlare's `Executor`/`Learner`).

use crate::dxo::{Dxo, Weights};

/// Context passed to an executor with every task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskContext {
    /// Site name (e.g. `site-3`).
    pub site: String,
    /// Current communication round (0-based).
    pub round: u32,
    /// Total rounds `E` in the workflow.
    pub total_rounds: u32,
    /// This site's part of a validation split every site shares: its
    /// position in the provisioned roster and the roster's size (see
    /// [`Executor::validate`]).
    pub shard: Shard,
}

/// One validator's part of an evaluation split that all `of` validators
/// share: the eval batches `j` with `j % of == index`. The `of` shards of
/// a roster are disjoint and together score every batch exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// The validator's 0-based position in the roster.
    pub index: usize,
    /// The roster's size.
    pub of: usize,
}

impl Shard {
    /// The single validator that scores every batch.
    pub const WHOLE: Shard = Shard { index: 0, of: 1 };

    /// This validator's items of `batches`, the eval batches of the
    /// shared split in order.
    pub fn select<I: Iterator>(self, batches: I) -> std::iter::StepBy<std::iter::Skip<I>> {
        batches.skip(self.index).step_by(self.of)
    }
}

/// Local training/validation logic plugged into an [`crate::simulator`]
/// client (the paper's `CiBertLearner` in Fig. 3).
///
/// Implementations load the broadcast global weights, run local epochs on
/// site-private data, and return the updated weights with metrics and the
/// number of examples used (the FedAvg aggregation weight).
pub trait Executor: Send {
    /// One local-training task. Returns the update to submit.
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo;

    /// Validates `global` on the site's validation split; returns the
    /// metric (top-1 accuracy in the paper). The controller reports the
    /// mean over the sites' answers.
    ///
    /// An executor whose split is shared by the whole roster scores only
    /// the eval batches of `ctx.shard` and answers `of · (its part of the
    /// metric's sum) / (the sum's full-split denominator)`, so the mean of
    /// the `of` answers is the full-split metric. A shard with no batches
    /// answers 0 without loading `global`; it still answers, because the
    /// task doubles as the round's keepalive. An executor with a private
    /// split ignores `ctx.shard` and scores all of it.
    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64;
}

/// A trivial executor for runtime tests: "training" adds `delta` to every
/// weight; validation returns the mean of the first tensor.
#[derive(Clone, Debug)]
pub struct ArithmeticExecutor {
    /// Value added to every coordinate per round.
    pub delta: f32,
    /// Reported example count.
    pub n_examples: u64,
}

impl Executor for ArithmeticExecutor {
    fn train(&mut self, global: &Weights, _ctx: &TaskContext) -> Dxo {
        let mut w = global.clone();
        for t in w.values_mut() {
            for v in t.data.iter_mut() {
                *v += self.delta;
            }
        }
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("train_loss".to_string(), 1.0 / (1.0 + self.delta as f64));
        Dxo {
            metrics,
            ..Dxo::from_weights(w, self.n_examples)
        }
    }

    fn validate(&mut self, global: &Weights, _ctx: &TaskContext) -> f64 {
        global
            .values()
            .next()
            .map(|t| t.data.iter().copied().sum::<f32>() as f64 / t.numel() as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dxo::WeightTensor;

    #[test]
    fn arithmetic_executor_adds_delta() {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![2], vec![1.0, 2.0]));
        let mut ex = ArithmeticExecutor {
            delta: 0.5,
            n_examples: 7,
        };
        let ctx = TaskContext {
            site: "site-1".into(),
            round: 0,
            total_rounds: 1,
            shard: Shard::WHOLE,
        };
        let dxo = ex.train(&w, &ctx);
        assert_eq!(dxo.weights["p"].data, vec![1.5, 2.5]);
        assert_eq!(dxo.n_examples, 7);
        assert!((ex.validate(&w, &ctx) - 1.5).abs() < 1e-6);
    }

    /// Every eval batch is scored by exactly one of the `of` validators,
    /// also when there are fewer batches than validators.
    #[test]
    fn shards_cover_every_batch_exactly_once() {
        for of in [1, 2, 3, 8, 9] {
            for n_batches in [0, 1, 2, 5, 8, 9, 17] {
                let mut scored = vec![0u32; n_batches];
                for index in 0..of {
                    for j in (Shard { index, of }).select(0..n_batches) {
                        assert_eq!(j % of, index, "{of} validators, batch {j}");
                        scored[j] += 1;
                    }
                }
                assert!(
                    scored.iter().all(|&n| n == 1),
                    "{of} validators over {n_batches} batches: {scored:?}"
                );
            }
        }
        assert!(Shard { index: 8, of: 9 }.select(0..3).next().is_none());
        assert!(Shard::WHOLE.select(0..4).eq(0..4));
    }
}
