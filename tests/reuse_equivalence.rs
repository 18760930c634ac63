//! Reuse-equivalence: training on one arena-backed graph reset between
//! steps must be bit-identical to training with a fresh graph per step —
//! same losses, same gradients, same final parameters — for both paper
//! model families, serial and parallel. One level up, a federation whose
//! sites park their arena after every task (what the shipped executors do)
//! must end on the same bits as one whose sites keep it.

use clinfl::{drivers, Learner, ModelSpec, PipelineConfig};
use clinfl_data::ClassifyDataset;
use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::codec::weights_bits_equal;
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{Dxo, EventLog, Weights};
use clinfl_models::{
    BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch,
};
use clinfl_tensor::{pool, Adam, Graph, Optimizer};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that reconfigure the process-global thread budget.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const STEPS: usize = 3;

fn batch_data(b: usize, s: usize, vocab: usize) -> (Vec<u32>, Vec<u8>) {
    let ids: Vec<u32> = (0..b * s)
        .map(|i| 5 + (i as u32 % (vocab as u32 - 6)))
        .collect();
    let mut mask = vec![1u8; b * s];
    // Give the last sequence some padding so carry/attention masks matter.
    for m in mask[(b - 1) * s + s - 2..].iter_mut() {
        *m = 0;
    }
    (ids, mask)
}

/// One training step on `g`; returns the loss bits.
fn step<M: SequenceClassifier>(
    model: &mut M,
    g: &mut Graph,
    batch: &TokenBatch<'_>,
    labels: &[i32],
    opt: &mut Adam,
) -> u32 {
    let loss = model.classification_loss(g, batch, labels);
    let bits = g.value(loss).item().to_bits();
    g.backward(loss);
    g.grads_into(model.params_mut());
    opt.step(model.params_mut());
    bits
}

fn param_bits(model: &impl SequenceClassifier) -> Vec<u32> {
    model
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Trains `STEPS` steps and returns (per-step loss bits, final param bits).
/// `reuse = true` resets one graph per step (and interleaves an eval pass to
/// stress stale-state handling); `reuse = false` builds a fresh graph each
/// step, the pre-arena behavior.
fn train<M: SequenceClassifier>(
    mut model: M,
    batch: &TokenBatch<'_>,
    labels: &[i32],
    reuse: bool,
) -> (Vec<u32>, Vec<u32>) {
    let mut opt = Adam::with_lr(0.01);
    let mut losses = Vec::with_capacity(STEPS);
    let mut reused = Graph::new();
    for i in 0..STEPS {
        let seed = 0xC11F ^ (i as u64);
        if reuse {
            reused.reset_with_seed(seed);
            reused.set_training(true);
            losses.push(step(&mut model, &mut reused, batch, labels, &mut opt));
            // Interleaved evaluation on the same tape must not bleed into
            // the next training step (predict_with resets internally).
            let _ = model.predict_with(&mut reused, batch);
        } else {
            let mut fresh = Graph::with_seed(seed);
            losses.push(step(&mut model, &mut fresh, batch, labels, &mut opt));
        }
    }
    (losses, param_bits(&model))
}

fn assert_equivalent(threads: usize) {
    pool::set_threads(threads);

    // BERT-mini geometry (Table II: hidden 50, 2 heads, 6 layers) over a
    // small vocabulary, with dropout active so RNG streams are exercised.
    let bert_cfg = BertConfig::bert_mini(60, 12);
    let (ids, mask) = batch_data(2, 12, 60);
    let labels = vec![1, 0];
    let batch = TokenBatch {
        ids: &ids,
        mask: &mask,
        batch_size: 2,
        seq_len: 12,
    };
    let fresh = train(BertModel::new(&bert_cfg, 9), &batch, &labels, false);
    let reused = train(BertModel::new(&bert_cfg, 9), &batch, &labels, true);
    assert_eq!(
        fresh.0, reused.0,
        "BERT-mini losses diverged ({threads} threads)"
    );
    assert_eq!(
        fresh.1, reused.1,
        "BERT-mini params diverged ({threads} threads)"
    );

    let lstm_cfg = LstmConfig {
        vocab_size: 40,
        hidden: 16,
        layers: 2,
        dropout: 0.1,
        num_classes: 2,
    };
    let (ids, mask) = batch_data(3, 8, 40);
    let labels = vec![0, 1, 1];
    let batch = TokenBatch {
        ids: &ids,
        mask: &mask,
        batch_size: 3,
        seq_len: 8,
    };
    let fresh = train(LstmClassifier::new(&lstm_cfg, 4), &batch, &labels, false);
    let reused = train(LstmClassifier::new(&lstm_cfg, 4), &batch, &labels, true);
    assert_eq!(
        fresh.0, reused.0,
        "LSTM losses diverged ({threads} threads)"
    );
    assert_eq!(
        fresh.1, reused.1,
        "LSTM params diverged ({threads} threads)"
    );
}

#[test]
fn reused_graph_training_is_bit_identical_serial_and_parallel() {
    let _guard = config_lock();
    assert_equivalent(1);
    assert_equivalent(4);
}

/// The task bodies of [`ClinicalExecutor`] without its parking guard: the
/// learner's arena stays with the site for the whole run, as before
/// arenas followed the compute permit.
struct KeepArena {
    learner: Learner,
    train: ClassifyDataset,
    valid: ClassifyDataset,
}

impl Executor for KeepArena {
    fn train(&mut self, global: &Weights, _ctx: &TaskContext) -> Dxo {
        self.learner.load_weights(global);
        self.learner.reset_optimizer();
        self.learner.train_epoch(&self.train);
        // The shipped executor probes validation after each epoch, on the
        // same tape.
        self.learner.evaluate(&self.valid);
        Dxo::from_weights(self.learner.export_weights(), self.train.len() as u64)
    }

    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        self.learner.validate_shard(global, &self.valid, ctx.shard)
    }
}

/// Final weights and per-round global metric of a 2-round, 8-site
/// federation on the paper's imbalanced split.
fn federate(spec: ModelSpec, tree: Option<TreeConfig>, park: bool) -> (Weights, Vec<u64>) {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 200;
    cfg.federation.seed = 31;
    cfg.local_epochs = 1;
    let sites = drivers::ClinicalSites::build(&cfg, spec, &cfg.imbalanced_partitioner());
    let sim = SimulatorConfig {
        tree,
        ..SimulatorConfig::paper(2)
    };
    let result = SimulatorRunner::new(sim)
        .run_simple(
            sites.initial(),
            |i, _site| {
                if park {
                    sites.executor(i, &EventLog::new())
                } else {
                    Box::new(KeepArena {
                        learner: sites.learner(cfg.federation.seed),
                        train: sites.shards[i].clone(),
                        valid: sites.valid.clone(),
                    })
                }
            },
            &WeightedFedAvg,
        )
        .expect("federation runs");
    let metrics = result
        .workflow
        .rounds
        .iter()
        .map(|r| r.global_metric.expect("validated round").to_bits())
        .collect();
    (result.workflow.final_weights, metrics)
}

#[test]
fn parked_arena_federation_is_bit_identical_to_kept_arena() {
    let _guard = config_lock();
    for spec in [ModelSpec::Lstm, ModelSpec::BertMini] {
        for threads in [1, 2] {
            pool::set_threads(threads);
            for tree in [None, TreeConfig::parse("2x3")] {
                let (kept_w, kept_m) = federate(spec, tree, false);
                let (parked_w, parked_m) = federate(spec, tree, true);
                let what = format!("{spec:?}, {threads} thread(s), tree {tree:?}");
                assert_eq!(kept_m, parked_m, "round metrics diverged: {what}");
                assert!(
                    weights_bits_equal(&kept_w, &parked_w),
                    "final weights diverged: {what}"
                );
            }
        }
    }
}
