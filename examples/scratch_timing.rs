//! Calibration utility: measures LSTM convergence and wall-clock per epoch
//! on the synthetic ADR task at a chosen scale. Used to pick the
//! per-model learning rates recorded in EXPERIMENTS.md; kept as a
//! maintenance tool for re-calibrating after engine changes.
//!
//! ```sh
//! cargo run --release --example scratch_timing
//! ```

use clinfl::drivers::build_task_data;
use clinfl::{Learner, ModelSpec, PipelineConfig, TrainHyper};
use std::time::Instant;

fn main() {
    let cfg = PipelineConfig::scaled(8);
    let data = build_task_data(&cfg);
    let vocab = data.code_system.vocab().len();
    println!(
        "scale 8: train {} valid {} pos {:.3}",
        data.train.len(),
        data.valid.len(),
        data.train.positive_rate()
    );
    for lr in [3e-3f32, 1e-3, 1e-2] {
        let hyper = TrainHyper {
            lr,
            batch_size: 32,
            clip_norm: 5.0,
        };
        let mut l = Learner::new(
            ModelSpec::Lstm,
            vocab,
            cfg.seq_len,
            hyper,
            cfg.federation.seed,
        );
        let t = Instant::now();
        print!("LSTM lr={lr}:");
        for e in 0..30 {
            l.train_epoch(&data.train);
            if e % 3 == 2 {
                print!(" {:.2}", l.evaluate(&data.valid));
            }
        }
        println!(" ({:.0}s)", t.elapsed().as_secs_f64());
    }
}
