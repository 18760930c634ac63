//! Serial-vs-parallel speedup table for the threading model (DESIGN.md
//! `## Threading model`): times the hot tensor kernels and a full
//! federated round at a thread budget of 1 and of `--threads N`
//! (default 4), prints a Markdown speedup table, and verifies that the
//! parallel kernels are bit-identical to their serial runs.
//!
//! Regenerate the numbers in `EXPERIMENTS.md` with:
//!
//! ```text
//! cargo run -p clinfl-bench --release --bin threading_speedup
//! ```

use clinfl::drivers::train_federated;
use clinfl::{ModelSpec, PipelineConfig};
use clinfl_tensor::{kernels, pool, Tensor};
use std::time::{Duration, Instant};

/// Median-of-`reps` wall-clock time of `f` (after one warm-up call).
fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn fmt(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 10_000 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{us} µs")
    }
}

struct Row {
    label: &'static str,
    serial: Duration,
    parallel: Duration,
}

fn main() {
    let mut threads = 4usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    threads = v;
                }
            }
            other => eprintln!("(ignoring unknown argument {other:?})"),
        }
    }

    const S: usize = 512;
    let a = Tensor::randn(&[S, S], 1.0, 11);
    let b = Tensor::randn(&[S, S], 1.0, 13);
    let rows = Tensor::randn(&[4096 * S], 1.0, 17);

    // Per-kernel determinism check: the parallel output must be
    // bit-identical to the serial one (same accumulation order per
    // element), not merely close.
    let run_serial_vs_parallel = |f: &dyn Fn() -> Vec<f32>| {
        pool::set_threads(1);
        let serial = f();
        pool::set_threads(threads);
        let parallel = f();
        assert!(
            serial
                .iter()
                .zip(&parallel)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "parallel kernel output is not bit-identical to serial"
        );
    };
    run_serial_vs_parallel(&|| {
        let mut c = vec![0.0f32; S * S];
        kernels::matmul_acc(a.data(), b.data(), &mut c, S, S, S);
        c
    });
    run_serial_vs_parallel(&|| {
        let mut c = vec![0.0f32; S * S];
        kernels::matmul_at_b_acc(a.data(), b.data(), &mut c, S, S, S);
        c
    });
    run_serial_vs_parallel(&|| {
        let mut d = rows.data().to_vec();
        kernels::softmax_rows(&mut d, S);
        d
    });
    println!("determinism: parallel == serial bit-for-bit on all checked kernels\n");

    let mut table: Vec<Row> = Vec::new();
    let mut bench = |label: &'static str, reps: usize, f: &mut dyn FnMut()| {
        pool::set_threads(1);
        let serial = time_median(reps, &mut *f);
        pool::set_threads(threads);
        let parallel = time_median(reps, &mut *f);
        table.push(Row {
            label,
            serial,
            parallel,
        });
    };

    let mut c = vec![0.0f32; S * S];
    bench("matmul_acc 512x512x512", 9, &mut || {
        c.iter_mut().for_each(|v| *v = 0.0);
        kernels::matmul_acc(a.data(), b.data(), &mut c, S, S, S);
    });
    bench("matmul_at_b_acc 512x512x512", 9, &mut || {
        c.iter_mut().for_each(|v| *v = 0.0);
        kernels::matmul_at_b_acc(a.data(), b.data(), &mut c, S, S, S);
    });
    bench("matmul_a_bt_acc 512x512x512", 9, &mut || {
        c.iter_mut().for_each(|v| *v = 0.0);
        kernels::matmul_a_bt_acc(a.data(), b.data(), &mut c, S, S, S);
    });
    let mut d = rows.data().to_vec();
    bench("softmax_rows 4096x512", 9, &mut || {
        d.copy_from_slice(rows.data());
        kernels::softmax_rows(&mut d, S);
    });
    bench("layer_norm_rows 4096x512", 9, &mut || {
        d.copy_from_slice(rows.data());
        kernels::layer_norm_rows(&mut d, S, 1e-5);
    });

    // End-to-end: one federated round, 8 LSTM sites on the imbalanced
    // partition. Site threads contend for compute permits, so the serial
    // budget trains sites strictly one after another.
    let mut cfg = PipelineConfig::scaled(8);
    cfg.federation.sag.rounds = 1;
    cfg.local_epochs = 1;
    bench("FL round, 8 sites, LSTM (scale 8)", 3, &mut || {
        train_federated(&cfg, ModelSpec::Lstm).expect("federated round failed");
    });

    println!("| benchmark | 1 thread | {threads} threads | speedup |");
    println!("|---|---|---|---|");
    for row in &table {
        let speedup = row.serial.as_secs_f64() / row.parallel.as_secs_f64().max(1e-12);
        println!(
            "| {} | {} | {} | {speedup:.2}x |",
            row.label,
            fmt(row.serial),
            fmt(row.parallel)
        );
    }
}
