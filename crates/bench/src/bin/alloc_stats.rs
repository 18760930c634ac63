//! Per-step heap-allocation and peak-memory statistics for the
//! arena-backed autograd tape.
//!
//! For each paper model (LSTM classification step, BERT-mini MLM step,
//! BERT MLM step) this binary measures a steady-state training step in
//! two modes:
//!
//! * `fresh` — a brand-new [`Graph`] per step, the pre-arena behavior;
//! * `reuse` — one graph reset between steps, recycling its buffers.
//!
//! Each (model, mode) pair runs in its own subprocess so the peak RSS
//! (`VmHWM` from `/proc/self/status`) is a clean per-mode number rather
//! than the running maximum across modes. Allocation counts come from a
//! counting [`GlobalAlloc`] wrapper around the system allocator.
//!
//! A second table shows what the arena costs a federation: 8 sites, each
//! with its own model, optimizer and graph, take turns behind 2 compute
//! permits for a few rounds, once keeping their arenas (`sites-kept`) and
//! once parking them when a turn ends (`sites-parked`, what the shipped
//! executors do — DESIGN.md §3d).
//!
//! Results are recorded in `EXPERIMENTS.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use clinfl_models::{
    BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch,
};
use clinfl_tensor::{pool, Adam, Graph, Optimizer};

/// System allocator wrapped with relaxed atomic counters. `realloc` counts
/// as one allocation of the new size; frees are not tracked (we report
/// allocation pressure, not live bytes).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_STEPS: usize = 3;
const MEASURE_STEPS: usize = 8;
const MODELS: [&str; 3] = ["lstm", "bert-mini", "bert"];
const MODES: [&str; 2] = ["fresh", "reuse"];

fn snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process in kilobytes, from `VmHWM`.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn token_batch(b: usize, s: usize, vocab: usize) -> (Vec<u32>, Vec<u8>) {
    let ids: Vec<u32> = (0..b * s)
        .map(|i| 5 + (i as u32 * 31 + 7) % (vocab as u32 - 6))
        .collect();
    let mut mask = vec![1u8; b * s];
    // Pad the tail of the last sequence so masking paths are exercised.
    for m in mask[(b - 1) * s + s - 4..].iter_mut() {
        *m = 0;
    }
    (ids, mask)
}

/// One MLM label per position: every 4th non-pad position is a target
/// (holding the original id), the rest are ignored — the same shape of
/// labels `MlmMasker` produces.
fn mlm_labels(ids: &[u32], mask: &[u8]) -> Vec<i32> {
    ids.iter()
        .zip(mask)
        .enumerate()
        .map(|(i, (&id, &m))| {
            if m != 0 && i % 4 == 0 {
                id as i32
            } else {
                clinfl_text::IGNORE_INDEX
            }
        })
        .collect()
}

const VOCAB: usize = 200;
const BATCH: usize = 8;
const SEQ_LEN: usize = 32;

/// One training participant: a paper model, its optimizer and its tape.
struct Site {
    model: Step,
    opt: Adam,
    graph: Graph,
}

enum Step {
    Lstm(LstmClassifier),
    BertMlm(BertModel),
}

/// The fixed batch every step trains on.
struct StepData {
    ids: Vec<u32>,
    mask: Vec<u8>,
    labels: Vec<i32>,
    mlm: Vec<i32>,
}

impl StepData {
    fn new() -> Self {
        let (ids, mask) = token_batch(BATCH, SEQ_LEN, VOCAB);
        StepData {
            labels: (0..BATCH as i32).map(|i| i % 2).collect(),
            mlm: mlm_labels(&ids, &mask),
            ids,
            mask,
        }
    }
}

impl Site {
    fn new(model: &str) -> Self {
        let model = match model {
            "lstm" => Step::Lstm(LstmClassifier::new(&LstmConfig::with_vocab(VOCAB), 1)),
            "bert-mini" => Step::BertMlm(BertModel::new(&BertConfig::bert_mini(VOCAB, SEQ_LEN), 1)),
            "bert" => Step::BertMlm(BertModel::new(&BertConfig::bert(VOCAB, SEQ_LEN), 1)),
            other => panic!("unknown model {other:?}"),
        };
        Site {
            model,
            opt: Adam::with_lr(1e-3),
            graph: Graph::new(),
        }
    }

    /// One training step, on the reset graph (`reuse`) or a fresh one.
    fn step(&mut self, data: &StepData, seed: u64, reuse: bool) {
        if reuse {
            self.graph.reset_with_seed(seed);
            self.graph.set_training(true);
        } else {
            self.graph = Graph::with_seed(seed);
        }
        let g = &mut self.graph;
        let batch = TokenBatch {
            ids: &data.ids,
            mask: &data.mask,
            batch_size: BATCH,
            seq_len: SEQ_LEN,
        };
        let loss = match &mut self.model {
            Step::Lstm(model) => model.classification_loss(g, &batch, &data.labels),
            Step::BertMlm(model) => model.mlm_loss(g, &batch, &data.mlm),
        };
        g.backward(loss);
        let params = match &mut self.model {
            Step::Lstm(model) => model.params_mut(),
            Step::BertMlm(model) => model.params_mut(),
        };
        g.grads_into(params);
        self.opt.step(params);
    }
}

/// Runs warmup + measured training steps for one (model, mode) pair and
/// prints a single TSV record: `model mode allocs/step bytes/step vmhwm_kb`.
fn run_worker(model: &str, mode: &str) {
    pool::set_threads(1);
    let reuse = mode == "reuse";
    let data = StepData::new();
    let mut site = Site::new(model);
    let mut measured = (0, 0);
    for i in 0..WARMUP_STEPS + MEASURE_STEPS {
        if i == WARMUP_STEPS {
            measured = snapshot();
        }
        site.step(&data, 0xA110C ^ (i as u64), reuse);
    }
    let (count, bytes) = snapshot();
    let steps = MEASURE_STEPS as u64;
    println!(
        "{model}\t{mode}\t{}\t{}\t{}",
        (count - measured.0) / steps,
        (bytes - measured.1) / steps,
        peak_rss_kb()
    );
}

const SITES: usize = 8;
const PERMITS: usize = 2;
const SITE_ROUNDS: usize = 3;
const STEPS_PER_TURN: usize = 2;
const SITE_MODES: [&str; 2] = ["sites-kept", "sites-parked"];

/// `SITES` sites take `SITE_ROUNDS` turns of `STEPS_PER_TURN` steps behind
/// `PERMITS` compute permits; prints `model mode vmhwm_kb`.
fn run_sites(model: &str, mode: &str) {
    pool::set_threads(PERMITS);
    let park = mode == "sites-parked";
    let data = StepData::new();
    let mut sites: Vec<Site> = (0..SITES).map(|_| Site::new(model)).collect();
    std::thread::scope(|s| {
        for site in &mut sites {
            let data = &data;
            s.spawn(move || {
                for round in 0..SITE_ROUNDS {
                    let _permit = pool::compute_permit();
                    for i in 0..STEPS_PER_TURN {
                        site.step(data, (round * STEPS_PER_TURN + i) as u64, true);
                    }
                    if park {
                        site.graph.park();
                    }
                }
            });
        }
    });
    println!("{model}\t{mode}\t{}", peak_rss_kb());
}

/// Runs this binary as a worker and parses the numeric fields it prints
/// after the model and mode columns.
fn worker(model: &str, mode: &str) -> Vec<u64> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(&exe)
        .args(["--worker", model, mode])
        .output()
        .expect("spawn worker");
    assert!(
        out.status.success(),
        "worker {model}/{mode} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .skip(2)
        .map(|v| v.parse().expect("numeric field"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--worker" {
        if SITE_MODES.contains(&args[3].as_str()) {
            run_sites(&args[2], &args[3]);
        } else {
            run_worker(&args[2], &args[3]);
        }
        return;
    }

    // One measurement per (model, mode): allocs/step, bytes/step, vmhwm_kb.
    #[derive(Clone, Copy, Default)]
    struct Meas {
        allocs: u64,
        bytes: u64,
        rss_kb: u64,
    }
    let mut rows: Vec<(String, [Meas; 2])> = Vec::new();
    for model in MODELS {
        let mut per_mode = [Meas::default(); 2];
        for (mi, mode) in MODES.iter().enumerate() {
            let f = worker(model, mode);
            per_mode[mi] = Meas {
                allocs: f[0],
                bytes: f[1],
                rss_kb: f[2],
            };
        }
        rows.push((model.to_string(), per_mode));
    }

    println!("ALLOCATION PRESSURE PER TRAINING STEP (steady state, {MEASURE_STEPS} measured steps, 1 thread)\n");
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>13} {:>9}",
        "Model", "Mode", "Allocs/step", "Bytes/step", "Peak RSS (MB)", "Alloc ×"
    );
    for (model, [fresh, reuse]) in &rows {
        let ratio = fresh.allocs.max(1) as f64 / reuse.allocs.max(1) as f64;
        for (mode, m) in MODES.iter().zip([fresh, reuse]) {
            let x = if *mode == "reuse" {
                format!("{ratio:.1}x")
            } else {
                String::new()
            };
            println!(
                "{:<10} {:>7} {:>14} {:>14} {:>13.1} {:>9}",
                model,
                mode,
                m.allocs,
                m.bytes,
                m.rss_kb as f64 / 1024.0,
                x
            );
        }
    }
    let mini = rows
        .iter()
        .find(|(m, _)| m == "bert-mini")
        .expect("bert-mini row");
    let ratio = mini.1[0].allocs.max(1) as f64 / mini.1[1].allocs.max(1) as f64;
    println!("\nBERT-mini MLM step: {ratio:.1}x fewer heap allocations with tape reuse (target: >= 10x).");
    assert!(
        ratio >= 10.0,
        "tape reuse must cut BERT-mini MLM per-step allocations by >= 10x (got {ratio:.1}x)"
    );

    println!(
        "\nPEAK RSS OF {SITES} SITES BEHIND {PERMITS} COMPUTE PERMITS ({SITE_ROUNDS} turns of {STEPS_PER_TURN} steps each)\n"
    );
    println!(
        "{:<10} {:>16} {:>18} {:>8}",
        "Model", "Arenas kept (MB)", "Arenas parked (MB)", "Ratio"
    );
    for model in MODELS {
        let [kept, parked] = SITE_MODES.map(|mode| worker(model, mode)[0] as f64 / 1024.0);
        println!(
            "{:<10} {:>16.1} {:>18.1} {:>7.2}x",
            model,
            kept,
            parked,
            kept / parked
        );
    }
}
