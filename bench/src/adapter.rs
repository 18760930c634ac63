//! The benchmark's whole view of the `clinfl_*` crates.
//!
//! Every item of the system the benchmark names is named in this file, so
//! a change to the public surface listed in `README.md` shows up here and
//! nowhere else. Three things live here:
//!
//! * **assembly** — [`prepare`] builds a workload's data, model and
//!   executors; [`run_federation`] stands up a flat federation exactly as
//!   `SimulatorRunner::run`'s flat path does (provision → `FlServer` →
//!   `serve_connection` → `FlClient::register/run` → `ScatterAndGather::run`)
//!   with the benchmark's own `Connection`, `Executor`, `Aggregator` and
//!   `Persistor` wrappers handed in; [`simulator_final_weights`] runs the
//!   shipped `SimulatorRunner` on the same inputs for `fedbench verify`;
//! * **probes** — the wrappers. Untraced they count bytes and mark round
//!   edges; traced they also record a span per call;
//! * **replay** — [`replay`] calls each exchange and step layer's public
//!   functions, single-threaded, on weights captured mid-run.

use crate::trace::{Recorder, Span, LANE_MAIN, LANE_PUMP0, LANE_REACTOR, NO_ROUND};
use crate::workloads::{Link, Persist, Split, Task, Workload, N_SITES};
use clinfl::{
    params_to_weights, weights_to_params, ClinicalExecutor, Learner, MlmExecutor, MlmLearner,
    ModelSpec, TrainHyper,
};
use clinfl_data::{
    allocate_counts, generate_cohort, generate_corpus, ClassifyDataset, CodeSystem, CohortSpec,
    PretrainSpec, SitePartitioner, PAPER_IMBALANCED_RATIOS,
};
use clinfl_flare::aggregator::{Aggregator, WeightedFedAvg};
use clinfl_flare::client::{ClientBehavior, FlClient, RetryPolicy};
use clinfl_flare::codec::{
    decode_weights, raw_weights_wire_size, CodecSpec, EncodedWeights, GlobalRing, UplinkEncoder,
};
use clinfl_flare::controller::{SagConfig, ScatterAndGather};
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::filters::FilterChain;
use clinfl_flare::messages::{ClientMessage, ServerMessage, TaskAssignment};
use clinfl_flare::persistor::{FilePersistor, InMemoryPersistor, Persistor};
use clinfl_flare::provision::Project;
use clinfl_flare::security::{DhKeyPair, SecureChannel};
use clinfl_flare::server::FlServer;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::transport::{in_proc_pair, Connection, FrameRx, FrameTx, TcpTransport};
use clinfl_flare::wire::{WireDecode, WireEncode};
use clinfl_flare::{Dxo, EventLog, FlareError, RunCheckpoint};
use clinfl_models::{
    BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier, TokenBatch,
};
use clinfl_tensor::{pool, Adam, GradClip, Graph, LrSchedule, Optimizer};
use clinfl_text::{ClinicalTokenizer, Encoded, MlmMasker};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

pub use clinfl_flare::codec::weights_bits_equal;
pub use clinfl_flare::Weights;
pub use clinfl_obs::json::Value as Json;

/// Fixes the compute-thread budget for the whole process.
pub fn set_threads(n: usize) {
    pool::set_threads(n);
}

/// Turns the system's own counters and kernel timers on or off.
pub fn set_obs(on: bool) {
    clinfl_obs::set_enabled(on);
}

// ---------------------------------------------------------------------
// Assembly: data, model, executors
// ---------------------------------------------------------------------

/// Wall-clock of each set-up phase, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupParts {
    pub generate_ms: f64,
    pub tokenize_ms: f64,
    pub partition_ms: f64,
    pub learner_init_ms: f64,
    pub register_ms: f64,
}

/// One training batch of site 0, kept for the step replay.
pub struct StepBatch {
    ids: Vec<u32>,
    mask: Vec<u8>,
    /// One label per sequence (classification) or per token (MLM).
    labels: Vec<i32>,
    batch_size: usize,
    seq_len: usize,
    vocab_size: usize,
}

/// Everything a federation of one workload needs, built from the seed.
pub struct Prepared {
    pub initial: Weights,
    executors: Vec<Box<dyn Executor>>,
    /// Optimizer steps all sites take in one round.
    pub steps_per_round: u64,
    pub parts: SetupParts,
    pub step_batch: StepBatch,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn model_spec(task: Task) -> ModelSpec {
    match task {
        Task::LstmClassify => ModelSpec::Lstm,
        Task::BertClassify | Task::BertMlm => ModelSpec::Bert,
    }
}

fn train_hyper(w: &Workload) -> TrainHyper {
    let shipped = match w.task {
        Task::BertMlm => TrainHyper::for_mlm(),
        t => TrainHyper::for_model(model_spec(t)),
    };
    TrainHyper {
        lr: w.learning_rate.unwrap_or(shipped.lr),
        ..shipped
    }
}

fn encode_all(tokenizer: &ClinicalTokenizer, seqs: &[Vec<String>]) -> Vec<Encoded> {
    seqs.iter().map(|s| tokenizer.encode(s)).collect()
}

fn pretrain_spec(n_train: usize, seed: u64) -> PretrainSpec {
    let spec = PretrainSpec {
        scale: 453_377 / n_train,
        seed,
        ..PretrainSpec::default()
    };
    assert_eq!(spec.n_train(), n_train, "corpus scale must hit the size");
    spec
}

/// The warm-up schedule `clinfl::drivers::pretrain_mlm` gives each site.
fn mlm_warmup(n_train: usize, batch_size: usize, rounds: u32) -> LrSchedule {
    let steps_per_epoch = n_train.div_ceil(batch_size).max(1) as u64;
    let total_steps = steps_per_epoch * u64::from(rounds);
    LrSchedule::LinearWarmup {
        warmup_steps: 64.min((total_steps / 4).max(1)),
    }
}

/// A workload's tokenised data, divided among the sites.
enum SiteData {
    Classify {
        shards: Vec<ClassifyDataset>,
        valid: ClassifyDataset,
    },
    Mlm {
        shards: Vec<Vec<Encoded>>,
        valid: Vec<Encoded>,
    },
}

/// Generates, tokenises and partitions the workload's data from `seed`,
/// timing each phase into `parts`.
fn build_data(w: &Workload, seed: u64, cs: &CodeSystem, parts: &mut SetupParts) -> SiteData {
    let tokenizer = ClinicalTokenizer::new(cs.vocab().clone(), w.seq_len);
    match w.task {
        Task::LstmClassify | Task::BertClassify => {
            let n = w.train_examples + w.valid_examples;
            let t = Instant::now();
            let spec = CohortSpec {
                n_patients: n,
                seed: seed ^ 0xC0_4027,
                ..CohortSpec::default()
            };
            let patients = generate_cohort(cs, &spec);
            parts.generate_ms = ms_since(t);
            let t = Instant::now();
            let dataset = ClassifyDataset::from_cohort(&patients, &tokenizer);
            parts.tokenize_ms = ms_since(t);
            let t = Instant::now();
            let (train, valid) = dataset.split(w.train_examples as f64 / n as f64, seed ^ 0x5917);
            assert_eq!(train.len(), w.train_examples);
            let partitioner = match w.split {
                Split::PaperImbalanced => SitePartitioner::paper_imbalanced(),
                Split::Balanced => SitePartitioner::Balanced { n_sites: N_SITES },
            };
            let shards = partitioner.partition(&train, seed ^ 0xA17);
            parts.partition_ms = ms_since(t);
            SiteData::Classify { shards, valid }
        }
        Task::BertMlm => {
            let t = Instant::now();
            let corpus = generate_corpus(cs, &pretrain_spec(w.train_examples, seed ^ 0x4533));
            parts.generate_ms = ms_since(t);
            let t = Instant::now();
            let train = encode_all(&tokenizer, &corpus.train);
            let mut valid = encode_all(&tokenizer, &corpus.valid);
            valid.truncate(w.valid_examples);
            parts.tokenize_ms = ms_since(t);
            let t = Instant::now();
            let ratios = match w.split {
                Split::PaperImbalanced => PAPER_IMBALANCED_RATIOS.to_vec(),
                Split::Balanced => vec![1.0 / N_SITES as f64; N_SITES],
            };
            let mut rest = train.as_slice();
            let shards = allocate_counts(train.len(), &ratios)
                .into_iter()
                .map(|c| {
                    let (head, tail) = rest.split_at(c);
                    rest = tail;
                    head.to_vec()
                })
                .collect();
            parts.partition_ms = ms_since(t);
            SiteData::Mlm { shards, valid }
        }
    }
}

/// Builds the workload's data, initial weights and one executor per site,
/// for a federation of `rounds` rounds. Everything derives from `seed`;
/// the same seed gives the same bits.
pub fn prepare(w: &Workload, seed: u64, rounds: u32) -> Prepared {
    let cs = CodeSystem::new();
    let vocab_size = cs.vocab().len();
    let hyper = train_hyper(w);
    let log = EventLog::new();
    let mut parts = SetupParts::default();
    let data = build_data(w, seed, &cs, &mut parts);
    let t = Instant::now();
    let steps = |sizes: &mut dyn Iterator<Item = usize>| -> u64 {
        sizes.map(|n| n.div_ceil(hyper.batch_size) as u64).sum()
    };
    let (initial, executors, steps_per_round, step_batch);
    match data {
        SiteData::Classify { shards, valid } => {
            let spec = model_spec(w.task);
            initial = Learner::new(spec, vocab_size, w.seq_len, hyper, seed).export_weights();
            let b = shards[0]
                .batches(hyper.batch_size, seed)
                .next()
                .expect("site 0 has at least one batch");
            step_batch = StepBatch {
                ids: b.ids,
                mask: b.mask,
                labels: b.labels,
                batch_size: b.batch_size,
                seq_len: b.seq_len,
                vocab_size,
            };
            steps_per_round = steps(&mut shards.iter().map(ClassifyDataset::len));
            executors = shards
                .into_iter()
                .map(|shard| {
                    let learner = Learner::new(spec, vocab_size, w.seq_len, hyper, seed);
                    Box::new(ClinicalExecutor::new(
                        learner,
                        shard,
                        valid.clone(),
                        1,
                        log.clone(),
                    )) as Box<dyn Executor>
                })
                .collect();
        }
        SiteData::Mlm { shards, valid } => {
            let bert = BertConfig::bert(vocab_size, w.seq_len);
            initial = MlmLearner::new(&bert, cs.vocab().clone(), hyper, seed).export_weights();
            let masker = MlmMasker::default();
            let first = &shards[0][..hyper.batch_size.min(shards[0].len())];
            let mut batch = StepBatch {
                ids: Vec::new(),
                mask: Vec::new(),
                labels: Vec::new(),
                batch_size: first.len(),
                seq_len: w.seq_len,
                vocab_size,
            };
            for (k, e) in first.iter().enumerate() {
                let m = masker.mask(&e.ids, cs.vocab(), seed.wrapping_add(k as u64));
                batch.ids.extend_from_slice(&m.input_ids);
                batch.mask.extend_from_slice(&e.attention_mask);
                batch.labels.extend_from_slice(&m.labels);
            }
            step_batch = batch;
            steps_per_round = steps(&mut shards.iter().map(Vec::len));
            executors = shards
                .into_iter()
                .map(|shard| {
                    let mut learner = MlmLearner::new(&bert, cs.vocab().clone(), hyper, seed);
                    learner.set_schedule(mlm_warmup(shard.len(), hyper.batch_size, rounds));
                    Box::new(MlmExecutor::new(
                        learner,
                        shard,
                        valid.clone(),
                        1,
                        log.clone(),
                    )) as Box<dyn Executor>
                })
                .collect();
        }
    }
    parts.learner_init_ms = ms_since(t);
    Prepared {
        initial,
        executors,
        steps_per_round,
        parts,
        step_batch,
    }
}

/// Held-out examples the final model is scored on, once per run. Much
/// larger than the sites' own validation split, so the error of a seed
/// reflects the model and not which 100 patients were drawn.
const FINAL_EVAL_EXAMPLES: usize = 2000;
const FINAL_EVAL_SEQUENCES: usize = 512;

/// Scores of the final global model.
pub struct FinalScores {
    /// `1 - top-1 accuracy` on a fresh held-out cohort (classification) or
    /// the MLM loss on a fresh held-out corpus.
    pub final_error: f64,
    /// The metric a site's `validate` reports for these weights: accuracy
    /// (classification) or MLM loss on the sites' shared validation split.
    pub site_metric: f64,
}

/// Scores `weights` the way the shipped drivers score a finished run: a
/// fresh learner, the weights loaded, evaluation mode.
pub fn score(w: &Workload, seed: u64, weights: &Weights) -> FinalScores {
    let cs = CodeSystem::new();
    let hyper = train_hyper(w);
    let data = build_data(w, seed, &cs, &mut SetupParts::default());
    // Score under a compute permit, as a site does: kernels then plan
    // against the same thread budget as inside a round.
    let _permit = pool::compute_permit();
    match data {
        SiteData::Classify { valid, .. } => {
            let held_out = CohortSpec {
                n_patients: FINAL_EVAL_EXAMPLES,
                seed: seed ^ 0xE7A1_0001,
                ..CohortSpec::default()
            };
            let tokenizer = ClinicalTokenizer::new(cs.vocab().clone(), w.seq_len);
            let eval = ClassifyDataset::from_cohort(&generate_cohort(&cs, &held_out), &tokenizer);
            let mut learner =
                Learner::new(model_spec(w.task), cs.vocab().len(), w.seq_len, hyper, seed);
            learner.load_weights(weights);
            FinalScores {
                final_error: 1.0 - learner.evaluate(&eval),
                site_metric: learner.evaluate(&valid),
            }
        }
        SiteData::Mlm { valid, .. } => {
            let corpus = generate_corpus(&cs, &pretrain_spec(FINAL_EVAL_SEQUENCES, seed ^ 0xE7A1));
            let tokenizer = ClinicalTokenizer::new(cs.vocab().clone(), w.seq_len);
            let eval = encode_all(&tokenizer, &corpus.train);
            let bert = BertConfig::bert(cs.vocab().len(), w.seq_len);
            let mut learner = MlmLearner::new(&bert, cs.vocab().clone(), hyper, seed);
            learner.load_weights(weights);
            FinalScores {
                final_error: learner.eval_loss(&eval),
                site_metric: learner.eval_loss(&valid),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Probes: the wrappers handed into the federation
// ---------------------------------------------------------------------

thread_local! {
    /// Lane of the current thread, for threads the benchmark starts or
    /// owns (the controller and the sites). Threads the system starts
    /// itself leave it unset and take the wrapper's own lane.
    static LANE: Cell<i32> = const { Cell::new(i32::MIN) };
}

fn lane_or(default: i32) -> i32 {
    let lane = LANE.with(Cell::get);
    if lane == i32::MIN {
        default
    } else {
        lane
    }
}

/// Obs counters the ledger reads, all zero while obs is off.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub gemm_calls: u64,
    pub gemm_ns: u64,
    pub gemm_flops: u64,
    pub rowwise_ns: u64,
    pub arena_hits: u64,
    pub arena_misses: u64,
    pub frame_work_ns: u64,
    pub retries: u64,
    pub send_errors: u64,
    pub wire_raw: u64,
    pub wire_encoded: u64,
}

const GEMM_KERNELS: [&str; 3] = ["tensor.matmul", "tensor.matmul_at_b", "tensor.matmul_a_bt"];
const ROWWISE_KERNELS: [&str; 6] = [
    "tensor.softmax",
    "tensor.softmax_backward",
    "tensor.log_softmax",
    "tensor.log_softmax_backward",
    "tensor.layer_norm",
    "tensor.layer_norm_backward",
];

impl Counters {
    /// What was counted between `earlier` and this reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls - earlier.gemm_calls,
            gemm_ns: self.gemm_ns - earlier.gemm_ns,
            gemm_flops: self.gemm_flops - earlier.gemm_flops,
            rowwise_ns: self.rowwise_ns - earlier.rowwise_ns,
            arena_hits: self.arena_hits - earlier.arena_hits,
            arena_misses: self.arena_misses - earlier.arena_misses,
            frame_work_ns: self.frame_work_ns - earlier.frame_work_ns,
            retries: self.retries - earlier.retries,
            send_errors: self.send_errors - earlier.send_errors,
            wire_raw: self.wire_raw - earlier.wire_raw,
            wire_encoded: self.wire_encoded - earlier.wire_encoded,
        }
    }

    pub fn read() -> Counters {
        if !clinfl_obs::enabled() {
            return Counters::default();
        }
        let get = clinfl_obs::counter_value;
        let sum = |names: &[&str], suffix: &str| -> u64 {
            names.iter().map(|n| get(&format!("{n}.{suffix}"))).sum()
        };
        Counters {
            gemm_calls: sum(&GEMM_KERNELS, "calls"),
            gemm_ns: sum(&GEMM_KERNELS, "time_ns"),
            gemm_flops: sum(&GEMM_KERNELS, "flops"),
            rowwise_ns: sum(&ROWWISE_KERNELS, "time_ns"),
            arena_hits: get("tensor.arena.hits"),
            arena_misses: get("tensor.arena.misses"),
            frame_work_ns: get("flare.server.frame_work_ns"),
            retries: get("flare.client.retries"),
            send_errors: get("flare.client.send_errors"),
            wire_raw: get("flare.wire.bytes_tx_raw") + get("flare.wire.bytes_rx_raw"),
            wire_encoded: get("flare.wire.bytes_tx_encoded") + get("flare.wire.bytes_rx_encoded"),
        }
    }
}

/// State of the run at a round edge: the moment the controller has
/// gathered, aggregated, validated, persisted and checkpointed one round
/// and is about to scatter the next. Edge `k` ends round `k - 1` and
/// starts round `k`; every cumulative count is exact there, because the
/// loop is closed and all sites are blocked waiting for the next task.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub wall_ns: u64,
    pub cpu_s: f64,
    /// Bytes through every `FrameTx::send`, both directions, so far.
    pub bytes: u64,
    /// Training examples the aggregated updates reported, so far.
    pub examples: u64,
    /// `FrameTx::send` calls that returned an error, so far. Read at the
    /// last edge this leaves out the goodbyes that race the server's
    /// teardown, which the client itself treats as best-effort.
    pub send_errors: u64,
    pub counters: Counters,
}

/// Weights captured mid-run for the replay: the global model two
/// consecutive rounds scattered and the update site 0 returned between.
#[derive(Default)]
pub struct Capture {
    pub global_prev: Option<Weights>,
    pub update: Option<Weights>,
    pub update_examples: u64,
    pub global_next: Option<Weights>,
}

struct OpenRound {
    id: u32,
    start_ns: u64,
    cpu_start: u64,
}

/// Shared by every wrapper of one federation.
pub struct Probes {
    /// Whether spans are being recorded. Off until `trace_from`.
    traced: AtomicBool,
    /// Round at whose start tracing (and the system's own counters) turn
    /// on; `None` never traces.
    trace_from: Option<u32>,
    rec: Recorder,
    bytes: AtomicU64,
    send_errors: AtomicU64,
    examples: AtomicU64,
    round: AtomicU32,
    round_span: AtomicU32,
    edges: Mutex<Vec<Edge>>,
    open_round: Mutex<Option<OpenRound>>,
    capture: Mutex<Capture>,
}

impl Probes {
    /// Probes of one federation. With `trace_from`, the rounds before it run
    /// untraced with the system's counters off, as the baseline the traced
    /// rounds are held against; the round `trace_from` itself lets per-site
    /// state settle (arena counters publish their backlog, every site sees
    /// a traced task arrive), and the two rounds after it are captured for
    /// the replay.
    pub fn new(trace_from: Option<u32>) -> Arc<Probes> {
        Arc::new(Probes {
            traced: AtomicBool::new(false),
            trace_from,
            rec: Recorder::new(),
            bytes: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            examples: AtomicU64::new(0),
            round: AtomicU32::new(NO_ROUND),
            round_span: AtomicU32::new(0),
            edges: Mutex::new(Vec::new()),
            open_round: Mutex::new(None),
            capture: Mutex::new(Capture::default()),
        })
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().expect("no probe panics while holding a lock")
    }

    /// SeqCst on the flags and round markers: site threads read them after
    /// receiving the next task, and nothing here is hot.
    fn traced(&self) -> bool {
        self.traced.load(Ordering::SeqCst)
    }

    /// The round whose scattered global and site-0 update the replay uses,
    /// together with the global of the round after it.
    fn capture_round(&self) -> Option<u32> {
        self.trace_from.map(|r| r + 1)
    }

    /// Marks a round edge on the controller thread.
    fn mark_edge(&self) {
        let now = self.rec.now_ns();
        let mut open = Self::lock(&self.open_round);
        let finished = self.round.load(Ordering::SeqCst);
        if let Some(r) = open.take() {
            self.rec.push(Span {
                id: r.id,
                parent: 0,
                name: "flare.controller.round",
                round: finished,
                lane: LANE_MAIN,
                start_ns: r.start_ns,
                end_ns: now,
                cpu_ns: clinfl_obs::thread_time_ns().saturating_sub(r.cpu_start),
                bytes: 0,
            });
        }
        Self::lock(&self.edges).push(Edge {
            wall_ns: now,
            cpu_s: crate::sys::process_cpu_s(),
            bytes: self.bytes.load(Ordering::SeqCst),
            examples: self.examples.load(Ordering::SeqCst),
            send_errors: self.send_errors.load(Ordering::SeqCst),
            counters: Counters::read(),
        });
        let next = finished.wrapping_add(1);
        if self.trace_from == Some(next) {
            clinfl_obs::set_enabled(true);
            self.traced.store(true, Ordering::SeqCst);
        }
        if self.traced() {
            let id = self.rec.alloc_id();
            *open = Some(OpenRound {
                id,
                start_ns: now,
                cpu_start: clinfl_obs::thread_time_ns(),
            });
            self.round_span.store(id, Ordering::SeqCst);
        }
        self.round.store(next, Ordering::SeqCst);
    }

    fn span(&self, name: &'static str, parent: u32, round: u32, lane: i32, t: Timing, bytes: u64) {
        self.rec.push(Span {
            id: self.rec.alloc_id(),
            parent,
            name,
            round,
            lane,
            start_ns: t.start_ns,
            end_ns: t.end_ns,
            cpu_ns: t.cpu_ns,
            bytes,
        });
    }

    pub fn edges(&self) -> Vec<Edge> {
        Self::lock(&self.edges).clone()
    }

    pub fn take_capture(&self) -> Capture {
        std::mem::take(&mut *Self::lock(&self.capture))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.rec.snapshot()
    }
}

#[derive(Clone, Copy)]
struct Timing {
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
}

/// Runs `f` and reports its wall interval and the calling thread's CPU
/// time inside it.
fn timed<R>(rec: &Recorder, f: impl FnOnce() -> R) -> (R, Timing) {
    let start_ns = rec.now_ns();
    let cpu_start = clinfl_obs::thread_time_ns();
    let out = f();
    let cpu_ns = clinfl_obs::thread_time_ns().saturating_sub(cpu_start);
    (
        out,
        Timing {
            start_ns,
            end_ns: rec.now_ns(),
            cpu_ns,
        },
    )
}

/// What one site's three wrappers (rx, executor, tx) tell each other: they
/// all run on the site's thread, in that order, once per task.
#[derive(Default)]
struct SiteFlow {
    /// When the last frame arrived: `(wall, thread cpu)`.
    last_recv: (u64, u64),
    /// The task span opened when the executor was entered: its id, its
    /// round and the name of the span that runs from the executor's return
    /// to the send of its result.
    task: Option<(u32, u32, &'static str)>,
    /// When the executor returned.
    exec_done: (u64, u64),
}

struct ProbeTx {
    inner: Box<dyn FrameTx>,
    probes: Arc<Probes>,
    lane: i32,
    flow: Option<Arc<Mutex<SiteFlow>>>,
}

impl FrameTx for ProbeTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError> {
        let p = &self.probes;
        // Counted before the frame leaves: once the peer has it, the
        // controller may reach the next round edge before this thread runs
        // again, and the edge must already see the bytes.
        p.bytes.fetch_add(frame.len() as u64, Ordering::SeqCst);
        let count = |res: &Result<(), FlareError>| {
            if res.is_err() {
                p.bytes.fetch_sub(frame.len() as u64, Ordering::SeqCst);
                p.send_errors.fetch_add(1, Ordering::SeqCst);
            }
        };
        if !p.traced() {
            let res = self.inner.send(frame);
            count(&res);
            return res;
        }
        let lane = lane_or(self.lane);
        let entered = (p.rec.now_ns(), clinfl_obs::thread_time_ns());
        let mut flow = self.flow.as_ref().map(|f| Probes::lock(f));
        let task = flow.as_mut().and_then(|f| f.task.take());
        let (parent, round) = match task {
            Some((id, round, post_name)) => {
                let done = flow.as_ref().expect("a task implies a flow").exec_done;
                let post = Timing {
                    start_ns: done.0,
                    end_ns: entered.0,
                    cpu_ns: entered.1.saturating_sub(done.1),
                };
                p.span(post_name, id, round, lane, post, 0);
                (id, round)
            }
            None => (
                p.round_span.load(Ordering::SeqCst),
                p.round.load(Ordering::SeqCst),
            ),
        };
        let (res, t) = timed(&p.rec, || self.inner.send(frame));
        count(&res);
        p.span(
            "flare.transport.send",
            parent,
            round,
            lane,
            t,
            frame.len() as u64,
        );
        if let (Some((id, round, _)), Some(f)) = (task, flow.as_ref()) {
            p.rec.push(Span {
                id,
                parent: p.round_span.load(Ordering::SeqCst),
                name: "flare.client.task",
                round,
                lane,
                start_ns: f.last_recv.0,
                end_ns: t.end_ns,
                cpu_ns: clinfl_obs::thread_time_ns().saturating_sub(f.last_recv.1),
                bytes: 0,
            });
        }
        res
    }
}

struct ProbeRx {
    inner: Box<dyn FrameRx>,
    probes: Arc<Probes>,
    lane: i32,
    flow: Option<Arc<Mutex<SiteFlow>>>,
}

impl FrameRx for ProbeRx {
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        let p = &self.probes;
        if !p.traced() {
            return self.inner.recv(timeout);
        }
        let (res, t) = timed(&p.rec, || self.inner.recv(timeout));
        // A timed-out poll moved no frame: only arrivals become spans.
        if let Ok(frame) = &res {
            p.span(
                "flare.transport.recv",
                p.round_span.load(Ordering::SeqCst),
                p.round.load(Ordering::SeqCst),
                lane_or(self.lane),
                t,
                frame.len() as u64,
            );
            if let Some(flow) = &self.flow {
                Probes::lock(flow).last_recv = (t.end_ns, clinfl_obs::thread_time_ns());
            }
        }
        res
    }
}

struct ProbeExecutor {
    inner: Box<dyn Executor>,
    probes: Arc<Probes>,
    site: usize,
    flow: Arc<Mutex<SiteFlow>>,
}

/// Span names of one task kind: frame arrival → executor entered (open,
/// decode, permit wait), the executor call, executor returned → result
/// sent (filters, encode, seal).
struct TaskNames {
    pre: &'static str,
    exec: &'static str,
    post: &'static str,
}

const TRAIN_TASK: TaskNames = TaskNames {
    pre: "flare.client.pre_train",
    exec: "core.executor.train",
    post: "flare.client.post_train",
};
const VALIDATE_TASK: TaskNames = TaskNames {
    pre: "flare.client.pre_validate",
    exec: "core.executor.validate",
    post: "flare.client.post_validate",
};

impl ProbeExecutor {
    /// Opens the task and records its `pre` span and the executor span
    /// around `f`; the tx wrapper closes the task when the result is sent.
    fn around<R>(
        &mut self,
        names: &TaskNames,
        round: u32,
        f: impl FnOnce(&mut dyn Executor) -> R,
    ) -> R {
        let p = Arc::clone(&self.probes);
        if !p.traced() {
            return f(self.inner.as_mut());
        }
        let lane = self.site as i32;
        let entered = (p.rec.now_ns(), clinfl_obs::thread_time_ns());
        let id = p.rec.alloc_id();
        let last_recv = Probes::lock(&self.flow).last_recv;
        let pre = Timing {
            start_ns: last_recv.0,
            end_ns: entered.0,
            cpu_ns: entered.1.saturating_sub(last_recv.1),
        };
        p.span(names.pre, id, round, lane, pre, 0);
        let (out, t) = timed(&p.rec, || f(self.inner.as_mut()));
        p.span(names.exec, id, round, lane, t, 0);
        let mut flow = Probes::lock(&self.flow);
        flow.task = Some((id, round, names.post));
        flow.exec_done = (t.end_ns, clinfl_obs::thread_time_ns());
        out
    }
}

impl Executor for ProbeExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        let dxo = self.around(&TRAIN_TASK, ctx.round, |e| e.train(global, ctx));
        let p = &self.probes;
        if let (0, Some(first)) = (self.site, p.capture_round()) {
            let mut cap = Probes::lock(&p.capture);
            if ctx.round == first {
                cap.global_prev = Some(global.clone());
                cap.update = Some(dxo.weights.clone());
                cap.update_examples = dxo.n_examples;
            } else if ctx.round == first + 1 {
                cap.global_next = Some(global.clone());
            }
        }
        dxo
    }

    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        self.around(&VALIDATE_TASK, ctx.round, |e| e.validate(global, ctx))
    }
}

struct ProbeAggregator<'a> {
    inner: &'a dyn Aggregator,
    probes: Arc<Probes>,
}

impl Aggregator for ProbeAggregator<'_> {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        let p = &self.probes;
        let examples: u64 = updates.iter().map(|(_, d)| d.n_examples).sum();
        p.examples.fetch_add(examples, Ordering::SeqCst);
        if !p.traced() {
            return self.inner.aggregate(updates, reference);
        }
        let (out, t) = timed(&p.rec, || self.inner.aggregate(updates, reference));
        p.span(
            "flare.aggregator.aggregate",
            p.round_span.load(Ordering::SeqCst),
            p.round.load(Ordering::SeqCst),
            LANE_MAIN,
            t,
            0,
        );
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_partial(&self) -> bool {
        self.inner.supports_partial()
    }

    fn partial(&self, updates: &[(String, Dxo)], reference: &Weights) -> Result<Dxo, FlareError> {
        self.inner.partial(updates, reference)
    }
}

/// The directory a persistor writes, with the length and modification
/// time every file in it had at the last look.
struct WatchedDir {
    path: PathBuf,
    seen: HashMap<PathBuf, (u64, SystemTime)>,
}

impl WatchedDir {
    /// Bytes of the files created or rewritten since the previous call.
    fn written_bytes(&mut self) -> u64 {
        let mut written = 0;
        for entry in std::fs::read_dir(&self.path)
            .into_iter()
            .flatten()
            .flatten()
        {
            let Ok(meta) = entry.metadata() else { continue };
            let stamp = (
                meta.len(),
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            );
            if meta.is_file() && self.seen.insert(entry.path(), stamp) != Some(stamp) {
                written += stamp.0;
            }
        }
        written
    }
}

struct ProbePersistor {
    inner: Box<dyn Persistor>,
    probes: Arc<Probes>,
    /// Set for a persistor that writes to disk.
    dir: Option<WatchedDir>,
}

impl ProbePersistor {
    fn around(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Persistor)) {
        let p = Arc::clone(&self.probes);
        if !p.traced() {
            return f(self.inner.as_mut());
        }
        let ((), t) = timed(&p.rec, || f(self.inner.as_mut()));
        let bytes = self.dir.as_mut().map_or(0, WatchedDir::written_bytes);
        p.span(
            name,
            p.round_span.load(Ordering::SeqCst),
            p.round.load(Ordering::SeqCst),
            LANE_MAIN,
            t,
            bytes,
        );
    }
}

impl Persistor for ProbePersistor {
    fn save(&mut self, round: u32, weights: &Weights, metric: Option<f64>) {
        self.around("flare.persistor.save", |inner| {
            inner.save(round, weights, metric)
        });
    }

    fn best(&self) -> Option<(Weights, Option<f64>)> {
        self.inner.best()
    }

    fn latest(&self) -> Option<Weights> {
        self.inner.latest()
    }

    /// The controller's last call of a round: the round edge.
    fn save_checkpoint(&mut self, ckpt: &RunCheckpoint) {
        self.around("flare.persistor.checkpoint", |inner| {
            inner.save_checkpoint(ckpt)
        });
        self.probes.mark_edge();
    }

    fn load_checkpoint(&self) -> Option<RunCheckpoint> {
        self.inner.load_checkpoint()
    }
}

fn wrap(
    conn: Connection,
    probes: &Arc<Probes>,
    tx_lane: i32,
    rx_lane: i32,
    flow: Option<&Arc<Mutex<SiteFlow>>>,
) -> Connection {
    Connection {
        tx: Box::new(ProbeTx {
            inner: conn.tx,
            probes: Arc::clone(probes),
            lane: tx_lane,
            flow: flow.cloned(),
        }),
        rx: Box::new(ProbeRx {
            inner: conn.rx,
            probes: Arc::clone(probes),
            lane: rx_lane,
            flow: flow.cloned(),
        }),
    }
}

// ---------------------------------------------------------------------
// Assembly: the federation
// ---------------------------------------------------------------------

/// What one federation produced.
pub struct FedOutcome {
    pub final_weights: Weights,
    /// Site-rounds the controller marked dropped.
    pub dropped: u64,
    /// Sites whose client loop returned an error.
    pub site_errors: u64,
    /// The last round's mean validation metric across sites.
    pub last_global_metric: Option<f64>,
    pub register_ms: f64,
    /// When the controller was handed the federation: set-up ends here.
    pub first_scatter: Instant,
    /// Handed back from the [`Prepared`] the federation consumed.
    pub step_batch: StepBatch,
}

fn sag_config(rounds: u32) -> SagConfig {
    SagConfig {
        rounds,
        min_clients: 1,
        round_timeout: Duration::from_secs(3600),
        validate_global: true,
        quorum_grace: None,
        resume_from: None,
        client_sample_fraction: 1.0,
    }
}

/// The per-site Diffie–Hellman secret `SimulatorRunner` derives.
fn dh_secret(seed: u64, site: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (site as u64 + 1)
}

/// Stands up a flat federation of the prepared workload and runs all its
/// rounds, step for step as `SimulatorRunner::run` does on its flat path,
/// with the benchmark's wrappers around every connection, executor, the
/// aggregator and the persistor. `persist_dir` is used by workloads that
/// persist to disk and must not exist yet.
pub fn run_federation(
    w: &Workload,
    seed: u64,
    rounds: u32,
    prepared: Prepared,
    probes: &Arc<Probes>,
    persist_dir: &Path,
) -> Result<FedOutcome, FlareError> {
    LANE.with(|l| l.set(LANE_MAIN));
    let registering = Instant::now();
    let log = EventLog::new();
    let wire = CodecSpec::parse(w.codec).map_err(FlareError::Codec)?;
    let sag_cfg = sag_config(rounds);
    let inner: Box<dyn Persistor> = match w.persist {
        Persist::Memory => Box::new(InMemoryPersistor::new()),
        Persist::File => Box::new(FilePersistor::new(persist_dir)?.with_log(log.clone())),
    };
    let mut persistor = ProbePersistor {
        inner,
        probes: Arc::clone(probes),
        dir: (w.persist == Persist::File).then(|| WatchedDir {
            path: persist_dir.to_path_buf(),
            seen: HashMap::new(),
        }),
    };
    let provisioned = Project::with_n_sites("simulator_server", N_SITES, seed).provision();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), seed);
    server.set_quorum(sag_cfg.min_clients, sag_cfg.quorum_grace);
    server.set_wire_codecs_enabled(true);
    let listener = match w.link {
        Link::Tcp => Some(TcpTransport::listen("127.0.0.1:0")?),
        Link::InProc => None,
    };

    // Every fallible step comes before the first thread is spawned.
    let mut links = Vec::with_capacity(N_SITES);
    for _ in 0..N_SITES {
        links.push(match &listener {
            None => in_proc_pair(),
            Some(listener) => {
                let addr = listener.local_addr()?.to_string();
                let client_side = TcpTransport::connect(&addr)?;
                let (stream, _) = listener.accept()?;
                (TcpTransport::from_stream(stream)?, client_side)
            }
        });
    }

    let Prepared {
        initial,
        executors,
        step_batch,
        ..
    } = prepared;
    let mut client_threads = Vec::with_capacity(N_SITES);
    let sites = provisioned.sites.iter().zip(executors).zip(links);
    for (i, ((package, executor), (server_side, client_side))) in sites.enumerate() {
        let lane = i as i32;
        // The server sends from the controller (tasks) or the reactor
        // (handshake replies) and receives on this connection's pump.
        server.serve_connection(wrap(
            server_side,
            probes,
            LANE_REACTOR,
            LANE_PUMP0 - lane,
            None,
        ));
        let flow = Arc::new(Mutex::new(SiteFlow::default()));
        let client_side = wrap(client_side, probes, lane, lane, Some(&flow));
        let mut executor = ProbeExecutor {
            inner: executor,
            probes: Arc::clone(probes),
            site: i,
            flow,
        };
        let package = package.clone();
        let clog = log.clone();
        let wire = wire.clone();
        client_threads.push(std::thread::spawn(move || -> Result<u32, FlareError> {
            LANE.with(|l| l.set(lane));
            let mut client = FlClient::register(client_side, &package, dh_secret(seed, i), clog)?;
            client.set_filters(FilterChain::new());
            client.set_retry_policy(RetryPolicy::default());
            client.set_wire_codec(wire);
            client.run(&mut executor, ClientBehavior::default())
        }));
    }
    server.wait_for_clients(N_SITES, Duration::from_secs(30));
    let register_ms = ms_since(registering);

    let aggregator = ProbeAggregator {
        inner: &WeightedFedAvg,
        probes: Arc::clone(probes),
    };
    let sag = ScatterAndGather::new(sag_cfg, log).with_run_seed(seed);
    probes.mark_edge();
    let first_scatter = Instant::now();
    let workflow = sag.run(&mut server, &aggregator, &mut persistor, initial);

    // As the simulator: stop the server before joining the clients.
    server.shutdown();
    server.disconnect_all();
    let mut site_errors = 0;
    for t in client_threads {
        if t.join().expect("client thread panicked").is_err() {
            site_errors += 1;
        }
    }
    let workflow = workflow?;
    Ok(FedOutcome {
        dropped: workflow.rounds.iter().map(|r| r.dropped.len() as u64).sum(),
        last_global_metric: workflow.final_metric(),
        final_weights: workflow.final_weights,
        site_errors,
        register_ms,
        first_scatter,
        step_batch,
    })
}

/// Final weights of the same workload and seed through the shipped
/// `SimulatorRunner::run`, for `fedbench verify`.
pub fn simulator_final_weights(
    w: &Workload,
    seed: u64,
    rounds: u32,
) -> Result<Weights, FlareError> {
    let prepared = prepare(w, seed, rounds);
    let config = SimulatorConfig {
        n_clients: N_SITES,
        sag: sag_config(rounds),
        seed,
        wire: CodecSpec::parse(w.codec).map_err(FlareError::Codec)?,
        ..SimulatorConfig::default()
    };
    let mut executors = prepared.executors.into_iter().map(Some).collect::<Vec<_>>();
    let result = SimulatorRunner::new(config).run(
        prepared.initial,
        |i, _| executors[i].take().expect("one executor per site"),
        &WeightedFedAvg,
        |_| FilterChain::new(),
    )?;
    Ok(result.workflow.final_weights)
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Times each layer call is repeated in the replay.
const REPLAY_ITERS: usize = 20;

/// Cost of one layer on the exchange path, per round of this workload:
/// each frame kind's replayed cost times the calls a round makes of it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCost {
    pub ms_per_round: f64,
    pub calls_per_round: f64,
    /// Payload bytes per round that pass through the layer.
    pub bytes_per_round: f64,
}

impl LayerCost {
    fn add(&mut self, ms_per_call: f64, calls: usize, bytes_per_call: usize) {
        self.ms_per_round += ms_per_call * calls as f64;
        self.calls_per_round += calls as f64;
        self.bytes_per_round += (bytes_per_call * calls) as f64;
    }

    /// Mean over the calls of one round; 0 for a layer the round bypasses.
    pub fn ms_per_call(&self) -> f64 {
        if self.calls_per_round > 0.0 {
            self.ms_per_round / self.calls_per_round
        } else {
            0.0
        }
    }
}

/// Throughput of layers together: their bytes over their time.
pub fn gib_per_s(costs: &[LayerCost]) -> f64 {
    let ms: f64 = costs.iter().map(|c| c.ms_per_round).sum();
    let bytes: f64 = costs.iter().map(|c| c.bytes_per_round).sum();
    if ms > 0.0 {
        bytes / (1u64 << 30) as f64 / (ms / 1e3)
    } else {
        0.0
    }
}

/// Per-layer costs measured single-threaded on captured weights.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub forward_ms_per_step: f64,
    pub backward_ms_per_step: f64,
    pub optim_ms_per_step: f64,
    /// Timed-kernel milliseconds inside one replayed step.
    pub kernel_ms_per_step: f64,
    pub nodes_per_step: f64,
    pub load_ms_per_call: f64,
    pub export_ms_per_call: f64,
    pub dxo_build_ms_per_call: f64,
    pub uplink_encode: LayerCost,
    pub uplink_decode: LayerCost,
    pub downlink_encode: LayerCost,
    pub downlink_decode: LayerCost,
    pub wire_encode: LayerCost,
    pub wire_decode: LayerCost,
    pub seal: LayerCost,
    pub open: LayerCost,
}

/// Median milliseconds of `f` over [`REPLAY_ITERS`] calls.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPLAY_ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    crate::stats::median(&samples)
}

enum StepModel {
    Lstm(LstmClassifier),
    Bert(BertModel),
}

impl StepModel {
    fn classifier(&mut self) -> &mut dyn SequenceClassifier {
        match self {
            StepModel::Lstm(m) => m,
            StepModel::Bert(m) => m,
        }
    }
}

/// One training step composed from the public pieces the learners use:
/// loss on the tape, `Graph::backward`, `grads_into` + `GradClip` + Adam.
fn replay_step(w: &Workload, seed: u64, b: &StepBatch, global: &Weights, out: &mut Replay) {
    let hyper = train_hyper(w);
    let mut model = match w.task {
        Task::LstmClassify => StepModel::Lstm(LstmClassifier::new(
            &LstmConfig::with_vocab(b.vocab_size),
            seed,
        )),
        Task::BertClassify | Task::BertMlm => StepModel::Bert(BertModel::new(
            &BertConfig::bert(b.vocab_size, w.seq_len),
            seed,
        )),
    };
    out.load_ms_per_call = median_ms(|| {
        weights_to_params(global, model.classifier().params_mut());
    });
    let mut exported = params_to_weights(model.classifier().params());
    out.export_ms_per_call = median_ms(|| {
        exported = params_to_weights(model.classifier().params());
    });
    out.dxo_build_ms_per_call = median_ms(|| {
        let mut dxo = Dxo::from_weights(std::mem::take(&mut exported), 1);
        dxo.metrics.insert("train_loss".to_string(), 0.5);
        dxo.metrics.insert("valid_acc".to_string(), 0.5);
        exported = std::hint::black_box(dxo).weights;
    });

    let batch = TokenBatch {
        ids: &b.ids,
        mask: &b.mask,
        batch_size: b.batch_size,
        seq_len: b.seq_len,
    };
    let mut g = Graph::new();
    let mut adam = Adam::with_lr(hyper.lr);
    let (mut fwd, mut bwd, mut opt) = (Vec::new(), Vec::new(), Vec::new());
    let kernels_before = Counters::read();
    for it in 0..REPLAY_ITERS {
        g.reset_with_seed(seed ^ it as u64);
        g.set_training(true);
        let t = Instant::now();
        let loss = match (&model, w.task) {
            (StepModel::Bert(m), Task::BertMlm) => m.mlm_loss(&mut g, &batch, &b.labels),
            (StepModel::Lstm(m), _) => m.classification_loss(&mut g, &batch, &b.labels),
            (StepModel::Bert(m), _) => m.classification_loss(&mut g, &batch, &b.labels),
        };
        std::hint::black_box(g.value(loss).item());
        fwd.push(ms_since(t));
        out.nodes_per_step = g.len() as f64;
        let t = Instant::now();
        g.backward(loss);
        bwd.push(ms_since(t));
        let t = Instant::now();
        let params = model.classifier().params_mut();
        g.grads_into(params);
        GradClip {
            max_norm: hyper.clip_norm,
        }
        .apply(params);
        adam.step(params);
        opt.push(ms_since(t));
    }
    let kernels = Counters::read();
    out.kernel_ms_per_step = (kernels.gemm_ns + kernels.rowwise_ns)
        .saturating_sub(kernels_before.gemm_ns + kernels_before.rowwise_ns)
        as f64
        / 1e6
        / REPLAY_ITERS as f64;
    out.forward_ms_per_step = crate::stats::median(&fwd);
    out.backward_ms_per_step = crate::stats::median(&bwd);
    out.optim_ms_per_step = crate::stats::median(&opt);
}

/// The four frames one site exchanges with the server in a round, as this
/// workload's codec shapes them.
struct RoundFrames {
    down_train: ServerMessage,
    down_validate: ServerMessage,
    up_submit: ClientMessage,
    up_report: ClientMessage,
}

fn train_metrics() -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("train_loss".to_string(), 0.5),
        ("valid_acc".to_string(), 0.5),
    ])
}

/// Codec replay: `UplinkEncoder::encode`/`decode_weights` for the uplink,
/// `GlobalRing::publish`/`prepare_round`/`encode_for` and `decode_weights`
/// for the downlink, on the captured globals and update. Returns the
/// frames a round carries.
fn replay_codec(spec: &CodecSpec, cap: &CapturedWeights<'_>, out: &mut Replay) -> RoundFrames {
    let raw_bytes = raw_weights_wire_size(cap.update) as usize;
    let mut uplink = UplinkEncoder::new(spec.clone());
    let mut up: Option<EncodedWeights> = None;
    let ms = median_ms(|| {
        up = Some(
            uplink
                .encode(cap.update, Some((cap.global_prev, 1)))
                .expect("captured update matches its base"),
        );
    });
    out.uplink_encode.add(ms, N_SITES, raw_bytes);
    let up = up.expect("REPLAY_ITERS > 0");
    let ms = median_ms(|| {
        std::hint::black_box(decode_weights(&up, Some(cap.global_prev)).expect("decodes"));
    });
    out.uplink_decode.add(ms, N_SITES, raw_bytes);

    // Downlink, in round order: the Train broadcast republishes the global
    // the previous Validate broadcast carried (an alias frame per site),
    // then the Validate broadcast publishes the new aggregate (one delta
    // encode, one frame per site). The two globals alternate so every
    // iteration encodes a real delta.
    let mut ring = GlobalRing::default();
    let mut head = ring.publish(cap.global_prev);
    ring.encode_for(spec, None, head)
        .expect("a fresh ring holds its head");
    let mut frames: Option<(EncodedWeights, EncodedWeights, u32)> = None;
    let mut flip = false;
    let ms = median_ms(|| {
        flip = !flip;
        let next = if flip {
            cap.global_next
        } else {
            cap.global_prev
        };
        let base = head;
        let delta_id = ring.publish(next);
        ring.prepare_round(spec, &[Some(base); N_SITES], delta_id);
        let mut delta = None;
        for _ in 0..N_SITES {
            delta = ring.encode_for(spec, Some(base), delta_id);
        }
        let alias_id = ring.publish(next);
        ring.prepare_round(spec, &[Some(delta_id); N_SITES], alias_id);
        let mut alias = None;
        for _ in 0..N_SITES {
            alias = ring.encode_for(spec, Some(delta_id), alias_id);
        }
        head = alias_id;
        frames = Some((
            delta.expect("ring holds the new payload").0,
            alias.expect("ring holds the alias").0,
            base,
        ));
    });
    // One iteration is a round's downlink encode work: two frames per
    // site, one new global's worth of bytes.
    let calls = 2 * N_SITES;
    out.downlink_encode
        .add(ms / calls as f64, calls, raw_bytes / calls);
    let (delta, alias, base) = frames.expect("REPLAY_ITERS > 0");
    let base_recon = ring
        .recon(spec, base)
        .expect("the ring keeps the delta's base")
        .clone();
    let mut recon = None;
    let ms = median_ms(|| {
        recon = Some(decode_weights(&delta, Some(&base_recon)).expect("delta decodes"));
    });
    out.downlink_decode.add(ms, N_SITES, raw_bytes);
    let recon = recon.expect("REPLAY_ITERS > 0");
    let ms = median_ms(|| {
        std::hint::black_box(decode_weights(&alias, Some(&recon)).expect("alias decodes"));
    });
    out.downlink_decode.add(ms, N_SITES, 0);

    RoundFrames {
        down_train: ServerMessage::Task(TaskAssignment::TrainEnc {
            round: 2,
            total_rounds: 8,
            enc: alias,
        }),
        down_validate: ServerMessage::Task(TaskAssignment::ValidateEnc {
            round: 2,
            enc: delta,
        }),
        up_submit: ClientMessage::SubmitEnc {
            round: 2,
            ack: 1,
            n_examples: cap.update_examples,
            metrics: train_metrics(),
            enc: up,
        },
        up_report: ClientMessage::ValidateReportEnc {
            round: 2,
            metric: 0.5,
            ack: 1,
        },
    }
}

struct CapturedWeights<'a> {
    global_prev: &'a Weights,
    update: &'a Weights,
    update_examples: u64,
    global_next: &'a Weights,
}

/// Wire and channel replay on the real frames of a round: `to_frame`,
/// `from_frame`, `SecureChannel::seal`, `SecureChannel::open`.
///
/// Call counts follow the shipped flat path: the server encodes a raw
/// broadcast once and seals it per site, but encodes a codec broadcast per
/// site; every site decodes both tasks and encodes its submit and its
/// report; every frame is sealed once and opened once.
fn replay_wire(frames: &RoundFrames, raw_codec: bool, out: &mut Replay) {
    let key = DhKeyPair::from_secret(1).shared_key(DhKeyPair::from_secret(2).public);
    let mut sealer = SecureChannel::new(key, 0);
    let opener = SecureChannel::new(key, 0);
    let down_encodes = if raw_codec { 1 } else { N_SITES };
    let mut kind = |frame: Vec<u8>,
                    encode: &mut dyn FnMut() -> Vec<u8>,
                    decode: &mut dyn FnMut(&[u8]),
                    encodes: usize| {
        let ms = median_ms(|| {
            std::hint::black_box(encode());
        });
        out.wire_encode.add(ms, encodes, frame.len());
        let ms = median_ms(|| decode(&frame));
        out.wire_decode.add(ms, N_SITES, frame.len());
        let mut sealed = Vec::new();
        let ms = median_ms(|| sealed = sealer.seal(&frame));
        out.seal.add(ms, N_SITES, frame.len());
        let ms = median_ms(|| {
            std::hint::black_box(opener.open(&sealed).expect("sealed by the paired channel"));
        });
        out.open.add(ms, N_SITES, sealed.len());
    };
    for msg in [&frames.down_train, &frames.down_validate] {
        kind(
            msg.to_frame(),
            &mut || msg.to_frame(),
            &mut |f| {
                std::hint::black_box(ServerMessage::from_frame(f).expect("own frame decodes"));
            },
            down_encodes,
        );
    }
    for msg in [&frames.up_submit, &frames.up_report] {
        kind(
            msg.to_frame(),
            &mut || msg.to_frame(),
            &mut |f| {
                std::hint::black_box(ClientMessage::from_frame(f).expect("own frame decodes"));
            },
            N_SITES,
        );
    }
}

/// Replays every step and exchange layer on the captured weights. Runs
/// under a compute permit, so kernels see the thread budget a site sees.
/// Returns `None` when the capture is incomplete (the run was too short).
pub fn replay(w: &Workload, seed: u64, capture: &Capture, batch: &StepBatch) -> Option<Replay> {
    let cap = CapturedWeights {
        global_prev: capture.global_prev.as_ref()?,
        update: capture.update.as_ref()?,
        update_examples: capture.update_examples,
        global_next: capture.global_next.as_ref()?,
    };
    let _permit = pool::compute_permit();
    let mut out = Replay::default();
    replay_step(w, seed, batch, cap.global_prev, &mut out);
    let spec = CodecSpec::parse(w.codec).expect("workload codecs parse");
    let frames = if spec.is_raw() {
        RoundFrames {
            down_train: ServerMessage::Task(TaskAssignment::Train {
                round: 2,
                total_rounds: 8,
                weights: cap.global_prev.clone(),
            }),
            down_validate: ServerMessage::Task(TaskAssignment::Validate {
                round: 2,
                weights: cap.global_next.clone(),
            }),
            up_submit: ClientMessage::Submit {
                round: 2,
                dxo: Dxo {
                    metrics: train_metrics(),
                    ..Dxo::from_weights(cap.update.clone(), cap.update_examples)
                },
            },
            up_report: ClientMessage::ValidateReport {
                round: 2,
                metric: 0.5,
            },
        }
    } else {
        replay_codec(&spec, &cap, &mut out)
    };
    replay_wire(&frames, spec.is_raw(), &mut out);
    Some(out)
}
