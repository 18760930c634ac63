//! Multi-tenant job runtime: N concurrent federations over one process.
//!
//! NVFlare servers host many *jobs*: an operator submits a job config,
//! the scheduler provisions it a private federation when a slot frees
//! up, and each job's rounds, metrics, and checkpoints stay isolated
//! from its neighbors. This module is that layer for `clinfl-flare`:
//!
//! * [`JobRuntime`] owns the lifecycle ([`JobState`]: submitted →
//!   scheduled → running → finished / aborted / failed) and caps how
//!   many federations train at once (`max_concurrent`); excess jobs
//!   queue in submission order.
//! * Each running job is one [`SimulatorRunner`] run — the same
//!   bring-up, resume refusal and tree fallback as any simulator run,
//!   shaped by its job text alone — handed the job's own
//!   [`clinfl_obs::Registry`] (so per-job metric namespaces never
//!   cross), its own checkpoint directory guarded by
//!   [`crate::persistor::FilePersistor`]'s exclusive lock, and an obs
//!   artifact tagged `job<id>-<name>`.
//! * [`JobRuntime::abort`] flips the job's abort flag; the controller's
//!   gathers notice within one [`crate::server::GATHER_SLICE`],
//!   broadcast `Finish` so client sessions wind down promptly, and the
//!   job lands in [`JobState::Aborted`] without disturbing its
//!   neighbors.
//!
//! Compute stays fair across tenants for free: every client takes a
//! `clinfl_tensor` pool permit around train/validate, so concurrent
//! jobs share the one worker pool instead of oversubscribing cores.

use crate::controller::WorkflowResult;
use crate::dxo::Weights;
use crate::executor::Executor;
use crate::job::JobConfig;
use crate::log::EventLog;
use crate::simulator::{SimulationResult, SimulatorRunner};
use crate::FlareError;
use clinfl_obs::Registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle state of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a free slot.
    Submitted,
    /// Slot acquired; the federation is being stood up (provisioning,
    /// registration, codec settle).
    Scheduled,
    /// The controller has started its round loop (the job's
    /// [`crate::admin::RunStatus`] left `waiting_for_clients`).
    Running,
    /// Completed all rounds.
    Finished,
    /// Stopped by an operator abort.
    Aborted,
    /// Stopped by an error (message in [`JobInfo::error`]).
    Failed,
}

impl JobState {
    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Finished | JobState::Aborted | JobState::Failed
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Submitted => "submitted",
            JobState::Scheduled => "scheduled",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Aborted => "aborted",
            JobState::Failed => "failed",
        };
        write!(f, "{s}")
    }
}

/// Per-site executor factory: called with (site index, site name),
/// returns the boxed trainer that moves onto that site's thread.
pub type ExecutorFactory = Box<dyn FnMut(usize, &str) -> Box<dyn Executor> + Send>;

/// Everything needed to launch one federation: the parsed config plus
/// the host-side pieces a [`JobConfig`] cannot carry (initial weights
/// and the executor factory).
///
/// The host writes its own settings — seed, checkpoint directory — into
/// `config.federation`. Two jobs must not share a checkpoint directory:
/// the [`crate::persistor::FilePersistor`] lock file fails the second job
/// loudly.
pub struct JobSpec {
    /// Parsed job description: name, model, aggregator and federation.
    pub config: JobConfig,
    /// Initial global weights scattered at round 0.
    pub initial: Weights,
    /// Called once per site (index, site name) to build its local
    /// trainer; the executor moves onto that site's thread.
    pub make_executor: ExecutorFactory,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Point-in-time public view of one job, as listed by the admin API.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// Runtime-assigned id (dense, starting at 1).
    pub id: u64,
    /// Job name from the config.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Human-readable workflow phase (`training round 3/10`, …).
    pub phase: String,
    /// Latest global validation metric, if any.
    pub last_metric: Option<f64>,
    /// Client sites provisioned for the job.
    pub clients: usize,
    /// Total configured rounds.
    pub rounds: u32,
    /// The job's federation spec in canonical text form (see
    /// [`crate::spec`]): sites, rounds, codec, tree, faults and the rest.
    pub spec: String,
    /// ε of the finished run's `(ε, δ)` when the job trained with DP-SGD
    /// (δ is in `spec`).
    pub epsilon: Option<f64>,
    /// Error display when `state == Failed`.
    pub error: Option<String>,
}

/// One job's bookkeeping inside the runtime.
struct JobEntry {
    name: String,
    clients: usize,
    rounds: u32,
    spec: String,
    state: JobState,
    status: crate::admin::RunStatus,
    obs: Registry,
    abort: Arc<AtomicBool>,
    result: Option<WorkflowResult>,
    epsilon: Option<f64>,
    error: Option<String>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct RuntimeInner {
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    next_id: AtomicU64,
    /// Free run slots; jobs past the cap queue on the condvar.
    slots: Mutex<usize>,
    slot_freed: Condvar,
    log: EventLog,
}

impl RuntimeInner {
    /// Blocks until a run slot frees up or the job is aborted while
    /// still queued; returns `false` on abort.
    fn acquire_slot(&self, abort: &AtomicBool) -> bool {
        let mut slots = self.slots.lock().expect("slot lock poisoned");
        loop {
            if abort.load(Ordering::Relaxed) {
                return false;
            }
            if *slots > 0 {
                *slots -= 1;
                return true;
            }
            // Bounded wait so a queued job still notices an abort.
            let (guard, _) = self
                .slot_freed
                .wait_timeout(slots, Duration::from_millis(50))
                .expect("slot lock poisoned");
            slots = guard;
        }
    }

    fn release_slot(&self) {
        *self.slots.lock().expect("slot lock poisoned") += 1;
        self.slot_freed.notify_one();
    }

    fn set_state(&self, id: u64, state: JobState) {
        if let Some(e) = self.jobs.lock().expect("jobs lock poisoned").get_mut(&id) {
            e.state = state;
        }
    }
}

/// Schedules and supervises concurrent federation jobs; see the module
/// docs for the isolation guarantees. Cheap to clone (an `Arc` handle),
/// so the admin HTTP server and the host can share one runtime.
#[derive(Clone)]
pub struct JobRuntime {
    inner: Arc<RuntimeInner>,
}

impl std::fmt::Debug for JobRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRuntime").finish_non_exhaustive()
    }
}

impl JobRuntime {
    /// New runtime allowing at most `max_concurrent` jobs to train at
    /// once (clamped to ≥ 1); further submissions queue in order.
    pub fn new(max_concurrent: usize) -> Self {
        JobRuntime {
            inner: Arc::new(RuntimeInner {
                jobs: Mutex::new(BTreeMap::new()),
                next_id: AtomicU64::new(1),
                slots: Mutex::new(max_concurrent.max(1)),
                slot_freed: Condvar::new(),
                log: EventLog::new(),
            }),
        }
    }

    /// Submits a job and returns its id immediately; the job trains on
    /// a background thread once a slot frees up.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let status = crate::admin::RunStatus::new();
        let obs = Registry::new();
        let abort = Arc::new(AtomicBool::new(false));
        let entry = JobEntry {
            name: spec.config.name.clone(),
            clients: spec.config.federation.n_clients,
            rounds: spec.config.federation.sag.rounds,
            spec: spec.config.federation.to_text(),
            state: JobState::Submitted,
            status: status.clone(),
            obs: obs.clone(),
            abort: abort.clone(),
            result: None,
            epsilon: None,
            error: None,
            handle: None,
        };
        self.inner
            .jobs
            .lock()
            .expect("jobs lock poisoned")
            .insert(id, entry);
        self.inner.log.info(
            "JobRuntime",
            format!("job {id} ({}) submitted", spec.config.name),
        );
        let inner = self.inner.clone();
        let handle = std::thread::spawn(move || {
            if !inner.acquire_slot(&abort) {
                inner.set_state(id, JobState::Aborted);
                inner
                    .log
                    .info("JobRuntime", format!("job {id} aborted while queued"));
                return;
            }
            inner.set_state(id, JobState::Scheduled);
            let outcome = run_job(id, spec, &obs, &status, &abort, &inner.log);
            inner.release_slot();
            let mut jobs = inner.jobs.lock().expect("jobs lock poisoned");
            let entry = jobs.get_mut(&id).expect("job entry vanished");
            match outcome {
                Ok(result) => {
                    entry.state = JobState::Finished;
                    entry.epsilon = result.privacy.map(|(eps, _)| eps);
                    entry.result = Some(result.workflow);
                }
                Err(FlareError::Aborted) => entry.state = JobState::Aborted,
                Err(e) => {
                    entry.state = JobState::Failed;
                    entry.error = Some(e.to_string());
                }
            }
        });
        if let Some(e) = self
            .inner
            .jobs
            .lock()
            .expect("jobs lock poisoned")
            .get_mut(&id)
        {
            e.handle = Some(handle);
        }
        id
    }

    /// Requests an abort. Queued jobs leave the queue; running jobs
    /// stop at the controller's next cancellation point (≤ one ~50 ms
    /// wait slice). Returns `false` for unknown ids or jobs already in
    /// a terminal state.
    pub fn abort(&self, id: u64) -> bool {
        let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
        match jobs.get(&id) {
            Some(e) if !e.state.is_terminal() => {
                e.abort.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Snapshot of every job in id (= submission) order.
    pub fn list(&self) -> Vec<JobInfo> {
        let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
        jobs.iter().map(|(id, e)| info_of(*id, e)).collect()
    }

    /// Snapshot of one job, or `None` for unknown ids.
    pub fn info(&self, id: u64) -> Option<JobInfo> {
        let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
        jobs.get(&id).map(|e| info_of(id, e))
    }

    /// The job's scoped metrics registry (its live snapshot only ever
    /// contains this job's counters), or `None` for unknown ids.
    pub fn registry(&self, id: u64) -> Option<Registry> {
        let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
        jobs.get(&id).map(|e| e.obs.clone())
    }

    /// The finished job's workflow result (final weights + round
    /// summaries); `None` while running or if it did not finish.
    pub fn result(&self, id: u64) -> Option<WorkflowResult> {
        let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
        jobs.get(&id).and_then(|e| e.result.clone())
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses; returns the state it last observed (`None` for unknown
    /// ids).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        loop {
            let state = self.info(id)?.state;
            if state.is_terminal() || Instant::now() >= deadline {
                return Some(state);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Waits for every submitted job to reach a terminal state (used by
    /// hosts at shutdown). Joins the job threads, so the caller must
    /// not hold any runtime locks.
    pub fn join_all(&self) {
        let ids: Vec<u64> = {
            let jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
            jobs.keys().copied().collect()
        };
        for id in ids {
            let handle = {
                let mut jobs = self.inner.jobs.lock().expect("jobs lock poisoned");
                jobs.get_mut(&id).and_then(|e| e.handle.take())
            };
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }

    /// Aborts every non-terminal job and joins all job threads.
    pub fn shutdown(&self) {
        for info in self.list() {
            if !info.state.is_terminal() {
                self.abort(info.id);
            }
        }
        self.join_all();
    }
}

fn info_of(id: u64, e: &JobEntry) -> JobInfo {
    let phase = e.status.phase();
    let state = match e.state {
        JobState::Scheduled if phase != crate::admin::RunPhase::WaitingForClients => {
            JobState::Running
        }
        s => s,
    };
    JobInfo {
        id,
        name: e.name.clone(),
        state,
        phase: phase.to_string(),
        last_metric: e.status.last_metric(),
        clients: e.clients,
        rounds: e.rounds,
        spec: e.spec.clone(),
        epsilon: e.epsilon,
        error: e.error.clone(),
    }
}

/// Runs one job as a [`SimulatorRunner`] run of the job's own
/// `federation`, with the job's registry, status and abort flag as its
/// host handles — so the server, every client and relay, the controller
/// and the obs artifact (tagged `job<id>-<name>`) are all scoped to the
/// job.
fn run_job(
    id: u64,
    spec: JobSpec,
    obs: &Registry,
    status: &crate::admin::RunStatus,
    abort: &Arc<AtomicBool>,
    log: &EventLog,
) -> Result<SimulationResult, FlareError> {
    let JobConfig {
        name,
        aggregator,
        federation,
        ..
    } = spec.config;
    log.info(
        "JobRuntime",
        format!("job {id} starting on {} site(s)", federation.n_clients),
    );
    SimulatorRunner::with_log(federation, log.clone())
        .with_registry(obs.clone(), format!("job{id}-{name}"))
        .with_status(status.clone())
        .with_abort(abort.clone())
        .run_simple(
            spec.initial,
            spec.make_executor,
            aggregator.build().as_ref(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dxo::WeightTensor;
    use crate::executor::ArithmeticExecutor;
    use crate::simulator::SimulatorConfig;

    fn spec(name: &str, rounds: u32, clients: usize, seed: u64) -> JobSpec {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
        let base = SimulatorConfig {
            seed,
            ..SimulatorConfig::default()
        };
        JobSpec {
            config: JobConfig::parse(
                &format!(
                    "name = {name}\nrounds = {rounds}\nclients = {clients}\nmin_clients = {clients}\n"
                ),
                &base,
            )
            .unwrap(),
            initial: w,
            make_executor: Box::new(|i, _| {
                Box::new(ArithmeticExecutor {
                    delta: (i + 1) as f32,
                    n_examples: 10,
                })
            }),
        }
    }

    #[test]
    fn single_job_runs_to_finished() {
        let rt = JobRuntime::new(2);
        let id = rt.submit(spec("solo", 3, 2, 7));
        assert_eq!(
            rt.wait(id, Duration::from_secs(30)),
            Some(JobState::Finished)
        );
        let info = rt.info(id).unwrap();
        assert_eq!(info.name, "solo");
        assert_eq!(info.phase, "finished");
        assert!(info.last_metric.is_some());
        let result = rt.result(id).unwrap();
        assert_eq!(result.rounds.len(), 3);
        // mean(1, 2) = 1.5 added per round over 3 rounds.
        assert_eq!(result.final_weights["p"].data, vec![4.5; 4]);
        rt.join_all();
    }

    /// A `masked_sum` job gets its masks: the masked sum recovers the
    /// weighted mean (deltas 1 and 2 over 3 rounds), where unmasked
    /// payloads would have been divided by the example count.
    #[test]
    fn masked_sum_job_recovers_the_mean() {
        let rt = JobRuntime::new(1);
        let mut job = spec("masked", 3, 2, 7);
        job.config.aggregator = crate::job::AggregatorKind::MaskedSum;
        let id = rt.submit(job);
        assert_eq!(
            rt.wait(id, Duration::from_secs(30)),
            Some(JobState::Finished)
        );
        for &v in &rt.result(id).unwrap().final_weights["p"].data {
            assert!((v - 4.5).abs() < 1e-2, "expected ≈4.5 got {v}");
        }
        rt.join_all();
    }

    #[test]
    fn queue_respects_max_concurrent() {
        // One slot: the second job must wait for the first to finish,
        // yet both complete.
        let rt = JobRuntime::new(1);
        let a = rt.submit(spec("first", 2, 2, 1));
        let b = rt.submit(spec("second", 2, 2, 2));
        assert_eq!(
            rt.wait(a, Duration::from_secs(30)),
            Some(JobState::Finished)
        );
        assert_eq!(
            rt.wait(b, Duration::from_secs(30)),
            Some(JobState::Finished)
        );
        rt.join_all();
    }

    /// Adds like [`ArithmeticExecutor`] but sleeps per task, so tests
    /// can catch a job mid-round.
    struct SlowExecutor(ArithmeticExecutor);

    impl Executor for SlowExecutor {
        fn train(&mut self, global: &Weights, ctx: &crate::executor::TaskContext) -> crate::Dxo {
            std::thread::sleep(Duration::from_millis(30));
            self.0.train(global, ctx)
        }
        fn validate(&mut self, global: &Weights, ctx: &crate::executor::TaskContext) -> f64 {
            self.0.validate(global, ctx)
        }
    }

    fn slow_spec(name: &str, rounds: u32, clients: usize, seed: u64) -> JobSpec {
        let mut s = spec(name, rounds, clients, seed);
        s.make_executor = Box::new(|i, _| {
            Box::new(SlowExecutor(ArithmeticExecutor {
                delta: (i + 1) as f32,
                n_examples: 10,
            }))
        });
        s
    }

    #[test]
    fn abort_while_queued_never_runs() {
        let rt = JobRuntime::new(1);
        let running = rt.submit(slow_spec("running", 200, 2, 1));
        let queued = rt.submit(slow_spec("queued", 200, 2, 2));
        assert!(rt.abort(queued));
        assert_eq!(
            rt.wait(queued, Duration::from_secs(10)),
            Some(JobState::Aborted)
        );
        assert!(rt.abort(running));
        assert_eq!(
            rt.wait(running, Duration::from_secs(10)),
            Some(JobState::Aborted)
        );
        rt.join_all();
        // A terminal job refuses further aborts.
        assert!(!rt.abort(running));
        assert!(!rt.abort(9999));
    }

    #[test]
    fn per_job_registries_do_not_cross() {
        let rt = JobRuntime::new(2);
        let a = rt.submit(spec("left", 2, 2, 5));
        let b = rt.submit(spec("right", 4, 2, 5));
        rt.wait(a, Duration::from_secs(30));
        rt.wait(b, Duration::from_secs(30));
        let ra = rt.registry(a).unwrap();
        let rb = rt.registry(b).unwrap();
        assert_eq!(ra.counter_value("flare.round.count"), 2);
        assert_eq!(rb.counter_value("flare.round.count"), 4);
        rt.join_all();
    }
}
