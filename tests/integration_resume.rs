//! Crash-resume chaos tests: the server process is abort-killed mid-run,
//! the checkpoint directory must always recover, and a resumed run must
//! reproduce the uninterrupted run bit-for-bit.
//!
//! Determinism boundary (see DESIGN.md §3f): fault verdicts are a pure
//! function of `(seed, site, direction, frame sequence)` and sequence
//! counters are per-connection. A resume restarts every connection, so
//! under *lossy* faults (drops/truncations) the post-resume fault
//! schedule differs from the uninterrupted run's and contributor sets can
//! legitimately diverge. The bit-identity test therefore runs under a
//! delay-only profile (delays reorder nothing and lose nothing, so every
//! site contributes every round); the aggressive-profile test asserts
//! completion and checkpoint integrity, not bit-equality.
//!
//! The kill mechanism: the parent re-invokes its own test binary filtered
//! to `resume_child_worker`, handing it the run's whole spec text in
//! `CLINFL_RESUME_CHILD_SPEC` (checkpoint directory, faults, resume,
//! codec and tree included); the child runs that federation while a
//! watchdog thread polls `run.cfc` and calls `std::process::abort()` (no
//! destructors, no flushes — a SIGKILL-grade stop) once the checkpoint
//! passes the round in `CLINFL_RESUME_KILL_AFTER`.
//!
//! `CLINFL_TREE=DxF` reruns every federation here on that aggregation
//! tree; each completed run then asserts that it really formed the tree
//! (see `common`).

mod common;

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::checkpoint::{load_weights_file, RunCheckpoint, RUN_CHECKPOINT_FILE};
use clinfl_flare::client::RetryPolicy;
use clinfl_flare::codec::CodecSpec;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::persistor::{FilePersistor, Persistor};
use clinfl_flare::simulator::{SimulationResult, SimulatorConfig, SimulatorRunner};
use clinfl_flare::{FlareError, WeightTensor, Weights};
use common::{assert_topology, env_tree};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Subprocess runs and multi-site simulations race for cores; serialize
/// the heavy tests (same pattern as `integration_faults.rs`).
static TIMING_LOCK: Mutex<()> = Mutex::new(());

fn timing_guard() -> MutexGuard<'static, ()> {
    TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ROUNDS: u32 = 6;
const SEED: u64 = 99;

/// Fault seed for the aggressive-profile chaos test. Lossy fault
/// schedules restart with the connections on resume, so some seeds
/// deterministically strand a post-resume round under quorum; this one
/// was picked with [`scout_aggressive_resume_seeds`], which verifies the
/// leg *and* the resume complete from every early round boundary.
const AGGR_FAULT_SEED: u64 = 1;

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
    w
}

/// Timeouts long enough that no retry traffic fires, keeping frame
/// sequence numbers (and thus fault verdicts) schedule-free.
fn quiet_retry() -> RetryPolicy {
    RetryPolicy {
        message_timeout: Duration::from_secs(30),
        submit_copies: 2,
        ..RetryPolicy::default()
    }
}

/// Delay-only faults: frames are held back but never lost, so every site
/// contributes every round and the outcome is schedule-independent.
fn delay_faults() -> FaultConfig {
    FaultConfig::parse(&format!("seed:{SEED},delay:300,delay_ms:5")).expect("delay-only profile")
}

fn sim_config(dir: Option<&Path>, faults: FaultConfig, resume: bool) -> SimulatorConfig {
    let lossy = faults.drop_permille > 0 || faults.truncate_permille > 0;
    let mut cfg = SimulatorConfig {
        n_clients: 8,
        sag: SagConfig {
            rounds: ROUNDS,
            min_clients: if lossy { 3 } else { 8 },
            round_timeout: Duration::from_secs(30),
            validate_global: !lossy,
            quorum_grace: lossy.then(|| Duration::from_millis(1500)),
            ..SagConfig::default()
        },
        seed: SEED,
        faults,
        retry: quiet_retry(),
        checkpoint_dir: dir.map(Path::to_path_buf),
        resume,
        ..SimulatorConfig::default()
    };
    env_tree(&mut cfg);
    cfg
}

fn run_sim(cfg: SimulatorConfig) -> Result<SimulationResult, FlareError> {
    let res = SimulatorRunner::new(cfg.clone()).run_simple(
        initial(),
        |i, _| {
            Box::new(ArithmeticExecutor {
                delta: (i as f32 + 1.0) * 0.5,
                n_examples: 10,
            })
        },
        &WeightedFedAvg,
    );
    if let Ok(res) = &res {
        assert_topology(&cfg, &res.log);
    }
    res
}

/// Checkpoint dirs live under `target/chaos-resume/` so CI can upload the
/// directory as an artifact when a test fails (success cleans up).
fn chaos_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target")
        .join("chaos-resume")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Recovery must succeed no matter where the kill landed: the directory
/// opens, and whenever the checkpoint says rounds completed, `latest()`
/// and `best()` are readable.
fn assert_recoverable(dir: &Path) -> Option<RunCheckpoint> {
    let p = FilePersistor::new(dir).expect("checkpoint dir must always open");
    let ckpt = p.load_checkpoint();
    if let Some(c) = &ckpt {
        assert!(c.next_round >= 1, "checkpoint with no completed rounds");
        assert!(p.latest().is_some(), "latest unreadable after crash");
        assert!(p.best().is_some(), "best unreadable after crash");
        assert_eq!(c.rounds.len() as u32, c.next_round);
    }
    ckpt
}

/// Re-invokes this test binary filtered to [`resume_child_worker`], which
/// runs `cfg` (its checkpoint directory included) and, with `kill_after`,
/// aborts once the checkpoint passes that round.
fn spawn_child(cfg: &SimulatorConfig, kill_after: Option<u32>) -> bool {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["resume_child_worker", "--exact", "--test-threads", "1"])
        .env("CLINFL_RESUME_CHILD_SPEC", cfg.to_text())
        .env_remove("CLINFL_RESUME_KILL_AFTER");
    if let Some(k) = kill_after {
        cmd.env("CLINFL_RESUME_KILL_AFTER", k.to_string());
    }
    let out = cmd.output().expect("spawn child test process");
    if !out.status.success() && kill_after.is_none() {
        eprintln!(
            "child stdout:\n{}\nchild stderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    out.status.success()
}

/// Seed scout (not part of the suite): `cargo test --release --test
/// integration_resume -- --ignored --nocapture scout` prints which
/// aggressive-fault seeds complete both the interrupted leg and a resume
/// from every early round boundary (the schedules are deterministic per
/// seed, so a seed that passes here passes in the chaos test too).
#[test]
#[ignore]
fn scout_aggressive_resume_seeds() {
    for seed in 1..=20u64 {
        let ok = (1..4u32).all(|k| {
            let dir = chaos_dir(&format!("scout-{seed}-{k}"));
            let mut leg = sim_config(Some(&dir), FaultConfig::aggressive(seed), false);
            leg.sag.rounds = k;
            let leg_ok = run_sim(leg).is_ok();
            let resumed_ok = leg_ok
                && run_sim(sim_config(Some(&dir), FaultConfig::aggressive(seed), true)).is_ok();
            std::fs::remove_dir_all(&dir).ok();
            resumed_ok
        });
        println!("faults seed {seed}: {}", if ok { "PASS" } else { "fail" });
    }
}

/// Child half of the chaos tests: a no-op under a normal `cargo test`
/// sweep, a crash-able federation server when the parent sets the env.
#[test]
fn resume_child_worker() {
    let Ok(spec) = std::env::var("CLINFL_RESUME_CHILD_SPEC") else {
        return;
    };
    let mut cfg = SimulatorConfig::default();
    for (key, value) in spec.lines().filter_map(|line| line.split_once('=')) {
        cfg.apply(key.trim(), value).expect("child spec line");
    }
    let dir = cfg
        .checkpoint_dir
        .clone()
        .expect("child spec names a checkpoint_dir");
    if let Some(k) = std::env::var("CLINFL_RESUME_KILL_AFTER")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
    {
        let ckpt_path = dir.join(RUN_CHECKPOINT_FILE);
        std::thread::spawn(move || loop {
            if let Ok(c) = RunCheckpoint::load(&ckpt_path) {
                if c.next_round > k {
                    // SIGKILL-grade stop: no destructors, no flushes.
                    std::process::abort();
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        });
    }
    run_sim(cfg).expect("child federation run");
}

/// Tentpole proof: kill the server at *every* round boundary in turn,
/// resuming between kills, and require (a) the checkpoint directory
/// recovers after every kill and (b) the final global weights are
/// bit-identical to an uninterrupted same-seed run.
#[test]
fn killed_and_resumed_run_matches_uninterrupted_bitwise() {
    let _serial = timing_guard();
    let reference = run_sim(sim_config(None, delay_faults(), false)).expect("reference run");
    assert_eq!(reference.workflow.rounds.len() as u32, ROUNDS);

    let dir = chaos_dir("bitwise");
    let child = |resume| sim_config(Some(&dir), delay_faults(), resume);
    for k in 0..ROUNDS - 1 {
        let completed = spawn_child(&child(k > 0), Some(k));
        assert!(
            !completed,
            "child with kill_after={k} finished instead of crashing"
        );
        let ckpt = assert_recoverable(&dir).expect("checkpoint must exist after kill");
        assert!(ckpt.next_round > k, "no progress before kill at {k}");
        assert_eq!(ckpt.seed, SEED);
    }
    assert!(spawn_child(&child(true), None), "final resume leg failed");

    let p = FilePersistor::new(&dir).unwrap();
    let ckpt = p.load_checkpoint().expect("final checkpoint");
    assert_eq!(ckpt.next_round, ROUNDS);
    assert_eq!(ckpt.rounds.len() as u32, ROUNDS);
    assert_eq!(
        ckpt.global, reference.workflow.final_weights,
        "resumed run diverged from the uninterrupted same-seed run"
    );
    assert_eq!(
        p.latest().unwrap(),
        reference.workflow.final_weights,
        "latest() after recovery diverged"
    );
    // Every round's bookkeeping survived the kills.
    for (c, r) in ckpt.rounds.iter().zip(&reference.workflow.rounds) {
        assert_eq!(c.round, r.round);
        assert_eq!(c.contributors, r.contributors);
        assert_eq!(c.dropped, r.dropped);
    }
    let best = load_weights_file(dir.join("best.cfw")).expect("best.cfw readable");
    assert!(!best.is_empty());
    std::fs::remove_dir_all(&dir).ok(); // kept on failure for CI artifacts
}

/// Resume is codec-aware by construction: the delta ring's payload ids
/// are session-scoped (DESIGN.md §3g), so a resumed server opens a fresh
/// ring and its first downlink per spec is self-contained — no client is
/// ever asked to decode against a base payload that died with the old
/// process. With the lossless `delta` codec under delay-only faults a
/// kill + resume must therefore stay bit-identical to the uninterrupted
/// codec run.
#[test]
fn codec_resume_matches_uninterrupted_bitwise() {
    let _serial = timing_guard();
    let codec = |dir: Option<&Path>, resume| {
        let mut cfg = sim_config(dir, delay_faults(), resume);
        cfg.wire = CodecSpec::parse("delta").unwrap();
        cfg
    };
    let reference = run_sim(codec(None, false)).expect("reference codec run");
    assert_eq!(reference.workflow.rounds.len() as u32, ROUNDS);
    assert!(
        reference.log.contains("negotiated wire codec delta"),
        "reference run never negotiated the codec"
    );

    let dir = chaos_dir("codec-bitwise");
    let completed = spawn_child(&codec(Some(&dir), false), Some(1));
    assert!(!completed, "codec child finished instead of crashing");
    let ckpt = assert_recoverable(&dir).expect("checkpoint after codec kill");
    assert!(ckpt.next_round > 1, "no progress before the codec kill");
    assert!(
        spawn_child(&codec(Some(&dir), true), None),
        "codec resume leg failed"
    );

    let p = FilePersistor::new(&dir).unwrap();
    let ckpt = p.load_checkpoint().expect("final checkpoint");
    assert_eq!(ckpt.next_round, ROUNDS);
    assert_eq!(
        ckpt.global, reference.workflow.final_weights,
        "codec resume diverged from the uninterrupted codec run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume must continue the run it claims to: every checkpoint records
/// its run's spec, so a raw run killed after round 1 and resumed with
/// `codec = delta` is refused, naming the key, before any round runs.
#[test]
fn resume_under_a_changed_codec_is_refused() {
    let _serial = timing_guard();
    let dir = chaos_dir("changed-spec");
    let completed = spawn_child(&sim_config(Some(&dir), delay_faults(), false), Some(1));
    assert!(!completed, "child finished instead of crashing");
    let ckpt = assert_recoverable(&dir).expect("checkpoint after kill");
    let round_files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("round_"))
            .collect();
        names.sort();
        names
    };
    let before = round_files();

    let mut cfg = sim_config(Some(&dir), delay_faults(), true);
    cfg.apply("codec", "delta").unwrap();
    let err = run_sim(cfg).expect_err("a resume under another codec must be refused");
    assert!(
        matches!(&err, FlareError::Checkpoint(m)
            if m.contains("codec: checkpoint has raw, this run has delta")),
        "{err}"
    );
    assert_eq!(
        round_files(),
        before,
        "the refused resume wrote a round file"
    );
    assert_eq!(assert_recoverable(&dir), Some(ckpt), "checkpoint changed");
    std::fs::remove_dir_all(&dir).ok();
}

/// Under the aggressive profile (drops, truncations, mid-round client
/// crashes) a kill + resume must still complete via quorum and the
/// checkpoint directory must stay recoverable — bit-equality is out of
/// scope here because resume restarts connections and with them the
/// per-connection fault sequence (see module docs).
#[test]
fn aggressive_fault_kill_resume_completes_and_stays_recoverable() {
    let _serial = timing_guard();
    let dir = chaos_dir("aggressive");
    let child = |resume| sim_config(Some(&dir), FaultConfig::aggressive(AGGR_FAULT_SEED), resume);
    let completed = spawn_child(&child(false), Some(1));
    assert!(!completed, "child should have been killed mid-run");
    let ckpt = assert_recoverable(&dir).expect("checkpoint after aggressive kill");
    assert!(ckpt.next_round >= 2);
    assert!(
        spawn_child(&child(true), None),
        "resume under aggressive faults failed"
    );
    let p = FilePersistor::new(&dir).unwrap();
    let ckpt = p.load_checkpoint().expect("final checkpoint");
    assert_eq!(ckpt.next_round, ROUNDS);
    assert!(p.latest().is_some());
    assert!(p.best().is_some());
    // Quorum bookkeeping survived: every completed round has >= 3 sites.
    for r in &ckpt.rounds {
        assert!(
            r.contributors.len() >= 3,
            "round {} under quorum in checkpoint",
            r.round
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Round-level driver resume: `--resume` on the real training pipeline
/// completes and extends history. NOT bit-identical to an uninterrupted
/// run by design — each site's Adam optimizer state lives in the client
/// process and is rebuilt on restart (documented in DESIGN.md §3f).
#[test]
fn driver_level_resume_extends_run() {
    let _serial = timing_guard();
    let dir = chaos_dir("driver");
    let mut cfg = clinfl::PipelineConfig::fast_demo();
    env_tree(&mut cfg.federation);
    cfg.federation.checkpoint_dir = Some(dir.clone());
    cfg.federation.retain_checkpoints = Some(2);
    cfg.federation.sag.rounds = 1;
    let first =
        clinfl::drivers::train_federated(&cfg, clinfl::ModelSpec::Lstm).expect("first leg trains");
    assert_eq!(first.history.len(), 1);

    cfg.federation.sag.rounds = 2;
    cfg.federation.resume = true;
    let resumed = clinfl::drivers::train_federated(&cfg, clinfl::ModelSpec::Lstm)
        .expect("resumed leg trains");
    assert_topology(&cfg.federation, resumed.log.as_ref().unwrap());
    assert_eq!(resumed.history.len(), 2, "history must cover both rounds");
    assert!(resumed.accuracy > 0.0 && resumed.accuracy <= 1.0);
    assert!(
        resumed
            .log
            .as_ref()
            .unwrap()
            .contains("Resuming at round 1"),
        "resume path not taken"
    );
    let ckpt = FilePersistor::new(&dir).unwrap().load_checkpoint().unwrap();
    assert_eq!(ckpt.next_round, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume pointed at an empty directory warns and starts fresh instead
/// of failing — `--resume` is safe to pass unconditionally in scripts.
#[test]
fn resume_with_empty_dir_starts_fresh() {
    let _serial = timing_guard();
    let dir = chaos_dir("fresh");
    let res = run_sim(sim_config(Some(&dir), delay_faults(), true)).expect("fresh run");
    assert_eq!(res.workflow.rounds.len() as u32, ROUNDS);
    assert!(res
        .log
        .contains("resume requested but no valid checkpoint found"));
    std::fs::remove_dir_all(&dir).ok();
}
