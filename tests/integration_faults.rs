//! Chaos integration: the federation must complete — and reproduce —
//! under seeded link faults, mid-round crashes, and stragglers.
//!
//! Determinism boundary: fault decisions depend only on `(seed, site,
//! direction, frame sequence)`, so the set of injected faults is
//! byte-identical across runs. Heartbeats and send-retries also consume
//! sequence numbers, so the chaos configs below use a `message_timeout`
//! large enough that no timeout-driven traffic fires mid-run; fault
//! events are compared sorted (threads interleave log order), and the
//! single-threaded controller's drop/quorum lines are compared verbatim.
//!
//! `CLINFL_TREE=DxF` reruns every federation here on that aggregation
//! tree; each run then asserts that it really formed the tree (see
//! `common`).

mod common;

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::RetryPolicy;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::{ArithmeticExecutor, Executor, TaskContext};
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::simulator::{SimulationResult, SimulatorConfig, SimulatorRunner};
use clinfl_flare::{Dxo, WeightTensor, Weights};
use clinfl_tensor::pool;
use common::{assert_topology, env_tree};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The chaos configs rely on real-time grace windows, so two simulations
/// (or a simulation and the compute-heavy driver test) racing for cores
/// can starve a round past its deadline on a small machine. Every
/// timing-sensitive test takes this lock and runs alone.
static TIMING_LOCK: Mutex<()> = Mutex::new(());

fn timing_guard() -> MutexGuard<'static, ()> {
    TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
    w
}

/// A retry policy whose timeout never fires within a test run, keeping
/// frame sequence numbers (and thus fault decisions) schedule-free.
fn quiet_retry() -> RetryPolicy {
    RetryPolicy {
        message_timeout: Duration::from_secs(30),
        // A silently dropped Submit is unrecoverable for the sender, so
        // lossy-link runs send each update twice (the server dedups).
        submit_copies: 2,
        ..RetryPolicy::default()
    }
}

fn chaos_config(seed: u64) -> SimulatorConfig {
    SimulatorConfig {
        n_clients: 8,
        sag: SagConfig {
            rounds: 5,
            min_clients: 3,
            round_timeout: Duration::from_secs(8),
            validate_global: false,
            quorum_grace: Some(Duration::from_millis(1500)),
            ..SagConfig::default()
        },
        seed: 99,
        faults: FaultConfig::aggressive(seed),
        retry: quiet_retry(),
        ..SimulatorConfig::default()
    }
}

fn run_sim(mut cfg: SimulatorConfig) -> Result<SimulationResult, clinfl_flare::FlareError> {
    env_tree(&mut cfg);
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

fn run_chaos(seed: u64) -> SimulationResult {
    run_sim(chaos_config(seed)).expect("chaos run completes via quorum")
}

/// Controller messages that describe round membership decisions — these
/// are produced by the single-threaded SAG loop, so their order is
/// deterministic when the fault schedule is.
fn membership_lines(res: &SimulationResult) -> Vec<String> {
    res.log
        .messages_from("ScatterAndGather")
        .into_iter()
        .filter(|m| m.contains("missed round") || m.contains("Quorum met"))
        .collect()
}

/// Seed scout (not part of the suite): `cargo test --release --test
/// integration_faults -- --ignored --nocapture` prints which fault seeds
/// keep every round at or above the quorum.
#[test]
#[ignore]
fn scout_passing_seeds() {
    for seed in 1..=30u64 {
        let ok = run_sim(chaos_config(seed)).is_ok();
        println!("seed {seed}: {}", if ok { "PASS" } else { "fail" });
    }
}

/// Same scout for the sampled chaos configuration below.
#[test]
#[ignore]
fn scout_sampled_seeds() {
    for seed in 1..=20u64 {
        let mut cfg = chaos_config(seed);
        cfg.sag.client_sample_fraction = 0.75;
        cfg.sag.min_clients = 2;
        let ok = run_sim(cfg).is_ok();
        println!("seed {seed}: {}", if ok { "PASS" } else { "fail" });
    }
}

#[test]
fn aggressive_faults_still_complete_all_rounds() {
    let _serial = timing_guard();
    let res = run_chaos(3);
    assert_eq!(res.workflow.rounds.len(), 5, "all rounds must complete");
    for r in &res.workflow.rounds {
        assert!(
            r.contributors.len() >= 3,
            "round {} had only {} contributor(s)",
            r.round,
            r.contributors.len()
        );
        // contributors + dropped partition the expected site set.
        assert_eq!(r.contributors.len() + r.dropped.len(), 8);
    }
    // The aggressive profile crashes sites 6 and 7 (0-based 5 and 6).
    let late_round = res.workflow.rounds.last().unwrap();
    assert!(late_round.dropped.contains(&"site-6".to_string()));
    assert!(late_round.dropped.contains(&"site-7".to_string()));
    // The injected faults and the recovery machinery all left a trace.
    assert!(res.log.contains("injected drop"), "no drop was injected");
    assert!(res.log.contains("Quorum met"), "quorum path never taken");
    assert!(res.log.contains("simulating crash"), "no client crashed");
}

#[test]
fn chaos_runs_reproduce_bit_identically() {
    let _serial = timing_guard();
    let a = run_chaos(7);
    let b = run_chaos(7);

    // Identical fault schedules...
    let mut faults_a = a.log.messages_from("FaultInjector");
    let mut faults_b = b.log.messages_from("FaultInjector");
    assert!(!faults_a.is_empty(), "aggressive plan injected nothing");
    faults_a.sort();
    faults_b.sort();
    assert_eq!(faults_a, faults_b, "fault schedules diverged");

    // ...identical round membership...
    assert_eq!(membership_lines(&a), membership_lines(&b));
    for (ra, rb) in a.workflow.rounds.iter().zip(&b.workflow.rounds) {
        assert_eq!(ra.contributors, rb.contributors);
        assert_eq!(ra.dropped, rb.dropped);
    }

    // ...and bit-identical final weights.
    let wa = &a.workflow.final_weights["p"];
    let wb = &b.workflow.final_weights["p"];
    assert_eq!(wa.data, wb.data, "final weights diverged");
}

/// The observability counters and the event log are two views of the
/// same chaos run; they must agree exactly: every `injected <kind>` log
/// line has a matching `flare.faults.<kind>` increment, and every
/// client "; retry" warning a matching `flare.client.retries` tick.
#[test]
fn fault_log_and_metrics_views_agree() {
    let _serial = timing_guard();
    if !clinfl_obs::enabled() {
        return; // CLINFL_OBS=0: counters stay silent by design.
    }
    let before = clinfl_obs::snapshot();
    let res = run_chaos(3);
    let after = clinfl_obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);

    let injected = res.log.messages_from("FaultInjector");
    let mut total = 0u64;
    for kind in ["drop", "delay", "truncate"] {
        let logged = injected
            .iter()
            .filter(|m| m.contains(&format!("injected {kind}")))
            .count() as u64;
        assert_eq!(
            delta(&format!("flare.faults.{kind}")),
            logged,
            "flare.faults.{kind} counter disagrees with the log"
        );
        total += logged;
    }
    assert!(total > 0, "aggressive plan injected nothing");

    let retries_logged = res
        .log
        .messages_from("FederatedClient")
        .iter()
        .filter(|m| m.contains("; retry"))
        .count() as u64;
    assert_eq!(
        delta("flare.client.retries"),
        retries_logged,
        "flare.client.retries counter disagrees with the log"
    );
}

#[test]
fn different_seeds_inject_different_faults() {
    let _serial = timing_guard();
    let a = run_chaos(1);
    let b = run_chaos(2);
    let mut fa = a.log.messages_from("FaultInjector");
    let mut fb = b.log.messages_from("FaultInjector");
    fa.sort();
    fb.sort();
    assert_ne!(fa, fb, "seeds 1 and 2 produced identical fault schedules");
}

/// Client sampling composes with the chaos machinery: a sampled
/// aggressive-fault run still completes every round via quorum, and each
/// round's contributors + dropped partition exactly the seeded sample —
/// never the full fleet.
#[test]
fn sampled_chaos_run_completes_and_respects_the_sample() {
    let _serial = timing_guard();
    // Fault seed from `scout_sampled_seeds`: with only 6 of 8 sites
    // sampled per round, some fault schedules (e.g. seed 3) starve a
    // round below even a quorum of 2.
    let mut cfg = chaos_config(4);
    // 6 of 8 sites per round; the aggressive profile crashes two sites,
    // so the quorum drops to 2 to keep headroom in the worst round.
    cfg.sag.client_sample_fraction = 0.75;
    cfg.sag.min_clients = 2;
    let res = run_sim(cfg).expect("sampled chaos run completes via quorum");
    assert_eq!(res.workflow.rounds.len(), 5, "all rounds must complete");
    let all: Vec<String> = (1..=8).map(|i| format!("site-{i}")).collect();
    for r in &res.workflow.rounds {
        // run_seed is the simulator seed (99), so the schedule replays.
        let sampled = clinfl_flare::controller::sample_sites(99, r.round, 0.75, &all);
        assert_eq!(sampled.len(), 6, "ceil(0.75 * 8)");
        assert!(r.contributors.len() >= 2, "round {} under quorum", r.round);
        for c in &r.contributors {
            assert!(sampled.contains(c), "unsampled contributor {c}");
        }
        assert_eq!(
            r.contributors.len() + r.dropped.len(),
            sampled.len(),
            "round {} summary must partition the sampled set",
            r.round
        );
    }
    assert!(res.log.contains("Sampled 6/8 site(s)"));
}

/// Sleeps before every training task: a site that is slow but alive.
struct Straggler(ArithmeticExecutor, Duration);

impl Executor for Straggler {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        std::thread::sleep(self.1);
        self.0.train(global, ctx)
    }

    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        self.0.validate(global, ctx)
    }
}

/// The quorum aggregate must not depend on HOW a straggler missed the
/// round: a site that crashes and a site that merely stalls past the
/// deadline must yield the same global model from the reporters.
#[test]
fn quorum_aggregate_independent_of_straggler_mode() {
    let _serial = timing_guard();
    // `None` crashes site-8 through the spec; `Some(d)` makes it sleep `d`
    // in every training task instead.
    let run = |straggle: Option<Duration>| {
        let mut cfg = SimulatorConfig {
            n_clients: 8,
            sag: SagConfig {
                rounds: 3,
                min_clients: 7,
                round_timeout: Duration::from_secs(8),
                validate_global: false,
                quorum_grace: Some(Duration::from_millis(700)),
                ..SagConfig::default()
            },
            seed: 55,
            retry: RetryPolicy {
                max_attempts: 2,
                ..quiet_retry()
            },
            ..SimulatorConfig::default()
        };
        if straggle.is_none() {
            cfg.apply("faults", "crash:7@0").unwrap();
        }
        env_tree(&mut cfg);
        let res = SimulatorRunner::new(cfg.clone())
            .run_simple(
                initial(),
                |i, _| {
                    let ex = ArithmeticExecutor {
                        delta: (i as f32 + 1.0) * 0.25,
                        n_examples: 10,
                    };
                    match straggle {
                        Some(d) if i == 7 => Box::new(Straggler(ex, d)) as Box<dyn Executor>,
                        _ => Box::new(ex),
                    }
                },
                &WeightedFedAvg,
            )
            .expect("quorum run completes");
        assert_topology(&cfg, &res.log);
        res
    };

    // Run A: site-8 crashes before round 0. Run B: site-8 straggles far
    // past the grace window every round. The straggler sleeps while it
    // holds a compute permit, so run B needs a second permit for the
    // reporters to train meanwhile; the budget never changes results.
    let crashed = run(None);
    let budget = pool::num_threads();
    pool::set_threads(budget.max(2));
    let straggling = run(Some(Duration::from_secs(2)));
    pool::set_threads(budget);

    let contributors: Vec<String> = (1..=7).map(|i| format!("site-{i}")).collect();
    for res in [&crashed, &straggling] {
        assert_eq!(res.workflow.rounds.len(), 3);
        for r in &res.workflow.rounds {
            assert_eq!(r.contributors, contributors, "round {}", r.round);
            assert_eq!(r.dropped, vec!["site-8".to_string()]);
        }
    }
    assert_eq!(
        crashed.workflow.final_weights["p"].data, straggling.workflow.final_weights["p"].data,
        "aggregate depended on how the straggler failed"
    );
}

mod liveness {
    use super::*;
    use clinfl_flare::client::FlClient;
    use clinfl_flare::controller::ClientGateway;
    use clinfl_flare::provision::Project;
    use clinfl_flare::server::FlServer;
    use clinfl_flare::transport::in_proc_pair;
    use clinfl_flare::EventLog;
    use std::time::Instant;

    #[test]
    fn heartbeats_reach_the_server() {
        let log = EventLog::new();
        let project = Project::with_n_sites("simulator_server", 1, 5);
        let provisioned = project.provision();
        let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 5);
        let (server_side, client_side) = in_proc_pair();
        server.serve_connection(server_side);
        let mut client =
            FlClient::register(client_side, &provisioned.sites[0], 0xBEEF, log.clone())
                .expect("registration");
        assert_eq!(server.wait_for_clients(1, Duration::from_secs(5)), 1);
        assert_eq!(server.leaf_sites(), vec!["site-1".to_string()]);

        client.heartbeat().expect("heartbeat send");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !log.contains("site-1: heartbeat received") {
            assert!(
                Instant::now() < deadline,
                "heartbeat never reached the server"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        server.shutdown();
        server.disconnect_all();
        assert!(server.leaf_sites().is_empty());
        let goodbyes = log
            .messages_from("ClientManager")
            .iter()
            .filter(|m| *m == "site-1 disconnected.")
            .count();
        assert_eq!(goodbyes, 1, "the released slot logs its disconnect once");
    }

    /// A registered client whose link the server has closed, recording
    /// into a registry of its own (isolated from every other test running
    /// in the process), with the log both sides write to.
    fn client_on_a_closed_link() -> (FlClient, clinfl_obs::Registry, EventLog) {
        let log = EventLog::new();
        let project = Project::with_n_sites("simulator_server", 1, 5);
        let provisioned = project.provision();
        let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 5);
        let (server_side, client_side) = in_proc_pair();
        server.serve_connection(server_side);
        let mut client =
            FlClient::register(client_side, &provisioned.sites[0], 0xBEEF, log.clone())
                .expect("registration");
        let obs = clinfl_obs::Registry::new();
        client.set_registry(obs.clone());
        server.shutdown();
        server.disconnect_all();
        (client, obs, log)
    }

    /// Best-effort sends (codec announce, duplicate submits, heartbeats)
    /// used to swallow their errors silently; they must now tick the
    /// `flare.client.send_errors` counter and warn exactly once per site.
    #[test]
    fn failed_best_effort_sends_are_counted_and_warned_once() {
        let _serial = timing_guard();
        let (mut client, obs, log) = client_on_a_closed_link();
        // One attempt per send: no retry backoff on the dead link.
        client.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        client.negotiate_codec();
        client.negotiate_codec();

        if clinfl_obs::enabled() {
            let errors = obs.snapshot().counter("flare.client.send_errors");
            assert!(errors >= 2, "expected >= 2 send errors, saw {errors}");
        }
        let warnings = log
            .messages_from("FederatedClient")
            .iter()
            .filter(|m| m.contains("best-effort"))
            .count();
        assert_eq!(warnings, 1, "send-error warning must fire exactly once");
    }

    /// After `Finish` the server may close the link before the goodbye
    /// goes out; that goodbye failing is the expected outcome, so it is
    /// neither a send error nor a warning, and same-seed runs log alike.
    #[test]
    fn goodbye_on_a_closed_link_is_not_a_send_error() {
        let _serial = timing_guard();
        let (mut client, obs, log) = client_on_a_closed_link();
        assert!(client.heartbeat().is_err(), "the link is still open");
        client.send_bye();
        client.send_bye();
        assert_eq!(obs.snapshot().counter("flare.client.send_errors"), 0);
        let warnings = log.messages_from("FederatedClient");
        assert!(
            warnings.iter().all(|m| !m.contains("best-effort")),
            "goodbye warned: {warnings:?}"
        );
    }
}

mod driver {
    use super::{assert_topology, env_tree, timing_guard};
    use clinfl::{drivers, ModelSpec, PipelineConfig};
    use clinfl_flare::faults::FaultConfig;
    use std::time::Duration;

    fn test_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::fast_demo();
        cfg.cohort.n_patients = 480;
        cfg.cohort.seed = 77;
        cfg.federation.sag.rounds = 3;
        cfg.local_epochs = 1;
        cfg.epochs = 3;
        cfg.federation.seed = 42;
        env_tree(&mut cfg.federation);
        cfg
    }

    /// End-to-end: the clinical FL pipeline under aggressive faults still
    /// converges to the neighbourhood of the clean run.
    #[test]
    fn faulty_pipeline_tracks_clean_pipeline() {
        let _serial = timing_guard();
        let clean =
            drivers::train_federated(&test_cfg(), ModelSpec::Lstm).expect("clean federation runs");

        let mut cfg = test_cfg();
        cfg.federation.faults = FaultConfig::aggressive(4242);
        cfg.federation.sag.min_clients = 3;
        cfg.federation.sag.round_timeout = Duration::from_secs(120);
        cfg.federation.sag.quorum_grace = Some(Duration::from_secs(8));
        cfg.federation.retry.message_timeout = Duration::from_secs(60);
        cfg.federation.retry.submit_copies = 2;
        let faulty =
            drivers::train_federated(&cfg, ModelSpec::Lstm).expect("faulty federation runs");

        println!(
            "clean accuracy {:.4}, faulty accuracy {:.4}",
            clean.accuracy, faulty.accuracy
        );
        assert!(clean.accuracy > 0.55, "clean accuracy {}", clean.accuracy);
        assert!(
            faulty.accuracy > 0.45,
            "faulty accuracy {}",
            faulty.accuracy
        );
        assert!(
            (clean.accuracy - faulty.accuracy).abs() < 0.3,
            "clean {:.3} vs faulty {:.3}",
            clean.accuracy,
            faulty.accuracy
        );
        let log = faulty.log.expect("federated runs carry a log");
        assert_topology(&cfg.federation, &log);
        assert!(log.contains("FaultInjector"), "no faults were injected");
        assert_eq!(faulty.history.len(), 3, "faulty run must finish 3 rounds");
    }
}
