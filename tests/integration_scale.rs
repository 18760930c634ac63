//! Fleet-scale integration for the event-driven server: a mid-round kill
//! with hundreds of live sessions must release every session promptly
//! (the reactor owns all inbound state — nothing leaks with it gone),
//! `shutdown()` must be idempotent, and a deep aggregation tree must compute
//! the same model as the flat fleet when the arithmetic is exact.

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::FlClient;
use clinfl_flare::controller::{ClientGateway, SagConfig};
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::messages::TaskAssignment;
use clinfl_flare::provision::Project;
use clinfl_flare::server::FlServer;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{EventLog, FlareError, WeightTensor, Weights};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const N_SITES: usize = 256;

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
    w
}

/// 256 clients register and receive a round-0 task; the server is then
/// killed mid-round (no submission ever arrives). Every client must
/// observe the disconnect within a tight deadline — no session may stay
/// wedged waiting for a round that will never close — and a repeated
/// `shutdown()` must be a no-op.
#[test]
fn mid_round_shutdown_releases_every_session() {
    let log = EventLog::new();
    let prov = Project::with_n_sites("simulator_server", N_SITES, 99).provision();
    let mut server = FlServer::new(prov.server.clone(), log.clone(), 99);

    let got_task = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel::<Result<Duration, String>>();
    let mut threads = Vec::with_capacity(N_SITES);
    for pkg in prov.sites.clone() {
        let conn = server.serve_session();
        let clog = log.clone();
        let got = Arc::clone(&got_task);
        let done = done_tx.clone();
        threads.push(std::thread::spawn(move || {
            let run = || -> Result<Duration, String> {
                let mut client = FlClient::register(conn, &pkg, 0xA11CE, clog)
                    .map_err(|e| format!("register: {e}"))?;
                match client.next_task() {
                    Ok(TaskAssignment::Train { round: 0, .. }) => {}
                    other => return Err(format!("expected round-0 train, got {other:?}")),
                }
                got.fetch_add(1, Ordering::SeqCst);
                // Never submit: block in the next receive until the
                // server dies under us, and report how long that took.
                let waiting = Instant::now();
                match client.next_task() {
                    Err(FlareError::Transport(_)) => Ok(waiting.elapsed()),
                    other => Err(format!("expected disconnect, got {other:?}")),
                }
            };
            let _ = done.send(run());
        }));
    }
    drop(done_tx);

    assert_eq!(
        server.wait_for_clients(N_SITES, Duration::from_secs(60)),
        N_SITES
    );
    assert_eq!(server.open_sessions(), N_SITES);
    assert_eq!(server.peak_sessions(), N_SITES);

    let delivered = server.broadcast(&TaskAssignment::Train {
        round: 0,
        total_rounds: 3,
        weights: initial(),
    });
    assert_eq!(delivered, N_SITES);
    // Wait until every client holds the task and is back in its receive
    // loop — the kill must land mid-round, not mid-handshake.
    let deadline = Instant::now() + Duration::from_secs(30);
    while got_task.load(Ordering::SeqCst) < N_SITES {
        assert!(Instant::now() < deadline, "clients never received round 0");
        std::thread::sleep(Duration::from_millis(5));
    }

    let stopping = Instant::now();
    server.shutdown();
    server.shutdown(); // idempotent: second call must return immediately
    server.disconnect_all();
    let stop_took = stopping.elapsed();
    assert!(
        stop_took < Duration::from_secs(5),
        "stop+disconnect took {stop_took:?} with {N_SITES} live sessions"
    );

    for _ in 0..N_SITES {
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a client never observed the shutdown");
        let released = outcome.expect("client failed before shutdown");
        assert!(
            released < Duration::from_secs(10),
            "session release took {released:?}"
        );
    }
    for t in threads {
        t.join().expect("client thread panicked");
    }
}

/// `shutdown()` on a server that never served a session (and after a
/// prior shutdown) must not hang or panic.
#[test]
fn stop_is_safe_without_sessions() {
    let log = EventLog::new();
    let prov = Project::with_n_sites("simulator_server", 1, 5).provision();
    let mut server = FlServer::new(prov.server, log, 5);
    server.shutdown();
    server.shutdown();
    server.disconnect_all();
    assert_eq!(server.open_sessions(), 0);
}

/// Runs `n` sites through the simulator (flat when `tree` is `None`)
/// with integer deltas and equal example counts, so weighted FedAvg is
/// exact in `f32` at every interior node when shard sizes are powers of
/// two — any flat-vs-tree divergence is a real aggregation-order bug,
/// not float noise.
fn run_sites(n: usize, tree: Option<TreeConfig>) -> clinfl_flare::simulator::SimulationResult {
    let config = SimulatorConfig {
        n_clients: n,
        sag: SagConfig {
            rounds: 3,
            min_clients: 1,
            round_timeout: Duration::from_secs(120),
            validate_global: false,
            ..SagConfig::default()
        },
        seed: 41,
        tree,
        ..SimulatorConfig::default()
    };
    SimulatorRunner::new(config)
        .run_simple(
            initial(),
            |i, _| {
                Box::new(ArithmeticExecutor {
                    delta: (i % 7 + 1) as f32,
                    n_examples: 1,
                })
            },
            &WeightedFedAvg,
        )
        .expect("run failed")
}

fn assert_tree_matches_flat(
    flat: &clinfl_flare::simulator::SimulationResult,
    tree: &clinfl_flare::simulator::SimulationResult,
) {
    let (f, t) = (
        &flat.workflow.final_weights["p"],
        &tree.workflow.final_weights["p"],
    );
    assert_eq!(f.data, t.data, "tree aggregation diverged from flat");
    assert_eq!(
        flat.workflow.rounds.last().unwrap().contributors,
        tree.workflow.rounds.last().unwrap().contributors,
        "round manifests diverged"
    );
}

/// The paper-scale acceptance case: a depth-2 tree over the 8-site fleet
/// (two shards of four) is bit-identical to the flat run for the same
/// seed.
#[test]
fn tree_depth2_matches_flat_at_8_sites() {
    let flat = run_sites(8, None);
    let tree = run_sites(
        8,
        Some(TreeConfig {
            depth: 2,
            fanout: 4,
        }),
    );
    assert!(
        tree.log.contains("Aggregation tree: depth 2"),
        "tree topology not engaged"
    );
    assert_eq!(tree.client_rounds, vec![3; 8]);
    assert_tree_matches_flat(&flat, &tree);
}

/// The same bit-identity holds three levels deep over 256 sites.
#[test]
fn tree_depth3_matches_flat_at_256_sites() {
    let flat = run_sites(N_SITES, None);
    let tree = run_sites(
        N_SITES,
        Some(TreeConfig {
            depth: 3,
            fanout: 8,
        }),
    );
    assert!(
        tree.log.contains("Aggregation tree: depth 3"),
        "tree topology not engaged"
    );
    assert_eq!(tree.client_rounds, vec![3; N_SITES]);
    assert_tree_matches_flat(&flat, &tree);
}

/// Every registered site logs `site-N disconnected.` exactly once per
/// run, whether its goodbye reached the reactor before teardown or the
/// teardown released its slot first, so same-seed runs log alike.
#[test]
fn every_site_logs_one_disconnect_per_run() {
    for _ in 0..3 {
        let cfg = SimulatorConfig {
            n_clients: 8,
            sag: SagConfig {
                rounds: 2,
                ..SagConfig::default()
            },
            seed: 11,
            ..SimulatorConfig::default()
        };
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |i, _| {
                    Box::new(ArithmeticExecutor {
                        delta: i as f32,
                        n_examples: 1,
                    })
                },
                &WeightedFedAvg,
            )
            .expect("simulation completes");
        let mut gone: Vec<String> = res
            .log
            .messages_from("ClientManager")
            .into_iter()
            .filter(|m| m.ends_with(" disconnected."))
            .collect();
        gone.sort();
        let want: Vec<String> = (1..=8).map(|i| format!("site-{i} disconnected.")).collect();
        assert_eq!(gone, want);
    }
}
