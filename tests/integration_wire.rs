//! Wire-codec integration: negotiated weight compression must not change
//! federation results. Lossless codecs reproduce the all-raw run
//! bit-for-bit, lossy codecs with error feedback stay within
//! quantization tolerance, and chaos runs complete with compression on
//! and still cut the root's sealed bytes at least tenfold. A healthy
//! fleet's downlink takes only the planned frame kinds, and the wire
//! counters stay inside each run's registry.
//!
//! The wire-format spec these runs exercise is DESIGN.md §3g.

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::FlClient;
use clinfl_flare::codec::{encode_weights, CodecSpec};
use clinfl_flare::controller::{ClientGateway, SagConfig};
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::messages::{ServerMessage, TaskAssignment};
use clinfl_flare::provision::{dh_secret, Project};
use clinfl_flare::server::FlServer;
use clinfl_flare::simulator::{SimulationResult, SimulatorConfig, SimulatorRunner};
use clinfl_flare::wire::WireEncode;
use clinfl_flare::{EventLog, WeightTensor, Weights};
use clinfl_obs::Registry;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Fault configs rely on real-time grace windows; timing-sensitive runs
/// take this lock and run alone (same pattern as `integration_faults`).
static TIMING_LOCK: Mutex<()> = Mutex::new(());

fn timing_guard() -> MutexGuard<'static, ()> {
    TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert(
        "embed".into(),
        WeightTensor::new(
            vec![2, 4],
            vec![0.5, -1.25, 3.0, 0.0, -0.75, 2.5, -4.0, 1.0],
        ),
    );
    w.insert(
        "bias".into(),
        WeightTensor::new(vec![3], vec![0.1, -0.2, 0.3]),
    );
    w
}

fn base_config(rounds: u32) -> SimulatorConfig {
    SimulatorConfig {
        n_clients: 4,
        sag: SagConfig {
            rounds,
            ..SagConfig::default()
        },
        seed: 7,
        ..SimulatorConfig::default()
    }
}

fn run_sim(cfg: SimulatorConfig) -> SimulationResult {
    run_from(SimulatorRunner::new(cfg), initial())
}

fn run_from(runner: SimulatorRunner, initial: Weights) -> SimulationResult {
    runner
        .run_simple(
            initial,
            |i, _| {
                Box::new(ArithmeticExecutor {
                    delta: (i as f32 + 1.0) * 0.5,
                    n_examples: 10 * (i as u64 + 1),
                })
            },
            &WeightedFedAvg,
        )
        .expect("simulation completes")
}

fn bits(w: &Weights) -> Vec<(String, Vec<u32>)> {
    w.iter()
        .map(|(n, t)| (n.clone(), t.data.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// A fleet negotiating the lossless `delta` codec produces exactly the
/// bytes-for-bits result of the raw protocol.
#[test]
fn lossless_fleet_matches_all_raw_bitwise() {
    let raw = run_sim(base_config(4));
    let mut cfg = base_config(4);
    cfg.wire = CodecSpec::parse("delta").unwrap();
    let coded = run_sim(cfg);
    assert_eq!(
        bits(&raw.workflow.final_weights),
        bits(&coded.workflow.final_weights),
        "lossless codec changed the federation result"
    );
    assert!(
        coded.log.contains("negotiated wire codec delta"),
        "codec was never negotiated"
    );
}

/// Lossy codecs with client-side error feedback: deferred residuals keep
/// the multi-round drift bounded instead of letting it accumulate. The
/// aggregated per-round update here is 1.5 per coordinate (weighted mean
/// of the four site deltas), so without feedback a top-k run dropping a
/// coordinate half the time would lose ~4.5 over six rounds; with
/// feedback the deficit is at most the last deferred residual — about
/// one round's mass — plus quantization slack.
#[test]
fn error_feedback_keeps_lossy_runs_near_raw() {
    let rounds = 6;
    let raw = run_sim(base_config(rounds));
    for codec in ["delta+int8", "delta+f16", "delta+topk0.5+int8"] {
        let mut cfg = base_config(rounds);
        cfg.wire = CodecSpec::parse(codec).unwrap();
        let lossy = run_sim(cfg);
        for (name, t) in &raw.workflow.final_weights {
            let lt = &lossy.workflow.final_weights[name];
            for (i, (a, b)) in t.data.iter().zip(&lt.data).enumerate() {
                assert!(
                    (a - b).abs() <= 0.02 * a.abs() + 2.0,
                    "{codec}: {name}[{i}] drifted {a} -> {b} after {rounds} rounds"
                );
            }
        }
    }
}

/// Compression composes with the chaos layer: an aggressive-fault run
/// with delta+top-k+int8 negotiated still completes every round, and its
/// root seals at most a tenth of the bytes the same run seals under the
/// raw codec. The model is one 64 Ki-float tensor, so weight payloads,
/// not frame headers, dominate both byte counts.
#[test]
fn codec_chaos_run_completes() {
    let _serial = timing_guard();
    let chaos_run = |codec: &str| {
        let mut cfg = base_config(5);
        cfg.n_clients = 8;
        cfg.sag.min_clients = 3;
        cfg.sag.round_timeout = Duration::from_secs(8);
        cfg.sag.quorum_grace = Some(Duration::from_millis(1500));
        cfg.sag.validate_global = false;
        cfg.faults = FaultConfig::aggressive(3);
        cfg.retry.message_timeout = Duration::from_secs(30);
        cfg.retry.submit_copies = 2;
        cfg.wire = CodecSpec::parse(codec).unwrap();
        let mut model = Weights::new();
        model.insert(
            "w".into(),
            WeightTensor::new(vec![1 << 16], vec![0.25; 1 << 16]),
        );
        let obs = Registry::new();
        let res = run_from(
            SimulatorRunner::new(cfg).with_registry(obs.clone(), "wire-test"),
            model,
        );
        let sealed =
            obs.counter_value("flare.server.bytes_tx") + obs.counter_value("flare.server.bytes_rx");
        (res, sealed)
    };
    // The two runs mostly wait out fault delays, so they share the wall
    // clock.
    let ((res, coded), (_, raw)) = std::thread::scope(|s| {
        let raw = s.spawn(|| chaos_run("raw"));
        let coded = chaos_run("delta+topk0.05+int8");
        (coded, raw.join().expect("raw run"))
    });
    assert_eq!(res.workflow.rounds.len(), 5, "all rounds must complete");
    for r in &res.workflow.rounds {
        assert!(
            r.contributors.len() >= 3,
            "round {} had only {} contributor(s)",
            r.round,
            r.contributors.len()
        );
    }
    assert!(res.log.contains("FaultInjector"), "no faults were injected");

    if !clinfl_obs::enabled() {
        return; // CLINFL_OBS=0: no byte counts to compare.
    }
    assert!(
        coded > 0 && coded * 10 <= raw,
        "root sealed {coded} B with compression vs {raw} B raw \
         ({:.1}x reduction, need >= 10x)",
        raw as f64 / coded.max(1) as f64
    );
}

/// One `delta+int8` run recording into a registry of its own; returns
/// the registry's count of encoded downlink bytes.
fn wire_bytes_tx(n_clients: usize, rounds: u32) -> u64 {
    let mut cfg = base_config(rounds);
    cfg.n_clients = n_clients;
    cfg.wire = CodecSpec::parse("delta+int8").unwrap();
    let obs = Registry::new();
    run_from(
        SimulatorRunner::new(cfg).with_registry(obs.clone(), "wire-test"),
        initial(),
    );
    obs.counter_value("flare.wire.bytes_tx_encoded")
}

/// `flare.wire.*` counters follow the run's registry: two codec runs of
/// different sizes, side by side, each count exactly the encoded bytes
/// they count alone.
#[test]
fn concurrent_codec_runs_count_only_their_own_wire_bytes() {
    if !clinfl_obs::enabled() {
        return; // CLINFL_OBS=0: no byte counts to compare.
    }
    let solo = (wire_bytes_tx(4, 3), wire_bytes_tx(8, 3));
    assert!(solo.0 > 0 && solo.0 != solo.1, "solo counts {solo:?}");
    let side_by_side = std::thread::scope(|s| {
        let big = s.spawn(|| wire_bytes_tx(8, 3));
        (wire_bytes_tx(4, 3), big.join().expect("8-site run"))
    });
    assert_eq!(side_by_side, solo, "concurrent runs mixed their wire bytes");
}

/// The downlink of a healthy flat fleet takes only the planned frame
/// kinds: one self-contained head per site for round 0's Train, then a
/// canonical delta per site for every Validate and an alias per site for
/// every later Train, which republishes the validated global.
#[test]
fn healthy_downlink_sends_only_planned_frame_kinds() {
    if !clinfl_obs::enabled() {
        return; // CLINFL_OBS=0: no frame counts to compare.
    }
    let (sites, rounds) = (8u64, 4u32);
    let mut cfg = base_config(rounds);
    cfg.n_clients = sites as usize;
    cfg.sag.validate_global = true;
    cfg.wire = CodecSpec::parse("delta+topk0.05+int8").unwrap();
    let obs = Registry::new();
    run_from(
        SimulatorRunner::new(cfg).with_registry(obs.clone(), "wire-test"),
        initial(),
    );
    let r = u64::from(rounds);
    let frames: Vec<(String, u64)> = obs
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("flare.wire.codec.") && name.ends_with("_frames"))
        .collect();
    assert_eq!(
        frames,
        vec![
            ("flare.wire.codec.alias_frames".to_string(), sites * (r - 1)),
            ("flare.wire.codec.delta_frames".to_string(), sites * r),
            ("flare.wire.codec.full_frames".to_string(), sites),
        ]
    );
}

/// The server registry counters a scatter moves, in this order.
const SCATTER_COUNTERS: [&str; 6] = [
    "flare.wire.codec.full_frames",
    "flare.wire.codec.delta_frames",
    "flare.wire.codec.alias_frames",
    "flare.wire.bytes_tx_encoded",
    "flare.wire.bytes_tx_raw",
    "flare.server.bytes_tx",
];

/// Runs one scatter and returns how far it moved [`SCATTER_COUNTERS`].
fn scatter_counts(
    obs: &Registry,
    server: &mut FlServer,
    scatter: impl FnOnce(&mut FlServer) -> usize,
) -> [u64; 6] {
    let before = SCATTER_COUNTERS.map(|name| obs.counter_value(name));
    assert_eq!(scatter(server), 2, "both sites are alive");
    let after = SCATTER_COUNTERS.map(|name| obs.counter_value(name));
    std::array::from_fn(|i| after[i] - before[i])
}

/// One server scattering to a mixed fleet, a `delta` site and a `raw`
/// site, seen through the server registry's counters alone. A full
/// broadcast sends the codec site a ring-encoded frame and the raw site
/// the raw one; a site that has acknowledged nothing gets a
/// self-contained head again; a targeted scatter ships raw to both; and
/// `Finish` carries no weights, so it moves no wire-byte count.
#[test]
fn scatter_picks_each_sites_frame_on_a_mixed_fleet() {
    if !clinfl_obs::enabled() {
        return; // CLINFL_OBS=0: no counts to compare.
    }
    const SEED: u64 = 7;
    // A sealed frame is its plaintext plus an 8-byte nonce and 8-byte MAC.
    const SEAL: u64 = 16;
    let provisioned = Project::with_n_sites("scatter", 2, SEED).provision();
    let log = EventLog::new();
    let obs = Registry::new();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), SEED);
    server.set_registry(obs.clone());
    let delta = CodecSpec::parse("delta").unwrap();
    let _clients: Vec<FlClient> = [delta.clone(), CodecSpec::raw()]
        .into_iter()
        .enumerate()
        .map(|(i, codec)| {
            let conn = server.serve_session();
            let package = &provisioned.sites[i];
            let mut client =
                FlClient::register(conn, package, dh_secret(SEED, i as u64), log.clone())
                    .expect("registration");
            client.set_registry(Registry::new());
            client.set_wire_codec(codec);
            client.negotiate_codec();
            client
        })
        .collect();
    assert_eq!(server.wait_for_clients(2, Duration::from_secs(10)), 2);

    let weights = initial();
    let train = TaskAssignment::Train {
        round: 0,
        total_rounds: 2,
        weights: weights.clone(),
    };
    let raw = ServerMessage::Task(train.clone()).to_frame().len() as u64;
    let head = encode_weights(&weights, 1, None, &delta, None).unwrap();
    let full = ServerMessage::Task(TaskAssignment::TrainEnc {
        round: 0,
        total_rounds: 2,
        enc: head,
    })
    .to_frame()
    .len() as u64;
    let one_of_each = [1, 0, 0, full + raw, 2 * raw, full + raw + 2 * SEAL];
    assert_eq!(
        scatter_counts(&obs, &mut server, |s| s.broadcast(&train)),
        one_of_each,
        "a full broadcast: one head for the delta site, raw for the raw site"
    );
    assert_eq!(
        scatter_counts(&obs, &mut server, |s| s.broadcast(&train)),
        one_of_each,
        "no ack yet: the delta site gets a self-contained head again"
    );
    let both = ["site-1".to_string(), "site-2".to_string()];
    assert_eq!(
        scatter_counts(&obs, &mut server, |s| s.send_to(&both, &train)),
        [0, 0, 0, 2 * raw, 2 * raw, 2 * (raw + SEAL)],
        "a targeted scatter ships raw to both sites"
    );
    let finish = ServerMessage::Task(TaskAssignment::Finish).to_frame().len() as u64;
    assert_eq!(
        scatter_counts(&obs, &mut server, |s| s.broadcast(&TaskAssignment::Finish)),
        [0, 0, 0, 0, 0, 2 * (finish + SEAL)],
        "Finish carries no weights"
    );
    server.shutdown();
    server.disconnect_all();
}
