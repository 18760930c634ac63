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
use clinfl_flare::codec::CodecSpec;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::simulator::{SimulationResult, SimulatorConfig, SimulatorRunner};
use clinfl_flare::{WeightTensor, Weights};
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
