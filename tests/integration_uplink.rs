//! The server's uplink seam. One update goes to an in-process `FlServer`
//! in each of the four ways a client can spell it: `Submit`, lossless
//! `SubmitEnc`, and a one-leaf `SubmitShard` with a raw and with an
//! encoded payload. Its validation answer goes in the matching report
//! spelling: `ValidateReport`, `ValidateReportEnc` or `ValidateShard`.
//! Every way must reach the controller as the same round: bit-identical
//! decoded weights, the same leaf contributors and dropped list, the same
//! global metric, and the same `flare.wire.bytes_rx_{raw,encoded}`
//! increments. Every message is sent twice and counted once.
//!
//! The wire counters live in the process-global registry, so this file
//! holds a single test.

use clinfl_flare::aggregator::Aggregator;
use clinfl_flare::client::{ClientBehavior, FlClient, RetryPolicy};
use clinfl_flare::codec::{weights_bits_equal, CodecSpec, NO_BASE};
use clinfl_flare::controller::{RoundSummary, SagConfig, ScatterAndGather};
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::messages::{ClientMessage, ShardPayload, TaskAssignment};
use clinfl_flare::persistor::InMemoryPersistor;
use clinfl_flare::provision::{dh_secret, Project};
use clinfl_flare::server::FlServer;
use clinfl_flare::wire::WireEncode;
use clinfl_flare::{Dxo, DxoKind, EventLog, FlareError, WeightTensor, Weights};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// How site-1's update and validation report travel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Way {
    Submit,
    SubmitEnc,
    ShardRaw,
    ShardEncoded,
}

/// Site-2 never answers, so each gather closes on the quorum grace.
const GRACE: Duration = Duration::from_millis(200);
const METRIC: f64 = 0.75;
const SEED: u64 = 11;

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert(
        "embed".into(),
        WeightTensor::new(vec![2, 3], vec![0.5, -1.25, 3.0, 0.0, -0.75, 2.5]),
    );
    w.insert("bias".into(), WeightTensor::new(vec![2], vec![0.1, -0.2]));
    w
}

/// What site-1 trains: a fixed function of the global it received.
fn trained(global: &Weights) -> Weights {
    let mut w = global.clone();
    for t in w.values_mut() {
        for (i, v) in t.data.iter_mut().enumerate() {
            *v = *v * 1.5 + 0.1 * i as f32 - 0.3;
        }
    }
    w
}

fn train_metrics() -> BTreeMap<String, f64> {
    BTreeMap::from([("loss".to_string(), 0.25)])
}

struct Fixed;

impl Executor for Fixed {
    fn train(&mut self, global: &Weights, _ctx: &TaskContext) -> Dxo {
        Dxo {
            kind: DxoKind::Weights,
            weights: trained(global),
            metrics: train_metrics(),
            n_examples: 10,
        }
    }

    fn validate(&mut self, _global: &Weights, _ctx: &TaskContext) -> f64 {
        METRIC
    }
}

/// Takes the round's one update as the new global and records which
/// child sent it with what weight.
#[derive(Default)]
struct TakeOne {
    seen: Mutex<Vec<(String, u64)>>,
}

impl Aggregator for TakeOne {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        _reference: &Weights,
    ) -> Result<Weights, FlareError> {
        let mut seen = self.seen.lock().unwrap();
        seen.extend(updates.iter().map(|(s, d)| (s.clone(), d.n_examples)));
        Ok(updates[0].1.weights.clone())
    }

    fn name(&self) -> &'static str {
        "take-one"
    }
}

/// Site-1 speaking as a tree node over itself and site-2: its update is a
/// shard covering site-1, and site-2 is the leaf it lost.
fn relay_one_leaf(client: &mut FlClient) -> Result<(), FlareError> {
    client.negotiate_codec();
    client.announce_leaves(vec!["site-1".into(), "site-2".into()])?;
    loop {
        match client.next_task()? {
            TaskAssignment::Train { round, weights, .. } => client.submit_shard(
                round,
                Dxo::from_weights(trained(&weights), 10),
                vec![("site-1".into(), train_metrics())],
                vec!["site-2".into()],
            )?,
            TaskAssignment::Validate { round, .. } => {
                client.report_validate_shard(round, vec![("site-1".into(), METRIC)])?
            }
            TaskAssignment::Finish => {
                client.send_bye();
                return Ok(());
            }
            t => panic!("unexpected task {t:?}"),
        }
    }
}

struct Outcome {
    weights: Weights,
    seen: Vec<(String, u64)>,
    round: RoundSummary,
    log: EventLog,
    rx_raw: u64,
    rx_encoded: u64,
}

fn rx_counters() -> (u64, u64) {
    (
        clinfl_obs::counter_value("flare.wire.bytes_rx_raw"),
        clinfl_obs::counter_value("flare.wire.bytes_rx_encoded"),
    )
}

/// Runs one round in which site-1 delivers its update `way`, twice.
fn deliver(way: Way) -> Outcome {
    let provisioned = Project::with_n_sites("uplink_seam", 2, SEED).provision();
    let log = EventLog::new();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), SEED);
    server.set_quorum(1, Some(GRACE));
    let mut connect = |i: usize, codec: &str| {
        let conn = server.serve_session();
        let package = &provisioned.sites[i];
        let mut client =
            FlClient::register(conn, package, dh_secret(SEED, i as u64), log.clone()).unwrap();
        client.set_retry_policy(RetryPolicy {
            submit_copies: 2,
            ..RetryPolicy::default()
        });
        client.set_wire_codec(CodecSpec::parse(codec).unwrap());
        client
    };
    let codec = if matches!(way, Way::SubmitEnc | Way::ShardEncoded) {
        "delta"
    } else {
        "raw"
    };
    let mut site1 = connect(0, codec);
    let shard = matches!(way, Way::ShardRaw | Way::ShardEncoded);
    // In the leaf ways site-2 registers and stays silent; in the shard
    // ways it exists only as the shard's dropped leaf.
    let silent = (!shard).then(|| {
        let mut c = connect(1, "raw");
        c.negotiate_codec();
        c
    });
    let handle = std::thread::spawn(move || {
        if shard {
            relay_one_leaf(&mut site1)
        } else {
            site1.run(&mut Fixed, ClientBehavior::default()).map(drop)
        }
    });
    let n_clients = if shard { 1 } else { 2 };
    assert_eq!(
        server.wait_for_clients(n_clients, Duration::from_secs(10)),
        n_clients
    );
    assert_eq!(server.wait_for_leaves(2, Duration::from_secs(10)), 2);
    let (raw0, enc0) = rx_counters();
    let take = TakeOne::default();
    let result = ScatterAndGather::new(
        SagConfig {
            rounds: 1,
            min_clients: 1,
            round_timeout: Duration::from_secs(30),
            validate_global: true,
            ..SagConfig::default()
        },
        log.clone(),
    )
    .run(&mut server, &take, &mut InMemoryPersistor::new(), initial())
    .unwrap();
    handle.join().unwrap().unwrap();
    server.shutdown();
    drop(silent);
    let (raw1, enc1) = rx_counters();
    Outcome {
        weights: result.final_weights,
        seen: take.seen.into_inner().unwrap(),
        round: result.rounds[0].clone(),
        log,
        rx_raw: raw1 - raw0,
        rx_encoded: enc1 - enc0,
    }
}

#[test]
fn every_uplink_spelling_reaches_the_controller_as_the_same_round() {
    clinfl_obs::set_enabled(true);
    let expect = trained(&initial());
    let submit_len = |metrics: BTreeMap<String, f64>| {
        let dxo = Dxo {
            kind: DxoKind::Weights,
            weights: expect.clone(),
            metrics,
            n_examples: 10,
        };
        ClientMessage::Submit { round: 0, dxo }.to_frame().len() as u64
    };
    let shard_len = ClientMessage::SubmitShard {
        round: 0,
        ack: NO_BASE,
        n_examples: 10,
        sites: vec![("site-1".into(), train_metrics())],
        dropped: vec!["site-2".into()],
        payload: ShardPayload::Raw(expect.clone()),
    }
    .to_frame()
    .len() as u64;
    // (way, raw bytes, encoded bytes) of one copy. A raw payload counts its
    // plain frame on both counters; an encoded one counts its plain frame
    // as encoded and the `Submit` frame it stands for as raw. The two
    // encoded sizes are the lossless delta frames of this update.
    let leaf_len = submit_len(train_metrics());
    let ways = [
        (Way::Submit, leaf_len, leaf_len),
        (Way::SubmitEnc, leaf_len, 187),
        (Way::ShardRaw, shard_len, shard_len),
        (Way::ShardEncoded, submit_len(BTreeMap::new()), 232),
    ];
    for (way, raw, encoded) in ways {
        let got = deliver(way);
        assert!(
            weights_bits_equal(&got.weights, &expect),
            "{way:?}: decoded weights differ"
        );
        assert_eq!(got.seen, [("site-1".to_string(), 10)], "{way:?}");
        assert_eq!(got.round.contributors, ["site-1"], "{way:?}");
        assert_eq!(got.round.dropped, ["site-2"], "{way:?}");
        assert_eq!(
            got.round.client_metrics,
            BTreeMap::from([("site-1".to_string(), train_metrics())]),
            "{way:?}"
        );
        assert_eq!(got.round.global_metric, Some(METRIC), "{way:?}");
        assert!(
            got.log.contains("over 1/2 validator(s)"),
            "{way:?}: a duplicate report was counted"
        );
        assert_eq!(
            (got.rx_raw, got.rx_encoded),
            (2 * raw, 2 * encoded),
            "{way:?}: wire counters"
        );
    }
}
