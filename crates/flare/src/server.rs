//! The federated server: client management and the gateway the
//! ScatterAndGather controller drives.
//!
//! ONE reactor thread serves the whole fleet (DESIGN.md §3h): every
//! session is a mailbox ([`crate::reactor::FrameQueue`]) that marks its
//! token ready on a shared [`crate::reactor::ReadyQueue`], and the reactor
//! drains ready mailboxes, advancing each session's handshake/established
//! state machine in place. In-process peers attach via
//! [`FlServer::serve_session`] (zero threads per client); socket peers via
//! [`FlServer::serve_connection`], whose thin pump thread copies frames
//! from the socket into the mailbox. Every registration wait blocks on a
//! versioned [`crate::reactor::Signal`].
//!
//! Interior aggregation-tree nodes ([`crate::relay::AggregatorNode`])
//! announce leaves and submit pre-aggregated shards; every submit
//! spelling is decoded into one `Uplink` record, a leaf's own update
//! being a one-leaf shard, and takes one path into the gather. Both
//! scatters take one path out (`FlServer::scatter`).

use crate::codec::{
    count_crc_reject, decode_weights, raw_submit_frame_size, raw_task_frame_size, CodecSpec,
    DownlinkKind, EncodedWeights, GlobalRing, NO_BASE, SUPPORTED_CODECS,
};
use crate::controller::{ClientGateway, ShardMeta};
use crate::dxo::{Dxo, DxoKind, Weights};
use crate::lock;
use crate::log::EventLog;
use crate::messages::{ClientMessage, ServerMessage, ShardPayload, TaskAssignment, TaskMessage};
use crate::provision::ServerConfig;
use crate::reactor::{FrameQueue, QueueRx, QueueTx, ReadyQueue, Signal};
use crate::security::{DhKeyPair, SecureChannel};
use crate::transport::Connection;
use crate::wire::{WireDecode, WireEncode};
use crate::FlareError;
use clinfl_obs::Registry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nonce base for server→client frames (client→server uses 0).
const SERVER_NONCE_BASE: u64 = 1 << 32;

/// Longest single inbox wait inside a gather: the `cancel` probe of
/// [`ClientGateway::gather_submissions`] runs at least this often, so an
/// operator abort or an upstream supersession lands within one slice —
/// and an interior node's uplink probe (a 1 ms receive) stays negligible.
pub const GATHER_SLICE: Duration = Duration::from_millis(50);

/// How long a server waits for its children to register, and then for
/// their leaves to be announced, before it starts without the missing.
pub(crate) const REGISTRATION_TIMEOUT: Duration = Duration::from_secs(30);

struct ClientSlot {
    site: String,
    /// `None` once the server has released the connection (see
    /// [`FlServer::disconnect_all`]).
    tx: Option<Box<dyn crate::transport::FrameTx>>,
    seal: SecureChannel,
    alive: bool,
    /// Wire codec negotiated with this client (`None` = raw peer).
    codec: Option<CodecSpec>,
    /// True once the client has announced its codec choice (including an
    /// explicit `raw`); the pre-round settle in
    /// [`FlServer::wait_for_clients`] waits on it.
    codec_decided: bool,
    /// Most recent downlink payload id this client acknowledged — the
    /// delta base for its next encoded downlink.
    acked: Option<u32>,
    /// The leaf sites below this client: the ones an interior tree node
    /// announced, or just the client's own site.
    leaves: Vec<String>,
}

/// Quorum knobs for the gather phase (see [`FlServer::set_quorum`]).
#[derive(Clone, Copy, Debug)]
struct QuorumPolicy {
    min_clients: usize,
    grace: Option<Duration>,
}

/// Where a session is in its lifecycle; advanced only by the reactor
/// thread.
enum SessionPhase {
    /// Waiting for the plaintext `Register` frame. The send half lives
    /// here until registration moves it into the client slot.
    AwaitRegister {
        tx: Option<Box<dyn crate::transport::FrameTx>>,
        dh_secret: u64,
        session_bits: (u64, u64),
    },
    /// Registered: frames are sealed; `open` decrypts client→server.
    Established {
        slot: usize,
        open: SecureChannel,
        site: String,
    },
    /// Placeholder while the reactor processes a frame with the real
    /// phase taken out of the cell. Observers (socket pumps checking for
    /// closure) must treat this as live — never as `Closed`.
    Busy,
    /// Session over (Bye, rejection, connection loss, or shutdown).
    Closed,
}

/// One session: its inbound mailbox plus lifecycle state.
struct SessionCell {
    rx: Arc<FrameQueue>,
    phase: SessionPhase,
}

/// Decrypted, decoded workflow traffic the reactor forwards to the
/// controller-facing gather loops.
#[derive(Debug)]
enum InboxMsg {
    /// A round-`round` model update from the client `site`, with the
    /// leaves it covers.
    Submit {
        site: String,
        round: u32,
        dxo: Dxo,
        shard: ShardMeta,
    },
    /// Validation metrics — one `(leaf, metric)` pair per leaf below the
    /// client `site` (exactly one for an ordinary leaf client).
    Validate {
        site: String,
        round: u32,
        reports: Vec<(String, f64)>,
    },
}

/// One uplink update as the server's edge decodes it, whichever message
/// spelled it: a leaf's `Submit` or `SubmitEnc` is a one-leaf shard, an
/// interior node's `SubmitShard` names its leaves itself.
struct Uplink {
    round: u32,
    /// Downlink ack, or [`NO_BASE`] (a raw `Submit` carries none).
    ack: u32,
    kind: DxoKind,
    payload: ShardPayload,
    n_examples: u64,
    metrics: BTreeMap<String, f64>,
    shard: ShardMeta,
}

/// State shared between the [`FlServer`] handle, the reactor thread, and
/// any socket pump threads.
struct ServerShared {
    config: ServerConfig,
    log: EventLog,
    slots: Mutex<Vec<ClientSlot>>,
    sessions: Mutex<Vec<SessionCell>>,
    ready: Arc<ReadyQueue>,
    stopping: AtomicBool,
    /// Ring of recent global payloads + canonical per-codec chains.
    /// Session-scoped: a resumed run starts fresh, forcing one
    /// self-contained downlink per client (DESIGN.md §3g).
    ring: Mutex<GlobalRing>,
    /// Bumped on every registration / codec decision / slot death;
    /// [`FlServer::wait_for_clients`] blocks on it.
    reg: Signal,
    /// Metric namespace (`flare.server` by default; interior tree nodes
    /// use `flare.tree` so root and relay traffic stay distinguishable).
    ns: Mutex<String>,
    /// Registry scope this server's metrics record into (the global
    /// scope by default; the job runtime hands each job's server its own
    /// so concurrent jobs cannot contaminate each other's snapshots).
    obs: Mutex<Registry>,
    open_sessions: AtomicUsize,
    peak_sessions: AtomicUsize,
}

impl ServerShared {
    fn metric(&self, suffix: &str) -> String {
        format!("{}.{suffix}", lock(&self.ns))
    }

    fn obs(&self) -> Registry {
        lock(&self.obs).clone()
    }

    fn inc_open(&self) {
        let cur = self.open_sessions.fetch_add(1, Ordering::SeqCst) + 1;
        let peak = self.peak_sessions.fetch_max(cur, Ordering::SeqCst).max(cur);
        self.obs()
            .gauge(&self.metric("sessions_peak"))
            .set_max(peak as i64);
    }

    fn dec_open(&self) {
        self.open_sessions.fetch_sub(1, Ordering::SeqCst);
    }

    fn session_is_closed(&self, token: usize) -> bool {
        matches!(lock(&self.sessions)[token].phase, SessionPhase::Closed)
    }

    /// Handles one inbound frame for `token`. The phase is taken out of
    /// the cell while processing (only the reactor mutates phases), so no
    /// lock is held across slot/ring work.
    fn on_frame(&self, token: usize, frame: &[u8], inbox: &mpsc::Sender<InboxMsg>) {
        let started = clinfl_obs::thread_time_ns();
        let phase = {
            let mut sessions = lock(&self.sessions);
            std::mem::replace(&mut sessions[token].phase, SessionPhase::Busy)
        };
        let next = match phase {
            SessionPhase::Closed | SessionPhase::Busy => SessionPhase::Closed,
            SessionPhase::AwaitRegister {
                tx,
                dh_secret,
                session_bits,
            } => self.on_register(frame, tx, dh_secret, session_bits),
            SessionPhase::Established { slot, open, site } => {
                self.on_established(frame, slot, open, site, inbox)
            }
        };
        let closed = matches!(next, SessionPhase::Closed);
        {
            let mut sessions = lock(&self.sessions);
            sessions[token].phase = next;
            if closed {
                sessions[token].rx.close();
            }
        }
        if closed {
            self.dec_open();
            self.reg.bump();
        }
        // Root-attributable work, in reactor-thread CPU time (wall time
        // would charge the root for scheduler preemption on oversubscribed
        // hosts): with tree aggregation the root handles O(fanout) frames
        // per round instead of O(n), and the scaling bench gates on this.
        self.obs().add_counter(
            &self.metric("frame_work_ns"),
            clinfl_obs::thread_time_ns().saturating_sub(started),
        );
    }

    /// The session's mailbox closed: the peer hung up (or the pump died).
    fn on_session_closed(&self, token: usize) {
        let phase = {
            let mut sessions = lock(&self.sessions);
            std::mem::replace(&mut sessions[token].phase, SessionPhase::Closed)
        };
        let stopping = self.stopping.load(Ordering::Relaxed);
        match phase {
            // Already accounted for (Busy cannot occur here: only the
            // reactor thread reaches this, and it never interleaves).
            SessionPhase::Closed | SessionPhase::Busy => return,
            SessionPhase::AwaitRegister { .. } => {
                if !stopping {
                    self.log.warn(
                        "ClientManager",
                        "connection dropped pre-register: in-proc peer disconnected",
                    );
                }
            }
            SessionPhase::Established { slot, site, .. } => {
                let mut slots = lock(&self.slots);
                if slots[slot].alive {
                    slots[slot].alive = false;
                    if !stopping {
                        self.log.warn(
                            "ClientManager",
                            format!("{site} connection lost: in-proc peer disconnected"),
                        );
                    }
                }
            }
        }
        self.dec_open();
        self.reg.bump();
    }

    /// Plaintext handshake, exactly NVFlare's join flow.
    fn on_register(
        &self,
        frame: &[u8],
        mut tx: Option<Box<dyn crate::transport::FrameTx>>,
        dh_secret: u64,
        session_bits: (u64, u64),
    ) -> SessionPhase {
        let msg = match ClientMessage::from_frame(frame) {
            Ok(m) => m,
            Err(e) => {
                self.log
                    .warn("ClientManager", format!("bad register frame: {e}"));
                return SessionPhase::Closed;
            }
        };
        let ClientMessage::Register {
            site,
            token,
            dh_public,
        } = msg
        else {
            self.log
                .warn("ClientManager", "first frame was not Register");
            return SessionPhase::Closed;
        };
        let accepted = self.config.verify(&site, &token)
            && !lock(&self.slots).iter().any(|s| s.site == site && s.alive);
        let keys = DhKeyPair::from_secret(dh_secret);
        // UUID-shaped session token, as in the paper's Fig. 3 log.
        let (hi, lo) = session_bits;
        let session_str = format!(
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (hi >> 32) as u32,
            (hi >> 16) & 0xffff,
            hi & 0xffff,
            (lo >> 48) & 0xffff,
            lo & 0xffff_ffff_ffff
        );
        let ack = ServerMessage::RegisterAck {
            accepted,
            session: session_str.clone(),
            dh_public: keys.public,
        };
        let sent = tx
            .as_mut()
            .map(|t| t.send(&ack.to_frame()).is_ok())
            .unwrap_or(false);
        if !sent || !accepted {
            if !accepted {
                self.log.warn(
                    "ClientManager",
                    format!("Client {site} rejected: invalid token or duplicate"),
                );
            }
            return SessionPhase::Closed;
        }
        let key = keys.shared_key(dh_public);
        let slot_idx = {
            let mut guard = lock(&self.slots);
            guard.push(ClientSlot {
                site: site.clone(),
                tx,
                seal: SecureChannel::new(key, SERVER_NONCE_BASE),
                alive: true,
                codec: None,
                codec_decided: false,
                acked: None,
                leaves: vec![site.clone()],
            });
            guard.len() - 1
        };
        self.log.info(
            "ClientManager",
            format!(
                "Client: New client {site}@127.0.0.1 joined. Sent token: {session_str}. Total clients: {}",
                slot_idx + 1
            ),
        );
        self.log.info(
            "FederatedClient",
            format!(
                "Successfully registered client:{site} for project {}. Token:{session_str}",
                self.config.project
            ),
        );
        self.reg.bump();
        SessionPhase::Established {
            slot: slot_idx,
            open: SecureChannel::new(key, 0),
            site,
        }
    }

    /// One sealed frame on an established session: decrypt and dispatch.
    fn on_established(
        &self,
        frame: &[u8],
        slot_idx: usize,
        open: SecureChannel,
        site: String,
        inbox: &mpsc::Sender<InboxMsg>,
    ) -> SessionPhase {
        self.obs()
            .add_counter(&self.metric("bytes_rx"), frame.len() as u64);
        let plain = match open.open(frame) {
            Ok(p) => p,
            Err(e) => {
                self.log
                    .warn("ClientManager", format!("{site}: rejected frame: {e}"));
                return SessionPhase::Established {
                    slot: slot_idx,
                    open,
                    site,
                };
            }
        };
        match ClientMessage::from_frame(&plain) {
            Ok(ClientMessage::Bye { .. }) => {
                // Only the flip logs: `disconnect_all` logs the slots
                // whose goodbye never got here, so each slot logs once.
                if std::mem::replace(&mut lock(&self.slots)[slot_idx].alive, false) {
                    self.log
                        .info("ClientManager", format!("{site} disconnected."));
                }
                self.reg.bump();
                return SessionPhase::Closed;
            }
            Ok(ClientMessage::Heartbeat { .. }) => {
                // Logged only; not workflow traffic.
                self.log
                    .info("ClientManager", format!("{site}: heartbeat received"));
            }
            Ok(ClientMessage::CodecPropose { specs, .. }) => {
                let chosen = specs.iter().find_map(|s| CodecSpec::parse(s).ok());
                let reply = ServerMessage::CodecAck {
                    chosen: chosen.as_ref().map(|c| c.to_string()),
                    supported: SUPPORTED_CODECS.iter().map(|s| (*s).to_string()).collect(),
                };
                {
                    let mut guard = lock(&self.slots);
                    let slot = &mut guard[slot_idx];
                    slot.codec = chosen.filter(|c| !c.is_raw());
                    slot.codec_decided = true;
                    if let Some(c) = &slot.codec {
                        self.log.info(
                            "ClientManager",
                            format!("{site}: negotiated wire codec {c}"),
                        );
                    }
                    FlServer::send_frame_to_slot(
                        slot,
                        &reply.to_frame(),
                        &self.log,
                        &self.obs(),
                        &self.metric("bytes_tx"),
                    );
                }
                self.reg.bump();
            }
            Ok(ClientMessage::Submit { round, dxo }) => {
                let up = Uplink {
                    round,
                    ack: NO_BASE,
                    kind: dxo.kind,
                    shard: ShardMeta::leaf(&site, &dxo.metrics),
                    payload: ShardPayload::Raw(dxo.weights),
                    n_examples: dxo.n_examples,
                    metrics: dxo.metrics,
                };
                self.accept_update(slot_idx, &site, plain.len(), up, inbox);
            }
            Ok(ClientMessage::SubmitEnc {
                round,
                ack,
                n_examples,
                metrics,
                enc,
            }) => {
                let up = Uplink {
                    round,
                    ack,
                    kind: DxoKind::Weights,
                    shard: ShardMeta::leaf(&site, &metrics),
                    payload: ShardPayload::Encoded(enc),
                    n_examples,
                    metrics,
                };
                self.accept_update(slot_idx, &site, plain.len(), up, inbox);
            }
            Ok(ClientMessage::SubmitShard {
                round,
                ack,
                n_examples,
                sites,
                dropped,
                payload,
            }) => {
                let up = Uplink {
                    round,
                    ack,
                    kind: DxoKind::Weights,
                    shard: ShardMeta { sites, dropped },
                    payload,
                    n_examples,
                    metrics: BTreeMap::new(),
                };
                self.accept_update(slot_idx, &site, plain.len(), up, inbox);
            }
            Ok(ClientMessage::ValidateReport { round, metric }) => {
                let reports = vec![(site.clone(), metric)];
                self.accept_reports(slot_idx, &site, round, NO_BASE, reports, inbox);
            }
            Ok(ClientMessage::ValidateReportEnc { round, metric, ack }) => {
                let reports = vec![(site.clone(), metric)];
                self.accept_reports(slot_idx, &site, round, ack, reports, inbox);
            }
            Ok(ClientMessage::ValidateShard {
                round,
                ack,
                reports,
            }) => self.accept_reports(slot_idx, &site, round, ack, reports, inbox),
            Ok(ClientMessage::AnnounceLeaves { sites }) => {
                self.log.info(
                    "ClientManager",
                    format!(
                        "{site}: aggregator node covering {} leaf site(s)",
                        sites.len()
                    ),
                );
                lock(&self.slots)[slot_idx].leaves = sites;
                self.reg.bump();
            }
            Ok(msg) => {
                self.log.warn(
                    "ClientManager",
                    format!("{site}: unexpected message: {msg:?}"),
                );
            }
            Err(e) => {
                count_crc_reject(&self.obs(), &e);
                self.log
                    .warn("ClientManager", format!("{site}: bad message: {e}"));
            }
        }
        SessionPhase::Established {
            slot: slot_idx,
            open,
            site,
        }
    }

    /// Records the downlink payload `slot` acknowledged: the delta base of
    /// its next encoded downlink.
    fn note_ack(&self, slot: usize, ack: u32) {
        if ack != NO_BASE {
            lock(&self.slots)[slot].acked = Some(ack);
        }
    }

    /// The one update routine: records the ack, decodes the payload,
    /// counts its wire bytes and hands the update to the gather. A raw
    /// payload's raw and encoded bytes are its frame by definition; an
    /// encoded one stands for the raw `Submit` frame of what it decodes to.
    fn accept_update(
        &self,
        slot: usize,
        site: &str,
        plain_len: usize,
        up: Uplink,
        inbox: &mpsc::Sender<InboxMsg>,
    ) {
        self.note_ack(slot, up.ack);
        let obs = self.obs();
        let plain_len = plain_len as u64;
        let (weights, raw_len) = match up.payload {
            ShardPayload::Raw(w) => (w, plain_len),
            ShardPayload::Encoded(enc) => match self.decode_uplink(slot, &enc) {
                Ok(w) => {
                    let raw_len = raw_submit_frame_size(&w, &up.metrics);
                    (w, raw_len)
                }
                Err(e) => {
                    obs.add_counter("flare.wire.codec.decode_errors", 1);
                    self.log.warn(
                        "ClientManager",
                        format!(
                            "{site}: dropping undecodable round-{} update: {e}",
                            up.round
                        ),
                    );
                    return;
                }
            },
        };
        obs.add_counter("flare.wire.bytes_rx_encoded", plain_len);
        obs.add_counter("flare.wire.bytes_rx_raw", raw_len);
        let dxo = Dxo {
            kind: up.kind,
            weights,
            metrics: up.metrics,
            n_examples: up.n_examples,
        };
        let _ = inbox.send(InboxMsg::Submit {
            site: site.to_string(),
            round: up.round,
            dxo,
            shard: up.shard,
        });
    }

    /// The one report routine: records the ack and hands the `(leaf,
    /// metric)` reports to the gather (a leaf's report is a one-leaf
    /// `ValidateShard`).
    fn accept_reports(
        &self,
        slot: usize,
        site: &str,
        round: u32,
        ack: u32,
        reports: Vec<(String, f64)>,
        inbox: &mpsc::Sender<InboxMsg>,
    ) {
        self.note_ack(slot, ack);
        let _ = inbox.send(InboxMsg::Validate {
            site: site.to_string(),
            round,
            reports,
        });
    }

    /// Reconstructs `slot`'s encoded uplink weights against the ring.
    fn decode_uplink(&self, slot: usize, enc: &EncodedWeights) -> Result<Weights, FlareError> {
        let spec = lock(&self.slots)[slot].codec.clone();
        let ring = lock(&self.ring);
        let base = match enc.base_id {
            NO_BASE => None,
            id => Some(spec.and_then(|sp| ring.recon(&sp, id)).ok_or_else(|| {
                self.obs().add_counter("flare.wire.codec.base_misses", 1);
                FlareError::Codec(format!("uplink base payload {id} unknown"))
            })?),
        };
        decode_weights(enc, base)
    }
}

/// Drains ready sessions until the queue closes. The whole server's
/// inbound path runs on this one thread.
fn run_reactor(shared: Arc<ServerShared>, inbox: mpsc::Sender<InboxMsg>) {
    while let Some(token) = shared.ready.pop() {
        let rx = {
            let sessions = lock(&shared.sessions);
            match sessions.get(token) {
                Some(cell) if !matches!(cell.phase, SessionPhase::Closed) => Arc::clone(&cell.rx),
                _ => continue,
            }
        };
        loop {
            match rx.try_pop() {
                Ok(Some(frame)) => shared.on_frame(token, &frame, &inbox),
                Ok(None) => break,
                Err(_) => {
                    shared.on_session_closed(token);
                    break;
                }
            }
        }
    }
}

/// The federated-learning server (NVFlare's `ServerRunner`/`ClientManager`
/// pair): accepts registrations, maintains encrypted sessions, and exposes
/// the [`ClientGateway`] interface to the workflow controller.
pub struct FlServer {
    shared: Arc<ServerShared>,
    inbox_rx: mpsc::Receiver<InboxMsg>,
    reactor: Option<JoinHandle<()>>,
    pump_threads: Vec<JoinHandle<()>>,
    rng: StdRng,
    quorum: QuorumPolicy,
}

impl std::fmt::Debug for FlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlServer")
            .field("project", &self.shared.config.project)
            .field("clients", &lock(&self.shared.slots).len())
            .finish_non_exhaustive()
    }
}

impl FlServer {
    /// Creates a server for a provisioned project and starts its reactor
    /// thread.
    pub fn new(config: ServerConfig, log: EventLog, seed: u64) -> Self {
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let shared = Arc::new(ServerShared {
            config,
            log,
            slots: Mutex::new(Vec::new()),
            sessions: Mutex::new(Vec::new()),
            ready: Arc::new(ReadyQueue::default()),
            stopping: AtomicBool::new(false),
            ring: Mutex::new(GlobalRing::default()),
            reg: Signal::default(),
            ns: Mutex::new("flare.server".to_string()),
            obs: Mutex::new(Registry::global()),
            open_sessions: AtomicUsize::new(0),
            peak_sessions: AtomicUsize::new(0),
        });
        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::spawn(move || run_reactor(reactor_shared, inbox_tx));
        FlServer {
            shared,
            inbox_rx,
            reactor: Some(reactor),
            pump_threads: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            quorum: QuorumPolicy {
                min_clients: usize::MAX,
                grace: None,
            },
        }
    }

    /// Does nothing: the server always answers codec proposals. Kept
    /// only because the `bench/` harness still calls it with `true`; it
    /// goes once the harness is ported off it.
    pub fn set_wire_codecs_enabled(&mut self, _enabled: bool) {}

    /// Routes this server's byte/session metrics under `ns` instead of
    /// the default `flare.server` (interior tree nodes use `flare.tree`
    /// so root and relay traffic stay distinguishable in snapshots).
    pub fn set_metric_namespace(&mut self, ns: &str) {
        *lock(&self.shared.ns) = ns.to_string();
    }

    /// Records this server's metrics into `obs` instead of the global
    /// registry. The job runtime hands each job's server its own scope so
    /// concurrent jobs never contaminate each other's snapshots; call
    /// before any client traffic, or early counts land in the old scope.
    pub fn set_registry(&mut self, obs: Registry) {
        *lock(&self.shared.obs) = obs;
    }

    /// Highest number of simultaneously open sessions this server has
    /// seen (registered or still in handshake).
    pub fn peak_sessions(&self) -> usize {
        self.shared.peak_sessions.load(Ordering::SeqCst)
    }

    /// Number of sessions currently open (not yet closed).
    pub fn open_sessions(&self) -> usize {
        self.shared.open_sessions.load(Ordering::SeqCst)
    }

    /// Configures the gather-phase quorum: once at least `min_clients`
    /// submissions have arrived for a round and no further submission has
    /// been accepted for `grace`, the round closes early instead of
    /// waiting out the full round timeout. `grace: None` keeps the
    /// original wait-for-all behavior. With tree aggregation the count is
    /// leaf-granular (a shard covering 4 leaves counts as 4).
    pub fn set_quorum(&mut self, min_clients: usize, grace: Option<Duration>) {
        self.quorum = QuorumPolicy {
            min_clients: min_clients.max(1),
            grace,
        };
    }

    /// Adds a session awaiting registration whose replies go out through
    /// `tx`; returns its inbound mailbox and token.
    fn open_session(&mut self, tx: Box<dyn crate::transport::FrameTx>) -> (Arc<FrameQueue>, usize) {
        let dh_secret: u64 = self.rng.random();
        let session_bits: (u64, u64) = (self.rng.random(), self.rng.random());
        let mut sessions = lock(&self.shared.sessions);
        let token = sessions.len();
        let c2s = FrameQueue::notifying(Arc::clone(&self.shared.ready), token);
        sessions.push(SessionCell {
            rx: Arc::clone(&c2s),
            phase: SessionPhase::AwaitRegister {
                tx: Some(tx),
                dh_secret,
                session_bits,
            },
        });
        drop(sessions);
        self.shared.inc_open();
        (c2s, token)
    }

    /// Opens a reactor-native in-process session and returns the client's
    /// end. No thread is spawned: the session's mailbox notifies the
    /// reactor directly, which is what lets the simulator stand up 1024+
    /// sites without 1024 server-side handler threads.
    pub fn serve_session(&mut self) -> Connection {
        let s2c = FrameQueue::new();
        let (c2s, _) = self.open_session(Box::new(QueueTx(Arc::clone(&s2c))));
        Connection {
            tx: Box::new(QueueTx(c2s)),
            rx: Box::new(QueueRx(s2c)),
        }
    }

    /// Accepts an externally transported connection (TCP, fault-wrapped,
    /// …): a thin pump thread copies inbound frames into the session
    /// mailbox; all protocol handling still happens on the reactor.
    pub fn serve_connection(&mut self, conn: Connection) {
        let Connection { tx, mut rx } = conn;
        let (c2s, token) = self.open_session(tx);
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::spawn(move || loop {
            // Receive in short slices so the pump notices server shutdown
            // (and its own session's closure) promptly even while a quiet
            // client stays connected.
            if shared.stopping.load(Ordering::Relaxed) || shared.session_is_closed(token) {
                c2s.close();
                return;
            }
            match rx.recv(Duration::from_millis(200)) {
                Ok(frame) => {
                    if c2s.push(frame).is_err() {
                        return;
                    }
                }
                Err(FlareError::Timeout) => continue,
                Err(_) => {
                    c2s.close();
                    return;
                }
            }
        });
        self.pump_threads.push(handle);
    }

    /// The one registration wait: re-reads the slot table on every
    /// registration [`Signal`] bump. `pending` returns the instant to
    /// wait until while the wait is unmet, or `None` once it is met; the
    /// wait also ends when that instant passes.
    fn wait_on_slots(&self, pending: impl Fn(&[ClientSlot]) -> Option<Instant>) {
        loop {
            let since = self.shared.reg.version();
            let Some(limit) = pending(&lock(&self.shared.slots)) else {
                return;
            };
            if Instant::now() >= limit {
                return;
            }
            self.shared.reg.wait_past(since, limit);
        }
    }

    /// Blocks until `n` clients have registered or `timeout` passes.
    /// Returns the registered count.
    ///
    /// A short settle window follows: codec proposals ride a separate
    /// message right after registration, so broadcasting immediately
    /// would race them and ship full-f32 frames to clients that were
    /// about to negotiate. The settle waits up to 150 ms for every
    /// registered client to announce a codec choice — extended to 1 s
    /// once at least one announcement has arrived (the rest may have
    /// been lost to link faults).
    pub fn wait_for_clients(&self, n: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        self.wait_on_slots(|slots| (slots.len() < n).then_some(deadline));
        let settle = Instant::now() + Duration::from_millis(150);
        let grace = Instant::now() + Duration::from_secs(1);
        self.wait_on_slots(|slots| {
            let decided = slots.iter().filter(|s| s.codec_decided).count();
            (decided < slots.len()).then_some(if decided > 0 { grace } else { settle })
        });
        lock(&self.shared.slots).len()
    }

    /// Blocks until the registered clients cover at least `n` leaf sites
    /// or `timeout` passes; returns the covered leaf count. With tree
    /// aggregation, registration of an interior node and its
    /// [`ClientMessage::AnnounceLeaves`] ride separate frames, so a root
    /// that only waited for registrations could start a round before it
    /// knows the true leaf population.
    pub fn wait_for_leaves(&self, n: usize, timeout: Duration) -> usize {
        let covered = |slots: &[ClientSlot]| -> usize {
            slots
                .iter()
                .filter(|s| s.alive)
                .map(|s| s.leaves.len())
                .sum()
        };
        let deadline = Instant::now() + timeout;
        self.wait_on_slots(|slots| (covered(slots) < n).then_some(deadline));
        covered(&lock(&self.shared.slots))
    }

    /// Stops the reactor and pump threads and waits for them. Idempotent;
    /// safe to call while clients are still connected (their sessions are
    /// abandoned server-side).
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        self.shared.ready.close();
        self.shared.reg.bump();
        for h in self.pump_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Releases every client connection's sending half, marks the slots
    /// dead, and closes every session mailbox. For in-process transports
    /// this closes both channel directions, so a client blocked in `recv`
    /// wakes with a disconnect instead of waiting out its full timeout —
    /// the simulator calls this after [`FlServer::shutdown`] so a
    /// fault-dropped `Finish` frame cannot strand its client. Each slot
    /// still alive logs `<site> disconnected.` here, the line its `Bye`
    /// would have logged had it reached the reactor first. Slots stay in
    /// the table, so indices are stable.
    pub fn disconnect_all(&mut self) {
        for slot in lock(&self.shared.slots).iter_mut() {
            slot.tx = None;
            if std::mem::replace(&mut slot.alive, false) {
                self.shared
                    .log
                    .info("ClientManager", format!("{} disconnected.", slot.site));
            }
        }
        for cell in lock(&self.shared.sessions).iter_mut() {
            cell.rx.close();
            if let SessionPhase::AwaitRegister { tx, .. } = &mut cell.phase {
                *tx = None;
            }
        }
        self.shared.reg.bump();
    }

    fn send_frame_to_slot(
        slot: &mut ClientSlot,
        plain: &[u8],
        log: &EventLog,
        obs: &Registry,
        tx_metric: &str,
    ) -> bool {
        let sealed = slot.seal.seal(plain);
        let Some(tx) = slot.tx.as_mut() else {
            return false;
        };
        match tx.send(&sealed) {
            Ok(()) => {
                obs.add_counter(tx_metric, sealed.len() as u64);
                true
            }
            Err(e) => {
                slot.alive = false;
                log.warn("ServerRunner", format!("{}: send failed: {e}", slot.site));
                false
            }
        }
    }

    /// The one scatter: sends `task` to every alive slot, or only to the
    /// alive slots of the sites in `to`, and returns the delivered count.
    /// A slot gets a ring-encoded frame when it has a codec, the task
    /// carries weights and the scatter is a full broadcast; every other
    /// slot gets the raw frame, built once and only if some slot ships it.
    /// Targeted (sampled) scatters always ship raw — a different subset
    /// every round would thrash the delta ring's per-spec base tracking,
    /// and a raw downlink simply makes the client answer with a
    /// self-contained uplink (correct, just uncompressed).
    fn scatter(&mut self, task: &TaskAssignment, to: Option<&[String]>) -> usize {
        // The weights a task carries, its round and, for Train, its
        // total rounds.
        let carried = match *task {
            TaskAssignment::Train {
                round,
                total_rounds,
                ref weights,
            } => Some((weights, round, Some(total_rounds))),
            TaskAssignment::Validate { round, ref weights } => Some((weights, round, None)),
            _ => None,
        };
        let tx_metric = self.shared.metric("bytes_tx");
        let obs = self.shared.obs();
        // Lock order: slots, then ring (matches the reactor, which never
        // holds both at once).
        let mut slots = lock(&self.shared.slots);
        let mut ring = lock(&self.shared.ring);
        let encodes = to.is_none() && slots.iter().any(|s| s.alive && s.codec.is_some());
        let published = carried.filter(|_| encodes).map(|(weights, round, total)| {
            let id = ring.publish(weights);
            // Group the round's receivers by spec so the ring can
            // downgrade a spec's entry to a self-contained head when any
            // of its clients is off the alias/canonical-delta path.
            let mut by_spec: BTreeMap<String, (CodecSpec, Vec<Option<u32>>)> = BTreeMap::new();
            for slot in slots.iter().filter(|s| s.alive) {
                if let Some(spec) = &slot.codec {
                    by_spec
                        .entry(spec.to_string())
                        .or_insert_with(|| (spec.clone(), Vec::new()))
                        .1
                        .push(slot.acked);
                }
            }
            for (spec, acks) in by_spec.values() {
                ring.prepare_round(spec, acks, id);
            }
            let raw_size = raw_task_frame_size(weights, total.is_some());
            (id, raw_size, round, total)
        });
        let mut raw_frame: Option<Vec<u8>> = None;
        let mut sent = 0;
        let targeted = |s: &ClientSlot| to.is_none_or(|sites| sites.contains(&s.site));
        for slot in slots.iter_mut().filter(|s| s.alive && targeted(s)) {
            let encoded = match (published, &slot.codec) {
                (Some((id, raw_size, round, total)), Some(spec)) => {
                    ring.encode_for(spec, slot.acked, id).map(|(enc, kind)| {
                        obs.add_counter(
                            match kind {
                                DownlinkKind::Full => "flare.wire.codec.full_frames",
                                DownlinkKind::Delta => "flare.wire.codec.delta_frames",
                                DownlinkKind::Alias => "flare.wire.codec.alias_frames",
                            },
                            1,
                        );
                        let t = match total {
                            Some(total_rounds) => TaskAssignment::TrainEnc {
                                round,
                                total_rounds,
                                enc,
                            },
                            None => TaskAssignment::ValidateEnc { round, enc },
                        };
                        (ServerMessage::Task(t).to_frame(), raw_size)
                    })
                }
                _ => None,
            };
            let (frame, raw_equiv) = match &encoded {
                Some((f, raw_size)) => (f.as_slice(), *raw_size),
                None => {
                    let f = raw_frame.get_or_insert_with(|| TaskMessage(task).to_frame());
                    (f.as_slice(), f.len() as u64)
                }
            };
            if Self::send_frame_to_slot(slot, frame, &self.shared.log, &obs, &tx_metric) {
                if carried.is_some() {
                    obs.add_counter("flare.wire.bytes_tx_encoded", frame.len() as u64);
                    obs.add_counter("flare.wire.bytes_tx_raw", raw_equiv);
                }
                sent += 1;
            }
        }
        sent
    }

    /// The one wait loop behind both gathers. Hands each inbox message
    /// to `take`, which returns how many leaves it newly covers, until
    /// `expected` leaves are covered, the round deadline passes, or —
    /// once the quorum is met — the grace since the last covering message
    /// runs out. Returns `false` once `cancel` reports `true`; it is probed
    /// at least every [`GATHER_SLICE`].
    fn gather_leaves(
        &self,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
        mut take: impl FnMut(InboxMsg) -> usize,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut last_progress = Instant::now();
        let mut got = 0;
        while got < expected {
            if cancel() {
                return false;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let wait = match self.quorum.grace {
                Some(grace) if got >= self.quorum.min_clients => {
                    remaining.min(grace.saturating_sub(last_progress.elapsed()))
                }
                _ => remaining,
            };
            if wait.is_zero() {
                break;
            }
            match self.inbox_rx.recv_timeout(wait.min(GATHER_SLICE)) {
                Ok(msg) => {
                    let covered = take(msg);
                    if covered > 0 {
                        got += covered;
                        last_progress = Instant::now();
                    }
                }
                // Re-evaluate the deadline/grace budget at the top.
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        true
    }
}

impl Drop for FlServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ClientGateway for FlServer {
    fn leaf_sites(&self) -> Vec<String> {
        lock(&self.shared.slots)
            .iter()
            .filter(|s| s.alive)
            .flat_map(|s| s.leaves.iter().cloned())
            .collect()
    }

    fn broadcast(&mut self, task: &TaskAssignment) -> usize {
        self.scatter(task, None)
    }

    fn send_to(&mut self, sites: &[String], task: &TaskAssignment) -> usize {
        self.scatter(task, Some(sites))
    }

    fn gather_submissions(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, Dxo, ShardMeta)>> {
        // Leaf-granular quorum: a shard covering k leaves counts k. One
        // update per direct child; a repeat is a redundant copy.
        let mut out: Vec<(String, Dxo, ShardMeta)> = Vec::new();
        let log = &self.shared.log;
        let finished = self.gather_leaves(expected, timeout, cancel, |msg| match msg {
            InboxMsg::Submit {
                site,
                round: r,
                dxo,
                shard,
            } if r == round => {
                if out.iter().any(|(s, ..)| *s == site) {
                    log.warn("ServerRunner", format!("duplicate submit from {site}"));
                    return 0;
                }
                let covered = shard.sites.len().max(1);
                out.push((site, dxo, shard));
                covered
            }
            msg => {
                let (InboxMsg::Submit { site, .. } | InboxMsg::Validate { site, .. }) = &msg;
                log.warn(
                    "ServerRunner",
                    format!("{site}: out-of-phase message during round {round}: {msg:?}"),
                );
                0
            }
        });
        finished.then_some(out)
    }

    fn gather_validations(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, f64)>> {
        // One report per leaf, whichever child relayed it.
        let mut out: Vec<(String, f64)> = Vec::new();
        let finished = self.gather_leaves(expected, timeout, cancel, |msg| match msg {
            InboxMsg::Validate {
                round: r, reports, ..
            } if r == round => {
                let before = out.len();
                for (leaf, metric) in reports {
                    if !out.iter().any(|(s, _)| *s == leaf) {
                        out.push((leaf, metric));
                    }
                }
                out.len() - before
            }
            _ => 0, // stale submit etc.
        });
        finished.then_some(out)
    }
}
