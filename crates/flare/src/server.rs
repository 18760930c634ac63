//! The federated server: client management and the gateway the
//! ScatterAndGather controller drives.
//!
//! Since the event-driven rewrite (DESIGN.md §3h) the server runs ONE
//! reactor thread regardless of fleet size: every session is a mailbox
//! ([`crate::reactor::FrameQueue`]) that marks its token ready on a shared
//! [`crate::reactor::ReadyQueue`], and the reactor drains ready mailboxes,
//! advancing each session's handshake/established state machine in place.
//! In-process peers attach reactor-natively via [`FlServer::serve_session`]
//! (zero threads per client); socket peers attach via
//! [`FlServer::serve_connection`], which spawns only a thin pump thread
//! that copies frames from the socket into the mailbox. Registration and
//! codec settling block on a versioned [`crate::reactor::Signal`] instead
//! of the old 5 ms sleep-polls.
//!
//! The server also understands interior aggregation-tree nodes
//! ([`crate::relay::AggregatorNode`]): a client that announces leaves and
//! submits pre-aggregated shards is expanded back into per-leaf
//! bookkeeping ([`crate::controller::RoundManifest`]) so quorum, drop
//! accounting, and round summaries stay leaf-granular.

use crate::codec::{
    decode_weights, raw_submit_frame_size, raw_task_frame_size, wire_count, CodecSpec,
    DownlinkKind, GlobalRing, NO_BASE, SUPPORTED_CODECS,
};
use crate::controller::{ClientGateway, RoundManifest, ShardMeta};
use crate::dxo::{Dxo, DxoKind};
use crate::lock;
use crate::log::EventLog;
use crate::messages::{ClientMessage, ServerMessage, ShardPayload, TaskAssignment};
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

/// How many recent rounds of leaf manifests to retain for
/// [`ClientGateway::round_manifest`] queries.
const MANIFEST_RETENTION: usize = 4;

struct ClientSlot {
    site: String,
    /// `None` once the server has released the connection (see
    /// [`FlServer::disconnect_all`]).
    tx: Option<Box<dyn crate::transport::FrameTx>>,
    seal: SecureChannel,
    alive: bool,
    /// Last time any frame (task reply, heartbeat, even a corrupt one)
    /// arrived from this site.
    last_seen: Instant,
    /// Wire codec negotiated with this client (`None` = raw peer).
    codec: Option<CodecSpec>,
    /// True once the client has announced its codec choice (including an
    /// explicit `raw`). Old peers never announce and stay `false`; the
    /// pre-round settle in [`FlServer::wait_for_clients`] uses this to
    /// avoid broadcasting full-f32 frames to clients whose proposal is
    /// still in flight.
    codec_decided: bool,
    /// Most recent downlink payload id this client acknowledged — the
    /// delta base for its next encoded downlink.
    acked: Option<u32>,
    /// Leaf sites announced by an interior tree node, or `None` for an
    /// ordinary leaf client.
    leaves: Option<Vec<String>>,
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
    /// A round-`round` model update from the client in `slot`; `shard`
    /// carries leaf bookkeeping when the update is a tree-node partial.
    Submit {
        slot: usize,
        round: u32,
        dxo: Dxo,
        shard: Option<ShardMeta>,
    },
    /// Validation metrics — one `(leaf, metric)` pair per leaf below the
    /// client in `slot` (exactly one for an ordinary leaf client).
    Validate {
        slot: usize,
        round: u32,
        reports: Vec<(String, f64)>,
    },
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
    codecs_enabled: AtomicBool,
    /// Ring of recent global payloads + canonical per-codec chains.
    /// Session-scoped: a resumed run starts fresh, forcing one
    /// self-contained downlink per client (DESIGN.md §3g).
    ring: Mutex<GlobalRing>,
    /// Bumped on every registration / codec decision / liveness change;
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
                last_seen: Instant::now(),
                codec: None,
                codec_decided: false,
                acked: None,
                leaves: None,
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
        lock(&self.slots)[slot_idx].last_seen = Instant::now();
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
                lock(&self.slots)[slot_idx].alive = false;
                self.log
                    .info("ClientManager", format!("{site} disconnected."));
                self.reg.bump();
                return SessionPhase::Closed;
            }
            Ok(ClientMessage::Heartbeat { .. }) => {
                // Liveness refresh only; not workflow traffic.
                self.log
                    .info("ClientManager", format!("{site}: heartbeat received"));
            }
            Ok(ClientMessage::CodecPropose { specs, .. }) => {
                if !self.codecs_enabled.load(Ordering::Relaxed) {
                    // A pre-codec server would not know this tag; stay
                    // silent so the client falls back to raw.
                    self.log.warn(
                        "ClientManager",
                        format!("{site}: ignoring codec proposal (codecs disabled)"),
                    );
                } else {
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
            }
            Ok(ClientMessage::SubmitEnc {
                round,
                ack,
                n_examples,
                metrics,
                enc,
            }) => {
                let spec = {
                    let mut guard = lock(&self.slots);
                    let slot = &mut guard[slot_idx];
                    if ack != NO_BASE {
                        slot.acked = Some(ack);
                    }
                    slot.codec.clone()
                };
                match self.decode_uplink(&enc, spec.as_ref()) {
                    Ok(weights) => {
                        wire_count("flare.wire.bytes_rx_encoded", plain.len() as u64);
                        wire_count(
                            "flare.wire.bytes_rx_raw",
                            raw_submit_frame_size(&weights, &metrics),
                        );
                        let dxo = Dxo {
                            kind: DxoKind::Weights,
                            weights,
                            metrics,
                            n_examples,
                        };
                        let _ = inbox.send(InboxMsg::Submit {
                            slot: slot_idx,
                            round,
                            dxo,
                            shard: None,
                        });
                    }
                    Err(e) => {
                        wire_count("flare.wire.codec.decode_errors", 1);
                        self.log.warn(
                            "ClientManager",
                            format!("{site}: dropping undecodable round-{round} submission: {e}"),
                        );
                    }
                }
            }
            Ok(ClientMessage::ValidateReportEnc { round, metric, ack }) => {
                if ack != NO_BASE {
                    lock(&self.slots)[slot_idx].acked = Some(ack);
                }
                let _ = inbox.send(InboxMsg::Validate {
                    slot: slot_idx,
                    round,
                    reports: vec![(site.clone(), metric)],
                });
            }
            Ok(ClientMessage::Submit { round, dxo }) => {
                // Raw submissions: raw and encoded wire bytes are the
                // same by definition.
                wire_count("flare.wire.bytes_rx_encoded", plain.len() as u64);
                wire_count("flare.wire.bytes_rx_raw", plain.len() as u64);
                let _ = inbox.send(InboxMsg::Submit {
                    slot: slot_idx,
                    round,
                    dxo,
                    shard: None,
                });
            }
            Ok(ClientMessage::ValidateReport { round, metric }) => {
                let _ = inbox.send(InboxMsg::Validate {
                    slot: slot_idx,
                    round,
                    reports: vec![(site.clone(), metric)],
                });
            }
            Ok(ClientMessage::SubmitShard {
                round,
                ack,
                n_examples,
                sites,
                dropped,
                payload,
            }) => {
                let spec = {
                    let mut guard = lock(&self.slots);
                    let slot = &mut guard[slot_idx];
                    if ack != NO_BASE {
                        slot.acked = Some(ack);
                    }
                    slot.codec.clone()
                };
                let decoded = match payload {
                    ShardPayload::Raw(w) => {
                        wire_count("flare.wire.bytes_rx_encoded", plain.len() as u64);
                        wire_count("flare.wire.bytes_rx_raw", plain.len() as u64);
                        Ok(w)
                    }
                    ShardPayload::Encoded(enc) => {
                        let r = self.decode_uplink(&enc, spec.as_ref());
                        if let Ok(w) = &r {
                            wire_count("flare.wire.bytes_rx_encoded", plain.len() as u64);
                            wire_count(
                                "flare.wire.bytes_rx_raw",
                                raw_submit_frame_size(w, &BTreeMap::new()),
                            );
                        }
                        r
                    }
                };
                match decoded {
                    Ok(weights) => {
                        let dxo = Dxo::from_weights(weights, n_examples);
                        let _ = inbox.send(InboxMsg::Submit {
                            slot: slot_idx,
                            round,
                            dxo,
                            shard: Some(ShardMeta { sites, dropped }),
                        });
                    }
                    Err(e) => {
                        wire_count("flare.wire.codec.decode_errors", 1);
                        self.log.warn(
                            "ClientManager",
                            format!("{site}: dropping undecodable round-{round} shard: {e}"),
                        );
                    }
                }
            }
            Ok(ClientMessage::ValidateShard {
                round,
                ack,
                reports,
            }) => {
                if ack != NO_BASE {
                    lock(&self.slots)[slot_idx].acked = Some(ack);
                }
                let _ = inbox.send(InboxMsg::Validate {
                    slot: slot_idx,
                    round,
                    reports,
                });
            }
            Ok(ClientMessage::AnnounceLeaves { sites }) => {
                self.log.info(
                    "ClientManager",
                    format!(
                        "{site}: aggregator node covering {} leaf site(s)",
                        sites.len()
                    ),
                );
                lock(&self.slots)[slot_idx].leaves = Some(sites);
                self.reg.bump();
            }
            Ok(msg) => {
                self.log.warn(
                    "ClientManager",
                    format!("{site}: unexpected message: {msg:?}"),
                );
            }
            Err(e) => self
                .log
                .warn("ClientManager", format!("{site}: bad message: {e}")),
        }
        SessionPhase::Established {
            slot: slot_idx,
            open,
            site,
        }
    }

    /// Reconstructs uplink weights against the ring (shared by `SubmitEnc`
    /// and encoded `SubmitShard` payloads).
    fn decode_uplink(
        &self,
        enc: &crate::codec::EncodedWeights,
        spec: Option<&CodecSpec>,
    ) -> Result<crate::dxo::Weights, FlareError> {
        let ring = lock(&self.ring);
        let base = if enc.base_id == NO_BASE {
            None
        } else {
            spec.and_then(|sp| ring.recon(sp, enc.base_id))
        };
        if enc.base_id != NO_BASE && base.is_none() {
            wire_count("flare.wire.codec.base_misses", 1);
            return Err(FlareError::Codec(format!(
                "uplink base payload {} unknown",
                enc.base_id
            )));
        }
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
    /// Leaf manifests per gathered round (tree topologies only).
    manifests: Mutex<BTreeMap<u32, RoundManifest>>,
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
            codecs_enabled: AtomicBool::new(true),
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
            manifests: Mutex::new(BTreeMap::new()),
        }
    }

    /// Enables or disables wire-codec negotiation (default enabled).
    /// Disabling makes the server behave like a pre-codec peer: codec
    /// proposals are ignored and every downlink ships raw f32.
    pub fn set_wire_codecs_enabled(&mut self, enabled: bool) {
        self.shared.codecs_enabled.store(enabled, Ordering::Relaxed);
    }

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

    /// Blocks until `n` clients have registered or `timeout` passes.
    /// Returns the registered count.
    ///
    /// With codecs enabled, a short settle window follows: codec
    /// proposals ride a separate message right after registration, so
    /// broadcasting immediately would race them and ship full-f32 frames
    /// to clients that were about to negotiate. The settle waits up to
    /// 150 ms for every registered client to announce a codec choice —
    /// extended to 1 s once at least one announcement has arrived
    /// (evidence of a negotiating fleet whose remaining proposals may
    /// have been lost to link faults). Old peers never announce, so an
    /// all-legacy fleet pays at most the 150 ms floor. Both waits block
    /// on the registration [`Signal`] — no sleep-polling.
    pub fn wait_for_clients(&self, n: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let count = loop {
            let since = self.shared.reg.version();
            let count = lock(&self.shared.slots).len();
            if count >= n || Instant::now() >= deadline {
                break count;
            }
            self.shared.reg.wait_past(since, deadline);
        };
        if !self.shared.codecs_enabled.load(Ordering::Relaxed) {
            return count;
        }
        let settle = Instant::now() + Duration::from_millis(150);
        let grace = Instant::now() + Duration::from_secs(1);
        loop {
            let since = self.shared.reg.version();
            let (decided, total) = {
                let guard = lock(&self.shared.slots);
                (
                    guard.iter().filter(|s| s.codec_decided).count(),
                    guard.len(),
                )
            };
            if decided >= total {
                break;
            }
            let limit = if decided > 0 { grace } else { settle };
            if Instant::now() >= limit {
                break;
            }
            self.shared.reg.wait_past(since, limit);
        }
        lock(&self.shared.slots).len()
    }

    /// Blocks until the registered clients cover at least `n` leaf sites
    /// or `timeout` passes; returns the covered leaf count. With tree
    /// aggregation, registration of an interior node and its
    /// [`ClientMessage::AnnounceLeaves`] ride separate frames, so a root
    /// that only waited for registrations could start a round before it
    /// knows the true leaf population.
    pub fn wait_for_leaves(&self, n: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            let since = self.shared.reg.version();
            let count: usize = lock(&self.shared.slots)
                .iter()
                .filter(|s| s.alive)
                .map(|s| s.leaves.as_ref().map_or(1, Vec::len))
                .sum();
            if count >= n || Instant::now() >= deadline {
                return count;
            }
            self.shared.reg.wait_past(since, deadline);
        }
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
    /// fault-dropped `Finish` frame cannot strand its client. Slots stay
    /// in the table (indices are stable) and remain visible to
    /// [`FlServer::liveness`].
    pub fn disconnect_all(&mut self) {
        for slot in lock(&self.shared.slots).iter_mut() {
            slot.tx = None;
            slot.alive = false;
        }
        for cell in lock(&self.shared.sessions).iter_mut() {
            cell.rx.close();
            if let SessionPhase::AwaitRegister { tx, .. } = &mut cell.phase {
                *tx = None;
            }
        }
        self.shared.reg.bump();
    }

    /// Liveness snapshot: `(site, idle-for, alive)` per registered client,
    /// in registration order. `idle-for` is the time since the last frame
    /// (including heartbeats) arrived from that site.
    pub fn liveness(&self) -> Vec<(String, Duration, bool)> {
        lock(&self.shared.slots)
            .iter()
            .map(|s| (s.site.clone(), s.last_seen.elapsed(), s.alive))
            .collect()
    }

    /// Sites still marked alive whose last frame is older than `max_idle`
    /// — candidates for being declared dead by an operator.
    pub fn stale_sites(&self, max_idle: Duration) -> Vec<String> {
        lock(&self.shared.slots)
            .iter()
            .filter(|s| s.alive && s.last_seen.elapsed() > max_idle)
            .map(|s| s.site.clone())
            .collect()
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

    /// How long the next inbox wait may run: bounded by the round
    /// deadline, and — once the quorum is met — by the remaining grace
    /// since the last accepted submission. `None` means stop waiting.
    fn gather_wait(
        &self,
        got: usize,
        deadline: Instant,
        last_progress: Instant,
    ) -> Option<Duration> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return None;
        }
        if got >= self.quorum.min_clients {
            if let Some(grace) = self.quorum.grace {
                let grace_left = grace.saturating_sub(last_progress.elapsed());
                if grace_left.is_zero() {
                    return None;
                }
                return Some(remaining.min(grace_left));
            }
        }
        Some(remaining)
    }
}

impl Drop for FlServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ClientGateway for FlServer {
    fn client_sites(&self) -> Vec<String> {
        lock(&self.shared.slots)
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.site.clone())
            .collect()
    }

    fn leaf_sites(&self) -> Vec<String> {
        lock(&self.shared.slots)
            .iter()
            .filter(|s| s.alive)
            .flat_map(|s| match &s.leaves {
                Some(leaves) => leaves.clone(),
                None => vec![s.site.clone()],
            })
            .collect()
    }

    fn round_manifest(&self, round: u32) -> Option<RoundManifest> {
        lock(&self.manifests).get(&round).cloned()
    }

    fn broadcast(&mut self, task: &TaskAssignment) -> usize {
        // Weight-bearing tasks go through the wire codec per slot; Finish
        // (and any task for a raw peer) ships in the legacy format.
        let (weights, is_train) = match task {
            TaskAssignment::Train { weights, .. } => (Some(weights), true),
            TaskAssignment::Validate { weights, .. } => (Some(weights), false),
            _ => (None, false),
        };
        let raw_frame = ServerMessage::Task(task.clone()).to_frame();
        let tx_metric = self.shared.metric("bytes_tx");
        let obs = self.shared.obs();
        let mut sent = 0;
        // Lock order: slots, then ring (matches the reactor, which never
        // holds both at once).
        let mut slots = lock(&self.shared.slots);
        let any_codec = weights.is_some()
            && self.shared.codecs_enabled.load(Ordering::Relaxed)
            && slots.iter().any(|s| s.alive && s.codec.is_some());
        if !any_codec {
            for slot in slots.iter_mut().filter(|s| s.alive) {
                if Self::send_frame_to_slot(slot, &raw_frame, &self.shared.log, &obs, &tx_metric) {
                    if weights.is_some() {
                        wire_count("flare.wire.bytes_tx_encoded", raw_frame.len() as u64);
                        wire_count("flare.wire.bytes_tx_raw", raw_frame.len() as u64);
                    }
                    sent += 1;
                }
            }
            return sent;
        }
        let weights = weights.expect("any_codec implies weight-bearing task");
        let raw_size = raw_task_frame_size(weights, is_train);
        let mut ring = lock(&self.shared.ring);
        let id = ring.publish(weights);
        // Group the round's receivers by spec so the ring can downgrade
        // a spec's entry to a self-contained head when any of its clients
        // would otherwise need an expensive exact full / catch-up frame.
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
        for slot in slots.iter_mut().filter(|s| s.alive) {
            let encoded = slot.codec.as_ref().and_then(|spec| {
                let (enc, kind) = ring.encode_for(spec, slot.acked, id)?;
                wire_count(
                    match kind {
                        DownlinkKind::Full => "flare.wire.codec.full_frames",
                        DownlinkKind::Delta => "flare.wire.codec.delta_frames",
                        DownlinkKind::Alias => "flare.wire.codec.alias_frames",
                        DownlinkKind::CatchUp => "flare.wire.codec.catchup_frames",
                    },
                    1,
                );
                let t = if is_train {
                    let TaskAssignment::Train {
                        round,
                        total_rounds,
                        ..
                    } = task
                    else {
                        unreachable!()
                    };
                    TaskAssignment::TrainEnc {
                        round: *round,
                        total_rounds: *total_rounds,
                        enc,
                    }
                } else {
                    let TaskAssignment::Validate { round, .. } = task else {
                        unreachable!()
                    };
                    TaskAssignment::ValidateEnc { round: *round, enc }
                };
                Some(ServerMessage::Task(t).to_frame())
            });
            let (frame, raw_equiv) = match &encoded {
                Some(f) => (f.as_slice(), raw_size),
                None => (raw_frame.as_slice(), raw_frame.len() as u64),
            };
            if Self::send_frame_to_slot(slot, frame, &self.shared.log, &obs, &tx_metric) {
                wire_count("flare.wire.bytes_tx_encoded", frame.len() as u64);
                wire_count("flare.wire.bytes_tx_raw", raw_equiv);
                sent += 1;
            }
        }
        sent
    }

    /// Slot-targeted scatter for sampled rounds: only the named sites get
    /// the task. Targeted frames always ship the self-contained raw
    /// format — a different subset every round would thrash the delta
    /// ring's per-spec base tracking, and a raw downlink simply makes the
    /// client answer with a self-contained uplink (correct, just
    /// uncompressed).
    fn send_to(&mut self, sites: &[String], task: &TaskAssignment) -> usize {
        let weight_bearing = matches!(
            task,
            TaskAssignment::Train { .. } | TaskAssignment::Validate { .. }
        );
        let raw_frame = ServerMessage::Task(task.clone()).to_frame();
        let tx_metric = self.shared.metric("bytes_tx");
        let obs = self.shared.obs();
        let mut sent = 0;
        let mut slots = lock(&self.shared.slots);
        for slot in slots
            .iter_mut()
            .filter(|s| s.alive && sites.iter().any(|n| n == &s.site))
        {
            if Self::send_frame_to_slot(slot, &raw_frame, &self.shared.log, &obs, &tx_metric) {
                if weight_bearing {
                    wire_count("flare.wire.bytes_tx_encoded", raw_frame.len() as u64);
                    wire_count("flare.wire.bytes_tx_raw", raw_frame.len() as u64);
                }
                sent += 1;
            }
        }
        sent
    }

    fn gather_submissions(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, Dxo)>> {
        let deadline = Instant::now() + timeout;
        let mut last_progress = Instant::now();
        let mut out: Vec<(String, Dxo)> = Vec::new();
        // Leaf-granular accounting: a shard covering k leaves advances
        // the quorum by k, and its bookkeeping lands in the round
        // manifest so the controller can expand it back to leaves.
        let mut metas: Vec<(String, ShardMeta)> = Vec::new();
        let mut any_shard = false;
        let mut got_leaves = 0usize;
        while got_leaves < expected {
            if cancel() {
                return None;
            }
            let Some(wait) = self.gather_wait(got_leaves, deadline, last_progress) else {
                break;
            };
            match self.inbox_rx.recv_timeout(wait.min(GATHER_SLICE)) {
                Ok(InboxMsg::Submit {
                    slot,
                    round: r,
                    dxo,
                    shard,
                }) if r == round => {
                    let site = lock(&self.shared.slots)[slot].site.clone();
                    if out.iter().any(|(s, _)| *s == site) {
                        self.shared
                            .log
                            .warn("ServerRunner", format!("duplicate submit from {site}"));
                        continue;
                    }
                    let meta = match shard {
                        Some(m) => {
                            any_shard = true;
                            m
                        }
                        None => ShardMeta {
                            sites: vec![(site.clone(), dxo.metrics.clone())],
                            dropped: Vec::new(),
                        },
                    };
                    got_leaves += meta.sites.len().max(1);
                    metas.push((site.clone(), meta));
                    out.push((site, dxo));
                    last_progress = Instant::now();
                }
                Ok(msg) => {
                    let slot = match &msg {
                        InboxMsg::Submit { slot, .. } | InboxMsg::Validate { slot, .. } => *slot,
                    };
                    let site = lock(&self.shared.slots)[slot].site.clone();
                    self.shared.log.warn(
                        "ServerRunner",
                        format!("{site}: out-of-phase message during round {round}: {msg:?}"),
                    );
                }
                // Re-evaluate the deadline/grace budget at the top.
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        {
            let mut manifests = lock(&self.manifests);
            if any_shard {
                manifests.insert(
                    round,
                    RoundManifest {
                        shards: metas.into_iter().collect(),
                    },
                );
            } else {
                manifests.remove(&round);
            }
            while manifests.len() > MANIFEST_RETENTION {
                let oldest = *manifests.keys().next().expect("non-empty");
                manifests.remove(&oldest);
            }
        }
        Some(out)
    }

    fn gather_validations(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, f64)>> {
        let deadline = Instant::now() + timeout;
        let mut last_progress = Instant::now();
        let mut out: Vec<(String, f64)> = Vec::new();
        while out.len() < expected {
            if cancel() {
                return None;
            }
            let Some(wait) = self.gather_wait(out.len(), deadline, last_progress) else {
                break;
            };
            match self.inbox_rx.recv_timeout(wait.min(GATHER_SLICE)) {
                Ok(InboxMsg::Validate {
                    round: r, reports, ..
                }) if r == round => {
                    for (leaf, metric) in reports {
                        if !out.iter().any(|(s, _)| *s == leaf) {
                            out.push((leaf, metric));
                            last_progress = Instant::now();
                        }
                    }
                }
                Ok(_) => {} // stale submit etc.
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Some(out)
    }
}
