//! The federated client: registration, encrypted session, task loop.
//!
//! The task loop is fault-tolerant (PR 2): receives run under a bounded
//! retry budget with per-message timeouts and exponential backoff,
//! corrupt frames are rejected and skipped instead of killing the
//! session, and sends retry transient transport failures. Heartbeats are
//! emitted while the client waits out a retry so the server's liveness
//! table can tell "slow" from "gone".

use crate::codec::{
    decode_weights, wire_count, CodecSpec, EncodedWeights, PayloadCache, UplinkEncoder, NO_BASE,
};
use crate::dxo::{Dxo, DxoKind, Weights};
use crate::executor::{Executor, Shard, TaskContext};
use crate::filters::FilterChain;
use crate::log::EventLog;
use crate::messages::{ClientMessage, ServerMessage, ShardPayload, TaskAssignment};
use crate::provision::SitePackage;
use crate::security::{DhKeyPair, SecureChannel};
use crate::transport::Connection;
use crate::wire::{WireDecode, WireEncode};
use crate::FlareError;
use clinfl_obs::{Counter, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One obs counter kept in two views: the per-site series
/// (`flare.site.<site>.<what>`) and the fleet-wide aggregate
/// (`flare.client.<what>`). Handles are resolved once at registration so
/// the hot send/recv paths never touch the registry.
struct CounterPair {
    site: Arc<Counter>,
    all: Arc<Counter>,
}

impl CounterPair {
    fn scoped(obs: &Registry, ns: &str, site: &str, what: &str) -> Self {
        CounterPair {
            site: obs.counter(&format!("flare.site.{site}.{what}")),
            all: obs.counter(&format!("{ns}.{what}")),
        }
    }

    fn add(&self, n: u64) {
        if clinfl_obs::enabled() {
            self.site.add(n);
            self.all.add(n);
        }
    }
}

/// Per-client transport telemetry (bytes on the wire, retries, timeouts,
/// heartbeats), mirrored into per-site and aggregate counters.
struct ClientObs {
    bytes_tx: CounterPair,
    bytes_rx: CounterPair,
    retries: CounterPair,
    timeouts: CounterPair,
    heartbeats: CounterPair,
    send_errors: CounterPair,
}

impl ClientObs {
    fn scoped(obs: &Registry, ns: &str, site: &str) -> Self {
        ClientObs {
            bytes_tx: CounterPair::scoped(obs, ns, site, "bytes_tx"),
            bytes_rx: CounterPair::scoped(obs, ns, site, "bytes_rx"),
            retries: CounterPair::scoped(obs, ns, site, "retries"),
            timeouts: CounterPair::scoped(obs, ns, site, "timeouts"),
            heartbeats: CounterPair::scoped(obs, ns, site, "heartbeats"),
            send_errors: CounterPair::scoped(obs, ns, site, "send_errors"),
        }
    }
}

/// Failure injection for a client run; the simulator fills it from the
/// fault plan's `crash:S@R` items.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientBehavior {
    /// Crash (stop responding, no goodbye) when asked to train this round
    /// or any later one.
    pub drop_at_round: Option<u32>,
}

/// Bounded-retry knobs for the client's send/recv paths.
///
/// A logical receive waits up to `message_timeout` per attempt, for at
/// most `max_attempts` attempts, sleeping an exponentially doubling
/// backoff (starting at `backoff`) between attempts. The defaults keep
/// the historical behavior: up to an hour of total patience, which a
/// slow serial training round needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per logical send/recv before giving up.
    pub max_attempts: u32,
    /// Base backoff between attempts; doubles each retry.
    pub backoff: Duration,
    /// Deadline for a single receive attempt; when one times out the
    /// client sends a keepalive [`ClientMessage::Heartbeat`].
    pub message_timeout: Duration,
    /// How many copies of each `Submit`/`ValidateReport` to send. A
    /// sender cannot detect a silently dropped frame, so on lossy links
    /// redundant copies are the only recovery; the server dedups by site,
    /// making extras harmless. `1` (the default) sends no extras.
    pub submit_copies: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff: Duration::from_millis(50),
            message_timeout: Duration::from_secs(600),
            submit_copies: 1,
        }
    }
}

/// A connected, registered federated client (paper Fig. 3's
/// `FederatedClient`).
pub struct FlClient {
    site: String,
    conn: Connection,
    seal: SecureChannel,
    open: SecureChannel,
    session: String,
    log: EventLog,
    filters: FilterChain,
    retry: RetryPolicy,
    /// Registry scope `obs` records into (global unless
    /// [`Self::set_registry`] chose another).
    registry: Registry,
    obs: ClientObs,
    /// Codec this client *wants* (negotiated at the start of [`Self::run`]).
    wire: CodecSpec,
    /// Codec actually negotiated with the server; `None` = raw.
    active: Option<CodecSpec>,
    /// Reconstructions of recent downlink payloads (delta bases).
    cache: PayloadCache,
    /// Uplink encoder (error-feedback state) once negotiated.
    uplink: Option<UplinkEncoder>,
    /// Server messages that raced in during codec negotiation.
    pending: VecDeque<ServerMessage>,
    /// Whether this site has already logged a best-effort send failure
    /// (the counter keeps ticking; the warning fires once per site).
    send_error_warned: bool,
    /// This site's part of a shared validation split, from its package.
    shard: Shard,
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlClient")
            .field("site", &self.site)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl FlClient {
    /// Registers with the server over `conn` using the provisioned
    /// `package`, performing the token check and key agreement.
    ///
    /// # Errors
    ///
    /// [`FlareError::InvalidToken`] if the server rejects the registration,
    /// transport/codec errors otherwise.
    pub fn register(
        mut conn: Connection,
        package: &SitePackage,
        dh_secret: u64,
        log: EventLog,
    ) -> Result<Self, FlareError> {
        let keys = DhKeyPair::from_secret(dh_secret);
        let register = ClientMessage::Register {
            site: package.site_name.clone(),
            token: package.token.clone(),
            dh_public: keys.public,
        };
        conn.tx.send(&register.to_frame())?;
        let frame = conn.rx.recv(Duration::from_secs(30))?;
        let msg = ServerMessage::from_frame(&frame)?;
        let ServerMessage::RegisterAck {
            accepted,
            session,
            dh_public,
        } = msg
        else {
            return Err(FlareError::Codec("expected RegisterAck".into()));
        };
        if !accepted {
            return Err(FlareError::InvalidToken {
                site: package.site_name.clone(),
            });
        }
        let key = keys.shared_key(dh_public);
        log.info(
            "FederatedClient",
            format!(
                "Successfully registered client:{} for project simulator_server. Token:{session}",
                package.site_name
            ),
        );
        let registry = Registry::global();
        Ok(FlClient {
            obs: ClientObs::scoped(&registry, "flare.client", &package.site_name),
            registry,
            site: package.site_name.clone(),
            conn,
            seal: SecureChannel::new(key, 0),
            open: SecureChannel::new(key, 1 << 32),
            session,
            log,
            filters: FilterChain::new(),
            retry: RetryPolicy::default(),
            wire: CodecSpec::raw(),
            active: None,
            cache: PayloadCache::default(),
            uplink: None,
            pending: VecDeque::new(),
            send_error_warned: false,
            shard: Shard {
                index: package.position,
                of: package.roster_size,
            },
        })
    }

    /// The site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// The server-issued session token.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Installs an outgoing filter chain (DP noise, pruning, secure-agg
    /// masks).
    pub fn set_filters(&mut self, filters: FilterChain) {
        self.filters = filters;
    }

    /// Overrides the send/recv retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Re-homes the fleet-wide counter aggregate under `ns` (the per-site
    /// series keeps its `flare.site.<site>.*` names). Interior tree nodes
    /// use this so relay uplink traffic (`flare.tree.uplink.*`) never
    /// inflates the leaf totals the scaling bench reads from
    /// `flare.client.*`. Stays in the registry [`Self::set_registry`]
    /// chose, so call that first.
    pub fn set_metric_namespace(&mut self, ns: &str) {
        self.obs = ClientObs::scoped(&self.registry, ns, &self.site);
    }

    /// Records this client's counters into `obs` instead of the global
    /// registry (keeping the default `flare.client` namespace). The job
    /// runtime scopes each job's clients this way: two concurrent jobs
    /// can then both run a `site-1` without their `flare.site.site-1.*`
    /// series mixing. Call right after [`FlClient::register`], before
    /// traffic, or early counts stay in the global scope.
    pub fn set_registry(&mut self, obs: Registry) {
        self.obs = ClientObs::scoped(&obs, "flare.client", &self.site);
        self.registry = obs;
    }

    /// Requests a wire codec for weight exchange (see [`crate::codec`]).
    /// The spec is proposed to the server at the start of [`Self::run`];
    /// if the server never acknowledges (an old peer), the client falls
    /// back to the raw format.
    pub fn set_wire_codec(&mut self, spec: CodecSpec) {
        self.wire = spec;
    }

    fn send_once(&mut self, msg: &ClientMessage) -> Result<(), FlareError> {
        let sealed = self.seal.seal(&msg.to_frame());
        let res = self.conn.tx.send(&sealed);
        if res.is_ok() {
            self.obs.bytes_tx.add(sealed.len() as u64);
        }
        res
    }

    /// Accounts for a best-effort send that failed: the paths that
    /// deliberately tolerate failure (duplicate submits, heartbeats, codec
    /// announce, a goodbye on a live link) used to drop the error on the
    /// floor, leaving a persistently broken link invisible. Every failure now ticks
    /// `flare.client.send_errors` (plus the per-site series) and the first
    /// one per site logs a warning.
    fn note_send_error(&mut self, op: &str, err: &FlareError) {
        self.obs.send_errors.add(1);
        if !self.send_error_warned {
            self.send_error_warned = true;
            self.log.warn(
                "FederatedClient",
                format!(
                    "{}: best-effort {op} send failed ({err}); counting further \
                     failures in flare.client.send_errors",
                    self.site
                ),
            );
        }
    }

    /// Sends with bounded retries and exponential backoff. Only transport
    /// failures are retried; each attempt reseals the frame (the secure
    /// channel accepts any fresh nonce, so a duplicate delivery is
    /// harmless — the server dedups submissions by site).
    fn send_with_retry(&mut self, msg: &ClientMessage, op: &str) -> Result<(), FlareError> {
        let mut backoff = self.retry.backoff;
        let mut last = String::new();
        for attempt in 1..=self.retry.max_attempts.max(1) {
            match self.send_once(msg) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = e.to_string();
                    if attempt < self.retry.max_attempts {
                        self.obs.retries.add(1);
                        self.log.warn(
                            "FederatedClient",
                            format!(
                                "{}: {op} failed ({last}); retry {attempt}/{} after {backoff:?}",
                                self.site,
                                self.retry.max_attempts - 1
                            ),
                        );
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        }
        Err(FlareError::RetriesExhausted {
            op: op.to_string(),
            attempts: self.retry.max_attempts.max(1),
            last,
        })
    }

    /// [`Self::send_with_retry`] plus `submit_copies - 1` best-effort
    /// duplicates (the server dedups by site, so extras are harmless).
    fn send_redundant(&mut self, msg: &ClientMessage, op: &str) -> Result<(), FlareError> {
        self.send_with_retry(msg, op)?;
        for _ in 1..self.retry.submit_copies.max(1) {
            if let Err(e) = self.send_once(msg) {
                self.note_send_error("duplicate-submit", &e);
            }
        }
        Ok(())
    }

    /// Sends a keepalive so the server's liveness table sees this site as
    /// alive even when no task traffic flows.
    ///
    /// # Errors
    ///
    /// Transport failures from the underlying send.
    pub fn heartbeat(&mut self) -> Result<(), FlareError> {
        let site = self.site.clone();
        let res = self.send_once(&ClientMessage::Heartbeat { site });
        if res.is_ok() {
            self.obs.heartbeats.add(1);
        }
        res
    }

    /// Receives the next frame under the retry policy: each attempt waits
    /// `message_timeout`; on timeout a heartbeat is sent and the attempt
    /// is retried after backoff, up to `max_attempts`.
    fn recv_with_retry(&mut self) -> Result<Vec<u8>, FlareError> {
        let mut backoff = self.retry.backoff;
        for attempt in 1..=self.retry.max_attempts.max(1) {
            match self.conn.rx.recv(self.retry.message_timeout) {
                Ok(frame) => return Ok(frame),
                Err(FlareError::Timeout) if attempt < self.retry.max_attempts => {
                    self.obs.timeouts.add(1);
                    self.obs.retries.add(1);
                    self.log.warn(
                        "FederatedClient",
                        format!(
                            "{}: no task within {:?}; retry {attempt}/{}",
                            self.site,
                            self.retry.message_timeout,
                            self.retry.max_attempts - 1
                        ),
                    );
                    if let Err(e) = self.heartbeat() {
                        self.note_send_error("heartbeat", &e);
                    }
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => {
                    if matches!(e, FlareError::Timeout) {
                        self.obs.timeouts.add(1);
                    }
                    return Err(e);
                }
            }
        }
        Err(FlareError::RetriesExhausted {
            op: "recv task".to_string(),
            attempts: self.retry.max_attempts.max(1),
            last: FlareError::Timeout.to_string(),
        })
    }

    /// Tells the server this client stays on the raw format, without
    /// waiting for an acknowledgement (the outcome is raw either way).
    /// The announcement lets the server's pre-round settle close as soon
    /// as every client has declared a codec instead of waiting out its
    /// grace window; a lost or ignored frame merely costs that wait.
    fn announce_raw(&mut self) {
        let propose = ClientMessage::CodecPropose {
            site: self.site.clone(),
            specs: vec![CodecSpec::raw().to_string()],
        };
        if let Err(e) = self.send_with_retry(&propose, "codec announce") {
            self.note_send_error("codec-announce", &e);
        }
    }

    /// Proposes `self.wire` to the server and waits (bounded) for the
    /// [`ServerMessage::CodecAck`]. Task frames that race in while we
    /// wait are buffered in `self.pending` and handled by the main loop.
    /// A server that never acknowledges — an old peer, or repeated frame
    /// loss — leaves the client on the raw format.
    fn negotiate(&mut self) {
        const ATTEMPTS: u32 = 10;
        const WAIT_PER_ATTEMPT: Duration = Duration::from_millis(300);
        let propose = ClientMessage::CodecPropose {
            site: self.site.clone(),
            specs: vec![self.wire.to_string()],
        };
        let mut chosen: Option<String> = None;
        'attempts: for _ in 0..ATTEMPTS {
            if self.send_with_retry(&propose, "codec propose").is_err() {
                break;
            }
            let deadline = Instant::now() + WAIT_PER_ATTEMPT;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break; // re-propose (the frame may have been dropped)
                }
                match self.conn.rx.recv(left) {
                    Ok(frame) => match self.open_frame(&frame) {
                        Some(ServerMessage::CodecAck { chosen: c, .. }) => {
                            chosen = c;
                            break 'attempts;
                        }
                        Some(other) => self.pending.push_back(other),
                        None => {}
                    },
                    Err(FlareError::Timeout) => break,
                    Err(_) => break 'attempts,
                }
            }
        }
        match chosen.and_then(|s| CodecSpec::parse(&s).ok()) {
            Some(sp) if !sp.is_raw() => {
                self.log.info(
                    "FederatedClient",
                    format!("{}: negotiated wire codec {sp}", self.site),
                );
                wire_count("flare.wire.codec.negotiated", 1);
                self.uplink = Some(UplinkEncoder::new(sp.clone()));
                self.active = Some(sp);
            }
            _ => {
                self.log.warn(
                    "FederatedClient",
                    format!(
                        "{}: wire codec {} not negotiated; using raw format",
                        self.site, self.wire
                    ),
                );
                wire_count("flare.wire.codec.fallback_raw", 1);
                self.wire = CodecSpec::raw();
            }
        }
    }

    /// Decodes a codec downlink payload against the cached base and
    /// stores the reconstruction for future deltas. `None` means the
    /// frame was unusable (missing base / corrupt); the caller skips the
    /// task and waits for the server's next (self-contained) frame.
    fn decode_downlink(&mut self, enc: &EncodedWeights) -> Option<Weights> {
        let base = if enc.base_id == NO_BASE {
            None
        } else {
            match self.cache.get(enc.base_id) {
                Some(b) => Some(b),
                None => {
                    wire_count("flare.wire.codec.base_misses", 1);
                    self.log.warn(
                        "FederatedClient",
                        format!(
                            "{}: downlink payload {} needs base {} not in cache; skipping",
                            self.site, enc.payload_id, enc.base_id
                        ),
                    );
                    return None;
                }
            }
        };
        match decode_weights(enc, base.map(|b| &**b)) {
            Ok(w) => {
                // An alias decodes to its base: keep one copy under both
                // ids instead of storing the clone `decode_weights` made.
                let entry = match base {
                    Some(b) if enc.alias => Arc::clone(b),
                    _ => Arc::new(w.clone()),
                };
                self.cache.insert(enc.payload_id, entry);
                Some(w)
            }
            Err(e) => {
                wire_count("flare.wire.codec.decode_errors", 1);
                self.log.warn(
                    "FederatedClient",
                    format!("{}: undecodable downlink payload: {e}", self.site),
                );
                None
            }
        }
    }

    /// Encodes an uplink payload with the negotiated codec, against the
    /// latest downlink this client reconstructed, and returns it with that
    /// downlink's ack. `None` means the payload ships raw: no codec is
    /// active, the payload is not plain weights (e.g. `WeightDiff` from a
    /// filter chain), or the encode failed.
    fn encode_uplink(&mut self, dxo: &Dxo) -> Option<(EncodedWeights, u32)> {
        if !matches!(dxo.kind, DxoKind::Weights) {
            return None;
        }
        let uplink = self.uplink.as_mut()?;
        let ack = self.cache.latest_id();
        let base = ack.and_then(|id| self.cache.get(id).map(|w| (&**w, id)));
        match uplink.encode(&dxo.weights, base) {
            Ok(enc) => Some((enc, ack.unwrap_or(NO_BASE))),
            Err(e) => {
                self.log.warn(
                    "FederatedClient",
                    format!("{}: uplink encode failed ({e}); sending raw", self.site),
                );
                None
            }
        }
    }

    /// Runs codec negotiation if it has not happened yet: proposes the
    /// configured spec (or announces raw) and settles on the negotiated
    /// outcome. [`Self::run`] calls this implicitly; interior tree nodes
    /// driving the task loop by hand via [`Self::next_task`] call it once
    /// before their first round.
    pub fn negotiate_codec(&mut self) {
        if self.active.is_none() {
            if self.wire.is_raw() {
                self.announce_raw();
            } else {
                self.negotiate();
            }
        }
    }

    /// Declares the leaf sites living below this client, turning its
    /// server-side slot into an aggregator-node slot (the server counts
    /// quorum and drops over leaves, not direct children).
    ///
    /// # Errors
    ///
    /// [`FlareError::RetriesExhausted`] when the send budget runs out.
    pub fn announce_leaves(&mut self, sites: Vec<String>) -> Result<(), FlareError> {
        self.send_with_retry(&ClientMessage::AnnounceLeaves { sites }, "announce leaves")
    }

    /// Submits a pre-aggregated shard update: the weighted partial
    /// aggregate of this node's subtree, plus the per-leaf bookkeeping
    /// (contributor metrics and dropped sites) the upstream round needs.
    /// The payload rides the negotiated uplink codec when one is active.
    ///
    /// # Errors
    ///
    /// [`FlareError::RetriesExhausted`] when the send budget runs out.
    pub fn submit_shard(
        &mut self,
        round: u32,
        dxo: Dxo,
        sites: Vec<(String, BTreeMap<String, f64>)>,
        dropped: Vec<String>,
    ) -> Result<(), FlareError> {
        let (payload, ack) = match self.encode_uplink(&dxo) {
            Some((enc, ack)) => (ShardPayload::Encoded(enc), ack),
            None => (ShardPayload::Raw(dxo.weights), NO_BASE),
        };
        let msg = ClientMessage::SubmitShard {
            round,
            ack,
            n_examples: dxo.n_examples,
            sites,
            dropped,
            payload,
        };
        self.send_redundant(&msg, &format!("submit shard round {round}"))
    }

    /// Relays the per-leaf validation metrics gathered below this node.
    ///
    /// # Errors
    ///
    /// [`FlareError::RetriesExhausted`] when the send budget runs out.
    pub fn report_validate_shard(
        &mut self,
        round: u32,
        reports: Vec<(String, f64)>,
    ) -> Result<(), FlareError> {
        let msg = ClientMessage::ValidateShard {
            round,
            ack: self.cache.latest_id().unwrap_or(NO_BASE),
            reports,
        };
        self.send_redundant(&msg, &format!("validate shard round {round}"))
    }

    /// Counts, decrypts, and decodes one server frame. A truncated,
    /// tampered or undecodable frame is a link fault, not a session killer:
    /// it is logged and skipped (`None`).
    fn open_frame(&mut self, frame: &[u8]) -> Option<ServerMessage> {
        self.obs.bytes_rx.add(frame.len() as u64);
        let decoded = self
            .open
            .open(frame)
            .map_err(|e| format!("rejected corrupt frame: {e}"))
            .and_then(|plain| {
                ServerMessage::from_frame(&plain).map_err(|e| format!("undecodable message: {e}"))
            });
        match decoded {
            Ok(msg) => Some(msg),
            Err(why) => {
                self.log
                    .warn("FederatedClient", format!("{}: {why}", self.site));
                None
            }
        }
    }

    /// Receives, decrypts, and decodes the next task assignment. Corrupt
    /// or non-task frames are skipped; encoded tasks are decoded against
    /// the payload cache (an undecodable payload skips the task and waits
    /// for the server's next self-contained frame).
    ///
    /// # Errors
    ///
    /// Transport failures or an exhausted receive budget.
    pub fn next_task(&mut self) -> Result<TaskAssignment, FlareError> {
        loop {
            let msg = match self.pending.pop_front() {
                Some(m) => m,
                None => {
                    let frame = self.recv_with_retry()?;
                    match self.open_frame(&frame) {
                        Some(m) => m,
                        None => continue,
                    }
                }
            };
            let ServerMessage::Task(task) = msg else {
                continue;
            };
            // Codec tasks decode to their raw counterparts, so callers
            // only ever see plain-weight assignments.
            match task {
                TaskAssignment::TrainEnc {
                    round,
                    total_rounds,
                    enc,
                } => match self.decode_downlink(&enc) {
                    Some(weights) => {
                        return Ok(TaskAssignment::Train {
                            round,
                            total_rounds,
                            weights,
                        })
                    }
                    None => continue,
                },
                TaskAssignment::ValidateEnc { round, enc } => match self.decode_downlink(&enc) {
                    Some(weights) => return Ok(TaskAssignment::Validate { round, weights }),
                    None => continue,
                },
                t => return Ok(t),
            }
        }
    }

    /// Probes — without meaningfully blocking — whether the server has
    /// another task queued for this client. Frames that already arrived
    /// are drained, decoded, and buffered for [`Self::next_task`]; the
    /// probe reports `true` once a task (or a transport failure — either
    /// way the caller's current round is over) is found. Interior tree
    /// nodes use this mid-gather to notice that the parent has closed the
    /// round early and moved on, instead of waiting out the full shard
    /// timeout on leaves that will never submit. The 1ms receive slice
    /// avoids the zero-timeout desync hazard of length-prefixed TCP
    /// framing.
    pub fn poll_pending_task(&mut self) -> bool {
        loop {
            if self
                .pending
                .iter()
                .any(|m| matches!(m, ServerMessage::Task(_)))
            {
                return true;
            }
            match self.conn.rx.recv(Duration::from_millis(1)) {
                Ok(frame) => {
                    if let Some(m) = self.open_frame(&frame) {
                        self.pending.push_back(m);
                    }
                }
                Err(FlareError::Timeout) => return false,
                Err(_) => return true,
            }
        }
    }

    /// Sends the best-effort goodbye that lets the server log a graceful
    /// disconnect instead of a lost connection. After `Finish` the server
    /// may already have closed the link, so a goodbye that finds it closed
    /// is the expected outcome: it is neither counted nor warned about,
    /// which keeps `flare.client.send_errors` and the log the same across
    /// same-seed runs. Any other failure is a best-effort send error.
    pub fn send_bye(&mut self) {
        let site = self.site.clone();
        match self.send_once(&ClientMessage::Bye { site }) {
            Ok(()) | Err(FlareError::Transport(_)) => {}
            Err(e) => self.note_send_error("goodbye", &e),
        }
    }

    /// A "crashed" site: stops participating but keeps its connection
    /// open (a hung process or partitioned network, which the server
    /// cannot distinguish from a slow client), draining and ignoring all
    /// traffic until the server tears the session down. Holding the slot
    /// alive keeps the controller's expected-site set — and therefore its
    /// drop/quorum bookkeeping — deterministic across runs.
    fn hang_until_disconnect(&mut self, trained: u32) -> Result<u32, FlareError> {
        loop {
            match self.conn.rx.recv(Duration::from_secs(3600)) {
                Ok(_) | Err(FlareError::Timeout) => continue,
                Err(_) => return Ok(trained),
            }
        }
    }

    /// Runs the task loop with the given executor until the server sends
    /// `Finish` (or a failure-injection behavior triggers).
    ///
    /// Returns the number of training rounds completed. A transport
    /// disconnect after at least one completed round is treated as the
    /// server closing the session (e.g. this client's `Finish` frame was
    /// lost to a fault) and ends the loop gracefully.
    ///
    /// # Errors
    ///
    /// Transport or codec failures before any round completes, or a
    /// [`FlareError::RetriesExhausted`] receive budget; executor panics
    /// propagate.
    pub fn run(
        &mut self,
        executor: &mut dyn Executor,
        behavior: ClientBehavior,
    ) -> Result<u32, FlareError> {
        let mut trained = 0u32;
        self.negotiate_codec();
        loop {
            let task = match self.next_task() {
                Ok(t) => t,
                Err(FlareError::Transport(reason)) if trained > 0 => {
                    self.log.warn(
                        "FederatedClient",
                        format!(
                            "{}: connection closed by server ({reason}); exiting after {trained} round(s)",
                            self.site
                        ),
                    );
                    return Ok(trained);
                }
                Err(e) => return Err(e),
            };
            match task {
                TaskAssignment::Train {
                    round,
                    total_rounds,
                    weights,
                } => {
                    if behavior.drop_at_round.is_some_and(|r| round >= r) {
                        self.log.warn(
                            "FederatedClient",
                            format!("{} simulating crash at round {round}", self.site),
                        );
                        return self.hang_until_disconnect(trained);
                    }
                    let _span = clinfl_obs::span("site");
                    let ctx = TaskContext {
                        site: self.site.clone(),
                        round,
                        total_rounds,
                        shard: self.shard,
                    };
                    // At most CLINFL_THREADS sites compute at once; with a
                    // budget of 1 the round schedule is strictly sequential.
                    let permit = clinfl_tensor::pool::compute_permit();
                    let mut dxo = executor.train(&weights, &ctx);
                    drop(permit);
                    dxo = self.filters.apply(dxo, &weights, round);
                    debug_assert!(matches!(dxo.kind, DxoKind::Weights | DxoKind::WeightDiff));
                    let msg = match self.encode_uplink(&dxo) {
                        Some((enc, ack)) => ClientMessage::SubmitEnc {
                            round,
                            ack,
                            n_examples: dxo.n_examples,
                            metrics: dxo.metrics,
                            enc,
                        },
                        None => ClientMessage::Submit { round, dxo },
                    };
                    self.send_redundant(&msg, &format!("submit round {round}"))?;
                    trained += 1;
                }
                TaskAssignment::Validate { round, weights } => {
                    let ctx = TaskContext {
                        site: self.site.clone(),
                        round,
                        total_rounds: 0,
                        shard: self.shard,
                    };
                    let permit = clinfl_tensor::pool::compute_permit();
                    let metric = executor.validate(&weights, &ctx);
                    drop(permit);
                    let msg = if self.active.is_some() {
                        ClientMessage::ValidateReportEnc {
                            round,
                            metric,
                            ack: self.cache.latest_id().unwrap_or(NO_BASE),
                        }
                    } else {
                        ClientMessage::ValidateReport { round, metric }
                    };
                    self.send_redundant(&msg, &format!("validate round {round}"))?;
                }
                TaskAssignment::Finish => {
                    // Best-effort goodbye: the server may already be
                    // tearing the session down.
                    self.send_bye();
                    return Ok(trained);
                }
                TaskAssignment::TrainEnc { .. } | TaskAssignment::ValidateEnc { .. } => {
                    unreachable!("encoded tasks decoded in next_task")
                }
            }
        }
    }
}
