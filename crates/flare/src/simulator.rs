//! The simulator: whole federations in one process (NVFlare's
//! `SimulatorRunner`, the mode the paper's Fig. 3 demonstrates).

use crate::admin::RunStatus;
use crate::aggregator::Aggregator;
use crate::client::{ClientBehavior, FlClient, RetryPolicy};
use crate::codec::CodecSpec;
use crate::controller::{sample_count, SagConfig, ScatterAndGather, WorkflowResult};
use crate::dxo::Weights;
use crate::executor::Executor;
use crate::faults::{FaultConfig, FaultPlan};
use crate::filters::FilterChain;
use crate::log::EventLog;
use crate::persistor::{FilePersistor, InMemoryPersistor, Persistor};
use crate::privacy::DpConfig;
use crate::provision::{dh_secret, Project, Provisioned, SitePackage, RELAY_INDEX};
use crate::relay::{AggregatorNode, RelayConfig};
use crate::server::FlServer;
use crate::spec::resume_mismatch;
use crate::transport::Connection;
use crate::FlareError;
use clinfl_obs::Registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Shape of the in-process aggregation tree (see [`AggregatorNode`]).
///
/// `depth` counts edges from the root to a leaf: `1` is the classic flat
/// fleet, `2` inserts one layer of interior aggregator nodes, and so on.
/// Each interior node fans out to at most `fanout` children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Edges from root to leaf (`<= 1` means flat).
    pub depth: u32,
    /// Maximum children per node.
    pub fanout: usize,
}

impl TreeConfig {
    /// Reads the `CLINFL_TREE` environment knob, a value of the spec's
    /// `tree` key: `"2"` (depth 2, fanout 8) or `"2x8"` (`depth x
    /// fanout`). Unset, empty, or invalid values mean "no override".
    pub fn from_env() -> Option<Self> {
        let mut spec = SimulatorConfig::default();
        spec.apply("tree", &std::env::var("CLINFL_TREE").ok()?)
            .ok()?;
        spec.tree
    }

    /// Parses `"<depth>"` or `"<depth>x<fanout>"`.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        let (depth, fanout) = match raw.split_once('x') {
            Some((d, f)) => (d.trim().parse().ok()?, f.trim().parse().ok()?),
            None => (raw.parse().ok()?, 8),
        };
        Some(TreeConfig {
            depth,
            fanout: std::cmp::max(fanout, 2),
        })
    }

    /// The smallest depth whose capacity `fanout^depth` covers `n` sites
    /// (so 8 sites at fan-out 8 stay flat, 64 get one interior layer,
    /// 1024 get three).
    pub fn auto(n: usize, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let mut depth = 1u32;
        let mut capacity = fanout;
        while capacity < n {
            depth += 1;
            capacity = capacity.saturating_mul(fanout);
        }
        TreeConfig { depth, fanout }
    }
}

/// One child slot in the topology: a leaf site (by 0-based index) or an
/// interior aggregator subtree.
enum TreeChild {
    Leaf(usize),
    Node(TreeNodeSpec),
}

struct TreeNodeSpec {
    name: String,
    children: Vec<TreeChild>,
}

/// Chunks name-sorted leaves into contiguous shards, one per child, each
/// sized to the capacity of a subtree of the remaining height. Chunks of
/// one leaf attach directly (an interior node relaying a single site
/// would only add latency).
fn build_children(
    order: &[usize],
    height: u32,
    fanout: usize,
    counter: &mut usize,
) -> Vec<TreeChild> {
    if height <= 1 || order.len() <= 1 {
        return order.iter().map(|&i| TreeChild::Leaf(i)).collect();
    }
    let capacity = fanout.saturating_pow(height - 1).max(1);
    order
        .chunks(capacity)
        .map(|chunk| {
            if chunk.len() == 1 {
                TreeChild::Leaf(chunk[0])
            } else {
                let name = format!("agg-{:03}", *counter);
                *counter += 1;
                TreeChild::Node(TreeNodeSpec {
                    name,
                    children: build_children(chunk, height - 1, fanout, counter),
                })
            }
        })
        .collect()
}

fn site_name(index: usize) -> String {
    format!("site-{}", index + 1)
}

fn child_name(child: &TreeChild) -> String {
    match child {
        TreeChild::Leaf(i) => site_name(*i),
        TreeChild::Node(spec) => spec.name.clone(),
    }
}

/// A leaf client ready to spawn: its (fault-wrapped) connection into the
/// parent node plus registration material.
struct LeafJob {
    index: usize,
    package: SitePackage,
    conn: Connection,
}

/// What a walk of the topology stands up before any thread spawns: leaf
/// clients still to register, and interior nodes already registered with
/// their parents, each with the name its thread reports under.
struct Fleet {
    plan: FaultPlan,
    relay_seq: u64,
    leaves: Vec<LeafJob>,
    relays: Vec<(String, AggregatorNode)>,
}

/// Leaf sites covered by a subtree (relay children count their whole
/// subtree, not themselves).
fn subtree_leaves(children: &[TreeChild]) -> usize {
    children
        .iter()
        .map(|c| match c {
            TreeChild::Leaf(_) => 1,
            TreeChild::Node(spec) => subtree_leaves(&spec.children),
        })
        .sum()
}

/// Configuration of a simulated federation. Its text form — one
/// `key = value` line per field a run's bits depend on — is in
/// [`crate::spec`].
#[derive(Clone, Debug, PartialEq)]
pub struct SimulatorConfig {
    /// Number of simulated sites (the paper uses 8).
    pub n_clients: usize,
    /// ScatterAndGather workflow settings.
    pub sag: SagConfig,
    /// Provisioning / session seed.
    pub seed: u64,
    /// Deterministic link-level fault injection (defaults to none).
    pub faults: FaultConfig,
    /// Client send/recv retry policy.
    pub retry: RetryPolicy,
    /// Persist per-round snapshots and the run checkpoint into this
    /// directory (crash-safe; see `DESIGN.md`). `None` keeps everything in
    /// memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint in `checkpoint_dir` (if one is valid);
    /// the run restarts at round *k+1*. Refused if the checkpoint was
    /// written under a different `seed`, or under a spec that differs in
    /// any key but `rounds`, `tree` and the checkpoint keys.
    pub resume: bool,
    /// Keep at most this many `round_<n>.cfw` files on disk (oldest
    /// pruned first); `None` keeps all.
    pub retain_checkpoints: Option<usize>,
    /// Wire codec every client proposes at registration (see
    /// [`crate::codec`]); raw keeps the legacy full-f32 exchange.
    pub wire: CodecSpec,
    /// Per-site codec overrides keyed by 0-based site index (mixed-fleet
    /// testing: some sites raw, some compressed).
    pub wire_overrides: BTreeMap<usize, CodecSpec>,
    /// When false the server ignores codec proposals (emulates a
    /// pre-codec server, exercising the client's raw fallback).
    pub server_codecs_enabled: bool,
    /// Aggregation-tree topology. `None` falls back to the `CLINFL_TREE`
    /// environment knob, and to a flat fleet when that is unset too. A
    /// resumed run restores the topology recorded in its checkpoint
    /// instead. Trees need an aggregation rule with
    /// [`Aggregator::supports_partial`]; others warn and run flat.
    pub tree: Option<TreeConfig>,
    /// DP-SGD: every site's outgoing update is clipped and noised first
    /// in its filter chain, and the run reports its (ε, δ). `None` runs
    /// without DP.
    pub dp: Option<DpConfig>,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            n_clients: 8,
            sag: SagConfig::default(),
            seed: 2023,
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            checkpoint_dir: None,
            resume: false,
            retain_checkpoints: None,
            wire: CodecSpec::raw(),
            wire_overrides: BTreeMap::new(),
            server_codecs_enabled: true,
            tree: None,
            dp: None,
        }
    }
}

impl SimulatorConfig {
    /// A paper-like default: 8 clients, `rounds` rounds, everyone healthy.
    pub fn paper(rounds: u32) -> Self {
        SimulatorConfig {
            sag: SagConfig {
                rounds,
                min_clients: 1,
                ..SagConfig::default()
            },
            ..SimulatorConfig::default()
        }
    }
}

/// Result of a simulator run: the workflow outcome plus the collected
/// event log (the content of the paper's Fig. 3).
#[derive(Debug)]
pub struct SimulationResult {
    /// Workflow result (final weights, per-round summaries).
    pub workflow: WorkflowResult,
    /// Rounds each client completed before exiting.
    pub client_rounds: Vec<u32>,
    /// The run log.
    pub log: EventLog,
    /// Cumulative `(ε, δ)` over the completed rounds when the run used
    /// DP-SGD ([`SimulatorConfig::dp`]).
    pub privacy: Option<(f64, f64)>,
}

/// Builds and runs an in-process federation: provision → server → client
/// threads → ScatterAndGather → results.
///
/// Besides its [`SimulatorConfig`], a runner carries the host handles a
/// multi-tenant host (the job runtime) scopes per run — metrics registry,
/// live status, abort flag. They default to the process-global registry,
/// a private status and a flag nobody sets.
pub struct SimulatorRunner {
    config: SimulatorConfig,
    log: EventLog,
    obs: Registry,
    artifact_tag: String,
    status: RunStatus,
    abort: Arc<AtomicBool>,
}

impl std::fmt::Debug for SimulatorRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorRunner")
            .field("n_clients", &self.config.n_clients)
            .finish_non_exhaustive()
    }
}

impl SimulatorRunner {
    /// Creates a runner with a silent log.
    pub fn new(config: SimulatorConfig) -> Self {
        Self::with_log(config, EventLog::new())
    }

    /// Creates a runner that logs into `log` (use [`EventLog::echoing`]
    /// for live Fig. 3-style output).
    pub fn with_log(config: SimulatorConfig, log: EventLog) -> Self {
        SimulatorRunner {
            config,
            log,
            obs: Registry::global(),
            artifact_tag: String::new(),
            status: RunStatus::new(),
            abort: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Records the run's metrics — root and relay servers, every leaf and
    /// relay client, the controller — into `obs` instead of the global
    /// registry, and prefixes the run's obs artifact file with
    /// `artifact_tag` (see `MetricsSnapshot::write_artifact_tagged`).
    pub fn with_registry(mut self, obs: Registry, artifact_tag: impl Into<String>) -> Self {
        self.obs = obs;
        self.artifact_tag = artifact_tag.into();
        self
    }

    /// Publishes the run's live phase, clients and last metric into
    /// `status` (see [`ScatterAndGather::with_status`]).
    pub fn with_status(mut self, status: RunStatus) -> Self {
        self.status = status;
        self
    }

    /// Stops the run at the controller's next check once `abort` is set
    /// (see [`ScatterAndGather::with_abort`]); [`Self::run`] then tears the
    /// federation down and returns [`FlareError::Aborted`].
    pub fn with_abort(mut self, abort: Arc<AtomicBool>) -> Self {
        self.abort = abort;
        self
    }

    /// Runs the federation to completion.
    ///
    /// `make_executor` is called once per site, in site order (with its
    /// index and name), on the launching thread; the produced executor
    /// moves to that site's thread. `make_filters` may return a per-site
    /// outgoing filter chain. With [`SimulatorConfig::dp`] set, the DP
    /// filter runs before it; the filter the aggregation rule needs
    /// ([`Aggregator::site_filter`], `MaskedSum`'s masks) runs after it,
    /// so the masks see the final, privatized update.
    ///
    /// # Errors
    ///
    /// Propagates workflow failures (e.g.
    /// [`FlareError::NotEnoughClients`], or [`FlareError::Aborted`] after
    /// [`Self::with_abort`]'s flag was set).
    ///
    /// # Panics
    ///
    /// Panics if a client thread panicked (executor bugs should surface,
    /// not hang the run).
    pub fn run(
        &self,
        initial: Weights,
        mut make_executor: impl FnMut(usize, &str) -> Box<dyn Executor>,
        aggregator: &dyn Aggregator,
        mut make_filters: impl FnMut(usize) -> FilterChain,
    ) -> Result<SimulationResult, FlareError> {
        let _run_span = clinfl_obs::span("run");
        let log = self.log.clone();
        let n = self.config.n_clients;
        // Checkpoint/resume setup happens before any client thread spawns,
        // so a refused resume returns an error without leaking threads.
        let mut initial = initial;
        let mut sag_cfg = self.config.sag.clone();
        let mut persistor: Box<dyn Persistor> = match &self.config.checkpoint_dir {
            Some(dir) => {
                let mut fp = FilePersistor::new(dir)?.with_log(log.clone());
                if let Some(keep) = self.config.retain_checkpoints {
                    fp = fp.with_retention(keep);
                }
                if self.config.resume {
                    match fp.load_checkpoint() {
                        Some(ckpt) => {
                            if ckpt.seed != self.config.seed {
                                return Err(FlareError::Checkpoint(format!(
                                    "checkpoint in {dir:?} was written under run seed {}; \
                                     refusing to resume with seed {} (the fault/data \
                                     schedule would diverge)",
                                    ckpt.seed, self.config.seed
                                )));
                            }
                            initial = ckpt.global.clone();
                            sag_cfg.resume_from = Some(ckpt);
                        }
                        None => log.warn(
                            "SimulatorRunner",
                            "resume requested but no valid checkpoint found; starting fresh",
                        ),
                    }
                }
                Box::new(fp)
            }
            None => Box::new(InMemoryPersistor::new()),
        };
        let plan = FaultPlan::new(self.config.faults.clone(), log.clone());
        if plan.config().is_active() {
            log.info(
                "FaultInjector",
                format!("active with seed {}", plan.config().seed),
            );
        }
        // Topology: a resumed run restores whatever its checkpoint
        // recorded (a run must not change shape mid-flight); otherwise the
        // config, then the CLINFL_TREE environment knob, decides.
        let topology = match sag_cfg
            .resume_from
            .as_ref()
            .map(|c| (c.tree_depth, c.tree_fanout))
        {
            Some((d, f)) if d >= 2 => Some(TreeConfig {
                depth: d,
                fanout: (f as usize).max(2),
            }),
            Some(_) => None,
            None => self.config.tree.or_else(TreeConfig::from_env),
        };
        let topology = match topology.filter(|t| t.depth >= 2 && n >= 2) {
            Some(_) if !aggregator.supports_partial() => {
                log.warn(
                    "SimulatorRunner",
                    format!(
                        "{} does not decompose over shards; falling back to a flat topology",
                        aggregator.name()
                    ),
                );
                None
            }
            Some(_) if sag_cfg.client_sample_fraction < 1.0 => {
                // Interior aggregator nodes scatter to their whole shard,
                // so a per-round site subset cannot be addressed through
                // them yet; run the sampled federation flat instead.
                log.warn(
                    "SimulatorRunner",
                    "client sampling does not compose with tree aggregation; \
                     falling back to a flat topology",
                );
                None
            }
            t => t,
        };
        // The effective spec: what this run's bits depend on, as resolved
        // (topology included), plus the aggregation rule.
        let effective = SimulatorConfig {
            tree: topology,
            ..self.config.clone()
        };
        let spec = format!(
            "aggregator = {}\n{}",
            aggregator.name(),
            effective.to_text()
        );
        let recorded = sag_cfg.resume_from.as_ref().map(|c| c.spec.as_str());
        // Checkpoints from before the spec record (v1/v2) carry none; the
        // seed check above is all they get.
        if let Some(why) = recorded
            .filter(|r| !r.is_empty())
            .and_then(|r| resume_mismatch(r, &spec))
        {
            return Err(FlareError::Checkpoint(format!(
                "checkpoint was written under a different spec; refusing to resume \
                 (the run would diverge): {why}"
            )));
        }
        // A flat fleet is the depth-1 tree: every root child is a leaf, and
        // nothing below distinguishes it from a deeper shape except that
        // relays only exist at depth >= 2.
        let shape = topology.unwrap_or(TreeConfig {
            depth: 1,
            fanout: n.max(2),
        });
        log.info("SimulatorRunner", "Create the simulate clients.");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_cached_key(|&i| site_name(i));
        let mut counter = 0usize;
        let root_children = build_children(&order, shape.depth, shape.fanout, &mut counter);
        if topology.is_some() {
            log.info(
                "SimulatorRunner",
                format!(
                    "Aggregation tree: depth {}, fan-out {}, {counter} interior node(s), \
                     {} root child(ren) over {n} site(s).",
                    shape.depth,
                    shape.fanout,
                    root_children.len()
                ),
            );
        }
        let (mut server, root_prov) = self.node_server(&root_children, self.config.seed);
        server.set_quorum(self.config.sag.min_clients, self.config.sag.quorum_grace);
        let mut fleet = Fleet {
            plan,
            relay_seq: 0,
            leaves: Vec::with_capacity(n),
            relays: Vec::new(),
        };
        self.attach(
            &mut fleet,
            &mut server,
            &root_prov,
            &root_children,
            self.config.sag.round_timeout,
            self.config.sag.quorum_grace,
        )?;
        let Fleet {
            plan,
            mut leaves,
            relays,
            ..
        } = fleet;
        // Executors are built, and client_rounds reported, in site order
        // whatever the tree's shape.
        leaves.sort_by_key(|j| j.index);
        let has_relays = !relays.is_empty();

        let (workflow, client_rounds) = std::thread::scope(|scope| {
            let relay_handles: Vec<_> = relays
                .into_iter()
                .map(|(name, mut node)| (name, scope.spawn(move || node.run(aggregator))))
                .collect();
            let mut leaf_handles = Vec::with_capacity(n);
            for job in leaves {
                // The fault plan's `crash:S@R` items are the only crashes.
                let behavior = ClientBehavior {
                    drop_at_round: plan.crash_round(job.index),
                };
                let mut executor = make_executor(job.index, &job.package.site_name);
                let mut filters = FilterChain::new();
                if let Some(dp) = self.config.dp {
                    filters.push(Box::new(dp.filter(self.config.seed, job.index)));
                }
                filters.append(make_filters(job.index));
                if let Some(f) = aggregator.site_filter(job.index, n, self.config.seed) {
                    filters.push(f);
                }
                let clog = log.clone();
                let obs = self.obs.clone();
                let secret = dh_secret(self.config.seed, job.index as u64 + 1);
                let retry = self.config.retry;
                let wire = self
                    .config
                    .wire_overrides
                    .get(&job.index)
                    .cloned()
                    .unwrap_or_else(|| self.config.wire.clone());
                leaf_handles.push(scope.spawn(move || -> Result<u32, FlareError> {
                    let mut client = FlClient::register(job.conn, &job.package, secret, clog)?;
                    client.set_registry(obs);
                    client.set_filters(filters);
                    client.set_retry_policy(retry);
                    client.set_wire_codec(wire);
                    client.run(executor.as_mut(), behavior)
                }));
            }

            let n_root_children = root_children.len();
            let joined = server.wait_for_clients(n_root_children, Duration::from_secs(30));
            if joined < n_root_children {
                log.warn(
                    "SimulatorRunner",
                    format!("only {joined}/{n_root_children} clients registered"),
                );
            }
            if has_relays {
                let covered = server.wait_for_leaves(n, Duration::from_secs(30));
                if covered < n {
                    log.warn(
                        "SimulatorRunner",
                        format!("only {covered}/{n} leaf sites announced"),
                    );
                }
            }

            let sag = ScatterAndGather::new(sag_cfg, log.clone())
                .with_run_seed(self.config.seed)
                .with_registry(self.obs.clone())
                .with_status(self.status.clone())
                .with_abort(self.abort.clone())
                .with_spec(spec, topology);
            let workflow = sag.run(&mut server, aggregator, persistor.as_mut(), initial);

            // Stop the server BEFORE joining clients: dropping the
            // server-side connections wakes any client whose Finish frame
            // was lost to an injected fault (buffered frames still
            // deliver, so the healthy goodbye path is unaffected). Joining
            // first could deadlock on a client waiting out its full
            // receive-retry budget. Relays react by shutting their own
            // servers down, which cascades the wake-up to the leaves.
            server.shutdown();
            server.disconnect_all();

            for (name, h) in relay_handles {
                if let Err(e) = h.join().expect("relay thread panicked") {
                    log.warn("SimulatorRunner", format!("{name} exited with error: {e}"));
                }
            }
            let client_rounds: Vec<u32> = leaf_handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("client thread panicked")
                        .unwrap_or_else(|e| {
                            log.warn("SimulatorRunner", format!("client exited with error: {e}"));
                            0
                        })
                })
                .collect();
            (workflow, client_rounds)
        });
        if clinfl_obs::enabled() {
            let run_name = format!(
                "sim-{n}x{}-seed{}",
                self.config.sag.rounds, self.config.seed
            );
            match self
                .obs
                .snapshot()
                .write_artifact_tagged(&run_name, &self.artifact_tag)
            {
                Ok(path) => log.info(
                    "SimulatorRunner",
                    format!("Metrics artifact: {}", path.display()),
                ),
                Err(e) => log.warn(
                    "SimulatorRunner",
                    format!("metrics artifact write failed: {e}"),
                ),
            }
        }
        let workflow = workflow?;
        // One noised release per completed round, amplified by the
        // per-round sampling rate k/n.
        let privacy = self.config.dp.map(|dp| {
            let k = sample_count(self.config.sag.client_sample_fraction, n);
            let acc = dp.account(k as f64 / n as f64, workflow.rounds.len());
            acc.publish(&self.obs);
            (acc.epsilon(), acc.delta())
        });
        log.info("SimulatorRunner", "Simulation complete.");
        Ok(SimulationResult {
            workflow,
            client_rounds,
            log,
            privacy,
        })
    }

    /// A provisioned server for a node whose children are `children`,
    /// recording into the run's registry.
    fn node_server(&self, children: &[TreeChild], seed: u64) -> (FlServer, Provisioned) {
        let prov = Project {
            name: "simulator_server".to_string(),
            sites: children.iter().map(child_name).collect(),
            seed,
        }
        .provision();
        let mut server = FlServer::new(prov.server.clone(), self.log.clone(), seed);
        server.set_registry(self.obs.clone());
        server.set_wire_codecs_enabled(self.config.server_codecs_enabled);
        (server, prov)
    }

    /// Recursively attaches a node's children to `parent`, on the
    /// launching thread: every child gets a reactor-native session; a
    /// leaf's is fault-wrapped and queued for its client thread, while an
    /// interior child gets its own provisioned [`FlServer`], registers its
    /// uplink right away, and recurses. Relay uplinks are not
    /// fault-wrapped (the paper's faults live on site links), and each
    /// tree level shaves 10% off the round deadline so a stalled shard
    /// resolves below its parent's timeout.
    fn attach(
        &self,
        fleet: &mut Fleet,
        parent: &mut FlServer,
        prov: &Provisioned,
        children: &[TreeChild],
        timeout: Duration,
        grace: Option<Duration>,
    ) -> Result<(), FlareError> {
        for (package, child) in prov.sites.iter().zip(children) {
            let conn = parent.serve_session();
            let spec = match child {
                TreeChild::Node(spec) => spec,
                TreeChild::Leaf(index) => {
                    fleet.leaves.push(LeafJob {
                        index: *index,
                        conn: fleet.plan.wrap(&package.site_name, conn),
                        package: package.clone(),
                    });
                    continue;
                }
            };
            fleet.relay_seq += 1;
            let seq = fleet.relay_seq;
            let relay_seed = self.config.seed.wrapping_add(0xC1F7).wrapping_add(seq);
            let (mut server, node_prov) = self.node_server(&spec.children, relay_seed);
            // Re-home metrics before any child session exists: early
            // frames must not be charged to the root's `flare.server`.
            server.set_metric_namespace("flare.tree");
            let secret = dh_secret(self.config.seed, RELAY_INDEX | seq);
            let mut uplink = FlClient::register(conn, package, secret, self.log.clone())?;
            uplink.set_registry(self.obs.clone());
            uplink.set_retry_policy(self.config.retry);
            uplink.set_wire_codec(self.config.wire.clone());
            // Shaving the deadline (and halving the grace) per level keeps
            // a child's gather strictly inside its parent's window: a shard
            // always lands before the parent's own quorum grace or timeout
            // expires.
            let cfg = RelayConfig {
                registration_timeout: Duration::from_secs(30),
                round_timeout: timeout.mul_f32(0.9),
                quorum_grace: grace.map(|g| g.mul_f32(0.5)),
            };
            self.attach(
                fleet,
                &mut server,
                &node_prov,
                &spec.children,
                cfg.round_timeout,
                cfg.quorum_grace,
            )?;
            let node = AggregatorNode::new(
                spec.name.clone(),
                server,
                uplink,
                spec.children.len(),
                subtree_leaves(&spec.children),
                cfg,
                self.log.clone(),
            );
            fleet.relays.push((spec.name.clone(), node));
        }
        Ok(())
    }

    /// Convenience wrapper: healthy clients, no filters.
    ///
    /// # Errors
    ///
    /// Same as [`SimulatorRunner::run`].
    pub fn run_simple(
        &self,
        initial: Weights,
        make_executor: impl FnMut(usize, &str) -> Box<dyn Executor>,
        aggregator: &dyn Aggregator,
    ) -> Result<SimulationResult, FlareError> {
        self.run(initial, make_executor, aggregator, |_| FilterChain::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::WeightedFedAvg;
    use crate::dxo::{Dxo, WeightTensor};
    use crate::executor::{ArithmeticExecutor, TaskContext};

    fn initial() -> Weights {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![3], vec![0.0; 3]));
        w
    }

    fn sim_config(n: usize, rounds: u32) -> SimulatorConfig {
        SimulatorConfig {
            n_clients: n,
            sag: SagConfig {
                rounds,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: true,
                ..SagConfig::default()
            },
            seed: 7,
            ..SimulatorConfig::default()
        }
    }

    fn sim(n: usize, rounds: u32) -> SimulatorRunner {
        SimulatorRunner::new(sim_config(n, rounds))
    }

    #[test]
    fn full_simulation_converges_weights() {
        // Clients add 1.0 and 3.0; FedAvg weighted by n (equal) → +2/round.
        let res = sim(2, 3)
            .run_simple(
                initial(),
                |i, _| {
                    Box::new(ArithmeticExecutor {
                        delta: if i == 0 { 1.0 } else { 3.0 },
                        n_examples: 10,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        let final_w = &res.workflow.final_weights["p"];
        for v in &final_w.data {
            assert!((v - 6.0).abs() < 1e-5, "expected 6.0 got {v}");
        }
        assert_eq!(res.client_rounds, vec![3, 3]);
        assert_eq!(res.workflow.rounds.len(), 3);
    }

    #[test]
    fn log_contains_fig3_structure() {
        let res = sim(2, 1)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 1,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        for phrase in [
            "Create the simulate clients.",
            "New client site-1@127.0.0.1 joined",
            "Successfully registered client:site-2",
            "aggregating 2 update(s) at round 0",
            "Round 0 finished.",
            "Simulation complete.",
        ] {
            assert!(res.log.contains(phrase), "missing phrase {phrase:?}");
        }
    }

    #[test]
    fn dropout_client_tolerated() {
        let mut cfg = SimulatorConfig {
            n_clients: 3,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_millis(1500),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 11,
            ..SimulatorConfig::default()
        };
        cfg.apply("faults", "crash:2@1").unwrap();
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds[0].contributors.len(), 3);
        assert_eq!(res.workflow.rounds[1].contributors.len(), 2);
        // The dropped client trained exactly one round.
        assert_eq!(res.client_rounds[2], 1);
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

    #[test]
    fn straggler_still_contributes() {
        let cfg = SimulatorConfig {
            n_clients: 2,
            sag: SagConfig {
                rounds: 2,
                min_clients: 2,
                round_timeout: Duration::from_secs(10),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 13,
            ..SimulatorConfig::default()
        };
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |i, _| {
                    let ex = ArithmeticExecutor {
                        delta: 2.0,
                        n_examples: 5,
                    };
                    if i == 1 {
                        Box::new(Straggler(ex, Duration::from_millis(100)))
                    } else {
                        Box::new(ex)
                    }
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds.len(), 2);
        assert!(res
            .workflow
            .rounds
            .iter()
            .all(|r| r.contributors.len() == 2));
    }

    #[test]
    fn too_many_dropouts_abort() {
        let mut cfg = SimulatorConfig {
            n_clients: 2,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_millis(800),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 17,
            ..SimulatorConfig::default()
        };
        cfg.apply("faults", "crash:0@1,crash:1@1").unwrap();
        let err = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap_err();
        assert!(matches!(err, FlareError::NotEnoughClients { .. }));
    }

    fn exec(i: usize, _site: &str) -> Box<dyn Executor> {
        Box::new(ArithmeticExecutor {
            delta: (i + 1) as f32,
            n_examples: 10,
        })
    }

    fn ckpt_cfg(dir: &std::path::Path, rounds: u32, seed: u64) -> SimulatorConfig {
        SimulatorConfig {
            n_clients: 3,
            sag: SagConfig {
                rounds,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: true,
                ..SagConfig::default()
            },
            seed,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..SimulatorConfig::default()
        }
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("clinfl-sim-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Reference: uninterrupted 4-round run (no checkpointing at all).
        let full = sim(3, 4)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        // Interrupted: two rounds land in the checkpoint dir, the process
        // state is dropped, and a fresh runner resumes to round 4.
        SimulatorRunner::new(ckpt_cfg(&dir, 2, 7))
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let mut resume_cfg = ckpt_cfg(&dir, 4, 7);
        resume_cfg.resume = true;
        let resumed = SimulatorRunner::new(resume_cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        assert!(resumed.log.contains("Resuming at round 2"));
        assert_eq!(
            resumed.workflow.final_weights, full.workflow.final_weights,
            "resumed weights must be bit-identical to the uninterrupted run"
        );
        assert_eq!(resumed.workflow.rounds.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_wrong_seed_is_refused() {
        let dir = std::env::temp_dir().join(format!("clinfl-sim-badseed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SimulatorRunner::new(ckpt_cfg(&dir, 2, 7))
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let mut resume_cfg = ckpt_cfg(&dir, 4, 8);
        resume_cfg.resume = true;
        let err = SimulatorRunner::new(resume_cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap_err();
        assert!(
            matches!(&err, FlareError::Checkpoint(m) if m.contains("seed")),
            "unexpected error {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `dp` is part of the recorded spec: turning DP on for a resume is
    /// refused, naming the key.
    #[test]
    fn resume_with_dp_turned_on_is_refused() {
        let dir = std::env::temp_dir().join(format!("clinfl-sim-dp-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SimulatorRunner::new(ckpt_cfg(&dir, 2, 7))
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let mut resume_cfg = ckpt_cfg(&dir, 4, 7);
        resume_cfg.resume = true;
        resume_cfg.apply("dp", "clip:1").unwrap();
        let err = SimulatorRunner::new(resume_cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap_err();
        assert!(
            matches!(&err, FlareError::Checkpoint(m) if m.contains("dp: checkpoint has (unset)")),
            "unexpected error {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tree_config_parses_and_autosizes() {
        assert_eq!(
            TreeConfig::parse("2"),
            Some(TreeConfig {
                depth: 2,
                fanout: 8
            })
        );
        assert_eq!(
            TreeConfig::parse("3x4"),
            Some(TreeConfig {
                depth: 3,
                fanout: 4
            })
        );
        assert_eq!(TreeConfig::parse(""), None);
        assert_eq!(TreeConfig::parse("abc"), None);
        assert_eq!(TreeConfig::auto(8, 8).depth, 1);
        assert_eq!(TreeConfig::auto(64, 8).depth, 2);
        assert_eq!(TreeConfig::auto(65, 8).depth, 3);
        assert_eq!(TreeConfig::auto(1024, 8).depth, 4);
    }

    #[test]
    fn tree_depth2_bit_identical_to_flat() {
        // Deltas 1..8 with equal example counts: the shard means (2.5 and
        // 6.5) recombine to the flat mean 4.5 exactly in f32, so the two
        // topologies must agree bit-for-bit.
        let flat = sim(8, 3)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let cfg = SimulatorConfig {
            n_clients: 8,
            sag: SagConfig {
                rounds: 3,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: true,
                ..SagConfig::default()
            },
            seed: 7,
            tree: Some(TreeConfig {
                depth: 2,
                fanout: 4,
            }),
            ..SimulatorConfig::default()
        };
        let tree = SimulatorRunner::new(cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        assert!(tree.log.contains("Aggregation tree: depth 2"));
        assert!(tree.log.contains("aggregator node covering 4 leaf site(s)"));
        assert_eq!(
            tree.workflow.final_weights, flat.workflow.final_weights,
            "depth-2 tree must be bit-identical to the flat run"
        );
        assert_eq!(tree.client_rounds, vec![3; 8]);
        assert_eq!(
            tree.workflow.rounds[0].contributors, flat.workflow.rounds[0].contributors,
            "round summaries must stay leaf-granular"
        );
    }

    #[test]
    fn tree_tolerates_leaf_dropout() {
        let mut cfg = SimulatorConfig {
            n_clients: 4,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_secs(5),
                quorum_grace: Some(Duration::from_millis(300)),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 11,
            tree: Some(TreeConfig {
                depth: 2,
                fanout: 2,
            }),
            ..SimulatorConfig::default()
        };
        cfg.apply("faults", "crash:3@1").unwrap();
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds[0].contributors.len(), 4);
        assert_eq!(res.workflow.rounds[1].contributors.len(), 3);
        assert!(res.workflow.rounds[1]
            .dropped
            .contains(&"site-4".to_string()));
        assert_eq!(res.client_rounds[3], 1);
    }

    #[test]
    fn non_decomposable_aggregator_falls_back_to_flat() {
        use crate::aggregator::CoordinateMedian;
        let cfg = SimulatorConfig {
            n_clients: 4,
            sag: SagConfig {
                rounds: 2,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 7,
            tree: Some(TreeConfig {
                depth: 2,
                fanout: 2,
            }),
            ..SimulatorConfig::default()
        };
        let res = SimulatorRunner::new(cfg)
            .run_simple(initial(), exec, &CoordinateMedian)
            .unwrap();
        assert!(res
            .log
            .contains("does not decompose over shards; falling back to a flat topology"));
        assert_eq!(res.workflow.rounds.len(), 2);
    }

    /// `MaskedSum` brings its masks: every site's update is scaled and
    /// masked, and the masked sum recovers the mean.
    #[test]
    fn secure_aggregation_end_to_end() {
        use crate::aggregator::MaskedSum;
        let res = sim(4, 2)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 10,
                    })
                },
                &MaskedSum,
            )
            .unwrap();
        // All clients move +1 per round; masked sum must recover it.
        let final_w = &res.workflow.final_weights["p"];
        for v in &final_w.data {
            assert!((v - 2.0).abs() < 1e-2, "expected ≈2.0 got {v}");
        }
    }

    /// The `dp` key puts exactly the filter a caller used to build by hand
    /// (same clip, noise and per-site seed) in front of the site's chain,
    /// and reports the run's (ε, δ).
    #[test]
    fn dp_key_matches_a_hand_built_filter_and_reports_privacy() {
        use crate::filters::DpGaussian;
        use crate::privacy::DpAccountant;
        let dp = DpConfig {
            clip: 0.5,
            sigma: 0.1,
            delta: 1e-5,
        };
        let keyed = SimulatorRunner::new(SimulatorConfig {
            dp: Some(dp),
            ..sim_config(3, 2)
        })
        .run_simple(initial(), exec, &WeightedFedAvg)
        .unwrap();
        let by_hand = sim(3, 2)
            .run(initial(), exec, &WeightedFedAvg, |i| {
                let mut chain = FilterChain::new();
                chain.push(Box::new(DpGaussian {
                    clip_norm: 0.5,
                    sigma: 0.1,
                    seed: 7 ^ (i as u64 + 1).wrapping_mul(0xD1FF),
                }));
                chain
            })
            .unwrap();
        assert_eq!(keyed.workflow.final_weights, by_hand.workflow.final_weights);
        assert_eq!(by_hand.privacy, None);
        let mut acc = DpAccountant::new(f64::from(0.1f32), 1.0, 1e-5);
        acc.step();
        acc.step();
        assert_eq!(keyed.privacy, Some((acc.epsilon(), 1e-5)));
    }
}
