//! The ScatterAndGather workflow controller (NVFlare's SAG, shown in the
//! paper's Fig. 3 round loop).

use crate::aggregator::Aggregator;
use crate::checkpoint::RunCheckpoint;
use crate::dxo::{Dxo, Weights};
use crate::log::EventLog;
use crate::messages::TaskAssignment;
use crate::persistor::Persistor;
use crate::simulator::TreeConfig;
use crate::FlareError;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-side view of the client fleet, implemented by
/// [`crate::server::FlServer`] and by the controller tests' mock.
pub trait ClientGateway {
    /// All leaf sites reachable through the alive clients: a leaf client
    /// is its own site, an interior aggregator node stands for the leaves
    /// it announced.
    fn leaf_sites(&self) -> Vec<String>;

    /// Sends a task to every alive client; returns the delivered count.
    fn broadcast(&mut self, task: &TaskAssignment) -> usize;

    /// Sends a task to the named subset of sites only (sampled rounds),
    /// returning the delivered count: an unsampled site never receives
    /// the round's weights, so it never submits for the round.
    fn send_to(&mut self, sites: &[String], task: &TaskAssignment) -> usize;

    /// Gathers model updates for `round` until `expected` leaf sites are
    /// covered, `timeout` elapses, or the quorum grace closes the round.
    /// Each update comes as `(child, update, the leaves it covers)`: a
    /// leaf's own update is a one-leaf shard (see [`leaf_roll_call`]).
    /// Returns `None` — abandoning the gather — once `cancel` reports
    /// `true`: the controller passes its abort flag, an interior tree
    /// node a probe that its parent has already moved on.
    /// [`crate::server::FlServer`] consults `cancel` between wait slices
    /// of [`crate::server::GATHER_SLICE`].
    fn gather_submissions(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, Dxo, ShardMeta)>>;

    /// The validation-phase twin of [`ClientGateway::gather_submissions`]:
    /// one `(leaf site, metric)` pair per reporting leaf.
    fn gather_validations(
        &mut self,
        round: u32,
        expected: usize,
        timeout: Duration,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<(String, f64)>>;
}

/// The deterministic per-round client sample: a Fisher–Yates shuffle of
/// the sorted site list driven by a splitmix64 stream keyed on
/// `(run_seed, round)`, keeping the first `ceil(fraction · n)` names
/// (clamped to `[1, n]`) and re-sorting them so aggregation order stays
/// name-stable. A pure function of its arguments — the same run seed
/// replays the same participant schedule, which is what lets sampling
/// compose with crash-resume.
pub fn sample_sites(run_seed: u64, round: u32, fraction: f64, sites: &[String]) -> Vec<String> {
    let n = sites.len();
    if n == 0 || fraction >= 1.0 {
        return sites.to_vec();
    }
    let k = sample_count(fraction, n);
    let mut order: Vec<usize> = (0..n).collect();
    let mut state =
        run_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_5A3B_1E55_0113;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut chosen: Vec<String> = order[..k].iter().map(|&i| sites[i].clone()).collect();
    chosen.sort();
    chosen
}

/// How many of `n` sites a round at sampling `fraction` trains:
/// `ceil(fraction · n)`, at least one and at most all of them.
pub fn sample_count(fraction: f64, n: usize) -> usize {
    ((fraction.max(0.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-leaf bookkeeping for one gathered update: which leaf sites it
/// folds in (with their training metrics), and which leaves its sender
/// expected but lost. A leaf's own update is a one-leaf shard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardMeta {
    /// `(leaf site, training metrics)` pairs folded into the update.
    pub sites: Vec<(String, BTreeMap<String, f64>)>,
    /// Leaf sites the sender expected but did not hear from.
    pub dropped: Vec<String>,
}

impl ShardMeta {
    /// The bookkeeping of a leaf's own update.
    pub fn leaf(site: &str, metrics: &BTreeMap<String, f64>) -> Self {
        ShardMeta {
            sites: vec![(site.to_string(), metrics.clone())],
            dropped: Vec::new(),
        }
    }
}

/// The leaf-granular view of a gather, the same for flat and tree rounds:
/// every leaf the updates cover, with its training metrics, sorted by
/// leaf name, and the `expected` leaves that none of them covers.
pub fn leaf_roll_call(updates: &[(String, Dxo, ShardMeta)], expected: &[String]) -> ShardMeta {
    let mut sites: Vec<(String, BTreeMap<String, f64>)> = updates
        .iter()
        .flat_map(|(_, _, meta)| meta.sites.iter().cloned())
        .collect();
    sites.sort_by(|(a, _), (b, _)| a.cmp(b));
    let covered: BTreeSet<&String> = sites.iter().map(|(s, _)| s).collect();
    let dropped = expected
        .iter()
        .filter(|s| !covered.contains(s))
        .cloned()
        .collect();
    ShardMeta { sites, dropped }
}

/// Configuration of the ScatterAndGather workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct SagConfig {
    /// Number of communication rounds `E`.
    pub rounds: u32,
    /// Minimum client updates needed to aggregate a round.
    pub min_clients: usize,
    /// Deadline for gathering one round's updates.
    pub round_timeout: Duration,
    /// Whether to run a client-side validation pass on each new global
    /// model (the paper validates the aggregated model every round).
    pub validate_global: bool,
    /// Once `min_clients` submissions have arrived, close the round this
    /// long after the last accepted submission instead of waiting out the
    /// full `round_timeout`. `None` waits for every expected client.
    pub quorum_grace: Option<Duration>,
    /// Restart from this checkpoint instead of round 0: the controller
    /// restores the global weights, completed round summaries, and
    /// best-metric state, then continues at `next_round`. The `initial`
    /// weights passed to [`ScatterAndGather::run`] are ignored.
    pub resume_from: Option<RunCheckpoint>,
    /// Fraction of leaf sites trained per round (FedAvg client sampling).
    /// Each round a deterministic subset of `ceil(fraction · n)` sites —
    /// a pure function of `(run_seed, round)`, see [`sample_sites`] — is
    /// scattered to and gathered from; quorum, drop bookkeeping, and
    /// round summaries are computed against the sampled set. Validation
    /// still broadcasts to the whole fleet. `>= 1.0` (the default)
    /// disables sampling entirely and takes the exact legacy code path.
    pub client_sample_fraction: f64,
}

impl Default for SagConfig {
    fn default() -> Self {
        SagConfig {
            rounds: 10,
            min_clients: 1,
            round_timeout: Duration::from_secs(600),
            validate_global: true,
            quorum_grace: None,
            resume_from: None,
            client_sample_fraction: 1.0,
        }
    }
}

/// Outcome of one round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: u32,
    /// Sites whose updates were aggregated.
    pub contributors: Vec<String>,
    /// Per-site training metrics reported with the updates.
    pub client_metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// Mean validation metric of the aggregated global model (if
    /// `validate_global`).
    pub global_metric: Option<f64>,
    /// Sites that were expected at the start of the round but missed it
    /// (crashed, stalled past the deadline, or lost their update frame).
    pub dropped: Vec<String>,
}

/// Result of a completed workflow.
#[derive(Clone, Debug)]
pub struct WorkflowResult {
    /// The final aggregated global model.
    pub final_weights: Weights,
    /// Per-round summaries.
    pub rounds: Vec<RoundSummary>,
}

impl WorkflowResult {
    /// The last round's global validation metric, if any.
    pub fn final_metric(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.global_metric)
    }

    /// The best global validation metric across rounds, if any.
    pub fn best_metric(&self) -> Option<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.global_metric)
            .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
    }
}

/// The ScatterAndGather controller: for each round, scatter the global
/// model, gather client updates, aggregate, persist, optionally validate.
#[derive(Debug)]
pub struct ScatterAndGather {
    config: SagConfig,
    log: EventLog,
    status: crate::admin::RunStatus,
    run_seed: u64,
    spec: String,
    tree_depth: u32,
    tree_fanout: u32,
    obs: clinfl_obs::Registry,
    abort: Option<Arc<AtomicBool>>,
}

impl ScatterAndGather {
    /// Creates the controller.
    pub fn new(config: SagConfig, log: EventLog) -> Self {
        ScatterAndGather {
            config,
            log,
            status: crate::admin::RunStatus::new(),
            run_seed: 0,
            spec: String::new(),
            tree_depth: 0,
            tree_fanout: 0,
            obs: clinfl_obs::Registry::global(),
            abort: None,
        }
    }

    /// Records the run's effective spec text (see [`crate::spec`]) and
    /// its resolved aggregation-tree topology in every [`RunCheckpoint`],
    /// so a resume under a different spec can be refused and a resumed
    /// run can stand the same tree back up. `None` means a flat fleet,
    /// stamped `(0, 0)`.
    pub fn with_spec(mut self, spec: String, topology: Option<TreeConfig>) -> Self {
        (self.tree_depth, self.tree_fanout) =
            topology.map_or((0, 0), |t| (t.depth, t.fanout as u32));
        self.spec = spec;
        self
    }

    /// Attaches a shared [`crate::admin::RunStatus`] that the run keeps
    /// at its current phase and latest global metric.
    pub fn with_status(mut self, status: crate::admin::RunStatus) -> Self {
        self.status = status;
        self
    }

    /// Records the run seed stamped into every [`RunCheckpoint`], so a
    /// resume under a different seed (and thus a different fault/data
    /// schedule) can be refused.
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.run_seed = seed;
        self
    }

    /// Scopes the controller's metrics (`flare.round.*`,
    /// `flare.checkpoint.*`) to `obs` instead of the process-global
    /// registry, so concurrent jobs keep separate counts.
    pub fn with_registry(mut self, obs: clinfl_obs::Registry) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches an abort flag. Once set, the run stops at the next
    /// check — round start, mid-gather (the gateway's `cancel` probe),
    /// or before validation — broadcasts `Finish`, marks the status
    /// [`crate::admin::RunPhase::Aborted`], and returns
    /// [`FlareError::Aborted`].
    pub fn with_abort(mut self, abort: Arc<AtomicBool>) -> Self {
        self.abort = Some(abort);
        self
    }

    fn abort_requested(&self) -> bool {
        self.abort
            .as_ref()
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Winds the run down after an operator abort: tells clients to
    /// finish so their threads exit promptly, then surfaces the abort.
    fn finish_aborted(&self, gateway: &mut dyn ClientGateway, tag: &str, round: u32) -> FlareError {
        gateway.broadcast(&TaskAssignment::Finish);
        self.status.set_phase(crate::admin::RunPhase::Aborted);
        self.obs.add_counter("flare.run.aborted", 1);
        self.log
            .warn(tag, format!("Run aborted by operator at round {round}."));
        FlareError::Aborted
    }

    /// Runs the full workflow to completion.
    ///
    /// # Errors
    ///
    /// [`FlareError::NotEnoughClients`] if any round gathers fewer than
    /// `min_clients` updates before the timeout.
    pub fn run(
        &self,
        gateway: &mut dyn ClientGateway,
        aggregator: &dyn Aggregator,
        persistor: &mut dyn Persistor,
        initial: Weights,
    ) -> Result<WorkflowResult, FlareError> {
        let tag = "ScatterAndGather";
        let mut global = initial;
        let mut rounds = Vec::new();
        let mut best_metric: Option<f64> = None;
        let mut best_round: Option<u32> = None;
        let mut start_round = 0u32;
        if let Some(ckpt) = &self.config.resume_from {
            global = ckpt.global.clone();
            rounds = ckpt.rounds.clone();
            best_metric = ckpt.best_metric;
            best_round = ckpt.best_round;
            start_round = ckpt.next_round;
            self.log.info(
                tag,
                format!(
                    "Resuming at round {start_round} of {} from checkpoint (run seed {}).",
                    self.config.rounds, ckpt.seed
                ),
            );
            self.obs.add_counter("flare.checkpoint.resumed", 1);
        }
        for round in start_round..self.config.rounds {
            if self.abort_requested() {
                return Err(self.finish_aborted(gateway, tag, round));
            }
            let _round_span = clinfl_obs::span("round");
            let round_started = std::time::Instant::now();
            self.status.set_phase(crate::admin::RunPhase::Training {
                round,
                total: self.config.rounds,
            });
            self.log.info(tag, format!("Round {round} started."));
            let mut expected_sites = gateway.leaf_sites();
            expected_sites.sort();
            // Per-round client sampling: restrict this round's scatter and
            // gather to a deterministic subset. `sampling = false` keeps
            // the exact legacy path (bit-identical runs).
            let sampling = self.config.client_sample_fraction < 1.0;
            if sampling {
                let all = expected_sites.len();
                expected_sites = sample_sites(
                    self.run_seed,
                    round,
                    self.config.client_sample_fraction,
                    &expected_sites,
                );
                self.log.info(
                    tag,
                    format!(
                        "Sampled {}/{all} site(s) for round {round}: {:?}",
                        expected_sites.len(),
                        expected_sites
                    ),
                );
                self.obs
                    .add_counter("flare.round.sampled", expected_sites.len() as u64);
            }
            let expected = expected_sites.len();
            let train = TaskAssignment::Train {
                round,
                total_rounds: self.config.rounds,
                weights: global.clone(),
            };
            let sent = if sampling {
                gateway.send_to(&expected_sites, &train)
            } else {
                gateway.broadcast(&train)
            };
            self.log
                .info(tag, format!("Scattered global model to {sent} client(s)."));
            let mut cancel = || self.abort_requested();
            let Some(mut gathered) =
                gateway.gather_submissions(round, expected, self.config.round_timeout, &mut cancel)
            else {
                return Err(self.finish_aborted(gateway, tag, round));
            };
            // Sites train concurrently and submit in arrival order; sort by
            // site name so aggregation order (and the floating-point result)
            // is independent of the thread schedule.
            gathered.sort_by(|(a, ..), (b, ..)| a.cmp(b));
            // Leaf-granular view: quorum, drop bookkeeping, and round
            // summaries are expressed in leaf sites, whether an update is a
            // leaf's own or an interior shard covering several leaves.
            let ShardMeta {
                sites: leaf_updates,
                dropped,
            } = leaf_roll_call(&gathered, &expected_sites);
            for (site, _) in &leaf_updates {
                self.log
                    .info(tag, format!("Contribution from {site} received."));
            }
            for site in &dropped {
                self.log
                    .warn(tag, format!("{site} missed round {round}; marked dropped."));
            }
            if !dropped.is_empty() && leaf_updates.len() >= self.config.min_clients {
                self.log.info(
                    tag,
                    format!(
                        "Quorum met at round {round}: {}/{expected} update(s) (min_clients {}).",
                        leaf_updates.len(),
                        self.config.min_clients
                    ),
                );
            }
            self.status
                .set_phase(crate::admin::RunPhase::Aggregating { round });
            if leaf_updates.len() < self.config.min_clients {
                self.status.set_phase(crate::admin::RunPhase::Aborted);
                self.log.warn(
                    tag,
                    format!(
                        "Round {round} aborted: {} update(s) < min_clients {}",
                        leaf_updates.len(),
                        self.config.min_clients
                    ),
                );
                return Err(FlareError::NotEnoughClients {
                    got: leaf_updates.len(),
                    needed: self.config.min_clients,
                });
            }
            self.log.info(
                tag,
                format!(
                    "aggregating {} update(s) at round {round} [{}]",
                    leaf_updates.len(),
                    aggregator.name()
                ),
            );
            let updates: Vec<(String, Dxo)> =
                gathered.into_iter().map(|(s, d, _)| (s, d)).collect();
            global = aggregator.aggregate(&updates, &global)?;
            self.log.info(tag, "End aggregation.");

            let global_metric = if self.config.validate_global {
                if self.abort_requested() {
                    return Err(self.finish_aborted(gateway, tag, round));
                }
                let expected = gateway.leaf_sites().len();
                gateway.broadcast(&TaskAssignment::Validate {
                    round,
                    weights: global.clone(),
                });
                let Some(mut reports) = gateway.gather_validations(
                    round,
                    expected,
                    self.config.round_timeout,
                    &mut cancel,
                ) else {
                    return Err(self.finish_aborted(gateway, tag, round));
                };
                reports.sort_by(|(a, _), (b, _)| a.cmp(b));
                if reports.is_empty() {
                    None
                } else {
                    // Each validator scored its shard of the shared split
                    // and scaled it by the roster size, so the mean over a
                    // full roster is the full-split metric.
                    let mean = reports.iter().map(|(_, m)| m).sum::<f64>() / reports.len() as f64;
                    self.status.set_metric(mean);
                    let got = reports.len();
                    self.log.info(
                        tag,
                        format!("Global model metric={mean:.3} over {got}/{expected} validator(s)"),
                    );
                    if got < expected {
                        self.log.warn(
                            tag,
                            format!(
                                "Round {round} validation covered {got}/{expected} shard(s); \
                                 the metric extrapolates from them"
                            ),
                        );
                    }
                    Some(mean)
                }
            } else {
                None
            };

            self.log.info(tag, "Start persist model on server.");
            persistor.save(round, &global, global_metric);
            self.log.info(tag, "End persist model on server.");
            self.log.info(tag, format!("Round {round} finished."));

            self.obs.record_histogram(
                "flare.round.time_ns",
                round_started.elapsed().as_nanos() as u64,
            );
            self.obs.add_counter("flare.round.count", 1);
            self.obs
                .add_counter("flare.round.dropped", dropped.len() as u64);
            rounds.push(RoundSummary {
                round,
                contributors: leaf_updates.iter().map(|(s, _)| s.clone()).collect(),
                client_metrics: leaf_updates.iter().cloned().collect(),
                global_metric,
                dropped,
            });
            if let Some(m) = global_metric {
                if best_metric.map(|b| m > b).unwrap_or(true) {
                    best_metric = Some(m);
                    best_round = Some(round);
                }
            }
            persistor.save_checkpoint(&RunCheckpoint {
                seed: self.run_seed,
                next_round: round + 1,
                total_rounds: self.config.rounds,
                global: global.clone(),
                rounds: rounds.clone(),
                best_metric,
                best_round,
                tree_depth: self.tree_depth,
                tree_fanout: self.tree_fanout,
                spec: self.spec.clone(),
            });
            self.obs.add_counter("flare.checkpoint.saved", 1);
        }
        gateway.broadcast(&TaskAssignment::Finish);
        self.status.set_phase(crate::admin::RunPhase::Finished);
        self.log.info(tag, "Workflow finished; Finish broadcast.");
        Ok(WorkflowResult {
            final_weights: global,
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::WeightedFedAvg;
    use crate::dxo::WeightTensor;
    use crate::persistor::InMemoryPersistor;

    /// A mock fleet: every client adds its `delta` to the global weights.
    struct MockGateway {
        deltas: Vec<f32>,
        /// Clients that stop responding from a given round on.
        dead_from: Vec<Option<u32>>,
        current_global: Weights,
        pending_round: Option<u32>,
        /// The sites the last `send_to` named; `None` after a broadcast.
        targets: Option<Vec<String>>,
        /// `Finish` broadcasts seen.
        finishes: usize,
        /// Abort flag to flip while gathering this round's validations.
        abort: Option<Arc<AtomicBool>>,
        abort_during_validation: Option<u32>,
    }

    impl MockGateway {
        fn new(deltas: Vec<f32>) -> Self {
            let n = deltas.len();
            MockGateway {
                deltas,
                dead_from: vec![None; n],
                current_global: Weights::new(),
                pending_round: None,
                targets: None,
                finishes: 0,
                abort: None,
                abort_during_validation: None,
            }
        }
    }

    impl ClientGateway for MockGateway {
        fn leaf_sites(&self) -> Vec<String> {
            (0..self.deltas.len())
                .map(|i| format!("site-{}", i + 1))
                .collect()
        }

        fn send_to(&mut self, sites: &[String], task: &TaskAssignment) -> usize {
            self.broadcast(task);
            self.targets = Some(sites.to_vec());
            sites.len()
        }

        fn broadcast(&mut self, task: &TaskAssignment) -> usize {
            self.targets = None;
            match task {
                TaskAssignment::Train { round, weights, .. } => {
                    self.current_global = weights.clone();
                    self.pending_round = Some(*round);
                }
                TaskAssignment::Finish => self.finishes += 1,
                _ => {}
            }
            self.deltas.len()
        }

        fn gather_submissions(
            &mut self,
            round: u32,
            _expected: usize,
            _timeout: Duration,
            cancel: &mut dyn FnMut() -> bool,
        ) -> Option<Vec<(String, Dxo, ShardMeta)>> {
            if cancel() {
                return None;
            }
            assert_eq!(self.pending_round, Some(round));
            let updates = self
                .deltas
                .iter()
                .enumerate()
                .filter(|(i, _)| self.dead_from[*i].map(|d| round < d).unwrap_or(true))
                .map(|(i, &d)| (format!("site-{}", i + 1), d))
                .filter(|(site, _)| self.targets.as_ref().is_none_or(|t| t.contains(site)))
                .map(|(site, d)| {
                    let mut w = self.current_global.clone();
                    for t in w.values_mut() {
                        for v in t.data.iter_mut() {
                            *v += d;
                        }
                    }
                    let meta = ShardMeta::leaf(&site, &BTreeMap::new());
                    (site, Dxo::from_weights(w, 10), meta)
                })
                .collect();
            Some(updates)
        }

        fn gather_validations(
            &mut self,
            round: u32,
            expected: usize,
            _timeout: Duration,
            cancel: &mut dyn FnMut() -> bool,
        ) -> Option<Vec<(String, f64)>> {
            // An operator abort landing while reports are in flight.
            if self.abort_during_validation == Some(round) {
                if let Some(flag) = &self.abort {
                    flag.store(true, Ordering::Relaxed);
                }
            }
            if cancel() {
                return None;
            }
            Some(
                (0..expected)
                    .map(|i| (format!("site-{}", i + 1), 0.5))
                    .collect(),
            )
        }
    }

    fn initial() -> Weights {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![2], vec![0.0, 0.0]));
        w
    }

    #[test]
    fn full_run_aggregates_each_round() {
        let mut gw = MockGateway::new(vec![1.0, 3.0]);
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 4,
                min_clients: 2,
                validate_global: true,
                ..SagConfig::default()
            },
            EventLog::new(),
        );
        let mut pers = InMemoryPersistor::new();
        let res = sag
            .run(&mut gw, &WeightedFedAvg, &mut pers, initial())
            .unwrap();
        // Each round adds mean(1,3) = 2 to every weight.
        assert_eq!(res.final_weights["p"].data, vec![8.0, 8.0]);
        assert_eq!(res.rounds.len(), 4);
        assert_eq!(res.final_metric(), Some(0.5));
        assert!(pers.latest().is_some());
    }

    #[test]
    fn abort_during_validation_gather_stops_before_checkpoint() {
        let abort = Arc::new(AtomicBool::new(false));
        let mut gw = MockGateway::new(vec![1.0, 3.0]);
        gw.abort = Some(abort.clone());
        gw.abort_during_validation = Some(1);
        let obs = clinfl_obs::Registry::new();
        let status = crate::admin::RunStatus::new();
        let mut pers = InMemoryPersistor::new();
        let err = ScatterAndGather::new(
            SagConfig {
                rounds: 3,
                min_clients: 2,
                validate_global: true,
                ..SagConfig::default()
            },
            EventLog::new(),
        )
        .with_registry(obs.clone())
        .with_status(status.clone())
        .with_abort(abort)
        .run(&mut gw, &WeightedFedAvg, &mut pers, initial())
        .unwrap_err();
        assert!(matches!(err, FlareError::Aborted), "{err}");
        assert_eq!(gw.finishes, 1, "abort must broadcast Finish exactly once");
        assert_eq!(obs.counter_value("flare.run.aborted"), 1);
        assert_eq!(status.phase(), crate::admin::RunPhase::Aborted);
        // Round 0 completed; the aborted round 1 left no checkpoint.
        let ckpt = pers.load_checkpoint().expect("round 0 checkpoint");
        assert_eq!(ckpt.next_round, 1);
        assert_eq!(ckpt.rounds.len(), 1);
    }

    #[test]
    fn tolerates_dropout_above_min_clients() {
        let mut gw = MockGateway::new(vec![1.0, 1.0, 1.0]);
        gw.dead_from[2] = Some(1); // site-3 dies after round 0
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 3,
                min_clients: 2,
                validate_global: false,
                ..SagConfig::default()
            },
            EventLog::new(),
        );
        let res = sag
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap();
        assert_eq!(res.rounds[0].contributors.len(), 3);
        assert_eq!(res.rounds[1].contributors.len(), 2);
        assert_eq!(res.rounds[2].contributors.len(), 2);
        assert!(res.rounds[0].dropped.is_empty());
        assert_eq!(res.rounds[1].dropped, vec!["site-3".to_string()]);
        assert_eq!(res.rounds[2].dropped, vec!["site-3".to_string()]);
    }

    #[test]
    fn aborts_below_min_clients() {
        let mut gw = MockGateway::new(vec![1.0, 1.0]);
        gw.dead_from = vec![Some(1), Some(1)];
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 3,
                min_clients: 1,
                validate_global: false,
                ..SagConfig::default()
            },
            EventLog::new(),
        );
        let err = sag
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            FlareError::NotEnoughClients { got: 0, needed: 1 }
        ));
    }

    #[test]
    fn log_mirrors_fig3_phrases() {
        let log = EventLog::new();
        let mut gw = MockGateway::new(vec![1.0]);
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 1,
                min_clients: 1,
                validate_global: false,
                ..SagConfig::default()
            },
            log.clone(),
        );
        sag.run(
            &mut gw,
            &WeightedFedAvg,
            &mut InMemoryPersistor::new(),
            initial(),
        )
        .unwrap();
        for phrase in [
            "Round 0 started.",
            "aggregating 1 update(s) at round 0",
            "End aggregation.",
            "Start persist model on server.",
            "End persist model on server.",
            "Round 0 finished.",
        ] {
            assert!(log.contains(phrase), "missing log phrase {phrase:?}");
        }
    }

    #[test]
    fn status_reflects_run_lifecycle() {
        use crate::admin::{RunPhase, RunStatus};
        let status = RunStatus::new();
        let mut gw = MockGateway::new(vec![1.0, 2.0]);
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 2,
                min_clients: 1,
                validate_global: true,
                ..SagConfig::default()
            },
            EventLog::new(),
        )
        .with_status(status.clone());
        sag.run(
            &mut gw,
            &WeightedFedAvg,
            &mut InMemoryPersistor::new(),
            initial(),
        )
        .unwrap();
        assert_eq!(status.phase(), RunPhase::Finished);
        assert_eq!(status.last_metric(), Some(0.5));
    }

    #[test]
    fn resume_continues_at_next_round_bit_identically() {
        let cfg = |rounds| SagConfig {
            rounds,
            min_clients: 2,
            validate_global: true,
            ..SagConfig::default()
        };
        // Reference: an uninterrupted 4-round run.
        let mut gw = MockGateway::new(vec![1.0, 3.0]);
        let full = ScatterAndGather::new(cfg(4), EventLog::new())
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap();

        // Interrupted: run two rounds, "crash", resume from the checkpoint.
        let mut gw = MockGateway::new(vec![1.0, 3.0]);
        let mut pers = InMemoryPersistor::new();
        ScatterAndGather::new(cfg(2), EventLog::new())
            .with_run_seed(42)
            .run(&mut gw, &WeightedFedAvg, &mut pers, initial())
            .unwrap();
        let ckpt = pers.load_checkpoint().unwrap();
        assert_eq!(ckpt.next_round, 2);
        assert_eq!(ckpt.seed, 42);
        assert_eq!(ckpt.rounds.len(), 2);

        let mut gw = MockGateway::new(vec![1.0, 3.0]);
        let log = EventLog::new();
        let resumed = ScatterAndGather::new(
            SagConfig {
                resume_from: Some(ckpt),
                ..cfg(4)
            },
            log.clone(),
        )
        .run(&mut gw, &WeightedFedAvg, &mut pers, Weights::new())
        .unwrap();
        assert!(log.contains("Resuming at round 2"));
        assert_eq!(resumed.final_weights, full.final_weights);
        assert_eq!(resumed.rounds.len(), 4);
        assert_eq!(
            resumed.rounds.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // The resumed run's final checkpoint covers all four rounds.
        let final_ckpt = pers.load_checkpoint().unwrap();
        assert_eq!(final_ckpt.next_round, 4);
        assert_eq!(final_ckpt.rounds.len(), 4);
        assert_eq!(final_ckpt.best_metric, Some(0.5));
    }

    #[test]
    fn sample_sites_is_deterministic_and_bounded() {
        let sites: Vec<String> = (1..=8).map(|i| format!("site-{i}")).collect();
        let a = sample_sites(42, 3, 0.5, &sites);
        let b = sample_sites(42, 3, 0.5, &sites);
        assert_eq!(a, b, "same (seed, round, fraction) must agree");
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted: {a:?}");
        assert!(a.iter().all(|s| sites.contains(s)));
        // Different rounds pick different subsets (with 70 possible
        // 4-of-8 subsets, 5 identical consecutive draws would be a bug).
        let distinct: std::collections::BTreeSet<Vec<String>> =
            (0..5).map(|r| sample_sites(42, r, 0.5, &sites)).collect();
        assert!(distinct.len() > 1, "sampling never varied across rounds");
        // Fraction >= 1 and tiny fractions clamp sanely.
        assert_eq!(sample_sites(42, 0, 1.0, &sites), sites);
        assert_eq!(sample_sites(42, 0, 0.01, &sites).len(), 1);
    }

    #[test]
    fn sampling_restricts_contributors_to_the_sampled_set() {
        // MockGateway's `send_to` reaches only the named sites, so only
        // the sampled subset trains and contributes.
        let mut gw = MockGateway::new(vec![1.0, 2.0, 3.0, 4.0]);
        let sag = ScatterAndGather::new(
            SagConfig {
                rounds: 4,
                min_clients: 1,
                validate_global: false,
                client_sample_fraction: 0.5,
                ..SagConfig::default()
            },
            EventLog::new(),
        )
        .with_run_seed(7);
        let res = sag
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap();
        let all: Vec<String> = (1..=4).map(|i| format!("site-{i}")).collect();
        for r in &res.rounds {
            assert_eq!(
                r.contributors.len(),
                2,
                "round {}: {:?}",
                r.round,
                r.contributors
            );
            assert_eq!(
                r.contributors,
                sample_sites(7, r.round, 0.5, &all),
                "contributors must equal the deterministic sample"
            );
            assert!(r.dropped.is_empty(), "healthy sampled sites never drop");
        }
    }

    #[test]
    fn fraction_one_matches_unsampled_run_bitwise() {
        let run = |fraction: f64| {
            let mut gw = MockGateway::new(vec![1.0, 3.0, 5.0]);
            ScatterAndGather::new(
                SagConfig {
                    rounds: 3,
                    min_clients: 3,
                    validate_global: true,
                    client_sample_fraction: fraction,
                    ..SagConfig::default()
                },
                EventLog::new(),
            )
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap()
        };
        let flat = run(1.0);
        let above = run(2.0); // any >= 1.0 is "off"
        assert_eq!(flat.final_weights, above.final_weights);
        assert_eq!(flat.rounds, above.rounds);
    }

    #[test]
    fn sampled_run_resumes_bit_identically() {
        let cfg = |rounds| SagConfig {
            rounds,
            min_clients: 1,
            validate_global: true,
            client_sample_fraction: 0.5,
            ..SagConfig::default()
        };
        // Reference: uninterrupted 4-round sampled run.
        let mut gw = MockGateway::new(vec![1.0, 3.0, 5.0, 7.0]);
        let full = ScatterAndGather::new(cfg(4), EventLog::new())
            .with_run_seed(42)
            .run(
                &mut gw,
                &WeightedFedAvg,
                &mut InMemoryPersistor::new(),
                initial(),
            )
            .unwrap();
        // Interrupted at round 2, resumed under the same run seed: the
        // sample schedule is a pure function of (seed, round), so the
        // resumed rounds pick the same subsets.
        let mut gw = MockGateway::new(vec![1.0, 3.0, 5.0, 7.0]);
        let mut pers = InMemoryPersistor::new();
        ScatterAndGather::new(cfg(2), EventLog::new())
            .with_run_seed(42)
            .run(&mut gw, &WeightedFedAvg, &mut pers, initial())
            .unwrap();
        let ckpt = pers.load_checkpoint().unwrap();
        let mut gw = MockGateway::new(vec![1.0, 3.0, 5.0, 7.0]);
        let resumed = ScatterAndGather::new(
            SagConfig {
                resume_from: Some(ckpt),
                ..cfg(4)
            },
            EventLog::new(),
        )
        .with_run_seed(42)
        .run(&mut gw, &WeightedFedAvg, &mut pers, Weights::new())
        .unwrap();
        assert_eq!(resumed.final_weights, full.final_weights);
        assert_eq!(resumed.rounds, full.rounds);
    }

    #[test]
    fn best_metric_tracks_max() {
        let r = |round, m| RoundSummary {
            round,
            contributors: vec![],
            client_metrics: BTreeMap::new(),
            global_metric: m,
            dropped: vec![],
        };
        let res = WorkflowResult {
            final_weights: Weights::new(),
            rounds: vec![
                r(0, Some(0.4)),
                r(1, Some(0.9)),
                r(2, Some(0.7)),
                r(3, None),
            ],
        };
        assert_eq!(res.best_metric(), Some(0.9));
        assert_eq!(res.final_metric(), Some(0.7));
    }
}
