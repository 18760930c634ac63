//! Interior aggregation-tree nodes (hierarchical FedAvg relays).
//!
//! An [`AggregatorNode`] owns a downstream [`FlServer`] facing its shard
//! of children (leaf clients or deeper relays) and an upstream
//! [`FlClient`] facing its parent. Each round it rebroadcasts the
//! parent's task to its children, gathers their updates, folds them with
//! [`Aggregator::partial`] into one weighted partial update, and forwards
//! that single shard upstream via [`ClientMessage::SubmitShard`]. With
//! fan-out `f` the root therefore talks to `f` peers per round instead
//! of `n`, and a round costs `O(log n)` sequential hops.
//!
//! Failure semantics: a child that drops mid-round shrinks the shard —
//! the node re-aggregates whatever arrived before its round timeout and
//! reports the missing leaves in the shard's `dropped` list, leaving the
//! quorum decision to the root controller. An upstream disconnect after
//! at least one relayed round is treated as the server finishing the run
//! (mirroring the leaf client's graceful exit). The downstream server is
//! always shut down on the way out, so child sessions never leak.
//!
//! [`ClientMessage::SubmitShard`]: crate::messages::ClientMessage::SubmitShard

use crate::aggregator::Aggregator;
use crate::client::FlClient;
use crate::controller::{leaf_roll_call, ClientGateway, ShardMeta};
use crate::dxo::Dxo;
use crate::log::EventLog;
use crate::messages::TaskAssignment;
use crate::server::{FlServer, REGISTRATION_TIMEOUT};
use crate::FlareError;
use std::time::Duration;

/// One interior node of the aggregation tree: a server to its children,
/// a client to its parent.
pub struct AggregatorNode {
    name: String,
    server: FlServer,
    uplink: FlClient,
    n_children: usize,
    n_leaves: usize,
    /// Per-round gather deadline for the shard. Stays below the parent's
    /// round timeout (the simulator shaves 10% per tree level) so a
    /// dropped leaf stalls this node, not the whole round.
    round_timeout: Duration,
    log: EventLog,
}

impl AggregatorNode {
    /// Builds a node from an already-registered uplink client and a
    /// downstream server whose child sessions have been created. The node
    /// is named after its uplink's site.
    ///
    /// Re-homes the metric namespaces so interior traffic is separable
    /// from the root's and the leaves': the downstream server reports
    /// under `flare.tree.*`, the uplink under `flare.tree.uplink.*`.
    /// The downstream quorum is pinned to 1 — partial shards are always
    /// worth forwarding; whether the round has quorum is the root's call.
    /// `quorum_grace` closes the shard gather early, mirroring the root
    /// quorum's: once an update has arrived and no further one lands for
    /// that long. `None` waits for every leaf (or `round_timeout`).
    pub fn new(
        mut server: FlServer,
        mut uplink: FlClient,
        n_children: usize,
        n_leaves: usize,
        round_timeout: Duration,
        quorum_grace: Option<Duration>,
        log: EventLog,
    ) -> Self {
        server.set_metric_namespace("flare.tree");
        server.set_quorum(1, quorum_grace);
        uplink.set_metric_namespace("flare.tree.uplink");
        AggregatorNode {
            name: uplink.site().to_string(),
            server,
            uplink,
            n_children,
            n_leaves,
            round_timeout,
            log,
        }
    }

    /// Runs the relay loop until the parent finishes the run (or
    /// disconnects after at least one relayed round). Returns the number
    /// of training rounds relayed.
    ///
    /// # Errors
    ///
    /// Transport failures before any round completes, exhausted retry
    /// budgets, or an aggregation rule that rejects the shard. The
    /// downstream server is shut down in every case.
    pub fn run(&mut self, aggregator: &dyn Aggregator) -> Result<u32, FlareError> {
        let registered = self
            .server
            .wait_for_clients(self.n_children, REGISTRATION_TIMEOUT);
        if registered < self.n_children {
            self.log.warn(
                "AggregatorNode",
                format!(
                    "{}: only {registered}/{} children registered before timeout",
                    self.name, self.n_children
                ),
            );
        }
        // A relay child registers before it has announced its own leaf
        // set, so wait until the whole subtree's leaves are covered —
        // announcing an undercount upstream would be permanent (leaf
        // announcements ride one frame, sent once).
        let covered = self
            .server
            .wait_for_leaves(self.n_leaves, REGISTRATION_TIMEOUT);
        if covered < self.n_leaves {
            self.log.warn(
                "AggregatorNode",
                format!(
                    "{}: only {covered}/{} leaf sites announced before timeout",
                    self.name, self.n_leaves
                ),
            );
        }
        let mut leaves = self.server.leaf_sites();
        leaves.sort();
        self.log.info(
            "AggregatorNode",
            format!(
                "{}: aggregating {} child(ren) covering {} leaf site(s)",
                self.name,
                registered,
                leaves.len()
            ),
        );
        let result = self
            .uplink
            .announce_leaves(leaves.clone())
            .and_then(|()| self.relay_loop(aggregator, &leaves));
        self.server.shutdown();
        self.server.disconnect_all();
        result
    }

    fn relay_loop(
        &mut self,
        aggregator: &dyn Aggregator,
        leaves: &[String],
    ) -> Result<u32, FlareError> {
        self.uplink.negotiate_codec();
        let mut relayed = 0u32;
        loop {
            let task = match self.uplink.next_task() {
                Ok(t) => t,
                Err(FlareError::Transport(reason)) if relayed > 0 => {
                    self.log.warn(
                        "AggregatorNode",
                        format!(
                            "{}: upstream closed ({reason}); exiting after {relayed} relayed round(s)",
                            self.name
                        ),
                    );
                    return Ok(relayed);
                }
                Err(e) => return Err(e),
            };
            match &task {
                &TaskAssignment::Train {
                    round, ref weights, ..
                } => {
                    // The received task goes down as is; `weights` stays
                    // the reference for the partial fold.
                    let delivered = self.server.broadcast(&task);
                    let expected = self.server.leaf_sites().len();
                    // The parent only sends another task after closing the
                    // current round (possibly early, on quorum grace), so a
                    // pending uplink frame mid-gather proves this round is
                    // already decided upstream: abandon the gather instead
                    // of waiting out the shard timeout and relaying stale
                    // rounds forever after.
                    let server = &mut self.server;
                    let uplink = &mut self.uplink;
                    let gathered =
                        server.gather_submissions(round, expected, self.round_timeout, &mut || {
                            uplink.poll_pending_task()
                        });
                    let Some(mut gathered) = gathered else {
                        self.log.warn(
                            "AggregatorNode",
                            format!(
                                "{}: round {round} superseded upstream; abandoning gather",
                                self.name
                            ),
                        );
                        continue;
                    };
                    // Deterministic fold order regardless of arrival order.
                    gathered.sort_by(|(a, ..), (b, ..)| a.cmp(b));
                    if gathered.is_empty() {
                        self.log.warn(
                            "AggregatorNode",
                            format!(
                                "{}: no round-{round} updates from {delivered} child(ren); \
                                 skipping shard submit",
                                self.name
                            ),
                        );
                        continue;
                    }
                    let ShardMeta { sites, dropped } = leaf_roll_call(&gathered, leaves);
                    let updates: Vec<(String, Dxo)> =
                        gathered.into_iter().map(|(s, d, _)| (s, d)).collect();
                    let partial = aggregator.partial(&updates, weights)?;
                    self.log.info(
                        "AggregatorNode",
                        format!(
                            "{}: round {round}: folded {} update(s) covering {} leaf site(s)",
                            self.name,
                            updates.len(),
                            sites.len()
                        ),
                    );
                    match self.uplink.submit_shard(round, partial, sites, dropped) {
                        Ok(()) => relayed += 1,
                        // After at least one relayed round a dead uplink is
                        // the run winding down, exactly like the transport
                        // error in `next_task` below — not a node failure.
                        Err(FlareError::Transport(_) | FlareError::RetriesExhausted { .. })
                            if relayed > 0 =>
                        {
                            self.log.warn(
                                "AggregatorNode",
                                format!(
                                    "{}: upstream gone before round-{round} shard landed; \
                                     exiting after {relayed} relayed round(s)",
                                    self.name
                                ),
                            );
                            return Ok(relayed);
                        }
                        Err(e) => return Err(e),
                    }
                }
                &TaskAssignment::Validate { round, .. } => {
                    self.server.broadcast(&task);
                    let expected = self.server.leaf_sites().len();
                    let server = &mut self.server;
                    let uplink = &mut self.uplink;
                    let gathered =
                        server.gather_validations(round, expected, self.round_timeout, &mut || {
                            uplink.poll_pending_task()
                        });
                    let Some(reports) = gathered else {
                        self.log.warn(
                            "AggregatorNode",
                            format!(
                                "{}: validate round {round} superseded upstream; \
                                 abandoning gather",
                                self.name
                            ),
                        );
                        continue;
                    };
                    self.uplink.report_validate_shard(round, reports)?;
                }
                TaskAssignment::Finish => {
                    self.server.broadcast(&TaskAssignment::Finish);
                    self.uplink.send_bye();
                    return Ok(relayed);
                }
                TaskAssignment::TrainEnc { .. } | TaskAssignment::ValidateEnc { .. } => {
                    unreachable!("encoded tasks decoded in next_task")
                }
            }
        }
    }
}
