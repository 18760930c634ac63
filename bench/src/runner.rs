//! Runs one workload for a time budget and turns what the probes saw into
//! the metric tables of `report.rs`.
//!
//! A run is one federation of the workload — set-up, warm-up rounds, then
//! the measured rounds the time budget pays for — followed by a few more
//! set-ups of the same federation that scatter nothing, so that `setup_s`
//! is a median. The round count is a function of the workload and the
//! budget alone: a faster build finishes sooner, it does not do more work,
//! and every count and every final weight repeats exactly per seed.

use crate::adapter::{self, gib_per_s, Counters, Edge, Probes, Replay, SetupParts, Weights};
use crate::report::{Check, Metrics};
use crate::stats::{median, p_high};
use crate::trace::{self, Span, LANE_MAIN};
use crate::workloads::{Schedule, Shape, Workload, N_SITES};
use std::path::PathBuf;

/// Set-ups per run: the federation that runs the rounds and four more
/// that stop at the first scatter.
const SETUPS: usize = 5;

/// Where the traced pass writes its spans and where workloads that persist
/// to disk keep their checkpoints while they run.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct RunReport {
    pub schedule: Schedule,
    pub end_to_end: Metrics,
    /// Empty on an untraced run.
    pub per_layer: Metrics,
    pub checks: Vec<Check>,
    /// Site-rounds attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// `(percentile, seconds)` of the highest round time with at least ten
    /// samples beyond it, and the sample count. Printed, not gated.
    pub round_p_hi: (f64, f64),
    pub round_samples: usize,
}

/// One federation, from an empty process state to its last round.
struct Federation {
    setup_s: f64,
    /// Process CPU time spent before the first scatter.
    setup_cpu_s: f64,
    parts: SetupParts,
    /// Edge `k` ends round `k - 1` and starts round `k`.
    edges: Vec<Edge>,
    failed: u64,
    final_weights: Weights,
    last_global_metric: Option<f64>,
    steps_per_round: u64,
    probes: std::sync::Arc<Probes>,
    step_batch: adapter::StepBatch,
}

fn federate(
    w: &Workload,
    seed: u64,
    rounds: u32,
    trace_from: Option<u32>,
    tag: usize,
) -> Result<Federation, String> {
    let started = std::time::Instant::now();
    let started_cpu = crate::sys::process_cpu_s();
    let prepared = adapter::prepare(w, seed, rounds);
    let (parts, steps_per_round) = (prepared.parts, prepared.steps_per_round);
    let probes = Probes::new(trace_from);
    let persist_dir = out_dir().join(format!("persist-{}-{tag}", std::process::id()));
    let outcome = adapter::run_federation(w, seed, rounds, prepared, &probes, &persist_dir);
    std::fs::remove_dir_all(&persist_dir).ok();
    let outcome = outcome.map_err(|e| format!("federation failed: {e}"))?;
    let edges = probes.edges();
    if edges.len() != rounds as usize + 1 {
        return Err(format!(
            "{} round edges seen, {rounds} rounds run",
            edges.len()
        ));
    }
    Ok(Federation {
        setup_s: outcome.first_scatter.duration_since(started).as_secs_f64(),
        setup_cpu_s: edges[0].cpu_s - started_cpu,
        parts: SetupParts {
            register_ms: outcome.register_ms,
            ..parts
        },
        failed: outcome.dropped + outcome.site_errors + edges.last().map_or(0, |e| e.send_errors),
        edges,
        final_weights: outcome.final_weights,
        last_global_metric: outcome.last_global_metric,
        steps_per_round,
        probes,
        step_batch: outcome.step_batch,
    })
}

/// Rounds `first..last` of a federation: per-round samples of what a
/// median is taken of, totals of what repeats exactly.
struct Window {
    rounds: f64,
    round_s: Vec<f64>,
    /// Process CPU of each round.
    round_cpu_s: Vec<f64>,
    bytes: f64,
    examples: f64,
    counters: Counters,
}

impl Window {
    /// Median CPU of one round. A median, like `round_s`: one round that a
    /// neighbour on the host disturbed must not move the run's figure.
    fn cpu_s_per_round(&self) -> f64 {
        median(&self.round_cpu_s)
    }
}

fn window(edges: &[Edge], first: u32, last: u32) -> Window {
    let (first, last) = (first as usize, last as usize);
    let (a, b) = (&edges[first], &edges[last]);
    Window {
        rounds: (last - first) as f64,
        round_s: edges[first..=last]
            .windows(2)
            .map(|e| (e[1].wall_ns - e[0].wall_ns) as f64 / 1e9)
            .collect(),
        round_cpu_s: edges[first..=last]
            .windows(2)
            .map(|e| e[1].cpu_s - e[0].cpu_s)
            .collect(),
        bytes: (b.bytes - a.bytes) as f64,
        examples: (b.examples - a.examples) as f64,
        counters: b.counters.since(&a.counters),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `w` with `seed` for the rounds `seconds` pays for and reports
/// every metric.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunReport, String> {
    adapter::set_threads(crate::workloads::THREADS);
    adapter::set_obs(false);
    let schedule = w.schedule(seconds, traced);
    let trace_from = traced.then(|| schedule.first_measured() - schedule.settle);
    let main = federate(w, seed, schedule.total(), trace_from, 0)?;
    adapter::set_obs(false);
    let mut setups = vec![(main.setup_s, main.setup_cpu_s, main.parts)];
    let mut failed = main.failed;
    for tag in 1..SETUPS {
        let f = federate(w, seed, 0, None, tag)?;
        setups.push((f.setup_s, f.setup_cpu_s, f.parts));
        failed += f.failed;
    }
    adapter::set_obs(traced);

    let scores = adapter::score(w, seed, &main.final_weights);
    let win = window(&main.edges, schedule.first_measured(), schedule.total());
    let attempted = u64::from(schedule.total()) * N_SITES as u64;
    let site_metric = main.last_global_metric.unwrap_or(f64::NAN);
    // A lossy downlink hands the sites a reconstruction of the global
    // model, so their metric may differ from the exact model's by a few
    // examples; without a codec the two must agree.
    let tolerance = if w.codec == "raw" { 1e-9 } else { 0.25 };
    let checks = vec![
        Check {
            name: "failed_share == 0",
            ok: failed == 0,
            detail: format!("{failed} of {attempted} site-rounds failed"),
        },
        Check {
            name: "final_error below the untrained model's",
            ok: scores.final_error > 0.0 && scores.final_error < w.error_ceiling,
            detail: format!(
                "{:.4} against ceiling {}",
                scores.final_error, w.error_ceiling
            ),
        },
        Check {
            name: "sites validated the weights the server returned",
            ok: (site_metric - scores.site_metric).abs() <= tolerance,
            detail: format!(
                "sites reported {site_metric:.6}, the final weights score {:.6}",
                scores.site_metric
            ),
        },
    ];

    let end_to_end: Metrics = vec![
        ("round_s", median(&win.round_s)),
        ("cpu_s_per_round", win.cpu_s_per_round()),
        (
            "examples_per_s",
            ratio(win.examples / win.rounds, median(&win.round_s)),
        ),
        (
            "setup_s",
            median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        ),
        ("wire_bytes_per_round", ratio(win.bytes, win.rounds)),
        ("final_error", scores.final_error),
        ("peak_rss_mb", crate::sys::peak_rss_mib()),
        (
            "completed_share",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
    ];

    let mut report = RunReport {
        schedule,
        end_to_end,
        per_layer: Metrics::new(),
        checks,
        attempted,
        failed,
        round_p_hi: p_high(&win.round_s, 10),
        round_samples: win.round_s.len(),
    };
    if traced {
        let replay = adapter::replay(w, seed, &main.probes.take_capture(), &main.step_batch)
            .ok_or("replay capture incomplete: the run was too short")?;
        let spans = main.probes.spans();
        let path = out_dir().join(format!("{}.trace.ndjson", w.name));
        trace::write_ndjson(&path, w.name, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let first_baseline = schedule.warmup;
        let inputs = LayerInputs {
            w,
            schedule,
            win: &win,
            baseline: window(
                &main.edges,
                first_baseline,
                first_baseline + schedule.baseline,
            ),
            spans: &spans,
            replay: &replay,
            steps_per_round: main.steps_per_round as f64,
            setups: &setups,
        };
        report.per_layer = inputs.per_layer(&mut report.checks);
    }
    Ok(report)
}

struct LayerInputs<'a> {
    w: &'a Workload,
    schedule: Schedule,
    /// The traced, measured rounds.
    win: &'a Window,
    /// The untraced rounds measured before tracing was switched on.
    baseline: Window,
    spans: &'a [Span],
    replay: &'a Replay,
    steps_per_round: f64,
    /// `(setup_s, setup_cpu_s, parts)` of every set-up of the run.
    setups: &'a [(f64, f64, SetupParts)],
}

/// Sums over the spans of one name inside the measured rounds.
#[derive(Default)]
struct SpanSum {
    wall_ms: f64,
    cpu_ms: f64,
    bytes: f64,
    count: f64,
}

impl LayerInputs<'_> {
    fn measured(&self, s: &Span) -> bool {
        s.round >= self.schedule.first_measured() && s.round < self.schedule.total()
    }

    /// Per-round sums of the measured spans called `name`.
    fn sum(&self, name: &str) -> SpanSum {
        let mut out = SpanSum::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && self.measured(s))
        {
            out.wall_ms += s.wall_ns() as f64 / 1e6;
            out.cpu_ms += s.cpu_ns as f64 / 1e6;
            out.bytes += s.bytes as f64;
            out.count += 1.0;
        }
        let rounds = self.win.rounds;
        SpanSum {
            wall_ms: out.wall_ms / rounds,
            cpu_ms: out.cpu_ms / rounds,
            bytes: out.bytes / rounds,
            count: out.count / rounds,
        }
    }

    /// Median over rounds of the longest site's train span as a share of
    /// the round: the imbalanced split makes one site set the round.
    fn slowest_site_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|r| r.name == "flare.controller.round" && self.measured(r))
            .map(|round| {
                let longest = self
                    .spans
                    .iter()
                    .filter(|s| s.name == "core.executor.train" && s.round == round.round)
                    .map(Span::wall_ns)
                    .max()
                    .unwrap_or(0);
                ratio(longest as f64, round.wall_ns() as f64)
            })
            .collect();
        median(&shares)
    }

    fn per_layer(&self, checks: &mut Vec<Check>) -> Metrics {
        let (w, win, rp) = (self.w, self.win, self.replay);
        let rounds = win.rounds;
        let c = &win.counters;
        let per_round_ms = |ns: u64| ns as f64 / 1e6 / rounds;
        let n = N_SITES as f64;

        let train = self.sum("core.executor.train");
        let validate = self.sum("core.executor.validate");
        let send = self.sum("flare.transport.send");
        let recv = self.sum("flare.transport.recv");
        let aggregate = self.sum("flare.aggregator.aggregate");
        let save = self.sum("flare.persistor.save");
        let checkpoint = self.sum("flare.persistor.checkpoint");
        let round = self.sum("flare.controller.round");
        let client_exchange_cpu: f64 = [
            "flare.client.pre_train",
            "flare.client.post_train",
            "flare.client.pre_validate",
            "flare.client.post_validate",
        ]
        .iter()
        .map(|name| self.sum(name).cpu_ms)
        .sum();
        // What the controller thread did outside its timed calls: encoding
        // and sealing the scatters, and running the gather loops.
        let self_times = trace::self_times(self.spans);
        let controller_self_cpu = self
            .spans
            .iter()
            .filter(|s| s.name == "flare.controller.round" && self.measured(s))
            .map(|s| {
                debug_assert_eq!(s.lane, LANE_MAIN);
                self_times[&s.id].cpu_ns as f64 / 1e6
            })
            .sum::<f64>()
            / rounds;

        // The CPU ledger. Every term is thread CPU time measured at a
        // wrapper boundary; no two terms cover the same instant of the
        // same thread, so their sum can be held against the process's CPU.
        // The ledger's terms are means over the measured rounds, so the
        // CPU they are held against is the mean too.
        let cpu_ms = win.round_cpu_s.iter().sum::<f64>() / rounds * 1e3;
        let executor_cpu = train.cpu_ms + validate.cpu_ms;
        let reactor_cpu = per_round_ms(c.frame_work_ns);
        let exchange_cpu = client_exchange_cpu + reactor_cpu + controller_self_cpu;
        let transport_cpu = send.cpu_ms + recv.cpu_ms;
        let persist_cpu = aggregate.cpu_ms + save.cpu_ms + checkpoint.cpu_ms;
        let attributed = executor_cpu + exchange_cpu + transport_cpu + persist_cpu;

        // Inside the executor and the exchange path the boundaries are the
        // program's own, so the split there comes from its kernel timers
        // and from the replay; what neither explains stays with the
        // enclosing group.
        let kernels = per_round_ms(c.gemm_ns + c.rowwise_ns);
        let weights_dxo =
            n * (2.0 * rp.load_ms_per_call + rp.export_ms_per_call + rp.dxo_build_ms_per_call);
        let step_ms = rp.forward_ms_per_step + rp.backward_ms_per_step + rp.optim_ms_per_step;
        let step = (step_ms - rp.kernel_ms_per_step).max(0.0) * self.steps_per_round;
        let executor_self = (executor_cpu - kernels - weights_dxo - step).max(0.0);
        let codec_costs = [
            rp.uplink_encode,
            rp.uplink_decode,
            rp.downlink_encode,
            rp.downlink_decode,
        ];
        let codec: f64 = codec_costs.iter().map(|l| l.ms_per_round).sum();
        let wire_security: f64 = [rp.wire_encode, rp.wire_decode, rp.seal, rp.open]
            .iter()
            .map(|l| l.ms_per_round)
            .sum();
        let endpoints = (exchange_cpu - codec - wire_security).max(0.0);

        let setup_cpu_ms = median(&self.setups.iter().map(|s| s.1 * 1e3).collect::<Vec<_>>());
        let run_cpu_ms = setup_cpu_ms + cpu_ms * f64::from(self.schedule.total());
        let reduction = ratio(c.wire_raw as f64, c.wire_encoded as f64);
        let coverage = ratio(attributed, cpu_ms);
        let executor_share = ratio(executor_cpu, attributed);
        let baseline_cpu = self.baseline.cpu_s_per_round();
        let (_, p_hi) = p_high(&win.round_s, 10);
        let parts = |f: fn(&SetupParts) -> f64| {
            median(&self.setups.iter().map(|s| f(&s.2)).collect::<Vec<_>>())
        };

        checks.push(match w.shape {
            Shape::Compute => Check {
                name: "training + validation >= 70 % of attributed CPU",
                ok: executor_share >= 0.70,
                detail: format!("{executor_share:.3}"),
            },
            Shape::Exchange => Check {
                name: "training + validation <= 25 % of attributed CPU",
                ok: executor_share <= 0.25,
                detail: format!("{executor_share:.3}"),
            },
        });
        checks.push(if w.codec == "raw" {
            Check {
                name: "flare.codec.reduction == 1 without a codec",
                ok: c.wire_raw == c.wire_encoded && c.wire_raw > 0,
                detail: format!("{} raw B, {} sent B", c.wire_raw, c.wire_encoded),
            }
        } else {
            Check {
                name: "flare.codec.reduction >= 8 with the codec",
                ok: reduction >= 8.0,
                detail: format!("{reduction:.2}"),
            }
        });
        checks.push(Check {
            name: "ledger.cpu_coverage >= 0.80",
            ok: coverage >= 0.80,
            detail: format!(
                "{coverage:.3}; {:.1} ms per round unattributed",
                cpu_ms - attributed
            ),
        });

        vec![
            (
                "tensor.kernels.gemm_calls_per_round",
                c.gemm_calls as f64 / rounds,
            ),
            (
                "tensor.kernels.gemm_busy_ms_per_round",
                per_round_ms(c.gemm_ns),
            ),
            (
                "tensor.kernels.gemm_gflops",
                ratio(c.gemm_flops as f64, c.gemm_ns as f64),
            ),
            (
                "tensor.kernels.rowwise_busy_ms_per_round",
                per_round_ms(c.rowwise_ns),
            ),
            (
                "tensor.arena.hit_ratio",
                ratio(c.arena_hits as f64, (c.arena_hits + c.arena_misses) as f64),
            ),
            (
                "tensor.arena.misses_per_round",
                c.arena_misses as f64 / rounds,
            ),
            ("tensor.graph.nodes_per_step", rp.nodes_per_step),
            ("models.forward_ms_per_step", rp.forward_ms_per_step),
            ("tensor.graph.backward_ms_per_step", rp.backward_ms_per_step),
            ("tensor.optim.step_ms_per_step", rp.optim_ms_per_step),
            ("core.executor.train_busy_ms_per_round", train.cpu_ms),
            ("core.executor.validate_busy_ms_per_round", validate.cpu_ms),
            (
                "core.executor.train_wait_ms_per_round",
                train.wall_ms - train.cpu_ms,
            ),
            (
                "core.executor.slowest_site_share",
                self.slowest_site_share(),
            ),
            ("core.weights.load_ms_per_call", rp.load_ms_per_call),
            ("core.weights.export_ms_per_call", rp.export_ms_per_call),
            ("flare.dxo.build_ms_per_call", rp.dxo_build_ms_per_call),
            (
                "flare.codec.uplink_encode_ms_per_call",
                rp.uplink_encode.ms_per_call(),
            ),
            (
                "flare.codec.uplink_decode_ms_per_call",
                rp.uplink_decode.ms_per_call(),
            ),
            (
                "flare.codec.downlink_encode_ms_per_call",
                rp.downlink_encode.ms_per_call(),
            ),
            (
                "flare.codec.downlink_decode_ms_per_call",
                rp.downlink_decode.ms_per_call(),
            ),
            (
                "flare.codec.encode_gib_s",
                gib_per_s(&[rp.uplink_encode, rp.downlink_encode]),
            ),
            (
                "flare.codec.decode_gib_s",
                gib_per_s(&[rp.uplink_decode, rp.downlink_decode]),
            ),
            ("flare.codec.reduction", reduction),
            (
                "flare.wire.encode_ms_per_call",
                rp.wire_encode.ms_per_call(),
            ),
            (
                "flare.wire.decode_ms_per_call",
                rp.wire_decode.ms_per_call(),
            ),
            ("flare.security.seal_ms_per_call", rp.seal.ms_per_call()),
            ("flare.security.open_ms_per_call", rp.open.ms_per_call()),
            ("flare.security.seal_gib_s", gib_per_s(&[rp.seal])),
            ("flare.security.open_gib_s", gib_per_s(&[rp.open])),
            ("flare.transport.send_busy_ms_per_round", send.cpu_ms),
            ("flare.transport.recv_wait_ms_per_round", recv.wall_ms),
            ("flare.transport.frames_per_round", send.count),
            ("flare.transport.bytes_per_round", send.bytes),
            (
                "flare.transport.loopback_gib_s",
                ratio(send.bytes / (1u64 << 30) as f64, send.wall_ms / 1e3),
            ),
            (
                "flare.client.pre_train_gap_ms_per_round",
                self.sum("flare.client.pre_train").wall_ms,
            ),
            ("flare.client.retries_per_round", c.retries as f64 / rounds),
            ("flare.client.send_errors", c.send_errors as f64),
            ("flare.server.frame_work_ms_per_round", reactor_cpu),
            (
                "flare.controller.gather_wait_ms_per_round",
                round.wall_ms - round.cpu_ms,
            ),
            ("flare.aggregator.aggregate_ms_per_round", aggregate.wall_ms),
            ("flare.persistor.save_ms_per_round", save.wall_ms),
            (
                "flare.persistor.checkpoint_ms_per_round",
                checkpoint.wall_ms,
            ),
            (
                "flare.persistor.bytes_per_round",
                save.bytes + checkpoint.bytes,
            ),
            ("data.cohort.generate_ms", parts(|p| p.generate_ms)),
            ("data.partition_ms", parts(|p| p.partition_ms)),
            ("text.tokenize_ms", parts(|p| p.tokenize_ms)),
            ("core.learner.init_ms", parts(|p| p.learner_init_ms)),
            ("flare.provision.register_ms", parts(|p| p.register_ms)),
            ("ledger.cpu_coverage", coverage),
            ("ledger.unattributed_ms_per_round", cpu_ms - attributed),
            ("ledger.tensor_kernels_share", ratio(kernels, cpu_ms)),
            ("ledger.tensor_step_share", ratio(step, cpu_ms)),
            ("ledger.core_executor_share", ratio(executor_self, cpu_ms)),
            ("ledger.weights_dxo_share", ratio(weights_dxo, cpu_ms)),
            ("ledger.flare_codec_share", ratio(codec, cpu_ms)),
            ("ledger.wire_security_share", ratio(wire_security, cpu_ms)),
            ("ledger.flare_transport_share", ratio(transport_cpu, cpu_ms)),
            ("ledger.flare_endpoints_share", ratio(endpoints, cpu_ms)),
            ("ledger.aggregate_persist_share", ratio(persist_cpu, cpu_ms)),
            ("ledger.setup_share", ratio(setup_cpu_ms, run_cpu_ms)),
            ("harness.round_p_hi_s", p_hi),
            ("harness.round_samples", win.round_s.len() as f64),
            (
                "harness.trace_overhead",
                ratio(win.cpu_s_per_round(), baseline_cpu) - 1.0,
            ),
        ]
    }
}
