//! Multi-tenant job runtime integration: a declarative job config drives
//! a full federation, a job is exactly a simulator run, concurrent
//! federations over the shared pool stay bit-identical to solo runs and
//! keep their metric namespaces apart, and the HTTP admin API works
//! end-to-end.

use clinfl_flare::admin::{AdminServer, JobFactory};
use clinfl_flare::codec::{weights_bits_equal, CodecSpec, QuantMode};
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::{ArithmeticExecutor, Executor, TaskContext};
use clinfl_flare::filters::FilterChain;
use clinfl_flare::job::{AggregatorKind, JobConfig};
use clinfl_flare::jobs::{JobRuntime, JobSpec, JobState};
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{Dxo, EventLog, WeightTensor, Weights};
use clinfl_obs::json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("p".into(), WeightTensor::new(vec![4], vec![0.0; 4]));
    w
}

fn arith_executor(i: usize, _site: &str) -> Box<dyn Executor> {
    Box::new(ArithmeticExecutor {
        delta: (i + 1) as f32 * 0.5,
        n_examples: 10 + i as u64,
    })
}

/// The base a host hands [`JobConfig::parse`]: simulator defaults with
/// the host's seed.
fn host(seed: u64) -> SimulatorConfig {
    SimulatorConfig {
        seed,
        ..SimulatorConfig::default()
    }
}

fn arith_spec(name: &str, rounds: u32, clients: usize, seed: u64) -> JobSpec {
    JobSpec {
        config: JobConfig::parse(
            &format!(
                "name = {name}\nrounds = {rounds}\nclients = {clients}\nmin_clients = {clients}\n"
            ),
            &host(seed),
        )
        .unwrap(),
        initial: initial(),
        make_executor: Box::new(arith_executor),
    }
}

/// Submits `config` with `make_executor` to a one-slot runtime and
/// returns the finished job's workflow result.
fn run_one(
    config: &str,
    seed: u64,
    make_executor: impl FnMut(usize, &str) -> Box<dyn Executor> + Send + 'static,
) -> clinfl_flare::controller::WorkflowResult {
    let rt = JobRuntime::new(1);
    let id = rt.submit(JobSpec {
        config: JobConfig::parse(config, &host(seed)).expect("valid job"),
        initial: initial(),
        make_executor: Box::new(make_executor),
    });
    assert_eq!(
        rt.wait(id, Duration::from_secs(60)),
        Some(JobState::Finished)
    );
    let result = rt.result(id).unwrap();
    rt.join_all();
    result
}

#[test]
fn job_config_drives_a_full_simulation() {
    let result = run_one(
        "name = smoke\n\
         rounds = 3\n\
         clients = 2\n\
         min_clients = 2\n\
         timeout_s = 10\n\
         validate = false\n\
         aggregator = fedavg\n",
        21,
        |_, _| {
            Box::new(ArithmeticExecutor {
                delta: 1.0,
                n_examples: 5,
            })
        },
    );
    // +1 per round for 3 rounds.
    assert_eq!(result.final_weights["p"].data, vec![3.0; 4]);
    assert_eq!(result.rounds.len(), 3);
}

#[test]
fn job_config_median_aggregation_end_to_end() {
    let config = "rounds = 2\nclients = 3\naggregator = median\n";
    assert_eq!(
        JobConfig::parse(config, &host(22)).unwrap().aggregator,
        AggregatorKind::CoordinateMedian
    );
    let result = run_one(config, 22, |i, _| {
        Box::new(ArithmeticExecutor {
            // One outlier client; the median ignores it.
            delta: if i == 2 { 1000.0 } else { 2.0 },
            n_examples: 5,
        })
    });
    assert_eq!(result.final_weights["p"].data, vec![4.0; 4]);
}

/// A job is a simulator run: the same clients, rounds, seed, codec, tree
/// and aggregator through `JobRuntime` and through `SimulatorRunner::run`
/// give bit-equal final weights and equal round summaries. Each job text
/// is checked against a hand-built config, so what is under test is the
/// spec table's key → field mapping, not a re-parse.
#[test]
fn job_equals_simulator_run() {
    let sim = |n_clients, wire, tree| SimulatorConfig {
        n_clients,
        sag: SagConfig {
            rounds: 3,
            min_clients: n_clients,
            ..SagConfig::default()
        },
        seed: 31,
        wire,
        tree,
        ..SimulatorConfig::default()
    };
    let cases = [
        (
            "clients = 4\nmin_clients = 4\naggregator = fedavg",
            sim(4, CodecSpec::raw(), None),
        ),
        (
            "clients = 4\nmin_clients = 4\naggregator = trimmed_mean",
            sim(4, CodecSpec::raw(), None),
        ),
        (
            "clients = 8\nmin_clients = 8\ncodec = delta+topk0.05+int8\ntree = 2x3",
            sim(
                8,
                CodecSpec {
                    delta: true,
                    quant: QuantMode::Int8,
                    topk_permille: Some(50),
                },
                Some(TreeConfig {
                    depth: 2,
                    fanout: 3,
                }),
            ),
        ),
    ];
    for (keys, expected) in cases {
        let config = format!("name = twin\nrounds = 3\n{keys}\n");
        let parsed = JobConfig::parse(&config, &host(31)).unwrap();
        assert_eq!(parsed.federation, expected, "{keys}");
        let job = run_one(&config, 31, arith_executor);

        let sim = SimulatorRunner::new(expected)
            .run(
                initial(),
                arith_executor,
                parsed.aggregator.build().as_ref(),
                |_| FilterChain::new(),
            )
            .expect("simulation runs")
            .workflow;

        assert!(
            weights_bits_equal(&job.final_weights, &sim.final_weights),
            "{keys}: job weights differ from the simulator's"
        );
        assert_eq!(job.rounds.len(), sim.rounds.len());
        for (j, s) in job.rounds.iter().zip(&sim.rounds) {
            assert_eq!(j.contributors, s.contributors, "{keys} round {}", j.round);
            assert_eq!(j.dropped, s.dropped, "{keys} round {}", j.round);
            assert_eq!(j.global_metric, s.global_metric, "{keys} round {}", j.round);
        }
    }
}

/// Four concurrent jobs over one runtime, each compared against a solo
/// same-seed run: the shared worker pool and interleaved schedules must
/// not perturb a single bit of any job's final weights, and each job's
/// scoped registry must count exactly its own rounds.
#[test]
fn four_concurrent_jobs_match_solo_runs_bit_identically() {
    let params: [(u32, u64); 4] = [(2, 11), (3, 22), (4, 33), (5, 44)];

    // Solo references, one at a time.
    let mut solo = Vec::new();
    for (i, (rounds, seed)) in params.iter().enumerate() {
        let rt = JobRuntime::new(1);
        let id = rt.submit(arith_spec(&format!("solo-{i}"), *rounds, 3, *seed));
        assert_eq!(
            rt.wait(id, Duration::from_secs(60)),
            Some(JobState::Finished)
        );
        solo.push(rt.result(id).unwrap().final_weights);
        rt.join_all();
    }

    // The same four jobs, concurrently.
    let rt = JobRuntime::new(4);
    let ids: Vec<u64> = params
        .iter()
        .enumerate()
        .map(|(i, (rounds, seed))| rt.submit(arith_spec(&format!("conc-{i}"), *rounds, 3, *seed)))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(
            rt.wait(*id, Duration::from_secs(60)),
            Some(JobState::Finished),
            "job {i} did not finish"
        );
        let got = rt.result(*id).unwrap().final_weights;
        assert_eq!(got, solo[i], "job {i} diverged from its solo same-seed run");
    }

    // Namespace isolation: each registry holds exactly its own job's
    // round count — distinct by construction, so any cross-talk shows.
    for (i, id) in ids.iter().enumerate() {
        let reg = rt.registry(*id).unwrap();
        assert_eq!(
            reg.counter_value("flare.round.count"),
            u64::from(params[i].0),
            "job {i} registry contaminated"
        );
    }
    rt.join_all();
}

/// The real model path: clinical jobs submitted concurrently through the
/// `clinfl serve` factory must finish bit-identical to solo runs of the
/// identical configs. Two same-seed LSTM jobs and a BERT-mini job share
/// the process: their sites take tape arenas from one queue (DESIGN.md
/// §3d), so an LSTM site regularly starts on buffers a BERT site of
/// another tenant left behind, and none of it may show.
#[test]
fn same_seed_clinical_jobs_concurrent_equals_solo() {
    let lstm =
        "name = lstm-pair\nrounds = 1\nclients = 2\nmin_clients = 2\nmodel = lstm\nseed = 5\n";
    let bert =
        "name = bert-mini\nrounds = 2\nclients = 3\nmin_clients = 3\nmodel = bert-mini\nseed = 6\n";
    let base = clinfl::PipelineConfig::scaled(256);
    let wait = Duration::from_secs(300);

    let solo = |text: &str| {
        let rt = JobRuntime::new(1);
        let factory = clinfl::drivers::serve_job_factory(base.clone(), None);
        let id = rt.submit(factory(text).unwrap());
        assert_eq!(rt.wait(id, wait), Some(JobState::Finished));
        let weights = rt.result(id).unwrap().final_weights;
        rt.join_all();
        weights
    };
    let (solo_lstm, solo_bert) = (solo(lstm), solo(bert));

    let rt = JobRuntime::new(3);
    let factory = clinfl::drivers::serve_job_factory(base.clone(), None);
    let ids = [lstm, bert, lstm].map(|t| rt.submit(factory(t).unwrap()));
    for id in ids {
        assert_eq!(rt.wait(id, wait), Some(JobState::Finished));
    }
    let [a, b, c] = ids.map(|id| rt.result(id).unwrap().final_weights);
    assert_eq!(a, solo_lstm, "concurrent LSTM job A diverged from solo");
    assert_eq!(b, solo_bert, "concurrent BERT-mini job diverged from solo");
    assert_eq!(c, solo_lstm, "concurrent LSTM job C diverged from solo");
    rt.join_all();
}

/// One clinical federation: a served job with a codec, a `2x3` tree,
/// 0.5 sampling and DP-SGD, submitted over HTTP, trains the same sites to
/// the same bits as `clinfl federated --balanced` given the same keys,
/// and `GET /jobs/{id}` shows its spec and the ε the CLI prints.
#[test]
fn dp_job_over_http_equals_the_cli_run() {
    let keys = [
        ("clients", "4"),
        ("rounds", "2"),
        ("seed", "5"),
        ("codec", "delta+topk0.05+int8"),
        ("tree", "2x3"),
        ("sample_fraction", "0.5"),
        ("dp", "clip:1,sigma:0.8"),
    ];
    let base = clinfl::PipelineConfig::scaled(256);
    let runtime = JobRuntime::new(1);
    let factory = clinfl::drivers::serve_job_factory(base.clone(), None);
    let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), factory).unwrap();
    let addr = server.local_addr();
    let text: String = keys.iter().map(|(k, v)| format!("{k} = {v}\n")).collect();
    let id = submit(addr, &format!("name = dp-twin\n{text}"));
    wait_state(addr, id, "finished", Duration::from_secs(300));
    let (_, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    let info = Value::parse(&body).unwrap();
    let spec = info.get("spec").and_then(Value::as_str).unwrap();
    assert!(
        spec.contains("dp = clip:1,sigma:0.8,delta:0.00001\n"),
        "{spec}"
    );
    let epsilon = info.get("epsilon").and_then(Value::as_f64).unwrap();
    let job = runtime.result(id).unwrap().final_weights;
    server.join();
    runtime.shutdown();

    // The CLI run: `--balanced --scale 256` plus the same keys as flags.
    let mut cfg = base;
    for (k, v) in keys {
        cfg.federation.apply(k, v).unwrap();
    }
    let partitioner = cfg.balanced_partitioner();
    let cli = clinfl::drivers::train_federated_with(
        &cfg,
        clinfl::ModelSpec::Lstm,
        &partitioner,
        EventLog::new(),
    )
    .unwrap();
    assert!(
        weights_bits_equal(&job, cli.global.as_ref().unwrap()),
        "the served job diverged from the CLI run"
    );
    let (cli_eps, _) = cli.privacy.unwrap();
    assert!(cli_eps > 0.0 && (epsilon - cli_eps).abs() <= 1e-9 * cli_eps);
}

// ---------------------------------------------------------------------
// Admin HTTP end-to-end
// ---------------------------------------------------------------------

/// Trains like [`ArithmeticExecutor`] but sleeps per task so an abort
/// can land mid-round.
struct SlowExecutor(ArithmeticExecutor);

impl Executor for SlowExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        std::thread::sleep(Duration::from_millis(25));
        self.0.train(global, ctx)
    }
    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        self.0.validate(global, ctx)
    }
}

/// Factory for the HTTP tests: `model = slow` selects the sleeping
/// executor, anything else the fast one.
fn test_factory() -> JobFactory {
    Box::new(|text: &str| {
        let config = JobConfig::parse(text, &host(1))?;
        let slow = config.model.as_deref() == Some("slow");
        Ok(JobSpec {
            config,
            initial: initial(),
            make_executor: Box::new(move |i, _| {
                let inner = ArithmeticExecutor {
                    delta: (i + 1) as f32,
                    n_examples: 10,
                };
                if slow {
                    Box::new(SlowExecutor(inner))
                } else {
                    Box::new(inner)
                }
            }),
        })
    })
}

/// One HTTP/1.1 exchange; returns `(status, body)`.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn submit(addr: std::net::SocketAddr, config: &str) -> u64 {
    let (status, body) = http(addr, "POST", "/jobs", config);
    assert_eq!(status, 201, "{body}");
    Value::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Value::as_u64)
        .unwrap()
}

fn state_of(addr: std::net::SocketAddr, id: u64) -> String {
    let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200, "{body}");
    Value::parse(&body)
        .unwrap()
        .get("state")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

fn wait_state(addr: std::net::SocketAddr, id: u64, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let state = state_of(addr, id);
        if state == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state:?}, wanted {want:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Abort one of two concurrent jobs over the admin API mid-round: the
/// abort must release the job's sessions promptly (far faster than its
/// remaining rounds would take) and the surviving job must finish green
/// with correct metrics.
#[test]
fn http_abort_mid_round_releases_sessions_and_spares_neighbor() {
    let runtime = JobRuntime::new(2);
    let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), test_factory()).unwrap();
    let addr = server.local_addr();

    // 400 slow rounds ≈ 20+ s if left alone; the abort must cut that to
    // well under the stream of remaining rounds.
    let doomed = submit(
        addr,
        "name = doomed\nrounds = 400\nclients = 2\nmin_clients = 2\nmodel = slow\n",
    );
    let survivor = submit(
        addr,
        "name = survivor\nrounds = 3\nclients = 2\nmin_clients = 2\n",
    );
    wait_state(addr, doomed, "running", Duration::from_secs(20));

    let abort_started = Instant::now();
    let (status, body) = http(addr, "POST", &format!("/jobs/{doomed}/abort"), "");
    assert_eq!(status, 200);
    assert!(body.contains("\"aborted\":true"), "{body}");
    wait_state(addr, doomed, "aborted", Duration::from_secs(15));
    // Promptness: teardown beats the ~20 s the remaining rounds cost.
    assert!(
        abort_started.elapsed() < Duration::from_secs(15),
        "abort took {:?}",
        abort_started.elapsed()
    );

    wait_state(addr, survivor, "finished", Duration::from_secs(60));
    let (status, body) = http(addr, "GET", &format!("/jobs/{survivor}/metrics"), "");
    assert_eq!(status, 200);
    let snap = Value::parse(&body).unwrap();
    assert_eq!(
        snap.get("counters")
            .and_then(|c| c.get("flare.round.count"))
            .and_then(Value::as_u64),
        Some(3),
        "survivor's registry must show exactly its own 3 rounds"
    );
    // The aborted job's registry likewise stays its own: fewer than 400
    // rounds ever ran, and the abort marker landed.
    let (_, body) = http(addr, "GET", &format!("/jobs/{doomed}/metrics"), "");
    let snap = Value::parse(&body).unwrap();
    let aborted_rounds = snap
        .get("counters")
        .and_then(|c| c.get("flare.round.count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(
        aborted_rounds < 400,
        "doomed job ran {aborted_rounds} rounds"
    );
    assert_eq!(
        snap.get("counters")
            .and_then(|c| c.get("flare.run.aborted"))
            .and_then(Value::as_u64),
        Some(1)
    );

    server.join();
    runtime.shutdown();
}

/// A job name is a path component under `clinfl serve --checkpoint-root`:
/// one that climbs out of the root is refused with an HTTP 400 before any
/// directory is created, on either side of the root.
#[test]
fn http_rejects_job_names_that_escape_the_checkpoint_root() {
    let base = std::env::temp_dir().join(format!("clinfl-job-names-{}", std::process::id()));
    let root = base.join("ckpts");
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&root).unwrap();
    let runtime = JobRuntime::new(1);
    let factory =
        clinfl::drivers::serve_job_factory(clinfl::PipelineConfig::scaled(256), Some(root.clone()));
    let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), factory).unwrap();
    let addr = server.local_addr();

    for name in ["x/../../escape", "../escape", "/tmp/escape"] {
        let (status, body) = http(
            addr,
            "POST",
            "/jobs",
            &format!("name = {name}\nrounds = 1\n"),
        );
        assert_eq!(status, 400, "{name}: {body}");
        assert!(body.contains("line 1: invalid name"), "{body}");
    }
    assert!(runtime.list().is_empty(), "a rejected job was scheduled");
    let entries = |dir: &std::path::Path| std::fs::read_dir(dir).unwrap().count();
    assert_eq!(entries(&root), 0, "a rejected job created a directory");
    assert_eq!(entries(&base), 1, "a rejected job wrote beside the root");

    server.join();
    runtime.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Job text is hostile input: a site count that would exhaust memory, a
/// tree deep enough to exhaust the stack, a DP setting the accountant
/// cannot take, and the host-owned checkpoint, fault and retry keys are
/// all refused with a line-numbered HTTP 400, nothing is scheduled or
/// written, and the server keeps serving.
#[test]
fn http_rejects_hostile_job_text() {
    let root = std::env::temp_dir().join(format!("clinfl-hostile-jobs-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let runtime = JobRuntime::new(1);
    let factory =
        clinfl::drivers::serve_job_factory(clinfl::PipelineConfig::scaled(256), Some(root.clone()));
    let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), factory).unwrap();
    let addr = server.local_addr();

    for (line, why) in [
        ("clients = 10000000000", "invalid clients"),
        ("tree = 1000000x2", "invalid tree"),
        ("checkpoint_dir = /tmp/x", "set by the host"),
        ("resume = true", "set by the host"),
        ("retain = 1", "set by the host"),
        (
            "faults = delay:1000,delay_ms:4294967296000",
            "set by the host",
        ),
        ("retry_submit_copies = 4294967295", "set by the host"),
        ("retry_backoff_ms = 4294967296000", "set by the host"),
        ("dp = clip:1,sigma:0", "invalid dp"),
    ] {
        let (status, body) = http(addr, "POST", "/jobs", &format!("rounds = 1\n{line}\n"));
        assert_eq!(status, 400, "{line}: {body}");
        assert!(body.contains("line 2") && body.contains(why), "{body}");
    }
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
    assert!(runtime.list().is_empty(), "a rejected job was scheduled");
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);

    server.join();
    runtime.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
