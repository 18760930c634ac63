//! Admin/status API (NVFlare's admin-console equivalent).
//!
//! NVFlare deployments ship an admin client (`check_status`,
//! `list_clients`, `abort_job`, …). This module provides the same
//! introspection surface over a running workflow at two levels:
//!
//! * In-process: a shared [`RunStatus`] that the controller updates and
//!   any observer thread can query, plus typed [`AdminCommand`]s with
//!   formatted replies.
//! * Over the wire: [`AdminServer`], a dependency-free HTTP/1.1
//!   endpoint fronting a [`crate::jobs::JobRuntime`] — submit a job
//!   config, list jobs with phase/round/metrics, abort a job, and
//!   stream live metric snapshots as NDJSON. The HTTP layer is built
//!   directly on [`std::net::TcpListener`] (the workspace vendors no
//!   web framework), speaks `Connection: close` semantics, and
//!   serializes with the in-tree [`clinfl_obs::json`] writer.
//!
//! | Route | Effect |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `POST /jobs` | submit a `key = value` job config body |
//! | `GET /jobs` | list all jobs |
//! | `GET /jobs/{id}` | one job's state/phase/metric and spec text |
//! | `POST /jobs/{id}/abort` | request an abort |
//! | `GET /jobs/{id}/metrics` | the job's scoped metrics snapshot |
//! | `GET /jobs/{id}/metrics/stream` | NDJSON snapshots until terminal |
//! | `GET /metrics` | process-global metrics snapshot |

use crate::jobs::{JobInfo, JobRuntime, JobSpec};
use crate::lock;
use crate::FlareError;
use clinfl_obs::json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle phase of a federated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// Provisioned, waiting for client registrations.
    WaitingForClients,
    /// A training round is in flight.
    Training {
        /// Current round (0-based).
        round: u32,
        /// Total rounds.
        total: u32,
    },
    /// Aggregating / validating / persisting between rounds.
    Aggregating {
        /// Round being aggregated.
        round: u32,
    },
    /// Workflow finished successfully.
    Finished,
    /// Workflow aborted with an error.
    Aborted,
}

impl std::fmt::Display for RunPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunPhase::WaitingForClients => write!(f, "waiting_for_clients"),
            RunPhase::Training { round, total } => write!(f, "training round {round}/{total}"),
            RunPhase::Aggregating { round } => write!(f, "aggregating round {round}"),
            RunPhase::Finished => write!(f, "finished"),
            RunPhase::Aborted => write!(f, "aborted"),
        }
    }
}

#[derive(Debug)]
struct StatusInner {
    phase: RunPhase,
    clients: Vec<(String, bool)>,
    last_metric: Option<f64>,
    started: Instant,
}

/// Shared, thread-safe view of a run's live status.
///
/// Cheap to clone (it is an `Arc` handle); the workflow side calls the
/// `set_*` methods, observers call the getters or issue
/// [`AdminCommand`]s via [`RunStatus::execute`].
#[derive(Clone, Debug)]
pub struct RunStatus {
    inner: Arc<Mutex<StatusInner>>,
}

impl RunStatus {
    /// New status in the waiting phase.
    pub fn new() -> Self {
        RunStatus {
            inner: Arc::new(Mutex::new(StatusInner {
                phase: RunPhase::WaitingForClients,
                clients: Vec::new(),
                last_metric: None,
                started: Instant::now(),
            })),
        }
    }

    /// Updates the lifecycle phase.
    pub fn set_phase(&self, phase: RunPhase) {
        lock(&self.inner).phase = phase;
    }

    /// Registers or updates a client's liveness.
    pub fn set_client(&self, site: &str, alive: bool) {
        let mut inner = lock(&self.inner);
        if let Some(c) = inner.clients.iter_mut().find(|(s, _)| s == site) {
            c.1 = alive;
        } else {
            inner.clients.push((site.to_string(), alive));
        }
    }

    /// Records the latest global validation metric.
    pub fn set_metric(&self, metric: f64) {
        lock(&self.inner).last_metric = Some(metric);
    }

    /// Current phase.
    pub fn phase(&self) -> RunPhase {
        lock(&self.inner).phase
    }

    /// `(site, alive)` pairs.
    pub fn clients(&self) -> Vec<(String, bool)> {
        lock(&self.inner).clients.clone()
    }

    /// Latest global metric, if any.
    pub fn last_metric(&self) -> Option<f64> {
        lock(&self.inner).last_metric
    }

    /// Executes an admin command, returning the formatted reply.
    pub fn execute(&self, cmd: AdminCommand) -> String {
        let inner = lock(&self.inner);
        match cmd {
            AdminCommand::CheckStatus => format!(
                "phase: {} | uptime: {:.1}s | last_metric: {}",
                inner.phase,
                inner.started.elapsed().as_secs_f64(),
                inner
                    .last_metric
                    .map(|m| format!("{m:.4}"))
                    .unwrap_or_else(|| "n/a".into()),
            ),
            AdminCommand::ListClients => {
                if inner.clients.is_empty() {
                    "no clients registered".to_string()
                } else {
                    inner
                        .clients
                        .iter()
                        .map(|(s, alive)| format!("{s}: {}", if *alive { "alive" } else { "dead" }))
                        .collect::<Vec<_>>()
                        .join("\n")
                }
            }
        }
    }
}

impl Default for RunStatus {
    fn default() -> Self {
        RunStatus::new()
    }
}

/// Admin-console commands (a subset of NVFlare's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminCommand {
    /// Server + workflow status summary.
    CheckStatus,
    /// Per-client liveness listing.
    ListClients,
}

// ======================================================================
// HTTP admin endpoint
// ======================================================================

/// Maps a `POST /jobs` body to a launchable [`JobSpec`]: the host parses
/// the job format (usually [`crate::job::JobConfig::parse`] onto its own
/// defaults) and decides what `model = …` means (executors, initial
/// weights, checkpoint dirs). Returning an error turns into an HTTP 400.
pub type JobFactory = Box<dyn Fn(&str) -> Result<JobSpec, FlareError> + Send + Sync>;

/// A served admin/metrics API over a [`JobRuntime`].
///
/// Binds a [`TcpListener`], then accepts on a background thread with
/// one short-lived handler thread per connection (every response sends
/// `Connection: close`, so handlers never linger beyond one exchange —
/// except the NDJSON metrics stream, which ticks until its job reaches
/// a terminal state). [`AdminServer::stop`] wakes the accept loop and
/// the stream handlers promptly.
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `runtime` through `factory`.
    ///
    /// # Errors
    ///
    /// [`FlareError::Io`] if the bind fails.
    pub fn bind(
        addr: &str,
        runtime: JobRuntime,
        factory: JobFactory,
    ) -> Result<AdminServer, FlareError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so `stop` lands within one poll tick even
        // with no traffic.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let shared = Arc::new((runtime, factory));
            let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = shared.clone();
                        let stop = stop2.clone();
                        handlers.push(std::thread::spawn(move || {
                            let _ = handle_connection(stream, &shared.0, &shared.1, &stop);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
                handlers.retain(|h| !h.is_finished());
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(AdminServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (port resolved if `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop and any streaming handlers to wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stops (if not already) and joins the accept thread.
    pub fn join(mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One parsed HTTP request: method, path, and body.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
}

/// What the server reads of one request at most: the start line plus the
/// headers, and the body (a job config is a few hundred bytes).
const MAX_HEAD: u64 = 16 << 10;
const MAX_BODY: usize = 1 << 20;

/// A request refused before routing: the status and the reason.
type Refusal = (u16, &'static str);

/// Reads one HTTP/1.1 request (start line, headers, `Content-Length`
/// body) from `stream`. A head longer than [`MAX_HEAD`] is refused with
/// 400 and a declared body longer than [`MAX_BODY`] with 413, both before
/// the body is read.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<HttpRequest, Refusal>> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD);
    let mut line = String::new();
    head.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if head.read_line(&mut header)? == 0 {
            // The peer closed, or the head ran past its cap.
            if head.limit() == 0 {
                return Ok(Err((400, "request head exceeds 16 KiB")));
            }
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_BODY {
        return Ok(Err((413, "request body exceeds 1 MiB")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(HttpRequest {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// Answers a [`Refusal`], then drains (boundedly) what the peer already
/// sent, so that closing with unread input does not reset the connection
/// before the peer has read the answer.
fn refuse(stream: &mut TcpStream, (status, why): Refusal) -> std::io::Result<()> {
    error_response(stream, status, why)?;
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    let _ = std::io::copy(&mut (&*stream).take(MAX_BODY as u64), &mut std::io::sink());
    Ok(())
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn json_response(stream: &mut TcpStream, status: u16, value: &Value) -> std::io::Result<()> {
    write_response(stream, status, "application/json", &value.to_json())
}

fn error_response(stream: &mut TcpStream, status: u16, msg: &str) -> std::io::Result<()> {
    json_response(
        stream,
        status,
        &Value::object(vec![("error", Value::Str(msg.to_string()))]),
    )
}

/// A [`JobInfo`] as the wire JSON object.
fn job_to_json(info: &JobInfo) -> Value {
    Value::object(vec![
        ("id", Value::UInt(info.id)),
        ("name", Value::Str(info.name.clone())),
        ("state", Value::Str(info.state.to_string())),
        ("phase", Value::Str(info.phase.clone())),
        (
            "last_metric",
            info.last_metric.map(Value::Float).unwrap_or(Value::Null),
        ),
        ("clients", Value::UInt(info.clients as u64)),
        ("rounds", Value::UInt(u64::from(info.rounds))),
        (
            "error",
            info.error.clone().map(Value::Str).unwrap_or(Value::Null),
        ),
        ("spec", Value::Str(info.spec.clone())),
        (
            "epsilon",
            info.epsilon.map(Value::Float).unwrap_or(Value::Null),
        ),
    ])
}

/// Routes one request. `stop` lets long-lived metric streams wind down
/// with the server.
fn handle_connection(
    mut stream: TcpStream,
    runtime: &JobRuntime,
    factory: &JobFactory,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let req = match read_request(&mut stream)? {
        Ok(req) => req,
        Err(refusal) => return refuse(&mut stream, refusal),
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => json_response(
            &mut stream,
            200,
            &Value::object(vec![("ok", Value::Bool(true))]),
        ),
        ("POST", ["jobs"]) => {
            let spec = match factory(&req.body) {
                Ok(s) => s,
                Err(e) => return error_response(&mut stream, 400, &e.to_string()),
            };
            let id = runtime.submit(spec);
            let info = runtime.info(id).expect("job just submitted");
            json_response(&mut stream, 201, &job_to_json(&info))
        }
        ("GET", ["jobs"]) => {
            let jobs: Vec<Value> = runtime.list().iter().map(job_to_json).collect();
            json_response(
                &mut stream,
                200,
                &Value::object(vec![("jobs", Value::Array(jobs))]),
            )
        }
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| runtime.info(id)) {
            Some(info) => json_response(&mut stream, 200, &job_to_json(&info)),
            None => error_response(&mut stream, 404, "no such job"),
        },
        ("POST", ["jobs", id, "abort"]) => match parse_id(id) {
            Some(id) if runtime.info(id).is_some() => {
                let aborted = runtime.abort(id);
                json_response(
                    &mut stream,
                    200,
                    &Value::object(vec![
                        ("id", Value::UInt(id)),
                        ("aborted", Value::Bool(aborted)),
                    ]),
                )
            }
            _ => error_response(&mut stream, 404, "no such job"),
        },
        ("GET", ["jobs", id, "metrics"]) => {
            match parse_id(id).and_then(|id| runtime.registry(id)) {
                Some(reg) => json_response(&mut stream, 200, &reg.snapshot().to_value()),
                None => error_response(&mut stream, 404, "no such job"),
            }
        }
        ("GET", ["jobs", id, "metrics", "stream"]) => {
            let Some(id) = parse_id(id).filter(|id| runtime.info(*id).is_some()) else {
                return error_response(&mut stream, 404, "no such job");
            };
            stream_metrics(&mut stream, runtime, id, stop)
        }
        ("GET", ["metrics"]) => json_response(&mut stream, 200, &clinfl_obs::snapshot().to_value()),
        (_, ["healthz" | "jobs" | "metrics", ..]) => {
            error_response(&mut stream, 405, "method not allowed")
        }
        _ => error_response(&mut stream, 404, "no such route"),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Streams `{"job":…,"metrics":…}` NDJSON lines every ~200 ms until the
/// job reaches a terminal state (one final line included) or the server
/// stops. Chunked transfer so `curl` renders lines as they arrive.
fn stream_metrics(
    stream: &mut TcpStream,
    runtime: &JobRuntime,
    id: u64,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    while let Some(info) = runtime.info(id) {
        let metrics = runtime
            .registry(id)
            .map(|r| r.snapshot().to_value())
            .unwrap_or(Value::Null);
        let line = Value::object(vec![("job", job_to_json(&info)), ("metrics", metrics)]).to_json();
        let chunk = format!("{line}\n");
        write!(stream, "{:x}\r\n{chunk}\r\n", chunk.len())?;
        stream.flush()?;
        if info.state.is_terminal() || stop.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    // Terminating zero-length chunk.
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_transitions_render() {
        let s = RunStatus::new();
        assert_eq!(s.phase(), RunPhase::WaitingForClients);
        s.set_phase(RunPhase::Training {
            round: 2,
            total: 10,
        });
        assert!(s
            .execute(AdminCommand::CheckStatus)
            .contains("training round 2/10"));
        s.set_phase(RunPhase::Finished);
        assert_eq!(s.phase(), RunPhase::Finished);
    }

    #[test]
    fn client_listing() {
        let s = RunStatus::new();
        assert!(s.execute(AdminCommand::ListClients).contains("no clients"));
        s.set_client("site-1", true);
        s.set_client("site-2", true);
        s.set_client("site-2", false);
        let listing = s.execute(AdminCommand::ListClients);
        assert!(listing.contains("site-1: alive"));
        assert!(listing.contains("site-2: dead"));
        assert_eq!(s.clients().len(), 2);
    }

    #[test]
    fn metric_recorded() {
        let s = RunStatus::new();
        assert_eq!(s.last_metric(), None);
        s.set_metric(0.875);
        assert_eq!(s.last_metric(), Some(0.875));
        assert!(s.execute(AdminCommand::CheckStatus).contains("0.8750"));
    }

    #[test]
    fn clones_share_state() {
        let s = RunStatus::new();
        let s2 = s.clone();
        s2.set_metric(1.0);
        assert_eq!(s.last_metric(), Some(1.0));
    }

    // === HTTP endpoint ===================================================

    use crate::dxo::{WeightTensor, Weights};
    use crate::executor::ArithmeticExecutor;
    use crate::job::JobConfig;
    use crate::simulator::SimulatorConfig;

    fn test_factory() -> JobFactory {
        Box::new(|text: &str| {
            let base = SimulatorConfig {
                seed: 1,
                ..SimulatorConfig::default()
            };
            let mut w = Weights::new();
            w.insert("p".into(), WeightTensor::new(vec![2], vec![0.0, 0.0]));
            Ok(JobSpec {
                config: JobConfig::parse(text, &base)?,
                initial: w,
                make_executor: Box::new(|i, _| {
                    Box::new(ArithmeticExecutor {
                        delta: (i + 1) as f32,
                        n_examples: 10,
                    })
                }),
            })
        })
    }

    /// Minimal HTTP/1.1 client: one request, `Connection: close`,
    /// returns `(status, body)`. Reads to EOF, so chunked streams come
    /// back whole.
    fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: clinfl\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
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

    #[test]
    fn http_api_submit_list_metrics_abort() {
        let runtime = JobRuntime::new(2);
        let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), test_factory()).unwrap();
        let addr = server.local_addr();

        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\":true"));

        let (status, body) = http(
            addr,
            "POST",
            "/jobs",
            "name = alpha\nrounds = 2\nclients = 2\n",
        );
        assert_eq!(status, 201, "{body}");
        let submitted = Value::parse(&body).unwrap();
        let id = submitted.get("id").and_then(Value::as_u64).unwrap();
        assert_eq!(submitted.get("name").and_then(Value::as_str), Some("alpha"));

        assert_eq!(
            runtime.wait(id, std::time::Duration::from_secs(30)),
            Some(crate::jobs::JobState::Finished)
        );

        let (status, body) = http(addr, "GET", "/jobs", "");
        assert_eq!(status, 200);
        let listing = Value::parse(&body).unwrap();
        assert_eq!(
            listing.get("jobs").and_then(Value::as_array).unwrap().len(),
            1
        );

        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"finished\""), "{body}");
        let job = Value::parse(&body).unwrap();
        let spec = job.get("spec").and_then(Value::as_str).unwrap();
        assert!(
            spec.contains("clients = 2\n") && spec.contains("rounds = 2\n"),
            "{spec}"
        );
        assert_eq!(job.get("clients").and_then(Value::as_u64), Some(2));

        let (status, body) = http(addr, "GET", &format!("/jobs/{id}/metrics"), "");
        assert_eq!(status, 200);
        let snap = Value::parse(&body).unwrap();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("flare.round.count"))
                .and_then(Value::as_u64),
            Some(2)
        );

        // Terminal job: abort is acknowledged but refused.
        let (status, body) = http(addr, "POST", &format!("/jobs/{id}/abort"), "");
        assert_eq!(status, 200);
        assert!(body.contains("\"aborted\":false"));

        // Unknowns and wrong methods.
        assert_eq!(http(addr, "GET", "/jobs/999", "").0, 404);
        assert_eq!(http(addr, "DELETE", "/jobs", "").0, 405);
        assert_eq!(http(addr, "GET", "/nope", "").0, 404);
        let (status, body) = http(addr, "POST", "/jobs", "rounds = nope\n");
        assert_eq!(status, 400);
        assert!(body.contains("invalid rounds"), "{body}");

        server.join();
        runtime.shutdown();
    }

    #[test]
    fn http_metrics_stream_follows_job_to_terminal() {
        let runtime = JobRuntime::new(2);
        let server = AdminServer::bind("127.0.0.1:0", runtime.clone(), test_factory()).unwrap();
        let addr = server.local_addr();
        let (status, body) = http(addr, "POST", "/jobs", "name = s\nrounds = 2\nclients = 2\n");
        assert_eq!(status, 201, "{body}");
        let id = Value::parse(&body)
            .unwrap()
            .get("id")
            .and_then(Value::as_u64)
            .unwrap();
        // The stream blocks until the job is terminal, then closes; the
        // last line must carry the terminal state.
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}/metrics/stream"), "");
        assert_eq!(status, 200);
        let last = body
            .lines()
            .rfind(|l| l.contains("\"job\""))
            .expect("at least one NDJSON line");
        let parsed = Value::parse(last).unwrap();
        assert_eq!(
            parsed
                .get("job")
                .and_then(|j| j.get("state"))
                .and_then(Value::as_str),
            Some("finished")
        );
        server.join();
        runtime.shutdown();
    }
}
