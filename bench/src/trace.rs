//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark's own wrappers around the calls into
//! each layer (never from inside the program), kept in memory while the
//! workload runs and written as NDJSON when it ends. A span carries its
//! wall-clock interval, the CPU time its thread spent inside it, and the
//! span that caused it; spans of one round share `(workload, round)` and,
//! on a site thread, the site's lane.

use crate::adapter::Json as Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `round` of a span recorded outside any round (registration, teardown).
pub const NO_ROUND: u32 = u32::MAX;

/// Lane of the controller thread. Site threads use their 0-based index.
pub const LANE_MAIN: i32 = -1;
/// Lane of the server's reactor thread.
pub const LANE_REACTOR: i32 = -2;
/// Lane of the server-side pump thread of site 0; site `i` pumps on
/// `LANE_PUMP0 - i`.
pub const LANE_PUMP0: i32 = -16;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (non-zero).
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer-qualified name, e.g. `core.executor.train`.
    pub name: &'static str,
    /// Round, or [`NO_ROUND`].
    pub round: u32,
    /// Thread lane: site index, or one of the negative `LANE_*` values.
    /// Spans of one lane never overlap except by nesting.
    pub lane: i32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// CPU time the lane's thread spent inside the span.
    pub cpu_ns: u64,
    /// Payload bytes moved (transport and persist spans; 0 elsewhere).
    pub bytes: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from every thread of the benchmark.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id, so children can name a parent that is pushed only
    /// when it closes.
    pub fn alloc_id(&self) -> u32 {
        // Relaxed: the id publishes nothing; the span itself travels
        // through the mutex.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// A copy of everything recorded so far, in push order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }
}

/// Time a span spent outside its children.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Duration minus the part of the interval the same-lane children cover.
    pub wall_ns: u64,
    /// CPU time minus the same-lane children's CPU time.
    pub cpu_ns: u64,
}

/// Self time of every span, keyed by span id.
///
/// Only children on the parent's own lane are subtracted: they nest inside
/// the parent on one thread, so their time is part of the parent's.
/// Children on other lanes (a site's task under the controller's round) run
/// concurrently; `parent` records what caused them, not containment.
/// Children are clipped to the parent's interval and overlapping children
/// are counted once.
pub fn self_times(spans: &[Span]) -> HashMap<u32, SelfTime> {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    let lanes: HashMap<u32, i32> = spans.iter().map(|s| (s.id, s.lane)).collect();
    for s in spans {
        if s.parent != 0 && lanes.get(&s.parent) == Some(&s.lane) {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let child_cpu: u64 = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|c| c.cpu_ns)
                .sum();
            (
                s.id,
                SelfTime {
                    wall_ns: s.wall_ns().saturating_sub(covered),
                    cpu_ns: s.cpu_ns.saturating_sub(child_cpu),
                },
            )
        })
        .collect()
}

fn span_to_value(workload: &str, s: &Span) -> Value {
    Value::object(vec![
        ("workload", Value::Str(workload.to_string())),
        (
            "round",
            if s.round == NO_ROUND {
                Value::Null
            } else {
                Value::UInt(u64::from(s.round))
            },
        ),
        ("lane", Value::Int(i64::from(s.lane))),
        ("id", Value::UInt(u64::from(s.id))),
        ("parent", Value::UInt(u64::from(s.parent))),
        ("name", Value::Str(s.name.to_string())),
        ("start_ns", Value::UInt(s.start_ns)),
        ("end_ns", Value::UInt(s.end_ns)),
        ("cpu_ns", Value::UInt(s.cpu_ns)),
        ("bytes", Value::UInt(s.bytes)),
    ])
}

/// Writes one JSON object per span to `path`, creating its directory.
pub fn write_ndjson(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", span_to_value(workload, s).to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, lane: i32, start: u64, end: u64, cpu: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            round: 0,
            lane,
            start_ns: start,
            end_ns: end,
            cpu_ns: cpu,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_lane_children_once() {
        let spans = vec![
            span(1, 0, 0, 100, 200, 80),
            // Two overlapping children cover [110, 150]; a third sticks out
            // past the parent's end and is clipped to [190, 200].
            span(2, 1, 0, 110, 140, 20),
            span(3, 1, 0, 130, 150, 10),
            span(4, 1, 0, 190, 230, 5),
            // A grandchild is not subtracted from the grandparent directly.
            span(5, 2, 0, 115, 120, 4),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st[&1],
            SelfTime {
                wall_ns: 100 - 40 - 10,
                cpu_ns: 80 - 35
            }
        );
        assert_eq!(
            st[&2],
            SelfTime {
                wall_ns: 25,
                cpu_ns: 16
            }
        );
        assert_eq!(
            st[&5],
            SelfTime {
                wall_ns: 5,
                cpu_ns: 4
            }
        );
    }

    #[test]
    fn children_on_other_lanes_are_concurrent_not_contained() {
        let spans = vec![
            span(1, 0, LANE_MAIN, 0, 100, 10),
            span(2, 1, 3, 10, 90, 70),
            span(3, 1, LANE_MAIN, 20, 30, 4),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st[&1],
            SelfTime {
                wall_ns: 90,
                cpu_ns: 6
            }
        );
        assert_eq!(st[&2].cpu_ns, 70);
    }

    #[test]
    fn child_cpu_never_drives_self_time_negative() {
        let spans = vec![span(1, 0, 0, 0, 10, 3), span(2, 1, 0, 0, 10, 9)];
        assert_eq!(self_times(&spans)[&1], SelfTime::default());
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let dir = std::env::temp_dir().join(format!("fedbench-trace-{}", std::process::id()));
        let path = dir.join("t.trace.ndjson");
        let mut s = span(7, 3, LANE_MAIN, 5, 9, 2);
        s.round = NO_ROUND;
        s.bytes = 11;
        write_ndjson(&path, "w", &[s]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = Value::parse(text.trim()).unwrap();
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(v.get("round"), Some(&Value::Null));
        assert_eq!(v.get("lane").and_then(Value::as_i64), Some(-1));
        assert_eq!(v.get("parent").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("bytes").and_then(Value::as_u64), Some(11));
        std::fs::remove_dir_all(&dir).ok();
    }
}
