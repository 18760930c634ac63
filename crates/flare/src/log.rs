//! Structured event log producing NVFlare-style run output (paper Fig. 3).

use crate::lock;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Severity of a log line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogLevel {
    /// Informational (the level NVFlare's run log uses throughout Fig. 3).
    Info,
    /// Something unexpected but survivable (dropped client, retry).
    Warn,
    /// A failure that aborts a workflow.
    Error,
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        })
    }
}

/// One structured log record.
///
/// The formatted Fig. 3-style line is derived on demand; keeping the
/// fields separate lets tests compare fault/drop events across runs
/// without the (non-deterministic) elapsed timestamps getting in the way.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Severity.
    pub level: LogLevel,
    /// Emitting component (`ServerRunner`, `FaultInjector`, …).
    pub component: String,
    /// The message body.
    pub message: String,
    /// Seconds since the log was created.
    pub elapsed_secs: f64,
    /// The emitting thread's obs span path (`run>round`) at log time;
    /// empty outside any span or with observability disabled. Carried as
    /// structured context only — [`LogEntry::format`] ignores it, so the
    /// Fig. 3 line format (and every deterministic comparison built on
    /// [`EventLog::messages_from`]) is unchanged.
    pub span: String,
}

impl LogEntry {
    /// The paper's Fig. 3 line format
    /// (`<elapsed> - <component> - <level> - <message>`).
    pub fn format(&self) -> String {
        format!(
            "{:>9.3}s - {} - {} - {}",
            self.elapsed_secs, self.component, self.level, self.message
        )
    }
}

/// A shared, thread-safe event log.
///
/// Lines are formatted like the paper's Fig. 3 run log, collected in
/// memory for assertions and demos, and optionally echoed to stdout.
#[derive(Clone, Debug)]
pub struct EventLog {
    start: Instant,
    entries: Arc<Mutex<Vec<LogEntry>>>,
    echo: bool,
}

impl EventLog {
    /// A silent log (lines collected, nothing printed).
    pub fn new() -> Self {
        EventLog {
            start: Instant::now(),
            entries: Arc::new(Mutex::new(Vec::new())),
            echo: false,
        }
    }

    /// A log that also echoes each line to stdout (for demos).
    pub fn echoing() -> Self {
        EventLog {
            echo: true,
            ..EventLog::new()
        }
    }

    /// Appends a line from `component` at `level`.
    pub fn log(&self, level: LogLevel, component: &str, message: impl fmt::Display) {
        let entry = LogEntry {
            level,
            component: component.to_string(),
            message: message.to_string(),
            elapsed_secs: self.start.elapsed().as_secs_f64(),
            span: clinfl_obs::current_span_path(),
        };
        if self.echo {
            println!("{}", entry.format());
        }
        lock(&self.entries).push(entry);
    }

    /// Shorthand for [`LogLevel::Info`].
    pub fn info(&self, component: &str, message: impl fmt::Display) {
        self.log(LogLevel::Info, component, message);
    }

    /// Shorthand for [`LogLevel::Warn`].
    pub fn warn(&self, component: &str, message: impl fmt::Display) {
        self.log(LogLevel::Warn, component, message);
    }

    /// Snapshot of all formatted lines so far.
    pub fn lines(&self) -> Vec<String> {
        lock(&self.entries).iter().map(LogEntry::format).collect()
    }

    /// Snapshot of the structured records.
    pub fn entries(&self) -> Vec<LogEntry> {
        lock(&self.entries).clone()
    }

    /// Timestamp-free messages from one component, in append order. Fault
    /// and drop events are compared across chaos runs through this view.
    pub fn messages_from(&self, component: &str) -> Vec<String> {
        lock(&self.entries)
            .iter()
            .filter(|e| e.component == component)
            .map(|e| e.message.clone())
            .collect()
    }

    /// True if any formatted line contains `needle` (test helper).
    pub fn contains(&self, needle: &str) -> bool {
        lock(&self.entries)
            .iter()
            .any(|e| e.format().contains(needle))
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_lines_in_order() {
        let log = EventLog::new();
        log.info("ServerRunner", "Server started");
        log.warn("ClientManager", "client site-3 late");
        let lines = log.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("ServerRunner - INFO - Server started"));
        assert!(lines[1].contains("WARN"));
    }

    #[test]
    fn clones_share_backing_storage() {
        let log = EventLog::new();
        let log2 = log.clone();
        log2.info("X", "from clone");
        assert!(log.contains("from clone"));
    }

    #[test]
    fn level_display() {
        assert_eq!(LogLevel::Info.to_string(), "INFO");
        assert_eq!(LogLevel::Error.to_string(), "ERROR");
    }

    #[test]
    fn messages_from_filters_by_component() {
        let log = EventLog::new();
        log.warn("FaultInjector", "site-1 c2s#3: injected drop (64B frame)");
        log.info("ServerRunner", "Round 0 started.");
        log.warn("FaultInjector", "site-2 s2c#1: injected delay (80B frame)");
        let faults = log.messages_from("FaultInjector");
        assert_eq!(faults.len(), 2);
        assert!(faults[0].starts_with("site-1"));
        assert!(faults[1].starts_with("site-2"));
        assert!(log.messages_from("NoSuchComponent").is_empty());
    }

    #[test]
    fn entries_carry_span_context_without_changing_format() {
        let log = EventLog::new();
        log.info("X", "outside");
        {
            let _s = clinfl_obs::span("logtest");
            log.info("X", "inside");
        }
        let entries = log.entries();
        assert_eq!(entries[0].span, "");
        if clinfl_obs::enabled() {
            assert_eq!(entries[1].span, "logtest");
        }
        // The Fig. 3 line format never includes the span context.
        assert!(!entries[1].format().contains("logtest"));
    }

    #[test]
    fn entries_expose_structure() {
        let log = EventLog::new();
        log.info("X", "hello");
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].level, LogLevel::Info);
        assert_eq!(entries[0].component, "X");
        assert_eq!(entries[0].message, "hello");
        assert!(entries[0].elapsed_secs >= 0.0);
        assert!(entries[0].format().contains("X - INFO - hello"));
    }
}
