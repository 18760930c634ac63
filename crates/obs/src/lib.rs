//! Zero-dependency observability: timing spans + a metrics registry.
//!
//! Metrics live in lock-sharded [`Registry`] scopes of named
//! [`Counter`]s, [`Gauge`]s and [`Histogram`]s. By default every crate
//! in the workspace records into the process-global scope via the free
//! functions ([`counter`], [`add_counter`], [`snapshot`], …); hosts
//! that run several tenants in one process (the flare job runtime)
//! hand each tenant its own [`Registry::new`] so same-named metrics
//! from concurrent runs never mix. Recording is a handful of relaxed
//! atomics, cheap enough to leave enabled in release builds; the
//! `CLINFL_OBS` env var (`0` / `off` / `false`) turns the whole layer
//! into near-no-ops.
//!
//! Hierarchical wall-clock spans (`run > round > site > train_step`)
//! live on a per-thread stack: entering returns a [`SpanGuard`], and the
//! guard's drop records the elapsed time into a histogram named after
//! the full path (`span.run>round`). [`snapshot`] freezes everything
//! into a [`MetricsSnapshot`] that serializes to JSON (and parses back)
//! and renders a human summary table.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod json;
mod snapshot;

pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable knob
// ---------------------------------------------------------------------------

/// Whether observability recording is enabled.
///
/// Defaults to on; `CLINFL_OBS=0` (or `off` / `false`) disables it. The
/// env var is read once, on first use; [`set_enabled`] overrides it at
/// runtime (used by tests and the bench driver).
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Force the enable knob on or off for the rest of the process,
/// overriding `CLINFL_OBS`.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let off = std::env::var("CLINFL_OBS")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "off" || v == "false"
            })
            .unwrap_or(false);
        AtomicBool::new(!off)
    })
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value, with a `set_max` helper for
/// high-water marks (relaxed atomics).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two magnitude buckets a [`Histogram`] keeps.
/// Bucket `i` counts values `v` with `i == 64 - v.leading_zeros()`
/// (bucket 0 holds only `v == 0`), so the full `u64` range is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram of `u64` samples: count / sum / min / max plus
/// log2 magnitude buckets. All updates are relaxed atomics, so
/// concurrent recording from the worker pool is lossless.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the current state (empty histograms report `min == 0`).
    pub fn freeze(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-sharded registry
// ---------------------------------------------------------------------------

const SHARDS: usize = 16;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A scoped, lock-sharded collection of named metrics.
///
/// A `Registry` is a cheap cloneable handle (clones share storage). The
/// process owns one default instance — [`Registry::global`] — that every
/// free function ([`counter`], [`add_counter`], [`snapshot`], …) records
/// into, so code that does not care about scoping never sees this type.
/// Multi-tenant hosts (the job runtime) create one [`Registry::new`] per
/// job instead: two jobs recording the same metric name land in separate
/// scopes, and [`Registry::snapshot`] freezes exactly one job's metrics
/// with no cross-contamination.
#[derive(Clone)]
pub struct Registry {
    shards: Arc<[Mutex<HashMap<String, Metric>>; SHARDS]>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn global_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

impl Registry {
    /// Creates an empty scoped registry, independent of the global one.
    pub fn new() -> Self {
        Registry {
            shards: Arc::new(std::array::from_fn(|_| Mutex::new(HashMap::new()))),
        }
    }

    /// A handle to the process-global default registry — the scope every
    /// free function in this crate records into.
    pub fn global() -> Registry {
        global_registry().clone()
    }

    fn shard_for(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the counter registered under `name` in this scope,
    /// creating it on first use. Handles are `Arc`s — cache them on hot
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut shard = self.shard_for(name).lock().unwrap();
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge registered under `name` in this scope, creating
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut shard = self.shard_for(name).lock().unwrap();
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram registered under `name` in this scope,
    /// creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut shard = self.shard_for(name).lock().unwrap();
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Current value of the counter named `name` in this scope, or 0 if
    /// it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        let shard = self.shard_for(name).lock().unwrap();
        match shard.get(name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Adds `n` to the counter `name` in this scope if observability is
    /// enabled (one-liner for cold paths; hot paths should cache the
    /// handle).
    pub fn add_counter(&self, name: &str, n: u64) {
        if enabled() {
            self.counter(name).add(n);
        }
    }

    /// Records `v` into the histogram `name` in this scope if
    /// observability is enabled.
    pub fn record_histogram(&self, name: &str, v: u64) {
        if enabled() {
            self.histogram(name).record(v);
        }
    }

    /// Freezes every metric in this scope into a [`MetricsSnapshot`]
    /// with deterministic (sorted) ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap();
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Metric::Gauge(g) => {
                        snap.gauges.insert(name.clone(), g.get());
                    }
                    Metric::Histogram(h) => {
                        snap.histograms.insert(name.clone(), h.freeze());
                    }
                }
            }
        }
        snap
    }
}

/// Returns the counter registered under `name` in the global scope,
/// creating it on first use. Handles are `Arc`s — cache them on hot
/// paths.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    global_registry().counter(name)
}

/// Returns the gauge registered under `name` in the global scope,
/// creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global_registry().gauge(name)
}

/// Returns the histogram registered under `name` in the global scope,
/// creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global_registry().histogram(name)
}

/// Current value of the counter named `name` in the global scope, or 0
/// if it was never registered (convenience for tests and reports).
pub fn counter_value(name: &str) -> u64 {
    global_registry().counter_value(name)
}

/// Adds `n` to the counter `name` in the global scope if observability
/// is enabled (one-liner for cold paths; hot paths should cache the
/// handle).
pub fn add_counter(name: &str, n: u64) {
    global_registry().add_counter(name, n);
}

/// Records `v` into the histogram `name` in the global scope if
/// observability is enabled.
pub fn record_histogram(name: &str, v: u64) {
    global_registry().record_histogram(name, v);
}

/// CPU time consumed by the *calling thread*, in nanoseconds.
///
/// Unlike a wall clock, deltas of this value attribute work to one
/// service thread even when the box is oversubscribed: time spent
/// descheduled (other threads running on the core) does not count. The
/// scaling bench relies on this to measure root-reactor work per round
/// on a single-core CI runner where 1000+ site threads compete for the
/// CPU.
///
/// Linux/x86_64 issues a raw `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
/// syscall (the workspace is dependency-free by policy, so no `libc`);
/// other targets fall back to a process-wide monotonic wall clock, which
/// over-attributes under contention but keeps the API total.
// The one `unsafe` in the workspace: a read-only clock syscall with no
// pointers escaping. Kept to a single expression so the crate-level deny
// still guards everything else.
#[allow(unsafe_code)]
pub fn thread_time_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: i64 = 228;
        const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        let ret: i64;
        unsafe {
            std::arch::asm!(
                "syscall",
                inout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
        if ret == 0 {
            return (ts[0] as u64).saturating_mul(1_000_000_000) + ts[1] as u64;
        }
    }
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Freezes every metric registered in the global scope into a
/// [`MetricsSnapshot`] with deterministic (sorted) ordering.
pub fn snapshot() -> MetricsSnapshot {
    global_registry().snapshot()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: RefCell<Vec<(String, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one timing span; dropping it records the elapsed
/// nanoseconds into the histogram `span.<path>` where `<path>` is the
/// `>`-joined stack of enclosing span names on this thread.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a timing span named `name` on the current thread. Returns a
/// no-op guard when observability is disabled.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push((name.to_string(), Instant::now())));
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path: String = stack
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(">");
            if let Some((_, start)) = stack.pop() {
                let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                drop(stack);
                histogram(&format!("span.{path}")).record(elapsed);
            }
        });
    }
}

/// Depth of the current thread's span stack (0 outside any span).
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The current thread's span path (`run>round`), or an empty string
/// outside any span. Attached to log entries as structured context.
pub fn current_span_path() -> String {
    SPAN_STACK.with(|s| {
        s.borrow()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(">")
    })
}

// ---------------------------------------------------------------------------
// Kernel timer
// ---------------------------------------------------------------------------

/// Cached call-count + wall-time instrumentation for one hot kernel.
///
/// Declare as a `static`; the registry handles for `<name>.calls` and
/// `<name>.time_ns` are resolved once and reused, so a timed call costs
/// two `Instant::now()` reads and two relaxed atomic adds (one relaxed
/// load when observability is disabled).
pub struct KernelTimer {
    name: &'static str,
    handles: OnceLock<(Arc<Counter>, Arc<Counter>)>,
}

impl KernelTimer {
    /// Creates a timer for the kernel family `name` (e.g.
    /// `"tensor.matmul"`).
    pub const fn new(name: &'static str) -> Self {
        KernelTimer {
            name,
            handles: OnceLock::new(),
        }
    }

    fn handles(&self) -> &(Arc<Counter>, Arc<Counter>) {
        self.handles.get_or_init(|| {
            (
                counter(&format!("{}.calls", self.name)),
                counter(&format!("{}.time_ns", self.name)),
            )
        })
    }

    /// Runs `f`, recording one invocation and its wall-time.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !enabled() {
            return f();
        }
        let (calls, time_ns) = self.handles();
        let start = Instant::now();
        let out = f();
        calls.incr();
        time_ns.add(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    /// Starts timing; the returned guard records one invocation and the
    /// elapsed wall-time when dropped. Equivalent to [`KernelTimer::time`]
    /// for bodies with early returns.
    pub fn start(&self) -> KernelGuard<'_> {
        if !enabled() {
            return KernelGuard { armed: None };
        }
        let (calls, time_ns) = self.handles();
        KernelGuard {
            armed: Some((calls, time_ns, Instant::now())),
        }
    }
}

/// RAII guard from [`KernelTimer::start`]; records on drop.
#[must_use = "the guard records the scope that holds it"]
pub struct KernelGuard<'a> {
    armed: Option<(&'a Counter, &'a Counter, Instant)>,
}

impl Drop for KernelGuard<'_> {
    fn drop(&mut self) {
        if let Some((calls, time_ns, start)) = self.armed.take() {
            calls.incr();
            time_ns.add(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = counter("test.lib.counter");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        assert_eq!(counter_value("test.lib.counter"), 4);
        assert_eq!(counter_value("test.lib.never_registered"), 0);

        let g = gauge("test.lib.gauge");
        g.set(7);
        g.set_max(5);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_freeze() {
        let h = histogram("test.lib.hist");
        for v in [0u64, 1, 1, 7, 1024] {
            h.record(v);
        }
        let s = h.freeze();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1033);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        // 0 -> bucket 0; 1 -> bucket 1 (x2); 7 -> bucket 3; 1024 -> bucket 11.
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let s = histogram("test.lib.hist_empty").freeze();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("test.lib.kindclash");
        let _ = gauge("test.lib.kindclash");
    }

    #[test]
    fn same_name_returns_same_metric() {
        counter("test.lib.shared").add(2);
        counter("test.lib.shared").add(3);
        assert_eq!(counter_value("test.lib.shared"), 5);
    }

    #[test]
    fn spans_nest_and_record() {
        assert_eq!(span_depth(), 0);
        {
            let _a = span("outer_t");
            assert_eq!(current_span_path(), "outer_t");
            {
                let _b = span("inner_t");
                assert_eq!(span_depth(), 2);
                assert_eq!(current_span_path(), "outer_t>inner_t");
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        assert_eq!(current_span_path(), "");
        assert_eq!(histogram("span.outer_t").count(), 1);
        assert_eq!(histogram("span.outer_t>inner_t").count(), 1);
    }

    #[test]
    fn scoped_registries_are_isolated() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("test.scoped.hits").add(3);
        b.counter("test.scoped.hits").add(10);
        assert_eq!(a.counter_value("test.scoped.hits"), 3);
        assert_eq!(b.counter_value("test.scoped.hits"), 10);
        // Neither scope leaks into the global registry.
        assert_eq!(counter_value("test.scoped.hits"), 0);
        let snap = a.snapshot();
        assert_eq!(snap.counters.get("test.scoped.hits"), Some(&3));
    }

    #[test]
    fn global_handle_shares_free_function_scope() {
        let g = Registry::global();
        g.counter("test.scoped.global").add(2);
        add_counter("test.scoped.global", 5);
        assert_eq!(counter_value("test.scoped.global"), 7);
        assert_eq!(g.counter_value("test.scoped.global"), 7);
    }

    #[test]
    fn scoped_histograms_and_gauges() {
        let r = Registry::new();
        r.record_histogram("test.scoped.h", 8);
        r.gauge("test.scoped.g").set(4);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["test.scoped.h"].count, 1);
        assert_eq!(snap.gauges["test.scoped.g"], 4);
        assert_eq!(histogram("test.scoped.h").count(), 0);
    }

    #[test]
    fn kernel_timer_counts() {
        static T: KernelTimer = KernelTimer::new("test.lib.kernel");
        let out = T.time(|| 21 * 2);
        assert_eq!(out, 42);
        T.time(|| ());
        assert_eq!(counter_value("test.lib.kernel.calls"), 2);
        {
            let _g = T.start();
        }
        assert_eq!(counter_value("test.lib.kernel.calls"), 3);
    }
}
