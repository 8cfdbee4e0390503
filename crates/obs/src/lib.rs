//! `prlc-obs`: a zero-dependency, deterministic observability layer for
//! the PRLC workspace.
//!
//! The crate provides four primitives —
//!
//! * [`Counter`] — monotonic `u64` counters,
//! * [`Histogram`] — fixed power-of-two bucket histograms,
//! * [`SpanTimer`] — wall-clock span accumulators (count + nanoseconds),
//! * a bounded structured **event recorder** ([`record_event`]) with
//!   domain-separated IDs,
//!
//! — plus the [`trace`] module: a deterministic causal tracer of
//! logical-clock spans and instant events with its own gate
//! (`PRLC_TRACE=1`) and Perfetto-loadable export —
//!
//! — backed by a process-global [`Registry`] that is a **no-op unless
//! explicitly enabled** (`PRLC_OBS=1` in the environment, or a call to
//! [`enable`]). When disabled, every recording call is a single relaxed
//! atomic load; instrumented hot paths additionally guard on
//! [`enabled`] so they skip even argument computation.
//!
//! # Determinism rules
//!
//! Snapshots are designed to be byte-identical across thread counts and
//! backends for a fixed workload:
//!
//! * counters and histograms are commutative sums — merge order cannot
//!   be observed;
//! * snapshot output is sorted (metrics by name, events by
//!   `(domain, id, kind, value)`);
//! * **no wall-clock values are recorded** in counters, histograms or
//!   events. Wall-clock time lives exclusively in span timers, which
//!   [`Snapshot::to_deterministic_json`] omits (and
//!   [`Snapshot::to_json`] emits as the final `"timers"` key so callers
//!   can strip it textually).
//!
//! # Example
//!
//! ```
//! prlc_obs::enable();
//! prlc_obs::reset();
//! prlc_obs::counter!("demo.widgets").add(3);
//! prlc_obs::histogram!("demo.sizes").observe(17);
//! prlc_obs::record_event("demo", 7, "made", 3);
//! let snap = prlc_obs::snapshot();
//! assert!(snap.to_json().contains("\"demo.widgets\":3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Parses a `PRLC_OBS`/`PRLC_TRACE` value: `1`/`true` enables,
/// `0`/`false`/empty disables (both case-insensitive, surrounding
/// whitespace ignored). `Err` means the value is malformed and should
/// be warned about.
pub(crate) fn parse_obs_env(value: &str) -> Result<bool, ()> {
    let v = value.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(true)
    } else if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(false)
    } else {
        Err(())
    }
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var("PRLC_OBS") {
            match parse_obs_env(&v) {
                Ok(on) => ENABLED.store(on, Ordering::Relaxed),
                // Mirror runner::default_threads: a malformed value is
                // ignored, but loudly and only once.
                Err(()) => eprintln!(
                    "warning: ignoring PRLC_OBS={v:?} (expected 1/true to enable or \
                     0/false to disable); observability stays disabled"
                ),
            }
        }
    });
}

/// Is recording enabled? Cheap (one relaxed load after first use) —
/// instrumented hot paths call this before touching any metric.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on for this process (equivalent to `PRLC_OBS=1`).
pub fn enable() {
    init_from_env();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Already-recorded values are kept (use [`reset`]
/// to clear them).
pub fn disable() {
    init_from_env();
    ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonic counter. All mutation is gated on the global enable flag.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Upper-inclusive bucket bounds shared by every [`Histogram`]; one
/// overflow bucket follows. Fixed at compile time so snapshots from
/// different processes are structurally identical.
pub const BUCKET_BOUNDS: [u64; 14] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram over `u64` observations. Buckets are
/// upper-inclusive at [`BUCKET_BOUNDS`] plus a final overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            counts: [ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (bounds buckets, then the overflow bucket).
    pub fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        let mut out = [0u64; NUM_BUCKETS];
        for (o, c) in out.iter_mut().zip(self.counts.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Accumulates wall-clock span durations. Timer values are the one
/// deliberately non-deterministic quantity in the crate; they are
/// segregated into the final `"timers"` JSON key and omitted from
/// deterministic snapshots.
#[derive(Debug, Default)]
pub struct SpanTimer {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl SpanTimer {
    /// New timer at zero.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Start a span; the elapsed time is recorded when the returned
    /// guard drops. While disabled this never reads the clock.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            inner: enabled().then(|| (self, Instant::now())),
        }
    }

    /// Number of completed spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total accumulated nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`SpanTimer::span`].
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    inner: Option<(&'static SpanTimer, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.count.fetch_add(1, Ordering::Relaxed);
            timer.nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured event. `domain` separates ID namespaces (e.g. a
/// `net.churn` event's `id` is a node index, a `sim.lossy` event's `id`
/// is a run seed); `value` must be derived from the workload, never
/// from the clock.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Namespace for `id` (e.g. `"net.churn"`).
    pub domain: &'static str,
    /// Identifier within the domain.
    pub id: u64,
    /// What happened (e.g. `"crash"`).
    pub kind: &'static str,
    /// Deterministic payload value.
    pub value: u64,
}

/// Maximum events retained by a registry; later events only bump the
/// drop counter so the recorder stays bounded. Overflow is never
/// silent: every snapshot carries the count both as the top-level
/// `events_dropped` field and as the injected `obs.events.dropped`
/// counter.
pub const EVENT_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
    timers: BTreeMap<&'static str, &'static SpanTimer>,
}

/// A named collection of metrics plus a bounded event buffer.
///
/// Most users talk to the process-global registry through
/// [`registry`], the [`counter!`]/[`histogram!`]/[`timer!`] macros and
/// the free functions; standalone instances are useful in unit tests.
/// Metric handles are leaked on registration (`&'static`) — registries
/// are expected to live for the process.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter called `name`.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        lock(&self.metrics)
            .counters
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(Counter::new())))
    }

    /// Get or register the histogram called `name`.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        lock(&self.metrics)
            .histograms
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(Histogram::new())))
    }

    /// Get or register the span timer called `name`.
    pub fn timer(&self, name: &'static str) -> &'static SpanTimer {
        lock(&self.metrics)
            .timers
            .entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(SpanTimer::new())))
    }

    /// Record a structured event (no-op while disabled). The buffer is
    /// bounded at [`EVENT_CAPACITY`]; overflow increments a drop
    /// counter instead of growing.
    pub fn record_event(&self, domain: &'static str, id: u64, kind: &'static str, value: u64) {
        if !enabled() {
            return;
        }
        let mut events = lock(&self.events);
        if events.len() < EVENT_CAPACITY {
            events.push(Event {
                domain,
                id,
                kind,
                value,
            });
        } else {
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zero every metric and clear the event buffer. Registered names
    /// survive (they reappear in snapshots with zero values).
    pub fn reset(&self) {
        let metrics = lock(&self.metrics);
        for c in metrics.counters.values() {
            c.reset();
        }
        for h in metrics.histograms.values() {
            h.reset();
        }
        for t in metrics.timers.values() {
            t.reset();
        }
        drop(metrics);
        lock(&self.events).clear();
        self.events_dropped.store(0, Ordering::Relaxed);
    }

    /// A point-in-time, fully sorted copy of everything recorded.
    ///
    /// The always-on `obs.events.dropped` counter (how many events the
    /// bounded recorder discarded, see [`EVENT_CAPACITY`]) is injected
    /// at its sorted position so overflow is never silent, even when no
    /// macro call site registers it.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = lock(&self.metrics);
        let mut counters: Vec<(&'static str, u64)> = metrics
            .counters
            .iter()
            .map(|(&n, c)| (n, c.get()))
            .collect();
        const DROPPED_KEY: &str = "obs.events.dropped";
        let dropped = self.events_dropped.load(Ordering::Relaxed);
        let pos = counters.partition_point(|&(n, _)| n < DROPPED_KEY);
        match counters.get(pos) {
            Some(&(n, _)) if n == DROPPED_KEY => counters[pos].1 += dropped,
            _ => counters.insert(pos, (DROPPED_KEY, dropped)),
        }
        let histograms = metrics
            .histograms
            .iter()
            .map(|(&n, h)| {
                (
                    n,
                    HistogramSnapshot {
                        counts: h.bucket_counts().to_vec(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                )
            })
            .collect();
        let timers = metrics
            .timers
            .iter()
            .map(|(&n, t)| {
                (
                    n,
                    TimerSnapshot {
                        count: t.count(),
                        total_nanos: t.total_nanos(),
                    },
                )
            })
            .collect();
        drop(metrics);
        let mut events = lock(&self.events).clone();
        events.sort();
        Snapshot {
            counters,
            histograms,
            timers,
            events,
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry used by the `counter!`/`histogram!`/
/// `timer!` macros and the free functions below.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Record an event in the global registry. See [`Registry::record_event`].
pub fn record_event(domain: &'static str, id: u64, kind: &'static str, value: u64) {
    registry().record_event(domain, id, kind, value);
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Reset the global registry. See [`Registry::reset`].
pub fn reset() {
    registry().reset();
}

/// Get or register a counter in the global registry, caching the handle
/// per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Get or register a histogram in the global registry, caching the
/// handle per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Get or register a span timer in the global registry, caching the
/// handle per call site.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::SpanTimer> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().timer($name))
    }};
}

// ---------------------------------------------------------------------------
// Snapshots & exporters
// ---------------------------------------------------------------------------

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKET_BOUNDS`] buckets, then overflow).
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the
    /// [`BUCKET_BOUNDS`] entry of the bucket holding the
    /// `ceil(q * count)`-th smallest observation. Deterministic — a
    /// pure function of the bucket counts, so it carries the same
    /// cross-thread/cross-backend guarantee the counts do.
    ///
    /// Returns `None` for an empty histogram or when the rank lands in
    /// the overflow bucket (no finite upper bound to report).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // ceil(q * count), clamped to [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS.get(i).copied();
            }
        }
        None
    }
}

/// Frozen span-timer state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_nanos: u64,
}

/// A point-in-time copy of a registry, sorted for reproducible export.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter values by name (sorted).
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram states by name (sorted).
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Timer states by name (sorted). Wall-clock — non-deterministic.
    pub timers: Vec<(&'static str, TimerSnapshot)>,
    /// Events sorted by `(domain, id, kind, value)`.
    pub events: Vec<Event>,
    /// Events discarded after the buffer filled.
    pub events_dropped: u64,
}

/// Appends `s` to `out` escaped for use inside a JSON string literal:
/// `"` and `\` are backslash-escaped and control characters become
/// `\u00XX`. The workspace's one JSON string escaper (the std-only
/// linter keeps its own).
pub fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl Snapshot {
    /// JSON without any wall-clock content: byte-identical across
    /// thread counts for a fixed workload.
    pub fn to_deterministic_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(name, &mut s);
            s.push_str(&format!("\":{v}"));
        }
        s.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"domain\":\"");
            json_escape(e.domain, &mut s);
            s.push_str(&format!("\",\"id\":{},\"kind\":\"", e.id));
            json_escape(e.kind, &mut s);
            s.push_str(&format!("\",\"value\":{}}}", e.value));
        }
        s.push_str(&format!("],\"events_dropped\":{},", self.events_dropped));
        s.push_str("\"histogram_bounds\":[");
        for (i, b) in BUCKET_BOUNDS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&b.to_string());
        }
        s.push_str("],\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(name, &mut s);
            s.push_str("\":{\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&c.to_string());
            }
            s.push_str(&format!("],\"sum\":{},\"count\":{}", h.sum, h.count));
            // Bucket-derived percentile upper bounds (docs/METRICS.md,
            // "Histogram percentiles"); null when the rank falls in the
            // overflow bucket or the histogram is empty.
            for (key, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                match h.percentile(q) {
                    Some(v) => s.push_str(&format!(",\"{key}\":{v}")),
                    None => s.push_str(&format!(",\"{key}\":null")),
                }
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// Full JSON. The non-deterministic `"timers"` object is emitted as
    /// the **final** key, so `to_json()` is exactly
    /// [`Self::to_deterministic_json`] with `,"timers":{...}` spliced
    /// in before the closing brace — trivially strippable.
    pub fn to_json(&self) -> String {
        let mut s = self.to_deterministic_json();
        s.pop(); // closing brace
        s.push_str(",\"timers\":{");
        for (i, (name, t)) in self.timers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape(name, &mut s);
            s.push_str(&format!(
                "\":{{\"count\":{},\"total_ns\":{}}}",
                t.count, t.total_nanos
            ));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag is process-global: serialise tests that toggle it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guarded() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn obs_env_values_parse_or_flag_malformed() {
        assert_eq!(parse_obs_env("1"), Ok(true));
        assert_eq!(parse_obs_env("true"), Ok(true));
        assert_eq!(parse_obs_env("TRUE"), Ok(true));
        assert_eq!(parse_obs_env(" 1 "), Ok(true));
        assert_eq!(parse_obs_env("0"), Ok(false));
        assert_eq!(parse_obs_env("false"), Ok(false));
        assert_eq!(parse_obs_env(""), Ok(false));
        // Malformed values must be reported, not silently disabled.
        assert_eq!(parse_obs_env("yes"), Err(()));
        assert_eq!(parse_obs_env("on"), Err(()));
        assert_eq!(parse_obs_env("2"), Err(()));
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        let _g = guarded();
        disable();
        let r = Registry::new();
        r.counter("c").add(5);
        r.histogram("h").observe(9);
        r.record_event("d", 1, "k", 2);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("c", 0), ("obs.events.dropped", 0)]);
        assert_eq!(snap.histograms[0].1.count, 0);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_histograms_events_round_trip() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("a.x").add(2);
        r.counter("a.x").incr();
        r.counter("b.y").incr();
        let h = r.histogram("sizes");
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1_000_000);
        r.record_event("dom", 9, "boom", 4);
        r.record_event("dom", 3, "boom", 1);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.x", 3), ("b.y", 1), ("obs.events.dropped", 0)]
        );
        let hs = &snap.histograms[0].1;
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 1_000_003);
        assert_eq!(hs.counts[0], 2); // 0 and 1 both land in the <=1 bucket
        assert_eq!(hs.counts[1], 1);
        assert_eq!(*hs.counts.last().unwrap(), 1); // overflow
                                                   // Events come back sorted by (domain, id, kind, value).
        assert_eq!(snap.events[0].id, 3);
        assert_eq!(snap.events[1].id, 9);
        disable();
    }

    #[test]
    fn histogram_percentiles() {
        // Empty histogram: no percentile at all.
        let empty = HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            count: 0,
        };
        assert_eq!(empty.percentile(0.5), None);

        // 10 observations of 1 and one of 1000: p50/p90 sit in the
        // <=1 bucket, p99 lands on the 11th value (bound 1024).
        let mut counts = vec![0u64; NUM_BUCKETS];
        counts[0] = 10;
        counts[10] = 1; // bound 1024
        let h = HistogramSnapshot {
            counts,
            sum: 1010,
            count: 11,
        };
        assert_eq!(h.percentile(0.50), Some(1));
        assert_eq!(h.percentile(0.90), Some(1));
        assert_eq!(h.percentile(0.99), Some(1024));
        assert_eq!(h.percentile(1.0), Some(1024));

        // A single overflow observation has no finite bound.
        let mut counts = vec![0u64; NUM_BUCKETS];
        counts[NUM_BUCKETS - 1] = 1;
        let o = HistogramSnapshot {
            counts,
            sum: 1_000_000,
            count: 1,
        };
        assert_eq!(o.percentile(0.5), None);

        // The deterministic JSON carries the three fixed keys.
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.histogram("h").observe(3);
        let det = r.snapshot().to_deterministic_json();
        assert!(det.contains("\"p50\":4,\"p90\":4,\"p99\":4"));
        r.reset();
        let det = r.snapshot().to_deterministic_json();
        assert!(det.contains("\"p50\":null,\"p90\":null,\"p99\":null"));
        disable();
    }

    #[test]
    fn event_buffer_is_bounded() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            r.record_event("d", i, "k", 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.events_dropped, 10);
        // Overflow is surfaced as a counter too, not just the raw field.
        assert!(snap.counters.contains(&("obs.events.dropped", 10)));
        r.reset();
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_dropped, 0);
        disable();
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("kept").add(7);
        r.reset();
        assert_eq!(
            r.snapshot().counters,
            vec![("kept", 0), ("obs.events.dropped", 0)]
        );
        disable();
    }

    #[test]
    fn json_shapes() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("n").add(1);
        r.histogram("h").observe(3);
        let _ = r.timer("t"); // registered, zero
        r.record_event("d", 2, "k", 5);
        let snap = r.snapshot();
        let det = snap.to_deterministic_json();
        let full = snap.to_json();
        assert!(det.starts_with("{\"counters\":{\"n\":1,\"obs.events.dropped\":0}"));
        assert!(det.contains("\"events\":[{\"domain\":\"d\",\"id\":2,\"kind\":\"k\",\"value\":5}]"));
        assert!(det.contains("\"histograms\":{\"h\":{\"counts\":["));
        assert!(!det.contains("\"timers\""));
        // Full JSON is the deterministic body plus a trailing timers key.
        assert!(full.starts_with(&det[..det.len() - 1]));
        let stripped = &full[..full.find(",\"timers\":").unwrap()];
        assert_eq!(format!("{stripped}}}"), det);
        assert!(full.ends_with("\"timers\":{\"t\":{\"count\":0,\"total_ns\":0}}}"));
        disable();
    }

    #[test]
    fn exports_round_trip_as_well_formed_documents() {
        let _g = guarded();
        enable();
        let r = Registry::new();
        r.counter("net.collect.blocks").add(3);
        r.counter("weird\"name\\with\nescapes").incr();
        r.histogram("net.collect.query_hops").observe(7);
        let _ = r.timer("sim.run");
        r.record_event("net.churn", 2, "crash", 1);
        let snap = r.snapshot();
        for json in [snap.to_json(), snap.to_deterministic_json()] {
            baseline::parse_json(&json).unwrap_or_else(|e| panic!("{e} in {json}"));
        }
        disable();
    }

    #[test]
    fn span_timer_accumulates_only_when_enabled() {
        let _g = guarded();
        disable();
        let r = Registry::new();
        let t = r.timer("t");
        drop(t.span());
        assert_eq!(t.count(), 0);
        enable();
        drop(t.span());
        assert_eq!(t.count(), 1);
        disable();
    }

    #[test]
    fn global_macros_register_in_global_registry() {
        let _g = guarded();
        enable();
        counter!("obs.test.macro").add(2);
        histogram!("obs.test.hist").observe(5);
        let _span = timer!("obs.test.timer").span();
        drop(_span);
        record_event("obs.test", 1, "fired", 2);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|&(n, v)| n == "obs.test.macro" && v >= 2));
        assert!(snap.histograms.iter().any(|(n, _)| *n == "obs.test.hist"));
        assert!(snap.timers.iter().any(|(n, _)| *n == "obs.test.timer"));
        disable();
    }
}
