//! Zero-dependency observability for the PT-k stack.
//!
//! Instrumented code talks to a [`Recorder`]: monotonic counters
//! ([`Recorder::add`]), f64 histograms over fixed log-scale buckets
//! ([`Recorder::observe`]), and span timings ([`Recorder::record_nanos`],
//! usually via the RAII [`span`] helper or a [`PhaseClock`]). The default
//! implementation is [`Noop`], so instrumentation costs a virtual call and
//! nothing else when nobody is listening — in particular no `Instant` is
//! ever read while a recorder reports [`Recorder::enabled`] `false`.
//!
//! A recorder is also the one channel for structured tracing: it may carry
//! a [`Tracer`] ([`Recorder::tracer`], [`Metrics::with_tracer`]), so every
//! layer handed a recorder — executor, run source, sampler — traces
//! through the same argument it records through, and a batch derives each
//! query's view of it with [`query_recorder`].
//!
//! [`Metrics`] is the concrete registry. Its [`Metrics::snapshot`] returns
//! a [`Snapshot`] whose counters and histograms are pure functions of the
//! recorded values: bucket assignment uses the binary exponent of the
//! value (integer bit manipulation, no floating-point logarithm), and all
//! maps are ordered, so two runs with the same seed produce bit-identical
//! snapshots on every platform. Wall-clock timings are inherently
//! non-deterministic and are therefore kept in a separate section that
//! [`Snapshot::to_json`] *excludes unless explicitly asked for* — golden
//! tests compare `to_json(false)`.
//!
//! ```
//! use ptk_obs::{Metrics, Recorder};
//!
//! let metrics = Metrics::new();
//! metrics.add("engine.scanned", 6);
//! metrics.observe("sampling.unit_len", 3.0);
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.counter("engine.scanned"), 6);
//! assert!(snapshot.to_json(false).contains("\"engine.scanned\":6"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod trace;

pub use flight::{FlightRecorder, QueryFlight, QueryRecord};
pub use trace::{
    render_logical, to_chrome_json, validate_chrome_trace, EventKind, Mark, NoopSink, Payload,
    PruneRule, RingSink, SharedSink, Stage, StopRule, TraceCheck, TraceEvent, TraceSink, Tracer,
};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sink for runtime metrics. All methods take `&self` so a recorder can be
/// shared freely; implementations must be thread-safe.
///
/// Metric names are `&'static str` by design: instrumentation points name
/// their counters with literals, and the registry never allocates for a
/// name.
pub trait Recorder: Send + Sync {
    /// Whether anything is listening for timings. Instrumented code
    /// consults this before doing work that only exists to be recorded
    /// (reading clocks, formatting); counters should be recorded
    /// unconditionally, so a recorder may keep counters while reporting
    /// `false` (see [`Metrics::counters_only`]).
    fn enabled(&self) -> bool {
        false
    }

    /// Increments the monotonic counter `name` by `delta`.
    fn add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Adds `nanos` of wall-clock time to the span `name`.
    fn record_nanos(&self, name: &'static str, nanos: u64) {
        let _ = (name, nanos);
    }

    /// The structured trace emitter riding on this recorder, if any (see
    /// [`Metrics::with_tracer`]). Instrumented code reads it once per
    /// scan or open, so a recorder without one costs a single branch.
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

/// The recorder that records nothing ([`Recorder::enabled`] is `false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {}

/// A recorder shared across owners (e.g. a long-lived data source and the
/// query that polls it).
pub type SharedRecorder = Arc<dyn Recorder>;

/// `recorder` as one query of a batch sees it: every counter, histogram
/// and timing goes straight to `recorder`, and when `recorder` carries a
/// tracer, trace events go to its [`Tracer::for_query`]`(query, worker)`
/// — the same sink and epoch, stamped with the query's own id and
/// sequence numbers.
pub fn query_recorder(recorder: &dyn Recorder, query: u32, worker: u32) -> impl Recorder + '_ {
    QueryRecorder {
        inner: recorder,
        tracer: recorder.tracer().map(|t| t.for_query(query, worker)),
    }
}

/// See [`query_recorder`].
struct QueryRecorder<'a> {
    inner: &'a dyn Recorder,
    tracer: Option<Tracer>,
}

impl Recorder for QueryRecorder<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.inner.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.inner.observe(name, value);
    }

    fn record_nanos(&self, name: &'static str, nanos: u64) {
        self.inner.record_nanos(name, nanos);
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

/// Histogram buckets are powers of two: bucket `e` counts values in
/// `[2^e, 2^(e+1))`. Exponents are clamped to this range, giving 64
/// buckets — ample for the unit lengths, byte counts and cell counts the
/// stack observes.
const MIN_EXP: i32 = -32;
/// Upper clamp of the bucket exponent range (see [`MIN_EXP`]).
const MAX_EXP: i32 = 31;

/// The log-scale bucket holding `value`: its IEEE-754 binary exponent,
/// clamped to `[MIN_EXP, MAX_EXP]`. Pure integer bit manipulation, so the
/// assignment is exact and identical on every platform. Non-positive and
/// non-finite values land in the lowest bucket.
fn bucket_exponent(value: f64) -> i32 {
    // NaN fails `is_finite`, so it lands in the lowest bucket too.
    if value <= 0.0 || !value.is_finite() {
        return MIN_EXP;
    }
    let biased = ((value.to_bits() >> 52) & 0x7ff) as i32;
    // Subnormals (biased exponent 0) are far below MIN_EXP anyway.
    let exponent = if biased == 0 { -1023 } else { biased - 1023 };
    exponent.clamp(MIN_EXP, MAX_EXP)
}

#[derive(Debug, Clone, Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_exponent(value)).or_insert(0) += 1;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    count: u64,
    total_nanos: u64,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    timings: BTreeMap<&'static str, Timing>,
}

/// A concrete metrics registry: counters, histograms and span timings
/// behind one mutex, plus an optional [`Tracer`] that instrumented code
/// finds through [`Recorder::tracer`]. Cheap enough for per-phase and
/// per-unit recording; hot loops should accumulate locally (e.g. via
/// [`PhaseClock`] or `ExecStats`-style structs) and flush once.
#[derive(Debug)]
pub struct Metrics {
    inner: Mutex<Registry>,
    /// Whether span timings are recorded (and so clocks read at all).
    timed: bool,
    tracer: Option<Tracer>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates an empty registry that records everything.
    pub fn new() -> Metrics {
        Metrics {
            inner: Mutex::default(),
            timed: true,
            tracer: None,
        }
    }

    /// Creates an empty registry that records counters and histograms but
    /// no timings: it reports [`Recorder::enabled`] `false`, so
    /// instrumented code reads no clock, and drops any timing it is handed.
    /// For consumers that keep only counters, such as a flight record.
    pub fn counters_only() -> Metrics {
        Metrics {
            inner: Mutex::default(),
            timed: false,
            tracer: None,
        }
    }

    /// This registry carrying `tracer`: every layer handed the registry
    /// as its recorder also emits its trace events through `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Metrics {
        self.tracer = Some(tracer);
        self
    }

    /// Takes a consistent snapshot of everything recorded so far.
    ///
    /// # Panics
    /// Panics if a previous user of the registry panicked mid-record.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        Snapshot {
            counters: inner.counters.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&name, h)| {
                    (
                        name,
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                            buckets: h.buckets.iter().map(|(&e, &c)| (e, c)).collect(),
                        },
                    )
                })
                .collect(),
            timings: inner
                .timings
                .iter()
                .map(|(&name, t)| {
                    (
                        name,
                        TimingSnapshot {
                            count: t.count,
                            total_nanos: t.total_nanos,
                        },
                    )
                })
                .collect(),
            // Scheduler facts are reported by the batch executor after the
            // fact, not recorded through the registry.
            scheduler: BTreeMap::new(),
        }
    }
}

impl Recorder for Metrics {
    fn enabled(&self) -> bool {
        self.timed
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.histograms.entry(name).or_default().observe(value);
    }

    fn record_nanos(&self, name: &'static str, nanos: u64) {
        if !self.timed {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let timing = inner.timings.entry(name).or_default();
        timing.count += 1;
        timing.total_nanos += nanos;
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

/// Starts an RAII span: the wall-clock time between this call and the
/// returned guard's drop is recorded under `name`. When the recorder is
/// disabled no clock is read at all.
pub fn span<'a>(recorder: &'a dyn Recorder, name: &'static str) -> Span<'a> {
    Span {
        armed: recorder.enabled().then(|| (recorder, name, Instant::now())),
    }
}

/// Guard returned by [`span`]; records its elapsed time when dropped.
pub struct Span<'a> {
    armed: Option<(&'a dyn Recorder, &'static str, Instant)>,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.armed.as_ref().map(|(_, name, _)| name))
            .finish()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((recorder, name, start)) = self.armed.take() {
            recorder.record_nanos(name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Accumulates the wall-clock time of one *phase* of a loop without
/// touching the recorder per iteration: [`PhaseClock::time`] wraps each
/// slice of work, [`PhaseClock::flush`] records the total once. Disabled
/// recorders skip the clock reads entirely.
#[derive(Debug)]
pub struct PhaseClock {
    enabled: bool,
    nanos: u64,
}

impl PhaseClock {
    /// A clock that is live only when `recorder` is enabled.
    pub fn new(recorder: &dyn Recorder) -> PhaseClock {
        PhaseClock::enabled_if(recorder.enabled())
    }

    /// A clock that is live iff `enabled` — for callers with a liveness
    /// condition beyond a single recorder (the executor also times phases
    /// when a trace sink is attached).
    pub fn enabled_if(enabled: bool) -> PhaseClock {
        PhaseClock { enabled, nanos: 0 }
    }

    /// Runs `work`, accumulating its wall-clock time when live.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let start = Instant::now();
        let value = work();
        self.nanos += start.elapsed().as_nanos() as u64;
        value
    }

    /// Records the accumulated time as one timing sample under `name`.
    pub fn flush(&self, recorder: &dyn Recorder, name: &'static str) {
        if self.enabled {
            recorder.record_nanos(name, self.nanos);
        }
    }

    /// The accumulated wall-clock nanoseconds so far (0 when the clock was
    /// built against a disabled recorder). The executor reads this to lay
    /// phase totals out as synthetic trace spans.
    pub fn nanos(&self) -> u64 {
        self.nanos
    }
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// `(exponent, count)` pairs, ascending: bucket `e` counted values in
    /// `[2^e, 2^(e+1))`. Only non-empty buckets appear.
    pub buckets: Vec<(i32, u64)>,
}

/// Log-bucket quantile estimates of a histogram (see
/// [`HistogramSnapshot::quantiles`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Upper-bound estimate of the 50th percentile.
    pub p50: f64,
    /// Upper-bound estimate of the 95th percentile.
    pub p95: f64,
    /// Upper-bound estimate of the 99th percentile.
    pub p99: f64,
    /// The largest observed value (exact).
    pub max: f64,
}

impl HistogramSnapshot {
    /// An upper-bound estimate of the `q`-quantile (`0 < q <= 1`) derived
    /// from the log-scale buckets: the exclusive top `2^(e+1)` of the
    /// bucket holding the quantile's rank, clamped to the observed
    /// maximum. Because bucket `e` holds values in `[2^e, 2^(e+1))`, the
    /// estimate never undershoots the true quantile and overshoots it by
    /// less than one power of two (for positive normal values; zeros,
    /// negatives and denormals all share the lowest bucket, where only
    /// the upper-bound guarantee holds). Purely a function of the bucket
    /// counts and `max`, so the view is deterministic and merges exactly
    /// along with the buckets.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(exp, count) in &self.buckets {
            cumulative += count;
            if cumulative >= target {
                // The top bucket is clamped (it holds everything at or
                // above 2^MAX_EXP), so its nominal top is not an upper
                // bound; the exact max is.
                if exp >= MAX_EXP {
                    return self.max;
                }
                return 2f64.powi(exp + 1).min(self.max);
            }
        }
        self.max
    }

    /// The p50/p95/p99/max view rendered by the text, JSON and Prometheus
    /// snapshot formats.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// One span's timing in a [`Snapshot`] — excluded from deterministic
/// output (see [`Snapshot::to_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Number of recorded spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across them.
    pub total_nanos: u64,
}

/// A point-in-time copy of a [`Metrics`] registry. Ordered maps make
/// every rendering deterministic; the timing section is the only
/// non-deterministic part and is opt-in per rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Span timings by name (wall-clock; never part of golden output).
    pub timings: BTreeMap<&'static str, TimingSnapshot>,
    /// Runtime scheduling facts by name (workers spawned, tasks, items
    /// stolen). Like `timings`, these describe *how* the
    /// run was scheduled, not *what* it computed, and depend on OS timing —
    /// so they are excluded from the deterministic rendering
    /// ([`Snapshot::to_json`] with `include_timings = false`) and may
    /// differ across pool widths while the deterministic sections stay
    /// bit-identical.
    pub scheduler: BTreeMap<&'static str, u64>,
}

/// Minimal JSON string escape for metric names (which are identifiers, but
/// defensiveness is cheap).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an f64 for JSON. Finite values use Rust's shortest round-trip
/// `Display`; non-finite values (which valid JSON cannot carry) become
/// quoted strings.
pub(crate) fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        let _ = write!(out, "\"{value}\"");
    }
}

/// One-line `# HELP` description for a metric name, used by
/// [`Snapshot::to_prometheus`]. Curated text for the names the stack
/// records today; prefix fallbacks keep future names presentable without
/// another table entry.
fn metric_help(name: &str) -> &'static str {
    match name {
        "engine.scanned" => "Tuples retrieved from the ranked list (scan depth).",
        "engine.evaluated" => "Tuples whose exact top-k probability was computed.",
        "engine.pruned_membership" => "Tuples skipped by Theorem 3(1) membership pruning.",
        "engine.pruned_membership.tuple" => "Theorem 3(1) prunes decided per tuple after a decode.",
        "engine.pruned_membership.block" => {
            "Theorem 3(1) prunes decided per block, skipping the decode."
        }
        "engine.pruned_rule" => "Tuples skipped by rule pruning (Theorem 3(2) or Theorem 4).",
        "engine.pruned_rule.whole" => "Tuples pruned because Theorem 3(2) failed their whole rule.",
        "engine.pruned_rule.member" => "Tuples pruned by Theorem 4 against a failed rule sibling.",
        "engine.dp_cells" => "Subset-probability dynamic-programming cells computed.",
        "engine.entries_recomputed" => {
            "Compressed-dominant-set entries whose DP row was recomputed."
        }
        "engine.rules_compressed" => "Distinct rules compressed into rule-tuples during the scan.",
        "engine.answers" => "Tuples in the answer set.",
        "engine.gf.rows_incremental" => {
            "Generating-function rows served by the incremental recurrence."
        }
        "engine.gf.rows_refolded" => "Generating-function rows refolded exactly as a fallback.",
        "engine.stop.total_topk" => "Scans stopped early by Theorem 5 (total top-k mass).",
        "engine.stop.upper_bound" => "Scans stopped early by the upper-bound check.",
        "serve.requests" => "Requests fully read off the wire.",
        "serve.responses_ok" => "Requests answered 200.",
        "serve.query_errors" => "Statements rejected by the handler (400).",
        "serve.panics" => "Statements whose handler panicked (500).",
        "serve.http_errors" => "Malformed HTTP requests (truncated, garbage, oversized).",
        "serve.rejected.queue_full" => "Connections rejected 429 by admission control.",
        "serve.rejected.timeout" => "Requests rejected 408 after the per-request timeout.",
        "serve.client_disconnects" => "Clients that hung up mid-request or mid-response.",
        "serve.cache.hits" => "Result-cache hits.",
        "serve.cache.misses" => "Cacheable requests that had to execute.",
        "serve.cache.uncacheable" => "Requests that can never be cached.",
        "serve.queue_depth" => "Admission-queue depth observed at enqueue time.",
        "serve.latency_ms" => "Request latency in milliseconds, admission to response.",
        "serve.request" => "Wall-clock execution time of handled statements.",
        "access.file.bytes_read" => "Bytes read from run files.",
        "access.file.records" => "Records decoded from run files.",
        "access.file.opens" => "Run files opened.",
        "access.block.read" => "Blocks fetched and decoded.",
        "access.block.skip" => "Blocks skipped whole under the block-level membership bound.",
        "access.block.decode_bytes" => "Bytes actually decoded from fetched blocks.",
        "access.block.pool_hit" => "Block fetches served by a resident pool frame.",
        "access.block.pool_miss" => "Block fetches that had to read the file.",
        "access.block.pin" => "Frame pins taken by scan cursors.",
        "access.block.evict" => "Resident frames evicted to make room for a fetch.",
        "batch.workers_spawned" => "Worker threads the batch scheduler spawned.",
        "batch.tasks" => "Tasks executed by the batch scheduler, one per query.",
        "batch.steals" => "Tasks stolen from another worker's deque.",
        "cli.render" => "Wall-clock time of writing the answer listing.",
        n if n.starts_with("engine.phase.") => "Wall-clock time of one engine phase.",
        n if n.starts_with("engine.") => "Engine execution metric.",
        n if n.starts_with("serve.") => "Daemon metric.",
        n if n.starts_with("access.") => "Storage access metric.",
        n if n.starts_with("sampling.") => "Sampling engine metric.",
        n if n.starts_with("batch.") => "Batch scheduler metric.",
        _ => "PT-k runtime metric.",
    }
}

impl Snapshot {
    /// The counter's value, or 0 if it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed under it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.timings.is_empty()
            && self.scheduler.is_empty()
    }

    /// The named scheduler fact, or 0 if it was never reported.
    pub fn scheduler_value(&self, name: &str) -> u64 {
        self.scheduler.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as a single-line JSON object. With
    /// `include_timings = false` the output is a pure function of the
    /// recorded counters and histograms — this is the form golden tests
    /// compare. With `true`, `"timings"` (span name →
    /// `{count, total_nanos}`) and `"scheduler"` (fact → value) sections
    /// are appended for human consumption.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{},\"sum\":", h.count);
            push_json_f64(&mut out, h.sum);
            out.push_str(",\"min\":");
            push_json_f64(&mut out, h.min);
            out.push_str(",\"max\":");
            push_json_f64(&mut out, h.max);
            out.push_str(",\"buckets\":{");
            for (j, (exp, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"2^{exp}\":{count}");
            }
            // The quantile view is derived from the buckets and max, so it
            // stays inside the deterministic section.
            let q = h.quantiles();
            out.push_str("},\"q\":{\"p50\":");
            push_json_f64(&mut out, q.p50);
            out.push_str(",\"p95\":");
            push_json_f64(&mut out, q.p95);
            out.push_str(",\"p99\":");
            push_json_f64(&mut out, q.p99);
            out.push_str(",\"max\":");
            push_json_f64(&mut out, q.max);
            out.push_str("}}");
        }
        out.push('}');
        if include_timings {
            out.push_str(",\"timings\":{");
            for (i, (name, t)) in self.timings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, name);
                let _ = write!(
                    out,
                    ":{{\"count\":{},\"total_nanos\":{}}}",
                    t.count, t.total_nanos
                );
            }
            out.push('}');
            out.push_str(",\"scheduler\":{");
            for (i, (name, value)) in self.scheduler.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, name);
                let _ = write!(out, ":{value}");
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Folds another snapshot into this one, as if every event recorded in
    /// `other` had also been recorded here: counters and timings sum,
    /// histograms merge count/sum/min/max and add bucket counts.
    ///
    /// Merging is commutative and associative over the deterministic
    /// sections (counters and histogram counts/buckets are integer sums;
    /// histogram `sum` is an f64 accumulation, so merge in a fixed order —
    /// e.g. worker index — when bit-stable output matters).
    pub fn merge(&mut self, other: &Snapshot) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name, h.clone());
                }
                Some(mine) => {
                    if h.count > 0 {
                        if mine.count == 0 {
                            mine.min = h.min;
                            mine.max = h.max;
                        } else {
                            mine.min = mine.min.min(h.min);
                            mine.max = mine.max.max(h.max);
                        }
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                    for &(exp, count) in &h.buckets {
                        match mine.buckets.binary_search_by_key(&exp, |&(e, _)| e) {
                            Ok(i) => mine.buckets[i].1 += count,
                            Err(i) => mine.buckets.insert(i, (exp, count)),
                        }
                    }
                }
            }
        }
        for (&name, t) in &other.timings {
            let mine = self.timings.entry(name).or_insert(TimingSnapshot {
                count: 0,
                total_nanos: 0,
            });
            mine.count += t.count;
            mine.total_nanos += t.total_nanos;
        }
        for (&name, &value) in &other.scheduler {
            *self.scheduler.entry(name).or_insert(0) += value;
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`--stats prom`). Counters become `ptk_<name>` counters, histograms
    /// become native Prometheus histograms with *cumulative* `_bucket`
    /// series (each `le` upper bound is the bucket's exclusive top `2^(e+1)`,
    /// closed with `+Inf`) plus `_sum` and `_count`, and span timings become
    /// `_nanos_total`/`_spans_total` counter pairs. Metric names sanitize
    /// `.` and any other non-identifier character to `_`.
    ///
    /// Like [`Snapshot::to_text`], this rendering includes wall-clock
    /// timings — it feeds scrapes, not golden files; golden tests should
    /// render snapshots whose timing section is empty.
    pub fn to_prometheus(&self) -> String {
        fn sanitized(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("ptk_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::with_capacity(256);
        for (raw, value) in &self.counters {
            let name = sanitized(raw);
            let _ = writeln!(out, "# HELP {name} {}", metric_help(raw));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (raw, h) in &self.histograms {
            let name = sanitized(raw);
            let _ = writeln!(out, "# HELP {name} {}", metric_help(raw));
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(exp, count) in &h.buckets {
                cumulative += count;
                let le = 2f64.powi(exp + 1);
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = write!(out, "{name}_sum ");
            let _ = writeln!(out, "{}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            // Percentile exposition: log-bucket upper-bound estimates as
            // companion gauges (see HistogramSnapshot::quantile).
            let q = h.quantiles();
            for (suffix, value, help) in [
                ("p50", q.p50, "Log-bucket upper-bound estimate of the p50."),
                ("p95", q.p95, "Log-bucket upper-bound estimate of the p95."),
                ("p99", q.p99, "Log-bucket upper-bound estimate of the p99."),
                ("max", q.max, "Largest observed value."),
            ] {
                let _ = writeln!(out, "# HELP {name}_{suffix} {help}");
                let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                let _ = writeln!(out, "{name}_{suffix} {value}");
            }
        }
        for (raw, t) in &self.timings {
            let name = sanitized(raw);
            let _ = writeln!(
                out,
                "# HELP {name}_nanos_total Total wall-clock nanoseconds in this span. {}",
                metric_help(raw)
            );
            let _ = writeln!(out, "# TYPE {name}_nanos_total counter");
            let _ = writeln!(out, "{name}_nanos_total {}", t.total_nanos);
            let _ = writeln!(
                out,
                "# HELP {name}_spans_total Number of recorded spans. {}",
                metric_help(raw)
            );
            let _ = writeln!(out, "# TYPE {name}_spans_total counter");
            let _ = writeln!(out, "{name}_spans_total {}", t.count);
        }
        for (raw, value) in &self.scheduler {
            let name = sanitized(raw);
            let _ = writeln!(out, "# HELP {name} {}", metric_help(raw));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }

    /// Renders the snapshot as human-readable lines (`--stats text`).
    /// Includes timings: the text form is for eyeballs, not golden files.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: count={} sum={} min={} max={}",
                h.count, h.sum, h.min, h.max
            );
            for (exp, count) in &h.buckets {
                let _ = writeln!(out, "          [2^{exp}, 2^{}): {count}", exp + 1);
            }
            let q = h.quantiles();
            let _ = writeln!(
                out,
                "          p50<={} p95<={} p99<={} max={}",
                q.p50, q.p95, q.p99, q.max
            );
        }
        for (name, t) in &self.timings {
            let _ = writeln!(
                out,
                "span      {name}: count={} total={:.3}ms",
                t.count,
                t.total_nanos as f64 / 1e6
            );
        }
        for (name, value) in &self.scheduler {
            let _ = writeln!(out, "sched     {name} = {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add("a", 2);
        m.add("a", 3);
        m.add("b", 1);
        let s = m.snapshot();
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("b"), 1);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_are_binary_exponents() {
        let m = Metrics::new();
        for v in [1.0, 1.5, 2.0, 3.0, 4.0, 0.5, 0.75] {
            m.observe("h", v);
        }
        let s = m.snapshot();
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 4.0);
        // [1,2): {1, 1.5}; [2,4): {2, 3}; [4,8): {4}; [0.5,1): {0.5, 0.75}
        assert_eq!(h.buckets, vec![(-1, 2), (0, 2), (1, 2), (2, 1)]);
    }

    #[test]
    fn bucket_exponent_is_exact_and_clamped() {
        assert_eq!(bucket_exponent(1.0), 0);
        assert_eq!(bucket_exponent(1.99), 0);
        assert_eq!(bucket_exponent(2.0), 1);
        assert_eq!(bucket_exponent(0.5), -1);
        assert_eq!(bucket_exponent(0.0), MIN_EXP);
        assert_eq!(bucket_exponent(-3.0), MIN_EXP);
        assert_eq!(bucket_exponent(f64::NAN), MIN_EXP);
        assert_eq!(bucket_exponent(f64::INFINITY), MIN_EXP);
        assert_eq!(bucket_exponent(1e-300), MIN_EXP);
        assert_eq!(bucket_exponent(1e300), MAX_EXP);
        assert_eq!(bucket_exponent(f64::MIN_POSITIVE / 2.0), MIN_EXP);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_excludes_timings() {
        let build = |order_flip: bool| {
            let m = Metrics::new();
            let names: [&'static str; 2] = if order_flip { ["b", "a"] } else { ["a", "b"] };
            for n in names {
                m.add(n, 1);
            }
            m.observe("len", 3.0);
            m.record_nanos("phase", 123);
            m.snapshot().to_json(false)
        };
        let json = build(false);
        assert_eq!(json, build(true), "insertion order must not matter");
        assert_eq!(
            json,
            "{\"counters\":{\"a\":1,\"b\":1},\"histograms\":{\"len\":{\"count\":1,\
             \"sum\":3,\"min\":3,\"max\":3,\"buckets\":{\"2^1\":1},\
             \"q\":{\"p50\":3,\"p95\":3,\"p99\":3,\"max\":3}}}}"
        );
        assert!(!json.contains("nanos"));
    }

    #[test]
    fn snapshot_json_can_include_timings() {
        let m = Metrics::new();
        m.record_nanos("phase", 100);
        m.record_nanos("phase", 50);
        let json = m.snapshot().to_json(true);
        assert!(
            json.contains("\"timings\":{\"phase\":{\"count\":2,\"total_nanos\":150}}"),
            "{json}"
        );
    }

    #[test]
    fn scheduler_section_is_diagnostic_only() {
        let mut s = Snapshot::default();
        s.counters.insert("engine.scanned", 7);
        s.scheduler.insert("batch.steals", 3);
        s.scheduler.insert("batch.workers_spawned", 4);
        // Excluded from the deterministic rendering: scheduler facts vary
        // with OS timing and pool width while golden output must not.
        assert!(!s.to_json(false).contains("scheduler"));
        assert!(
            s.to_json(true)
                .contains("\"scheduler\":{\"batch.steals\":3,\"batch.workers_spawned\":4}"),
            "{}",
            s.to_json(true)
        );
        // Published through the scrape + text renderings.
        let prom = s.to_prometheus();
        assert!(prom.contains("ptk_batch_steals 3"), "{prom}");
        assert!(prom.contains("ptk_batch_workers_spawned 4"), "{prom}");
        assert!(s.to_text().contains("sched     batch.steals = 3"));
        // Merge sums, like every other section.
        let mut other = Snapshot::default();
        other.scheduler.insert("batch.steals", 2);
        s.merge(&other);
        assert_eq!(s.scheduler_value("batch.steals"), 5);
        assert_eq!(s.scheduler_value("missing"), 0);
        let sched_only = Snapshot {
            scheduler: [("batch.tasks", 1u64)].into_iter().collect(),
            ..Snapshot::default()
        };
        assert!(!sched_only.is_empty());
    }

    #[test]
    fn span_records_timing_only_when_enabled() {
        let m = Metrics::new();
        {
            let _s = span(&m, "work");
        }
        let s = m.snapshot();
        assert_eq!(s.timings.get("work").map(|t| t.count), Some(1));

        // A Noop recorder stays empty (and reads no clock).
        {
            let _s = span(&Noop, "work");
        }
    }

    #[test]
    fn phase_clock_accumulates_and_flushes_once() {
        let m = Metrics::new();
        let mut clock = PhaseClock::new(&m);
        let v: u64 = clock.time(|| 21) + clock.time(|| 21);
        assert_eq!(v, 42);
        clock.flush(&m, "phase");
        let s = m.snapshot();
        assert_eq!(s.timings.get("phase").map(|t| t.count), Some(1));

        let mut dead = PhaseClock::new(&Noop);
        assert_eq!(dead.time(|| 1), 1);
        dead.flush(&Noop, "phase");
    }

    #[test]
    fn counters_only_reads_no_clock_and_keeps_counters() {
        let m = Metrics::counters_only();
        assert!(!m.enabled());
        {
            let _s = span(&m, "work");
        }
        let mut clock = PhaseClock::new(&m);
        clock.time(|| std::hint::black_box(1));
        clock.flush(&m, "phase");
        m.record_nanos("handed", 5);
        m.add("engine.scanned", 3);
        m.observe("h", 2.0);
        let s = m.snapshot();
        assert!(s.timings.is_empty(), "{:?}", s.timings);
        assert_eq!(clock.nanos(), 0);
        assert_eq!(s.counter("engine.scanned"), 3);
        assert_eq!(s.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn a_query_recorder_records_into_its_batch_and_traces_as_its_query() {
        let sink = Arc::new(RingSink::new(16));
        let metrics = Metrics::counters_only().with_tracer(Tracer::new(
            Arc::clone(&sink) as SharedSink,
            0,
            0,
        ));
        let query = query_recorder(&metrics, 3, 1);
        assert!(!query.enabled());
        query.add("engine.scanned", 4);
        query.record_nanos("engine.query", 9);
        let tracer = query.tracer().expect("the batch's tracer is carried");
        tracer.begin(Stage::Query);
        tracer.end(Stage::Query, Payload::None);
        assert_eq!(metrics.snapshot().counter("engine.scanned"), 4);
        assert!(metrics.snapshot().timings.is_empty());
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| e.query == 3 && e.worker == 1 && e.seq == i as u64));
        // Without a tracer on the batch's recorder, a query has none.
        assert!(query_recorder(&Noop, 0, 0).tracer().is_none());
    }

    #[test]
    fn noop_records_nothing() {
        assert!(!Noop.enabled());
        Noop.add("a", 1);
        Noop.observe("h", 1.0);
        Noop.record_nanos("t", 1);
    }

    #[test]
    fn text_rendering_lists_everything() {
        let m = Metrics::new();
        m.add("engine.scanned", 6);
        m.observe("len", 2.0);
        m.record_nanos("query", 1_500_000);
        let text = m.snapshot().to_text();
        assert!(text.contains("counter   engine.scanned = 6"), "{text}");
        assert!(text.contains("histogram len: count=1"), "{text}");
        assert!(text.contains("span      query: count=1"), "{text}");
    }

    #[test]
    fn json_escapes_are_safe() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
        let mut f = String::new();
        push_json_f64(&mut f, f64::INFINITY);
        assert_eq!(f, "\"inf\"");
    }

    #[test]
    fn shared_recorder_is_usable_across_threads() {
        let metrics = Arc::new(Metrics::new());
        let shared: SharedRecorder = Arc::clone(&metrics) as SharedRecorder;
        let pool = ptk_par::ThreadPool::new(4);
        pool.parallel_map(&[(); 4], |_, _| {
            for _ in 0..100 {
                shared.add("hits", 1);
            }
        });
        assert_eq!(metrics.snapshot().counter("hits"), 400);
    }

    #[test]
    fn merge_sums_counters_and_timings() {
        let a = Metrics::new();
        a.add("hits", 3);
        a.add("only_a", 1);
        a.record_nanos("phase", 100);
        let b = Metrics::new();
        b.add("hits", 4);
        b.add("only_b", 2);
        b.record_nanos("phase", 50);
        b.record_nanos("other", 7);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("hits"), 7);
        assert_eq!(merged.counter("only_a"), 1);
        assert_eq!(merged.counter("only_b"), 2);
        assert_eq!(
            merged.timings.get("phase"),
            Some(&TimingSnapshot {
                count: 2,
                total_nanos: 150
            })
        );
        assert_eq!(merged.timings.get("other").map(|t| t.count), Some(1));
    }

    #[test]
    fn merge_equals_recording_into_one_registry() {
        let values_a = [1.0, 3.5, 0.25, 8.0];
        let values_b = [2.0, 0.125, 16.0];

        let combined = Metrics::new();
        for v in values_a.iter().chain(&values_b) {
            combined.observe("len", *v);
        }

        let a = Metrics::new();
        for v in values_a {
            a.observe("len", v);
        }
        let b = Metrics::new();
        for v in values_b {
            b.observe("len", v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        // Same order of f64 additions (all of a, then all of b), so the
        // histogram sum is bit-identical, not just close.
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn merge_in_fixed_order_is_bit_stable_and_integers_commute() {
        // The f64 caveat on Snapshot::merge, pinned: histogram `sum` is a
        // float accumulation, so merging worker snapshots in a *fixed*
        // order must be bit-stable run to run, while the integer sections
        // (counters, bucket counts, histogram count) must not care about
        // order at all. 0.1 + 0.2 + 0.3 groups differently under
        // reassociation, making the sums order-sensitive on purpose.
        let worker = |values: &[f64], hits: u64| {
            let m = Metrics::new();
            for &v in values {
                m.observe("len", v);
            }
            m.add("hits", hits);
            m.snapshot()
        };
        let snapshots = [
            worker(&[0.1, 0.2], 3),
            worker(&[0.3], 4),
            worker(&[0.7, 1.0e-3], 5),
        ];

        let merge_order = |order: &[usize]| {
            let mut merged = Snapshot::default();
            for &i in order {
                merged.merge(&snapshots[i]);
            }
            merged
        };
        // Fixed worker order: bit-stable, down to the f64 sum.
        let a = merge_order(&[0, 1, 2]);
        let b = merge_order(&[0, 1, 2]);
        assert_eq!(
            a.histogram("len").unwrap().sum.to_bits(),
            b.histogram("len").unwrap().sum.to_bits()
        );
        assert_eq!(a.to_json(false), b.to_json(false));

        // Reversed order: integer sections identical, sum merely close.
        let r = merge_order(&[2, 1, 0]);
        assert_eq!(a.counters, r.counters);
        let (ha, hr) = (a.histogram("len").unwrap(), r.histogram("len").unwrap());
        assert_eq!(ha.count, hr.count);
        assert_eq!(ha.buckets, hr.buckets);
        assert_eq!(ha.min.to_bits(), hr.min.to_bits());
        assert_eq!(ha.max.to_bits(), hr.max.to_bits());
        assert!((ha.sum - hr.sum).abs() < 1e-12);
        // ... and the caveat is real: this particular reassociation of
        // f64 additions does change the bit pattern.
        assert_ne!(
            ha.sum.to_bits(),
            hr.sum.to_bits(),
            "expected an order-sensitive sum to demonstrate the caveat"
        );
    }

    #[test]
    fn quantile_view_is_bucket_upper_bound() {
        let m = Metrics::new();
        for v in [1.0, 1.5, 3.0, 0.5] {
            m.observe("len", v);
        }
        let s = m.snapshot();
        let q = s.histogram("len").unwrap().quantiles();
        // p50 rank 2 lands in [1,2) → bound 2; p95/p99 rank 4 lands in
        // [2,4) → bound 4, clamped to the exact max 3.
        assert_eq!(q.p50, 2.0);
        assert_eq!(q.p95, 3.0);
        assert_eq!(q.p99, 3.0);
        assert_eq!(q.max, 3.0);
        // Text and prom renderings carry the view.
        assert!(
            s.to_text().contains("p50<=2 p95<=3 p99<=3 max=3"),
            "{}",
            s.to_text()
        );
        assert!(
            s.to_prometheus().contains("ptk_len_p50 2\n"),
            "{}",
            s.to_prometheus()
        );
    }

    #[test]
    fn quantiles_of_empty_and_clamped_histograms() {
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantiles().p99, 0.0);
        // Values above 2^MAX_EXP live in a clamped open-top bucket: the
        // estimate must fall back to the exact max, never undershoot.
        let m = Metrics::new();
        m.observe("big", 1e300);
        m.observe("big", 2e300);
        let s = m.snapshot();
        let q = s.histogram("big").unwrap().quantiles();
        assert_eq!(q.p50, 2e300);
        assert_eq!(q.p99, 2e300);
        // Zeros and negatives share the lowest bucket; the estimate still
        // bounds them from above.
        let m = Metrics::new();
        m.observe("low", 0.0);
        m.observe("low", -5.0);
        let s = m.snapshot();
        let q = s.histogram("low").unwrap().quantiles();
        assert!(q.p50 >= -5.0 && q.p99 >= 0.0, "{q:?}");
    }

    #[test]
    fn quantile_view_merges_exactly() {
        let a = Metrics::new();
        let b = Metrics::new();
        let combined = Metrics::new();
        for v in [0.25, 1.0, 7.0] {
            a.observe("len", v);
            combined.observe("len", v);
        }
        for v in [2.0, 1024.0] {
            b.observe("len", v);
            combined.observe("len", v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(
            merged.histogram("len").unwrap().quantiles(),
            combined.snapshot().histogram("len").unwrap().quantiles()
        );
    }

    #[test]
    fn prometheus_rendering_matches_golden() {
        let m = Metrics::new();
        m.add("engine.scanned", 6);
        m.add("engine.answers", 3);
        for v in [1.0, 1.5, 3.0, 0.5] {
            m.observe("sampling.unit_len", v);
        }
        let text = m.snapshot().to_prometheus();
        assert_eq!(
            text,
            "# HELP ptk_engine_answers Tuples in the answer set.\n\
             # TYPE ptk_engine_answers counter\n\
             ptk_engine_answers 3\n\
             # HELP ptk_engine_scanned Tuples retrieved from the ranked list (scan depth).\n\
             # TYPE ptk_engine_scanned counter\n\
             ptk_engine_scanned 6\n\
             # HELP ptk_sampling_unit_len Sampling engine metric.\n\
             # TYPE ptk_sampling_unit_len histogram\n\
             ptk_sampling_unit_len_bucket{le=\"1\"} 1\n\
             ptk_sampling_unit_len_bucket{le=\"2\"} 3\n\
             ptk_sampling_unit_len_bucket{le=\"4\"} 4\n\
             ptk_sampling_unit_len_bucket{le=\"+Inf\"} 4\n\
             ptk_sampling_unit_len_sum 6\n\
             ptk_sampling_unit_len_count 4\n\
             # HELP ptk_sampling_unit_len_p50 Log-bucket upper-bound estimate of the p50.\n\
             # TYPE ptk_sampling_unit_len_p50 gauge\n\
             ptk_sampling_unit_len_p50 2\n\
             # HELP ptk_sampling_unit_len_p95 Log-bucket upper-bound estimate of the p95.\n\
             # TYPE ptk_sampling_unit_len_p95 gauge\n\
             ptk_sampling_unit_len_p95 3\n\
             # HELP ptk_sampling_unit_len_p99 Log-bucket upper-bound estimate of the p99.\n\
             # TYPE ptk_sampling_unit_len_p99 gauge\n\
             ptk_sampling_unit_len_p99 3\n\
             # HELP ptk_sampling_unit_len_max Largest observed value.\n\
             # TYPE ptk_sampling_unit_len_max gauge\n\
             ptk_sampling_unit_len_max 3\n"
        );
    }

    #[test]
    fn prometheus_rendering_includes_timings_as_counters() {
        let m = Metrics::new();
        m.record_nanos("engine.query", 1_234);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("ptk_engine_query_nanos_total 1234"), "{text}");
        assert!(text.contains("ptk_engine_query_spans_total 1"), "{text}");
    }

    #[test]
    fn phase_clock_exposes_accumulated_nanos() {
        let m = Metrics::new();
        let mut clock = PhaseClock::new(&m);
        clock.time(|| std::hint::black_box(17));
        // Live clock: some time accumulated (possibly 0 on a coarse
        // clock, but the accessor must agree with what flush records).
        let nanos = clock.nanos();
        clock.flush(&m, "phase");
        assert_eq!(
            m.snapshot().timings.get("phase").map(|t| t.total_nanos),
            Some(nanos)
        );
        let mut dead = PhaseClock::new(&Noop);
        dead.time(|| 1);
        assert_eq!(dead.nanos(), 0);
    }

    #[test]
    fn merge_into_empty_copies_and_handles_disjoint_histograms() {
        let b = Metrics::new();
        b.observe("h", 4.0);
        b.observe("h", 0.5);
        let mut merged = Snapshot::default();
        merged.merge(&b.snapshot());
        assert_eq!(merged, b.snapshot());

        let a = Metrics::new();
        a.observe("other", 1.0);
        let mut base = a.snapshot();
        base.merge(&b.snapshot());
        assert_eq!(base.histogram("h"), b.snapshot().histogram("h"));
        assert_eq!(base.histogram("other").map(|h| h.count), Some(1));
    }
}
