//! Structured query tracing: typed begin/end spans and instant events
//! flowing into a [`TraceSink`], with two exporters — Chrome trace-event
//! JSON ([`to_chrome_json`], loadable in Perfetto / `chrome://tracing`)
//! and a timing-free *logical-clock* rendering ([`render_logical`]) that
//! is a pure function of the query and therefore golden-testable across
//! thread counts.
//!
//! The two renderings sit on opposite sides of the workspace's
//! determinism boundary (DESIGN.md §11): every [`TraceEvent`] carries
//! both a wall-clock offset (`nanos`, relative to the tracer's epoch)
//! and a logical sequence number (`seq`, per query). The Chrome export
//! uses the former and is different on every run; the logical rendering
//! uses only `(query, seq)` order and the typed payloads, and is
//! bit-identical for a fixed query at every `PTK_THREADS` width.
//!
//! ```
//! use ptk_obs::{render_logical, RingSink, Stage, TraceEvent, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(RingSink::new(64));
//! let tracer = Tracer::new(Arc::clone(&sink) as _, 0, 0);
//! tracer.begin(Stage::Query);
//! tracer.end(Stage::Query, ptk_obs::Payload::None);
//! let events: Vec<TraceEvent> = sink.events();
//! assert_eq!(events.len(), 2);
//! assert!(render_logical(&events).starts_with("q0 #0 B query"));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{push_json_f64, push_json_str};

/// A pipeline stage a span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The whole query: one scan of the ranked source.
    Query,
    /// Ranked retrieval — pulling tuples from the source.
    Retrieval,
    /// Rule-tuple compression and prefix reordering (§4.3.2).
    Reorder,
    /// The subset-probability dynamic program (Theorem 2).
    Dp,
    /// Pruning bound computation (§4.4 early-exit upper bound).
    Bound,
    /// Opening a run file and decoding its header/rule table.
    SourceOpen,
    /// A sampling run (§5): unit generation and progressive stopping.
    Sampling,
}

impl Stage {
    /// The stage's stable name, used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Retrieval => "retrieval",
            Stage::Reorder => "reorder",
            Stage::Dp => "dp",
            Stage::Bound => "bound",
            Stage::SourceOpen => "source-open",
            Stage::Sampling => "sampling",
        }
    }
}

/// The pruning rule behind a prune decision (Theorems 3–4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// Theorem 3(1): membership probability below the largest failed one.
    Theorem3Membership,
    /// Theorem 3(2): a whole rule's mass cannot reach the threshold.
    Theorem3WholeRule,
    /// Theorem 4: a rule member below its rule's largest failed member.
    Theorem4RuleMember,
}

impl PruneRule {
    /// Stable rule label for renderings.
    pub fn name(self) -> &'static str {
        match self {
            PruneRule::Theorem3Membership => "T3-membership",
            PruneRule::Theorem3WholeRule => "T3-whole-rule",
            PruneRule::Theorem4RuleMember => "T4-rule-member",
        }
    }
}

/// The rule behind an early-stop decision (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Theorem 5: the answer mass already exceeds `k - p`.
    Theorem5TotalTopK,
    /// The periodic future-upper-bound check fell below the threshold.
    UpperBound,
}

impl StopRule {
    /// Stable rule label for renderings.
    pub fn name(self) -> &'static str {
        match self {
            StopRule::Theorem5TotalTopK => "T5-total-topk",
            StopRule::UpperBound => "upper-bound",
        }
    }
}

/// Stage-specific data attached to an [`EventKind::End`] event. All fields
/// are integers derived from the query itself, never from the clock, so
/// payloads are safe for the logical rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Payload {
    /// Nothing to report.
    #[default]
    None,
    /// End-of-scan roll-up for [`Stage::Query`].
    Scan {
        /// Tuples pulled from the ranked source.
        scanned: u64,
        /// Tuples whose `Pr^k` was actually computed.
        evaluated: u64,
        /// Tuples skipped by membership pruning.
        pruned_membership: u64,
        /// Tuples skipped by rule pruning.
        pruned_rule: u64,
        /// Tuples that passed the threshold.
        answers: u64,
    },
    /// Retrieval totals for [`Stage::Retrieval`].
    Retrieval {
        /// Tuples retrieved.
        tuples: u64,
    },
    /// Compression totals for [`Stage::Reorder`].
    Reorder {
        /// Rule-tuples in the compressed dominant set.
        rules_compressed: u64,
    },
    /// DP totals for [`Stage::Dp`].
    Dp {
        /// Subset-probability cells computed.
        cells: u64,
        /// Entries recomputed after prefix invalidation.
        entries: u64,
    },
    /// Bound-check totals for [`Stage::Bound`].
    Bound {
        /// Future-upper-bound evaluations performed.
        checks: u64,
    },
    /// Run-file open for [`Stage::SourceOpen`].
    Source {
        /// Tuple records the header promises.
        tuples: u64,
        /// Rules in the rule table.
        rules: u64,
    },
    /// Sampling-run totals for [`Stage::Sampling`].
    Sampling {
        /// Sample units drawn.
        units: u64,
        /// Ranked positions visited across all units.
        positions: u64,
    },
}

/// A point event — a decision or notable moment inside a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A tuple was pruned without evaluating its `Pr^k`.
    Prune {
        /// 0-based scan rank of the pruned tuple.
        rank: u64,
        /// Which theorem fired.
        rule: PruneRule,
    },
    /// The scan stopped early.
    Stop {
        /// Which stopping rule fired.
        rule: StopRule,
    },
    /// A tuple passed the probability threshold.
    Answer {
        /// 0-based scan rank of the answer tuple.
        rank: u64,
    },
    /// A progressive-sampling stability check completed.
    SampleCheckpoint {
        /// Units drawn so far.
        drawn: u64,
        /// Whether the estimates were stable within `phi`.
        stable: bool,
    },
    /// A buffered read refilled from a run file.
    FileRead {
        /// Bytes read.
        bytes: u64,
    },
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin(Stage),
    /// A span closed, carrying its payload.
    End(Stage, Payload),
    /// A point event.
    Instant(Mark),
}

/// One trace event. `nanos` is the wall-clock offset from the tracer's
/// epoch and is excluded from the logical rendering; everything else is a
/// pure function of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Query id — the plan index within a batch, 0 for single queries.
    pub query: u32,
    /// Worker id — the batch worker that ran this query, 0 when sequential.
    pub worker: u32,
    /// Logical sequence number, monotonic per query from 0.
    pub seq: u64,
    /// Wall-clock nanoseconds since the tracer's epoch (0 when the tracer
    /// was built disabled).
    pub nanos: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// A value of one named payload field, for exporters.
enum FieldVal {
    U64(u64),
    Str(&'static str),
    Bool(bool),
}

/// Calls `f` for every `(name, value)` field of the event's payload or
/// mark, in a fixed order. Both exporters render through this, so their
/// field sets can never drift apart.
fn for_each_field(kind: &EventKind, mut f: impl FnMut(&'static str, FieldVal)) {
    match kind {
        EventKind::Begin(_) => {}
        EventKind::End(_, payload) => match *payload {
            Payload::None => {}
            Payload::Scan {
                scanned,
                evaluated,
                pruned_membership,
                pruned_rule,
                answers,
            } => {
                f("scanned", FieldVal::U64(scanned));
                f("evaluated", FieldVal::U64(evaluated));
                f("pruned_membership", FieldVal::U64(pruned_membership));
                f("pruned_rule", FieldVal::U64(pruned_rule));
                f("answers", FieldVal::U64(answers));
            }
            Payload::Retrieval { tuples } => f("tuples", FieldVal::U64(tuples)),
            Payload::Reorder { rules_compressed } => {
                f("rules_compressed", FieldVal::U64(rules_compressed));
            }
            Payload::Dp { cells, entries } => {
                f("cells", FieldVal::U64(cells));
                f("entries", FieldVal::U64(entries));
            }
            Payload::Bound { checks } => f("checks", FieldVal::U64(checks)),
            Payload::Source { tuples, rules } => {
                f("tuples", FieldVal::U64(tuples));
                f("rules", FieldVal::U64(rules));
            }
            Payload::Sampling { units, positions } => {
                f("units", FieldVal::U64(units));
                f("positions", FieldVal::U64(positions));
            }
        },
        EventKind::Instant(mark) => match *mark {
            Mark::Prune { rank, rule } => {
                f("rank", FieldVal::U64(rank));
                f("rule", FieldVal::Str(rule.name()));
            }
            Mark::Stop { rule } => f("rule", FieldVal::Str(rule.name())),
            Mark::Answer { rank } => f("rank", FieldVal::U64(rank)),
            Mark::SampleCheckpoint { drawn, stable } => {
                f("drawn", FieldVal::U64(drawn));
                f("stable", FieldVal::Bool(stable));
            }
            Mark::FileRead { bytes } => f("bytes", FieldVal::U64(bytes)),
        },
    }
}

impl EventKind {
    /// The event's display name: the stage name for spans, a mark label
    /// for instants.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Begin(stage) | EventKind::End(stage, _) => stage.name(),
            EventKind::Instant(mark) => match mark {
                Mark::Prune { .. } => "prune",
                Mark::Stop { .. } => "stop",
                Mark::Answer { .. } => "answer",
                Mark::SampleCheckpoint { .. } => "sample-checkpoint",
                Mark::FileRead { .. } => "file-read",
            },
        }
    }
}

/// Sink for trace events. Like [`Recorder`](crate::Recorder), all methods
/// take `&self` and the default implementation drops everything —
/// instrumentation costs one cached boolean when nobody is listening.
pub trait TraceSink: Send + Sync {
    /// Whether anything is listening. [`Tracer`] caches this at
    /// construction, so a sink cannot toggle mid-query.
    fn enabled(&self) -> bool {
        false
    }

    /// Accepts one event.
    fn record(&self, event: TraceEvent) {
        let _ = event;
    }
}

/// The sink that drops every event ([`TraceSink::enabled`] is `false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

#[derive(Debug, Default)]
struct RingState {
    /// Retained events by query id, each query's in arrival order.
    queries: BTreeMap<u32, Vec<TraceEvent>>,
    dropped: u64,
    depth: i64,
}

/// A bounded in-memory trace sink retaining at most `capacity` events per
/// query. When a query's share is full, its *new* events are dropped (and
/// counted) so the retained prefix keeps its span structure — a truncated
/// trace still renders, it just ends early. Bounding each query on its
/// own keeps what a batch retains a pure function of the batch: workers
/// running queries concurrently fill disjoint shares, each in its query's
/// own order.
///
/// In debug builds, dropping a `RingSink` whose recorded begin/end events
/// do not balance panics, so a missing `end` in instrumentation fails a
/// test loudly instead of silently producing a truncated trace. The
/// balance is tracked over *all* recorded events, including ones the ring
/// dropped, so capacity overflow never trips the guard by itself.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingState>,
}

impl RingSink {
    /// A sink retaining at most `capacity` events per query (minimum 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            inner: Mutex::new(RingState::default()),
        }
    }

    /// The events recorded so far: query by query in id order, each
    /// query's in arrival order.
    ///
    /// # Panics
    /// Panics if a previous user of the sink panicked mid-record.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("trace sink poisoned");
        inner.queries.values().flatten().copied().collect()
    }

    /// How many events were dropped because their query's share was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace sink poisoned").dropped
    }
}

impl TraceSink for RingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        match event.kind {
            EventKind::Begin(_) => inner.depth += 1,
            EventKind::End(_, _) => inner.depth -= 1,
            EventKind::Instant(_) => {}
        }
        let retained = inner.queries.entry(event.query).or_default();
        if retained.len() >= self.capacity {
            inner.dropped += 1;
        } else {
            retained.push(event);
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for RingSink {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let depth = self.inner.get_mut().map(|s| s.depth).unwrap_or(0);
        assert!(
            depth == 0,
            "RingSink dropped with {depth} unbalanced span event(s): \
             every Begin needs a matching End"
        );
    }
}

/// A shared trace sink, mirroring [`SharedRecorder`](crate::SharedRecorder).
pub type SharedSink = Arc<dyn TraceSink>;

/// Emits events for one query into a [`TraceSink`], stamping each with the
/// query id, worker id, a per-query logical sequence number, and the
/// wall-clock offset from the tracer's epoch.
///
/// The enabled flag is cached at construction: when the sink is a
/// [`NoopSink`] no clock is ever read and `record` is never called, so a
/// disabled tracer in a hot path costs one branch.
pub struct Tracer {
    sink: SharedSink,
    enabled: bool,
    query: u32,
    worker: u32,
    seq: AtomicU64,
    epoch: Option<Instant>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("query", &self.query)
            .field("worker", &self.worker)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer for query `query` on worker `worker`, with its epoch at
    /// the moment of construction.
    pub fn new(sink: SharedSink, query: u32, worker: u32) -> Tracer {
        let enabled = sink.enabled();
        Tracer {
            sink,
            enabled,
            query,
            worker,
            seq: AtomicU64::new(0),
            epoch: enabled.then(Instant::now),
        }
    }

    /// A tracer for query `query` on worker `worker` into this tracer's
    /// sink, on this tracer's epoch, with its own sequence numbers from 0.
    /// A batch derives one per query this way, so every query's
    /// wall-clock offsets share a zero and the exported flame chart lines
    /// the workers up.
    pub fn for_query(&self, query: u32, worker: u32) -> Tracer {
        Tracer {
            sink: Arc::clone(&self.sink),
            enabled: self.enabled,
            query,
            worker,
            seq: AtomicU64::new(0),
            epoch: self.epoch,
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch (0 when disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.epoch
            .map_or(0, |epoch| epoch.elapsed().as_nanos() as u64)
    }

    fn emit(&self, nanos: u64, kind: EventKind) {
        self.sink.record(TraceEvent {
            query: self.query,
            worker: self.worker,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            nanos,
            kind,
        });
    }

    /// Opens a span, returning its begin offset in nanoseconds.
    pub fn begin(&self, stage: Stage) -> u64 {
        if !self.enabled {
            return 0;
        }
        let nanos = self.elapsed_nanos();
        self.emit(nanos, EventKind::Begin(stage));
        nanos
    }

    /// Closes a span with its payload.
    pub fn end(&self, stage: Stage, payload: Payload) {
        if !self.enabled {
            return;
        }
        let nanos = self.elapsed_nanos();
        self.emit(nanos, EventKind::End(stage, payload));
    }

    /// Records a complete span at explicit offsets. The executor uses this
    /// to lay its accumulated per-phase totals out as sequential synthetic
    /// spans after the scan — honest aggregates, not per-iteration timings.
    pub fn span_at(&self, stage: Stage, start_nanos: u64, end_nanos: u64, payload: Payload) {
        if !self.enabled {
            return;
        }
        self.emit(start_nanos, EventKind::Begin(stage));
        self.emit(end_nanos.max(start_nanos), EventKind::End(stage, payload));
    }

    /// Records a point event.
    pub fn instant(&self, mark: Mark) {
        if !self.enabled {
            return;
        }
        let nanos = self.elapsed_nanos();
        self.emit(nanos, EventKind::Instant(mark));
    }
}

/// Renders events as Chrome trace-event JSON (the `traceEvents` array
/// format): load the output in Perfetto or `chrome://tracing`. Queries
/// map to processes (`pid`), workers to threads (`tid`), and payload
/// fields to `args`. Timestamps are microseconds from the tracer epoch.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match event.kind {
            EventKind::Begin(_) => "B",
            EventKind::End(_, _) => "E",
            EventKind::Instant(_) => "i",
        };
        out.push_str("{\"name\":");
        push_json_str(&mut out, event.kind.name());
        let _ = write!(out, ",\"cat\":\"ptk\",\"ph\":\"{ph}\",\"ts\":");
        push_json_f64(&mut out, event.nanos as f64 / 1_000.0);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", event.query, event.worker);
        if matches!(event.kind, EventKind::Instant(_)) {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"seq\":{}", event.seq);
        for_each_field(&event.kind, |name, value| {
            out.push(',');
            push_json_str(&mut out, name);
            out.push(':');
            match value {
                FieldVal::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldVal::Str(s) => push_json_str(&mut out, s),
                FieldVal::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        });
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders events as the timing-free *logical-clock* trace: one line per
/// event, ordered by `(query, seq)`, carrying only deterministic data —
/// no worker ids, no wall clock. For a fixed query this rendering is
/// bit-identical at every thread count (pinned in the batch-parity and
/// determinism test suites).
pub fn render_logical(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.query, e.seq));
    let mut out = String::with_capacity(ordered.len() * 48);
    for event in ordered {
        let tag = match event.kind {
            EventKind::Begin(_) => "B",
            EventKind::End(_, _) => "E",
            EventKind::Instant(_) => "i",
        };
        let _ = write!(
            out,
            "q{} #{} {tag} {}",
            event.query,
            event.seq,
            event.kind.name()
        );
        for_each_field(&event.kind, |name, value| {
            let _ = match value {
                FieldVal::U64(v) => write!(out, " {name}={v}"),
                FieldVal::Str(s) => write!(out, " {name}={s}"),
                FieldVal::Bool(b) => write!(out, " {name}={b}"),
            };
        });
        out.push('\n');
    }
    out
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the `traceEvents` array.
    pub events: usize,
    /// `ph: "B"` events.
    pub begins: usize,
    /// `ph: "E"` events.
    pub ends: usize,
    /// `ph: "i"` events.
    pub instants: usize,
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the structural trace checker. Only what the
// checker needs — the workspace is zero-dependency, so CI validates the
// emitted trace with this instead of a JSON crate.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> JsonReader<'a> {
        JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(&byte) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("malformed UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn document(&mut self) -> Result<Json, String> {
        let value = self.value()?;
        if self.peek().is_some() {
            return Err(self.error("trailing content after document"));
        }
        Ok(value)
    }
}

/// Structurally validates Chrome trace-event JSON as emitted by
/// [`to_chrome_json`] (and accepted by Perfetto): a `traceEvents` array
/// whose entries carry `name`/`ph`/`ts`/`pid`/`tid` with the right types,
/// `ph` limited to `B`/`E`/`i`, and begin/end events balanced per
/// `(pid, tid)` lane. Zero-dependency by design — this is the checker CI
/// runs against a freshly traced query.
///
/// # Errors
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let doc = JsonReader::new(json).document()?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("\"traceEvents\" is not an array".into()),
        None => return Err("missing top-level \"traceEvents\" array".into()),
    };
    let mut check = TraceCheck {
        events: events.len(),
        begins: 0,
        ends: 0,
        instants: 0,
    };
    let mut depths: Vec<((u64, u64), i64)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let context = |field: &str| format!("event {i}: missing or mistyped \"{field}\"");
        match event.get("name") {
            Some(Json::Str(_)) => {}
            _ => return Err(context("name")),
        }
        let lane = match (event.get("pid"), event.get("tid")) {
            (Some(Json::Num(pid)), Some(Json::Num(tid))) => (*pid as u64, *tid as u64),
            (Some(Json::Num(_)), _) => return Err(context("tid")),
            _ => return Err(context("pid")),
        };
        match event.get("ts") {
            Some(Json::Num(ts)) if ts.is_finite() && *ts >= 0.0 => {}
            _ => return Err(context("ts")),
        }
        let ph = match event.get("ph") {
            Some(Json::Str(ph)) => ph.as_str(),
            _ => return Err(context("ph")),
        };
        let depth = match depths.iter_mut().find(|(l, _)| *l == lane) {
            Some((_, depth)) => depth,
            None => {
                depths.push((lane, 0));
                &mut depths.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => {
                check.begins += 1;
                *depth += 1;
            }
            "E" => {
                check.ends += 1;
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!(
                        "event {i}: \"E\" without a matching \"B\" on pid {} tid {}",
                        lane.0, lane.1
                    ));
                }
            }
            "i" => check.instants += 1,
            other => return Err(format!("event {i}: unknown ph \"{other}\"")),
        }
    }
    for ((pid, tid), depth) in depths {
        if depth != 0 {
            return Err(format!(
                "pid {pid} tid {tid}: {depth} unbalanced \"B\" event(s)"
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_and_tracer() -> (Arc<RingSink>, Tracer) {
        let sink = Arc::new(RingSink::new(1024));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        (sink, tracer)
    }

    #[test]
    fn tracer_stamps_query_worker_and_sequence() {
        let sink = Arc::new(RingSink::new(16));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 3, 1);
        tracer.begin(Stage::Query);
        tracer.instant(Mark::Answer { rank: 0 });
        tracer.end(Stage::Query, Payload::None);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.query, 3);
            assert_eq!(e.worker, 1);
            assert_eq!(e.seq, i as u64);
        }
        assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_reads_no_clock() {
        let tracer = Tracer::new(Arc::new(NoopSink), 0, 0);
        assert!(!tracer.enabled());
        tracer.begin(Stage::Query);
        tracer.instant(Mark::FileRead { bytes: 8 });
        tracer.end(Stage::Query, Payload::None);
        assert_eq!(tracer.elapsed_nanos(), 0);
    }

    #[test]
    fn ring_sink_drops_newest_when_full_and_counts() {
        let sink = Arc::new(RingSink::new(2));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        tracer.begin(Stage::Query);
        tracer.instant(Mark::FileRead { bytes: 8 });
        tracer.instant(Mark::Answer { rank: 1 });
        tracer.end(Stage::Query, Payload::None);
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 2);
        // The guard counts all events including evicted ones, so the
        // balanced stream above must not trip it at drop.
    }

    #[test]
    fn ring_sink_bounds_each_query_on_its_own() {
        let sink = Arc::new(RingSink::new(2));
        let q1 = Tracer::new(Arc::clone(&sink) as SharedSink, 1, 0);
        let q0 = q1.for_query(0, 1);
        // Interleaved, the way concurrent workers fill one sink: each
        // query keeps the head of its own stream.
        for rank in 0..3 {
            q1.instant(Mark::Answer { rank });
            q0.instant(Mark::Answer { rank: 10 + rank });
        }
        let kept: Vec<(u32, u32, u64)> = sink
            .events()
            .iter()
            .map(|e| (e.query, e.worker, e.seq))
            .collect();
        assert_eq!(kept, [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]);
        assert_eq!(sink.dropped(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unbalanced span")]
    fn unbalanced_span_panics_at_drop_in_debug_builds() {
        let sink = Arc::new(RingSink::new(16));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        tracer.begin(Stage::Query);
        drop(tracer);
        drop(sink); // begin without end → debug guard fires
    }

    #[test]
    fn chrome_export_is_valid_and_balanced() {
        let (sink, tracer) = sink_and_tracer();
        tracer.begin(Stage::Query);
        tracer.instant(Mark::Prune {
            rank: 4,
            rule: PruneRule::Theorem3Membership,
        });
        tracer.span_at(
            Stage::Dp,
            10,
            20,
            Payload::Dp {
                cells: 7,
                entries: 2,
            },
        );
        tracer.end(
            Stage::Query,
            Payload::Scan {
                scanned: 6,
                evaluated: 5,
                pruned_membership: 1,
                pruned_rule: 0,
                answers: 3,
            },
        );
        let json = to_chrome_json(&sink.events());
        let check = validate_chrome_trace(&json).expect("emitted trace must validate");
        assert_eq!(check.events, 5);
        assert_eq!(check.begins, 2);
        assert_eq!(check.ends, 2);
        assert_eq!(check.instants, 1);
        assert!(json.contains("\"rule\":\"T3-membership\""), "{json}");
        assert!(json.contains("\"scanned\":6"), "{json}");
        assert!(json.contains("\"s\":\"t\""), "{json}");
    }

    #[test]
    fn logical_rendering_is_timing_free_and_order_normalized() {
        let sink = Arc::new(RingSink::new(64));
        let q1 = Tracer::new(Arc::clone(&sink) as SharedSink, 1, 7);
        let q0 = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 2);
        // Interleave queries out of order; the rendering sorts by (q, seq).
        q1.begin(Stage::Query);
        q0.begin(Stage::Query);
        q1.end(Stage::Query, Payload::None);
        q0.end(Stage::Query, Payload::None);
        let text = render_logical(&sink.events());
        assert_eq!(
            text,
            "q0 #0 B query\nq0 #1 E query\nq1 #0 B query\nq1 #1 E query\n"
        );
        // Worker ids and wall-clock never leak into the logical rendering.
        assert!(!text.contains('7'));
        assert!(!text.contains("nanos"));
    }

    #[test]
    fn logical_rendering_carries_decision_payloads() {
        let (sink, tracer) = sink_and_tracer();
        tracer.begin(Stage::Query);
        tracer.instant(Mark::Stop {
            rule: StopRule::UpperBound,
        });
        tracer.end(Stage::Query, Payload::None);
        let text = render_logical(&sink.events());
        assert!(text.contains("i stop rule=upper-bound"), "{text}");
    }

    #[test]
    fn validator_rejects_structural_violations() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // Missing tid.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"B\",\"ts\":0,\"pid\":0}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("tid"));
        // Unknown phase.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("unknown ph"));
        // End before begin.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"E\",\"ts\":0,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("matching"));
        // Unbalanced at the end.
        let bad = "{\"traceEvents\":[{\"name\":\"q\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("unbalanced"));
        // Balance is per lane, not global.
        let good = "{\"traceEvents\":[\
            {\"name\":\"q\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0},\
            {\"name\":\"q\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0},\
            {\"name\":\"q\",\"ph\":\"E\",\"ts\":1,\"pid\":0,\"tid\":0},\
            {\"name\":\"q\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":0}]}";
        assert_eq!(validate_chrome_trace(good).unwrap().begins, 2);
        let crossed = "{\"traceEvents\":[\
            {\"name\":\"q\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0},\
            {\"name\":\"q\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":0}]}";
        assert!(validate_chrome_trace(crossed).is_err());
    }

    #[test]
    fn json_reader_handles_strings_numbers_and_nesting() {
        let doc = JsonReader::new(
            "{\"a\":[1,2.5,-3e2],\"b\":\"x\\\"y\\u0041\",\"c\":null,\"d\":true,\"e\":{}}",
        )
        .document()
        .unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0)
            ]))
        );
        assert_eq!(doc.get("b"), Some(&Json::Str("x\"yA".into())));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert!(JsonReader::new("{\"a\":1} trailing").document().is_err());
        assert!(JsonReader::new("[1,]").document().is_err());
    }

    #[test]
    fn span_at_clamps_inverted_ranges() {
        let (sink, tracer) = sink_and_tracer();
        tracer.span_at(Stage::Bound, 50, 10, Payload::Bound { checks: 1 });
        let events = sink.events();
        assert_eq!(events[0].nanos, 50);
        assert_eq!(events[1].nanos, 50, "end must never precede begin");
    }
}
