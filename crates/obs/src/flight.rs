//! The query flight recorder: a fixed-capacity ring of per-query
//! [`QueryRecord`]s.
//!
//! Every query that passes through the daemon (and any CLI invocation run
//! with `--audit`) leaves one record behind: what was asked (statement
//! label, plan description, semantics, `k`/thresholds), what the engine
//! did (the full per-query counter delta, including the pruning
//! attribution split), how it ended (outcome, cache state, stop reason)
//! and how long it took (queue wait / execution / total wall-clock).
//!
//! Serialization follows the same determinism split as
//! [`Snapshot::to_json`](crate::Snapshot::to_json): with
//! `include_timings = false` the rendering is a pure function of what the
//! query computed — bit-identical across thread widths — while the three
//! wall-clock fields are opt-in. `GET /debug/queries` and golden tests use
//! the timing-free form; the slow-query log uses the full form.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::{push_json_f64, push_json_str, Snapshot};

/// The deterministic description of one query: everything a flight record
/// carries except the envelope (id, outcome, cache state) and wall-clock
/// durations. Producers fill whatever they know; empty strings and empty
/// collections mean "unknown" (a rejected request that was never parsed
/// has only its envelope).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryFlight {
    /// The statement (or a short label like `query k=10 p=0.3`).
    pub label: String,
    /// The planner's one-line pipeline description (`plan.describe()`).
    /// For batches, one description per plan joined with `" | "`.
    pub plan: String,
    /// Ranking semantics served (`ptk`, `u_topk`, `u_krank`, …).
    pub semantics: String,
    /// The `k` of each plan executed (one entry per batch member).
    pub ks: Vec<u64>,
    /// The probability threshold of each plan executed.
    pub thresholds: Vec<f64>,
    /// A width-independent fingerprint of the plan chain, when the
    /// statement planned: flight records must be bit-identical across
    /// thread widths. It only labels the record; the serve daemon's
    /// result cache keys on the statement text.
    pub fingerprint: Option<u64>,
    /// Why the scan stopped early (`total_topk`, `upper_bound`), or empty
    /// when it ran to exhaustion.
    pub stop: String,
    /// The per-query counter delta: the `ExecStats` split (including
    /// pruning attribution) plus access-layer residency counters, exactly
    /// as a per-query registry recorded them.
    pub counters: BTreeMap<String, u64>,
}

impl QueryFlight {
    /// Folds the deterministic counter section of a per-query registry
    /// snapshot into this flight (summing on repeated names, so batch
    /// members can be absorbed one by one).
    pub fn absorb_counters(&mut self, snapshot: &Snapshot) {
        for (&name, &value) in &snapshot.counters {
            *self.counters.entry(name.to_owned()).or_insert(0) += value;
        }
    }
}

/// One completed (or rejected) query in the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Monotonic sequence number, assigned by the recorder (1-based).
    pub id: u64,
    /// How the request ended: `ok`, `query_error`, `http_error`,
    /// `rejected` (admission overflow), `timeout`, or `disconnect`
    /// (client hung up before the request was read).
    pub outcome: String,
    /// Result-cache disposition: `hit`, `miss`, `uncacheable`, or `none`
    /// when caching was never consulted.
    pub cache: String,
    /// The deterministic query description.
    pub flight: QueryFlight,
    /// Wall-clock nanoseconds spent in the admission queue.
    pub queue_wait_nanos: u64,
    /// Wall-clock nanoseconds executing the statement.
    pub exec_nanos: u64,
    /// Wall-clock nanoseconds from admission to response.
    pub total_nanos: u64,
}

impl QueryRecord {
    /// Renders the record as a single-line JSON object. With
    /// `include_timings = false` the rendering contains only the
    /// deterministic fields (the form `/debug/queries` serves and golden
    /// tests compare); with `true` the three wall-clock duration fields
    /// are appended.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"id\":{},\"outcome\":", self.id);
        push_json_str(&mut out, &self.outcome);
        out.push_str(",\"cache\":");
        push_json_str(&mut out, &self.cache);
        out.push_str(",\"label\":");
        push_json_str(&mut out, &self.flight.label);
        out.push_str(",\"plan\":");
        push_json_str(&mut out, &self.flight.plan);
        out.push_str(",\"semantics\":");
        push_json_str(&mut out, &self.flight.semantics);
        out.push_str(",\"ks\":[");
        for (i, k) in self.flight.ks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}");
        }
        out.push_str("],\"thresholds\":[");
        for (i, p) in self.flight.thresholds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_f64(&mut out, *p);
        }
        out.push_str("],\"fingerprint\":");
        match self.flight.fingerprint {
            Some(fp) => {
                let _ = write!(out, "\"{fp:016x}\"");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"stop\":");
        push_json_str(&mut out, &self.flight.stop);
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.flight.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push('}');
        if include_timings {
            let _ = write!(
                out,
                ",\"queue_wait_nanos\":{},\"exec_nanos\":{},\"total_nanos\":{}",
                self.queue_wait_nanos, self.exec_nanos, self.total_nanos
            );
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct FlightRing {
    next_id: u64,
    records: VecDeque<QueryRecord>,
}

/// A fixed-capacity, thread-safe ring of the last N [`QueryRecord`]s.
///
/// Bounded by construction: recording the (capacity+1)-th query drops the
/// oldest record, so the recorder can stay on for the life of a daemon
/// without growing. All methods take `&self`; the ring lives behind one
/// mutex, which is touched once per query (never in a scan loop).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightRing>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(FlightRing::default()),
        }
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight ring poisoned")
            .records
            .len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record, evicting the oldest when full, and returns the
    /// assigned sequence number.
    pub fn record(
        &self,
        outcome: &str,
        cache: &str,
        flight: QueryFlight,
        queue_wait_nanos: u64,
        exec_nanos: u64,
        total_nanos: u64,
    ) -> u64 {
        let mut inner = self.inner.lock().expect("flight ring poisoned");
        inner.next_id += 1;
        let id = inner.next_id;
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
        }
        inner.records.push_back(QueryRecord {
            id,
            outcome: outcome.to_owned(),
            cache: cache.to_owned(),
            flight,
            queue_wait_nanos,
            exec_nanos,
            total_nanos,
        });
        id
    }

    /// A copy of the held records, oldest first.
    pub fn records(&self) -> Vec<QueryRecord> {
        self.inner
            .lock()
            .expect("flight ring poisoned")
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the held records (oldest first) as a JSON array, one record
    /// object per element, with the same timing split as
    /// [`QueryRecord::to_json`].
    pub fn to_json(&self, include_timings: bool) -> String {
        let records = self.records();
        let mut out = String::with_capacity(64 + 256 * records.len());
        out.push('[');
        for (i, record) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&record.to_json(include_timings));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metrics, Recorder};

    fn sample_flight() -> QueryFlight {
        let metrics = Metrics::new();
        metrics.add("engine.scanned", 6);
        metrics.add("engine.answers", 3);
        metrics.record_nanos("engine.query", 1234); // timings never absorbed
        let mut flight = QueryFlight {
            label: "SELECT TOP 2 * FROM t WITH PROBABILITY >= 0.35".to_owned(),
            plan: "scan → prune → dp(k=2)".to_owned(),
            semantics: "ptk".to_owned(),
            ks: vec![2],
            thresholds: vec![0.35],
            fingerprint: Some(0xdead_beef),
            stop: "total_topk".to_owned(),
            counters: BTreeMap::new(),
        };
        flight.absorb_counters(&metrics.snapshot());
        flight
    }

    #[test]
    fn record_json_is_deterministic_and_splits_timings() {
        let recorder = FlightRecorder::new(8);
        recorder.record("ok", "miss", sample_flight(), 10, 20, 30);
        let records = recorder.records();
        assert_eq!(records.len(), 1);
        let bare = records[0].to_json(false);
        assert_eq!(
            bare,
            "{\"id\":1,\"outcome\":\"ok\",\"cache\":\"miss\",\
             \"label\":\"SELECT TOP 2 * FROM t WITH PROBABILITY >= 0.35\",\
             \"plan\":\"scan → prune → dp(k=2)\",\"semantics\":\"ptk\",\
             \"ks\":[2],\"thresholds\":[0.35],\
             \"fingerprint\":\"00000000deadbeef\",\"stop\":\"total_topk\",\
             \"counters\":{\"engine.answers\":3,\"engine.scanned\":6}}"
        );
        assert!(!bare.contains("nanos"), "timing-free form leaks a clock");
        let timed = records[0].to_json(true);
        assert!(
            timed.contains("\"queue_wait_nanos\":10,\"exec_nanos\":20,\"total_nanos\":30"),
            "{timed}"
        );
    }

    #[test]
    fn ring_is_bounded_and_ids_are_monotonic() {
        let recorder = FlightRecorder::new(3);
        assert!(recorder.is_empty());
        for _ in 0..5 {
            recorder.record("ok", "none", QueryFlight::default(), 0, 0, 0);
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.capacity(), 3);
        let ids: Vec<u64> = recorder.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5], "oldest evicted, ids keep counting");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let recorder = FlightRecorder::new(0);
        recorder.record("ok", "none", QueryFlight::default(), 0, 0, 0);
        recorder.record("ok", "none", QueryFlight::default(), 0, 0, 0);
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.records()[0].id, 2);
    }

    #[test]
    fn json_array_renders_all_records() {
        let recorder = FlightRecorder::new(4);
        recorder.record("ok", "miss", QueryFlight::default(), 0, 0, 0);
        recorder.record("rejected", "none", QueryFlight::default(), 0, 0, 0);
        let json = recorder.to_json(false);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"outcome\":\"rejected\""), "{json}");
        assert_eq!(json.matches("\"id\":").count(), 2);
    }

    #[test]
    fn absorb_counters_sums_repeated_names() {
        let mut flight = QueryFlight::default();
        let a = Metrics::new();
        a.add("engine.scanned", 2);
        let b = Metrics::new();
        b.add("engine.scanned", 3);
        b.add("engine.answers", 1);
        flight.absorb_counters(&a.snapshot());
        flight.absorb_counters(&b.snapshot());
        assert_eq!(flight.counters.get("engine.scanned"), Some(&5));
        assert_eq!(flight.counters.get("engine.answers"), Some(&1));
    }
}
