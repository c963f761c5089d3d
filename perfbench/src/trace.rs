//! The traced run's span recorder and the timing adapter for ranked
//! sources.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out at the end of the
//! run. A span's *self time* is its duration minus the part of its
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ptk_access::{BlockBounds, RankedSource, RuleKey, SourceTuple};

use crate::stats;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span recorder for one sequential replay.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A tracer that records nothing: the same code path runs untraced.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the root span of request `request`.
    pub fn request(&mut self, request: u64) {
        assert!(self.open.is_empty(), "previous request still open");
        self.request = request;
    }

    /// Runs `work` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let value = work(self);
        self.open.pop();
        self.spans[id].end = self.now();
        value
    }

    /// Records `nanos` of scattered time (e.g. every call through a
    /// [`Timed`] adapter) as one child span of the innermost open span,
    /// laid out from that span's start.
    pub fn aggregate(&mut self, name: &'static str, nanos: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("aggregate inside a span");
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            start,
            end: start + nanos,
            parent: Some(parent),
            request: self.request,
        });
    }

    /// Every span's self time: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.nanos() - covered.min(s.nanos())
            })
            .collect()
    }

    /// Self time per `(request, span name)`, summed over the request's
    /// spans of that name.
    pub fn self_by_request(&self) -> BTreeMap<(u64, &'static str), u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry((s.request, s.name)).or_insert(0) += own;
        }
        out
    }

    /// Self times (ns) of the spans named `name`, summed per request, for
    /// every request that has one.
    fn self_of(&self, name: &str) -> Vec<u64> {
        self.self_by_request()
            .into_iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, ns)| ns)
            .collect()
    }

    /// Median over requests of the per-request self time (ns) of the spans
    /// named `name`; 0 when no request has one.
    pub fn median_self(&self, name: &str) -> f64 {
        let ns: Vec<f64> = self.self_of(name).into_iter().map(|n| n as f64).collect();
        stats::median_or_zero(&ns)
    }

    /// Total duration of the spans named `name` in each request.
    pub fn durations(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0) += s.nanos();
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }

    /// Writes the spans to `path` as JSON lines.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A [`RankedSource`] adapter that forwards every method to `inner`
/// unchanged and accumulates the wall-clock time spent inside it — so the
/// executor takes exactly the path (block skips included) it would take
/// on the bare source.
pub struct Timed<'a, S: RankedSource + ?Sized> {
    inner: &'a mut S,
    pub nanos: u64,
}

impl<'a, S: RankedSource + ?Sized> Timed<'a, S> {
    pub fn new(inner: &'a mut S) -> Timed<'a, S> {
        Timed { inner, nanos: 0 }
    }
}

/// Times one forwarded call into the wrapped source.
macro_rules! timed {
    ($self:ident, $call:expr) => {{
        let start = Instant::now();
        let value = $call;
        $self.nanos += start.elapsed().as_nanos() as u64;
        value
    }};
}

impl<S: RankedSource + ?Sized> RankedSource for Timed<'_, S> {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        timed!(self, self.inner.next_ranked())
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.inner.rule_mass(rule)
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        self.inner.rule_len(rule)
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        self.inner.rule_member_rank(rule, member)
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn block_bounds(&self) -> Option<BlockBounds> {
        self.inner.block_bounds()
    }

    fn skip_block(&mut self, max: usize, probs: &mut Vec<f64>) -> usize {
        timed!(self, self.inner.skip_block(max, probs))
    }

    fn retrieved(&self) -> usize {
        self.inner.retrieved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only [40, 50) is new coverage.
            span("b", 30, 50, Some(0)),
            // Runs past the root's end: clipped to [90, 100).
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(t.self_times(), vec![100 - 50, 30 - 8, 20, 30, 8]);
        let by = t.self_by_request();
        assert_eq!(by[&(1, "root")], 50);
        assert_eq!(t.self_of("a"), vec![22]);
        assert_eq!(t.median_self("b"), 20.0);
        assert_eq!(t.median_self("absent"), 0.0);
        assert_eq!(t.durations("root")[&1], 100);
        assert_eq!(t.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut t = Tracer::new();
        t.request(7);
        t.span("root", |t| {
            t.span("child", |_| ());
            t.aggregate("scattered", 0);
        });
        let spans = &t.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
    }
}
