//! Trace capture flags shared by the query commands, plus the
//! `trace-check` subcommand that validates an exported Chrome trace.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

use ptk_obs::{
    render_logical, to_chrome_json, validate_chrome_trace, EventKind, RingSink, TraceEvent,
};

use super::{CmdError, Flags};

/// Per-query ring capacity for CLI-captured traces. Large enough for every
/// realistic query (a traced scan emits a handful of events per answer plus
/// a fixed number of phase spans); the ring drops a query's newest events
/// beyond it.
const RING_CAPACITY: usize = 65_536;

/// How `--trace` renders the captured events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum TraceFormat {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    #[default]
    Chrome,
    /// The timing-free logical-clock text rendering (bit-identical at
    /// every thread count).
    Logical,
}

/// The trace-related flags of a query command: `--trace <file>`,
/// `--trace-format chrome|logical` and `--slow-ms <N>`. The default traces
/// nothing.
#[derive(Debug, Default)]
pub(super) struct TraceOpts {
    pub(super) path: Option<String>,
    pub(super) format: TraceFormat,
    pub(super) slow_ms: Option<u64>,
}

/// Parses and validates `--slow-ms` — shared by the query commands and
/// `ptk serve`, so the two surfaces can never drift on what a legal
/// threshold is. Zero is rejected alongside negatives and garbage: a
/// 0 ms threshold would log every query, which is what the flight
/// recorder (`--audit`, `/debug/queries`) is for.
pub(super) fn parse_slow_ms(flags: &Flags) -> Result<Option<u64>, String> {
    match flags.named.get("slow-ms") {
        None => Ok(None),
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "--slow-ms must be a positive integer (milliseconds), got '{raw}'"
            )),
        },
    }
}

pub(super) fn trace_opts(flags: &Flags) -> Result<TraceOpts, String> {
    let format = match flags.named.get("trace-format").map(String::as_str) {
        None | Some("chrome") => TraceFormat::Chrome,
        Some("logical") => TraceFormat::Logical,
        Some(other) => {
            return Err(format!(
                "--trace-format: expected 'chrome' or 'logical', got '{other}'"
            ))
        }
    };
    let path = flags.named.get("trace").cloned();
    if path.is_none() && flags.named.contains_key("trace-format") {
        return Err("--trace-format requires --trace <file>".to_owned());
    }
    let slow_ms = parse_slow_ms(flags)?;
    Ok(TraceOpts {
        path,
        format,
        slow_ms,
    })
}

impl TraceOpts {
    /// Whether the run needs a live tracer at all.
    pub(super) fn active(&self) -> bool {
        self.path.is_some() || self.slow_ms.is_some()
    }

    /// A fresh bounded sink for one traced run (a batch's queries share
    /// it, each within its own capacity).
    pub(super) fn sink(&self) -> Arc<RingSink> {
        Arc::new(RingSink::new(RING_CAPACITY))
    }

    /// Renders `events` in the selected format.
    pub(super) fn render(&self, events: &[TraceEvent]) -> String {
        match self.format {
            TraceFormat::Chrome => to_chrome_json(events),
            TraceFormat::Logical => render_logical(events),
        }
    }

    /// Writes the trace file when `--trace` was given.
    pub(super) fn write_file(&self, events: &[TraceEvent]) -> Result<(), String> {
        if let Some(path) = &self.path {
            std::fs::write(path, self.render(events))
                .map_err(|e| format!("--trace {path}: {e}"))?;
        }
        Ok(())
    }

    /// The slow-query log: when the run took at least `--slow-ms`
    /// milliseconds, writes a per-stage summary of its trace to `log`.
    pub(super) fn log_slow(
        &self,
        label: &str,
        elapsed_nanos: u64,
        events: &[TraceEvent],
        log: &mut dyn Write,
    ) {
        if let Some(limit) = self.slow_ms {
            if elapsed_nanos / 1_000_000 >= limit {
                let _ = log.write_all(slow_query_summary(label, elapsed_nanos, events).as_bytes());
            }
        }
    }
}

/// One human-readable block describing a slow query: total wall time, then
/// per-stage span time and counts of the instant marks it emitted.
pub(super) fn slow_query_summary(label: &str, elapsed_nanos: u64, events: &[TraceEvent]) -> String {
    let mut open: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut span_nanos: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut marks: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::Begin(stage) => {
                open.insert(stage.name(), e.nanos);
            }
            EventKind::End(stage, _) => {
                let begun = open.remove(stage.name()).unwrap_or(e.nanos);
                *span_nanos.entry(stage.name()).or_insert(0) += e.nanos.saturating_sub(begun);
            }
            EventKind::Instant(_) => {
                *marks.entry(e.kind.name()).or_insert(0) += 1;
            }
        }
    }
    use std::fmt::Write as _;
    let mut text = format!(
        "slow query: {label} took {:.3} ms ({} trace events)\n",
        elapsed_nanos as f64 / 1e6,
        events.len()
    );
    for (stage, nanos) in &span_nanos {
        let _ = writeln!(text, "  stage {stage}: {:.3} ms", *nanos as f64 / 1e6);
    }
    for (mark, count) in &marks {
        let _ = writeln!(text, "  mark {mark}: x{count}");
    }
    text
}

/// `ptk trace-check <file.json>` — validates an exported Chrome trace
/// structurally (JSON shape, required keys, balanced B/E per lane) with the
/// in-repo checker. Zero dependencies, suitable for offline CI.
pub(super) fn cmd_trace_check(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = flags
        .positional
        .get(1)
        .ok_or("missing trace file argument")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let check = validate_chrome_trace(&json).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    writeln!(
        out,
        "valid Chrome trace: {} events ({} begins, {} ends, {} instants)",
        check.events, check.begins, check.ends, check.instants
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptk_obs::{Payload, SharedSink, Stage, Tracer};

    fn traced_events() -> Vec<TraceEvent> {
        let sink = Arc::new(RingSink::new(64));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        tracer.begin(Stage::Query);
        tracer.instant(ptk_obs::Mark::Answer { rank: 1 });
        tracer.end(
            Stage::Query,
            Payload::Scan {
                scanned: 3,
                evaluated: 2,
                pruned_membership: 1,
                pruned_rule: 0,
                answers: 1,
            },
        );
        sink.events()
    }

    #[test]
    fn parse_slow_ms_rejects_zero_negative_and_garbage() {
        let mut flags = Flags::default();
        assert_eq!(parse_slow_ms(&flags), Ok(None));
        for bad in ["0", "-5", "fast", "1.5", ""] {
            flags.named.insert("slow-ms".to_owned(), bad.to_owned());
            let err = parse_slow_ms(&flags).unwrap_err();
            assert!(
                err.contains("--slow-ms must be a positive integer") && err.contains(bad),
                "{err}"
            );
        }
        flags.named.insert("slow-ms".to_owned(), "25".to_owned());
        assert_eq!(parse_slow_ms(&flags), Ok(Some(25)));
    }

    #[test]
    fn slow_summary_reports_stages_and_marks() {
        let events = traced_events();
        let text = slow_query_summary("k=2 p=0.35", 1_500_000, &events);
        assert!(
            text.contains("slow query: k=2 p=0.35 took 1.500 ms"),
            "{text}"
        );
        assert!(text.contains("stage query:"), "{text}");
        assert!(text.contains("mark answer: x1"), "{text}");
    }

    #[test]
    fn log_slow_respects_the_threshold() {
        let events = traced_events();
        let opts = TraceOpts {
            path: None,
            format: TraceFormat::Chrome,
            slow_ms: Some(10),
        };
        let mut log = Vec::new();
        opts.log_slow("q", 9_999_999, &events, &mut log);
        assert!(log.is_empty(), "9.99 ms is under the 10 ms threshold");
        opts.log_slow("q", 10_000_000, &events, &mut log);
        assert!(
            String::from_utf8(log).unwrap().contains("slow query: q"),
            "10 ms meets the threshold"
        );
    }
}
