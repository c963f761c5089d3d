//! One observability context per query command.
//!
//! A [`QueryCtx`] owns everything a run records into and everything
//! rendered from that record after the answer: the metrics registry
//! (which carries the tracer when the run is traced, so every layer the
//! registry is handed to — executor, run source, sampler — traces too),
//! the trace ring, the `--stats` mode and the flight record. Commands
//! build it with [`QueryCtx::from_flags`], hand [`QueryCtx::recorder`] to
//! the engine and the run source, fill the flight from the plans with
//! [`QueryCtx::plan_flight`], and end with [`QueryCtx::finish`], which
//! renders the views in one order for every command.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

use ptk_access::SnapshotSource;
use ptk_engine::{ExecStats, PtkBatch, PtkExecutor, PtkPlan, PtkResult};
use ptk_obs::{
    Metrics, Noop, QueryFlight, QueryRecord, Recorder, RingSink, SharedRecorder, SharedSink,
    Snapshot, Tracer,
};
use ptk_par::ThreadPool;

use super::trace::{trace_opts, TraceOpts};
use super::{CmdError, Flags};

/// How `--stats` (or the daemon's `?stats=`) renders the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StatsMode {
    Text,
    Json,
    Prom,
}

impl StatsMode {
    pub(super) fn parse(mode: &str) -> Option<StatsMode> {
        match mode {
            "text" => Some(StatsMode::Text),
            "json" => Some(StatsMode::Json),
            "prom" => Some(StatsMode::Prom),
            _ => None,
        }
    }
}

/// The flight record's width-independent fingerprint: FNV-1a over the
/// statement (or command label) text plus each executed plan's
/// [`PtkPlan::fingerprint`]. It identifies the run in the flight record
/// only and folds in no pool width, so flight records stay bit-identical
/// across thread counts; the daemon's result cache keys on the statement
/// text itself.
fn flight_fingerprint(text: &str, plans: &[PtkPlan]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in text.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for plan in plans {
        for b in plan.fingerprint().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// The span timing an answer listing's render.
pub(super) const RENDER_SPAN: &str = "cli.render";

/// What one query command records and renders. See the module docs.
pub(super) struct QueryCtx {
    /// Names the run in the flight record and the slow-query log.
    label: String,
    stats: Option<StatsMode>,
    trace: TraceOpts,
    /// The trace ring, when `--trace` or `--slow-ms` reads the run.
    sink: Option<Arc<RingSink>>,
    /// Whether the flight record is printed as the `--audit` line.
    audit: bool,
    /// The flight record being filled, for `--audit` or the daemon.
    flight: Option<QueryFlight>,
    /// Whether EXPLAIN ANALYZE reads the run's timings.
    analyze: bool,
    /// Whether one plan ran, so the flight's stop is its stop.
    single_plan: bool,
    /// Built on first use, so [`QueryCtx::analyze`] can still ask for
    /// timings after the statement is parsed.
    registry: OnceCell<Arc<Metrics>>,
    /// The scheduler facts a batch reported, for `--stats`.
    scheduler: BTreeMap<&'static str, u64>,
}

impl QueryCtx {
    /// The context of a query command: `--stats`, `--audit`, `--trace`,
    /// `--trace-format` and `--slow-ms` from its flags, with `label`
    /// naming the run in the flight record and the slow-query log.
    pub(super) fn from_flags(flags: &Flags, label: String) -> Result<QueryCtx, String> {
        let stats = match flags.named.get("stats") {
            None => None,
            Some(mode) => Some(StatsMode::parse(mode).ok_or_else(|| {
                format!("--stats: expected 'text', 'json' or 'prom', got '{mode}'")
            })?),
        };
        let audit = flags.switch("audit");
        let flight = audit.then(|| QueryFlight {
            label: label.clone(),
            ..QueryFlight::default()
        });
        Ok(QueryCtx::new(
            label,
            stats,
            trace_opts(flags)?,
            audit,
            flight,
        ))
    }

    /// The context of one statement served by `ptk serve`: the request's
    /// `?stats=` and the daemon's flight record, which the daemon takes
    /// back with [`QueryCtx::into_flight`].
    pub(super) fn served(stats: Option<StatsMode>, flight: QueryFlight) -> QueryCtx {
        QueryCtx::new(
            flight.label.clone(),
            stats,
            TraceOpts::default(),
            false,
            Some(flight),
        )
    }

    fn new(
        label: String,
        stats: Option<StatsMode>,
        trace: TraceOpts,
        audit: bool,
        flight: Option<QueryFlight>,
    ) -> QueryCtx {
        QueryCtx {
            label,
            stats,
            sink: trace.active().then(|| trace.sink()),
            trace,
            audit,
            flight,
            analyze: false,
            single_plan: false,
            registry: OnceCell::new(),
            scheduler: BTreeMap::new(),
        }
    }

    /// Asks for the run's timings: EXPLAIN ANALYZE annotates the plan
    /// with them. Call before the run records anything.
    pub(super) fn analyze(&mut self) {
        debug_assert!(self.registry.get().is_none(), "the run already recorded");
        self.analyze = true;
    }

    /// Whether the run is traced (`--trace` or `--slow-ms`).
    pub(super) fn traced(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether anything reads the run. Timings are read by `--stats`,
    /// EXPLAIN ANALYZE and the trace; a flight record alone keeps
    /// counters only, so it reads no clock.
    fn records(&self) -> bool {
        self.timed() || self.flight.is_some()
    }

    /// Whether anything reads the run's timings: `--stats` (the daemon's
    /// `?stats=`), EXPLAIN ANALYZE or the trace. Only an untimed run's
    /// output may be served from the daemon's cache.
    pub(super) fn timed(&self) -> bool {
        self.stats.is_some() || self.analyze || self.traced()
    }

    fn registry(&self) -> &Arc<Metrics> {
        self.registry.get_or_init(|| {
            let metrics = if self.timed() {
                Metrics::new()
            } else {
                Metrics::counters_only()
            };
            Arc::new(match &self.sink {
                Some(sink) => {
                    metrics.with_tracer(Tracer::new(Arc::clone(sink) as SharedSink, 0, 0))
                }
                None => metrics,
            })
        })
    }

    /// The recorder the run records into: the registry, or [`Noop`] when
    /// nothing reads the run.
    pub(super) fn recorder(&self) -> &dyn Recorder {
        if self.records() {
            self.registry().as_ref()
        } else {
            &Noop
        }
    }

    /// [`QueryCtx::recorder`] for a run source, which holds its recorder.
    pub(super) fn shared_recorder(&self) -> SharedRecorder {
        if self.records() {
            Arc::clone(self.registry()) as SharedRecorder
        } else {
            Arc::new(Noop)
        }
    }

    /// Runs `render`, which writes the answer listing, as the
    /// `cli.render` span: timed beside the engine's phases when anything
    /// reads the run's timings, and reading no clock otherwise.
    pub(super) fn render(
        &self,
        render: impl FnOnce() -> Result<(), CmdError>,
    ) -> Result<(), CmdError> {
        let _span = ptk_obs::span(self.recorder(), RENDER_SPAN);
        render()
    }

    /// Evaluates `batch` over `source` on `pool`, recording into this
    /// context, and keeps the batch's scheduler facts for `--stats`.
    pub(super) fn run_batch<S: SnapshotSource + ?Sized>(
        &mut self,
        batch: &PtkBatch,
        source: &S,
        pool: &ThreadPool,
    ) -> Vec<PtkResult> {
        let (results, scheduler) =
            PtkExecutor::execute_batch_with(batch, source, pool, self.recorder());
        self.scheduler = scheduler;
        results
    }

    /// What the run recorded so far, with any batch's scheduler facts.
    pub(super) fn snapshot(&self) -> Snapshot {
        let mut snapshot = self
            .registry
            .get()
            .map_or_else(Snapshot::default, |metrics| metrics.snapshot());
        snapshot.scheduler = self.scheduler.clone();
        snapshot
    }

    /// Fills the flight record, when there is one, from the plans about
    /// to run: their descriptions (joined with `" | "`), semantics, `k`s,
    /// thresholds, and the fingerprint over `text` (the statement, or the
    /// command's label) and the plans.
    pub(super) fn plan_flight(&mut self, plans: &[PtkPlan], text: &str) {
        self.single_plan = plans.len() == 1;
        let Some(flight) = self.flight.as_mut() else {
            return;
        };
        flight.plan = plans
            .iter()
            .map(PtkPlan::describe)
            .collect::<Vec<_>>()
            .join(" | ");
        flight.semantics = plans[0].semantics().keyword().to_owned();
        flight.ks = plans.iter().map(|plan| plan.k() as u64).collect();
        flight.thresholds = plans
            .iter()
            .flat_map(|plan| plan.thresholds().iter().copied())
            .collect();
        flight.fingerprint = Some(flight_fingerprint(text, plans));
    }

    /// Fills the flight record of a sampling or naive run of `plan`'s
    /// query: as [`QueryCtx::plan_flight`], but `method` describes the
    /// run, and as no plan runs there is no fingerprint.
    pub(super) fn method_flight(&mut self, plan: &PtkPlan, method: String) {
        self.plan_flight(std::slice::from_ref(plan), "");
        if let Some(flight) = self.flight.as_mut() {
            flight.plan = method;
            flight.fingerprint = None;
        }
    }

    /// Renders the run's views after its answer, in the same order for
    /// every command: the `--trace` file and the `--slow-ms` log (on
    /// stderr), the `--stats` snapshot, then the `--audit` line. Completes
    /// the flight record first: the stop reason, read back from the
    /// counters when a single plan ran (a batch has none), and the
    /// counter delta.
    pub(super) fn finish(&mut self, out: &mut dyn Write) -> Result<(), CmdError> {
        let snapshot = self.snapshot();
        if let Some(sink) = &self.sink {
            let events = sink.events();
            self.trace.write_file(&events)?;
            let elapsed = self.registry().tracer().map_or(0, Tracer::elapsed_nanos);
            self.trace
                .log_slow(&self.label, elapsed, &events, &mut std::io::stderr());
        }
        match self.stats {
            None => {}
            Some(StatsMode::Json) => writeln!(out, "{}", snapshot.to_json(true))?,
            Some(StatsMode::Prom) => write!(out, "{}", snapshot.to_prometheus())?,
            Some(StatsMode::Text) if snapshot.is_empty() => writeln!(out, "(no metrics recorded)")?,
            Some(StatsMode::Text) => write!(out, "{}", snapshot.to_text())?,
        }
        if let Some(flight) = self.flight.as_mut() {
            if self.single_plan {
                flight.stop = ExecStats::from_snapshot(&snapshot)
                    .stop
                    .map_or(String::new(), |stop| format!("{stop:?}"));
            }
            flight.absorb_counters(&snapshot);
            if self.audit {
                // The timing-free JSON form — the split `GET
                // /debug/queries` serves — so the line is bit-identical at
                // every thread count.
                let record = QueryRecord {
                    id: 1,
                    outcome: "ok".to_owned(),
                    cache: "none".to_owned(),
                    flight: flight.clone(),
                    queue_wait_nanos: 0,
                    exec_nanos: 0,
                    total_nanos: 0,
                };
                writeln!(out, "audit: {}", record.to_json(false))?;
            }
        }
        Ok(())
    }

    /// The flight record as filled so far, for the daemon's ring.
    pub(super) fn into_flight(self) -> QueryFlight {
        self.flight.unwrap_or_default()
    }
}
