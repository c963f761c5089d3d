//! The two `ptk serve` workloads: `serve-mixed` (a cycle of more distinct
//! statements than the FIFO result cache holds, so every request misses
//! and the engine does the work) and `serve-hot` (a small hot set, so after
//! one pass every request is a cache hit and the HTTP path plus the
//! per-request fingerprint dominate). Either way every statement is sent
//! many times over the run, so each has a best latency.
//!
//! The untraced run drives a closed loop — one client, sending its next
//! request only after the previous reply — against a `ptk serve` process
//! started with one worker. The traced run replays a fixed prefix of the
//! same stream and, for every request, runs the same statement in-process
//! with spans around each layer's public call.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ptk_core::{RankedView, UncertainTable};
use ptk_datagen::{SyntheticConfig, SyntheticDataset};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics};
use ptk_obs::{Metrics, Snapshot};
use ptk_par::ThreadPool;

use crate::daemon::{self, Daemon};
use crate::gen::{self, Ranges, Stmt};
use crate::report::{Json, Report, Sample};
use crate::stats;
use crate::trace::Tracer;
use crate::{RunCtx, CLIENTS};

/// One serve workload's fixed shape.
pub struct Spec {
    rules: usize,
    ranges: Ranges,
    /// Replay a small hot set instead of a stream of distinct statements.
    hot: bool,
    /// Requests in the traced replay.
    replay: usize,
}

/// The paper's default synthetic table; a cycle of distinct statements.
pub const MIXED: Spec = Spec {
    rules: 2_000,
    ranges: Ranges {
        tuples: 20_000,
        // Cost grows about as k squared; past k = 150 a run sends each
        // statement too few times for a best latency.
        ptk_k: (20, 150),
        rank_k: (10, 100),
        utopk_k: (2, 10),
    },
    hot: false,
    // More distinct statements than the result cache holds, fewer than
    // the cycle.
    replay: 280,
};

/// Figure 7's largest table; two dozen statements replayed.
pub const HOT: Spec = Spec {
    rules: 10_000,
    ranges: Ranges {
        tuples: 100_000,
        ptk_k: (20, 300),
        // Narrow, so the hot set's largest gf scan and U_TOPK search
        // (which set the daemon's peak memory) cost the same every seed.
        rank_k: (40, 50),
        utopk_k: (4, 4),
    },
    hot: true,
    replay: 3_000,
};

/// `ptk serve`'s default result-cache capacity.
const CACHE_CAPACITY: usize = 256;
/// Daemon starts before the timed loop, and again after it; more start
/// every [`SETUP_EVERY`] inside it, while the timed daemon idles. `setup_s`
/// is the fastest of them all. The machine flips between a fast and a ~50%
/// slower state that lasts seconds (one start takes ~17 or ~26 ms on the
/// 20k table), so the median of a run's starts follows whichever state
/// held longer, while starts spread over the whole run nearly always
/// catch a fast one.
const SETUPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_millis(1500);
/// Distinct statements `serve-mixed` cycles through, in one fixed order:
/// more than the FIFO cache holds, so each is evicted before it comes
/// round again, and few enough that a 30 s run sends each about a dozen
/// times.
const CYCLE: usize = 320;
/// `serve-mixed` statements sent before timing starts (never repeated).
const WARMUP: usize = 8;
/// `serve-mixed` statements byte-checked against one-shot `ptk sql`, drawn
/// from the traced prefix of the stream, which untraced runs of a few
/// seconds reach too. Each run records how many it actually compared.
const CHECK_SAMPLE: usize = 32;
const CHECK_WINDOW: usize = MIXED.replay;
/// The hot set: single PT-k statements and batches (plus six `RANK BY`).
const HOT_PTK: usize = 14;
const HOT_BATCHES: usize = 4;

/// The generated requests of one run.
struct Traffic {
    stmts: Vec<Stmt>,
    /// The request stream, as indices into `stmts`; the timed loop cycles
    /// through it.
    order: Vec<u32>,
    /// Requests sent before timing starts, as indices into `stmts`.
    warmup: Vec<u32>,
    /// Statements whose responses are byte-checked, as indices into `stmts`.
    checked: Vec<u32>,
    /// Expected response bodies (one-shot `ptk sql` output) by index.
    refs: HashMap<u32, String>,
}

pub fn run(ctx: &RunCtx, spec: &Spec) -> Result<Report, String> {
    let mut report = Report::default();
    let csv = ctx.file(".csv");
    // The table is fixed (datagen's default seed); the run seed drives the
    // statement stream. Tables drawn per seed differ in the rule layout of
    // the top ranks enough to move query cost by about 15% on their own.
    let dataset = SyntheticDataset::generate(&SyntheticConfig {
        tuples: spec.ranges.tuples,
        rules: spec.rules,
        ..SyntheticConfig::default()
    });
    let text = ptk_cli::load::save_table(&dataset.table);
    drop(dataset);
    std::fs::write(&csv, &text).map_err(|e| format!("{}: {e}", csv.display()))?;
    let mut traffic = traffic(ctx, spec);
    traffic.refs = references(&csv, &traffic)?;
    report.note("table_tuples", Json::Int(spec.ranges.tuples as u64));
    report.note("table_rules", Json::Int(spec.rules as u64));
    report.note("daemon_threads", Json::Int(CLIENTS as u64));
    report.note("cache_capacity", Json::Int(CACHE_CAPACITY as u64));
    report.note("statements", Json::Int(traffic.stmts.len() as u64));
    report.note("checked_sample", Json::Int(traffic.refs.len() as u64));

    let ready = ctx.file(".ready");
    let result = if ctx.trace {
        let (daemon, _) =
            Daemon::spawn(&ctx.ptk, &csv, CLIENTS, &ready).map_err(|e| e.to_string())?;
        traced(ctx, spec, &text, &traffic, &daemon, &mut report).and_then(|()| {
            scrape(&daemon, spec, &mut report)?;
            daemon.shutdown().map_err(|e| e.to_string())
        })
    } else {
        untraced(ctx, spec, &csv, &ready, &traffic, &mut report)
    };
    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&ready);
    result.map(|()| report)
}

fn traffic(ctx: &RunCtx, spec: &Spec) -> Traffic {
    let seed = ctx.stream_seed(1);
    if spec.hot {
        let stmts = gen::hot_set(seed, spec.ranges, HOT_PTK, HOT_BATCHES);
        let len = stmts.len();
        // The traced replay sends it once; the timed loop cycles through it.
        let order = gen::replay_order(ctx.stream_seed(2), len, spec.replay);
        Traffic {
            stmts,
            order,
            warmup: (0..len as u32).collect(),
            checked: (0..len as u32).collect(),
            refs: HashMap::new(),
        }
    } else {
        let stmts = gen::mixed_stream(seed, spec.ranges, CYCLE + WARMUP);
        let timed = CYCLE as u32;
        let mut checked = gen::replay_order(ctx.stream_seed(3), CHECK_WINDOW, CHECK_SAMPLE);
        checked.sort_unstable();
        Traffic {
            stmts,
            order: (0..timed).collect(),
            warmup: (timed..timed + WARMUP as u32).collect(),
            checked,
            refs: HashMap::new(),
        }
    }
}

/// One-shot `ptk sql` output for every checked statement — computed
/// before any timing starts, at the daemon's width.
fn references(csv: &Path, traffic: &Traffic) -> Result<HashMap<u32, String>, String> {
    let csv = csv.display().to_string();
    let width = CLIENTS.to_string();
    traffic
        .checked
        .iter()
        .map(|&i| {
            let stmt = &traffic.stmts[i as usize].text;
            let args = ["sql", &csv, stmt, "--threads", &width].map(String::from);
            ptk_cli::run(&args)
                .map(|body| (i, body))
                .map_err(|e| format!("reference for {stmt:?}: {e}"))
        })
        .collect()
}

/// How many checked statements are among the `sent` ones.
fn compared<'a>(traffic: &Traffic, sent: impl IntoIterator<Item = &'a u32>) -> Json {
    let sent: HashSet<u32> = sent.into_iter().copied().collect();
    Json::Int(traffic.checked.iter().filter(|i| sent.contains(i)).count() as u64)
}

/// Whether `body` is the right answer for statement `i` (unchecked
/// statements only need a 200).
fn verify(
    traffic: &Traffic,
    i: u32,
    response: std::io::Result<daemon::Response>,
) -> Result<daemon::Response, String> {
    let stmt = &traffic.stmts[i as usize].text;
    let response = response.map_err(|e| format!("{stmt:?}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "{stmt:?}: HTTP {}: {}",
            response.status,
            response.body.trim()
        ));
    }
    match traffic.refs.get(&i) {
        Some(want) if *want != response.body => {
            Err(format!("{stmt:?}: response differs from ptk sql"))
        }
        _ => Ok(response),
    }
}

fn untraced(
    ctx: &RunCtx,
    spec: &Spec,
    csv: &Path,
    ready: &Path,
    traffic: &Traffic,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup = Vec::new();
    let daemon = start_daemons(ctx, csv, ready, SETUPS, &mut setup)?;

    // Let the daemon's lazy set-up finish (and, on serve-hot, fill the
    // cache) before timing.
    for &i in &traffic.warmup {
        report.attempted += 1;
        let response = daemon.sql(&traffic.stmts[i as usize].text);
        if let Err(why) = verify(traffic, i, response) {
            report.fail(why);
        }
    }

    let started = Instant::now();
    let deadline = started + ctx.seconds;
    let mut samples = Vec::new();
    let mut sent = 0;
    let mut paused = Duration::ZERO;
    let mut next_setup = started + SETUP_EVERY;
    while Instant::now() < deadline {
        if Instant::now() >= next_setup {
            let began = Instant::now();
            start_daemons(ctx, csv, ready, 1, &mut setup)?
                .shutdown()
                .map_err(|e| e.to_string())?;
            paused += began.elapsed();
            next_setup = Instant::now() + SETUP_EVERY;
        }
        let i = traffic.order[sent % traffic.order.len()];
        sent += 1;
        let stmt = &traffic.stmts[i as usize];
        let began = Instant::now();
        let response = daemon.sql(&stmt.text);
        let ms = began.elapsed().as_secs_f64() * 1e3;
        samples.push(Sample {
            ms,
            kind: stmt.kind,
            request: i,
        });
        if let Err(why) = verify(traffic, i, response) {
            report.fail(why);
        }
    }
    let wall = (started.elapsed() - paused).as_secs_f64();
    report.attempted += samples.len() as u64;
    report.note(
        "checked_statements",
        compared(
            traffic,
            traffic
                .warmup
                .iter()
                .chain(&traffic.order[..sent.min(traffic.order.len())]),
        ),
    );
    let rss = daemon::vm_hwm_mib(&daemon.pid().to_string()).map_err(|e| e.to_string())?;
    scrape(&daemon, spec, report)?;
    daemon.shutdown().map_err(|e| e.to_string())?;
    start_daemons(ctx, csv, ready, SETUPS, &mut setup)?
        .shutdown()
        .map_err(|e| e.to_string())?;
    report.set("setup_s", stats::lowest(&setup));
    report.note("setup_runs", Json::Int(setup.len() as u64));

    report.latencies(&samples, wall)?;
    report.set("rss_peak_mb", rss);
    Ok(())
}

/// Starts `count` daemons one after another, each stopped before the
/// next, and returns the last one still running; each start's
/// spawn-to-ready time is appended to `setup`.
fn start_daemons(
    ctx: &RunCtx,
    csv: &Path,
    ready: &Path,
    count: usize,
    setup: &mut Vec<f64>,
) -> Result<Daemon, String> {
    let mut daemon: Option<Daemon> = None;
    for _ in 0..count {
        if let Some(previous) = daemon.take() {
            previous.shutdown().map_err(|e| e.to_string())?;
        }
        let (started, took) =
            Daemon::spawn(&ctx.ptk, csv, CLIENTS, ready).map_err(|e| e.to_string())?;
        setup.push(took.as_secs_f64());
        daemon = Some(started);
    }
    Ok(daemon.expect("count >= 1"))
}

/// End-of-run `/metrics` and `/debug/pool` scrapes, the serve-layer
/// counters read from them, and the per-run design checks they decide.
fn scrape(daemon: &Daemon, spec: &Spec, report: &mut Report) -> Result<(), String> {
    let metrics = daemon.get("/metrics").map_err(|e| e.to_string())?;
    let pool = daemon.get("/debug/pool").map_err(|e| e.to_string())?;
    if metrics.status != 200 || pool.status != 200 {
        return Err(format!(
            "scrapes answered {} and {}",
            metrics.status, pool.status
        ));
    }
    let m = daemon::parse_prometheus(&metrics.body);
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let hits = get("ptk_serve_cache_hits");
    let misses = get("ptk_serve_cache_misses");
    let rejected = get("ptk_serve_rejected_queue_full") + get("ptk_serve_rejected_timeout");
    let errors = get("ptk_serve_query_errors");
    let hit_ratio = stats::ratio(hits, hits + misses);
    report.set("serve.cache.hits", hits);
    report.set("serve.cache.misses", misses);
    report.set(
        "serve.cache.uncacheable",
        get("ptk_serve_cache_uncacheable"),
    );
    report.set("serve.cache.hit_ratio", hit_ratio);
    report.set("serve.rejected", rejected);
    report.set("serve.query_errors", errors);
    report.set(
        "serve.server_latency_p50_ms",
        get("ptk_serve_latency_ms_p50"),
    );
    report.note("scrape_metrics", Json::str(metrics.body));
    report.note("scrape_debug_pool", Json::str(pool.body.trim()));

    if spec.hot {
        report.check(
            "serve-hot cache hit ratio",
            hit_ratio >= 0.98,
            format!(
                "{hit_ratio:.6} = {hits} hits / {} lookups (want >= 0.98)",
                hits + misses
            ),
        );
    } else {
        report.check(
            "serve-mixed bypasses the cache",
            hits == 0.0 && misses > CACHE_CAPACITY as f64,
            format!(
                "{hits} hits, {misses} distinct misses (want 0 hits, > {CACHE_CAPACITY} misses)"
            ),
        );
    }
    report.check(
        "no requests rejected",
        rejected == 0.0,
        format!("{rejected} rejected (queue_full + timeout)"),
    );
    report.check(
        "no query errors",
        errors == 0.0,
        format!("{errors} statements rejected (U_TOPK state-cap errors included)"),
    );
    Ok(())
}

/// What the in-process replay accumulates across requests.
#[derive(Default)]
struct Layers {
    engine: Snapshot,
    view_tuples: u64,
    /// Σ over executed plans of the tuples their scan could reach.
    source_tuples: u64,
}

fn traced(
    ctx: &RunCtx,
    spec: &Spec,
    csv_text: &str,
    traffic: &Traffic,
    daemon: &Daemon,
    report: &mut Report,
) -> Result<(), String> {
    let mut load_ms = Vec::new();
    let mut table = None;
    for _ in 0..3 {
        let started = Instant::now();
        let loaded = ptk_cli::load::load_table(csv_text)?;
        load_ms.push(started.elapsed().as_secs_f64() * 1e3);
        table = Some(loaded);
    }
    let table = table.expect("loaded above");
    report.set("load.table_ms", stats::median(&load_ms));
    report.set("load.rows", table.len() as f64);

    let pool = ThreadPool::new(CLIENTS);
    let mut tracer = Tracer::new();
    let mut plain = Tracer::disabled();
    let mut layers = Layers::default();
    let mut scratch = Layers::default();
    let mut rtt = Vec::with_capacity(spec.replay);
    let mut plain_ns = 0u128;
    for (request, &i) in traffic.order.iter().take(spec.replay).enumerate() {
        let text = &traffic.stmts[i as usize].text;
        report.attempted += 1;
        let sent = Instant::now();
        let response = daemon.sql(text);
        rtt.push(sent.elapsed());
        let response = match verify(traffic, i, response) {
            Ok(r) => r,
            Err(why) => {
                report.fail(why);
                continue;
            }
        };
        let cached = response.header("X-Ptk-Cache") == Some("hit");
        // Alternate which copy runs first, so warm caches favour neither.
        for traced_pass in [request % 2 == 1, request % 2 == 0] {
            if traced_pass {
                tracer.request(request as u64);
                pipeline(&mut tracer, &table, text, cached, &pool, &mut layers)?;
            } else {
                let started = Instant::now();
                pipeline(&mut plain, &table, text, cached, &pool, &mut scratch)?;
                plain_ns += started.elapsed().as_nanos();
            }
        }
    }

    let us = |name: &str| tracer.median_self(name) / 1e3;
    let ms = |name: &str| tracer.median_self(name) / 1e6;
    report.set("sql.parse_us", us("sql.parse"));
    report.set("sql.bind_us", us("sql.bind"));
    report.set("plan.us", us("plan"));
    report.set("view.build_ms", ms("view.build"));
    report.set("view.tuples", layers.view_tuples as f64);
    report.set("exec.ptk_ms", ms("exec.ptk"));
    report.set("exec.rankby_ms", ms("exec.rankby"));
    report.set("exec.batch_ms", ms("exec.batch"));
    report.engine(&layers.engine, layers.source_tuples);

    let pipeline_ns = tracer.durations("request");
    let rtt_ms: Vec<f64> = rtt.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let overhead_ms: Vec<f64> = pipeline_ns
        .iter()
        .map(|(&req, &ns)| rtt_ms[req as usize] - ns as f64 / 1e6)
        .collect();
    report.set("serve.rtt_ms", stats::median(&rtt_ms));
    report.set("serve.overhead_ms", stats::median_or_zero(&overhead_ms));
    report.set("trace.requests", rtt.len() as f64);
    report.note(
        "checked_statements",
        compared(traffic, traffic.order.iter().take(spec.replay)),
    );
    let traced_ns: u64 = pipeline_ns.values().sum();
    report.set(
        "trace.overhead_pct",
        stats::ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64) * 100.0,
    );
    tracer.write(&ctx.file("-spans.jsonl"))
}

/// One request's in-process pipeline, mirroring what the daemon does:
/// the cache fingerprint (parse, bind and plan of every statement) always,
/// and on a cache miss the execution — parse, bind, view build, plan and
/// execute, through the same public calls `ptk sql` makes.
fn pipeline(
    t: &mut Tracer,
    table: &UncertainTable,
    text: &str,
    cached: bool,
    pool: &ThreadPool,
    layers: &mut Layers,
) -> Result<(), String> {
    t.span("request", |t| {
        t.span("fingerprint", |t| fingerprint(t, table, text))?;
        if !cached {
            t.span("execute", |t| execute(t, table, text, pool, layers))?;
        }
        Ok(())
    })
}

fn statements(text: &str) -> Vec<&str> {
    text.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn semantics_of(kind: ptk_sql::QueryKind) -> RankSemantics {
    match kind {
        ptk_sql::QueryKind::Ptk => RankSemantics::Ptk,
        ptk_sql::QueryKind::UTopK => RankSemantics::UTopK,
        ptk_sql::QueryKind::UKRanks => RankSemantics::UKRanks,
        ptk_sql::QueryKind::GlobalTopk => RankSemantics::GlobalTopk,
        ptk_sql::QueryKind::ExpectedRank => RankSemantics::ExpectedRank,
    }
}

fn parse(t: &mut Tracer, text: &str) -> Result<ptk_sql::Statement, String> {
    t.span("sql.parse", |_| ptk_sql::parse_statement(text))
        .map_err(|e| e.to_string())
}

fn bind(
    t: &mut Tracer,
    stmt: &ptk_sql::Statement,
    table: &UncertainTable,
) -> Result<ptk_core::PtkQuery, String> {
    t.span("sql.bind", |_| stmt.query.bind(table))
        .map_err(|e| e.to_string())
}

fn plan(
    t: &mut Tracer,
    stmt: &ptk_sql::Statement,
    bound: &ptk_core::PtkQuery,
) -> Result<PtkPlan, String> {
    let options = EngineOptions::default();
    t.span("plan", |_| match semantics_of(stmt.kind) {
        RankSemantics::Ptk => PtkPlan::try_new(bound.k(), bound.threshold().value(), &options),
        semantics => PtkPlan::try_semantics(semantics, bound.k(), None, &options),
    })
    .map_err(|e| e.to_string())
}

fn fingerprint(t: &mut Tracer, table: &UncertainTable, text: &str) -> Result<(), String> {
    for s in statements(text) {
        let stmt = parse(t, s)?;
        let bound = bind(t, &stmt, table)?;
        black_box(plan(t, &stmt, &bound)?);
    }
    Ok(())
}

fn execute(
    t: &mut Tracer,
    table: &UncertainTable,
    text: &str,
    pool: &ThreadPool,
    layers: &mut Layers,
) -> Result<(), String> {
    let parts = statements(text);
    // The daemon records every query (its flight record carries the
    // counter delta), so the replay records too.
    let metrics = Metrics::new();
    if let [single] = parts.as_slice() {
        let stmt = parse(t, single)?;
        let bound = bind(t, &stmt, table)?;
        let view = t
            .span("view.build", |_| RankedView::build(table, bound.query()))
            .map_err(|e| e.to_string())?;
        let plan = plan(t, &stmt, &bound)?;
        let executor = PtkExecutor::with_recorder(&plan, &metrics);
        if plan.semantics() == RankSemantics::Ptk {
            black_box(t.span("exec.ptk", |_| executor.execute_snapshot(&view, pool)));
        } else {
            let answer = t.span("exec.rankby", |_| {
                executor.execute_semantics_snapshot(&view, pool)
            });
            black_box(answer.map_err(|e| e.to_string())?);
        }
        layers.view_tuples += view.len() as u64;
        layers.source_tuples += view.len() as u64;
        layers.engine.merge(&metrics.snapshot());
        return Ok(());
    }
    let parsed = parts
        .iter()
        .map(|s| parse(t, s))
        .collect::<Result<Vec<_>, _>>()?;
    let mut plans = Vec::with_capacity(parsed.len());
    let mut view = None;
    for stmt in &parsed {
        let bound = bind(t, stmt, table)?;
        plans.push(plan(t, stmt, &bound)?);
        if view.is_none() {
            let built = t.span("view.build", |_| RankedView::build(table, bound.query()));
            view = Some(built.map_err(|e| e.to_string())?);
        }
    }
    let view = view.expect("a batch has statements");
    let batch = t.span("plan", |_| PtkPlan::batch(&plans));
    let (results, snapshot) = t.span("exec.batch", |_| {
        PtkExecutor::execute_batch_recorded(&batch, &view, pool)
    });
    black_box(results);
    layers.view_tuples += view.len() as u64;
    layers.source_tuples += (plans.len() * view.len()) as u64;
    layers.engine.merge(&snapshot);
    Ok(())
}
