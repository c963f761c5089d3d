//! The `scan-paged` workload: PT-k queries straight over a block-native
//! (PTKRUN02) run file through a `PagedRun` buffer pool, in-process. The
//! table has a short strong head and a long rule-free tail, so scans dig
//! thousands of ranks deep and skip whole blocks; the pool has fewer
//! frames than deep queries touch, so some queries fit in the pool and
//! others evict. Serve, SQL, view build and the gf scan are bypassed.
//!
//! Both the untraced closed loop and the traced replay run one client
//! over one `PagedRun` (a pool is single-threaded), so the traced block
//! counters repeat exactly. Every answer — ids, ranks, probabilities to
//! the bit, `ExecStats` and scan depth — is checked against the in-memory
//! `SortedVecSource` path.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ptk_access::{
    write_run_blocked, PagedRun, PoolConfig, RankedSource, SnapshotSource, SortedVecSource,
    DEFAULT_FRAME_BYTES, MIN_BLOCK_BYTES,
};
use ptk_datagen::{deep_scan_rows, DeepScanConfig};
use ptk_engine::{EngineOptions, ExecStats, PtkExecutor, PtkPlan, PtkResult};
use ptk_obs::{Metrics, SharedRecorder, Snapshot};

use crate::gen::{self, Kind};
use crate::report::{Json, Report, Sample};
use crate::stats;
use crate::trace::{Timed, Tracer};
use crate::RunCtx;

/// Block size the run is packed at (the format's default).
const BLOCK_BYTES: u32 = 4096;
/// Buffer-pool frames: fewer than the deepest queries touch.
const POOL_FRAMES: usize = 8;
/// Rule-free tail records behind the strong head.
const TAIL: usize = 100_000;
/// Distinct `(k, p)` queries, cycled in the timed loop.
const QUERIES: usize = 512;
/// PT-k `k` range: from head-sized (shallow) to far past the head's mass.
const K_RANGE: (usize, usize) = (50, 130);
/// Pack-and-open repetitions before the timed loop, and again after it;
/// `setup_s` is the fastest of them, as on the serve workloads.
const SETUPS: usize = 7;
/// Queries the client runs before timing starts.
const WARMUP: usize = 16;
/// Queries in the traced replay.
const REPLAY: usize = 384;

fn rows(seed: u64) -> Vec<(f64, f64, Option<u32>)> {
    deep_scan_rows(&DeepScanConfig {
        head: 48,
        decoys: 4,
        tail: TAIL,
        head_rules: 4,
        seed,
    })
}

fn pool() -> PoolConfig {
    PoolConfig {
        frames: POOL_FRAMES,
        frame_bytes: DEFAULT_FRAME_BYTES,
    }
}

/// One query's expected outcome, from the in-memory path. The answers and
/// probabilities are kept as a digest, so the references add little to
/// the resident set the timed loop's `rss_peak_mb` covers.
struct Expected {
    stats: ExecStats,
    depth: usize,
    digest: u64,
}

/// FNV-1a over every answer's rank, id and probability bits and every
/// per-rank probability's bits (`None` included).
fn digest(r: &PtkResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in &r.answers {
        mix(a.rank as u64);
        mix(a.id.index() as u64);
        mix(a.probability.to_bits());
    }
    mix(u64::MAX);
    for p in &r.probabilities {
        match p {
            Some(p) => {
                mix(1);
                mix(p.to_bits());
            }
            None => mix(0),
        }
    }
    h
}

/// Whether a paged execution matches the in-memory one exactly. The only
/// stat allowed to differ is the block-grain share of the membership
/// prunes, which only a block-native source can have.
fn matches(got: &PtkResult, depth: usize, want: &Expected) -> Result<(), String> {
    let stats = ExecStats {
        pruned_membership_block: 0,
        ..got.stats
    };
    if stats != want.stats {
        return Err(format!("stats {:?} != {:?}", got.stats, want.stats));
    }
    if depth != want.depth {
        return Err(format!("scan depth {depth} != {}", want.depth));
    }
    if digest(got) != want.digest {
        return Err("answers or probabilities differ from the in-memory path".into());
    }
    Ok(())
}

/// Runs query `n` of the cycled query list on `run`, timing plan and
/// execution, and checks the answer.
fn query(
    run: &PagedRun,
    plans: &[PtkPlan],
    expected: &[Expected],
    n: usize,
) -> (f64, Option<String>) {
    let i = n % plans.len();
    let (k, p) = (plans[i].k(), plans[i].thresholds()[0]);
    let started = Instant::now();
    let plan = PtkPlan::try_new(k, p, &EngineOptions::default()).expect("validated above");
    let mut cursor = run.cursor();
    let result = PtkExecutor::new(&plan).execute(&mut cursor);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let verdict = match cursor.take_error() {
        Some(e) => Err(format!("paged scan error: {e}")),
        None => matches(&result, cursor.retrieved(), &expected[i]),
    };
    black_box(result);
    (ms, verdict.err().map(|why| format!("k={k} p={p}: {why}")))
}

pub fn run(ctx: &RunCtx) -> Result<Report, String> {
    let mut report = Report::default();
    let rows = rows(ctx.stream_seed(0));
    let queries = gen::scan_queries(ctx.stream_seed(1), K_RANGE, QUERIES);
    let options = EngineOptions::default();
    let plans: Vec<PtkPlan> = queries
        .iter()
        .map(|&(k, p)| PtkPlan::try_new(k, p, &options).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let memory = SortedVecSource::from_unsorted(rows.clone()).map_err(|e| e.to_string())?;
    let expected: Vec<Expected> = plans
        .iter()
        .map(|plan| {
            let mut cursor = memory.fork();
            let result = PtkExecutor::new(plan).execute(cursor.as_mut());
            Expected {
                stats: result.stats,
                depth: cursor.retrieved(),
                digest: digest(&result),
            }
        })
        .collect();
    drop(memory);
    let depths: Vec<f64> = expected.iter().map(|e| e.depth as f64).collect();
    // The smallest legal block holds exactly one record.
    let per_block = (BLOCK_BYTES / MIN_BLOCK_BYTES) as usize;
    let fitting = expected
        .iter()
        .filter(|e| e.depth.div_ceil(per_block) <= POOL_FRAMES)
        .count();
    report.note("table_tuples", Json::Int(rows.len() as u64));
    report.note("block_bytes", Json::Int(u64::from(BLOCK_BYTES)));
    report.note("pool_frames", Json::Int(POOL_FRAMES as u64));
    report.note("queries", Json::Int(QUERIES as u64));
    report.observe("scan_depth_p50", stats::median(&depths), "tuples");
    report.observe("queries_fitting_pool", fitting as f64, "count");
    report.check(
        "scan-paged depth spans the pool",
        fitting > 0 && fitting < QUERIES,
        format!(
            "{fitting} of {QUERIES} queries touch <= {POOL_FRAMES} blocks (want some, not all)"
        ),
    );

    let path = ctx.file(".run");
    let result = if ctx.trace {
        traced(ctx, &path, &rows, &plans, &expected, &mut report)
    } else {
        untraced(ctx, &path, rows, &plans, &expected, &mut report)
    };
    let _ = std::fs::remove_file(&path);
    result.map(|()| report)
}

fn untraced(
    ctx: &RunCtx,
    path: &Path,
    rows: Vec<(f64, f64, Option<u32>)>,
    plans: &[PtkPlan],
    expected: &[Expected],
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut setup = Vec::with_capacity(2 * SETUPS);
    pack_and_open(path, &rows, &mut setup).map_err(io)?;
    drop(rows);

    // The client's pool, warmed before timing starts.
    let run = PagedRun::open(path, pool()).map_err(io)?;
    for n in 0..WARMUP {
        report.attempted += 1;
        if let (_, Some(why)) = query(&run, plans, expected, n) {
            report.fail(why);
        }
    }
    // `rss_peak_mb` covers the timed loop only: the input rows and the
    // reference scans peaked earlier. What stays resident from before
    // (references, plans, the warmed pool) is recorded beside it.
    let rss = |e: std::io::Error| format!("/proc/self: {e}");
    crate::daemon::reset_vm_hwm().map_err(rss)?;
    report.note(
        "rss_baseline_mb",
        Json::Num(crate::daemon::vm_rss_mib("self").map_err(rss)?),
    );
    let started = Instant::now();
    let deadline = started + ctx.seconds;
    let mut samples = Vec::new();
    let mut n = WARMUP;
    while Instant::now() < deadline {
        let (ms, failure) = query(&run, plans, expected, n);
        samples.push(Sample {
            ms,
            kind: Kind::Ptk,
            request: (n % plans.len()) as u32,
        });
        n += 1;
        if let Some(why) = failure {
            report.fail(why);
        }
    }
    let finished = Instant::now();
    report.attempted += samples.len() as u64;
    report.latencies(&samples, finished.duration_since(started).as_secs_f64())?;
    report.set(
        "rss_peak_mb",
        crate::daemon::vm_hwm_mib("self").map_err(rss)?,
    );

    // The design check needs the block counters, which the timed loop
    // does not record: replay the first queries, untimed, on a recorded
    // run.
    let access = Arc::new(Metrics::new());
    let recorded =
        PagedRun::open_recorded(path, pool(), Arc::clone(&access) as SharedRecorder).map_err(io)?;
    for plan in plans.iter().take(32) {
        black_box(PtkExecutor::new(plan).execute(&mut recorded.cursor()));
    }
    drop(recorded);
    let blocks = access.snapshot();
    check_blocks(
        blocks.counter("access.block.skip") as f64,
        blocks.counter("access.block.evict") as f64,
        report,
    );

    pack_and_open(path, &self::rows(ctx.stream_seed(0)), &mut setup).map_err(io)?;
    report.set("setup_s", stats::lowest(&setup));
    report.note("setup_runs", Json::Int(setup.len() as u64));
    Ok(())
}

/// Packs and opens the run `SETUPS` times, appending each time to `setup`.
fn pack_and_open(
    path: &Path,
    rows: &[(f64, f64, Option<u32>)],
    setup: &mut Vec<f64>,
) -> std::io::Result<()> {
    for _ in 0..SETUPS {
        let started = Instant::now();
        write_run_blocked(path, rows, BLOCK_BYTES)?;
        drop(PagedRun::open(path, pool())?);
        setup.push(started.elapsed().as_secs_f64());
    }
    Ok(())
}

fn check_blocks(skip: f64, evict: f64, report: &mut Report) {
    report.check(
        "scan-paged skips and evicts",
        skip > 0.0 && evict > 0.0,
        format!("{skip} blocks skipped, {evict} frames evicted (want both > 0)"),
    );
}

fn traced(
    ctx: &RunCtx,
    path: &Path,
    rows: &[(f64, f64, Option<u32>)],
    plans: &[PtkPlan],
    expected: &[Expected],
    report: &mut Report,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut pack_ms = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        write_run_blocked(path, rows, BLOCK_BYTES).map_err(io)?;
        pack_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let file_bytes = std::fs::metadata(path).map_err(io)?.len() as f64;
    let access = Arc::new(Metrics::new());
    let mut open_ms = Vec::new();
    let mut traced_run = None;
    for _ in 0..3 {
        drop(traced_run.take());
        let recorder = Arc::clone(&access) as SharedRecorder;
        let started = Instant::now();
        traced_run = Some(PagedRun::open_recorded(path, pool(), recorder).map_err(io)?);
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let traced_run = traced_run.expect("opened above");
    // The plain copy records into counters of its own, so the traced and
    // plain passes differ by span and adapter cost only.
    let plain_access = Arc::new(Metrics::new());
    let plain_run =
        PagedRun::open_recorded(path, pool(), plain_access as SharedRecorder).map_err(io)?;
    report.set("access.pack_ms", stats::median(&pack_ms));
    report.set("access.open_ms", stats::median(&open_ms));
    report.set("access.file_bytes", file_bytes);
    report.set("access.tuples", rows.len() as f64);
    report.set("access.bytes_per_tuple", file_bytes / rows.len() as f64);
    // Opens record file bytes only; the replay's block counters start here.
    let opened = access.snapshot();

    let mut tracer = Tracer::new();
    let mut engine = Snapshot::default();
    let mut plain_ns = 0u128;
    let options = EngineOptions::default();
    for n in 0..REPLAY {
        let i = n % plans.len();
        let (k, p) = (plans[i].k(), plans[i].thresholds()[0]);
        report.attempted += 1;
        // Alternate which copy runs first, so warm caches favour neither.
        for traced_pass in [n % 2 == 1, n % 2 == 0] {
            if !traced_pass {
                let metrics = Metrics::new();
                let started = Instant::now();
                let plan = PtkPlan::try_new(k, p, &options).expect("validated above");
                let executor = PtkExecutor::with_recorder(&plan, &metrics);
                black_box(executor.execute(&mut plain_run.cursor()));
                plain_ns += started.elapsed().as_nanos();
                continue;
            }
            tracer.request(n as u64);
            let metrics = Metrics::new();
            let (result, depth, error) = tracer.span("request", |t| {
                let plan = t.span("plan", |_| {
                    PtkPlan::try_new(k, p, &options).expect("validated above")
                });
                t.span("exec.ptk", |t| {
                    let mut cursor = traced_run.cursor();
                    let mut timed = Timed::new(&mut cursor);
                    let result = PtkExecutor::with_recorder(&plan, &metrics).execute(&mut timed);
                    t.aggregate("access.cursor", timed.nanos);
                    (result, cursor.retrieved(), cursor.take_error())
                })
            });
            let verdict = match error {
                Some(e) => Err(format!("paged scan error: {e}")),
                None => matches(&result, depth, &expected[i]),
            };
            if let Err(why) = verdict {
                report.fail(format!("k={k} p={p}: {why}"));
            }
            engine.merge(&metrics.snapshot());
        }
    }

    report.set("exec.ptk_ms", tracer.median_self("exec.ptk") / 1e6);
    report.set(
        "access.cursor_ms",
        tracer.median_self("access.cursor") / 1e6,
    );
    report.set("plan.us", tracer.median_self("plan") / 1e3);
    report.engine(&engine, (REPLAY * rows.len()) as u64);
    let blocks = access.snapshot();
    let delta = |name: &str| (blocks.counter(name) - opened.counter(name)) as f64;
    let (hit, miss) = (
        delta("access.block.pool_hit"),
        delta("access.block.pool_miss"),
    );
    let skip = delta("access.block.skip");
    let evict = delta("access.block.evict");
    let decode = delta("access.block.decode_bytes");
    report.set("access.block.read", delta("access.block.read"));
    report.set("access.block.skip", skip);
    report.set("access.block.decode_bytes", decode);
    report.set("access.block.pool_hit", hit);
    report.set("access.block.pool_miss", miss);
    report.set("access.block.evict", evict);
    report.set("access.pool_hit_ratio", stats::ratio(hit, hit + miss));
    report.set(
        "access.decode_bytes_per_scanned",
        stats::ratio(decode, engine.counter("engine.scanned") as f64),
    );
    check_blocks(skip, evict, report);
    let traced_ns: u64 = tracer.durations("request").values().sum();
    report.set("trace.requests", REPLAY as f64);
    report.set(
        "trace.overhead_pct",
        stats::ratio(traced_ns as f64 - plain_ns as f64, plain_ns as f64) * 100.0,
    );
    tracer.write(&ctx.file("-spans.jsonl"))
}
