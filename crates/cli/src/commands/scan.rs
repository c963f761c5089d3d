//! Packed run files: `pack` (CSV -> binary run, v1 or block-native v2),
//! `scan` (progressive PT-k retrieval over a run file without
//! materializing a view; v2 files stream through the pinned buffer pool)
//! and the run-file half of `inspect` (header + block directory).

use std::io::Write;
use std::sync::Arc;

use ptk_access::{
    run_format, write_run, write_run_blocked, FileSource, PagedCursor, PagedRun, PoolConfig,
    RankedSource, DEFAULT_FRAME_BYTES, DEFAULT_POOL_FRAMES,
};
use ptk_core::{Predicate, RankedView, TopKQuery};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_obs::{Noop, QueryFlight, Recorder, SharedRecorder, SharedSink, Tracer};

use super::render::{absorb_semantics_flight, registry, stats_mode, write_audit, write_stats};
use super::sql::flight_fingerprint;
use super::trace::trace_opts;
use super::{build_ranking, load_from_flags, semantics_from_flags, CmdError, Flags};

/// Run-file rows in CSV order: score from the ranked column, rule keys
/// from the view's dense handles. Shared by `pack` and `generate --out`.
pub(super) fn rows_of_view(view: &RankedView) -> Result<Vec<(f64, f64, Option<u32>)>, String> {
    let mut rows: Vec<(f64, f64, Option<u32>)> = vec![(0.0, 0.0, None); view.len()];
    for pos in 0..view.len() {
        let t = view.tuple(pos);
        rows[t.id.index()] = (
            t.key.ok_or("the ranked column must be numeric to pack")?,
            t.prob,
            t.rule.map(|h| h.index() as u32),
        );
    }
    Ok(rows)
}

/// Writes `rows` at `out_path` — block-native v2 when a block size is
/// given, the flat v1 format otherwise — and describes the file written.
pub(super) fn write_packed(
    out_path: &str,
    rows: &[(f64, f64, Option<u32>)],
    block_size: Option<u32>,
) -> Result<String, String> {
    let path = std::path::Path::new(out_path);
    match block_size {
        Some(size) => {
            write_run_blocked(path, rows, size).map_err(|e| e.to_string())?;
            let capacity = size as usize / 24;
            let blocks = rows.len().div_ceil(capacity).max(1);
            Ok(format!("{blocks} blocks of {size} B"))
        }
        None => {
            write_run(path, rows).map_err(|e| e.to_string())?;
            Ok("v1".to_owned())
        }
    }
}

pub(super) fn cmd_pack(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let table = load_from_flags(flags)?;
    let out_path: String = flags.require("out")?;
    let ranking = build_ranking(flags, &table)?;
    let query = TopKQuery::new(1, Predicate::True, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let rows = rows_of_view(&view)?;
    let shape = write_packed(&out_path, &rows, flags.get("block-size")?)?;
    writeln!(
        out,
        "packed {} tuples ({} rules) into {out_path} ({shape})",
        view.len(),
        view.rules().len()
    )?;
    Ok(())
}

/// The buffer-pool shape `scan` hands to [`PagedRun`]: `--pool-frames`
/// bounds resident frames (default [`DEFAULT_POOL_FRAMES`]); the frame
/// size stays at [`DEFAULT_FRAME_BYTES`], so a run packed with larger
/// blocks gets the reader's pointed repack-or-raise error at open.
fn pool_from_scan_flags(flags: &Flags) -> Result<PoolConfig, String> {
    let frames = match flags.get::<usize>("pool-frames")? {
        Some(0) => return Err("--pool-frames must be at least 1".into()),
        Some(n) => n,
        None => DEFAULT_POOL_FRAMES,
    };
    Ok(PoolConfig {
        frames,
        frame_bytes: DEFAULT_FRAME_BYTES,
    })
}

/// Rejects `--pool-frames` on files the pool cannot serve, so the flag is
/// never a silent no-op.
fn check_pool_flags(flags: &Flags, paged: bool) -> Result<(), String> {
    if !paged && flags.named.contains_key("pool-frames") {
        return Err(
            "--pool-frames applies to block-native (v2) run files; repack this file with \
             `ptk pack --block-size` first"
                .into(),
        );
    }
    Ok(())
}

/// The IO or corruption error that ended a scan of whichever run source
/// was opened. The engine sees such an error as end-of-stream; a silent
/// short answer must not pass for a clean early stop.
fn take_run_error(
    paged: Option<&mut PagedCursor<'_>>,
    flat: Option<&mut FileSource>,
) -> Option<std::io::Error> {
    match (paged, flat) {
        (Some(cursor), _) => cursor.take_error(),
        (None, Some(file)) => file.take_error(),
        (None, None) => None,
    }
}

pub(super) fn cmd_scan(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = flags.positional.get(1).ok_or("missing run file argument")?;
    let k: usize = flags.require("k")?;
    let semantics = semantics_from_flags(flags)?;
    if semantics != RankSemantics::Ptk {
        return scan_semantics(flags, out, path, k, semantics);
    }
    let p: f64 = flags.require("p")?;
    // Planning rejects k == 0 and a threshold outside (0, 1] (NaN
    // included) before the file is opened. The plan also feeds the
    // --audit flight record (description and fingerprint).
    let plan = PtkPlan::try_new(k, p, &EngineOptions::default()).map_err(|e| e.to_string())?;
    let stats = stats_mode(flags)?;
    let trace = trace_opts(flags)?;
    let audit = flags.switch("audit");
    let recording = stats.is_some() || audit;
    // A flight record alone keeps counters only, so it reads no clock.
    let metrics = Arc::new(registry(stats.is_some()));
    let recorder: &dyn Recorder = if recording { metrics.as_ref() } else { &Noop };
    let mut flight = audit.then(|| {
        let label = format!("scan k={k} p={p}");
        QueryFlight {
            plan: plan.describe(),
            semantics: RankSemantics::Ptk.keyword().to_owned(),
            ks: vec![k as u64],
            thresholds: vec![p],
            fingerprint: Some(flight_fingerprint(&label, &[plan.fingerprint()])),
            label,
            ..QueryFlight::default()
        }
    });
    // Tracing instruments the file source itself (source-open span and
    // per-refill read marks), so the tracer is threaded into the source.
    let sink = trace.active().then(|| trace.sink());
    let tracer = sink
        .as_ref()
        .map(|s| Arc::new(Tracer::new(Arc::clone(s) as SharedSink, 0, 0)));
    let shared_recorder: SharedRecorder = if recording {
        Arc::clone(&metrics) as SharedRecorder
    } else {
        Arc::new(Noop)
    };
    let file_path = std::path::Path::new(path);
    let paged = run_format(file_path) == Some(2);
    check_pool_flags(flags, paged)?;
    let mut file_source = None;
    let paged_run;
    let mut paged_cursor = None;
    let (source, total): (&mut dyn RankedSource, u64) = if paged {
        let pool = pool_from_scan_flags(flags)?;
        paged_run = match &tracer {
            Some(t) => PagedRun::open_traced(file_path, pool, shared_recorder, Arc::clone(t)),
            None if recording => PagedRun::open_recorded(file_path, pool, shared_recorder),
            None => PagedRun::open(file_path, pool),
        }
        .map_err(|e| e.to_string())?;
        let total = paged_run.tuples();
        (paged_cursor.insert(paged_run.cursor()), total)
    } else {
        let opened = match &tracer {
            Some(t) => FileSource::open_traced(file_path, shared_recorder, Arc::clone(t)),
            None if recording => FileSource::open_recorded(file_path, shared_recorder),
            None => FileSource::open(file_path),
        }
        .map_err(|e| e.to_string())?;
        let total = opened.remaining();
        (file_source.insert(opened), total)
    };
    let result = PtkExecutor::with_recorder(&plan, recorder).execute(&mut *source);
    if let Some(f) = flight.as_mut() {
        f.stop = result
            .stats
            .stop
            .map_or(String::new(), |s| format!("{s:?}"));
    }
    let retrieved = source.retrieved();
    if let Some(e) = take_run_error(paged_cursor.as_mut(), file_source.as_mut()) {
        return Err(e.to_string().into());
    }
    writeln!(
        out,
        "{} tuples pass Pr^{k} >= {p} (streamed {} of {total} records{})",
        result.answers.len(),
        retrieved,
        result
            .stats
            .stop
            .map_or(String::new(), |s| format!(", stopped early: {s:?}"))
    )?;
    for a in &result.answers {
        writeln!(
            out,
            "  row {:>6}  score {:>12.4}  Pr^k = {:.4}",
            a.id.index(),
            a.score,
            a.probability
        )?;
    }
    if let (Some(sink), Some(tracer)) = (&sink, &tracer) {
        let events = sink.events();
        trace.write_file(&events)?;
        trace.log_slow(
            &format!("scan k={k} p={p}"),
            tracer.elapsed_nanos(),
            &events,
            &mut std::io::stderr(),
        );
    }
    write_stats(out, stats, &metrics)?;
    if let Some(mut f) = flight {
        f.absorb_counters(&metrics.snapshot());
        write_audit(out, f)?;
    }
    Ok(())
}

/// The `--semantics` path of `ptk scan`: progressive retrieval over the run
/// file feeding the engine's generating-function scan. Run files carry no
/// attribute columns, so rows render by CSV row id and score.
fn scan_semantics(
    flags: &Flags,
    out: &mut dyn Write,
    path: &str,
    k: usize,
    semantics: RankSemantics,
) -> Result<(), CmdError> {
    if flags.named.contains_key("p") {
        return Err(format!(
            "--semantics {} takes no --p; probability thresholds parameterize PT-k only",
            semantics.keyword()
        )
        .into());
    }
    let plan = PtkPlan::try_semantics(semantics, k, None, &EngineOptions::default())
        .map_err(|e| e.to_string())?;
    let stats = stats_mode(flags)?;
    let audit = flags.switch("audit");
    let recording = stats.is_some() || audit;
    // A flight record alone keeps counters only, so it reads no clock.
    let metrics = Arc::new(registry(stats.is_some()));
    let recorder: &dyn Recorder = if recording { metrics.as_ref() } else { &Noop };
    let flight = audit.then(|| {
        let label = format!("scan --semantics {} k={k}", semantics.keyword());
        QueryFlight {
            plan: plan.describe(),
            semantics: semantics.keyword().to_owned(),
            ks: vec![k as u64],
            fingerprint: Some(flight_fingerprint(&label, &[plan.fingerprint()])),
            label,
            ..QueryFlight::default()
        }
    });
    let shared_recorder: SharedRecorder = if recording {
        Arc::clone(&metrics) as SharedRecorder
    } else {
        Arc::new(Noop)
    };
    let file_path = std::path::Path::new(path);
    let paged = run_format(file_path) == Some(2);
    check_pool_flags(flags, paged)?;
    let mut file_source = None;
    let paged_run;
    let mut paged_cursor = None;
    let (source, total): (&mut dyn RankedSource, u64) = if paged {
        let pool = pool_from_scan_flags(flags)?;
        paged_run = if recording {
            PagedRun::open_recorded(file_path, pool, shared_recorder)
        } else {
            PagedRun::open(file_path, pool)
        }
        .map_err(|e| e.to_string())?;
        let total = paged_run.tuples();
        (paged_cursor.insert(paged_run.cursor()), total)
    } else {
        let opened = if recording {
            FileSource::open_recorded(file_path, shared_recorder)
        } else {
            FileSource::open(file_path)
        }
        .map_err(|e| e.to_string())?;
        let total = opened.remaining();
        (file_source.insert(opened), total)
    };
    let answer = PtkExecutor::with_recorder(&plan, recorder)
        .execute_semantics(&mut *source)
        .map_err(|e| e.to_string())?;
    let streamed = format!("streamed {} of {total} records", source.retrieved());
    if let Some(e) = take_run_error(paged_cursor.as_mut(), file_source.as_mut()) {
        return Err(e.to_string().into());
    }
    match &answer {
        SemanticsAnswer::Ptk(_) => {
            return Err("internal: PT-k scans take the threshold path".into())
        }
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => {
            writeln!(
                out,
                "most probable top-{k} vector (probability {probability:.6}, {streamed}):"
            )?;
            for row in rows {
                writeln!(
                    out,
                    "  row {:>6}  score {:>12.4}  membership={:.3}",
                    row.id.index(),
                    row.score,
                    row.membership
                )?;
            }
        }
        SemanticsAnswer::UKRanks(rows) => {
            writeln!(out, "most probable tuple at each rank ({streamed}):")?;
            for (j, row) in rows.iter().enumerate() {
                writeln!(
                    out,
                    "  rank {:>3}: row {:>6}  score {:>12.4}  probability {:.4}",
                    j + 1,
                    row.id.index(),
                    row.score,
                    row.value
                )?;
            }
        }
        SemanticsAnswer::GlobalTopk(rows) => {
            writeln!(out, "top-{k} by top-k probability ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  Pr^k = {:.4}  row {:>6}  score {:>12.4}",
                    row.value,
                    row.id.index(),
                    row.score
                )?;
            }
        }
        SemanticsAnswer::ExpectedRank(rows) => {
            writeln!(out, "top-{k} by expected rank ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8.2}  row {:>6}  score {:>12.4}",
                    row.value,
                    row.id.index(),
                    row.score
                )?;
            }
        }
    }
    write_stats(out, stats, &metrics)?;
    if let Some(mut f) = flight {
        absorb_semantics_flight(&mut f, &metrics.snapshot());
        write_audit(out, f)?;
    }
    Ok(())
}

/// The run-file half of `ptk inspect`: a v2 file prints its header and
/// block directory (per block: rank range, score range, max membership
/// probability and rule flags — exactly what the executor's block-level
/// Theorem 3 bound consults); a v1 file prints its shape and how to
/// repack it.
pub(super) fn cmd_inspect_run(
    path: &str,
    format: u32,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let file_path = std::path::Path::new(path);
    if format == 1 {
        let source = FileSource::open(file_path).map_err(|e| e.to_string())?;
        writeln!(out, "run file (v1, flat)")?;
        writeln!(out, "tuples:     {}", source.remaining())?;
        writeln!(
            out,
            "no block directory; repack with `ptk pack --block-size` for paged scans"
        )?;
        return Ok(());
    }
    let run = PagedRun::open(
        file_path,
        PoolConfig {
            frames: 1,
            frame_bytes: DEFAULT_FRAME_BYTES,
        },
    )
    .map_err(|e| e.to_string())?;
    let capacity = (run.block_size() / 24).max(1) as u64;
    writeln!(out, "run file (v2, block-native)")?;
    writeln!(out, "tuples:     {}", run.tuples())?;
    writeln!(out, "rules:      {}", run.rules())?;
    writeln!(
        out,
        "block size: {} B ({capacity} records/block)",
        run.block_size()
    )?;
    writeln!(out, "blocks:     {}", run.directory().len())?;
    for (b, meta) in run.directory().iter().enumerate() {
        let first = b as u64 * capacity;
        let last = first + u64::from(meta.records).saturating_sub(1);
        let mut flags = Vec::new();
        if meta.rule_free {
            flags.push("rule-free");
        }
        if meta.rule_closed {
            flags.push("rule-closed");
        }
        let flags = if flags.is_empty() {
            "-".to_owned()
        } else {
            flags.join(",")
        };
        writeln!(
            out,
            "  block {b:>4}: ranks {first:>8}..{last:<8} scores {:>12.4}..{:<12.4} \
             max-p {:.4}  {flags}",
            meta.score_first, meta.score_last, meta.max_prob
        )?;
    }
    Ok(())
}
