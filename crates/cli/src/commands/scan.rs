//! Packed run files: `pack` (CSV -> run file of fixed-size blocks),
//! `scan` (progressive retrieval over a run file through the pinned
//! buffer pool, without materializing a view) and the run-file half of
//! `inspect` (header + block directory).

use std::io::Write;
use std::path::Path;

use ptk_access::{
    write_run_blocked, PagedCursor, PagedRun, PoolConfig, RankedSource, DEFAULT_BLOCK_BYTES,
    DEFAULT_POOL_FRAMES, MAX_BLOCK_BYTES,
};
use ptk_core::{Predicate, RankedView, TopKQuery};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_obs::SharedRecorder;

use super::ctx::QueryCtx;
use super::render::Fixed;
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

/// Writes `rows` at `out_path` in blocks of `block_size` bytes and
/// describes the file written.
pub(super) fn write_packed(
    out_path: &str,
    rows: &[(f64, f64, Option<u32>)],
    block_size: u32,
) -> Result<String, String> {
    write_run_blocked(Path::new(out_path), rows, block_size).map_err(|e| e.to_string())?;
    let blocks = rows.len().div_ceil(block_size as usize / 24);
    Ok(format!("{blocks} blocks of {block_size} B"))
}

pub(super) fn cmd_pack(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let table = load_from_flags(flags)?;
    let out_path: String = flags.require("out")?;
    let ranking = build_ranking(flags, &table)?;
    let query = TopKQuery::new(1, Predicate::True, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let rows = rows_of_view(&view)?;
    let block_size = flags.get("block-size")?.unwrap_or(DEFAULT_BLOCK_BYTES);
    let shape = write_packed(&out_path, &rows, block_size)?;
    writeln!(
        out,
        "packed {} tuples ({} rules) into {out_path} ({shape})",
        view.len(),
        view.rules().len()
    )?;
    Ok(())
}

/// A pool whose frames hold a block of any size a packer writes: each
/// frame is sized to the run's own blocks when it is filled, so the
/// ceiling costs nothing.
fn pool_of(frames: usize) -> PoolConfig {
    PoolConfig {
        frames,
        frame_bytes: MAX_BLOCK_BYTES as usize,
    }
}

/// Opens the run at `path` for one scan, recording into `recorder`.
/// `--pool-frames` bounds its resident frames (default
/// [`DEFAULT_POOL_FRAMES`]).
fn open_run(flags: &Flags, path: &str, recorder: SharedRecorder) -> Result<PagedRun, String> {
    let frames = match flags.get::<usize>("pool-frames")? {
        Some(0) => return Err("--pool-frames must be at least 1".into()),
        Some(n) => n,
        None => DEFAULT_POOL_FRAMES,
    };
    PagedRun::open_recorded(Path::new(path), pool_of(frames), recorder).map_err(|e| e.to_string())
}

/// Runs `scan` over a fresh cursor of `run`, returning its outcome with
/// the records it streamed. The engine sees an IO or corruption error as
/// end-of-stream, so one that ended the stream fails the scan: a silent
/// short answer must not pass for a clean early stop.
fn scan_run<T>(
    run: &PagedRun,
    scan: impl FnOnce(&mut PagedCursor<'_>) -> T,
) -> Result<(T, usize), CmdError> {
    let mut cursor = run.cursor();
    let outcome = scan(&mut cursor);
    match cursor.take_error() {
        Some(e) => Err(e.to_string().into()),
        None => Ok((outcome, cursor.retrieved())),
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
    // included) before the file is opened.
    let plan = PtkPlan::try_new(k, p, &EngineOptions::default()).map_err(|e| e.to_string())?;
    let label = format!("scan k={k} p={p}");
    let mut ctx = QueryCtx::from_flags(flags, label.clone())?;
    ctx.plan_flight(std::slice::from_ref(&plan), &label);
    let run = open_run(flags, path, ctx.shared_recorder())?;
    let (result, retrieved) = scan_run(&run, |cursor| {
        PtkExecutor::with_recorder(&plan, ctx.recorder()).execute(cursor)
    })?;
    let total = run.tuples();
    ctx.render(|| {
        writeln!(
            out,
            "{} tuples pass Pr^{k} >= {p} (streamed {retrieved} of {total} records{})",
            result.answers.len(),
            result
                .stats
                .stop
                .map_or(String::new(), |s| format!(", stopped early: {s:?}"))
        )?;
        for a in &result.answers {
            writeln!(
                out,
                "  row {:>6}  score {:>12}  Pr^k = {}",
                a.id.index(),
                Fixed(a.score, 4),
                Fixed(a.probability, 4)
            )?;
        }
        Ok(())
    })?;
    ctx.finish(out)
}

/// The `--semantics` path of `ptk scan`: progressive retrieval over the run
/// file feeding the engine's generating-function scan, rendered by
/// [`write_scan_answer`].
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
    let label = format!("scan --semantics {} k={k}", semantics.keyword());
    let mut ctx = QueryCtx::from_flags(flags, label.clone())?;
    ctx.plan_flight(std::slice::from_ref(&plan), &label);
    let run = open_run(flags, path, ctx.shared_recorder())?;
    let (answer, retrieved) = scan_run(&run, |cursor| {
        PtkExecutor::with_recorder(&plan, ctx.recorder()).execute_semantics(cursor)
    })?;
    let answer = answer.map_err(|e| e.to_string())?;
    let streamed = format!("streamed {retrieved} of {} records", run.tuples());
    ctx.render(|| write_scan_answer(out, k, &answer, &streamed))?;
    ctx.finish(out)
}

/// Renders a non-PT-k answer of `ptk scan --semantics`. Run files carry no
/// attribute columns, so rows render by CSV row id and score; `streamed`
/// says how much of the run the scan read.
fn write_scan_answer(
    out: &mut dyn Write,
    k: usize,
    answer: &SemanticsAnswer,
    streamed: &str,
) -> Result<(), CmdError> {
    match answer {
        SemanticsAnswer::Ptk(_) => {
            return Err("internal: PT-k scans take the threshold path".into());
        }
        SemanticsAnswer::UTopK { rows, probability } => {
            writeln!(
                out,
                "most probable top-{k} vector (probability {}, {streamed}):",
                Fixed(*probability, 6)
            )?;
            for row in rows {
                writeln!(
                    out,
                    "  row {:>6}  score {:>12}  membership={}",
                    row.id.index(),
                    Fixed(row.score, 4),
                    Fixed(row.membership, 3)
                )?;
            }
        }
        SemanticsAnswer::UKRanks(rows) => {
            writeln!(out, "most probable tuple at each rank ({streamed}):")?;
            for (j, row) in rows.iter().enumerate() {
                writeln!(
                    out,
                    "  rank {:>3}: row {:>6}  score {:>12}  probability {}",
                    j + 1,
                    row.id.index(),
                    Fixed(row.score, 4),
                    Fixed(row.value, 4)
                )?;
            }
        }
        SemanticsAnswer::GlobalTopk(rows) => {
            writeln!(out, "top-{k} by top-k probability ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  Pr^k = {}  row {:>6}  score {:>12}",
                    Fixed(row.value, 4),
                    row.id.index(),
                    Fixed(row.score, 4)
                )?;
            }
        }
        SemanticsAnswer::ExpectedRank(rows) => {
            writeln!(out, "top-{k} by expected rank ({streamed}):")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8}  row {:>6}  score {:>12}",
                    Fixed(row.value, 2),
                    row.id.index(),
                    Fixed(row.score, 4)
                )?;
            }
        }
    }
    Ok(())
}

/// The run-file half of `ptk inspect`: prints the run's header and block
/// directory (per block: rank range, score range, max membership
/// probability and rule flags — exactly what the executor's block-level
/// Theorem 3 bound consults).
pub(super) fn cmd_inspect_run(path: &str, out: &mut dyn Write) -> Result<(), CmdError> {
    let run = PagedRun::open(Path::new(path), pool_of(1)).map_err(|e| e.to_string())?;
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
            "  block {b:>4}: ranks {first:>8}..{last:<8} scores {:>12}..{:<12} \
             max-p {}  {flags}",
            Fixed(meta.score_first, 4),
            Fixed(meta.score_last, 4),
            Fixed(meta.max_prob, 4)
        )?;
    }
    Ok(())
}
