//! Packed run files: `pack` (CSV -> binary run, v1 or block-native v2),
//! `scan` (progressive PT-k retrieval over a run file without
//! materializing a view; v2 files stream through the pinned buffer pool)
//! and the run-file half of `inspect` (header + block directory).

use std::io::Write;
use std::path::Path;

use ptk_access::{
    run_format, write_run, write_run_blocked, FileSource, PagedRun, PoolConfig, RankedSource,
    DEFAULT_FRAME_BYTES, DEFAULT_POOL_FRAMES,
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

/// A run file opened for one scan: a block-native (v2) file through the
/// buffer pool, a flat (v1) file as a stream.
enum Run {
    Paged(PagedRun),
    Flat(FileSource),
}

impl Run {
    /// Opens the run at `path` by its format, recording into `recorder`.
    /// `--pool-frames` bounds a v2 file's resident frames (default
    /// [`DEFAULT_POOL_FRAMES`]); the frame size stays at
    /// [`DEFAULT_FRAME_BYTES`], so a run packed with larger blocks gets the
    /// reader's pointed repack-or-raise error. A v1 file refuses the flag,
    /// so it is never a silent no-op.
    fn open(flags: &Flags, path: &str, recorder: SharedRecorder) -> Result<Run, String> {
        let path = Path::new(path);
        let opened = if run_format(path) == Some(2) {
            let frames = match flags.get::<usize>("pool-frames")? {
                Some(0) => return Err("--pool-frames must be at least 1".into()),
                Some(n) => n,
                None => DEFAULT_POOL_FRAMES,
            };
            let pool = PoolConfig {
                frames,
                frame_bytes: DEFAULT_FRAME_BYTES,
            };
            PagedRun::open_recorded(path, pool, recorder).map(Run::Paged)
        } else if flags.named.contains_key("pool-frames") {
            return Err(
                "--pool-frames applies to block-native (v2) run files; repack this file with \
                 `ptk pack --block-size` first"
                    .into(),
            );
        } else {
            FileSource::open_recorded(path, recorder).map(Run::Flat)
        };
        opened.map_err(|e| e.to_string())
    }

    /// Runs `scan` over the run's records, returning its outcome with the
    /// records it streamed and the run's total. The engine sees an IO or
    /// corruption error as end-of-stream, so one that ended the stream
    /// fails the scan: a silent short answer must not pass for a clean
    /// early stop.
    fn scan<T>(
        &mut self,
        scan: impl FnOnce(&mut dyn RankedSource) -> T,
    ) -> Result<(T, usize, u64), CmdError> {
        let (outcome, retrieved, total, error) = match self {
            Run::Paged(run) => {
                let mut cursor = run.cursor();
                let outcome = scan(&mut cursor);
                (
                    outcome,
                    cursor.retrieved(),
                    run.tuples(),
                    cursor.take_error(),
                )
            }
            Run::Flat(file) => {
                let total = file.remaining();
                let outcome = scan(file);
                (outcome, file.retrieved(), total, file.take_error())
            }
        };
        match error {
            Some(e) => Err(e.to_string().into()),
            None => Ok((outcome, retrieved, total)),
        }
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
    let mut run = Run::open(flags, path, ctx.shared_recorder())?;
    let (result, retrieved, total) =
        run.scan(|source| PtkExecutor::with_recorder(&plan, ctx.recorder()).execute(source))?;
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
    let mut run = Run::open(flags, path, ctx.shared_recorder())?;
    let (answer, retrieved, total) = run.scan(|source| {
        PtkExecutor::with_recorder(&plan, ctx.recorder()).execute_semantics(source)
    })?;
    let answer = answer.map_err(|e| e.to_string())?;
    let streamed = format!("streamed {retrieved} of {total} records");
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
    let file_path = Path::new(path);
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
            "  block {b:>4}: ranks {first:>8}..{last:<8} scores {:>12}..{:<12} \
             max-p {}  {flags}",
            Fixed(meta.score_first, 4),
            Fixed(meta.score_last, 4),
            Fixed(meta.max_prob, 4)
        )?;
    }
    Ok(())
}
