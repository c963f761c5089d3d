//! The `sql` command: parse a statement, bind it to the table, and route
//! it to the matching engine or ranker.
//!
//! The execution path is deliberately split from flag handling:
//! [`run_sql`] takes an already-loaded table plus [`SqlOptions`] and does
//! everything after that — parse, bind, plan, execute, render. `ptk sql`
//! wraps it for one-shot use; the `ptk serve` daemon calls the same
//! function per request, which is what makes served responses
//! byte-identical to one-shot output.

use std::io::Write;

use ptk_core::{Selection, UncertainTable};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics};
use ptk_par::ThreadPool;
use ptk_sampling::{sample_ptk_recorded, SamplingOptions};
use ptk_worlds::naive;

use super::ctx::QueryCtx;
use super::render::{
    answer_rows, ptk_header, view_rows, write_batch_answers, write_ptk_rows,
    write_semantics_answer, PtkRow,
};
use super::{load_from_flags, pool_from_flags, CmdError, Flags};

/// EXPLAIN's name for the first stage of every exact plan: how the
/// query's `P(T)` was selected from the table's shared ranked view.
fn select_stage(selection: &Selection) -> &'static str {
    if selection.ran_predicate_pass() {
        "Selection::new (predicate over the shared ranked view)"
    } else {
        "Selection::new (ranked range of the shared view)"
    }
}

/// Maps a parsed statement kind to the engine's ranking semantics. The SQL
/// crate depends only on `ptk-core`, so the two enums are defined apart and
/// joined here, at the layer that owns both dependencies.
pub(super) fn semantics_of(kind: ptk_sql::QueryKind) -> RankSemantics {
    match kind {
        ptk_sql::QueryKind::Ptk => RankSemantics::Ptk,
        ptk_sql::QueryKind::UTopK => RankSemantics::UTopK,
        ptk_sql::QueryKind::UKRanks => RankSemantics::UKRanks,
        ptk_sql::QueryKind::GlobalTopk => RankSemantics::GlobalTopk,
        ptk_sql::QueryKind::ExpectedRank => RankSemantics::ExpectedRank,
    }
}

/// Everything [`run_sql`] needs besides the table, the statement and the
/// observability context: the worker pool, engine options and the
/// sampling seed. One-shot invocations build it from flags; the daemon
/// builds it once at startup.
pub(super) struct SqlOptions {
    pub(super) pool: ThreadPool,
    pub(super) engine: EngineOptions,
    pub(super) seed: u64,
}

impl SqlOptions {
    pub(super) fn from_flags(flags: &Flags) -> Result<SqlOptions, CmdError> {
        Ok(SqlOptions {
            pool: pool_from_flags(flags)?,
            engine: super::engine_options_from_flags(flags),
            seed: flags.get("seed")?.unwrap_or(0),
        })
    }
}

pub(super) fn cmd_sql(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let statement_text = flags
        .positional
        .get(2)
        .ok_or("usage: ptk sql <file.csv> '<statement>[; <statement> ...]'")?;
    let options = SqlOptions::from_flags(flags)?;
    let mut ctx = QueryCtx::from_flags(flags, statement_text.clone())?;
    let table = load_from_flags(flags)?;
    run_sql(&table, statement_text, &options, &mut ctx, out)?;
    ctx.finish(out)
}

/// Executes one `ptk sql` invocation body — single statement or
/// `;`-separated batch — against an already-loaded table, recording into
/// `ctx` and writing exactly what the one-shot CLI prints before the
/// context's views. Shared by `ptk sql` and `ptk serve`.
pub(super) fn run_sql(
    table: &UncertainTable,
    statement_text: &str,
    options: &SqlOptions,
    ctx: &mut QueryCtx,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let statements: Vec<&str> = statement_text
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    match statements.as_slice() {
        [] => Err("empty statement".into()),
        [single] => sql_single(table, single, options, ctx, out),
        many => sql_batch(table, options, ctx, out, many),
    }
}

fn sql_single(
    table: &UncertainTable,
    statement_text: &str,
    options: &SqlOptions,
    ctx: &mut QueryCtx,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let statement = ptk_sql::parse_statement(statement_text).map_err(|e| e.to_string())?;
    let parsed = statement.query.clone();
    let query = parsed.bind(table).map_err(|e| e.to_string())?;
    let selection = Selection::new(table, query.query()).map_err(|e| e.to_string())?;
    let k = query.k();
    let p = query.threshold().value();

    if statement.analyze && parsed.method != ptk_sql::Method::Exact {
        return Err("EXPLAIN ANALYZE requires the exact method (drop the USING clause)".into());
    }
    // EXPLAIN ANALYZE annotates the plan with the run's actual counters and
    // phase timings.
    if statement.analyze {
        ctx.analyze();
    }

    let semantics = semantics_of(statement.kind);
    if semantics != RankSemantics::Ptk {
        return sql_semantics(
            table,
            &selection,
            semantics,
            k,
            statement_text,
            &statement,
            options,
            ctx,
            out,
        );
    }

    let plan = PtkPlan::try_new(k, p, &options.engine).map_err(|e| e.to_string())?;
    let mut explain_note = String::new();
    let (rows, note): (Vec<PtkRow>, String) = match parsed.method {
        ptk_sql::Method::Exact => {
            ctx.plan_flight(std::slice::from_ref(&plan), statement_text);
            // A single statement runs inline as a one-plan batch: the
            // same rule as a batch of them.
            let result = PtkExecutor::with_recorder(&plan, ctx.recorder())
                .execute_snapshot(&selection, &options.pool);
            let note = format!(
                "exact; scanned {} of {} tuples",
                result.stats.scanned,
                selection.len()
            );
            if statement.analyze {
                // Per-stage annotation from the same counter names --stats
                // renders, so the two outputs can never disagree.
                explain_note = plan
                    .explain_analyze(&ctx.snapshot(), true)
                    .trim_end()
                    .to_owned();
            } else if statement.explain {
                explain_note = format!(
                    "plan: {} -> {}\n\
                     stats: scanned {}, evaluated {}, pruned {} (membership {}, rule {}), dp entries {}, stop {:?}",
                    select_stage(&selection),
                    plan.describe(),
                    result.stats.scanned,
                    result.stats.evaluated,
                    result.stats.pruned(),
                    result.stats.pruned_membership,
                    result.stats.pruned_rule,
                    result.stats.entries_recomputed,
                    result.stats.stop,
                );
            }
            (answer_rows(&result), note)
        }
        ptk_sql::Method::Sampling => {
            ctx.method_flight(&plan, format!("monte-carlo sampling (k={k})"));
            let sampling = SamplingOptions {
                seed: options.seed,
                ..Default::default()
            };
            let view = selection.materialize();
            let (answers, estimate) = sample_ptk_recorded(&view, k, p, &sampling, ctx.recorder());
            ctx.recorder()
                .add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &estimate.probabilities),
                format!("sampling; {} units", estimate.units),
            )
        }
        ptk_sql::Method::Naive => {
            if ctx.traced() {
                return Err("--trace/--slow-ms: the naive method is not instrumented".into());
            }
            ctx.method_flight(&plan, format!("naive possible-world enumeration (k={k})"));
            let view = selection.materialize();
            let pr = naive::topk_probabilities(&view, k).map_err(|e| e.to_string())?;
            let answers: Vec<usize> = (0..view.len()).filter(|&i| pr[i] >= p).collect();
            let recorder = ctx.recorder();
            recorder.add(ptk_engine::counters::SCANNED, view.len() as u64);
            recorder.add(ptk_engine::counters::EVALUATED, view.len() as u64);
            recorder.add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &pr),
                "naive enumeration".to_owned(),
            )
        }
    };

    ctx.render(|| {
        writeln!(out, "{}", ptk_header(k, p, &note, rows.len()))?;
        write_ptk_rows(out, table, &rows)
    })?;
    if !explain_note.is_empty() {
        writeln!(out, "{explain_note}")?;
    }
    Ok(())
}

/// The non-PT-k single-statement path: one `RANK BY` (or legacy kind
/// keyword) statement lowered through [`PtkPlan::try_semantics`] and
/// answered by [`PtkExecutor::execute_semantics_snapshot`] — the same
/// generating-function scan for every semantics, one pass over the view.
#[allow(clippy::too_many_arguments)]
fn sql_semantics(
    table: &UncertainTable,
    selection: &Selection,
    semantics: RankSemantics,
    k: usize,
    statement_text: &str,
    statement: &ptk_sql::Statement,
    options: &SqlOptions,
    ctx: &mut QueryCtx,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let plan =
        PtkPlan::try_semantics(semantics, k, None, &options.engine).map_err(|e| e.to_string())?;
    ctx.plan_flight(std::slice::from_ref(&plan), statement_text);
    let answer = PtkExecutor::with_recorder(&plan, ctx.recorder())
        .execute_semantics_snapshot(selection, &options.pool)
        .map_err(|e| e.to_string())?;
    ctx.render(|| write_semantics_answer(out, table, k, &answer))?;
    if statement.analyze {
        writeln!(
            out,
            "{}",
            plan.explain_analyze(&ctx.snapshot(), true).trim_end()
        )?;
    } else if statement.explain {
        writeln!(
            out,
            "plan: {} -> {}",
            select_stage(selection),
            plan.describe()
        )?;
        writeln!(
            out,
            "stats: view of {} tuples / {} rules, {} answer rows",
            selection.len(),
            selection.materialize().rules().len(),
            answer.answer_count()
        )?;
    }
    Ok(())
}

/// The multi-statement path of `ptk sql`: `;`-separated `SELECT TOP`
/// statements become one plan batch over a shared selection. Every statement
/// must be an exact PT-k query with the same `WHERE` and `ORDER BY` — the
/// batch executor scans a single snapshot, so predicate and ranking are
/// per-batch, while `k` and the probability threshold vary per statement.
fn sql_batch(
    table: &UncertainTable,
    options: &SqlOptions,
    ctx: &mut QueryCtx,
    out: &mut dyn Write,
    statements: &[&str],
) -> Result<(), CmdError> {
    let mut parsed = Vec::with_capacity(statements.len());
    for (i, text) in statements.iter().enumerate() {
        let n = i + 1;
        let statement =
            ptk_sql::parse_statement(text).map_err(|e| format!("statement {n}: {e}"))?;
        if statement.kind != ptk_sql::QueryKind::Ptk {
            return Err(format!(
                "statement {n}: only SELECT TOP (PT-k) statements can be batched; \
                 other ranking semantics run single-statement"
            )
            .into());
        }
        if statement.explain {
            return Err(format!("statement {n}: EXPLAIN cannot be batched").into());
        }
        if statement.query.method != ptk_sql::Method::Exact {
            return Err(format!(
                "statement {n}: the batch executor is exact-only (drop the USING clause)"
            )
            .into());
        }
        parsed.push(statement.query);
    }
    let first = &parsed[0];
    for (i, q) in parsed.iter().enumerate().skip(1) {
        if q.condition != first.condition
            || q.order_by != first.order_by
            || q.direction != first.direction
        {
            return Err(format!(
                "statement {}: batched statements share one scan, so WHERE and \
                 ORDER BY must match statement 1",
                i + 1
            )
            .into());
        }
    }

    let mut plans = Vec::with_capacity(parsed.len());
    let mut labels = Vec::with_capacity(parsed.len());
    let mut selection = None;
    for (i, q) in parsed.iter().enumerate() {
        let bound = q
            .bind(table)
            .map_err(|e| format!("statement {}: {e}", i + 1))?;
        plans.push(
            PtkPlan::try_new(bound.k(), bound.threshold().value(), &options.engine)
                .map_err(|e| format!("statement {}: {e}", i + 1))?,
        );
        labels.push((bound.k(), bound.threshold().value()));
        if selection.is_none() {
            selection = Some(Selection::new(table, bound.query()).map_err(|e| e.to_string())?);
        }
    }
    let selection = selection.expect("at least two statements were parsed");
    ctx.plan_flight(&plans, &statements.join("; "));
    let results = ctx.run_batch(&PtkPlan::batch(&plans), &selection, &options.pool);

    ctx.render(|| {
        writeln!(
            out,
            "batch of {} statements over {} tuples ({} threads)",
            results.len(),
            selection.len(),
            options.pool.threads()
        )?;
        write_batch_answers(out, selection.len(), table, &results, &labels)
    })
}
