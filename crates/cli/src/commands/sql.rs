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
use ptk_obs::{Noop, QueryFlight, Recorder};
use ptk_par::ThreadPool;
use ptk_sampling::{sample_ptk_recorded, SamplingOptions};
use ptk_worlds::naive;

use super::render::{
    absorb_semantics_flight, answer_rows, ptk_header, registry, stats_mode, view_rows, write_audit,
    write_batch_answers, write_ptk_rows, write_semantics_answer, write_snapshot, write_stats,
    PtkRow, StatsMode,
};
use super::{load_from_flags, pool_from_flags, CmdError, Flags};

/// The flight record's width-independent fingerprint: FNV-1a over the
/// statement (or command label) text plus each executed plan's
/// [`PtkPlan::fingerprint`]. Deliberately narrower than the daemon's
/// result-cache key, which also folds in the pool width and sampling
/// seed: flight records must stay bit-identical across thread counts.
pub(super) fn flight_fingerprint(label: &str, plan_fingerprints: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in label.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for fp in plan_fingerprints {
        for b in fp.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

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

/// Everything [`run_sql`] needs besides the table and the statement:
/// the worker pool, engine options, the stats surface to append, and the
/// sampling seed. One-shot invocations build it from flags; the daemon
/// builds it once at startup and swaps `stats` per request.
pub(super) struct SqlOptions {
    pub(super) pool: ThreadPool,
    pub(super) engine: EngineOptions,
    pub(super) stats: Option<StatsMode>,
    pub(super) seed: u64,
}

impl SqlOptions {
    pub(super) fn from_flags(flags: &Flags) -> Result<SqlOptions, CmdError> {
        Ok(SqlOptions {
            pool: pool_from_flags(flags)?,
            engine: super::engine_options_from_flags(flags),
            stats: stats_mode(flags)?,
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
    let table = load_from_flags(flags)?;
    if flags.switch("audit") {
        let mut flight = QueryFlight {
            label: statement_text.clone(),
            ..QueryFlight::default()
        };
        run_sql(&table, statement_text, &options, Some(&mut flight), out)?;
        return write_audit(out, flight);
    }
    run_sql(&table, statement_text, &options, None, out)
}

/// Executes one `ptk sql` invocation body — single statement or
/// `;`-separated batch — against an already-loaded table, writing exactly
/// what the one-shot CLI prints. Shared by `ptk sql` and `ptk serve`.
pub(super) fn run_sql(
    table: &UncertainTable,
    statement_text: &str,
    options: &SqlOptions,
    flight: Option<&mut QueryFlight>,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let statements: Vec<&str> = statement_text
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    match statements.as_slice() {
        [] => Err("empty statement".into()),
        [single] => sql_single(table, single, options, flight, out),
        many => sql_batch(table, options, flight, out, many),
    }
}

fn sql_single(
    table: &UncertainTable,
    statement_text: &str,
    options: &SqlOptions,
    mut flight: Option<&mut QueryFlight>,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    // A single statement can still use the pool: with --no-prune the
    // executor partitions the ranked scan itself at rule-closed cuts.
    let pool = options.pool;
    let statement = ptk_sql::parse_statement(statement_text).map_err(|e| e.to_string())?;
    let parsed = statement.query.clone();
    let query = parsed.bind(table).map_err(|e| e.to_string())?;
    let selection = Selection::new(table, query.query()).map_err(|e| e.to_string())?;
    let k = query.k();
    let p = query.threshold().value();

    if statement.analyze && parsed.method != ptk_sql::Method::Exact {
        return Err("EXPLAIN ANALYZE requires the exact method (drop the USING clause)".into());
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
            flight,
            out,
        );
    }

    let stats = options.stats;
    // EXPLAIN ANALYZE annotates the plan with the run's actual counters and
    // phase timings, so it records even without --stats; a flight record
    // carries the per-query counter delta, so it forces recording too, of
    // counters alone.
    let metrics = registry(stats.is_some() || statement.analyze);
    let recorder: &dyn Recorder = if stats.is_some() || statement.analyze || flight.is_some() {
        &metrics
    } else {
        &Noop
    };
    if let Some(f) = flight.as_deref_mut() {
        f.semantics = semantics.keyword().to_owned();
        f.ks = vec![k as u64];
        f.thresholds = vec![p];
    }

    let mut explain_note = String::new();
    let (rows, note): (Vec<PtkRow>, String) = match parsed.method {
        ptk_sql::Method::Exact => {
            let plan = PtkPlan::try_new(k, p, &options.engine).map_err(|e| e.to_string())?;
            if let Some(f) = flight.as_deref_mut() {
                f.plan = plan.describe();
                f.fingerprint = Some(flight_fingerprint(statement_text, &[plan.fingerprint()]));
            }
            let result =
                PtkExecutor::with_recorder(&plan, recorder).execute_snapshot(&selection, &pool);
            if let Some(f) = flight.as_deref_mut() {
                f.stop = result
                    .stats
                    .stop
                    .map_or(String::new(), |s| format!("{s:?}"));
            }
            let note = format!(
                "exact; scanned {} of {} tuples",
                result.stats.scanned,
                selection.len()
            );
            if statement.analyze {
                // Per-stage annotation from the same counter names --stats
                // renders, so the two outputs can never disagree.
                explain_note = plan
                    .explain_analyze(&metrics.snapshot(), true)
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
            if let Some(f) = flight.as_deref_mut() {
                f.plan = format!("monte-carlo sampling (k={k})");
            }
            let sampling = SamplingOptions {
                seed: options.seed,
                ..Default::default()
            };
            let view = selection.materialize();
            let (answers, estimate) = sample_ptk_recorded(&view, k, p, &sampling, recorder);
            recorder.add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &estimate.probabilities),
                format!("sampling; {} units", estimate.units),
            )
        }
        ptk_sql::Method::Naive => {
            if let Some(f) = flight.as_deref_mut() {
                f.plan = format!("naive possible-world enumeration (k={k})");
            }
            let view = selection.materialize();
            let pr = naive::topk_probabilities(&view, k).map_err(|e| e.to_string())?;
            let answers: Vec<usize> = (0..view.len()).filter(|&i| pr[i] >= p).collect();
            recorder.add(ptk_engine::counters::SCANNED, view.len() as u64);
            recorder.add(ptk_engine::counters::EVALUATED, view.len() as u64);
            recorder.add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &pr),
                "naive enumeration".to_owned(),
            )
        }
    };

    if let Some(f) = flight {
        f.absorb_counters(&metrics.snapshot());
    }
    writeln!(out, "{}", ptk_header(k, p, &note, rows.len()))?;
    write_ptk_rows(out, table, &rows)?;
    if !explain_note.is_empty() {
        writeln!(out, "{explain_note}")?;
    }
    write_stats(out, stats, &metrics)
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
    mut flight: Option<&mut QueryFlight>,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let plan =
        PtkPlan::try_semantics(semantics, k, None, &options.engine).map_err(|e| e.to_string())?;
    let stats = options.stats;
    let metrics = registry(stats.is_some() || statement.analyze);
    let recorder: &dyn Recorder = if stats.is_some() || statement.analyze || flight.is_some() {
        &metrics
    } else {
        &Noop
    };
    if let Some(f) = flight.as_deref_mut() {
        f.plan = plan.describe();
        f.semantics = semantics.keyword().to_owned();
        f.ks = vec![k as u64];
        f.fingerprint = Some(flight_fingerprint(statement_text, &[plan.fingerprint()]));
    }
    let answer = PtkExecutor::with_recorder(&plan, recorder)
        .execute_semantics_snapshot(selection, &options.pool)
        .map_err(|e| e.to_string())?;
    if let Some(f) = flight {
        absorb_semantics_flight(f, &metrics.snapshot());
    }
    write_semantics_answer(out, table, k, &answer)?;
    if statement.analyze {
        writeln!(
            out,
            "{}",
            plan.explain_analyze(&metrics.snapshot(), true).trim_end()
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
    write_stats(out, stats, &metrics)
}

/// The multi-statement path of `ptk sql`: `;`-separated `SELECT TOP`
/// statements become one plan batch over a shared selection. Every statement
/// must be an exact PT-k query with the same `WHERE` and `ORDER BY` — the
/// batch executor scans a single snapshot, so predicate and ranking are
/// per-batch, while `k` and the probability threshold vary per statement.
fn sql_batch(
    table: &UncertainTable,
    options: &SqlOptions,
    mut flight: Option<&mut QueryFlight>,
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
    let batch = PtkPlan::batch(&plans);
    let pool = options.pool;
    let stats = options.stats;
    if let Some(f) = flight.as_deref_mut() {
        f.plan = plans
            .iter()
            .map(PtkPlan::describe)
            .collect::<Vec<_>>()
            .join(" | ");
        f.semantics = RankSemantics::Ptk.keyword().to_owned();
        f.ks = labels.iter().map(|&(k, _)| k as u64).collect();
        f.thresholds = labels.iter().map(|&(_, p)| p).collect();
        let fingerprints: Vec<u64> = plans.iter().map(PtkPlan::fingerprint).collect();
        f.fingerprint = Some(flight_fingerprint(&statements.join("; "), &fingerprints));
    }

    // A flight record alone keeps counters only, so it reads no clock.
    let (results, snapshot) = if stats.is_some() {
        let (results, snapshot) = PtkExecutor::execute_batch_recorded(&batch, &selection, &pool);
        (results, Some(snapshot))
    } else if flight.is_some() {
        let (results, snapshot) = PtkExecutor::execute_batch_counted(&batch, &selection, &pool);
        (results, Some(snapshot))
    } else {
        (PtkExecutor::execute_batch(&batch, &selection, &pool), None)
    };
    if let (Some(f), Some(snapshot)) = (flight, snapshot.as_ref()) {
        f.absorb_counters(snapshot);
    }

    writeln!(
        out,
        "batch of {} statements over {} tuples ({} threads)",
        results.len(),
        selection.len(),
        pool.threads()
    )?;
    write_batch_answers(out, selection.len(), table, &results, &labels)?;
    match snapshot {
        Some(snapshot) => write_snapshot(out, stats, &snapshot),
        None => Ok(()),
    }
}
