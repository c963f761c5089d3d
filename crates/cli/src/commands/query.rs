//! View-based query commands: `query`, `utopk`, `ukranks`, `erank`,
//! `worlds`, `inspect`.

use std::io::Write;

use ptk_core::{Predicate, PtkQuery, RankedView, Ranking, TopKQuery, UncertainTable};
use ptk_engine::{PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_sampling::{sample_topk_recorded, SamplingOptions};
use ptk_worlds::naive;

use super::ctx::QueryCtx;
use super::render::{
    answer_rows, ptk_header, view_rows, write_batch_answers, write_ptk_rows,
    write_semantics_answer, Attrs, Fixed, PtkRow,
};
use super::{
    build_ranking, engine_options_from_flags, load_from_flags, pool_from_flags,
    semantics_from_flags, where_from_flags, CmdError, Flags,
};

pub(super) fn cmd_query(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let method = query_method(flags)?;
    let table = load_from_flags(flags)?;
    let semantics = semantics_from_flags(flags)?;
    if semantics != RankSemantics::Ptk {
        let command = format!("query --semantics {}", semantics.keyword());
        return rank_query(flags, out, &table, semantics, &command, |out, k, answer| {
            write_semantics_answer(out, &table, k, answer)
        });
    }
    let ks: Vec<usize> = flags.require_list("k")?;
    let ps: Vec<f64> = flags.require_list("p")?;
    let ranking = build_ranking(flags, &table)?;
    let predicate = where_from_flags(flags, &table)?;
    if ks.len() > 1 || ps.len() > 1 {
        return query_batch(flags, out, &table, &ks, &ps, predicate, ranking);
    }
    // A single query runs inline as a one-plan batch: the same rule as a
    // batch of them.
    let pool = pool_from_flags(flags)?;
    let (k, p) = (ks[0], ps[0]);
    let query = TopKQuery::new(k, predicate, ranking).map_err(|e| e.to_string())?;
    let ptk = PtkQuery::new(query.clone(), p).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let plan = PtkPlan::try_new(
        ptk.k(),
        ptk.threshold().value(),
        &engine_options_from_flags(flags),
    )
    .map_err(|e| e.to_string())?;

    let label = format!("query k={k} p={p}");
    let mut ctx = QueryCtx::from_flags(flags, label.clone())?;
    let explain = flags.switch("explain");
    if explain && method != "exact" {
        return Err("--explain (EXPLAIN ANALYZE) requires --method exact".into());
    }
    if ctx.traced() && method == "naive" {
        return Err("--trace/--slow-ms: the naive method is not instrumented".into());
    }
    if explain {
        ctx.analyze();
    }

    let (rows, note): (Vec<PtkRow>, String) = match method {
        "exact" => {
            ctx.plan_flight(std::slice::from_ref(&plan), &label);
            let result =
                PtkExecutor::with_recorder(&plan, ctx.recorder()).execute_snapshot(&view, &pool);
            let note = format!(
                "scanned {} of {} tuples{}",
                result.stats.scanned,
                view.len(),
                result
                    .stats
                    .stop
                    .map_or(String::new(), |s| format!(", stopped early: {s:?}"))
            );
            (answer_rows(&result), note)
        }
        "sampling" => {
            ctx.method_flight(&plan, format!("monte-carlo sampling (k={k})"));
            let seed = flags.get("seed")?.unwrap_or(0u64);
            let options = SamplingOptions {
                seed,
                ..Default::default()
            };
            let estimate = sample_topk_recorded(&view, k, &options, ctx.recorder());
            let answers = estimate.answers(p);
            ctx.recorder()
                .add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &estimate.probabilities),
                format!("{} sample units", estimate.units),
            )
        }
        "naive" => {
            ctx.method_flight(&plan, format!("naive possible-world enumeration (k={k})"));
            let pr = naive::topk_probabilities(&view, k).map_err(|e| e.to_string())?;
            let answers: Vec<usize> = (0..view.len()).filter(|&i| pr[i] >= p).collect();
            let recorder = ctx.recorder();
            recorder.add(ptk_engine::counters::SCANNED, view.len() as u64);
            recorder.add(ptk_engine::counters::EVALUATED, view.len() as u64);
            recorder.add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &pr),
                "full possible-world enumeration".to_owned(),
            )
        }
        other => return Err(format!("unknown --method '{other}' (exact|sampling|naive)").into()),
    };

    ctx.render(|| {
        writeln!(out, "{}", ptk_header(k, p, &note, rows.len()))?;
        write_ptk_rows(out, &table, &rows)
    })?;
    if explain {
        write!(out, "{}", plan.explain_analyze(&ctx.snapshot(), true))?;
    }
    ctx.finish(out)
}

/// The `--method` of a `query`, refusing a flag that method does not
/// read: `--no-prune` and `--threads` steer the exact engine, and
/// `--seed` feeds sampling.
fn query_method(flags: &Flags) -> Result<&str, String> {
    let method = flags.named.get("method").map_or("exact", String::as_str);
    for (flag, reader) in [
        ("no-prune", "exact"),
        ("threads", "exact"),
        ("seed", "sampling"),
    ] {
        if method != reader && flags.switch(flag) {
            return Err(format!("--{flag} requires --method {reader}"));
        }
    }
    Ok(method)
}

/// The multi-query path of `ptk query`: comma lists in `--k`/`--p` form a
/// cross product of PT-k plans evaluated as one batch over a shared view.
/// Thread count never changes the answers, only wall-clock time.
fn query_batch(
    flags: &Flags,
    out: &mut dyn Write,
    table: &UncertainTable,
    ks: &[usize],
    ps: &[f64],
    predicate: Predicate,
    ranking: Ranking,
) -> Result<(), CmdError> {
    let method = flags.named.get("method").map_or("exact", String::as_str);
    if method != "exact" {
        return Err(format!(
            "--k/--p value lists run on the batch executor, which is exact-only \
             (got --method '{method}')"
        )
        .into());
    }
    // Each (k, p) combination goes through the same query-model validation
    // as the single-query path; the view itself depends only on the shared
    // predicate and ranking, so one build serves every plan.
    let options = engine_options_from_flags(flags);
    let mut plans = Vec::with_capacity(ks.len() * ps.len());
    let mut labels = Vec::with_capacity(plans.capacity());
    for &k in ks {
        for &p in ps {
            let query = TopKQuery::new(k, predicate.clone(), ranking).map_err(|e| e.to_string())?;
            let ptk = PtkQuery::new(query, p).map_err(|e| e.to_string())?;
            plans.push(
                PtkPlan::try_new(ptk.k(), ptk.threshold().value(), &options)
                    .map_err(|e| e.to_string())?,
            );
            labels.push((k, p));
        }
    }
    let view = RankedView::build(
        table,
        &TopKQuery::new(ks[0], predicate, ranking).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let batch = PtkPlan::batch(&plans);
    let pool = pool_from_flags(flags)?;
    let list = |values: Vec<String>| values.join(",");
    let label = format!(
        "query batch k={} p={}",
        list(ks.iter().map(usize::to_string).collect()),
        list(ps.iter().map(f64::to_string).collect())
    );
    let mut ctx = QueryCtx::from_flags(flags, label.clone())?;
    if flags.switch("explain") {
        return Err(
            "--explain applies to a single query; for batches use --stats to see merged counters"
                .into(),
        );
    }
    ctx.plan_flight(&plans, &label);
    let results = ctx.run_batch(&batch, &view, &pool);

    ctx.render(|| {
        writeln!(
            out,
            "batch of {} queries over {} tuples ({} threads)",
            results.len(),
            view.len(),
            pool.threads()
        )?;
        write_batch_answers(out, view.len(), table, &results, &labels)
    })?;
    ctx.finish(out)
}

/// One non-PT-k ranking query, the shared front of `query --semantics`,
/// `utopk`, `ukranks` and `erank`: the table ranked by `--rank-by`,
/// filtered by `--where`, answered by the engine's generating-function
/// scan under the engine options, pool and observability context the
/// flags ask for. `command` names the query in its flight record and slow
/// log (`<command> k=<k>`); `render` writes the answer, which EXPLAIN
/// ANALYZE and the context's views follow. Thresholds parameterize PT-k
/// only, so `--p` is rejected, as are `--k` value lists (the batch
/// executor is PT-k only) and non-exact methods.
fn rank_query(
    flags: &Flags,
    out: &mut dyn Write,
    table: &UncertainTable,
    semantics: RankSemantics,
    command: &str,
    render: impl FnOnce(&mut dyn Write, usize, &SemanticsAnswer) -> Result<(), CmdError>,
) -> Result<(), CmdError> {
    let keyword = semantics.keyword();
    if flags.named.contains_key("p") {
        return Err(format!(
            "--semantics {keyword} takes no --p; probability thresholds parameterize PT-k only"
        )
        .into());
    }
    let ks: Vec<usize> = flags.require_list("k")?;
    if ks.len() > 1 {
        return Err(format!(
            "--semantics {keyword}: the batch executor is PT-k only; pass a single --k"
        )
        .into());
    }
    let method = flags.named.get("method").map_or("exact", String::as_str);
    if method != "exact" {
        return Err(format!(
            "--semantics {keyword} runs only on the exact engine (drop --method '{method}')"
        )
        .into());
    }
    let k = ks[0];
    let ranking = build_ranking(flags, table)?;
    let predicate = where_from_flags(flags, table)?;
    let query = TopKQuery::new(k, predicate, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(table, &query).map_err(|e| e.to_string())?;
    let plan = PtkPlan::try_semantics(semantics, k, None, &engine_options_from_flags(flags))
        .map_err(|e| e.to_string())?;
    let pool = pool_from_flags(flags)?;
    let label = format!("{command} k={k}");
    let mut ctx = QueryCtx::from_flags(flags, label.clone())?;
    let explain = flags.switch("explain");
    if explain {
        ctx.analyze();
    }
    ctx.plan_flight(std::slice::from_ref(&plan), &label);
    let answer = PtkExecutor::with_recorder(&plan, ctx.recorder())
        .execute_semantics_snapshot(&view, &pool)
        .map_err(|e| e.to_string())?;
    ctx.render(|| render(out, k, &answer))?;
    if explain {
        write!(out, "{}", plan.explain_analyze(&ctx.snapshot(), true))?;
    }
    ctx.finish(out)
}

/// `utopk`, `ukranks` and `erank`: [`rank_query`] under the command's own
/// semantics, rendered its own way. The command fixes the semantics, and
/// EXPLAIN stays with `query` and `sql`, so `--semantics` and `--explain`
/// are refused.
fn rank_command(
    flags: &Flags,
    out: &mut dyn Write,
    semantics: RankSemantics,
    render: impl FnOnce(
        &mut dyn Write,
        &UncertainTable,
        usize,
        &SemanticsAnswer,
    ) -> Result<(), CmdError>,
) -> Result<(), CmdError> {
    let command = flags.positional[0].as_str();
    if flags.named.contains_key("semantics") {
        return Err(format!(
            "{command} answers {}; --semantics belongs to query and scan",
            semantics.keyword()
        )
        .into());
    }
    if flags.switch("explain") {
        return Err(format!("{command} takes no --explain (query and sql do)").into());
    }
    let table = load_from_flags(flags)?;
    rank_query(flags, out, &table, semantics, command, |out, k, answer| {
        render(out, &table, k, answer)
    })
}

pub(super) fn cmd_utopk(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    rank_command(flags, out, RankSemantics::UTopK, write_semantics_answer)
}

pub(super) fn cmd_ukranks(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    rank_command(flags, out, RankSemantics::UKRanks, write_semantics_answer)
}

pub(super) fn cmd_erank(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    rank_command(
        flags,
        out,
        RankSemantics::ExpectedRank,
        |out, table, k, answer| {
            let SemanticsAnswer::ExpectedRank(rows) = answer else {
                return Err("internal: an expected-rank plan answered another semantics".into());
            };
            writeln!(out, "top-{k} by expected rank (Cormode et al. semantics):")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8}  ranked position {:>4}  membership={}  [{}]",
                    Fixed(row.value, 2),
                    row.position + 1,
                    Fixed(row.membership, 3),
                    Attrs::of(table, row.id)
                )?;
            }
            Ok(())
        },
    )
}

pub(super) fn cmd_worlds(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let table = load_from_flags(flags)?;
    let ranking = build_ranking(flags, &table)?;
    let query = TopKQuery::new(1, Predicate::True, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let budget: u64 = flags.get("max-worlds")?.unwrap_or(10_000);
    let mut worlds = ptk_worlds::try_enumerate(&view, budget).map_err(|e| e.to_string())?;
    worlds.sort_by(|a, b| b.prob.total_cmp(&a.prob).then(a.members.cmp(&b.members)));
    let limit: usize = flags.get("limit")?.unwrap_or(50);
    writeln!(
        out,
        "{} possible worlds (showing up to {limit}):",
        worlds.len()
    )?;
    for w in worlds.iter().take(limit) {
        let ids: Vec<String> = w
            .members
            .iter()
            .map(|&pos| view.tuple(pos).id.to_string())
            .collect();
        writeln!(out, "  Pr = {}  {{{}}}", Fixed(w.prob, 6), ids.join(", "))?;
    }
    if worlds.len() > limit {
        writeln!(out, "  … and {} more", worlds.len() - limit)?;
    }
    let total: f64 = worlds.iter().map(|w| w.prob).sum();
    writeln!(out, "total probability: {}", Fixed(total, 9))?;
    Ok(())
}

pub(super) fn cmd_inspect(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    // A run-file argument (by magic) prints the file's header and block
    // directory instead of table statistics; a file of the retired flat
    // format gets the reader's repack hint.
    if let Some(path) = flags.positional.get(1) {
        if ptk_access::run_format(std::path::Path::new(path)).is_some() {
            return super::scan::cmd_inspect_run(path, out);
        }
    }
    let table = load_from_flags(flags)?;
    let independent = (0..table.len())
        .filter(|&i| !table.is_dependent(ptk_core::TupleId::new(i)))
        .count();
    let max_rule = table.rules().iter().map(|r| r.len()).max().unwrap_or(0);
    writeln!(out, "tuples:            {}", table.len())?;
    writeln!(out, "columns:           {}", table.columns().join(", "))?;
    writeln!(out, "multi-tuple rules: {}", table.rules().len())?;
    writeln!(out, "independent:       {independent}")?;
    writeln!(out, "largest rule:      {max_rule}")?;
    writeln!(out, "possible worlds:   {}", table.world_count())?;
    Ok(())
}
