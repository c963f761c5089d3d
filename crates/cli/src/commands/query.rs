//! View-based query commands: `query`, `utopk`, `ukranks`, `erank`,
//! `worlds`, `inspect`.

use std::io::Write;
use std::sync::Arc;

use ptk_access::ViewSource;
use ptk_core::{Predicate, PtkQuery, RankedView, Ranking, TopKQuery, UncertainTable};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_obs::{Noop, QueryFlight, Recorder, SharedSink, Tracer};
use ptk_sampling::{sample_topk_recorded, sample_topk_traced, SamplingOptions};
use ptk_worlds::naive;

use super::render::{
    absorb_semantics_flight, answer_rows, attrs_of, ptk_header, registry, stats_mode, view_rows,
    write_audit, write_batch_answers, write_membership_row, write_ptk_rows, write_semantics_answer,
    write_snapshot, write_stats, PtkRow,
};
use super::sql::flight_fingerprint;
use super::trace::{trace_opts, RING_CAPACITY};
use super::{
    build_ranking, load_from_flags, parse_where, pool_from_flags, semantics_from_flags, CmdError,
    Flags,
};

pub(super) fn cmd_query(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let table = load_from_flags(flags)?;
    let semantics = semantics_from_flags(flags)?;
    if semantics != RankSemantics::Ptk {
        return query_semantics(flags, out, &table, semantics);
    }
    let ks: Vec<usize> = flags.require_list("k")?;
    let ps: Vec<f64> = flags.require_list("p")?;
    let ranking = build_ranking(flags, &table)?;
    let predicate = match flags.named.get("where") {
        Some(clause) => parse_where(clause, &table)?,
        None => Predicate::True,
    };
    if ks.len() > 1 || ps.len() > 1 {
        return query_batch(flags, out, &table, &ks, &ps, predicate, ranking);
    }
    // A single query can still use the pool: with --no-prune the executor
    // partitions the ranked scan itself at rule-closed cuts.
    let pool = pool_from_flags(flags)?;
    let (k, p) = (ks[0], ps[0]);
    let query = TopKQuery::new(k, predicate, ranking).map_err(|e| e.to_string())?;
    let ptk = PtkQuery::new(query.clone(), p).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;

    let stats = stats_mode(flags)?;
    let trace = trace_opts(flags)?;
    let explain = flags.switch("explain");
    let method = flags.named.get("method").map_or("exact", String::as_str);
    if explain && method != "exact" {
        return Err("--explain (EXPLAIN ANALYZE) requires --method exact".into());
    }
    if trace.active() && method == "naive" {
        return Err("--trace/--slow-ms: the naive method is not instrumented".into());
    }
    let audit = flags.switch("audit");
    // EXPLAIN ANALYZE annotates the plan with the run's actual counters, so
    // it needs a live recorder even without --stats; so does the --audit
    // flight record, which carries the per-query counter delta (counters
    // alone, so it reads no clock).
    let metrics = registry(stats.is_some() || explain);
    let recorder: &dyn Recorder = if stats.is_some() || explain || audit {
        &metrics
    } else {
        &Noop
    };
    let mut flight = audit.then(|| QueryFlight {
        label: format!("query k={k} p={p}"),
        semantics: RankSemantics::Ptk.keyword().to_owned(),
        ks: vec![k as u64],
        thresholds: vec![p],
        ..QueryFlight::default()
    });
    let sink = trace.active().then(|| trace.sink());
    let tracer = sink
        .as_ref()
        .map(|s| Tracer::new(Arc::clone(s) as SharedSink, 0, 0));

    let mut analysis = String::new();
    let (rows, note): (Vec<PtkRow>, String) = match method {
        "exact" => {
            let plan = PtkPlan::try_new(
                ptk.k(),
                ptk.threshold().value(),
                &super::engine_options_from_flags(flags),
            )
            .map_err(|e| e.to_string())?;
            if let Some(f) = flight.as_mut() {
                f.plan = plan.describe();
                f.fingerprint = Some(flight_fingerprint(&f.label, &[plan.fingerprint()]));
            }
            let mut executor = PtkExecutor::with_recorder(&plan, recorder);
            if let Some(t) = tracer.as_ref() {
                executor = executor.with_tracer(t);
            }
            let result = executor.execute_snapshot(&view, &pool);
            if let Some(f) = flight.as_mut() {
                f.stop = result
                    .stats
                    .stop
                    .map_or(String::new(), |s| format!("{s:?}"));
            }
            let note = format!(
                "scanned {} of {} tuples{}",
                result.stats.scanned,
                view.len(),
                result
                    .stats
                    .stop
                    .map_or(String::new(), |s| format!(", stopped early: {s:?}"))
            );
            if explain {
                analysis = plan.explain_analyze(&metrics.snapshot(), true);
            }
            (answer_rows(&result), note)
        }
        "sampling" => {
            if let Some(f) = flight.as_mut() {
                f.plan = format!("monte-carlo sampling (k={k})");
            }
            let seed = flags.get("seed")?.unwrap_or(0u64);
            let options = SamplingOptions {
                seed,
                ..Default::default()
            };
            let estimate = match tracer.as_ref() {
                Some(t) => sample_topk_traced(&view, k, &options, recorder, t),
                None => sample_topk_recorded(&view, k, &options, recorder),
            };
            let answers = estimate.answers(p);
            recorder.add(ptk_engine::counters::ANSWERS, answers.len() as u64);
            (
                view_rows(&view, &answers, &estimate.probabilities),
                format!("{} sample units", estimate.units),
            )
        }
        "naive" => {
            if let Some(f) = flight.as_mut() {
                f.plan = format!("naive possible-world enumeration (k={k})");
            }
            let pr = naive::topk_probabilities(&view, k).map_err(|e| e.to_string())?;
            let answers: Vec<usize> = (0..view.len()).filter(|&i| pr[i] >= p).collect();
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

    writeln!(out, "{}", ptk_header(k, p, &note, rows.len()))?;
    write_ptk_rows(out, &table, &rows)?;
    if !analysis.is_empty() {
        write!(out, "{analysis}")?;
    }
    if let (Some(sink), Some(tracer)) = (&sink, &tracer) {
        let events = sink.events();
        trace.write_file(&events)?;
        trace.log_slow(
            &format!("query k={k} p={p}"),
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
    let options = super::engine_options_from_flags(flags);
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
    let stats = stats_mode(flags)?;
    let trace = trace_opts(flags)?;
    if flags.switch("explain") {
        return Err(
            "--explain applies to a single query; for batches use --stats to see merged counters"
                .into(),
        );
    }
    let audit = flags.switch("audit");
    let flight = audit.then(|| {
        let fingerprints: Vec<u64> = plans.iter().map(PtkPlan::fingerprint).collect();
        let label = format!(
            "query batch k={} p={}",
            ks.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            ps.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
        );
        QueryFlight {
            plan: plans
                .iter()
                .map(PtkPlan::describe)
                .collect::<Vec<_>>()
                .join(" | "),
            semantics: RankSemantics::Ptk.keyword().to_owned(),
            ks: labels.iter().map(|&(k, _)| k as u64).collect(),
            thresholds: labels.iter().map(|&(_, p)| p).collect(),
            fingerprint: Some(flight_fingerprint(&label, &fingerprints)),
            label,
            ..QueryFlight::default()
        }
    });

    let (results, snapshot, events) = if trace.active() {
        let (results, snapshot, events) =
            PtkExecutor::execute_batch_traced(&batch, &view, &pool, RING_CAPACITY);
        (results, Some(snapshot), Some(events))
    } else if stats.is_some() {
        let (results, snapshot) = PtkExecutor::execute_batch_recorded(&batch, &view, &pool);
        (results, Some(snapshot), None)
    } else if audit {
        let (results, snapshot) = PtkExecutor::execute_batch_counted(&batch, &view, &pool);
        (results, Some(snapshot), None)
    } else {
        (PtkExecutor::execute_batch(&batch, &view, &pool), None, None)
    };

    writeln!(
        out,
        "batch of {} queries over {} tuples ({} threads)",
        results.len(),
        view.len(),
        pool.threads()
    )?;
    write_batch_answers(out, view.len(), table, &results, &labels)?;
    if let Some(events) = &events {
        trace.write_file(events)?;
        // The batch shares one epoch, so the latest event offset is the
        // batch's wall time.
        let elapsed = events.iter().map(|e| e.nanos).max().unwrap_or(0);
        trace.log_slow(
            &format!("batch of {} queries", labels.len()),
            elapsed,
            events,
            &mut std::io::stderr(),
        );
    }
    if let (Some(mode), Some(snapshot)) = (stats, snapshot.as_ref()) {
        write_snapshot(out, Some(mode), snapshot)?;
    }
    if let Some(mut f) = flight {
        if let Some(snapshot) = snapshot.as_ref() {
            f.absorb_counters(snapshot);
        }
        write_audit(out, f)?;
    }
    Ok(())
}

/// The `--semantics` path of `ptk query`: a single non-PT-k ranking query
/// answered through the engine's generating-function scan. Thresholds
/// parameterize PT-k only, so `--p` is rejected, as are `--k` value lists
/// (the batch executor is PT-k only) and non-exact methods.
fn query_semantics(
    flags: &Flags,
    out: &mut dyn Write,
    table: &UncertainTable,
    semantics: RankSemantics,
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
    let predicate = match flags.named.get("where") {
        Some(clause) => parse_where(clause, table)?,
        None => Predicate::True,
    };
    let query = TopKQuery::new(k, predicate, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(table, &query).map_err(|e| e.to_string())?;
    let plan = PtkPlan::try_semantics(semantics, k, None, &super::engine_options_from_flags(flags))
        .map_err(|e| e.to_string())?;
    let pool = pool_from_flags(flags)?;
    let stats = stats_mode(flags)?;
    let trace = trace_opts(flags)?;
    let explain = flags.switch("explain");
    let audit = flags.switch("audit");
    let metrics = registry(stats.is_some() || explain);
    let recorder: &dyn Recorder = if stats.is_some() || explain || audit {
        &metrics
    } else {
        &Noop
    };
    let flight = audit.then(|| {
        let label = format!("query --semantics {keyword} k={k}");
        QueryFlight {
            plan: plan.describe(),
            semantics: semantics.keyword().to_owned(),
            ks: vec![k as u64],
            fingerprint: Some(flight_fingerprint(&label, &[plan.fingerprint()])),
            label,
            ..QueryFlight::default()
        }
    });
    let sink = trace.active().then(|| trace.sink());
    let tracer = sink
        .as_ref()
        .map(|s| Tracer::new(Arc::clone(s) as SharedSink, 0, 0));
    let mut executor = PtkExecutor::with_recorder(&plan, recorder);
    if let Some(t) = tracer.as_ref() {
        executor = executor.with_tracer(t);
    }
    let answer = executor
        .execute_semantics_snapshot(&view, &pool)
        .map_err(|e| e.to_string())?;
    write_semantics_answer(out, table, k, &answer)?;
    if explain {
        write!(out, "{}", plan.explain_analyze(&metrics.snapshot(), true))?;
    }
    if let (Some(sink), Some(tracer)) = (&sink, &tracer) {
        let events = sink.events();
        trace.write_file(&events)?;
        trace.log_slow(
            &format!("query --semantics {keyword} k={k}"),
            tracer.elapsed_nanos(),
            &events,
            &mut std::io::stderr(),
        );
    }
    write_stats(out, stats, &metrics)?;
    if let Some(mut f) = flight {
        absorb_semantics_flight(&mut f, &metrics.snapshot());
        write_audit(out, f)?;
    }
    Ok(())
}

/// The shared front of `utopk`, `ukranks` and `erank`: the whole table,
/// ranked by `--rank-by`, answered under `semantics` by the engine.
fn rank_whole_table(
    flags: &Flags,
    semantics: RankSemantics,
) -> Result<(UncertainTable, usize, SemanticsAnswer), CmdError> {
    let table = load_from_flags(flags)?;
    let k: usize = flags.require("k")?;
    let ranking = build_ranking(flags, &table)?;
    let query = TopKQuery::new(k, Predicate::True, ranking).map_err(|e| e.to_string())?;
    let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
    let plan = PtkPlan::try_semantics(semantics, k, None, &EngineOptions::default())
        .map_err(|e| e.to_string())?;
    let answer = PtkExecutor::new(&plan)
        .execute_semantics(&mut ViewSource::new(&view))
        .map_err(|e| e.to_string())?;
    Ok((table, k, answer))
}

pub(super) fn cmd_utopk(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let (table, k, answer) = rank_whole_table(flags, RankSemantics::UTopK)?;
    let SemanticsAnswer::UTopK {
        rows,
        probability,
        states_explored,
    } = answer
    else {
        return Err("internal: a U-TopK plan answered another semantics".into());
    };
    writeln!(
        out,
        "most probable top-{k} vector (probability {probability:.6}, {states_explored} states explored):"
    )?;
    for row in &rows {
        write_membership_row(out, &table, row.position, row.id)?;
    }
    Ok(())
}

pub(super) fn cmd_ukranks(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let (table, k, answer) = rank_whole_table(flags, RankSemantics::UKRanks)?;
    write_semantics_answer(out, &table, k, &answer)
}

pub(super) fn cmd_erank(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let (table, k, answer) = rank_whole_table(flags, RankSemantics::ExpectedRank)?;
    let SemanticsAnswer::ExpectedRank(rows) = answer else {
        return Err("internal: an expected-rank plan answered another semantics".into());
    };
    writeln!(out, "top-{k} by expected rank (Cormode et al. semantics):")?;
    for row in &rows {
        writeln!(
            out,
            "  expected rank {:>8.2}  ranked position {:>4}  membership={:.3}  [{}]",
            row.value,
            row.position + 1,
            row.membership,
            attrs_of(&table, row.id)
        )?;
    }
    Ok(())
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
        writeln!(out, "  Pr = {:.6}  {{{}}}", w.prob, ids.join(", "))?;
    }
    if worlds.len() > limit {
        writeln!(out, "  … and {} more", worlds.len() - limit)?;
    }
    let total: f64 = worlds.iter().map(|w| w.prob).sum();
    writeln!(out, "total probability: {total:.9}")?;
    Ok(())
}

pub(super) fn cmd_inspect(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    // A run-file argument (either format, by magic) prints the file's
    // shape — for v2, the block directory — instead of table statistics.
    if let Some(path) = flags.positional.get(1) {
        if let Some(format) = ptk_access::run_format(std::path::Path::new(path)) {
            return super::scan::cmd_inspect_run(path, format, out);
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
    writeln!(out, "possible worlds:   {:.3e}", table.world_count())?;
    Ok(())
}
