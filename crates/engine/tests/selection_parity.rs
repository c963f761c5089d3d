//! Selection parity: every ranking semantics scanned over a query's
//! [`Selection`] of the table's shared ranked view (a `SelectionSource`
//! cursor, rule keys being the shared view's handles) must be
//! bit-identical to the same scan over the materialized `P(T)` (a
//! `ViewSource`, dense keys): positions, ids, scores, `value.to_bits()`,
//! the full [`ExecStats`] and the stop rank, at upper-bound cadences 64 and
//! 1, through the cursor and snapshot paths, and for batches. A selection
//! found as a ranked range must also scan exactly like the predicate-pass
//! selection of the same cut spelled with `NOT`. The pool width is the
//! ambient `PTK_THREADS`, so the CI matrix runs it at 1 and 4.

use std::ops::Range;

use ptk_access::{RankedSource, SnapshotSource};
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::{
    ComparisonOp, Predicate, RankedView, Ranking, Selection, SortDirection, TopKQuery, TupleId,
    UncertainTable, UncertainTableBuilder, Value,
};
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{
    EngineOptions, ExecStats, PtkExecutor, PtkPlan, PtkResult, RankSemantics, SemanticsAnswer,
};
use ptk_obs::Metrics;
use ptk_par::ThreadPool;

const SEMANTICS: [RankSemantics; 5] = [
    RankSemantics::Ptk,
    RankSemantics::UTopK,
    RankSemantics::UKRanks,
    RankSemantics::GlobalTopk,
    RankSemantics::ExpectedRank,
];

const INTERVALS: [usize; 2] = [64, 1];

/// Everything a scan reports that must not depend on the source: answer
/// rows (PT-k: rank, id, score and `Pr^k` bits, plus every scanned
/// probability; other semantics: position, id, score and value bits) and
/// the recorded stats, whose `scanned` is the stop rank.
#[derive(Debug, PartialEq)]
struct Outcome {
    rows: Vec<(usize, TupleId, u64, u64)>,
    probabilities: Vec<Option<u64>>,
    stats: ExecStats,
}

fn ptk_outcome(result: &PtkResult) -> Outcome {
    Outcome {
        rows: result
            .answers
            .iter()
            .map(|a| (a.rank, a.id, a.score.to_bits(), a.probability.to_bits()))
            .collect(),
        probabilities: result
            .probabilities
            .iter()
            .map(|p| p.map(f64::to_bits))
            .collect(),
        stats: result.stats,
    }
}

fn outcome(answer: Result<SemanticsAnswer, String>, metrics: &Metrics) -> Result<Outcome, String> {
    let answer = answer?;
    Ok(match &answer {
        SemanticsAnswer::Ptk(result) => ptk_outcome(result),
        other => Outcome {
            rows: other
                .rows()
                .expect("non-PT-k answers have rows")
                .iter()
                .map(|r| (r.position, r.id, r.score.to_bits(), r.value.to_bits()))
                .collect(),
            probabilities: Vec::new(),
            stats: ExecStats::from_snapshot(&metrics.snapshot()),
        },
    })
}

fn plan(semantics: RankSemantics, k: usize, p: f64, interval: usize) -> PtkPlan {
    let options = EngineOptions {
        ub_check_interval: interval,
        ..EngineOptions::default()
    };
    match semantics {
        RankSemantics::Ptk => PtkPlan::try_new(k, p, &options),
        other => PtkPlan::try_semantics(other, k, None, &options),
    }
    .expect("valid plan")
}

fn run_cursor(plan: &PtkPlan, source: &mut dyn RankedSource) -> Result<Outcome, String> {
    let metrics = Metrics::new();
    let answer = PtkExecutor::with_recorder(plan, &metrics)
        .execute_semantics(source)
        .map_err(|e| e.to_string());
    outcome(answer, &metrics)
}

/// Checks every semantics, cadence and path for one selection against its
/// materialized `P(T)`; returns how many scans stopped before the end of
/// `P(T)`.
fn check_selection(table: &UncertainTable, query: &TopKQuery, ctx: &str) -> usize {
    let selection = Selection::new(table, query).unwrap();
    let view = selection.materialize();
    assert!(
        view == RankedView::build(table, query).unwrap(),
        "{ctx}: materialize"
    );
    assert_eq!(selection.len(), view.len(), "{ctx}: length");
    check_scans(&selection, &view, view.len(), ctx)
}

/// Checks every semantics, cadence and path of `got` against `want`, two
/// sources of the same `n`-tuple `P(T)`; returns how many scans stopped
/// before its end.
fn check_scans(got: &dyn SnapshotSource, want: &dyn SnapshotSource, n: usize, ctx: &str) -> usize {
    let pool = ThreadPool::from_env();
    let mut stops = 0;
    for semantics in SEMANTICS {
        // U-TopK's search is exponential in k; keep it small.
        let ks: &[usize] = if semantics == RankSemantics::UTopK {
            &[1, 3]
        } else {
            &[1, 4, 12]
        };
        for &k in ks {
            for interval in INTERVALS {
                let plan = plan(semantics, k, 0.3, interval);
                let ctx = format!("{ctx} {semantics:?} k={k} ub every {interval}");
                let wanted = run_cursor(&plan, &mut *want.fork());
                assert_eq!(run_cursor(&plan, &mut *got.fork()), wanted, "{ctx}: cursor");
                if let Ok(o) = &wanted {
                    stops += usize::from(o.stats.scanned < n);
                }
                let snapshot = |source| {
                    let answer = PtkExecutor::new(&plan)
                        .execute_semantics_snapshot(source, &pool)
                        .map_err(|e| e.to_string());
                    outcome(answer, &Metrics::new())
                };
                assert_eq!(snapshot(got), snapshot(want), "{ctx}: snapshot");
            }
        }
    }
    for interval in INTERVALS {
        let plans: Vec<PtkPlan> = [(1, 0.2), (4, 0.5), (12, 0.3), (4, 0.9)]
            .iter()
            .map(|&(k, p)| plan(RankSemantics::Ptk, k, p, interval))
            .collect();
        let batch = PtkPlan::batch(&plans);
        let (wanted, want_snap) = PtkExecutor::execute_batch_recorded(&batch, want, &pool);
        let (recorded, got_snap) = PtkExecutor::execute_batch_recorded(&batch, got, &pool);
        let counting = Metrics::counters_only();
        let (counted, _) = PtkExecutor::execute_batch_with(&batch, got, &pool, &counting);
        let counted_snap = counting.snapshot();
        let wanted: Vec<Outcome> = wanted.iter().map(ptk_outcome).collect();
        assert_eq!(
            recorded.iter().map(ptk_outcome).collect::<Vec<_>>(),
            wanted,
            "{ctx}: batch, ub every {interval}"
        );
        assert_eq!(
            counted.iter().map(ptk_outcome).collect::<Vec<_>>(),
            wanted,
            "{ctx}: counted batch, ub every {interval}"
        );
        assert_eq!(got_snap.to_json(false), want_snap.to_json(false), "{ctx}");
        // Counters only: the same counters, and no clock read at all.
        assert_eq!(
            counted_snap.to_json(false),
            want_snap.to_json(false),
            "{ctx}"
        );
        assert!(
            counted_snap.timings.is_empty(),
            "{ctx}: counted batch timed"
        );
    }
    stops
}

fn synthetic_table(seed: u64, placement: RulePlacement) -> UncertainTable {
    let config = SyntheticConfig {
        tuples: 400,
        rules: 60,
        seed,
        rule_size_mean: 3.0,
        rule_size_sd: 1.0,
        placement,
        ..SyntheticConfig::default()
    };
    SyntheticDataset::generate(&config).table
}

fn query(predicate: Predicate, direction: SortDirection) -> TopKQuery {
    TopKQuery::new(1, predicate, Ranking::by_column(0, direction)).unwrap()
}

const RANGE_OPS: [ComparisonOp; 5] = [
    ComparisonOp::Eq,
    ComparisonOp::Lt,
    ComparisonOp::Le,
    ComparisonOp::Ge,
    ComparisonOp::Gt,
];

/// `column op value` spelled with `NOT`, which takes the predicate pass:
/// `score >= x` as `NOT score < x`, `score = x` as `NOT score != x`.
fn not_spelling(column: usize, op: ComparisonOp, value: Value) -> Predicate {
    let negated = match op {
        ComparisonOp::Eq => ComparisonOp::Ne,
        ComparisonOp::Lt => ComparisonOp::Ge,
        ComparisonOp::Le => ComparisonOp::Gt,
        ComparisonOp::Gt => ComparisonOp::Le,
        ComparisonOp::Ge => ComparisonOp::Lt,
        ComparisonOp::Ne => unreachable!("`!=` selects no ranked range"),
    };
    Predicate::compare(column, negated, value).not()
}

/// Ranks `table` by `column` and checks the ranked range `column op value`
/// selects against the predicate pass of its `NOT` spelling, scan for
/// scan; returns the range.
fn check_range(
    table: &UncertainTable,
    (column, op, value): (usize, ComparisonOp, Value),
    direction: SortDirection,
    ctx: &str,
) -> Range<usize> {
    let select = |predicate| {
        let ranking = Ranking::by_column(column, direction);
        Selection::new(table, &TopKQuery::new(1, predicate, ranking).unwrap()).unwrap()
    };
    let range = select(Predicate::compare(column, op, value.clone()));
    let spelled = select(not_spelling(column, op, value));
    assert!(!range.ran_predicate_pass(), "{ctx}: a ranked range");
    assert!(spelled.ran_predicate_pass(), "{ctx}: the predicate pass");
    assert_eq!(range.len(), spelled.len(), "{ctx}: length");
    assert!(
        range.materialize() == spelled.materialize(),
        "{ctx}: materialize"
    );
    check_scans(&range, &spelled, range.len(), ctx);
    range.ranked_range()
}

#[test]
fn ranked_ranges_scan_like_their_not_spelling() {
    let table = synthetic_table(0x5e1_0004, RulePlacement::Clustered { span: 8 });
    let n = table.len();
    // Scores are the floats 1..=400: cut below, on, between and above
    // them, with float and int constants.
    let cuts = [
        Value::Float(0.5),
        Value::Float(120.0),
        Value::Int(250),
        Value::Float(300.5),
        Value::Int(400),
        Value::Float(401.0),
    ];
    let (mut suffixes, mut empty, mut full) = (0, 0, 0);
    for direction in [SortDirection::Descending, SortDirection::Ascending] {
        for op in RANGE_OPS {
            for value in &cuts {
                let ctx = format!("score {op:?} {value} {direction:?}");
                let range = check_range(&table, (0, op, value.clone()), direction, &ctx);
                suffixes += usize::from(range.start > 0 && range.end == n);
                empty += usize::from(range.is_empty());
                full += usize::from(range.len() == n);
            }
        }
    }
    assert!(
        suffixes > 0 && empty > 0 && full > 0,
        "{suffixes} {empty} {full}"
    );
}

#[test]
fn synthetic_selections_scan_bit_identically() {
    let mut stops = 0;
    for (seed, placement) in [
        (0x5e1_0001u64, RulePlacement::Uniform),
        (0x5e1_0002, RulePlacement::Clustered { span: 8 }),
    ] {
        let table = synthetic_table(seed, placement);
        let score = |op, x: f64| Predicate::compare(0, op, x);
        let predicates = [
            Predicate::True,
            // A prefix of the descending ranking, a suffix, a middle band
            // dropped, and two disjoint bands: rules lose some, all or
            // none of their members.
            score(ComparisonOp::Ge, 120.0),
            score(ComparisonOp::Lt, 300.0),
            score(ComparisonOp::Lt, 150.0).or(score(ComparisonOp::Gt, 260.0)),
            score(ComparisonOp::Gt, 50.0)
                .and(score(ComparisonOp::Le, 110.0))
                .or(score(ComparisonOp::Gt, 330.0)),
        ];
        for (i, predicate) in predicates.into_iter().enumerate() {
            for direction in [SortDirection::Descending, SortDirection::Ascending] {
                let ctx = format!("seed {seed:#x} predicate {i} {direction:?}");
                stops += check_selection(&table, &query(predicate.clone(), direction), &ctx);
            }
        }
    }
    assert!(stops > 0, "no scan stopped early");
}

/// Small tables with tied, text-free numeric and NULL rank keys, scattered
/// selections (a `row` column), a tied int column for ranked ranges
/// (`tied`), and rules whose mass is 1 + 1 ulp.
fn random_table(rng: &mut StdRng) -> UncertainTable {
    let n = rng.random_range(1..=40usize);
    let mut b = UncertainTableBuilder::new(vec!["score".into(), "row".into(), "tied".into()]);
    for i in 0..n {
        let score = if rng.random_bool(0.1) {
            Value::Null
        } else {
            Value::Float(f64::from(rng.random_range(0..10u32)))
        };
        let prob = match rng.random_range(0..5u32) {
            0 => 1.0,
            1 => 0.500_000_000_000_000_2,
            _ => rng.random_range(0.05..=0.5f64),
        };
        let tied = Value::Int(rng.random_range(0..6i64));
        b.push(prob, [score, Value::Int(i as i64), tied]).unwrap();
    }
    let mut free: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut free);
    while free.len() >= 2 && rng.random_bool(0.7) {
        let take = rng.random_range(2..=4usize).min(free.len());
        let members: Vec<TupleId> = free.drain(..take).map(TupleId::new).collect();
        let _ = b.exclusive(&members);
    }
    b.finish().unwrap()
}

#[test]
fn random_selections_scan_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x5e1_0003);
    for trial in 0..40 {
        let table = random_table(&mut rng);
        let n = table.len() as i64;
        let row = |op, x: i64| Predicate::compare(1, op, x);
        let predicate = match trial % 4 {
            0 => Predicate::True,
            1 => row(ComparisonOp::Ne, rng.random_range(0..n)),
            2 => row(ComparisonOp::Lt, rng.random_range(0..=n))
                .or(row(ComparisonOp::Eq, rng.random_range(0..n))),
            _ => Predicate::compare(0, ComparisonOp::Ne, f64::from(rng.random_range(0..10u32))),
        };
        let direction = if trial % 3 == 0 {
            SortDirection::Ascending
        } else {
            SortDirection::Descending
        };
        check_selection(
            &table,
            &query(predicate, direction),
            &format!("trial {trial} n={n}"),
        );
    }
}

#[test]
fn random_ranges_scan_like_their_not_spelling() {
    let mut rng = StdRng::seed_from_u64(0x5e1_0005);
    for trial in 0..40 {
        let table = random_table(&mut rng);
        let op = RANGE_OPS[trial % RANGE_OPS.len()];
        let value = if rng.random_bool(0.5) {
            Value::Int(rng.random_range(-1..=6i64))
        } else {
            Value::Float(f64::from(rng.random_range(-2..=12i32)) * 0.5)
        };
        let direction = if trial % 2 == 0 {
            SortDirection::Descending
        } else {
            SortDirection::Ascending
        };
        let ctx = format!("trial {trial} n={}: tied {op:?} {value}", table.len());
        check_range(&table, (2, op, value), direction, &ctx);
    }
}
