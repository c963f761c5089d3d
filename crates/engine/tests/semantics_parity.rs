//! Early-stop parity for the ranking semantics with a stopping bound:
//! Global-Topk, U-KRanks and expected rank answered with pruning on must
//! be bit-identical — every row's position, id and `value.to_bits()` — to
//! the full scan of `EngineOptions::without_pruning`, across uniform
//! random, rule-span clustered and multi-thousand-tuple views, query
//! selections with and without `WHERE`, `k >= n`, `n = 1`, tied
//! probabilities, certain tuples and rule masses of 1 + 1 ulp. The check
//! runs through both the cursor path and the snapshot path at the ambient
//! `PTK_THREADS` width, so the CI matrix covers it at widths 1 and 4.
//!
//! Expected rank stops only over a source that knows its total mass up
//! front (a view or a selection); the same rows through a
//! `SortedVecSource`, which does not, scan in full and must rank every
//! tuple to the same bits. U-TopK and expected rank read only the scan
//! records, so they report no coefficient work.
//!
//! A source that reports no rule layout (no `rule_len`, no member ranks)
//! keeps every rule it has met open: every semantics answers over it with
//! the rows and the scan depth of the same source with its layout.

use std::collections::HashSet;

use ptk_access::{RankedSource, RuleKey, SnapshotSource, SortedVecSource, SourceTuple, ViewSource};
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::{ComparisonOp, Predicate, RankedView, Ranking, Selection, TopKQuery};
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{
    counters, dp, EngineOptions, ExecStats, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer,
    SharingVariant, StopReason,
};
use ptk_obs::Metrics;
use ptk_par::ThreadPool;

const BOUNDED: [RankSemantics; 3] = [
    RankSemantics::GlobalTopk,
    RankSemantics::UKRanks,
    RankSemantics::ExpectedRank,
];

/// Upper-bound cadences under test: the default, every tuple, and an odd
/// one that lands checks mid-rule.
const INTERVALS: [usize; 3] = [64, 1, 7];

/// An answer's rows as `(position, id, value bits)`.
fn row_bits(answer: &SemanticsAnswer) -> Vec<(usize, usize, u64)> {
    answer
        .rows()
        .expect("non-PT-k answer")
        .iter()
        .map(|r| (r.position, r.id.index(), r.value.to_bits()))
        .collect()
}

/// Runs `semantics` over `source` through the cursor path, recording.
fn run_on(
    source: &mut dyn RankedSource,
    semantics: RankSemantics,
    k: usize,
    options: &EngineOptions,
) -> (SemanticsAnswer, ExecStats, Metrics) {
    let plan = PtkPlan::try_semantics(semantics, k, None, options).unwrap();
    let metrics = Metrics::new();
    let answer = PtkExecutor::with_recorder(&plan, &metrics)
        .execute_semantics(source)
        .unwrap();
    let stats = ExecStats::from_snapshot(&metrics.snapshot());
    (answer, stats, metrics)
}

/// [`run_on`] over a view's cursor.
fn run(
    view: &RankedView,
    semantics: RankSemantics,
    k: usize,
    options: &EngineOptions,
) -> (SemanticsAnswer, ExecStats, Metrics) {
    run_on(&mut ViewSource::new(view), semantics, k, options)
}

/// The rows of `view` as a `SortedVecSource`, which knows rule masses but
/// not the total mass: scores fall with the position, so the scan order
/// is the view's, and tuple ids are positions.
fn sorted_vec(view: &RankedView) -> SortedVecSource {
    let n = view.len();
    let rows = (0..n)
        .map(|pos| {
            let t = view.tuple(pos);
            ((n - pos) as f64, t.prob, t.rule.map(|h| h.index() as u32))
        })
        .collect();
    SortedVecSource::from_unsorted(rows).unwrap()
}

/// Early stops per semantics of [`BOUNDED`], in its order.
type Stops = [usize; BOUNDED.len()];

/// Asserts early-stop parity for every bounded semantics at every cadence
/// over the `n` tuples of `snapshot` (a view or a selection), through a
/// forked cursor and the snapshot path; returns how many of those runs
/// stopped before the end.
fn check_parity<S: SnapshotSource>(snapshot: &S, n: usize, k: usize, ctx: &str) -> Stops {
    let pool = ThreadPool::from_env();
    let mut stops = Stops::default();
    for (s, semantics) in BOUNDED.into_iter().enumerate() {
        let (full, full_stats, _) = run_on(
            snapshot.fork().as_mut(),
            semantics,
            k,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        );
        assert_eq!(full_stats.scanned, n, "{ctx} {semantics:?}");
        assert_eq!(full_stats.stop, None, "{ctx} {semantics:?}");
        let expected = row_bits(&full);
        for interval in INTERVALS {
            let options = EngineOptions {
                ub_check_interval: interval,
                ..EngineOptions::default()
            };
            let ctx = format!("{ctx} {semantics:?} k={k} ub every {interval}");
            let (pruned, stats, _) = run_on(snapshot.fork().as_mut(), semantics, k, &options);
            assert_eq!(row_bits(&pruned), expected, "{ctx}: answer rows");
            // A stop is the bound's, happens on a check, and is the only
            // way a scan ends short of the input.
            match stats.stop {
                Some(StopReason::UpperBound) => {
                    assert_eq!(stats.scanned % interval, 0, "{ctx}: stop off a check");
                    assert!(stats.scanned <= n, "{ctx}");
                    stops[s] += usize::from(stats.scanned < n);
                }
                Some(StopReason::TotalTopK) => panic!("{ctx}: Theorem 5 is PT-k's"),
                None => assert_eq!(stats.scanned, n, "{ctx}: short scan"),
            }
            assert_eq!(stats.evaluated, stats.scanned, "{ctx}");
            let plan = PtkPlan::try_semantics(semantics, k, None, &options).unwrap();
            let answer = PtkExecutor::new(&plan)
                .execute_semantics_snapshot(snapshot, &pool)
                .unwrap();
            assert_eq!(row_bits(&answer), expected, "{ctx}: snapshot path");
        }
    }
    stops
}

/// [`check_parity`] over a view, plus expected rank over the same rows in
/// a `SortedVecSource`: without a total-mass hint it scans in full, pruning
/// or not, and takes both totals from the records — to the same bits as
/// the view's hints.
fn check_view(view: &RankedView, k: usize, ctx: &str) -> Stops {
    let stops = check_parity(view, view.len(), k, ctx);
    let (hinted, _, _) = run(
        view,
        RankSemantics::ExpectedRank,
        k,
        &EngineOptions::default(),
    );
    let position_bits = |answer: &SemanticsAnswer| -> Vec<(usize, u64)> {
        row_bits(answer)
            .into_iter()
            .map(|(position, _, bits)| (position, bits))
            .collect()
    };
    let source = sorted_vec(view);
    for options in [
        EngineOptions::default(),
        EngineOptions::without_pruning(SharingVariant::Lazy),
    ] {
        let (unhinted, stats, _) = run_on(
            source.fork().as_mut(),
            RankSemantics::ExpectedRank,
            k,
            &options,
        );
        assert_eq!(
            position_bits(&unhinted),
            position_bits(&hinted),
            "{ctx} k={k}: SortedVecSource"
        );
        assert_eq!(stats.scanned, view.len(), "{ctx} k={k}: SortedVecSource");
        assert_eq!(stats.stop, None, "{ctx} k={k}: SortedVecSource");
    }
    stops
}

/// Random small views: up to `max_n` tuples, random probabilities, random
/// disjoint rules of size 2–4 (the `oracle.rs` generator).
fn random_view(rng: &mut StdRng, max_n: usize) -> RankedView {
    let n = rng.random_range(1..=max_n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
    let mut positions: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut positions);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < positions.len() {
        if rng.random_bool(0.5) {
            let size = rng.random_range(2..=4usize).min(positions.len() - cursor);
            let group: Vec<usize> = positions[cursor..cursor + size].to_vec();
            let mass: f64 = group.iter().map(|&p| probs[p]).sum();
            if mass <= 1.0 {
                groups.push(group);
                cursor += size;
                continue;
            }
        }
        cursor += 1;
    }
    RankedView::from_ranked_probs(&probs, &groups).unwrap()
}

fn synthetic_view(seed: u64, tuples: usize, rules: usize, placement: RulePlacement) -> RankedView {
    let config = SyntheticConfig {
        tuples,
        rules,
        seed,
        rule_size_mean: 3.0,
        rule_size_sd: 1.0,
        placement,
        ..SyntheticConfig::default()
    };
    SyntheticDataset::generate(&config).view
}

/// Adds one run's stops into a running total.
fn add(total: &mut Stops, stops: Stops) {
    for (t, s) in total.iter_mut().zip(stops) {
        *t += s;
    }
}

/// Asserts that every bounded semantics stopped early somewhere.
fn assert_all_stopped(stops: Stops, ctx: &str) {
    for (semantics, count) in BOUNDED.iter().zip(stops) {
        assert!(count > 0, "{ctx}: {semantics:?} never stopped early");
    }
}

#[test]
fn uniform_random_views_stop_without_changing_a_bit() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0101);
    let mut stops = Stops::default();
    for trial in 0..60 {
        let view = random_view(&mut rng, 40);
        // k from 1 up to past n.
        let k = rng.random_range(1..=view.len() + 2);
        let ctx = format!("uniform trial {trial} n={}", view.len());
        add(&mut stops, check_view(&view, k, &ctx));
    }
    assert_all_stopped(stops, "uniform");
}

#[test]
fn clustered_views_stop_without_changing_a_bit() {
    let mut stops = Stops::default();
    for seed in [0x5eed_0102u64, 0x5eed_0103, 0x5eed_0104] {
        let view = synthetic_view(seed, 300, 40, RulePlacement::Clustered { span: 8 });
        for k in [1, 3, 10] {
            add(
                &mut stops,
                check_view(&view, k, &format!("clustered seed {seed:#x}")),
            );
        }
    }
    assert_all_stopped(stops, "clustered");
}

#[test]
fn multi_thousand_tuple_views_stop_at_the_default_cadence() {
    // Large enough that the default cadence's checks fire, uniform and
    // clustered rules.
    for (seed, placement) in [
        (0x5eed_0105u64, RulePlacement::Uniform),
        (0x5eed_0106, RulePlacement::Clustered { span: 16 }),
    ] {
        let view = synthetic_view(seed, 2_500, 250, placement);
        for k in [1, 5, 20, 100] {
            check_view(&view, k, &format!("{placement:?} seed {seed:#x}"));
            for semantics in BOUNDED {
                let (_, stats, _) = run(&view, semantics, k, &EngineOptions::default());
                assert!(
                    stats.scanned < view.len(),
                    "{placement:?} {semantics:?} k={k}: default cadence never stopped"
                );
            }
        }
    }
}

#[test]
fn selections_with_and_without_where_stop_without_changing_a_bit() {
    // A selection's cursor reports the selection's own total mass: the
    // whole view's without `WHERE`, the kept tuples' with one.
    let mut stops = Stops::default();
    for (seed, placement) in [
        (0x5eed_0108u64, RulePlacement::Uniform),
        (0x5eed_0109, RulePlacement::Clustered { span: 8 }),
    ] {
        let table = SyntheticDataset::generate(&SyntheticConfig {
            tuples: 600,
            rules: 80,
            seed,
            rule_size_mean: 3.0,
            rule_size_sd: 1.0,
            placement,
            ..SyntheticConfig::default()
        })
        .table;
        let score = |op, x: f64| Predicate::compare(0, op, x);
        for (name, predicate) in [
            ("no WHERE", Predicate::True),
            ("WHERE score >= 150", score(ComparisonOp::Ge, 150.0)),
            (
                "WHERE score < 100 OR score > 400",
                score(ComparisonOp::Lt, 100.0).or(score(ComparisonOp::Gt, 400.0)),
            ),
        ] {
            let query = TopKQuery::new(1, predicate, Ranking::descending(0)).unwrap();
            let selection = Selection::new(&table, &query).unwrap();
            let view = selection.materialize();
            assert_eq!(
                selection.total_mass().to_bits(),
                view.total_mass().to_bits(),
                "{name}"
            );
            for k in [1, 4, 30] {
                let ctx = format!("seed {seed:#x} {name} n={}", selection.len());
                add(
                    &mut stops,
                    check_parity(&selection, selection.len(), k, &ctx),
                );
                check_view(&view, k, &ctx);
            }
        }
    }
    assert_all_stopped(stops, "selections");
}

#[test]
fn edge_shapes_stay_bit_identical() {
    let ulp_over_one = 0.5f64.next_up().next_up();
    assert_eq!(0.5 + ulp_over_one, 1.0f64.next_up());
    let cases: Vec<(&str, RankedView)> = vec![
        ("n=1", RankedView::from_ranked_probs(&[0.4], &[]).unwrap()),
        (
            "n=1 certain",
            RankedView::from_ranked_probs(&[1.0], &[]).unwrap(),
        ),
        (
            "duplicated probabilities",
            RankedView::from_ranked_probs(&[0.5; 24], &[]).unwrap(),
        ),
        (
            "duplicated probabilities with rules",
            RankedView::from_ranked_probs(
                &[0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                &[vec![0, 4], vec![2, 7, 9]],
            )
            .unwrap(),
        ),
        (
            "certain tuples",
            RankedView::from_ranked_probs(
                &[1.0, 0.6, 1.0, 0.2, 1.0, 0.9, 0.3, 1.0, 0.4, 0.7, 1.0, 0.3],
                &[vec![1, 6], vec![3, 8, 11]],
            )
            .unwrap(),
        ),
        (
            "all certain",
            RankedView::from_ranked_probs(&[1.0; 12], &[]).unwrap(),
        ),
        // Expected rank's floor is tight: the certain tuple below rank 0
        // has expected rank 0.5, exactly the prefix mass, and rank 0's is
        // only 5e-8 above it.
        (
            "a certain tuple on the floor",
            RankedView::from_ranked_probs(&[0.5, 1.0, 1e-7], &[]).unwrap(),
        ),
        // A rule summing to 1 + 9e-10 puts rank 1's expected rank 4.5e-10
        // under the prefix mass, and rank 0's just over it: only the slack
        // keeps the scan going.
        (
            "a rule mass inside the tolerance over 1",
            RankedView::from_ranked_probs(&[0.500_000_000_3, 0.500_000_000_6], &[vec![0, 1]])
                .unwrap(),
        ),
        (
            "rule masses of 1 + 1 ulp",
            RankedView::from_ranked_probs(
                &[
                    0.5,
                    0.7,
                    ulp_over_one,
                    0.2,
                    0.5,
                    0.6,
                    ulp_over_one,
                    0.4,
                    0.9,
                    0.3,
                ],
                &[vec![0, 2], vec![4, 6]],
            )
            .unwrap(),
        ),
    ];
    let mut stops = Stops::default();
    for (name, view) in &cases {
        for k in [1, 2, 3, view.len(), view.len() + 3] {
            add(&mut stops, check_view(view, k, name));
        }
    }
    assert_all_stopped(stops, "edge shapes");
}

/// Scan depths at k = 5 over the 600-tuple view of
/// `row_free_semantics_fold_no_rows_and_read_a_prefix`, default options.
const UTOPK_DEPTH: usize = 9;
const EXPECTED_RANK_DEPTH: usize = 192;

#[test]
fn row_free_semantics_fold_no_rows_and_read_a_prefix() {
    let view = synthetic_view(0x5eed_0107, 600, 60, RulePlacement::Uniform);
    // U-TopK reads the ranks its search expands; expected rank stops on
    // its floor at a default-cadence check.
    for (semantics, scanned, stop) in [
        (RankSemantics::UTopK, UTOPK_DEPTH, None),
        (
            RankSemantics::ExpectedRank,
            EXPECTED_RANK_DEPTH,
            Some(StopReason::UpperBound),
        ),
    ] {
        let (_, stats, metrics) = run(&view, semantics, 5, &EngineOptions::default());
        let snapshot = metrics.snapshot();
        assert_eq!(stats.scanned, scanned, "{semantics:?}");
        assert_eq!(stats.stop, stop, "{semantics:?}");
        assert_eq!(stats.dp_cells, 0, "{semantics:?}");
        assert_eq!(stats.entries_recomputed, 0, "{semantics:?}");
        assert_eq!(snapshot.counter(counters::GF_ROWS_INCREMENTAL), 0);
        assert_eq!(snapshot.counter(counters::GF_ROWS_REFOLDED), 0);
        // Every rule met in the scanned prefix, and no other.
        let prefix_rules: HashSet<_> = view.tuples()[..scanned]
            .iter()
            .filter_map(|t| t.rule)
            .collect();
        assert_eq!(
            stats.rules_compressed,
            prefix_rules.len() as u64,
            "{semantics:?}"
        );
    }
    // The row-reading semantics' full scans count the same rules as PT-k's
    // unpruned scan, through its own compressor.
    let reference = PtkExecutor::new(
        &PtkPlan::try_new(
            5,
            0.5,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        )
        .unwrap(),
    )
    .execute(&mut ViewSource::new(&view))
    .stats
    .rules_compressed;
    assert!(reference > 0);
    for semantics in [RankSemantics::GlobalTopk, RankSemantics::UKRanks] {
        let (_, stats, _) = run(
            &view,
            semantics,
            5,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        );
        assert_eq!(stats.rules_compressed, reference, "{semantics:?}");
        assert!(stats.dp_cells > 0, "{semantics:?}");
    }
}

/// A `SortedVecSource` that forwards only the records, the rule masses
/// and the scan depth: no rule layout, no length or total-mass hint.
struct NoLayout(SortedVecSource);

impl RankedSource for NoLayout {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        self.0.next_ranked()
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.0.rule_mass(rule)
    }

    fn retrieved(&self) -> usize {
        self.0.retrieved()
    }
}

/// Every semantics over a `SortedVecSource`, with and without its rule
/// layout: the same positions, ids and scan depth. The values keep their
/// bits too, except where the run without the layout refolds a row: the
/// exact refold folds the open rules in another order, so there they need
/// only agree within the deconvolution's certified mass error.
#[test]
fn a_source_without_a_rule_layout_answers_every_semantics() {
    let semantics = [
        RankSemantics::UTopK,
        RankSemantics::UKRanks,
        RankSemantics::GlobalTopk,
        RankSemantics::ExpectedRank,
    ];
    let options = [
        EngineOptions::default(),
        EngineOptions::without_pruning(SharingVariant::Lazy),
        EngineOptions {
            variant: SharingVariant::Rc,
            ..EngineOptions::default()
        },
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_0110);
    let mut views: Vec<RankedView> = (0..12).map(|_| random_view(&mut rng, 60)).collect();
    // Rules of mass near or at 1 as well: removing such a rule from a row
    // is the ill-conditioned deconvolution that falls back to a refold.
    for seed in 0..8u64 {
        let placement = if seed % 2 == 0 {
            RulePlacement::Uniform
        } else {
            RulePlacement::Clustered { span: 8 }
        };
        let rule_prob_mean = if seed < 4 { 0.5 } else { 0.97 };
        let config = SyntheticConfig {
            tuples: 500,
            rules: 60,
            seed: 0x5eed_0111 + seed,
            rule_size_mean: 3.0,
            rule_size_sd: 1.0,
            rule_prob_mean,
            rule_prob_sd: 0.05,
            placement,
            ..SyntheticConfig::default()
        };
        views.push(SyntheticDataset::generate(&config).view);
    }
    let mut refolded = 0;
    for (v, view) in views.iter().enumerate() {
        for k in [1, 5, 20] {
            for options in &options {
                for semantics in semantics {
                    let ctx = format!("view {v} k={k} {:?} {semantics:?}", options.variant);
                    let (with, with_stats, _) =
                        run_on(&mut sorted_vec(view), semantics, k, options);
                    let mut bare = NoLayout(sorted_vec(view));
                    let (without, without_stats, metrics) =
                        run_on(&mut bare, semantics, k, options);
                    assert_eq!(without_stats.scanned, with_stats.scanned, "{ctx}: depth");
                    assert_eq!(bare.retrieved(), with_stats.scanned, "{ctx}: depth");
                    let (a, b) = (row_bits(&with), row_bits(&without));
                    let key = |rows: &[(usize, usize, u64)]| -> Vec<(usize, usize)> {
                        rows.iter().map(|&(p, id, _)| (p, id)).collect()
                    };
                    assert_eq!(key(&a), key(&b), "{ctx}: positions and ids");
                    let mut values = a
                        .iter()
                        .zip(&b)
                        .map(|(x, y)| (x.2, y.2))
                        .collect::<Vec<_>>();
                    if let (
                        SemanticsAnswer::UTopK { probability: x, .. },
                        SemanticsAnswer::UTopK { probability: y, .. },
                    ) = (&with, &without)
                    {
                        values.push((x.to_bits(), y.to_bits()));
                    }
                    if metrics.snapshot().counter(counters::GF_ROWS_REFOLDED) > 0 {
                        refolded += 1;
                        for (x, y) in values {
                            let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                            assert!(
                                (x - y).abs() <= dp::DECONVOLVE_MAX_MASS_ERROR,
                                "{ctx}: {x} vs {y}"
                            );
                        }
                    } else {
                        for (x, y) in values {
                            assert_eq!(x, y, "{ctx}: value bits");
                        }
                    }
                }
            }
        }
    }
    assert!(refolded > 0, "no run without a rule layout refolded a row");
}
