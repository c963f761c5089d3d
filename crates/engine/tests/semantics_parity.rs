//! Early-stop parity for the ranking semantics with a stopping bound:
//! Global-Topk and U-KRanks answered with pruning on must be bit-identical
//! — every row's position, id and `value.to_bits()` — to the full scan of
//! `EngineOptions::without_pruning`, across uniform random, rule-span
//! clustered and multi-thousand-tuple views, `k >= n`, `n = 1`, tied
//! probabilities, certain tuples and rule masses of 1 + 1 ulp. The check
//! runs through both the cursor path and the snapshot path at the ambient
//! `PTK_THREADS` width, so the CI matrix covers it at widths 1 and 4.
//!
//! U-TopK and expected rank have no bound: they must scan in full and, as
//! they read only the scan records, report no coefficient work.

use ptk_access::ViewSource;
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{
    counters, EngineOptions, ExecStats, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer,
    SharingVariant, StopReason,
};
use ptk_obs::Metrics;
use ptk_par::ThreadPool;

const BOUNDED: [RankSemantics; 2] = [RankSemantics::GlobalTopk, RankSemantics::UKRanks];

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

/// Runs `semantics` over `view` through the cursor path, recording.
fn run(
    view: &RankedView,
    semantics: RankSemantics,
    k: usize,
    options: &EngineOptions,
) -> (SemanticsAnswer, ExecStats, Metrics) {
    let plan = PtkPlan::try_semantics(semantics, k, None, options).unwrap();
    let metrics = Metrics::new();
    let answer = PtkExecutor::with_recorder(&plan, &metrics)
        .execute_semantics(&mut ViewSource::new(view))
        .unwrap();
    let stats = ExecStats::from_snapshot(&metrics.snapshot());
    (answer, stats, metrics)
}

/// Asserts early-stop parity for both bounded semantics at every cadence;
/// returns how many of those runs stopped before the end of the view.
fn check_parity(view: &RankedView, k: usize, ctx: &str) -> usize {
    let pool = ThreadPool::from_env();
    let mut stops = 0;
    for semantics in BOUNDED {
        let (full, full_stats, _) = run(
            view,
            semantics,
            k,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        );
        assert_eq!(full_stats.scanned, view.len(), "{ctx} {semantics:?}");
        assert_eq!(full_stats.stop, None, "{ctx} {semantics:?}");
        let expected = row_bits(&full);
        for interval in INTERVALS {
            let options = EngineOptions {
                ub_check_interval: interval,
                ..EngineOptions::default()
            };
            let ctx = format!("{ctx} {semantics:?} k={k} ub every {interval}");
            let (pruned, stats, _) = run(view, semantics, k, &options);
            assert_eq!(row_bits(&pruned), expected, "{ctx}: answer rows");
            // A stop is the bound's, happens on a check, and is the only
            // way a scan ends short of the view.
            match stats.stop {
                Some(StopReason::UpperBound) => {
                    assert_eq!(stats.scanned % interval, 0, "{ctx}: stop off a check");
                    assert!(stats.scanned <= view.len(), "{ctx}");
                    stops += usize::from(stats.scanned < view.len());
                }
                Some(StopReason::TotalTopK) => panic!("{ctx}: Theorem 5 is PT-k's"),
                None => assert_eq!(stats.scanned, view.len(), "{ctx}: short scan"),
            }
            assert_eq!(stats.evaluated, stats.scanned, "{ctx}");
            let plan = PtkPlan::try_semantics(semantics, k, None, &options).unwrap();
            let snapshot = PtkExecutor::new(&plan)
                .execute_semantics_snapshot(view, &pool)
                .unwrap();
            assert_eq!(row_bits(&snapshot), expected, "{ctx}: snapshot path");
        }
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

#[test]
fn uniform_random_views_stop_without_changing_a_bit() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0101);
    let mut stops = 0;
    for trial in 0..60 {
        let view = random_view(&mut rng, 40);
        // k from 1 up to past n.
        let k = rng.random_range(1..=view.len() + 2);
        stops += check_parity(&view, k, &format!("uniform trial {trial} n={}", view.len()));
    }
    assert!(stops > 0, "no uniform trial stopped early");
}

#[test]
fn clustered_views_stop_without_changing_a_bit() {
    let mut stops = 0;
    for seed in [0x5eed_0102u64, 0x5eed_0103, 0x5eed_0104] {
        let view = synthetic_view(seed, 300, 40, RulePlacement::Clustered { span: 8 });
        for k in [1, 3, 10] {
            stops += check_parity(&view, k, &format!("clustered seed {seed:#x}"));
        }
    }
    assert!(stops > 0, "no clustered view stopped early");
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
            check_parity(&view, k, &format!("{placement:?} seed {seed:#x}"));
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
    for (name, view) in &cases {
        for k in [1, 2, 3, view.len(), view.len() + 3] {
            check_parity(view, k, name);
        }
    }
}

#[test]
fn unbounded_semantics_scan_in_full_and_fold_no_rows() {
    let view = synthetic_view(0x5eed_0107, 600, 60, RulePlacement::Uniform);
    // PT-k's unpruned scan counts distinct rules through its own
    // compressor: the reference for `rules_compressed`.
    let reference = PtkExecutor::new(&PtkPlan::new(
        5,
        0.5,
        &EngineOptions::without_pruning(SharingVariant::Lazy),
    ))
    .execute(&mut ViewSource::new(&view))
    .stats
    .rules_compressed;
    assert!(reference > 0);
    for semantics in [RankSemantics::UTopK, RankSemantics::ExpectedRank] {
        let (_, stats, metrics) = run(&view, semantics, 5, &EngineOptions::default());
        let snapshot = metrics.snapshot();
        assert_eq!(stats.scanned, view.len(), "{semantics:?}");
        assert_eq!(stats.stop, None, "{semantics:?}");
        assert_eq!(stats.dp_cells, 0, "{semantics:?}");
        assert_eq!(stats.entries_recomputed, 0, "{semantics:?}");
        assert_eq!(snapshot.counter(counters::GF_ROWS_INCREMENTAL), 0);
        assert_eq!(snapshot.counter(counters::GF_ROWS_REFOLDED), 0);
        assert_eq!(stats.rules_compressed, reference, "{semantics:?}");
    }
    // The row-reading semantics count the same rules.
    for semantics in BOUNDED {
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
