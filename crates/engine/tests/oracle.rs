//! Randomized oracle tests: the exact engine must agree with naive
//! possible-world enumeration on small random tables, for every sharing
//! variant, with and without pruning.
#![allow(clippy::needless_range_loop)] // index-paired loops over parallel arrays

use ptk_core::rng::{RngExt, SeedableRng, StdRng};

use ptk_access::ViewSource;
use ptk_core::RankedView;
use ptk_engine::{
    counters, evaluate_ptk, topk_probabilities, EngineOptions, ExecStats, PtkExecutor, PtkPlan,
    PtkResult, Scanner, SharingVariant,
};
use ptk_obs::{Metrics, Recorder};
use ptk_worlds::naive;

/// Plans a PT-k query and runs it over `view`, recording into `recorder`.
fn execute_recorded(
    view: &RankedView,
    k: usize,
    threshold: f64,
    options: &EngineOptions,
    recorder: &dyn Recorder,
) -> PtkResult {
    let plan = PtkPlan::try_new(k, threshold, options).unwrap();
    PtkExecutor::with_recorder(&plan, recorder).execute(&mut ViewSource::new(view))
}

/// Generates a random small ranked view: up to `max_n` tuples, random
/// probabilities, random disjoint rules of size 2–4.
fn random_view(rng: &mut StdRng, max_n: usize) -> RankedView {
    let n = rng.random_range(1..=max_n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
    // Partition a shuffled subset of positions into candidate rule groups.
    let mut positions: Vec<usize> = (0..n).collect();
    for i in (1..positions.len()).rev() {
        let j = rng.random_range(0..=i);
        positions.swap(i, j);
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < positions.len() {
        if rng.random_range(0.0..1.0f64) < 0.5 {
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

#[test]
fn topk_probabilities_match_enumeration() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for trial in 0..60 {
        let view = random_view(&mut rng, 10);
        for k in [1, 2, 3, 5] {
            let oracle = naive::topk_probabilities(&view, k).unwrap();
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let (pr, _) = topk_probabilities(&view, k, variant);
                for i in 0..view.len() {
                    assert!(
                        (pr[i] - oracle[i]).abs() < 1e-10,
                        "trial {trial} k={k} {variant:?} pos {i}: engine {} vs oracle {}",
                        pr[i],
                        oracle[i]
                    );
                }
            }
        }
    }
}

#[test]
fn ptk_answers_match_enumeration_with_and_without_pruning() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for trial in 0..60 {
        let view = random_view(&mut rng, 10);
        let k = rng.random_range(1..=5usize);
        let threshold = rng.random_range(0.05..=0.95f64);
        let oracle = naive::ptk_answer(&view, k, threshold).unwrap();
        for pruning in [false, true] {
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let options = EngineOptions {
                    variant,
                    pruning,
                    ub_check_interval: 1, // stress the early-exit bound
                };
                let metrics = Metrics::new();
                let result = execute_recorded(&view, k, threshold, &options, &metrics);
                assert_eq!(
                    result.answer_ranks(),
                    oracle,
                    "trial {trial} k={k} p={threshold} {variant:?} pruning={pruning}"
                );

                // ExecStats is a faithful view over the ptk-obs registry.
                let snapshot = metrics.snapshot();
                assert_eq!(
                    ExecStats::from_snapshot(&snapshot),
                    result.stats,
                    "trial {trial} {variant:?} pruning={pruning}: registry round trip"
                );
                assert_eq!(
                    snapshot.counter(counters::ANSWERS),
                    result.answers.len() as u64,
                    "trial {trial} {variant:?} pruning={pruning}"
                );

                // Every scanned tuple is either evaluated or pruned; absent
                // an early stop the scan covers the whole ranked list.
                assert_eq!(
                    result.stats.scanned,
                    result.stats.evaluated + result.stats.pruned(),
                    "trial {trial} {variant:?} pruning={pruning}: scanned ≠ evaluated + pruned"
                );
                // Pruning attribution: the per-bound splits sum exactly to
                // the pre-existing totals, both on the struct and through
                // the recorded counter names flight records carry.
                assert_eq!(
                    result.stats.pruned_membership_tuple() + result.stats.pruned_membership_block,
                    result.stats.pruned_membership,
                    "trial {trial} {variant:?} pruning={pruning}: membership attribution"
                );
                assert_eq!(
                    result.stats.pruned_rule_whole + result.stats.pruned_rule_member(),
                    result.stats.pruned_rule,
                    "trial {trial} {variant:?} pruning={pruning}: rule attribution"
                );
                assert_eq!(
                    snapshot.counter("engine.pruned_membership.tuple")
                        + snapshot.counter("engine.pruned_membership.block"),
                    snapshot.counter("engine.pruned_membership"),
                    "trial {trial} {variant:?} pruning={pruning}: recorded membership attribution"
                );
                assert_eq!(
                    snapshot.counter("engine.pruned_rule.whole")
                        + snapshot.counter("engine.pruned_rule.member"),
                    snapshot.counter("engine.pruned_rule"),
                    "trial {trial} {variant:?} pruning={pruning}: recorded rule attribution"
                );
                assert!(result.stats.scanned <= view.len());
                if result.stats.stop.is_none() {
                    assert_eq!(
                        result.stats.scanned,
                        view.len(),
                        "trial {trial} {variant:?} pruning={pruning}: no early stop yet partial scan"
                    );
                }
                if !pruning {
                    assert_eq!(result.stats.pruned(), 0, "pruning off must not prune");
                }
            }
        }
    }
}

#[test]
fn scanner_rows_match_rank_probabilities() {
    // `Pr(t ranked exactly j+1) = Pr(t) · Pr(T(t), j)` (Eq. 3): the
    // Scanner's per-rank rows against enumeration.
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for trial in 0..40 {
        let view = random_view(&mut rng, 9);
        let k = rng.random_range(1..=4usize);
        let oracle = naive::rank_probabilities(&view, k).unwrap();
        let mut scanner = Scanner::new(&view, k, SharingVariant::Lazy);
        while let Some(pos) = scanner.position() {
            let step = scanner.step().unwrap();
            for j in 0..k {
                let engine = view.prob(pos) * step.row[j];
                assert!(
                    (engine - oracle[pos][j]).abs() < 1e-10,
                    "trial {trial} pos {pos} rank {j}: {engine} vs {}",
                    oracle[pos][j]
                );
            }
        }
    }
}

#[test]
fn theorem_bounds_hold_on_random_views() {
    // Pr^k(t) <= Pr(t) (Theorem 3's premise) and Σ_t Pr^k(t) <= k.
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for _ in 0..40 {
        let view = random_view(&mut rng, 12);
        let k = rng.random_range(1..=6usize);
        let (pr, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
        let mut total = 0.0;
        for i in 0..view.len() {
            assert!(pr[i] <= view.prob(i) + 1e-12);
            assert!(pr[i] >= -1e-12);
            total += pr[i];
        }
        assert!(total <= k as f64 + 1e-9, "total {total} > k {k}");
    }
}

#[test]
fn counters_are_monotone_in_scan_depth() {
    // Evaluating prefixes of a ranked list of independent tuples: the
    // engine behaves identically on the shared prefix (nothing it does
    // looks ahead except the upper bound, which only grows with more
    // tuples), so every counter must be non-decreasing in the prefix
    // length. Rules are excluded because truncating one changes its mass
    // and with it the behaviour on the shared prefix.
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for trial in 0..20 {
        let n = rng.random_range(2..=14usize);
        let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
        let k = rng.random_range(1..=4usize);
        let threshold = rng.random_range(0.1..=0.9f64);
        let mut prev = ptk_engine::ExecStats::default();
        for m in 1..=n {
            let view = RankedView::from_ranked_probs(&probs[..m], &[]).unwrap();
            let result = evaluate_ptk(&view, k, threshold, &EngineOptions::default());
            let s = result.stats;
            assert!(
                s.scanned >= prev.scanned
                    && s.evaluated >= prev.evaluated
                    && s.pruned_membership >= prev.pruned_membership
                    && s.pruned_rule >= prev.pruned_rule
                    && s.dp_cells >= prev.dp_cells
                    && s.entries_recomputed >= prev.entries_recomputed,
                "trial {trial} m={m}: counters regressed: {s:?} after {prev:?}"
            );
            prev = s;
        }
    }
}

#[test]
fn registry_accumulates_across_queries() {
    // The registry is cumulative: recording the same query N times yields
    // exactly N times the single-run counters (monotone, no resets).
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    let view = random_view(&mut rng, 12);
    let options = EngineOptions::default();

    let single = Metrics::new();
    execute_recorded(&view, 3, 0.4, &options, &single);
    let single = single.snapshot();

    let repeated = Metrics::new();
    for _ in 0..3 {
        execute_recorded(&view, 3, 0.4, &options, &repeated);
    }
    let repeated = repeated.snapshot();

    for (name, &value) in &single.counters {
        assert_eq!(
            repeated.counter(name),
            3 * value,
            "counter {name} is not cumulative"
        );
    }
    assert!(
        single.counter(counters::SCANNED) > 0,
        "sanity: scan recorded"
    );
}

#[test]
fn wrapper_delegates_to_executor_bit_for_bit() {
    // Parity matrix, shortcut axis: the `evaluate_ptk` one-call form
    // must be indistinguishable from planning + executing by hand over a
    // `ViewSource` — bit-identical answers (rank, id, score, Pr^k), the
    // full per-position probability vector, and every counter (scan
    // depth, DP-cell count, recompute cost, stop reason) — across all
    // three sharing variants, with and without pruning.
    let mut rng = StdRng::seed_from_u64(0x5eed_0008);
    for trial in 0..30 {
        let view = random_view(&mut rng, 12);
        let k = rng.random_range(1..=4usize);
        let threshold = rng.random_range(0.05..=0.95f64);
        for pruning in [false, true] {
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let options = EngineOptions {
                    variant,
                    pruning,
                    ub_check_interval: 1,
                };
                let wrapper = evaluate_ptk(&view, k, threshold, &options);

                let plan = PtkPlan::try_new(k, threshold, &options).unwrap();
                let mut source = ViewSource::new(&view);
                let mut direct = PtkExecutor::new(&plan).execute(&mut source);
                // The wrapper pads the probability vector out to the full
                // view length; mirror that before comparing.
                direct.probabilities.resize(view.len(), None);

                let ctx = format!("trial {trial} k={k} {variant:?} pruning={pruning}");
                assert_eq!(wrapper.answers, direct.answers, "{ctx}: answers");
                assert_eq!(
                    wrapper.probabilities, direct.probabilities,
                    "{ctx}: probabilities"
                );
                assert_eq!(wrapper.stats, direct.stats, "{ctx}: stats");
            }
        }
    }
}

#[test]
fn lazy_cost_never_exceeds_aggressive_on_random_views() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for trial in 0..40 {
        let view = random_view(&mut rng, 14);
        let k = rng.random_range(1..=5usize);
        let cost = |variant| {
            let mut s = ptk_engine::Scanner::new(&view, k, variant);
            while s.step().is_some() {}
            s.entries_recomputed()
        };
        let ar = cost(SharingVariant::Aggressive);
        let lr = cost(SharingVariant::Lazy);
        let rc = cost(SharingVariant::Rc);
        assert!(lr <= ar, "trial {trial}: lazy {lr} > aggressive {ar}");
        assert!(ar <= rc, "trial {trial}: aggressive {ar} > rc {rc}");
    }
}
