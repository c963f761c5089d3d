//! Property-based tests of the workspace's core invariants, on the in-repo
//! deterministic harness ([`ptk::check`]).
//!
//! Strategy: the harness drives a seeded RNG and a size budget; a
//! deterministic builder turns them into a random uncertain ranked view
//! with disjoint rules. Every invariant is checked against the
//! possible-world enumeration oracle where one exists.

mod common;

use common::random_view;
use ptk::check::{check, Config};
use ptk::rng::{RngCore, RngExt};
use ptk::{prop_assert, prop_assert_eq};

use ptk::engine::{dp, evaluate_ptk, topk_probabilities, EngineOptions, Scanner, SharingVariant};
use ptk::worlds::{enumerate, naive};

/// World probabilities are a distribution: nonnegative, summing to 1.
#[test]
fn world_probabilities_form_a_distribution() {
    check(
        "world distribution",
        Config::cases(64).sizes(1, 10),
        |rng, size| {
            let view = random_view(rng.next_u64(), size);
            let worlds = enumerate(&view).unwrap();
            let total: f64 = worlds.iter().map(|w| w.prob).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(worlds.iter().all(|w| w.prob >= 0.0));
            Ok(())
        },
    );
}

/// Σ_t Pr^k(t) = E[min(k, |W|)] — the total top-k mass equals the
/// expected size of the (possibly short) top-k list.
#[test]
fn total_topk_mass_is_expected_list_size() {
    check(
        "total top-k mass",
        Config::cases(64).sizes(1, 10),
        |rng, size| {
            let k = rng.random_range(1..6usize);
            let view = random_view(rng.next_u64(), size);
            let (pr, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
            let total: f64 = pr.iter().sum();
            let expected: f64 = enumerate(&view)
                .unwrap()
                .iter()
                .map(|w| w.prob * w.len().min(k) as f64)
                .sum();
            prop_assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
            Ok(())
        },
    );
}

/// Pr^k(t) <= Pr(t) (the premise of Theorem 3), and Pr^k is monotone in k.
#[test]
fn topk_probability_bounds() {
    check(
        "top-k probability bounds",
        Config::cases(64).sizes(1, 10),
        |rng, size| {
            let view = random_view(rng.next_u64(), size);
            let (pr2, _) = topk_probabilities(&view, 2, SharingVariant::Lazy);
            let (pr4, _) = topk_probabilities(&view, 4, SharingVariant::Lazy);
            for pos in 0..view.len() {
                prop_assert!(pr2[pos] <= view.prob(pos) + 1e-12);
                prop_assert!(pr2[pos] <= pr4[pos] + 1e-12, "Pr^k must grow with k");
                prop_assert!(pr2[pos] >= -1e-12);
            }
            Ok(())
        },
    );
}

/// The engine equals the enumeration oracle for every sharing variant.
#[test]
fn engine_matches_oracle() {
    check(
        "engine vs oracle",
        Config::cases(64).sizes(1, 9),
        |rng, size| {
            let k = rng.random_range(1..5usize);
            let view = random_view(rng.next_u64(), size);
            let oracle = naive::topk_probabilities(&view, k).unwrap();
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let (pr, _) = topk_probabilities(&view, k, variant);
                for pos in 0..view.len() {
                    prop_assert!(
                        (pr[pos] - oracle[pos]).abs() < 1e-10,
                        "{variant:?} pos {pos}: {} vs {}",
                        pr[pos],
                        oracle[pos]
                    );
                }
            }
            Ok(())
        },
    );
}

/// Pruning never changes the answer set.
#[test]
fn pruning_is_sound() {
    check(
        "pruning soundness",
        Config::cases(64).sizes(1, 10),
        |rng, size| {
            let k = rng.random_range(1..5usize);
            let p = rng.random_range(0.05..0.95f64);
            let view = random_view(rng.next_u64(), size);
            let with = evaluate_ptk(
                &view,
                k,
                p,
                &EngineOptions {
                    ub_check_interval: 1,
                    ..Default::default()
                },
            );
            let without = evaluate_ptk(
                &view,
                k,
                p,
                &EngineOptions::without_pruning(SharingVariant::Lazy),
            );
            prop_assert_eq!(with.answers, without.answers);
            // And pruning never scans more than the full list.
            prop_assert!(with.stats.scanned <= without.stats.scanned);
            Ok(())
        },
    );
}

/// Rank probabilities `Pr(t) · Pr(T(t), j)` (Eq. 3, read off the
/// Scanner's per-rank rows) are consistent: rows sum to Pr^k, and each
/// column sums to at most 1 (at most one tuple occupies each rank).
#[test]
fn rank_probabilities_are_consistent() {
    check(
        "rank probabilities",
        Config::cases(64).sizes(1, 9),
        |rng, size| {
            let k = rng.random_range(1..5usize);
            let view = random_view(rng.next_u64(), size);
            let mut scanner = Scanner::new(&view, k, SharingVariant::Lazy);
            let mut pos_pr = Vec::with_capacity(view.len());
            while let Some(pos) = scanner.position() {
                let step = scanner.step().unwrap();
                pos_pr.push(
                    step.row
                        .iter()
                        .map(|&s| view.prob(pos) * s)
                        .collect::<Vec<_>>(),
                );
            }
            let (topk, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
            for pos in 0..view.len() {
                let row_sum: f64 = pos_pr[pos].iter().sum();
                prop_assert!((row_sum - topk[pos]).abs() < 1e-10);
            }
            #[allow(clippy::needless_range_loop)]
            for j in 0..k {
                let col_sum: f64 = (0..view.len()).map(|i| pos_pr[i][j]).sum();
                prop_assert!(col_sum <= 1.0 + 1e-9, "rank {j} oversubscribed: {col_sum}");
            }
            Ok(())
        },
    );
}

/// The lazy ordering never recomputes more DP entries than the
/// aggressive ordering, which never exceeds no sharing at all (§4.3.2).
#[test]
fn sharing_cost_ordering() {
    check(
        "sharing cost ordering",
        Config::cases(64).sizes(1, 14),
        |rng, size| {
            let k = rng.random_range(1..5usize);
            let view = random_view(rng.next_u64(), size);
            let cost = |variant| {
                let mut s = Scanner::new(&view, k, variant);
                while s.step().is_some() {}
                s.entries_recomputed()
            };
            let rc = cost(SharingVariant::Rc);
            let ar = cost(SharingVariant::Aggressive);
            let lr = cost(SharingVariant::Lazy);
            prop_assert!(lr <= ar);
            prop_assert!(ar <= rc);
            Ok(())
        },
    );
}

/// DP deconvolution inverts convolution away from the unstable region.
#[test]
fn deconvolve_inverts_convolve() {
    check(
        "deconvolve inverts convolve",
        Config::cases(64).sizes(1, 11),
        |rng, size| {
            let probs: Vec<f64> = (0..size).map(|_| rng.random_range(0.01..0.95f64)).collect();
            let q = rng.random_range(0.01..0.95f64);
            let k = rng.random_range(1..8usize);
            let base = dp::poisson_binomial(probs.iter().copied(), k);
            let with = dp::convolve(&base, q);
            let back = dp::deconvolve(&with, q).unwrap();
            for (a, b) in back.iter().zip(base.iter()) {
                prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
            }
            Ok(())
        },
    );
}

/// A DP row is a (truncated) probability distribution.
#[test]
fn dp_rows_are_distributions() {
    check(
        "dp rows are distributions",
        Config::cases(64).sizes(0, 14),
        |rng, size| {
            let probs: Vec<f64> = (0..size).map(|_| rng.random_range(0.0..=1.0f64)).collect();
            let k = rng.random_range(1..6usize);
            let row = dp::poisson_binomial(probs.iter().copied(), k);
            let sum: f64 = row.iter().sum();
            prop_assert!(row.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
            prop_assert!(sum <= 1.0 + 1e-9);
            if probs.len() < k {
                prop_assert!((sum - 1.0).abs() < 1e-9, "untruncated row must sum to 1");
            }
            Ok(())
        },
    );
}

/// The UB-based early exit is exercised at every interval setting
/// without changing answers.
#[test]
fn ub_interval_does_not_change_answers() {
    check(
        "UB interval invariance",
        Config::cases(64).sizes(1, 12),
        |rng, size| {
            let interval = rng.random_range(1..8usize);
            let view = random_view(rng.next_u64(), size);
            let a = evaluate_ptk(
                &view,
                3,
                0.4,
                &EngineOptions {
                    ub_check_interval: interval,
                    ..Default::default()
                },
            );
            let b = evaluate_ptk(
                &view,
                3,
                0.4,
                &EngineOptions::without_pruning(SharingVariant::Lazy),
            );
            prop_assert_eq!(a.answers, b.answers);
            Ok(())
        },
    );
}
