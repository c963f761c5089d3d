//! Property tests for the deconvolution behind the generating-function
//! core's incremental rows, and for the upper-bound early exit under the
//! near-one rule masses where that inversion is least stable.
//!
//! `deconvolve` removes one tuple's contribution from a subset-probability
//! DP row. Near `q = 1` the recurrence divides by `1 − q` and is
//! numerically unstable; the engine's contract is that `deconvolve` either
//! returns an accurate row or `None` (never a silently wrong row), because
//! `GfState` falls back to the exact refold on `None`.
//!
//! The early exit no longer deconvolves at all: the pool row's prefix sums
//! bound every unseen tuple, a future member of an open rule included (its
//! membership is at most `1 − m_R`). The per-open-rule test it replaced
//! counted an uncertifiable rule as "may still reach" and held the scan
//! open until the rule completed; the last test here pins that it no
//! longer does.

use ptk_access::ViewSource;
use ptk_core::check::{check, Config};
use ptk_core::rng::{RngExt, StdRng};
use ptk_core::{prop_assert, prop_assert_eq, RankedView};
use ptk_engine::dp::{convolve, deconvolve, partial_sum, poisson_binomial, DECONVOLVE_MASS_SLACK};
use ptk_engine::{
    evaluate_ptk, EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SharingVariant, StopReason,
};
use ptk_worlds::naive;

/// Deltas that straddle the `1 − q < 1e-6` guard inside `deconvolve`:
/// exactly on it, just above, just below, and comfortably clear.
const ADVERSARIAL_DELTAS: [f64; 5] = [0.0, 5e-7, 1e-6, 2e-6, 1e-3];

/// A random DP row: the Poisson-binomial distribution of random tuples,
/// truncated at `k` — exactly the rows the scanner maintains.
fn random_row(rng: &mut StdRng, size: usize) -> Vec<f64> {
    let n = rng.random_range(1..=size.max(1));
    let k = rng.random_range(1..=n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..=0.99f64)).collect();
    poisson_binomial(probs, k)
}

#[test]
fn deconvolve_inverts_convolve_or_declines() {
    check(
        "deconvolve ∘ convolve = id (when it answers at all)",
        Config::cases(200).sizes(1, 12).seed(0xdec0_0001),
        |rng, size| {
            let row = random_row(rng, size);
            // Mix well-conditioned probabilities with adversarial
            // near-one masses straddling the guard.
            let q = if rng.random_range(0.0..1.0f64) < 0.5 {
                rng.random_range(0.01..=0.5f64)
            } else {
                1.0 - ADVERSARIAL_DELTAS[rng.random_range(0..ADVERSARIAL_DELTAS.len())]
            };
            let folded = convolve(&row, q);
            match deconvolve(&folded, q) {
                None => Ok(()), // declining is always allowed
                Some(recovered) => {
                    prop_assert_eq!(recovered.len(), row.len(), "length changed");
                    // Pruning relies on the recovered row not having *lost*
                    // more mass than the slack the upper bound adds back:
                    // a smaller partial sum shrinks the bound, which could
                    // wrongly prune a real answer. Gained mass only delays
                    // the exit, so it needs no bound here. Asserting an
                    // order of magnitude under the slack keeps the margin
                    // honest.
                    prop_assert!(
                        partial_sum(&recovered) >= partial_sum(&row) - DECONVOLVE_MASS_SLACK / 10.0,
                        "mass shed: {} < {} (q = {q})",
                        partial_sum(&recovered),
                        partial_sum(&row)
                    );
                    // For q ≤ 1/2 the recurrence error contracts (factor
                    // q/(1−q) ≤ 1 per entry), so the inversion is also
                    // entrywise tight. Near q = 1 the condition number
                    // (q/(1−q))^j makes that claim unprovable, which is
                    // why only the mass bound is asserted there.
                    if q <= 0.5 {
                        for (j, (&got, &want)) in recovered.iter().zip(&row).enumerate() {
                            prop_assert!(
                                (got - want).abs() <= 1e-9,
                                "entry {j}: recovered {got} vs original {want} (q = {q})"
                            );
                        }
                    }
                    Ok(())
                }
            }
        },
    );
}

#[test]
fn deconvolve_answers_are_consistent_with_convolve() {
    // The stronger direction: whatever row deconvolve returns for an
    // *arbitrary* input (not necessarily a true convolution), folding the
    // tuple back in must reproduce that input. This is the property the
    // relative-error bound enforces; before it, clamp-induced drift could
    // return rows violating it by orders of magnitude.
    check(
        "convolve(deconvolve(row, q), q) = row",
        Config::cases(200).sizes(1, 12).seed(0xdec0_0002),
        |rng, size| {
            let n = rng.random_range(1..=size.max(1));
            let row: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..=1.0f64)).collect();
            let q = 1.0 - ADVERSARIAL_DELTAS[rng.random_range(0..ADVERSARIAL_DELTAS.len())];
            if let Some(out) = deconvolve(&row, q) {
                let refolded = convolve(&out, q);
                for (j, (&got, &want)) in refolded.iter().zip(&row).enumerate() {
                    prop_assert!(
                        (got - want).abs() <= 1e-5 * want.abs() + 1e-9,
                        "entry {j}: refolded {got} vs input {want} (q = {q})"
                    );
                }
            }
            Ok(())
        },
    );
}

/// A small random view whose rules carry adversarial near-one masses.
fn adversarial_view(rng: &mut StdRng, size: usize) -> RankedView {
    let n = rng.random_range(2..=size.max(2));
    let mut probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=0.95f64)).collect();
    let mut positions: Vec<usize> = (0..n).collect();
    for i in (1..positions.len()).rev() {
        let j = rng.random_range(0..=i);
        positions.swap(i, j);
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < positions.len() {
        if rng.random_range(0.0..1.0f64) < 0.6 {
            let mass = 1.0 - ADVERSARIAL_DELTAS[rng.random_range(0..ADVERSARIAL_DELTAS.len())];
            let split = rng.random_range(0.05..=0.95f64);
            let (a, b) = (positions[cursor], positions[cursor + 1]);
            probs[a] = mass * split;
            probs[b] = mass * (1.0 - split);
            groups.push(vec![a, b]);
            cursor += 2;
        } else {
            cursor += 1;
        }
    }
    RankedView::from_ranked_probs(&probs, &groups).unwrap()
}

#[test]
fn upper_bound_early_exit_stays_conservative_under_adversarial_masses() {
    // Rules with mass 1 − δ for δ near the deconvolution guard drive the
    // prefix-sharing DP through its least stable regime. With
    // `ub_check_interval: 1` the early-exit bound is consulted after every
    // tuple, so a non-conservative bound would drop answers the naive
    // possible-world oracle still finds.
    check(
        "early exit never drops an answer",
        Config::cases(120).sizes(2, 9).seed(0xdec0_0003),
        |rng, size| {
            let view = adversarial_view(rng, size);
            let k = rng.random_range(1..=4usize.min(view.len()));
            let threshold = rng.random_range(0.05..=0.95f64);
            let oracle = naive::ptk_answer(&view, k, threshold)
                .map_err(|e| format!("oracle failed: {e}"))?;
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let options = EngineOptions {
                    variant,
                    pruning: true,
                    ub_check_interval: 1,
                };
                let result = evaluate_ptk(&view, k, threshold, &options);
                prop_assert_eq!(
                    &result.answer_ranks(),
                    &oracle,
                    "{variant:?} k={k} p={threshold}: engine disagrees with enumeration"
                );
            }
            Ok(())
        },
    );
}

/// A rule whose first member carries mass `1 − 1e-7` — inside
/// `deconvolve`'s `1 − q < 1e-6` guard, so it can never be deconvolved out
/// — and whose last member comes only after a long tail of independents.
fn heavy_open_rule_view(tail: usize) -> RankedView {
    let mut probs = vec![1.0 - 1e-7];
    probs.extend(std::iter::repeat_n(0.2, tail));
    probs.push(1e-7);
    RankedView::from_ranked_probs(&probs, &[vec![0, tail + 1]]).unwrap()
}

#[test]
fn an_uncertifiable_open_rule_does_not_hold_the_scan_open() {
    // Once a few 0.2 tuples sit under the heavy rule, no unseen tuple can
    // reach the target, and the pool row says so at the first check. The
    // per-open-rule test could not deconvolve the rule out, counted its
    // future member as reaching, and so read all 1,002 tuples: the rule
    // completes only at the last one.
    let view = heavy_open_rule_view(1_000);
    let options = EngineOptions::default();
    let full = EngineOptions::without_pruning(SharingVariant::Lazy);

    let exact = evaluate_ptk(&view, 2, 0.3, &options);
    assert_eq!(exact.stats.stop, Some(StopReason::UpperBound));
    assert_eq!(exact.stats.scanned, options.ub_check_interval);
    let all = evaluate_ptk(&view, 2, 0.3, &full);
    assert_eq!(exact.answer_ranks(), all.answer_ranks());
    assert_eq!(exact.answer_ranks(), vec![0]);

    for semantics in [RankSemantics::GlobalTopk, RankSemantics::UKRanks] {
        let answer = |options: &EngineOptions| {
            let plan = PtkPlan::try_semantics(semantics, 2, None, options).unwrap();
            let metrics = ptk_obs::Metrics::counters_only();
            let answer = PtkExecutor::with_recorder(&plan, &metrics)
                .execute_semantics(&mut ViewSource::new(&view))
                .unwrap();
            let rows: Vec<(usize, u64)> = answer
                .rows()
                .unwrap()
                .iter()
                .map(|r| (r.position, r.value.to_bits()))
                .collect();
            (
                rows,
                ptk_engine::ExecStats::from_snapshot(&metrics.snapshot()),
            )
        };
        let (rows, stats) = answer(&options);
        let (all_rows, _) = answer(&full);
        assert_eq!(rows, all_rows, "{semantics:?}");
        assert_eq!(stats.stop, Some(StopReason::UpperBound), "{semantics:?}");
        assert_eq!(stats.scanned, options.ub_check_interval, "{semantics:?}");
    }
}
