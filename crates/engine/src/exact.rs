//! The one-call PT-k form for a materialized view, and the full-scan
//! top-k distribution.
//!
//! [`evaluate_ptk`] plans the query and runs the shared [`PtkExecutor`]
//! over a [`ViewSource`] wrapping the [`RankedView`] — the view path is the
//! source path specialized to in-memory retrieval, and the parity tests pin
//! the two to bit equality. [`topk_probabilities`] drives the [`Scanner`]
//! directly because it needs every tuple's `Pr^k`, not just the thresholded
//! answers.

use ptk_access::ViewSource;
use ptk_core::RankedView;

use crate::exec::{PtkExecutor, PtkResult};
use crate::plan::{EngineOptions, PtkPlan, SharingVariant};
use crate::scanner::Scanner;
use crate::stats::ExecStats;

/// Answers a PT-k query: returns the tuples (as ranked positions, via
/// [`PtkResult::answer_ranks`]) whose top-k probability is at least
/// `threshold`.
///
/// This is the paper's exact algorithm (Figure 3): one scan of the ranked
/// list, rule-tuple compression, prefix-shared subset-probability DP, and —
/// when [`EngineOptions::pruning`] is set — the pruning rules of §4.4.
/// Shorthand for [`PtkPlan::try_new`] and [`PtkExecutor::execute`] over a
/// [`ViewSource`], with [`PtkResult::probabilities`] padded with `None` to
/// the view's length so `probabilities[pos]` indexes every ranked position.
///
/// # Panics
/// Panics if `k == 0` or `threshold` is not in `(0, 1]`. Build the plan
/// with [`PtkPlan::try_new`] when the parameters come from user input.
pub fn evaluate_ptk(
    view: &RankedView,
    k: usize,
    threshold: f64,
    options: &EngineOptions,
) -> PtkResult {
    let plan = PtkPlan::try_new(k, threshold, options).unwrap_or_else(|e| panic!("{e}"));
    let mut result = PtkExecutor::new(&plan).execute(&mut ViewSource::new(view));
    // Pad the tail the early stop never scanned.
    result.probabilities.resize(view.len(), None);
    result
}

/// Computes the exact top-k probability of **every** tuple in the view
/// (no threshold, no pruning): `result[pos] = Pr^k` of the tuple at `pos`.
///
/// Used by the sampling-quality experiments (ground truth) and by callers
/// that want the full distribution rather than a thresholded answer set.
pub fn topk_probabilities(
    view: &RankedView,
    k: usize,
    variant: SharingVariant,
) -> (Vec<f64>, ExecStats) {
    let mut scanner = Scanner::new(view, k, variant);
    let mut out = Vec::with_capacity(view.len());
    while let Some(pos) = scanner.position() {
        let prob = view.prob(pos);
        let step = scanner.step().expect("position() was Some");
        out.push(prob * step.partial_sum());
    }
    let stats = ExecStats {
        scanned: view.len(),
        evaluated: view.len(),
        dp_cells: scanner.dp_cells(),
        entries_recomputed: scanner.entries_recomputed(),
        ..Default::default()
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panda example, ranked: R1 (0.3), R2 (0.4), R5 (0.8), R3 (0.5),
    /// R4 (1.0), R6 (0.2); rules {1,3} and {2,5}.
    fn panda() -> RankedView {
        RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
            .unwrap()
    }

    #[test]
    fn panda_topk_probabilities_match_table_3() {
        let view = panda();
        let (pr, stats) = topk_probabilities(&view, 2, SharingVariant::Lazy);
        let expected = [0.3, 0.4, 0.704, 0.38, 0.202, 0.014];
        for (i, e) in expected.iter().enumerate() {
            assert!((pr[i] - e).abs() < 1e-12, "pos {i}: {} vs {e}", pr[i]);
        }
        assert_eq!(stats.scanned, 6);
        assert_eq!(stats.evaluated, 6);
    }

    #[test]
    fn panda_ptk_matches_example_1() {
        let view = panda();
        for pruning in [false, true] {
            let options = EngineOptions {
                pruning,
                ub_check_interval: 1,
                ..Default::default()
            };
            let result = evaluate_ptk(&view, 2, 0.35, &options);
            assert_eq!(result.answer_ranks(), vec![1, 2, 3], "pruning = {pruning}");
        }
    }

    #[test]
    fn pruned_probabilities_are_below_threshold() {
        let view = panda();
        let result = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
        let ranks = result.answer_ranks();
        for (pos, p) in result.probabilities.iter().enumerate() {
            if let Some(p) = p {
                let is_answer = ranks.contains(&pos);
                assert_eq!(*p >= 0.35, is_answer);
            }
        }
    }

    #[test]
    fn variants_agree_on_answers() {
        let view = panda();
        for variant in [
            SharingVariant::Rc,
            SharingVariant::Aggressive,
            SharingVariant::Lazy,
        ] {
            let result = evaluate_ptk(&view, 2, 0.35, &EngineOptions::with_variant(variant));
            assert_eq!(result.answer_ranks(), vec![1, 2, 3], "{variant:?}");
        }
    }

    #[test]
    fn answers_carry_ids_and_membership() {
        let view = panda();
        let result = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
        for a in &result.answers {
            assert_eq!(a.id, view.tuple(a.rank).id);
            assert_eq!(Some(a.probability), result.probabilities[a.rank]);
            assert!(a.probability <= view.prob(a.rank) + 1e-12);
        }
    }

    #[test]
    fn first_k_tuples_have_prk_equal_membership() {
        let view = RankedView::from_ranked_probs(&[0.9, 0.1, 0.5, 0.7], &[]).unwrap();
        let (pr, _) = topk_probabilities(&view, 3, SharingVariant::Lazy);
        assert!((pr[0] - 0.9).abs() < 1e-12);
        assert!((pr[1] - 0.1).abs() < 1e-12);
        assert!((pr[2] - 0.5).abs() < 1e-12);
        assert!(pr[3] < 0.7);
    }

    #[test]
    fn theorem5_stop_fires() {
        // Many near-certain tuples: once k answers hold nearly all the
        // top-k mass, the scan stops well before the end.
        let probs = vec![0.999; 200];
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let result = evaluate_ptk(&view, 5, 0.5, &EngineOptions::default());
        assert!(result.stats.stopped_early());
        assert!(result.stats.scanned < 200);
        assert_eq!(result.answer_ranks(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn theorem5_stop_allows_for_a_rule_over_mass_one() {
        // Rule {0, 2} sums to 1 + 1e-10, inside the model's tolerance, so
        // the top-2 probabilities may sum to a little more than k. The
        // first two answers alone hold more than k - p, yet the tuple at
        // position 2 still passes p: its Pr^2 is its membership, 2e-10.
        let view =
            RankedView::from_ranked_probs(&[0.9999999999, 0.99999999995, 2e-10], &[vec![0, 2]])
                .unwrap();
        let pruned = evaluate_ptk(&view, 2, 1.6e-10, &EngineOptions::default());
        let full = evaluate_ptk(
            &view,
            2,
            1.6e-10,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        );
        assert_eq!(pruned.answer_ranks(), vec![0, 1, 2]);
        assert_eq!(pruned.answers.len(), full.answers.len());
        for (a, b) in pruned.answers.iter().zip(&full.answers) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn upper_bound_stop_fires_without_theorem5() {
        // Moderate probabilities: the top-k mass never concentrates in the
        // answers (many tuples fail), but the partial-sum bound decays to
        // zero, so the UB stop must fire.
        let probs = vec![0.6; 400];
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let options = EngineOptions {
            ub_check_interval: 8,
            ..Default::default()
        };
        let result = evaluate_ptk(&view, 5, 0.9, &options);
        assert!(result.stats.stopped_early());
        assert!(
            result.stats.scanned < 400,
            "scanned {}",
            result.stats.scanned
        );
        // Answers must nevertheless be exact: compare against a full scan.
        let (pr, _) = topk_probabilities(&view, 5, SharingVariant::Lazy);
        let expected: Vec<usize> = (0..400).filter(|&i| pr[i] >= 0.9).collect();
        assert_eq!(result.answer_ranks(), expected);
    }

    #[test]
    fn membership_pruning_counts() {
        // A high-probability failing tuple ahead of low-probability tuples
        // triggers Theorem 3 on them.
        let mut probs = vec![0.95; 10];
        probs.extend(vec![0.3; 20]);
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let options = EngineOptions {
            ub_check_interval: 1000,
            ..Default::default()
        };
        let result = evaluate_ptk(&view, 3, 0.5, &options);
        // Exactness first.
        let (pr, _) = topk_probabilities(&view, 3, SharingVariant::Lazy);
        let expected: Vec<usize> = (0..30).filter(|&i| pr[i] >= 0.5).collect();
        assert_eq!(result.answer_ranks(), expected);
        assert!(result.stats.pruned_membership > 0 || result.stats.stopped_early());
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn threshold_validation() {
        let view = panda();
        let _ = evaluate_ptk(&view, 2, 0.0, &EngineOptions::default());
    }

    #[test]
    fn empty_view_yields_empty_answer() {
        let view = RankedView::from_ranked_probs(&[], &[]).unwrap();
        let result = evaluate_ptk(&view, 3, 0.5, &EngineOptions::default());
        assert!(result.answers.is_empty());
        assert_eq!(result.stats.scanned, 0);
        assert_eq!(result.answer_mass(), 0.0);
    }

    #[test]
    fn k_larger_than_view() {
        let view = panda();
        let result = evaluate_ptk(&view, 100, 0.1, &EngineOptions::default());
        // Every tuple is always in the top-100 of its world when present:
        // Pr^k = Pr(t), so answers are tuples with Pr(t) >= 0.1.
        assert_eq!(result.answer_ranks(), vec![0, 1, 2, 3, 4, 5]);
        for (pos, p) in result.probabilities.iter().enumerate() {
            assert!((p.unwrap() - view.prob(pos)).abs() < 1e-12);
        }
    }
}
