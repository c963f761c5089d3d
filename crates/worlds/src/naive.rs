//! Naive exact query evaluation by possible-world enumeration.
//!
//! These functions apply the query to every possible world (Eq. 2 of the
//! paper, and the corresponding definitions of U-TopK / U-KRanks from
//! Soliman et al.). They are exponential in the input size and exist as the
//! ground-truth oracle for the efficient engines.

use ptk_core::RankedView;

use crate::{enumerate, TooManyWorlds};

/// Exact top-k probability `Pr^k(t)` of every tuple, indexed by ranked
/// position, computed by enumerating all possible worlds.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn topk_probabilities(view: &RankedView, k: usize) -> Result<Vec<f64>, TooManyWorlds> {
    let mut pr = vec![0.0; view.len()];
    for world in enumerate(view)? {
        for &pos in world.top_k(k) {
            pr[pos] += world.prob;
        }
    }
    Ok(pr)
}

/// Exact rank probabilities: `pr[pos][j]` is the probability that the
/// tuple at ranked position `pos` is ranked *exactly* `j+1`-th (0-based `j`)
/// in a possible world, for `j < k`.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn rank_probabilities(view: &RankedView, k: usize) -> Result<Vec<Vec<f64>>, TooManyWorlds> {
    let mut pr = vec![vec![0.0; k]; view.len()];
    for world in enumerate(view)? {
        for (j, &pos) in world.top_k(k).iter().enumerate() {
            pr[pos][j] += world.prob;
        }
    }
    Ok(pr)
}

/// The exact PT-k answer: ranked positions whose top-k probability is at
/// least `threshold`, in ranking order.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn ptk_answer(
    view: &RankedView,
    k: usize,
    threshold: f64,
) -> Result<Vec<usize>, TooManyWorlds> {
    let pr = topk_probabilities(view, k)?;
    Ok((0..view.len()).filter(|&i| pr[i] >= threshold).collect())
}

/// The exact U-TopK answer: the length-`k` (or shorter, if no world has `k`
/// tuples with positive probability) vector of ranked positions that is the
/// top-k list of possible worlds with the highest total probability, plus
/// that probability.
///
/// Ties between vectors are broken toward the lexicographically smallest
/// vector so the result is deterministic.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn utopk(view: &RankedView, k: usize) -> Result<(Vec<usize>, f64), TooManyWorlds> {
    use std::collections::HashMap;
    let mut by_vector: HashMap<Vec<usize>, f64> = HashMap::new();
    for world in enumerate(view)? {
        *by_vector.entry(world.top_k(k).to_vec()).or_insert(0.0) += world.prob;
    }
    let mut best: Option<(Vec<usize>, f64)> = None;
    for (vector, prob) in by_vector {
        let better = match &best {
            None => true,
            Some((bv, bp)) => prob > *bp + 1e-15 || ((prob - bp).abs() <= 1e-15 && vector < *bv),
        };
        if better {
            best = Some((vector, prob));
        }
    }
    Ok(best.unwrap_or((Vec::new(), 0.0)))
}

/// The exact U-KRanks answer: for each rank `j ∈ 1..=k`, the ranked position
/// with the highest probability of being ranked exactly `j`-th, plus that
/// probability. Entry `j-1` of the result corresponds to rank `j`.
///
/// Ties are broken toward the higher-ranked (smaller) position.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn ukranks(view: &RankedView, k: usize) -> Result<Vec<(usize, f64)>, TooManyWorlds> {
    let pr = rank_probabilities(view, k)?;
    let mut answer = Vec::with_capacity(k);
    #[allow(clippy::needless_range_loop)] // paired indices into pr and view
    for j in 0..k {
        let mut best_pos = 0;
        let mut best_prob = f64::NEG_INFINITY;
        for pos in 0..view.len() {
            if pr[pos][j] > best_prob + 1e-15 {
                best_pos = pos;
                best_prob = pr[pos][j];
            }
        }
        answer.push((best_pos, best_prob.max(0.0)));
    }
    Ok(answer)
}

/// The exact Global-Topk answer: the `k` ranked positions with the highest
/// top-k probability `Pr^k`, in descending `Pr^k` order, each with its
/// probability.
///
/// Ties are broken toward the higher-ranked (smaller) position.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn global_topk(view: &RankedView, k: usize) -> Result<Vec<(usize, f64)>, TooManyWorlds> {
    let pr = topk_probabilities(view, k)?;
    let mut order: Vec<usize> = (0..view.len()).collect();
    order.sort_by(|&a, &b| pr[b].total_cmp(&pr[a]).then(a.cmp(&b)));
    order.truncate(k);
    Ok(order.into_iter().map(|pos| (pos, pr[pos])).collect())
}

/// The exact expected rank of every tuple (indexed by ranked position), by
/// enumeration: in a world containing the tuple its rank is the (0-based)
/// number of tuples above it; in a world missing the tuple its rank is the
/// world's size `|W|` (Cormode et al.'s bottom-rank convention).
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn expected_ranks(view: &RankedView) -> Result<Vec<f64>, TooManyWorlds> {
    let mut out = vec![0.0; view.len()];
    for world in enumerate(view)? {
        // `world.members` holds present positions in ranking order.
        let mut present = vec![false; view.len()];
        for (rank, &pos) in world.members.iter().enumerate() {
            present[pos] = true;
            out[pos] += world.prob * rank as f64;
        }
        let size = world.members.len() as f64;
        for (pos, was_present) in present.iter().enumerate() {
            if !was_present {
                out[pos] += world.prob * size;
            }
        }
    }
    Ok(out)
}

/// The exact expected-rank top-k answer: the `k` ranked positions with the
/// smallest expected rank (see [`expected_ranks`]), ascending, each with
/// its expected rank. Ties are broken toward the higher-ranked (smaller)
/// position.
///
/// # Errors
/// Returns [`TooManyWorlds`] if the view exceeds the enumeration budget.
pub fn expected_rank_topk(view: &RankedView, k: usize) -> Result<Vec<(usize, f64)>, TooManyWorlds> {
    let ranks = expected_ranks(view)?;
    let mut order: Vec<usize> = (0..view.len()).collect();
    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b)));
    order.truncate(k);
    Ok(order.into_iter().map(|pos| (pos, ranks[pos])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panda example (Table 1) in ranked order; see Table 2/3 of the paper.
    /// Positions: 0=R1, 1=R2, 2=R5, 3=R3, 4=R4, 5=R6.
    fn panda() -> RankedView {
        RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
            .unwrap()
    }

    #[test]
    fn panda_top2_probabilities_match_table_3() {
        let pr = topk_probabilities(&panda(), 2).unwrap();
        // Table 3: R1 0.3, R2 0.4, R3 0.38, R4 0.202, R5 0.704, R6 0.014.
        assert!((pr[0] - 0.3).abs() < 1e-12, "R1: {}", pr[0]);
        assert!((pr[1] - 0.4).abs() < 1e-12, "R2: {}", pr[1]);
        assert!((pr[3] - 0.38).abs() < 1e-12, "R3: {}", pr[3]);
        assert!((pr[4] - 0.202).abs() < 1e-12, "R4: {}", pr[4]);
        assert!((pr[2] - 0.704).abs() < 1e-12, "R5: {}", pr[2]);
        assert!((pr[5] - 0.014).abs() < 1e-12, "R6: {}", pr[5]);
    }

    #[test]
    fn panda_ptk_answer_at_035_matches_example_1() {
        // Example 1: with p = 0.35, {R2, R3, R5} is returned.
        let ans = ptk_answer(&panda(), 2, 0.35).unwrap();
        assert_eq!(ans, vec![1, 2, 3]); // positions of R2, R5, R3
    }

    #[test]
    fn panda_utopk_matches_section_1() {
        // Section 1: U-TopK on Table 1 returns <R5, R3>. Ranked positions:
        // R5 = 2, R3 = 3. As a top-2 *set in ranking order* that is [2, 3],
        // from world W9 = {R3, R4, R5} with probability 0.28.
        let (vector, prob) = utopk(&panda(), 2).unwrap();
        assert_eq!(vector, vec![2, 3]);
        assert!((prob - 0.28).abs() < 1e-12);
    }

    #[test]
    fn panda_ukranks_matches_section_1() {
        // Section 1: U-KRanks returns <R5, R5> — R5 is the most probable
        // tuple both at rank 1 and rank 2.
        let ans = ukranks(&panda(), 2).unwrap();
        assert_eq!(ans[0].0, 2);
        assert_eq!(ans[1].0, 2);
        // Pr(R5 ranked 1st) = worlds where R5 present, R1 and R2 absent:
        // W9 (0.28) + W11 (0.056) = 0.336.
        assert!((ans[0].1 - 0.336).abs() < 1e-12);
    }

    #[test]
    fn rank_probabilities_sum_to_topk_probability() {
        let view = panda();
        let pos = rank_probabilities(&view, 2).unwrap();
        let topk = topk_probabilities(&view, 2).unwrap();
        for i in 0..view.len() {
            let s: f64 = pos[i].iter().sum();
            assert!((s - topk[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn topk_probability_bounded_by_membership() {
        let view = panda();
        let pr = topk_probabilities(&view, 2).unwrap();
        for (i, t) in view.tuples().iter().enumerate() {
            assert!(pr[i] <= t.prob + 1e-12);
        }
    }

    #[test]
    fn total_topk_mass_equals_expected_min() {
        // Σ_t Pr^k(t) = E[min(k, |W|)]: with k larger than any world, it is
        // the expected world size.
        let view = RankedView::from_ranked_probs(&[0.5, 0.8, 0.3], &[]).unwrap();
        let pr = topk_probabilities(&view, 10).unwrap();
        let total: f64 = pr.iter().sum();
        assert!((total - (0.5 + 0.8 + 0.3)).abs() < 1e-12);
    }

    #[test]
    fn k_one_reduces_to_first_place_probability() {
        // Pr^1(t_i) for independent tuples = Pr(t_i) Π_{j<i} (1 - Pr(t_j)).
        let probs = [0.4, 0.9, 0.5];
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let pr = topk_probabilities(&view, 1).unwrap();
        assert!((pr[0] - 0.4).abs() < 1e-12);
        assert!((pr[1] - 0.9 * 0.6).abs() < 1e-12);
        assert!((pr[2] - 0.5 * 0.6 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn utopk_on_empty_view() {
        let view = RankedView::from_ranked_probs(&[], &[]).unwrap();
        let (v, p) = utopk(&view, 3).unwrap();
        assert!(v.is_empty());
        assert!((p - 1.0).abs() < 1e-12); // the empty top-k list is certain
    }
}
