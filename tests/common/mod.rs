//! Shared helpers for the workspace integration tests.
#![allow(dead_code)] // each integration test binary uses a subset of these

use ptk::rng::{RngExt, SeedableRng, StdRng};

use ptk::{
    ExactOptions, PtkExecutor, PtkPlan, RankSemantics, RankedView, SemanticsAnswer, ViewSource,
};

/// Answers `semantics` at depth `k` over `view` through the engine's plan
/// and executor, with default options.
pub fn semantics_answer(view: &RankedView, semantics: RankSemantics, k: usize) -> SemanticsAnswer {
    let plan = PtkPlan::try_semantics(semantics, k, None, &ExactOptions::default())
        .expect("a non-PT-k plan with k >= 1");
    PtkExecutor::new(&plan)
        .execute_semantics(&mut ViewSource::new(view))
        .expect("every semantics answers")
}

/// The paper's running example (Table 1) in ranked order:
/// positions 0..=5 are R1 (0.3), R2 (0.4), R5 (0.8), R3 (0.5), R4 (1.0),
/// R6 (0.2), with rules R2⊕R3 = {1,3} and R5⊕R6 = {2,5}.
pub fn panda_view() -> RankedView {
    RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
        .expect("the paper's example is valid")
}

/// A random small ranked view driven by a seed: up to `max_n` tuples with
/// random probabilities and random disjoint rules of 2–4 members.
pub fn random_view(seed: u64, max_n: usize) -> RankedView {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..=max_n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
    let mut positions: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut positions);
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
    RankedView::from_ranked_probs(&probs, &groups).expect("generated view is valid")
}
