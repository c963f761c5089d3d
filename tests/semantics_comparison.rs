//! Cross-semantics integration tests: the four query semantics (PT-k,
//! U-TopK, U-KRanks, expected ranks) on the same inputs, checking the
//! structural relationships the paper's §6.1 discussion rests on.

mod common;

use common::{panda_view, random_view, semantics_answer};
use ptk::engine::{topk_probabilities, SharingVariant};
use ptk::worlds::naive;
use ptk::{RankSemantics, RankedView, SemanticsAnswer, SemanticsRow};

/// The U-TopK vector (ranked positions) and its probability.
fn utopk(view: &RankedView, k: usize) -> (Vec<usize>, f64) {
    match semantics_answer(view, RankSemantics::UTopK, k) {
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => (rows.iter().map(|r| r.position).collect(), probability),
        other => panic!("u-topk answered {:?}", other.semantics()),
    }
}

/// The rows of a U-KRanks or expected-rank answer.
fn ranked_rows(view: &RankedView, semantics: RankSemantics, k: usize) -> Vec<SemanticsRow> {
    semantics_answer(view, semantics, k)
        .rows()
        .expect("not a PT-k answer")
        .to_vec()
}

#[test]
fn utopk_vector_probability_never_exceeds_any_members_topk_probability() {
    // Pr(vector is exactly the top-k) <= Pr(t in top-k) for each member.
    for seed in 0..25u64 {
        let view = random_view(seed.wrapping_mul(7919), 10);
        let k = 1 + (seed % 4) as usize;
        let (vector, probability) = utopk(&view, k);
        let (pr, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
        for &pos in &vector {
            assert!(
                probability <= pr[pos] + 1e-10,
                "seed {seed}: vector prob {probability} > Pr^k({pos}) = {}",
                pr[pos]
            );
        }
    }
}

#[test]
fn ukranks_winners_have_positive_topk_probability() {
    for seed in 0..25u64 {
        let view = random_view(seed.wrapping_mul(104729), 10);
        let k = 1 + (seed % 4) as usize;
        let (pr, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
        for (j, row) in ranked_rows(&view, RankSemantics::UKRanks, k)
            .iter()
            .enumerate()
        {
            if row.value > 0.0 {
                assert!(
                    pr[row.position] >= row.value - 1e-10,
                    "seed {seed}: rank-{} winner has Pr^k {} < rank prob {}",
                    j + 1,
                    pr[row.position],
                    row.value
                );
            }
        }
    }
}

#[test]
fn expected_rank_of_certain_top_tuple_is_best() {
    // A certain tuple at the top of the ranking minimizes expected rank.
    let view = RankedView::from_ranked_probs(&[1.0, 0.6, 0.7, 0.5], &[]).unwrap();
    let best = ranked_rows(&view, RankSemantics::ExpectedRank, 1);
    assert_eq!(best[0].position, 0);
    assert_eq!(best[0].value, 0.0);
}

#[test]
fn panda_semantics_disagree_exactly_as_the_paper_describes() {
    let view = panda_view();
    // PT-2 at 0.35: {R2, R5, R3} (positions 1, 2, 3).
    let ptk_answer = naive::ptk_answer(&view, 2, 0.35).unwrap();
    assert_eq!(ptk_answer, vec![1, 2, 3]);
    // U-Top2: <R5, R3> — a strict subset of the PT-k answers here.
    let (vector, _) = utopk(&view, 2);
    assert!(vector.iter().all(|pos| ptk_answer.contains(pos)));
    // U-KRanks: R5 twice — covers a strict subset of PT-k answers.
    let kr = ranked_rows(&view, RankSemantics::UKRanks, 2);
    assert_eq!(kr[0].position, kr[1].position);
    // Expected ranks put R5 first (position 2: high probability AND high
    // rank, er = 0.8*0.7 + 0.2*3.2 = 1.2), ahead of the certain but
    // low-scoring R4 (er = 2.0) — a different winner than U-KRanks' rank-1
    // criterion would suggest from Pr alone.
    let er = ranked_rows(&view, RankSemantics::ExpectedRank, 3);
    assert_eq!(er[0].position, 2);
    assert!((er[0].value - 1.2).abs() < 1e-9);
    // R2 (position 1) and R4 (position 4) tie at er = 2.0 exactly; the tie
    // breaks toward the higher-ranked position.
    assert_eq!(er[1].position, 1);
    assert_eq!(er[2].position, 4);
    assert!((er[1].value - 2.0).abs() < 1e-9);
    assert!((er[2].value - 2.0).abs() < 1e-9);
}

#[test]
fn total_expected_rank_mass_is_conserved() {
    // Σ_t er(t) = Σ_W Pr(W) Σ_t rank(t, W); check against enumeration.
    for seed in 0..15u64 {
        let view = random_view(seed.wrapping_mul(31337), 9);
        // k = n: every tuple's expected rank.
        let er = ranked_rows(&view, RankSemantics::ExpectedRank, view.len());
        assert_eq!(er.len(), view.len());
        let total: f64 = er.iter().map(|row| row.value).sum();
        let oracle: f64 = ptk::worlds::enumerate(&view)
            .unwrap()
            .iter()
            .map(|w| {
                let present: f64 = (0..w.len()).map(|r| r as f64).sum();
                let absent = (view.len() - w.len()) as f64 * w.len() as f64;
                w.prob * (present + absent)
            })
            .sum();
        assert!(
            (total - oracle).abs() < 1e-9,
            "seed {seed}: {total} vs {oracle}"
        );
    }
}
