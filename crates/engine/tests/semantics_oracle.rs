//! Cross-semantics oracle tests: every [`RankSemantics`] answered through
//! the generating-function scan must agree with naive possible-world
//! enumeration — on the paper's panda example, on uniform random
//! x-relations, and on rule-span clustered synthetic data, at the default
//! upper-bound cadence and with the bound checked after every tuple — and
//! must be bit-identical at every thread width.
#![allow(clippy::needless_range_loop)] // index-paired loops over parallel arrays

use ptk_access::ViewSource;
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{
    EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer, SemanticsRow,
};
use ptk_par::ThreadPool;
use ptk_worlds::naive;

/// Probability tolerance for engine-vs-oracle comparisons. The gf core
/// certifies deconvolutions to ~1e-7, so 1e-6 is the sound bound here —
/// discrete answers (positions) are still compared exactly, modulo
/// genuine value ties.
const TOL: f64 = 1e-6;

/// Two candidate positions count as tied when their oracle values are
/// this close; only then may the engine's pick differ from the oracle's.
const TIE: f64 = 1e-9;

const ALL_SEMANTICS: [RankSemantics; 5] = [
    RankSemantics::Ptk,
    RankSemantics::UTopK,
    RankSemantics::UKRanks,
    RankSemantics::GlobalTopk,
    RankSemantics::ExpectedRank,
];

/// Same generator as `oracle.rs`: up to `max_n` tuples, random
/// probabilities, random disjoint rules of size 2–4.
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

/// Small clustered synthetic views: rule members land inside a narrow
/// rank window, the regime where the DP arena stays bounded.
fn clustered_view(seed: u64, tuples: usize, rules: usize, span: usize) -> RankedView {
    let config = SyntheticConfig {
        tuples,
        rules,
        seed,
        rule_size_mean: 2.0,
        rule_size_sd: 0.5,
        placement: RulePlacement::Clustered { span },
        ..SyntheticConfig::default()
    };
    SyntheticDataset::generate(&config).view
}

/// Upper-bound check cadences every oracle comparison runs at: the
/// default, and every tuple. These views are far smaller than the
/// default cadence, so only the second lets a stopping bound fire.
const INTERVALS: [usize; 2] = [64, 1];

fn plan_at(semantics: RankSemantics, k: usize, threshold: f64, interval: usize) -> PtkPlan {
    let options = EngineOptions {
        ub_check_interval: interval,
        ..EngineOptions::default()
    };
    match semantics {
        RankSemantics::Ptk => PtkPlan::try_new(k, threshold, &options).unwrap(),
        other => PtkPlan::try_semantics(other, k, None, &options).unwrap(),
    }
}

fn plan_for(semantics: RankSemantics, k: usize, threshold: f64) -> PtkPlan {
    plan_at(
        semantics,
        k,
        threshold,
        EngineOptions::default().ub_check_interval,
    )
}

fn answer_of(view: &RankedView, plan: &PtkPlan) -> SemanticsAnswer {
    let mut source = ViewSource::new(view);
    PtkExecutor::new(plan)
        .execute_semantics(&mut source)
        .unwrap()
}

/// Engine ranked rows vs the oracle's `(position, value)` list over the
/// oracle's full value map: per slot the values must agree within `TOL`,
/// and the positions must agree unless the two candidates are genuinely
/// tied in the oracle's own values.
fn assert_ranked_list(rows: &[SemanticsRow], oracle: &[(usize, f64)], values: &[f64], ctx: &str) {
    assert_eq!(rows.len(), oracle.len(), "{ctx}: answer length");
    for (j, (row, &(pos, value))) in rows.iter().zip(oracle).enumerate() {
        assert!(
            (row.value - value).abs() < TOL,
            "{ctx} slot {j}: engine value {} vs oracle {value}",
            row.value
        );
        if row.position != pos {
            assert!(
                (values[row.position] - values[pos]).abs() < TIE,
                "{ctx} slot {j}: engine pos {} (value {}) vs oracle pos {pos} (value {value})",
                row.position,
                values[row.position]
            );
        }
    }
}

/// Checks one view against every oracle, for every semantics, at every
/// upper-bound cadence in [`INTERVALS`].
fn check_view(view: &RankedView, k: usize, threshold: f64, ctx: &str) {
    let ptk_oracle = naive::ptk_answer(view, k, threshold).unwrap();
    let (vector, probability) = naive::utopk(view, k).unwrap();
    let pr_positions = naive::rank_probabilities(view, k).unwrap();
    let ukranks_oracle = naive::ukranks(view, k).unwrap();
    let pr_topk = naive::topk_probabilities(view, k).unwrap();
    let global_oracle = naive::global_topk(view, k).unwrap();
    let ranks = naive::expected_ranks(view).unwrap();
    let erank_oracle = naive::expected_rank_topk(view, k).unwrap();
    let worlds = ptk_worlds::enumerate(view).unwrap();
    for interval in INTERVALS {
        let ctx = format!("{ctx} ub every {interval}");
        let answer = |semantics| answer_of(view, &plan_at(semantics, k, threshold, interval));

        // PT-k: exact answer set.
        match answer(RankSemantics::Ptk) {
            SemanticsAnswer::Ptk(result) => {
                assert_eq!(result.answer_ranks(), ptk_oracle, "{ctx}: ptk");
            }
            other => panic!("{ctx}: ptk answered {:?}", other.semantics()),
        }

        // U-TopK: vector + probability (vectors may differ only on a true
        // tie).
        match answer(RankSemantics::UTopK) {
            SemanticsAnswer::UTopK {
                rows,
                probability: engine_prob,
                ..
            } => {
                assert!(
                    (engine_prob - probability).abs() < TOL,
                    "{ctx}: u-topk probability {engine_prob} vs oracle {probability}"
                );
                let engine_vec: Vec<usize> = rows.iter().map(|r| r.position).collect();
                if engine_vec != vector {
                    assert!(
                        (engine_prob - probability).abs() < TIE,
                        "{ctx}: u-topk vector {engine_vec:?} vs oracle {vector:?}"
                    );
                }
                // The engine's own vector really has the probability it
                // claims, summed over the worlds whose top-k it is.
                let direct: f64 = worlds
                    .iter()
                    .filter(|w| w.top_k(k) == engine_vec.as_slice())
                    .map(|w| w.prob)
                    .sum();
                assert!(
                    (direct - engine_prob).abs() < 1e-10,
                    "{ctx}: u-topk claims {engine_prob}, enumeration gives {direct}"
                );
            }
            other => panic!("{ctx}: u-topk answered {:?}", other.semantics()),
        }

        // U-KRanks: winner per rank over the full rank-probability
        // matrix.
        match answer(RankSemantics::UKRanks) {
            SemanticsAnswer::UKRanks(rows) => {
                assert_eq!(rows.len(), ukranks_oracle.len(), "{ctx}: u-kranks length");
                for (j, (row, &(pos, value))) in rows.iter().zip(&ukranks_oracle).enumerate() {
                    assert!(
                        (row.value - value).abs() < TOL,
                        "{ctx} rank {}: engine {} vs oracle {value}",
                        j + 1,
                        row.value
                    );
                    if row.position != pos {
                        assert!(
                            (pr_positions[row.position][j] - pr_positions[pos][j]).abs() < TIE,
                            "{ctx} rank {}: engine pos {} vs oracle pos {pos}",
                            j + 1,
                            row.position
                        );
                    }
                }
            }
            other => panic!("{ctx}: u-kranks answered {:?}", other.semantics()),
        }

        // Global-Topk: top-k by Pr^k.
        match answer(RankSemantics::GlobalTopk) {
            SemanticsAnswer::GlobalTopk(rows) => {
                assert_ranked_list(
                    &rows,
                    &global_oracle,
                    &pr_topk,
                    &format!("{ctx}: global-topk"),
                );
            }
            other => panic!("{ctx}: global-topk answered {:?}", other.semantics()),
        }

        // Expected rank: smallest-expected-rank top-k.
        match answer(RankSemantics::ExpectedRank) {
            SemanticsAnswer::ExpectedRank(rows) => {
                assert_ranked_list(
                    &rows,
                    &erank_oracle,
                    &ranks,
                    &format!("{ctx}: expected-rank"),
                );
            }
            other => panic!("{ctx}: expected-rank answered {:?}", other.semantics()),
        }
    }
}

/// Panda example (Table 1) in ranked order; positions 0=R1, 1=R2, 2=R5,
/// 3=R3, 4=R4, 5=R6.
fn panda() -> RankedView {
    RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
        .unwrap()
}

#[test]
fn panda_answers_match_the_paper_for_every_semantics() {
    let view = panda();
    check_view(&view, 2, 0.35, "panda k=2");

    // Pin the paper-derived values, independent of the oracle code.
    match answer_of(&view, &plan_for(RankSemantics::UTopK, 2, 0.35)) {
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => {
            // {R5, R3} is the most probable top-2 vector: 0.8·0.5·(1-0.3)
            // = 0.28 (R2 absent is implied by R3 present).
            let positions: Vec<usize> = rows.iter().map(|r| r.position).collect();
            assert_eq!(positions, vec![2, 3]);
            assert!((probability - 0.28).abs() < 1e-12, "{probability}");
        }
        other => panic!("u-topk answered {:?}", other.semantics()),
    }
    match answer_of(&view, &plan_for(RankSemantics::GlobalTopk, 2, 0.35)) {
        SemanticsAnswer::GlobalTopk(rows) => {
            // Table 3: Pr² = R5 0.704, R2 0.4 lead the field.
            assert_eq!(rows[0].position, 2);
            assert!((rows[0].value - 0.704).abs() < 1e-12, "{}", rows[0].value);
            assert_eq!(rows[1].position, 1);
            assert!((rows[1].value - 0.4).abs() < 1e-12, "{}", rows[1].value);
        }
        other => panic!("global-topk answered {:?}", other.semantics()),
    }
    match answer_of(&view, &plan_for(RankSemantics::UKRanks, 2, 0.35)) {
        SemanticsAnswer::UKRanks(rows) => {
            // R5 wins rank 1: neither R1 nor R2 appears above it,
            // 0.7 · 0.6 · 0.8 = 0.336.
            assert_eq!(rows[0].position, 2);
            assert!((rows[0].value - 0.336).abs() < 1e-12, "{}", rows[0].value);
        }
        other => panic!("u-kranks answered {:?}", other.semantics()),
    }
}

#[test]
fn tiny_views_match_enumeration_and_an_empty_view_answers_no_rows() {
    // Fewer tuples than k (a short U-TopK vector), a certain prefix, and
    // all-certain tuples, whose expected ranks are their positions.
    let short = RankedView::from_ranked_probs(&[0.7], &[]).unwrap();
    let certain_prefix = RankedView::from_ranked_probs(&[1.0, 1.0, 0.5], &[]).unwrap();
    let all_certain = RankedView::from_ranked_probs(&[1.0; 3], &[]).unwrap();
    check_view(&short, 3, 0.5, "one tuple k=3");
    check_view(&certain_prefix, 2, 0.5, "certain prefix k=2");
    check_view(&all_certain, 3, 0.5, "all certain k=3");
    for (view, k, vector, vector_probability) in [
        (&short, 3, vec![0], 0.7),
        (&certain_prefix, 2, vec![0, 1], 1.0),
    ] {
        let SemanticsAnswer::UTopK {
            rows, probability, ..
        } = answer_of(view, &plan_for(RankSemantics::UTopK, k, 0.5))
        else {
            panic!("u-topk answered another semantics");
        };
        assert_eq!(rows.iter().map(|r| r.position).collect::<Vec<_>>(), vector);
        assert!(
            (probability - vector_probability).abs() < 1e-12,
            "{probability}"
        );
    }
    let ranks = answer_of(&all_certain, &plan_for(RankSemantics::ExpectedRank, 3, 0.5));
    let values: Vec<f64> = ranks.rows().unwrap().iter().map(|r| r.value).collect();
    assert_eq!(values, vec![0.0, 1.0, 2.0]);

    // No input, no rows; the one empty world is U-TopK's empty vector.
    let empty = RankedView::from_ranked_probs(&[], &[]).unwrap();
    for semantics in &ALL_SEMANTICS[1..] {
        let answer = answer_of(&empty, &plan_for(*semantics, 2, 0.5));
        assert_eq!(answer.answer_count(), 0, "{semantics:?}");
        if let SemanticsAnswer::UTopK { probability, .. } = answer {
            assert_eq!(probability, 1.0);
        }
    }
}

#[test]
fn ukranks_gives_a_rank_no_world_fills_to_the_oracles_position() {
    // Ranked 0.19, 0.9 (rule r), 0.36, 0.08 (rule r): at most three tuples
    // exist together, so every tuple's probability of rank 4 is exactly 0.
    // Deconvolving the rule out of the pool row leaves float residue at
    // that degree; it must not name a winner.
    let view = RankedView::from_ranked_probs(&[0.19, 0.9, 0.36, 0.08], &[vec![1, 3]]).unwrap();
    let oracle = naive::ukranks(&view, 4).unwrap();
    assert_eq!(oracle[3], (0, 0.0));
    for pruning in [true, false] {
        for interval in INTERVALS {
            let options = EngineOptions {
                pruning,
                ub_check_interval: interval,
                ..EngineOptions::default()
            };
            let plan = PtkPlan::try_semantics(RankSemantics::UKRanks, 4, None, &options).unwrap();
            let SemanticsAnswer::UKRanks(rows) = answer_of(&view, &plan) else {
                panic!("u-kranks answered another semantics");
            };
            let ctx = format!("pruning={pruning} ub every {interval}");
            let positions: Vec<usize> = rows.iter().map(|r| r.position).collect();
            let expected: Vec<usize> = oracle.iter().map(|&(pos, _)| pos).collect();
            assert_eq!(positions, expected, "{ctx}");
            assert_eq!(rows[3].value.to_bits(), 0, "{ctx}: {}", rows[3].value);
        }
    }
}

#[test]
fn uniform_random_views_match_enumeration_for_every_semantics() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0011);
    for trial in 0..40 {
        let view = random_view(&mut rng, 10);
        let k = rng.random_range(1..=4usize);
        let threshold = rng.random_range(0.05..=0.95f64);
        check_view(&view, k, threshold, &format!("uniform trial {trial} k={k}"));
    }
}

#[test]
fn clustered_random_views_match_enumeration_for_every_semantics() {
    // Rule-span clustering stresses the gf core's rule-aware rows: every
    // rule's members sit inside a narrow rank window, so `row_excluding`
    // flips between incremental deconvolution and refolds.
    for (trial, seed) in [0x5eed_0012u64, 0x5eed_0013, 0x5eed_0014, 0x5eed_0015]
        .into_iter()
        .enumerate()
    {
        let view = clustered_view(seed, 14, 3, 4);
        for k in [1, 2, 4] {
            check_view(
                &view,
                k,
                0.3,
                &format!("clustered trial {trial} seed {seed:#x} k={k}"),
            );
        }
    }
}

/// Every float in an answer, as ordered bit patterns — the parity
/// currency for thread-width comparisons.
fn answer_bits(answer: &SemanticsAnswer) -> Vec<u64> {
    let row_bits = |rows: &[SemanticsRow]| {
        rows.iter()
            .flat_map(|r| {
                [
                    r.position as u64,
                    r.id.index() as u64,
                    r.score.to_bits(),
                    r.membership.to_bits(),
                    r.value.to_bits(),
                ]
            })
            .collect::<Vec<u64>>()
    };
    match answer {
        SemanticsAnswer::Ptk(result) => result
            .answers
            .iter()
            .flat_map(|a| {
                [
                    a.rank as u64,
                    a.id.index() as u64,
                    a.score.to_bits(),
                    a.probability.to_bits(),
                ]
            })
            .collect(),
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => {
            let mut bits = row_bits(rows);
            bits.push(probability.to_bits());
            bits
        }
        SemanticsAnswer::UKRanks(rows)
        | SemanticsAnswer::GlobalTopk(rows)
        | SemanticsAnswer::ExpectedRank(rows) => row_bits(rows),
    }
}

#[test]
fn snapshot_answers_are_bit_identical_at_every_thread_width() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0016);
    let mut views = vec![panda(), clustered_view(0x5eed_0017, 24, 5, 4)];
    for _ in 0..6 {
        views.push(random_view(&mut rng, 14));
    }
    for (v, view) in views.iter().enumerate() {
        for k in [1, 3] {
            for semantics in ALL_SEMANTICS {
                let plan = plan_for(semantics, k, 0.3);
                let executor = PtkExecutor::new(&plan);
                let sequential = {
                    let mut source = ViewSource::new(view);
                    executor.execute_semantics(&mut source).unwrap()
                };
                let baseline = answer_bits(&sequential);
                for threads in [1usize, 2, 4, 8] {
                    let pool = ThreadPool::new(threads);
                    let snapshot = executor.execute_semantics_snapshot(view, &pool).unwrap();
                    assert_eq!(
                        answer_bits(&snapshot),
                        baseline,
                        "view {v} k={k} {semantics:?} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_fingerprints_differ_across_semantics() {
    let mut prints = std::collections::HashSet::new();
    for semantics in ALL_SEMANTICS {
        let plan = plan_for(semantics, 3, 0.5);
        assert!(
            prints.insert(plan.fingerprint()),
            "{semantics:?} collides with an earlier semantics at the same k"
        );
    }
}
