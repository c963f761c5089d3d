//! Cross-crate end-to-end tests: the full pipeline from table construction
//! through predicates, rule projection and all four query engines.
#![allow(clippy::needless_range_loop)] // index-paired loops over parallel arrays

mod common;

use common::{panda_view, random_view, semantics_answer};
use ptk::engine::{evaluate_ptk, topk_probabilities, EngineOptions, SharingVariant};
use ptk::sampling::{sample_topk, SamplingOptions, StopCriterion};
use ptk::worlds::naive;
use ptk::{
    answer_exact, answer_sampling, ComparisonOp, ExactOptions, Predicate, PtkExecutor, PtkPlan,
    PtkQuery, RankSemantics, RankedView, Ranking, SemanticsAnswer, TopKQuery,
    UncertainTableBuilder, Value,
};

/// Builds the panda table (Table 1) at the table level.
fn panda_table() -> ptk::UncertainTable {
    let mut b = UncertainTableBuilder::new(vec!["duration".into(), "loc".into()]);
    let _r1 = b.push(0.3, [Value::Float(25.0), Value::from("A")]).unwrap();
    let r2 = b.push(0.4, [Value::Float(21.0), Value::from("B")]).unwrap();
    let r3 = b.push(0.5, [Value::Float(13.0), Value::from("B")]).unwrap();
    let _r4 = b.push(1.0, [Value::Float(12.0), Value::from("A")]).unwrap();
    let r5 = b.push(0.8, [Value::Float(17.0), Value::from("E")]).unwrap();
    let r6 = b.push(0.2, [Value::Float(11.0), Value::from("E")]).unwrap();
    b.exclusive(&[r2, r3]).unwrap();
    b.exclusive(&[r5, r6]).unwrap();
    b.finish().unwrap()
}

#[test]
fn table_level_and_view_level_agree() {
    let table = panda_table();
    let query = PtkQuery::new(TopKQuery::top(2, Ranking::descending(0)), 0.35).unwrap();
    let from_table = answer_exact(&table, &query, &ExactOptions::default()).unwrap();
    let view = panda_view();
    let from_view = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
    assert_eq!(from_table.matches.len(), from_view.answers.len());
    for (m, a) in from_table.matches.iter().zip(&from_view.answers) {
        assert!((m.probability - a.probability).abs() < 1e-12);
        assert!((a.probability - from_view.probabilities[a.rank].unwrap()).abs() < 1e-12);
    }
}

#[test]
fn predicate_projection_matches_filtered_world_semantics() {
    // Applying a predicate and then answering the PT-k query must equal
    // answering over the predicate-filtered possible worlds — the paper's
    // Answer(Q, p, T) = Answer(Q, p, P(T)) claim (§4.1).
    let table = panda_table();
    let predicate = Predicate::compare(0, ComparisonOp::Gt, 12.0);
    let query = TopKQuery::new(2, predicate, Ranking::descending(0)).unwrap();
    let view = RankedView::build(&table, &query).unwrap();
    // Filtered view: R1, R2, R5, R3 with rules {R2,R3} (R5's partner R6 was
    // filtered out, so R5 becomes effectively independent — but keeps its
    // own membership probability).
    assert_eq!(view.len(), 4);
    let oracle = naive::topk_probabilities(&view, 2).unwrap();
    let (engine, _) = topk_probabilities(&view, 2, SharingVariant::Lazy);
    for pos in 0..view.len() {
        assert!((oracle[pos] - engine[pos]).abs() < 1e-12);
    }
    // R5 at position 2 with only R1, R2 above it:
    // Pr^2 = 0.8 * (Pr(0 of {0.3, 0.4}) + Pr(1 of {0.3, 0.4})) = 0.8 * 0.88.
    assert!((engine[2] - 0.8 * (1.0 - 0.3 * 0.4)).abs() < 1e-12);
}

#[test]
fn all_engines_agree_on_random_tables() {
    for seed in 0..30u64 {
        let view = random_view(seed, 9);
        let k = 1 + (seed % 4) as usize;
        let threshold = 0.25;
        let oracle = naive::ptk_answer(&view, k, threshold).unwrap();
        let exact = evaluate_ptk(&view, k, threshold, &EngineOptions::default());
        assert_eq!(exact.answer_ranks(), oracle, "seed {seed}");
        // Sampling: generous sample count to keep this deterministic test
        // comfortably past the threshold noise, skipping borderline cases.
        let estimate = sample_topk(
            &view,
            k,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(40_000),
                seed,
            },
        );
        let exact_probs = naive::topk_probabilities(&view, k).unwrap();
        let borderline = exact_probs.iter().any(|p| (p - threshold).abs() < 0.02);
        if !borderline {
            assert_eq!(
                estimate.answers(threshold),
                oracle,
                "seed {seed} (sampling)"
            );
        }
    }
}

#[test]
fn rankers_run_end_to_end_on_random_tables() {
    // U-TopK and U-KRanks through the facade's plan + executor.
    for seed in 100..120u64 {
        let view = random_view(seed, 9);
        let k = 1 + (seed % 3) as usize;
        let SemanticsAnswer::UTopK { probability, .. } =
            semantics_answer(&view, RankSemantics::UTopK, k)
        else {
            panic!("seed {seed}: u-topk answered another semantics");
        };
        let (_, oracle_prob) = naive::utopk(&view, k).unwrap();
        assert!((probability - oracle_prob).abs() < 1e-10, "seed {seed}");
        let SemanticsAnswer::UKRanks(kr) = semantics_answer(&view, RankSemantics::UKRanks, k)
        else {
            panic!("seed {seed}: u-kranks answered another semantics");
        };
        let oracle = naive::ukranks(&view, k).unwrap();
        for j in 0..k {
            assert_eq!(kr[j].position, oracle[j].0, "seed {seed} rank {j}");
        }
    }
}

#[test]
fn facade_sampling_is_deterministic() {
    let table = panda_table();
    let query = PtkQuery::new(TopKQuery::top(2, Ranking::descending(0)), 0.35).unwrap();
    let options = SamplingOptions {
        stop: StopCriterion::FixedUnits(5_000),
        seed: 3,
    };
    let a = answer_sampling(&table, &query, &options).unwrap();
    let b = answer_sampling(&table, &query, &options).unwrap();
    assert_eq!(a.matches.len(), b.matches.len());
    for (x, y) in a.matches.iter().zip(&b.matches) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.probability, y.probability);
    }
}

#[test]
fn certain_rules_and_certain_tuples_interact_correctly() {
    // A certain rule (mass 1) above a certain tuple: the top-1 must belong
    // to the rule, so the certain tuple's Pr^1 is 0.
    let view = RankedView::from_ranked_probs(&[0.6, 0.4, 1.0], &[vec![0, 1]]).unwrap();
    let (pr, _) = topk_probabilities(&view, 1, SharingVariant::Lazy);
    assert!((pr[0] - 0.6).abs() < 1e-12);
    assert!((pr[1] - 0.4).abs() < 1e-12);
    assert!(pr[2].abs() < 1e-12);
    // With k = 2 the certain tuple is always in.
    let (pr, _) = topk_probabilities(&view, 2, SharingVariant::Lazy);
    assert!((pr[2] - 1.0).abs() < 1e-12);
}

#[test]
fn file_backed_run_answers_like_the_view_engine() {
    // Write the panda example to a run file, stream the PT-k query from
    // disk, and compare against the in-memory engine.
    let dir = std::env::temp_dir().join(format!("ptk-e2e-{}.run", std::process::id()));
    ptk::access::write_run_blocked(
        &dir,
        &[
            (25.0, 0.3, None),
            (21.0, 0.4, Some(0)),
            (13.0, 0.5, Some(0)),
            (12.0, 1.0, None),
            (17.0, 0.8, Some(1)),
            (11.0, 0.2, Some(1)),
        ],
        ptk::access::DEFAULT_BLOCK_BYTES,
    )
    .unwrap();
    let run = ptk::access::PagedRun::open(&dir, ptk::access::PoolConfig::default()).unwrap();
    let plan = PtkPlan::try_new(2, 0.35, &ExactOptions::default()).unwrap();
    let result = PtkExecutor::new(&plan).execute(&mut run.cursor());
    let ids: Vec<usize> = result.answers.iter().map(|a| a.id.index()).collect();
    assert_eq!(ids, vec![1, 4, 2]); // R2, R5, R3
    assert!((result.answers[1].probability - 0.704).abs() < 1e-12);
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn large_k_equals_membership_for_everyone() {
    for seed in 200..210u64 {
        let view = random_view(seed, 10);
        let k = view.len() + 5;
        let (pr, _) = topk_probabilities(&view, k, SharingVariant::Lazy);
        for pos in 0..view.len() {
            assert!(
                (pr[pos] - view.prob(pos)).abs() < 1e-12,
                "seed {seed} pos {pos}"
            );
        }
    }
}
