//! Randomized oracle tests for the streaming engine: pulling from a
//! `SortedVecSource` or a `TaSource` must produce exactly the same PT-k
//! answers as the view-based engine and the possible-world enumeration.

use ptk_core::rng::{RngExt, SeedableRng, StdRng};

use ptk_access::{AggregateFn, RankedSource, SortedVecSource, TaSource, ViewSource};
use ptk_core::RankedView;
use ptk_engine::{
    evaluate_ptk, AnswerTuple, EngineOptions, ExecStats, PtkExecutor, PtkPlan, PtkResult,
};
use ptk_obs::Metrics;
use ptk_worlds::naive;

/// Plans a PT-k query and runs it over `source`.
fn execute<S: RankedSource + ?Sized>(
    source: &mut S,
    k: usize,
    p: f64,
    options: &EngineOptions,
) -> PtkResult {
    let plan = PtkPlan::try_new(k, p, options).unwrap();
    PtkExecutor::new(&plan).execute(source)
}

/// One scan of `source` answering every threshold, sliced per threshold.
fn execute_multi<S: RankedSource + ?Sized>(
    source: &mut S,
    k: usize,
    thresholds: &[f64],
) -> Vec<Vec<AnswerTuple>> {
    let plan = PtkPlan::try_multi(k, thresholds, &EngineOptions::default()).unwrap();
    let result = PtkExecutor::new(&plan).execute(source);
    thresholds.iter().map(|&p| result.answers_at(p)).collect()
}

/// Random rows: (score, prob, rule). Rules pair adjacent rows with legal
/// mass; scores are distinct so the ranked order is unambiguous.
fn random_rows(rng: &mut StdRng, max_n: usize) -> Vec<(f64, f64, Option<u32>)> {
    let n = rng.random_range(1..=max_n);
    let mut rows = Vec::with_capacity(n);
    let mut next_rule = 0u32;
    let mut i = 0;
    while i < n {
        let score = (n - i) as f64 + rng.random_range(0.0..0.5f64);
        if i + 1 < n && rng.random_range(0.0..1.0f64) < 0.4 {
            let a = rng.random_range(0.05..0.5f64);
            let b = rng.random_range(0.05..0.5f64);
            let score2 = score - rng.random_range(0.1..0.4f64);
            rows.push((score, a, Some(next_rule)));
            rows.push((score2, b, Some(next_rule)));
            next_rule += 1;
            i += 2;
        } else {
            rows.push((score, rng.random_range(0.05..=1.0f64), None));
            i += 1;
        }
    }
    rows
}

/// Builds the equivalent RankedView for the oracle: sort rows by score
/// descending, group rules by key.
fn view_of(rows: &[(f64, f64, Option<u32>)]) -> (RankedView, Vec<usize>) {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[b].0.total_cmp(&rows[a].0).then(a.cmp(&b)));
    let probs: Vec<f64> = order.iter().map(|&i| rows[i].1).collect();
    let mut groups_by_key: std::collections::HashMap<u32, Vec<usize>> =
        std::collections::HashMap::new();
    for (pos, &i) in order.iter().enumerate() {
        if let Some(key) = rows[i].2 {
            groups_by_key.entry(key).or_default().push(pos);
        }
    }
    let mut groups: Vec<Vec<usize>> = groups_by_key.into_values().collect();
    groups.sort();
    (
        RankedView::from_ranked_probs(&probs, &groups).unwrap(),
        order,
    )
}

#[test]
fn sorted_vec_stream_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x57a3);
    for trial in 0..50 {
        let rows = random_rows(&mut rng, 10);
        let (view, order) = view_of(&rows);
        let k = rng.random_range(1..=4usize);
        let p = rng.random_range(0.1..0.9f64);
        let oracle = naive::ptk_answer(&view, k, p).unwrap();

        let mut source = SortedVecSource::from_unsorted(rows.clone()).unwrap();
        let result = execute(&mut source, k, p, &EngineOptions::default());
        // Map oracle positions to original row ids.
        let oracle_ids: Vec<usize> = oracle.iter().map(|&pos| order[pos]).collect();
        let stream_ids: Vec<usize> = result.answers.iter().map(|a| a.id.index()).collect();
        assert_eq!(stream_ids, oracle_ids, "trial {trial} k={k} p={p:.2}");
    }
}

#[test]
fn stream_probabilities_match_view_engine() {
    let mut rng = StdRng::seed_from_u64(0x57a4);
    for trial in 0..50 {
        let rows = random_rows(&mut rng, 12);
        let (view, _) = view_of(&rows);
        let k = rng.random_range(1..=5usize);
        let p = rng.random_range(0.1..0.9f64);
        let batch = evaluate_ptk(&view, k, p, &EngineOptions::default());
        let mut source = ViewSource::new(&view);
        let options = EngineOptions {
            ub_check_interval: 2,
            ..Default::default()
        };
        let metrics = Metrics::new();
        let plan = PtkPlan::try_new(k, p, &options).unwrap();
        let stream = PtkExecutor::with_recorder(&plan, &metrics).execute(&mut source);
        // The streaming engine's stats are a faithful view over the
        // ptk-obs registry, and every scanned tuple is either evaluated
        // or pruned.
        let snapshot = metrics.snapshot();
        assert_eq!(
            ExecStats::from_snapshot(&snapshot),
            stream.stats,
            "trial {trial}: registry round trip"
        );
        assert_eq!(
            stream.stats.scanned,
            stream.stats.evaluated + stream.stats.pruned(),
            "trial {trial}: scanned ≠ evaluated + pruned"
        );
        assert_eq!(stream.answers.len(), batch.answers.len(), "trial {trial}");
        for (s, b) in stream.answers.iter().zip(&batch.answers) {
            assert_eq!(s.id, view.tuple(b.rank).id, "trial {trial}");
            assert!(
                (s.probability - batch.probabilities[b.rank].unwrap()).abs() < 1e-10,
                "trial {trial}: {} vs {:?}",
                s.probability,
                batch.probabilities[b.rank]
            );
        }
    }
}

#[test]
fn ta_stream_matches_oracle_on_multi_attribute_tables() {
    let mut rng = StdRng::seed_from_u64(0x57a5);
    for trial in 0..40 {
        let n = rng.random_range(1..=10usize);
        // Distinct aggregate scores: perturb a permutation.
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    i as f64 * 3.0 + rng.random_range(0.0..1.0f64),
                    rng.random_range(0.0..10.0f64),
                ]
            })
            .collect();
        let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
        let mut rules: Vec<Option<u32>> = vec![None; n];
        if n >= 2 && probs[0] + probs[1] <= 1.0 {
            rules[0] = Some(0);
            rules[1] = Some(0);
        }
        let agg = AggregateFn::Sum;

        // Oracle view: rows sorted by aggregate score.
        let scores: Vec<f64> = attrs.iter().map(|r| agg.apply(r)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        let sorted_probs: Vec<f64> = order.iter().map(|&i| probs[i]).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let rule_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &i)| rules[i].is_some())
            .map(|(pos, _)| pos)
            .collect();
        if rule_positions.len() == 2 {
            let mut g = rule_positions.clone();
            g.sort_unstable();
            groups.push(g);
        }
        let view = RankedView::from_ranked_probs(&sorted_probs, &groups).unwrap();

        let k = rng.random_range(1..=4usize);
        let p = rng.random_range(0.1..0.9f64);
        let oracle = naive::ptk_answer(&view, k, p).unwrap();
        let oracle_ids: Vec<usize> = oracle.iter().map(|&pos| order[pos]).collect();

        let mut source = TaSource::new(&attrs, probs, rules, agg).unwrap();
        let result = execute(&mut source, k, p, &EngineOptions::default());
        let stream_ids: Vec<usize> = result.answers.iter().map(|a| a.id.index()).collect();
        assert_eq!(stream_ids, oracle_ids, "trial {trial} k={k} p={p:.2}");
    }
}

#[test]
fn view_and_source_paths_are_bit_identical_across_variants() {
    // Parity matrix, source axis: the view path (`evaluate_ptk` over the
    // materialized `RankedView`) and the executor over a `SortedVecSource`
    // of the same raw rows must agree bit for bit
    // — every counter (scan depth, DP cells, recompute cost, stop reason)
    // and every answer probability — across RC / RC+AR / RC+LR, with and
    // without pruning.
    //
    // Bit-identity (not just tolerance) holds because `random_rows` emits
    // rows in rank order with rule keys assigned sequentially, and
    // `view_of` sorts rule groups lexicographically: the view's rule-index
    // order equals the source's rule-key order, so both paths discover
    // rules in the same order, keep identical pool layouts, and sum each
    // rule's mass over members in the same (ranked) order.
    let mut rng = StdRng::seed_from_u64(0x57a7);
    for trial in 0..40 {
        let rows = random_rows(&mut rng, 12);
        let (view, order) = view_of(&rows);
        let k = rng.random_range(1..=4usize);
        let p = rng.random_range(0.1..0.9f64);
        for pruning in [false, true] {
            for variant in [
                ptk_engine::SharingVariant::Rc,
                ptk_engine::SharingVariant::Aggressive,
                ptk_engine::SharingVariant::Lazy,
            ] {
                let options = EngineOptions {
                    variant,
                    pruning,
                    ub_check_interval: 2,
                };
                let batch = evaluate_ptk(&view, k, p, &options);
                let mut source = SortedVecSource::from_unsorted(rows.clone()).unwrap();
                let stream = execute(&mut source, k, p, &options);

                let ctx = format!("trial {trial} k={k} p={p:.3} {variant:?} pruning={pruning}");
                assert_eq!(stream.stats, batch.stats, "{ctx}: stats");
                assert_eq!(stream.answers.len(), batch.answers.len(), "{ctx}");
                for (s, b) in stream.answers.iter().zip(&batch.answers) {
                    assert_eq!(s.rank, b.rank, "{ctx}: answer rank");
                    assert_eq!(s.id.index(), order[b.rank], "{ctx}: answer id");
                    assert_eq!(
                        s.probability.to_bits(),
                        b.probability.to_bits(),
                        "{ctx}: Pr^k bits {} vs {}",
                        s.probability,
                        b.probability
                    );
                }
            }
        }
    }
}

#[test]
fn multi_threshold_works_over_any_source() {
    // The batch API must serve a whole threshold sweep from one scan of
    // *any* `RankedSource`, matching per-threshold single runs.
    let mut rng = StdRng::seed_from_u64(0x57a8);
    for trial in 0..25 {
        let rows = random_rows(&mut rng, 12);
        let k = rng.random_range(1..=4usize);
        let thresholds = [0.8, rng.random_range(0.1..0.9f64), 0.25];

        let mut source = SortedVecSource::from_unsorted(rows.clone()).unwrap();
        let multi = execute_multi(&mut source, k, &thresholds);
        for (i, &p) in thresholds.iter().enumerate() {
            let mut fresh = SortedVecSource::from_unsorted(rows.clone()).unwrap();
            let single = execute(&mut fresh, k, p, &EngineOptions::default());
            let ids: Vec<usize> = multi[i].iter().map(|a| a.id.index()).collect();
            let expect: Vec<usize> = single.answers.iter().map(|a| a.id.index()).collect();
            assert_eq!(ids, expect, "trial {trial} threshold {p}: ids");
            for (m, s) in multi[i].iter().zip(&single.answers) {
                assert!(
                    (m.probability - s.probability).abs() < 1e-12,
                    "trial {trial} threshold {p}: {} vs {}",
                    m.probability,
                    s.probability
                );
            }
        }
    }

    // And over a TA-middleware source (multi-attribute rows, no
    // precomputed ranking): same sweep-vs-single agreement.
    let mut rng = StdRng::seed_from_u64(0x57a9);
    for trial in 0..15 {
        let n = rng.random_range(1..=10usize);
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    i as f64 * 3.0 + rng.random_range(0.0..1.0f64),
                    rng.random_range(0.0..10.0f64),
                ]
            })
            .collect();
        let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
        let rules: Vec<Option<u32>> = vec![None; n];
        let k = rng.random_range(1..=3usize);
        let thresholds = [0.7, 0.3];

        let mut source =
            TaSource::new(&attrs, probs.clone(), rules.clone(), AggregateFn::Sum).unwrap();
        let multi = execute_multi(&mut source, k, &thresholds);
        for (i, &p) in thresholds.iter().enumerate() {
            let mut fresh =
                TaSource::new(&attrs, probs.clone(), rules.clone(), AggregateFn::Sum).unwrap();
            let single = execute(&mut fresh, k, p, &EngineOptions::default());
            let ids: Vec<usize> = multi[i].iter().map(|a| a.id.index()).collect();
            let expect: Vec<usize> = single.answers.iter().map(|a| a.id.index()).collect();
            assert_eq!(ids, expect, "ta trial {trial} threshold {p}");
        }
    }
}

#[test]
fn ta_emission_order_is_the_sorted_order() {
    let mut rng = StdRng::seed_from_u64(0x57a6);
    for _ in 0..30 {
        let n = rng.random_range(1..=30usize);
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.random_range(0.0..100.0f64),
                    rng.random_range(0.0..100.0f64),
                ]
            })
            .collect();
        let mut source =
            TaSource::new(&attrs, vec![0.5; n], vec![None; n], AggregateFn::Sum).unwrap();
        let mut emitted = Vec::new();
        while let Some(t) = source.next_ranked() {
            emitted.push((t.id.index(), t.score));
        }
        assert_eq!(emitted.len(), n, "every row emitted exactly once");
        let mut ids: Vec<usize> = emitted.iter().map(|(i, _)| *i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "no duplicates");
        for w in emitted.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-9, "scores must be non-increasing");
        }
    }
}
