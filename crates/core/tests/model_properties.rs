//! Property tests of the core model: builder invariants, ranked-view
//! construction, predicate algebra and ranking-order laws. They run on the
//! in-repo deterministic harness ([`ptk_core::check`]).

use ptk_core::check::{check, Config};
use ptk_core::rng::{RngExt, StdRng};
use ptk_core::{prop_assert, prop_assert_eq};

use ptk_core::{
    ComparisonOp, Predicate, RankedView, Ranking, SortDirection, TopKQuery, TupleId,
    UncertainTableBuilder, Value,
};

/// Tuple rows `(probability, score)` and rule pairs `(i, j)`.
type TableSpec = (Vec<(f64, f64)>, Vec<(usize, usize)>);

/// Generator: a table of `1..=size` single-column tuples with random scores
/// and probabilities, plus adjacent-pair rules where mass permits.
fn gen_table(rng: &mut StdRng, size: usize) -> TableSpec {
    let n = rng.random_range(1..=size.max(1));
    let rows: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.random_range(0.01..=1.0f64),
                rng.random_range(-100.0..100.0f64),
            )
        })
        .collect();
    let mut pairs = Vec::new();
    let mut used = vec![false; n];
    for i in 0..n.saturating_sub(1) {
        if rng.random_bool(0.5) && !used[i] && !used[i + 1] && rows[i].0 + rows[i + 1].0 <= 1.0 {
            pairs.push((i, i + 1));
            used[i] = true;
            used[i + 1] = true;
        }
    }
    (rows, pairs)
}

fn build(rows: &[(f64, f64)], pairs: &[(usize, usize)]) -> ptk_core::UncertainTable {
    let mut b = UncertainTableBuilder::single_column();
    for (prob, score) in rows {
        b.push(*prob, [Value::Float(*score)]).unwrap();
    }
    for (i, j) in pairs {
        b.exclusive(&[TupleId::new(*i), TupleId::new(*j)]).unwrap();
    }
    b.finish().unwrap()
}

/// Tuple ids are dense and stable across finish().
#[test]
fn builder_ids_are_dense() {
    check(
        "builder ids dense",
        Config::cases(128).sizes(1, 20),
        |rng, size| {
            let (rows, pairs) = gen_table(rng, size);
            let table = build(&rows, &pairs);
            prop_assert_eq!(table.len(), rows.len());
            for (i, t) in table.tuples().enumerate() {
                prop_assert_eq!(t.id().index(), i);
                prop_assert!((t.membership().value() - rows[i].0).abs() < 1e-15);
            }
            prop_assert_eq!(table.rules().len(), pairs.len());
            Ok(())
        },
    );
}

/// The ranked view sorts by score descending with id tie-breaks, and
/// projected rule masses equal the member-probability sums.
#[test]
fn ranked_view_is_sorted_and_rules_project() {
    check(
        "ranked view sorted",
        Config::cases(128).sizes(1, 20),
        |rng, size| {
            let (rows, pairs) = gen_table(rng, size);
            let table = build(&rows, &pairs);
            let query = TopKQuery::top(3, Ranking::descending(0));
            let view = RankedView::build(&table, &query).unwrap();
            prop_assert_eq!(view.len(), table.len());
            for w in view.tuples().windows(2) {
                let ka = w[0].key.unwrap();
                let kb = w[1].key.unwrap();
                prop_assert!(ka > kb || (ka == kb && w[0].id < w[1].id));
            }
            prop_assert_eq!(view.rules().len(), pairs.len());
            for rule in view.rules() {
                prop_assert!(rule.members.len() == 2);
                let sum: f64 = rule.members.iter().map(|&m| view.prob(m)).sum();
                prop_assert!((sum - rule.mass).abs() < 1e-12);
                // Members point back at the rule.
                for &m in &rule.members {
                    prop_assert!(view.rule_at(m).is_some());
                }
            }
            Ok(())
        },
    );
}

/// Ascending and descending rankings are exact reverses (modulo the id
/// tie-break, which both apply in the same direction — so only strict
/// score orders reverse exactly).
#[test]
fn ranking_directions_agree() {
    check(
        "ranking directions",
        Config::cases(128).sizes(1, 15),
        |rng, size| {
            let (rows, _) = gen_table(rng, size);
            let table = build(&rows, &[]);
            let desc =
                RankedView::build(&table, &TopKQuery::top(1, Ranking::descending(0))).unwrap();
            let asc = RankedView::build(
                &table,
                &TopKQuery::top(1, Ranking::by_column(0, SortDirection::Ascending)),
            )
            .unwrap();
            let desc_keys: Vec<f64> = desc.tuples().iter().map(|t| t.key.unwrap()).collect();
            let mut asc_keys: Vec<f64> = asc.tuples().iter().map(|t| t.key.unwrap()).collect();
            asc_keys.reverse();
            prop_assert_eq!(desc_keys, asc_keys);
            Ok(())
        },
    );
}

/// Predicate algebra: De Morgan's laws hold for arbitrary comparisons.
#[test]
fn predicates_satisfy_de_morgan() {
    check("De Morgan", Config::cases(128), |rng, _size| {
        let score = rng.random_range(-100.0..100.0f64);
        let c1 = rng.random_range(-100.0..100.0f64);
        let c2 = rng.random_range(-100.0..100.0f64);
        let mut b = UncertainTableBuilder::single_column();
        b.push(0.5, [Value::Float(score)]).unwrap();
        let table = b.finish().unwrap();
        let t = table.tuple(TupleId::new(0));
        let a = Predicate::compare(0, ComparisonOp::Gt, c1);
        let c = Predicate::compare(0, ComparisonOp::Le, c2);
        let lhs = a.clone().and(c.clone()).not().eval(t).unwrap();
        let rhs = a.clone().not().or(c.clone().not()).eval(t).unwrap();
        prop_assert_eq!(lhs, rhs);
        let lhs = a.clone().or(c.clone()).not().eval(t).unwrap();
        let rhs = a.not().and(c.not()).eval(t).unwrap();
        prop_assert_eq!(lhs, rhs);
        Ok(())
    });
}

/// Filtering with a predicate yields exactly the matching tuples, in
/// ranked order.
#[test]
fn predicate_filtering_is_exact() {
    check(
        "predicate filtering",
        Config::cases(128).sizes(1, 20),
        |rng, size| {
            let (rows, pairs) = gen_table(rng, size);
            let cut = rng.random_range(-50.0..50.0f64);
            let table = build(&rows, &pairs);
            let query = TopKQuery::new(
                2,
                Predicate::compare(0, ComparisonOp::Ge, cut),
                Ranking::descending(0),
            )
            .unwrap();
            let view = RankedView::build(&table, &query).unwrap();
            let expected = rows.iter().filter(|(_, s)| *s >= cut).count();
            prop_assert_eq!(view.len(), expected);
            for t in view.tuples() {
                prop_assert!(t.key.unwrap() >= cut);
            }
            // Projected rules never mention filtered-out tuples.
            for rule in view.rules() {
                for &m in &rule.members {
                    prop_assert!(m < view.len());
                }
            }
            Ok(())
        },
    );
}

/// `world_count` is multiplicative and at least 1.
#[test]
fn world_count_bounds() {
    check(
        "world count bounds",
        Config::cases(128).sizes(1, 12),
        |rng, size| {
            let (rows, pairs) = gen_table(rng, size);
            let table = build(&rows, &pairs);
            let count = table.world_count().as_f64();
            prop_assert!(count >= 1.0);
            // Upper bound: every tuple independent and uncertain.
            prop_assert!(count <= 2f64.powi(rows.len() as i32) + 1e-9);
            Ok(())
        },
    );
}
