//! `RankedView::build` — a selection over the table's shared ranked view,
//! materialized — must equal filtering the table, sorting the survivors and
//! projecting the rules from scratch, bit for bit. The from-scratch builder
//! is kept here as the reference.

use ptk_core::check::{check, Config};
use ptk_core::rng::{RngExt, StdRng};
use ptk_core::{prop_assert, prop_assert_eq};

use ptk_core::{
    ComparisonOp, ModelError, Predicate, RankedTuple, RankedView, Ranking, RuleHandle,
    RuleProjection, Selection, SortDirection, TopKQuery, UncertainTable, UncertainTableBuilder,
    Value,
};

/// The reference: filter in table order, sort the survivors, project each
/// rule onto them (members in rank order, mass summed in rank order and
/// clamped, rules with fewer than two survivors dropped).
fn reference_build(
    table: &UncertainTable,
    query: &TopKQuery,
) -> Result<(Vec<RankedTuple>, Vec<RuleProjection>), ModelError> {
    let mut selected = Vec::with_capacity(table.len());
    for t in table.tuples() {
        if query.predicate().eval(t)? {
            selected.push(t.id());
        }
    }
    for &id in &selected {
        if table.tuple(id).attr(query.ranking().column()).is_none() {
            return Err(ModelError::UnknownColumn(query.ranking().column()));
        }
    }
    selected.sort_by(|&a, &b| {
        query
            .ranking()
            .compare(table.tuple(a), table.tuple(b))
            .expect("columns validated above")
    });
    let mut position_of = vec![usize::MAX; table.len()];
    for (pos, &id) in selected.iter().enumerate() {
        position_of[id.index()] = pos;
    }
    let mut rules = Vec::new();
    let mut rule_handle_of = vec![None; table.len()];
    for rule in table.rules() {
        let mut members: Vec<usize> = rule
            .members()
            .iter()
            .filter_map(|m| {
                let p = position_of[m.index()];
                (p != usize::MAX).then_some(p)
            })
            .collect();
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();
        let mass: f64 = members
            .iter()
            .map(|&p| table.tuple(selected[p]).membership().value())
            .sum();
        let handle = RuleHandle::from_index(rules.len());
        for &p in &members {
            rule_handle_of[selected[p].index()] = Some(handle);
        }
        rules.push(RuleProjection {
            source: Some(rule.id()),
            members,
            mass: mass.min(1.0),
        });
    }
    let tuples = selected
        .iter()
        .map(|&id| {
            let t = table.tuple(id);
            RankedTuple {
                id,
                prob: t.membership().value(),
                rule: rule_handle_of[id.index()],
                key: t.attr(query.ranking().column()).and_then(|v| v.as_f64()),
            }
        })
        .collect();
    Ok((tuples, rules))
}

/// Columns: 0 `score` (floats and ints with ties), 1 `label` (text),
/// 2 `maybe` (numeric or NULL), 3 `row` (the row index).
const COLUMNS: usize = 4;

/// Two ulps above 0.5: with a member of exactly 0.5 a rule sums to
/// `1 + 1 ulp`, which the builder accepts and projection must clamp.
const HALF_UP: f64 = 0.500_000_000_000_000_2;

fn gen_table(rng: &mut StdRng, size: usize) -> UncertainTable {
    let n = rng.random_range(0..=size.max(1) * 2);
    let mut b = UncertainTableBuilder::new(vec![
        "score".into(),
        "label".into(),
        "maybe".into(),
        "row".into(),
    ]);
    for i in 0..n {
        // Scores from a small set, so ties are common; ints and floats mix.
        let score = match rng.random_range(0..3u32) {
            0 => Value::Int(rng.random_range(0..6i64)),
            _ => Value::Float(f64::from(rng.random_range(0..8u32)) * 0.5),
        };
        let label = Value::Text(format!("{}", (b'a' + rng.random_range(0..4u8)) as char));
        let maybe = if rng.random_bool(0.3) {
            Value::Null
        } else {
            Value::Float(rng.random_range(-5.0..5.0f64))
        };
        let prob = match rng.random_range(0..7u32) {
            0 => 1.0,
            1 => HALF_UP,
            2 => 0.5,
            _ => rng.random_range(0.01..=0.6f64),
        };
        b.push(prob, vec![score, label, maybe, Value::Int(i as i64)])
            .expect("valid row");
    }
    // Disjoint rules of 2..=4 random members, kept when the builder
    // accepts their mass (up to 1 + 1e-9, so 1 + 1 ulp passes).
    let mut free: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut free);
    while free.len() >= 2 && rng.random_bool(0.7) {
        let take = rng.random_range(2..=4usize).min(free.len());
        let members: Vec<_> = free.drain(..take).map(ptk_core::TupleId::new).collect();
        let _ = b.exclusive(&members);
    }
    b.finish().expect("builder invariants hold")
}

fn gen_compare(rng: &mut StdRng, n: usize) -> Predicate {
    let op = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ][rng.random_range(0..6usize)];
    match rng.random_range(0..5u32) {
        0 => Predicate::compare(0, op, f64::from(rng.random_range(0..8u32)) * 0.5),
        1 => Predicate::compare(1, op, "b"),
        2 => Predicate::compare(2, op, rng.random_range(-5.0..5.0f64)),
        // `row != i` drops exactly one tuple, `row < i` a suffix: both cut
        // rules down to some or none of their members.
        _ => Predicate::compare(3, op, rng.random_range(0..=n as i64)),
    }
}

fn gen_predicate(rng: &mut StdRng, n: usize) -> Predicate {
    match rng.random_range(0..8u32) {
        0 => Predicate::True,
        1 => gen_compare(rng, n).and(gen_compare(rng, n)),
        2 => gen_compare(rng, n).or(gen_compare(rng, n)),
        3 => gen_compare(rng, n).not(),
        // Rarely, a column the schema lacks: the error must match too.
        4 if rng.random_bool(0.1) => Predicate::compare(COLUMNS, ComparisonOp::Gt, 0.0),
        _ => gen_compare(rng, n),
    }
}

fn gen_query(rng: &mut StdRng, n: usize) -> TopKQuery {
    let column = if rng.random_bool(0.05) {
        COLUMNS
    } else {
        rng.random_range(0..COLUMNS)
    };
    let direction = if rng.random_bool(0.5) {
        SortDirection::Descending
    } else {
        SortDirection::Ascending
    };
    TopKQuery::new(
        1 + n / 2,
        gen_predicate(rng, n),
        Ranking::by_column(column, direction),
    )
    .expect("k >= 1")
}

fn same_tuples(got: &[RankedTuple], want: &[RankedTuple]) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (pos, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.id, w.id, "id at {}", pos);
        prop_assert_eq!(g.prob.to_bits(), w.prob.to_bits(), "prob at {}", pos);
        prop_assert_eq!(g.rule, w.rule, "rule at {}", pos);
        prop_assert_eq!(
            g.key.map(f64::to_bits),
            w.key.map(f64::to_bits),
            "key at {}",
            pos
        );
    }
    Ok(())
}

fn same_rules(got: &[RuleProjection], want: &[RuleProjection]) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.source, w.source, "source of rule {}", i);
        prop_assert_eq!(&g.members, &w.members, "members of rule {}", i);
        prop_assert_eq!(g.mass.to_bits(), w.mass.to_bits(), "mass of rule {}", i);
    }
    Ok(())
}

#[test]
fn build_equals_the_filter_sort_project_reference() {
    check(
        "build_equals_the_filter_sort_project_reference",
        Config::cases(400).sizes(1, 40).seed(0x005e_1ec7),
        |rng, size| {
            let table = gen_table(rng, size);
            // Several queries per table, so later ones reuse the kept views.
            for _ in 0..4 {
                let query = gen_query(rng, table.len());
                let want = reference_build(&table, &query);
                let got = RankedView::build(&table, &query);
                match (got, want) {
                    (Ok(view), Ok((tuples, rules))) => {
                        same_tuples(view.tuples(), &tuples)?;
                        same_rules(view.rules(), &rules)?;
                        let selection =
                            Selection::new(&table, &query).map_err(|e| e.to_string())?;
                        prop_assert_eq!(selection.len(), tuples.len());
                        prop_assert!(selection.materialize() == view);
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => {
                        return Err(format!(
                            "outcomes differ: build {:?} vs reference {:?}",
                            got.map(|v| v.len()),
                            want.map(|(t, _)| t.len())
                        ))
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn projection_clamps_a_mass_one_ulp_above_one() {
    let mut b = UncertainTableBuilder::single_column();
    let a = b.push_scored(0.5, 2.0).unwrap();
    let c = b.push_scored(HALF_UP, 1.0).unwrap();
    let d = b.push_scored(0.25, 0.5).unwrap();
    b.exclusive(&[a, c]).unwrap();
    let table = b.finish().unwrap();
    const { assert!(0.5 + HALF_UP == 1.0 + f64::EPSILON) };
    let all = RankedView::build(&table, &TopKQuery::top(1, Ranking::descending(0))).unwrap();
    assert_eq!(all.rules()[0].mass.to_bits(), 1.0f64.to_bits());
    // Dropping one member leaves a lone survivor: no rule at all.
    let query = TopKQuery::new(
        1,
        Predicate::compare(0, ComparisonOp::Ne, 2.0),
        Ranking::descending(0),
    )
    .unwrap();
    let view = RankedView::build(&table, &query).unwrap();
    assert!(view.rules().is_empty());
    assert_eq!(view.len(), 2);
    assert_eq!(view.tuple(0).id, c);
    assert_eq!(view.tuple(1).id, d);
}

#[test]
fn where_less_builds_share_the_ranked_view() {
    let mut b = UncertainTableBuilder::single_column();
    for i in 0..6 {
        b.push_scored(0.5, f64::from(i)).unwrap();
    }
    let table = b.finish().unwrap();
    let desc = TopKQuery::top(2, Ranking::descending(0));
    let first = RankedView::build(&table, &desc).unwrap();
    let again = RankedView::build(&table, &TopKQuery::top(5, Ranking::descending(0))).unwrap();
    assert!(std::ptr::eq(
        first.tuples().as_ptr(),
        again.tuples().as_ptr()
    ));
    assert!(std::ptr::eq(first.rules().as_ptr(), again.rules().as_ptr()));
    let shared = table.ranked(&Ranking::descending(0)).unwrap();
    assert!(std::ptr::eq(
        first.tuples().as_ptr(),
        shared.tuples().as_ptr()
    ));
    // A predicate that keeps every tuple selects the shared view itself.
    let everything = TopKQuery::new(
        2,
        Predicate::compare(0, ComparisonOp::Ge, -1.0),
        Ranking::descending(0),
    )
    .unwrap();
    let kept = RankedView::build(&table, &everything).unwrap();
    assert!(std::ptr::eq(
        first.tuples().as_ptr(),
        kept.tuples().as_ptr()
    ));
    // The other direction is its own view.
    let asc = RankedView::build(&table, &TopKQuery::top(2, Ranking::ascending(0))).unwrap();
    assert!(!std::ptr::eq(
        first.tuples().as_ptr(),
        asc.tuples().as_ptr()
    ));
    assert_eq!(asc.tuple(0).id, first.tuple(5).id);
}
