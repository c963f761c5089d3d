//! `RankedView::build` — a selection over the table's shared ranked view,
//! materialized — must equal filtering the table, sorting the survivors and
//! projecting the rules from scratch, bit for bit. The from-scratch builder
//! is kept here as the reference. The selection itself (its length, every
//! position, its score flag, total mass and rule projections) is checked
//! against the reference too, whether it is a ranked range or took the
//! predicate pass. Tables come in two shapes: six typed columns built for
//! the ranked-range edge cases, or zero to four columns whose cells are of
//! any kind (`Null`, `Bool`, `Int`, `Float`, `Text`); every table must
//! also hand back exactly the rows pushed into it.

use std::sync::atomic::{AtomicUsize, Ordering};

use ptk_core::check::{check, Config};
use ptk_core::prop_assert_eq;
use ptk_core::rng::{RngExt, StdRng};

use ptk_core::{
    ComparisonOp, ModelError, Predicate, RankedTuple, RankedView, Ranking, RuleHandle,
    RuleProjection, Selection, SortDirection, TopKQuery, TupleId, UncertainTable,
    UncertainTableBuilder, Value,
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

/// Columns of the wide shape: 0 `score` (floats and ints with ties), 1
/// `label` (text), 2 `maybe` (numeric or NULL), 3 `row` (the row index), 4
/// `big` (ints only, beyond ±2^53 too), 5 `real` (floats only, with NaN,
/// ±0.0, ±∞). Comparisons of a ranked `row`, `big` or `real` with a number
/// select a ranked range; every other predicate takes the predicate pass.
const COLUMNS: usize = 6;

/// The columns of a generated table.
#[derive(Clone, Copy)]
enum Shape {
    /// The [`COLUMNS`] typed columns.
    Wide,
    /// `arity` columns of cells of any kind, or each of one numeric kind.
    /// At arity 0 nothing can be ranked: every query ranks by a missing
    /// column.
    Narrow { arity: usize },
}

impl Shape {
    fn arity(self) -> usize {
        match self {
            Shape::Wide => COLUMNS,
            Shape::Narrow { arity } => arity,
        }
    }
}

/// A generated table and the rows pushed into it, in push order.
struct Generated {
    table: UncertainTable,
    shape: Shape,
    rows: Vec<(f64, Vec<Value>)>,
}

const TWO_53: i64 = 1 << 53;

const BIG: [i64; 9] = [
    i64::MIN,
    -TWO_53 - 1,
    -TWO_53,
    -3,
    0,
    7,
    TWO_53,
    TWO_53 + 1,
    i64::MAX,
];

const REAL: [f64; 9] = [
    f64::NEG_INFINITY,
    -2.5,
    -0.0,
    0.0,
    1.0,
    TWO_53 as f64,
    f64::INFINITY,
    f64::NAN,
    -f64::NAN,
];

/// Two ulps above 0.5: with a member of exactly 0.5 a rule sums to
/// `1 + 1 ulp`, which the builder accepts and projection must clamp.
const HALF_UP: f64 = 0.500_000_000_000_000_2;

/// A membership probability: certain, a half, two ulps above a half, or
/// uniform.
fn gen_prob(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..7u32) {
        0 => 1.0,
        1 => HALF_UP,
        2 => 0.5,
        _ => rng.random_range(0.01..=0.6f64),
    }
}

/// A row of the wide shape.
fn gen_wide_row(rng: &mut StdRng, i: usize) -> Vec<Value> {
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
    let big = Value::Int(BIG[rng.random_range(0..BIG.len())]);
    let real = Value::Float(REAL[rng.random_range(0..REAL.len())]);
    vec![score, label, maybe, Value::Int(i as i64), big, real]
}

/// A cell of kind `kind` (0 `Null`, 1 `Bool`, 2 `Int`, 3 `Float`, 4
/// `Text`), or of a random kind. Ints and floats share values, so mixed
/// columns tie across kinds.
fn gen_cell(rng: &mut StdRng, kind: Option<u32>) -> Value {
    match kind.unwrap_or_else(|| rng.random_range(0..5u32)) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => Value::Int(rng.random_range(-3..=3i64)),
        3 => Value::Float(f64::from(rng.random_range(-6..=6i32)) * 0.5),
        _ => Value::from(["", "a", "b", "b c", "z"][rng.random_range(0..5usize)]),
    }
}

fn gen_table(rng: &mut StdRng, size: usize) -> Generated {
    let n = rng.random_range(0..=size.max(1) * 2);
    let shape = if rng.random_bool(0.7) {
        Shape::Wide
    } else {
        Shape::Narrow {
            arity: rng.random_range(0..=4usize),
        }
    };
    let mut b = match shape {
        Shape::Wide => UncertainTableBuilder::new(vec![
            "score".into(),
            "label".into(),
            "maybe".into(),
            "row".into(),
            "big".into(),
            "real".into(),
        ]),
        Shape::Narrow { arity } => {
            UncertainTableBuilder::new((0..arity).map(|c| format!("c{c}")).collect())
        }
    };
    // Per narrow column: one numeric kind (so a comparison of it, ranked,
    // can be a ranked range) or any kind per cell.
    let kinds: Vec<Option<u32>> = (0..shape.arity())
        .map(|_| match rng.random_range(0..4u32) {
            0 => Some(2),
            1 => Some(3),
            _ => None,
        })
        .collect();
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let attrs = match shape {
            Shape::Wide => gen_wide_row(rng, i),
            Shape::Narrow { .. } => kinds.iter().map(|&kind| gen_cell(rng, kind)).collect(),
        };
        let prob = gen_prob(rng);
        b.push(prob, attrs.iter().cloned()).expect("valid row");
        rows.push((prob, attrs));
    }
    // Disjoint rules of 2..=4 random members, kept when the builder
    // accepts their mass (up to 1 + 1e-9, so 1 + 1 ulp passes).
    let mut free: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut free);
    while free.len() >= 2 && rng.random_bool(0.7) {
        let take = rng.random_range(2..=4usize).min(free.len());
        let members: Vec<_> = free.drain(..take).map(TupleId::new).collect();
        let _ = b.exclusive(&members);
    }
    let table = b.finish().expect("builder invariants hold");
    Generated { table, shape, rows }
}

/// Whether two values are the same, floats bit for bit.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The table hands back exactly the rows pushed into it, through
/// `tuples()` and `tuple(id)` alike.
fn same_rows(table: &UncertainTable, rows: &[(f64, Vec<Value>)]) -> Result<(), String> {
    prop_assert_eq!(table.tuples().len(), rows.len());
    for (i, (t, (prob, attrs))) in table.tuples().zip(rows).enumerate() {
        prop_assert_eq!(t.id(), TupleId::new(i));
        let by_id = table.tuple(t.id());
        prop_assert_eq!(
            (by_id.membership(), by_id.attrs().as_ptr()),
            (t.membership(), t.attrs().as_ptr()),
            "tuple {}",
            i
        );
        prop_assert_eq!(t.membership().value().to_bits(), prob.to_bits());
        prop_assert_eq!(t.attrs().len(), attrs.len(), "arity of {}", i);
        for (col, want) in attrs.iter().enumerate() {
            let got = t.attr(col).expect("column in the schema");
            if !same_value(got, want) {
                return Err(format!(
                    "tuple {i} column {col}: {got:?} vs pushed {want:?}"
                ));
            }
        }
        prop_assert_eq!(t.attr(attrs.len()), None, "past the arity of {}", i);
    }
    Ok(())
}

/// A comparison of `column` with a constant of the column's kind (on the
/// wide shape; `big` and `real` also meet constants of the other numeric
/// type), or of any kind (on the narrow one).
fn gen_compare_on(rng: &mut StdRng, shape: Shape, column: usize, n: usize) -> Predicate {
    let op = [
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ][rng.random_range(0..6usize)];
    if let Shape::Narrow { .. } = shape {
        return Predicate::compare(column, op, gen_cell(rng, None));
    }
    let value = match column {
        0 => Value::Float(f64::from(rng.random_range(0..8u32)) * 0.5),
        1 => Value::from("b"),
        2 => Value::Float(rng.random_range(-5.0..5.0f64)),
        // `row != i` drops exactly one tuple, `row < i` a suffix: both cut
        // rules down to some or none of their members.
        3 => Value::Int(rng.random_range(0..=n as i64)),
        4 if rng.random_bool(0.5) => Value::Int(BIG[rng.random_range(0..BIG.len())]),
        4 => Value::Float(
            [
                TWO_53 as f64,
                -(TWO_53 as f64),
                9.3e18,
                -9.3e18,
                0.5,
                -0.0,
                f64::INFINITY,
                f64::NAN,
            ][rng.random_range(0..8usize)],
        ),
        5 if rng.random_bool(0.5) => Value::Float(REAL[rng.random_range(0..REAL.len())]),
        _ => Value::Int([0, 1, -3, TWO_53 + 1, i64::MAX][rng.random_range(0..5usize)]),
    };
    Predicate::compare(column, op, value)
}

fn gen_compare(rng: &mut StdRng, shape: Shape, n: usize) -> Predicate {
    match shape.arity() {
        // No column to compare: the predicate pass meets a missing one.
        0 => Predicate::compare(0, ComparisonOp::Ne, Value::Null),
        arity => {
            let column = rng.random_range(0..arity);
            gen_compare_on(rng, shape, column, n)
        }
    }
}

fn gen_predicate(rng: &mut StdRng, shape: Shape, n: usize) -> Predicate {
    match rng.random_range(0..8u32) {
        0 => Predicate::True,
        1 => gen_compare(rng, shape, n).and(gen_compare(rng, shape, n)),
        2 => gen_compare(rng, shape, n).or(gen_compare(rng, shape, n)),
        3 => gen_compare(rng, shape, n).not(),
        // Rarely, a column the schema lacks: the error must match too.
        4 if rng.random_bool(0.1) => Predicate::compare(shape.arity(), ComparisonOp::Gt, 0.0),
        _ => gen_compare(rng, shape, n),
    }
}

fn gen_query(rng: &mut StdRng, shape: Shape, n: usize) -> TopKQuery {
    let arity = shape.arity();
    let column = if arity == 0 || rng.random_bool(0.05) {
        arity
    } else {
        rng.random_range(0..arity)
    };
    let direction = if rng.random_bool(0.5) {
        SortDirection::Descending
    } else {
        SortDirection::Ascending
    };
    // A third of the queries compare the ranked column itself: on `row`,
    // `big` and `real` that is a ranked range (on a missing column, the
    // same error as the predicate pass).
    let predicate = if rng.random_bool(1.0 / 3.0) {
        gen_compare_on(rng, shape, column, n)
    } else {
        gen_predicate(rng, shape, n)
    };
    TopKQuery::new(1 + n / 2, predicate, Ranking::by_column(column, direction)).expect("k >= 1")
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

/// The selection's own answers against the reference `P(T)`, without
/// going through `materialize()`: its length, the selection position of
/// every ranked position of its view, its score flag, its total mass bits
/// and the projection of every rule of its view.
fn same_selection(
    table: &UncertainTable,
    selection: &Selection,
    tuples: &[RankedTuple],
    rules: &[RuleProjection],
) -> Result<(), String> {
    prop_assert_eq!(selection.len(), tuples.len());
    let mut position_of = vec![None; table.len()];
    for (pos, t) in tuples.iter().enumerate() {
        position_of[t.id.index()] = Some(pos);
    }
    let shared = selection.view();
    for ranked in 0..=shared.len() {
        let want = shared
            .tuples()
            .get(ranked)
            .and_then(|t| position_of[t.id.index()]);
        prop_assert_eq!(selection.position(ranked), want, "position of {}", ranked);
    }
    let mut last = f64::INFINITY;
    let keys_descend = tuples.iter().all(|t| match t.key {
        Some(key) if key <= last => {
            last = key;
            true
        }
        _ => false,
    });
    prop_assert_eq!(selection.keys_descend(), keys_descend);
    let mass = tuples.iter().fold(0.0, |mass, t| mass + t.prob);
    prop_assert_eq!(selection.total_mass().to_bits(), mass.to_bits());
    let mut projected = 0;
    for (index, rule) in shared.rules().iter().enumerate() {
        let got = selection.project(RuleHandle::from_index(index));
        let want = rules.iter().find(|w| w.source == rule.source);
        match (got, want) {
            (Some(got), Some(want)) => {
                projected += 1;
                prop_assert_eq!(&got.members, &want.members, "members of rule {}", index);
                prop_assert_eq!(got.mass.to_bits(), want.mass.to_bits(), "mass of {}", index);
            }
            (None, None) => {}
            (got, want) => {
                return Err(format!(
                    "rule {index}: selection {:?} vs reference {want:?}",
                    got.map(|g| g.members.clone())
                ))
            }
        }
    }
    prop_assert_eq!(projected, rules.len());
    Ok(())
}

#[test]
fn build_equals_the_filter_sort_project_reference() {
    // Filtered selections found as a proper ranked range, neither empty
    // nor the whole table: the generator must reach them.
    let proper_ranges = AtomicUsize::new(0);
    // Narrow tables by arity: at 0 every table, above it the non-empty
    // views built. Every arity must be reached.
    let narrow: [AtomicUsize; 5] = Default::default();
    check(
        "build_equals_the_filter_sort_project_reference",
        Config::cases(400).sizes(1, 40).seed(0x005e_1ec7),
        |rng, size| {
            let Generated { table, shape, rows } = gen_table(rng, size);
            same_rows(&table, &rows)?;
            if let Shape::Narrow { arity: 0 } = shape {
                narrow[0].fetch_add(1, Ordering::Relaxed);
            }
            // Several queries per table, so later ones reuse the kept views.
            for _ in 0..4 {
                let query = gen_query(rng, shape, table.len());
                let want = reference_build(&table, &query);
                let got = RankedView::build(&table, &query);
                match (got, want) {
                    (Ok(view), Ok((tuples, rules))) => {
                        if let Shape::Narrow { arity } = shape {
                            if !view.is_empty() {
                                narrow[arity].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        same_tuples(view.tuples(), &tuples)?;
                        same_rules(view.rules(), &rules)?;
                        let selection =
                            Selection::new(&table, &query).map_err(|e| e.to_string())?;
                        same_selection(&table, &selection, &tuples, &rules)?;
                        if *query.predicate() != Predicate::True
                            && !selection.ran_predicate_pass()
                            && (1..table.len()).contains(&selection.len())
                        {
                            proper_ranges.fetch_add(1, Ordering::Relaxed);
                        }
                        // Bit for bit: `==` fails on the NaN keys of `real`.
                        let materialized = selection.materialize();
                        same_tuples(materialized.tuples(), &tuples)?;
                        same_rules(materialized.rules(), &rules)?;
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
    let proper_ranges = proper_ranges.into_inner();
    assert!(proper_ranges >= 50, "{proper_ranges} proper ranked ranges");
    let narrow = narrow.map(AtomicUsize::into_inner);
    assert!(
        narrow.iter().all(|&n| n >= 10),
        "narrow tables by arity: {narrow:?}"
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

#[test]
fn a_mixed_numeric_column_takes_the_predicate_pass() {
    // Beyond 2^53 an `Int` meets a `Float` through a rounded `f64`, so
    // `total_cmp` is not transitive: Int(2^53) < Int(2^53 + 1), yet both
    // equal Float(2^53).
    let mut b = UncertainTableBuilder::single_column();
    for value in [
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Float(TWO_53 as f64),
    ] {
        b.push(0.5, [value]).unwrap();
    }
    let table = b.finish().unwrap();
    let ranking = Ranking::descending(0);
    let ranked: Vec<usize> = table
        .ranked(&ranking)
        .unwrap()
        .tuples()
        .iter()
        .map(|t| t.id.index())
        .collect();
    assert_eq!(ranked, [1, 0, 2]);
    let query = TopKQuery::new(
        1,
        Predicate::compare(0, ComparisonOp::Ge, TWO_53 + 1),
        ranking,
    )
    .unwrap();
    // `>=` passes ranked positions 0 and 2: not a prefix of the ranking.
    let selection = Selection::new(&table, &query).unwrap();
    assert!(selection.ran_predicate_pass());
    let positions: Vec<_> = (0..3).map(|r| selection.position(r)).collect();
    assert_eq!(positions, [Some(0), None, Some(1)]);
    let (tuples, rules) = reference_build(&table, &query).unwrap();
    same_selection(&table, &selection, &tuples, &rules).unwrap();
    same_tuples(selection.materialize().tuples(), &tuples).unwrap();
}

#[test]
fn single_type_comparisons_of_the_ranked_column_select_a_range() {
    let mut b = UncertainTableBuilder::new(vec!["big".into(), "real".into()]);
    for (big, real) in BIG.iter().zip(REAL) {
        b.push(0.5, [Value::Int(*big), Value::Float(real)]).unwrap();
    }
    let table = b.finish().unwrap();
    for (column, value) in [(0, Value::Float(TWO_53 as f64)), (1, Value::Int(0))] {
        for direction in [SortDirection::Descending, SortDirection::Ascending] {
            let query = |op| {
                let predicate = Predicate::compare(column, op, value.clone());
                TopKQuery::new(1, predicate, Ranking::by_column(column, direction)).unwrap()
            };
            for op in [
                ComparisonOp::Eq,
                ComparisonOp::Lt,
                ComparisonOp::Le,
                ComparisonOp::Gt,
                ComparisonOp::Ge,
            ] {
                let selection = Selection::new(&table, &query(op)).unwrap();
                assert!(!selection.ran_predicate_pass(), "{column} {op:?}");
                let (tuples, rules) = reference_build(&table, &query(op)).unwrap();
                same_selection(&table, &selection, &tuples, &rules).unwrap();
            }
            let selection = Selection::new(&table, &query(ComparisonOp::Ne)).unwrap();
            assert!(selection.ran_predicate_pass(), "{column} !=");
        }
    }
}
