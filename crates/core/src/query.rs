//! Query descriptions: predicates, ranking functions, top-k and PT-k queries.

use std::cmp::Ordering;

use crate::{ModelError, Probability, Result, Tuple, Value};

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparisonOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl ComparisonOp {
    fn matches(self, ord: Ordering) -> bool {
        match self {
            ComparisonOp::Eq => ord == Ordering::Equal,
            ComparisonOp::Ne => ord != Ordering::Equal,
            ComparisonOp::Lt => ord == Ordering::Less,
            ComparisonOp::Le => ord != Ordering::Greater,
            ComparisonOp::Gt => ord == Ordering::Greater,
            ComparisonOp::Ge => ord != Ordering::Less,
        }
    }

    /// The orderings the operator accepts, as an interval `low..=high` of
    /// `Less < Equal < Greater`; `None` for `≠`, which accepts two
    /// disjoint ones.
    pub(crate) fn accepted(self) -> Option<(Ordering, Ordering)> {
        use Ordering::{Equal, Greater, Less};
        match self {
            ComparisonOp::Eq => Some((Equal, Equal)),
            ComparisonOp::Ne => None,
            ComparisonOp::Lt => Some((Less, Less)),
            ComparisonOp::Le => Some((Less, Equal)),
            ComparisonOp::Gt => Some((Greater, Greater)),
            ComparisonOp::Ge => Some((Equal, Greater)),
        }
    }
}

/// The predicate `P` of a top-k query `Q^k(P, f)`: selects which tuples
/// participate in the query at all.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Accepts every tuple.
    True,
    /// Compares the value in a column against a constant.
    Compare {
        /// Column index into the table schema.
        column: usize,
        /// Comparison operator.
        op: ComparisonOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Both sub-predicates must hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate must hold.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate must not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// A column/constant comparison.
    pub fn compare(column: usize, op: ComparisonOp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column,
            op,
            value: value.into(),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate against a tuple.
    ///
    /// # Errors
    /// Fails with [`ModelError::UnknownColumn`] if a comparison references a
    /// column the tuple does not have. Comparisons against `Null` are false
    /// for every operator except `Ne`, mirroring SQL's null semantics
    /// approximately while staying two-valued.
    pub fn eval(&self, tuple: Tuple<'_>) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Compare { column, op, value } => {
                let lhs = tuple
                    .attr(*column)
                    .ok_or(ModelError::UnknownColumn(*column))?;
                if matches!(lhs, Value::Null) || matches!(value, Value::Null) {
                    return Ok(*op == ComparisonOp::Ne && lhs != value);
                }
                Ok(op.matches(lhs.total_cmp(value)))
            }
            Predicate::And(a, b) => Ok(a.eval(tuple)? && b.eval(tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(tuple)? || b.eval(tuple)?),
            Predicate::Not(a) => Ok(!a.eval(tuple)?),
        }
    }
}

/// Sort direction for ranking functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDirection {
    /// Highest value ranks first (the paper's workloads: longest duration,
    /// most drifted days).
    Descending,
    /// Lowest value ranks first.
    Ascending,
}

/// The ranking function `f` of a top-k query: orders tuples by a column.
///
/// Ties are broken by tuple id so that `⪯_f` is a total order, as §2
/// requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ranking {
    column: usize,
    direction: SortDirection,
}

impl Ranking {
    /// Ranks by the given column in the given direction.
    pub fn by_column(column: usize, direction: SortDirection) -> Ranking {
        Ranking { column, direction }
    }

    /// Ranks by the given column, highest first.
    pub fn descending(column: usize) -> Ranking {
        Ranking {
            column,
            direction: SortDirection::Descending,
        }
    }

    /// Ranks by the given column, lowest first.
    pub fn ascending(column: usize) -> Ranking {
        Ranking {
            column,
            direction: SortDirection::Ascending,
        }
    }

    /// The ranked column's index.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The sort direction.
    pub fn direction(&self) -> SortDirection {
        self.direction
    }

    /// Compares two tuples in ranking order: `Less` means `a` ranks strictly
    /// higher (earlier) than `b`.
    ///
    /// # Errors
    /// Fails if either tuple lacks the ranked column.
    pub fn compare(&self, a: Tuple<'_>, b: Tuple<'_>) -> Result<Ordering> {
        let va = a
            .attr(self.column)
            .ok_or(ModelError::UnknownColumn(self.column))?;
        let vb = b
            .attr(self.column)
            .ok_or(ModelError::UnknownColumn(self.column))?;
        let ord = match self.direction {
            SortDirection::Descending => vb.total_cmp(va),
            SortDirection::Ascending => va.total_cmp(vb),
        };
        Ok(ord.then_with(|| a.id().cmp(&b.id())))
    }

    /// Extracts the numeric rank key of a tuple (used by reports; ranking
    /// itself goes through [`Ranking::compare`], which also supports
    /// non-numeric columns).
    pub fn key(&self, tuple: Tuple<'_>) -> Result<f64> {
        let v = tuple
            .attr(self.column)
            .ok_or(ModelError::UnknownColumn(self.column))?;
        v.as_f64().ok_or(ModelError::NonNumericRankKey {
            tuple: tuple.id(),
            column: self.column,
        })
    }
}

/// A top-k query `Q^k(P, f)`: the tuples satisfying `P`, ordered by `f`, cut
/// at depth `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKQuery {
    k: usize,
    predicate: Predicate,
    ranking: Ranking,
}

impl TopKQuery {
    /// A query with an explicit predicate.
    ///
    /// Use [`TopKQuery::top`] when every tuple participates.
    pub fn new(k: usize, predicate: Predicate, ranking: Ranking) -> Result<TopKQuery> {
        if k == 0 {
            return Err(ModelError::ZeroK);
        }
        Ok(TopKQuery {
            k,
            predicate,
            ranking,
        })
    }

    /// A query selecting all tuples (`P = true`).
    ///
    /// # Panics
    /// Panics if `k == 0`; use [`TopKQuery::new`] for fallible construction.
    pub fn top(k: usize, ranking: Ranking) -> TopKQuery {
        TopKQuery::new(k, Predicate::True, ranking).expect("k >= 1")
    }

    /// The query depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The predicate `P`.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The ranking function `f`.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }
}

/// A probabilistic threshold top-k query: a [`TopKQuery`] plus the threshold
/// `p ∈ (0, 1]`. Its answer is `{t : Pr^k(t) ≥ p}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PtkQuery {
    query: TopKQuery,
    threshold: Probability,
}

impl PtkQuery {
    /// Combines a top-k query with a probability threshold.
    ///
    /// # Errors
    /// Fails if `threshold` is not in `(0, 1]` (the paper requires
    /// `0 < p ≤ 1`; `p = 0` would make every tuple an answer).
    pub fn new(query: TopKQuery, threshold: f64) -> Result<PtkQuery> {
        let threshold =
            Probability::new_membership(threshold).map_err(|_| ModelError::InvalidProbability {
                value: threshold,
                context: "PT-k threshold",
            })?;
        Ok(PtkQuery { query, threshold })
    }

    /// The underlying top-k query.
    pub fn query(&self) -> &TopKQuery {
        &self.query
    }

    /// The query depth `k`.
    pub fn k(&self) -> usize {
        self.query.k()
    }

    /// The probability threshold `p`.
    pub fn threshold(&self) -> Probability {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TupleId, UncertainTable, UncertainTableBuilder};

    /// A one-tuple table holding `attrs`.
    fn table(attrs: Vec<Value>) -> UncertainTable {
        let mut b = UncertainTableBuilder::new((0..attrs.len()).map(|i| format!("c{i}")).collect());
        b.push(0.5, attrs).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn comparison_operators() {
        let table = table(vec![Value::Int(5)]);
        let t = table.tuple(TupleId::new(0));
        for (op, expect) in [
            (ComparisonOp::Eq, false),
            (ComparisonOp::Ne, true),
            (ComparisonOp::Lt, true),
            (ComparisonOp::Le, true),
            (ComparisonOp::Gt, false),
            (ComparisonOp::Ge, false),
        ] {
            let p = Predicate::compare(0, op, 7i64);
            assert_eq!(p.eval(t).unwrap(), expect, "{op:?}");
        }
    }

    #[test]
    fn accepted_interval_is_what_the_operator_matches() {
        use ComparisonOp::*;
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            let Some((low, high)) = op.accepted() else {
                assert_eq!(op, Ne);
                continue;
            };
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(low <= ord && ord <= high, op.matches(ord), "{op:?} {ord:?}");
            }
        }
    }

    #[test]
    fn boolean_combinators() {
        let table = table(vec![Value::Int(5), Value::from("x")]);
        let t = table.tuple(TupleId::new(0));
        let a = Predicate::compare(0, ComparisonOp::Gt, 1i64);
        let b = Predicate::compare(1, ComparisonOp::Eq, "x");
        assert!(a.clone().and(b.clone()).eval(t).unwrap());
        assert!(a.clone().or(b.clone().not()).eval(t).unwrap());
        assert!(!a.and(b.not()).eval(t).unwrap());
        assert!(Predicate::True.eval(t).unwrap());
    }

    #[test]
    fn null_comparisons_are_mostly_false() {
        let table = table(vec![Value::Null]);
        let t = table.tuple(TupleId::new(0));
        assert!(!Predicate::compare(0, ComparisonOp::Eq, 1i64)
            .eval(t)
            .unwrap());
        assert!(!Predicate::compare(0, ComparisonOp::Lt, 1i64)
            .eval(t)
            .unwrap());
        assert!(Predicate::compare(0, ComparisonOp::Ne, 1i64)
            .eval(t)
            .unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let table = table(vec![Value::Int(5)]);
        let t = table.tuple(TupleId::new(0));
        assert!(matches!(
            Predicate::compare(3, ComparisonOp::Eq, 1i64).eval(t),
            Err(ModelError::UnknownColumn(3))
        ));
    }

    #[test]
    fn ranking_orders_and_breaks_ties_by_id() {
        let mut b = UncertainTableBuilder::single_column();
        let a = b.push_scored(0.5, 10.0).unwrap();
        let c = b.push_scored(0.5, 20.0).unwrap();
        let d = b.push_scored(0.5, 10.0).unwrap();
        let t = b.finish().unwrap();
        let desc = Ranking::descending(0);
        assert_eq!(
            desc.compare(t.tuple(c), t.tuple(a)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            desc.compare(t.tuple(a), t.tuple(d)).unwrap(),
            Ordering::Less
        );
        let asc = Ranking::ascending(0);
        assert_eq!(asc.compare(t.tuple(a), t.tuple(c)).unwrap(), Ordering::Less);
        assert_eq!(desc.key(t.tuple(c)).unwrap(), 20.0);
    }

    #[test]
    fn rank_key_requires_numeric() {
        let table = table(vec![Value::from("abc")]);
        let t = table.tuple(TupleId::new(0));
        assert!(matches!(
            Ranking::descending(0).key(t),
            Err(ModelError::NonNumericRankKey { .. })
        ));
    }

    #[test]
    fn query_constructors_validate() {
        assert!(matches!(
            TopKQuery::new(0, Predicate::True, Ranking::descending(0)),
            Err(ModelError::ZeroK)
        ));
        let q = TopKQuery::top(3, Ranking::descending(0));
        assert_eq!(q.k(), 3);
        assert!(PtkQuery::new(q.clone(), 0.0).is_err());
        assert!(PtkQuery::new(q.clone(), 1.1).is_err());
        let ptk = PtkQuery::new(q, 0.4).unwrap();
        assert_eq!(ptk.k(), 3);
        assert_eq!(ptk.threshold().value(), 0.4);
    }
}
