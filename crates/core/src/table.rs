//! Uncertain tables and their builder.

use std::sync::OnceLock;

use crate::{
    GenerationRule, ModelError, Probability, RankedView, Ranking, Result, RuleId, SortDirection,
    Tuple, TupleId, Value, WorldCount,
};

/// Tolerance used when checking that a rule's membership probabilities sum to
/// at most one: real-world confidences are often renormalized quotients whose
/// sum lands a few ulps above 1.
const RULE_MASS_EPS: f64 = 1e-9;

/// Builder for [`UncertainTable`].
///
/// Collects tuples and exclusiveness constraints, validating each step, and
/// produces an immutable table via [`UncertainTableBuilder::finish`].
#[derive(Debug, Clone)]
pub struct UncertainTableBuilder {
    columns: Vec<String>,
    memberships: Vec<Probability>,
    /// Every tuple's attribute row, back to back: tuple `i` holds
    /// `values[i * arity..(i + 1) * arity]`.
    values: Vec<Value>,
    rules: Vec<GenerationRule>,
    /// `rule_of[i]` is the multi-tuple rule containing tuple `i`, if any.
    rule_of: Vec<Option<RuleId>>,
}

impl UncertainTableBuilder {
    /// Starts a table with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        UncertainTableBuilder {
            columns,
            memberships: Vec::new(),
            values: Vec::new(),
            rules: Vec::new(),
            rule_of: Vec::new(),
        }
    }

    /// Starts a table with a single anonymous score column, for workloads
    /// that only ever rank by one number.
    pub fn single_column() -> Self {
        Self::new(vec!["score".to_owned()])
    }

    /// Appends a tuple with membership probability `membership` and the given
    /// attribute row; returns its id. The row's values go straight into
    /// the table's value array: a row is never a collection of its own.
    ///
    /// # Errors
    /// Fails if the probability is outside `(0, 1]` or the row arity does not
    /// match the schema; the table is then unchanged.
    pub fn push(
        &mut self,
        membership: f64,
        attrs: impl IntoIterator<Item = Value>,
    ) -> Result<TupleId> {
        let membership = Probability::new_membership(membership)?;
        let arity = self.columns.len();
        let start = self.values.len();
        let mut attrs = attrs.into_iter();
        self.values.extend(attrs.by_ref().take(arity));
        let actual = self.values.len() - start + attrs.count();
        if actual != arity {
            self.values.truncate(start);
            return Err(ModelError::ArityMismatch {
                expected: arity,
                actual,
            });
        }
        let id = TupleId::new(self.memberships.len());
        self.memberships.push(membership);
        self.rule_of.push(None);
        Ok(id)
    }

    /// Convenience for single-column tables: pushes `(membership, score)`.
    pub fn push_scored(&mut self, membership: f64, score: f64) -> Result<TupleId> {
        self.push(membership, [Value::Float(score)])
    }

    /// Declares the given tuples mutually exclusive (a multi-tuple generation
    /// rule); returns the rule id.
    ///
    /// Each member's rule link is set to the new rule as the member is
    /// checked, so a member whose link already names the new rule is a
    /// repeat. An error resets the links set so far: a refused rule leaves
    /// the builder unchanged.
    ///
    /// # Errors
    /// Fails if the rule is empty; else at the first member that is
    /// unknown, repeated or in an existing rule; else if the members'
    /// probabilities sum above 1.
    pub fn exclusive(&mut self, members: &[TupleId]) -> Result<RuleId> {
        if members.is_empty() {
            return Err(ModelError::EmptyRule);
        }
        let id = RuleId::new(self.rules.len());
        let mut mass = 0.0;
        for (linked, &m) in members.iter().enumerate() {
            let refused = match self.rule_of.get(m.index()) {
                None => ModelError::UnknownTuple(m),
                Some(Some(rule)) if *rule == id => ModelError::DuplicateRuleMember(m),
                Some(&Some(existing)) => ModelError::TupleInMultipleRules { tuple: m, existing },
                Some(None) => {
                    self.rule_of[m.index()] = Some(id);
                    mass += self.memberships[m.index()].value();
                    continue;
                }
            };
            self.unlink(&members[..linked]);
            return Err(refused);
        }
        if mass > 1.0 + RULE_MASS_EPS {
            self.unlink(members);
            return Err(ModelError::RuleMassExceedsOne {
                members: members.to_vec(),
                total: mass,
            });
        }
        self.rules.push(GenerationRule::new(
            id,
            members.to_vec(),
            Probability::clamped(mass, RULE_MASS_EPS),
        ));
        Ok(id)
    }

    /// Resets the rule links of `members`, which [`exclusive`](Self::exclusive)
    /// set for a rule it then refused.
    fn unlink(&mut self, members: &[TupleId]) {
        for &m in members {
            self.rule_of[m.index()] = None;
        }
    }

    /// Number of tuples pushed so far.
    pub fn len(&self) -> usize {
        self.memberships.len()
    }

    /// Whether no tuples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.memberships.is_empty()
    }

    /// Finalizes the table.
    ///
    /// All invariants are enforced incrementally by [`push`](Self::push) and
    /// [`exclusive`](Self::exclusive), so this cannot currently fail; the
    /// `Result` return type leaves room for whole-table checks.
    pub fn finish(self) -> Result<UncertainTable> {
        Ok(UncertainTable {
            ranked: self.columns.iter().map(|_| Default::default()).collect(),
            columns: self.columns,
            memberships: self.memberships,
            values: self.values,
            rules: self.rules,
            rule_of: self.rule_of,
        })
    }
}

/// An immutable uncertain table: tuples, membership probabilities and
/// generation rules (the x-relation model of §2 of the paper).
///
/// Tuples not covered by any multi-tuple rule are *independent*; the paper's
/// conceptual singleton rules are not materialized.
///
/// The tuples live in three flat arrays indexed by [`TupleId::index`] —
/// memberships, attribute values (row-major, one row of `columns().len()`
/// values per tuple) and rule links — so a table makes a handful of
/// allocations however many rows it holds, and [`Tuple`] is a borrow into
/// them.
///
/// The table also keeps its predicate-free ranked view per ranking, built on
/// first use (see [`UncertainTable::ranked`]). The table is immutable, so a
/// kept view never goes stale, and the table can be shared across threads.
#[derive(Debug, Clone)]
pub struct UncertainTable {
    columns: Vec<String>,
    memberships: Vec<Probability>,
    values: Vec<Value>,
    rules: Vec<GenerationRule>,
    rule_of: Vec<Option<RuleId>>,
    /// `ranked[c][d]`: the ranked view by column `c`, descending (`d = 0`)
    /// or ascending (`d = 1`), once some query has asked for it, beside
    /// whether column `c` holds a single numeric type.
    ranked: Vec<[OnceLock<(RankedView, bool)>; 2]>,
}

impl UncertainTable {
    /// The column names, in schema order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Resolves a column name to its index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.memberships.len()
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.memberships.is_empty()
    }

    /// All tuples, in [`TupleId::index`] order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = Tuple<'_>> + '_ {
        (0..self.len()).map(|i| self.tuple(TupleId::new(i)))
    }

    /// The tuple with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this table.
    pub fn tuple(&self, id: TupleId) -> Tuple<'_> {
        let arity = self.columns.len();
        let row = id.index() * arity;
        Tuple::new(
            id,
            self.memberships[id.index()],
            &self.values[row..row + arity],
        )
    }

    /// All multi-tuple generation rules.
    pub fn rules(&self) -> &[GenerationRule] {
        &self.rules
    }

    /// The rule with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this table.
    pub fn rule(&self, id: RuleId) -> &GenerationRule {
        &self.rules[id.index()]
    }

    /// The multi-tuple rule containing `tuple`, or `None` if it is
    /// independent.
    pub fn rule_of(&self, tuple: TupleId) -> Option<RuleId> {
        self.rule_of[tuple.index()]
    }

    /// Whether `tuple` participates in a multi-tuple rule.
    pub fn is_dependent(&self, tuple: TupleId) -> bool {
        self.rule_of(tuple).is_some()
    }

    /// Every tuple in ranking order with every rule projected onto the
    /// ranked positions: the predicate-free `P(T)` for `ranking`. The first
    /// call per column and direction builds it (sort plus rule projection);
    /// later calls return a clone sharing the same storage, so the table
    /// holds one view per ranking in use.
    ///
    /// # Errors
    /// Fails with [`ModelError::UnknownColumn`] if the ranked column is not
    /// in the schema and the table has tuples (an empty table ranks to an
    /// empty view whatever the column).
    pub fn ranked(&self, ranking: &Ranking) -> Result<RankedView> {
        Ok(self.ranked_column(ranking)?.0)
    }

    /// [`UncertainTable::ranked`], plus whether the ranked column holds a
    /// single numeric type: every value `Int`, or every value `Float`.
    /// Worked out when the view is built and kept beside it; `false` for
    /// an empty table ranked by a column it lacks.
    pub(crate) fn ranked_column(&self, ranking: &Ranking) -> Result<(RankedView, bool)> {
        let Some(slots) = self.ranked.get(ranking.column()) else {
            if self.is_empty() {
                return Ok((RankedView::default(), false));
            }
            return Err(ModelError::UnknownColumn(ranking.column()));
        };
        let slot = match ranking.direction() {
            SortDirection::Descending => &slots[0],
            SortDirection::Ascending => &slots[1],
        };
        let (view, single_numeric) = slot.get_or_init(|| RankedView::rank(self, ranking));
        Ok((view.clone(), *single_numeric))
    }

    /// The number of possible worlds:
    /// `Π_{Pr(R)=1} |R| · Π_{Pr(R)<1} (|R|+1)`, counting independent tuples as
    /// singleton rules (§2). On large tables this is astronomically big —
    /// past `f64::MAX` from about a thousand uncertain independents — which
    /// is exactly the paper's point; [`WorldCount`] still renders it.
    pub fn world_count(&self) -> WorldCount {
        let rules = self.rules.iter().map(|rule| {
            if rule.mass().is_certain() {
                rule.len()
            } else {
                rule.len() + 1
            }
        });
        let independents = self
            .memberships
            .iter()
            .zip(&self.rule_of)
            .filter(|(_, rule)| rule.is_none())
            .map(|(membership, _)| if membership.is_certain() { 1 } else { 2 });
        WorldCount::product(rules.chain(independents))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::check::{check, Config};
    use crate::rng::RngExt;
    use crate::{prop_assert, prop_assert_eq};

    fn three_tuple_table() -> UncertainTableBuilder {
        let mut b = UncertainTableBuilder::single_column();
        b.push_scored(0.5, 30.0).unwrap();
        b.push_scored(0.4, 20.0).unwrap();
        b.push_scored(0.6, 10.0).unwrap();
        b
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = UncertainTableBuilder::single_column();
        let a = b.push_scored(0.5, 1.0).unwrap();
        let c = b.push_scored(0.5, 2.0).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn push_rejects_bad_probability_and_arity() {
        let mut b = UncertainTableBuilder::new(vec!["a".into(), "b".into()]);
        assert!(b.push(0.0, [Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push(1.5, [Value::Int(1), Value::Int(2)]).is_err());
        assert!(matches!(
            b.push(0.5, [Value::Int(1)]),
            Err(ModelError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            b.push(0.5, (0..5).map(Value::Int)),
            Err(ModelError::ArityMismatch {
                expected: 2,
                actual: 5
            })
        ));
        // A refused row leaves nothing behind.
        let id = b.push(0.5, [Value::Int(7), Value::Null]).unwrap();
        assert_eq!(id.index(), 0);
        let t = b.finish().unwrap();
        assert_eq!(t.tuple(id).attrs(), &[Value::Int(7), Value::Null]);
        assert_eq!(t.tuples().len(), 1);
    }

    #[test]
    fn exclusive_validates_members() {
        let mut b = three_tuple_table();
        assert!(matches!(b.exclusive(&[]), Err(ModelError::EmptyRule)));
        let t0 = TupleId::new(0);
        let t1 = TupleId::new(1);
        assert!(matches!(
            b.exclusive(&[t0, t0]),
            Err(ModelError::DuplicateRuleMember(_))
        ));
        assert!(matches!(
            b.exclusive(&[TupleId::new(9)]),
            Err(ModelError::UnknownTuple(_))
        ));
        let r = b.exclusive(&[t0, t1]).unwrap();
        assert!(matches!(
            b.exclusive(&[t1, TupleId::new(2)]),
            Err(ModelError::TupleInMultipleRules { existing, .. }) if existing == r
        ));
    }

    #[test]
    fn exclusive_rejects_mass_above_one() {
        let mut b = UncertainTableBuilder::single_column();
        let a = b.push_scored(0.7, 1.0).unwrap();
        let c = b.push_scored(0.5, 2.0).unwrap();
        assert!(matches!(
            b.exclusive(&[a, c]),
            Err(ModelError::RuleMassExceedsOne { .. })
        ));
    }

    /// The check `exclusive` made before its rule links marked repeats,
    /// with a set of the members seen: the error a rule over `members`
    /// must be refused with, if any.
    fn reference_refusal(b: &UncertainTableBuilder, members: &[TupleId]) -> Option<ModelError> {
        if members.is_empty() {
            return Some(ModelError::EmptyRule);
        }
        let mut seen = std::collections::HashSet::new();
        let mut mass = 0.0;
        for &m in members {
            let Some(membership) = b.memberships.get(m.index()) else {
                return Some(ModelError::UnknownTuple(m));
            };
            if !seen.insert(m) {
                return Some(ModelError::DuplicateRuleMember(m));
            }
            if let Some(existing) = b.rule_of[m.index()] {
                return Some(ModelError::TupleInMultipleRules { tuple: m, existing });
            }
            mass += membership.value();
        }
        (mass > 1.0 + RULE_MASS_EPS).then(|| ModelError::RuleMassExceedsOne {
            members: members.to_vec(),
            total: mass,
        })
    }

    /// The known, distinct members of `members` in no rule yet, in order,
    /// while their mass stays within 1: a rule `b` must accept.
    fn acceptable(b: &UncertainTableBuilder, members: &[TupleId]) -> Vec<TupleId> {
        let mut valid: Vec<TupleId> = Vec::new();
        let mut mass = 0.0;
        for &m in members {
            let free = b.rule_of.get(m.index()) == Some(&None) && !valid.contains(&m);
            if free && mass + b.memberships[m.index()].value() <= 1.0 {
                mass += b.memberships[m.index()].value();
                valid.push(m);
            }
        }
        valid
    }

    /// Declares `members` a rule of `b`, checking that a refusal is the
    /// reference's error and leaves `b` as it was, and that an accepted
    /// rule links its members and nothing else. Returns whether it was
    /// accepted.
    fn declare(
        b: &mut UncertainTableBuilder,
        members: &[TupleId],
    ) -> std::result::Result<bool, String> {
        let before = b.clone();
        let want = reference_refusal(&before, members);
        let got = b.exclusive(members);
        match (got, want) {
            (Err(got), Some(want)) => {
                prop_assert_eq!(got, want, "members {:?}", members);
                prop_assert_eq!(
                    format!("{b:?}"),
                    format!("{before:?}"),
                    "refused {:?}",
                    members
                );
                Ok(false)
            }
            (Ok(id), None) => {
                prop_assert_eq!(id, RuleId::new(before.rules.len()));
                let rule = &b.rules[id.index()];
                prop_assert_eq!(rule.members(), members);
                for (i, link) in b.rule_of.iter().enumerate() {
                    let member = members.contains(&TupleId::new(i));
                    prop_assert_eq!(
                        *link,
                        if member { Some(id) } else { before.rule_of[i] },
                        "tuple {}",
                        i
                    );
                }
                Ok(true)
            }
            (got, want) => Err(format!(
                "members {members:?}: got {got:?}, the reference {want:?}"
            )),
        }
    }

    #[test]
    fn exclusive_refuses_as_the_set_check_did_and_changes_nothing() {
        check(
            "exclusive == reference, refusals leave the builder unchanged",
            Config::cases(300).sizes(1, 24).seed(0x0e8c_1a5e),
            |rng, size| {
                let mut b = UncertainTableBuilder::single_column();
                for i in 0..size {
                    let p = rng.random_range(0.05..=0.6f64);
                    b.push_scored(p, i as f64).map_err(|e| e.to_string())?;
                }
                for _ in 0..rng.random_range(1..=3 * size) {
                    // Ids past the table, repeats, members of earlier rules.
                    let len = rng.random_range(0..=4usize);
                    let members: Vec<TupleId> = (0..len)
                        .map(|_| TupleId::new(rng.random_range(0..size + 2)))
                        .collect();
                    if !declare(&mut b, &members)? {
                        // A valid rule over what the refused one could have
                        // held is accepted: no member is left linked.
                        let valid = acceptable(&b, &members);
                        if !valid.is_empty() {
                            prop_assert!(
                                declare(&mut b, &valid)?,
                                "{:?} after {:?}",
                                valid,
                                members
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn each_refusal_is_the_first_fault_and_leaves_no_link() {
        let mut b = UncertainTableBuilder::single_column();
        let t: Vec<TupleId> = [0.3, 0.4, 0.5, 0.6, 0.2]
            .iter()
            .enumerate()
            .map(|(i, &p)| b.push_scored(p, i as f64).unwrap())
            .collect();
        let r0 = b.exclusive(&[t[3], t[4]]).unwrap();
        let unknown = TupleId::new(9);
        let cases: [(&[TupleId], ModelError); 7] = [
            (
                &[t[0], t[1], unknown, t[0]],
                ModelError::UnknownTuple(unknown),
            ),
            (
                &[t[0], t[1], t[0], unknown],
                ModelError::DuplicateRuleMember(t[0]),
            ),
            (
                &[t[0], t[1], t[3], t[1]],
                ModelError::TupleInMultipleRules {
                    tuple: t[3],
                    existing: r0,
                },
            ),
            (&[t[1], t[1], t[3]], ModelError::DuplicateRuleMember(t[1])),
            (
                &[t[4], t[4]],
                ModelError::TupleInMultipleRules {
                    tuple: t[4],
                    existing: r0,
                },
            ),
            // A member fault beats the mass, even when the mass is passed
            // before it.
            (
                &[t[0], t[1], t[2], unknown],
                ModelError::UnknownTuple(unknown),
            ),
            (
                &[t[0], t[1], t[2]],
                ModelError::RuleMassExceedsOne {
                    members: vec![t[0], t[1], t[2]],
                    total: 0.3 + 0.4 + 0.5,
                },
            ),
        ];
        for (members, error) in cases {
            assert_eq!(declare(&mut b, members), Ok(false), "{members:?}");
            assert_eq!(b.exclusive(members).unwrap_err(), error, "{members:?}");
            assert_eq!(b.rule_of[..3], [None, None, None], "{members:?}");
        }
        // The members of every refused rule are still free.
        let r1 = b.exclusive(&[t[0], t[1]]).unwrap();
        assert_eq!(r1, RuleId::new(1));
        assert_eq!(b.exclusive(&[t[2]]).unwrap(), RuleId::new(2));
        let table = b.finish().unwrap();
        assert_eq!(table.rule(r1).members(), &[t[0], t[1]]);
        assert_eq!(table.rule_of(t[2]), Some(RuleId::new(2)));
    }

    #[test]
    fn exclusive_tolerates_float_drift_to_one() {
        let mut b = UncertainTableBuilder::single_column();
        // 0.1 * 10 sums to 0.9999999999999999 or slightly above 1 depending
        // on association; either way the rule must be accepted with mass 1.
        let ids: Vec<_> = (0..10)
            .map(|i| b.push_scored(0.1, i as f64).unwrap())
            .collect();
        let r = b.exclusive(&ids).unwrap();
        let t = b.finish().unwrap();
        assert!(t.rule(r).mass().value() <= 1.0);
        assert!((t.rule(r).mass().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_accessors() {
        let mut b = three_tuple_table();
        let r = b.exclusive(&[TupleId::new(0), TupleId::new(1)]).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.columns(), &["score".to_owned()]);
        assert_eq!(t.column_index("score"), Some(0));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.rule_of(TupleId::new(0)), Some(r));
        assert_eq!(t.rule_of(TupleId::new(2)), None);
        assert!(t.is_dependent(TupleId::new(1)));
        assert!(!t.is_dependent(TupleId::new(2)));
        assert_eq!(t.rules().len(), 1);
        assert!((t.rule(r).mass().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn world_count_matches_paper_formula() {
        // Panda example: 6 tuples, rules {R2⊕R3}, {R5⊕R6}, R4 certain.
        let mut b = UncertainTableBuilder::single_column();
        let _r1 = b.push_scored(0.3, 25.0).unwrap();
        let r2 = b.push_scored(0.4, 21.0).unwrap();
        let r3 = b.push_scored(0.5, 13.0).unwrap();
        let _r4 = b.push_scored(1.0, 12.0).unwrap();
        let r5 = b.push_scored(0.8, 17.0).unwrap();
        let r6 = b.push_scored(0.2, 11.0).unwrap();
        b.exclusive(&[r2, r3]).unwrap();
        b.exclusive(&[r5, r6]).unwrap();
        let t = b.finish().unwrap();
        // R1 contributes 2 (uncertain independent), R4 contributes 1
        // (certain), rule R2⊕R3 has mass 0.9 < 1 so contributes |R|+1 = 3,
        // rule R5⊕R6 has mass 1.0 so contributes |R| = 2: 2·1·3·2 = 12,
        // matching the 12 possible worlds of Table 2.
        assert_eq!(t.world_count().as_f64(), 12.0);
        assert_eq!(t.world_count().to_string(), "1.200e1");
    }

    #[test]
    fn empty_table_has_one_world() {
        let t = UncertainTableBuilder::single_column().finish().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.world_count().as_f64(), 1.0);
    }
}
