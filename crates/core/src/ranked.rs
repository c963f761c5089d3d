//! The ranked view `P(T)`: the canonical engine input.
//!
//! Section 4 of the paper reduces PT-k answering over a table `T` to the
//! table `P(T)` of tuples satisfying the query predicate, sorted in the
//! ranking order, with generation rules *projected* onto the selected tuples
//! (rule members failing the predicate are dropped; the projected rule mass
//! is the sum of the surviving members' probabilities). [`RankedView`]
//! materializes exactly that object and is consumed by every engine in the
//! workspace — exact, sampling, U-TopK and U-KRanks.
//!
//! A table ranks itself once per ranking (see [`UncertainTable::ranked`]);
//! a query's `P(T)` is a [`Selection`](crate::Selection) over that shared
//! view, and [`RankedView::build`] materializes the selection.

use std::fmt;
use std::num::NonZeroU32;
use std::sync::Arc;

use crate::{ModelError, Probability, Ranking, Result, RuleId, TopKQuery, TupleId, UncertainTable};

/// Index of a projected rule inside a [`RankedView`].
///
/// Distinct from [`RuleId`]: projection drops rules whose membership shrinks
/// to one tuple or fewer, so handles are re-numbered densely. Stored as the
/// index plus one, so `Option<RuleHandle>` takes four bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleHandle(NonZeroU32);

impl RuleHandle {
    /// The dense index into [`RankedView::rules`].
    #[inline]
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// Reconstructs a handle from a dense index previously obtained via
    /// [`RuleHandle::index`]. The caller must ensure the index is in range
    /// for the view it is used with.
    #[inline]
    pub fn from_index(index: usize) -> RuleHandle {
        RuleHandle(crate::index_plus_one(index).expect("rule index fits u32"))
    }
}

impl fmt::Debug for RuleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RuleHandle").field(&self.index()).finish()
    }
}

/// One tuple of the ranked view: 32 bytes, in one shared array per view.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTuple {
    /// The tuple's id in the source [`UncertainTable`], for reporting.
    pub id: TupleId,
    /// Membership probability `Pr(t)`.
    pub prob: f64,
    /// The projected multi-tuple rule this tuple belongs to, if any.
    pub rule: Option<RuleHandle>,
    /// The numeric rank key, when the ranked column is numeric (reports
    /// only; ordering is already fixed by position).
    pub key: Option<f64>,
}

/// A generation rule projected onto the ranked view.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleProjection {
    /// The source rule in the original table, if the view came from one.
    pub source: Option<RuleId>,
    /// Positions (indices into [`RankedView::tuples`]) of the surviving
    /// members, in ranking order (ascending position).
    pub members: Vec<usize>,
    /// Projected rule mass: the sum of surviving members' probabilities.
    pub mass: f64,
}

impl RuleProjection {
    /// Position of the highest-ranked member.
    pub fn first(&self) -> usize {
        self.members[0]
    }

    /// Position of the lowest-ranked member.
    pub fn last(&self) -> usize {
        *self
            .members
            .last()
            .expect("projected rules have >= 2 members")
    }

    /// The paper's `span(R) = r_m − r_1` over ranked positions.
    pub fn span(&self) -> usize {
        self.last() - self.first()
    }

    /// Projects a rule onto the tuples that survive a selection — the one
    /// projection routine behind every view and selection. `survivors`
    /// yields each surviving member's position and probability in rank
    /// order. Fewer than two survivors leave no rule (a lone survivor is an
    /// independent tuple); otherwise the mass is the survivors'
    /// probabilities summed in rank order, clamped to 1.
    pub(crate) fn project(
        source: Option<RuleId>,
        survivors: impl IntoIterator<Item = (usize, f64)>,
    ) -> Option<RuleProjection> {
        let mut members = Vec::new();
        let mut mass = 0.0f64;
        for (pos, prob) in survivors {
            members.push(pos);
            mass += prob;
        }
        (members.len() >= 2).then(|| RuleProjection {
            source,
            members,
            mass: mass.min(1.0),
        })
    }
}

/// Whether every tuple has a numeric key and the keys never increase in
/// iteration order (vacuously true when there are none): whether the keys
/// can serve as scan scores.
pub(crate) fn keys_descend<'a>(tuples: impl IntoIterator<Item = &'a RankedTuple>) -> bool {
    let mut last = f64::INFINITY;
    tuples.into_iter().all(|t| match t.key {
        Some(key) if key <= last => {
            last = key;
            true
        }
        _ => false,
    })
}

/// Tuples satisfying a query predicate, in ranking order, with projected
/// generation rules — the paper's `P(T)`.
///
/// Tuples and rules sit behind [`Arc`], so a clone shares them and costs
/// O(1): a table's ranked view is built once and handed to every query.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedView {
    tuples: Arc<[RankedTuple]>,
    rules: Arc<[RuleProjection]>,
    /// Whether every tuple has a numeric key and the keys never increase
    /// along the ranking (vacuously true when empty).
    keys_descend: bool,
    /// The tuples' membership probabilities summed in rank order.
    total_mass: f64,
}

impl Default for RankedView {
    fn default() -> RankedView {
        RankedView::from_parts(Arc::from([]), Vec::new())
    }
}

impl RankedView {
    /// Builds the ranked view of `table` under `query`: the tuples passing
    /// the predicate, in ranking order, with the rules projected onto them.
    ///
    /// Without a `WHERE` predicate this is the table's shared ranked view
    /// for the query's ranking (built on first use, see
    /// [`UncertainTable::ranked`]), so repeated builds share storage.
    /// Otherwise it materializes the query's
    /// [`Selection`](crate::Selection) over that view.
    ///
    /// # Errors
    /// Propagates predicate/ranking evaluation errors (unknown columns).
    pub fn build(table: &UncertainTable, query: &TopKQuery) -> Result<RankedView> {
        Ok(crate::Selection::new(table, query)?.materialize())
    }

    /// Ranks every tuple of `table` by `ranking` and projects every rule
    /// onto the ranked positions — the predicate-free view a table keeps
    /// per ranking. Ties are broken by tuple id, so the order is total and
    /// any subset of it is in the subset's own ranking order.
    ///
    /// Also returns whether the ranked column holds a single numeric type
    /// (every value `Int`, or every value `Float`), read in the same pass
    /// as the keys. On such a column `Value::total_cmp` against a numeric
    /// constant is monotone along the ranking, so a comparison selects a
    /// run of ranked positions (see [`Selection`](crate::Selection)).
    ///
    /// # Panics
    /// Panics if a tuple lacks the ranked column; callers check the column
    /// against the schema first.
    pub(crate) fn rank(table: &UncertainTable, ranking: &Ranking) -> (RankedView, bool) {
        let mut order: Vec<TupleId> = (0..table.len()).map(TupleId::new).collect();
        order.sort_by(|&a, &b| {
            ranking
                .compare(table.tuple(a), table.tuple(b))
                .expect("the ranked column is in the schema")
        });
        let mut position_of = vec![0u32; table.len()];
        for (pos, &id) in order.iter().enumerate() {
            // Positions count tuples, and `TupleId` caps those at `u32`.
            position_of[id.index()] = pos as u32;
        }
        let prob = |pos: usize| table.tuple(order[pos]).membership().value();

        let mut rules = Vec::new();
        let mut rule_at = vec![None; table.len()];
        for rule in table.rules() {
            let mut members: Vec<usize> = rule
                .members()
                .iter()
                .map(|m| position_of[m.index()] as usize)
                .collect();
            members.sort_unstable();
            let survivors = members.into_iter().map(|pos| (pos, prob(pos)));
            if let Some(projection) = RuleProjection::project(Some(rule.id()), survivors) {
                let handle = RuleHandle::from_index(rules.len());
                for &pos in &projection.members {
                    rule_at[pos] = Some(handle);
                }
                rules.push(projection);
            }
        }
        drop(position_of);

        let mut column_type = None;
        let mut single_numeric = true;
        // A zip of two exact-length iterators, mapped: the `Arc` allocates
        // once, at its final length, and the tuples are written straight
        // into it.
        let tuples = order
            .iter()
            .zip(rule_at)
            .map(|(&id, rule)| {
                let t = table.tuple(id);
                let value = t
                    .attr(ranking.column())
                    .expect("the ranked column is in the schema");
                let key = value.as_f64();
                let kind = std::mem::discriminant(value);
                single_numeric &= key.is_some() && *column_type.get_or_insert(kind) == kind;
                RankedTuple {
                    id,
                    prob: t.membership().value(),
                    rule,
                    key,
                }
            })
            .collect();
        (RankedView::from_parts(tuples, rules), single_numeric)
    }

    /// Assembles a view from its ranked tuples and projected rules.
    pub(crate) fn from_parts(tuples: Arc<[RankedTuple]>, rules: Vec<RuleProjection>) -> RankedView {
        let keys_descend = keys_descend(tuples.iter());
        let total_mass = tuples.iter().fold(0.0, |mass, t| mass + t.prob);
        RankedView {
            tuples,
            rules: rules.into(),
            keys_descend,
            total_mass,
        }
    }

    /// Builds a view directly from an already-ranked probability list plus
    /// rule groups given as *positions* into that list.
    ///
    /// This is the natural constructor for unit tests and synthetic
    /// workloads that specify the ranked order directly (e.g. Table 4 and
    /// Figure 2 of the paper). Tuple ids are synthesized from positions.
    ///
    /// # Errors
    /// Fails if any probability is outside `(0, 1]`, a group references an
    /// out-of-range or repeated position, groups overlap, or a group's mass
    /// exceeds 1.
    pub fn from_ranked_probs(probs: &[f64], rule_groups: &[Vec<usize>]) -> Result<RankedView> {
        for &p in probs {
            Probability::new_membership(p)?;
        }
        let mut rule_of = vec![None; probs.len()];
        let mut rules = Vec::with_capacity(rule_groups.len());
        for group in rule_groups {
            if group.len() < 2 {
                return Err(ModelError::EmptyRule);
            }
            let mut members = group.clone();
            members.sort_unstable();
            members.dedup();
            if members.len() != group.len() {
                return Err(ModelError::DuplicateRuleMember(TupleId::new(members[0])));
            }
            let mut mass = 0.0;
            for &m in &members {
                if m >= probs.len() {
                    return Err(ModelError::UnknownTuple(TupleId::new(m)));
                }
                if rule_of[m].is_some() {
                    return Err(ModelError::TupleInMultipleRules {
                        tuple: TupleId::new(m),
                        existing: RuleId::new(0),
                    });
                }
                mass += probs[m];
            }
            if mass > 1.0 + 1e-9 {
                return Err(ModelError::RuleMassExceedsOne {
                    members: members.iter().map(|&m| TupleId::new(m)).collect(),
                    total: mass,
                });
            }
            let handle = RuleHandle::from_index(rules.len());
            for &m in &members {
                rule_of[m] = Some(handle);
            }
            rules.push(RuleProjection {
                source: None,
                members,
                mass: mass.min(1.0),
            });
        }
        let tuples = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| RankedTuple {
                id: TupleId::new(i),
                prob: p,
                rule: rule_of[i],
                key: None,
            })
            .collect();
        Ok(RankedView::from_parts(tuples, rules))
    }

    /// The ranked tuples, highest rank first.
    #[inline]
    pub fn tuples(&self) -> &[RankedTuple] {
        &self.tuples
    }

    /// Number of tuples in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The projected multi-tuple rules.
    #[inline]
    pub fn rules(&self) -> &[RuleProjection] {
        &self.rules
    }

    /// Whether every tuple has a numeric ranking key and the keys never
    /// increase along the ranking, so they can serve as scan scores.
    /// Computed once, when the view is assembled.
    #[inline]
    pub fn keys_descend(&self) -> bool {
        self.keys_descend
    }

    /// The sum of every tuple's membership probability, added in rank
    /// order from `0.0` — the same bits as a scan that sums what it reads.
    /// Computed once, when the view is assembled.
    #[inline]
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// The projected rule at `handle`.
    #[inline]
    pub fn rule(&self, handle: RuleHandle) -> &RuleProjection {
        &self.rules[handle.index()]
    }

    /// The tuple at ranked position `pos` (0-based: position 0 is the
    /// highest-ranked tuple).
    #[inline]
    pub fn tuple(&self, pos: usize) -> &RankedTuple {
        &self.tuples[pos]
    }

    /// Membership probability of the tuple at `pos`.
    #[inline]
    pub fn prob(&self, pos: usize) -> f64 {
        self.tuples[pos].prob
    }

    /// The projected rule containing the tuple at `pos`, if any.
    #[inline]
    pub fn rule_at(&self, pos: usize) -> Option<RuleHandle> {
        self.tuples[pos].rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparisonOp, Predicate, Ranking, UncertainTableBuilder, Value};

    /// The panda example of Table 1, ranked by duration descending.
    fn panda_view(k: usize) -> (UncertainTable, RankedView) {
        let mut b = UncertainTableBuilder::new(vec!["duration".into()]);
        let r1 = b.push(0.3, [Value::Float(25.0)]).unwrap();
        let r2 = b.push(0.4, [Value::Float(21.0)]).unwrap();
        let r3 = b.push(0.5, [Value::Float(13.0)]).unwrap();
        let r4 = b.push(1.0, [Value::Float(12.0)]).unwrap();
        let r5 = b.push(0.8, [Value::Float(17.0)]).unwrap();
        let r6 = b.push(0.2, [Value::Float(11.0)]).unwrap();
        b.exclusive(&[r2, r3]).unwrap();
        b.exclusive(&[r5, r6]).unwrap();
        let table = b.finish().unwrap();
        let q = TopKQuery::top(k, Ranking::descending(0));
        let view = RankedView::build(&table, &q).unwrap();
        let _ = (r1, r4);
        (table, view)
    }

    #[test]
    fn build_sorts_by_rank() {
        let (_, view) = panda_view(2);
        let keys: Vec<f64> = view.tuples().iter().map(|t| t.key.unwrap()).collect();
        assert_eq!(keys, vec![25.0, 21.0, 17.0, 13.0, 12.0, 11.0]);
        // Positions: R1=0, R2=1, R5=2, R3=3, R4=4, R6=5.
        assert_eq!(view.tuple(0).id.index(), 0);
        assert_eq!(view.tuple(2).id.index(), 4);
        assert_eq!(view.len(), 6);
        assert!(!view.is_empty());
    }

    #[test]
    fn build_projects_rules_to_positions() {
        let (_, view) = panda_view(2);
        assert_eq!(view.rules().len(), 2);
        // R2⊕R3 at positions 1 and 3; R5⊕R6 at positions 2 and 5.
        let r0 = &view.rules()[0];
        assert_eq!(r0.members, vec![1, 3]);
        assert!((r0.mass - 0.9).abs() < 1e-12);
        assert_eq!(r0.span(), 2);
        let r1 = &view.rules()[1];
        assert_eq!(r1.members, vec![2, 5]);
        assert!((r1.mass - 1.0).abs() < 1e-12);
        assert_eq!(view.rule_at(1), view.rule_at(3));
        assert_eq!(view.rule_at(0), None);
        assert_eq!(r0.first(), 1);
        assert_eq!(r0.last(), 3);
    }

    #[test]
    fn predicate_filters_and_shrinks_rules() {
        // Keep only durations > 12: drops R4 (12) and R6 (11). The rule
        // R5⊕R6 loses R6 and degenerates to a single member, so it is no
        // longer a projected rule; R5 becomes independent.
        let mut b = UncertainTableBuilder::new(vec!["duration".into()]);
        let _r1 = b.push(0.3, [Value::Float(25.0)]).unwrap();
        let r2 = b.push(0.4, [Value::Float(21.0)]).unwrap();
        let r3 = b.push(0.5, [Value::Float(13.0)]).unwrap();
        let _r4 = b.push(1.0, [Value::Float(12.0)]).unwrap();
        let r5 = b.push(0.8, [Value::Float(17.0)]).unwrap();
        let r6 = b.push(0.2, [Value::Float(11.0)]).unwrap();
        b.exclusive(&[r2, r3]).unwrap();
        b.exclusive(&[r5, r6]).unwrap();
        let table = b.finish().unwrap();
        let q = TopKQuery::new(
            2,
            Predicate::compare(0, ComparisonOp::Gt, 12.0),
            Ranking::descending(0),
        )
        .unwrap();
        let view = RankedView::build(&table, &q).unwrap();
        assert_eq!(view.len(), 4);
        assert_eq!(view.rules().len(), 1);
        assert_eq!(view.rules()[0].members, vec![1, 3]); // R2, R3
        assert_eq!(view.rule_at(2), None); // R5 independent now
    }

    #[test]
    fn from_ranked_probs_matches_manual_structure() {
        // Table 4 of the paper with rules R1 = t2⊕t4⊕t9, R2 = t5⊕t7
        // (1-based in the paper; 0-based positions here).
        let probs = [0.7, 0.2, 1.0, 0.3, 0.5, 0.8, 0.1, 0.8, 0.1];
        let view = RankedView::from_ranked_probs(&probs, &[vec![1, 3, 8], vec![4, 6]]).unwrap();
        assert_eq!(view.len(), 9);
        assert_eq!(view.rules().len(), 2);
        assert!((view.rules()[0].mass - 0.6).abs() < 1e-12);
        assert!((view.rules()[1].mass - 0.6).abs() < 1e-12);
        assert_eq!(view.rule_at(3), view.rule_at(8));
        assert_ne!(view.rule_at(3), view.rule_at(4));
        assert_eq!(view.prob(5), 0.8);
    }

    #[test]
    fn from_ranked_probs_validates() {
        assert!(RankedView::from_ranked_probs(&[0.5, 0.0], &[]).is_err());
        assert!(RankedView::from_ranked_probs(&[0.5, 0.5], &[vec![0]]).is_err());
        assert!(RankedView::from_ranked_probs(&[0.5, 0.5], &[vec![0, 0]]).is_err());
        assert!(RankedView::from_ranked_probs(&[0.5, 0.5], &[vec![0, 7]]).is_err());
        assert!(RankedView::from_ranked_probs(&[0.9, 0.9], &[vec![0, 1]]).is_err());
        assert!(
            RankedView::from_ranked_probs(&[0.5, 0.5, 0.5], &[vec![0, 1], vec![1, 2]]).is_err()
        );
    }

    #[test]
    fn resident_layouts_are_pinned() {
        // A view holds one `RankedTuple` per tuple; the rule link must not
        // grow it past 32 bytes.
        assert_eq!(std::mem::size_of::<Option<RuleHandle>>(), 4);
        assert!(std::mem::size_of::<RankedTuple>() <= 32);
        let handle = RuleHandle::from_index(7);
        assert_eq!(handle.index(), 7);
        assert_eq!(format!("{handle:?}"), "RuleHandle(7)");
        assert!(RuleHandle::from_index(0) < handle);
    }

    #[test]
    fn empty_view() {
        let view = RankedView::from_ranked_probs(&[], &[]).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.rules().len(), 0);
    }
}
