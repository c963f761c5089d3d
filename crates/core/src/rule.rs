//! Generation rules: sets of mutually exclusive tuples.

use std::fmt;
use std::num::NonZeroU32;

use crate::{Probability, TupleId};

/// Identifies a generation rule within its table.
///
/// Stored as the index plus one, so `Option<RuleId>` — a table's per-tuple
/// rule link — takes four bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(NonZeroU32);

impl RuleId {
    /// Creates a rule id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        RuleId(crate::index_plus_one(index).expect("tables are limited to u32::MAX - 1 rules"))
    }

    /// The raw index into the table's rule storage.
    #[inline]
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RuleId").field(&self.index()).finish()
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.index())
    }
}

/// Whether a rule constrains one tuple (trivial) or several (multi-tuple).
///
/// The paper (§2) conceptually wraps every independent tuple in a singleton
/// rule `R_t : t`; [`crate::UncertainTable`] materializes only multi-tuple
/// rules and treats unruled tuples as independent, but reports the kind here
/// for code that wants the paper's uniform view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// `|R| = 1`: the rule constrains nothing beyond the tuple's own
    /// membership probability.
    Singleton,
    /// `|R| > 1`: at most one member may exist in a possible world.
    MultiTuple,
}

/// A generation rule `R : t_{r1} ⊕ … ⊕ t_{rm}` — at most one member exists in
/// any possible world, and exactly one if `Pr(R) = 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRule {
    id: RuleId,
    members: Vec<TupleId>,
    mass: Probability,
}

impl GenerationRule {
    pub(crate) fn new(id: RuleId, members: Vec<TupleId>, mass: Probability) -> Self {
        debug_assert!(!members.is_empty());
        GenerationRule { id, members, mass }
    }

    /// The rule's identifier within its table.
    #[inline]
    pub fn id(&self) -> RuleId {
        self.id
    }

    /// The member tuples, in insertion order.
    #[inline]
    pub fn members(&self) -> &[TupleId] {
        &self.members
    }

    /// The number of member tuples (`|R|` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the rule has no members. Always `false` for validated tables.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The rule probability `Pr(R) = Σ_{t ∈ R} Pr(t)`.
    #[inline]
    pub fn mass(&self) -> Probability {
        self.mass
    }

    /// Singleton vs. multi-tuple.
    #[inline]
    pub fn kind(&self) -> RuleKind {
        if self.members.len() == 1 {
            RuleKind::Singleton
        } else {
            RuleKind::MultiTuple
        }
    }

    /// Whether `tuple` is one of this rule's members.
    pub fn contains(&self, tuple: TupleId) -> bool {
        self.members.contains(&tuple)
    }
}

impl fmt::Display for GenerationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, " ⊕ ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(members: &[usize], mass: f64) -> GenerationRule {
        GenerationRule::new(
            RuleId::new(0),
            members.iter().copied().map(TupleId::new).collect(),
            Probability::new(mass).unwrap(),
        )
    }

    #[test]
    fn kind_depends_on_member_count() {
        assert_eq!(rule(&[1], 0.5).kind(), RuleKind::Singleton);
        assert_eq!(rule(&[1, 2], 0.9).kind(), RuleKind::MultiTuple);
    }

    #[test]
    fn membership_checks() {
        let r = rule(&[2, 5, 7], 1.0);
        assert!(r.contains(TupleId::new(5)));
        assert!(!r.contains(TupleId::new(4)));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.mass().is_certain());
    }

    #[test]
    fn optional_ids_take_four_bytes() {
        // A table keeps one `Option<RuleId>` per tuple.
        assert_eq!(std::mem::size_of::<Option<RuleId>>(), 4);
        let id = RuleId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id} {id:?}"), "R3 RuleId(3)");
        assert!(RuleId::new(0) < id);
    }

    #[test]
    fn display_uses_exclusive_or() {
        let r = rule(&[0, 3], 0.7);
        assert_eq!(r.to_string(), "R0: t0 ⊕ t3");
    }
}
