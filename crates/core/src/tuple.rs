//! Tuples and tuple identifiers.

use std::fmt;

use crate::{Probability, Value};

/// Identifies a tuple by its position in its [`UncertainTable`](crate::UncertainTable).
///
/// Tuple ids are dense indices assigned in insertion order; they are stable
/// for the lifetime of the table and cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(u32);

impl TupleId {
    /// Creates a tuple id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        TupleId(u32::try_from(index).expect("tables are limited to u32::MAX tuples"))
    }

    /// The raw index into the table's tuple storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An uncertain tuple: a row of attribute [`Value`]s plus a membership
/// [`Probability`], borrowed from its table's flat arrays (see
/// [`UncertainTable::tuple`](crate::UncertainTable::tuple)). Copying it
/// copies the borrow, not the row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuple<'a> {
    id: TupleId,
    membership: Probability,
    attrs: &'a [Value],
}

impl<'a> Tuple<'a> {
    pub(crate) fn new(id: TupleId, membership: Probability, attrs: &'a [Value]) -> Self {
        Tuple {
            id,
            membership,
            attrs,
        }
    }

    /// The tuple's identifier within its table.
    #[inline]
    pub fn id(self) -> TupleId {
        self.id
    }

    /// The probability that this tuple exists (`Pr(t)` in the paper).
    #[inline]
    pub fn membership(self) -> Probability {
        self.membership
    }

    /// The attribute values, in schema column order.
    #[inline]
    pub fn attrs(self) -> &'a [Value] {
        self.attrs
    }

    /// The value in column `col`, if the column exists.
    #[inline]
    pub fn attr(self, col: usize) -> Option<&'a Value> {
        self.attrs.get(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let id = TupleId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "t7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(TupleId::new(1) < TupleId::new(2));
        assert_eq!(TupleId::new(3), TupleId::new(3));
    }

    #[test]
    fn tuple_accessors() {
        let attrs = [Value::from(10i64), Value::from("loc-A")];
        let t = Tuple::new(
            TupleId::new(0),
            Probability::new_membership(0.4).unwrap(),
            &attrs,
        );
        assert_eq!(t.id().index(), 0);
        assert_eq!(t.membership().value(), 0.4);
        assert_eq!(t.attrs().len(), 2);
        assert_eq!(t.attr(1).unwrap().as_text(), Some("loc-A"));
        assert!(t.attr(2).is_none());
    }
}
