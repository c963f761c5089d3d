//! # `ptk-core` — the uncertain-data model
//!
//! This crate implements the *x-relation* uncertain-data model used by
//! Hua, Pei, Zhang and Lin, *"Efficiently Answering Probabilistic Threshold
//! Top-k Queries on Uncertain Data"* (ICDE 2008):
//!
//! * an [`UncertainTable`] is a set of [`Tuple`]s, each carrying a
//!   [`Probability`] of membership;
//! * [`GenerationRule`]s declare sets of mutually exclusive tuples — at most
//!   one tuple per rule exists in any *possible world*;
//! * a [`TopKQuery`] combines a [`Predicate`], a [`Ranking`] function and a
//!   depth `k`; a [`PtkQuery`] adds the probability threshold `p`.
//!
//! The crate also provides [`RankedView`], the canonical pre-processed input
//! consumed by every query-evaluation engine in the workspace: the tuples
//! satisfying the query predicate, sorted in the ranking order, with
//! generation rules projected onto the selected tuples (the table `P(T)` of
//! the paper, §4). A table ranks itself once per ranking
//! ([`UncertainTable::ranked`]); a query's `P(T)` is a [`Selection`] over
//! that shared view, materialized only for consumers that need a view.
//!
//! Two infrastructure modules support the workspace's zero-dependency
//! policy: [`rng`] (the deterministic in-repo PRNG stack behind the
//! sampling method and the workload generators) and [`check`] (a small
//! seed-sweeping property-test harness replacing proptest).
//!
//! ```
//! use ptk_core::{UncertainTableBuilder, Value, TopKQuery, Ranking, SortDirection, PtkQuery};
//!
//! let mut b = UncertainTableBuilder::new(vec!["duration".into()]);
//! let r1 = b.push(0.3, [Value::from(25.0)]).unwrap();
//! let r2 = b.push(0.4, [Value::from(21.0)]).unwrap();
//! let r3 = b.push(0.5, [Value::from(13.0)]).unwrap();
//! b.exclusive(&[r2, r3]).unwrap();
//! let table = b.finish().unwrap();
//!
//! let query = TopKQuery::top(2, Ranking::by_column(0, SortDirection::Descending));
//! let ptk = PtkQuery::new(query, 0.35).unwrap();
//! assert_eq!(table.len(), 3);
//! assert_eq!(ptk.threshold().value(), 0.35);
//! # let _ = r1;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
mod count;
mod error;
mod prob;
mod query;
mod ranked;
pub mod rng;
mod rule;
mod selection;
mod table;
mod tuple;
mod value;

pub use count::WorldCount;
pub use error::ModelError;
pub use prob::Probability;
pub use query::{ComparisonOp, Predicate, PtkQuery, Ranking, SortDirection, TopKQuery};
pub use ranked::{RankedTuple, RankedView, RuleHandle, RuleProjection};
pub use rule::{GenerationRule, RuleId, RuleKind};
pub use selection::Selection;
pub use table::{UncertainTable, UncertainTableBuilder};
pub use tuple::{Tuple, TupleId};
pub use value::Value;

/// Result alias used throughout the crate.
pub type Result<T, E = ModelError> = std::result::Result<T, E>;

/// `index + 1` as a [`NonZeroU32`](std::num::NonZeroU32): how the crate's
/// dense rule ids and handles are stored, so an optional one takes four
/// bytes. `None` past `u32::MAX - 1`.
fn index_plus_one(index: usize) -> Option<std::num::NonZeroU32> {
    let index = u32::try_from(index).ok()?;
    std::num::NonZeroU32::new(index.checked_add(1)?)
}
