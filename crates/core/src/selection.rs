//! A query's `P(T)` as a selection over the table's shared ranked view.
//!
//! A table ranks itself once per ranking ([`UncertainTable::ranked`]). A
//! query with a `WHERE` predicate then needs only the tuples passing it, in
//! the same relative order — a subset of a total order keeps the induced
//! order — with each rule cut down to its passing members. [`Selection`]
//! records which ranked positions pass, so a scan walks the shared view and
//! skips the rest, and projects a rule only when asked
//! ([`Selection::project`]); [`Selection::materialize`] builds the
//! standalone view for consumers that need one.
//!
//! A comparison of the ranked column with a numeric constant, on a column
//! holding a single numeric type, passes a contiguous run of ranked
//! positions: two binary searches find it, and the selection is just its
//! bounds. Every other predicate runs once per tuple (the *predicate
//! pass*) into prefix counts over the ranked positions.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

use crate::{
    ranked, Predicate, RankedTuple, RankedView, Ranking, Result, RuleHandle, RuleProjection,
    SortDirection, TopKQuery, UncertainTable, Value,
};

/// The tuples of a table's shared ranked view that pass a query's
/// predicate: the query's `P(T)` without copying the view.
///
/// Positions come in two kinds: a *ranked position* indexes the shared
/// view, a *selection position* counts only the selected tuples and is the
/// tuple's position in the materialized `P(T)`.
#[derive(Debug, Clone)]
pub struct Selection {
    view: RankedView,
    /// The ranked positions holding the selected tuples. Without prefix
    /// counts, every position in it is selected.
    range: Range<usize>,
    /// `before[r]`: how many selected tuples rank above ranked position `r`,
    /// for `r` in `0..=view.len()`. Only a predicate pass that dropped some
    /// tuple keeps them.
    before: Option<Vec<u32>>,
    /// Whether the predicate ran once per tuple.
    ran_predicate_pass: bool,
    /// [`RankedView::keys_descend`] over the selected tuples only.
    keys_descend: bool,
}

impl Selection {
    /// Selects the tuples of `table` passing `query`'s predicate from the
    /// table's ranked view for `query`'s ranking, building that view on
    /// first use. A `WHERE`-less query selects the whole view. A comparison
    /// `=`, `<`, `<=`, `>=` or `>` of the ranked column with a numeric
    /// constant, on a column whose values are all `Int` or all `Float`,
    /// selects a ranked range found by two binary searches. Any other
    /// predicate runs once per tuple.
    ///
    /// # Errors
    /// Propagates predicate/ranking evaluation errors (unknown columns),
    /// exactly as filtering the table before ranking it would: the
    /// predicate runs in table order first, and a bad ranked column only
    /// matters when some tuple passes.
    pub fn new(table: &UncertainTable, query: &TopKQuery) -> Result<Selection> {
        let ranking = query.ranking();
        match query.predicate() {
            Predicate::True => {
                let view = table.ranked(ranking)?;
                return Ok(Selection::range(0..view.len(), view));
            }
            Predicate::Compare { column, op, value }
                if *column == ranking.column() && value.as_f64().is_some() =>
            {
                if let Some(accepted) = op.accepted() {
                    let (view, single_numeric) = table.ranked_column(ranking)?;
                    if single_numeric {
                        let range = ranked_run(table, &view, ranking, accepted, value);
                        return Ok(Selection::range(range, view));
                    }
                }
            }
            _ => {}
        }
        Selection::predicate_pass(table, query)
    }

    /// Every ranked position in `range` of `view`.
    fn range(range: Range<usize>, view: RankedView) -> Selection {
        // Keys that descend over the view descend over any run of it.
        let keys_descend =
            view.keys_descend() || ranked::keys_descend(&view.tuples()[range.clone()]);
        Selection {
            view,
            range,
            before: None,
            ran_predicate_pass: false,
            keys_descend,
        }
    }

    /// Runs the predicate once per tuple, in table order, then counts the
    /// passing tuples above every ranked position.
    fn predicate_pass(table: &UncertainTable, query: &TopKQuery) -> Result<Selection> {
        let predicate = query.predicate();
        let mut keep = Vec::with_capacity(table.len());
        for t in table.tuples() {
            keep.push(predicate.eval(t)?);
        }
        if !keep.contains(&true) {
            return Ok(Selection {
                ran_predicate_pass: true,
                ..Selection::range(0..0, RankedView::default())
            });
        }
        let view = table.ranked(query.ranking())?;
        let mut before = Vec::with_capacity(view.len() + 1);
        let mut count = 0u32;
        let mut last = f64::INFINITY;
        let mut keys_descend = true;
        before.push(count);
        for t in view.tuples() {
            if keep[t.id.index()] {
                count += 1;
                match t.key {
                    Some(key) if key <= last => last = key,
                    _ => keys_descend = false,
                }
            }
            before.push(count);
        }
        Ok(Selection {
            range: 0..view.len(),
            // A predicate passing every tuple selects the view itself.
            before: (count as usize != view.len()).then_some(before),
            view,
            ran_predicate_pass: true,
            keys_descend,
        })
    }

    /// Number of selected tuples.
    pub fn len(&self) -> usize {
        match &self.before {
            Some(before) => before[before.len() - 1] as usize,
            None => self.range.len(),
        }
    }

    /// Whether no tuple is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared ranked view the selection is taken over.
    pub fn view(&self) -> &RankedView {
        &self.view
    }

    /// The ranked positions holding the selected tuples: the selected run
    /// itself, or the whole view after a predicate pass.
    pub fn ranked_range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Whether the predicate ran once per tuple (the predicate pass),
    /// rather than the selection being a ranked range found without
    /// touching the other tuples.
    pub fn ran_predicate_pass(&self) -> bool {
        self.ran_predicate_pass
    }

    /// The selection position of the tuple at ranked position `ranked`, or
    /// `None` when the selection dropped it or `ranked` is past the end of
    /// [`Selection::view`].
    #[inline]
    pub fn position(&self, ranked: usize) -> Option<usize> {
        match &self.before {
            Some(before) => {
                let &next = before.get(ranked + 1)?;
                (next > before[ranked]).then_some(before[ranked] as usize)
            }
            None => self
                .range
                .contains(&ranked)
                .then(|| ranked - self.range.start),
        }
    }

    /// [`RankedView::keys_descend`] over the selected tuples: whether their
    /// ranking keys can serve as scan scores.
    pub fn keys_descend(&self) -> bool {
        self.keys_descend
    }

    /// [`RankedView::total_mass`] over the selected tuples: their
    /// membership probabilities added in rank order from `0.0`. Summed on
    /// each call unless every tuple is selected.
    pub fn total_mass(&self) -> f64 {
        if self.is_whole() {
            return self.view.total_mass();
        }
        self.selected().fold(0.0, |mass, t| mass + t.prob)
    }

    /// Whether the selection keeps every member of the shared view's rule
    /// `handle` at its own ranked position — it starts at the view's top,
    /// no predicate pass dropped a tuple, and the rule ends inside it — so
    /// [`Selection::project`] borrows the view's rule.
    ///
    /// # Panics
    /// Panics if `handle` is not a rule of [`Selection::view`].
    #[inline]
    pub fn keeps_whole(&self, handle: RuleHandle) -> bool {
        self.before.is_none()
            && self.range.start == 0
            && self.view.rule(handle).last() < self.range.end
    }

    /// The shared view's rule `handle` projected onto the selection: its
    /// selected members as selection positions in rank order, with their
    /// mass summed in rank order and clamped. `None` when fewer than two
    /// members are selected — a lone survivor is an independent tuple.
    /// Borrows the view's rule when the selection keeps it whole.
    ///
    /// # Panics
    /// Panics if `handle` is not a rule of [`Selection::view`].
    pub fn project(&self, handle: RuleHandle) -> Option<Cow<'_, RuleProjection>> {
        let rule = self.view.rule(handle);
        if self.keeps_whole(handle) {
            return Some(Cow::Borrowed(rule));
        }
        let survivors = rule
            .members
            .iter()
            .filter_map(|&r| Some((self.position(r)?, self.view.prob(r))));
        RuleProjection::project(rule.source, survivors).map(Cow::Owned)
    }

    /// The selection as a standalone ranked view: equal to filtering the
    /// table, sorting the survivors and projecting the rules from scratch.
    /// Rules keep the shared view's order, renumbered densely. When every
    /// tuple is selected this is the shared view itself (an O(1) clone).
    pub fn materialize(&self) -> RankedView {
        if self.is_whole() {
            return self.view.clone();
        }
        let mut handle_of = vec![None; self.view.rules().len()];
        let mut rules = Vec::new();
        for (index, slot) in handle_of.iter_mut().enumerate() {
            if let Some(projection) = self.project(RuleHandle::from_index(index)) {
                *slot = Some(RuleHandle::from_index(rules.len()));
                rules.push(projection.into_owned());
            }
        }
        let tuples = self
            .selected()
            .map(|t| RankedTuple {
                rule: t.rule.and_then(|h| handle_of[h.index()]),
                ..t.clone()
            })
            .collect();
        RankedView::from_parts(tuples, rules)
    }

    /// Whether every tuple of the view is selected.
    fn is_whole(&self) -> bool {
        self.before.is_none() && self.range.len() == self.view.len()
    }

    /// The selected tuples, in rank order.
    fn selected(&self) -> impl Iterator<Item = &RankedTuple> {
        self.range
            .clone()
            .filter(|&r| self.position(r).is_some())
            .map(|r| self.view.tuple(r))
    }
}

/// The run of ranked positions of `view` whose ranked-column value `attr`
/// has `attr.total_cmp(value)` in `accepted`, an interval of orderings.
///
/// The column holds a single numeric type, so `Value::total_cmp` orders it
/// totally, and `Int` → `f64` conversion is monotone: `attr.total_cmp(value)`
/// never rises along a descending ranking and never falls along an
/// ascending one, whatever the constant's numeric type. The positions whose
/// ordering lies in an interval are therefore contiguous, and each end is
/// one binary search that evaluates the comparison on the probe's value.
fn ranked_run(
    table: &UncertainTable,
    view: &RankedView,
    ranking: &Ranking,
    (low, high): (Ordering, Ordering),
    value: &Value,
) -> Range<usize> {
    let cmp = |t: &RankedTuple| {
        table
            .tuple(t.id)
            .attr(ranking.column())
            .expect("the ranked column is in the schema")
            .total_cmp(value)
    };
    let tuples = view.tuples();
    match ranking.direction() {
        SortDirection::Descending => {
            tuples.partition_point(|t| cmp(t) > high)..tuples.partition_point(|t| cmp(t) >= low)
        }
        SortDirection::Ascending => {
            tuples.partition_point(|t| cmp(t) < low)..tuples.partition_point(|t| cmp(t) <= high)
        }
    }
}
