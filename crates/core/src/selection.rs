//! A query's `P(T)` as a selection over the table's shared ranked view.
//!
//! A table ranks itself once per ranking ([`UncertainTable::ranked`]). A
//! query with a `WHERE` predicate then needs only the tuples passing it, in
//! the same relative order — a subset of a total order keeps the induced
//! order — with each rule cut down to its passing members. [`Selection`]
//! records which ranked positions pass as prefix counts, so a scan walks the
//! shared view and skips the rest, and projects a rule only when asked
//! ([`Selection::project`]); [`Selection::materialize`] builds the
//! standalone view for consumers that need one.

use std::borrow::Cow;

use crate::{
    Predicate, RankedTuple, RankedView, Result, RuleHandle, RuleProjection, TopKQuery,
    UncertainTable,
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
    /// `before[r]`: how many selected tuples rank above ranked position `r`,
    /// for `r` in `0..=view.len()`. `None` when every tuple is selected.
    before: Option<Vec<u32>>,
    /// [`RankedView::keys_descend`] over the selected tuples only.
    keys_descend: bool,
    /// [`RankedView::total_mass`] over the selected tuples only.
    total_mass: f64,
}

impl Selection {
    /// Selects the tuples of `table` passing `query`'s predicate from the
    /// table's ranked view for `query`'s ranking, building that view on
    /// first use. A `WHERE`-less query selects the whole view and costs
    /// nothing more; otherwise the predicate runs once per tuple.
    ///
    /// # Errors
    /// Propagates predicate/ranking evaluation errors (unknown columns),
    /// exactly as filtering the table before ranking it would: the
    /// predicate runs in table order first, and a bad ranked column only
    /// matters when some tuple passes.
    pub fn new(table: &UncertainTable, query: &TopKQuery) -> Result<Selection> {
        let predicate = query.predicate();
        if matches!(predicate, Predicate::True) {
            return Ok(Selection::all(table.ranked(query.ranking())?));
        }
        let mut keep = Vec::with_capacity(table.len());
        for t in table.tuples() {
            keep.push(predicate.eval(t)?);
        }
        if !keep.contains(&true) {
            return Ok(Selection::all(RankedView::default()));
        }
        let view = table.ranked(query.ranking())?;
        let mut before = Vec::with_capacity(view.len() + 1);
        let mut count = 0u32;
        let mut last = f64::INFINITY;
        let mut keys_descend = true;
        let mut total_mass = 0.0;
        before.push(count);
        for t in view.tuples() {
            if keep[t.id.index()] {
                count += 1;
                total_mass += t.prob;
                match t.key {
                    Some(key) if key <= last => last = key,
                    _ => keys_descend = false,
                }
            }
            before.push(count);
        }
        Ok(Selection {
            // A predicate passing every tuple selects the view itself.
            before: (count as usize != view.len()).then_some(before),
            view,
            keys_descend,
            total_mass,
        })
    }

    /// Every tuple of `view`.
    fn all(view: RankedView) -> Selection {
        Selection {
            keys_descend: view.keys_descend(),
            total_mass: view.total_mass(),
            view,
            before: None,
        }
    }

    /// Number of selected tuples.
    pub fn len(&self) -> usize {
        match &self.before {
            Some(before) => before[before.len() - 1] as usize,
            None => self.view.len(),
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

    /// The selection position of the tuple at ranked position `ranked`, or
    /// `None` when the predicate dropped it or `ranked` is past the end of
    /// [`Selection::view`].
    #[inline]
    pub fn position(&self, ranked: usize) -> Option<usize> {
        match &self.before {
            Some(before) => {
                let &next = before.get(ranked + 1)?;
                (next > before[ranked]).then_some(before[ranked] as usize)
            }
            None => (ranked < self.view.len()).then_some(ranked),
        }
    }

    /// [`RankedView::keys_descend`] over the selected tuples: whether their
    /// ranking keys can serve as scan scores.
    pub fn keys_descend(&self) -> bool {
        self.keys_descend
    }

    /// [`RankedView::total_mass`] over the selected tuples: their
    /// membership probabilities added in rank order from `0.0`.
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// The shared view's rule `handle` projected onto the selection: its
    /// selected members as selection positions in rank order, with their
    /// mass summed in rank order and clamped. `None` when fewer than two
    /// members are selected — a lone survivor is an independent tuple.
    /// Borrows the view's rule when every tuple is selected.
    ///
    /// # Panics
    /// Panics if `handle` is not a rule of [`Selection::view`].
    pub fn project(&self, handle: RuleHandle) -> Option<Cow<'_, RuleProjection>> {
        let rule = self.view.rule(handle);
        if self.before.is_none() {
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
        if self.before.is_none() {
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
            .view
            .tuples()
            .iter()
            .enumerate()
            .filter(|&(ranked, _)| self.position(ranked).is_some())
            .map(|(_, t)| RankedTuple {
                rule: t.rule.and_then(|h| handle_of[h.index()]),
                ..t.clone()
            })
            .collect();
        RankedView::from_parts(tuples, rules)
    }
}
