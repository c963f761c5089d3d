//! The ranked-source abstraction and its basic implementations.

use std::borrow::Cow;
use std::collections::HashMap;

use ptk_core::{
    ModelError, Probability, RankedView, RuleHandle, RuleProjection, Selection, TupleId,
};

/// Identifies a generation rule within a source's scope. Tuples sharing a
/// key are mutually exclusive. The streaming engine never needs the rule's
/// member list — only this identity and, optionally, the rule's total mass
/// (for Theorem 3(2) pruning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleKey(pub u32);

/// Bounds over the records remaining in a block-native source's current
/// block (see the `block` module), exposed so the executor can decide to
/// skip the block's decode *before* touching any record in it.
///
/// The soundness contract: every remaining record in the block has
/// membership probability `<= max_prob`, and — when `rule_free` — none of
/// them belongs to a generation rule. Under Theorem 3(1), a rule-free
/// record whose probability is at most the largest failed independent
/// membership probability is pruned without evaluation; when `max_prob`
/// clears that bar for the whole block, every remaining record would be
/// pruned, so only the probabilities (which still feed the dominant-set
/// pool) need decoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockBounds {
    /// Records remaining in the current block (from the cursor position to
    /// the block's end).
    pub records: usize,
    /// Upper bound on the membership probability of every remaining record
    /// in the block.
    pub max_prob: f64,
    /// Whether every remaining record in the block is rule-free (belongs to
    /// no generation rule).
    pub rule_free: bool,
}

/// One tuple delivered by a [`RankedSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceTuple {
    /// Stable identifier for reporting answers.
    pub id: TupleId,
    /// Ranking score — non-increasing across successive tuples.
    pub score: f64,
    /// Membership probability in `(0, 1]`.
    pub prob: f64,
    /// The generation rule this tuple belongs to, if any.
    pub rule: Option<RuleKey>,
}

/// Progressive retrieval of tuples in ranking order (highest score first).
///
/// Implementations must deliver non-increasing scores; the streaming engine
/// checks this and panics on violation, since out-of-order delivery breaks
/// the dominant-set invariant the algorithm rests on.
pub trait RankedSource {
    /// Retrieves the next tuple, or `None` when the source is exhausted.
    fn next_ranked(&mut self) -> Option<SourceTuple>;

    /// The total membership mass of a rule, if the source knows it ahead of
    /// time. Enables the engine's Theorem 3(2) pruning, and — for a source
    /// that also reports [`RankedSource::total_mass`] — the expected rank
    /// of a rule member before its later mates are scanned. Returning
    /// `None` is always safe.
    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        let _ = rule;
        None
    }

    /// The sum of every tuple's membership probability, if the source
    /// knows it ahead of time: a hint that lets expected rank stop early
    /// (a scanned tuple's expected rank needs the whole selection's mass).
    ///
    /// The contract is bit-exact, because answers must not depend on the
    /// hint: the value is the scan-order sum (`0.0 + p₀ + p₁ + …` in
    /// delivery order), and a source reporting it reports
    /// [`RankedSource::rule_mass`] for every rule it delivers as that
    /// rule's members summed in scan order and clamped to 1. Returning
    /// `None` — the default — is always safe: the engine then scans in
    /// full and takes both totals from the records.
    fn total_mass(&self) -> Option<f64> {
        None
    }

    /// The number of members of a rule, if the source knows it ahead of
    /// time. Lets the executor detect when a rule-tuple has absorbed its
    /// last member (it then joins the stable group of §4.3.2); returning
    /// `None` is always safe — the rule-tuple simply stays "open". A
    /// length below the members the source delivers is not: the executor
    /// panics at the first member past it.
    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        let _ = rule;
        None
    }

    /// The 0-based scan rank of the `member`-th member (in ranking order)
    /// of `rule`, if the source knows the rule's layout ahead of time.
    /// Drives the aggressive/lazy reordering of §4.3.2 (open rule-tuples
    /// ordered by next-member rank descending); sources that return `None`
    /// fall back to absorption-recency ordering, which shares less but is
    /// equally correct — Eq. 4 is order-independent.
    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        let _ = (rule, member);
        None
    }

    /// The total number of tuples this source will deliver, if known ahead
    /// of time: a sizing hint for a caller that buffers a whole scan. No
    /// executor reads it, and returning `None` is always safe — the hint
    /// never affects answers.
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// Bounds over the records remaining in the source's current storage
    /// block, when the source is block-native and knows them ahead of
    /// decode (see [`BlockBounds`] for the contract). Returning `None` —
    /// the default for non-blocked sources — simply disables block-grain
    /// pruning; answers never depend on it.
    fn block_bounds(&self) -> Option<BlockBounds> {
        None
    }

    /// Consumes up to `max` records of the current block *without decoding
    /// them into tuples*, appending only their membership probabilities to
    /// `probs` (the executor still needs those: pruned tuples join later
    /// tuples' dominant sets). Returns the number of records consumed;
    /// entries appended beyond that count are unspecified. Never crosses a
    /// block boundary, so the bounds from [`RankedSource::block_bounds`]
    /// stay valid for everything consumed. The default — for sources with
    /// no block structure — consumes nothing and returns 0.
    ///
    /// Callers must only invoke this after [`RankedSource::block_bounds`]
    /// certifies the remaining records are prunable; the source itself does
    /// not re-check.
    fn skip_block(&mut self, max: usize, probs: &mut Vec<f64>) -> usize {
        let _ = (max, probs);
        0
    }

    /// Number of tuples retrieved so far (the paper's *scan depth*).
    fn retrieved(&self) -> usize;
}

/// An immutable ranked dataset that can hand out independent scan cursors.
///
/// This is the sharing boundary of the batch executor: one snapshot is
/// borrowed by every worker thread (`Sync`), and each worker [`fork`]s its
/// own [`RankedSource`] cursor so concurrent scans never contend on shared
/// mutable state. Forked cursors must all observe the same ranking — a
/// fork is a fresh scan of the same data, not a view of live updates.
///
/// [`fork`]: SnapshotSource::fork
pub trait SnapshotSource: Sync {
    /// A fresh cursor positioned before the first (highest-score) tuple.
    fn fork(&self) -> Box<dyn RankedSource + '_>;
}

/// A [`RankedSource`] over a materialized [`RankedView`] — the adapter
/// connecting the streaming engine to everything that already produces
/// views (tables, generators).
#[derive(Debug)]
pub struct ViewSource<'v> {
    view: &'v RankedView,
    cursor: usize,
}

impl<'v> ViewSource<'v> {
    /// Wraps a ranked view.
    pub fn new(view: &'v RankedView) -> ViewSource<'v> {
        ViewSource { view, cursor: 0 }
    }
}

impl SnapshotSource for RankedView {
    fn fork(&self) -> Box<dyn RankedSource + '_> {
        Box::new(ViewSource::new(self))
    }
}

/// The scan score of the tuple at position `pos`: its ranking key when the
/// keys can serve as scores ([`RankedView::keys_descend`]), else a negated
/// position stand-in, so scores never increase either way.
fn scan_score(keys_descend: bool, key: Option<f64>, pos: usize) -> f64 {
    if keys_descend {
        key.expect("descending keys are all present")
    } else {
        -(pos as f64)
    }
}

impl RankedSource for ViewSource<'_> {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        let pos = self.cursor;
        if pos >= self.view.len() {
            return None;
        }
        self.cursor += 1;
        let t = self.view.tuple(pos);
        Some(SourceTuple {
            id: t.id,
            score: scan_score(self.view.keys_descend(), t.key, pos),
            prob: t.prob,
            rule: t.rule.map(|h| RuleKey(h.index() as u32)),
        })
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.view.rules().get(rule.0 as usize).map(|r| r.mass)
    }

    fn total_mass(&self) -> Option<f64> {
        // Rule masses are rank-order sums clamped once, which is the scan
        // order here (see `RuleProjection`).
        Some(self.view.total_mass())
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        self.view
            .rules()
            .get(rule.0 as usize)
            .map(|r| r.members.len())
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        // Views index rules densely and list members in ranked order, so a
        // member's ranked position *is* its scan rank.
        self.view
            .rules()
            .get(rule.0 as usize)
            .and_then(|r| r.members.get(member))
            .copied()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.view.len())
    }

    fn retrieved(&self) -> usize {
        self.cursor
    }
}

/// A [`RankedSource`] over a [`Selection`]: walks the table's shared
/// ranked view from the start of the selection's ranked range, skips the
/// tuples the predicate dropped, and projects each rule the selection does
/// not keep whole when it first meets one of its members.
///
/// It delivers exactly what a [`ViewSource`] over
/// [`Selection::materialize`] delivers — ids, scores, probabilities,
/// positions, and the same answers to every rule question — except that
/// rule keys are the shared view's rule handles rather than the
/// materialized view's dense ones. Dropping rules keeps the handles'
/// order, and keys are only compared and ordered, so a scan over either
/// computes the same thing.
#[derive(Debug)]
pub struct SelectionSource<'s> {
    selection: &'s Selection,
    /// The next ranked position of the shared view to examine.
    ranked: usize,
    /// Tuples delivered so far.
    delivered: usize,
    /// Rules met so far that the selection does not keep whole, projected
    /// onto the selection (`None`: fewer than two members selected, so its
    /// members are delivered as independent).
    met: HashMap<RuleKey, Option<RuleProjection>>,
}

impl<'s> SelectionSource<'s> {
    /// A cursor before the selection's first tuple.
    pub fn new(selection: &'s Selection) -> SelectionSource<'s> {
        SelectionSource {
            selection,
            ranked: selection.ranked_range().start,
            delivered: 0,
            met: HashMap::new(),
        }
    }

    /// The projection of the shared view's rule `key`, or `None` for a key
    /// that is not a rule of the selection.
    fn rule(&self, key: RuleKey) -> Option<Cow<'_, RuleProjection>> {
        if key.0 as usize >= self.selection.view().rules().len() {
            return None;
        }
        match self.met.get(&key) {
            Some(met) => met.as_ref().map(Cow::Borrowed),
            None => self
                .selection
                .project(RuleHandle::from_index(key.0 as usize)),
        }
    }
}

impl SnapshotSource for Selection {
    fn fork(&self) -> Box<dyn RankedSource + '_> {
        Box::new(SelectionSource::new(self))
    }
}

impl RankedSource for SelectionSource<'_> {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        let view = self.selection.view();
        let end = self.selection.ranked_range().end;
        let (t, pos) = loop {
            let ranked = self.ranked;
            if ranked >= end {
                return None;
            }
            self.ranked += 1;
            if let Some(pos) = self.selection.position(ranked) {
                break (view.tuple(ranked), pos);
            }
        };
        self.delivered += 1;
        let selection = self.selection;
        let rule = t.rule.filter(|&h| {
            // A rule kept whole survives, and `rule` borrows it from the view.
            selection.keeps_whole(h)
                || self
                    .met
                    .entry(RuleKey(h.index() as u32))
                    .or_insert_with(|| selection.project(h).map(Cow::into_owned))
                    .is_some()
        });
        Some(SourceTuple {
            id: t.id,
            score: scan_score(selection.keys_descend(), t.key, pos),
            prob: t.prob,
            rule: rule.map(|h| RuleKey(h.index() as u32)),
        })
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.rule(rule).map(|r| r.mass)
    }

    fn total_mass(&self) -> Option<f64> {
        Some(self.selection.total_mass())
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        self.rule(rule).map(|r| r.members.len())
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        // Projected members are selection positions, which are scan ranks.
        self.rule(rule).and_then(|r| r.members.get(member).copied())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.selection.len())
    }

    fn retrieved(&self) -> usize {
        self.delivered
    }
}

/// A [`RankedSource`] over an owned, pre-sorted list of
/// `(score, probability, rule)` triples.
#[derive(Debug, Clone)]
pub struct SortedVecSource {
    tuples: Vec<SourceTuple>,
    rule_masses: Vec<f64>,
    /// `rule_ranks[r]` lists the scan ranks of rule `r`'s members, in
    /// ranking order — the layout hints behind [`RankedSource::rule_len`]
    /// and [`RankedSource::rule_member_rank`].
    rule_ranks: Vec<Vec<usize>>,
    cursor: usize,
}

impl SortedVecSource {
    /// Builds a source from unsorted triples; tuple ids are assigned by the
    /// input order (so answers can be traced back to the caller's rows).
    ///
    /// # Errors
    /// Fails if a probability is outside `(0, 1]` or a rule's total mass
    /// exceeds 1.
    pub fn from_unsorted(
        rows: Vec<(f64, f64, Option<u32>)>,
    ) -> Result<SortedVecSource, ModelError> {
        let mut max_rule = 0usize;
        for (_, prob, rule) in &rows {
            Probability::new_membership(*prob)?;
            if let Some(r) = rule {
                max_rule = max_rule.max(*r as usize + 1);
            }
        }
        let mut rule_masses = vec![0.0f64; max_rule];
        let mut tuples: Vec<SourceTuple> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (score, prob, rule))| {
                if let Some(r) = rule {
                    rule_masses[r as usize] += prob;
                }
                SourceTuple {
                    id: TupleId::new(i),
                    score,
                    prob,
                    rule: rule.map(RuleKey),
                }
            })
            .collect();
        for (r, &mass) in rule_masses.iter().enumerate() {
            if mass > 1.0 + 1e-9 {
                return Err(ModelError::RuleMassExceedsOne {
                    members: tuples
                        .iter()
                        .filter(|t| t.rule == Some(RuleKey(r as u32)))
                        .map(|t| t.id)
                        .collect(),
                    total: mass,
                });
            }
        }
        tuples.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        let mut rule_ranks = vec![Vec::new(); max_rule];
        for (rank, t) in tuples.iter().enumerate() {
            if let Some(RuleKey(r)) = t.rule {
                rule_ranks[r as usize].push(rank);
            }
        }
        Ok(SortedVecSource {
            tuples,
            rule_masses,
            rule_ranks,
            cursor: 0,
        })
    }

    /// Number of tuples in the source.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the source holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A borrowing scan cursor over a [`SortedVecSource`] — what
/// [`SnapshotSource::fork`] hands each batch worker, so forks share the
/// sorted tuples and rule layout instead of deep-cloning them.
#[derive(Debug)]
pub struct SortedVecCursor<'a> {
    src: &'a SortedVecSource,
    cursor: usize,
}

impl RankedSource for SortedVecCursor<'_> {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        let t = self.src.tuples.get(self.cursor).copied();
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.src.rule_mass(rule)
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        self.src.rule_len(rule)
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        self.src.rule_member_rank(rule, member)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.src.len())
    }

    fn retrieved(&self) -> usize {
        self.cursor
    }
}

impl SnapshotSource for SortedVecSource {
    fn fork(&self) -> Box<dyn RankedSource + '_> {
        Box::new(SortedVecCursor {
            src: self,
            cursor: 0,
        })
    }
}

impl RankedSource for SortedVecSource {
    fn next_ranked(&mut self) -> Option<SourceTuple> {
        let t = self.tuples.get(self.cursor).copied();
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn rule_mass(&self, rule: RuleKey) -> Option<f64> {
        self.rule_masses.get(rule.0 as usize).copied()
    }

    fn rule_len(&self, rule: RuleKey) -> Option<usize> {
        let ranks = self.rule_ranks.get(rule.0 as usize)?;
        (!ranks.is_empty()).then_some(ranks.len())
    }

    fn rule_member_rank(&self, rule: RuleKey, member: usize) -> Option<usize> {
        self.rule_ranks.get(rule.0 as usize)?.get(member).copied()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tuples.len())
    }

    fn retrieved(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_vec_orders_descending() {
        let mut s = SortedVecSource::from_unsorted(vec![
            (1.0, 0.5, None),
            (3.0, 0.4, None),
            (2.0, 0.3, None),
        ])
        .unwrap();
        let scores: Vec<f64> = std::iter::from_fn(|| s.next_ranked().map(|t| t.score)).collect();
        assert_eq!(scores, vec![3.0, 2.0, 1.0]);
        assert_eq!(s.retrieved(), 3);
        assert!(s.next_ranked().is_none());
        assert_eq!(s.retrieved(), 3);
    }

    #[test]
    fn sorted_vec_ties_break_by_input_order() {
        let mut s =
            SortedVecSource::from_unsorted(vec![(2.0, 0.5, None), (2.0, 0.4, None)]).unwrap();
        assert_eq!(s.next_ranked().unwrap().id.index(), 0);
        assert_eq!(s.next_ranked().unwrap().id.index(), 1);
    }

    #[test]
    fn sorted_vec_tracks_rule_masses() {
        let s = SortedVecSource::from_unsorted(vec![
            (3.0, 0.4, Some(0)),
            (2.0, 0.5, Some(0)),
            (1.0, 0.9, None),
        ])
        .unwrap();
        assert!((s.rule_mass(RuleKey(0)).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(s.rule_mass(RuleKey(7)), None);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn sorted_vec_validates() {
        assert!(SortedVecSource::from_unsorted(vec![(1.0, 0.0, None)]).is_err());
        assert!(
            SortedVecSource::from_unsorted(vec![(1.0, 0.7, Some(0)), (2.0, 0.7, Some(0)),])
                .is_err()
        );
    }

    #[test]
    fn view_source_mirrors_the_view() {
        let view = RankedView::from_ranked_probs(&[0.3, 0.4, 0.6], &[vec![0, 2]]).unwrap();
        let mut s = ViewSource::new(&view);
        let a = s.next_ranked().unwrap();
        assert_eq!(a.prob, 0.3);
        assert_eq!(a.rule, Some(RuleKey(0)));
        let b = s.next_ranked().unwrap();
        assert_eq!(b.rule, None);
        assert!((s.rule_mass(RuleKey(0)).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(s.rule_mass(RuleKey(9)), None);
        assert_eq!(s.retrieved(), 2);
        // Position-based stand-in scores are non-increasing.
        let c = s.next_ranked().unwrap();
        assert!(b.score >= c.score);
        assert!(a.score >= b.score);
    }

    #[test]
    fn view_source_reports_rule_layout() {
        let view = RankedView::from_ranked_probs(&[0.3, 0.4, 0.6], &[vec![0, 2]]).unwrap();
        let s = ViewSource::new(&view);
        assert_eq!(s.rule_len(RuleKey(0)), Some(2));
        assert_eq!(s.rule_member_rank(RuleKey(0), 0), Some(0));
        assert_eq!(s.rule_member_rank(RuleKey(0), 1), Some(2));
        assert_eq!(s.rule_member_rank(RuleKey(0), 2), None);
        assert_eq!(s.rule_len(RuleKey(9)), None);
    }

    #[test]
    fn view_source_scores_stay_monotone_for_ascending_rankings() {
        // An ascending ranking makes the raw keys increase along the scan;
        // the source must fall back to position stand-ins so the engine's
        // order check holds.
        use ptk_core::{Predicate, Ranking, TopKQuery, UncertainTableBuilder};
        let mut b = UncertainTableBuilder::new(vec!["x".into()]);
        b.push_scored(0.5, 1.0).unwrap();
        b.push_scored(0.6, 3.0).unwrap();
        b.push_scored(0.7, 2.0).unwrap();
        let table = b.finish().unwrap();
        let query = TopKQuery::new(2, Predicate::True, Ranking::ascending(0)).unwrap();
        let view = RankedView::build(&table, &query).unwrap();
        let mut s = ViewSource::new(&view);
        let mut last = f64::INFINITY;
        let mut n = 0;
        while let Some(t) = s.next_ranked() {
            assert!(t.score <= last, "score {} after {last}", t.score);
            last = t.score;
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn selection_source_mirrors_the_materialized_selection() {
        use ptk_core::{ComparisonOp, Predicate, Ranking, TopKQuery, UncertainTableBuilder};
        // Rules {0, 1} and {2, 3, 4}; dropping score 2.0 leaves the first a
        // lone survivor (independent) and the second two members.
        let mut b = UncertainTableBuilder::single_column();
        let ids: Vec<_> = [(0.3, 5.0), (0.4, 2.0), (0.2, 4.0), (0.5, 3.0), (0.1, 1.0)]
            .iter()
            .map(|&(p, s)| b.push_scored(p, s).unwrap())
            .collect();
        b.exclusive(&ids[..2]).unwrap();
        b.exclusive(&ids[2..]).unwrap();
        let table = b.finish().unwrap();
        // `score != 2` takes the predicate pass; `score <= 3` is the ranked
        // range 2..5, a suffix that cuts the rules the same way.
        for (op, selected) in [(ComparisonOp::Ne, 4), (ComparisonOp::Le, 3)] {
            let score = if op == ComparisonOp::Ne { 2.0 } else { 3.0 };
            let query = TopKQuery::new(1, Predicate::compare(0, op, score), Ranking::descending(0))
                .unwrap();
            let selection = Selection::new(&table, &query).unwrap();
            assert_eq!(selection.ran_predicate_pass(), op == ComparisonOp::Ne);
            let view = selection.materialize();
            let mut got = SelectionSource::new(&selection);
            let mut want = ViewSource::new(&view);
            while let Some(w) = want.next_ranked() {
                let g = got.next_ranked().unwrap();
                assert_eq!((g.id, g.score, g.prob), (w.id, w.score, w.prob));
                assert_eq!(g.rule.is_some(), w.rule.is_some());
                if let (Some(gk), Some(wk)) = (g.rule, w.rule) {
                    assert_eq!(got.rule_mass(gk), want.rule_mass(wk));
                    assert_eq!(got.rule_len(gk), want.rule_len(wk));
                    for m in 0..3 {
                        assert_eq!(got.rule_member_rank(gk, m), want.rule_member_rank(wk, m));
                    }
                }
            }
            assert!(got.next_ranked().is_none());
            assert_eq!(
                (got.retrieved(), got.len_hint()),
                (selected, Some(selected))
            );
            // The dropped rule and unknown keys answer nothing.
            assert_eq!(got.rule_mass(RuleKey(0)), None);
            assert_eq!(got.rule_len(RuleKey(9)), None);
        }
    }

    #[test]
    fn forked_cursors_scan_independently() {
        let src = SortedVecSource::from_unsorted(vec![
            (3.0, 0.4, Some(0)),
            (2.0, 0.5, Some(0)),
            (1.0, 0.9, None),
        ])
        .unwrap();
        let mut a = src.fork();
        let mut b = src.fork();
        assert_eq!(a.next_ranked().unwrap().score, 3.0);
        assert_eq!(a.next_ranked().unwrap().score, 2.0);
        // b's cursor is unaffected by a's progress.
        assert_eq!(b.next_ranked().unwrap().score, 3.0);
        assert_eq!(a.retrieved(), 2);
        assert_eq!(b.retrieved(), 1);
        // Layout hints pass through the fork.
        assert!((a.rule_mass(RuleKey(0)).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(b.rule_len(RuleKey(0)), Some(2));
        assert_eq!(b.rule_member_rank(RuleKey(0), 1), Some(1));
        assert_eq!(a.len_hint(), Some(3), "length hint survives the fork");

        let view = RankedView::from_ranked_probs(&[0.3, 0.4], &[]).unwrap();
        let mut va = view.fork();
        let mut vb = view.fork();
        assert_eq!(va.next_ranked().unwrap().prob, 0.3);
        assert_eq!(vb.next_ranked().unwrap().prob, 0.3);
        assert_eq!(va.retrieved(), 1);
    }

    #[test]
    fn sorted_vec_reports_rule_layout() {
        let s = SortedVecSource::from_unsorted(vec![
            (1.0, 0.2, Some(1)),
            (3.0, 0.4, Some(1)),
            (2.0, 0.9, None),
        ])
        .unwrap();
        // Rule 1's members land at scan ranks 0 (score 3.0) and 2 (score 1.0).
        assert_eq!(s.rule_len(RuleKey(1)), Some(2));
        assert_eq!(s.rule_member_rank(RuleKey(1), 0), Some(0));
        assert_eq!(s.rule_member_rank(RuleKey(1), 1), Some(2));
        assert_eq!(s.rule_member_rank(RuleKey(1), 2), None);
        // Rule 0 was never used: no layout, not even a zero length.
        assert_eq!(s.rule_len(RuleKey(0)), None);
        assert_eq!(s.rule_len(RuleKey(7)), None);
    }
}
