//! The shared scan layout: one materialization of a ranked snapshot's scan,
//! read by the segment tasks of every unpruned plan of a batch.
//!
//! An unpruned plan evaluates every tuple, so its scan can be split
//! *within* the query (see `exec.rs`). [`ScanLayout::materialize`] reads
//! the shared [`SnapshotSource`] once and records, for every rank, the
//! tuple and the layout hints (`rule_len`, the next member's rank) a fresh
//! sequential cursor would answer at that rank, so a segment absorbs
//! exactly what the sequential scan absorbs. It also records what the
//! split needs: the availability-ordered *stable list* (independent
//! tuples and completed rules, in the order they join the stable group of
//! §4.3.2) and the *rule-closed cuts* — ranks `b` such that every rule
//! with a member before `b` has **all** members before `b`. At such a cut
//! the compressed dominant set is fully stable, which is what lets a
//! segment worker resume the prefix-shared DP from a single boundary row.

use std::collections::HashMap;

use ptk_access::{RuleKey, SnapshotSource, SourceTuple};

/// One rank of the materialized scan: the tuple plus the hint answers a
/// fresh sequential cursor would give at this rank.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayoutTuple {
    /// The tuple as the source delivered it.
    pub tuple: SourceTuple,
    /// `source.rule_len(rule)` at this rank (queried for every rule member).
    pub rule_len: Option<usize>,
    /// `source.rule_member_rank(rule, seen + 1)` at this rank — the scan
    /// rank of the rule's next member after this one.
    pub next_member_rank: Option<usize>,
}

/// What a stable item is, with everything a segment worker needs to seed
/// its compressor state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StableSeed {
    /// An independent tuple (its tag is its scan rank).
    Indep {
        /// Scan rank (the executor's per-scan tag).
        tag: usize,
        /// Membership probability.
        prob: f64,
    },
    /// A rule whose last member has been scanned.
    Rule {
        /// The rule's identity.
        key: RuleKey,
        /// Final member count.
        absorbed: u32,
        /// Final mass — the members' probabilities summed in scan order,
        /// the exact f64 accumulation a sequential compressor performs.
        mass: f64,
    },
}

/// A stable item together with the rank whose absorption made it stable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StableRecord {
    /// Rank of the absorb that created the item (for independents, the
    /// tuple's own rank; for rules, the last member's rank).
    pub avail_rank: usize,
    /// The item itself.
    pub seed: StableSeed,
}

/// The materialized scan of one ranked snapshot. See the module docs.
#[derive(Debug)]
pub(crate) struct ScanLayout {
    /// Per-rank recording, in scan order.
    pub tuples: Vec<LayoutTuple>,
    /// Stable items in availability order (at most one per rank).
    pub stable: Vec<StableRecord>,
    /// Valid rule-closed cut ranks, ascending, each in `1..n`.
    cuts: Vec<usize>,
    /// False when the source's reported rule lengths disagreed with the
    /// members it actually delivered — segmentation then stands down and
    /// every query runs the (equally correct) whole-scan path.
    segmentable: bool,
}

/// Per-rule bookkeeping while materializing.
#[derive(Debug, Default)]
struct BuildRule {
    seen: u32,
    len: Option<usize>,
    mass: f64,
    open: bool,
}

impl ScanLayout {
    /// Scans one forked cursor to exhaustion, recording tuples, hint
    /// answers, stable availability, and rule-closed cuts.
    ///
    /// # Panics
    /// Panics if the source delivers scores out of order — the same
    /// contract violation the executor itself panics on.
    pub(crate) fn materialize<S: SnapshotSource + ?Sized>(source: &S) -> ScanLayout {
        let mut cursor = source.fork();
        let mut layout = ScanLayout {
            tuples: Vec::with_capacity(cursor.len_hint().unwrap_or(0)),
            stable: Vec::new(),
            cuts: Vec::new(),
            segmentable: true,
        };
        let mut rules: HashMap<RuleKey, BuildRule> = HashMap::new();
        let mut open_rules = 0usize;
        let mut last_score = f64::INFINITY;
        while let Some(tuple) = cursor.next_ranked() {
            assert!(
                tuple.score <= last_score + 1e-9,
                "source delivered scores out of order: {} after {last_score}",
                tuple.score
            );
            last_score = tuple.score;
            let rank = layout.tuples.len();
            let mut rec = LayoutTuple {
                tuple,
                rule_len: None,
                next_member_rank: None,
            };
            match tuple.rule {
                None => layout.stable.push(StableRecord {
                    avail_rank: rank,
                    seed: StableSeed::Indep {
                        tag: rank,
                        prob: tuple.prob,
                    },
                }),
                Some(key) => {
                    let rs = rules.entry(key).or_default();
                    // Ask the source exactly what a fresh query cursor at
                    // this rank would ask.
                    rec.rule_len = cursor.rule_len(key);
                    rec.next_member_rank = cursor.rule_member_rank(key, rs.seen as usize + 1);
                    // Mirror the compressor's absorption bookkeeping bit
                    // for bit: mass accumulates in scan order, clamped at 1
                    // exactly like `Compressor::absorb` (an ulp of overshoot
                    // is legal input); the first reported length sticks.
                    rs.mass = (rs.mass + tuple.prob).min(1.0);
                    rs.seen += 1;
                    if rs.len.is_none() {
                        rs.len = rec.rule_len;
                    }
                    match rs.len {
                        Some(len) if len == rs.seen as usize => {
                            // The rule just completed: it joins the stable
                            // group here.
                            if rs.open {
                                open_rules -= 1;
                                rs.open = false;
                            }
                            layout.stable.push(StableRecord {
                                avail_rank: rank,
                                seed: StableSeed::Rule {
                                    key,
                                    absorbed: rs.seen,
                                    mass: rs.mass,
                                },
                            });
                        }
                        Some(len) if (rs.seen as usize) > len => {
                            // The source under-reported the rule's length;
                            // the sequential engine tolerates this (the
                            // rule-tuple's mass is what matters), but the
                            // segment planner cannot trust closure here.
                            layout.segmentable = false;
                        }
                        _ => {
                            if !rs.open {
                                rs.open = true;
                                open_rules += 1;
                            }
                        }
                    }
                }
            }
            layout.tuples.push(rec);
            // A cut after this rank is rule-closed iff no rule is open.
            if open_rules == 0 {
                layout.cuts.push(rank + 1);
            }
        }
        // The rank-n "cut" is the end of the scan, not a boundary.
        if layout.cuts.last() == Some(&layout.tuples.len()) {
            layout.cuts.pop();
        }
        layout
    }

    /// Number of ranks in the layout.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Picks segment boundaries for a partitioned deep scan: a pure
    /// function of the layout and the two policy constants — **never of
    /// the pool width** — so segmentation can change only how work is
    /// scheduled, not what any rendering of the result looks like.
    ///
    /// Aims for segments of at least `min_tuples`, capped at
    /// `max_segments`, snapping each ideal boundary down to the nearest
    /// rule-closed cut. Returns the chosen cuts (ascending, each in
    /// `1..n`), or an empty vector when the scan is not worth partitioning
    /// (too small, no usable cuts, or an untrustworthy rule layout).
    pub(crate) fn plan_segments(&self, min_tuples: usize, max_segments: usize) -> Vec<usize> {
        let n = self.len();
        if !self.segmentable || self.cuts.is_empty() || n < min_tuples.saturating_mul(2) {
            return Vec::new();
        }
        let want = (n / min_tuples.max(1)).clamp(1, max_segments.max(1));
        if want < 2 {
            return Vec::new();
        }
        let mut chosen = Vec::with_capacity(want - 1);
        let mut last = 0usize;
        for i in 1..want {
            let target = i * n / want;
            // Largest cut <= target.
            let pos = self.cuts.partition_point(|&c| c <= target);
            if pos == 0 {
                continue;
            }
            let cut = self.cuts[pos - 1];
            if cut > last {
                chosen.push(cut);
                last = cut;
            }
        }
        chosen
    }

    /// The stable-prefix length for a cut `b`: how many stable items have
    /// `avail_rank < bound`.
    pub(crate) fn stable_before(&self, bound: usize) -> usize {
        self.stable.partition_point(|s| s.avail_rank < bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptk_access::SortedVecSource;
    use ptk_core::RankedView;

    fn demo_source() -> SortedVecSource {
        // Scan order: score 9..=1. Rule 0 members at ranks 1 and 3; rule 1
        // members at ranks 5 and 6; independents elsewhere.
        SortedVecSource::from_unsorted(vec![
            (9.0, 0.5, None),
            (8.0, 0.3, Some(0)),
            (7.0, 0.9, None),
            (6.0, 0.4, Some(0)),
            (5.0, 0.2, None),
            (4.0, 0.25, Some(1)),
            (3.0, 0.35, Some(1)),
            (2.0, 0.6, None),
        ])
        .unwrap()
    }

    #[test]
    fn layout_records_what_a_fork_answers() {
        let src = demo_source();
        let layout = ScanLayout::materialize(&src);
        assert_eq!(layout.len(), 8);
        let mut fork = src.fork();
        let mut seen: HashMap<RuleKey, usize> = HashMap::new();
        for rec in &layout.tuples {
            let x = fork.next_ranked().expect("as long as the source");
            let y = rec.tuple;
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.prob.to_bits(), y.prob.to_bits());
            assert_eq!(x.rule, y.rule);
            if let Some(key) = y.rule {
                let member = seen.entry(key).or_default();
                *member += 1;
                assert_eq!(fork.rule_len(key), rec.rule_len);
                assert_eq!(fork.rule_member_rank(key, *member), rec.next_member_rank);
            }
        }
        assert!(fork.next_ranked().is_none());
    }

    #[test]
    fn stable_list_is_availability_ordered() {
        let layout = ScanLayout::materialize(&demo_source());
        let avails: Vec<usize> = layout.stable.iter().map(|s| s.avail_rank).collect();
        // Independents at 0, 2, 4, 7; rule 0 completes at 3; rule 1 at 6.
        assert_eq!(avails, vec![0, 2, 3, 4, 6, 7]);
        match layout.stable[2].seed {
            StableSeed::Rule { key, absorbed, .. } => {
                assert_eq!(key, RuleKey(0));
                assert_eq!(absorbed, 2);
            }
            ref other => panic!("expected rule 0 at avail 3, got {other:?}"),
        }
        assert_eq!(layout.stable_before(3), 2);
        assert_eq!(layout.stable_before(4), 3);
    }

    #[test]
    fn cuts_are_rule_closed() {
        let layout = ScanLayout::materialize(&demo_source());
        // Rule 0 spans ranks 1..=3, rule 1 spans 5..=6: cuts may not split
        // either. Valid: 1 (after rank 0), 4, 5, 7 — never 2, 3, or 6, and
        // never 8 (the end of the scan).
        assert_eq!(layout.cuts, vec![1, 4, 5, 7]);
    }

    #[test]
    fn unknown_rule_lengths_block_cuts_after_first_member() {
        // A view-less source with no layout hints: rules never close, so
        // the only cuts precede the first rule member.
        let view = RankedView::from_ranked_probs(&[0.5, 0.4, 0.3, 0.2], &[vec![1, 3]]).unwrap();
        let layout = ScanLayout::materialize(&view);
        // RankedView forks report rule layout, so rule 0 closes at rank 3:
        // cuts = 1, 4... but rank 4 is the end, so it is dropped.
        assert_eq!(layout.cuts, vec![1]);
        assert!(layout.plan_segments(1, 8).len() <= 1);
    }

    #[test]
    fn segment_planning_is_a_pure_function_of_the_layout() {
        let rows: Vec<(f64, f64, Option<u32>)> = (0..1000)
            .map(|i| {
                let rule = (i % 7 == 0).then_some((i / 7) as u32);
                (1000.0 - i as f64, 0.3, rule)
            })
            .collect();
        let src = SortedVecSource::from_unsorted(rows).unwrap();
        let layout = ScanLayout::materialize(&src);
        let a = layout.plan_segments(128, 16);
        let b = layout.plan_segments(128, 16);
        assert_eq!(a, b, "same layout, same cuts");
        assert!(!a.is_empty(), "1000 tuples at min 128 should partition");
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&c| c >= 1 && c < layout.len()));
        // Too small to bother.
        assert!(layout.plan_segments(600, 16).is_empty());
    }
}
