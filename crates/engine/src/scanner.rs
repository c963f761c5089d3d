//! The incremental scan over a materialized ranked view.
//!
//! [`Scanner`] walks the ranked view position by position, maintaining the
//! *compressed dominant set* `T(t_i)` of the current tuple (§4.3.1):
//!
//! * independent tuples already scanned appear as themselves;
//! * each multi-tuple rule with scanned members appears as a single
//!   *rule-tuple* whose mass is the sum of its scanned members'
//!   probabilities (Corollary 1) — unless the current tuple belongs to the
//!   rule, in which case the rule is excluded entirely (Corollary 2);
//!
//! together with the subset-probability DP rows over that set. Consecutive
//! steps share the DP rows of the longest common prefix between their entry
//! lists (§4.3.2); the [`SharingVariant`] selects how entries are ordered to
//! maximize that prefix.
//!
//! Since the planner/executor unification, the bookkeeping itself lives in
//! the crate-internal `Compressor` shared with
//! [`PtkExecutor`](crate::PtkExecutor); `Scanner` is the view-specialized
//! adapter, feeding the compressor the rule layout a
//! [`RankedView`] knows ahead of time (member counts and positions) and
//! translating entries back into view positions.

use ptk_core::{RankedView, RuleHandle};

use crate::dp;
use crate::gf::{AbsorbSpec, Compressor, PoolEntry};
use crate::plan::SharingVariant;

/// One element of a compressed dominant set, in view terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// An independent tuple at a ranked position.
    Tuple {
        /// Ranked position of the tuple.
        pos: usize,
        /// Its membership probability.
        prob: f64,
    },
    /// A rule-tuple: the scanned members of a multi-tuple rule compressed
    /// into one pseudo-tuple (Corollary 1).
    RuleTuple {
        /// The projected rule.
        rule: RuleHandle,
        /// How many members have been absorbed so far. Two rule-tuples for
        /// the same rule are interchangeable iff this matches.
        absorbed: u32,
        /// Sum of the absorbed members' probabilities.
        mass: f64,
    },
}

impl Entry {
    /// The probability this entry contributes to the DP.
    #[inline]
    pub fn mass(&self) -> f64 {
        match self {
            Entry::Tuple { prob, .. } => *prob,
            Entry::RuleTuple { mass, .. } => *mass,
        }
    }
}

/// The output of one scan step: the DP row of the current tuple's compressed
/// dominant set.
#[derive(Debug)]
pub struct StepRow<'a> {
    /// `row[j] = Pr(T(t_i), j)` for `j < k`.
    pub row: &'a [f64],
}

impl StepRow<'_> {
    /// `Σ_{j<k} Pr(T(t_i), j)` — the factor of Eq. 4 and the input of the
    /// Theorem 3 bound.
    ///
    /// This is a direct delegation to [`dp::partial_sum`], the crate's one
    /// audited implementation of that truncated sum (see its docs for the
    /// truncation argument); tests pin the two to bit equality.
    pub fn partial_sum(&self) -> f64 {
        dp::partial_sum(self.row)
    }
}

/// Incremental scanner producing, for each ranked position, the
/// subset-probability row of its compressed dominant set.
#[derive(Debug)]
pub struct Scanner<'v> {
    view: &'v RankedView,
    comp: Compressor,
    /// Next position to process.
    cursor: usize,
}

impl<'v> Scanner<'v> {
    /// Creates a scanner over `view` for queries of depth `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(view: &'v RankedView, k: usize, variant: SharingVariant) -> Scanner<'v> {
        Scanner {
            view,
            comp: Compressor::new(k, variant),
            cursor: 0,
        }
    }

    /// The position the next step will process, or `None` when exhausted.
    pub fn position(&self) -> Option<usize> {
        (self.cursor < self.view.len()).then_some(self.cursor)
    }

    /// Total DP cells computed so far.
    pub fn dp_cells(&self) -> u64 {
        self.comp.dp_cells()
    }

    /// Total entries whose DP row was (re)computed — the paper's Eq. 5 cost.
    pub fn entries_recomputed(&self) -> u64 {
        self.comp.entries_recomputed()
    }

    /// The entry list of the most recently built step, translated into view
    /// terms on demand (for inspection and the Figure 2 tests — the hot
    /// path never pays for the translation).
    pub fn entries(&self) -> Vec<Entry> {
        self.comp.entries().iter().map(to_view_entry).collect()
    }

    /// Processes the next tuple and returns its DP row.
    ///
    /// Returns `None` when the scan is exhausted.
    pub fn step(&mut self) -> Option<StepRow<'_>> {
        let pos = self.position()?;
        let own_rule = self.view.rule_at(pos).map(key_of);
        self.comp.build(own_rule);
        self.advance_pool(pos);
        self.cursor += 1;
        Some(StepRow {
            row: self.comp.last_row(),
        })
    }

    /// Processes the next tuple *without* building its DP row (the tuple was
    /// pruned; only the pool bookkeeping advances).
    ///
    /// Returns the position skipped, or `None` when exhausted.
    pub fn step_skip(&mut self) -> Option<usize> {
        let pos = self.position()?;
        self.advance_pool(pos);
        self.cursor += 1;
        Some(pos)
    }

    /// The subset-probability row over the *entire current pool* — every
    /// scanned tuple compressed, no rule excluded. This is what a future
    /// independent tuple's dominant set would contain if scanning stopped
    /// here; its prefix sums are the early-exit upper bound.
    pub fn pool_row(&mut self) -> Vec<f64> {
        self.comp.pool_row()
    }

    /// Rules that currently have both scanned and unscanned members, with
    /// their scanned mass. A future member of such a rule leaves this mass
    /// out of its dominant set (Corollary 2), and its own membership is at
    /// most one minus it.
    pub fn open_rules(&self) -> Vec<(RuleHandle, f64)> {
        self.comp
            .open_rules()
            .into_iter()
            .map(|(key, mass)| (RuleHandle::from_index(key.0 as usize), mass))
            .collect()
    }

    /// Folds the tuple at `pos` into the pool after its step, handing the
    /// compressor the layout the view knows ahead of time: the rule's
    /// member count (so completed rule-tuples join the stable group) and
    /// the next member's position (driving the aggressive ordering).
    fn advance_pool(&mut self, pos: usize) {
        let rule = self.view.rule_at(pos);
        let (rule_len, next_member_rank) = match rule {
            Some(h) => {
                let members = &self.view.rules()[h.index()].members;
                let absorbed = self.comp.absorbed(key_of(h)) as usize;
                debug_assert_eq!(
                    members[absorbed], pos,
                    "rule members must be scanned in ranked order"
                );
                (Some(members.len()), members.get(absorbed + 1).copied())
            }
            None => (None, None),
        };
        self.comp.absorb(AbsorbSpec {
            tag: pos,
            prob: self.view.prob(pos),
            rule: rule.map(key_of),
            rule_len,
            next_member_rank,
        });
    }
}

/// Views index rules densely, so the handle's index is the rule key.
fn key_of(h: RuleHandle) -> ptk_access::RuleKey {
    ptk_access::RuleKey(h.index() as u32)
}

/// Translates a compressor entry back into view terms. Independents are
/// tagged with their ranked position by [`Scanner::advance_pool`].
fn to_view_entry(e: &PoolEntry) -> Entry {
    match e {
        PoolEntry::Indep { tag, prob } => Entry::Tuple {
            pos: *tag,
            prob: *prob,
        },
        PoolEntry::Rule {
            key,
            absorbed,
            mass,
            ..
        } => Entry::RuleTuple {
            rule: RuleHandle::from_index(key.0 as usize),
            absorbed: *absorbed,
            mass: *mass,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 4 of the paper: probabilities in ranked order, with the rules
    /// of Example 3 (0-based positions: R1 = {1,3,8}, R2 = {4,6}).
    fn table4(rules: bool) -> RankedView {
        let probs = [0.7, 0.2, 1.0, 0.3, 0.5, 0.8, 0.1, 0.8, 0.1];
        let groups: &[Vec<usize>] = if rules {
            &[vec![1, 3, 8], vec![4, 6]]
        } else {
            &[]
        };
        RankedView::from_ranked_probs(&probs, groups).unwrap()
    }

    fn partial_sums(view: &RankedView, k: usize, variant: SharingVariant) -> Vec<f64> {
        let mut s = Scanner::new(view, k, variant);
        let mut out = Vec::new();
        while let Some(step) = s.step() {
            out.push(step.partial_sum());
        }
        out
    }

    #[test]
    fn basic_case_matches_example_2() {
        let view = table4(false);
        let sums = partial_sums(&view, 3, SharingVariant::Lazy);
        // Pr^3(t_i) = Pr(t_i) * sums[i]; Example 2 gives Pr^3(t4) = 0.258
        // (t4 is position 3, probability 0.3).
        assert!((0.3 * sums[3] - 0.258).abs() < 1e-12, "sum = {}", sums[3]);
        // First k tuples always have partial sum 1.
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert!((sums[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rules_match_example_3() {
        let view = table4(true);
        let sums = partial_sums(&view, 3, SharingVariant::Lazy);
        // Example 3: Pr^3(t6) = 0.32 (position 5, prob 0.8) and
        // Pr^3(t7) = 0.025 (position 6, prob 0.1).
        assert!((0.8 * sums[5] - 0.32).abs() < 1e-12, "t6 sum = {}", sums[5]);
        assert!(
            (0.1 * sums[6] - 0.025).abs() < 1e-12,
            "t7 sum = {}",
            sums[6]
        );
    }

    #[test]
    fn all_variants_agree() {
        let view = table4(true);
        let a = partial_sums(&view, 3, SharingVariant::Rc);
        let b = partial_sums(&view, 3, SharingVariant::Aggressive);
        let c = partial_sums(&view, 3, SharingVariant::Lazy);
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() < 1e-12,
                "pos {i}: RC {} vs AR {}",
                a[i],
                b[i]
            );
            assert!(
                (a[i] - c[i]).abs() < 1e-12,
                "pos {i}: RC {} vs LR {}",
                a[i],
                c[i]
            );
        }
    }

    #[test]
    fn skip_only_advances_pool() {
        let view = table4(true);
        // Skip the first three tuples, then the fourth must see the same
        // dominant set as in a full scan.
        let mut s = Scanner::new(&view, 3, SharingVariant::Lazy);
        s.step_skip().unwrap();
        s.step_skip().unwrap();
        s.step_skip().unwrap();
        let sum_skipped = s.step().unwrap().partial_sum();
        let full = partial_sums(&view, 3, SharingVariant::Lazy);
        assert!((sum_skipped - full[3]).abs() < 1e-12);
    }

    #[test]
    fn scan_exhausts() {
        let view = table4(false);
        let mut s = Scanner::new(&view, 2, SharingVariant::Lazy);
        let mut n = 0;
        while s.step().is_some() {
            n += 1;
        }
        assert_eq!(n, view.len());
        assert!(s.step().is_none());
        assert!(s.step_skip().is_none());
        assert!(s.position().is_none());
    }

    #[test]
    fn rc_recomputes_everything() {
        let view = table4(false);
        let mut s = Scanner::new(&view, 3, SharingVariant::Rc);
        while s.step().is_some() {}
        // Dominant set sizes 0..=8 for 9 independent tuples: 0+1+...+8 = 36.
        assert_eq!(s.entries_recomputed(), 36);
        assert_eq!(s.dp_cells(), 36 * 3);
    }

    #[test]
    fn lazy_shares_prefixes_in_basic_case() {
        let view = table4(false);
        let mut s = Scanner::new(&view, 3, SharingVariant::Lazy);
        while s.step().is_some() {}
        // With no rules each step extends the previous list by exactly one
        // tuple: 8 recomputed entries in total.
        assert_eq!(s.entries_recomputed(), 8);
    }

    #[test]
    fn pool_row_covers_all_scanned() {
        let view = table4(true);
        let mut s = Scanner::new(&view, 3, SharingVariant::Lazy);
        for _ in 0..5 {
            s.step();
        }
        // Pool after scanning positions 0..4: independents {0, 2},
        // rule-tuples R1 (members 1,3 scanned) and R2 (member 4 scanned).
        let row = s.pool_row();
        let expect = dp::poisson_binomial([0.7, 1.0, 0.2 + 0.3, 0.5], 3);
        for (a, b) in row.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let open = s.open_rules();
        assert_eq!(open.len(), 2);
    }

    #[test]
    fn open_rules_empty_after_completion() {
        let view = table4(true);
        let mut s = Scanner::new(&view, 3, SharingVariant::Lazy);
        while s.step().is_some() {}
        assert!(s.open_rules().is_empty());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_is_rejected() {
        let _ = Scanner::new(&table4(false), 0, SharingVariant::Lazy);
    }

    #[test]
    fn step_row_partial_sum_is_bit_identical_to_dp() {
        // Satellite of the unification: one audited implementation of the
        // Theorem 3 bound input. The StepRow helper must be the same
        // function, to the bit.
        let view = table4(true);
        let mut s = Scanner::new(&view, 3, SharingVariant::Lazy);
        while let Some(step) = s.step() {
            assert_eq!(
                step.partial_sum().to_bits(),
                dp::partial_sum(step.row).to_bits()
            );
        }
    }
}
