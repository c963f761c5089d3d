//! The generating-function ranking core.
//!
//! The PT-k subset-probability DP is one instance of a Poisson-binomial
//! generating function over the compressed dominant set: the coefficient
//! row `Pr(T(t), j)` that Eq. 4 reads is the degree-`j` coefficient of
//! `Π (1 − q_i + q_i·x)` over the pool. Li, Saha & Deshpande and Chang,
//! Yu & Qin observe that U-TopK, U-KRanks, Global-Topk and expected ranks
//! all factor through the same coefficients, so this module hosts:
//!
//! * the dominant-set bookkeeping ([`Compressor`]) shared by the executor
//!   and the view [`Scanner`](crate::Scanner) — rule-tuple compression
//!   (Corollaries 1–2) plus the §4.3.2 prefix-shared refold;
//! * [`GfState`], the Chang et al. O(n·k) *incremental* layer on top: one
//!   full-pool coefficient row maintained by O(k) convolve/deconvolve per
//!   absorbed tuple, with the per-rank row served by deconvolving the own
//!   rule out — falling back to the prefix-shared refold only when the
//!   inversion cannot certify its accuracy ("where applicable");
//! * [`RankSemantics`] and the per-semantics finishers (the U-TopK
//!   x-relation closed form, the U-KRanks argmax, the Global-Topk
//!   selection, the Cormode-style expected-rank closed form) that turn one
//!   scan's coefficients into each answer shape.
//!
//! PT-k keeps its original [`Compressor`]-driven path untouched — same
//! float operations in the same order, so answers stay bit-identical to
//! the pre-refactor engine. Theorems 3–5 stay PT-k-only, but one stopping
//! bound serves PT-k, Global-Topk and U-KRanks: the prefix sums of the
//! pool row alone. Every unseen tuple's dominant set contains the current
//! pool, its own rule-tuple excepted; the probability that at most `j`
//! members of a set appear only falls as the set grows or its masses
//! rise; and a future member of an open rule has membership at most
//! `1 − m_R`, which pays for leaving out the rule's mass `m_R` (see
//! [`RULE_MASS_SLACK`]). So the pool's prefix sums bound every unseen
//! tuple's `Pr^k` and its probability of any exact rank. Expected rank
//! stops on a bound of its own: no unseen tuple's expected rank is below
//! the scanned prefix's mass (see [`expected_rank_slack`]). U-TopK takes
//! no pruning bound: its closed form ([`TopVector`]) ends the scan itself
//! once no vector ending deeper can beat the best one so far.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, HashMap, HashSet};

use ptk_access::RuleKey;
use ptk_core::TupleId;
use ptk_obs::PhaseClock;

use crate::dp;
use crate::exec::PtkResult;
use crate::plan::SharingVariant;

/// The ranking semantics a plan answers — which consumer of the
/// generating-function core interprets the scan's coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankSemantics {
    /// PT-k (the paper): every tuple whose top-k probability `Pr^k` passes
    /// a threshold. The only semantics with per-tuple pruning (Theorems
    /// 3–5 bound `Pr^k` directly).
    #[default]
    Ptk,
    /// U-TopK (Soliman et al.): the most probable top-k *vector*.
    UTopK,
    /// U-KRanks (Soliman et al.): per rank `j`, the tuple most likely to be
    /// ranked exactly `j`-th.
    UKRanks,
    /// Global-Topk (Zhang & Chomicki): the k tuples with the highest top-k
    /// probability `Pr^k`.
    GlobalTopk,
    /// Expected rank (Cormode et al.): the k tuples with the smallest
    /// expected rank over possible worlds (absent tuples rank last).
    ExpectedRank,
}

impl RankSemantics {
    /// Every semantics, in fingerprint-discriminant order.
    pub const ALL: [RankSemantics; 5] = [
        RankSemantics::Ptk,
        RankSemantics::UTopK,
        RankSemantics::UKRanks,
        RankSemantics::GlobalTopk,
        RankSemantics::ExpectedRank,
    ];

    /// The literature's name for the semantics.
    pub fn paper_name(self) -> &'static str {
        match self {
            RankSemantics::Ptk => "PT-k",
            RankSemantics::UTopK => "U-TopK",
            RankSemantics::UKRanks => "U-KRanks",
            RankSemantics::GlobalTopk => "Global-Topk",
            RankSemantics::ExpectedRank => "expected-rank",
        }
    }

    /// The SQL `RANK BY` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            RankSemantics::Ptk => "PTK",
            RankSemantics::UTopK => "U_TOPK",
            RankSemantics::UKRanks => "U_KRANKS",
            RankSemantics::GlobalTopk => "GLOBAL_TOPK",
            RankSemantics::ExpectedRank => "EXPECTED_RANK",
        }
    }

    /// Parses a user-facing name: the `RANK BY` keywords and the common
    /// flag spellings (`u-topk`, `utopk`, `erank`, …), case-insensitive.
    pub fn parse(name: &str) -> Option<RankSemantics> {
        let folded: String = name
            .chars()
            .filter(|c| *c != '_' && *c != '-')
            .flat_map(char::to_lowercase)
            .collect();
        match folded.as_str() {
            "ptk" => Some(RankSemantics::Ptk),
            "utopk" => Some(RankSemantics::UTopK),
            "ukranks" => Some(RankSemantics::UKRanks),
            "globaltopk" => Some(RankSemantics::GlobalTopk),
            "expectedrank" | "erank" => Some(RankSemantics::ExpectedRank),
            _ => None,
        }
    }

    /// Whether the semantics reads per-rank coefficient rows: PT-k through
    /// its prefix-shared DP, U-KRanks and Global-Topk through the
    /// incremental gf row. The U-TopK and expected-rank closed forms need
    /// only the scan records.
    pub fn reads_gf_rows(self) -> bool {
        matches!(
            self,
            RankSemantics::Ptk | RankSemantics::UKRanks | RankSemantics::GlobalTopk
        )
    }

    /// Whether a sound bound can stop this semantics' scan early.
    ///
    /// An unseen tuple's dominant set contains the current pool, its own
    /// rule-tuple excepted, and `Pr(at most j of S appear)` only falls as
    /// `S` grows or its masses rise. A future member of an open rule with
    /// scanned mass `m_R` has membership at most `1 − m_R`, which pays for
    /// the rule-tuple it leaves out (DESIGN.md §13). So the pool's prefix
    /// sums `Σ_{i≤j}` alone bound every unseen tuple's `Pr^k`
    /// (`j = k − 1`: PT-k's threshold test, Global-Topk's k-th best) and
    /// its probability of ranking exactly `j + 1`-th (U-KRanks' per-rank
    /// best). An unseen tuple's expected rank is at least the scanned
    /// prefix's mass, so expected rank stops too — over a source that
    /// knows its total mass ahead of time, which a scanned tuple's
    /// expected rank needs. A U-TopK vector's probability is no function
    /// of one tuple's prefix quantities, so U-TopK has no stopping bound;
    /// its closed form ends the scan itself, pruning or not, once no
    /// vector ending deeper can beat its best.
    pub fn has_stopping_bound(self) -> bool {
        self != RankSemantics::UTopK
    }

    /// The `EXPLAIN` stage label of the semantics' finisher.
    pub fn stage_label(self) -> &'static str {
        match self {
            RankSemantics::Ptk => "ptk[threshold emit]",
            RankSemantics::UTopK => "u-topk[closed-form vector]",
            RankSemantics::UKRanks => "u-kranks[argmax per rank]",
            RankSemantics::GlobalTopk => "global-topk[top-k by Pr^k]",
            RankSemantics::ExpectedRank => "expected-rank[closed form]",
        }
    }
}

impl std::fmt::Display for RankSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// One element of a compressed dominant set, as tracked by [`Compressor`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PoolEntry {
    /// An independent tuple. `tag` is caller-assigned and unique per scan
    /// (the scan rank for the executor, the ranked position for `Scanner`).
    Indep {
        /// Caller-assigned unique identity.
        tag: usize,
        /// Membership probability.
        prob: f64,
    },
    /// A rule-tuple: the scanned members of one rule compressed into a
    /// single pseudo-tuple (Corollary 1).
    Rule {
        /// The rule's identity.
        key: RuleKey,
        /// Dense slot of the rule's state inside the owning [`Compressor`]
        /// (assigned at first absorption), so per-entry state checks are
        /// array lookups on the hot path.
        idx: u32,
        /// Members absorbed so far; two rule-tuples for the same rule are
        /// interchangeable iff this matches.
        absorbed: u32,
        /// Sum of the absorbed members' probabilities.
        mass: f64,
    },
}

impl PoolEntry {
    /// The probability this entry contributes to the DP.
    pub(crate) fn mass(&self) -> f64 {
        match self {
            PoolEntry::Indep { prob, .. } => *prob,
            PoolEntry::Rule { mass, .. } => *mass,
        }
    }

    /// Whether two entries denote the same pseudo-tuple with the same mass
    /// (so a DP row computed through one is valid for the other). Uses the
    /// absorbed-member count rather than float mass comparison.
    fn same(&self, other: &PoolEntry) -> bool {
        match (self, other) {
            (PoolEntry::Indep { tag: a, .. }, PoolEntry::Indep { tag: b, .. }) => a == b,
            (
                PoolEntry::Rule {
                    key: ka,
                    absorbed: ca,
                    ..
                },
                PoolEntry::Rule {
                    key: kb,
                    absorbed: cb,
                    ..
                },
            ) => ka == kb && ca == cb,
            _ => false,
        }
    }
}

/// Per-rule absorption state.
#[derive(Debug, Clone)]
struct RuleState {
    /// The rule's identity (the reverse of the dense-slot mapping).
    key: RuleKey,
    /// Sum of absorbed members' probabilities.
    mass: f64,
    /// Number of absorbed members.
    absorbed: u32,
    /// Absorption step of the most recent member (recency ordering when the
    /// rule's layout is unknown).
    last_touch: usize,
    /// Scan rank of the next unabsorbed member, when the source knows it.
    next_rank: Option<usize>,
    /// Total member count, when the source knows it.
    len: Option<usize>,
    /// Whether every member has been absorbed (requires `len`). Completed
    /// rule-tuples join the stable group and never change again.
    completed: bool,
    /// `RC+LR` bookkeeping: position of the rule's entry in the built
    /// list, or [`NOT_LISTED`].
    list_pos: u32,
    /// `RC+LR` bookkeeping: absorbed into since the last build (and queued
    /// in `Compressor::touched`).
    touched: bool,
}

/// [`RuleState::list_pos`] of a rule with no entry in the built list.
const NOT_LISTED: u32 = u32::MAX;

/// An item of the "stable" group: independents and completed rule-tuples,
/// in the order they became available (observation 1 of §4.3.2).
#[derive(Debug, Clone, Copy)]
enum StableItem {
    Indep {
        tag: usize,
        prob: f64,
    },
    /// A completed rule, by its dense state slot.
    CompletedRule(u32),
}

/// What the executor (or the [`Scanner`](crate::Scanner) adapter) tells the
/// compressor about the tuple being folded into the pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AbsorbSpec {
    /// Unique identity for independents (scan rank / ranked position).
    pub tag: usize,
    /// Membership probability.
    pub prob: f64,
    /// The tuple's rule, if any.
    pub rule: Option<RuleKey>,
    /// The rule's total member count, if known.
    pub rule_len: Option<usize>,
    /// Scan rank of the rule's next member *after* this one, if known.
    pub next_member_rank: Option<usize>,
}

/// The incremental compressed dominant set plus its prefix-shared DP rows —
/// the shared core behind the executor and the view [`Scanner`](crate::Scanner).
///
/// Ordering invariants (the source of the bit-for-bit view/source parity):
/// the stable group keeps availability order; open rule-tuples are ordered
/// by next-member rank descending when the layout is known (the paper's
/// aggressive policy), falling back to absorption recency otherwise; and
/// rules break ties in ascending `RuleKey` order, which for dense
/// view-derived keys is exactly the view's rule-index order.
///
/// Under `RC+LR` a build pays only for what changed (DESIGN.md §3.3),
/// resting on two invariants of every built list:
///
/// * its stable items are `stable[..n]` (all `n` available at build time)
///   in availability order, interleaved with open rule-tuples — so a kept
///   prefix holding `s` of them continues with `stable[s..]`;
/// * an entry goes stale only when its rule is the next tuple's own rule
///   or has absorbed a member since the build — so the kept prefix ends at
///   the first entry of one of those rules, found through
///   `RuleState::list_pos` without walking the list.
///
/// The arena keeps only the DP rows from the frozen frontier on
/// (DESIGN.md §3.1), so on rank-local rules its size follows the open
/// rules, not the scan depth. That rests on a completed rule never
/// absorbing again, which [`Compressor::absorb_slot`] asserts.
#[derive(Debug)]
pub(crate) struct Compressor {
    k: usize,
    variant: SharingVariant,
    /// Entry list of the most recent *built* step.
    entries: Vec<PoolEntry>,
    /// The live DP rows of the built list in one arena of `k`-cell rows:
    /// row `m`, the DP row after `entries[..m]`, starts at cell
    /// `(m − first_row)·k`, for `first_row ≤ m ≤ entries.len()`. The arena
    /// never shrinks; cells past the last row are left over from a longer
    /// list and never read, so a refold allocates only when the live rows
    /// outgrow every earlier stretch of them.
    rows: Vec<f64>,
    /// The first stored row, at or below the frozen frontier
    /// ([`Compressor::frontier`]): no later build reads a row before it.
    first_row: usize,
    /// `RC+LR` bookkeeping: `list_stable[m]` counts the stable items among
    /// `entries[..m]`, so `list_stable.len() == entries.len() + 1`.
    list_stable: Vec<usize>,
    /// `RC+LR` bookkeeping: the length of the list's leading run of stable
    /// entries, the largest `m` with `list_stable[m] == m`.
    stable_run: usize,
    /// Stable-group items in availability order.
    stable: Vec<StableItem>,
    /// [`Compressor::pool_row`]'s cache: the DP row of
    /// `stable[..stable_folded]`, folded in availability order. Stable
    /// items never change, so later calls only fold the new ones.
    stable_row: Vec<f64>,
    stable_folded: usize,
    /// Rule states in first-absorption order; `PoolEntry::Rule::idx` and
    /// `StableItem::CompletedRule` index into this, so the hot per-entry
    /// checks never touch a map.
    rule_states: Vec<RuleState>,
    /// `RuleKey` → dense slot in `rule_states`.
    rule_index: HashMap<RuleKey, u32>,
    /// Dense slots of the open rules (absorbed members, not known to be
    /// complete), in ascending `RuleKey` order.
    open: Vec<u32>,
    /// `RC+LR` bookkeeping: dense slots of the rules absorbed into since
    /// the last build, each once (flagged by `RuleState::touched`), so
    /// bounded by the rule count however many tuples are absorbed between
    /// builds.
    touched: Vec<u32>,
    /// `RC+LR` bookkeeping: the last build's own rule, which its list left
    /// out.
    last_own: Option<u32>,
    /// `RC+LR` scratch reused across builds: the retired suffix of the
    /// list, and the open rule-tuples to append.
    dropped: Vec<PoolEntry>,
    queued: Vec<u32>,
    /// DP cells computed so far (`k` per recomputed entry).
    dp_cells: u64,
    /// Entries recomputed so far (the paper's Eq. 5 cost itself).
    entries_recomputed: u64,
    /// Absorption counter driving `last_touch`.
    step: usize,
}

impl Compressor {
    pub(crate) fn new(k: usize, variant: SharingVariant) -> Compressor {
        assert!(k > 0, "top-k queries require k >= 1");
        Compressor {
            k,
            variant,
            entries: Vec::new(),
            rows: dp::unit_row(k),
            first_row: 0,
            list_stable: vec![0],
            stable_run: 0,
            stable: Vec::new(),
            stable_row: dp::unit_row(k),
            stable_folded: 0,
            rule_states: Vec::new(),
            rule_index: HashMap::new(),
            open: Vec::new(),
            touched: Vec::new(),
            last_own: None,
            dropped: Vec::new(),
            queued: Vec::new(),
            dp_cells: 0,
            entries_recomputed: 0,
            step: 0,
        }
    }

    /// The dense slot of `rule`'s state, registering the rule at first
    /// sight. A scan resolves each tuple's rule once and hands the slot to
    /// [`Compressor::slot_absorbed`], [`Compressor::build_timed`] and
    /// [`Compressor::absorb_slot`]. Every scanned tuple is absorbed, so a
    /// rule's first sight is its first absorption and slots keep
    /// first-absorption order; the rule opens when that absorption comes.
    pub(crate) fn slot(&mut self, rule: RuleKey) -> u32 {
        let states = &mut self.rule_states;
        *self.rule_index.entry(rule).or_insert_with(|| {
            states.push(RuleState {
                key: rule,
                mass: 0.0,
                absorbed: 0,
                last_touch: 0,
                next_rank: None,
                len: None,
                completed: false,
                list_pos: NOT_LISTED,
                touched: false,
            });
            (states.len() - 1) as u32
        })
    }

    /// How many members of `rule` have been absorbed so far.
    pub(crate) fn absorbed(&self, rule: RuleKey) -> u32 {
        self.rule_index
            .get(&rule)
            .map_or(0, |&i| self.slot_absorbed(i))
    }

    /// How many members of the rule at `slot` have been absorbed so far.
    pub(crate) fn slot_absorbed(&self, slot: u32) -> u32 {
        self.rule_states[slot as usize].absorbed
    }

    /// The absorbed mass of `rule` (0 when the rule has not been seen).
    pub(crate) fn rule_mass(&self, rule: RuleKey) -> f64 {
        self.rule_index
            .get(&rule)
            .map_or(0.0, |&i| self.rule_states[i as usize].mass)
    }

    /// Whether some rule has absorbed members but is not (known to be)
    /// complete: a later member of it would leave its rule-tuple out of
    /// its dominant set.
    pub(crate) fn has_open_rule(&self) -> bool {
        !self.open.is_empty()
    }

    pub(crate) fn dp_cells(&self) -> u64 {
        self.dp_cells
    }

    pub(crate) fn entries_recomputed(&self) -> u64 {
        self.entries_recomputed
    }

    /// Distinct rules compressed into rule-tuples so far (Corollary 2).
    pub(crate) fn rules_compressed(&self) -> u64 {
        self.rule_states.len() as u64
    }

    /// The entry list of the most recently built step.
    pub(crate) fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// The DP row after `entries[..m]`, for `first_row ≤ m ≤ entries.len()`.
    fn row(&self, m: usize) -> &[f64] {
        let at = (m - self.first_row) * self.k;
        &self.rows[at..at + self.k]
    }

    /// The DP row of the most recently built step:
    /// `row[j] = Pr(T(t_i), j)` for `j < k`.
    pub(crate) fn last_row(&self) -> &[f64] {
        self.row(self.entries.len())
    }

    /// Builds the compressed dominant set of a tuple belonging to
    /// `own_rule`, ordered per the configured [`SharingVariant`], and its
    /// DP rows, reusing the rows of the longest prefix shared with the
    /// previous list (none under `RC`).
    pub(crate) fn build(&mut self, own_rule: Option<RuleKey>) {
        let own = own_rule.and_then(|key| self.rule_index.get(&key).copied());
        let shared = self.reorder(own);
        self.refold(shared);
    }

    /// [`Compressor::build`] for a tuple of the rule at slot `own` (see
    /// [`Compressor::slot`]), timing the list under `reorder_clock` and the
    /// DP rows under `dp_clock`.
    pub(crate) fn build_timed(
        &mut self,
        own: Option<u32>,
        reorder_clock: &mut PhaseClock,
        dp_clock: &mut PhaseClock,
    ) {
        let shared = reorder_clock.time(|| self.reorder(own));
        dp_clock.time(|| self.refold(shared));
    }

    /// Rewrites the entry list for a tuple of the rule at slot `own` and
    /// returns how many leading entries keep their DP rows.
    ///
    /// The list is the whole pool in canonical order: the stable items in
    /// availability order, then the open rule-tuples other than the own
    /// rule (Corollary 2) by next-member rank descending, falling back to
    /// absorption recency (oldest first) when the layout is unknown. `RC`
    /// and `RC+AR` rebuild it at every step; `RC+LR` keeps a prefix of the
    /// previous list and appends the rest in that order
    /// ([`Compressor::reorder_lazy`]).
    fn reorder(&mut self, own: Option<u32>) -> usize {
        match self.variant {
            SharingVariant::Rc => {
                self.entries = self.canonical_list(own);
                0
            }
            SharingVariant::Aggressive => {
                let desired = self.canonical_list(own);
                let shared = common_prefix(&self.entries, &desired);
                self.entries = desired;
                shared
            }
            SharingVariant::Lazy => self.reorder_lazy(own),
        }
    }

    /// The `RC` and `RC+AR` list: the whole pool in canonical order.
    fn canonical_list(&self, own: Option<u32>) -> Vec<PoolEntry> {
        let mut list: Vec<PoolEntry> = Vec::with_capacity(self.stable.len() + self.open.len());
        list.extend(self.stable.iter().map(|&item| self.stable_entry(item)));
        let mut open: Vec<u32> = self
            .open
            .iter()
            .copied()
            .filter(|&idx| Some(idx) != own)
            .collect();
        open.sort_unstable_by_key(|&idx| self.open_order(idx));
        list.extend(open.into_iter().map(|idx| self.rule_entry(idx)));
        list
    }

    /// The `RC+LR` step, in place: keeps every entry before the first stale
    /// one, then appends the stable items the kept prefix lacks and the
    /// open rule-tuples it lacks, which can only be those it drops, those
    /// absorbed into since the last build, and the last build's own rule.
    fn reorder_lazy(&mut self, own: Option<u32>) -> usize {
        // `NOT_LISTED` exceeds every position, so unlisted rules never
        // shorten the kept prefix.
        let kept = own
            .iter()
            .chain(&self.touched)
            .map(|&idx| self.rule_states[idx as usize].list_pos as usize)
            .fold(self.entries.len(), usize::min);

        let mut dropped = std::mem::take(&mut self.dropped);
        let mut queued = std::mem::take(&mut self.queued);
        dropped.clear();
        queued.clear();
        dropped.extend(self.entries.drain(kept..));
        self.list_stable.truncate(kept + 1);
        self.stable_run = self.stable_run.min(kept);
        for e in &dropped {
            if let PoolEntry::Rule { idx, .. } = *e {
                self.rule_states[idx as usize].list_pos = NOT_LISTED;
                queued.push(idx);
            }
        }
        queued.extend(&self.touched);
        queued.extend(self.last_own);
        for &idx in &self.touched {
            self.rule_states[idx as usize].touched = false;
        }
        self.touched.clear();
        self.last_own = own;

        for s in self.list_stable[kept]..self.stable.len() {
            let entry = self.stable_entry(self.stable[s]);
            self.push_entry(entry, true);
        }
        // Only open rules are listed: neither a completed one nor one whose
        // slot was resolved for a build ahead of its first absorption.
        let states = &self.rule_states;
        queued.retain(|&idx| {
            let rs = &states[idx as usize];
            rs.absorbed > 0 && !rs.completed && Some(idx) != own
        });
        queued.sort_unstable_by_key(|&idx| self.open_order(idx));
        queued.dedup();
        for &idx in &queued {
            debug_assert_eq!(self.rule_states[idx as usize].list_pos, NOT_LISTED);
            let entry = self.rule_entry(idx);
            self.push_entry(entry, false);
        }

        let shared = kept + common_prefix(&dropped, &self.entries[kept..]);
        self.dropped = dropped;
        self.queued = queued;
        shared
    }

    /// An open rule-tuple's place in canonical order: known next-member
    /// ranks descending ahead of the recency-ordered remainder (oldest
    /// touch first), ties broken by `RuleKey`.
    fn open_order(&self, idx: u32) -> ((u8, usize), RuleKey) {
        let rs = &self.rule_states[idx as usize];
        let order = match rs.next_rank {
            Some(rank) => (0u8, usize::MAX - rank),
            None => (1u8, rs.last_touch),
        };
        (order, rs.key)
    }

    /// Recomputes the DP rows of `entries[shared..]`, keeping
    /// `rows[..=shared]`, each straight from its predecessor, then drops
    /// the rows below the frozen frontier once they are at least half of
    /// the rows stored.
    fn refold(&mut self, shared: usize) {
        let k = self.k;
        let mut start = shared;
        if start < self.first_row {
            // Only `RC` starts below the stored rows: it folds every list
            // from the unit row.
            debug_assert_eq!(self.variant, SharingVariant::Rc);
            self.rows[..k].fill(0.0);
            self.rows[0] = 1.0;
            self.first_row = 0;
            start = 0;
        }
        let end = self.entries.len();
        let recomputed = end - start;
        self.entries_recomputed += recomputed as u64;
        self.dp_cells += (recomputed * k) as u64;
        let stored = end + 1 - self.first_row;
        if self.rows.len() < stored * k {
            self.rows.resize(stored * k, 0.0);
        }
        for m in start..end {
            let at = (m - self.first_row) * k;
            let (done, next) = self.rows.split_at_mut(at + k);
            dp::convolve_into(&done[at..], &mut next[..k], self.entries[m].mass());
        }
        let dead = self.frontier() - self.first_row;
        if dead > 0 && 2 * dead >= stored {
            // Move the live rows down in place: each keeps its bits.
            self.rows.copy_within(dead * k..stored * k, 0);
            self.first_row += dead;
        }
    }

    /// The frozen frontier of the built list: the first row a later build
    /// can start from. Stable items never change, so every later list
    /// begins with the stable items that begin this one, and its shared
    /// prefix covers them (§4.3.2). `RC+LR` keeps the list's leading run of
    /// stable entries; `RC+AR` lists every stable item first; `RC` refolds
    /// from the unit row, so only its last row is live.
    fn frontier(&self) -> usize {
        match self.variant {
            SharingVariant::Rc => self.entries.len(),
            SharingVariant::Aggressive => self.stable.len(),
            SharingVariant::Lazy => self.stable_run,
        }
    }

    /// Appends `entry` to the built list, keeping `list_stable`,
    /// `stable_run` and the rule's `list_pos` in step.
    fn push_entry(&mut self, entry: PoolEntry, stable: bool) {
        if stable && self.stable_run == self.entries.len() {
            self.stable_run += 1;
        }
        if let PoolEntry::Rule { idx, .. } = entry {
            self.rule_states[idx as usize].list_pos = self.entries.len() as u32;
        }
        let before = *self.list_stable.last().expect("list_stable never empty");
        self.list_stable.push(before + usize::from(stable));
        self.entries.push(entry);
    }

    /// The current entry of a rule-tuple.
    fn rule_entry(&self, idx: u32) -> PoolEntry {
        let rs = &self.rule_states[idx as usize];
        PoolEntry::Rule {
            key: rs.key,
            idx,
            absorbed: rs.absorbed,
            mass: rs.mass,
        }
    }

    /// The current entry of a stable item.
    fn stable_entry(&self, item: StableItem) -> PoolEntry {
        match item {
            StableItem::Indep { tag, prob } => PoolEntry::Indep { tag, prob },
            StableItem::CompletedRule(idx) => self.rule_entry(idx),
        }
    }

    /// Folds a scanned tuple into the pool (after its evaluation, or as the
    /// only action when it was pruned).
    pub(crate) fn absorb(&mut self, spec: AbsorbSpec) {
        let slot = spec.rule.map(|key| self.slot(key));
        self.absorb_slot(spec, slot);
    }

    /// Folds independent tuples scanned at ranks `first_rank..` with
    /// membership probabilities `probs` into the pool: the state one
    /// [`Compressor::absorb`] per tuple leaves, in one call.
    pub(crate) fn absorb_independents(&mut self, first_rank: usize, probs: &[f64]) {
        self.step += probs.len();
        self.stable.extend(
            (first_rank..)
                .zip(probs)
                .map(|(tag, &prob)| StableItem::Indep { tag, prob }),
        );
    }

    /// [`Compressor::absorb`] for a tuple of the rule at `slot` (see
    /// [`Compressor::slot`]).
    ///
    /// # Panics
    /// Panics if the rule already completed: its source reported a rule
    /// length below the members it delivers.
    pub(crate) fn absorb_slot(&mut self, spec: AbsorbSpec, slot: Option<u32>) {
        self.step += 1;
        debug_assert_eq!(
            spec.rule,
            slot.map(|idx| self.rule_states[idx as usize].key)
        );
        match slot {
            None => self.stable.push(StableItem::Indep {
                tag: spec.tag,
                prob: spec.prob,
            }),
            Some(idx) => {
                if self.rule_states[idx as usize].absorbed == 0 {
                    // The rule's first member: it opens.
                    let states = &self.rule_states;
                    let key = states[idx as usize].key;
                    let pos = self.open.partition_point(|&j| states[j as usize].key < key);
                    self.open.insert(pos, idx);
                }
                let rs = &mut self.rule_states[idx as usize];
                // A completed rule-tuple is stable: the rows before the
                // frozen frontier, the pool row's stable fold and every
                // list's shared prefix rest on its mass never changing.
                assert!(
                    !rs.completed,
                    "source delivered more members of rule {} than the {} its layout reported",
                    rs.key.0, rs.absorbed
                );
                // A rule's mass is a probability: member probabilities that
                // mathematically sum to 1 can overshoot by an ulp in f64,
                // and the DP rejects q > 1. Clamp exactly as the view does
                // (`RankedView` tolerates mass <= 1 + 1e-9 and stores
                // `min(1.0)`).
                rs.mass = (rs.mass + spec.prob).min(1.0);
                rs.absorbed += 1;
                rs.last_touch = self.step;
                rs.next_rank = spec.next_member_rank;
                if rs.len.is_none() {
                    rs.len = spec.rule_len;
                }
                if self.variant == SharingVariant::Lazy && !rs.touched {
                    rs.touched = true;
                    self.touched.push(idx);
                }
                if rs.len == Some(rs.absorbed as usize) {
                    // The rule just completed: it joins the stable group at
                    // this availability point. Without a known length the
                    // rule-tuple simply stays open, which is equally
                    // correct (it contributes the same mass either way).
                    rs.completed = true;
                    let pos = self
                        .open
                        .iter()
                        .position(|&j| j == idx)
                        .expect("an open rule is listed");
                    self.open.remove(pos);
                    self.stable.push(StableItem::CompletedRule(idx));
                }
            }
        }
    }

    /// The subset-probability row over the *entire current pool* — every
    /// absorbed tuple compressed, no rule excluded. Its prefix sums bound
    /// every unseen tuple (see [`RULE_MASS_SLACK`]): PT-k's early-exit
    /// test reads it.
    ///
    /// Folds the stable group in availability order, then the open
    /// rule-tuples in ascending `RuleKey` order. Stable items fold into a
    /// cached row as they arrive, so a call costs
    /// `O((new stable items + open rules)·k)` and returns the same bits as
    /// a fold from the unit row.
    pub(crate) fn pool_row(&mut self) -> Vec<f64> {
        for item in &self.stable[self.stable_folded..] {
            let mass = match *item {
                StableItem::Indep { prob, .. } => prob,
                StableItem::CompletedRule(idx) => self.rule_states[idx as usize].mass,
            };
            dp::convolve_in_place(&mut self.stable_row, mass);
        }
        self.stable_folded = self.stable.len();
        let mut row = self.stable_row.clone();
        for &idx in &self.open {
            dp::convolve_in_place(&mut row, self.rule_states[idx as usize].mass);
        }
        row
    }

    /// Rules that currently have absorbed members but are not (known to be)
    /// complete, with their absorbed mass, in ascending `RuleKey` order.
    pub(crate) fn open_rules(&self) -> Vec<(RuleKey, f64)> {
        self.open
            .iter()
            .map(|&idx| &self.rule_states[idx as usize])
            .map(|rs| (rs.key, rs.mass))
            .collect()
    }
}

/// Length of the longest common prefix of two entry lists (by
/// [`PoolEntry::same`]).
pub(crate) fn common_prefix(a: &[PoolEntry], b: &[PoolEntry]) -> usize {
    a.iter()
        .zip(b.iter())
        .take_while(|(x, y)| x.same(y))
        .count()
}

/// The tolerance by which a generation rule's total membership mass may
/// exceed 1: the model's validators (`UncertainTableBuilder`,
/// `RankedView::from_ranked_probs`, the run-file packer) accept rules
/// summing to at most `1 + 1e-9`, and the pool clamps an absorbed rule
/// mass at 1.
///
/// It is the one slack the pool-row stopping bound needs. A future member
/// `t` of an open rule `R`, whose scanned members carry mass `m_R`, has
/// `Pr(t) ≤ 1 + RULE_MASS_SLACK − m_R`, and its dominant set contains
/// `pool \ R`. Splitting the pool on `R`'s rule-tuple,
/// `Pr(≤ j of pool) = (1 − m_R)·Pr(≤ j of pool \ R) + m_R·Pr(≤ j − 1 of pool \ R)
///  ≥ (1 − m_R)·Pr(≤ j of pool \ R)`, so
/// `Pr(t)·Pr(≤ j of pool \ R) ≤ Pr(≤ j of pool) + RULE_MASS_SLACK`. Every
/// other unseen tuple (an independent, or a member of a rule with no
/// member scanned yet) has `Pr(t) ≤ 1` and a dominant set containing the
/// whole pool, so the pool's prefix sums bound it with no slack at all.
///
/// It is also the slack of Theorem 5's stop. Scale each rule over 1 down
/// to mass 1: a member's `Pr^k` drops by at most the factor
/// `1 + RULE_MASS_SLACK`, since every rule-tuple mass in its dominant set
/// drops too, which only raises `Pr(fewer than k present)`. The scaled
/// table is a valid x-relation, whose top-k probabilities sum to at most
/// `k`, so `Σ_t Pr^k(t) ≤ k·(1 + RULE_MASS_SLACK)`, and PT-k may stop once
/// its answers hold more than `k·(1 + RULE_MASS_SLACK) − p`.
pub(crate) const RULE_MASS_SLACK: f64 = 1e-9;

/// The Chang et al. incremental layer over [`Compressor`]: one full-pool
/// coefficient row maintained in O(k) per absorbed tuple.
///
/// Absorbing an independent tuple convolves its probability in; absorbing
/// a further member of an already-open rule deconvolves the rule-tuple's
/// previous mass out and convolves the grown mass back in — both O(k), so
/// a full unpruned scan is O(n·k) instead of the refold's worst-case
/// O(n²·k). The per-rank row `Pr(T(t), j)` (the own rule excluded,
/// Corollary 2) is served by one more deconvolve. Whenever
/// [`dp::deconvolve`] declines to certify an inversion the state falls
/// back to the exact prefix-shared refold — the "where applicable" of the
/// incremental recurrences — so the answer is always well-defined.
#[derive(Debug)]
pub(crate) struct GfState {
    comp: Compressor,
    /// The coefficient row over the entire absorbed pool.
    pool_row: Vec<f64>,
    /// Elements convolved into the pool: independent tuples and
    /// rule-tuples. No coefficient of a higher degree can be nonzero.
    elements: usize,
    rows_incremental: u64,
    rows_refolded: u64,
    dp_cells: u64,
}

impl GfState {
    pub(crate) fn new(k: usize, variant: SharingVariant) -> GfState {
        GfState {
            comp: Compressor::new(k, variant),
            pool_row: dp::unit_row(k),
            elements: 0,
            rows_incremental: 0,
            rows_refolded: 0,
            dp_cells: 0,
        }
    }

    /// The coefficient row `Pr(T(t), j)` for a tuple of `own_rule` — the
    /// whole pool with the own rule-tuple deconvolved out. O(k) on the
    /// incremental path; refolds through the [`Compressor`] when the
    /// inversion cannot certify its accuracy.
    pub(crate) fn row_excluding(&mut self, own_rule: Option<RuleKey>) -> Vec<f64> {
        let own_mass = own_rule.map_or(0.0, |key| self.comp.rule_mass(key));
        if own_mass <= 0.0 {
            self.rows_incremental += 1;
            return self.pool_row.clone();
        }
        self.dp_cells += self.pool_row.len() as u64;
        if let Some(row) = dp::deconvolve(&self.pool_row, own_mass) {
            self.rows_incremental += 1;
            return row;
        }
        self.rows_refolded += 1;
        self.comp.build(own_rule);
        self.comp.last_row().to_vec()
    }

    /// Folds a scanned tuple into the pool and advances the incremental
    /// row: convolve for a new element, deconvolve-then-convolve when a
    /// rule-tuple's mass grows, full refold when the inversion declines.
    pub(crate) fn absorb(&mut self, spec: AbsorbSpec) {
        let old_mass = spec.rule.map_or(0.0, |key| self.comp.rule_mass(key));
        self.comp.absorb(spec);
        let new_mass = match spec.rule {
            None => spec.prob,
            Some(key) => self.comp.rule_mass(key),
        };
        self.dp_cells += self.pool_row.len() as u64;
        if old_mass <= 0.0 {
            self.elements += 1;
            dp::convolve_in_place(&mut self.pool_row, new_mass);
            return;
        }
        match dp::deconvolve(&self.pool_row, old_mass) {
            Some(mut row) => {
                self.dp_cells += row.len() as u64;
                dp::convolve_in_place(&mut row, new_mass);
                self.pool_row = row;
            }
            None => {
                // Uncertifiable inversion: rebuild the row from the exact
                // compressed pool (O(|pool|·k), rare by construction).
                self.rows_refolded += 1;
                self.dp_cells += (self.comp.stable.len() * self.pool_row.len()) as u64;
                self.pool_row = self.comp.pool_row();
            }
        }
    }

    /// How many members of `rule` have been absorbed so far.
    pub(crate) fn absorbed(&self, rule: RuleKey) -> u32 {
        self.comp.absorbed(rule)
    }

    /// The most tuples of the dominant set of a tuple of `own_rule` that
    /// can be present together: the pool's elements, less the own
    /// rule-tuple when a member of it was absorbed. A coefficient of
    /// [`GfState::row_excluding`] of a higher degree is exactly zero; the
    /// row may carry deconvolution residue there.
    pub(crate) fn max_degree(&self, own_rule: Option<RuleKey>) -> usize {
        let own = own_rule.is_some_and(|key| self.comp.absorbed(key) > 0);
        self.elements - usize::from(own)
    }

    /// The one stopping bound behind Global-Topk and U-KRanks (line 6 of
    /// Figure 3, generalized): whether some tuple not yet scanned could
    /// still reach its semantics' target. `reaches(row, slack)` says
    /// whether a tuple bounded by `row` — whose prefix sums may understate
    /// the truth by up to `slack` — could reach it.
    ///
    /// The incremental pool row alone bounds every unseen tuple's prefix
    /// sums, a future member of an open rule included (see
    /// [`RULE_MASS_SLACK`]), so a check is one `O(k)` pass with no
    /// deconvolution. Unlike the PT-k test, the row carries slack:
    /// [`dp::DECONVOLVE_MASS_SLACK`] covers both the drift of the
    /// incremental updates (each within the certified deconvolve error —
    /// the bound must cover the values an unpruned scan would compute, not
    /// exact ones) and, four orders of magnitude over, the rule-mass
    /// tolerance.
    pub(crate) fn unseen_may_reach(&self, reaches: impl Fn(&[f64], f64) -> bool) -> bool {
        reaches(&self.pool_row, dp::DECONVOLVE_MASS_SLACK)
    }

    /// Rows served through the O(k) incremental recurrence.
    pub(crate) fn rows_incremental(&self) -> u64 {
        self.rows_incremental
    }

    /// Rows (or pool rebuilds) that fell back to the exact refold.
    pub(crate) fn rows_refolded(&self) -> u64 {
        self.rows_refolded
    }

    /// DP cells touched: incremental convolve/deconvolve passes plus any
    /// refold work done through the inner [`Compressor`].
    pub(crate) fn dp_cells(&self) -> u64 {
        self.dp_cells + self.comp.dp_cells()
    }

    pub(crate) fn entries_recomputed(&self) -> u64 {
        self.comp.entries_recomputed()
    }
}

/// One emitted row of a non-PT-k semantics answer.
///
/// `value` is the semantics' figure of merit for the row: the exact-rank
/// probability for U-KRanks, the top-k probability `Pr^k` for Global-Topk,
/// the expected rank for expected-rank, and the membership probability for
/// U-TopK vector members (a vector has one joint probability, not per-row
/// ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SemanticsRow {
    /// 0-based scan rank (for a view, the tuple's ranked position).
    pub position: usize,
    /// The tuple's id as reported by the source.
    pub id: TupleId,
    /// Its ranking score.
    pub score: f64,
    /// Its membership probability.
    pub membership: f64,
    /// The semantics' per-row value (see the type docs).
    pub value: f64,
}

/// The answer of [`PtkExecutor::execute_semantics`](crate::PtkExecutor::execute_semantics):
/// one variant per [`RankSemantics`].
#[derive(Debug, Clone)]
pub enum SemanticsAnswer {
    /// The PT-k answer, exactly as the threshold path produces it.
    Ptk(PtkResult),
    /// The most probable top-k vector, in ranking order.
    UTopK {
        /// The vector's members (`value` = membership probability).
        rows: Vec<SemanticsRow>,
        /// The probability that this vector is exactly the top-k list.
        probability: f64,
    },
    /// Per rank `j ∈ 1..=k` (in order), the winning tuple
    /// (`value` = probability of being ranked exactly `j`-th).
    UKRanks(Vec<SemanticsRow>),
    /// The k tuples with the highest `Pr^k`, descending
    /// (`value` = `Pr^k`; ties broken toward the smaller position).
    GlobalTopk(Vec<SemanticsRow>),
    /// The k tuples with the smallest expected rank, ascending
    /// (`value` = expected rank; ties broken toward the smaller position).
    ExpectedRank(Vec<SemanticsRow>),
}

impl SemanticsAnswer {
    /// Which semantics produced this answer.
    pub fn semantics(&self) -> RankSemantics {
        match self {
            SemanticsAnswer::Ptk(_) => RankSemantics::Ptk,
            SemanticsAnswer::UTopK { .. } => RankSemantics::UTopK,
            SemanticsAnswer::UKRanks(_) => RankSemantics::UKRanks,
            SemanticsAnswer::GlobalTopk(_) => RankSemantics::GlobalTopk,
            SemanticsAnswer::ExpectedRank(_) => RankSemantics::ExpectedRank,
        }
    }

    /// Number of emitted answer rows (PT-k: answers passing the threshold).
    pub fn answer_count(&self) -> usize {
        match self {
            SemanticsAnswer::Ptk(result) => result.answers.len(),
            SemanticsAnswer::UTopK { rows, .. } => rows.len(),
            SemanticsAnswer::UKRanks(rows)
            | SemanticsAnswer::GlobalTopk(rows)
            | SemanticsAnswer::ExpectedRank(rows) => rows.len(),
        }
    }

    /// The non-PT-k answer rows, when this is not a PT-k answer.
    pub fn rows(&self) -> Option<&[SemanticsRow]> {
        match self {
            SemanticsAnswer::Ptk(_) => None,
            SemanticsAnswer::UTopK { rows, .. } => Some(rows),
            SemanticsAnswer::UKRanks(rows)
            | SemanticsAnswer::GlobalTopk(rows)
            | SemanticsAnswer::ExpectedRank(rows) => Some(rows),
        }
    }
}

/// A semantics evaluation that could not complete. Every semantics answers,
/// so the type has no values; the executor's signature keeps it for callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemanticsError {}

impl std::fmt::Display for SemanticsError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for SemanticsError {}

/// What the one gf scan records per rank, for the post-scan finishers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanRecord {
    pub id: TupleId,
    pub score: f64,
    pub prob: f64,
    pub rule: Option<RuleKey>,
    /// Sum of same-rule member probabilities ranked strictly above.
    pub mates_above: f64,
    /// Sum of every membership probability ranked strictly above.
    pub prefix_above: f64,
}

/// A group whose scanned mass `q` leaves `1 − q` at most this is in every
/// world: forced into every vector, while its later members join none. The
/// conditional factors of [`vector_probability`] use the same guard.
const FORCED: f64 = 1e-12;

/// U-TopK candidates whose log probabilities lie this close are tied; the
/// lexicographically smaller vector wins, as in the worlds oracle.
const TIE: f64 = 1e-12;

/// U-TopK by its closed form under the x-relation model (Yi, Li, Kollios
/// and Srivastava, TKDE 2008), fed one scan record per rank (DESIGN.md §13).
///
/// Each rule, and each tuple outside a rule, is a *group* with scanned
/// mass `q_h` and most probable scanned member `b_h`. The best vector
/// ending at rank `i` is `t_i` plus the `k − 1` other groups with the
/// largest ratio `p(b_h) / (1 − q_h)`, the forced ones among them. After a
/// full read, the best world of fewer than `k` tuples is one more
/// candidate. Candidates are ranked in log space. `O(log d)` per rank and `O(d)` memory over the
/// `d` ranks read; nothing is sized by `k`.
#[derive(Debug, Default)]
pub(crate) struct TopVector {
    k: usize,
    /// Each rule's group; a tuple outside a rule is its own group, met once.
    rules: HashMap<RuleKey, Group>,
    ratios: Ratios,
    /// The best member's position of each forced group.
    forced: Vec<usize>,
    /// `Σ ln(1 − q_h)` over the free groups.
    log_absent: f64,
    /// `Σ ln p(b_h)` over the forced groups.
    log_forced: f64,
    /// The best candidate's log probability so far.
    best: f64,
    /// Every candidate within [`TIE`] of `best`, in rank order: its end
    /// rank (the number of ranks read, for a whole world) and log
    /// probability.
    tied: Vec<(usize, f64)>,
}

/// One group of the scan: a rule, or a tuple outside one.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The position and probability of its most probable scanned member
    /// that may join a vector (the earliest, among ties).
    best: (usize, f64),
    /// `ln(1 − q)` and its ratio among the free groups, once scanned and
    /// while free.
    free: Option<(f64, Ratio)>,
    forced: bool,
}

/// An `f64` ordered by `total_cmp`, so the running k best of Global-Topk and
/// expected rank can sit in a [`BinaryHeap`](std::collections::BinaryHeap),
/// and U-TopK's ratios in a [`BTreeSet`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TotalF64(pub(crate) f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A free group's `ln(p(b_h) / (1 − q_h))` and its best member's position.
/// Equal ratios order the earlier position as the larger, so a vector
/// takes it and stays lexicographically small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ratio {
    log: TotalF64,
    pos: Reverse<usize>,
}

/// The free groups' ratios, split into the `slots` largest (`top`) and
/// the rest, with running sums over the top.
#[derive(Debug, Default)]
struct Ratios {
    top: BTreeSet<Ratio>,
    rest: BTreeSet<Ratio>,
    slots: usize,
    /// `Σ` of the top's logs.
    log_sum: f64,
    /// `Σ` of the top's positive logs: its ratios above 1.
    gain: f64,
}

impl Ratios {
    /// Moves ratios across the split until the top holds the `slots`
    /// largest.
    fn balance(&mut self) {
        while self.top.len() > self.slots {
            self.demote();
        }
        while let Some(&best) = self.rest.last() {
            if self.top.len() == self.slots {
                match self.top.first() {
                    Some(&worst) if best > worst => self.demote(),
                    _ => return,
                }
            }
            self.promote();
        }
    }

    fn demote(&mut self) {
        let worst = self.top.pop_first().expect("a ratio to demote");
        self.log_sum -= worst.log.0;
        self.gain -= worst.log.0.max(0.0);
        self.rest.insert(worst);
    }

    fn promote(&mut self) {
        let best = self.rest.pop_last().expect("a ratio to promote");
        self.log_sum += best.log.0;
        self.gain += best.log.0.max(0.0);
        self.top.insert(best);
    }
}

impl TopVector {
    pub(crate) fn new(k: usize) -> Self {
        TopVector {
            k,
            ratios: Ratios {
                slots: k.saturating_sub(1),
                ..Ratios::default()
            },
            best: f64::NEG_INFINITY,
            ..TopVector::default()
        }
    }

    /// Feeds the record at scan rank `pos`, the next one. Returns whether
    /// a vector ending deeper may still win or tie; `false` ends the scan.
    pub(crate) fn push(&mut self, pos: usize, record: &ScanRecord) -> bool {
        let mut ending_here = None;
        self.step(pos, record, |_, log| ending_here = Some(log));
        if let Some(log) = ending_here {
            self.offer(pos, log);
        }
        self.bound() >= self.best - TIE
    }

    /// The answer once the scan is over: the winning vector's positions,
    /// ascending, and its probability. `records` are the pushed records.
    /// A scan that [`TopVector::push`] did not end read the whole input, so
    /// the best whole world is one more candidate.
    pub(crate) fn finish(mut self, records: &[ScanRecord]) -> (Vec<usize>, f64) {
        if self.forced.len() < self.k && self.bound() >= self.best - TIE {
            self.offer(records.len(), self.bound());
        }
        // Replay the scan to list each tied candidate's vector.
        let mut replay = TopVector::new(self.k);
        let mut ends = self.tied.iter().map(|&(end, _)| end).peekable();
        let mut vectors = Vec::new();
        for (pos, record) in records.iter().enumerate() {
            if ends.peek().is_none() {
                break;
            }
            replay.step(pos, record, |at, _| {
                if ends.next_if_eq(&pos).is_some() {
                    vectors.push(at.vector_ending_at(pos));
                }
            });
        }
        if ends.next_if_eq(&records.len()).is_some() {
            vectors.push(replay.world_vector());
        }
        let Some(vector) = vectors.into_iter().min() else {
            return (Vec::new(), 0.0);
        };
        let end = match vector.last() {
            Some(&last) if vector.len() == self.k => last + 1,
            _ => records.len(),
        };
        let probability = vector_probability(&records[..end], &vector);
        (vector, probability)
    }

    /// Folds the record at rank `pos` into its group. In between, with the
    /// group out of the free ratios, it hands `ending_here` the log
    /// probability of the best vector ending at `pos`, if one can.
    fn step(&mut self, pos: usize, record: &ScanRecord, ending_here: impl FnOnce(&Self, f64)) {
        // What the member can add to a vector: its rule's unscanned mass
        // caps it, as in the conditional factors.
        let prob = record.prob.min(1.0 - record.mates_above);
        let fresh = Group {
            best: (pos, prob),
            free: None,
            forced: false,
        };
        let mut group = record
            .rule
            .and_then(|key| self.rules.get(&key).copied())
            .unwrap_or(fresh);
        if group.forced {
            return;
        }
        if let Some((log_absent, ratio)) = group.free.take() {
            if self.ratios.top.remove(&ratio) {
                self.ratios.log_sum -= ratio.log.0;
                self.ratios.gain -= ratio.log.0.max(0.0);
            } else {
                self.ratios.rest.remove(&ratio);
            }
            self.ratios.balance();
            self.log_absent -= log_absent;
        }
        if self.forced.len() < self.k && self.ratios.top.len() == self.ratios.slots {
            let log = self.log_absent + self.log_forced + prob.ln() + self.ratios.log_sum;
            ending_here(self, log);
        }

        // A later member within a tie of the best leaves the earlier in.
        if prob > group.best.1 * (1.0 + TIE) {
            group.best = (pos, prob);
        }
        let (best_pos, best_prob) = group.best;
        // A rule's mass is clamped as the scan clamps `mates_above`.
        let mass = match record.rule {
            Some(_) => (record.mates_above + record.prob).min(1.0),
            None => record.prob,
        };
        if 1.0 - mass <= FORCED {
            group.forced = true;
            self.forced.push(best_pos);
            self.log_forced += best_prob.ln();
            self.ratios.slots = self.k.saturating_sub(1 + self.forced.len());
            self.ratios.balance();
        } else {
            let log_absent = (1.0 - mass).ln();
            let ratio = Ratio {
                log: TotalF64(best_prob.ln() - log_absent),
                pos: Reverse(best_pos),
            };
            group.free = Some((log_absent, ratio));
            self.log_absent += log_absent;
            self.ratios.rest.insert(ratio);
            self.ratios.balance();
        }
        if let Some(key) = record.rule {
            self.rules.insert(key, group);
        }
    }

    /// The log of the most any vector ending below the pushed ranks can
    /// reach, which is also the best whole world's after a full read.
    fn bound(&self) -> f64 {
        if self.forced.len() < self.k {
            self.log_absent + self.log_forced + self.ratios.gain
        } else {
            f64::NEG_INFINITY
        }
    }

    fn offer(&mut self, end: usize, log: f64) {
        if log > self.best {
            self.best = log;
            self.tied.retain(|&(_, other)| other >= log - TIE);
        }
        if log >= self.best - TIE {
            self.tied.push((end, log));
        }
    }

    /// The best vector ending at the rank [`TopVector::step`] is folding.
    fn vector_ending_at(&self, pos: usize) -> Vec<usize> {
        let top = self.ratios.top.iter().map(|ratio| ratio.pos.0);
        let mut vector: Vec<usize> = self.forced.iter().copied().chain(top).collect();
        vector.push(pos);
        vector.sort_unstable();
        vector
    }

    /// The best whole world after a full read. A group whose ratio ties 1
    /// leaves the probability as it is, so it joins only where that makes
    /// the vector smaller, before its last member, while slots last.
    fn world_vector(&self) -> Vec<usize> {
        let above = self.ratios.top.iter().filter(|ratio| ratio.log.0 > TIE);
        let mut vector = self.forced.clone();
        vector.extend(above.map(|ratio| ratio.pos.0));
        let last = vector.iter().max().copied();
        let room = self.ratios.slots + self.forced.len() - vector.len();
        let all = self.ratios.top.iter().chain(&self.ratios.rest);
        let mut level: Vec<usize> = all
            .filter(|ratio| ratio.log.0.abs() <= TIE && last.is_some_and(|l| ratio.pos.0 < l))
            .map(|ratio| ratio.pos.0)
            .collect();
        level.sort_unstable();
        vector.extend(level.into_iter().take(room));
        vector.sort_unstable();
        vector
    }
}

/// The probability of `vector` (ascending positions) being the top list of
/// the ranks in `records`: one conditional factor per rank, given the
/// ranks above, multiplied in rank order. A member contributes `p`, or
/// `min(p / r, 1)` in a rule whose unscanned mass is `r = 1 − mates_above`;
/// an absent independent tuple `1 − p`; an absent rule member
/// `max((r − p) / r, 0)`, or 1 once a mate is in or `r ≤ FORCED`.
fn vector_probability(records: &[ScanRecord], vector: &[usize]) -> f64 {
    let mut members = vector.iter().copied().peekable();
    let mut taken: HashSet<RuleKey> = HashSet::new();
    let mut prob = 1.0f64;
    for (pos, record) in records.iter().enumerate() {
        let member = members.next_if_eq(&pos).is_some();
        let p = record.prob;
        match record.rule {
            None => prob *= if member { p } else { 1.0 - p },
            Some(key) if taken.contains(&key) => {}
            Some(key) => {
                let remaining = 1.0 - record.mates_above;
                if member {
                    prob *= (p / remaining).min(1.0);
                    taken.insert(key);
                } else if remaining > FORCED {
                    prob *= ((remaining - p) / remaining).max(0.0);
                }
            }
        }
    }
    prob
}

/// The Cormode et al. closed-form expected rank of one scanned tuple
/// (0-based; a tuple absent from a world ranks at the bottom, `|W|`),
/// given `total_mass`, the selection's summed membership, and for a rule
/// member `rule_total`, its rule's summed membership clamped to 1
/// (ignored for an independent tuple):
///
/// * present: the higher-ranked co-occurring mass, `prefix − mates_above`
///   (rule-mates cannot appear with the tuple);
/// * absent: every other tuple with its conditional probability — each
///   rule-mate `u` has `Pr(u | t absent) = Pr(u) / (1 − Pr(t))`.
pub(crate) fn expected_rank(record: &ScanRecord, total_mass: f64, rule_total: f64) -> f64 {
    let p = record.prob;
    let (mates_above, mates_total) = match record.rule {
        None => (0.0, 0.0),
        Some(_) => (record.mates_above, rule_total - p),
    };
    let rank_if_present = record.prefix_above - mates_above;
    let rank_if_absent = if p >= 1.0 {
        0.0 // never absent; the term is weighted by zero anyway
    } else {
        (total_mass - p - mates_total) + mates_total / (1.0 - p)
    };
    p * rank_if_present + (1.0 - p) * rank_if_absent
}

/// [`expected_rank`] of every record of a full scan, with both totals
/// taken from the records: the selection's mass summed in scan order, and
/// each rule's members summed in scan order and clamped to 1, exactly as a
/// view stores it. Plain sums, O(n).
pub(crate) fn expected_ranks_closed(records: &[ScanRecord]) -> Vec<f64> {
    let total_mass = records.iter().fold(0.0, |mass, rec| mass + rec.prob);
    let mut rule_total: HashMap<RuleKey, f64> = HashMap::new();
    for rec in records {
        if let Some(key) = rec.rule {
            let mass = rule_total.entry(key).or_insert(0.0);
            *mass = (*mass + rec.prob).min(1.0);
        }
    }
    records
        .iter()
        .map(|rec| {
            let rule_total = rec.rule.map_or(0.0, |key| rule_total[&key]);
            expected_rank(rec, total_mass, rule_total)
        })
        .collect()
}

/// The slack of expected rank's stopping bound, in a selection of mass
/// `total`: `1e-9·(1 + T)`.
///
/// The bound is a floor. Every tuple `u` ranked below a scanned prefix of
/// mass `S` has expected rank at least `S`: in every world each present
/// prefix tuple ranks above `u` — above it when `u` is present, and `u`
/// ranks last when absent — so `rank(u)` is at least the number of present
/// prefix tuples, whose expectation is `S`. Through the closed form the
/// same holds up to two things. A rule's members may sum to
/// `1 + RULE_MASS_SLACK`, so a rule member's mates above it may outweigh
/// what the absent term gives back by that much, which costs at most
/// `p·1e-9 ≤ 1e-9`. And the closed form takes about ten rounded operations
/// on magnitudes at most `2T + 2`, each off by at most `2⁻⁵³` relative,
/// while `T` and `S` are rounded sums of the same scan-order terms, so
/// `T − p ≥ S` holds to an ulp of `T`: together well under
/// `1e-14·(1 + T)`. The slack covers the first exactly and the second a
/// hundred thousand times over; at `T = 10⁴` it is `1e-5` of a rank.
pub(crate) fn expected_rank_slack(total: f64) -> f64 {
    RULE_MASS_SLACK * (1.0 + total)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;
    use std::collections::BinaryHeap;

    use ptk_core::check::{check, Config};
    use ptk_core::rng::{RngExt, SeedableRng, StdRng};
    use ptk_core::{prop_assert, prop_assert_eq};

    use super::*;

    /// Gaps below 1 straddling `deconvolve`'s `1 − q < 1e-6` guard:
    /// exactly on it, just inside, just outside, and comfortably clear;
    /// and one ulp *over* 1, a total the model's `1 + 1e-9` tolerance
    /// admits and the pool clamps.
    const GUARD_DELTAS: [f64; 6] = [0.0, 5e-7, 1e-6, 2e-6, 1e-3, -f64::EPSILON];

    /// A random scan to feed a [`Compressor`]: a depth `k` and the absorb
    /// sequence. Independents are random, certain or tiny. Rules take 2–4
    /// members, and about half of them total a mass just under 1, around
    /// the deconvolve guard, or one ulp over. Each rule declares its true
    /// length (so it completes) or leaves it unknown (so it stays open), as
    /// every in-repo source does; one that understates it is refused
    /// (`Compressor::absorb_slot`).
    pub(crate) fn random_scan(rng: &mut StdRng, size: usize) -> (usize, Vec<AbsorbSpec>) {
        let k = rng.random_range(1..=8usize);
        let mut events: Vec<(Option<u32>, f64)> = (0..rng.random_range(0..=size))
            .map(|_| {
                let prob = match rng.random_range(0..6u32) {
                    0 => 1.0,
                    1 => 1e-9,
                    _ => rng.random_range(0.01..=1.0f64),
                };
                (None, prob)
            })
            .collect();
        let rules = rng.random_range(0..=size.div_ceil(3)) as u32;
        let mut declared: Vec<Option<usize>> = Vec::new();
        for rule in 0..rules {
            let members = rng.random_range(2..=4usize);
            let total = if rng.random_bool(0.5) {
                1.0 - GUARD_DELTAS[rng.random_range(0..GUARD_DELTAS.len())]
            } else {
                rng.random_range(0.05..=1.0f64)
            };
            let weights: Vec<f64> = (0..members)
                .map(|_| rng.random_range(0.1..=1.0f64))
                .collect();
            let sum: f64 = weights.iter().sum();
            events.extend(weights.iter().map(|w| (Some(rule), total * w / sum)));
            declared.push(match rng.random_range(0..4u32) {
                0 => None,
                _ => Some(members),
            });
        }
        rng.shuffle(&mut events);
        let specs = events
            .iter()
            .enumerate()
            .map(|(rank, &(rule, prob))| {
                let len = rule.and_then(|r| declared[r as usize]);
                let next_member_rank = rule.filter(|_| len.is_some()).and_then(|r| {
                    events[rank + 1..]
                        .iter()
                        .position(|&(other, _)| other == Some(r))
                        .map(|offset| rank + 1 + offset)
                });
                AbsorbSpec {
                    tag: rank,
                    prob,
                    rule: rule.map(RuleKey),
                    rule_len: len,
                    next_member_rank,
                }
            })
            .collect();
        (k, specs)
    }

    /// The pool row folded from the unit row: the stable group in
    /// availability order, then the open rule-tuples in rule order.
    fn pool_row_from_scratch(comp: &Compressor) -> Vec<f64> {
        let mut row = dp::unit_row(comp.k);
        for item in &comp.stable {
            let mass = match *item {
                StableItem::Indep { prob, .. } => prob,
                StableItem::CompletedRule(idx) => comp.rule_states[idx as usize].mass,
            };
            dp::convolve_in_place(&mut row, mass);
        }
        for idx in by_key(comp) {
            let rs = &comp.rule_states[idx as usize];
            if !rs.completed {
                dp::convolve_in_place(&mut row, rs.mass);
            }
        }
        row
    }

    /// Every rule's dense slot, in ascending `RuleKey` order.
    fn by_key(comp: &Compressor) -> Vec<u32> {
        let mut order: Vec<u32> = (0..comp.rule_states.len() as u32).collect();
        order.sort_by_key(|&idx| comp.rule_states[idx as usize].key);
        order
    }

    /// The list builder [`Compressor::build`] replaced, kept as its
    /// reference: `desired_list` rebuilt the whole list — under `RC+LR`
    /// the valid prefix found by walking the previous list, then every
    /// pool item not in it in canonical order — and `recompute` refolded
    /// the rows after the longest common prefix, each a clone of its
    /// predecessor convolved in place. `rows[m]` is the row after
    /// `entries[..m]`; `comp`'s own arena is left alone.
    fn reference_build(comp: &mut Compressor, rows: &mut Vec<Vec<f64>>, own_rule: Option<RuleKey>) {
        let desired = reference_desired_list(comp, own_rule);
        let prefix = match comp.variant {
            SharingVariant::Rc => 0,
            SharingVariant::Aggressive | SharingVariant::Lazy => {
                common_prefix(&comp.entries, &desired)
            }
        };
        let recomputed = desired.len() - prefix;
        comp.entries_recomputed += recomputed as u64;
        comp.dp_cells += (recomputed * comp.k) as u64;
        rows.truncate(prefix + 1);
        for e in &desired[prefix..] {
            let mut row = rows.last().expect("rows never empty").clone();
            dp::convolve_in_place(&mut row, e.mass());
            rows.push(row);
        }
        comp.entries = desired;
    }

    fn reference_desired_list(comp: &Compressor, own_rule: Option<RuleKey>) -> Vec<PoolEntry> {
        let still_valid = |e: &PoolEntry| match e {
            PoolEntry::Indep { .. } => true,
            PoolEntry::Rule {
                key, idx, absorbed, ..
            } => Some(*key) != own_rule && comp.rule_states[*idx as usize].absorbed == *absorbed,
        };
        let mut list: Vec<PoolEntry> = match comp.variant {
            SharingVariant::Rc | SharingVariant::Aggressive => Vec::new(),
            SharingVariant::Lazy => comp
                .entries
                .iter()
                .take_while(|e| still_valid(e))
                .cloned()
                .collect(),
        };
        let mut kept_tags = HashSet::new();
        let mut kept_rules = HashSet::new();
        for e in &list {
            match *e {
                PoolEntry::Indep { tag, .. } => kept_tags.insert(tag),
                PoolEntry::Rule { idx, .. } => kept_rules.insert(idx),
            };
        }
        let rule_entry = |idx: u32| {
            let rs = &comp.rule_states[idx as usize];
            PoolEntry::Rule {
                key: rs.key,
                idx,
                absorbed: rs.absorbed,
                mass: rs.mass,
            }
        };
        for item in &comp.stable {
            match *item {
                StableItem::Indep { tag, prob } if !kept_tags.contains(&tag) => {
                    list.push(PoolEntry::Indep { tag, prob });
                }
                StableItem::CompletedRule(idx) if !kept_rules.contains(&idx) => {
                    list.push(rule_entry(idx));
                }
                _ => {}
            }
        }
        let mut open: Vec<((u8, usize), PoolEntry)> = Vec::new();
        for idx in by_key(comp) {
            let rs = &comp.rule_states[idx as usize];
            if rs.completed || Some(rs.key) == own_rule || kept_rules.contains(&idx) {
                continue;
            }
            let order = match rs.next_rank {
                Some(rank) => (0u8, usize::MAX - rank),
                None => (1u8, rs.last_touch),
            };
            open.push((order, rule_entry(idx)));
        }
        open.sort_by_key(|(order, _)| *order);
        list.extend(open.into_iter().map(|(_, e)| e));
        list
    }

    /// A partial state of [`reference_utopk_search`]: the scan has
    /// consumed ranks `0..depth`, the tuples in `chosen` are present, every
    /// other consumed tuple is absent. `prob` is the exact probability of
    /// that event, an upper bound on any completion (future factors are at
    /// most 1).
    #[derive(Debug, Clone)]
    struct VectorState {
        depth: usize,
        prob: f64,
        chosen: Vec<usize>,
        /// Rules with a chosen member.
        rules_chosen: Vec<RuleKey>,
    }

    impl PartialEq for VectorState {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for VectorState {}
    impl PartialOrd for VectorState {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for VectorState {
        fn cmp(&self, other: &Self) -> Ordering {
            // Highest probability pops first; among equals, the
            // lexicographically smaller vector pops first.
            self.prob
                .total_cmp(&other.prob)
                .then_with(|| other.chosen.cmp(&self.chosen))
                .then_with(|| other.depth.cmp(&self.depth))
        }
    }

    /// The best-first U-TopK vector search [`TopVector`] replaced, kept as
    /// its reference: it reads a fully materialized record slice, with
    /// rules numbered densely by first appearance, and multiplies each
    /// state's conditional factors as [`vector_probability`] does. The
    /// state probability is admissible (future factors are at most 1), so
    /// the first complete state popped is optimal; a greedy completion
    /// seeds a lower bound that keeps the frontier small. Exponential in
    /// `k` in the worst case. Returns the vector, its probability and the
    /// deepest rank a state expanded.
    pub(crate) fn reference_utopk_search(
        records: &[ScanRecord],
        k: usize,
    ) -> (Vec<usize>, f64, Option<usize>) {
        let n = records.len();
        // Rules by dense first-appearance index, so rule membership checks in
        // states are small-vector scans.
        let mut rule_idx: HashMap<RuleKey, u32> = HashMap::new();
        let rule_of: Vec<Option<u32>> = records
            .iter()
            .map(|rec| {
                rec.rule.map(|key| {
                    let next = rule_idx.len() as u32;
                    *rule_idx.entry(key).or_insert(next)
                })
            })
            .collect();

        // Seed a lower bound with the greedy completion (include every tuple
        // the rules allow until the vector is full): any state whose upper
        // bound falls below a known complete vector's probability can never be
        // optimal, so it is not even pushed.
        let lower_bound = {
            let mut prob = 1.0f64;
            let mut chosen = 0usize;
            let mut taken: Vec<u32> = Vec::new();
            for (pos, rec) in records.iter().enumerate() {
                if chosen == k {
                    break;
                }
                let p = rec.prob;
                match rule_of[pos] {
                    None => {
                        prob *= p;
                        chosen += 1;
                    }
                    Some(idx) => {
                        if taken.contains(&idx) {
                            continue; // forced exclusion, factor 1
                        }
                        let remaining = 1.0 - rec.mates_above;
                        if remaining > 1e-12 {
                            prob *= (p / remaining).min(1.0);
                            chosen += 1;
                            taken.push(idx);
                        }
                        // remaining ~ 0: the tuple cannot exist; skip.
                    }
                }
                if prob == 0.0 {
                    break;
                }
            }
            prob
        };

        let push_state = |heap: &mut BinaryHeap<VectorState>, s: VectorState| {
            if s.prob >= lower_bound {
                heap.push(s);
            }
        };
        let mut heap = BinaryHeap::new();
        heap.push(VectorState {
            depth: 0,
            prob: 1.0,
            chosen: Vec::new(),
            rules_chosen: Vec::new(),
        });
        let mut deepest: Option<usize> = None;

        while let Some(state) = heap.pop() {
            if state.chosen.len() == k || state.depth == n {
                return (state.chosen, state.prob, deepest);
            }
            let pos = state.depth;
            deepest = deepest.max(Some(pos));
            let p = records[pos].prob;
            match rule_of[pos] {
                None => {
                    // Include.
                    if p > 0.0 {
                        let mut chosen = state.chosen.clone();
                        chosen.push(pos);
                        push_state(
                            &mut heap,
                            VectorState {
                                depth: pos + 1,
                                prob: state.prob * p,
                                chosen,
                                rules_chosen: state.rules_chosen.clone(),
                            },
                        );
                    }
                    // Exclude.
                    if p < 1.0 {
                        push_state(
                            &mut heap,
                            VectorState {
                                depth: pos + 1,
                                prob: state.prob * (1.0 - p),
                                chosen: state.chosen,
                                rules_chosen: state.rules_chosen,
                            },
                        );
                    }
                }
                Some(idx) => {
                    if state.rules_chosen.contains(&RuleKey(idx)) {
                        // Another member of the rule is already in the vector:
                        // this tuple is absent with conditional probability 1.
                        push_state(
                            &mut heap,
                            VectorState {
                                depth: pos + 1,
                                prob: state.prob,
                                chosen: state.chosen,
                                rules_chosen: state.rules_chosen,
                            },
                        );
                    } else {
                        // No member chosen yet: condition on "no member of the
                        // rule ranked above this one appeared".
                        let remaining = 1.0 - records[pos].mates_above;
                        debug_assert!(remaining > -1e-12);
                        let include = if remaining > 1e-12 {
                            p / remaining
                        } else {
                            0.0
                        };
                        if include > 0.0 {
                            let mut chosen = state.chosen.clone();
                            chosen.push(pos);
                            let mut rules_chosen = state.rules_chosen.clone();
                            rules_chosen.push(RuleKey(idx));
                            push_state(
                                &mut heap,
                                VectorState {
                                    depth: pos + 1,
                                    prob: state.prob * include.min(1.0),
                                    chosen,
                                    rules_chosen,
                                },
                            );
                        }
                        let exclude = if remaining > 1e-12 {
                            ((remaining - p) / remaining).max(0.0)
                        } else {
                            1.0
                        };
                        if exclude > 0.0 {
                            push_state(
                                &mut heap,
                                VectorState {
                                    depth: pos + 1,
                                    prob: state.prob * exclude,
                                    chosen: state.chosen,
                                    rules_chosen: state.rules_chosen,
                                },
                            );
                        }
                    }
                }
            }
        }
        // Heap drained without a complete state: only possible if every
        // branch had probability zero — the empty vector.
        (Vec::new(), 0.0, deepest)
    }

    /// The records a scan of `specs` builds, in scan order.
    fn records_of(specs: &[AbsorbSpec]) -> Vec<ScanRecord> {
        let mut rule_seen: HashMap<RuleKey, f64> = HashMap::new();
        let mut prefix = 0.0;
        specs
            .iter()
            .map(|spec| {
                let record = ScanRecord {
                    id: TupleId::new(spec.tag),
                    score: 0.0,
                    prob: spec.prob,
                    rule: spec.rule,
                    mates_above: spec
                        .rule
                        .map_or(0.0, |key| rule_seen.get(&key).copied().unwrap_or(0.0)),
                    prefix_above: prefix,
                };
                if let Some(key) = spec.rule {
                    let seen = rule_seen.entry(key).or_insert(0.0);
                    *seen = (*seen + spec.prob).min(1.0);
                }
                prefix += spec.prob;
                record
            })
            .collect()
    }

    #[test]
    fn no_tuple_below_a_prefix_has_an_expected_rank_under_its_mass() {
        // `random_scan` draws certain and 1e-9 tuples, and rules whose
        // members sum to just under 1, to the deconvolve guard, or to
        // 1 + 1 ulp.
        let attained = Cell::new(0u64);
        check(
            "full-scan expected rank at rank >= n >= S_n - slack",
            Config::cases(2000).sizes(1, 32).seed(0x9001_0006),
            |rng, size| {
                let (_, specs) = random_scan(rng, size);
                let records = records_of(&specs);
                let ranks = expected_ranks_closed(&records);
                let total = records.iter().fold(0.0, |mass, rec| mass + rec.prob);
                let slack = expected_rank_slack(total);
                for (n, record) in records.iter().enumerate() {
                    let prefix = record.prefix_above;
                    for (pos, &rank) in ranks.iter().enumerate().skip(n) {
                        prop_assert!(
                            rank + slack >= prefix,
                            "rank {pos}: ER {rank:e} under the mass {prefix:e} of ranks 0..{n}"
                        );
                        if rank - prefix < 1e-9 {
                            attained.set(attained.get() + 1);
                        }
                    }
                }
                Ok(())
            },
        );
        // A certain independent tuple right below the prefix sits on it.
        assert!(attained.get() > 0, "the floor was never attained");
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    const VARIANTS: [SharingVariant; 3] = [
        SharingVariant::Rc,
        SharingVariant::Aggressive,
        SharingVariant::Lazy,
    ];

    #[test]
    fn lazy_pool_row_matches_a_fold_from_scratch() {
        check(
            "lazily folded pool_row == fold from scratch, bit for bit",
            Config::cases(300).sizes(1, 24).seed(0x9001_0001),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let variant = VARIANTS[rng.random_range(0..VARIANTS.len())];
                let mut comp = Compressor::new(k, variant);
                for spec in specs {
                    // Interleave the prefix-shared refold with absorbs and
                    // pool-row reads at random points.
                    if rng.random_bool(0.3) {
                        comp.build(spec.rule);
                    }
                    comp.absorb(spec);
                    if rng.random_bool(0.4) {
                        let lazy = comp.pool_row();
                        prop_assert_eq!(bits(&lazy), bits(&pool_row_from_scratch(&comp)));
                    }
                }
                let lazy = comp.pool_row();
                prop_assert_eq!(bits(&lazy), bits(&pool_row_from_scratch(&comp)));
                Ok(())
            },
        );
    }

    #[test]
    fn bulk_absorbed_independents_leave_the_per_record_state() {
        let bulk_runs = Cell::new(0u64);
        check(
            "absorb_independents == one absorb per independent, bit for bit",
            Config::cases(500).sizes(1, 32).seed(0x9001_0007),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let variant = VARIANTS[rng.random_range(0..VARIANTS.len())];
                let mut bulk = Compressor::new(k, variant);
                let mut single = Compressor::new(k, variant);
                let mut at = 0;
                while at < specs.len() {
                    // Cut a run of consecutive independents at a random
                    // length, as a skipped stripe ends at a checkpoint.
                    let run = specs[at..].iter().take_while(|s| s.rule.is_none()).count();
                    let run = rng.random_range(0..=run);
                    if run == 0 {
                        bulk.absorb(specs[at]);
                        single.absorb(specs[at]);
                        at += 1;
                    } else {
                        let probs: Vec<f64> = specs[at..at + run].iter().map(|s| s.prob).collect();
                        bulk.absorb_independents(specs[at].tag, &probs);
                        for &spec in &specs[at..at + run] {
                            single.absorb(spec);
                        }
                        bulk_runs.set(bulk_runs.get() + 1);
                        at += run;
                    }
                    prop_assert_eq!(bulk.step, single.step);
                    prop_assert_eq!(format!("{:?}", bulk.stable), format!("{:?}", single.stable));
                    prop_assert_eq!(bits(&bulk.pool_row()), bits(&single.pool_row()));
                    if rng.random_bool(0.5) {
                        let own = specs.get(at).and_then(|s| s.rule);
                        bulk.build(own);
                        single.build(own);
                        prop_assert_eq!(bits(bulk.last_row()), bits(single.last_row()));
                    }
                }
                prop_assert_eq!(bulk.dp_cells(), single.dp_cells());
                prop_assert_eq!(bulk.entries_recomputed(), single.entries_recomputed());
                Ok(())
            },
        );
        assert!(bulk_runs.get() > 0, "no case absorbed a run in bulk");
    }

    #[test]
    fn gf_refold_fallback_reads_the_same_pool_row() {
        // GfState's refold fallback rebuilds its row from the compressor's
        // pool row; masses at the deconvolve guard force that path.
        let refolds = Cell::new(0u64);
        check(
            "pool_row under GfState absorbs and refolds == fold from scratch",
            Config::cases(300).sizes(1, 24).seed(0x9001_0002),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let mut gf = GfState::new(k, SharingVariant::Lazy);
                for spec in specs {
                    let _ = gf.row_excluding(spec.rule);
                    gf.absorb(spec);
                    let lazy = gf.comp.pool_row();
                    prop_assert_eq!(bits(&lazy), bits(&pool_row_from_scratch(&gf.comp)));
                }
                refolds.set(refolds.get() + gf.rows_refolded());
                Ok(())
            },
        );
        assert!(refolds.get() > 0, "no case exercised the refold fallback");
    }

    #[test]
    fn incremental_build_matches_the_rebuilding_reference() {
        let builds = Cell::new(0u64);
        // Builds after which compaction had moved the first stored row, per
        // variant.
        let compacted = Cell::new([0u64; 3]);
        check(
            "build == desired_list + recompute: entries, row bits, counters",
            Config::cases(3000).sizes(1, 32).seed(0x9001_0004),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let v = rng.random_range(0..VARIANTS.len());
                let variant = VARIANTS[v];
                let mut fast = Compressor::new(k, variant);
                let mut slow = Compressor::new(k, variant);
                let mut slow_rows = vec![dp::unit_row(k)];
                let rules: Vec<RuleKey> = specs.iter().filter_map(|s| s.rule).collect();
                for spec in specs {
                    // Build for the tuple about to be absorbed, as a scan
                    // does, through its rule's slot; or skip it, as for a
                    // pruned tuple; and build again, for it or for a rule
                    // it does not belong to — seen, unseen, or none — as
                    // `GfState`'s refold may.
                    let slot = spec.rule.map(|key| fast.slot(key));
                    let mut owns = Vec::new();
                    if rng.random_bool(0.7) {
                        owns.push((spec.rule, true));
                    }
                    while rng.random_bool(0.3) {
                        let own = match rng.random_range(0..4u32) {
                            0 => None,
                            1 => spec.rule,
                            2 => Some(RuleKey(u32::MAX - 1)),
                            _ if rules.is_empty() => None,
                            _ => Some(rules[rng.random_range(0..rules.len())]),
                        };
                        owns.push((own, false));
                    }
                    for (own, by_slot) in owns {
                        let first_row = fast.first_row;
                        if by_slot {
                            let mut off = PhaseClock::enabled_if(false);
                            fast.build_timed(slot, &mut off, &mut PhaseClock::enabled_if(false));
                        } else {
                            fast.build(own);
                        }
                        reference_build(&mut slow, &mut slow_rows, own);
                        builds.set(builds.get() + 1);
                        if fast.first_row != first_row {
                            let mut counts = compacted.get();
                            counts[v] += 1;
                            compacted.set(counts);
                        }
                        prop_assert_eq!(fast.entries(), slow.entries(), "{variant:?} own={own:?}");
                        prop_assert_eq!(slow_rows.len(), slow.entries.len() + 1);
                        if variant == SharingVariant::Lazy {
                            let run = (1..=fast.entries.len())
                                .take_while(|&m| fast.list_stable[m] == m)
                                .count();
                            prop_assert_eq!(fast.stable_run, run);
                        }
                        // Every row the arena stores has the bits of the
                        // clone-and-convolve-in-place reference.
                        for (m, row) in slow_rows.iter().enumerate().skip(fast.first_row) {
                            prop_assert_eq!(bits(fast.row(m)), bits(row), "row {m}");
                        }
                        prop_assert_eq!(fast.dp_cells(), slow.dp_cells());
                        prop_assert_eq!(fast.entries_recomputed(), slow.entries_recomputed());
                    }
                    fast.absorb_slot(spec, slot);
                    slow.absorb(spec);
                }
                Ok(())
            },
        );
        assert!(
            builds.get() > 10_000,
            "only {} builds checked",
            builds.get()
        );
        let compacted = compacted.get();
        assert!(
            compacted.iter().all(|&n| n > 1_000),
            "compacting builds per variant: {compacted:?}"
        );
    }

    /// An unpruned scan of `n` tuples over rank-local rules: 2–4 members
    /// inside one 32-rank window each, their layout known, and about half
    /// the ranks rule members.
    fn rank_local_scan(rng: &mut StdRng, n: usize) -> Vec<AbsorbSpec> {
        let mut rule_of: Vec<Option<u32>> = vec![None; n];
        let mut rules = 0u32;
        for window in (0..n).step_by(32) {
            let end = (window + 32).min(n);
            for _ in 0..4 {
                let members = rng.random_range(2..=4usize);
                let mut free: Vec<usize> =
                    (window..end).filter(|&r| rule_of[r].is_none()).collect();
                if free.len() < members {
                    break;
                }
                rng.shuffle(&mut free);
                for &rank in &free[..members] {
                    rule_of[rank] = Some(rules);
                }
                rules += 1;
            }
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); rules as usize];
        for (rank, rule) in rule_of.iter().enumerate() {
            if let Some(r) = rule {
                members[*r as usize].push(rank);
            }
        }
        (0..n)
            .map(|rank| {
                let prob = rng.random_range(0.05..=0.25f64);
                let rule = rule_of[rank];
                let layout = rule.map(|r| &members[r as usize]);
                AbsorbSpec {
                    tag: rank,
                    prob,
                    rule: rule.map(RuleKey),
                    rule_len: layout.map(Vec::len),
                    next_member_rank: layout
                        .and_then(|ranks| ranks.iter().copied().find(|&member| member > rank)),
                }
            })
            .collect()
    }

    #[test]
    fn the_arena_stays_bounded_on_rank_local_rules() {
        // The most DP rows the arena holds over a scan with a build for
        // every tuple; a scan that keeps every row holds the whole list.
        let peak_rows = |variant: SharingVariant, n: usize| {
            let specs = rank_local_scan(&mut StdRng::seed_from_u64(0x9001_0009), n);
            let mut comp = Compressor::new(4, variant);
            let mut peak = 0;
            for spec in specs {
                comp.build(spec.rule);
                peak = peak.max(comp.entries.len() + 1 - comp.first_row);
                comp.absorb(spec);
            }
            peak
        };
        for variant in [SharingVariant::Aggressive, SharingVariant::Lazy] {
            let (small, large) = (peak_rows(variant, 1_000), peak_rows(variant, 8_000));
            assert!(
                large < 2 * small,
                "{variant:?}: peak rows {small} over 1,000 tuples, {large} over 8,000"
            );
        }
    }
}
