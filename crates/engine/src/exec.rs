//! The unified PT-k executor.
//!
//! [`PtkExecutor`] drives a [`PtkPlan`] over any [`RankedSource`]: it is the
//! single implementation of the paper's Figure 3 algorithm — one scan in
//! ranking order, rule-tuple compression (Corollaries 1–2), prefix-shared
//! subset-probability DP (§4.3.2), and the §4.4 pruning rules — whether
//! the source is a materialized view, a run file or TA middleware, and of
//! every other ranking semantics on the same scan
//! ([`PtkExecutor::execute_semantics`]).
//!
//! The dominant-set bookkeeping lives in the crate-internal [`Compressor`],
//! shared with [`Scanner`](crate::Scanner) (the view-specialized adapter).
//! Sources that expose rule layout ahead of time
//! ([`RankedSource::rule_len`] / [`RankedSource::rule_member_rank`]) get
//! the paper's full aggressive/lazy reordering — a `ViewSource` is then
//! *bit-identical* to the materialized engine; sources that cannot (e.g.
//! threshold-algorithm middleware) degrade gracefully to absorption-recency
//! ordering, which shares less but computes the same probabilities (Eq. 4
//! is order-independent).

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use ptk_access::{RankedSource, RuleKey, SnapshotSource};
use ptk_core::TupleId;
use ptk_obs::{
    Mark, Metrics, Noop, Payload, PhaseClock, PruneRule, Recorder, Snapshot, Stage, StopRule,
};
use ptk_par::{StealStats, ThreadPool};

use crate::dp;
use crate::gf::{
    expected_rank, expected_rank_slack, expected_ranks_closed, AbsorbSpec, Compressor, GfState,
    RankSemantics, ScanRecord, SemanticsAnswer, SemanticsError, SemanticsRow, TopVector, TotalF64,
    RULE_MASS_SLACK,
};
use crate::plan::{PtkBatch, PtkPlan};
use crate::stats::{counters, ExecStats, StopReason};

/// One answer of a PT-k evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerTuple {
    /// 0-based rank at which the tuple was scanned. For a view-backed
    /// execution this is the tuple's ranked position in the view.
    pub rank: usize,
    /// The tuple's id as reported by the source.
    pub id: TupleId,
    /// Its ranking score (a position stand-in when the source has none).
    pub score: f64,
    /// Its exact top-k probability `Pr^k`.
    pub probability: f64,
}

/// The result of a PT-k evaluation, shared by every entry point.
#[derive(Debug, Clone)]
pub struct PtkResult {
    /// Tuples whose top-k probability passes the scan threshold, in ranking
    /// order.
    pub answers: Vec<AnswerTuple>,
    /// `probabilities[rank]` is `Some(Pr^k)` when the engine computed the
    /// exact top-k probability of the tuple scanned at `rank`, and `None`
    /// when the tuple was pruned (its `Pr^k` is then known to be below the
    /// threshold). Tuples never scanned (early stop) are absent;
    /// [`evaluate_ptk`](crate::evaluate_ptk) pads with `None` to the view's
    /// length.
    pub probabilities: Vec<Option<f64>>,
    /// Execution counters. `scanned` equals the number of tuples actually
    /// pulled from the source.
    pub stats: ExecStats,
}

impl PtkResult {
    /// The answers' scan ranks (for a view, their ranked positions), in
    /// ranking order — the shape of the legacy view-based answer list.
    pub fn answer_ranks(&self) -> Vec<usize> {
        self.answers.iter().map(|a| a.rank).collect()
    }

    /// Sum of the top-k probabilities of the answers.
    pub fn answer_mass(&self) -> f64 {
        self.answers.iter().map(|a| a.probability).sum()
    }

    /// The answers passing `threshold` — for slicing a multi-threshold
    /// scan's result per requested threshold.
    pub fn answers_at(&self, threshold: f64) -> Vec<AnswerTuple> {
        self.answers
            .iter()
            .copied()
            .filter(|a| a.probability >= threshold)
            .collect()
    }
}

/// Theorem 3(2)/4 pruning state for one rule.
#[derive(Debug, Clone, Copy, Default)]
struct RuleFail {
    /// Whole rule pruned: it is ranked entirely below a failed independent
    /// tuple with `Pr(t) >= Pr(R)` (Theorem 3(2)).
    failed_whole: bool,
    /// Largest membership probability among failed members seen so far
    /// (Theorem 4).
    failed_member_max: f64,
}

/// PT-k's early-exit test (line 6 of Figure 3): whether some tuple not
/// yet scanned could still have `Pr^k >= threshold`.
///
/// One `O(k)` pass over the pool row: its partial sum bounds every unseen
/// tuple's `Pr^k`, a future member of an open rule included, up to the
/// rule-mass tolerance that only such a member needs (see
/// [`RULE_MASS_SLACK`]). It stops no later than the per-open-rule test it
/// replaced (`future_upper_bound`), which deconvolved each open rule out
/// of the pool and counted a heavy rule it could not certify as reaching.
fn unseen_may_pass(comp: &mut Compressor, threshold: f64) -> bool {
    let slack = if comp.has_open_rule() {
        RULE_MASS_SLACK
    } else {
        0.0
    };
    dp::partial_sum(&comp.pool_row()) + slack >= threshold
}

/// The upper bound on `Pr^k(t')` for every unseen tuple `t'` that PT-k's
/// early exit compared with the threshold before [`unseen_may_pass`]:
/// the pool's partial sum, and for a future member of each open rule `R`
/// the partial sum with `R`'s rule-tuple deconvolved out (plus the
/// deconvolve slack, or 1 when the inversion cannot be certified). Kept as
/// the reference the pool-row test must stop no later than.
#[cfg(test)]
fn future_upper_bound(comp: &mut Compressor) -> f64 {
    let pool = comp.pool_row();
    let mut ub: f64 = dp::partial_sum(&pool);
    for (_, mass) in comp.open_rules() {
        let without = match dp::deconvolve(&pool, mass) {
            // Slack covers mass the ill-conditioned inversion can shed
            // without tripping its own guards; losing it here would make
            // the bound non-conservative.
            Some(row) => dp::partial_sum(&row) + dp::DECONVOLVE_MASS_SLACK,
            // Numerically unsafe to remove: give up on bounding members of
            // this rule (conservative).
            None => 1.0,
        };
        ub = ub.max(without);
    }
    ub.min(1.0)
}

/// Executes a [`PtkPlan`] over any [`RankedSource`].
///
/// This is the single implementation behind every public entry point; see
/// the module docs. Construct with [`PtkExecutor::new`] (no observability)
/// or [`PtkExecutor::with_recorder`].
pub struct PtkExecutor<'a> {
    plan: &'a PtkPlan,
    recorder: &'a dyn Recorder,
}

impl<'a> PtkExecutor<'a> {
    /// An executor for `plan` without observability.
    pub fn new(plan: &'a PtkPlan) -> PtkExecutor<'a> {
        PtkExecutor {
            plan,
            recorder: &Noop,
        }
    }

    /// An executor for `plan` recording execution counters (under the
    /// [`counters`] names), the answer count, and per-phase wall-clock
    /// spans (`engine.phase.retrieval`, `engine.phase.reorder`,
    /// `engine.phase.dp`, `engine.phase.bound`, under an `engine.query`
    /// umbrella span) into `recorder`. With a disabled recorder no clock is
    /// ever read.
    ///
    /// When `recorder` carries a tracer ([`Recorder::tracer`]), the scan
    /// also emits a [`Stage::Query`] span, per-decision instants
    /// ([`Mark::Prune`] with the Theorem 3/4 rule that fired,
    /// [`Mark::Answer`], [`Mark::Stop`] with the Theorem 5 / upper-bound
    /// rule), and one synthetic span per plan phase laid out from the
    /// accumulated [`PhaseClock`] totals. The tracer is looked up once per
    /// scan; a recorder without one costs one branch per decision.
    pub fn with_recorder(plan: &'a PtkPlan, recorder: &'a dyn Recorder) -> PtkExecutor<'a> {
        PtkExecutor { plan, recorder }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &PtkPlan {
        self.plan
    }

    /// Runs the plan's scan over `source`: pulls tuples in ranking order,
    /// computes each retrieved tuple's exact top-k probability, and — when
    /// the plan has pruning on — stops retrieving as soon as the §4.4 rules
    /// certify that no further tuple can pass the scan threshold.
    ///
    /// # Panics
    /// Panics if the source delivers scores out of order, or more members
    /// of a rule than its [`RankedSource::rule_len`] reported.
    pub fn execute<S: RankedSource + ?Sized>(&self, source: &mut S) -> PtkResult {
        let options = *self.plan.options();
        let k = self.plan.k();
        let threshold = self.plan.scan_threshold();
        let recorder = self.recorder;
        let tracer = recorder.tracer().filter(|t| t.enabled());
        let _query_span = ptk_obs::span(recorder, "engine.query");
        // Phase clocks also run when only a tracer is attached, so the
        // synthetic phase spans carry real totals without --stats.
        let clocks_live = recorder.enabled() || tracer.is_some();
        let mut retrieval_clock = PhaseClock::enabled_if(clocks_live);
        let mut reorder_clock = PhaseClock::enabled_if(clocks_live);
        let mut dp_clock = PhaseClock::enabled_if(clocks_live);
        let mut bound_clock = PhaseClock::enabled_if(clocks_live);
        let query_begin = tracer.map_or(0, |t| t.begin(Stage::Query));
        let mut bound_checks = 0u64;

        let mut comp = Compressor::new(k, options.variant);
        let mut stats = ExecStats::default();
        let mut probabilities: Vec<Option<f64>> = Vec::new();
        let mut answers: Vec<AnswerTuple> = Vec::new();
        // Theorem 5 state: sum of the answers' top-k probabilities.
        let mut answer_mass = 0.0f64;
        // Theorem 3 state: the largest membership probability among failed
        // independent tuples scanned so far.
        let mut failed_member_max = 0.0f64;
        // Theorem 3(2) / Theorem 4 state, per rule, by the rule's slot in
        // the compressor.
        let mut rule_fail: Vec<RuleFail> = Vec::new();
        let mut last_score = f64::INFINITY;
        // Probability stripe of block-skipped records (reused across skips).
        let mut skip_probs: Vec<f64> = Vec::new();

        'scan: loop {
            // Block-grain Theorem 3(1): when a block-native source reports
            // that every remaining record in its current block is rule-free
            // with membership probability at most `failed_member_max`, the
            // per-tuple path below would prune each of them — so skip the
            // block's decode and replay, for the whole stripe at once,
            // exactly the effects the per-tuple path would have had: the
            // scan/prune counters, a `None` probability and a prune mark
            // per record, absorption into the pool as independents
            // (pruned tuples are in later tuples' dominant sets), and the
            // periodic upper-bound check at the very same ranks. Theorem 5
            // cannot newly fire here (the answer mass is unchanged), so
            // answers, stats and stop reasons stay bit-identical to the
            // in-memory path.
            if options.pruning && failed_member_max > 0.0 {
                while let Some(bounds) = source.block_bounds() {
                    if bounds.records == 0
                        || !bounds.rule_free
                        || bounds.max_prob > failed_member_max
                    {
                        break;
                    }
                    let interval = options.ub_check_interval.max(1);
                    // Stop the batch at the next upper-bound checkpoint so
                    // the check runs against the same pool state (and at
                    // the same rank) as in the per-tuple path.
                    let until_check = interval - stats.scanned % interval;
                    skip_probs.clear();
                    let taken = retrieval_clock.time(|| {
                        source.skip_block(until_check.min(bounds.records), &mut skip_probs)
                    });
                    if taken == 0 {
                        break;
                    }
                    let first = stats.scanned;
                    stats.scanned += taken;
                    stats.pruned_membership += taken;
                    stats.pruned_membership_block += taken;
                    if let Some(t) = tracer {
                        for rank in first..stats.scanned {
                            t.instant(Mark::Prune {
                                rank: rank as u64,
                                rule: PruneRule::Theorem3Membership,
                            });
                        }
                    }
                    probabilities.resize(probabilities.len() + taken, None);
                    comp.absorb_independents(first, &skip_probs[..taken]);
                    if stats.scanned % interval == 0 {
                        bound_checks += 1;
                        if !bound_clock.time(|| unseen_may_pass(&mut comp, threshold)) {
                            stats.stop = Some(StopReason::UpperBound);
                            if let Some(t) = tracer {
                                t.instant(Mark::Stop {
                                    rule: StopRule::UpperBound,
                                });
                            }
                            break 'scan;
                        }
                    }
                }
            }
            let Some(tuple) = retrieval_clock.time(|| source.next_ranked()) else {
                break;
            };
            assert!(
                tuple.score <= last_score + 1e-9,
                "source delivered scores out of order: {} after {last_score}",
                tuple.score
            );
            last_score = tuple.score;
            let rank = stats.scanned;
            stats.scanned += 1;
            // The tuple's rule and its slot in the compressor, resolved
            // once for every check below.
            let rule = tuple.rule.map(|key| (key, comp.slot(key)));
            let slot = rule.map(|(_, slot)| slot);

            // Pruning decision (Theorems 3 and 4).
            let mut pruned_membership = false;
            let mut pruned_rule = false;
            let mut prune_rule_fired = None;
            if options.pruning {
                match rule {
                    None => {
                        pruned_membership = tuple.prob <= failed_member_max;
                        if pruned_membership {
                            prune_rule_fired = Some(PruneRule::Theorem3Membership);
                        }
                    }
                    Some((key, slot)) => {
                        let first_encounter = comp.slot_absorbed(slot) == 0;
                        if rule_fail.len() <= slot as usize {
                            rule_fail.resize(slot as usize + 1, RuleFail::default());
                        }
                        let rf = &mut rule_fail[slot as usize];
                        // First encounter of the rule: Theorem 3(2), when
                        // the source knows the rule's total mass.
                        if first_encounter {
                            if let Some(mass) = source.rule_mass(key) {
                                if mass <= failed_member_max {
                                    rf.failed_whole = true;
                                }
                            }
                        }
                        if rf.failed_whole {
                            pruned_rule = true;
                            prune_rule_fired = Some(PruneRule::Theorem3WholeRule);
                        } else if tuple.prob <= rf.failed_member_max {
                            pruned_rule = true;
                            prune_rule_fired = Some(PruneRule::Theorem4RuleMember);
                        }
                    }
                }
            }

            if pruned_membership || pruned_rule {
                if pruned_membership {
                    // Attribution: this branch decoded the tuple, so the
                    // prune is tuple-grained (the block-grain counterpart
                    // bumps pruned_membership_block in the skip loop).
                    stats.pruned_membership += 1;
                } else {
                    stats.pruned_rule += 1;
                    if prune_rule_fired == Some(PruneRule::Theorem3WholeRule) {
                        stats.pruned_rule_whole += 1;
                    }
                }
                if let (Some(t), Some(rule)) = (tracer, prune_rule_fired) {
                    t.instant(Mark::Prune {
                        rank: rank as u64,
                        rule,
                    });
                }
                probabilities.push(None);
            } else {
                comp.build_timed(slot, &mut reorder_clock, &mut dp_clock);
                let prk = tuple.prob * dp::partial_sum(comp.last_row());
                stats.evaluated += 1;
                probabilities.push(Some(prk));
                if prk >= threshold {
                    answers.push(AnswerTuple {
                        rank,
                        id: tuple.id,
                        score: tuple.score,
                        probability: prk,
                    });
                    answer_mass += prk;
                    if let Some(t) = tracer {
                        t.instant(Mark::Answer { rank: rank as u64 });
                    }
                } else if options.pruning {
                    match slot {
                        None => failed_member_max = failed_member_max.max(tuple.prob),
                        Some(slot) => {
                            let rf = &mut rule_fail[slot as usize];
                            rf.failed_member_max = rf.failed_member_max.max(tuple.prob);
                        }
                    }
                }
            }

            // Fold the tuple into the pool, with whatever layout hints the
            // source can give.
            let (rule_len, next_member_rank) = match rule {
                Some((key, slot)) => (
                    source.rule_len(key),
                    source.rule_member_rank(key, comp.slot_absorbed(slot) as usize + 1),
                ),
                None => (None, None),
            };
            comp.absorb_slot(
                AbsorbSpec {
                    tag: rank,
                    prob: tuple.prob,
                    rule: tuple.rule,
                    rule_len,
                    next_member_rank,
                },
                slot,
            );

            if options.pruning {
                // Theorem 5: the total top-k probability over all tuples is
                // at most k, so once the answers hold more than k − p of
                // it, no other tuple can reach p. A rule may sum to
                // 1 + RULE_MASS_SLACK, which lifts the total to at most
                // k·(1 + RULE_MASS_SLACK) (DESIGN.md §13).
                if answer_mass > k as f64 * (1.0 + RULE_MASS_SLACK) - threshold {
                    stats.stop = Some(StopReason::TotalTopK);
                    if let Some(t) = tracer {
                        t.instant(Mark::Stop {
                            rule: StopRule::Theorem5TotalTopK,
                        });
                    }
                    break;
                }
                // Early-exit upper bound (line 6 of Figure 3), checked
                // periodically: if even the most favourable future tuple
                // cannot reach the threshold, stop.
                if stats.scanned % options.ub_check_interval.max(1) == 0 {
                    bound_checks += 1;
                    if !bound_clock.time(|| unseen_may_pass(&mut comp, threshold)) {
                        stats.stop = Some(StopReason::UpperBound);
                        if let Some(t) = tracer {
                            t.instant(Mark::Stop {
                                rule: StopRule::UpperBound,
                            });
                        }
                        break;
                    }
                }
            }
        }

        stats.dp_cells = comp.dp_cells();
        stats.entries_recomputed = comp.entries_recomputed();
        stats.rules_compressed = comp.rules_compressed();
        if let Some(t) = tracer {
            // Phase totals rendered as synthetic back-to-back child spans
            // of the query span. The layout (not the interleaving) is what
            // a flame view needs; the per-decision instants above carry the
            // scan-order story.
            let mut at = query_begin;
            let phases = [
                (
                    Stage::Retrieval,
                    retrieval_clock.nanos(),
                    Payload::Retrieval {
                        tuples: stats.scanned as u64,
                    },
                ),
                (
                    Stage::Reorder,
                    reorder_clock.nanos(),
                    Payload::Reorder {
                        rules_compressed: stats.rules_compressed,
                    },
                ),
                (
                    Stage::Dp,
                    dp_clock.nanos(),
                    Payload::Dp {
                        cells: stats.dp_cells,
                        entries: stats.entries_recomputed,
                    },
                ),
                (
                    Stage::Bound,
                    bound_clock.nanos(),
                    Payload::Bound {
                        checks: bound_checks,
                    },
                ),
            ];
            for (stage, nanos, payload) in phases {
                t.span_at(stage, at, at + nanos, payload);
                at += nanos;
            }
            t.end(
                Stage::Query,
                Payload::Scan {
                    scanned: stats.scanned as u64,
                    evaluated: stats.evaluated as u64,
                    pruned_membership: stats.pruned_membership as u64,
                    pruned_rule: stats.pruned_rule as u64,
                    answers: answers.len() as u64,
                },
            );
        }
        retrieval_clock.flush(recorder, "engine.phase.retrieval");
        reorder_clock.flush(recorder, "engine.phase.reorder");
        dp_clock.flush(recorder, "engine.phase.dp");
        bound_clock.flush(recorder, "engine.phase.bound");
        stats.record_to(recorder);
        recorder.add(counters::ANSWERS, answers.len() as u64);
        PtkResult {
            answers,
            probabilities,
            stats,
        }
    }

    /// Runs this executor's plan against a shared ranked snapshot on
    /// `pool`: a one-plan batch through [`PtkExecutor::execute_batch_with`],
    /// recording into this executor's recorder, so one rule decides how
    /// the plan runs: inline, on a forked cursor, through
    /// [`PtkExecutor::execute`]. The answers, probabilities and
    /// [`ExecStats`] are therefore **bit-identical** to the sequential
    /// scan at every pool width, and a traced run's events are exactly
    /// the sequential scan's (the query traces as query 0 of the batch).
    pub fn execute_snapshot<S: SnapshotSource + ?Sized>(
        &self,
        source: &S,
        pool: &ThreadPool,
    ) -> PtkResult {
        let batch = PtkPlan::batch(std::slice::from_ref(self.plan));
        let (mut results, _) = Self::execute_batch_with(&batch, source, pool, self.recorder);
        results.pop().expect("a one-plan batch has one result")
    }

    /// Runs the plan under its [`RankSemantics`] over any [`RankedSource`].
    ///
    /// PT-k delegates to [`PtkExecutor::execute`] unchanged — same float
    /// operations in the same order, bit-identical answers, pruning and
    /// all. Every other semantics runs one generating-function scan in
    /// ranking order, then the semantics' finisher over what it
    /// collected. U-KRanks and Global-Topk maintain the full-pool
    /// coefficient row incrementally (`GfState`, the `gf` module's core)
    /// and, with `options.pruning`, stop at the shared stopping bound.
    /// Expected rank reads only the scan records and, with
    /// `options.pruning`, stops at its prefix-mass floor when the source
    /// knows its total mass ([`RankedSource::total_mass`]); over any other
    /// source it scans in full. U-TopK's closed form ends the scan itself,
    /// pruning or not, once no vector ending deeper can beat its best.
    /// Every answer is bit-identical to the full scan's. Recording and
    /// tracing work as for PT-k (same counter names and span layout, plus
    /// the `engine.gf.*` row counters and an `engine.phase.finish` span).
    ///
    /// # Panics
    /// Panics if the source delivers scores out of order, or, for
    /// U-KRanks and Global-Topk, more members of a rule than its
    /// [`RankedSource::rule_len`] reported.
    pub fn execute_semantics<S: RankedSource + ?Sized>(
        &self,
        source: &mut S,
    ) -> Result<SemanticsAnswer, SemanticsError> {
        match self.plan.semantics() {
            RankSemantics::Ptk => Ok(SemanticsAnswer::Ptk(self.execute(source))),
            semantics => Ok(self.gf_scan(source, semantics)),
        }
    }

    /// Like [`PtkExecutor::execute_semantics`], over a shared snapshot.
    ///
    /// PT-k runs as [`PtkExecutor::execute_snapshot`]. The other
    /// semantics fork a cursor and run the sequential gf scan whatever
    /// the pool width: their finishers are global functions of
    /// the whole scan (a most probable vector, a per-rank argmax, a top-k
    /// selection, an expectation), so one deterministic pass is both the
    /// simplest and a trivially bit-identical answer at every width.
    pub fn execute_semantics_snapshot<S: SnapshotSource + ?Sized>(
        &self,
        source: &S,
        pool: &ThreadPool,
    ) -> Result<SemanticsAnswer, SemanticsError> {
        match self.plan.semantics() {
            RankSemantics::Ptk => Ok(SemanticsAnswer::Ptk(self.execute_snapshot(source, pool))),
            semantics => {
                let mut cursor = source.fork();
                Ok(self.gf_scan(cursor.as_mut(), semantics))
            }
        }
    }

    /// The one generating-function scan behind every non-PT-k semantics.
    fn gf_scan<S: RankedSource + ?Sized>(
        &self,
        source: &mut S,
        semantics: RankSemantics,
    ) -> SemanticsAnswer {
        debug_assert!(semantics != RankSemantics::Ptk);
        let options = *self.plan.options();
        let k = self.plan.k();
        let recorder = self.recorder;
        let tracer = recorder.tracer().filter(|t| t.enabled());
        let _query_span = ptk_obs::span(recorder, "engine.query");
        let clocks_live = recorder.enabled() || tracer.is_some();
        let mut dp_clock = PhaseClock::enabled_if(clocks_live);
        let mut bound_clock = PhaseClock::enabled_if(clocks_live);
        let mut finish_clock = PhaseClock::enabled_if(clocks_live);
        let query_begin = tracer.map_or(0, |t| t.begin(Stage::Query));

        let mut scan = RecordScan::new(source, PhaseClock::enabled_if(clocks_live));
        // U-KRanks and Global-Topk read per-rank coefficient rows, and
        // their stopping bound is read off the same pool row. U-TopK's
        // conditional factors and expected rank's closed form need only
        // the scan records, so those two maintain no row at all.
        let mut gf = semantics
            .reads_gf_rows()
            .then(|| GfState::new(k, options.variant));
        // A scanned tuple's expected rank needs the selection's total mass;
        // without it up front, the records supply it after a full scan.
        let total_mass = (semantics == RankSemantics::ExpectedRank)
            .then(|| scan.source.total_mass())
            .flatten();
        let stops_early = options.pruning && (gf.is_some() || total_mass.is_some());
        let interval = options.ub_check_interval.max(1);
        let mut bound_checks = 0u64;
        let mut stats = ExecStats::default();
        // U-KRanks streaming argmax: winner per rank j, scanned positions
        // ascending, strictly-better-by-1e-15 to win (ties keep the
        // earlier position — the literature's convention and the worlds
        // oracle's).
        let ukranks = semantics == RankSemantics::UKRanks;
        let mut ukr_best_prob = vec![f64::NEG_INFINITY; if ukranks { k } else { 0 }];
        let mut ukr_best_pos = vec![0usize; ukr_best_prob.len()];
        // Global-Topk: every tuple's `Pr^k`, and — for the stopping bound —
        // the k best so far in a min-heap whose root is the k-th best.
        let mut prks: Vec<f64> = Vec::new();
        let mut best_prks: BinaryHeap<Reverse<TotalF64>> = BinaryHeap::new();
        // Expected rank over a source that knows its total mass: every
        // tuple's expected rank as it is scanned, and — for the stopping
        // bound — the k smallest so far in a max-heap whose root is the
        // k-th best.
        let mut ers: Vec<f64> = Vec::new();
        let mut best_ers: BinaryHeap<TotalF64> = BinaryHeap::new();
        // U-TopK's closed form takes each record as it is scanned, and ends
        // the scan itself once no deeper vector can win: that stop is the
        // answer's own, not a pruning bound, so it holds unpruned too.
        let mut top_vector = (semantics == RankSemantics::UTopK).then(|| TopVector::new(k));

        while let Some(record) = scan.pull() {
            let rank = scan.scanned() - 1;
            if let Some(top_vector) = top_vector.as_mut() {
                if !finish_clock.time(|| top_vector.push(rank, &record)) {
                    break;
                }
            }
            if let Some(gf) = gf.as_mut() {
                // The coefficient row over the dominant set T(t): the
                // pool so far, own rule excluded (Corollary 2).
                let row = dp_clock.time(|| gf.row_excluding(record.rule));
                if ukranks {
                    // Rank j+1 needs j dominators present; past the
                    // dominant set's size that is impossible, whatever
                    // residue the row holds there.
                    let max_degree = gf.max_degree(record.rule);
                    for j in 0..k {
                        let pr = if j > max_degree {
                            0.0
                        } else {
                            record.prob * row[j]
                        };
                        if pr > ukr_best_prob[j] + 1e-15 {
                            ukr_best_prob[j] = pr;
                            ukr_best_pos[j] = rank;
                        }
                    }
                } else {
                    let prk = record.prob * dp::partial_sum(&row);
                    prks.push(prk);
                    if stops_early {
                        best_prks.push(Reverse(TotalF64(prk)));
                        if best_prks.len() > k {
                            best_prks.pop();
                        }
                    }
                }

                // Fold the tuple into the pool, with whatever layout
                // hints the source can give (they drive the refold
                // fallback's ordering and close completed rules for
                // the bound).
                let (rule_len, next_member_rank) = match record.rule {
                    Some(key) => (
                        scan.source.rule_len(key),
                        scan.source
                            .rule_member_rank(key, gf.absorbed(key) as usize + 1),
                    ),
                    None => (None, None),
                };
                dp_clock.time(|| {
                    gf.absorb(AbsorbSpec {
                        tag: rank,
                        prob: record.prob,
                        rule: record.rule,
                        rule_len,
                        next_member_rank,
                    })
                });
            }
            if let Some(total) = total_mass {
                let rule_total = record.rule.map_or(0.0, |key| {
                    scan.source
                        .rule_mass(key)
                        .expect("a source reporting its total mass reports every rule's")
                });
                let er = expected_rank(&record, total, rule_total);
                ers.push(er);
                if stops_early {
                    best_ers.push(TotalF64(er));
                    if best_ers.len() > k {
                        best_ers.pop();
                    }
                }
            }

            // The stopping bound, checked periodically: stop once no
            // unseen tuple can displace a row of the answer. Unseen
            // tuples rank below every seen one, so they lose every tie
            // and must beat the incumbent strictly.
            if stops_early && scan.scanned().is_multiple_of(interval) {
                bound_checks += 1;
                let may_reach = bound_clock.time(|| match (semantics, gf.as_ref()) {
                    (RankSemantics::UKRanks, Some(gf)) => {
                        // Rank j+1 needs exactly j dominators, at most
                        // `Σ_{i≤j}` of the row; beat the best at rank j+1.
                        gf.unseen_may_reach(|row, slack| {
                            let mut at_most = 0.0;
                            row.iter().zip(&ukr_best_prob).any(|(&c, &best)| {
                                at_most += c;
                                at_most + slack >= best
                            })
                        })
                    }
                    // Global-Topk: beat the k-th best `Pr^k` seen.
                    (RankSemantics::GlobalTopk, Some(gf)) => match best_prks.peek() {
                        Some(&Reverse(TotalF64(kth))) if best_prks.len() == k => {
                            gf.unseen_may_reach(|row, slack| dp::partial_sum(row) + slack >= kth)
                        }
                        _ => true,
                    },
                    // Expected rank: beat the k-th smallest seen. No
                    // unseen tuple's is below the prefix's mass, up to
                    // the slack (see `expected_rank_slack`).
                    (RankSemantics::ExpectedRank, None) => {
                        let total = total_mass.expect("expected rank stops only with a total");
                        match best_ers.peek() {
                            Some(&TotalF64(kth)) if best_ers.len() == k => {
                                kth + expected_rank_slack(total) > scan.prefix_mass
                            }
                            _ => true,
                        }
                    }
                    other => unreachable!("{other:?} has no gf stopping bound"),
                });
                if !may_reach {
                    stats.stop = Some(StopReason::UpperBound);
                    if let Some(t) = tracer {
                        t.instant(Mark::Stop {
                            rule: StopRule::UpperBound,
                        });
                    }
                    break;
                }
            }
        }

        let answer = finish_clock.time(|| match semantics {
            RankSemantics::UTopK => {
                let (chosen, probability) = top_vector
                    .expect("a U-TopK scan feeds its finisher")
                    .finish(&scan.records);
                SemanticsAnswer::UTopK {
                    rows: chosen
                        .into_iter()
                        .map(|pos| semantics_row(&scan.records, pos, scan.records[pos].prob))
                        .collect(),
                    probability,
                }
            }
            RankSemantics::UKRanks => SemanticsAnswer::UKRanks(if scan.records.is_empty() {
                Vec::new()
            } else {
                // One winner per rank, even when no tuple can occupy it
                // (probability clamps to 0) — the answer shape callers and
                // the oracle expect.
                (0..k)
                    .map(|j| {
                        semantics_row(&scan.records, ukr_best_pos[j], ukr_best_prob[j].max(0.0))
                    })
                    .collect()
            }),
            RankSemantics::GlobalTopk => SemanticsAnswer::GlobalTopk(
                k_best(prks.len(), k, |&a, &b| {
                    prks[b].total_cmp(&prks[a]).then(a.cmp(&b))
                })
                .into_iter()
                .map(|pos| semantics_row(&scan.records, pos, prks[pos]))
                .collect(),
            ),
            RankSemantics::ExpectedRank => {
                let ranks = match total_mass {
                    Some(_) => ers,
                    None => expected_ranks_closed(&scan.records),
                };
                SemanticsAnswer::ExpectedRank(
                    k_best(ranks.len(), k, |&a, &b| {
                        ranks[a].total_cmp(&ranks[b]).then(a.cmp(&b))
                    })
                    .into_iter()
                    .map(|pos| semantics_row(&scan.records, pos, ranks[pos]))
                    .collect(),
                )
            }
            RankSemantics::Ptk => unreachable!(),
        });
        let finish_nanos = finish_clock.nanos();

        // Counters report the work done: U-TopK and expected rank fold no
        // coefficients. Every semantics compresses each rule it meets.
        stats.scanned = scan.scanned();
        stats.evaluated = stats.scanned;
        if let Some(gf) = gf.as_ref() {
            stats.dp_cells = gf.dp_cells();
            stats.entries_recomputed = gf.entries_recomputed();
        }
        stats.rules_compressed = scan.rule_seen.len() as u64;
        let retrieval_nanos = scan.clock.nanos();
        if let Some(t) = tracer {
            // Same synthetic back-to-back phase layout as the PT-k scan;
            // the finisher's time rides under the DP stage (it is the
            // semantics' "evaluation" phase).
            let mut at = query_begin;
            let mut phases = vec![
                (
                    Stage::Retrieval,
                    retrieval_nanos,
                    Payload::Retrieval {
                        tuples: stats.scanned as u64,
                    },
                ),
                (
                    Stage::Dp,
                    dp_clock.nanos() + finish_nanos,
                    Payload::Dp {
                        cells: stats.dp_cells,
                        entries: stats.entries_recomputed,
                    },
                ),
            ];
            if stops_early {
                phases.push((
                    Stage::Bound,
                    bound_clock.nanos(),
                    Payload::Bound {
                        checks: bound_checks,
                    },
                ));
            }
            for (stage, nanos, payload) in phases {
                t.span_at(stage, at, at + nanos, payload);
                at += nanos;
            }
            t.end(
                Stage::Query,
                Payload::Scan {
                    scanned: stats.scanned as u64,
                    evaluated: stats.evaluated as u64,
                    pruned_membership: 0,
                    pruned_rule: 0,
                    answers: answer.answer_count() as u64,
                },
            );
        }
        scan.clock.flush(recorder, "engine.phase.retrieval");
        dp_clock.flush(recorder, "engine.phase.dp");
        if stops_early {
            bound_clock.flush(recorder, "engine.phase.bound");
        }
        if clocks_live {
            recorder.record_nanos("engine.phase.finish", finish_nanos);
        }
        stats.record_to(recorder);
        let (rows_incremental, rows_refolded) = gf
            .as_ref()
            .map_or((0, 0), |gf| (gf.rows_incremental(), gf.rows_refolded()));
        recorder.add(counters::GF_ROWS_INCREMENTAL, rows_incremental);
        recorder.add(counters::GF_ROWS_REFOLDED, rows_refolded);
        recorder.add(counters::ANSWERS, answer.answer_count() as u64);
        answer
    }

    /// Evaluates a batch of independent plans against one shared ranked
    /// snapshot on `pool`'s deterministic work-stealing scheduler.
    ///
    /// One rule decides how each plan runs: whole, on its own forked
    /// cursor, through [`PtkExecutor::execute`], as one task of the pool.
    /// The plans of a batch run in parallel; one plan's scan does not
    /// split, and its DP arena keeps only the rows from the frozen
    /// frontier on, so an unpruned scan over rank-local rules costs
    /// memory by its open rules, not by its depth.
    ///
    /// Every per-query answer — probabilities to the bit (`f64::to_bits`)
    /// and the full [`ExecStats`] — is identical to a sequential
    /// evaluation of that plan, at every pool width and under any steal
    /// interleaving: results are reassembled in plan order.
    pub fn execute_batch<S: SnapshotSource + ?Sized>(
        batch: &PtkBatch,
        source: &S,
        pool: &ThreadPool,
    ) -> Vec<PtkResult> {
        Self::execute_batch_with(batch, source, pool, &Noop).0
    }

    /// Like [`PtkExecutor::execute_batch`], but recording every query into
    /// one fresh registry: the returned [`Snapshot`]'s counters are
    /// identical at every pool width — only the wall-clock timing section
    /// and the `scheduler` section (workers spawned, tasks, steals;
    /// runtime facts by nature) vary, and [`Snapshot::to_json`] already
    /// excludes both from deterministic output. On a single-worker pool
    /// the `batch.workers_spawned` scheduler fact is 0.
    pub fn execute_batch_recorded<S: SnapshotSource + ?Sized>(
        batch: &PtkBatch,
        source: &S,
        pool: &ThreadPool,
    ) -> (Vec<PtkResult>, Snapshot) {
        let metrics = Metrics::new();
        let (results, scheduler) = Self::execute_batch_with(batch, source, pool, &metrics);
        let mut snapshot = metrics.snapshot();
        snapshot.scheduler = scheduler;
        (results, snapshot)
    }

    /// The one implementation behind [`PtkExecutor::execute_batch`],
    /// [`PtkExecutor::execute_batch_recorded`] and
    /// [`PtkExecutor::execute_snapshot`]: evaluates `batch` by the rule
    /// of [`PtkExecutor::execute_batch`], recording every query straight
    /// into `recorder`, and returns the results in plan order with the
    /// run's scheduler facts (`batch.workers_spawned`, `batch.tasks`,
    /// `batch.steals`) for a snapshot's `scheduler` section. The engine
    /// records counters and timings only, and both are sums, so what
    /// `recorder` ends up holding does not depend on which worker ran
    /// what. A pool of one runs every plan inline on the caller's thread
    /// (`batch.workers_spawned = 0`), and so does a one-plan batch.
    ///
    /// When `recorder` carries a tracer, each query's event stream is
    /// exactly its sequential one, traced through its own
    /// [`ptk_obs::query_recorder`]: query id = plan index, worker
    /// id = the query's home lane (`i % lanes`, a pure function of
    /// `(batch.len(), threads)`) whichever worker stole it, and the
    /// tracer's epoch shared by all. The logical rendering
    /// ([`ptk_obs::render_logical`]) is then a pure function of the batch
    /// at every pool width.
    pub fn execute_batch_with<S: SnapshotSource + ?Sized>(
        batch: &PtkBatch,
        source: &S,
        pool: &ThreadPool,
        recorder: &dyn Recorder,
    ) -> (Vec<PtkResult>, BTreeMap<&'static str, u64>) {
        let plans = batch.plans();
        let lanes = pool.threads().min(plans.len()) as u32;
        let (results, steal) = pool.parallel_map_stats(plans, |p, plan| {
            let query = p as u32;
            let recorder = ptk_obs::query_recorder(recorder, query, query % lanes);
            PtkExecutor::with_recorder(plan, &recorder).execute(source.fork().as_mut())
        });
        (results, scheduler_facts(steal))
    }
}

/// The records of one gf scan, each built once, in rank order, when its
/// tuple is pulled from the source.
struct RecordScan<'s, S: ?Sized> {
    source: &'s mut S,
    records: Vec<ScanRecord>,
    /// Per-rule mass pulled so far, for `mates_above`.
    rule_seen: HashMap<RuleKey, f64>,
    /// Every membership probability pulled so far, summed in scan order:
    /// the next record's `prefix_above`.
    prefix_mass: f64,
    last_score: f64,
    /// Time spent in the source.
    clock: PhaseClock,
}

impl<'s, S: RankedSource + ?Sized> RecordScan<'s, S> {
    fn new(source: &'s mut S, clock: PhaseClock) -> Self {
        RecordScan {
            source,
            records: Vec::new(),
            rule_seen: HashMap::new(),
            prefix_mass: 0.0,
            last_score: f64::INFINITY,
            clock,
        }
    }

    /// Tuples pulled so far.
    fn scanned(&self) -> usize {
        self.records.len()
    }

    /// Pulls the next tuple and builds its record.
    ///
    /// # Panics
    /// Panics if the source delivers scores out of order.
    fn pull(&mut self) -> Option<ScanRecord> {
        let tuple = self.clock.time(|| self.source.next_ranked())?;
        assert!(
            tuple.score <= self.last_score + 1e-9,
            "source delivered scores out of order: {} after {}",
            tuple.score,
            self.last_score
        );
        self.last_score = tuple.score;
        let record = ScanRecord {
            id: tuple.id,
            score: tuple.score,
            prob: tuple.prob,
            rule: tuple.rule,
            mates_above: tuple
                .rule
                .map_or(0.0, |key| self.rule_seen.get(&key).copied().unwrap_or(0.0)),
            prefix_above: self.prefix_mass,
        };
        if let Some(key) = tuple.rule {
            // Mirror the view's mass clamp so `mates_above` agrees with
            // the compressed pool bit for bit.
            let seen = self.rule_seen.entry(key).or_insert(0.0);
            *seen = (*seen + tuple.prob).min(1.0);
        }
        self.prefix_mass += tuple.prob;
        self.records.push(record);
        Some(record)
    }
}

/// The answer row of the record at scan rank `pos`.
fn semantics_row(records: &[ScanRecord], pos: usize, value: f64) -> SemanticsRow {
    let record = &records[pos];
    SemanticsRow {
        position: pos,
        id: record.id,
        score: record.score,
        membership: record.prob,
        value,
    }
}

/// The `k` best of the positions `0..n` under `order`, best first: select
/// them, then sort only those. `order` is total, so these are the rows a
/// full sort truncated to `k` would keep, in the same order.
fn k_best(n: usize, k: usize, order: impl Fn(&usize, &usize) -> Ordering) -> Vec<usize> {
    let mut best: Vec<usize> = (0..n).collect();
    if k < n {
        best.select_nth_unstable_by(k - 1, &order);
        best.truncate(k);
    }
    best.sort_unstable_by(&order);
    best
}

/// A batch run's scheduling facts, for a snapshot's `scheduler` section —
/// diagnostics excluded from deterministic renderings, since steal counts
/// depend on OS timing.
fn scheduler_facts(steal: StealStats) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("batch.workers_spawned", steal.workers_spawned),
        ("batch.tasks", steal.tasks),
        ("batch.steals", steal.stolen),
    ])
}

#[cfg(test)]
mod tests {
    use ptk_access::ViewSource;
    use ptk_core::check::{check, Config};
    use ptk_core::prop_assert;
    use ptk_core::rng::{RngExt, StdRng};
    use ptk_core::RankedView;

    use super::*;
    use crate::gf::tests::{random_scan, reference_utopk_search};
    use crate::plan::{EngineOptions, SharingVariant};

    #[test]
    fn pool_row_test_stops_no_later_than_the_per_rule_bound() {
        check(
            "future_upper_bound < threshold => !unseen_may_pass",
            Config::cases(400).sizes(1, 24).seed(0x9001_0003),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let depth = rng.random_range(0..=specs.len());
                let mut comp = Compressor::new(k, SharingVariant::Lazy);
                for spec in specs.into_iter().take(depth) {
                    comp.absorb(spec);
                }
                let ub = future_upper_bound(&mut comp);
                // Thresholds within a few ulps of the bound, the bound
                // itself, and one anywhere; plans only take (0, 1].
                let mut thresholds = vec![ub, rng.random_range(0.0..=1.0f64)];
                let (mut up, mut down) = (ub, ub);
                for _ in 0..3 {
                    up = up.next_up();
                    down = down.next_down();
                    thresholds.extend([up, down]);
                }
                for t in thresholds.into_iter().filter(|&t| t > ub && t <= 1.0) {
                    prop_assert!(
                        !unseen_may_pass(&mut comp, t),
                        "k={k} bound={ub:e} threshold={t:e}"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn pool_row_dominates_every_open_rule_and_every_unseen_tuple() {
        check(
            "(1 - m_R)·Σ(pool \\ R) <= Σ(pool), and every later Pr^k <= Σ(pool) + slack",
            Config::cases(400).sizes(1, 24).seed(0x9001_0005),
            |rng, size| {
                let (k, specs) = random_scan(rng, size);
                let depth = rng.random_range(0..=specs.len());
                let mut comp = Compressor::new(k, SharingVariant::Lazy);
                for &spec in &specs[..depth] {
                    comp.absorb(spec);
                }
                let pool = dp::partial_sum(&comp.pool_row());
                let open = comp.open_rules();
                for &(rule, mass) in &open {
                    // `pool \ R` folded from scratch: every scanned tuple
                    // outside R, the other rules compressed, clamped as
                    // the compressor clamps them.
                    let mut masses: Vec<(Option<RuleKey>, f64)> = Vec::new();
                    for spec in &specs[..depth] {
                        match spec.rule {
                            Some(r) if r == rule => {}
                            Some(r) => match masses.iter_mut().find(|(key, _)| *key == Some(r)) {
                                Some((_, m)) => *m = (*m + spec.prob).min(1.0),
                                None => masses.push((Some(r), spec.prob.min(1.0))),
                            },
                            None => masses.push((None, spec.prob)),
                        }
                    }
                    let without =
                        dp::partial_sum(&dp::poisson_binomial(masses.iter().map(|&(_, m)| m), k));
                    prop_assert!(
                        (1.0 - mass) * without <= pool + 1e-12,
                        "k={k} m_R={mass:e}: {:e} > {pool:e}",
                        (1.0 - mass) * without
                    );
                }
                // Every tuple the scan would evaluate later stays under the
                // bound the pool-row test compares with the threshold.
                let slack = if open.is_empty() {
                    0.0
                } else {
                    RULE_MASS_SLACK
                };
                for &spec in &specs[depth..] {
                    comp.build(spec.rule);
                    let prk = spec.prob * dp::partial_sum(comp.last_row());
                    prop_assert!(
                        prk <= pool + slack + 1e-12,
                        "k={k} Pr^k={prk:e} > bound {pool:e} + {slack:e}"
                    );
                    comp.absorb(spec);
                }
                Ok(())
            },
        );
    }

    /// The semantics oracle's tables: the panda example, uniform random
    /// x-relations (rules of 2–4 members), and clustered synthetic views.
    /// A random x-relation of at most `size` tuples (0 gives the empty
    /// view): a third draw only dyadic probabilities, so exact ties occur;
    /// rules take 2–3 members, some summing to exactly 1 or to 1 + 1 ulp.
    fn random_x_relation(rng: &mut StdRng, size: usize) -> RankedView {
        const DYADIC: [f64; 5] = [0.125, 0.25, 0.5, 0.75, 1.0];
        let n = rng.random_range(0..=size);
        let dyadic = rng.random_range(0..3u32) == 0;
        let mut probs: Vec<f64> = (0..n)
            .map(|_| match (dyadic, rng.random_range(0..6u32)) {
                (true, _) => DYADIC[rng.random_range(0..DYADIC.len())],
                (false, 0) => 1.0,
                (false, _) => rng.random_range(0.05..=1.0f64),
            })
            .collect();
        let mut positions: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut positions);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut rest = positions.as_slice();
        while rest.len() >= 2 {
            let len = rng.random_range(2..=3usize).min(rest.len());
            let (members, tail) = rest.split_at(len);
            rest = tail;
            if rng.random_bool(0.4) {
                continue;
            }
            match rng.random_range(0..4u32) {
                // Exactly 1: the last member takes what the others leave.
                0 => {
                    let (last, others) = members.split_last().unwrap();
                    let share = 1.0 / len as f64;
                    for &m in others {
                        probs[m] = share;
                    }
                    probs[*last] = 1.0 - share * (len - 1) as f64;
                }
                // 1 + 1 ulp.
                1 => {
                    let (last, others) = members.split_last().unwrap();
                    for &m in others {
                        probs[m] = 0.5 / others.len() as f64;
                    }
                    probs[*last] = 0.5 + f64::EPSILON;
                }
                _ => {
                    if members.iter().map(|&m| probs[m]).sum::<f64>() > 1.0 {
                        continue;
                    }
                }
            }
            groups.push(members.to_vec());
        }
        RankedView::from_ranked_probs(&probs, &groups).unwrap()
    }

    /// U-TopK over `view` at every `k` up to `n + 1`, pruned and not,
    /// against the best-first search: the same vector and probability bits,
    /// or a tie (per-rank products within 1e-12) broken toward the smaller
    /// vector, where the search breaks it by the bits of its products.
    fn matches_the_search(view: &RankedView) -> Result<(), String> {
        // The reference reads every record, built by one full scan.
        let mut source = ViewSource::new(view);
        let mut full = RecordScan::new(&mut source, PhaseClock::enabled_if(false));
        while full.pull().is_some() {}
        for k in 1..=view.len() + 1 {
            let (want, want_prob, _) = reference_utopk_search(&full.records, k);
            // Not a pruning bound: the same ranks with pruning off.
            let mut depths = Vec::new();
            for options in [
                EngineOptions::default(),
                EngineOptions::without_pruning(SharingVariant::Lazy),
            ] {
                let plan = PtkPlan::try_semantics(RankSemantics::UTopK, k, None, &options).unwrap();
                let metrics = Metrics::new();
                let answer = PtkExecutor::with_recorder(&plan, &metrics)
                    .execute_semantics(&mut ViewSource::new(view))
                    .unwrap();
                let SemanticsAnswer::UTopK { rows, probability } = answer else {
                    return Err(format!("k={k}: not a U-TopK answer"));
                };
                let got: Vec<usize> = rows.iter().map(|r| r.position).collect();
                let ctx = format!(
                    "k={k} view={view:?}: {got:?} ({probability:e}) \
                     vs the search's {want:?} ({want_prob:e})"
                );
                if got == want {
                    prop_assert!(probability.to_bits() == want_prob.to_bits(), "{ctx}");
                } else {
                    let scale = probability.max(want_prob);
                    prop_assert!(
                        (probability - want_prob).abs() <= 1e-12 * scale,
                        "not a tie: {ctx}"
                    );
                    prop_assert!(got < want, "a tie to the larger vector: {ctx}");
                }
                let stats = ExecStats::from_snapshot(&metrics.snapshot());
                prop_assert!(stats.stop.is_none(), "k={k}: {:?}", stats.stop);
                depths.push(stats.scanned);
            }
            prop_assert!(depths[0] == depths[1], "k={k}: scanned {depths:?}");
        }
        Ok(())
    }

    #[test]
    fn utopk_closed_form_matches_the_search_but_for_ties() {
        // At k = 3 the best vector ends at rank 3 with both certain tuples
        // and one of the two tuples of equal ratio before it: the earlier.
        let probs = [1.0, 0.25, 0.25, 1.0, 0.125, 0.25, 0.5];
        let tied_slot = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        matches_the_search(&tied_slot).unwrap();
        check(
            "U-TopK closed form == best-first search, ties aside",
            Config::cases(3000).sizes(0, 10).seed(0x9001_0008),
            |rng, size| matches_the_search(&random_x_relation(rng, size)),
        );
    }

    #[test]
    fn k_best_keeps_what_a_full_sort_keeps() {
        check(
            "k_best == sort + truncate",
            Config::cases(400).sizes(0, 40).seed(0x9001_0007),
            |rng, size| {
                // Few distinct values, so ties are broken by position.
                let values: Vec<f64> = (0..size)
                    .map(|_| f64::from(rng.random_range(0..6u32)) / 4.0)
                    .collect();
                let k = rng.random_range(1..=size + 2);
                let order = |a: &usize, b: &usize| values[*a].total_cmp(&values[*b]).then(a.cmp(b));
                let mut sorted: Vec<usize> = (0..size).collect();
                sorted.sort_by(order);
                sorted.truncate(k);
                prop_assert!(k_best(size, k, order) == sorted, "k={k} values={values:?}");
                Ok(())
            },
        );
    }

    fn ptk_plan(k: usize, threshold: f64) -> PtkPlan {
        PtkPlan::try_new(k, threshold, &EngineOptions::default()).unwrap()
    }

    #[test]
    fn unsorted_rows_answer_example_1() {
        // The panda example fed as raw (score, prob, rule) rows.
        let mut source = ptk_access::SortedVecSource::from_unsorted(vec![
            (25.0, 0.3, None),
            (21.0, 0.4, Some(0)),
            (13.0, 0.5, Some(0)),
            (12.0, 1.0, None),
            (17.0, 0.8, Some(1)),
            (11.0, 0.2, Some(1)),
        ])
        .unwrap();
        let result = PtkExecutor::new(&ptk_plan(2, 0.35)).execute(&mut source);
        let ids: Vec<usize> = result.answers.iter().map(|a| a.id.index()).collect();
        assert_eq!(ids, vec![1, 4, 2]); // R2, R5, R3 in ranking order
        assert!((result.answers[1].probability - 0.704).abs() < 1e-12);
        assert_eq!(result.answers[1].score, 17.0);
    }

    #[test]
    fn pruning_stops_retrieval_early() {
        let view = RankedView::from_ranked_probs(&[0.999; 500], &[]).unwrap();
        let mut source = ViewSource::new(&view);
        let result = PtkExecutor::new(&ptk_plan(5, 0.5)).execute(&mut source);
        assert!(result.stats.stopped_early());
        assert!(source.retrieved() < 500, "retrieved {}", source.retrieved());
        assert_eq!(result.answers.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_sources_are_rejected() {
        struct Rising(usize);
        impl RankedSource for Rising {
            fn next_ranked(&mut self) -> Option<ptk_access::SourceTuple> {
                self.0 += 1;
                (self.0 <= 2).then(|| ptk_access::SourceTuple {
                    id: TupleId::new(self.0),
                    score: self.0 as f64, // increasing: illegal
                    prob: 0.5,
                    rule: None,
                })
            }
            fn retrieved(&self) -> usize {
                self.0
            }
        }
        let _ = PtkExecutor::new(&ptk_plan(2, 0.5)).execute(&mut Rising(0));
    }

    /// Five tuples whose ranks 0, 2 and 4 are members of rule 0, from a
    /// source that reports the rule one member short.
    struct Understating {
        next: usize,
    }

    impl RankedSource for Understating {
        fn next_ranked(&mut self) -> Option<ptk_access::SourceTuple> {
            let rank = self.next;
            self.next += usize::from(rank < 5);
            (rank < 5).then(|| ptk_access::SourceTuple {
                id: TupleId::new(rank),
                score: -(rank as f64),
                prob: 0.3,
                rule: rank.is_multiple_of(2).then_some(RuleKey(0)),
            })
        }

        fn rule_len(&self, _: RuleKey) -> Option<usize> {
            Some(2)
        }

        fn retrieved(&self) -> usize {
            self.next
        }
    }

    #[test]
    #[should_panic(expected = "more members of rule 0 than the 2 its layout reported")]
    fn a_ptk_scan_refuses_a_source_that_understates_a_rule() {
        let _ = PtkExecutor::new(&ptk_plan(2, 0.1)).execute(&mut Understating { next: 0 });
    }

    #[test]
    #[should_panic(expected = "more members of rule 0 than the 2 its layout reported")]
    fn a_gf_scan_refuses_a_source_that_understates_a_rule() {
        let plan =
            PtkPlan::try_semantics(RankSemantics::UKRanks, 2, None, &EngineOptions::default())
                .unwrap();
        let _ = PtkExecutor::new(&plan).execute_semantics(&mut Understating { next: 0 });
    }

    /// A source that returns `None` once, at rank `end`, then goes on.
    struct Resuming {
        tuples: Vec<ptk_access::SourceTuple>,
        end: usize,
        next: usize,
        ended: bool,
    }

    impl RankedSource for Resuming {
        fn next_ranked(&mut self) -> Option<ptk_access::SourceTuple> {
            if self.next == self.end && !self.ended {
                self.ended = true;
                return None;
            }
            let t = self.tuples.get(self.next).copied();
            self.next += usize::from(t.is_some());
            t
        }

        fn retrieved(&self) -> usize {
            self.next
        }
    }

    #[test]
    fn a_source_that_ended_is_not_asked_again() {
        // Certain-free independents: U-TopK's vector needs more ranks than
        // the 3 before the end, so the scan reads to the end, and must not
        // read on once the source has said so.
        let tuples: Vec<ptk_access::SourceTuple> = (0..12)
            .map(|i| ptk_access::SourceTuple {
                id: TupleId::new(i),
                score: -(i as f64),
                prob: 0.6 + 0.02 * i as f64,
                rule: None,
            })
            .collect();
        let plan = PtkPlan::try_semantics(RankSemantics::UTopK, 5, None, &EngineOptions::default())
            .unwrap();
        let run = |source: &mut dyn RankedSource| {
            let metrics = Metrics::new();
            let answer = PtkExecutor::with_recorder(&plan, &metrics)
                .execute_semantics(source)
                .unwrap();
            let rows: Vec<usize> = answer.rows().unwrap().iter().map(|r| r.position).collect();
            (rows, ExecStats::from_snapshot(&metrics.snapshot()).scanned)
        };
        let mut resuming = Resuming {
            tuples: tuples.clone(),
            end: 3,
            next: 0,
            ended: false,
        };
        let mut short = Resuming {
            tuples: tuples[..3].to_vec(),
            end: 3,
            next: 0,
            ended: false,
        };
        let got = run(&mut resuming);
        assert_eq!(got, run(&mut short));
        assert_eq!(got, (vec![0, 1, 2], 3));
    }
}
