//! Query planning: from a PT-k request to an executable stage pipeline.
//!
//! A [`PtkPlan`] captures everything the executor needs before it touches a
//! source: the query depth `k`, the (validated) probability thresholds, and
//! the [`EngineOptions`]. [`PtkPlan::stages`] lowers those into the ordered
//! [`PlanStage`] pipeline of DESIGN.md §9 — ranked retrieval, rule
//! compression, prefix-shared DP, pruning, answer emission — which is what
//! `EXPLAIN` surfaces and what the executor drives.
//!
//! Validation lives here (not in the executor) so every query — single-
//! or multi-threshold, under any semantics, over any source — is rejected
//! identically when malformed, before any retrieval happens.

use std::fmt::Write as _;

use ptk_obs::Snapshot;

use crate::gf::RankSemantics;
use crate::stats::{counters, ExecStats, StopReason};

/// How the compressed dominant set is ordered between consecutive steps
/// (§4.3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingVariant {
    /// `RC` — rule-tuple compression only: the DP is recomputed from scratch
    /// for every tuple. The paper's baseline.
    Rc,
    /// `RC+AR` — aggressive reordering: independents and completed
    /// rule-tuples always precede open rule-tuples; open rule-tuples are
    /// ordered by next-member position descending. The common prefix with
    /// the previous step's list is reused.
    Aggressive,
    /// `RC+LR` — lazy reordering: the maximal still-valid prefix of the
    /// previous list is kept verbatim; only the remainder is reordered by
    /// the aggressive policy. Never worse than `RC+AR` (§4.3.2).
    #[default]
    Lazy,
}

impl SharingVariant {
    /// The paper's name for the variant (`RC`, `RC+AR`, `RC+LR`).
    pub fn paper_name(&self) -> &'static str {
        match self {
            SharingVariant::Rc => "RC",
            SharingVariant::Aggressive => "RC+AR",
            SharingVariant::Lazy => "RC+LR",
        }
    }
}

/// Configuration of the PT-k engine, shared by the view-based and
/// source-based entry points.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Prefix-sharing variant (§4.3.2). `RC+LR` is the paper's best and the
    /// default.
    pub variant: SharingVariant,
    /// Whether the pruning rules of §4.4 (Theorems 3–5 plus the early-exit
    /// upper bound) are applied, and the stopping bounds of Global-Topk,
    /// U-KRanks and expected rank. With pruning off the whole ranked list
    /// is scanned and every tuple's exact `Pr^k` is reported. (U-TopK's
    /// closed form ends its scan at the same rank either way: that is no
    /// pruning bound.)
    pub pruning: bool,
    /// How often (in scanned tuples) the early-exit upper bound is
    /// checked. A check reads the prefix sums of the pool row alone, which
    /// bound every unseen tuple, open-rule members included; PT-k first
    /// folds the open rule-tuples into that row, `O(open·k)`, so the check
    /// runs periodically rather than per tuple.
    pub ub_check_interval: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            variant: SharingVariant::Lazy,
            pruning: true,
            ub_check_interval: 64,
        }
    }
}

impl EngineOptions {
    /// Options with a specific sharing variant, pruning on.
    pub fn with_variant(variant: SharingVariant) -> Self {
        EngineOptions {
            variant,
            ..Default::default()
        }
    }

    /// Options with pruning disabled (full scan).
    pub fn without_pruning(variant: SharingVariant) -> Self {
        EngineOptions {
            variant,
            pruning: false,
            ..Default::default()
        }
    }
}

/// One stage of the lowered execution pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStage {
    /// Pull tuples from a [`RankedSource`](ptk_access::RankedSource) in
    /// ranking order (a materialized view is the `ViewSource` special
    /// case).
    RankedRetrieval,
    /// Fold each tuple into the compressed dominant-set pool: independents
    /// as themselves, rule members into one rule-tuple per rule
    /// (Corollaries 1–2).
    RuleCompression,
    /// Maintain the subset-probability DP over the compressed pool, sharing
    /// row prefixes between consecutive steps.
    PrefixSharedDp {
        /// The prefix-sharing policy in force.
        variant: SharingVariant,
    },
    /// The §4.4 pruning rules: Theorems 3–4 skip tuples, Theorem 5 and the
    /// periodic upper-bound check stop retrieval.
    Pruning {
        /// Cadence, in scanned tuples, of the upper-bound check.
        ub_check_interval: usize,
    },
    /// Emit tuples whose `Pr^k` passes the threshold(s).
    AnswerEmission {
        /// Number of thresholds served by the single scan.
        thresholds: usize,
    },
    /// Maintain the generating-function coefficient row over the compressed
    /// pool with the O(k) incremental convolve/deconvolve recurrence
    /// (U-KRanks and Global-Topk; replaces [`PlanStage::PrefixSharedDp`],
    /// which remains the refold fallback).
    GfRows {
        /// The refold fallback's prefix-sharing policy.
        variant: SharingVariant,
    },
    /// The stopping bound of U-KRanks, Global-Topk and expected rank,
    /// checked periodically: stop retrieval once no unseen tuple can
    /// displace a row of the answer (see
    /// [`RankSemantics::has_stopping_bound`]).
    UpperBoundStop {
        /// Cadence, in scanned tuples, of the check.
        ub_check_interval: usize,
    },
    /// The non-PT-k semantics' finisher over the scan: the per-rank rows
    /// (U-KRanks, Global-Topk) or the scan records alone (expected rank,
    /// and U-TopK, whose closed form ends the scan itself).
    SemanticsFinish {
        /// The semantics being answered.
        semantics: RankSemantics,
    },
}

/// A malformed PT-k request, rejected before any retrieval happens.
///
/// Returned by the plan constructors ([`PtkPlan::try_new`],
/// [`PtkPlan::try_multi`], [`PtkPlan::try_semantics`]), so user-supplied
/// parameters yield a clean error, never a process abort.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The query depth was zero.
    ZeroK,
    /// A multi-threshold plan was requested with no thresholds at all.
    EmptyThresholds,
    /// A threshold was NaN or outside `(0, 1]`.
    InvalidThreshold {
        /// The offending value (NaN-safe: rendered verbatim).
        value: f64,
    },
    /// A PT-k plan was requested without any probability threshold.
    MissingThreshold,
    /// A probability threshold was supplied for a semantics that takes
    /// none (thresholds parameterize PT-k only).
    ThresholdNotApplicable {
        /// The semantics the threshold was (wrongly) attached to.
        semantics: RankSemantics,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroK => f.write_str("top-k queries require k >= 1"),
            PlanError::EmptyThresholds => f.write_str("at least one threshold is required"),
            PlanError::InvalidThreshold { value } => {
                write!(f, "PT-k thresholds must be in (0, 1], got {value}")
            }
            PlanError::MissingThreshold => {
                f.write_str("PT-k requires a probability threshold in (0, 1]")
            }
            PlanError::ThresholdNotApplicable { semantics } => {
                write!(
                    f,
                    "{semantics} takes no probability threshold; thresholds parameterize PTK only"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated, executable PT-k query plan.
///
/// Build one with [`PtkPlan::try_new`] (single threshold),
/// [`PtkPlan::try_multi`] (one scan serving a threshold sweep), or
/// [`PtkPlan::try_semantics`] (any [`RankSemantics`]), then run it with
/// [`PtkExecutor`](crate::PtkExecutor).
#[derive(Debug, Clone)]
pub struct PtkPlan {
    k: usize,
    thresholds: Vec<f64>,
    options: EngineOptions,
    semantics: RankSemantics,
}

impl PtkPlan {
    /// Plans a PT-k query with a single threshold; rejects `k == 0` and
    /// thresholds outside `(0, 1]` (including NaN) with a typed
    /// [`PlanError`].
    pub fn try_new(
        k: usize,
        threshold: f64,
        options: &EngineOptions,
    ) -> Result<PtkPlan, PlanError> {
        PtkPlan::try_multi(k, &[threshold], options)
    }

    /// Plans a top-k query answered for several thresholds in one scan;
    /// rejects `k == 0`, an empty threshold list, and any threshold outside
    /// `(0, 1]` (including NaN) with a typed [`PlanError`].
    ///
    /// The scan is keyed to the *smallest* threshold (the most demanding
    /// one — any tuple prunable there is prunable for every larger
    /// threshold), so one pass serves the whole sweep; slice the result
    /// per threshold with [`PtkResult::answers_at`](crate::PtkResult::answers_at).
    pub fn try_multi(
        k: usize,
        thresholds: &[f64],
        options: &EngineOptions,
    ) -> Result<PtkPlan, PlanError> {
        if k == 0 {
            return Err(PlanError::ZeroK);
        }
        if thresholds.is_empty() {
            return Err(PlanError::EmptyThresholds);
        }
        for &p in thresholds {
            // NaN fails `p > 0.0`, so it is rejected here too.
            if !(p > 0.0 && p <= 1.0) {
                return Err(PlanError::InvalidThreshold { value: p });
            }
        }
        Ok(PtkPlan {
            k,
            thresholds: thresholds.to_vec(),
            options: *options,
            semantics: RankSemantics::Ptk,
        })
    }

    /// Plans a query under an explicit [`RankSemantics`].
    ///
    /// PT-k requires a threshold (its answer *is* "every tuple passing
    /// `p`"); every other semantics takes none — its answer shape is fixed
    /// by `k` alone. With `options.pruning`, Global-Topk, U-KRanks and
    /// expected rank stop at their stopping bounds (expected rank over a
    /// source that knows its total mass); U-TopK has none, and its closed
    /// form ends the scan itself.
    pub fn try_semantics(
        semantics: RankSemantics,
        k: usize,
        threshold: Option<f64>,
        options: &EngineOptions,
    ) -> Result<PtkPlan, PlanError> {
        match (semantics, threshold) {
            (RankSemantics::Ptk, Some(p)) => PtkPlan::try_new(k, p, options),
            (RankSemantics::Ptk, None) => Err(PlanError::MissingThreshold),
            (_, Some(_)) => Err(PlanError::ThresholdNotApplicable { semantics }),
            (_, None) => {
                if k == 0 {
                    return Err(PlanError::ZeroK);
                }
                Ok(PtkPlan {
                    k,
                    thresholds: Vec::new(),
                    options: *options,
                    semantics,
                })
            }
        }
    }

    /// A stable 64-bit fingerprint of the plan: FNV-1a over the ranking
    /// semantics, `k`, the thresholds (exact bit patterns, in the caller's
    /// order) and every [`EngineOptions`] field. Two plans with equal fingerprints execute
    /// the identical stage pipeline over whatever source they are given.
    /// It keys only the flight record's `fingerprint` (folded with the
    /// statement text), which the `--audit` goldens pin byte for byte;
    /// the serve daemon's result cache keys on the statement text.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let semantics_tag = RankSemantics::ALL
            .iter()
            .position(|&s| s == self.semantics)
            .expect("every semantics is in ALL") as u64;
        mix(&mut h, semantics_tag);
        mix(&mut h, self.k as u64);
        mix(&mut h, self.thresholds.len() as u64);
        for &p in &self.thresholds {
            mix(&mut h, p.to_bits());
        }
        mix(&mut h, self.options.variant as u64);
        mix(&mut h, u64::from(self.options.pruning));
        mix(&mut h, self.options.ub_check_interval as u64);
        h
    }

    /// The query depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The thresholds served by the scan, in the caller's order.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The engine options in force.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The ranking semantics this plan answers.
    pub fn semantics(&self) -> RankSemantics {
        self.semantics
    }

    /// The threshold the scan's pruning machinery is keyed to: the smallest
    /// one requested.
    pub fn scan_threshold(&self) -> f64 {
        self.thresholds
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The lowered stage pipeline, in execution order.
    pub fn stages(&self) -> Vec<PlanStage> {
        if self.semantics != RankSemantics::Ptk {
            let mut stages = vec![PlanStage::RankedRetrieval, PlanStage::RuleCompression];
            if self.semantics.reads_gf_rows() {
                stages.push(PlanStage::GfRows {
                    variant: self.options.variant,
                });
            }
            if self.semantics.has_stopping_bound() && self.options.pruning {
                stages.push(PlanStage::UpperBoundStop {
                    ub_check_interval: self.options.ub_check_interval,
                });
            }
            stages.push(PlanStage::SemanticsFinish {
                semantics: self.semantics,
            });
            return stages;
        }
        let mut stages = vec![
            PlanStage::RankedRetrieval,
            PlanStage::RuleCompression,
            PlanStage::PrefixSharedDp {
                variant: self.options.variant,
            },
        ];
        if self.options.pruning {
            stages.push(PlanStage::Pruning {
                ub_check_interval: self.options.ub_check_interval,
            });
        }
        stages.push(PlanStage::AnswerEmission {
            thresholds: self.thresholds.len(),
        });
        stages
    }

    /// A one-line rendering of the pipeline, for `EXPLAIN`-style output.
    /// Renders the actual semantics stages: PT-k keeps its historical
    /// `dp[...]`/pruning/emit pipeline verbatim; U-KRanks and Global-Topk
    /// show the generating-function stage and their stop, expected rank
    /// its stop alone, and U-TopK neither.
    pub fn describe(&self) -> String {
        if self.semantics != RankSemantics::Ptk {
            let parts: Vec<String> = self
                .stages()
                .into_iter()
                .map(|stage| match stage {
                    PlanStage::RankedRetrieval => "ranked-retrieval".to_owned(),
                    PlanStage::RuleCompression => "rule-compression".to_owned(),
                    PlanStage::GfRows { variant } => {
                        format!("gf[{}, k={}]", variant.paper_name(), self.k)
                    }
                    PlanStage::UpperBoundStop { ub_check_interval } => {
                        format!("stop[ub every {ub_check_interval}]")
                    }
                    PlanStage::SemanticsFinish { semantics } => semantics.stage_label().to_owned(),
                    other => unreachable!("PT-k stage {other:?} in a semantics plan"),
                })
                .collect();
            return parts.join(" -> ");
        }
        let mut out = format!(
            "ranked-retrieval -> rule-compression -> dp[{}, k={}]",
            self.options.variant.paper_name(),
            self.k
        );
        if self.options.pruning {
            out.push_str(&format!(
                " -> pruning[T3-T5, ub every {}]",
                self.options.ub_check_interval
            ));
        }
        if self.thresholds.len() == 1 {
            out.push_str(&format!(" -> emit[p >= {}]", self.thresholds[0]));
        } else {
            out.push_str(&format!(
                " -> emit[{} thresholds, scan p >= {}]",
                self.thresholds.len(),
                self.scan_threshold()
            ));
        }
        out
    }

    /// The `EXPLAIN ANALYZE` rendering: one line per [`PlanStage`],
    /// annotated with the actual execution counters from `snapshot` and —
    /// when `include_timings` is set — the wall-clock phase times.
    ///
    /// The annotations read the very same `engine.*` counter and
    /// `engine.phase.*` timing names that the `--stats` renderings expose,
    /// so the two views of one recorded run agree by construction. With
    /// `include_timings` off the rendering is timing-free and therefore
    /// deterministic (DESIGN.md §7).
    pub fn explain_analyze(&self, snapshot: &Snapshot, include_timings: bool) -> String {
        fn push_timing(out: &mut String, snapshot: &Snapshot, name: &str, include: bool) {
            if !include {
                return;
            }
            if let Some(t) = snapshot.timings.get(name) {
                let _ = write!(out, " [{:.3} ms]", t.total_nanos as f64 / 1e6);
            }
        }
        let stats = ExecStats::from_snapshot(snapshot);
        let mut out = String::new();
        for stage in self.stages() {
            match stage {
                PlanStage::RankedRetrieval => {
                    let _ = write!(out, "ranked-retrieval: scanned={}", stats.scanned);
                    push_timing(
                        &mut out,
                        snapshot,
                        "engine.phase.retrieval",
                        include_timings,
                    );
                }
                PlanStage::RuleCompression => {
                    let _ = write!(
                        out,
                        "rule-compression: rules_compressed={}",
                        stats.rules_compressed
                    );
                    push_timing(&mut out, snapshot, "engine.phase.reorder", include_timings);
                }
                PlanStage::PrefixSharedDp { variant } => {
                    let _ = write!(
                        out,
                        "dp[{}, k={}]: evaluated={} dp_cells={} entries_recomputed={}",
                        variant.paper_name(),
                        self.k,
                        stats.evaluated,
                        stats.dp_cells,
                        stats.entries_recomputed
                    );
                    push_timing(&mut out, snapshot, "engine.phase.dp", include_timings);
                }
                PlanStage::Pruning { ub_check_interval } => {
                    let _ = write!(
                        out,
                        "pruning[T3-T5, ub every {ub_check_interval}]: pruned_membership={} pruned_rule={} stop={}",
                        stats.pruned_membership,
                        stats.pruned_rule,
                        stop_label(stats.stop)
                    );
                    push_timing(&mut out, snapshot, "engine.phase.bound", include_timings);
                }
                PlanStage::AnswerEmission { thresholds } => {
                    let _ = write!(
                        out,
                        "emit[{} threshold{}, scan p >= {}]: answers={}",
                        thresholds,
                        if thresholds == 1 { "" } else { "s" },
                        self.scan_threshold(),
                        snapshot.counter(counters::ANSWERS)
                    );
                }
                PlanStage::GfRows { variant } => {
                    let _ = write!(
                        out,
                        "gf[{}, k={}]: evaluated={} dp_cells={} rows_incremental={} rows_refolded={}",
                        variant.paper_name(),
                        self.k,
                        stats.evaluated,
                        stats.dp_cells,
                        snapshot.counter(counters::GF_ROWS_INCREMENTAL),
                        snapshot.counter(counters::GF_ROWS_REFOLDED)
                    );
                    push_timing(&mut out, snapshot, "engine.phase.dp", include_timings);
                }
                PlanStage::UpperBoundStop { ub_check_interval } => {
                    let _ = write!(
                        out,
                        "stop[ub every {ub_check_interval}]: scanned={} stop={}",
                        stats.scanned,
                        stop_label(stats.stop)
                    );
                    push_timing(&mut out, snapshot, "engine.phase.bound", include_timings);
                }
                PlanStage::SemanticsFinish { semantics } => {
                    let _ = write!(
                        out,
                        "{}: answers={}",
                        semantics.stage_label(),
                        snapshot.counter(counters::ANSWERS)
                    );
                    push_timing(&mut out, snapshot, "engine.phase.finish", include_timings);
                }
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "total: scanned={} evaluated={} answers={}",
            stats.scanned,
            stats.evaluated,
            snapshot.counter(counters::ANSWERS)
        );
        push_timing(&mut out, snapshot, "engine.query", include_timings);
        out.push('\n');
        out
    }
}

/// The `EXPLAIN ANALYZE` name of a scan's stop reason.
fn stop_label(stop: Option<StopReason>) -> &'static str {
    match stop {
        Some(StopReason::TotalTopK) => "total-topk",
        Some(StopReason::UpperBound) => "upper-bound",
        None => "none",
    }
}

/// A batch of independent PT-k plans to be evaluated against one shared
/// ranked snapshot — the unit of work of
/// [`PtkExecutor::execute_batch`](crate::PtkExecutor::execute_batch).
///
/// Plans may differ in `k`, thresholds and [`EngineOptions`]; the batch
/// only fixes their order, which is the order results come back in
/// (independent of how many threads evaluate them).
#[derive(Debug, Clone)]
pub struct PtkBatch {
    plans: Vec<PtkPlan>,
}

impl PtkBatch {
    /// The plans, in submission order.
    pub fn plans(&self) -> &[PtkPlan] {
        &self.plans
    }

    /// Number of plans in the batch.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the batch holds no plans (never true for batches built by
    /// [`PtkPlan::batch`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// A multi-line rendering of the batched pipelines, one
    /// [`PtkPlan::describe`] line per plan, for `EXPLAIN`-style output.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, plan) in self.plans.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("[{i}] {}", plan.describe()));
        }
        out
    }
}

impl PtkPlan {
    /// Lowers a slice of plans into a [`PtkBatch`] for the batch executor.
    ///
    /// # Panics
    /// Panics if `plans` is empty.
    pub fn batch(plans: &[PtkPlan]) -> PtkBatch {
        assert!(!plans.is_empty(), "a batch needs at least one plan");
        PtkBatch {
            plans: plans.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_reflect_options() {
        let plan = PtkPlan::try_new(3, 0.4, &EngineOptions::default()).unwrap();
        assert_eq!(
            plan.stages(),
            vec![
                PlanStage::RankedRetrieval,
                PlanStage::RuleCompression,
                PlanStage::PrefixSharedDp {
                    variant: SharingVariant::Lazy
                },
                PlanStage::Pruning {
                    ub_check_interval: 64
                },
                PlanStage::AnswerEmission { thresholds: 1 },
            ]
        );
        let plan =
            PtkPlan::try_new(3, 0.4, &EngineOptions::without_pruning(SharingVariant::Rc)).unwrap();
        assert!(!plan
            .stages()
            .iter()
            .any(|s| matches!(s, PlanStage::Pruning { .. })));
    }

    #[test]
    fn semantics_stages_show_the_stop_and_drop_unread_rows() {
        let opts = EngineOptions::default();
        for semantics in [RankSemantics::UKRanks, RankSemantics::GlobalTopk] {
            let plan = PtkPlan::try_semantics(semantics, 3, None, &opts).unwrap();
            assert_eq!(
                plan.stages(),
                vec![
                    PlanStage::RankedRetrieval,
                    PlanStage::RuleCompression,
                    PlanStage::GfRows {
                        variant: SharingVariant::Lazy
                    },
                    PlanStage::UpperBoundStop {
                        ub_check_interval: 64
                    },
                    PlanStage::SemanticsFinish { semantics },
                ]
            );
            assert_eq!(
                plan.describe(),
                format!(
                    "ranked-retrieval -> rule-compression -> gf[RC+LR, k=3] -> \
                     stop[ub every 64] -> {}",
                    semantics.stage_label()
                )
            );
            // --no-prune keeps the rows and drops the stop.
            let unpruned = EngineOptions::without_pruning(SharingVariant::Lazy);
            let plan = PtkPlan::try_semantics(semantics, 3, None, &unpruned).unwrap();
            assert!(!plan
                .stages()
                .iter()
                .any(|s| matches!(s, PlanStage::UpperBoundStop { .. })));
            assert!(!plan.describe().contains("stop["), "{}", plan.describe());
        }
        // Expected rank stops on its prefix-mass floor and reads no rows.
        let semantics = RankSemantics::ExpectedRank;
        let plan = PtkPlan::try_semantics(semantics, 3, None, &opts).unwrap();
        assert_eq!(
            plan.stages(),
            vec![
                PlanStage::RankedRetrieval,
                PlanStage::RuleCompression,
                PlanStage::UpperBoundStop {
                    ub_check_interval: 64
                },
                PlanStage::SemanticsFinish { semantics },
            ]
        );
        assert_eq!(
            plan.describe(),
            "ranked-retrieval -> rule-compression -> stop[ub every 64] -> \
             expected-rank[closed form]"
        );
        let unpruned = EngineOptions::without_pruning(SharingVariant::Lazy);
        let plan = PtkPlan::try_semantics(semantics, 3, None, &unpruned).unwrap();
        assert_eq!(
            plan.describe(),
            "ranked-retrieval -> rule-compression -> expected-rank[closed form]"
        );
        // U-TopK's closed form ends its own scan: no rows, no stop, pruning
        // or not.
        let semantics = RankSemantics::UTopK;
        for options in [opts, unpruned] {
            let plan = PtkPlan::try_semantics(semantics, 3, None, &options).unwrap();
            assert_eq!(
                plan.stages(),
                vec![
                    PlanStage::RankedRetrieval,
                    PlanStage::RuleCompression,
                    PlanStage::SemanticsFinish { semantics },
                ]
            );
            assert_eq!(
                plan.describe(),
                "ranked-retrieval -> rule-compression -> u-topk[closed-form vector]"
            );
        }
    }

    #[test]
    fn explain_analyze_shows_the_semantics_stop_and_depth() {
        use ptk_obs::Recorder as _;
        let plan = PtkPlan::try_semantics(
            RankSemantics::GlobalTopk,
            2,
            None,
            &EngineOptions::default(),
        )
        .unwrap();
        let metrics = ptk_obs::Metrics::new();
        let stats = ExecStats {
            scanned: 128,
            evaluated: 128,
            stop: Some(StopReason::UpperBound),
            ..ExecStats::default()
        };
        stats.record_to(&metrics);
        metrics.add(counters::ANSWERS, 2);
        let text = plan.explain_analyze(&metrics.snapshot(), false);
        assert!(
            text.contains("stop[ub every 64]: scanned=128 stop=upper-bound\n"),
            "{text}"
        );
        assert!(
            text.contains("global-topk[top-k by Pr^k]: answers=2\n"),
            "{text}"
        );
    }

    #[test]
    fn multi_scan_threshold_is_the_minimum() {
        let plan = PtkPlan::try_multi(2, &[0.9, 0.35, 0.5], &EngineOptions::default()).unwrap();
        assert_eq!(plan.scan_threshold(), 0.35);
        assert_eq!(plan.thresholds(), &[0.9, 0.35, 0.5]);
    }

    #[test]
    fn describe_names_the_variant_and_threshold() {
        let plan = PtkPlan::try_new(2, 0.35, &EngineOptions::default()).unwrap();
        let d = plan.describe();
        assert!(d.contains("RC+LR"), "{d}");
        assert!(d.contains("p >= 0.35"), "{d}");
        let plan = PtkPlan::try_multi(2, &[0.2, 0.8], &EngineOptions::default()).unwrap();
        assert!(plan.describe().contains("2 thresholds"));
    }

    #[test]
    fn explain_analyze_reads_the_stats_counter_names() {
        use ptk_obs::Recorder as _;
        let plan = PtkPlan::try_new(2, 0.35, &EngineOptions::default()).unwrap();
        let metrics = ptk_obs::Metrics::new();
        let stats = ExecStats {
            scanned: 10,
            evaluated: 6,
            pruned_membership: 3,
            pruned_membership_block: 1,
            pruned_rule: 1,
            pruned_rule_whole: 0,
            dp_cells: 42,
            entries_recomputed: 21,
            rules_compressed: 2,
            stop: Some(StopReason::UpperBound),
        };
        stats.record_to(&metrics);
        metrics.add(counters::ANSWERS, 4);
        let text = plan.explain_analyze(&metrics.snapshot(), false);
        assert!(text.contains("ranked-retrieval: scanned=10"), "{text}");
        assert!(text.contains("rules_compressed=2"), "{text}");
        assert!(
            text.contains("dp[RC+LR, k=2]: evaluated=6 dp_cells=42 entries_recomputed=21"),
            "{text}"
        );
        assert!(
            text.contains("pruned_membership=3 pruned_rule=1 stop=upper-bound"),
            "{text}"
        );
        assert!(text.contains("answers=4"), "{text}");
        assert!(
            !text.contains("ms]"),
            "timing-free rendering has no wall clock: {text}"
        );
        let timed = plan.explain_analyze(&metrics.snapshot(), true);
        assert!(timed.contains("total: scanned=10 evaluated=6 answers=4"));
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        let opts = EngineOptions::default();
        assert_eq!(
            PtkPlan::try_new(0, 0.5, &opts).unwrap_err(),
            PlanError::ZeroK
        );
        assert_eq!(
            PtkPlan::try_multi(2, &[], &opts).unwrap_err(),
            PlanError::EmptyThresholds
        );
        for bad in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            let err = PtkPlan::try_new(2, bad, &opts).unwrap_err();
            match err {
                PlanError::InvalidThreshold { value } => {
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("expected InvalidThreshold, got {other:?}"),
            }
            // The rendering keeps the historical panic wording, so callers
            // that matched on messages see no change.
            assert!(err.to_string().contains("(0, 1]"), "{err}");
        }
        assert!(PtkPlan::try_new(1, 1.0, &opts).is_ok());
        assert!(PtkPlan::try_multi(3, &[0.2, 0.9], &opts).is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_separates_plans() {
        let opts = EngineOptions::default();
        let a = PtkPlan::try_new(2, 0.35, &opts).unwrap();
        // Same parameters, same fingerprint — across independent builds.
        assert_eq!(
            a.fingerprint(),
            PtkPlan::try_new(2, 0.35, &opts).unwrap().fingerprint()
        );
        // Any parameter change moves the fingerprint.
        let variants = [
            PtkPlan::try_new(3, 0.35, &opts).unwrap(),
            PtkPlan::try_new(2, 0.36, &opts).unwrap(),
            PtkPlan::try_multi(2, &[0.35, 0.5], &opts).unwrap(),
            PtkPlan::try_new(2, 0.35, &EngineOptions::with_variant(SharingVariant::Rc)).unwrap(),
            PtkPlan::try_new(
                2,
                0.35,
                &EngineOptions::without_pruning(SharingVariant::Lazy),
            )
            .unwrap(),
            PtkPlan::try_new(
                2,
                0.35,
                &EngineOptions {
                    ub_check_interval: 128,
                    ..EngineOptions::default()
                },
            )
            .unwrap(),
        ];
        for (i, other) in variants.iter().enumerate() {
            assert_ne!(a.fingerprint(), other.fingerprint(), "variant {i}");
        }
        // Threshold order matters (answers come back in threshold order).
        assert_ne!(
            PtkPlan::try_multi(2, &[0.2, 0.8], &opts)
                .unwrap()
                .fingerprint(),
            PtkPlan::try_multi(2, &[0.8, 0.2], &opts)
                .unwrap()
                .fingerprint()
        );
    }

    #[test]
    fn batch_keeps_order_and_describes_each_plan() {
        let batch = PtkPlan::batch(&[
            PtkPlan::try_new(2, 0.35, &EngineOptions::default()).unwrap(),
            PtkPlan::try_new(5, 0.5, &EngineOptions::with_variant(SharingVariant::Rc)).unwrap(),
        ]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.plans()[0].k(), 2);
        assert_eq!(batch.plans()[1].k(), 5);
        let d = batch.describe();
        assert!(d.starts_with("[0] "), "{d}");
        assert!(d.contains("\n[1] "), "{d}");
        assert!(d.contains("RC+LR") && d.contains("RC"), "{d}");
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn empty_batches_are_rejected() {
        let _ = PtkPlan::batch(&[]);
    }
}
