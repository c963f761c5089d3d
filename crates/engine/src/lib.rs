//! # `ptk-engine` — the exact PT-k query engine
//!
//! The paper's primary contribution (§4): answering probabilistic threshold
//! top-k queries with **one scan** of the ranked tuple list instead of
//! enumerating the exponentially many possible worlds — and, on the same
//! scan, every other ranking semantics the paper compares against.
//!
//! There is one pipeline: a [`PtkPlan`] validates the request and lowers
//! it into the stage list of DESIGN.md §9, and a [`PtkExecutor`] drives
//! that plan over any [`RankedSource`](ptk_access::RankedSource) — a
//! materialized view, a run file, TA middleware. The pieces, each in its
//! own module:
//!
//! * [`dp`] — the subset-probability (Poisson-binomial) dynamic program of
//!   Theorem 2, truncated at `k`;
//! * [`PtkPlan`] / [`PlanStage`] — planning and validation: ranked
//!   retrieval, rule compression (Corollaries 1–2), prefix-shared DP with
//!   the reordering strategies of §4.3.2 (selected by [`SharingVariant`]),
//!   pruning (§4.4), answer emission. [`PtkPlan::try_new`] and
//!   [`PtkPlan::try_multi`] plan PT-k, [`PtkPlan::try_semantics`] any
//!   [`RankSemantics`];
//! * [`PtkExecutor`] — the full algorithm of Figure 3 with the pruning
//!   rules of Theorems 3–5 and an early-exit upper bound
//!   ([`PtkExecutor::execute`]), and the generating-function scan that
//!   answers U-TopK, U-KRanks, Global-Topk and expected rank
//!   ([`PtkExecutor::execute_semantics`]);
//! * [`evaluate_ptk`] — the one-call PT-k form for a view;
//! * [`Scanner`] / [`topk_probabilities`] — the step-at-a-time view of the
//!   compressed dominant set (Figure 2's walkthrough) and the full-scan
//!   `Pr^k` of every tuple it yields, the exact ground truth of the
//!   sampling experiments.
//!
//! ```
//! use ptk_core::RankedView;
//! use ptk_engine::{evaluate_ptk, EngineOptions};
//!
//! // The paper's running example (Table 1), ranked by duration:
//! // R1 (0.3), R2 (0.4), R5 (0.8), R3 (0.5), R4 (1.0), R6 (0.2),
//! // with rules R2⊕R3 and R5⊕R6.
//! let view = RankedView::from_ranked_probs(
//!     &[0.3, 0.4, 0.8, 0.5, 1.0, 0.2],
//!     &[vec![1, 3], vec![2, 5]],
//! ).unwrap();
//!
//! // PT-2 query with p = 0.35 returns {R2, R5, R3} (Example 1).
//! let result = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
//! assert_eq!(result.answer_ranks(), vec![1, 2, 3]);
//!
//! // §1: U-Top2 returns <R5, R3> (positions 2 and 3) with probability 0.28.
//! use ptk_access::ViewSource;
//! use ptk_engine::{PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
//! let plan = PtkPlan::try_semantics(RankSemantics::UTopK, 2, None, &EngineOptions::default())
//!     .unwrap();
//! let answer = PtkExecutor::new(&plan)
//!     .execute_semantics(&mut ViewSource::new(&view))
//!     .unwrap();
//! let SemanticsAnswer::UTopK { rows, probability, .. } = answer else { unreachable!() };
//! assert_eq!(rows.iter().map(|r| r.position).collect::<Vec<_>>(), vec![2, 3]);
//! assert!((probability - 0.28).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dp;
mod exact;
mod exec;
mod gf;
mod plan;
mod scanner;
mod stats;

pub use exact::{evaluate_ptk, topk_probabilities};
pub use exec::{AnswerTuple, PtkExecutor, PtkResult};
pub use gf::{RankSemantics, SemanticsAnswer, SemanticsError, SemanticsRow};
pub use plan::{EngineOptions, PlanError, PlanStage, PtkBatch, PtkPlan, SharingVariant};
pub use scanner::{Entry, Scanner, StepRow};
pub use stats::{counters, ExecStats, StopReason};
