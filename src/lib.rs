//! # `ptk` — probabilistic threshold top-k queries on uncertain data
//!
//! A Rust implementation of Hua, Pei, Zhang and Lin, *"Efficiently Answering
//! Probabilistic Threshold Top-k Queries on Uncertain Data"* (ICDE 2008):
//! the x-relation uncertain-data model, the exact one-scan PT-k algorithm
//! (rule-tuple compression, prefix-shared subset-probability DP, pruning),
//! the sampling method with Chernoff-bounded and progressive stopping, and
//! — on the same scan — the U-TopK / U-KRanks baselines the paper compares
//! against, plus Global-Topk and expected rank.
//!
//! This facade crate re-exports the workspace and adds a small high-level
//! API that works directly on [`UncertainTable`]s and maps results back to
//! tuples:
//!
//! ```
//! use ptk::{
//!     answer_exact, ExactOptions, PtkQuery, Ranking, TopKQuery,
//!     UncertainTableBuilder, Value,
//! };
//!
//! // Table 1 of the paper: panda sightings with exclusive co-detections.
//! let mut b = UncertainTableBuilder::new(vec!["duration".into()]);
//! let r1 = b.push(0.3, [Value::Float(25.0)]).unwrap();
//! let r2 = b.push(0.4, [Value::Float(21.0)]).unwrap();
//! let r3 = b.push(0.5, [Value::Float(13.0)]).unwrap();
//! let r4 = b.push(1.0, [Value::Float(12.0)]).unwrap();
//! let r5 = b.push(0.8, [Value::Float(17.0)]).unwrap();
//! let r6 = b.push(0.2, [Value::Float(11.0)]).unwrap();
//! b.exclusive(&[r2, r3]).unwrap();
//! b.exclusive(&[r5, r6]).unwrap();
//! let table = b.finish().unwrap();
//!
//! // "Which records have probability >= 0.35 of being a top-2 duration?"
//! let query = PtkQuery::new(
//!     TopKQuery::top(2, Ranking::descending(0)),
//!     0.35,
//! ).unwrap();
//! let answer = answer_exact(&table, &query, &ExactOptions::default()).unwrap();
//! let ids: Vec<usize> = answer.matches.iter().map(|m| m.id.index()).collect();
//! assert_eq!(ids, vec![1, 4, 2]); // R2, R5, R3 — Example 1 of the paper
//! # let _ = (r1, r4, r6);
//! ```
//!
//! Every ranking semantics runs through the engine: plan with
//! [`PtkPlan::try_new`] (PT-k) or [`PtkPlan::try_semantics`] (any
//! [`RankSemantics`]) and run the plan with a [`PtkExecutor`] over any
//! [`RankedSource`] — a ranked view, a run file, TA middleware.
//!
//! The sub-crates are re-exported as modules for direct access:
//! [`model`] (ptk-core), [`worlds`], [`engine`], [`sampling`],
//! [`datagen`], [`access`] (progressive retrieval: TA middleware, disk
//! runs), [`sql`] (the statement language), [`obs`] (the metrics and
//! tracing layer behind `--stats` and the bench artifacts) and [`par`]
//! (the deterministic scoped thread pool behind batch execution) and
//! [`serve`] (the resident query daemon behind `ptk serve`). The
//! in-repo infrastructure that keeps the build hermetic is re-exported
//! too: [`rng`] (seedable PRNGs) and [`check`] (the deterministic
//! property-test harness).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ptk_access as access;
pub use ptk_core as model;
pub use ptk_core::{check, prop_assert, prop_assert_eq, rng};
pub use ptk_datagen as datagen;
pub use ptk_engine as engine;
pub use ptk_obs as obs;
pub use ptk_par as par;
pub use ptk_sampling as sampling;
pub use ptk_serve as serve;
pub use ptk_sql as sql;
pub use ptk_worlds as worlds;

pub use ptk_access::{AggregateFn, RankedSource, SortedVecSource, TaSource, ViewSource};
pub use ptk_core::{
    ComparisonOp, GenerationRule, ModelError, Predicate, Probability, PtkQuery, RankedView,
    Ranking, Result, RuleId, SortDirection, TopKQuery, Tuple, TupleId, UncertainTable,
    UncertainTableBuilder, Value, WorldCount,
};
pub use ptk_engine::{
    AnswerTuple, EngineOptions as ExactOptions, ExecStats, PtkBatch, PtkExecutor, PtkPlan,
    PtkResult, RankSemantics, SemanticsAnswer, SemanticsRow, SharingVariant, StopReason,
};
pub use ptk_sampling::{SamplingOptions, StopCriterion};

/// One tuple of a query answer, mapped back to the source table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleMatch {
    /// The tuple's id in the queried table.
    pub id: TupleId,
    /// Its top-k probability — exact for [`answer_exact`], estimated for
    /// [`answer_sampling`].
    pub probability: f64,
}

/// A PT-k answer set, in ranking order.
#[derive(Debug, Clone)]
pub struct PtkAnswer {
    /// The tuples whose top-k probability passes the threshold.
    pub matches: Vec<TupleMatch>,
    /// Exact-engine execution statistics, when the exact engine ran.
    pub stats: Option<ExecStats>,
}

/// Answers a PT-k query exactly (the paper's Figure 3 algorithm).
///
/// # Errors
/// Propagates model errors from building the ranked view (unknown columns in
/// the predicate or ranking function).
pub fn answer_exact(
    table: &UncertainTable,
    query: &PtkQuery,
    options: &ExactOptions,
) -> Result<PtkAnswer> {
    let view = RankedView::build(table, query.query())?;
    let result = ptk_engine::evaluate_ptk(&view, query.k(), query.threshold().value(), options);
    let matches = result
        .answers
        .iter()
        .map(|a| TupleMatch {
            id: a.id,
            probability: a.probability,
        })
        .collect();
    Ok(PtkAnswer {
        matches,
        stats: Some(result.stats),
    })
}

/// Answers a PT-k query approximately by sampling possible worlds (§5 of
/// the paper). Deterministic given [`SamplingOptions::seed`].
///
/// # Errors
/// Propagates model errors from building the ranked view.
pub fn answer_sampling(
    table: &UncertainTable,
    query: &PtkQuery,
    options: &SamplingOptions,
) -> Result<PtkAnswer> {
    let view = RankedView::build(table, query.query())?;
    let (answers, estimate) =
        ptk_sampling::sample_ptk(&view, query.k(), query.threshold().value(), options);
    let matches = answers
        .iter()
        .map(|&pos| TupleMatch {
            id: view.tuple(pos).id,
            probability: estimate.probabilities[pos],
        })
        .collect();
    Ok(PtkAnswer {
        matches,
        stats: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panda() -> UncertainTable {
        let mut b = UncertainTableBuilder::new(vec!["duration".into()]);
        let _r1 = b.push(0.3, [Value::Float(25.0)]).unwrap();
        let r2 = b.push(0.4, [Value::Float(21.0)]).unwrap();
        let r3 = b.push(0.5, [Value::Float(13.0)]).unwrap();
        let _r4 = b.push(1.0, [Value::Float(12.0)]).unwrap();
        let r5 = b.push(0.8, [Value::Float(17.0)]).unwrap();
        let r6 = b.push(0.2, [Value::Float(11.0)]).unwrap();
        b.exclusive(&[r2, r3]).unwrap();
        b.exclusive(&[r5, r6]).unwrap();
        b.finish().unwrap()
    }

    fn panda_query(p: f64) -> PtkQuery {
        PtkQuery::new(TopKQuery::top(2, Ranking::descending(0)), p).unwrap()
    }

    #[test]
    fn exact_answer_maps_back_to_tuples() {
        let answer = answer_exact(&panda(), &panda_query(0.35), &ExactOptions::default()).unwrap();
        let ids: Vec<usize> = answer.matches.iter().map(|m| m.id.index()).collect();
        assert_eq!(ids, vec![1, 4, 2]);
        assert!((answer.matches[1].probability - 0.704).abs() < 1e-12);
        assert!(answer.stats.is_some());
    }

    #[test]
    fn sampling_answer_approximates_exact() {
        let options = SamplingOptions {
            stop: StopCriterion::FixedUnits(30_000),
            seed: 1,
        };
        let answer = answer_sampling(&panda(), &panda_query(0.35), &options).unwrap();
        let ids: Vec<usize> = answer.matches.iter().map(|m| m.id.index()).collect();
        assert_eq!(ids, vec![1, 4, 2]);
        assert!(answer.stats.is_none());
    }

    #[test]
    fn predicate_errors_propagate() {
        let query = PtkQuery::new(
            TopKQuery::new(
                2,
                Predicate::compare(9, ComparisonOp::Gt, 0i64),
                Ranking::descending(0),
            )
            .unwrap(),
            0.5,
        )
        .unwrap();
        assert!(answer_exact(&panda(), &query, &ExactOptions::default()).is_err());
    }

    #[test]
    fn high_threshold_returns_only_certainties() {
        let answer = answer_exact(&panda(), &panda_query(1.0), &ExactOptions::default()).unwrap();
        assert!(answer.matches.is_empty());
    }
}
