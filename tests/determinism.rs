//! Golden determinism tests: a fixed seed must produce bit-identical
//! sample-unit sequences and `Pr^k(t)` estimates on every run, every
//! machine, every build.
//!
//! The golden values below were produced by this very test setup and are
//! locked in; they only change if the RNG stack ([`ptk::rng`]) or the
//! sampler's variate-consumption order changes — both of which are
//! deliberate, reviewable events under the workspace's determinism policy
//! (see DESIGN.md). Comparisons are on exact `f64` bit patterns, not
//! tolerances.

mod common;

use common::panda_view;
use ptk::obs::Metrics;
use ptk::rng::{SeedableRng, StdRng};
use ptk::sampling::{
    sample_ptk_recorded, sample_topk, SamplingOptions, StopCriterion, WorldSampler,
};

/// The first eight top-2 sample units of the paper's panda view under seed
/// `0x9e37_79b9_7f4a_7c15`, as ranked positions.
const GOLDEN_UNITS: &[&[usize]] = &[
    &[1, 2],
    &[0, 2],
    &[2, 3],
    &[2, 3],
    &[1, 2],
    &[2, 3],
    &[1, 2],
    &[0, 1],
];

/// Bit patterns of the `Pr^2` estimates after 20 000 units under seed 7.
/// As decimals: [0.2976, 0.39415, 0.70575, 0.38475, 0.2052, 0.01255] —
/// within 0.01 of the exact [0.3, 0.4, 0.704, 0.38, 0.202, 0.014].
const GOLDEN_PR2_BITS: &[u64] = &[
    0x3fd3_0be0_ded2_88ce,
    0x3fd9_39c0_ebed_fa44,
    0x3fe6_9581_0624_dd2f,
    0x3fd8_9fbe_76c8_b439,
    0x3fca_43fe_5c91_d14e,
    0x3f89_b3d0_7c84_b5dd,
];

const GOLDEN_AVG_LEN_BITS: u64 = 0x400c_f2b0_20c4_9ba6;

fn draw_units() -> Vec<Vec<usize>> {
    let view = panda_view();
    let mut sampler = WorldSampler::new(&view, 2);
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9_7f4a_7c15);
    let mut unit = Vec::new();
    (0..GOLDEN_UNITS.len())
        .map(|_| {
            sampler.draw_unit(&mut rng, &mut unit);
            unit.clone()
        })
        .collect()
}

fn estimate() -> ptk::sampling::SampleEstimate {
    sample_topk(
        &panda_view(),
        2,
        &SamplingOptions {
            stop: StopCriterion::FixedUnits(20_000),
            seed: 7,
        },
    )
}

#[test]
fn sample_unit_sequence_matches_golden() {
    let units = draw_units();
    assert_eq!(units, GOLDEN_UNITS, "seeded unit sequence drifted");
}

#[test]
fn estimates_match_golden_bit_patterns() {
    let est = estimate();
    let bits: Vec<u64> = est.probabilities.iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        bits, GOLDEN_PR2_BITS,
        "seeded Pr^2 estimates drifted: {:?}",
        est.probabilities
    );
    assert_eq!(est.units, 20_000);
    assert_eq!(est.average_sample_length.to_bits(), GOLDEN_AVG_LEN_BITS);
    // And the estimated answer set at the paper's p = 0.35 is stable.
    assert_eq!(est.answers(0.35), vec![1, 2, 3]);
}

/// Runs the recorded pipeline — exact engine plus seeded sampling — into
/// one registry and returns the snapshot's timing-free JSON rendering.
fn recorded_pipeline_json() -> String {
    let view = panda_view();
    let metrics = Metrics::new();
    let plan =
        ptk::engine::PtkPlan::try_new(2, 0.35, &ptk::engine::EngineOptions::default()).unwrap();
    ptk::engine::PtkExecutor::with_recorder(&plan, &metrics)
        .execute(&mut ptk::access::ViewSource::new(&view));
    let options = SamplingOptions {
        stop: StopCriterion::FixedUnits(5_000),
        seed: 7,
    };
    sample_ptk_recorded(&view, 2, 0.35, &options, &metrics);
    metrics.snapshot().to_json(false)
}

#[test]
fn metrics_snapshots_are_bit_deterministic_without_timings() {
    // Counters and histograms are pure functions of the seeded run, so the
    // timing-free JSON rendering must be byte-identical across repeats.
    // Timings are wall-clock and excluded from golden comparisons — the
    // rendering must not leak them.
    let (a, b) = (recorded_pipeline_json(), recorded_pipeline_json());
    assert_eq!(a, b, "metrics snapshot drifted between identical runs");
    assert!(a.contains("\"engine.scanned\""), "engine counters missing");
    assert!(
        a.contains("\"sampling.units\""),
        "sampling counters missing"
    );
    assert!(
        a.contains("\"sampling.unit_len\""),
        "histograms missing from snapshot"
    );
    assert!(!a.contains("nanos"), "timings leaked into golden rendering");
}

/// The logical-clock rendering of the paper's panda query (k=2, p=0.35,
/// default engine options), traced through the exact executor. Worker ids
/// and wall-clock offsets are excluded from the rendering, so this text is
/// a pure function of the query — locked in like the sample goldens above.
const GOLDEN_LOGICAL_TRACE: &str = "\
q0 #0 B query
q0 #1 i answer rank=1
q0 #2 i answer rank=2
q0 #3 i answer rank=3
q0 #4 B retrieval
q0 #5 E retrieval tuples=6
q0 #6 B reorder
q0 #7 E reorder rules_compressed=2
q0 #8 B dp
q0 #9 E dp cells=12 entries=6
q0 #10 B bound
q0 #11 E bound checks=0
q0 #12 E query scanned=6 evaluated=6 pruned_membership=0 pruned_rule=0 answers=3
";

fn traced_panda_logical() -> String {
    use std::sync::Arc;
    let view = panda_view();
    let sink = Arc::new(ptk::obs::RingSink::new(1024));
    let tracer = ptk::obs::Tracer::new(Arc::clone(&sink) as ptk::obs::SharedSink, 0, 0);
    let recorder = ptk::obs::Metrics::counters_only().with_tracer(tracer);
    let plan =
        ptk::engine::PtkPlan::try_new(2, 0.35, &ptk::engine::EngineOptions::default()).unwrap();
    let mut source = ptk::access::ViewSource::new(&view);
    let _ = ptk::engine::PtkExecutor::with_recorder(&plan, &recorder).execute(&mut source);
    ptk::obs::render_logical(&sink.events())
}

#[test]
fn logical_trace_matches_golden() {
    let rendering = traced_panda_logical();
    assert_eq!(
        rendering, GOLDEN_LOGICAL_TRACE,
        "logical-clock trace drifted"
    );
    // And it is identical across repeats — no wall-clock leakage.
    assert_eq!(rendering, traced_panda_logical());
}

#[test]
fn runs_are_bit_identical_across_repeats() {
    let (a, b) = (estimate(), estimate());
    let bits = |e: &ptk::sampling::SampleEstimate| {
        e.probabilities
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(draw_units(), draw_units());
}
