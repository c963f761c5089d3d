//! Sampling runs: stopping criteria and estimate aggregation.

use ptk_core::rng::{derive_seed, RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_obs::{Mark, Noop, Payload, Recorder, Stage};
use ptk_par::ThreadPool;

use crate::bounds::chernoff_sample_size;
use crate::counters;
use crate::sampler::WorldSampler;

/// When to stop drawing sample units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCriterion {
    /// Draw exactly this many units.
    FixedUnits(u64),
    /// Draw the Chernoff–Hoeffding bound of Theorem 6 for the given relative
    /// error `epsilon` and failure probability `delta`.
    Chernoff {
        /// Relative error bound `ε`.
        epsilon: f64,
        /// Failure probability `δ`.
        delta: f64,
    },
    /// Progressive sampling (improvement 2 of §5): stop once no tuple's
    /// estimate changed by more than `phi` over the last `d` units. A hard
    /// cap `max_units` bounds the worst case.
    ///
    /// Stability is checked at the end of every full window of `d` units,
    /// and once more over the final *partial* window when `max_units` is
    /// not a multiple of `d` (the run always stops at the cap; the partial
    /// check only decides whether it stopped *stable*, reported via
    /// [`SampleEstimate::stop`]). When `d >= max_units` no window ever
    /// completes before the cap, so the criterion degenerates to
    /// [`StopCriterion::FixedUnits`]`(max_units)` and the outcome is
    /// [`StopOutcome::ProgressiveBudget`] — pick `d` well below
    /// `max_units` for the stability check to have any effect.
    Progressive {
        /// Window length `d` in sample units.
        d: u64,
        /// Stability tolerance `φ` on each estimate.
        phi: f64,
        /// Hard cap on the number of units.
        max_units: u64,
    },
}

/// Why a sampling run stopped (recorded under the matching
/// `sampling.stop.*` counter in [`crate::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopOutcome {
    /// The requested fixed unit count was drawn.
    FixedUnits,
    /// The Chernoff–Hoeffding bound of Theorem 6 was drawn.
    ChernoffBound,
    /// Progressive stopping found the estimates stable within `phi` — over
    /// a full window of `d` units, or over the final partial window at the
    /// cap.
    ProgressiveStable,
    /// The progressive cap `max_units` was reached with the estimates
    /// still moving (or with no window to check, when `d >= max_units`).
    ProgressiveBudget,
}

impl StopOutcome {
    fn counter(self) -> &'static str {
        match self {
            StopOutcome::FixedUnits => counters::STOP_FIXED,
            StopOutcome::ChernoffBound => counters::STOP_CHERNOFF,
            StopOutcome::ProgressiveStable => counters::STOP_STABLE,
            StopOutcome::ProgressiveBudget => counters::STOP_BUDGET,
        }
    }
}

/// The stop outcome of a run that always draws its full budget (fixed,
/// Chernoff, or a progressive criterion degraded to its cap).
fn budget_outcome(stop: &StopCriterion) -> StopOutcome {
    match stop {
        StopCriterion::FixedUnits(_) => StopOutcome::FixedUnits,
        StopCriterion::Chernoff { .. } => StopOutcome::ChernoffBound,
        StopCriterion::Progressive { .. } => StopOutcome::ProgressiveBudget,
    }
}

/// Configuration for a sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingOptions {
    /// Stopping criterion.
    pub stop: StopCriterion,
    /// RNG seed — runs are deterministic given the seed.
    pub seed: u64,
}

impl Default for SamplingOptions {
    fn default() -> Self {
        SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 500,
                phi: 0.001,
                max_units: 200_000,
            },
            seed: 0,
        }
    }
}

/// The outcome of a sampling run.
#[derive(Debug, Clone)]
pub struct SampleEstimate {
    /// `probabilities[pos]` estimates `Pr^k` of the tuple at ranked
    /// position `pos` (the sample mean of its top-k indicator).
    pub probabilities: Vec<f64>,
    /// Units actually drawn.
    pub units: u64,
    /// Average ranked positions scanned per unit (the paper's *sample
    /// length*, Figure 4).
    pub average_sample_length: f64,
    /// Why the run stopped.
    pub stop: StopOutcome,
}

impl SampleEstimate {
    /// The positions whose estimated top-k probability reaches `threshold`,
    /// in ranking order.
    pub fn answers(&self, threshold: f64) -> Vec<usize> {
        (0..self.probabilities.len())
            .filter(|&pos| self.probabilities[pos] >= threshold)
            .collect()
    }
}

/// Estimates the top-k probability of every tuple by sampling.
pub fn sample_topk(view: &RankedView, k: usize, options: &SamplingOptions) -> SampleEstimate {
    sample_topk_recorded(view, k, options, &Noop)
}

/// Like [`sample_topk`], recording run metrics into `recorder`: unit and
/// position counts ([`counters::UNITS`], [`counters::POSITIONS`]), the
/// per-unit scan-length histogram ([`counters::UNIT_LEN`]), and a `1` on
/// the `sampling.stop.*` counter matching the [`StopOutcome`].
///
/// When `recorder` carries a tracer ([`Recorder::tracer`]), the whole run
/// also becomes a [`Stage::Sampling`] span carrying the drawn-unit and
/// scanned-position totals, and every progressive-stop stability check
/// emits a [`Mark::SampleCheckpoint`] instant with its decision — so a
/// trace shows *when* the estimates settled, not just that they did.
/// Tracing never changes the run.
pub fn sample_topk_recorded(
    view: &RankedView,
    k: usize,
    options: &SamplingOptions,
    recorder: &dyn Recorder,
) -> SampleEstimate {
    let tracer = recorder.tracer();
    if let Some(t) = tracer {
        let _ = t.begin(Stage::Sampling);
    }
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut sampler = WorldSampler::new(view, k);
    let mut counts = vec![0u64; view.len()];
    let mut unit = Vec::with_capacity(k);

    let budget = match options.stop {
        StopCriterion::FixedUnits(n) => n,
        StopCriterion::Chernoff { epsilon, delta } => chernoff_sample_size(epsilon, delta),
        StopCriterion::Progressive { max_units, .. } => max_units,
    };
    let progressive = match options.stop {
        StopCriterion::Progressive { d, phi, .. } => Some((d.max(1), phi)),
        _ => None,
    };
    // Progressive state: estimates snapshotted `d` units ago.
    let mut snapshot: Vec<f64> = Vec::new();
    let mut snapshot_at: u64 = 0;
    let mut stable_stop = false;

    let stable_within = |current: &[f64], snapshot: &[f64], phi: f64| {
        current
            .iter()
            .zip(snapshot.iter())
            .all(|(a, b)| (a - b).abs() <= phi)
    };

    let mut drawn: u64 = 0;
    while drawn < budget {
        let visited = sampler.draw_unit(&mut rng, &mut unit);
        recorder.observe(counters::UNIT_LEN, visited as f64);
        drawn += 1;
        for &pos in &unit {
            counts[pos] += 1;
        }
        if let Some((d, phi)) = progressive {
            if drawn == snapshot_at + d {
                let current: Vec<f64> = counts.iter().map(|&c| c as f64 / drawn as f64).collect();
                let stable = !snapshot.is_empty() && stable_within(&current, &snapshot, phi);
                if let Some(t) = tracer {
                    t.instant(Mark::SampleCheckpoint { drawn, stable });
                }
                if stable {
                    stable_stop = true;
                    break;
                }
                snapshot = current;
                snapshot_at = drawn;
            }
        }
    }

    // Check the final *partial* window: when `max_units` is not a multiple
    // of `d` the loop above exits at the cap mid-window, and without this
    // check the trailing units would never be compared against the last
    // snapshot — the run would silently report an unstable stop even when
    // the estimates had settled.
    if let Some((_, phi)) = progressive {
        if !stable_stop && !snapshot.is_empty() && drawn > snapshot_at {
            let current: Vec<f64> = counts.iter().map(|&c| c as f64 / drawn as f64).collect();
            stable_stop = stable_within(&current, &snapshot, phi);
            if let Some(t) = tracer {
                t.instant(Mark::SampleCheckpoint {
                    drawn,
                    stable: stable_stop,
                });
            }
        }
    }

    let stop = match options.stop {
        StopCriterion::Progressive { .. } if stable_stop => StopOutcome::ProgressiveStable,
        ref other => budget_outcome(other),
    };
    recorder.add(counters::UNITS, drawn);
    recorder.add(counters::POSITIONS, sampler.positions_scanned());
    recorder.add(stop.counter(), 1);
    if let Some(t) = tracer {
        t.end(
            Stage::Sampling,
            Payload::Sampling {
                units: drawn,
                positions: sampler.positions_scanned(),
            },
        );
    }

    SampleEstimate {
        probabilities: counts
            .iter()
            .map(|&c| c as f64 / drawn.max(1) as f64)
            .collect(),
        units: drawn,
        average_sample_length: sampler.average_sample_length(),
        stop,
    }
}

/// Estimates the top-k probability of every tuple by **antithetic**
/// sampling: units are drawn in pairs, the second unit of each pair reusing
/// the complements `1 − u` of the first unit's uniform variates.
///
/// Each variate is still marginally `U(0, 1)`, so the estimator stays
/// unbiased; within a pair the top-k indicators are negatively correlated,
/// which reduces the estimator's variance (strongly so for tuples whose
/// inclusion is driven by a single variate). When the second unit consumes
/// more variates than the first recorded (units stop early at `k`
/// inclusions, so lengths differ), the excess variates are drawn fresh.
///
/// Only fixed-unit and Chernoff stopping make sense pair-wise, so a
/// [`StopCriterion::Progressive`] criterion is treated as its `max_units`
/// cap.
pub fn sample_topk_antithetic(
    view: &RankedView,
    k: usize,
    options: &SamplingOptions,
) -> SampleEstimate {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut sampler = WorldSampler::new(view, k);
    let mut counts = vec![0u64; view.len()];
    let mut unit = Vec::with_capacity(k);
    let budget = match options.stop {
        StopCriterion::FixedUnits(n) => n,
        StopCriterion::Chernoff { epsilon, delta } => chernoff_sample_size(epsilon, delta),
        StopCriterion::Progressive { max_units, .. } => max_units,
    };
    let mut recorded: Vec<f64> = Vec::new();
    let mut drawn: u64 = 0;
    while drawn < budget {
        if drawn.is_multiple_of(2) {
            recorded.clear();
            sampler.draw_unit_from(
                || {
                    let u: f64 = rng.random();
                    recorded.push(u);
                    u
                },
                &mut unit,
            );
        } else {
            let mut next = 0usize;
            sampler.draw_unit_from(
                || {
                    let u = if next < recorded.len() {
                        1.0 - recorded[next]
                    } else {
                        rng.random()
                    };
                    next += 1;
                    u
                },
                &mut unit,
            );
        }
        drawn += 1;
        for &pos in &unit {
            counts[pos] += 1;
        }
    }
    SampleEstimate {
        probabilities: counts
            .iter()
            .map(|&c| c as f64 / drawn.max(1) as f64)
            .collect(),
        units: drawn,
        average_sample_length: sampler.average_sample_length(),
        stop: budget_outcome(&options.stop),
    }
}

/// Estimates the top-k probability of every tuple by sampling across
/// `threads` workers of a [`ThreadPool`], each drawing an equal share of
/// the unit budget from its own RNG stream. Stream `t` is seeded with
/// [`derive_seed`]`(options.seed, t)` — SplitMix64-derived child seeds, so
/// every per-thread state passes through a full avalanche mix (an
/// xor-multiply of the seed can land adjacent streams close together for
/// adversarial seeds). With `threads == 1` the single worker uses
/// `options.seed` directly, making the run identical to [`sample_topk`]
/// under budget-only stopping. The merged estimate is unbiased and
/// deterministic for a fixed `(seed, threads)` pair; different thread
/// counts legitimately produce different (equally valid) estimates.
///
/// Progressive stopping needs a global view of the estimates, so a
/// [`StopCriterion::Progressive`] criterion is treated as its `max_units`
/// cap, as in [`sample_topk_antithetic`].
///
/// # Panics
/// Panics if `threads == 0`.
pub fn sample_topk_parallel(
    view: &RankedView,
    k: usize,
    options: &SamplingOptions,
    threads: usize,
) -> SampleEstimate {
    let pool = ThreadPool::new(threads);
    let budget = match options.stop {
        StopCriterion::FixedUnits(n) => n,
        StopCriterion::Chernoff { epsilon, delta } => chernoff_sample_size(epsilon, delta),
        StopCriterion::Progressive { max_units, .. } => max_units,
    };
    let per_thread = budget / threads as u64;
    let remainder = budget % threads as u64;
    // One share per worker: (quota, stream seed). A single worker keeps
    // the caller's seed verbatim so the run degenerates to the sequential
    // sampler's stream.
    let shares: Vec<(u64, u64)> = (0..threads as u64)
        .map(|t| {
            let quota = per_thread + u64::from(t < remainder);
            let seed = if threads == 1 {
                options.seed
            } else {
                derive_seed(options.seed, t)
            };
            (quota, seed)
        })
        .collect();

    let results = pool.parallel_map(&shares, |_, &(quota, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = WorldSampler::new(view, k);
        let mut counts = vec![0u64; view.len()];
        let mut unit = Vec::with_capacity(k);
        let mut scanned = 0u64;
        for _ in 0..quota {
            scanned += sampler.draw_unit(&mut rng, &mut unit) as u64;
            for &pos in &unit {
                counts[pos] += 1;
            }
        }
        (counts, quota, scanned)
    });

    let mut counts = vec![0u64; view.len()];
    let mut drawn = 0u64;
    let mut scanned = 0u64;
    for (c, units, s) in results {
        for (total, x) in counts.iter_mut().zip(c) {
            *total += x;
        }
        drawn += units;
        scanned += s;
    }
    SampleEstimate {
        probabilities: counts
            .iter()
            .map(|&c| c as f64 / drawn.max(1) as f64)
            .collect(),
        units: drawn,
        average_sample_length: if drawn == 0 {
            0.0
        } else {
            scanned as f64 / drawn as f64
        },
        stop: budget_outcome(&options.stop),
    }
}

/// Answers a PT-k query approximately by sampling: the tuples whose
/// *estimated* top-k probability reaches `threshold`.
pub fn sample_ptk(
    view: &RankedView,
    k: usize,
    threshold: f64,
    options: &SamplingOptions,
) -> (Vec<usize>, SampleEstimate) {
    sample_ptk_recorded(view, k, threshold, options, &Noop)
}

/// Like [`sample_ptk`], recording run metrics into `recorder` (see
/// [`sample_topk_recorded`]).
pub fn sample_ptk_recorded(
    view: &RankedView,
    k: usize,
    threshold: f64,
    options: &SamplingOptions,
    recorder: &dyn Recorder,
) -> (Vec<usize>, SampleEstimate) {
    let estimate = sample_topk_recorded(view, k, options, recorder);
    (estimate.answers(threshold), estimate)
}

/// Answers a PT-k query approximately over the parallel estimate: the
/// tuples whose *estimated* top-k probability (from
/// [`sample_topk_parallel`]) reaches `threshold` — API parity with
/// [`sample_ptk`] for callers that size their run with a thread budget.
/// With `threads == 1` the answers equal [`sample_ptk`]'s under
/// budget-only stopping (same RNG stream, see [`sample_topk_parallel`]).
///
/// # Panics
/// Panics if `threads == 0`.
pub fn sample_ptk_parallel(
    view: &RankedView,
    k: usize,
    threshold: f64,
    options: &SamplingOptions,
    threads: usize,
) -> (Vec<usize>, SampleEstimate) {
    let estimate = sample_topk_parallel(view, k, options, threads);
    (estimate.answers(threshold), estimate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panda() -> RankedView {
        RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
            .unwrap()
    }

    #[test]
    fn fixed_units_estimates_match_table_3() {
        let estimate = sample_topk(
            &panda(),
            2,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(50_000),
                seed: 11,
            },
        );
        let exact = [0.3, 0.4, 0.704, 0.38, 0.202, 0.014];
        for (pos, e) in exact.iter().enumerate() {
            assert!(
                (estimate.probabilities[pos] - e).abs() < 0.01,
                "pos {pos}: {} vs {e}",
                estimate.probabilities[pos]
            );
        }
        assert_eq!(estimate.units, 50_000);
    }

    #[test]
    fn ptk_answers_recovered() {
        let (answers, _) = sample_ptk(
            &panda(),
            2,
            0.35,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(30_000),
                seed: 5,
            },
        );
        assert_eq!(answers, vec![1, 2, 3]); // Example 1's answer set
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_balanced_span() {
        use ptk_obs::{
            render_logical, to_chrome_json, validate_chrome_trace, Metrics, RingSink, SharedSink,
            Tracer,
        };
        use std::sync::Arc;
        let options = SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 100,
                phi: 0.01,
                max_units: 10_000,
            },
            seed: 2,
        };
        let view = RankedView::from_ranked_probs(&[1.0, 1.0, 1.0], &[]).unwrap();
        let sink = Arc::new(RingSink::new(1024));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let recorder = Metrics::counters_only().with_tracer(tracer);
        let traced = sample_topk_recorded(&view, 2, &options, &recorder);
        let plain = sample_topk(&view, 2, &options);
        assert_eq!(traced.units, plain.units, "tracing never changes the run");
        assert_eq!(traced.probabilities, plain.probabilities);
        let events = sink.events();
        let check = validate_chrome_trace(&to_chrome_json(&events)).unwrap();
        assert_eq!(check.begins, 1, "one sampling span");
        assert_eq!(check.ends, 1);
        assert!(check.instants >= 1, "at least one progressive checkpoint");
        let text = render_logical(&events);
        assert!(text.contains("B sampling"), "{text}");
        assert!(text.contains("i sample-checkpoint"), "{text}");
        assert!(text.contains("stable=true"), "{text}");
        assert!(text.contains(&format!("units={}", traced.units)), "{text}");
    }

    #[test]
    fn chernoff_stop_draws_the_bound() {
        let options = SamplingOptions {
            stop: StopCriterion::Chernoff {
                epsilon: 0.2,
                delta: 0.1,
            },
            seed: 1,
        };
        let estimate = sample_topk(&panda(), 2, &options);
        assert_eq!(estimate.units, chernoff_sample_size(0.2, 0.1));
    }

    #[test]
    fn progressive_stops_before_cap_on_stable_input() {
        // A certain tuple first: estimates stabilize almost immediately.
        let view = RankedView::from_ranked_probs(&[1.0, 1.0, 1.0], &[]).unwrap();
        let options = SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 100,
                phi: 0.01,
                max_units: 100_000,
            },
            seed: 2,
        };
        let estimate = sample_topk(&view, 2, &options);
        assert!(estimate.units < 100_000, "drew {}", estimate.units);
        assert_eq!(estimate.stop, StopOutcome::ProgressiveStable);
        assert_eq!(estimate.probabilities[0], 1.0);
        assert_eq!(estimate.probabilities[2], 0.0);
    }

    #[test]
    fn progressive_respects_hard_cap() {
        let options = SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 10,
                phi: 0.0,
                max_units: 57,
            },
            seed: 3,
        };
        let estimate = sample_topk(&panda(), 2, &options);
        assert!(estimate.units <= 57);
    }

    #[test]
    fn progressive_with_window_beyond_cap_degrades_to_fixed_units() {
        // d >= max_units: no full window ever completes, so the run must
        // draw exactly max_units and report an (unchecked) budget stop.
        let options = SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 1_000,
                phi: 1.0, // even a sure-stable tolerance never gets checked
                max_units: 57,
            },
            seed: 3,
        };
        let estimate = sample_topk(&panda(), 2, &options);
        assert_eq!(estimate.units, 57);
        assert_eq!(estimate.stop, StopOutcome::ProgressiveBudget);
    }

    #[test]
    fn progressive_checks_the_final_partial_window() {
        // Deterministic input (all probabilities 1): estimates are constant,
        // so any window — including the final partial one — is stable. With
        // d = 64 and max_units = 100, the first snapshot lands at 64 and the
        // next full boundary (128) is past the cap; only the partial window
        // 64..100 can notice stability.
        let view = RankedView::from_ranked_probs(&[1.0, 1.0, 1.0], &[]).unwrap();
        let options = SamplingOptions {
            stop: StopCriterion::Progressive {
                d: 64,
                phi: 0.01,
                max_units: 100,
            },
            seed: 7,
        };
        let estimate = sample_topk(&view, 2, &options);
        assert_eq!(estimate.units, 100);
        assert_eq!(estimate.stop, StopOutcome::ProgressiveStable);
    }

    #[test]
    fn recorded_run_snapshots_units_and_stop() {
        let metrics = ptk_obs::Metrics::new();
        let estimate = sample_topk_recorded(
            &panda(),
            2,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(200),
                seed: 11,
            },
            &metrics,
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(crate::counters::UNITS), 200);
        assert_eq!(snap.counter(crate::counters::STOP_FIXED), 1);
        assert_eq!(snap.counter(crate::counters::STOP_STABLE), 0);
        let lens = snap
            .histogram(crate::counters::UNIT_LEN)
            .expect("unit lengths observed");
        assert_eq!(lens.count, 200);
        assert!(
            (lens.sum - estimate.average_sample_length * 200.0).abs() < 1e-9,
            "histogram sum {} vs mean {}",
            lens.sum,
            estimate.average_sample_length
        );
        assert_eq!(
            snap.counter(crate::counters::POSITIONS),
            lens.sum as u64,
            "positions counter tracks the histogram mass"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let options = SamplingOptions {
            stop: StopCriterion::FixedUnits(500),
            seed: 99,
        };
        let a = sample_topk(&panda(), 2, &options);
        let b = sample_topk(&panda(), 2, &options);
        assert_eq!(a.probabilities, b.probabilities);
        assert_eq!(a.average_sample_length, b.average_sample_length);
    }

    #[test]
    fn parallel_is_unbiased_and_deterministic() {
        let options = SamplingOptions {
            stop: StopCriterion::FixedUnits(40_000),
            seed: 31,
        };
        let a = sample_topk_parallel(&panda(), 2, &options, 4);
        let b = sample_topk_parallel(&panda(), 2, &options, 4);
        assert_eq!(a.probabilities, b.probabilities);
        assert_eq!(a.units, 40_000);
        let exact = [0.3, 0.4, 0.704, 0.38, 0.202, 0.014];
        for (pos, e) in exact.iter().enumerate() {
            assert!(
                (a.probabilities[pos] - e).abs() < 0.01,
                "pos {pos}: {} vs {e}",
                a.probabilities[pos]
            );
        }
        // Uneven splits cover the remainder path.
        let c = sample_topk_parallel(
            &panda(),
            2,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(101),
                seed: 31,
            },
            3,
        );
        assert_eq!(c.units, 101);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_rejects_zero_threads() {
        let _ = sample_topk_parallel(&panda(), 2, &SamplingOptions::default(), 0);
    }

    #[test]
    fn parallel_single_thread_matches_sequential_exactly() {
        // threads == 1 keeps the caller's seed verbatim, so the run is the
        // sequential sampler's stream bit for bit (budget-only stopping).
        let options = SamplingOptions {
            stop: StopCriterion::FixedUnits(2_000),
            seed: 77,
        };
        let seq = sample_topk(&panda(), 2, &options);
        let par = sample_topk_parallel(&panda(), 2, &options, 1);
        assert_eq!(seq.probabilities, par.probabilities);
        assert_eq!(seq.units, par.units);
        assert_eq!(
            seq.average_sample_length.to_bits(),
            par.average_sample_length.to_bits()
        );
    }

    #[test]
    fn parallel_streams_are_pinned_to_derived_child_seeds() {
        // The (seed, threads) reproducibility contract: worker t draws the
        // stream of derive_seed(seed, t). Re-running each worker's share as
        // a sequential run seeded with the derived child must reproduce the
        // merged counts exactly.
        let seed = 31;
        let threads = 3;
        let budget = 1_001u64; // uneven split: quotas 334, 334, 333
        let par = sample_topk_parallel(
            &panda(),
            2,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(budget),
                seed,
            },
            threads,
        );
        let mut merged = [0.0f64; 6];
        let mut drawn = 0u64;
        for t in 0..threads as u64 {
            let quota = budget / threads as u64 + u64::from(t < budget % threads as u64);
            let child = sample_topk(
                &panda(),
                2,
                &SamplingOptions {
                    stop: StopCriterion::FixedUnits(quota),
                    seed: derive_seed(seed, t),
                },
            );
            for (total, p) in merged.iter_mut().zip(&child.probabilities) {
                *total += p * quota as f64;
            }
            drawn += quota;
        }
        assert_eq!(drawn, par.units);
        for (pos, total) in merged.iter().enumerate() {
            // counts are integers, so the reconstruction is exact up to
            // one rounding of the division.
            let reconstructed = (total / drawn as f64 * drawn as f64).round();
            let observed = (par.probabilities[pos] * drawn as f64).round();
            assert_eq!(reconstructed, observed, "pos {pos}");
        }
    }

    #[test]
    fn ptk_parallel_matches_sequential_at_one_thread() {
        let options = SamplingOptions {
            stop: StopCriterion::FixedUnits(30_000),
            seed: 5,
        };
        let (seq_answers, seq_est) = sample_ptk(&panda(), 2, 0.35, &options);
        let (par_answers, par_est) = sample_ptk_parallel(&panda(), 2, 0.35, &options, 1);
        assert_eq!(seq_answers, par_answers);
        assert_eq!(seq_est.probabilities, par_est.probabilities);
        assert_eq!(par_answers, vec![1, 2, 3]); // Example 1's answer set
    }

    #[test]
    fn ptk_parallel_recovers_answers_multithreaded() {
        let (answers, estimate) = sample_ptk_parallel(
            &panda(),
            2,
            0.35,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(40_000),
                seed: 5,
            },
            4,
        );
        assert_eq!(answers, vec![1, 2, 3]);
        assert_eq!(estimate.units, 40_000);
    }

    #[test]
    fn antithetic_is_unbiased() {
        let estimate = sample_topk_antithetic(
            &panda(),
            2,
            &SamplingOptions {
                stop: StopCriterion::FixedUnits(50_000),
                seed: 21,
            },
        );
        let exact = [0.3, 0.4, 0.704, 0.38, 0.202, 0.014];
        for (pos, e) in exact.iter().enumerate() {
            assert!(
                (estimate.probabilities[pos] - e).abs() < 0.01,
                "pos {pos}: {} vs {e}",
                estimate.probabilities[pos]
            );
        }
    }

    #[test]
    fn antithetic_reduces_variance_on_single_variate_events() {
        // One tuple with p = 0.5, k = 1: each pair contributes exactly one
        // inclusion (u < 0.5 xor 1-u < 0.5), so the antithetic estimator is
        // exactly 0.5 with zero variance; the independent estimator is not.
        let view = RankedView::from_ranked_probs(&[0.5], &[]).unwrap();
        let spread = |f: &dyn Fn(u64) -> f64| -> f64 {
            let xs: Vec<f64> = (0..20).map(f).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let anti = spread(&|seed| {
            sample_topk_antithetic(
                &view,
                1,
                &SamplingOptions {
                    stop: StopCriterion::FixedUnits(1_000),
                    seed,
                },
            )
            .probabilities[0]
        });
        let indep = spread(&|seed| {
            sample_topk(
                &view,
                1,
                &SamplingOptions {
                    stop: StopCriterion::FixedUnits(1_000),
                    seed,
                },
            )
            .probabilities[0]
        });
        assert!(anti < 1e-12, "antithetic variance should vanish: {anti}");
        assert!(
            indep > anti,
            "independent variance {indep} should exceed {anti}"
        );
    }

    #[test]
    fn answers_threshold_filter() {
        let estimate = SampleEstimate {
            probabilities: vec![0.9, 0.2, 0.5],
            units: 10,
            average_sample_length: 3.0,
            stop: StopOutcome::FixedUnits,
        };
        assert_eq!(estimate.answers(0.5), vec![0, 2]);
        assert_eq!(estimate.answers(0.95), Vec::<usize>::new());
    }
}
