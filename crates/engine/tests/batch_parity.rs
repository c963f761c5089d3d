//! Determinism under threading: `execute_batch` must return bit-identical
//! answers, stats and (timing-free) merged snapshots at every pool width,
//! matching the sequential executor query for query.

use std::sync::Arc;

use ptk_access::SnapshotSource;
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_engine::{EngineOptions, PtkBatch, PtkExecutor, PtkPlan, PtkResult, SharingVariant};
use ptk_obs::{Metrics, RingSink, SharedSink, Snapshot, TraceEvent, Tracer};
use ptk_par::{threads_from_env, ThreadPool};

/// Runs `batch` over `view` recording into a registry that carries a
/// tracer over a ring of `capacity` events per query: the results, the
/// registry's snapshot and the retained events.
fn traced_batch(
    batch: &PtkBatch,
    view: &RankedView,
    pool: &ThreadPool,
    capacity: usize,
) -> (Vec<PtkResult>, Snapshot, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(capacity));
    let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
    let metrics = Metrics::new().with_tracer(tracer);
    let (results, _) = PtkExecutor::execute_batch_with(batch, view, pool, &metrics);
    (results, metrics.snapshot(), sink.events())
}

/// Generates a random small ranked view: up to `max_n` tuples, random
/// probabilities, random disjoint rules of size 2–4.
fn random_view(rng: &mut StdRng, max_n: usize) -> RankedView {
    let n = rng.random_range(4..=max_n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
    let mut positions: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut positions);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < positions.len() {
        if rng.random_bool(0.5) {
            let size = rng.random_range(2..=4usize).min(positions.len() - cursor);
            let group: Vec<usize> = positions[cursor..cursor + size].to_vec();
            let mass: f64 = group.iter().map(|&p| probs[p]).sum();
            if mass <= 1.0 {
                groups.push(group);
                cursor += size;
                continue;
            }
        }
        cursor += 1;
    }
    RankedView::from_ranked_probs(&probs, &groups).unwrap()
}

/// The full option matrix of the issue: RC / RC+AR / RC+LR × pruning
/// on/off.
fn option_matrix() -> Vec<EngineOptions> {
    let mut options = Vec::new();
    for variant in [
        SharingVariant::Rc,
        SharingVariant::Aggressive,
        SharingVariant::Lazy,
    ] {
        options.push(EngineOptions::with_variant(variant));
        options.push(EngineOptions::without_pruning(variant));
    }
    options
}

/// A batch sweeping k, threshold and the whole option matrix.
fn matrix_batch(rng: &mut StdRng) -> Vec<PtkPlan> {
    let mut plans = Vec::new();
    for options in option_matrix() {
        for _ in 0..2 {
            let k = rng.random_range(1..=5usize);
            let threshold = rng.random_range(0.05..=0.95f64);
            plans.push(PtkPlan::try_new(k, threshold, &options).unwrap());
        }
    }
    plans
}

/// Bitwise equality of two results: every answer field via `to_bits`, the
/// probability vector via `to_bits`, and the full `ExecStats`.
fn assert_results_bit_identical(a: &PtkResult, b: &PtkResult, context: &str) {
    assert_eq!(a.answers.len(), b.answers.len(), "{context}: answer count");
    for (x, y) in a.answers.iter().zip(&b.answers) {
        assert_eq!(x.rank, y.rank, "{context}");
        assert_eq!(x.id, y.id, "{context}");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{context}");
        assert_eq!(
            x.probability.to_bits(),
            y.probability.to_bits(),
            "{context}"
        );
    }
    assert_eq!(
        a.probabilities.len(),
        b.probabilities.len(),
        "{context}: probability vector length"
    );
    for (x, y) in a.probabilities.iter().zip(&b.probabilities) {
        assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{context}");
    }
    assert_eq!(a.stats, b.stats, "{context}: ExecStats");
}

#[test]
fn execute_batch_is_bit_identical_to_sequential_at_every_width() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b47);
    for trial in 0..8 {
        let view = random_view(&mut rng, 14);
        let plans = matrix_batch(&mut rng);
        let batch = PtkPlan::batch(&plans);

        // The sequential reference: one plan at a time, fresh cursor each.
        let sequential: Vec<PtkResult> = plans
            .iter()
            .map(|plan| {
                let mut source = ptk_access::ViewSource::new(&view);
                PtkExecutor::new(plan).execute(&mut source)
            })
            .collect();

        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = PtkExecutor::execute_batch(&batch, &view, &pool);
            assert_eq!(parallel.len(), sequential.len());
            for (q, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_results_bit_identical(
                    p,
                    s,
                    &format!("trial {trial} threads {threads} query {q}"),
                );
            }
        }
    }
}

#[test]
fn merged_snapshot_is_identical_across_pool_widths() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b48);
    let view = random_view(&mut rng, 14);
    let batch = PtkPlan::batch(&matrix_batch(&mut rng));

    // Reference: merge the per-query snapshots sequentially in plan order.
    let mut reference = ptk_obs::Snapshot::default();
    for plan in batch.plans() {
        let metrics = Metrics::new();
        let mut source = ptk_access::ViewSource::new(&view);
        let _ = PtkExecutor::with_recorder(plan, &metrics).execute(&mut source);
        reference.merge(&metrics.snapshot());
    }

    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let (results, merged) = PtkExecutor::execute_batch_recorded(&batch, &view, &pool);
        assert_eq!(results.len(), batch.len());
        // Timing-free rendering: identical to the sequential merge, at
        // every width (the engine records only sums, so which worker ran
        // which query cannot show).
        assert_eq!(
            merged.to_json(false),
            reference.to_json(false),
            "threads {threads}"
        );
        // Timings exist (each query records engine.query) but are not part
        // of the deterministic contract.
        assert!(merged.timings.contains_key("engine.query"));
    }
}

#[test]
fn traced_batch_logical_rendering_is_identical_across_pool_widths() {
    // The logical-clock rendering drops worker ids and wall-clock offsets,
    // so the traced batch must render to the same text at every pool width
    // — the trace-side analogue of the answer-parity matrix above.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4b);
    let view = random_view(&mut rng, 14);
    let batch = PtkPlan::batch(&matrix_batch(&mut rng));

    let pool = ThreadPool::new(1);
    let (reference_results, _, reference_events) = traced_batch(&batch, &view, &pool, 4096);
    let reference = ptk_obs::render_logical(&reference_events);
    assert!(reference.contains("B query"), "{reference}");

    for threads in [2usize, 4, 8] {
        let pool = ThreadPool::new(threads);
        let (results, merged, events) = traced_batch(&batch, &view, &pool, 4096);
        assert_eq!(
            ptk_obs::render_logical(&events),
            reference,
            "threads {threads}"
        );
        for (q, (a, b)) in results.iter().zip(&reference_results).enumerate() {
            assert_results_bit_identical(a, b, &format!("traced threads {threads} query {q}"));
        }
        // Tracing includes recording: the merged snapshot is still present
        // and carries the engine counters.
        assert!(merged.counter("engine.scanned") > 0);
    }
}

#[test]
fn a_traced_batch_that_fills_its_rings_renders_the_same_at_every_width() {
    // Each query keeps the first `capacity` events of its own stream, so
    // what survives an overflow does not depend on how concurrent workers
    // interleaved their queries.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b50);
    let view = deep_view(&mut rng, 300);
    let plans: Vec<PtkPlan> = [(5, 0.3), (10, 0.2), (3, 0.5), (20, 0.1)]
        .iter()
        .map(|&(k, p)| PtkPlan::try_new(k, p, &EngineOptions::default()).unwrap())
        .collect();
    let batch = PtkPlan::batch(&plans);
    let capacity = 6;
    let (_, _, full) = traced_batch(&batch, &view, &ThreadPool::new(1), 1 << 14);
    let (_, _, reference) = traced_batch(&batch, &view, &ThreadPool::new(1), capacity);
    for q in 0..plans.len() as u32 {
        let kept: Vec<&TraceEvent> = reference.iter().filter(|e| e.query == q).collect();
        let first: Vec<&TraceEvent> = full
            .iter()
            .filter(|e| e.query == q)
            .take(capacity)
            .collect();
        assert_eq!(kept.len(), capacity, "query {q} overflowed its ring");
        assert!(
            kept.iter()
                .zip(&first)
                .all(|(a, b)| a.seq == b.seq && a.kind == b.kind),
            "query {q} keeps the head of its own stream"
        );
    }
    let reference = ptk_obs::render_logical(&reference);
    for threads in [2usize, 4, 8] {
        let (_, _, events) = traced_batch(&batch, &view, &ThreadPool::new(threads), capacity);
        assert_eq!(
            ptk_obs::render_logical(&events),
            reference,
            "threads {threads}"
        );
    }
}

#[test]
fn batch_respects_ptk_threads_env_sizing() {
    // The CI matrix runs this suite under PTK_THREADS=1 and PTK_THREADS=4;
    // this test pins that the env-sized pool produces the same answers as
    // an explicit single worker, whatever the variable says.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b49);
    let view = random_view(&mut rng, 12);
    let batch = PtkPlan::batch(&matrix_batch(&mut rng));
    let env_pool = ThreadPool::from_env();
    assert_eq!(env_pool.threads(), threads_from_env(1));
    let from_env = PtkExecutor::execute_batch(&batch, &view, &env_pool);
    let single = PtkExecutor::execute_batch(&batch, &view, &ThreadPool::new(1));
    for (q, (a, b)) in from_env.iter().zip(&single).enumerate() {
        assert_results_bit_identical(a, b, &format!("env pool query {q}"));
    }
}

#[test]
fn batch_works_over_sorted_vec_snapshots() {
    // The other SnapshotSource implementation: forked cursors over an
    // owned sorted list feed the same batch machinery.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4a);
    let rows: Vec<(f64, f64, Option<u32>)> = (0..20)
        .map(|i| {
            let rule = if rng.random_bool(0.3) {
                Some(rng.random_range(0..3u32))
            } else {
                None
            };
            (20.0 - i as f64, rng.random_range(0.05..=0.3f64), rule)
        })
        .collect();
    let source = ptk_access::SortedVecSource::from_unsorted(rows).unwrap();
    let plans: Vec<PtkPlan> = [(2, 0.1), (3, 0.2), (5, 0.05), (1, 0.5)]
        .iter()
        .map(|&(k, p)| PtkPlan::try_new(k, p, &EngineOptions::default()).unwrap())
        .collect();
    let batch = PtkPlan::batch(&plans);

    let sequential: Vec<PtkResult> = plans
        .iter()
        .map(|plan| {
            let mut s = source.clone();
            PtkExecutor::new(plan).execute(&mut s)
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let parallel = PtkExecutor::execute_batch(&batch, &source, &ThreadPool::new(threads));
        for (q, (a, b)) in parallel.iter().zip(&sequential).enumerate() {
            assert_results_bit_identical(a, b, &format!("threads {threads} query {q}"));
        }
    }
}

/// A deep ranked view with *clustered* rules (members a few ranks apart):
/// rank-local rules, on which the DP arena keeps only the rows after the
/// first open rule-tuple and compacts many times over one scan.
fn deep_view(rng: &mut StdRng, n: usize) -> RankedView {
    let mut probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=0.95f64)).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut pos = 0usize;
    while pos + 12 < n {
        if rng.random_bool(0.3) {
            let size = rng.random_range(2..=4usize);
            let stride = rng.random_range(1..=3usize);
            let group: Vec<usize> = (0..size).map(|j| pos + j * stride).collect();
            for &g in &group {
                // Keep every rule's mass safely below 1.
                probs[g] = rng.random_range(0.05..=0.24);
            }
            pos = group.last().copied().unwrap() + 1 + rng.random_range(0..=2usize);
            groups.push(group);
        } else {
            pos += 1;
        }
    }
    RankedView::from_ranked_probs(&probs, &groups).unwrap()
}

#[test]
fn skewed_batch_with_deep_scan_is_bit_identical_under_stealing() {
    // The adversarial shape: one k=50 pruning-off deep scan among cheap
    // k=2 queries, every plan a task of its own; under deterministic
    // stealing the answers, stats, merged snapshot and logical traces must
    // all be bit-identical at every pool width.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4c);
    let view = deep_view(&mut rng, 600);
    let plans = vec![
        PtkPlan::try_new(2, 0.3, &EngineOptions::default()).unwrap(),
        PtkPlan::try_new(2, 0.3, &EngineOptions::without_pruning(SharingVariant::Rc)).unwrap(),
        PtkPlan::try_new(
            2,
            0.4,
            &EngineOptions::without_pruning(SharingVariant::Aggressive),
        )
        .unwrap(),
        PtkPlan::try_new(
            50,
            0.2,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        )
        .unwrap(),
        PtkPlan::try_new(2, 0.5, &EngineOptions::with_variant(SharingVariant::Lazy)).unwrap(),
        PtkPlan::try_new(
            3,
            0.25,
            &EngineOptions::without_pruning(SharingVariant::Lazy),
        )
        .unwrap(),
    ];
    let batch = PtkPlan::batch(&plans);

    let sequential: Vec<PtkResult> = plans
        .iter()
        .map(|plan| {
            let mut source = ptk_access::ViewSource::new(&view);
            PtkExecutor::new(plan).execute(&mut source)
        })
        .collect();
    let mut reference = ptk_obs::Snapshot::default();
    for plan in &plans {
        let metrics = Metrics::new();
        let mut source = ptk_access::ViewSource::new(&view);
        let _ = PtkExecutor::with_recorder(plan, &metrics).execute(&mut source);
        reference.merge(&metrics.snapshot());
    }
    let (_, _, trace_reference) = traced_batch(&batch, &view, &ThreadPool::new(1), 1 << 14);
    let trace_reference = ptk_obs::render_logical(&trace_reference);

    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let results = PtkExecutor::execute_batch(&batch, &view, &pool);
        for (q, (a, b)) in results.iter().zip(&sequential).enumerate() {
            assert_results_bit_identical(a, b, &format!("skewed threads {threads} query {q}"));
        }

        let (recorded, merged) = PtkExecutor::execute_batch_recorded(&batch, &view, &pool);
        for (q, (a, b)) in recorded.iter().zip(&sequential).enumerate() {
            assert_results_bit_identical(
                a,
                b,
                &format!("skewed recorded threads {threads} query {q}"),
            );
        }
        assert_eq!(
            merged.to_json(false),
            reference.to_json(false),
            "skewed merged snapshot, threads {threads}"
        );
        if threads == 1 {
            assert_eq!(merged.scheduler_value("batch.workers_spawned"), 0);
        }

        let (traced, _, events) = traced_batch(&batch, &view, &pool, 1 << 14);
        for (q, (a, b)) in traced.iter().zip(&sequential).enumerate() {
            assert_results_bit_identical(
                a,
                b,
                &format!("skewed traced threads {threads} query {q}"),
            );
        }
        assert_eq!(
            ptk_obs::render_logical(&events),
            trace_reference,
            "skewed traces, threads {threads}"
        );
    }
}

#[test]
fn deep_snapshot_scan_matches_sequential_for_every_variant() {
    // A single pruning-off deep scan over a shared snapshot must reproduce
    // the sequential executor bit for bit at every pool width —
    // probabilities, answers, and the full ExecStats (dp_cells,
    // entries_recomputed, rules_compressed) — for all three sharing
    // variants.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4d);
    let view = deep_view(&mut rng, 640);
    for variant in [
        SharingVariant::Rc,
        SharingVariant::Aggressive,
        SharingVariant::Lazy,
    ] {
        let options = EngineOptions::without_pruning(variant);
        for k in [1usize, 2, 7, 50] {
            let plan = PtkPlan::try_new(k, 0.25, &options).unwrap();
            let mut source = ptk_access::ViewSource::new(&view);
            let sequential = PtkExecutor::new(&plan).execute(&mut source);
            for threads in [1usize, 2, 4, 8] {
                let pool = ThreadPool::new(threads);
                let result = PtkExecutor::new(&plan).execute_snapshot(&view, &pool);
                assert_results_bit_identical(
                    &result,
                    &sequential,
                    &format!("{variant:?} k={k} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn snapshot_scan_records_and_traces_as_a_fork() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4e);
    let view = deep_view(&mut rng, 600);
    let plan = PtkPlan::try_new(
        10,
        0.2,
        &EngineOptions::without_pruning(SharingVariant::Lazy),
    )
    .unwrap();
    let pool = ThreadPool::new(4);

    // Recorded: the plan runs the sequential scan on its own fork, inline
    // even on a wide pool, as a one-plan batch.
    let metrics = Metrics::new();
    let _ = PtkExecutor::with_recorder(&plan, &metrics).execute_snapshot(&view, &pool);
    let snap = metrics.snapshot();
    assert!(snap.timings.contains_key("engine.query"));
    assert!(snap.timings.contains_key("engine.phase.dp"));
    assert!(snap.timings.contains_key("engine.phase.retrieval"));
    assert!(snap.counter("engine.scanned") > 0);
    let batch = PtkPlan::batch(std::slice::from_ref(&plan));
    let (_, batched) = PtkExecutor::execute_batch_recorded(&batch, &view, &pool);
    assert_eq!(batched.scheduler_value("batch.workers_spawned"), 0);

    // Traced: the plan runs whole on its own fork at every width, so the
    // logical rendering is exactly the sequential scan's.
    let render = |run: &dyn Fn(&Metrics)| {
        let sink = Arc::new(RingSink::new(1 << 14));
        let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
        let metrics = Metrics::counters_only().with_tracer(tracer);
        run(&metrics);
        ptk_obs::render_logical(&sink.events())
    };
    let reference = render(&|metrics| {
        let _ = PtkExecutor::with_recorder(&plan, metrics).execute(view.fork().as_mut());
    });
    assert!(reference.contains("B query"), "{reference}");
    assert!(reference.contains("B retrieval"), "{reference}");
    for threads in [1usize, 2, 4, 8] {
        let traced = render(&|metrics| {
            let _ = PtkExecutor::with_recorder(&plan, metrics)
                .execute_snapshot(&view, &ThreadPool::new(threads));
        });
        assert_eq!(traced, reference, "threads {threads}");
    }
}

#[test]
fn single_thread_recorded_batch_never_touches_the_pool() {
    // At one worker the batch runs every task inline on the caller's
    // thread with one shared registry — the scheduler section proves no
    // worker was spawned, and the snapshot still matches the wide run's
    // bit for bit.
    let mut rng = StdRng::seed_from_u64(0x5eed_0b4f);
    let view = random_view(&mut rng, 14);
    let batch = PtkPlan::batch(&matrix_batch(&mut rng));
    let (_, merged) = PtkExecutor::execute_batch_recorded(&batch, &view, &ThreadPool::new(1));
    assert_eq!(merged.scheduler_value("batch.workers_spawned"), 0);
    assert_eq!(merged.scheduler_value("batch.steals"), 0);
    assert_eq!(merged.scheduler_value("batch.tasks"), batch.len() as u64);

    let (_, wide) = PtkExecutor::execute_batch_recorded(&batch, &view, &ThreadPool::new(4));
    assert!(wide.scheduler_value("batch.workers_spawned") > 0);
    assert_eq!(
        wide.to_json(false),
        merged.to_json(false),
        "scheduler facts must stay out of deterministic renderings"
    );
}
