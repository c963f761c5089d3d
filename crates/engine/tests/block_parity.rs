//! Block-boundary pruning parity: a paged scan over a run file must be
//! bit-identical to the in-memory paths — same answers, same `Pr^k` bits,
//! same `ExecStats` (scan depth, prune counters, stop reason) — across
//! RC / RC+AR / RC+LR × pruning on/off × block sizes {1 KiB, 4 KiB,
//! 64 KiB}, and the block-skip fast path must actually fire
//! (non-vacuously) on the skewed workload. The other ranking semantics
//! page to the in-memory source's bits too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ptk_access::{counters, PagedRun, PoolConfig, RankedSource, SortedVecSource};
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{
    evaluate_ptk, EngineOptions, ExecStats, PtkExecutor, PtkPlan, PtkResult, RankSemantics,
    SemanticsAnswer, SharingVariant,
};
use ptk_obs::{Metrics, RingSink, SharedRecorder, SharedSink, Tracer};

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
fn temp() -> TempFile {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    TempFile(std::env::temp_dir().join(format!("ptk-parity-{}-{n}.run", std::process::id())))
}

/// Random rows: (score, prob, rule). Rules pair adjacent rows with legal
/// mass; scores are distinct so the ranked order is unambiguous.
fn random_rows(rng: &mut StdRng, max_n: usize) -> Vec<(f64, f64, Option<u32>)> {
    let n = rng.random_range(1..=max_n);
    let mut rows = Vec::with_capacity(n);
    let mut next_rule = 0u32;
    let mut i = 0;
    while i < n {
        let score = (n - i) as f64 + rng.random_range(0.0..0.5f64);
        if i + 1 < n && rng.random_range(0.0..1.0f64) < 0.4 {
            let a = rng.random_range(0.05..0.5f64);
            let b = rng.random_range(0.05..0.5f64);
            let score2 = score - rng.random_range(0.1..0.4f64);
            rows.push((score, a, Some(next_rule)));
            rows.push((score2, b, Some(next_rule)));
            next_rule += 1;
            i += 2;
        } else {
            rows.push((score, rng.random_range(0.05..=1.0f64), None));
            i += 1;
        }
    }
    rows
}

/// A deep-scan workload shaped to trigger block skips: a head of
/// high-probability tuples (whose failures raise the Theorem 3 bound)
/// with a few rule pairs, then a long rule-free tail of low-probability
/// tuples — rank-clustered exactly like the bench's clustered regime.
fn skewed_rows(rng: &mut StdRng, tail: usize) -> Vec<(f64, f64, Option<u32>)> {
    let head = rng.random_range(8..=16usize);
    let n = head + tail;
    let mut rows = Vec::with_capacity(n);
    let mut next_rule = 0u32;
    for i in 0..head {
        let score = (n - i) as f64;
        if i % 5 == 3 {
            rows.push((score, rng.random_range(0.2..0.45f64), Some(next_rule)));
            rows.push((score - 0.5, rng.random_range(0.2..0.45f64), Some(next_rule)));
            next_rule += 1;
        } else {
            rows.push((score, rng.random_range(0.6..=1.0f64), None));
        }
    }
    while rows.len() < n {
        let i = rows.len();
        rows.push(((n - i) as f64, rng.random_range(0.01..0.2f64), None));
    }
    rows
}

/// Builds the equivalent RankedView for the materialized-engine oracle.
fn view_of(rows: &[(f64, f64, Option<u32>)]) -> (RankedView, Vec<usize>) {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[b].0.total_cmp(&rows[a].0).then(a.cmp(&b)));
    let probs: Vec<f64> = order.iter().map(|&i| rows[i].1).collect();
    let mut groups_by_key: std::collections::HashMap<u32, Vec<usize>> =
        std::collections::HashMap::new();
    for (pos, &i) in order.iter().enumerate() {
        if let Some(key) = rows[i].2 {
            groups_by_key.entry(key).or_default().push(pos);
        }
    }
    let mut groups: Vec<Vec<usize>> = groups_by_key.into_values().collect();
    groups.sort();
    (
        RankedView::from_ranked_probs(&probs, &groups).unwrap(),
        order,
    )
}

const BLOCK_SIZES: [u32; 3] = [1 << 10, 4 << 10, 64 << 10];

/// The stats with the storage-dependent attribution split erased: the
/// block/tuple membership split depends on the source's layout, while
/// every total must stay bit-identical across layouts.
fn layout_free(stats: &ExecStats) -> ExecStats {
    ExecStats {
        pruned_membership_block: 0,
        ..*stats
    }
}

/// The pruning-attribution contract: the split counters must sum exactly
/// to the pre-existing totals — on the struct and through the recorded
/// counter names (the form flight records carry).
fn assert_attribution_sums(stats: &ExecStats, ctx: &str) {
    assert_eq!(
        stats.pruned_membership_tuple() + stats.pruned_membership_block,
        stats.pruned_membership,
        "{ctx}: membership attribution must sum to the total"
    );
    assert_eq!(
        stats.pruned_rule_whole + stats.pruned_rule_member(),
        stats.pruned_rule,
        "{ctx}: rule attribution must sum to the total"
    );
    let metrics = Metrics::new();
    stats.record_to(&metrics);
    let s = metrics.snapshot();
    assert_eq!(
        s.counter("engine.pruned_membership.tuple") + s.counter("engine.pruned_membership.block"),
        s.counter("engine.pruned_membership"),
        "{ctx}: recorded membership attribution must sum to the total"
    );
    assert_eq!(
        s.counter("engine.pruned_rule.whole") + s.counter("engine.pruned_rule.member"),
        s.counter("engine.pruned_rule"),
        "{ctx}: recorded rule attribution must sum to the total"
    );
}

/// Runs one (rows, k, p, options, block size) cell: paged scan vs.
/// `SortedVecSource` vs. the materialized view engine, all bit-compared.
/// Returns the number of block skips the paged scan recorded.
fn check_cell(
    rows: &[(f64, f64, Option<u32>)],
    k: usize,
    p: f64,
    options: &EngineOptions,
    block_size: u32,
    ctx: &str,
) -> u64 {
    let (view, order) = view_of(rows);
    let batch = evaluate_ptk(&view, k, p, options);
    let plan = PtkPlan::try_new(k, p, options).unwrap();
    let mut vec_source = SortedVecSource::from_unsorted(rows.to_vec()).unwrap();
    let stream = PtkExecutor::new(&plan).execute(&mut vec_source);

    let f = temp();
    ptk_access::write_run_blocked(&f.0, rows, block_size).unwrap();
    let metrics = Arc::new(Metrics::new());
    let run = PagedRun::open_recorded(
        &f.0,
        PoolConfig {
            frames: 3,
            frame_bytes: 64 << 10,
        },
        Arc::clone(&metrics) as SharedRecorder,
    )
    .unwrap();
    let mut cursor = run.cursor();
    let paged = PtkExecutor::new(&plan).execute(&mut cursor);

    // Paged vs. streamed over the same raw rows: everything bit-identical,
    // including the scores carried on answers and the scan depth the
    // source itself reports. The one storage-dependent stat is the
    // *attribution* of membership prunes to block grain: only a
    // block-native source can decide a prune without decoding, so the
    // block/tuple split may differ across layouts while the totals (and
    // everything else) must not.
    assert_eq!(
        stream.stats.pruned_membership_block, 0,
        "{ctx}: an in-memory stream cannot skip at block grain"
    );
    assert_attribution_sums(&paged.stats, ctx);
    assert_attribution_sums(&stream.stats, ctx);
    assert_eq!(
        layout_free(&paged.stats),
        layout_free(&stream.stats),
        "{ctx}: stats (paged vs stream)"
    );
    assert_eq!(cursor.retrieved(), vec_source.retrieved(), "{ctx}: depth");
    assert_eq!(paged.answers.len(), stream.answers.len(), "{ctx}");
    for (a, b) in paged.answers.iter().zip(&stream.answers) {
        assert_eq!(a.rank, b.rank, "{ctx}: answer rank");
        assert_eq!(a.id, b.id, "{ctx}: answer id");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}: score bits");
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{ctx}: Pr^k bits {} vs {}",
            a.probability,
            b.probability
        );
    }
    assert_eq!(
        paged.probabilities.len(),
        stream.probabilities.len(),
        "{ctx}: probabilities length"
    );
    for (rank, (a, b)) in paged
        .probabilities
        .iter()
        .zip(&stream.probabilities)
        .enumerate()
    {
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{ctx}: Pr^k at rank {rank}"
        );
    }

    // Paged vs. the materialized view engine (the ISSUE's in-memory
    // `RankedView` oracle): same stats, ranks, ids and probability bits
    // (view scores are position stand-ins, so they are not compared).
    assert_eq!(
        layout_free(&paged.stats),
        layout_free(&batch.stats),
        "{ctx}: stats (paged vs view)"
    );
    assert_eq!(paged.answers.len(), batch.answers.len(), "{ctx}");
    for (a, b) in paged.answers.iter().zip(&batch.answers) {
        assert_eq!(a.rank, b.rank, "{ctx}: view answer rank");
        assert_eq!(a.id.index(), order[b.rank], "{ctx}: view answer id");
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{ctx}: view Pr^k bits"
        );
    }

    let snap = metrics.snapshot();
    let skipped = snap.counter(counters::BLOCK_SKIP);
    let read = snap.counter(counters::BLOCK_READ);
    if !options.pruning {
        assert_eq!(skipped, 0, "{ctx}: skips need pruning");
    }
    // Every consumed record was either fully decoded or stripe-skipped.
    assert!(
        snap.counter(counters::BLOCK_DECODE_BYTES) <= cursor.retrieved() as u64 * 24,
        "{ctx}: decode bytes bounded by full decode"
    );
    assert!(
        read + skipped > 0 || rows.is_empty(),
        "{ctx}: blocks touched"
    );
    skipped
}

#[test]
fn paged_scan_is_bit_identical_across_the_matrix() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for trial in 0..10 {
        let rows = random_rows(&mut rng, 120);
        let k = rng.random_range(1..=4usize);
        let p = rng.random_range(0.1..0.9f64);
        for pruning in [false, true] {
            for variant in [
                SharingVariant::Rc,
                SharingVariant::Aggressive,
                SharingVariant::Lazy,
            ] {
                let options = EngineOptions {
                    variant,
                    pruning,
                    ub_check_interval: 2,
                };
                for bs in BLOCK_SIZES {
                    let ctx = format!(
                        "trial {trial} k={k} p={p:.3} {variant:?} pruning={pruning} bs={bs}"
                    );
                    check_cell(&rows, k, p, &options, bs, &ctx);
                }
            }
        }
    }
}

#[test]
fn block_skips_fire_and_answers_stay_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xb10d);
    let mut total_skips = 0u64;
    for trial in 0..8 {
        let rows = skewed_rows(&mut rng, 300);
        let k = rng.random_range(2..=4usize);
        // Threshold-heavy: high p makes the high-probability head fail,
        // raising the Theorem 3 bound over the whole tail.
        let p = rng.random_range(0.75..0.95f64);
        for variant in [
            SharingVariant::Rc,
            SharingVariant::Aggressive,
            SharingVariant::Lazy,
        ] {
            let options = EngineOptions {
                variant,
                pruning: true,
                ub_check_interval: 64,
            };
            for bs in BLOCK_SIZES {
                let ctx = format!("trial {trial} k={k} p={p:.3} {variant:?} bs={bs}");
                total_skips += check_cell(&rows, k, p, &options, bs, &ctx);
            }
        }
    }
    assert!(
        total_skips > 0,
        "the skewed workload must exercise the block-skip fast path"
    );
}

#[test]
fn skip_decisions_respect_upper_bound_checkpoints() {
    // A tighter upper-bound interval forces the skip path to chunk blocks
    // at checkpoint boundaries; answers and stop reasons must not move.
    let mut rng = StdRng::seed_from_u64(0xb10e);
    for trial in 0..6 {
        let rows = skewed_rows(&mut rng, 200);
        for interval in [1usize, 3, 7, 64] {
            let options = EngineOptions {
                variant: SharingVariant::Lazy,
                pruning: true,
                ub_check_interval: interval,
            };
            let ctx = format!("trial {trial} interval={interval}");
            check_cell(&rows, 3, 0.85, &options, 1 << 10, &ctx);
        }
    }
}

/// Runs `plan` over `source` with a tracer attached: the result and the
/// scan's logical trace.
fn traced_scan<S: RankedSource + ?Sized>(plan: &PtkPlan, source: &mut S) -> (PtkResult, String) {
    let sink = Arc::new(RingSink::new(1 << 12));
    let tracer = Tracer::new(Arc::clone(&sink) as SharedSink, 0, 0);
    let metrics = Metrics::counters_only().with_tracer(tracer);
    let result = PtkExecutor::with_recorder(plan, &metrics).execute(source);
    (result, ptk_obs::render_logical(&sink.events()))
}

#[test]
fn a_traced_block_skip_renders_the_in_memory_trace() {
    // A skipped stripe is replayed in one step, with one prune mark per
    // record: the paged scan's logical trace must equal the in-memory
    // scan's, mark for mark and rank for rank.
    let mut rng = StdRng::seed_from_u64(0xb10f);
    let mut block_pruned = 0usize;
    for trial in 0..8 {
        let rows = skewed_rows(&mut rng, 300);
        let k = rng.random_range(2..=4usize);
        let p = rng.random_range(0.75..0.95f64);
        for variant in [
            SharingVariant::Rc,
            SharingVariant::Aggressive,
            SharingVariant::Lazy,
        ] {
            let options = EngineOptions {
                variant,
                pruning: true,
                ub_check_interval: 64,
            };
            let plan = PtkPlan::try_new(k, p, &options).unwrap();
            let mut memory = SortedVecSource::from_unsorted(rows.clone()).unwrap();
            let (_, reference) = traced_scan(&plan, &mut memory);
            assert!(reference.contains("i prune"), "{reference}");
            for bs in [1 << 10, 4 << 10] {
                let ctx = format!("trial {trial} k={k} p={p:.3} {variant:?} bs={bs}");
                let f = temp();
                ptk_access::write_run_blocked(&f.0, &rows, bs).unwrap();
                let run = PagedRun::open(
                    &f.0,
                    PoolConfig {
                        frames: 2,
                        frame_bytes: 64 << 10,
                    },
                )
                .unwrap();
                let (paged, trace) = traced_scan(&plan, &mut run.cursor());
                assert_eq!(trace, reference, "{ctx}");
                block_pruned += paged.stats.pruned_membership_block;
            }
        }
    }
    // 528 records are pruned at block grain across the cells.
    assert!(block_pruned > 0, "no traced scan skipped a block");
}

/// Runs `semantics` over `source`: the answer's rows as `(position, id,
/// value bits)`, U-TopK's vector probability bits (0 otherwise) and the
/// run's stats.
fn semantics_run(
    source: &mut dyn RankedSource,
    semantics: RankSemantics,
    k: usize,
    options: &EngineOptions,
) -> (Vec<(usize, usize, u64)>, u64, ExecStats) {
    let plan = PtkPlan::try_semantics(semantics, k, None, options).unwrap();
    let metrics = Metrics::new();
    let answer = PtkExecutor::with_recorder(&plan, &metrics)
        .execute_semantics(source)
        .unwrap();
    let rows = answer
        .rows()
        .expect("non-PT-k answer")
        .iter()
        .map(|r| (r.position, r.id.index(), r.value.to_bits()))
        .collect();
    let probability = match answer {
        SemanticsAnswer::UTopK { probability, .. } => probability.to_bits(),
        _ => 0,
    };
    (
        rows,
        probability,
        ExecStats::from_snapshot(&metrics.snapshot()),
    )
}

/// U-TopK, U-KRanks, Global-Topk and expected rank over a paged run with
/// two frames answer like a `SortedVecSource` over the same rows: answer
/// rows (position, id, value bits) and `ExecStats` equal at every block
/// size, under RC+LR pruned and unpruned and under RC, on synthetic tables
/// with uniform and clustered rules.
#[test]
fn paged_semantics_scans_match_the_in_memory_source() {
    let semantics = [
        RankSemantics::UTopK,
        RankSemantics::UKRanks,
        RankSemantics::GlobalTopk,
        RankSemantics::ExpectedRank,
    ];
    let options = [
        ("RC+LR", EngineOptions::default()),
        (
            "RC+LR unpruned",
            EngineOptions::without_pruning(SharingVariant::Lazy),
        ),
        (
            "RC",
            EngineOptions {
                variant: SharingVariant::Rc,
                ..EngineOptions::default()
            },
        ),
    ];
    let mut stopped = 0;
    for seed in 0..6u64 {
        let placement = if seed % 2 == 0 {
            RulePlacement::Uniform
        } else {
            RulePlacement::Clustered { span: 12 }
        };
        let view = SyntheticDataset::generate(&SyntheticConfig {
            tuples: 400,
            rules: 50,
            seed: 0xb111 + seed,
            rule_size_mean: 3.0,
            rule_size_sd: 1.0,
            placement,
            ..SyntheticConfig::default()
        })
        .view;
        // Scores fall with the position, so the run's order is the view's.
        let n = view.len();
        let rows: Vec<(f64, f64, Option<u32>)> = (0..n)
            .map(|pos| {
                let t = view.tuple(pos);
                ((n - pos) as f64, t.prob, t.rule.map(|h| h.index() as u32))
            })
            .collect();
        let files: Vec<TempFile> = BLOCK_SIZES
            .iter()
            .map(|&bs| {
                let f = temp();
                ptk_access::write_run_blocked(&f.0, &rows, bs).unwrap();
                f
            })
            .collect();
        let runs: Vec<PagedRun> = files
            .iter()
            .map(|f| {
                let pool = PoolConfig {
                    frames: 2,
                    frame_bytes: 64 << 10,
                };
                PagedRun::open(&f.0, pool).unwrap()
            })
            .collect();
        for k in [1, 5, 20] {
            for (name, options) in &options {
                for semantics in semantics {
                    let mut memory = SortedVecSource::from_unsorted(rows.clone()).unwrap();
                    let reference = semantics_run(&mut memory, semantics, k, options);
                    stopped += usize::from(reference.2.scanned < n);
                    for (run, bs) in runs.iter().zip(BLOCK_SIZES) {
                        let ctx = format!("seed {seed} k={k} {name} {semantics:?} bs={bs}");
                        let mut cursor = run.cursor();
                        let paged = semantics_run(&mut cursor, semantics, k, options);
                        assert_eq!(paged.0, reference.0, "{ctx}: answer rows");
                        assert_eq!(paged.1, reference.1, "{ctx}: vector probability");
                        assert_eq!(paged.2, reference.2, "{ctx}: stats");
                        assert_eq!(cursor.retrieved(), memory.retrieved(), "{ctx}: depth");
                        assert!(cursor.take_error().is_none(), "{ctx}");
                    }
                }
            }
        }
    }
    assert!(stopped > 0, "no semantics scan stopped early");
}
