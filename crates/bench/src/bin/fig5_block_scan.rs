//! Block-native paged scan vs. the in-memory streamed baseline on the
//! clustered deep-scan workload: a short strong head keeps the retained
//! mass under `k`, a few decoy failures raise the Theorem 3(1)
//! membership bound over the whole tail, after which every rule-free
//! low-probability block can skip its full decode (only the 8-byte
//! probability stripe of each record is read, of 24). The run reports,
//! per block size, the blocks read vs. skipped, the decoded bytes against
//! what a skip-free scan of the same depth would decode, and each lap's
//! buffer-pool hits and misses, and writes `BENCH_block_scan.json`.
//!
//! Gates (enforced when `PTK_BENCH_GATE` is set, reported otherwise), at
//! the default 4 KiB block size:
//! * the paged scan must skip at least one block and decode <= 70% of the
//!   bytes a full decode of the same scan depth costs — i.e. the
//!   stripe-skip must save >= 30%;
//! * the pool must keep the scan's leading blocks resident: the laps
//!   share one `PagedRun`, and every lap after the first hits exactly
//!   `min(D, POOL_FRAMES - 1)` blocks and misses the other
//!   `max(0, D - (POOL_FRAMES - 1))`, where `D` is the first lap's miss
//!   count (the blocks the scan touches).

use std::sync::Arc;

use ptk_access::{
    counters, write_run_blocked, PagedRun, PoolConfig, RankedSource, SortedVecSource,
    DEFAULT_FRAME_BYTES,
};
use ptk_bench::{time_ms, BenchRecord, Report};
use ptk_datagen::{deep_scan_rows, DeepScanConfig};
use ptk_engine::{EngineOptions, ExecStats, PtkExecutor, PtkPlan};
use ptk_obs::{Metrics, SharedRecorder};

const K: usize = 100;
const P: f64 = 0.5;
const REPS: usize = 5;
/// Small on purpose: fewer frames than the blocks a scan touches, so the
/// pool evicts; rank-priority replacement keeps the first
/// `POOL_FRAMES - 1` of them resident from one lap to the next.
const POOL_FRAMES: usize = 8;

fn main() {
    let config = DeepScanConfig {
        head: 48,
        decoys: 4,
        tail: 100_000,
        head_rules: 4,
        seed: 17,
    };
    let rows = deep_scan_rows(&config);
    let plan = PtkPlan::try_new(K, P, &EngineOptions::default()).expect("a valid PT-k plan");
    let executor = PtkExecutor::new(&plan);

    // In-memory streamed baseline (also the parity oracle).
    let mut baseline_ms = Vec::with_capacity(REPS);
    let mut oracle = None;
    let mut oracle_depth = 0usize;
    for _ in 0..REPS {
        let mut source = SortedVecSource::from_unsorted(rows.clone()).unwrap();
        let (result, ms) = time_ms(|| executor.execute(&mut source));
        baseline_ms.push(ms);
        oracle_depth = source.retrieved();
        oracle = Some(result);
    }
    let oracle = oracle.unwrap();

    let mut report = Report::new(
        "fig5_block_scan",
        &[
            "block size",
            "blocks read",
            "blocks skipped",
            "decoded B",
            "full-decode B",
            "saved",
            "pool hits per lap",
            "pool misses per lap",
            "median_ms",
        ],
    );
    report.row(&[
        &"in-memory",
        &"-",
        &"-",
        &"-",
        &"-",
        &"-",
        &"-",
        &"-",
        &format!("{:.1}", median(&mut baseline_ms)),
    ]);

    let mut bench = BenchRecord::new("block_scan");
    let mut gate_saved = f64::NAN;
    let mut gate_skips = 0u64;
    let mut gate_pool = (Vec::new(), Vec::new());
    let mut pool_json = Vec::new();
    for block_size in [1u32 << 10, 4 << 10, 64 << 10] {
        let path = std::env::temp_dir().join(format!(
            "ptk-bench-block-scan-{}-{block_size}.run",
            std::process::id()
        ));
        write_run_blocked(&path, &rows, block_size).unwrap();
        let metrics = Arc::new(Metrics::new());
        let run = PagedRun::open_recorded(
            &path,
            PoolConfig {
                frames: POOL_FRAMES,
                frame_bytes: DEFAULT_FRAME_BYTES,
            },
            Arc::clone(&metrics) as SharedRecorder,
        )
        .unwrap();
        let mut laps = Vec::with_capacity(REPS);
        let (mut hits, mut misses) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
        for _ in 0..REPS {
            let before = metrics.snapshot();
            let mut cursor = run.cursor();
            let (result, ms) = time_ms(|| executor.execute(&mut cursor));
            laps.push(ms);
            let after = metrics.snapshot();
            let delta = |name| after.counter(name) - before.counter(name);
            hits.push(delta(counters::POOL_HIT));
            misses.push(delta(counters::POOL_MISS));
            if block_size == 4 << 10 {
                bench.lap_ms(ms);
            }
            // Paged answers are bit-identical to the in-memory path. Only
            // the attribution split of membership prunes to whole skipped
            // blocks differs, by design: the in-memory scan has no blocks.
            assert_eq!(
                layout_free(&result.stats),
                layout_free(&oracle.stats),
                "stats diverged"
            );
            assert_eq!(cursor.retrieved(), oracle_depth, "scan depth diverged");
            assert_eq!(result.answers.len(), oracle.answers.len());
            for (a, b) in result.answers.iter().zip(&oracle.answers) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
        let snapshot = metrics.snapshot();
        // Counters accumulate across reps; report one rep's share.
        let read = snapshot.counter(counters::BLOCK_READ) / REPS as u64;
        let skipped = snapshot.counter(counters::BLOCK_SKIP) / REPS as u64;
        let decoded = snapshot.counter(counters::BLOCK_DECODE_BYTES) / REPS as u64;
        let full = oracle_depth as u64 * 24;
        let saved = 1.0 - decoded as f64 / full as f64;
        // A `Vec<u64>`'s debug form is a JSON array.
        pool_json.push(format!(
            "\"{block_size}\":{{\"hit\":{hits:?},\"miss\":{misses:?}}}"
        ));
        report.row(&[
            &format!("{block_size} B"),
            &read,
            &skipped,
            &decoded,
            &full,
            &format!("{:.1}%", saved * 100.0),
            &spaced(&hits),
            &spaced(&misses),
            &format!("{:.1}", median(&mut laps)),
        ]);
        if block_size == 4 << 10 {
            bench.set_metrics(snapshot);
            gate_saved = saved;
            gate_skips = skipped;
            gate_pool = (hits, misses);
        }
        let _ = std::fs::remove_file(&path);
    }
    report.finish();
    bench.field("pool", format!("{{{}}}", pool_json.join(",")));
    bench.write();

    println!(
        "\nblock skip at 4 KiB: {gate_skips} blocks skipped, {:.1}% of decode bytes saved \
         (gate: skips > 0, saved >= 30%)",
        gate_saved * 100.0
    );
    // The first lap fetches every block it touches; later laps find the
    // leading `POOL_FRAMES - 1` of them resident.
    let (hits, misses) = gate_pool;
    let touched = misses[0];
    let resident = touched.min(POOL_FRAMES as u64 - 1);
    let kept = hits[1..].iter().all(|&h| h == resident)
        && misses[1..].iter().all(|&m| m == touched - resident);
    println!(
        "pool at 4 KiB: the first lap misses {touched} blocks; later laps hit {:?} and miss {:?} \
         (gate: hit {resident}, miss {} each)",
        &hits[1..],
        &misses[1..],
        touched - resident
    );
    if std::env::var_os("PTK_BENCH_GATE").is_some() {
        assert!(
            gate_skips > 0,
            "paged scan skipped no blocks on the deep-scan workload"
        );
        assert!(
            gate_saved >= 0.30,
            "decode-byte saving {:.1}% < 30%",
            gate_saved * 100.0
        );
        assert!(
            kept,
            "the pool did not keep the leading {resident} blocks resident across laps"
        );
    }
    println!("fig5_block_scan: done");
}

/// `stats` with the block attribution of membership prunes erased; every
/// other field, the `pruned_membership` total included, stays exact.
fn layout_free(stats: &ExecStats) -> ExecStats {
    ExecStats {
        pruned_membership_block: 0,
        ..*stats
    }
}

/// `values` separated by spaces: a table cell the report's CSV keeps
/// whole.
fn spaced(values: &[u64]) -> String {
    let text: Vec<String> = values.iter().map(u64::to_string).collect();
    text.join(" ")
}

fn median(laps: &mut [f64]) -> f64 {
    laps.sort_by(f64::total_cmp);
    laps[laps.len() / 2]
}
