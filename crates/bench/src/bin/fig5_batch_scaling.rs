//! Batch-executor thread scaling on the Figure 5 default workload, plus a
//! deep-scan (pruning-off) workload of a few expensive plans.
//!
//! Two batches run over the default synthetic dataset:
//!
//! * **default** — a k × p cross product with the §4.4 pruning rules on,
//!   the original Figure 5 batch. Parallelism here is inter-query: whole
//!   plans are claimed by workers through the deterministic work-stealing
//!   scheduler.
//! * **deep scan** — pruning disabled (`EngineOptions::without_pruning`),
//!   so every plan evaluates all tuples: four long plans, each a task of
//!   its own, so the batch splits across at most four workers. The deep
//!   batch runs over a *clustered* variant of the dataset
//!   (`RulePlacement::Clustered`, rule members inside random
//!   `DEEP_SPAN`-rank windows) — the rank-local regime of entity-grouped
//!   x-relations, where each scan's DP arena stays a short stretch of rows
//!   however deep the scan goes.
//!
//! Every width must return bit-identical answers — the pool only changes
//! wall-clock time — and the run asserts exactly that against the
//! single-threaded reference on every lap.
//!
//! Writes `target/experiments/BENCH_batch_scaling.json`: per-width laps
//! with median/IQR for both workloads, the speedup of each width over one
//! thread, and the timing-free merged metrics snapshot (identical at every
//! width, so the artifact stays diffable across machines).
//!
//! Set `PTK_ASSERT_SCALING=<ratio>` to fail the run unless the 4-thread
//! median of **each** workload is at least `<ratio>`× faster than 1 thread
//! (single-core CI uses a coarse `1.0` gate; meaningful speedups need a
//! multi-core host, where the dedicated CI job demands `1.5`). On failure
//! the run names the bottleneck stage — the `engine.phase.*` span with the
//! largest recorded total at 4 threads — and prints the scheduler and
//! phase counters as a Prometheus excerpt before panicking. Set
//! `PTK_SMOKE=1` for a reduced workload (smaller dataset, fewer laps) so
//! the determinism checks and the gate still run in seconds.

use std::fs;
use std::path::PathBuf;

use ptk_bench::{fmt, sweeps, BenchRecord, Report};
use ptk_datagen::{RulePlacement, SyntheticConfig, SyntheticDataset};
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, PtkResult, SharingVariant};
use ptk_obs::Snapshot;
use ptk_par::ThreadPool;

/// Worker-pool widths to sweep.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Query depths in the batch (a slice of the Figure 5c sweep).
const BATCH_KS: [usize; 4] = [50, 100, 200, 400];
/// Probability thresholds in the batch (a slice of the Figure 5d sweep).
const BATCH_PS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Query depths of the deep-scan (pruning-off) workload.
const DEEP_KS: [usize; 2] = [100, 400];
/// Probability thresholds of the deep-scan workload.
const DEEP_PS: [f64; 2] = [0.3, 0.7];
/// Rank-window width of the deep-scan dataset's clustered rules.
const DEEP_SPAN: usize = 32;

/// Reduced workload for `PTK_SMOKE=1` runs — small enough to finish in
/// seconds, large enough that per-lap work dwarfs thread-spawn overhead
/// (the scaling gate is meaningless on sub-millisecond laps).
const SMOKE_TUPLES: usize = 5_000;
const SMOKE_RULES: usize = 500;
const SMOKE_KS: [usize; 2] = [50, 100];
const SMOKE_DEEP_KS: [usize; 2] = [50, 100];

fn assert_bit_identical(reference: &[PtkResult], candidate: &[PtkResult], width: usize) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "width {width}: batch size"
    );
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(a.answers, b.answers, "width {width}, plan {i}: answers");
        let bits = |r: &PtkResult| -> Vec<Option<u64>> {
            r.probabilities
                .iter()
                .map(|p| p.map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "width {width}, plan {i}: probabilities");
        assert_eq!(a.stats, b.stats, "width {width}, plan {i}: stats");
    }
}

/// One workload swept across every pool width: per-width lap records and
/// the 4-thread recorded snapshot (phase timings + scheduler facts) for
/// gate diagnostics.
struct Sweep {
    records: Vec<(usize, BenchRecord)>,
    wide_snapshot: Snapshot,
}

fn sweep(
    label: &str,
    batch: &ptk_engine::PtkBatch,
    view: &ptk_core::RankedView,
    laps: usize,
) -> Sweep {
    let reference = PtkExecutor::execute_batch(batch, view, &ThreadPool::new(1));
    let mut records = Vec::new();
    for &width in &WIDTHS {
        let pool = ThreadPool::new(width);
        let mut record = BenchRecord::new(&format!("batch_scaling_{label}_t{width}"));
        for _ in 0..laps {
            let results = record.time(|| PtkExecutor::execute_batch(batch, view, &pool));
            assert_bit_identical(&reference, &results, width);
        }
        records.push((width, record));
    }
    let (results, wide_snapshot) =
        PtkExecutor::execute_batch_recorded(batch, view, &ThreadPool::new(4));
    assert_bit_identical(&reference, &results, 4);
    Sweep {
        records,
        wide_snapshot,
    }
}

impl Sweep {
    fn speedup_of(&self, width: usize) -> f64 {
        let base = self.records[0].1.median_ms();
        let record = &self
            .records
            .iter()
            .find(|(w, _)| *w == width)
            .expect("swept")
            .1;
        base / record.median_ms()
    }

    fn report(&self, batch_len: usize, report: &mut Report) {
        for (width, record) in &self.records {
            let median = record.median_ms();
            report.row(&[
                width,
                &fmt(median, 3),
                &fmt(record.iqr_ms(), 3),
                &fmt(self.speedup_of(*width), 2),
                &fmt(batch_len as f64 / (median / 1e3), 1),
            ]);
        }
    }

    fn json_records(&self) -> String {
        let sections: Vec<String> = self
            .records
            .iter()
            .map(|(width, record)| format!("\"{width}\":{}", record.to_json()))
            .collect();
        sections.join(",")
    }
}

/// The `engine.phase.*` span with the largest recorded total — the stage a
/// failed scaling gate should blame first.
fn bottleneck_stage(snapshot: &Snapshot) -> (&'static str, u64) {
    snapshot
        .timings
        .iter()
        .filter(|(name, _)| name.starts_with("engine.phase."))
        .max_by_key(|(_, timing)| timing.total_nanos)
        .map_or(("<no phase timings recorded>", 0), |(name, timing)| {
            (name, timing.total_nanos)
        })
}

/// Prints the evidence a failed gate leaves behind: the bottleneck stage
/// and the scheduler/phase counters of the 4-thread run, as the same
/// Prometheus lines `--stats prom` would render.
fn print_gate_diagnostics(label: &str, snapshot: &Snapshot) {
    let (stage, nanos) = bottleneck_stage(snapshot);
    eprintln!(
        "scaling gate diagnostics [{label}]: bottleneck stage is {stage} \
         ({:.1} ms total across workers at 4 threads)",
        nanos as f64 / 1e6
    );
    for line in snapshot
        .to_prometheus()
        .lines()
        .filter(|l| l.starts_with("ptk_batch_") || l.starts_with("ptk_engine_phase_"))
    {
        eprintln!("  {line}");
    }
}

fn main() {
    let smoke = std::env::var("PTK_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let laps: usize = if smoke { 3 } else { 5 };
    let ds = if smoke {
        SyntheticDataset::generate(&SyntheticConfig {
            tuples: SMOKE_TUPLES,
            rules: SMOKE_RULES,
            seed: sweeps::SEED,
            ..Default::default()
        })
    } else {
        sweeps::dataset(0.5, 5.0)
    };
    // The deep-scan dataset: same scale, rank-local (clustered) rules.
    let deep_ds = SyntheticDataset::generate(&SyntheticConfig {
        tuples: if smoke { SMOKE_TUPLES } else { 20_000 },
        rules: if smoke { SMOKE_RULES } else { 2_000 },
        seed: sweeps::SEED,
        placement: RulePlacement::Clustered { span: DEEP_SPAN },
        ..Default::default()
    });
    let ks: &[usize] = if smoke { &SMOKE_KS } else { &BATCH_KS };
    let deep_ks: &[usize] = if smoke { &SMOKE_DEEP_KS } else { &DEEP_KS };
    let view = &ds.view;
    let deep_view = &deep_ds.view;

    let mut plans = Vec::new();
    for &k in ks {
        for &p in &BATCH_PS {
            plans.push(PtkPlan::try_new(k, p, &EngineOptions::default()).unwrap());
        }
    }
    let batch = PtkPlan::batch(&plans);

    let deep_options = EngineOptions::without_pruning(SharingVariant::Lazy);
    let mut deep_plans = Vec::new();
    for &k in deep_ks {
        for &p in &DEEP_PS {
            deep_plans.push(PtkPlan::try_new(k, p, &deep_options).unwrap());
        }
    }
    let deep_batch = PtkPlan::batch(&deep_plans);

    println!(
        "default batch of {} plans (k in {ks:?} x p in {BATCH_PS:?}) over {} tuples; deep-scan \
         batch of {} pruning-off plans (k in {deep_ks:?} x p in {DEEP_PS:?}) over {} tuples with \
         rules clustered in {DEEP_SPAN}-rank windows; host has {} hardware threads{}",
        batch.len(),
        view.len(),
        deep_batch.len(),
        deep_view.len(),
        ptk_par::available_threads(),
        if smoke { " [smoke workload]" } else { "" },
    );

    let default_sweep = sweep("default", &batch, view, laps);
    let deep_sweep = sweep("deep", &deep_batch, deep_view, laps);

    let mut report = Report::new(
        "fig5_batch_scaling",
        &["threads", "median (ms)", "IQR (ms)", "speedup", "queries/s"],
    );
    default_sweep.report(batch.len(), &mut report);
    report.finish();

    let mut deep_report = Report::new(
        "fig5_batch_scaling_deep",
        &["threads", "median (ms)", "IQR (ms)", "speedup", "queries/s"],
    );
    deep_sweep.report(deep_batch.len(), &mut deep_report);
    deep_report.finish();

    // The batch's snapshot is deterministic at any width (the engine
    // records only sums); record it timing-free.
    let (_, snapshot) = PtkExecutor::execute_batch_recorded(&batch, view, &ThreadPool::new(1));

    let mut json = format!(
        "{{\"experiment\":\"batch_scaling\",\"queries\":{},\"deep_queries\":{},\"laps\":{laps},",
        batch.len(),
        deep_batch.len(),
    );
    json.push_str(&format!(
        "\"threads\":{{{}}},",
        default_sweep.json_records()
    ));
    json.push_str(&format!(
        "\"deep_threads\":{{{}}},",
        deep_sweep.json_records()
    ));
    json.push_str(&format!(
        "\"speedup_t2\":{:.3},\"speedup_t4\":{:.3},\"speedup_t8\":{:.3},",
        default_sweep.speedup_of(2),
        default_sweep.speedup_of(4),
        default_sweep.speedup_of(8),
    ));
    json.push_str(&format!(
        "\"deep_speedup_t2\":{:.3},\"deep_speedup_t4\":{:.3},\"deep_speedup_t8\":{:.3},",
        deep_sweep.speedup_of(2),
        deep_sweep.speedup_of(4),
        deep_sweep.speedup_of(8),
    ));
    json.push_str(&format!("\"deep_rule_span\":{DEEP_SPAN},"));
    json.push_str(&format!("\"metrics\":{}}}", snapshot.to_json(false)));

    let dir = PathBuf::from("target/experiments");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    let path = dir.join("BENCH_batch_scaling.json");
    match fs::write(&path, json + "\n") {
        Ok(()) => println!("(bench record saved to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // Coarse CI gate: with PTK_ASSERT_SCALING=<ratio> the 4-thread median
    // of each workload must be at least <ratio>x the 1-thread throughput.
    if let Ok(raw) = std::env::var("PTK_ASSERT_SCALING") {
        let required: f64 = raw
            .parse()
            .unwrap_or_else(|_| panic!("PTK_ASSERT_SCALING: cannot parse '{raw}' as a ratio"));
        for (label, sweep) in [
            ("default batch", &default_sweep),
            ("deep scan", &deep_sweep),
        ] {
            let measured = sweep.speedup_of(4);
            if measured < required {
                print_gate_diagnostics(label, &sweep.wide_snapshot);
                let (stage, _) = bottleneck_stage(&sweep.wide_snapshot);
                panic!(
                    "{label}: 4-thread speedup {measured:.3}x is below the required \
                     {required:.2}x (bottleneck stage: {stage})"
                );
            }
            println!(
                "scaling gate passed [{label}]: 4-thread speedup {measured:.3}x >= {required:.2}x"
            );
        }
    }

    println!("\nfig5_batch_scaling: done");
}
