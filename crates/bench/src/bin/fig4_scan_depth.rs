//! Reproduces Figure 4: the number of tuples scanned (exact algorithm),
//! the average sample length (sampling algorithm) and the answer-set size,
//! as one knob at a time varies — (a) expected membership probability,
//! (b) rule complexity, (c) k, (d) probability threshold p.
//!
//! Each test dataset has 20,000 tuples and 2,000 multi-tuple rules, like
//! the paper's.
//!
//! Gate (enforced when `PTK_BENCH_GATE` is set, reported otherwise): the
//! paper's observation that the exact scan stops about where the sampled
//! units do. At every sweep point the exact scan may read at most 1.1×
//! the average sample length plus one upper-bound check interval (the
//! grain at which the scan can stop).

use ptk_bench::{sweeps, Report};
use ptk_core::RankedView;
use ptk_engine::{evaluate_ptk, EngineOptions};
use ptk_sampling::sample_topk;

fn measure(
    view: &RankedView,
    k: usize,
    p: f64,
    report: &mut Report,
    excess: &mut Vec<String>,
    (knob, x): (&str, &dyn std::fmt::Display),
) {
    let options = EngineOptions::default();
    let exact = evaluate_ptk(view, k, p, &options);
    let estimate = sample_topk(view, k, &sweeps::sampling_options());
    report.row(&[
        x,
        &exact.stats.scanned,
        &format!("{:.1}", estimate.average_sample_length),
        &exact.answers.len(),
    ]);
    let allowed = 1.1 * estimate.average_sample_length + options.ub_check_interval as f64;
    if exact.stats.scanned as f64 > allowed {
        excess.push(format!(
            "{knob} = {x}: scanned {} > {allowed:.0}",
            exact.stats.scanned
        ));
    }
}

fn main() {
    let columns = [
        "x",
        "exact: tuples scanned",
        "sampling: avg sample length",
        "answer size",
    ];

    // Sweep points whose exact scan read deeper than the gate allows.
    let mut excess = Vec::new();

    // (a) expectation of membership probability.
    let mut report = Report::new("fig4a_scan_depth_vs_prob_mean", &columns);
    for mu in sweeps::prob_means() {
        let ds = sweeps::dataset(mu, 5.0);
        measure(
            &ds.view,
            sweeps::DEFAULT_K,
            sweeps::DEFAULT_P,
            &mut report,
            &mut excess,
            ("mu", &mu),
        );
    }
    report.finish();

    // (b) rule complexity.
    let mut report = Report::new("fig4b_scan_depth_vs_rule_size", &columns);
    for size in sweeps::rule_sizes() {
        let ds = sweeps::dataset(0.5, size);
        measure(
            &ds.view,
            sweeps::DEFAULT_K,
            sweeps::DEFAULT_P,
            &mut report,
            &mut excess,
            ("rule size", &size),
        );
    }
    report.finish();

    // (c) k.
    let ds = sweeps::dataset(0.5, 5.0);
    let mut report = Report::new("fig4c_scan_depth_vs_k", &columns);
    for k in sweeps::ks() {
        measure(
            &ds.view,
            k,
            sweeps::DEFAULT_P,
            &mut report,
            &mut excess,
            ("k", &k),
        );
    }
    report.finish();

    // (d) probability threshold.
    let mut report = Report::new("fig4d_scan_depth_vs_p", &columns);
    for p in sweeps::ps() {
        measure(
            &ds.view,
            sweeps::DEFAULT_K,
            p,
            &mut report,
            &mut excess,
            ("p", &p),
        );
    }
    report.finish();

    println!(
        "\nexact scan depth vs sampling: {} sweep points read more than \
         1.1 x avg sample length + the check interval",
        excess.len()
    );
    for point in &excess {
        println!("  {point}");
    }
    if std::env::var_os("PTK_BENCH_GATE").is_some() {
        assert!(
            excess.is_empty(),
            "exact scan read deeper than the gate allows at {} sweep points",
            excess.len()
        );
    }
    println!("fig4_scan_depth: done");
}
