//! Reproduces Figure 2 / Example 5: the compressed dominant sets produced
//! by the aggressive and lazy reordering methods on the 11-tuple example,
//! and their Eq. 5 costs (paper: 15 vs 12).

use ptk_bench::Report;
use ptk_core::RankedView;
use ptk_engine::{Entry, Scanner, SharingVariant};

fn view() -> RankedView {
    // Rules R1: t1⊕t2⊕t8⊕t11, R2: t4⊕t5⊕t10 (1-based); probabilities are
    // not specified by the figure — orders and costs do not depend on them.
    RankedView::from_ranked_probs(&[0.2; 11], &[vec![0, 1, 7, 10], vec![3, 4, 9]])
        .expect("Figure 2's input is valid")
}

fn render(entries: &[Entry]) -> String {
    let parts: Vec<String> = entries
        .iter()
        .map(|e| match e {
            Entry::Tuple { pos, .. } => format!("t{}", pos + 1),
            Entry::RuleTuple { rule, absorbed, .. } => {
                format!("R{}[{}]", rule.index() + 1, absorbed)
            }
        })
        .collect();
    if parts.is_empty() {
        "∅".to_owned()
    } else {
        parts.join(" ")
    }
}

fn trace(variant: SharingVariant) -> (Vec<String>, u64) {
    let view = view();
    let mut scanner = Scanner::new(&view, 2, variant);
    let mut lists = Vec::new();
    while scanner.step().is_some() {
        lists.push(render(&scanner.entries()));
    }
    (lists, scanner.entries_recomputed())
}

fn main() {
    let mut bench = ptk_bench::BenchRecord::new("fig2_reorder");
    let (aggressive, cost_ar) = bench.time(|| trace(SharingVariant::Aggressive));
    let (lazy, cost_lr) = bench.time(|| trace(SharingVariant::Lazy));
    let (_, cost_rc) = bench.time(|| trace(SharingVariant::Rc));

    let mut report = Report::new(
        "fig2_reordering",
        &["tuple", "aggressive reordering", "lazy reordering"],
    );
    for i in 0..aggressive.len() {
        report.row(&[&format!("t{}", i + 1), &aggressive[i], &lazy[i]]);
    }
    report.finish();

    let mut costs = Report::new("fig2_costs", &["method", "entries recomputed", "paper"]);
    costs.row(&[&"RC (no sharing)", &cost_rc, &"—"]);
    costs.row(&[&"RC+AR", &cost_ar, &15]);
    costs.row(&[&"RC+LR", &cost_lr, &12]);
    costs.finish();

    assert_eq!(cost_ar, 15, "the paper reports Cost_aggressive = 15");
    assert_eq!(cost_lr, 12, "the paper reports Cost_lazy = 12");

    // Machine-readable artifact: lap times above plus the engine counters
    // of a full recorded PT-2 query on the same view.
    let metrics = ptk_obs::Metrics::new();
    let plan = ptk_engine::PtkPlan::try_new(2, 0.35, &ptk_engine::EngineOptions::default())
        .expect("a valid PT-2 plan");
    let view = view();
    bench.time(|| {
        ptk_engine::PtkExecutor::with_recorder(&plan, &metrics)
            .execute(&mut ptk_access::ViewSource::new(&view))
    });
    bench.set_metrics(metrics.snapshot());
    bench.write();

    println!("\nfig2_reorder: Example 5's costs reproduced exactly (AR = 15, LR = 12)");
}
