//! Reproduces Tables 1–3 of the paper: the panda-detection running example,
//! its possible worlds, and the top-2 probability of every record.

use ptk_access::ViewSource;
use ptk_bench::{BenchRecord, Report};
use ptk_core::RankedView;
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan};
use ptk_obs::Metrics;
use ptk_worlds::{enumerate, naive};

/// Table 1 in ranked (duration-descending) order:
/// positions 0..=5 are R1, R2, R5, R3, R4, R6.
const NAMES: [&str; 6] = ["R1", "R2", "R5", "R3", "R4", "R6"];

fn view() -> RankedView {
    RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
        .expect("the paper's example is valid")
}

fn main() {
    let view = view();

    // Table 2: possible worlds (paper lists 12).
    let mut report = Report::new("table2_possible_worlds", &["world", "probability", "top-2"]);
    let mut worlds = enumerate(&view).expect("6 tuples enumerate instantly");
    worlds.sort_by(|a, b| b.prob.total_cmp(&a.prob).then(a.members.cmp(&b.members)));
    for w in &worlds {
        let members: Vec<&str> = w.members.iter().map(|&m| NAMES[m]).collect();
        let top: Vec<&str> = w.top_k(2).iter().map(|&m| NAMES[m]).collect();
        report.row(&[
            &format!("{{{}}}", members.join(",")),
            &format!("{:.3}", w.prob),
            &top.join(","),
        ]);
    }
    report.finish();
    let total: f64 = worlds.iter().map(|w| w.prob).sum();
    assert!((total - 1.0).abs() < 1e-12);
    assert_eq!(worlds.len(), 12, "Table 2 lists 12 possible worlds");

    // Table 3: top-2 probabilities, paper values alongside.
    let paper = [
        ("R1", 0.3),
        ("R2", 0.4),
        ("R3", 0.38),
        ("R4", 0.202),
        ("R5", 0.704),
        ("R6", 0.014),
    ];
    let pr = naive::topk_probabilities(&view, 2).unwrap();
    let mut report = Report::new(
        "table3_top2_probabilities",
        &["record", "paper", "measured", "match"],
    );
    for (name, expected) in paper {
        let pos = NAMES.iter().position(|n| *n == name).unwrap();
        let measured = pr[pos];
        report.row(&[
            &name,
            &format!("{expected:.3}"),
            &format!("{measured:.3}"),
            &((measured - expected).abs() < 1e-9),
        ]);
        assert!(
            (measured - expected).abs() < 1e-9,
            "{name}: {measured} vs {expected}"
        );
    }
    report.finish();

    // Example 1: the PT-2 answer at p = 0.35 is {R2, R3, R5}. Timed over a
    // few laps with the engine counters attached as the bench artifact.
    let mut bench = BenchRecord::new("table1_3");
    let metrics = Metrics::new();
    let plan = PtkPlan::try_new(2, 0.35, &EngineOptions::default()).expect("a valid PT-2 plan");
    let mut result = None;
    for _ in 0..5 {
        result = Some(bench.time(|| {
            PtkExecutor::with_recorder(&plan, &metrics).execute(&mut ViewSource::new(&view))
        }));
    }
    let result = result.expect("at least one lap ran");
    bench.set_metrics(metrics.snapshot());
    bench.write();
    let answer: Vec<&str> = result.answers.iter().map(|a| NAMES[a.rank]).collect();
    println!(
        "\nPT-2 answer at p = 0.35: {{{}}} (paper: {{R2, R5, R3}})",
        answer.join(", ")
    );
    assert_eq!(answer, vec!["R2", "R5", "R3"]);
    println!("\ntable1_3: all paper values reproduced exactly");
}
