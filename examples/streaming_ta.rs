//! Progressive retrieval: PT-k over a Threshold-Algorithm middleware.
//!
//! Section 4.4 of the paper assumes tuples can be retrieved progressively
//! in ranking order (it cites Fagin's TA) so the pruning rules can stop
//! retrieval early. This example builds a multi-attribute dataset, ranks it
//! by a weighted sum of two attributes through `TaSource`, and runs the
//! PT-k executor on top — then shows how little of the sorted lists was
//! ever touched.
//!
//! Scenario: apartment listings with a location score and a condition
//! score, each listing confirmed with some probability (stale listings),
//! where listings from the same address are mutually exclusive duplicates.
//!
//! Run with: `cargo run --release --example streaming_ta`

use ptk::rng::{RngExt, SeedableRng, StdRng};

use ptk::{AggregateFn, ExactOptions, PtkExecutor, PtkPlan, RankedSource, TaSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 50_000;

    // Two attribute columns plus confirmation probabilities; every 10th
    // pair of listings shares an address (a 2-member generation rule).
    let mut attrs: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut probs = Vec::with_capacity(n);
    let mut rules: Vec<Option<u32>> = vec![None; n];
    for i in 0..n {
        attrs.push(vec![
            rng.random_range(0.0..100.0f64),
            rng.random_range(0.0..100.0f64),
        ]);
        probs.push(rng.random_range(0.2..0.9f64));
        if i % 10 == 1 {
            let key = (i / 10) as u32;
            rules[i - 1] = Some(key);
            rules[i] = Some(key);
            // Keep the pair's total mass legal.
            probs[i - 1] = probs[i - 1].min(0.5);
            probs[i] = probs[i].min(0.5);
        }
    }

    // Rank by 0.7·location + 0.3·condition, lazily, through TA.
    let mut source = TaSource::new(
        &attrs,
        probs,
        rules,
        AggregateFn::WeightedSum(vec![0.7, 0.3]),
    )?;

    // "Listings with >= 40% probability of being a top-20 result."
    let plan = PtkPlan::try_new(20, 0.4, &ExactOptions::default())?;
    let result = PtkExecutor::new(&plan).execute(&mut source);

    println!(
        "PT-20 answers at p = 0.4 ({} listings):",
        result.answers.len()
    );
    for a in result.answers.iter().take(10) {
        println!(
            "  listing {:>6}  score {:>6.2}  Pr^20 = {:.3}",
            a.id.index(),
            a.score,
            a.probability
        );
    }
    if result.answers.len() > 10 {
        println!("  … and {} more", result.answers.len() - 10);
    }

    println!("\nretrieval effort:");
    println!("  listings in the table:        {n}");
    println!("  tuples pulled from TA:        {}", source.retrieved());
    println!(
        "  sorted-list entries touched:  {}",
        source.sorted_accesses()
    );
    println!("  early stop: {:?}", result.stats.stop);
    println!(
        "\nthe pruning rules stopped retrieval after {:.2}% of the table — the\n\
         sorted lists were never materialized below that point",
        100.0 * source.retrieved() as f64 / n as f64
    );
    Ok(())
}
