//! Mobile-object tracking — the paper's second motivating domain (§1).
//!
//! Radar stations estimate vehicle speeds; each reading carries a
//! confidence, and readings of the same vehicle taken by overlapping
//! stations within the same second are mutually exclusive (at most one is
//! the true reading). A traffic analyst asks: *"which readings have at
//! least a 50% chance of being among the 5 fastest in the last minute?"* —
//! a PT-k query with a time-window predicate.
//!
//! Run with: `cargo run --example vehicle_tracking`

use ptk::rng::{RngExt, SeedableRng, StdRng};

use ptk::{
    answer_exact, answer_sampling, ComparisonOp, ExactOptions, Predicate, PtkQuery, Ranking,
    SamplingOptions, StopCriterion, TopKQuery, UncertainTableBuilder, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(60);
    let mut builder = UncertainTableBuilder::new(vec![
        "speed_kmh".into(),
        "vehicle".into(),
        "station".into(),
        "second".into(),
    ]);

    // 300 single-station readings over a 3-minute window…
    for i in 0..300 {
        let second = rng.random_range(0..180i64);
        let speed = rng.random_range(60.0..140.0f64);
        builder.push(
            rng.random_range(0.5..0.95f64),
            [
                Value::Float(speed),
                Value::Text(format!("V{:03}", i % 80)),
                Value::Text(format!("S{}", rng.random_range(1..9u32))),
                Value::Int(second),
            ],
        )?;
    }
    // …plus 40 double-detections: two stations, conflicting speeds, at most
    // one correct (a generation rule each).
    for i in 0..40 {
        let second = rng.random_range(0..180i64);
        let base = rng.random_range(80.0..150.0f64);
        let vehicle = format!("V{:03}", 80 + i);
        let a = builder.push(
            rng.random_range(0.3..0.6f64),
            [
                Value::Float(base + rng.random_range(0.0..8.0f64)),
                Value::Text(vehicle.clone()),
                Value::Text("S3".into()),
                Value::Int(second),
            ],
        )?;
        let b = builder.push(
            rng.random_range(0.2..0.4f64),
            [
                Value::Float(base - rng.random_range(0.0..8.0f64)),
                Value::Text(vehicle),
                Value::Text("S4".into()),
                Value::Int(second),
            ],
        )?;
        builder.exclusive(&[a, b])?;
    }
    let table = builder.finish()?;
    println!(
        "{} speed readings, {} conflicting double-detections",
        table.len(),
        table.rules().len()
    );

    // Last minute only: second >= 120.
    let window = Predicate::compare(3, ComparisonOp::Ge, 120i64);
    let query = PtkQuery::new(TopKQuery::new(5, window, Ranking::descending(0))?, 0.5)?;

    let exact = answer_exact(&table, &query, &ExactOptions::default())?;
    println!("\nreadings with Pr^5 >= 0.5 in the last minute (exact):");
    for m in &exact.matches {
        let row = table.tuple(m.id);
        println!(
            "  {} at {:.1} km/h (station {}, t={}s, confidence {:.2}): Pr^5 = {:.3}",
            row.attr(1).unwrap(),
            row.attr(0).unwrap().as_f64().unwrap_or(f64::NAN),
            row.attr(2).unwrap(),
            row.attr(3).unwrap(),
            row.membership().value(),
            m.probability,
        );
    }
    if let Some(stats) = exact.stats {
        println!(
            "  [scanned {} candidates before stopping: {:?}]",
            stats.scanned, stats.stop
        );
    }

    // Cross-check by sampling.
    let approx = answer_sampling(
        &table,
        &query,
        &SamplingOptions {
            stop: StopCriterion::FixedUnits(50_000),
            seed: 1,
        },
    )?;
    let exact_ids: Vec<_> = exact.matches.iter().map(|m| m.id).collect();
    let approx_ids: Vec<_> = approx.matches.iter().map(|m| m.id).collect();
    println!(
        "\nsampling agrees on {}/{} answers",
        approx_ids
            .iter()
            .filter(|id| exact_ids.contains(id))
            .count(),
        exact_ids.len()
    );
    Ok(())
}
