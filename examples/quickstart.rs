//! Quickstart: build a small uncertain table, run a PT-k query exactly and
//! by sampling, and inspect the result.
//!
//! Run with: `cargo run --example quickstart`

use ptk::{
    answer_exact, answer_sampling, ExactOptions, PtkQuery, Ranking, SamplingOptions, StopCriterion,
    TopKQuery, UncertainTableBuilder, Value,
};

fn main() -> ptk::Result<(), Box<dyn std::error::Error>> {
    // An uncertain table: sensor readings with a confidence (membership
    // probability) each. Readings 1 and 2 came from co-located sensors at
    // the same moment, so at most one of them is real — a generation rule.
    let mut builder = UncertainTableBuilder::new(vec!["reading".into(), "sensor".into()]);
    let t0 = builder.push(0.9, [Value::Float(84.2), Value::from("s-101")])?;
    let t1 = builder.push(0.5, [Value::Float(79.9), Value::from("s-206")])?;
    let t2 = builder.push(0.45, [Value::Float(78.1), Value::from("s-231")])?;
    let t3 = builder.push(0.7, [Value::Float(71.3), Value::from("s-063")])?;
    let t4 = builder.push(1.0, [Value::Float(65.0), Value::from("s-104")])?;
    builder.exclusive(&[t1, t2])?;
    let table = builder.finish()?;
    println!(
        "table: {} tuples, {} rules, {} possible worlds",
        table.len(),
        table.rules().len(),
        table.world_count().as_f64()
    );

    // "Which readings have probability >= 0.4 of being among the top-2?"
    let query = PtkQuery::new(TopKQuery::top(2, Ranking::descending(0)), 0.4)?;

    // Exact answer: one scan of the ranked list, no world enumeration.
    let exact = answer_exact(&table, &query, &ExactOptions::default())?;
    println!("\nexact answers (Pr^2 >= 0.4):");
    for m in &exact.matches {
        let tuple = table.tuple(m.id);
        println!(
            "  {} reading={} sensor={} membership={:.2} Pr^2={:.4}",
            m.id,
            tuple.attr(0).unwrap(),
            tuple.attr(1).unwrap(),
            tuple.membership().value(),
            m.probability,
        );
    }
    if let Some(stats) = exact.stats {
        println!(
            "  [scanned {} of {} tuples, {} DP cells]",
            stats.scanned,
            table.len(),
            stats.dp_cells
        );
    }

    // Approximate answer by sampling possible worlds.
    let sampling = SamplingOptions {
        stop: StopCriterion::Progressive {
            d: 1000,
            phi: 0.002,
            max_units: 100_000,
        },
        seed: 7,
    };
    let approx = answer_sampling(&table, &query, &sampling)?;
    println!("\nsampling answers:");
    for m in &approx.matches {
        println!("  {} estimated Pr^2 = {:.4}", m.id, m.probability);
    }

    let _ = (t0, t3, t4);
    Ok(())
}
