//! The paper's running example (Tables 1–3): endangered-animal detection
//! with unreliable sensors.
//!
//! Reconstructs Table 1, enumerates its 12 possible worlds (Table 2),
//! computes the top-2 probability of every record (Table 3), and answers
//! the PT-2 query of Example 1, comparing against the U-TopK and U-KRanks
//! semantics discussed in §1.
//!
//! Run with: `cargo run --example panda_sensors`

use ptk::worlds::{enumerate, naive};
use ptk::{
    answer_exact, ExactOptions, PtkExecutor, PtkPlan, PtkQuery, RankSemantics, RankedView, Ranking,
    SemanticsAnswer, TopKQuery, UncertainTableBuilder, Value, ViewSource,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table 1: RID, location, sensor, duration (minutes), confidence.
    let rows: [(&str, &str, &str, f64, f64); 6] = [
        ("R1", "A", "S101", 25.0, 0.3),
        ("R2", "B", "S206", 21.0, 0.4),
        ("R3", "B", "S231", 13.0, 0.5),
        ("R4", "A", "S101", 12.0, 1.0),
        ("R5", "E", "S063", 17.0, 0.8),
        ("R6", "E", "S732", 11.0, 0.2),
    ];
    let mut builder = UncertainTableBuilder::new(vec![
        "duration".into(),
        "rid".into(),
        "loc".into(),
        "sensor".into(),
    ]);
    let mut ids = Vec::new();
    for (rid, loc, sensor, duration, conf) in rows {
        ids.push(builder.push(
            conf,
            [
                Value::Float(duration),
                Value::from(rid),
                Value::from(loc),
                Value::from(sensor),
            ],
        )?);
    }
    // Co-located simultaneous detections: R2 ⊕ R3 and R5 ⊕ R6.
    builder.exclusive(&[ids[1], ids[2]])?;
    builder.exclusive(&[ids[4], ids[5]])?;
    let table = builder.finish()?;

    let top2 = TopKQuery::top(2, Ranking::descending(0));
    let view = RankedView::build(&table, &top2)?;
    let name = |pos: usize| table.tuple(view.tuple(pos).id).attr(1).unwrap().to_string();

    // Table 2: the possible worlds.
    println!("Table 2 — possible worlds and their top-2 lists:");
    let mut worlds = enumerate(&view)?;
    worlds.sort_by(|a, b| b.prob.total_cmp(&a.prob));
    for w in &worlds {
        let members: Vec<String> = w.members.iter().map(|&m| name(m)).collect();
        let top: Vec<String> = w.top_k(2).iter().map(|&m| name(m)).collect();
        println!(
            "  {{{}}}  Pr = {:.3}   top-2: {}",
            members.join(", "),
            w.prob,
            top.join(", ")
        );
    }
    let total: f64 = worlds.iter().map(|w| w.prob).sum();
    println!(
        "  ({} worlds, total probability {:.3})",
        worlds.len(),
        total
    );

    // Table 3: top-2 probabilities.
    println!("\nTable 3 — top-2 probability of every record:");
    let pr = naive::topk_probabilities(&view, 2)?;
    for (pos, p) in pr.iter().enumerate() {
        println!("  {}: Pr^2 = {:.3}", name(pos), p);
    }

    // Example 1: PT-2 query with p = 0.35.
    let query = PtkQuery::new(top2, 0.35)?;
    let answer = answer_exact(&table, &query, &ExactOptions::default())?;
    let names: Vec<String> = answer
        .matches
        .iter()
        .map(|m| table.tuple(m.id).attr(1).unwrap().to_string())
        .collect();
    println!(
        "\nPT-2 answer at p = 0.35: {{{}}} (the paper expects {{R2, R5, R3}})",
        names.join(", ")
    );

    // §1's comparison: the other two top-k semantics, on the same engine.
    let answer = |semantics| -> Result<SemanticsAnswer, Box<dyn std::error::Error>> {
        let plan = PtkPlan::try_semantics(semantics, 2, None, &ExactOptions::default())?;
        Ok(PtkExecutor::new(&plan).execute_semantics(&mut ViewSource::new(&view))?)
    };
    let SemanticsAnswer::UTopK { rows, probability } = answer(RankSemantics::UTopK)? else {
        unreachable!("a U-TopK plan answers U-TopK")
    };
    let ut_names: Vec<String> = rows.iter().map(|r| name(r.position)).collect();
    println!(
        "U-Top2 answer: <{}> with probability {:.3} (the paper expects <R5, R3> at 0.28)",
        ut_names.join(", "),
        probability
    );

    let SemanticsAnswer::UKRanks(rows) = answer(RankSemantics::UKRanks)? else {
        unreachable!("a U-KRanks plan answers U-KRanks")
    };
    for (j, row) in rows.iter().enumerate() {
        println!(
            "U-KRanks rank {}: {} with probability {:.3}",
            j + 1,
            name(row.position),
            row.value
        );
    }
    println!("(the paper expects R5 at both ranks)");
    Ok(())
}
