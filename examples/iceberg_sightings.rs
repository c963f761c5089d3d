//! The §6.1 scenario: iceberg-sighting analysis on an IIP-like dataset.
//!
//! Synthesizes a dataset shaped like the International Ice Patrol Iceberg
//! Sightings Database (4,231 sightings, 825 multi-sighting icebergs, the
//! paper's six confidence classes), then answers "which sightings have
//! probability >= 0.5 of being among the 10 longest-drifting icebergs?"
//! with PT-k, U-TopK and U-KRanks side by side, reproducing the qualitative
//! contrasts of Tables 5–6.
//!
//! Run with: `cargo run --release --example iceberg_sightings`

use ptk::datagen::{IipConfig, IipDataset};
use ptk::engine::{evaluate_ptk, topk_probabilities, EngineOptions, SharingVariant};
use ptk::{PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer, ViewSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = IipDataset::generate(&IipConfig::default());
    println!(
        "synthesized IIP-like dataset: {} sightings, {} multi-sighting icebergs",
        ds.table.len(),
        ds.table.rules().len()
    );

    let k = 10;
    let p = 0.5;

    // PT-k: every sighting with top-10 probability >= 0.5.
    let result = evaluate_ptk(&ds.view, k, p, &EngineOptions::default());
    println!(
        "\nPT-{k} answer at p = {p} ({} tuples):",
        result.answers.len()
    );
    let source_col = ds.table.column_index("source").unwrap();
    for a in &result.answers {
        let t = ds.view.tuple(a.rank);
        let row = ds.table.tuple(t.id);
        println!(
            "  rank {:>3}  drifted {:>6.1} days  source {:<5}  membership {:.3}  Pr^10 = {:.3}",
            a.rank + 1,
            t.key.unwrap(),
            row.attr(source_col).unwrap(),
            t.prob,
            a.probability,
        );
    }
    println!(
        "  [scanned {} of {} tuples before stopping: {:?}]",
        result.stats.scanned,
        ds.view.len(),
        result.stats.stop
    );

    // The other semantics run on the same engine, one plan each.
    let answer = |semantics| -> Result<SemanticsAnswer, Box<dyn std::error::Error>> {
        let plan = PtkPlan::try_semantics(semantics, k, None, &EngineOptions::default())?;
        Ok(PtkExecutor::new(&plan).execute_semantics(&mut ViewSource::new(&ds.view))?)
    };

    // U-TopK: the most probable top-10 vector.
    let SemanticsAnswer::UTopK { rows, probability } = answer(RankSemantics::UTopK)? else {
        unreachable!("a U-TopK plan answers U-TopK")
    };
    let ut_vector: Vec<usize> = rows.iter().map(|r| r.position).collect();
    println!("\nU-Top{k} answer (probability {probability:.4}):");
    println!(
        "  ranks: {:?}",
        ut_vector.iter().map(|&v| v + 1).collect::<Vec<_>>()
    );

    // U-KRanks: the most probable tuple at each rank.
    let SemanticsAnswer::UKRanks(kr) = answer(RankSemantics::UKRanks)? else {
        unreachable!("a U-KRanks plan answers U-KRanks")
    };
    println!("\nU-KRanks answer:");
    for (j, row) in kr.iter().enumerate() {
        println!(
            "  rank {:>2}: tuple at ranked position {:>3} with probability {:.3}",
            j + 1,
            row.position + 1,
            row.value
        );
    }

    // Expected ranks (Cormode et al.) as a fourth lens: certain-but-short
    // drifters float to the top under this semantics.
    let SemanticsAnswer::ExpectedRank(er) = answer(RankSemantics::ExpectedRank)? else {
        unreachable!("an expected-rank plan answers expected rank")
    };
    println!("\nexpected-rank top-{k} (lowest expected rank first):");
    for row in &er {
        println!(
            "  ranked position {:>3}  expected rank {:>7.2}",
            row.position + 1,
            row.value
        );
    }

    // The paper's qualitative observations, checked on this dataset.
    let (pr, _) = topk_probabilities(&ds.view, k, SharingVariant::Lazy);
    let answer_ranks = result.answer_ranks();
    let in_ptk = |pos: usize| answer_ranks.contains(&pos);
    let missed_by_utopk: Vec<usize> = answer_ranks
        .iter()
        .copied()
        .filter(|pos| !ut_vector.contains(pos))
        .collect();
    let kr_positions: Vec<usize> = kr.iter().map(|row| row.position).collect();
    let missed_by_ukranks: Vec<usize> = answer_ranks
        .iter()
        .copied()
        .filter(|pos| !kr_positions.contains(pos))
        .collect();
    println!("\nobservations (cf. §6.1):");
    println!(
        "  {} high-Pr^10 tuples are missing from the U-TopK vector",
        missed_by_utopk.len()
    );
    println!(
        "  {} high-Pr^10 tuples are missing from the U-KRanks answer",
        missed_by_ukranks.len()
    );
    let duplicated = k - {
        let mut distinct = kr_positions.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len()
    };
    println!("  {duplicated} U-KRanks ranks are occupied by a repeated tuple");
    if let Some(&pos) = ut_vector.iter().find(|&&v| !in_ptk(v)) {
        println!(
            "  the U-TopK vector contains ranked position {} whose Pr^10 is only {:.3}",
            pos + 1,
            pr[pos]
        );
    }
    Ok(())
}
