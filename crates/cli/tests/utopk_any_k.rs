//! U-TopK at any `k`, one-shot: `ptk sql` answers `TOP 30` and `TOP 300
//! … RANK BY U_TOPK` on a 200-tuple table, and at `k ≥ n` the answer is
//! the table's most probable world, computed here one group at a time.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::process::Command;

/// Runs the `ptk` binary and returns its stdout, asserting exit 0.
fn ptk(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ptk"))
        .args(args)
        .output()
        .expect("ptk runs");
    assert!(
        out.status.success(),
        "ptk {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The scores of the tuples an answer listing names, from each row's
/// `[score]` attribute column.
fn listed_scores(listing: &str) -> Vec<String> {
    listing
        .lines()
        .skip(1)
        .map(|row| {
            let open = row.rfind('[').expect("an attribute column");
            row[open + 1..row.len() - 1].to_owned()
        })
        .collect()
}

#[test]
fn utopk_answers_any_k_and_past_n_names_the_most_probable_world() {
    let dir = std::env::temp_dir().join(format!("ptk-utopk-any-k-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path: PathBuf = dir.join("t.csv");
    let csv = ptk(&[
        "generate",
        "synthetic",
        "--tuples",
        "200",
        "--rules",
        "20",
        "--seed",
        "3",
    ]);
    std::fs::write(&csv_path, &csv).unwrap();
    let table = csv_path.to_str().unwrap();
    let answer = |k: usize| {
        ptk(&[
            "sql",
            table,
            &format!("SELECT TOP {k} FROM t ORDER BY score DESC RANK BY U_TOPK"),
        ])
    };

    let top30 = answer(30);
    assert!(top30.starts_with("most probable top-30 vector"), "{top30}");
    assert_eq!(listed_scores(&top30).len(), 30, "{top30}");

    // At k ≥ n every world is its own top-k list. A world's probability
    // factors over groups (a rule, or a tuple outside one): the group
    // contributes its chosen member's probability, or its absence mass
    // 1 − q. So the most probable world takes each group's most probable
    // member exactly when that beats the group's absence.
    let mut groups: HashMap<String, Vec<(f64, String)>> = HashMap::new();
    for (row, line) in csv.lines().skip(1).enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        let (prob, rule, score) = (fields[0].parse::<f64>().unwrap(), fields[1], fields[2]);
        let key = if rule.is_empty() {
            format!("row {row}")
        } else {
            format!("rule {rule}")
        };
        groups
            .entry(key)
            .or_default()
            .push((prob, score.to_owned()));
    }
    assert!(groups.len() < 200, "the fixture has rules");
    let mut world = BTreeSet::new();
    for (key, members) in &groups {
        let mass = members.iter().map(|(p, _)| p).sum::<f64>().min(1.0);
        let (best, score) = members.iter().max_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
        // No exact tie: the world is unique.
        assert!(
            members.iter().filter(|(p, _)| p == best).count() == 1,
            "{key}: two most probable members"
        );
        assert!(
            (best - (1.0 - mass)).abs() > 1e-9,
            "{key}: member {best} ties the absence mass {}",
            1.0 - mass
        );
        if *best > 1.0 - mass {
            world.insert(score.clone());
        }
    }
    let top300 = answer(300);
    assert!(
        top300.starts_with("most probable top-300 vector"),
        "{top300}"
    );
    let listed: BTreeSet<String> = listed_scores(&top300).into_iter().collect();
    assert_eq!(listed, world);

    std::fs::remove_dir_all(&dir).unwrap();
}
