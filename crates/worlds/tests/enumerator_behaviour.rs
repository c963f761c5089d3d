//! Behavioural tests of the world enumerator: laziness, budgets, and
//! agreement with the table-level counting formula.

use ptk_core::{RankedView, Ranking, TopKQuery, UncertainTableBuilder};
use ptk_worlds::{try_enumerate, world_count, WorldEnumerator};

#[test]
fn enumerator_is_lazy() {
    // 2^40 worlds: collecting would be hopeless, but taking a few is fine.
    let probs = vec![0.5; 40];
    let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
    let first: Vec<_> = WorldEnumerator::new(&view).take(5).collect();
    assert_eq!(first.len(), 5);
    for w in &first {
        assert!((w.prob - 0.5f64.powi(40)).abs() < 1e-25);
    }
}

#[test]
fn view_count_matches_table_formula() {
    let mut b = UncertainTableBuilder::single_column();
    let mut ids = Vec::new();
    for i in 0..6 {
        ids.push(b.push_scored(0.2, (10 - i) as f64).unwrap());
    }
    b.exclusive(&[ids[0], ids[2]]).unwrap();
    b.exclusive(&[ids[1], ids[3], ids[5]]).unwrap();
    let table = b.finish().unwrap();
    let view = RankedView::build(&table, &TopKQuery::top(1, Ranking::descending(0))).unwrap();
    assert_eq!(world_count(&view).as_f64(), table.world_count().as_f64());
}

#[test]
fn budget_boundary_is_inclusive() {
    let view = RankedView::from_ranked_probs(&[0.5, 0.5, 0.5], &[]).unwrap();
    assert_eq!(world_count(&view).as_f64(), 8.0);
    assert!(try_enumerate(&view, 8).is_ok());
    assert!(try_enumerate(&view, 7).is_err());
}

#[test]
fn probabilities_and_members_are_consistent() {
    // Every world's probability must equal the product implied by its
    // membership pattern.
    let view = RankedView::from_ranked_probs(&[0.3, 0.6, 0.3], &[vec![1, 2]]).unwrap();
    let worlds = try_enumerate(&view, 100).unwrap();
    assert_eq!(worlds.len(), 2 * 3); // independent {in,out} x rule {m1, m2, none}
    for w in &worlds {
        let indep = if w.contains(0) { 0.3 } else { 0.7 };
        let rule = if w.contains(1) {
            0.6
        } else if w.contains(2) {
            0.3
        } else {
            1.0 - 0.9
        };
        assert!(
            (w.prob - indep * rule).abs() < 1e-12,
            "world {:?}: {} vs {}",
            w.members,
            w.prob,
            indep * rule
        );
    }
}
