//! Exhaustive enumeration of possible worlds.

use ptk_core::{RankedView, WorldCount};

use crate::{PossibleWorld, TooManyWorlds};

/// Probabilities within this distance of 1 are treated as certain, so that
/// float drift in rule masses never produces tiny negative "no member"
/// branches.
const CERTAIN_EPS: f64 = 1e-12;

/// Default world budget for [`enumerate`].
const DEFAULT_BUDGET: u64 = 4_000_000;

/// One independent stochastic choice of the generative process.
#[derive(Debug, Clone)]
enum Choice {
    /// An independent tuple at `pos`: present with probability `prob`.
    Independent { pos: usize, prob: f64 },
    /// A projected rule: `options[i]` is (member position, probability);
    /// `none_prob` is the probability that no member exists.
    Rule {
        options: Vec<(usize, f64)>,
        none_prob: f64,
    },
}

impl Choice {
    /// Number of alternatives this choice ranges over.
    fn arity(&self) -> usize {
        match self {
            Choice::Independent { prob, .. } => {
                if *prob >= 1.0 - CERTAIN_EPS {
                    1
                } else {
                    2
                }
            }
            Choice::Rule { options, none_prob } => {
                options.len() + usize::from(*none_prob > CERTAIN_EPS)
            }
        }
    }

    /// The `i`-th alternative: the position made present (if any) and its
    /// probability.
    fn option(&self, i: usize) -> (Option<usize>, f64) {
        match self {
            Choice::Independent { pos, prob } => match i {
                0 => (Some(*pos), *prob),
                1 => (None, 1.0 - *prob),
                _ => unreachable!("independent choices have arity <= 2"),
            },
            Choice::Rule { options, none_prob } => {
                if i < options.len() {
                    (Some(options[i].0), options[i].1)
                } else {
                    (None, *none_prob)
                }
            }
        }
    }
}

/// Iterator over every possible world of a ranked view, in odometer order.
///
/// Worlds are produced with their exact probability (Eq. 1); the
/// probabilities of all produced worlds sum to 1 up to float error.
#[derive(Debug)]
pub struct WorldEnumerator {
    choices: Vec<Choice>,
    /// Current odometer digits; `None` once exhausted.
    digits: Option<Vec<usize>>,
}

impl WorldEnumerator {
    /// Creates an enumerator over the worlds of `view`.
    pub fn new(view: &RankedView) -> WorldEnumerator {
        let mut choices = Vec::new();
        for (pos, t) in view.tuples().iter().enumerate() {
            if t.rule.is_none() {
                choices.push(Choice::Independent { pos, prob: t.prob });
            }
        }
        for rule in view.rules() {
            let options: Vec<(usize, f64)> =
                rule.members.iter().map(|&m| (m, view.prob(m))).collect();
            let none_prob = (1.0 - rule.mass).max(0.0);
            choices.push(Choice::Rule { options, none_prob });
        }
        let digits = Some(vec![0; choices.len()]);
        WorldEnumerator { choices, digits }
    }

    /// The number of worlds this enumerator will produce.
    pub fn num_worlds(&self) -> WorldCount {
        WorldCount::product(self.choices.iter().map(Choice::arity))
    }
}

impl Iterator for WorldEnumerator {
    type Item = PossibleWorld;

    fn next(&mut self) -> Option<PossibleWorld> {
        let digits = self.digits.as_mut()?;
        // Materialize the current world.
        let mut members = Vec::new();
        let mut prob = 1.0;
        for (choice, &digit) in self.choices.iter().zip(digits.iter()) {
            let (pos, p) = choice.option(digit);
            if let Some(pos) = pos {
                members.push(pos);
            }
            prob *= p;
        }
        members.sort_unstable();
        // Advance the odometer.
        let mut exhausted = true;
        for (i, choice) in self.choices.iter().enumerate().rev() {
            if digits[i] + 1 < choice.arity() {
                digits[i] += 1;
                for d in digits[i + 1..].iter_mut() {
                    *d = 0;
                }
                exhausted = false;
                break;
            }
        }
        if exhausted {
            self.digits = None;
        }
        Some(PossibleWorld { members, prob })
    }
}

/// The number of possible worlds of `view` (the paper's `|W|` formula, over
/// the projected rules and independent tuples of the view).
pub fn world_count(view: &RankedView) -> WorldCount {
    WorldEnumerator::new(view).num_worlds()
}

/// Enumerates every possible world, within a budget of `max_worlds`.
///
/// # Errors
/// Returns [`TooManyWorlds`] when the view has more worlds than the budget —
/// the caller should fall back to `ptk-engine` or `ptk-sampling`.
pub fn try_enumerate(
    view: &RankedView,
    max_worlds: u64,
) -> Result<Vec<PossibleWorld>, TooManyWorlds> {
    let e = WorldEnumerator::new(view);
    let count = e.num_worlds();
    if count.exceeds(max_worlds) {
        return Err(TooManyWorlds {
            worlds: count,
            budget: max_worlds,
        });
    }
    Ok(e.collect())
}

/// Enumerates every possible world with the default budget (4M worlds).
///
/// # Errors
/// Returns [`TooManyWorlds`] when the view is too large to enumerate.
pub fn enumerate(view: &RankedView) -> Result<Vec<PossibleWorld>, TooManyWorlds> {
    try_enumerate(view, DEFAULT_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panda example (Table 1) in ranked order:
    /// pos 0 = R1 (0.3), 1 = R2 (0.4), 2 = R5 (0.8), 3 = R3 (0.5),
    /// 4 = R4 (1.0), 5 = R6 (0.2); rules R2⊕R3 = {1,3}, R5⊕R6 = {2,5}.
    fn panda() -> RankedView {
        RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
            .unwrap()
    }

    #[test]
    fn panda_has_twelve_worlds() {
        let view = panda();
        assert_eq!(world_count(&view).as_f64(), 12.0);
        let worlds = enumerate(&view).unwrap();
        assert_eq!(worlds.len(), 12);
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn panda_world_probabilities_match_table_2() {
        let view = panda();
        let worlds = enumerate(&view).unwrap();
        // Table 2: W1 = {R1, R2, R4, R5} with probability 0.096. In ranked
        // positions that is {0, 1, 2, 4}.
        let find = |members: &[usize]| {
            worlds
                .iter()
                .find(|w| w.members == members)
                .unwrap_or_else(|| panic!("world {members:?} missing"))
                .prob
        };
        assert!((find(&[0, 1, 2, 4]) - 0.096).abs() < 1e-12); // W1
        assert!((find(&[0, 1, 4, 5]) - 0.024).abs() < 1e-12); // W2
        assert!((find(&[0, 2, 3, 4]) - 0.12).abs() < 1e-12); // W3
        assert!((find(&[0, 3, 4, 5]) - 0.03).abs() < 1e-12); // W4
        assert!((find(&[0, 2, 4]) - 0.024).abs() < 1e-12); // W5
        assert!((find(&[0, 4, 5]) - 0.006).abs() < 1e-12); // W6
        assert!((find(&[1, 2, 4]) - 0.224).abs() < 1e-12); // W7
        assert!((find(&[1, 4, 5]) - 0.056).abs() < 1e-12); // W8
        assert!((find(&[2, 3, 4]) - 0.28).abs() < 1e-12); // W9
        assert!((find(&[3, 4, 5]) - 0.07).abs() < 1e-12); // W10
        assert!((find(&[2, 4]) - 0.056).abs() < 1e-12); // W11
        assert!((find(&[4, 5]) - 0.014).abs() < 1e-12); // W12
    }

    #[test]
    fn certain_rule_always_produces_a_member() {
        // Rule of mass exactly 1: no "none" branch.
        let view = RankedView::from_ranked_probs(&[0.6, 0.4], &[vec![0, 1]]).unwrap();
        let worlds = enumerate(&view).unwrap();
        assert_eq!(worlds.len(), 2);
        assert!(worlds.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn certain_tuple_always_present() {
        let view = RankedView::from_ranked_probs(&[1.0, 0.5], &[]).unwrap();
        let worlds = enumerate(&view).unwrap();
        assert_eq!(worlds.len(), 2);
        assert!(worlds.iter().all(|w| w.contains(0)));
    }

    #[test]
    fn empty_view_has_one_empty_world() {
        let view = RankedView::from_ranked_probs(&[], &[]).unwrap();
        let worlds = enumerate(&view).unwrap();
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].is_empty());
        assert_eq!(worlds[0].prob, 1.0);
    }

    #[test]
    fn budget_is_enforced() {
        let probs = vec![0.5; 30];
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let err = try_enumerate(&view, 1000).unwrap_err();
        assert_eq!(err.worlds.as_f64(), 2f64.powi(30));
        assert_eq!(err.budget, 1000);
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn worlds_are_distinct() {
        let view =
            RankedView::from_ranked_probs(&[0.5, 0.5, 0.5, 0.7, 0.2], &[vec![1, 4]]).unwrap();
        let worlds = enumerate(&view).unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in &worlds {
            assert!(
                seen.insert(w.members.clone()),
                "duplicate world {:?}",
                w.members
            );
        }
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rule_members_are_exclusive_in_every_world() {
        let view = RankedView::from_ranked_probs(&[0.3, 0.3, 0.3, 0.5], &[vec![0, 1, 2]]).unwrap();
        for w in enumerate(&view).unwrap() {
            let in_rule = w.members.iter().filter(|&&m| m <= 2).count();
            assert!(in_rule <= 1);
        }
    }
}
