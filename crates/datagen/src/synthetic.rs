//! Synthetic uncertain tables per §6.2 of the paper.

use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::{RankedView, Ranking, TopKQuery, TupleId, UncertainTable, UncertainTableBuilder};

use crate::normal::{sample_normal, sample_normal_clamped};

/// Relationship between a tuple's rank (score) and its membership
/// probability. The paper's workloads draw the two independently; the
/// correlated modes are ablation knobs — correlation makes the pruning
/// rules dramatically more effective (high-probability tuples concentrate
/// at the top, saturating Theorem 5 early), anti-correlation is the
/// adversarial case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreProbCorrelation {
    /// Scores and probabilities are independent (the paper's setting).
    #[default]
    Independent,
    /// Higher-ranked tuples get the higher membership probabilities.
    Correlated,
    /// Higher-ranked tuples get the lower membership probabilities.
    AntiCorrelated,
}

/// Where a rule's members land in the ranked order.
///
/// The paper's workload scatters members uniformly, which makes rule
/// *spans* (first member rank → last member rank) enormous: with the
/// default 2,000 rules over 20,000 tuples, essentially every rank is
/// interior to some rule, so an unpruned scan keeps a rule open at almost
/// every rank and its DP arena holds almost the whole list. Real
/// x-relations are often the opposite — the tuples of one rule describe
/// the same real-world entity (the paper's iceberg-sighting example) and
/// carry similar scores, so rules are rank-local, each closes soon after
/// it opens, and the arena stays a short stretch of rows. `Clustered`
/// models that regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RulePlacement {
    /// Members at uniformly random ranks (the paper's setting).
    #[default]
    Uniform,
    /// Each rule's members drawn from a random contiguous rank window of
    /// `span` positions (widened to the rule size if smaller, and walked
    /// forward past occupied slots, so spans can exceed `span` slightly
    /// under contention).
    Clustered {
        /// Window width in ranks.
        span: usize,
    },
}

/// Configuration of the synthetic generator. The defaults are the paper's:
/// 20,000 tuples, 2,000 multi-tuple rules, membership probabilities
/// `N(0.5, 0.2)`, rule probabilities `N(0.7, 0.2)`, rule sizes `N(5, 2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Total number of tuples.
    pub tuples: usize,
    /// Number of multi-tuple generation rules.
    pub rules: usize,
    /// Mean of the independent-tuple membership probability distribution.
    pub tuple_prob_mean: f64,
    /// Standard deviation of the membership probability distribution.
    pub tuple_prob_sd: f64,
    /// Mean of the rule probability (`Pr(R)`) distribution.
    pub rule_prob_mean: f64,
    /// Standard deviation of the rule probability distribution.
    pub rule_prob_sd: f64,
    /// Mean of the rule size (`|R|`) distribution.
    pub rule_size_mean: f64,
    /// Standard deviation of the rule size distribution.
    pub rule_size_sd: f64,
    /// RNG seed.
    pub seed: u64,
    /// Rank/probability correlation of the independent tuples.
    pub correlation: ScoreProbCorrelation,
    /// Where rule members land in the ranked order.
    pub placement: RulePlacement,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            tuples: 20_000,
            rules: 2_000,
            tuple_prob_mean: 0.5,
            tuple_prob_sd: 0.2,
            rule_prob_mean: 0.7,
            rule_prob_sd: 0.2,
            rule_size_mean: 5.0,
            rule_size_sd: 2.0,
            seed: 0,
            correlation: ScoreProbCorrelation::Independent,
            placement: RulePlacement::Uniform,
        }
    }
}

impl SyntheticConfig {
    /// The paper's default workload with a given seed.
    pub fn with_seed(seed: u64) -> Self {
        SyntheticConfig {
            seed,
            ..Default::default()
        }
    }
}

/// A generated synthetic dataset: the uncertain table (single `score`
/// column, scores strictly decreasing in generation order) and its ranked
/// view under `ORDER BY score DESC`.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated table.
    pub table: UncertainTable,
    /// The ranked view of the table (score descending, no predicate).
    pub view: RankedView,
    /// The configuration used.
    pub config: SyntheticConfig,
}

impl SyntheticDataset {
    /// Generates a dataset from `config`.
    ///
    /// By default rule members are assigned to uniformly random positions
    /// across the ranked order (the paper does not localize them), so rule
    /// spans are large — the hard case for the engine's rule handling.
    /// [`RulePlacement::Clustered`] instead draws each rule's members from
    /// a contiguous rank window, the rank-local regime of entity-grouped
    /// x-relations. Member probabilities split the rule's mass by uniform
    /// random weights either way.
    ///
    /// # Panics
    /// Panics if `config` asks for more rule members than tuples; see
    /// [`SyntheticDataset::try_generate`].
    pub fn generate(config: &SyntheticConfig) -> SyntheticDataset {
        SyntheticDataset::try_generate(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SyntheticDataset::generate`], refusing a `config` whose drawn rule
    /// sizes need more rule members than it has tuples.
    pub fn try_generate(config: &SyntheticConfig) -> Result<SyntheticDataset, String> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.tuples;

        // Decide rule sizes first, then draw that many distinct tuple slots.
        let sizes: Vec<usize> = (0..config.rules)
            .map(|_| {
                sample_normal(&mut rng, config.rule_size_mean, config.rule_size_sd)
                    .round()
                    .max(2.0) as usize
            })
            .collect();
        let dependent: usize = sizes.iter().sum();
        if dependent > n {
            return Err(format!(
                "{dependent} rule members exceed {n} tuples; lower `rules` or `rule_size_mean`"
            ));
        }

        // Member placement. Both arms yield the rule member groups (each
        // sorted ascending) and the independent positions, in the exact
        // order their probabilities will be drawn — the uniform arm keeps
        // the historical RNG draw sequence bit for bit, so default
        // datasets are unchanged.
        let (groups, indep_positions) = match config.placement {
            RulePlacement::Uniform => {
                // Shuffle positions; the first `dependent` become rule
                // members.
                let mut positions: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut positions);
                let mut groups: Vec<Vec<usize>> = Vec::with_capacity(config.rules);
                let mut cursor = 0;
                for &size in &sizes {
                    let mut group: Vec<usize> = positions[cursor..cursor + size].to_vec();
                    cursor += size;
                    group.sort_unstable();
                    groups.push(group);
                }
                (groups, positions[cursor..].to_vec())
            }
            RulePlacement::Clustered { span } => {
                // Each rule claims unused slots walking forward from a
                // uniformly random window start, wrapping at the end —
                // spans stay near `span` while occupancy is low.
                let mut used = vec![false; n];
                let mut groups: Vec<Vec<usize>> = Vec::with_capacity(config.rules);
                for &size in &sizes {
                    let span = span.max(size).min(n);
                    let start = rng.random_range(0..=n - span);
                    let mut group = Vec::with_capacity(size);
                    let mut pos = start;
                    for _ in 0..n {
                        if group.len() == size {
                            break;
                        }
                        if !used[pos] {
                            used[pos] = true;
                            group.push(pos);
                        }
                        pos = (pos + 1) % n;
                    }
                    debug_assert_eq!(group.len(), size, "dependent <= n guarantees room");
                    group.sort_unstable();
                    groups.push(group);
                }
                let indep: Vec<usize> = (0..n).filter(|&p| !used[p]).collect();
                (groups, indep)
            }
        };

        // Membership probability per position.
        let mut probs = vec![0.0f64; n];
        for group in &groups {
            let mass = sample_normal_clamped(
                &mut rng,
                config.rule_prob_mean,
                config.rule_prob_sd,
                0.05,
                1.0,
            );
            // Split the rule mass by uniform random weights.
            let weights: Vec<f64> = group
                .iter()
                .map(|_| rng.random_range(0.05..1.0f64))
                .collect();
            let total: f64 = weights.iter().sum();
            for (&pos, w) in group.iter().zip(&weights) {
                probs[pos] = (mass * w / total).max(1e-6);
            }
        }
        let mut indep_positions = indep_positions;
        let mut indep_probs: Vec<f64> = indep_positions
            .iter()
            .map(|_| {
                sample_normal_clamped(
                    &mut rng,
                    config.tuple_prob_mean,
                    config.tuple_prob_sd,
                    0.001,
                    1.0,
                )
            })
            .collect();
        match config.correlation {
            ScoreProbCorrelation::Independent => {}
            ScoreProbCorrelation::Correlated => {
                // Best rank (smallest position) gets the largest probability.
                indep_positions.sort_unstable();
                indep_probs.sort_by(|a, b| b.total_cmp(a));
            }
            ScoreProbCorrelation::AntiCorrelated => {
                indep_positions.sort_unstable();
                indep_probs.sort_by(|a, b| a.total_cmp(b));
            }
        }
        for (&pos, &p) in indep_positions.iter().zip(&indep_probs) {
            probs[pos] = p;
        }

        // Build the table: scores strictly decreasing, so ranked position i
        // is tuple i.
        let mut builder = UncertainTableBuilder::single_column();
        for (i, &p) in probs.iter().enumerate() {
            builder
                .push_scored(p, (n - i) as f64)
                .expect("generated probabilities are valid");
        }
        for group in &groups {
            let members: Vec<TupleId> = group.iter().map(|&p| TupleId::new(p)).collect();
            builder
                .exclusive(&members)
                .expect("generated rules are valid");
        }
        let table = builder.finish().expect("generated table is valid");
        let query = TopKQuery::top(1, Ranking::descending(0));
        let view = RankedView::build(&table, &query).expect("single numeric column");
        Ok(SyntheticDataset {
            table,
            view,
            config: *config,
        })
    }
}

/// Membership probability of the decoy tuples [`deep_scan_rows`] places
/// right after the head: low enough to fail the threshold immediately,
/// strictly above every tail probability — their failures push the
/// Theorem 3(1) membership bound over the whole tail.
pub const DEEP_SCAN_DECOY_PROB: f64 = 0.05;

/// Configuration of [`deep_scan_rows`]: a clustered deep-scan run
/// workload. The head's strong tuples answer the query but keep the
/// retained probability mass well under `k`, so the Theorem 5 /
/// upper-bound stops stay quiet; the decoys fail at once and raise the
/// Theorem 3(1) membership bound; the long rule-free low-probability
/// tail then accumulates mass only slowly, forcing a scan thousands of
/// ranks deep in which every tail tuple is membership-pruned — the
/// regime where a block-native scan skips whole blocks.
#[derive(Debug, Clone, Copy)]
pub struct DeepScanConfig {
    /// Strong tuples (probability in `[0.8, 0.95)`) at the top of the
    /// ranking.
    pub head: usize,
    /// Decoy tuples at [`DEEP_SCAN_DECOY_PROB`] right after the head.
    pub decoys: usize,
    /// Rule-free tail tuples, probability in
    /// `[0.0005, DEEP_SCAN_DECOY_PROB - 0.005)`.
    pub tail: usize,
    /// Adjacent-pair generation rules placed inside the head.
    pub head_rules: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepScanConfig {
    fn default() -> DeepScanConfig {
        DeepScanConfig {
            head: 48,
            decoys: 4,
            tail: 20_000,
            head_rules: 4,
            seed: 0,
        }
    }
}

/// Generates `(score, probability, rule)` run rows (ready for
/// `ptk_access::write_run_blocked`) in strictly decreasing
/// score order per [`DeepScanConfig`]. Pair a `head` of `H` strong
/// tuples with `k` well above the head's probability mass (e.g.
/// `k >= 2 × H`) so the scan has to dig into the tail before the
/// upper-bound stop can fire.
pub fn deep_scan_rows(config: &DeepScanConfig) -> Vec<(f64, f64, Option<u32>)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.head + config.decoys + config.tail;
    let mut rows: Vec<(f64, f64, Option<u32>)> = Vec::with_capacity(n);
    // Rule pairs are spread evenly across the head.
    let stride = if config.head_rules > 0 {
        (config.head / (2 * config.head_rules).max(1)).max(2)
    } else {
        usize::MAX
    };
    let mut next_rule = 0u32;
    while rows.len() < config.head {
        let i = rows.len();
        let score = (n - i) as f64;
        if next_rule < config.head_rules as u32
            && i % stride == stride - 1
            && rows.len() + 1 < config.head
        {
            rows.push((score, rng.random_range(0.2..0.45), Some(next_rule)));
            rows.push((score - 0.5, rng.random_range(0.2..0.45), Some(next_rule)));
            next_rule += 1;
        } else {
            rows.push((score, rng.random_range(0.8..0.95), None));
        }
    }
    while rows.len() < config.head + config.decoys {
        let i = rows.len();
        rows.push(((n - i) as f64, DEEP_SCAN_DECOY_PROB, None));
    }
    while rows.len() < n {
        let i = rows.len();
        rows.push((
            (n - i) as f64,
            rng.random_range(0.0005..DEEP_SCAN_DECOY_PROB - 0.005),
            None,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            tuples: 2_000,
            rules: 150,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn deep_scan_rows_shape_is_head_decoys_then_rule_free_tail() {
        let config = DeepScanConfig {
            head: 40,
            decoys: 3,
            tail: 500,
            head_rules: 4,
            seed: 9,
        };
        let rows = deep_scan_rows(&config);
        assert_eq!(rows.len(), 543);
        // Strictly decreasing scores; probabilities legal.
        for pair in rows.windows(2) {
            assert!(pair[0].0 > pair[1].0);
        }
        assert!(rows.iter().all(|r| r.1 > 0.0 && r.1 <= 1.0));
        // Exactly head_rules pair rules, all inside the head.
        let ruled: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].2.is_some()).collect();
        assert_eq!(ruled.len(), 2 * config.head_rules);
        assert!(ruled.iter().all(|&i| i < config.head));
        // Decoys sit at the documented bound probability.
        assert!(rows[config.head..config.head + config.decoys]
            .iter()
            .all(|r| r.1 == DEEP_SCAN_DECOY_PROB && r.2.is_none()));
        // The tail is rule-free and entirely below the decoy probability,
        // so Theorem 3(1) covers all of it once a decoy fails.
        assert!(rows[config.head + config.decoys..]
            .iter()
            .all(|r| r.2.is_none() && r.1 < DEEP_SCAN_DECOY_PROB));
        // Deterministic for a fixed seed.
        assert_eq!(rows, deep_scan_rows(&config));
    }

    #[test]
    fn generates_requested_shape() {
        let ds = SyntheticDataset::generate(&small());
        assert_eq!(ds.table.len(), 2_000);
        assert_eq!(ds.table.rules().len(), 150);
        assert_eq!(ds.view.len(), 2_000);
        assert_eq!(ds.view.rules().len(), 150);
    }

    #[test]
    fn ranked_position_equals_tuple_index() {
        let ds = SyntheticDataset::generate(&small());
        for (pos, t) in ds.view.tuples().iter().enumerate() {
            assert_eq!(t.id.index(), pos);
        }
    }

    #[test]
    fn rule_sizes_at_least_two() {
        let ds = SyntheticDataset::generate(&small());
        for rule in ds.view.rules() {
            assert!(rule.members.len() >= 2);
            assert!(rule.mass <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn membership_mean_tracks_config() {
        let config = SyntheticConfig {
            tuples: 20_000,
            rules: 0,
            tuple_prob_mean: 0.3,
            seed: 1,
            ..Default::default()
        };
        let ds = SyntheticDataset::generate(&config);
        let mean: f64 = ds.view.tuples().iter().map(|t| t.prob).sum::<f64>() / ds.view.len() as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticDataset::generate(&small());
        let b = SyntheticDataset::generate(&small());
        assert_eq!(a.view, b.view);
        let c = SyntheticDataset::generate(&SyntheticConfig {
            seed: 43,
            ..small()
        });
        assert_ne!(a.view, c.view);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn rejects_overfull_rules() {
        let config = SyntheticConfig {
            tuples: 10,
            rules: 10,
            ..Default::default()
        };
        let _ = SyntheticDataset::generate(&config);
    }

    #[test]
    fn try_generate_refuses_overfull_rules_and_matches_generate() {
        let overfull = SyntheticConfig {
            tuples: 10,
            rules: 10,
            ..Default::default()
        };
        let err = SyntheticDataset::try_generate(&overfull).unwrap_err();
        assert!(err.ends_with("rule members exceed 10 tuples; lower `rules` or `rule_size_mean`"));
        let config = SyntheticConfig {
            tuples: 300,
            rules: 20,
            ..Default::default()
        };
        let tried = SyntheticDataset::try_generate(&config).unwrap();
        assert_eq!(tried.view, SyntheticDataset::generate(&config).view);
    }

    #[test]
    fn correlation_modes_order_independent_probs() {
        let base = SyntheticConfig {
            tuples: 3_000,
            rules: 0,
            seed: 5,
            ..Default::default()
        };
        let correlated = SyntheticDataset::generate(&SyntheticConfig {
            correlation: ScoreProbCorrelation::Correlated,
            ..base
        });
        let anti = SyntheticDataset::generate(&SyntheticConfig {
            correlation: ScoreProbCorrelation::AntiCorrelated,
            ..base
        });
        let probs = |ds: &SyntheticDataset| -> Vec<f64> {
            ds.view.tuples().iter().map(|t| t.prob).collect()
        };
        let c = probs(&correlated);
        let a = probs(&anti);
        assert!(
            c.windows(2).all(|w| w[0] >= w[1]),
            "correlated must be non-increasing"
        );
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "anti-correlated must be non-decreasing"
        );
        // Same multiset of probabilities either way (same seed).
        let mut cs = c.clone();
        let mut as_ = a.clone();
        cs.sort_by(f64::total_cmp);
        as_.sort_by(f64::total_cmp);
        assert_eq!(cs, as_);
    }

    #[test]
    fn correlation_leaves_rule_members_alone() {
        let config = SyntheticConfig {
            tuples: 2_000,
            rules: 100,
            seed: 6,
            correlation: ScoreProbCorrelation::Correlated,
            ..Default::default()
        };
        let ds = SyntheticDataset::generate(&config);
        for rule in ds.view.rules() {
            let sum: f64 = rule.members.iter().map(|&m| ds.view.prob(m)).sum();
            assert!((sum - rule.mass).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_placement_bounds_rule_spans() {
        let span = 32;
        let config = SyntheticConfig {
            placement: RulePlacement::Clustered { span },
            ..small()
        };
        let ds = SyntheticDataset::generate(&config);
        assert_eq!(ds.table.len(), 2_000);
        assert_eq!(ds.table.rules().len(), 150);
        // Low occupancy (150 rules x ~5 members over 2,000 slots): the
        // forward walk rarely strays far past the window, and never
        // degenerates to table-wide spans.
        for rule in ds.view.rules() {
            let lo = *rule.members.iter().min().unwrap();
            let hi = *rule.members.iter().max().unwrap();
            assert!(
                hi - lo < span * 4,
                "rule span {} exceeds 4x the {span} window",
                hi - lo
            );
            let sum: f64 = rule.members.iter().map(|&m| ds.view.prob(m)).sum();
            assert!((sum - rule.mass).abs() < 1e-9);
        }
        // Deterministic like every other mode.
        let again = SyntheticDataset::generate(&config);
        assert_eq!(ds.view, again.view);
        // And actually different from uniform placement.
        assert_ne!(ds.view, SyntheticDataset::generate(&small()).view);
    }

    #[test]
    fn clustered_placement_survives_full_occupancy() {
        // Every slot becomes a rule member: the walk must wrap and still
        // find room for everyone.
        let config = SyntheticConfig {
            tuples: 40,
            rules: 8,
            rule_size_mean: 5.0,
            rule_size_sd: 0.0,
            placement: RulePlacement::Clustered { span: 4 },
            seed: 3,
            ..Default::default()
        };
        let ds = SyntheticDataset::generate(&config);
        let members: usize = ds.view.rules().iter().map(|r| r.members.len()).sum();
        assert_eq!(members, 40);
    }

    #[test]
    fn rule_member_probabilities_sum_to_rule_mass() {
        let ds = SyntheticDataset::generate(&small());
        for rule in ds.view.rules() {
            let sum: f64 = rule.members.iter().map(|&m| ds.view.prob(m)).sum();
            assert!((sum - rule.mass).abs() < 1e-9);
            assert!(rule.mass >= 0.05 - 1e-9);
        }
    }
}
