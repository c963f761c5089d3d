//! A synthesizer standing in for the IIP Iceberg Sightings Database (§6.1).
//!
//! The real database (4,231 tuples and 825 multi-tuple rules after the
//! paper's preprocessing) is not redistributable here, so this module
//! generates a dataset with the same structure and the same preprocessing
//! semantics:
//!
//! * each record is an iceberg sighting with a *number of days drifted*
//!   score and a sighting source among the paper's six confidence classes —
//!   R/V 0.8, VIS 0.7, RAD 0.6, SAT-L 0.5, SAT-M 0.4, SAT-H 0.3;
//! * sightings of the same iceberg (same timestamp, locations within 0.01°)
//!   form a multi-tuple rule; `Pr(R)` is the **maximum** member confidence
//!   and each member's membership probability is
//!   `conf(t) / Σ conf · Pr(R)` — exactly the paper's renormalization;
//! * single sightings are independent tuples whose membership probability is
//!   their confidence.
//!
//! The §6.1 experiment is qualitative (which tuples PT-k, U-TopK and
//! U-KRanks return and how the answer sets differ), and those contrasts
//! depend on this structure, not on the underlying real measurements — see
//! `DESIGN.md` for the substitution argument.

use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::{
    RankedView, Ranking, TopKQuery, TupleId, UncertainTable, UncertainTableBuilder, Value,
};

use crate::normal::sample_normal;

/// The paper's six sighting-source confidence classes.
pub const CONFIDENCE_CLASSES: [(&str, f64); 6] = [
    ("R/V", 0.8),
    ("VIS", 0.7),
    ("RAD", 0.6),
    ("SAT-L", 0.5),
    ("SAT-M", 0.4),
    ("SAT-H", 0.3),
];

/// Relative frequencies of the confidence classes among sightings. Airborne
/// radar-and-visual reconnaissance dominates the real database's sources.
const CLASS_WEIGHTS: [f64; 6] = [0.35, 0.20, 0.15, 0.12, 0.10, 0.08];

/// Configuration of the IIP synthesizer. Defaults match the preprocessed
/// database of §6.1: 4,231 tuples and 825 multi-tuple rules with 2–10
/// members.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IipConfig {
    /// Total sightings (tuples).
    pub tuples: usize,
    /// Number of multi-sighting icebergs (multi-tuple rules).
    pub rules: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IipConfig {
    fn default() -> Self {
        IipConfig {
            tuples: 4_231,
            rules: 825,
            seed: 2006,
        }
    }
}

/// The synthesized sightings dataset.
#[derive(Debug, Clone)]
pub struct IipDataset {
    /// Columns: `drifted_days` (float), `source` (text), `latitude`,
    /// `longitude` (floats), `day` (int).
    pub table: UncertainTable,
    /// Ranked view: `ORDER BY drifted_days DESC`, no predicate.
    pub view: RankedView,
}

impl IipDataset {
    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics if the configuration would need more rule members than
    /// tuples; see [`IipDataset::try_generate`].
    pub fn generate(config: &IipConfig) -> IipDataset {
        IipDataset::try_generate(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`IipDataset::generate`], refusing a configuration whose drawn rule
    /// sizes need more rule members than it has tuples.
    pub fn try_generate(config: &IipConfig) -> Result<IipDataset, String> {
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Rule sizes: mostly 2–3 co-sightings, occasionally up to 10
        // (matching the paper's "varies from 2 to 10").
        let sizes: Vec<usize> = (0..config.rules)
            .map(|_| {
                let u: f64 = rng.random();
                (2.0 + 8.0 * u.powi(4)).floor().min(10.0) as usize
            })
            .collect();
        let dependent: usize = sizes.iter().sum();
        if dependent > config.tuples {
            return Err(format!(
                "{dependent} rule members exceed {} tuples",
                config.tuples
            ));
        }

        let columns = vec![
            "drifted_days".to_owned(),
            "source".to_owned(),
            "latitude".to_owned(),
            "longitude".to_owned(),
            "day".to_owned(),
        ];
        let mut builder = UncertainTableBuilder::new(columns);

        let draw_class = |rng: &mut StdRng| -> (&'static str, f64) {
            let u: f64 = rng.random();
            let mut acc = 0.0;
            for (i, w) in CLASS_WEIGHTS.iter().enumerate() {
                acc += w;
                if u < acc {
                    return CONFIDENCE_CLASSES[i];
                }
            }
            CONFIDENCE_CLASSES[5]
        };
        // Iceberg drift durations: roughly exponential with a long tail, so
        // the top of the ranking looks like Table 6 (a few hundred days).
        let draw_drift = |rng: &mut StdRng| -> f64 {
            let u: f64 = rng.random();
            55.0 * (-(1.0 - u).ln()) + sample_normal(rng, 10.0, 5.0).max(0.0)
        };

        // Multi-sighting icebergs.
        for size in &sizes {
            let base_drift = draw_drift(&mut rng);
            let base_lat = rng.random_range(40.0..52.0f64);
            let base_lon = rng.random_range(-57.0..-39.0f64);
            let day = rng.random_range(0..365i64);
            let members: Vec<(f64, &'static str, f64)> = (0..*size)
                .map(|_| {
                    let (source, conf) = draw_class(&mut rng);
                    // Co-sightings disagree slightly on the derived drift.
                    let drift = (base_drift + sample_normal(&mut rng, 0.0, 3.0)).max(0.0);
                    (drift, source, conf)
                })
                .collect();
            // §6.1 preprocessing: Pr(R) = max confidence; members
            // renormalized by their confidence share.
            let rule_mass = members.iter().map(|m| m.2).fold(0.0f64, f64::max);
            let conf_total: f64 = members.iter().map(|m| m.2).sum();
            let mut ids: Vec<TupleId> = Vec::with_capacity(*size);
            for (drift, source, conf) in members {
                let membership = conf / conf_total * rule_mass;
                let id = builder
                    .push(
                        membership,
                        [
                            Value::Float(drift),
                            Value::from(source),
                            Value::Float(base_lat + rng.random_range(-0.005..0.005f64)),
                            Value::Float(base_lon + rng.random_range(-0.005..0.005f64)),
                            Value::Int(day),
                        ],
                    )
                    .expect("synthesized memberships are valid");
                ids.push(id);
            }
            builder
                .exclusive(&ids)
                .expect("synthesized rules are valid");
        }

        // Independent single sightings.
        for _ in dependent..config.tuples {
            let (source, conf) = draw_class(&mut rng);
            let drift = draw_drift(&mut rng);
            builder
                .push(
                    conf,
                    [
                        Value::Float(drift),
                        Value::from(source),
                        Value::Float(rng.random_range(40.0..52.0f64)),
                        Value::Float(rng.random_range(-57.0..-39.0f64)),
                        Value::Int(rng.random_range(0..365i64)),
                    ],
                )
                .expect("confidences are valid memberships");
        }

        let table = builder.finish().expect("synthesized table is valid");
        let query = TopKQuery::top(1, Ranking::descending(0));
        let view = RankedView::build(&table, &query).expect("numeric drift column");
        Ok(IipDataset { table, view })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_generate_refuses_overfull_rules() {
        let config = IipConfig {
            tuples: 5,
            rules: 3,
            seed: 0,
        };
        let err = IipDataset::try_generate(&config).unwrap_err();
        assert!(err.ends_with("rule members exceed 5 tuples"), "{err}");
        let result = std::panic::catch_unwind(|| IipDataset::generate(&config));
        assert!(result.is_err(), "generate keeps panicking");
    }

    #[test]
    fn default_shape_matches_paper() {
        let ds = IipDataset::generate(&IipConfig::default());
        assert_eq!(ds.table.len(), 4_231);
        assert_eq!(ds.table.rules().len(), 825);
        for rule in ds.table.rules() {
            assert!((2..=10).contains(&rule.len()), "rule size {}", rule.len());
        }
    }

    #[test]
    fn rule_mass_is_max_confidence() {
        let ds = IipDataset::generate(&IipConfig {
            tuples: 600,
            rules: 120,
            seed: 3,
        });
        let source_col = ds.table.column_index("source").unwrap();
        for rule in ds.table.rules() {
            let max_conf = rule
                .members()
                .iter()
                .map(|&m| {
                    let s = ds
                        .table
                        .tuple(m)
                        .attr(source_col)
                        .unwrap()
                        .as_text()
                        .unwrap();
                    CONFIDENCE_CLASSES.iter().find(|(n, _)| *n == s).unwrap().1
                })
                .fold(0.0f64, f64::max);
            assert!(
                (rule.mass().value() - max_conf).abs() < 1e-9,
                "rule mass {} vs max confidence {max_conf}",
                rule.mass()
            );
        }
    }

    #[test]
    fn memberships_are_confidence_shares() {
        let ds = IipDataset::generate(&IipConfig {
            tuples: 600,
            rules: 120,
            seed: 4,
        });
        let source_col = ds.table.column_index("source").unwrap();
        for rule in ds.table.rules() {
            let confs: Vec<f64> = rule
                .members()
                .iter()
                .map(|&m| {
                    let s = ds
                        .table
                        .tuple(m)
                        .attr(source_col)
                        .unwrap()
                        .as_text()
                        .unwrap();
                    CONFIDENCE_CLASSES.iter().find(|(n, _)| *n == s).unwrap().1
                })
                .collect();
            let total: f64 = confs.iter().sum();
            let mass = rule.mass().value();
            for (&m, conf) in rule.members().iter().zip(&confs) {
                let expected = conf / total * mass;
                let got = ds.table.tuple(m).membership().value();
                assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
            }
        }
    }

    #[test]
    fn independent_membership_is_confidence() {
        let ds = IipDataset::generate(&IipConfig {
            tuples: 500,
            rules: 50,
            seed: 5,
        });
        let source_col = ds.table.column_index("source").unwrap();
        let legal: Vec<f64> = CONFIDENCE_CLASSES.iter().map(|c| c.1).collect();
        for t in ds.table.tuples() {
            if !ds.table.is_dependent(t.id()) {
                let p = t.membership().value();
                assert!(
                    legal.iter().any(|c| (c - p).abs() < 1e-12),
                    "membership {p}"
                );
                let s = t.attr(source_col).unwrap().as_text().unwrap();
                let conf = CONFIDENCE_CLASSES.iter().find(|(n, _)| *n == s).unwrap().1;
                assert!((p - conf).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn view_is_sorted_by_drift() {
        let ds = IipDataset::generate(&IipConfig {
            tuples: 400,
            rules: 40,
            seed: 6,
        });
        let keys: Vec<f64> = ds.view.tuples().iter().map(|t| t.key.unwrap()).collect();
        for w in keys.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(keys[0] > 100.0, "top drift {} suspiciously small", keys[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = IipDataset::generate(&IipConfig::default());
        let b = IipDataset::generate(&IipConfig::default());
        assert_eq!(a.view, b.view);
    }
}
