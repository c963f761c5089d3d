//! # `ptk-worlds` — possible-world semantics
//!
//! Enumeration of the possible worlds of an uncertain table and *naive* exact
//! query evaluation by iterating over all of them (Eq. 1–2 of the paper).
//!
//! The number of possible worlds is exponential in the table size, so these
//! evaluators are only feasible on small inputs — which is exactly the
//! paper's motivation for the efficient algorithms in `ptk-engine` and
//! `ptk-sampling`. In this workspace the enumerators serve as the
//! **ground-truth oracle**: every other engine is tested against them.
//!
//! ```
//! use ptk_core::RankedView;
//! use ptk_worlds::{enumerate, naive};
//!
//! // Three independent tuples, ranked: probabilities 0.5, 0.8, 1.0.
//! let view = RankedView::from_ranked_probs(&[0.5, 0.8, 1.0], &[]).unwrap();
//! let worlds = enumerate(&view).unwrap();
//! let total: f64 = worlds.iter().map(|w| w.prob).sum();
//! assert!((total - 1.0).abs() < 1e-12);
//!
//! let pr2 = naive::topk_probabilities(&view, 2).unwrap();
//! assert!((pr2[0] - 0.5).abs() < 1e-12);       // always top-2 when present
//! assert!((pr2[1] - 0.8).abs() < 1e-12);
//! assert!((pr2[2] - (1.0 - 0.5 * 0.8)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod enumerator;
pub mod naive;
mod world;

pub use enumerator::{enumerate, try_enumerate, world_count, WorldEnumerator};
pub use world::PossibleWorld;

/// Error raised when enumeration would exceed the configured world budget.
#[derive(Debug, Clone)]
pub struct TooManyWorlds {
    /// The number of possible worlds the view has.
    pub worlds: ptk_core::WorldCount,
    /// The configured budget.
    pub budget: u64,
}

impl std::fmt::Display for TooManyWorlds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "enumeration of {} possible worlds exceeds the budget of {}; \
             use ptk-engine or ptk-sampling instead",
            self.worlds, self.budget
        )
    }
}

impl std::error::Error for TooManyWorlds {}
