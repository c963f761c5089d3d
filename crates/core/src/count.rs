//! Counting possible worlds.

use std::fmt;

/// The number of possible worlds of a table or view: the product of the
/// option counts of its independent choices (§2).
///
/// On large tables the product passes every machine integer and
/// `f64::MAX`, which is exactly the paper's point, so it is kept three
/// ways: exactly while it fits a `u64` (for budget checks), as the `f64`
/// product (for reports, `inf` past `f64::MAX`), and as a sum of `log10`s
/// (for rendering a product past `f64::MAX`). Past 2^53 the last two
/// depend on the order of the factors, so counts do not compare with `==`;
/// compare [`WorldCount::as_f64`] or the rendering.
#[derive(Debug, Clone, Copy)]
pub struct WorldCount {
    exact: Option<u64>,
    product: f64,
    log10: f64,
}

impl WorldCount {
    /// The product of `options`, one option count per independent choice,
    /// multiplied in iteration order.
    pub fn product(options: impl IntoIterator<Item = usize>) -> WorldCount {
        let mut count = WorldCount {
            exact: Some(1),
            product: 1.0,
            log10: 0.0,
        };
        for n in options {
            count.exact = count.exact.and_then(|e| e.checked_mul(n as u64));
            count.product *= n as f64;
            count.log10 += (n as f64).log10();
        }
        count
    }

    /// The count as an `f64`: exact up to 2^53, rounded past it, and
    /// infinite past `f64::MAX`.
    pub fn as_f64(self) -> f64 {
        self.product
    }

    /// Whether there are more than `budget` worlds, compared exactly.
    pub fn exceeds(self, budget: u64) -> bool {
        self.exact.is_none_or(|n| n > budget)
    }
}

/// Scientific notation with three decimals: `{:.3e}` of the `f64` product
/// while it is finite (`1.200e1`), and the same shape from the `log10` sum
/// past `f64::MAX` (`1.722e361`).
impl fmt::Display for WorldCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.product.is_finite() {
            return write!(f, "{:.3e}", self.product);
        }
        let exponent = self.log10.floor();
        let mantissa = format!("{:.3}", 10f64.powf(self.log10 - exponent));
        // Rounding to three decimals can carry into a second digit.
        if mantissa.starts_with("10") {
            write!(f, "1.000e{}", exponent as i64 + 1)
        } else {
            write!(f, "{mantissa}e{}", exponent as i64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_counts_render_like_f64() {
        let count = WorldCount::product([2, 1, 3, 2]);
        assert_eq!(count.as_f64(), 12.0);
        assert_eq!(count.to_string(), "1.200e1");
        assert_eq!(WorldCount::product([]).to_string(), "1.000e0");
        let big = WorldCount::product(std::iter::repeat_n(2, 1000));
        assert_eq!(big.to_string(), format!("{:.3e}", 2f64.powi(1000)));
    }

    #[test]
    fn counts_past_f64_render_from_logs() {
        // 2^1200 = 1.7218…e361 and 2^1100·3^20 = 4.7360…e340.
        let count = WorldCount::product(std::iter::repeat_n(2, 1200));
        assert_eq!(count.as_f64(), f64::INFINITY);
        assert_eq!(count.to_string(), "1.722e361");
        let mixed =
            WorldCount::product(std::iter::repeat_n(2, 1100).chain(std::iter::repeat_n(3, 20)));
        assert_eq!(mixed.to_string(), "4.736e340");
        // 99996·10^396 = 9.9996e400: the mantissa rounds up to 10.000,
        // which carries into the exponent as `{:.3e}` does.
        let carry =
            WorldCount::product(std::iter::once(99_996).chain(std::iter::repeat_n(10, 396)));
        assert_eq!(carry.to_string(), "1.000e401");
        assert_eq!(format!("{:.3e}", 9.9996e300), "1.000e301");
    }

    #[test]
    fn budgets_compare_exactly() {
        let count = WorldCount::product([3, 3]);
        assert!(!count.exceeds(9));
        assert!(count.exceeds(8));
        // 2^53 + 1 rounds to 2^53 in f64, but not here.
        let odd = WorldCount::product([(1 << 53) + 1]);
        assert!(odd.exceeds(1 << 53));
        assert!(!odd.exceeds((1 << 53) + 1));
        // Past u64, every budget is exceeded.
        let huge = WorldCount::product(std::iter::repeat_n(2, 64));
        assert!(huge.exceeds(u64::MAX));
        assert!(!WorldCount::product(std::iter::repeat_n(2, 63)).exceeds(1 << 63));
    }
}
