//! `dp::convolve_into` must write exactly the bits that copying a row and
//! convolving the copy in place writes: the prefix-shared DP stores every
//! row through it, and the engine's answers are pinned bit for bit.

use ptk_core::check::{check, Config};
use ptk_core::prop_assert_eq;
use ptk_core::rng::{RngExt, StdRng};
use ptk_engine::dp;

/// Probabilities at the edges of the kernel: none, certain, one ulp under
/// certain, and so small that `1 − q` rounds to 1.
const EDGE_QS: [f64; 4] = [0.0, 1.0, 1.0 - f64::EPSILON / 2.0, 1e-300];

/// A row cell: a probability, a signed zero, a subnormal or a tiny normal.
fn cell(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(rng.random_range(1..(1u64 << 52))),
        3 => f64::MIN_POSITIVE * rng.random_range(1.0..4.0f64),
        4 => 1.0,
        _ => rng.random_range(0.0..1.0f64) * 10f64.powi(rng.random_range(-300..=0i32)),
    }
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn convolve_into_is_bit_identical_to_copy_then_convolve_in_place() {
    check(
        "convolve_into(row, out, q) == convolve_in_place(row.clone(), q), bit for bit",
        Config::cases(4000).sizes(1, 67).seed(0xc0_2f01),
        |rng, size| {
            let row: Vec<f64> = (0..size).map(|_| cell(rng)).collect();
            let q = if rng.random_bool(0.5) {
                EDGE_QS[rng.random_range(0..EDGE_QS.len())]
            } else {
                rng.random_range(0.0..=1.0f64)
            };
            let mut expected = row.clone();
            dp::convolve_in_place(&mut expected, q);
            // Whatever the output held before is overwritten.
            let mut out = vec![f64::NAN; size];
            dp::convolve_into(&row, &mut out, q);
            prop_assert_eq!(bits(&out), bits(&expected), "q = {q:e}, row = {row:?}");
            prop_assert_eq!(bits(&dp::convolve(&row, q)), bits(&expected));
            Ok(())
        },
    );
}

#[test]
fn convolve_into_chains_like_the_in_place_fold() {
    // A chain of rows, each from its predecessor, as the prefix-shared DP
    // stores them, against one row folded in place.
    for k in [1usize, 2, 3, 4, 5, 8, 17, 64] {
        let qs: Vec<f64> = (1..=40)
            .map(|i| f64::from(i) / 41.0)
            .chain(EDGE_QS)
            .collect();
        let mut folded = dp::unit_row(k);
        let mut chain = dp::unit_row(k);
        for &q in &qs {
            dp::convolve_in_place(&mut folded, q);
            let mut next = vec![0.0; k];
            dp::convolve_into(&chain, &mut next, q);
            chain = next;
            assert_eq!(bits(&chain), bits(&folded), "k {k}, q {q:e}");
        }
    }
}

#[test]
#[should_panic(expected = "same length")]
fn convolve_into_rejects_rows_of_different_lengths() {
    dp::convolve_into(&[1.0, 0.0], &mut [0.0; 3], 0.5);
}
