//! Subset-probability dynamic programming (Theorem 2 of the paper).
//!
//! For a set `S` of independent tuples with probabilities `q_1, …, q_m`, the
//! *subset probability* `Pr(S, j)` is the probability that exactly `j` of
//! them appear — the Poisson-binomial distribution. The engine only ever
//! needs `j ≤ k−1` (Eq. 4 sums `Pr(S, j)` for `j < k`), so every row here is
//! truncated to length `k`.
//!
//! Rows are manipulated by three primitives:
//! * [`convolve_in_place`] — add one element (`Pr(S ∪ {t}, ·)` from
//!   `Pr(S, ·)`), the recurrence of Theorem 2; [`convolve_into`] writes the
//!   same bits into another row;
//! * [`deconvolve`] — remove one element, used to bound the top-k
//!   probability of future tuples that exclude their own rule-tuple;
//! * [`partial_sum`] — `Σ_{j<k} Pr(S, j)`, the factor in Eq. 4.

/// The initial DP row for the empty set: `Pr(∅, 0) = 1`, `Pr(∅, j) = 0`.
pub fn unit_row(k: usize) -> Vec<f64> {
    assert!(k > 0, "rows must have length k >= 1");
    let mut row = vec![0.0; k];
    row[0] = 1.0;
    row
}

/// Applies Theorem 2 in place: transforms `Pr(S, ·)` into `Pr(S ∪ {t}, ·)`
/// for an independent element with probability `q`.
///
/// Truncation: the count `j = k` and above is dropped, which is exactly the
/// mass the top-k computation never reads.
#[inline]
pub fn convolve_in_place(row: &mut [f64], q: f64) {
    debug_assert!((0.0..=1.0).contains(&q));
    let not_q = 1.0 - q;
    for j in (1..row.len()).rev() {
        row[j] = row[j - 1] * q + row[j] * not_q;
    }
    row[0] *= not_q;
}

/// Out-of-place [`convolve_in_place`]: writes `Pr(S ∪ {t}, ·)` into `out`
/// from `Pr(S, ·)` in `row`.
///
/// Each cell is the same two products and one sum, in the same order, as
/// copying `row` into `out` and convolving the copy in place, so `out`
/// holds exactly those bits (pinned in `tests/dp_convolve.rs`) without the
/// copy.
///
/// # Panics
/// Panics if the rows differ in length.
#[inline]
pub fn convolve_into(row: &[f64], out: &mut [f64], q: f64) {
    debug_assert!((0.0..=1.0).contains(&q));
    assert_eq!(row.len(), out.len(), "rows must have the same length");
    let not_q = 1.0 - q;
    if let (Some(first), Some(&head)) = (out.first_mut(), row.first()) {
        *first = head * not_q;
    }
    for (cell, pair) in out.iter_mut().skip(1).zip(row.windows(2)) {
        *cell = pair[0] * q + pair[1] * not_q;
    }
}

/// Out-of-place version of [`convolve_in_place`].
pub fn convolve(row: &[f64], q: f64) -> Vec<f64> {
    let mut out = vec![0.0; row.len()];
    convolve_into(row, &mut out, q);
    out
}

/// Largest tolerated relative error when re-convolving a deconvolved row
/// against its input (plus a `1e-12` absolute floor for near-zero
/// entries). Exceeding it means the inversion lost row mass.
const DECONVOLVE_MAX_REL_ERROR: f64 = 1e-6;

/// Largest certified mass the inversion may have shed when it returns
/// `Some`: `partial_sum(deconvolve(row, q)) ≥` the true partial sum minus
/// this. Enforced by the running error bound inside [`deconvolve`], which
/// returns `None` otherwise.
pub const DECONVOLVE_MAX_MASS_ERROR: f64 = 1e-7;

/// Mass slack consumers must add when using a deconvolved row's
/// [`partial_sum`] as an *upper* bound: an order of magnitude above
/// [`DECONVOLVE_MAX_MASS_ERROR`], and still costing pruning nothing
/// (thresholds are `O(0.1)`). Shedding mass would shrink the pruning
/// upper bound — the non-conservative direction — so the margin errs
/// large. `tests/deconvolve_bound.rs` asserts observed shed stays an
/// order of magnitude below this slack.
pub const DECONVOLVE_MASS_SLACK: f64 = 1e-5;

/// Inverts [`convolve_in_place`]: given `Pr(S, ·)` and an element `q ∈ S`,
/// recovers `Pr(S \ {q}, ·)` in `O(k)`.
///
/// Returns `None` when the inversion is numerically unsafe — callers fall
/// back to recomputing from scratch or to a trivial bound. The recurrence
/// divides by `1 − q`, so its condition number is `(q/(1−q))^j`: near
/// `q = 1` errors amplify per entry, and an undetected negative error on
/// late entries silently sheds row mass (shrinking [`partial_sum`] and
/// with it the pruning upper bound — the non-conservative direction).
/// Guards, in order:
///
/// 1. `q` within `1e-6` of 1 — the division amplifies error unboundedly.
/// 2. A running first-order rounding-error bound `err[j]`, propagated
///    through the same recurrence. An entry more negative than `−err[j]`
///    means the inversion diverged beyond explainable float noise;
///    clamping a small negative entry folds the clamped magnitude into
///    the bound. Because the mass error telescopes to
///    `Σ ρ_j + q·err[last]` (ρ_j the per-step residuals), the final check
///    `q·err[last] ≤` [`DECONVOLVE_MAX_MASS_ERROR`] *certifies* the
///    returned row has not shed more than that mass.
/// 3. A posteriori verification that re-convolving the result reproduces
///    the input row within `DECONVOLVE_MAX_REL_ERROR` — a cheap
///    independent check on the implementation itself.
pub fn deconvolve(row: &[f64], q: f64) -> Option<Vec<f64>> {
    debug_assert!((0.0..=1.0).contains(&q));
    let not_q = 1.0 - q;
    if not_q < 1e-6 {
        return None;
    }
    // A few ulps per operation; the exact constant only shifts the
    // rejection frontier, correctness needs it ≥ the true rounding error.
    let eps = 4.0 * f64::EPSILON;
    let mut out = vec![0.0; row.len()];
    out[0] = row[0] / not_q;
    // First-order bound on |out[j] − true value|, advanced alongside the
    // recurrence: err ← (q·err + local rounding)/(1−q).
    let mut err = eps * out[0].abs();
    for j in 1..row.len() {
        out[j] = (row[j] - out[j - 1] * q) / not_q;
        let local = eps * (row[j].abs() + q * out[j - 1].abs());
        err = (q * err + local) / not_q + eps * out[j].abs();
        if out[j] < 0.0 {
            if out[j] < -err {
                // More than certified float noise: the inversion diverged.
                return None;
            }
            // Benign noise; clamp so downstream partial sums stay
            // monotone, and account for the mass the clamp sheds.
            err += -out[j];
            out[j] = 0.0;
        }
    }
    if q * err > DECONVOLVE_MAX_MASS_ERROR {
        return None;
    }
    for j in 0..row.len() {
        let carried = if j > 0 { out[j - 1] * q } else { 0.0 };
        let reconstructed = out[j] * not_q + carried;
        if (reconstructed - row[j]).abs() > DECONVOLVE_MAX_REL_ERROR * row[j].abs() + 1e-12 {
            return None;
        }
    }
    Some(out)
}

/// `Σ_j row[j]` — with rows of length `k`, this is `Σ_{j<k} Pr(S, j)`, the
/// probability that at most `k−1` elements of `S` appear (Eq. 4's factor).
///
/// The accumulation loop is unrolled four-wide but performs the *same
/// additions in the same order* as the scalar fold, so the result is
/// bit-identical to [`partial_sum_scalar`] (pinned in
/// `tests/dp_partial_sum.rs`); the unroll only amortizes loop-control
/// overhead on the `O(k)`-per-entry hot path, it never reassociates.
#[inline]
pub fn partial_sum(row: &[f64]) -> f64 {
    let mut chunks = row.chunks_exact(4);
    // `iter().sum::<f64>()` folds from -0.0 (std's additive identity for
    // floats); start there so even the empty row matches bit for bit.
    let mut acc = -0.0f64;
    for c in &mut chunks {
        acc = (((acc + c[0]) + c[1]) + c[2]) + c[3];
    }
    for &x in chunks.remainder() {
        acc += x;
    }
    acc
}

/// The audited scalar reference for [`partial_sum`]: a plain left-to-right
/// fold. Kept public so tests (and any doubting reader) can check the
/// unrolled version is a pure refactoring.
#[inline]
pub fn partial_sum_scalar(row: &[f64]) -> f64 {
    row.iter().sum()
}

/// The full truncated Poisson-binomial row for a sequence of independent
/// probabilities: `Pr({q_1..q_m}, j)` for `j < k`.
pub fn poisson_binomial<I: IntoIterator<Item = f64>>(probs: I, k: usize) -> Vec<f64> {
    let mut row = unit_row(k);
    for q in probs {
        convolve_in_place(&mut row, q);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn unit_row_shape() {
        let r = unit_row(4);
        assert_eq!(r, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn unit_row_rejects_zero_k() {
        let _ = unit_row(0);
    }

    #[test]
    fn convolve_matches_hand_computation() {
        // Two elements 0.5 and 0.2: Pr(0)=0.4, Pr(1)=0.5, Pr(2)=0.1.
        let row = poisson_binomial([0.5, 0.2], 3);
        assert!((row[0] - 0.4).abs() < TOL);
        assert!((row[1] - 0.5).abs() < TOL);
        assert!((row[2] - 0.1).abs() < TOL);
    }

    #[test]
    fn example_2_subset_probabilities() {
        // Paper Example 2: S_{t3} = {0.7, 0.2, 1.0}:
        // Pr(S,0) = 0, Pr(S,1) = 0.24, Pr(S,2) = 0.62.
        let row = poisson_binomial([0.7, 0.2, 1.0], 3);
        assert!(row[0].abs() < TOL);
        assert!((row[1] - 0.24).abs() < TOL);
        assert!((row[2] - 0.62).abs() < TOL);
    }

    #[test]
    fn truncation_drops_high_counts_only() {
        // With k=2, mass for j >= 2 is dropped: partial sum is
        // Pr(at most 1 of the three appears).
        let row = poisson_binomial([0.5, 0.5, 0.5], 2);
        // Pr(0) = 0.125, Pr(1) = 0.375.
        assert!((partial_sum(&row) - 0.5).abs() < TOL);
    }

    #[test]
    fn certain_element_shifts_row() {
        let row = poisson_binomial([1.0, 0.3], 3);
        assert!(row[0].abs() < TOL);
        assert!((row[1] - 0.7).abs() < TOL);
        assert!((row[2] - 0.3).abs() < TOL);
    }

    #[test]
    fn row_sums_to_one_when_k_exceeds_m() {
        let row = poisson_binomial([0.3, 0.6, 0.9], 10);
        assert!((partial_sum(&row) - 1.0).abs() < TOL);
    }

    #[test]
    fn deconvolve_inverts_convolve() {
        let base = poisson_binomial([0.3, 0.6, 0.45, 0.8], 5);
        let with_q = convolve(&base, 0.25);
        let back = deconvolve(&with_q, 0.25).unwrap();
        for (a, b) in back.iter().zip(base.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn deconvolve_refuses_near_certain_elements() {
        let row = poisson_binomial([0.5, 1.0 - 1e-9], 3);
        assert!(deconvolve(&row, 1.0 - 1e-9).is_none());
        assert!(deconvolve(&row, 1.0).is_none());
    }

    #[test]
    fn deconvolve_clamps_negatives() {
        // Construct a row with float noise and check no negative entries
        // survive.
        let mut row = poisson_binomial([0.9, 0.9, 0.9], 4);
        row[3] -= 1e-16; // inject drift
        let out = deconvolve(&row, 0.9).unwrap();
        assert!(out.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn deconvolve_detects_clamp_induced_mass_drift() {
        // q just below the 1e-6 cutoff passes the first guard, but this
        // row is not a convolution with q of any non-negative row: the
        // recurrence drives an entry negative, the clamp sheds mass, and
        // re-convolving no longer reproduces the input.
        let q = 1.0 - 2e-6;
        assert!(deconvolve(&[1e-9, 0.5, 0.5], q).is_none());
    }

    #[test]
    fn deconvolve_near_the_cutoff_answers_only_when_certifiable() {
        // Near-1 q amplifies error by (q/(1−q))^j, so what still inverts
        // depends on row length: a 2-entry row's error bound stays tiny
        // and the inversion is accepted (and accurate), while by entry 3
        // the bound exceeds the mass tolerance and the inversion must
        // decline rather than risk silently shedding row mass.
        let q = 1.0 - 2e-6;
        let short = convolve(&poisson_binomial([0.3], 2), q);
        let back = deconvolve(&short, q).expect("2-entry row is certifiable");
        assert!((back[0] - poisson_binomial([0.3], 2)[0]).abs() < 1e-9);

        let long = convolve(&poisson_binomial([0.3, 0.6], 4), q);
        assert!(
            deconvolve(&long, q).is_none(),
            "4-entry row near the cutoff cannot certify its mass"
        );
    }

    #[test]
    fn convolve_out_of_place_leaves_input() {
        let base = unit_row(3);
        let out = convolve(&base, 0.4);
        assert_eq!(base, unit_row(3));
        assert!((out[0] - 0.6).abs() < TOL);
        assert!((out[1] - 0.4).abs() < TOL);
    }

    #[test]
    fn order_independence() {
        // Eq. 4's observation: the DP result does not depend on element
        // order.
        let a = poisson_binomial([0.1, 0.9, 0.4, 0.7], 4);
        let b = poisson_binomial([0.7, 0.4, 0.9, 0.1], 4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < TOL);
        }
    }
}
