//! Shared output rendering: answer-row listings.
//!
//! A listing writes each row with one `writeln!` straight into the output:
//! probabilities through [`Fixed`], attributes through [`Attrs`], so off
//! `Fixed`'s fallback a row allocates nothing. See DESIGN.md §12.2.

use std::fmt;
use std::io::Write;

use ptk_core::{RankedView, TupleId, UncertainTable, Value};
use ptk_engine::{PtkResult, SemanticsAnswer};

use super::CmdError;

/// `x` written with `digits` fraction digits: exactly the bytes of
/// `format!("{x:.digits$}")`, without the standard library's exact-mode
/// float formatting on the common path.
///
/// For a sign-positive `x` whose scaled value `s = x·10^digits` (`digits`
/// at most 9) is below 1e9, the f64 product `s` is off the exact one by at
/// most half an ulp of 2^29, 2^-24 ≈ 6e-8. So when the fraction of `s` lies
/// more than 1e-6 from ½, `s` and the exact product round to the same
/// integer, and that integer's digits are the answer. Every other value —
/// ties and near-ties, negatives, −0.0, NaN, ±∞, large values, more than
/// 9 digits — is formatted by the standard library. Both paths write
/// through [`fmt::Formatter::pad`], so a width and an explicit alignment
/// (`{:>8}`, `{:<12}`) pad as they pad a float; as for any string, a width
/// without an alignment pads on the right.
#[derive(Clone, Copy)]
pub(super) struct Fixed(pub(super) f64, pub(super) usize);

/// `10^d` for every `d` the fast path of [`Fixed`] takes, exact in f64.
const POW10: [f64; 10] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// The fast path's bound on `x·10^digits`: below it, the scaled f64 is
/// within 2^-24 of the exact product.
const SCALED_BOUND: f64 = 1e9;

/// How far from ½ the scaled fraction must lie for the fast path, well
/// above its 2^-24 error.
const TIE_WINDOW: f64 = 1e-6;

impl Fixed {
    /// `self` rounded to its digits as a scaled integer, or `None` when
    /// f64 arithmetic cannot decide the rounding (see [`Fixed`]).
    fn scaled(self) -> Option<u64> {
        let Fixed(x, digits) = self;
        let s = x * POW10.get(digits)?;
        // The range refuses NaN and +∞; the sign bit refuses −0.0 along
        // with the negatives.
        if x.is_sign_negative() || !(0.0..SCALED_BOUND).contains(&s) {
            return None;
        }
        let whole = s as u64;
        // Exact: `s` and its floor are within a factor of two (or the
        // floor is 0).
        let fraction = s - whole as f64;
        if (fraction - 0.5).abs() <= TIE_WINDOW {
            return None;
        }
        Some(whole + u64::from(fraction > 0.5))
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(mut rest) = self.scaled() else {
            let Fixed(x, digits) = *self;
            return f.pad(&format!("{x:.digits$}"));
        };
        // At most 10 integer digits, a point and 9 fraction digits.
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut push = |byte: u8| {
            at -= 1;
            buf[at] = byte;
        };
        for _ in 0..self.1 {
            push(b'0' + (rest % 10) as u8);
            rest /= 10;
        }
        if self.1 > 0 {
            push(b'.');
        }
        loop {
            push(b'0' + (rest % 10) as u8);
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        f.pad(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)
    }
}

/// A tuple's source row, comma-joined: each attribute written straight
/// into the formatter.
pub(super) struct Attrs<'a>(&'a [Value]);

impl<'a> Attrs<'a> {
    /// The attributes of tuple `id` of `table`.
    pub(super) fn of(table: &'a UncertainTable, id: TupleId) -> Attrs<'a> {
        Attrs(table.tuple(id).attrs())
    }
}

impl fmt::Display for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, value) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{value}")?;
        }
        Ok(())
    }
}

/// The header line of a PT-k answer listing, shared by `ptk query` and
/// `ptk sql`.
pub(super) fn ptk_header(k: usize, p: f64, note: &str, count: usize) -> String {
    format!("{count} tuples pass Pr^{k} >= {p} ({note})")
}

/// One row of a PT-k answer listing.
pub(super) struct PtkRow {
    /// The tuple's 0-based position in the query's ranked `P(T)`.
    pub(super) pos: usize,
    pub(super) id: TupleId,
    /// Its top-k probability `Pr^k`.
    pub(super) prk: f64,
}

/// The rows of an exact PT-k answer, straight from the scan's answers.
pub(super) fn answer_rows(result: &PtkResult) -> Vec<PtkRow> {
    result
        .answers
        .iter()
        .map(|a| PtkRow {
            pos: a.rank,
            id: a.id,
            prk: a.probability,
        })
        .collect()
}

/// The rows of an answer given as positions into a materialized view with
/// every position's `Pr^k` (the sampling and naive methods).
pub(super) fn view_rows(
    view: &RankedView,
    answers: &[usize],
    probabilities: &[f64],
) -> Vec<PtkRow> {
    answers
        .iter()
        .map(|&pos| PtkRow {
            pos,
            id: view.tuple(pos).id,
            prk: probabilities[pos],
        })
        .collect()
}

/// Renders a PT-k answer set, one row per answer, in the format shared by
/// `ptk query` and `ptk sql`. The header line comes from [`ptk_header`].
pub(super) fn write_ptk_rows(
    out: &mut dyn Write,
    table: &UncertainTable,
    rows: &[PtkRow],
) -> Result<(), CmdError> {
    for row in rows {
        let t = table.tuple(row.id);
        writeln!(
            out,
            "  rank {:>4}  Pr^k={}  membership={}  [{}]",
            row.pos + 1,
            Fixed(row.prk, 4),
            Fixed(t.membership().value(), 3),
            Attrs::of(table, row.id)
        )?;
    }
    Ok(())
}

/// Renders a batch of PT-k answers, one `--`-prefixed header per query,
/// in plan order — the format shared by the batch modes of `ptk query` and
/// `ptk sql`. `len` is the size of the shared `P(T)`; `labels` pairs each
/// result with its `(k, p)`.
pub(super) fn write_batch_answers(
    out: &mut dyn Write,
    len: usize,
    table: &UncertainTable,
    results: &[PtkResult],
    labels: &[(usize, f64)],
) -> Result<(), CmdError> {
    for (result, &(k, p)) in results.iter().zip(labels) {
        let note = format!(
            "scanned {} of {len} tuples{}",
            result.stats.scanned,
            result
                .stats
                .stop
                .map_or(String::new(), |s| format!(", stopped early: {s:?}"))
        );
        writeln!(out, "-- {}", ptk_header(k, p, &note, result.answers.len()))?;
        write_ptk_rows(out, table, &answer_rows(result))?;
    }
    Ok(())
}

/// Renders one ranked tuple with its membership probability — the row
/// format shared by the U-TopK listings in `ptk utopk` and `ptk sql`.
/// `pos` is the tuple's 0-based position in `P(T)`.
pub(super) fn write_membership_row(
    out: &mut dyn Write,
    table: &UncertainTable,
    pos: usize,
    id: TupleId,
) -> Result<(), CmdError> {
    writeln!(
        out,
        "  rank {:>4}  membership={}  [{}]",
        pos + 1,
        Fixed(table.tuple(id).membership().value(), 3),
        Attrs::of(table, id)
    )?;
    Ok(())
}

/// Renders a non-PT-k [`SemanticsAnswer`] from its rows' positions and ids
/// — the answer formats shared by `ptk query --semantics` and the `RANK BY`
/// statements of `ptk sql` (and therefore `ptk serve`). PT-k answers render
/// through [`write_ptk_rows`] instead, so this rejects them.
pub(super) fn write_semantics_answer(
    out: &mut dyn Write,
    table: &UncertainTable,
    k: usize,
    answer: &SemanticsAnswer,
) -> Result<(), CmdError> {
    match answer {
        SemanticsAnswer::Ptk(_) => {
            Err("internal: PT-k answers render through write_ptk_rows".into())
        }
        SemanticsAnswer::UTopK { rows, probability } => {
            writeln!(
                out,
                "most probable top-{k} vector (probability {}):",
                Fixed(*probability, 6)
            )?;
            for row in rows {
                write_membership_row(out, table, row.position, row.id)?;
            }
            Ok(())
        }
        SemanticsAnswer::UKRanks(rows) => {
            writeln!(out, "most probable tuple at each rank:")?;
            for (j, row) in rows.iter().enumerate() {
                writeln!(
                    out,
                    "  rank {:>3}: ranked position {:>4}, probability {}  [{}]",
                    j + 1,
                    row.position + 1,
                    Fixed(row.value, 4),
                    Attrs::of(table, row.id)
                )?;
            }
            Ok(())
        }
        SemanticsAnswer::GlobalTopk(rows) => {
            writeln!(out, "top-{k} by top-k probability:")?;
            for row in rows {
                writeln!(
                    out,
                    "  Pr^k = {}  ranked position {:>4}  [{}]",
                    Fixed(row.value, 4),
                    row.position + 1,
                    Attrs::of(table, row.id)
                )?;
            }
            Ok(())
        }
        SemanticsAnswer::ExpectedRank(rows) => {
            writeln!(out, "top-{k} by expected rank:")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8}  ranked position {:>4}  [{}]",
                    Fixed(row.value, 2),
                    row.position + 1,
                    Attrs::of(table, row.id)
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use ptk_core::rng::{RngExt, SeedableRng, StdRng};

    use super::Fixed;

    /// The fraction digits the answer listings print, plus 0 (no point).
    const DIGITS: [usize; 6] = [0, 2, 3, 4, 6, 9];

    /// `x` moved by `d` ulps (for a positive `x`).
    fn ulps(x: f64, d: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(d))
    }

    /// Checks `Fixed(x, n)` against the standard library, bare and under
    /// the paddings the listings use; returns the comparisons made.
    fn check(x: f64, n: usize) -> usize {
        let fixed = Fixed(x, n);
        let cases = [
            (format!("{fixed}"), format!("{x:.n$}")),
            (format!("{fixed:>8}"), format!("{x:>8.n$}")),
            (format!("{fixed:>12}"), format!("{x:>12.n$}")),
            (format!("{fixed:<12}"), format!("{x:<12.n$}")),
        ];
        for (ours, std) in &cases {
            assert_eq!(ours, std, "x = {x:e} ({:#x}), {n} digits", x.to_bits());
        }
        cases.len()
    }

    #[test]
    fn fixed_writes_the_standard_librarys_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5eed_f1ed);
        let mut compared = 0;
        let specials = [
            0.0,
            -0.0,
            -1.5,
            -0.00005,
            -123.456,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            0.99995,
            0.00005,
            0.5,
            999_999_999.5,
            1e9,
            f64::MAX,
        ];
        for n in DIGITS {
            for &x in &specials {
                compared += check(x, n);
            }
            for _ in 0..10_000 {
                compared += check(f64::from_bits(rng.random::<u64>()), n);
                compared += check(rng.random::<f64>(), n);
                compared += check(rng.random_range(0.0..1e5), n);
                compared += check(rng.random_range(0.0..1e9), n);
            }
            // Decimal ties and their neighbours, near 0 and near the
            // fast path's bound on the scaled value.
            let scale = 10f64.powi(n as i32);
            let top = (1e9 as u64).saturating_sub(1_000);
            for whole in (0..1_000).chain(top..top + 2_000) {
                let tie = (whole as f64 + 0.5) / scale;
                for d in -2..=2 {
                    compared += check(ulps(tie, d), n);
                }
            }
        }
        assert!(compared > 1_000_000, "{compared} comparisons");
    }

    #[test]
    fn fixed_takes_its_fast_path_on_probabilities() {
        assert_eq!(Fixed(0.407_449_718_452_267_2, 4).scaled(), Some(4074));
        assert_eq!(Fixed(0.999_96, 4).scaled(), Some(10_000));
        assert_eq!(Fixed(0.00005, 4).scaled(), None, "a tie");
        assert_eq!(Fixed(-0.0, 4).scaled(), None);
        assert_eq!(Fixed(0.1, 10).scaled(), None, "past the digit table");
        let mut rng = StdRng::seed_from_u64(7);
        let fast = (0..10_000)
            .filter(|_| Fixed(rng.random::<f64>(), 4).scaled().is_some())
            .count();
        assert!(fast >= 9_990, "{fast} of 10000 on the fast path");
    }
}
