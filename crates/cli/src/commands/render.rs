//! Shared output rendering: answer-row listings.

use std::io::Write;

use ptk_core::{RankedView, TupleId, UncertainTable};
use ptk_engine::{PtkResult, SemanticsAnswer};

use super::CmdError;

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
            "  rank {:>4}  Pr^k={:.4}  membership={:.3}  [{}]",
            row.pos + 1,
            row.prk,
            t.membership().value(),
            attrs_of(table, row.id)
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
        "  rank {:>4}  membership={:.3}  [{}]",
        pos + 1,
        table.tuple(id).membership().value(),
        attrs_of(table, id)
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
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => {
            writeln!(
                out,
                "most probable top-{k} vector (probability {probability:.6}):"
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
                    "  rank {:>3}: ranked position {:>4}, probability {:.4}  [{}]",
                    j + 1,
                    row.position + 1,
                    row.value,
                    attrs_of(table, row.id)
                )?;
            }
            Ok(())
        }
        SemanticsAnswer::GlobalTopk(rows) => {
            writeln!(out, "top-{k} by top-k probability:")?;
            for row in rows {
                writeln!(
                    out,
                    "  Pr^k = {:.4}  ranked position {:>4}  [{}]",
                    row.value,
                    row.position + 1,
                    attrs_of(table, row.id)
                )?;
            }
            Ok(())
        }
        SemanticsAnswer::ExpectedRank(rows) => {
            writeln!(out, "top-{k} by expected rank:")?;
            for row in rows {
                writeln!(
                    out,
                    "  expected rank {:>8.2}  ranked position {:>4}  [{}]",
                    row.value,
                    row.position + 1,
                    attrs_of(table, row.id)
                )?;
            }
            Ok(())
        }
    }
}

/// The comma-joined attribute rendering of a tuple's source row.
pub(super) fn attrs_of(table: &UncertainTable, id: TupleId) -> String {
    let attrs: Vec<String> = table
        .tuple(id)
        .attrs()
        .iter()
        .map(ToString::to_string)
        .collect();
    attrs.join(", ")
}
