//! The `generate` command: synthetic and IIP dataset generation to CSV,
//! or straight to a run file with `--out` (+ `--block-size`).

use std::io::Write;

use ptk_access::DEFAULT_BLOCK_BYTES;
use ptk_core::{Predicate, RankedView, Ranking, SortDirection, TopKQuery};
use ptk_datagen::{IipConfig, IipDataset, RulePlacement, SyntheticConfig, SyntheticDataset};

use crate::load::save_table;

use super::{CmdError, Flags};

pub(super) fn cmd_generate(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let kind = flags
        .positional
        .get(1)
        .ok_or("generate needs a kind: synthetic | iip")?;
    let seed = flags.get("seed")?.unwrap_or(0u64);
    let table = match kind.as_str() {
        "synthetic" => {
            // --rule-span W clusters each rule's members inside a random
            // W-rank window (rank-local rules); default is the paper's
            // uniform scatter.
            let placement = match flags.get::<usize>("rule-span")? {
                Some(0) => return Err("--rule-span must be at least 1".into()),
                Some(span) => RulePlacement::Clustered { span },
                None => RulePlacement::Uniform,
            };
            let config = SyntheticConfig {
                tuples: flags.get("tuples")?.unwrap_or(1_000),
                rules: flags.get("rules")?.unwrap_or(100),
                seed,
                placement,
                ..Default::default()
            };
            SyntheticDataset::try_generate(&config)?.table
        }
        "iip" if flags.named.contains_key("rule-span") => {
            return Err("--rule-span applies to generate synthetic only".into())
        }
        "iip" => {
            let config = IipConfig {
                tuples: flags.get("tuples")?.unwrap_or(1_000),
                rules: flags.get("rules")?.unwrap_or(200),
                seed,
            };
            IipDataset::try_generate(&config)?.table
        }
        other => return Err(format!("unknown generator '{other}' (synthetic | iip)").into()),
    };
    // `--out <file.run>` packs the dataset directly into a run file
    // (default block size, override with --block-size), skipping
    // the CSV round-trip `ptk generate … | ptk pack` would take.
    if let Some(out_path) = flags.get::<String>("out")? {
        let block_size = flags.get("block-size")?.unwrap_or(DEFAULT_BLOCK_BYTES);
        let column_name: String = flags.get("rank-by")?.unwrap_or_else(|| "score".to_owned());
        let column = table
            .column_index(&column_name)
            .ok_or_else(|| format!("unknown column '{column_name}'"))?;
        let ranking = Ranking::by_column(column, SortDirection::Descending);
        let query = TopKQuery::new(1, Predicate::True, ranking).map_err(|e| e.to_string())?;
        let view = RankedView::build(&table, &query).map_err(|e| e.to_string())?;
        let rows = super::scan::rows_of_view(&view)?;
        let shape = super::scan::write_packed(&out_path, &rows, block_size)?;
        writeln!(
            out,
            "generated and packed {} tuples ({} rules) into {out_path} ({shape})",
            view.len(),
            view.rules().len()
        )?;
        return Ok(());
    }
    if flags.named.contains_key("block-size") {
        return Err("--block-size requires --out <file.run>".into());
    }
    out.write_all(save_table(&table).as_bytes())?;
    Ok(())
}
