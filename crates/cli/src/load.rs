//! Loading uncertain tables from CSV text, and writing them back.

use std::collections::HashMap;
use std::fmt::Write as _;

use ptk_core::{TupleId, UncertainTable, UncertainTableBuilder, Value};

use crate::csv;

/// Parses a cell into a [`Value`]: integer, then float, then text; empty
/// cells become nulls.
pub fn parse_value(cell: &str) -> Value {
    let trimmed = cell.trim();
    if trimmed.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = trimmed.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = trimmed.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Text(trimmed.to_owned())
}

/// Loads an uncertain table from CSV text.
///
/// The `prob` column (required) carries membership probabilities; the
/// optional `rule` column groups mutually exclusive tuples by label; all
/// remaining columns become table data in order of appearance. Blank
/// lines are skipped.
///
/// The text is read in one pass, each row straight into the table: a
/// line is split on `,` in the pass that finds its end (`csv::Lines`),
/// and one with a `"` goes through [`csv::parse_line`]. Neither a row nor
/// a rule group gets a collection of its own: a labelled row is noted as
/// (group, row), and the notes are sorted into rules at the end.
///
/// # Errors
/// Returns one message, by precedence: a CSV syntax error or a field
/// count that differs from the header's on any line (`line N`, counting
/// every line of the text from 1, blank ones too); else a missing `prob`
/// column or the first bad probability (`row N`, counting data rows from
/// 1); else the first rule, in order of first appearance, whose members'
/// probabilities sum above 1 (`rule '<label>'`).
pub fn load_table(text: &str) -> Result<UncertainTable, String> {
    let mut lines = csv::Lines::new(text);
    let mut split: Vec<&str> = Vec::new();
    let header_line = loop {
        let line = lines.next_line(&mut split).ok_or("empty CSV document")?;
        if !line.text.trim().is_empty() {
            break line.text;
        }
    };
    let header = csv::parse_line(header_line).map_err(|e| format!("header: {e}"))?;
    let width = header.len();
    let mut rows = header
        .iter()
        .position(|h| h == "prob")
        .map(|prob_col| Rows::new(&header, prob_col))
        .ok_or_else(|| "the CSV must have a `prob` column".to_owned());
    let mut row = 0;
    while let Some(line) = lines.next_line(&mut split) {
        let quoted: Vec<String>;
        let unquoted: Vec<&str>;
        let cells: &[&str] = if line.quoted {
            quoted =
                csv::parse_line(line.text).map_err(|e| format!("line {}: {e}", line.number))?;
            unquoted = quoted.iter().map(String::as_str).collect();
            &unquoted
        } else if split.len() == 1 && line.text.trim().is_empty() {
            // A line with a `,` or a `"` is never blank.
            continue;
        } else {
            &split
        };
        row += 1;
        if cells.len() != width {
            return Err(format!(
                "line {}: {} fields, header has {width}",
                line.number,
                cells.len()
            ));
        }
        // After the first value error, later lines are only checked for
        // syntax and arity, whose errors take precedence.
        if let Ok(table) = &mut rows {
            if let Err(e) = table.push(row, cells) {
                rows = Err(e);
            }
        }
    }
    rows?.finish()
}

/// The table a CSV's data rows are loaded into.
struct Rows {
    prob_col: usize,
    rule_col: Option<usize>,
    data_cols: Vec<usize>,
    builder: UncertainTableBuilder,
    /// Rule groups by label, numbered in order of first appearance: a
    /// label is copied once, when it first appears.
    group_of: HashMap<String, u32>,
    /// Each labelled row as (group, row), in row order.
    labelled: Vec<(u32, TupleId)>,
}

impl Rows {
    fn new(header: &[String], prob_col: usize) -> Rows {
        let rule_col = header.iter().position(|h| h == "rule");
        let data_cols: Vec<usize> = (0..header.len())
            .filter(|&i| i != prob_col && Some(i) != rule_col)
            .collect();
        let columns = data_cols.iter().map(|&i| header[i].clone()).collect();
        Rows {
            prob_col,
            rule_col,
            data_cols,
            builder: UncertainTableBuilder::new(columns),
            group_of: HashMap::new(),
            labelled: Vec::new(),
        }
    }

    /// Adds data row `row` (counted from 1), whose `cells` match the
    /// header.
    fn push(&mut self, row: usize, cells: &[&str]) -> Result<(), String> {
        let prob_cell = cells[self.prob_col];
        let prob: f64 = prob_cell
            .trim()
            .parse()
            .map_err(|_| format!("row {row}: bad probability '{prob_cell}'"))?;
        let attrs = self.data_cols.iter().map(|&c| parse_value(cells[c]));
        let id = self
            .builder
            .push(prob, attrs)
            .map_err(|e| format!("row {row}: {e}"))?;
        let label = self.rule_col.map(|c| cells[c].trim());
        if let Some(label) = label.filter(|l| !l.is_empty()) {
            let group = match self.group_of.get(label) {
                Some(&group) => group,
                None => {
                    // No more groups than rows, whose ids are `u32`s.
                    let group = u32::try_from(self.group_of.len()).expect("groups fit a u32");
                    self.group_of.insert(label.to_owned(), group);
                    group
                }
            };
            self.labelled.push((group, id));
        }
        Ok(())
    }

    /// Declares every group of two or more rows a generation rule, in order
    /// of first appearance, its members in row order.
    fn finish(mut self) -> Result<UncertainTable, String> {
        // A counting sort of the labelled rows by group: `ends[g]` counts
        // group g's rows, then is the offset its next member goes to, and
        // last the end of its run in `members`.
        let labelled = std::mem::take(&mut self.labelled);
        let mut ends = vec![0; self.group_of.len()];
        for &(group, _) in &labelled {
            ends[group as usize] += 1;
        }
        let mut offset = 0;
        for end in &mut ends {
            (*end, offset) = (offset, offset + *end);
        }
        let mut members = vec![TupleId::new(0); labelled.len()];
        for (group, id) in labelled {
            let at = &mut ends[group as usize];
            members[*at] = id;
            *at += 1;
        }
        let mut start = 0;
        for (group, &end) in ends.iter().enumerate() {
            let rule = &members[start..end];
            start = end;
            if rule.len() >= 2 {
                self.builder
                    .exclusive(rule)
                    .map_err(|e| format!("rule '{}': {e}", self.label(group)))?;
            }
        }
        self.builder.finish().map_err(|e| e.to_string())
    }

    /// The label of rule group `group`.
    fn label(&self, group: usize) -> &str {
        self.group_of
            .iter()
            .find(|&(_, &g)| g as usize == group)
            .map_or("", |(label, _)| label)
    }
}

/// Serializes an uncertain table back to the CLI's CSV format.
pub fn save_table(table: &UncertainTable) -> String {
    let mut out = String::from("prob,rule");
    for column in table.columns() {
        out.push(',');
        csv::push_field(&mut out, column);
    }
    out.push('\n');
    for t in table.tuples() {
        let _ = write!(out, "{},", t.membership().value());
        if let Some(rule) = table.rule_of(t.id()) {
            let _ = write!(out, "r{}", rule.index());
        }
        for value in t.attrs() {
            out.push(',');
            match value {
                Value::Null => {}
                Value::Text(text) => csv::push_field(&mut out, text),
                // Numbers and booleans never need quoting.
                other => {
                    let _ = write!(out, "{other}");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use ptk_core::check::{check, Config};
    use ptk_core::prop_assert_eq;
    use ptk_core::rng::{RngExt, StdRng};

    const PANDA: &str = "\
prob,rule,duration,rid
0.3,,25,R1
0.4,b,21,R2
0.5,b,13,R3
1.0,,12,R4
0.8,e,17,R5
0.2,e,11,R6
";

    /// The two-pass loader [`load_table`] replaced: the whole document
    /// parsed into rows of owned cells first, then every row loaded. It
    /// defines the tables and the error text (and its precedence) that
    /// the one-pass loader must reproduce.
    fn reference_load(text: &str) -> Result<UncertainTable, String> {
        let (header, rows) = parse_document(text)?;
        let prob_col = header
            .iter()
            .position(|h| h == "prob")
            .ok_or("the CSV must have a `prob` column")?;
        let rule_col = header.iter().position(|h| h == "rule");
        let data_cols: Vec<usize> = (0..header.len())
            .filter(|&i| i != prob_col && Some(i) != rule_col)
            .collect();

        let columns: Vec<String> = data_cols.iter().map(|&i| header[i].clone()).collect();
        let mut builder = UncertainTableBuilder::new(columns);
        let mut rule_groups: HashMap<String, Vec<TupleId>> = HashMap::new();
        let mut rule_order: Vec<String> = Vec::new();

        for (idx, row) in rows.iter().enumerate() {
            let prob: f64 = row[prob_col]
                .trim()
                .parse()
                .map_err(|_| format!("row {}: bad probability '{}'", idx + 1, row[prob_col]))?;
            let attrs: Vec<Value> = data_cols.iter().map(|&c| parse_value(&row[c])).collect();
            let id = builder
                .push(prob, attrs)
                .map_err(|e| format!("row {}: {e}", idx + 1))?;
            if let Some(rc) = rule_col {
                let label = row[rc].trim();
                if !label.is_empty() {
                    let group = rule_groups.entry(label.to_owned()).or_insert_with(|| {
                        rule_order.push(label.to_owned());
                        Vec::new()
                    });
                    group.push(id);
                }
            }
        }
        for label in &rule_order {
            let members = &rule_groups[label];
            if members.len() >= 2 {
                builder
                    .exclusive(members)
                    .map_err(|e| format!("rule '{label}': {e}"))?;
            }
        }
        builder.finish().map_err(|e| e.to_string())
    }

    /// The reference loader's first pass: a header and rows of owned
    /// cells, or the first syntax or arity error.
    fn parse_document(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines.next().ok_or("empty CSV document")?;
        let header = csv::parse_line(header_line).map_err(|e| format!("header: {e}"))?;
        let mut rows = Vec::new();
        for (idx, line) in lines {
            let row = csv::parse_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            if row.len() != header.len() {
                return Err(format!(
                    "line {}: {} fields, header has {}",
                    idx + 1,
                    row.len(),
                    header.len()
                ));
            }
            rows.push(row);
        }
        Ok((header, rows))
    }

    /// Everything a loaded table holds, floats as bit patterns.
    fn fingerprint(table: &UncertainTable) -> String {
        let mut out = format!("{:?}\n", table.columns());
        for t in table.tuples() {
            let _ = write!(out, "{:016x}", t.membership().value().to_bits());
            for value in t.attrs() {
                match value {
                    Value::Float(x) => {
                        let _ = write!(out, " F{:016x}", x.to_bits());
                    }
                    other => {
                        let _ = write!(out, " {other:?}");
                    }
                }
            }
            let _ = writeln!(out, " rule {:?}", table.rule_of(t.id()));
        }
        for rule in table.rules() {
            let _ = writeln!(
                out,
                "{:?} {:?} {:016x}",
                rule.id(),
                rule.members(),
                rule.mass().value().to_bits()
            );
        }
        out
    }

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.random_range(0..items.len())]
    }

    /// Whitespace `str::trim` removes, ASCII and not (NBSP, EM SPACE,
    /// IDEOGRAPHIC SPACE).
    const SPACES: [&str; 7] = [
        " ",
        "\t",
        "\u{a0}",
        "\u{2003}",
        "\u{3000}",
        " \u{a0}",
        "\u{3000}\t",
    ];

    /// `cell` between two runs of whitespace, often non-ASCII.
    fn padded(rng: &mut StdRng, cell: &str) -> String {
        format!("{}{cell}{}", pick(rng, &SPACES), pick(rng, &SPACES))
    }

    /// A cell for a data column: numbers, text that needs quoting, empty
    /// and blank cells, cells padded with non-ASCII whitespace.
    fn data_cell(rng: &mut StdRng) -> String {
        match rng.random_range(0..7u32) {
            0 => rng.random_range(-1000..1000i64).to_string(),
            1 => format!("{}", rng.random_range(-1e6..1e6f64)),
            2 => String::new(),
            3 => pick(rng, &[" ", "  7 ", "1e3", "NaN", "inf", "-0", "\u{a0}"]).to_owned(),
            4 => pick(rng, &["a,b", "say \"hi\"", "\"", ",", "x y"]).to_owned(),
            5 => {
                let inner = pick(rng, &["7", "2.5", "t1", "", "\u{a0}x\u{2003}"]);
                padded(rng, inner)
            }
            _ => format!("t{}", rng.random_range(0..50u32)),
        }
    }

    /// A generated table as CSV text: a shuffled header with `prob`, maybe
    /// `rule` and quoted column names; rows whose rule labels repeat (some
    /// needing quotes, some differing only in surrounding whitespace) and
    /// whose last cells may be empty; blank lines, ASCII or not; CRLF
    /// lines, and maybe a bare `\r` closing the text.
    fn table_text(rng: &mut StdRng, size: usize) -> String {
        let mut header = vec!["prob".to_owned()];
        if rng.random_bool(0.8) {
            header.push("rule".to_owned());
        }
        for c in 0..rng.random_range(0..=4usize) {
            header.push(if rng.random_bool(0.3) {
                format!("c,{c}")
            } else {
                format!("c{c}")
            });
        }
        for i in (1..header.len()).rev() {
            let j = rng.random_range(0..=i);
            header.swap(i, j);
        }
        let labels = [
            "a",
            "b",
            " b ",
            "\u{a0}b",
            "b\u{3000}",
            "\t b\u{2003}",
            "x,y",
            "q\"r",
            "long label",
        ];
        let mut lines = vec![header.iter().fold(String::new(), |mut line, name| {
            if !line.is_empty() {
                line.push(',');
            }
            csv::push_field(&mut line, name);
            line
        })];
        for _ in 0..size {
            let trailing_empty = rng.random_bool(0.1);
            let mut line = String::new();
            for (c, name) in header.iter().enumerate() {
                if c > 0 {
                    line.push(',');
                }
                let cell = match name.as_str() {
                    "prob" => {
                        // At most a sixth: most rule groups stay within
                        // a mass of 1.
                        let p = rng.random_range(0.01..=1.0f64) / 6.0;
                        match rng.random_range(0..10u32) {
                            0 => format!(" {p} "),
                            1 => padded(rng, &p.to_string()),
                            _ => format!("{p}"),
                        }
                    }
                    "rule" if rng.random_bool(0.6) => pick(rng, &labels).to_owned(),
                    "rule" => String::new(),
                    // Empty trailing cells.
                    _ if trailing_empty && c + 1 >= header.len() - 1 => String::new(),
                    _ => data_cell(rng),
                };
                csv::push_field(&mut line, &cell);
            }
            lines.push(line);
            if rng.random_bool(0.1) {
                let blank = pick(
                    rng,
                    &["", " ", "\t", " \t ", "\u{a0}", "\u{2003} ", "\u{3000}\t"],
                );
                lines.push(blank.to_owned());
            }
        }
        let mut text = String::new();
        for line in &lines {
            text.push_str(line);
            text.push_str(if rng.random_bool(0.2) { "\r\n" } else { "\n" });
        }
        if rng.random_bool(0.1) {
            // The last line ends in a bare `\r`, not a line break.
            text.pop();
            if text.ends_with('\r') {
                text.pop();
            }
            text.push('\r');
        }
        text
    }

    /// `text` with up to three of: a truncated line, a stray quote, comma or
    /// bare `\r`, a quote after the line's first or second comma, an empty
    /// trailing cell, a bad or out-of-range probability, an overfull rule,
    /// a line of non-ASCII whitespace.
    fn mutate(rng: &mut StdRng, text: &str) -> String {
        let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
        for _ in 0..rng.random_range(1..=3u32) {
            let at = rng.random_range(0..lines.len());
            let line = &mut lines[at];
            let cut = rng.random_range(0..=line.len());
            let cut = (0..=cut).rev().find(|&i| line.is_char_boundary(i)).unwrap();
            match rng.random_range(0..9u32) {
                0 => line.truncate(cut),
                1 => line.insert(cut, '"'),
                2 => line.insert(cut, ','),
                5 => line.insert(cut, '\r'),
                6 => {
                    let nth = rng.random_range(0..2usize);
                    let Some((comma, _)) = line.match_indices(',').nth(nth) else {
                        continue;
                    };
                    line.insert(comma + 1, '"');
                }
                7 => {
                    let end = line.strip_suffix('\r').map_or(line.len(), str::len);
                    line.insert(end, ',');
                }
                8 => {
                    let blank = pick(rng, &["\u{a0}", "\u{a0}\u{a0}", " \u{2003}\t", "\u{3000}"]);
                    lines.insert(at, blank.to_owned());
                }
                3 => {
                    let bad = pick(rng, &["x", " x ", "0", "1.5", "NaN", "-0.1", "", "1e-400"]);
                    let Some(comma) = line.find(',') else {
                        continue;
                    };
                    // The first cell is the probability on half the headers.
                    line.replace_range(..comma, bad);
                }
                _ => {
                    // Two members of one rule worth 0.7 each.
                    let row = line.clone();
                    line.replace_range(
                        ..row.find(',').unwrap_or(row.len()),
                        pick(rng, &["0.7", "0.9"]),
                    );
                    let copy = line.clone();
                    lines.insert(at, copy);
                }
            }
        }
        lines.join("\n")
    }

    fn outcome(loaded: Result<UncertainTable, String>) -> Result<String, String> {
        loaded.map(|table| fingerprint(&table))
    }

    #[test]
    fn one_pass_loader_matches_the_reference_loader() {
        check(
            "load_table == reference_load",
            Config::cases(400).sizes(1, 40).seed(0x00c5_710a),
            |rng, size| {
                let text = table_text(rng, size);
                let text = if rng.random_bool(0.6) {
                    mutate(rng, &text)
                } else {
                    text
                };
                prop_assert_eq!(
                    outcome(load_table(&text)),
                    outcome(reference_load(&text)),
                    "text:\n{text}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn generated_tables_mostly_load() {
        // The property above must not be all errors: most unmutated
        // tables load, with rules.
        let mut rng = <StdRng as ptk_core::rng::SeedableRng>::seed_from_u64(3);
        let (mut loaded, mut with_rules) = (0, 0);
        for _ in 0..50 {
            let text = table_text(&mut rng, 20);
            if let Ok(table) = load_table(&text) {
                loaded += 1;
                with_rules += usize::from(!table.rules().is_empty());
            }
        }
        assert!(loaded >= 45 && with_rules >= 20, "{loaded} {with_rules}");
    }

    #[test]
    fn loads_the_panda_table() {
        let table = load_table(PANDA).unwrap();
        assert_eq!(table.len(), 6);
        assert_eq!(table.rules().len(), 2);
        assert_eq!(table.columns(), &["duration".to_owned(), "rid".to_owned()]);
        assert_eq!(table.tuple(TupleId::new(0)).membership().value(), 0.3);
        assert!(table.is_dependent(TupleId::new(1)));
        assert!(!table.is_dependent(TupleId::new(3)));
    }

    #[test]
    fn value_parsing() {
        assert_eq!(parse_value("42"), Value::Int(42));
        assert_eq!(parse_value("4.5"), Value::Float(4.5));
        assert_eq!(parse_value("abc"), Value::Text("abc".into()));
        assert_eq!(parse_value(" "), Value::Null);
        assert_eq!(parse_value("1e3"), Value::Float(1000.0));
    }

    #[test]
    fn missing_prob_column() {
        let err = load_table("a,b\n1,2\n").unwrap_err();
        assert!(err.contains("prob"));
    }

    #[test]
    fn empty_documents_and_arity_errors() {
        assert_eq!(load_table("").unwrap_err(), "empty CSV document");
        assert_eq!(load_table("\n \n\t\n").unwrap_err(), "empty CSV document");
        assert_eq!(
            load_table("prob,b\n1\n").unwrap_err(),
            "line 2: 1 fields, header has 2"
        );
        assert_eq!(
            load_table("prob,b\n\n0.5,1,2\n").unwrap_err(),
            "line 3: 3 fields, header has 2"
        );
        assert_eq!(
            load_table("prob,b\n0.5,\"x\n").unwrap_err(),
            "line 2: unterminated quoted field"
        );
        assert_eq!(
            load_table("\"prob\nx\n").unwrap_err(),
            "header: unterminated quoted field"
        );
    }

    #[test]
    fn skips_blank_lines() {
        let table = load_table("prob\n\n0.5\n  \n0.25\r\n\n").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.tuple(TupleId::new(1)).membership().value(), 0.25);
        // Blank lines count for `line N`, not for `row N`.
        assert_eq!(
            load_table("prob\n\n0.5\n\nx\n").unwrap_err(),
            "row 2: bad probability 'x'"
        );
        assert_eq!(
            load_table("prob\n\n0.5\n\n1,2\n").unwrap_err(),
            "line 5: 2 fields, header has 1"
        );
    }

    #[test]
    fn syntax_errors_beat_value_errors_which_beat_rule_errors() {
        // A bad probability on row 1 and an arity error on line 4.
        let text = "prob,rule\nx,a\n0.7,a\n0.7,a,extra\n";
        assert_eq!(
            load_table(text).unwrap_err(),
            "line 4: 3 fields, header has 2"
        );
        // A missing `prob` column and a stray quote on line 3.
        assert_eq!(
            load_table("a\n1\n\"2\"x\n").unwrap_err(),
            "line 3: unexpected 'x' after closing quote"
        );
        // An overfull rule and a bad probability after it.
        let err = load_table("prob,rule\n0.7,a\n0.7,a\n2,b\n").unwrap_err();
        assert!(err.starts_with("row 3: "), "{err}");
    }

    #[test]
    fn bad_probability_reports_row() {
        let err = load_table("prob,a\nx,1\n").unwrap_err();
        assert!(err.contains("row 1"), "{err}");
        let err = load_table("prob,a\n1.5,1\n").unwrap_err();
        assert!(err.contains("row 1"), "{err}");
    }

    #[test]
    fn overfull_rule_reports_label() {
        let err = load_table("prob,rule\n0.7,x\n0.7,x\n").unwrap_err();
        assert!(err.contains("rule 'x'"), "{err}");
    }

    #[test]
    fn singleton_rule_labels_are_ignored() {
        let table = load_table("prob,rule,v\n0.5,lonely,1\n0.5,,2\n").unwrap();
        assert_eq!(table.rules().len(), 0);
    }

    #[test]
    fn quoted_cells_and_labels_load_unquoted() {
        let table = load_table("prob,rule,\"a,b\"\n0.5,\"x,y\",\"1,2\"\n\"0.25\",x,3\n").unwrap();
        assert_eq!(table.columns(), &["a,b".to_owned()]);
        assert_eq!(
            table.tuple(TupleId::new(0)).attrs(),
            &[Value::Text("1,2".into())]
        );
        assert_eq!(table.tuple(TupleId::new(1)).membership().value(), 0.25);
        // `"x,y"` is one label, not `x`.
        assert_eq!(table.rules().len(), 0);
    }

    /// What a cell of a loaded table reloads as once saved: itself, but a
    /// float whose rendering reads as an integer (`1000`, `-0`) comes back
    /// as that integer.
    fn reloads_as(value: &Value) -> Value {
        match value {
            Value::Float(_) => parse_value(&value.to_string()),
            other => other.clone(),
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let table = load_table(PANDA).unwrap();
        let saved = save_table(&table);
        let reloaded = load_table(&saved).unwrap();
        assert_eq!(fingerprint(&reloaded), fingerprint(&table));
        // Any loaded table, of 0 to 4 data columns: every row comes back in
        // its place, memberships and rules bit for bit, and saving again
        // writes the same bytes.
        check(
            "load(save(t)) == t",
            Config::cases(300).sizes(1, 40).seed(0x5a7e_10ad),
            |rng, size| {
                let Ok(table) = load_table(&table_text(rng, size)) else {
                    return Ok(());
                };
                let saved = save_table(&table);
                let reloaded = load_table(&saved).map_err(|e| format!("{e}:\n{saved}"))?;
                let mut builder = UncertainTableBuilder::new(table.columns().to_vec());
                for t in table.tuples() {
                    let attrs = t.attrs().iter().map(reloads_as);
                    builder
                        .push(t.membership().value(), attrs)
                        .map_err(|e| e.to_string())?;
                }
                for rule in table.rules() {
                    builder
                        .exclusive(rule.members())
                        .map_err(|e| e.to_string())?;
                }
                let want = builder.finish().map_err(|e| e.to_string())?;
                prop_assert_eq!(
                    fingerprint(&reloaded),
                    fingerprint(&want),
                    "saved:\n{}",
                    saved
                );
                prop_assert_eq!(save_table(&reloaded), saved);
                Ok(())
            },
        );
    }

    #[test]
    fn save_quotes_only_text_that_needs_it() {
        let table = load_table("prob,\"n,m\",t\n0.5,,\"a,b\"\n1,2.5,\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(
            save_table(&table),
            "prob,rule,\"n,m\",t\n0.5,,,\"a,b\"\n1,,2.5,\"say \"\"hi\"\"\"\n"
        );
    }
}
