//! Minimal CSV field codec.
//!
//! Supports the subset of RFC 4180 the CLI needs: comma separation and `"`
//! quoting with `""` escapes. Kept dependency-free on purpose (the approved
//! crate set has no CSV parser). Documents are read and written a line at
//! a time by [`crate::load`], read through `Lines`.

/// The lines of a CSV document, cut as [`str::lines`] cuts them (at each
/// `\n`, a `\r` right before it dropped; the last line may end the text
/// instead), each split on `,` in the pass that finds its end.
pub(crate) struct Lines<'a> {
    text: &'a str,
    /// Where the next line starts.
    at: usize,
    /// The number of the last line returned, counting from 1.
    number: usize,
}

/// A line of a document, from [`Lines::next_line`].
pub(crate) struct Line<'a> {
    /// The line's number, counting every line of the document from 1.
    pub(crate) number: usize,
    /// The line, without its line break.
    pub(crate) text: &'a str,
    /// Whether the line holds a `"`. Its fields are then left to
    /// [`parse_line`].
    pub(crate) quoted: bool,
}

impl<'a> Lines<'a> {
    /// The lines of `text`.
    pub(crate) fn new(text: &'a str) -> Lines<'a> {
        Lines {
            text,
            at: 0,
            number: 0,
        }
    }

    /// The next line, if any. Unless it is quoted, its fields are left in
    /// `cells`: a line without `"` parses to exactly its `,`-separated
    /// pieces.
    pub(crate) fn next_line(&mut self, cells: &mut Vec<&'a str>) -> Option<Line<'a>> {
        let (text, bytes, start) = (self.text, self.text.as_bytes(), self.at);
        if start == bytes.len() {
            return None;
        }
        cells.clear();
        let mut cell = start;
        let (newline, quoted) = loop {
            let at = find_special(bytes, cell);
            match bytes.get(at) {
                Some(b',') => {
                    cells.push(&text[cell..at]);
                    cell = at + 1;
                }
                Some(b'"') => {
                    let rest = bytes[at..].iter().position(|&b| b == b'\n');
                    break (rest.map_or(bytes.len(), |n| at + n), true);
                }
                _ => break (at, false),
            }
        };
        self.at = bytes.len().min(newline + 1);
        self.number += 1;
        let end = if newline < bytes.len() && newline > start && bytes[newline - 1] == b'\r' {
            newline - 1
        } else {
            newline
        };
        if !quoted {
            cells.push(&text[cell..end]);
        }
        Some(Line {
            number: self.number,
            text: &text[start..end],
            quoted,
        })
    }
}

/// The index of the first `,`, `"` or `\n` in `bytes` from `at` on, or
/// `bytes.len()`. Eight bytes are tested a step: the word is XORed with
/// each byte sought, and a byte of the result is zero where it matched.
fn find_special(bytes: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    // The high bit of each zero byte of `x`, and maybe of bytes above a
    // zero byte, where the subtraction borrowed: the lowest bit is exact.
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & (ONES << 7);
    while let Some(word) = bytes[at..].first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        let found = zero_bytes(word ^ (ONES * u64::from(b',')))
            | zero_bytes(word ^ (ONES * u64::from(b'"')))
            | zero_bytes(word ^ (ONES * u64::from(b'\n')));
        if found != 0 {
            return at + found.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let rest = bytes[at..].iter().position(|b| b",\"\n".contains(b));
    rest.map_or(bytes.len(), |n| at + n)
}

/// Parses one CSV line into fields, honouring quotes. A line without `"`
/// parses to exactly its `,`-separated pieces.
///
/// # Errors
/// Returns a message for unterminated quotes or stray characters after a
/// closing quote.
pub fn parse_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            None => {
                fields.push(std::mem::take(&mut field));
                return Ok(fields);
            }
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        None => return Err("unterminated quoted field".to_owned()),
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => field.push(c),
                    }
                }
                match chars.peek() {
                    None | Some(',') => {}
                    Some(c) => return Err(format!("unexpected '{c}' after closing quote")),
                }
            }
            Some(',') => {
                chars.next();
                fields.push(std::mem::take(&mut field));
            }
            Some(_) => {
                field.push(chars.next().expect("peeked"));
            }
        }
    }
}

/// Appends `field` to `out`, quoted if it contains commas, quotes or
/// newlines.
pub fn push_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields() {
        assert_eq!(parse_line("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(parse_line("a,,c").unwrap(), vec!["a", "", "c"]);
        assert_eq!(parse_line("").unwrap(), vec![""]);
    }

    #[test]
    fn quoted_fields() {
        assert_eq!(parse_line("\"a,b\",c").unwrap(), vec!["a,b", "c"]);
        assert_eq!(
            parse_line("\"he said \"\"hi\"\"\"").unwrap(),
            vec!["he said \"hi\""]
        );
    }

    #[test]
    fn quote_errors() {
        assert!(parse_line("\"unterminated").is_err());
        assert!(parse_line("\"x\"y").is_err());
    }

    /// A line's number, its text, and its fields or syntax error.
    type Scanned<'a> = (usize, &'a str, Result<Vec<String>, String>);

    /// Every line of `text` through [`Lines`]: number, text, and the
    /// fields, from the split or from [`parse_line`] if quoted.
    fn scanned(text: &str) -> Vec<Scanned<'_>> {
        let mut lines = Lines::new(text);
        let mut cells = Vec::new();
        let mut out = Vec::new();
        while let Some(line) = lines.next_line(&mut cells) {
            let fields = if line.quoted {
                parse_line(line.text)
            } else {
                Ok(cells.iter().map(|c| c.to_string()).collect())
            };
            out.push((line.number, line.text, fields));
        }
        out
    }

    /// What `str::lines` and [`parse_line`] make of `text`.
    fn reference(text: &str) -> Vec<Scanned<'_>> {
        (1..)
            .zip(text.lines())
            .map(|(n, l)| (n, l, parse_line(l)))
            .collect()
    }

    #[test]
    fn lines_are_those_of_str_lines_with_their_fields() {
        let cases = [
            "",
            "\n",
            "\n\n",
            "a",
            "a\n",
            "a\r",
            "a\r\n",
            "\r\n",
            "\r",
            "a\rb,c\r\nd",
            "a,b,c\nd,,\n,\r\n",
            "0.5,r12,100000\n0.25,,99999\r\n",
            "x,\"y,z\",w\r\nq\n",
            "\"unterminated\nnext,line",
            "1234567,\"\r\n",
            "12345678,123456789\n123456789012345,\u{a0}\u{3000}\n",
            "\u{a0}\n\u{2003},\u{3000}\r\n\u{a0}\r",
        ];
        for text in cases {
            assert_eq!(scanned(text), reference(text), "{text:?}");
        }
        // Every cut of a text holding each byte the scan looks at, at
        // every offset from a word's start.
        let text = "pr\u{e9}b,\"r,ule\",s\r\n0.5,,\r\n\n\r,\"\"\n \u{a0}\n7,8,9,10,11,12";
        for start in 0..text.len() {
            for end in start..=text.len() {
                if let Some(cut) = text.get(start..end) {
                    assert_eq!(scanned(cut), reference(cut), "{cut:?}");
                }
            }
        }
    }

    #[test]
    fn pushed_fields_parse_back() {
        let mut line = String::new();
        for (i, field) in ["1", "x,y", "he said \"hi\"", "", "a\nb"]
            .iter()
            .enumerate()
        {
            if i > 0 {
                line.push(',');
            }
            push_field(&mut line, field);
        }
        assert_eq!(line, "1,\"x,y\",\"he said \"\"hi\"\"\",,\"a\nb\"");
        assert_eq!(
            parse_line(&line).unwrap(),
            vec!["1", "x,y", "he said \"hi\"", "", "a\nb"]
        );
    }
}
