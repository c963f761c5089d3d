//! Minimal CSV field codec.
//!
//! Supports the subset of RFC 4180 the CLI needs: comma separation and `"`
//! quoting with `""` escapes. Kept dependency-free on purpose (the approved
//! crate set has no CSV parser). Documents are read and written a line at
//! a time by [`crate::load`].

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
