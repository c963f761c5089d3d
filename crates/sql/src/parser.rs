//! The recursive-descent parser.

use ptk_core::SortDirection;

use crate::ast::{Condition, Literal, Method, ParsedQuery, RankBy};
use crate::token::{tokenize, Spanned, Token};
use crate::SqlError;

/// The deepest `WHERE` condition a statement may nest: each `(`, each
/// `NOT` and each further `AND`/`OR` operand is one level. Parsing,
/// binding, evaluating and dropping a condition recurse once per level, so
/// the cap keeps a hostile statement far from the end of the stack.
const MAX_CONDITION_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    input_len: usize,
    /// The `(` and `NOT` levels enclosing the condition being parsed.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |s| s.offset)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it is the given keyword
    /// (case-insensitive).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::at(self.offset(), format!("expected '{kw}'")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, SqlError> {
        match self.advance() {
            Some(Token::Ident(w)) => Ok(w),
            _ => Err(SqlError::at(self.offset(), format!("expected {what}"))),
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<f64, SqlError> {
        match self.advance() {
            Some(Token::Number(v)) => Ok(v),
            _ => Err(SqlError::at(self.offset(), format!("expected {what}"))),
        }
    }

    /// `depth`, unless it exceeds [`MAX_CONDITION_DEPTH`].
    fn within_limit(&self, depth: usize) -> Result<usize, SqlError> {
        if depth > MAX_CONDITION_DEPTH {
            return Err(SqlError::at(
                self.offset(),
                format!("condition nested deeper than {MAX_CONDITION_DEPTH} levels"),
            ));
        }
        Ok(depth)
    }

    /// Parses the condition inside one more `(` or `NOT`, refusing to
    /// recurse past the depth limit.
    fn parse_nested(
        &mut self,
        parse: fn(&mut Parser) -> Result<(Condition, usize), SqlError>,
    ) -> Result<(Condition, usize), SqlError> {
        self.nesting = self.within_limit(self.nesting + 1)?;
        let (inner, depth) = parse(self)?;
        self.nesting -= 1;
        Ok((inner, self.within_limit(depth + 1)?))
    }

    /// Parses `a OR b OR …`. Like every `parse_*` below, returns the
    /// condition with its depth: the levels on its deepest path, a
    /// comparison being 0.
    fn parse_condition(&mut self) -> Result<(Condition, usize), SqlError> {
        let (mut left, mut depth) = self.parse_and()?;
        while self.eat_keyword("OR") {
            let (right, right_depth) = self.parse_and()?;
            depth = self.within_limit(depth.max(right_depth) + 1)?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn parse_and(&mut self) -> Result<(Condition, usize), SqlError> {
        let (mut left, mut depth) = self.parse_not()?;
        while self.eat_keyword("AND") {
            let (right, right_depth) = self.parse_not()?;
            depth = self.within_limit(depth.max(right_depth) + 1)?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn parse_not(&mut self) -> Result<(Condition, usize), SqlError> {
        if self.eat_keyword("NOT") {
            let (inner, depth) = self.parse_nested(Parser::parse_not)?;
            Ok((Condition::Not(Box::new(inner)), depth))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<(Condition, usize), SqlError> {
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let inner = self.parse_nested(Parser::parse_condition)?;
            match self.advance() {
                Some(Token::RParen) => Ok(inner),
                _ => Err(SqlError::at(self.offset(), "expected ')'")),
            }
        } else {
            let column = self.expect_ident("a column name")?;
            let op = match self.advance() {
                Some(Token::Op(op)) => op,
                _ => {
                    return Err(SqlError::at(
                        self.offset(),
                        "expected a comparison operator",
                    ))
                }
            };
            let value = match self.advance() {
                Some(Token::Number(v)) => Literal::Number(v),
                Some(Token::Str(s)) => Literal::Str(s),
                Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => Literal::Bool(true),
                Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => Literal::Bool(false),
                Some(Token::Ident(w)) if w.eq_ignore_ascii_case("null") => Literal::Null,
                _ => return Err(SqlError::at(self.offset(), "expected a literal")),
            };
            Ok((Condition::Compare { column, op, value }, 0))
        }
    }
}

/// Parses one PT-k statement. See the crate docs for the grammar.
///
/// # Errors
/// Returns a [`SqlError`] pointing at the offending byte offset.
pub fn parse(input: &str) -> Result<ParsedQuery, SqlError> {
    let tokens = tokenize(input)?;
    let (kind, query) = parse_body(&tokens, input.len())?;
    if !kind.eq_ignore_ascii_case("TOP") {
        return Err(SqlError::general(format!(
            "expected a TOP query; use parse_statement for SELECT {kind}"
        )));
    }
    if matches!(query.rank_by, Some(rb) if rb != RankBy::Ptk) {
        return Err(SqlError::general(format!(
            "RANK BY {} is a ranked-semantics statement; use parse_statement",
            query.rank_by.expect("checked above").keyword()
        )));
    }
    Ok(query)
}

/// Parses `SELECT <kind> <k> FROM …` and returns the kind keyword plus the
/// query body. Shared by [`parse`] and
/// [`parse_statement`](crate::parse_statement).
pub(crate) fn parse_body(
    tokens: &[crate::token::Spanned],
    input_len: usize,
) -> Result<(String, ParsedQuery), SqlError> {
    let mut p = Parser {
        tokens: tokens.to_vec(),
        pos: 0,
        input_len,
        nesting: 0,
    };

    p.expect_keyword("SELECT")?;
    let kind = p.expect_ident("a query kind (TOP | UTOPK | UKRANKS | ERANK)")?;
    let k_raw = p.expect_number("the k of TOP")?;
    if k_raw < 1.0 || k_raw.fract() != 0.0 {
        return Err(SqlError::general(format!(
            "TOP needs a positive integer, got {k_raw}"
        )));
    }
    let k = k_raw as usize;
    p.expect_keyword("FROM")?;
    let table = p.expect_ident("a table name")?;

    let condition = if p.eat_keyword("WHERE") {
        Some(p.parse_condition()?.0)
    } else {
        None
    };

    p.expect_keyword("ORDER")?;
    p.expect_keyword("BY")?;
    let order_by = p.expect_ident("an ORDER BY column")?;
    let direction = if p.eat_keyword("ASC") {
        SortDirection::Ascending
    } else {
        let _ = p.eat_keyword("DESC");
        SortDirection::Descending
    };

    let mut rank_by = None;
    if p.eat_keyword("RANK") {
        p.expect_keyword("BY")?;
        let at = p.offset();
        let name = p.expect_ident("a ranking semantics after RANK BY")?;
        let folded: String = name
            .chars()
            .filter(|c| *c != '_' && *c != '-')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        rank_by = Some(match folded.as_str() {
            "ptk" => RankBy::Ptk,
            "utopk" => RankBy::UTopK,
            "ukranks" => RankBy::UKRanks,
            "globaltopk" => RankBy::GlobalTopk,
            "expectedrank" | "erank" => RankBy::ExpectedRank,
            _ => {
                return Err(SqlError::at(
                    at,
                    format!(
                        "unknown ranking semantics '{name}' \
                         (PTK | U_TOPK | U_KRANKS | GLOBAL_TOPK | EXPECTED_RANK)"
                    ),
                ))
            }
        });
    }

    let mut threshold = 0.5;
    let mut explicit_threshold = false;
    if p.eat_keyword("WITH") {
        explicit_threshold = true;
        if p.eat_keyword("PROBABILITY") {
            match p.advance() {
                Some(Token::Op(">=")) => {}
                _ => {
                    return Err(SqlError::at(
                        p.offset(),
                        "expected '>=' after WITH PROBABILITY",
                    ))
                }
            }
        } else {
            p.expect_keyword("THRESHOLD")?;
        }
        threshold = p.expect_number("a probability threshold")?;
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SqlError::general(format!(
                "the probability threshold must be in (0, 1], got {threshold}"
            )));
        }
    }

    let mut method = Method::Exact;
    if p.eat_keyword("USING") {
        let name = p.expect_ident("an evaluation method")?;
        method = match name.to_ascii_lowercase().as_str() {
            "exact" => Method::Exact,
            "sampling" => Method::Sampling,
            "naive" => Method::Naive,
            other => {
                return Err(SqlError::general(format!(
                    "unknown method '{other}' (exact | sampling | naive)"
                )))
            }
        };
    }

    if let Some(t) = p.peek() {
        return Err(SqlError::at(
            p.offset(),
            format!("unexpected trailing input: {t:?}"),
        ));
    }

    Ok((
        kind,
        ParsedQuery {
            k,
            table,
            condition,
            order_by,
            direction,
            threshold,
            method,
            explicit_threshold,
            rank_by,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse("SELECT TOP 5 FROM t ORDER BY score").unwrap();
        assert_eq!(q.k, 5);
        assert_eq!(q.table, "t");
        assert_eq!(q.order_by, "score");
        assert_eq!(q.direction, SortDirection::Descending);
        assert_eq!(q.threshold, 0.5);
        assert_eq!(q.method, Method::Exact);
        assert!(q.condition.is_none());
    }

    #[test]
    fn full_query() {
        let q = parse(
            "select top 10 from sightings \
             where drifted_days >= 100 and source != 'SAT-H' \
             order by drifted_days desc \
             with probability >= 0.5 using sampling",
        )
        .unwrap();
        assert_eq!(q.k, 10);
        assert_eq!(q.threshold, 0.5);
        assert_eq!(q.method, Method::Sampling);
        match q.condition.unwrap() {
            Condition::And(l, r) => {
                assert!(
                    matches!(*l, Condition::Compare { ref column, op: ">=", .. } if column == "drifted_days")
                );
                assert!(
                    matches!(*r, Condition::Compare { ref column, op: "!=", value: Literal::Str(ref s) } if column == "source" && s == "SAT-H")
                );
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_parens() {
        // a = 1 OR b = 2 AND c = 3  parses as  a OR (b AND c).
        let q = parse("SELECT TOP 1 FROM t WHERE a = 1 OR b = 2 AND c = 3 ORDER BY a").unwrap();
        match q.condition.unwrap() {
            Condition::Or(_, r) => assert!(matches!(*r, Condition::And(_, _))),
            other => panic!("expected OR at the root, got {other:?}"),
        }
        // Parentheses override: (a = 1 OR b = 2) AND c = 3.
        let q = parse("SELECT TOP 1 FROM t WHERE (a = 1 OR b = 2) AND c = 3 ORDER BY a").unwrap();
        match q.condition.unwrap() {
            Condition::And(l, _) => assert!(matches!(*l, Condition::Or(_, _))),
            other => panic!("expected AND at the root, got {other:?}"),
        }
    }

    #[test]
    fn not_and_literals() {
        let q = parse("SELECT TOP 2 FROM t WHERE NOT flag = TRUE AND note = NULL ORDER BY x ASC")
            .unwrap();
        assert_eq!(q.direction, SortDirection::Ascending);
        match q.condition.unwrap() {
            Condition::And(l, r) => {
                assert!(matches!(*l, Condition::Not(_)));
                assert!(matches!(
                    *r,
                    Condition::Compare {
                        value: Literal::Null,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_threshold_form() {
        let q = parse("SELECT TOP 2 FROM t ORDER BY x WITH THRESHOLD 0.25").unwrap();
        assert_eq!(q.threshold, 0.25);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("SELECT TOP x FROM t ORDER BY s").unwrap_err();
        assert!(err.message.contains("k of TOP"), "{err}");
        let err = parse("SELECT TOP 3 FROM t ORDER BY").unwrap_err();
        assert!(err.message.contains("ORDER BY column"), "{err}");
        let err = parse("SELECT TOP 3 FROM t ORDER BY s extra").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
        let err = parse("SELECT TOP 3 FROM t WHERE a ORDER BY s").unwrap_err();
        assert!(err.message.contains("comparison operator"), "{err}");
        let err = parse("SELECT TOP 0 FROM t ORDER BY s").unwrap_err();
        assert!(err.message.contains("positive integer"), "{err}");
        let err = parse("SELECT TOP 3 FROM t ORDER BY s WITH PROBABILITY >= 1.5").unwrap_err();
        assert!(err.message.contains("(0, 1]"), "{err}");
        let err = parse("SELECT TOP 3 FROM t ORDER BY s USING magic").unwrap_err();
        assert!(err.message.contains("unknown method"), "{err}");
        let err = parse("SELECT TOP 3 FROM t WHERE (a = 1 ORDER BY s").unwrap_err();
        assert!(err.message.contains("')'"), "{err}");
    }

    /// `(` × n around a comparison, `NOT` × n before one, and chains of
    /// n + 1 comparisons joined by `AND` or by `OR`: each n levels deep.
    fn nested_conditions(n: usize) -> [String; 4] {
        let chain = |op: &str| vec!["score = 1"; n + 1].join(op);
        [
            format!("{}score = 1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}score = 1", "NOT ".repeat(n)),
            chain(" AND "),
            chain(" OR "),
        ]
    }

    #[test]
    fn conditions_at_the_depth_limit_parse_bind_and_evaluate() {
        let mut b = ptk_core::UncertainTableBuilder::single_column();
        b.push(0.5, [ptk_core::Value::Int(1)]).unwrap();
        let table = b.finish().unwrap();
        let tuple = table.tuple(ptk_core::TupleId::new(0));
        for condition in nested_conditions(MAX_CONDITION_DEPTH) {
            let parsed = parse(&format!(
                "SELECT TOP 1 FROM t WHERE {condition} ORDER BY score"
            ))
            .unwrap_or_else(|e| panic!("{e}: {condition:.40}"));
            let query = parsed.bind(&table).unwrap();
            // An even number of NOTs: every spelling is true.
            assert!(query.query().predicate().eval(tuple).unwrap());
        }
    }

    #[test]
    fn conditions_past_the_depth_limit_are_refused() {
        for condition in nested_conditions(MAX_CONDITION_DEPTH + 1) {
            let err = parse(&format!(
                "SELECT TOP 1 FROM t WHERE {condition} ORDER BY score"
            ))
            .unwrap_err();
            assert!(
                err.message == "condition nested deeper than 128 levels",
                "{err}: {condition:.40}"
            );
        }
        // Far past it, parsing stops at the limit instead of recursing.
        let deep = format!("{}score = 1{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(parse(&format!("SELECT TOP 1 FROM t WHERE {deep} ORDER BY score")).is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("sElEcT tOp 1 fRoM t oRdEr By s").is_ok());
    }
}
