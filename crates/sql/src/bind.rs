//! Binding parsed statements against a table schema.

use ptk_core::{ComparisonOp, Predicate, PtkQuery, Ranking, TopKQuery, UncertainTable, Value};

use crate::ast::{Condition, Literal, ParsedQuery};
use crate::SqlError;

impl Literal {
    fn to_value(&self) -> Value {
        match self {
            Literal::Number(v) => {
                // Integral constants compare as ints so that `day = 120`
                // matches an Int column exactly; Value's comparisons are
                // numeric across Int/Float anyway.
                if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
                    Value::Int(*v as i64)
                } else {
                    Value::Float(*v)
                }
            }
            Literal::Str(s) => Value::Text(s.clone()),
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Null => Value::Null,
        }
    }
}

fn bind_condition(condition: &Condition, table: &UncertainTable) -> Result<Predicate, SqlError> {
    match condition {
        Condition::Compare { column, op, value } => {
            let idx = table.column_index(column).ok_or_else(|| {
                SqlError::general(format!(
                    "unknown column '{column}' (have: {})",
                    table.columns().join(", ")
                ))
            })?;
            let op = match *op {
                "=" => ComparisonOp::Eq,
                "!=" => ComparisonOp::Ne,
                "<" => ComparisonOp::Lt,
                "<=" => ComparisonOp::Le,
                ">" => ComparisonOp::Gt,
                ">=" => ComparisonOp::Ge,
                other => return Err(SqlError::general(format!("unsupported operator {other}"))),
            };
            Ok(Predicate::Compare {
                column: idx,
                op,
                value: value.to_value(),
            })
        }
        Condition::And(l, r) => Ok(bind_condition(l, table)?.and(bind_condition(r, table)?)),
        Condition::Or(l, r) => Ok(bind_condition(l, table)?.or(bind_condition(r, table)?)),
        Condition::Not(inner) => Ok(bind_condition(inner, table)?.not()),
    }
}

impl ParsedQuery {
    /// Resolves column names against `table`'s schema, producing an
    /// executable [`PtkQuery`].
    ///
    /// # Errors
    /// Fails when a column does not exist or the parsed parameters violate
    /// the model's invariants.
    pub fn bind(&self, table: &UncertainTable) -> Result<PtkQuery, SqlError> {
        let predicate = match &self.condition {
            Some(c) => bind_condition(c, table)?,
            None => Predicate::True,
        };
        let order_col = table.column_index(&self.order_by).ok_or_else(|| {
            SqlError::general(format!(
                "unknown ORDER BY column '{}' (have: {})",
                self.order_by,
                table.columns().join(", ")
            ))
        })?;
        let ranking = Ranking::by_column(order_col, self.direction);
        let query = TopKQuery::new(self.k, predicate, ranking)
            .map_err(|e| SqlError::general(e.to_string()))?;
        PtkQuery::new(query, self.threshold).map_err(|e| SqlError::general(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use ptk_core::{RankedView, UncertainTableBuilder};

    fn panda_table() -> UncertainTable {
        let mut b = UncertainTableBuilder::new(vec!["duration".into(), "loc".into()]);
        let _r1 = b.push(0.3, [Value::Float(25.0), Value::from("A")]).unwrap();
        let r2 = b.push(0.4, [Value::Float(21.0), Value::from("B")]).unwrap();
        let r3 = b.push(0.5, [Value::Float(13.0), Value::from("B")]).unwrap();
        let _r4 = b.push(1.0, [Value::Float(12.0), Value::from("A")]).unwrap();
        let r5 = b.push(0.8, [Value::Float(17.0), Value::from("E")]).unwrap();
        let r6 = b.push(0.2, [Value::Float(11.0), Value::from("E")]).unwrap();
        b.exclusive(&[r2, r3]).unwrap();
        b.exclusive(&[r5, r6]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn binds_and_executes_example_1() {
        let table = panda_table();
        let parsed =
            parse("SELECT TOP 2 FROM panda ORDER BY duration DESC WITH PROBABILITY >= 0.35")
                .unwrap();
        let query = parsed.bind(&table).unwrap();
        let view = RankedView::build(&table, query.query()).unwrap();
        let result = ptk_core_eval(&view, query.k(), query.threshold().value());
        assert_eq!(result, vec![1, 2, 3]); // R2, R5, R3 in ranked positions
    }

    /// A tiny local evaluator so this crate's tests stay independent of
    /// ptk-engine: naive Pr^k via the worlds of the (small) view is
    /// overkill; instead reuse engine? Keep it simple — compute by
    /// enumeration through the public model only.
    fn ptk_core_eval(view: &RankedView, k: usize, p: f64) -> Vec<usize> {
        // Enumerate possible worlds directly (tiny inputs in tests).
        let mut prk = vec![0.0f64; view.len()];
        let n = view.len();
        let rules = view.rules();
        // Choices: independents + rules.
        let mut choices: Vec<Vec<(Option<usize>, f64)>> = Vec::new();
        for pos in 0..n {
            if view.rule_at(pos).is_none() {
                let q = view.prob(pos);
                let mut options = vec![(Some(pos), q)];
                if q < 1.0 {
                    options.push((None, 1.0 - q));
                }
                choices.push(options);
            }
        }
        for rule in rules {
            let mut options: Vec<(Option<usize>, f64)> = rule
                .members
                .iter()
                .map(|&m| (Some(m), view.prob(m)))
                .collect();
            if rule.mass < 1.0 - 1e-12 {
                options.push((None, 1.0 - rule.mass));
            }
            choices.push(options);
        }
        let mut stack = vec![0usize; choices.len()];
        loop {
            let mut members: Vec<usize> = Vec::new();
            let mut prob = 1.0;
            for (c, &i) in choices.iter().zip(&stack) {
                let (pos, q) = c[i];
                if let Some(pos) = pos {
                    members.push(pos);
                }
                prob *= q;
            }
            members.sort_unstable();
            for &pos in members.iter().take(k) {
                prk[pos] += prob;
            }
            // Odometer.
            let mut done = true;
            for i in (0..choices.len()).rev() {
                if stack[i] + 1 < choices[i].len() {
                    stack[i] += 1;
                    for s in stack[i + 1..].iter_mut() {
                        *s = 0;
                    }
                    done = false;
                    break;
                }
            }
            if done {
                break;
            }
        }
        (0..n).filter(|&i| prk[i] >= p).collect()
    }

    #[test]
    fn where_clause_binds() {
        let table = panda_table();
        let parsed =
            parse("SELECT TOP 2 FROM panda WHERE loc = 'B' AND duration > 12 ORDER BY duration")
                .unwrap();
        let query = parsed.bind(&table).unwrap();
        let view = RankedView::build(&table, query.query()).unwrap();
        assert_eq!(view.len(), 2); // R2 and R3
    }

    #[test]
    fn unknown_columns_error_with_schema_hint() {
        let table = panda_table();
        let parsed = parse("SELECT TOP 2 FROM panda WHERE nope = 1 ORDER BY duration").unwrap();
        let err = parsed.bind(&table).unwrap_err();
        assert!(err.message.contains("unknown column 'nope'"), "{err}");
        assert!(err.message.contains("duration, loc"), "{err}");

        let parsed = parse("SELECT TOP 2 FROM panda ORDER BY nope").unwrap();
        let err = parsed.bind(&table).unwrap_err();
        assert!(err.message.contains("ORDER BY column 'nope'"), "{err}");
    }

    /// The parser rejects out-of-range thresholds before binding, but
    /// `ParsedQuery`'s fields are public: an embedder can hand the binder
    /// any value, and the answer must be a clean [`SqlError`] from the
    /// model's own validation, never a downstream panic.
    #[test]
    fn programmatic_invalid_parameters_bind_to_clean_errors() {
        let table = panda_table();
        let base = parse("SELECT TOP 2 FROM panda ORDER BY duration").unwrap();
        for bad in [0.0, 1.5, -0.25, f64::NAN, f64::INFINITY] {
            let mut q = base.clone();
            q.threshold = bad;
            let err = q.bind(&table).unwrap_err();
            assert!(
                err.message.contains("threshold") || err.message.contains("probability"),
                "threshold {bad}: {err}"
            );
        }
        let mut q = base.clone();
        q.k = 0;
        let err = q.bind(&table).unwrap_err();
        assert!(err.message.contains("k"), "{err}");
    }

    #[test]
    fn integral_literals_become_ints() {
        assert_eq!(Literal::Number(3.0).to_value(), Value::Int(3));
        assert_eq!(Literal::Number(3.5).to_value(), Value::Float(3.5));
        assert_eq!(Literal::Bool(true).to_value(), Value::Bool(true));
        assert_eq!(Literal::Null.to_value(), Value::Null);
        assert_eq!(Literal::Str("x".into()).to_value(), Value::Text("x".into()));
    }
}
