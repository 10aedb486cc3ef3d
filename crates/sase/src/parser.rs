//! Recursive-descent parser for SASE-style pattern specifications.

use crate::lexer::{Lexer, Token};
use cep_core::error::CepError;
use cep_core::pattern::{Pattern, PatternExpr};
use cep_core::predicate::{Operand, Predicate};
use cep_core::schema::Catalog;
use cep_core::selection::SelectionStrategy;
use cep_core::span::Span;
use cep_core::value::Value;
use std::collections::HashMap;

/// Parses a full pattern specification against a catalog:
///
/// ```text
/// PATTERN SEQ(MSFT m, NOT(GOOG g), KL(INTC i))
/// WHERE (m.difference < i.difference AND i.price >= 20)
/// WITHIN 20 minutes
/// STRATEGY skip-till-next-match        # optional
/// ```
///
/// Operators `SEQ`, `AND`, `OR` nest arbitrarily; `NOT` and `KL` apply to
/// primitive events. The `WHERE` clause is a conjunction of pairwise
/// comparisons between `var.attribute` references and/or literals
/// (`a.ts` refers to the occurrence timestamp). `WITHIN` accepts `ms`,
/// `s`/`sec`/`seconds`, `m`/`min`/`minutes`, `h`/`hours` (default: ms).
pub fn parse_pattern(input: &str, catalog: &Catalog) -> Result<Pattern, CepError> {
    Parser::new(input, catalog).parse()
}

struct EventDecl {
    position: usize,
    type_id: cep_core::event::TypeId,
}

struct Parser<'a> {
    lx: Lexer<'a>,
    catalog: &'a Catalog,
    vars: HashMap<String, EventDecl>,
    next_position: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, catalog: &'a Catalog) -> Parser<'a> {
        Parser {
            lx: Lexer::new(input),
            catalog,
            vars: HashMap::new(),
            next_position: 0,
        }
    }

    fn err(&self, message: impl Into<String>, span: Span) -> CepError {
        CepError::Parse {
            message: message.into(),
            offset: span.offset,
            line: span.line,
            column: span.column,
        }
    }

    fn parse(mut self) -> Result<Pattern, CepError> {
        if !self.lx.eat_keyword("PATTERN")? {
            return Err(self.err("specification must start with PATTERN", self.lx.span()));
        }
        let expr = self.parse_expr()?;
        let mut predicates = Vec::new();
        if self.lx.eat_keyword("WHERE")? {
            self.parse_where(&mut predicates)?;
        }
        if !self.lx.eat_keyword("WITHIN")? {
            return Err(self.err("expected WITHIN clause", self.lx.span()));
        }
        let window = self.parse_duration()?;
        let strategy = if self.lx.eat_keyword("STRATEGY")? {
            self.parse_strategy()?
        } else {
            SelectionStrategy::default()
        };
        let (tok, span) = self.lx.next()?;
        if tok != Token::Eof {
            return Err(self.err(format!("trailing input: {tok:?}"), span));
        }
        let pattern = Pattern {
            expr,
            predicates,
            window,
            strategy,
        };
        pattern.validate()?;
        Ok(pattern)
    }

    fn parse_expr(&mut self) -> Result<PatternExpr, CepError> {
        let span = self.lx.span();
        let (name, _) = self.lx.expect_ident("an operator or event type")?;
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "SEQ" | "AND" | "OR" => {
                self.lx.expect(&Token::LParen, "'('")?;
                let mut children = Vec::new();
                loop {
                    children.push(self.parse_arg()?);
                    match self.lx.next()? {
                        (Token::Comma, _) => continue,
                        (Token::RParen, _) => break,
                        (tok, span) => {
                            return Err(
                                self.err(format!("expected ',' or ')', found {tok:?}"), span)
                            )
                        }
                    }
                }
                Ok(match upper.as_str() {
                    "SEQ" => PatternExpr::Seq(children),
                    "AND" => PatternExpr::And(children),
                    _ => PatternExpr::Or(children),
                })
            }
            "NOT" | "KL" => Err(self.err(
                format!("{upper} may only appear inside an n-ary operator"),
                span,
            )),
            _ => self.parse_primitive(name, span),
        }
    }

    fn parse_arg(&mut self) -> Result<PatternExpr, CepError> {
        // Lookahead: NOT(..) / KL(..) wrappers, nested operators, or a
        // plain `Type var` declaration.
        if self.lx.eat_keyword("NOT")? {
            self.lx.expect(&Token::LParen, "'(' after NOT")?;
            let span = self.lx.span();
            let (ty, _) = self.lx.expect_ident("event type inside NOT")?;
            let inner = self.parse_primitive(ty, span)?;
            self.lx.expect(&Token::RParen, "')' closing NOT")?;
            return Ok(PatternExpr::Not(Box::new(inner)));
        }
        if self.lx.eat_keyword("KL")? {
            self.lx.expect(&Token::LParen, "'(' after KL")?;
            let span = self.lx.span();
            let (ty, _) = self.lx.expect_ident("event type inside KL")?;
            let inner = self.parse_primitive(ty, span)?;
            self.lx.expect(&Token::RParen, "')' closing KL")?;
            return Ok(PatternExpr::Kleene(Box::new(inner)));
        }
        self.parse_expr()
    }

    fn parse_primitive(&mut self, type_name: String, span: Span) -> Result<PatternExpr, CepError> {
        let Some(type_id) = self.catalog.type_id(&type_name) else {
            return Err(self.err(format!("unknown event type {type_name:?}"), span));
        };
        let (var, vspan) = self.lx.expect_ident("a variable name")?;
        if self.vars.contains_key(&var) {
            return Err(self.err(format!("variable {var:?} declared twice"), vspan));
        }
        let position = self.next_position;
        self.next_position += 1;
        self.vars
            .insert(var.clone(), EventDecl { position, type_id });
        Ok(PatternExpr::Event {
            position,
            event_type: type_id,
            name: var,
        })
    }

    fn parse_where(&mut self, predicates: &mut Vec<Predicate>) -> Result<(), CepError> {
        // Optional outer parentheses around the conjunction.
        let outer_paren = matches!(self.lx.peek()?, Token::LParen);
        if outer_paren {
            self.lx.next()?;
        }
        loop {
            predicates.push(self.parse_condition()?);
            if !self.lx.eat_keyword("AND")? {
                break;
            }
        }
        if outer_paren {
            self.lx.expect(&Token::RParen, "')' closing WHERE")?;
        }
        Ok(())
    }

    fn parse_condition(&mut self) -> Result<Predicate, CepError> {
        let left = self.parse_operand()?;
        let (tok, span) = self.lx.next()?;
        let Token::Cmp(op) = tok else {
            return Err(self.err(
                format!("expected a comparison operator, found {tok:?}"),
                span,
            ));
        };
        let right = self.parse_operand()?;
        Ok(Predicate { left, op, right })
    }

    fn parse_operand(&mut self) -> Result<Operand, CepError> {
        let (tok, span) = self.lx.next()?;
        match tok {
            Token::Number(v) => {
                // Integral literals stay Int so `==` against Int attrs works.
                if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
                    Ok(Operand::Const(Value::Int(v as i64)))
                } else {
                    Ok(Operand::Const(Value::Float(v)))
                }
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Operand::Const(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Operand::Const(Value::Bool(false)));
                }
                let Some(decl) = self.vars.get(&name) else {
                    return Err(self.err(format!("unknown variable {name:?}"), span));
                };
                let position = decl.position;
                let type_id = decl.type_id;
                self.lx.expect(&Token::Dot, "'.' after variable")?;
                let (attr_name, aspan) = self.lx.expect_ident("an attribute name")?;
                if attr_name == "ts" {
                    return Ok(Operand::Ts { position });
                }
                let schema = self
                    .catalog
                    .schema(type_id)
                    .expect("declared types exist in catalog");
                let Some(attr) = schema.attr_index(&attr_name) else {
                    return Err(self.err(
                        format!("type {:?} has no attribute {attr_name:?}", schema.name),
                        aspan,
                    ));
                };
                Ok(Operand::Attr { position, attr })
            }
            other => Err(self.err(format!("expected an operand, found {other:?}"), span)),
        }
    }

    fn parse_duration(&mut self) -> Result<u64, CepError> {
        let (tok, span) = self.lx.next()?;
        let Token::Number(v) = tok else {
            return Err(self.err(format!("expected a duration, found {tok:?}"), span));
        };
        if v < 0.0 {
            return Err(self.err("duration must be non-negative", span));
        }
        let multiplier = if let Token::Ident(unit) = self.lx.peek()? {
            let m = match unit.to_ascii_lowercase().as_str() {
                "ms" | "millis" | "milliseconds" => Some(1.0),
                "s" | "sec" | "secs" | "seconds" => Some(1000.0),
                "m" | "min" | "mins" | "minutes" => Some(60_000.0),
                "h" | "hour" | "hours" => Some(3_600_000.0),
                _ => None,
            };
            if m.is_some() {
                self.lx.next()?;
            }
            m.unwrap_or(1.0)
        } else {
            1.0
        };
        // `as u64` saturates: reject what does not fit instead of
        // silently running under a `u64::MAX` window.
        let ms = (v * multiplier).round();
        if ms.is_nan() || ms >= u64::MAX as f64 {
            return Err(self.err(
                format!("duration {v} does not fit in 64-bit milliseconds"),
                span,
            ));
        }
        Ok(ms as u64)
    }

    fn parse_strategy(&mut self) -> Result<SelectionStrategy, CepError> {
        let (name, span) = self.lx.expect_ident("a selection strategy")?;
        match name.to_ascii_lowercase().as_str() {
            "skip-till-any-match" | "any" => Ok(SelectionStrategy::SkipTillAnyMatch),
            "skip-till-next-match" | "next" => Ok(SelectionStrategy::SkipTillNextMatch),
            "strict-contiguity" | "strict" => Ok(SelectionStrategy::StrictContiguity),
            "partition-contiguity" | "partition" => Ok(SelectionStrategy::PartitionContiguity),
            other => Err(self.err(format!("unknown strategy {other:?}"), span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::schema::ValueKind;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["MSFT", "GOOG", "INTC", "AAPL"] {
            cat.add_type(
                name,
                &[
                    ("price", ValueKind::Float),
                    ("difference", ValueKind::Float),
                ],
            )
            .unwrap();
        }
        cat
    }

    #[test]
    fn parses_the_papers_conjunction_example() {
        // Section 7.2's example pattern.
        let cat = catalog();
        let p = parse_pattern(
            "PATTERN AND(MSFT m, GOOG g, INTC i)\n\
             WHERE (m.difference < g.difference)\n\
             WITHIN 20 minutes",
            &cat,
        )
        .unwrap();
        assert_eq!(p.size(), 3);
        assert!(p.is_pure());
        assert_eq!(p.window, 20 * 60 * 1000);
        assert_eq!(p.predicates.len(), 1);
    }

    #[test]
    fn parses_sequence_with_unary_operators() {
        let cat = catalog();
        let p = parse_pattern(
            "PATTERN SEQ(MSFT m, NOT(GOOG g), KL(INTC i), AAPL a) WITHIN 5 s",
            &cat,
        )
        .unwrap();
        let prims = p.primitives();
        assert_eq!(prims.len(), 4);
        assert!(prims[1].negated);
        assert!(prims[2].kleene);
        assert_eq!(p.window, 5000);
    }

    #[test]
    fn parses_nested_disjunction() {
        let cat = catalog();
        let p = parse_pattern("PATTERN AND(MSFT m, OR(GOOG g, INTC i)) WITHIN 100", &cat).unwrap();
        assert!(!p.is_simple());
        assert!(p.expr.contains_or());
    }

    #[test]
    fn where_supports_constants_and_ts() {
        let cat = catalog();
        let p = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) \
             WHERE m.price >= 100.5 AND m.ts < g.ts AND g.difference != 0 \
             WITHIN 1 min",
            &cat,
        )
        .unwrap();
        assert_eq!(p.predicates.len(), 3);
        assert!(matches!(p.predicates[1].left, Operand::Ts { position: 0 }));
        assert!(matches!(
            p.predicates[0].right,
            Operand::Const(Value::Float(_))
        ));
        assert!(matches!(
            p.predicates[2].right,
            Operand::Const(Value::Int(0))
        ));
    }

    #[test]
    fn strategy_clause() {
        let cat = catalog();
        let p = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WITHIN 10 STRATEGY skip-till-next-match",
            &cat,
        )
        .unwrap();
        assert_eq!(p.strategy, SelectionStrategy::SkipTillNextMatch);
        let p = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WITHIN 10 STRATEGY strict",
            &cat,
        )
        .unwrap();
        assert_eq!(p.strategy, SelectionStrategy::StrictContiguity);
    }

    #[test]
    fn unknown_type_is_reported_with_offset() {
        let cat = catalog();
        let err = parse_pattern("PATTERN SEQ(XXXX x, GOOG g) WITHIN 10", &cat).unwrap_err();
        match err {
            CepError::Parse {
                message,
                offset,
                line,
                column,
            } => {
                assert!(message.contains("XXXX"));
                assert_eq!(offset, 12);
                assert_eq!((line, column), (1, 13));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn errors_on_later_lines_report_line_and_column() {
        let cat = catalog();
        let err = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g)\nWHERE m.volume < 1\nWITHIN 10",
            &cat,
        )
        .unwrap_err();
        match err {
            CepError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 9);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_variable_in_where_rejected() {
        let cat = catalog();
        let err = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WHERE z.price < 1 WITHIN 10",
            &cat,
        )
        .unwrap_err();
        assert!(matches!(err, CepError::Parse { .. }));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let cat = catalog();
        let err = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WHERE m.volume < 1 WITHIN 10",
            &cat,
        )
        .unwrap_err();
        assert!(err.to_string().contains("volume"));
    }

    #[test]
    fn unrepresentable_duration_rejected() {
        let cat = catalog();
        let err = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WITHIN 99999999999999999999 h",
            &cat,
        )
        .unwrap_err();
        match err {
            CepError::Parse {
                message, column, ..
            } => {
                assert!(message.contains("does not fit"), "{message}");
                assert_eq!(column, 36, "points at the number");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The largest representable windows still parse.
        let p = parse_pattern("PATTERN SEQ(MSFT m, GOOG g) WITHIN 5000000000 h", &cat).unwrap();
        assert_eq!(p.window, 5_000_000_000 * 3_600_000);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let cat = catalog();
        let err = parse_pattern("PATTERN SEQ(MSFT a, GOOG a) WITHIN 10", &cat).unwrap_err();
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let cat = catalog();
        let err = parse_pattern(
            "PATTERN SEQ(MSFT m, GOOG g) WITHIN 10 garbage garbage",
            &cat,
        )
        .unwrap_err();
        assert!(matches!(err, CepError::Parse { .. }));
    }

    #[test]
    fn not_outside_operator_rejected() {
        let cat = catalog();
        let err = parse_pattern("PATTERN NOT(MSFT m) WITHIN 10", &cat).unwrap_err();
        assert!(err.to_string().contains("NOT"));
    }

    #[test]
    fn duration_units() {
        let cat = catalog();
        for (spec, expect) in [
            ("WITHIN 1500", 1500u64),
            ("WITHIN 2 s", 2000),
            ("WITHIN 3 min", 180_000),
            ("WITHIN 1 h", 3_600_000),
            ("WITHIN 250 ms", 250),
        ] {
            let p = parse_pattern(&format!("PATTERN SEQ(MSFT m, GOOG g) {spec}"), &cat).unwrap();
            assert_eq!(p.window, expect, "{spec}");
        }
    }

    #[test]
    fn parsed_pattern_compiles() {
        use cep_core::compile::CompiledPattern;
        let cat = catalog();
        let p = parse_pattern(
            "PATTERN SEQ(MSFT m, NOT(GOOG g), INTC i) \
             WHERE m.difference < i.difference AND g.price > 10 \
             WITHIN 20 minutes",
            &cat,
        )
        .unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert_eq!(cp.n(), 2);
        assert_eq!(cp.negated.len(), 1);
        assert_eq!(cp.negated_predicates(0).len(), 1);
    }
}
