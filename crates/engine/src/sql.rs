//! A SQL front-end for the engine's query class.
//!
//! Parses the roll-up aggregation subset the paper's workload lives in —
//! which is also what its Pig Latin scripts expressed:
//!
//! ```sql
//! SELECT year, country, SUM(profit) AS total, COUNT(*)
//! FROM sales
//! WHERE year >= 2005 AND country = 'France'
//! GROUP BY year, country
//! ```
//!
//! Supported: `SUM/COUNT/MIN/MAX/AVG` aggregates with optional `AS`
//! aliases, `WHERE` with `AND`/`OR`, parentheses, the six comparison
//! operators, integer and single-quoted string literals, and `GROUP BY`.
//! Selected plain columns must appear in `GROUP BY` (the classic rule).

use std::fmt;

use crate::{AggFunc, AggQuery, AggSpec, CmpOp, Predicate, Value};

/// A parsed statement: the referenced table plus the executable query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// Table name from the `FROM` clause (resolution is the caller's job).
    pub table: String,
    /// The executable query.
    pub query: AggQuery,
}

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was detected.
    pub position: usize,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for SqlError {}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Comma,
    LParen,
    RParen,
    Star,
    Op(CmpOp),
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> SqlError {
        SqlError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Lexes the whole input into `(token, start_position)` pairs.
    fn tokenize(mut self) -> Result<Vec<(Tok, usize)>, SqlError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                return Ok(out);
            }
            let start = self.pos;
            let b = self.bytes[self.pos];
            let tok = match b {
                b',' => {
                    self.pos += 1;
                    Tok::Comma
                }
                b'(' => {
                    self.pos += 1;
                    Tok::LParen
                }
                b')' => {
                    self.pos += 1;
                    Tok::RParen
                }
                b'*' => {
                    self.pos += 1;
                    Tok::Star
                }
                b'=' => {
                    self.pos += 1;
                    Tok::Op(CmpOp::Eq)
                }
                b'<' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'=') => {
                            self.pos += 1;
                            Tok::Op(CmpOp::Le)
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            Tok::Op(CmpOp::Ne)
                        }
                        _ => Tok::Op(CmpOp::Lt),
                    }
                }
                b'>' => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Op(CmpOp::Ge)
                    } else {
                        Tok::Op(CmpOp::Gt)
                    }
                }
                b'!' => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Op(CmpOp::Ne)
                    } else {
                        return Err(self.error("expected '=' after '!'"));
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    let lit_start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                        self.pos += 1;
                    }
                    if self.pos >= self.bytes.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    let s = self.src[lit_start..self.pos].to_string();
                    self.pos += 1; // closing quote
                    Tok::Str(s)
                }
                b'-' | b'0'..=b'9' => {
                    let num_start = self.pos;
                    if b == b'-' {
                        self.pos += 1;
                    }
                    while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                        self.pos += 1;
                    }
                    let text = &self.src[num_start..self.pos];
                    let v: i64 = text
                        .parse()
                        .map_err(|_| self.error(format!("bad integer literal {text:?}")))?;
                    Tok::Int(v)
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos].is_ascii_alphanumeric()
                            || self.bytes[self.pos] == b'_')
                    {
                        self.pos += 1;
                    }
                    Tok::Ident(self.src[start..self.pos].to_string())
                }
                other => {
                    return Err(self.error(format!("unexpected character {:?}", other as char)))
                }
            };
            out.push((tok, start));
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, usize)>,
    i: usize,
    end: usize,
}

/// One item of the SELECT list before validation.
enum SelectItem {
    Column(String),
    Aggregate(AggSpec),
}

impl Parser {
    fn error_at(&self, message: impl Into<String>) -> SqlError {
        let position = self.toks.get(self.i).map(|(_, p)| *p).unwrap_or(self.end);
        SqlError {
            message: message.into(),
            position,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(t, _)| t.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    /// Consumes a keyword (case-insensitive identifier).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.i += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error_at(format!("expected keyword {kw}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.i = self.i.saturating_sub(1);
                Err(self.error_at("expected identifier"))
            }
        }
    }

    fn expect_tok(&mut self, tok: Tok, what: &str) -> Result<(), SqlError> {
        if self.peek() == Some(&tok) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.error_at(format!("expected {what}")))
        }
    }

    fn agg_func_of(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "sum" => Some(AggFunc::Sum),
            "count" => Some(AggFunc::Count),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        let name = self.expect_ident()?;
        if self.peek() == Some(&Tok::LParen) {
            let func = Self::agg_func_of(&name)
                .ok_or_else(|| self.error_at(format!("unknown aggregate function {name:?}")))?;
            self.i += 1; // consume '('
            let column = match (func, self.peek()) {
                (AggFunc::Count, Some(Tok::Star)) => {
                    self.i += 1;
                    None
                }
                (AggFunc::Count, Some(Tok::RParen)) => None,
                _ => Some(self.expect_ident()?),
            };
            self.expect_tok(Tok::RParen, "')'")?;
            let mut spec = match (func, column.clone()) {
                (AggFunc::Count, _) => AggSpec::count(),
                (AggFunc::Sum, Some(c)) => AggSpec::sum(c),
                (AggFunc::Min, Some(c)) => AggSpec::min(c),
                (AggFunc::Max, Some(c)) => AggSpec::max(c),
                (AggFunc::Avg, Some(c)) => AggSpec::avg(c),
                _ => return Err(self.error_at("aggregate requires a column")),
            };
            if self.eat_kw("as") {
                spec = spec.with_alias(self.expect_ident()?);
            }
            Ok(SelectItem::Aggregate(spec))
        } else {
            Ok(SelectItem::Column(name))
        }
    }

    /// `predicate := and_term (OR and_term)*`
    fn parse_predicate(&mut self) -> Result<Predicate, SqlError> {
        let first = self.parse_and_term()?;
        if !self.eat_kw("or") {
            return Ok(first);
        }
        let mut terms = vec![first, self.parse_and_term()?];
        while self.eat_kw("or") {
            terms.push(self.parse_and_term()?);
        }
        Ok(Predicate::Or(terms))
    }

    /// `and_term := factor (AND factor)*`
    fn parse_and_term(&mut self) -> Result<Predicate, SqlError> {
        let first = self.parse_factor()?;
        if !self.eat_kw("and") {
            return Ok(first);
        }
        let mut factors = vec![first, self.parse_factor()?];
        while self.eat_kw("and") {
            factors.push(self.parse_factor()?);
        }
        Ok(Predicate::And(factors))
    }

    /// `factor := '(' predicate ')' | column op literal`
    fn parse_factor(&mut self) -> Result<Predicate, SqlError> {
        if self.peek() == Some(&Tok::LParen) {
            self.i += 1;
            let p = self.parse_predicate()?;
            self.expect_tok(Tok::RParen, "')'")?;
            return Ok(p);
        }
        let column = self.expect_ident()?;
        let op = match self.next() {
            Some(Tok::Op(op)) => op,
            _ => {
                self.i = self.i.saturating_sub(1);
                return Err(self.error_at("expected comparison operator"));
            }
        };
        let literal = match self.next() {
            Some(Tok::Int(v)) => Value::Int(v),
            Some(Tok::Str(s)) => Value::Str(s),
            _ => {
                self.i = self.i.saturating_sub(1);
                return Err(self.error_at("expected integer or 'string' literal"));
            }
        };
        Ok(Predicate::Cmp {
            column,
            op,
            literal,
        })
    }
}

/// Parses one statement of the supported subset.
pub fn parse_query(sql: &str) -> Result<ParsedQuery, SqlError> {
    let toks = Lexer::new(sql).tokenize()?;
    let mut p = Parser {
        toks,
        i: 0,
        end: sql.len(),
    };

    p.expect_kw("select")?;
    let mut items = vec![p.parse_select_item()?];
    while p.peek() == Some(&Tok::Comma) {
        p.i += 1;
        items.push(p.parse_select_item()?);
    }

    p.expect_kw("from")?;
    let table = p.expect_ident()?;

    let predicate = if p.eat_kw("where") {
        Some(p.parse_predicate()?)
    } else {
        None
    };

    let mut group_by: Vec<String> = Vec::new();
    if p.eat_kw("group") {
        p.expect_kw("by")?;
        group_by.push(p.expect_ident()?);
        while p.peek() == Some(&Tok::Comma) {
            p.i += 1;
            group_by.push(p.expect_ident()?);
        }
    }
    if p.peek().is_some() {
        return Err(p.error_at("unexpected trailing input"));
    }

    // Validation: split items, enforce the grouping rule.
    let mut aggregates = Vec::new();
    let mut selected_cols = Vec::new();
    for item in items {
        match item {
            SelectItem::Aggregate(a) => aggregates.push(a),
            SelectItem::Column(c) => selected_cols.push(c),
        }
    }
    if aggregates.is_empty() {
        return Err(SqlError {
            message: "query must select at least one aggregate".to_string(),
            position: 0,
        });
    }
    for c in &selected_cols {
        if !group_by.contains(c) {
            return Err(SqlError {
                message: format!("column {c:?} selected but not in GROUP BY"),
                position: 0,
            });
        }
    }

    let mut query = AggQuery {
        name: format!("sql:{table}"),
        group_by,
        aggregates,
        predicate: None,
    };
    if let Some(pred) = predicate {
        query = query.with_predicate(pred);
    }
    Ok(ParsedQuery { table, query })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, TableBuilder};

    fn sales() -> crate::Table {
        TableBuilder::new(&[
            ("year", DataType::Int),
            ("country", DataType::Str),
            ("profit", DataType::Int),
        ])
        .unwrap()
        .row(&[2000.into(), "France".into(), 35.into()])
        .unwrap()
        .row(&[2005.into(), "France".into(), 40.into()])
        .unwrap()
        .row(&[2005.into(), "Italy".into(), 23.into()])
        .unwrap()
        .build()
    }

    #[test]
    fn parses_the_paper_query() {
        let parsed = parse_query(
            "SELECT year, country, SUM(profit) AS total FROM sales GROUP BY year, country",
        )
        .unwrap();
        assert_eq!(parsed.table, "sales");
        assert_eq!(parsed.query.group_by, vec!["year", "country"]);
        assert_eq!(parsed.query.aggregates[0].alias, "total");
        let (out, _) = parsed.query.execute(&sales()).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn where_clause_with_and_or() {
        let parsed = parse_query(
            "select sum(profit) from sales where (year >= 2005 and country = 'France') or year < 2001",
        )
        .unwrap();
        let (out, _) = parsed.query.execute(&sales()).unwrap();
        // Rows 0 (year 2000) and 1 (2005/France) match: 35 + 40.
        assert_eq!(out.row(0), vec![Value::Int(75)]);
    }

    #[test]
    fn count_star_and_bare_count() {
        for sql in ["SELECT COUNT(*) FROM sales", "SELECT COUNT() FROM sales"] {
            let parsed = parse_query(sql).unwrap();
            let (out, _) = parsed.query.execute(&sales()).unwrap();
            assert_eq!(out.row(0), vec![Value::Int(3)]);
        }
    }

    #[test]
    fn all_aggregate_functions() {
        let parsed = parse_query(
            "SELECT SUM(profit), COUNT(*), MIN(profit), MAX(profit), AVG(profit) \
             FROM sales",
        )
        .unwrap();
        let (out, _) = parsed.query.execute(&sales()).unwrap();
        assert_eq!(
            out.row(0),
            vec![
                Value::Int(98),
                Value::Int(3),
                Value::Int(23),
                Value::Int(40),
                Value::Int(32)
            ]
        );
    }

    #[test]
    fn operators_parse() {
        for (sql, expected_rows) in [
            ("SELECT COUNT(*) FROM t WHERE year = 2005", 2),
            ("SELECT COUNT(*) FROM t WHERE year != 2005", 1),
            ("SELECT COUNT(*) FROM t WHERE year <> 2005", 1),
            ("SELECT COUNT(*) FROM t WHERE year <= 2004", 1),
            ("SELECT COUNT(*) FROM t WHERE year > 2000", 2),
            ("SELECT COUNT(*) FROM t WHERE country = 'Italy'", 1),
        ] {
            let parsed = parse_query(sql).unwrap();
            let (out, _) = parsed.query.execute(&sales()).unwrap();
            assert_eq!(out.row(0), vec![Value::Int(expected_rows)], "{sql}");
        }
    }

    #[test]
    fn selected_column_must_be_grouped() {
        let err = parse_query("SELECT country, SUM(profit) FROM sales").unwrap_err();
        assert!(err.message.contains("not in GROUP BY"), "{err}");
    }

    #[test]
    fn must_select_an_aggregate() {
        let err = parse_query("SELECT country FROM sales GROUP BY country").unwrap_err();
        assert!(err.message.contains("at least one aggregate"));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("SELECT SUM(profit) FRM sales").unwrap_err();
        assert!(err.position > 0);
        assert!(err.message.contains("expected keyword from"));

        let err = parse_query("SELECT SUM(profit) FROM sales WHERE year ==").unwrap_err();
        assert!(err.to_string().contains("SQL error at byte"));
    }

    #[test]
    fn lexer_errors() {
        assert!(parse_query("SELECT SUM(profit) FROM sales WHERE c = 'oops").is_err());
        assert!(parse_query("SELECT SUM(profit) FROM sales WHERE a ! b").is_err());
        assert!(parse_query("SELECT %").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_query("SELECT SUM(profit) FROM sales GROUP BY year year").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn case_insensitive_keywords() {
        let parsed =
            parse_query("select Year, sum(Profit) from Sales where Year >= 2000 group by Year");
        // Identifiers are case-sensitive (Year != year) but keywords are not;
        // parsing succeeds, execution would fail on unknown column.
        assert!(parsed.is_ok());
    }

    #[test]
    fn negative_literals() {
        let parsed = parse_query("SELECT COUNT(*) FROM t WHERE profit > -10").unwrap();
        let (out, _) = parsed.query.execute(&sales()).unwrap();
        assert_eq!(out.row(0), vec![Value::Int(3)]);
    }
}
