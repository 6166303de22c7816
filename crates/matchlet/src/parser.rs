//! Recursive-descent parser for the matchlet language.

use crate::ast::{expr_to_goals, BinOp, EmitSpec, EventPattern, Expr, Pat, Rule, RuleSpans, Span};
use crate::lexer::{lex, LexError, Token, TokenKind};
use gloss_knowledge::Term;
use gloss_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// A compile failure (lexing or parsing).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchletError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The problem.
    pub message: String,
    /// A rendered source excerpt (the offending line with a caret),
    /// attached by [`MatchletError::with_source`].
    pub snippet: Option<String>,
}

impl MatchletError {
    /// Attaches a source excerpt — the offending line plus a caret under
    /// the error column — so the failure is legible without the file.
    #[must_use]
    pub fn with_source(mut self, src: &str) -> Self {
        if self.line == 0 {
            return self;
        }
        if let Some(text) = src.lines().nth(self.line - 1) {
            let gutter = format!("{:>4} | ", self.line);
            let pad = " ".repeat(gutter.len() - 2 + self.col.saturating_sub(1));
            self.snippet = Some(format!("{gutter}{text}\n{pad}^"));
        }
        self
    }
}

impl fmt::Display for MatchletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matchlet error at {}:{}: {}", self.line, self.col, self.message)?;
        if let Some(snippet) = &self.snippet {
            write!(f, "\n{snippet}")?;
        }
        Ok(())
    }
}

impl Error for MatchletError {}

impl From<LexError> for MatchletError {
    fn from(e: LexError) -> Self {
        MatchletError { line: e.line, col: e.col, message: e.message, snippet: None }
    }
}

/// Parses a source file containing zero or more rules.
///
/// # Errors
///
/// Returns [`MatchletError`] with the position of the first problem.
pub fn parse_rules(src: &str) -> Result<Vec<Rule>, MatchletError> {
    parse_rules_inner(src).map_err(|e| e.with_source(src))
}

/// The deepest an expression may nest. It bounds both the parser's own
/// recursion (parentheses, call arguments, `not`, unary `-`) and the tree
/// it builds (each operator, negation and call is a level). Rule source
/// arrives from other nodes, and the analysis passes and the engine walk
/// an expression recursively too.
const MAX_NESTING: usize = 64;

fn parse_rules_inner(src: &str) -> Result<Vec<Rule>, MatchletError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut rules = Vec::new();
    while !p.at_eof() {
        rules.push(p.rule()?);
    }
    Ok(rules)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursive expression productions open at the current token.
    depth: usize,
}

/// A parsed expression and the depth of its tree (a leaf is 1).
type Nested = (Expr, usize);

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn peek_span(&self) -> Span {
        let t = self.peek();
        Span { line: t.line, col: t.col }
    }

    fn fail(&self, message: impl Into<String>) -> MatchletError {
        let t = self.peek();
        MatchletError { line: t.line, col: t.col, message: message.into(), snippet: None }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), MatchletError> {
        match &self.peek().kind {
            TokenKind::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => Err(self.fail(format!("expected `{p}`, found {other}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), MatchletError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.fail(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<String, MatchletError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.fail(format!("expected identifier, found {other}"))),
        }
    }

    fn rule(&mut self) -> Result<Rule, MatchletError> {
        let mut spans = RuleSpans { rule: self.peek_span(), ..RuleSpans::default() };
        self.expect_keyword("rule")?;
        let name = self.ident()?;
        self.expect_punct("{")?;
        let mut patterns = Vec::new();
        let mut goals = Vec::new();
        let mut window = SimDuration::from_secs(60);
        let mut emit = None;
        loop {
            if self.eat_punct("}") {
                break;
            }
            let clause = self.peek_span();
            if self.peek_keyword("on") {
                self.bump();
                patterns.push(self.event_pattern()?);
                spans.patterns.push(clause);
            } else if self.peek_keyword("where") {
                self.bump();
                let e = self.expr()?;
                let new = expr_to_goals(e);
                spans.goals.extend(std::iter::repeat_n(clause, new.len()));
                goals.extend(new);
            } else if self.peek_keyword("within") {
                self.bump();
                window = self.duration()?;
            } else if self.peek_keyword("emit") {
                self.bump();
                emit = Some(self.emit_spec()?);
                spans.emit = clause;
            } else {
                return Err(self.fail("expected `on`, `where`, `within`, `emit` or `}`"));
            }
        }
        if patterns.is_empty() {
            return Err(self.fail(format!("rule `{name}` has no `on` clause")));
        }
        let emit = emit.ok_or_else(|| self.fail(format!("rule `{name}` has no `emit` clause")))?;
        Ok(Rule { name, patterns, goals, window, emit, spans })
    }

    fn event_pattern(&mut self) -> Result<EventPattern, MatchletError> {
        let alias = self.ident()?;
        self.expect_punct(":")?;
        self.expect_keyword("event")?;
        let kind = self.ident()?;
        self.expect_punct("(")?;
        let mut fields = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let key = match self.peek().kind.clone() {
                    TokenKind::Ident(s) => {
                        self.bump();
                        s
                    }
                    // Quoted keys are XPaths into the payload.
                    TokenKind::Str(s) => {
                        self.bump();
                        s
                    }
                    other => return Err(self.fail(format!("expected field key, found {other}"))),
                };
                self.expect_punct(":")?;
                let pat = self.pattern()?;
                fields.push((key, pat));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(EventPattern { alias, kind, fields })
    }

    fn pattern(&mut self) -> Result<Pat, MatchletError> {
        match self.peek().kind.clone() {
            TokenKind::Var(v) => {
                self.bump();
                Ok(Pat::Var(v.into()))
            }
            TokenKind::Ident(s) if s == "_" => {
                self.bump();
                Ok(Pat::Wild)
            }
            TokenKind::Ident(s) if s == "true" => {
                self.bump();
                Ok(Pat::Lit(Term::Bool(true)))
            }
            TokenKind::Ident(s) if s == "false" => {
                self.bump();
                Ok(Pat::Lit(Term::Bool(false)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Pat::Lit(Term::Str(s.into())))
            }
            TokenKind::Num(n) => {
                self.bump();
                Ok(Pat::Lit(num_term(n)))
            }
            TokenKind::Punct("-") => {
                self.bump();
                match self.peek().kind.clone() {
                    TokenKind::Num(n) => {
                        self.bump();
                        Ok(Pat::Lit(num_term(-n)))
                    }
                    other => Err(self.fail(format!("expected number after `-`, found {other}"))),
                }
            }
            other => Err(self.fail(format!("expected pattern, found {other}"))),
        }
    }

    fn duration(&mut self) -> Result<SimDuration, MatchletError> {
        let n = match self.peek().kind.clone() {
            TokenKind::Num(n) if n >= 0.0 => {
                self.bump();
                n
            }
            other => return Err(self.fail(format!("expected duration, found {other}"))),
        };
        let unit = self.ident()?;
        let secs = match unit.as_str() {
            "ms" => n / 1e3,
            "s" => n,
            "m" => n * 60.0,
            "h" => n * 3600.0,
            other => return Err(self.fail(format!("unknown duration unit `{other}`"))),
        };
        Ok(SimDuration::from_secs_f64(secs))
    }

    fn emit_spec(&mut self) -> Result<EmitSpec, MatchletError> {
        let kind = self.ident()?;
        self.expect_punct("(")?;
        let mut fields = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let key = self.ident()?;
                self.expect_punct(":")?;
                let value = self.expr()?;
                fields.push((key, value));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(EmitSpec { kind, fields })
    }

    // --- expressions, by precedence ---

    fn too_deep(&self) -> MatchletError {
        self.fail(format!("expression nested deeper than {MAX_NESTING}"))
    }

    /// Runs the recursive production `f` one level deeper, or refuses
    /// past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, MatchletError>,
    ) -> Result<T, MatchletError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// `e` over children at most `below` deep, or refused past
    /// [`MAX_NESTING`].
    fn node(&self, e: Expr, below: usize) -> Result<Nested, MatchletError> {
        if below >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((e, below + 1))
    }

    fn binary(&self, op: BinOp, (l, ld): Nested, (r, rd): Nested) -> Result<Nested, MatchletError> {
        self.node(Expr::Binary(op, Box::new(l), Box::new(r)), ld.max(rd))
    }

    fn expr(&mut self) -> Result<Expr, MatchletError> {
        Ok(self.nested_expr()?.0)
    }

    fn nested_expr(&mut self) -> Result<Nested, MatchletError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Nested, MatchletError> {
        let mut left = self.and_expr()?;
        while self.peek_keyword("or") {
            self.bump();
            let right = self.and_expr()?;
            left = self.binary(BinOp::Or, left, right)?;
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Nested, MatchletError> {
        let mut left = self.not_expr()?;
        while self.peek_keyword("and") {
            self.bump();
            let right = self.not_expr()?;
            left = self.binary(BinOp::And, left, right)?;
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Nested, MatchletError> {
        if self.peek_keyword("not") {
            self.bump();
            let (e, d) = self.nested(Self::not_expr)?;
            return self.node(Expr::Not(Box::new(e)), d);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Nested, MatchletError> {
        let left = self.additive()?;
        let op = match &self.peek().kind {
            TokenKind::Punct("=") => Some(BinOp::Eq),
            TokenKind::Punct("!=") => Some(BinOp::Ne),
            TokenKind::Punct("<") => Some(BinOp::Lt),
            TokenKind::Punct("<=") => Some(BinOp::Le),
            TokenKind::Punct(">") => Some(BinOp::Gt),
            TokenKind::Punct(">=") => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let right = self.additive()?;
                self.binary(op, left, right)
            }
            None => Ok(left),
        }
    }

    fn additive(&mut self) -> Result<Nested, MatchletError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match &self.peek().kind {
                TokenKind::Punct("+") => BinOp::Add,
                TokenKind::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = self.binary(op, left, right)?;
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Nested, MatchletError> {
        let mut left = self.unary()?;
        loop {
            let op = match &self.peek().kind {
                TokenKind::Punct("*") => BinOp::Mul,
                TokenKind::Punct("/") => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = self.binary(op, left, right)?;
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Nested, MatchletError> {
        if self.eat_punct("-") {
            let (e, d) = self.nested(Self::unary)?;
            return self.node(Expr::Neg(Box::new(e)), d);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Nested, MatchletError> {
        match self.peek().kind.clone() {
            TokenKind::Num(n) => {
                self.bump();
                Ok((Expr::Lit(num_term(n)), 1))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok((Expr::Lit(Term::Str(s.into())), 1))
            }
            TokenKind::Var(v) => {
                self.bump();
                Ok((Expr::Var(v.into()), 1))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.nested_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Ident(s) => {
                self.bump();
                match s.as_str() {
                    "true" => return Ok((Expr::Lit(Term::Bool(true)), 1)),
                    "false" => return Ok((Expr::Lit(Term::Bool(false)), 1)),
                    _ => {}
                }
                // A bare identifier is a zero-argument call (used as an
                // atom in `fact` positions).
                let mut args = Vec::new();
                let mut below = 0;
                if self.eat_punct("(") && !self.eat_punct(")") {
                    loop {
                        let (arg, d) = self.nested_expr()?;
                        args.push(arg);
                        below = below.max(d);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                self.node(Expr::Call(s, args), below)
            }
            other => Err(self.fail(format!("expected expression, found {other}"))),
        }
    }
}

/// Numbers without a fractional part become integers.
fn num_term(n: f64) -> Term {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        Term::Int(n as i64)
    } else {
        Term::Float(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Goal;

    const ICE_CREAM: &str = r#"
        # The paper's scenario, as a matchlet.
        rule ice_cream_meetup {
            on w: event weather.reading(street: ?street, celsius: ?temp)
            on l: event user.location(user: ?u, lat: ?lat, lon: ?lon)
            where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
            where ?temp >= hot_threshold(?nat)
            within 5m
            emit suggestion(user: ?u, what: "ice cream", degrees: ?temp)
        }
    "#;

    #[test]
    fn parses_the_ice_cream_rule() {
        let rules = parse_rules(ICE_CREAM).unwrap();
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.name, "ice_cream_meetup");
        assert_eq!(r.patterns.len(), 2);
        assert_eq!(r.patterns[0].kind, "weather.reading");
        assert_eq!(r.patterns[1].fields.len(), 3);
        assert_eq!(r.goals.len(), 3);
        assert_eq!(r.window, SimDuration::from_secs(300));
        assert_eq!(r.emit.kind, "suggestion");
        assert_eq!(r.emit.fields.len(), 3);
    }

    #[test]
    fn goal_splitting_and_fact_patterns() {
        let rules = parse_rules(ICE_CREAM).unwrap();
        let goals = &rules[0].goals;
        assert!(matches!(&goals[0], Goal::Fact { predicate, .. } if predicate == "likes"));
        assert!(matches!(&goals[1], Goal::Fact { predicate, .. } if predicate == "nationality"));
        assert!(matches!(&goals[2], Goal::Cond(_)));
    }

    #[test]
    fn duration_units() {
        for (src, secs) in [("500 ms", 0.5), ("30 s", 30.0), ("5 m", 300.0), ("2 h", 7200.0)] {
            let rule = format!("rule r {{ on a: event k() within {src} emit out() }}");
            let rules = parse_rules(&rule).unwrap();
            assert_eq!(rules[0].window, SimDuration::from_secs_f64(secs), "{src}");
        }
    }

    #[test]
    fn payload_path_field_keys() {
        let src = r#"
            rule r {
                on a: event k("pos/@lat": ?lat, "pos/@lon": ?lon)
                emit out(lat: ?lat)
            }
        "#;
        let rules = parse_rules(src).unwrap();
        assert_eq!(rules[0].patterns[0].fields[0].0, "pos/@lat");
    }

    #[test]
    fn literal_field_patterns() {
        let src = r#"
            rule r {
                on a: event k(mode: "walking", level: 3, ok: true, skip: _)
                emit out()
            }
        "#;
        let fields = &parse_rules(src).unwrap()[0].patterns[0].fields;
        assert_eq!(fields[0].1, Pat::Lit(Term::str("walking")));
        assert_eq!(fields[1].1, Pat::Lit(Term::Int(3)));
        assert_eq!(fields[2].1, Pat::Lit(Term::Bool(true)));
        assert_eq!(fields[3].1, Pat::Wild);
    }

    #[test]
    fn expression_precedence() {
        let src = r#"
            rule r {
                on a: event k(x: ?x)
                where ?x + 2 * 3 >= 10 - 1
                emit out()
            }
        "#;
        let goals = &parse_rules(src).unwrap()[0].goals;
        let Goal::Cond(Expr::Binary(BinOp::Ge, l, r)) = &goals[0] else {
            panic!("expected >=");
        };
        assert!(matches!(**l, Expr::Binary(BinOp::Add, _, _)));
        assert!(matches!(**r, Expr::Binary(BinOp::Sub, _, _)));
    }

    #[test]
    fn or_does_not_split_goals() {
        let src = r#"
            rule r {
                on a: event k(x: ?x)
                where ?x = 1 or ?x = 2
                emit out()
            }
        "#;
        let goals = &parse_rules(src).unwrap()[0].goals;
        assert_eq!(goals.len(), 1);
        assert!(matches!(&goals[0], Goal::Cond(Expr::Binary(BinOp::Or, _, _))));
    }

    #[test]
    fn multiple_rules_in_one_source() {
        let src = r#"
            rule a { on x: event k() emit out1() }
            rule b { on y: event j() emit out2() }
        "#;
        assert_eq!(parse_rules(src).unwrap().len(), 2);
        assert!(parse_rules("").unwrap().is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_rules("rule {").is_err());
        assert!(parse_rules("rule r { emit out() }").is_err(), "no on clause");
        assert!(parse_rules("rule r { on a: event k() }").is_err(), "no emit clause");
        assert!(parse_rules("rule r { on a event k() emit o() }").is_err());
        assert!(parse_rules("rule r { on a: event k() within 5 parsec emit o() }").is_err());
        let err = parse_rules("rule r {\n  banana\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn errors_carry_source_snippets() {
        let err = parse_rules("rule r {\n  banana\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        let snippet = err.snippet.as_deref().expect("snippet attached");
        assert!(snippet.contains("banana"), "{snippet}");
        assert!(snippet.lines().nth(1).unwrap().ends_with('^'), "{snippet}");
        // The caret sits under the offending token.
        let text = err.to_string();
        assert!(text.contains("2:3"), "{text}");
        assert!(text.contains("banana"), "{text}");
    }

    #[test]
    fn rules_carry_clause_spans() {
        let src =
            "rule r {\n  on a: event k(x: ?x)\n  where ?x > 1 and ?x < 9\n  emit out(x: ?x)\n}";
        let r = &parse_rules(src).unwrap()[0];
        assert_eq!(r.spans.rule, Span { line: 1, col: 1 });
        assert_eq!(r.spans.pattern(0), Span { line: 2, col: 3 });
        // One `where` producing two goals records the same span twice.
        assert_eq!(r.goals.len(), 2);
        assert_eq!(r.spans.goal(0), Span { line: 3, col: 3 });
        assert_eq!(r.spans.goal(1), Span { line: 3, col: 3 });
        assert_eq!(r.spans.emit, Span { line: 4, col: 3 });
    }

    #[test]
    fn negative_number_patterns_and_exprs() {
        let src = r#"
            rule r {
                on a: event k(lon: -2.8)
                where -1 < 0
                emit out(v: -3)
            }
        "#;
        let r = &parse_rules(src).unwrap()[0];
        assert_eq!(r.patterns[0].fields[0].1, Pat::Lit(Term::Float(-2.8)));
    }
}
