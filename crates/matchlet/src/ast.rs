//! The matchlet language abstract syntax.

use crate::symbol::Symbol;
use gloss_knowledge::Term;
use gloss_sim::SimDuration;
use std::fmt;

/// A 1-based source position. `Span::default()` (line 0) means the
/// position is unknown — e.g. a rule built programmatically rather than
/// parsed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// 1-based line; 0 when unknown.
    pub line: usize,
    /// 1-based column; 0 when unknown.
    pub col: usize,
}

impl Span {
    /// True when this span carries a real source position.
    pub fn is_known(&self) -> bool {
        self.line > 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Source positions for the pieces of a [`Rule`], kept out of the AST
/// nodes themselves so structural equality ignores layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSpans {
    /// The `rule` keyword.
    pub rule: Span,
    /// One span per event pattern (the `on` keyword).
    pub patterns: Vec<Span>,
    /// One span per flattened goal (the `where` keyword that produced it).
    pub goals: Vec<Span>,
    /// The `emit` keyword.
    pub emit: Span,
}

impl RuleSpans {
    /// Span of pattern `i`, or the rule span when unrecorded.
    pub fn pattern(&self, i: usize) -> Span {
        self.patterns.get(i).copied().unwrap_or(self.rule)
    }

    /// Span of goal `i`, or the rule span when unrecorded.
    pub fn goal(&self, i: usize) -> Span {
        self.goals.get(i).copied().unwrap_or(self.rule)
    }
}

/// A pattern position: a variable to bind, a literal to require, or a
/// wildcard.
#[derive(Debug, Clone, PartialEq)]
pub enum Pat {
    /// `?name` — binds (or unifies with) a variable (interned).
    Var(Symbol),
    /// A literal the value must equal.
    Lit(Term),
    /// `_` — matches anything, binds nothing.
    Wild,
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pat::Var(v) => write!(f, "?{v}"),
            Pat::Lit(t) => write!(f, "{t}"),
            Pat::Wild => write!(f, "_"),
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical or.
    Or,
    /// Logical and.
    And,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// At most.
    Le,
    /// Greater than.
    Gt,
    /// At least.
    Ge,
    /// Addition (numeric) / concatenation (strings).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Term),
    /// A variable reference (`?x`, interned).
    Var(Symbol),
    /// A builtin function call.
    Call(String, Vec<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

/// One step of a `where` clause, solved left to right.
#[derive(Debug, Clone, PartialEq)]
pub enum Goal {
    /// `fact(subject, predicate, object)` — enumerates the knowledge base
    /// with unification; unbound variables in subject/object positions are
    /// bound by each matching fact (backtracking point).
    Fact {
        /// Subject pattern.
        subject: Pat,
        /// Predicate (always a literal name).
        predicate: String,
        /// Object pattern.
        object: Pat,
    },
    /// A boolean condition over bound variables.
    Cond(Expr),
}

/// One `on alias: event kind(field: pat, ...)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPattern {
    /// The clause alias (usable as documentation; not referenced today).
    pub alias: String,
    /// The event kind to match (e.g. `user.location`).
    pub kind: String,
    /// Field patterns. A key containing `/` or starting with `@` is an
    /// XPath into the XML payload (type projection); otherwise it names a
    /// typed attribute.
    pub fields: Vec<(String, Pat)>,
}

/// The `emit kind(field: expr, ...)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct EmitSpec {
    /// The synthesised event kind.
    pub kind: String,
    /// Fields computed from the solution bindings.
    pub fields: Vec<(String, Expr)>,
}

/// A complete rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The rule name.
    pub name: String,
    /// Event patterns (at least one).
    pub patterns: Vec<EventPattern>,
    /// Where goals (conjunction, solved in order).
    pub goals: Vec<Goal>,
    /// The correlation window: all joined events must lie within it.
    pub window: SimDuration,
    /// What to emit per solution.
    pub emit: EmitSpec,
    /// Source positions of the rule's pieces (all-zero when the rule was
    /// built programmatically).
    pub spans: RuleSpans,
}

/// Flattens an expression into goals: top-level `and`s become separate
/// goals so `fact` patterns become backtracking points.
pub fn expr_to_goals(expr: Expr) -> Vec<Goal> {
    match expr {
        Expr::Binary(BinOp::And, l, r) => {
            let mut goals = expr_to_goals(*l);
            goals.extend(expr_to_goals(*r));
            goals
        }
        Expr::Call(name, args) if name == "fact" && args.len() == 3 => {
            let mut it = args.into_iter();
            let subject = expr_to_pat(it.next().expect("3 args"));
            let pred_expr = it.next().expect("3 args");
            let object = expr_to_pat(it.next().expect("3 args"));
            let predicate = match pred_expr {
                Expr::Lit(Term::Str(s)) => s.as_ref().to_owned(),
                // Bare identifiers parse as zero-arg calls ("atoms").
                Expr::Call(name, args) if args.is_empty() => name,
                Expr::Var(v) => {
                    // A variable predicate is not supported; treat as a
                    // literal name for robustness.
                    v.as_str().to_string()
                }
                other => {
                    return vec![Goal::Cond(Expr::Call(
                        "fact".into(),
                        vec![pat_to_expr(subject), other, pat_to_expr(object)],
                    ))]
                }
            };
            vec![Goal::Fact { subject, predicate, object }]
        }
        other => vec![Goal::Cond(other)],
    }
}

fn expr_to_pat(e: Expr) -> Pat {
    match e {
        Expr::Var(v) if v == "_" => Pat::Wild,
        Expr::Var(v) => Pat::Var(v),
        Expr::Lit(t) => Pat::Lit(t),
        // Identifiers in fact positions parse as zero-arg calls; treat
        // their names as string literals ("bare atoms").
        Expr::Call(name, args) if args.is_empty() => Pat::Lit(Term::Str(name.into())),
        _ => Pat::Wild,
    }
}

fn pat_to_expr(p: Pat) -> Expr {
    match p {
        Pat::Var(v) => Expr::Var(v),
        Pat::Lit(t) => Expr::Lit(t),
        Pat::Wild => Expr::Var("_".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens_to_goal_sequence() {
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::And,
                Box::new(Expr::Lit(Term::Bool(true))),
                Box::new(Expr::Lit(Term::Bool(true))),
            )),
            Box::new(Expr::Lit(Term::Bool(false))),
        );
        assert_eq!(expr_to_goals(e).len(), 3);
    }

    #[test]
    fn fact_calls_become_fact_goals() {
        let e = Expr::Call(
            "fact".into(),
            vec![
                Expr::Var("u".into()),
                Expr::Lit(Term::str("likes")),
                Expr::Lit(Term::str("ice cream")),
            ],
        );
        let goals = expr_to_goals(e);
        assert_eq!(goals.len(), 1);
        match &goals[0] {
            Goal::Fact { subject, predicate, object } => {
                assert_eq!(subject, &Pat::Var("u".into()));
                assert_eq!(predicate, "likes");
                assert_eq!(object, &Pat::Lit(Term::str("ice cream")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_atoms_in_fact_positions_are_strings() {
        let e = Expr::Call(
            "fact".into(),
            vec![
                Expr::Call("janettas".into(), vec![]),
                Expr::Lit(Term::str("sells")),
                Expr::Var("what".into()),
            ],
        );
        match &expr_to_goals(e)[0] {
            Goal::Fact { subject, .. } => {
                assert_eq!(subject, &Pat::Lit(Term::str("janettas")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
