//! Expression evaluation and goal solving with unification over the
//! knowledge base.

use crate::ast::{BinOp, Expr, Goal, Pat};
use crate::builtin;
use crate::symbol::Symbol;
use gloss_knowledge::{FactSource, Term};
use gloss_sim::SimTime;
use std::error::Error;
use std::fmt;
use std::ops::Index;

/// Variable bindings accumulated during matching: a flat vector of
/// `(Symbol, Term)` pairs.
///
/// Environments are tiny (a handful of variables), so linear scans beat
/// tree or hash lookups, and cloning is a single allocation instead of a
/// node-per-entry `BTreeMap` rebuild. Keys are interned [`Symbol`]s, so
/// clones never copy variable names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    entries: Vec<(Symbol, Term)>,
}

impl Bindings {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Term> {
        let sym = Symbol::lookup(name)?;
        self.get_sym(sym)
    }

    /// The value bound to an interned symbol, if any.
    pub fn get_sym(&self, sym: Symbol) -> Option<&Term> {
        self.entries.iter().find(|(s, _)| *s == sym).map(|(_, t)| t)
    }

    /// Whether `name` is bound.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Binds `name` to `value`, replacing any existing binding.
    pub fn insert(&mut self, name: impl Into<Symbol>, value: Term) {
        self.insert_sym(name.into(), value);
    }

    /// Binds an interned symbol to `value`, replacing any existing
    /// binding.
    pub fn insert_sym(&mut self, sym: Symbol, value: Term) {
        match self.entries.iter_mut().find(|(s, _)| *s == sym) {
            Some((_, t)) => *t = value,
            None => self.entries.push((sym, value)),
        }
    }

    /// Iterates over `(symbol, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Term)> + '_ {
        self.entries.iter().map(|(s, t)| (*s, t))
    }

    /// Drops all bindings after the first `len` (the solver's
    /// backtracking undo: bindings are append-only within a frame; the
    /// engine's memo replay uses the same discipline).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// The raw `(symbol, value)` entries in insertion order (the engine's
    /// memo captures the suffix a solve appended beyond its input).
    pub(crate) fn raw_entries(&self) -> &[(Symbol, Term)] {
        &self.entries
    }

    /// Appends an entry the caller knows is not already bound (memo
    /// replay of a captured suffix — suffixes only ever contain symbols
    /// that were unbound in the input environment).
    pub(crate) fn push_raw(&mut self, sym: Symbol, value: Term) {
        debug_assert!(self.get_sym(sym).is_none(), "memo suffix rebinds ?{sym}");
        self.entries.push((sym, value));
    }

    /// Makes this environment a copy of `other`, reusing its buffer (the
    /// join's scratch environment is reset this way per fixed event).
    pub(crate) fn assign(&mut self, other: &Bindings) {
        self.entries.clone_from(&other.entries);
    }

    /// Joins `other` into this environment in place: `false`, with
    /// nothing changed, if any shared variable disagrees (under
    /// [`Term::eq_term`]); otherwise `other`'s unbound variables are
    /// appended in `other`'s order. The caller undoes the join by
    /// truncating back to the length it had before the call.
    pub(crate) fn join(&mut self, other: &Bindings) -> bool {
        let mark = self.entries.len();
        for (k, v) in &other.entries {
            if let Some(existing) = self.get_sym(*k) {
                if !existing.eq_term(v) {
                    return false;
                }
            }
        }
        for (k, v) in &other.entries {
            if !self.entries[..mark].iter().any(|(s, _)| s == k) {
                self.entries.push((*k, v.clone()));
            }
        }
        true
    }
}

impl Index<&str> for Bindings {
    type Output = Term;

    fn index(&self, name: &str) -> &Term {
        self.get(name).unwrap_or_else(|| panic!("unbound variable ?{name}"))
    }
}

impl FromIterator<(String, Term)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (String, Term)>>(iter: I) -> Self {
        let mut b = Bindings::new();
        for (k, v) in iter {
            b.insert(k, v);
        }
        b
    }
}

impl FromIterator<(Symbol, Term)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (Symbol, Term)>>(iter: I) -> Self {
        let mut b = Bindings::new();
        for (k, v) in iter {
            b.insert_sym(k, v);
        }
        b
    }
}

/// An evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A variable was referenced before being bound.
    UnboundVariable(String),
    /// No such builtin function.
    UnknownFunction(String),
    /// A builtin rejected its arguments.
    BadArguments {
        /// The function.
        function: String,
        /// What was passed.
        detail: String,
    },
    /// An operator was applied to incompatible operands.
    TypeError {
        /// The operator.
        op: String,
        /// The operands.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ?{v}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::BadArguments { function, detail } => {
                write!(f, "bad arguments to `{function}`: {detail}")
            }
            EvalError::TypeError { op, detail } => {
                write!(f, "type error applying `{op}`: {detail}")
            }
        }
    }
}

impl Error for EvalError {}

/// Evaluates an expression under `env` at time `now`, reading facts from
/// `kb` (used only by the `fact(...)`-as-boolean form inside `or`).
///
/// # Errors
///
/// Returns [`EvalError`] for unbound variables, unknown functions, or
/// type mismatches.
pub fn eval(
    expr: &Expr,
    env: &Bindings,
    kb: &dyn FactSource,
    now: SimTime,
) -> Result<Term, EvalError> {
    match expr {
        Expr::Lit(t) => Ok(t.clone()),
        Expr::Var(v) => env
            .get_sym(*v)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(v.as_str().to_string())),
        Expr::Not(inner) => {
            let t = eval(inner, env, kb, now)?;
            let b = t
                .as_bool()
                .ok_or_else(|| EvalError::TypeError { op: "not".into(), detail: t.to_string() })?;
            Ok(Term::Bool(!b))
        }
        Expr::Neg(inner) => {
            let t = eval(inner, env, kb, now)?;
            let n = t
                .as_f64()
                .ok_or_else(|| EvalError::TypeError { op: "-".into(), detail: t.to_string() })?;
            Ok(if matches!(t, Term::Int(_)) { Term::Int(-(n as i64)) } else { Term::Float(-n) })
        }
        Expr::Binary(op, l, r) => {
            // Short-circuit logical operators.
            if *op == BinOp::And || *op == BinOp::Or {
                let lv = eval(l, env, kb, now)?;
                let lb = lv.as_bool().ok_or_else(|| EvalError::TypeError {
                    op: op.to_string(),
                    detail: lv.to_string(),
                })?;
                if (*op == BinOp::And && !lb) || (*op == BinOp::Or && lb) {
                    return Ok(Term::Bool(lb));
                }
                let rv = eval(r, env, kb, now)?;
                return rv.as_bool().map(Term::Bool).ok_or_else(|| EvalError::TypeError {
                    op: op.to_string(),
                    detail: rv.to_string(),
                });
            }
            let lv = eval(l, env, kb, now)?;
            let rv = eval(r, env, kb, now)?;
            apply_binop(*op, &lv, &rv)
        }
        Expr::Call(name, args) if name == "fact" && args.len() == 3 => {
            // Boolean form: true iff at least one fact matches (no new
            // bindings escape).
            let subject = eval(&args[0], env, kb, now)?;
            let predicate = eval(&args[1], env, kb, now)?;
            let object = eval(&args[2], env, kb, now)?;
            let (Some(s), Some(p)) = (subject.as_str(), predicate.as_str()) else {
                return Err(EvalError::BadArguments {
                    function: "fact".into(),
                    detail: "subject and predicate must be strings".into(),
                });
            };
            let found = kb.query_at(Some(s), Some(p), now).any(|f| f.object.eq_term(&object));
            Ok(Term::Bool(found))
        }
        Expr::Call(name, args) if args.is_empty() && !env.is_empty() && env.contains_key(name) => {
            // A bare atom that happens to shadow a variable name never
            // occurs in practice; keep atoms as strings.
            Ok(Term::str(name.as_str()))
        }
        Expr::Call(name, args) => {
            if args.is_empty() && !is_builtin(name) {
                // Bare atom.
                return Ok(Term::str(name.as_str()));
            }
            // Builtins take at most three arguments; evaluate into a
            // stack buffer so calls never touch the allocator.
            if args.len() <= 3 {
                let mut buf = [Term::Bool(false), Term::Bool(false), Term::Bool(false)];
                for (i, a) in args.iter().enumerate() {
                    buf[i] = eval(a, env, kb, now)?;
                }
                return builtin::call(name, &buf[..args.len()], now);
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, kb, now)?);
            }
            builtin::call(name, &vals, now)
        }
    }
}

use builtin::is_builtin;

fn apply_binop(op: BinOp, l: &Term, r: &Term) -> Result<Term, EvalError> {
    use BinOp::*;
    let type_err = || EvalError::TypeError { op: op.to_string(), detail: format!("{l} {op} {r}") };
    match op {
        Eq => Ok(Term::Bool(l.eq_term(r))),
        Ne => Ok(Term::Bool(!l.eq_term(r))),
        Lt | Le | Gt | Ge => {
            let ord = match (l, r) {
                (Term::Str(a), Term::Str(b)) => a.cmp(b),
                _ => {
                    let (a, b) =
                        (l.as_f64().ok_or_else(type_err)?, r.as_f64().ok_or_else(type_err)?);
                    a.partial_cmp(&b).ok_or_else(type_err)?
                }
            };
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            };
            Ok(Term::Bool(b))
        }
        Add => match (l, r) {
            (Term::Str(a), Term::Str(b)) => Ok(Term::Str(format!("{a}{b}").into())),
            (Term::Int(a), Term::Int(b)) => Ok(Term::Int(a + b)),
            _ => {
                let (a, b) = (l.as_f64().ok_or_else(type_err)?, r.as_f64().ok_or_else(type_err)?);
                Ok(Term::Float(a + b))
            }
        },
        Sub | Mul | Div => {
            if let (Term::Int(a), Term::Int(b)) = (l, r) {
                return Ok(match op {
                    Sub => Term::Int(a - b),
                    Mul => Term::Int(a * b),
                    _ => {
                        if *b == 0 {
                            return Err(type_err());
                        }
                        Term::Int(a / b)
                    }
                });
            }
            let (a, b) = (l.as_f64().ok_or_else(type_err)?, r.as_f64().ok_or_else(type_err)?);
            Ok(Term::Float(match op {
                Sub => a - b,
                Mul => a * b,
                _ => a / b,
            }))
        }
        And | Or => unreachable!("handled with short-circuit"),
    }
}

/// Unifies a pattern against a concrete value, extending `env` on success.
pub fn unify(pat: &Pat, value: &Term, env: &mut Bindings) -> bool {
    match pat {
        Pat::Wild => true,
        Pat::Lit(expected) => expected.eq_term(value),
        Pat::Var(name) => match env.get_sym(*name) {
            Some(bound) => bound.eq_term(value),
            None => {
                env.insert_sym(*name, value.clone());
                true
            }
        },
    }
}

/// Unifies a pattern against a string value without materialising a
/// `Term` unless the pattern actually binds (the fact-subject fast path).
fn unify_str(pat: &Pat, value: &str, env: &mut Bindings) -> bool {
    match pat {
        Pat::Wild => true,
        Pat::Lit(expected) => matches!(expected, Term::Str(s) if s.as_ref() == value),
        Pat::Var(name) => match env.get_sym(*name) {
            Some(bound) => bound.as_str() == Some(value),
            None => {
                env.insert_sym(*name, Term::str(value));
                true
            }
        },
    }
}

/// Solves a conjunction of goals left to right, invoking `on_solution`
/// for every complete solution. `fact` goals backtrack over the knowledge
/// base; condition goals filter.
///
/// Backtracking works by truncating a single scratch environment back to
/// its pre-goal length (bindings are append-only within a frame), so
/// enumerating a fact goal allocates nothing per candidate fact.
///
/// Evaluation errors in conditions prune that branch (treated as
/// non-matches) but are counted by the caller via the returned error
/// count, so misconfigured rules are observable without aborting
/// matching.
pub fn solve(
    goals: &[Goal],
    env: &Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    on_solution: &mut dyn FnMut(&Bindings),
) -> u64 {
    let mut scratch = env.clone();
    solve_mut(goals, &mut scratch, kb, now, on_solution)
}

/// [`solve`] over an owned environment: callers that are done with `env`
/// avoid the defensive clone. `env` is restored to its original length
/// before returning, but intermediate bindings may have been appended
/// and truncated in place.
pub fn solve_mut(
    goals: &[Goal],
    env: &mut Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    on_solution: &mut dyn FnMut(&Bindings),
) -> u64 {
    match goals.split_first() {
        None => {
            on_solution(env);
            0
        }
        Some((Goal::Cond(expr), rest)) => match eval(expr, env, kb, now) {
            Ok(Term::Bool(true)) => solve_mut(rest, env, kb, now, on_solution),
            Ok(_) => 0,
            Err(_) => 1,
        },
        Some((Goal::Fact { subject, predicate, object }, rest)) => {
            // Use any already-bound subject to narrow the query. The hint
            // is an `Arc` clone (a refcount bump) so the fact enumeration
            // does not pin a borrow of the environment we mutate while
            // backtracking.
            let subject_hint: Option<std::sync::Arc<str>> = match subject {
                Pat::Lit(Term::Str(s)) => Some(s.clone()),
                Pat::Var(v) => match env.get_sym(*v) {
                    Some(Term::Str(s)) => Some(s.clone()),
                    _ => None,
                },
                _ => None,
            };
            let mark = env.len();
            let mut errors = 0;
            kb.for_each_at(subject_hint.as_deref(), Some(predicate), now, &mut |fact| {
                if !unify_str(subject, &fact.subject, env) {
                    env.truncate(mark);
                    return;
                }
                if !unify(object, &fact.object, env) {
                    env.truncate(mark);
                    return;
                }
                errors += solve_mut(rest, env, kb, now, on_solution);
                env.truncate(mark);
            });
            errors
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_knowledge::{Fact, InMemoryFacts};

    fn kb() -> InMemoryFacts {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "likes", Term::str("golf")));
        kb.add(Fact::new("anna", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "knows", Term::str("anna")));
        kb
    }

    fn env(pairs: &[(&str, Term)]) -> Bindings {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn eval_ok(e: &Expr, env: &Bindings) -> Term {
        eval(e, env, &kb(), SimTime::ZERO).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        use crate::parser::parse_rules;
        // Reuse the parser to build expressions concisely.
        let src = r#"rule r { on a: event k(x: ?x) where ?x * 2 + 1 = 7 emit o() }"#;
        let rules = parse_rules(src).unwrap();
        let Goal::Cond(expr) = &rules[0].goals[0] else { panic!() };
        assert_eq!(eval_ok(expr, &env(&[("x", Term::Int(3))])), Term::Bool(true));
        assert_eq!(eval_ok(expr, &env(&[("x", Term::Int(4))])), Term::Bool(false));
    }

    #[test]
    fn unbound_variable_errors() {
        let e = Expr::Var("missing".into());
        assert!(matches!(
            eval(&e, &Bindings::new(), &kb(), SimTime::ZERO),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn string_comparison_and_concat() {
        let cat = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Lit(Term::str("ice "))),
            Box::new(Expr::Lit(Term::str("cream"))),
        );
        assert_eq!(eval_ok(&cat, &Bindings::new()), Term::str("ice cream"));
        let cmp = Expr::Binary(
            BinOp::Lt,
            Box::new(Expr::Lit(Term::str("a"))),
            Box::new(Expr::Lit(Term::str("b"))),
        );
        assert_eq!(eval_ok(&cmp, &Bindings::new()), Term::Bool(true));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::Lit(Term::Int(1))),
            Box::new(Expr::Lit(Term::Int(0))),
        );
        assert!(eval(&e, &Bindings::new(), &kb(), SimTime::ZERO).is_err());
    }

    #[test]
    fn short_circuit_logic() {
        // `false and <error>` must not error.
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Lit(Term::Bool(false))),
            Box::new(Expr::Var("unbound".into())),
        );
        assert_eq!(eval_ok(&e, &Bindings::new()), Term::Bool(false));
        let e = Expr::Binary(
            BinOp::Or,
            Box::new(Expr::Lit(Term::Bool(true))),
            Box::new(Expr::Var("unbound".into())),
        );
        assert_eq!(eval_ok(&e, &Bindings::new()), Term::Bool(true));
    }

    #[test]
    fn unification_semantics() {
        let mut env = Bindings::new();
        assert!(unify(&Pat::Var("x".into()), &Term::Int(3), &mut env));
        assert_eq!(env["x"], Term::Int(3));
        // Bound variable must agree.
        assert!(unify(&Pat::Var("x".into()), &Term::Float(3.0), &mut env));
        assert!(!unify(&Pat::Var("x".into()), &Term::Int(4), &mut env));
        assert!(unify(&Pat::Wild, &Term::str("anything"), &mut env));
        assert!(unify(&Pat::Lit(Term::str("a")), &Term::str("a"), &mut env));
        assert!(!unify(&Pat::Lit(Term::str("a")), &Term::str("b"), &mut env));
    }

    #[test]
    fn bindings_insert_replaces_and_iterates() {
        let mut b = Bindings::new();
        b.insert("x", Term::Int(1));
        b.insert("y", Term::Int(2));
        b.insert("x", Term::Int(3));
        assert_eq!(b.len(), 2);
        assert_eq!(b["x"], Term::Int(3));
        let syms: Vec<Symbol> = b.iter().map(|(s, _)| s).collect();
        assert_eq!(syms, vec![Symbol::intern("x"), Symbol::intern("y")]);
        assert!(!b.contains_key("z"));
    }

    #[test]
    fn solve_enumerates_and_backtracks() {
        let goals = vec![
            Goal::Fact {
                subject: Pat::Var("who".into()),
                predicate: "likes".into(),
                object: Pat::Lit(Term::str("ice cream")),
            },
            Goal::Fact {
                subject: Pat::Lit(Term::str("bob")),
                predicate: "knows".into(),
                object: Pat::Var("who".into()),
            },
        ];
        let mut solutions = Vec::new();
        let errors = solve(&goals, &Bindings::new(), &kb(), SimTime::ZERO, &mut |env| {
            solutions.push(env["who"].clone());
        });
        assert_eq!(errors, 0);
        // bob and anna like ice cream, but bob only knows anna.
        assert_eq!(solutions, vec![Term::str("anna")]);
    }

    #[test]
    fn solve_uses_subject_hint() {
        // With subject bound, only bob's facts are enumerated.
        let goals = vec![Goal::Fact {
            subject: Pat::Var("u".into()),
            predicate: "likes".into(),
            object: Pat::Var("what".into()),
        }];
        let env0 = env(&[("u", Term::str("bob"))]);
        let mut n = 0;
        solve(&goals, &env0, &kb(), SimTime::ZERO, &mut |_| n += 1);
        assert_eq!(n, 2, "bob likes two things");
    }

    #[test]
    fn condition_errors_are_counted_not_fatal() {
        let goals = vec![
            Goal::Fact {
                subject: Pat::Var("u".into()),
                predicate: "likes".into(),
                object: Pat::Wild,
            },
            Goal::Cond(Expr::Var("never_bound".into())),
        ];
        let mut n = 0;
        let errors = solve(&goals, &Bindings::new(), &kb(), SimTime::ZERO, &mut |_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(errors, 3, "one error per enumerated fact");
    }

    #[test]
    fn fact_as_boolean_inside_expression() {
        let e = Expr::Call(
            "fact".into(),
            vec![
                Expr::Lit(Term::str("bob")),
                Expr::Lit(Term::str("likes")),
                Expr::Lit(Term::str("golf")),
            ],
        );
        assert_eq!(eval_ok(&e, &Bindings::new()), Term::Bool(true));
        let e = Expr::Call(
            "fact".into(),
            vec![
                Expr::Lit(Term::str("bob")),
                Expr::Lit(Term::str("likes")),
                Expr::Lit(Term::str("opera")),
            ],
        );
        assert_eq!(eval_ok(&e, &Bindings::new()), Term::Bool(false));
    }

    #[test]
    fn bare_atoms_evaluate_to_strings() {
        let e = Expr::Call("janettas".into(), vec![]);
        assert_eq!(eval_ok(&e, &Bindings::new()), Term::str("janettas"));
    }
}
