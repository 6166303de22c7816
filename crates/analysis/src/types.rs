//! Pass 2a: type inference and constant conditions.
//!
//! Infers a set of possible runtime types per variable from how the rule
//! uses it — comparison operands, builtin argument positions, arithmetic
//! — and flags variables whose set becomes empty: no binding can ever
//! satisfy every use, so the rule can never fire. Conditions that use no
//! variables and no dynamic state are folded with the real evaluator;
//! constant-false (or always-erroring) conditions are errors.
//!
//! Inference is deliberately conservative: constraints are only recorded
//! from *conjunctive* positions (top-level goals and `and` chains). A use
//! inside `or`/`not` might never be evaluated on the path that fires, so
//! it proves nothing.

use crate::diag::Report;
use gloss_knowledge::{InMemoryFacts, Term};
use gloss_matchlet::ast::{BinOp, Expr, Goal, Pat, Rule, Span};
use gloss_matchlet::builtin::is_builtin;
use gloss_matchlet::canonical::expr_reads_dynamic_state;
use gloss_matchlet::eval::{eval, Bindings};
use gloss_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A set of possible runtime types, as a bitmask over [`Term`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeSet(u8);

impl TypeSet {
    /// Strings.
    pub const STR: TypeSet = TypeSet(1);
    /// Integers.
    pub const INT: TypeSet = TypeSet(2);
    /// Floats.
    pub const FLOAT: TypeSet = TypeSet(4);
    /// Booleans.
    pub const BOOL: TypeSet = TypeSet(8);
    /// Geographic points.
    pub const GEO: TypeSet = TypeSet(16);
    /// Instants.
    pub const TIME: TypeSet = TypeSet(32);
    /// Anything `Term::as_f64` accepts (`Int`, `Float`, `Time`).
    pub const NUMERIC: TypeSet = TypeSet(2 | 4 | 32);
    /// What an event attribute can hold.
    pub const ATTR: TypeSet = TypeSet(1 | 2 | 4 | 8);
    /// Every type.
    pub const ANY: TypeSet = TypeSet(63);

    /// Set intersection.
    pub fn intersect(self, other: TypeSet) -> TypeSet {
        TypeSet(self.0 & other.0)
    }

    /// Whether no type remains.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The type set a literal term inhabits.
    pub fn of(term: &Term) -> TypeSet {
        match term {
            Term::Str(_) => TypeSet::STR,
            Term::Int(_) => TypeSet::INT,
            Term::Float(_) => TypeSet::FLOAT,
            Term::Bool(_) => TypeSet::BOOL,
            Term::Geo(_) => TypeSet::GEO,
            Term::Time(_) => TypeSet::TIME,
        }
    }
}

impl fmt::Display for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = [
            (TypeSet::STR, "string"),
            (TypeSet::INT, "int"),
            (TypeSet::FLOAT, "float"),
            (TypeSet::BOOL, "bool"),
            (TypeSet::GEO, "geo"),
            (TypeSet::TIME, "time"),
        ]
        .iter()
        .filter(|(t, _)| !self.intersect(*t).is_empty())
        .map(|(_, n)| *n)
        .collect();
        if names.is_empty() {
            f.write_str("nothing")
        } else {
            f.write_str(&names.join("|"))
        }
    }
}

/// A builtin's signature: per-argument type sets and the return type,
/// looked up by name **and** arity. `signatures_name_the_evaluators_builtins`
/// checks that it names the evaluator's builtins.
fn builtin_sig(name: &str, arity: usize) -> Option<(&'static [TypeSet], TypeSet)> {
    const NUM2: &[TypeSet] = &[TypeSet::NUMERIC, TypeSet::NUMERIC];
    const GEO1: &[TypeSet] = &[TypeSet::GEO];
    const GEO2: &[TypeSet] = &[TypeSet::GEO, TypeSet::GEO];
    const STR1: &[TypeSet] = &[TypeSet::STR];
    const STR2: &[TypeSet] = &[TypeSet::STR, TypeSet::STR];
    const TIME1: &[TypeSet] = &[TypeSet::TIME];
    const TIME2: &[TypeSet] = &[TypeSet::TIME, TypeSet::TIME];
    const ANY1: &[TypeSet] = &[TypeSet::ANY];
    const NONE: &[TypeSet] = &[];
    match (name, arity) {
        ("geo", 2) => Some((NUM2, TypeSet::GEO)),
        ("distance_km", 2) => Some((GEO2, TypeSet::FLOAT)),
        ("lat", 1) | ("lon", 1) => Some((GEO1, TypeSet::FLOAT)),
        ("walk_minutes", 2) => Some((GEO2, TypeSet::FLOAT)),
        ("now", 0) => Some((NONE, TypeSet::TIME)),
        ("minutes_of_day", 0) => Some((NONE, TypeSet::INT)),
        ("minutes_of_day", 1) => Some((TIME1, TypeSet::INT)),
        ("seconds_between", 2) => Some((TIME2, TypeSet::FLOAT)),
        ("hot_threshold", 1) => Some((ANY1, TypeSet::FLOAT)),
        ("lower", 1) => Some((STR1, TypeSet::STR)),
        ("contains", 2) => Some((STR2, TypeSet::BOOL)),
        ("concat", 2) => Some((STR2, TypeSet::STR)),
        ("abs", 1) => Some((&[TypeSet::NUMERIC], TypeSet::FLOAT)),
        ("min", 2) | ("max", 2) => Some((NUM2, TypeSet::FLOAT)),
        // The boolean `fact` form is handled by the evaluator itself.
        ("fact", 3) => Some((&[TypeSet::ANY, TypeSet::ANY, TypeSet::ANY], TypeSet::BOOL)),
        _ => None,
    }
}

/// Runs the pass over every rule.
pub fn check_rules(rules: &[Rule]) -> Report {
    let mut report = Report::new();
    for rule in rules {
        check_rule(rule, &mut report);
    }
    report
}

fn check_rule(rule: &Rule, report: &mut Report) {
    // Initial sets: pattern variables hold attribute values, fact-bound
    // variables any term.
    let mut vars: BTreeMap<String, (TypeSet, Span)> = BTreeMap::new();
    for (i, p) in rule.patterns.iter().enumerate() {
        for (_, pat) in &p.fields {
            if let Pat::Var(v) = pat {
                vars.entry(v.as_str().to_string())
                    .or_insert((TypeSet::ATTR, rule.spans.pattern(i)));
            }
        }
    }
    for (i, goal) in rule.goals.iter().enumerate() {
        if let Goal::Fact { subject, object, .. } = goal {
            for pat in [subject, object] {
                if let Pat::Var(v) = pat {
                    vars.entry(v.as_str().to_string())
                        .or_insert((TypeSet::ANY, rule.spans.goal(i)));
                }
            }
        }
    }

    // Gather constraints and structural checks from every goal and emit.
    for (i, goal) in rule.goals.iter().enumerate() {
        if let Goal::Cond(expr) = goal {
            let cx = Cx { required: true, evaluated: true };
            walk(expr, rule.spans.goal(i), rule, cx, &mut vars, report);
            const_fold(expr, rule.spans.goal(i), rule, report);
        }
    }
    for (_, expr) in &rule.emit.fields {
        // An emit expression that always errors means the rule never
        // emits; its truth is not constrained.
        let cx = Cx { required: false, evaluated: true };
        walk(expr, rule.spans.emit, rule, cx, &mut vars, report);
    }

    for (name, (set, span)) in &vars {
        if set.is_empty() {
            report.error(
                "type-conflict",
                Some(&rule.name),
                *span,
                format!("`?{name}` has no possible type: its uses contradict each other, so the rule can never fire"),
            );
        }
    }
}

/// Where an expression sits relative to its goal.
///
/// `required`: the goal only passes if this expression is *true* —
/// narrowing from what truth demands (e.g. `?x = 5`) is sound.
/// `evaluated`: this expression is evaluated whenever the goal is — an
/// eval **error** here kills the solution, so narrowing from what
/// error-free evaluation demands (builtin argument types, ordered
/// comparisons, arithmetic) is sound even under `not`/inside operands.
/// Neither holds inside `or` right branches: they may be skipped.
#[derive(Clone, Copy)]
struct Cx {
    required: bool,
    evaluated: bool,
}

/// Walks an expression: reports unknown functions and bad arities, and
/// narrows variable type sets where the context makes it sound.
fn walk(
    expr: &Expr,
    span: Span,
    rule: &Rule,
    cx: Cx,
    vars: &mut BTreeMap<String, (TypeSet, Span)>,
    report: &mut Report,
) {
    let narrow = |name: &str, to: TypeSet, vars: &mut BTreeMap<String, (TypeSet, Span)>| {
        if name == "_" {
            return;
        }
        if let Some((set, _)) = vars.get_mut(name) {
            *set = set.intersect(to);
        }
    };
    // Operands lose `required` (their own truth is not what the goal
    // tests) but keep `evaluated`.
    let operand = Cx { required: false, evaluated: cx.evaluated };
    match expr {
        Expr::Lit(_) | Expr::Var(_) => {}
        Expr::Not(inner) => {
            // `not` needs a boolean operand to evaluate at all.
            if cx.evaluated {
                if let Expr::Var(v) = &**inner {
                    narrow(v.as_str(), TypeSet::BOOL, vars);
                }
            }
            walk(inner, span, rule, operand, vars, report);
        }
        Expr::Neg(inner) => {
            if cx.evaluated {
                if let Expr::Var(v) = &**inner {
                    narrow(v.as_str(), TypeSet::NUMERIC, vars);
                }
            }
            walk(inner, span, rule, operand, vars, report);
        }
        Expr::Binary(op, l, r) => {
            match op {
                BinOp::And => {
                    // If the conjunction must be true, both sides must be
                    // true (and hence both are evaluated).
                    let side = if cx.required { cx } else { operand };
                    walk(l, span, rule, Cx { evaluated: cx.evaluated, ..side }, vars, report);
                    let right = Cx { evaluated: cx.required && cx.evaluated, ..side };
                    walk(r, span, rule, right, vars, report);
                    return;
                }
                BinOp::Or => {
                    // Either side alone may satisfy the goal; the right
                    // side may be skipped entirely.
                    walk(l, span, rule, operand, vars, report);
                    let right = Cx { required: false, evaluated: false };
                    walk(r, span, rule, right, vars, report);
                    return;
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    // var-vs-literal narrows the variable.
                    for (a, b) in [(&**l, &**r), (&**r, &**l)] {
                        let (Expr::Var(v), Expr::Lit(t)) = (a, b) else { continue };
                        let lit = TypeSet::of(t);
                        match op {
                            // Equality across types is false, not an
                            // error; to be *true* the types must meet
                            // (numerics compare across Int/Float/Time).
                            BinOp::Eq if cx.required => {
                                let to = if lit.intersect(TypeSet::NUMERIC).is_empty() {
                                    lit
                                } else {
                                    TypeSet::NUMERIC
                                };
                                narrow(v.as_str(), to, vars);
                            }
                            // != is satisfied by any type (mismatched
                            // types are simply unequal): no narrowing.
                            BinOp::Eq | BinOp::Ne => {}
                            // Ordered comparison *errors* on a type
                            // mismatch: strings compare to strings,
                            // everything else numerically.
                            _ if cx.evaluated => {
                                let to = if !lit.intersect(TypeSet::STR).is_empty() {
                                    TypeSet::STR
                                } else {
                                    TypeSet::NUMERIC
                                };
                                narrow(v.as_str(), to, vars);
                            }
                            _ => {}
                        }
                    }
                }
                BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    if cx.evaluated {
                        for side in [&**l, &**r] {
                            if let Expr::Var(v) = side {
                                narrow(v.as_str(), TypeSet::NUMERIC, vars);
                            }
                        }
                    }
                }
                // `+` concatenates strings or adds numbers: no narrowing.
                BinOp::Add => {}
            }
            walk(l, span, rule, operand, vars, report);
            walk(r, span, rule, operand, vars, report);
        }
        Expr::Call(name, args) => {
            // Zero-argument calls to non-builtins are atoms, not calls.
            if args.is_empty() && !is_builtin(name) {
                return;
            }
            match builtin_sig(name, args.len()) {
                None if !is_builtin(name) && name != "fact" => {
                    report.error(
                        "unknown-function",
                        Some(&rule.name),
                        span,
                        format!("unknown function `{name}`: every firing would fail to evaluate"),
                    );
                }
                None => {
                    report.error(
                        "bad-arity",
                        Some(&rule.name),
                        span,
                        format!("`{name}` does not take {} argument(s)", args.len()),
                    );
                }
                Some((arg_types, _)) => {
                    for (i, (arg, want)) in args.iter().zip(arg_types).enumerate() {
                        match arg {
                            Expr::Var(v) if cx.evaluated => narrow(v.as_str(), *want, vars),
                            Expr::Lit(t) if TypeSet::of(t).intersect(*want).is_empty() => {
                                report.error(
                                    "type-conflict",
                                    Some(&rule.name),
                                    span,
                                    format!(
                                        "`{name}` argument {} must be {want}, got {}",
                                        i + 1,
                                        TypeSet::of(t)
                                    ),
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
            for a in args {
                walk(a, span, rule, operand, vars, report);
            }
        }
    }
}

/// Whether an expression mentions any variable.
fn has_vars(expr: &Expr) -> bool {
    match expr {
        Expr::Lit(_) => false,
        Expr::Var(v) => v.as_str() != "_",
        Expr::Call(_, args) => args.iter().any(has_vars),
        Expr::Binary(_, l, r) => has_vars(l) || has_vars(r),
        Expr::Not(e) | Expr::Neg(e) => has_vars(e),
    }
}

/// Folds a variable-free, state-free condition with the real evaluator
/// (one reading the clock or the knowledge base must not be folded).
fn const_fold(expr: &Expr, span: Span, rule: &Rule, report: &mut Report) {
    if has_vars(expr) || expr_reads_dynamic_state(expr) {
        return;
    }
    let kb = InMemoryFacts::new();
    match eval(expr, &Bindings::new(), &kb, SimTime::ZERO) {
        Ok(Term::Bool(false)) => report.error(
            "never-true",
            Some(&rule.name),
            span,
            "condition is always false: the rule can never fire".to_string(),
        ),
        Ok(Term::Bool(true)) => report.warn(
            "always-true",
            Some(&rule.name),
            span,
            "condition is always true and can be removed".to_string(),
        ),
        Ok(other) => report.error(
            "non-boolean",
            Some(&rule.name),
            span,
            format!("condition evaluates to the non-boolean `{other}`"),
        ),
        Err(e) => report.error(
            "eval-error",
            Some(&rule.name),
            span,
            format!("condition always fails to evaluate: {e}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_matchlet::builtin::reads_dynamic_state;
    use gloss_matchlet::parse_rules;
    use std::collections::BTreeSet;

    fn lint(src: &str) -> Report {
        check_rules(&parse_rules(src).unwrap())
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn contradictory_types_never_fire() {
        let r = lint(
            r#"rule t {
                on a: event k(x: ?x)
                where ?x > 5 and ?x = "south"
                emit out(x: ?x)
            }"#,
        );
        assert_eq!(codes(&r), vec!["type-conflict"], "{r}");
        assert!(r.to_string().contains("?x"), "{r}");
    }

    #[test]
    fn or_branches_do_not_narrow() {
        // `=` never errors, so neither branch constrains ?x: a string or
        // an int both satisfy the goal.
        let r = lint(
            r#"rule t {
                on a: event k(x: ?x)
                where ?x = 5 or ?x = "south"
                emit out(x: ?x)
            }"#,
        );
        assert!(r.is_clean(), "{r}");
        // But an *erroring* use in a surely-evaluated position narrows
        // even under `not`: a string ?x would kill every solution.
        let r = lint(
            r#"rule t {
                on a: event k(x: ?x)
                where not (?x > 5) and ?x = "south"
                emit out(x: ?x)
            }"#,
        );
        assert_eq!(codes(&r), vec!["type-conflict"], "{r}");
    }

    #[test]
    fn builtin_positions_narrow() {
        // ?g is fact-bound and used as a geo; consistent.
        let clean = lint(
            r#"rule g {
                on a: event k(lat: ?lat, lon: ?lon)
                where fact(?u, located_at, ?g) and distance_km(geo(?lat, ?lon), ?g) < 0.5
                emit out(user: ?u)
            }"#,
        );
        assert!(clean.is_clean(), "{clean}");
        // A pattern variable can never be a geo point.
        let broken = lint(
            r#"rule g {
                on a: event k(g: ?g)
                where lat(?g) > 50
                emit out()
            }"#,
        );
        assert_eq!(codes(&broken), vec!["type-conflict"], "{broken}");
    }

    #[test]
    fn unknown_function_and_bad_arity() {
        let r = lint(
            r#"rule f {
                on a: event k(x: ?x)
                where warp_speed(?x) > 1
                emit out()
            }"#,
        );
        assert_eq!(codes(&r), vec!["unknown-function"]);
        let r = lint(
            r#"rule f {
                on a: event k(x: ?x)
                where distance_km(?x) > 1
                emit out()
            }"#,
        );
        assert_eq!(codes(&r), vec!["bad-arity"]);
        // A bare atom is not a function call.
        let r = lint(
            r#"rule f {
                on a: event k(x: ?x)
                where fact(?x, likes, cake)
                emit out()
            }"#,
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn constant_conditions_fold() {
        let never = lint("rule c { on a: event k() where 2 < 1 emit out() }");
        assert_eq!(codes(&never), vec!["never-true"]);
        let always = lint("rule c { on a: event k() where 1 < 2 emit out() }");
        assert_eq!(codes(&always), vec!["always-true"]);
        assert!(!always.has_errors());
        let nonbool = lint("rule c { on a: event k() where 1 + 1 emit out() }");
        assert_eq!(codes(&nonbool), vec!["non-boolean"]);
        let erring = lint(r#"rule c { on a: event k() where 1 < "a" emit out() }"#);
        assert_eq!(codes(&erring), vec!["eval-error"]);
        // Dynamic state is never folded.
        let dynamic = lint("rule c { on a: event k() where minutes_of_day() >= 1080 emit out() }");
        assert!(dynamic.is_clean(), "{dynamic}");
    }

    /// `builtin_sig` types exactly the builtins the evaluator knows
    /// (`fact` aside: the evaluator handles its boolean form itself), and
    /// every builtin that reads state has a signature. The candidates are
    /// every identifier in this file and in the evaluator's builtins.
    #[test]
    fn signatures_name_the_evaluators_builtins() {
        let sources = [include_str!("types.rs"), include_str!("../../matchlet/src/builtin.rs")];
        let words: BTreeSet<&str> = sources
            .iter()
            .flat_map(|src| src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
            .collect();
        let typed = |name: &str| (0..=4).any(|arity| builtin_sig(name, arity).is_some());
        let mut builtins = 0;
        for word in words {
            if word != "fact" {
                assert_eq!(typed(word), is_builtin(word), "`{word}`");
            }
            if reads_dynamic_state(word) {
                assert!(typed(word), "`{word}` reads state but has no signature");
            }
            builtins += usize::from(is_builtin(word));
        }
        assert!(builtins > 10, "{builtins} builtins found");
    }

    #[test]
    fn literal_builtin_argument_type_checked() {
        let r = lint(r#"rule c { on a: event k(x: ?x) where lower(5) = "a" emit out(x: ?x) }"#);
        // Caught twice: structurally, and by folding the constant.
        assert!(codes(&r).contains(&"type-conflict"), "{r}");
        assert!(r.has_errors());
    }
}
