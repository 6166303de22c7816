//! Canonical goal chains: the shape under which rules share beta state.
//!
//! A rule's `where` chain splits, once at compile time, by which
//! variables its event patterns bind:
//!
//! - **guards** — the conditions that precede the first fact goal. They
//!   read the event alone, so they pass once or not at all and are
//!   evaluated per firing;
//! - the **memoised block** — from the first fact goal up to (not
//!   including) the first goal, fact or condition, that mentions a
//!   pattern-bound variable. Nothing in it reads the event, so its
//!   solutions are the same for every firing until a fact changes: this
//!   is what the engine's beta network memoises, and what rules share;
//! - **per-solution goals** — everything after the block, solved against
//!   the knowledge base for each memoised solution.
//!
//! A rule whose first fact goal reads the event has an empty block and no
//! canonical chain: it is solved directly — though when its leading goals
//! read what one event pattern binds alone, the engine solves that *local
//! prefix* once per buffered event of the pattern instead of once per
//! join pair (see the engine's module docs; `goal_mentions` and
//! `goal_reads_dynamic_state` decide where the prefix ends).
//!
//! Two rules share join work exactly when their blocks start the same
//! way *up to variable names and condition placement*. This module
//! computes that shape:
//!
//! 1. **Normalisation** ([`normalise_goals`]) hoists each condition to
//!    the earliest position at which every variable it reads is already
//!    available — right after the last *preceding* fact goal that first
//!    introduces one of its variables (or to the front when none does).
//!    Fact goals never move, so solution *enumeration order* is
//!    untouched: only fact goals multiply environments, and a condition
//!    prunes the same environments wherever it runs once its inputs are
//!    bound. A hoisted condition is evaluated once per narrower
//!    environment, so rules that interleave filters with enumeration get
//!    cheaper — and rules that differ only in filter placement become
//!    shareable. (Error *counts* can shrink: a pruned branch is pruned
//!    earlier. The engine solves the same normalised chain whether or not
//!    it memoises the block, so the two paths stay bit-identical.)
//! 2. **Canonical renaming** maps each variable of the block to a
//!    numbered slot in order of first occurrence, so `?u` in one rule and
//!    `?x` in another canonicalise identically.
//! 3. **Encoding** renders each canonical goal to a byte-exact string —
//!    literals variant- and bit-sensitive, because goals that could ever
//!    solve differently must not share a node — which is the identity of
//!    a beta-trie node under its parent.

use crate::ast::{Expr, Goal, Pat, Rule};
use crate::symbol::Symbol;
use gloss_knowledge::Term;
use std::fmt::Write as _;
use std::ops::Range;

/// Whether an expression reads state a memo cannot see: the clock
/// builtins or a `fact(...)` call *inside* an expression.
pub fn expr_reads_dynamic_state(expr: &Expr) -> bool {
    match expr {
        Expr::Lit(_) | Expr::Var(_) => false,
        Expr::Call(name, args) => {
            crate::builtin::reads_dynamic_state(name) || args.iter().any(expr_reads_dynamic_state)
        }
        Expr::Binary(_, l, r) => expr_reads_dynamic_state(l) || expr_reads_dynamic_state(r),
        Expr::Not(e) | Expr::Neg(e) => expr_reads_dynamic_state(e),
    }
}

/// Collects every variable an expression reads.
pub fn collect_expr_vars(expr: &Expr, vars: &mut Vec<Symbol>) {
    match expr {
        Expr::Lit(_) => {}
        Expr::Var(v) => vars.push(*v),
        Expr::Call(_, args) => args.iter().for_each(|a| collect_expr_vars(a, vars)),
        Expr::Binary(_, l, r) => {
            collect_expr_vars(l, vars);
            collect_expr_vars(r, vars);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_expr_vars(e, vars),
    }
}

/// Hoists conditions to their earliest sound position (see module docs).
/// Fact goals keep their relative order; conditions move only earlier,
/// and conditions landing at the same position keep their written order.
pub fn normalise_goals(goals: &[Goal]) -> Vec<Goal> {
    // Level of a fact goal = its 1-based index among fact goals; level of
    // a condition = the highest level among the *preceding* fact goals
    // that first introduce one of its variables (0 if none). Sorting by
    // (level, facts-before-conds) stably is exactly the hoist.
    let mut intro: Vec<(Symbol, u32)> = Vec::new();
    let mut level = 0u32;
    let mut keyed: Vec<(u32, u8, &Goal)> = Vec::with_capacity(goals.len());
    for goal in goals {
        match goal {
            Goal::Fact { subject, object, .. } => {
                level += 1;
                for pat in [subject, object] {
                    if let Pat::Var(v) = pat {
                        if !intro.iter().any(|(s, _)| s == v) {
                            intro.push((*v, level));
                        }
                    }
                }
                keyed.push((level, 0, goal));
            }
            Goal::Cond(expr) => {
                let mut vars = Vec::new();
                collect_expr_vars(expr, &mut vars);
                let at = vars
                    .iter()
                    .filter_map(|v| intro.iter().find(|(s, _)| s == v).map(|(_, l)| *l))
                    .max()
                    .unwrap_or(0);
                keyed.push((at, 1, goal));
            }
        }
    }
    keyed.sort_by_key(|&(level, cond, _)| (level, cond));
    keyed.into_iter().map(|(_, _, g)| g.clone()).collect()
}

/// Whether a goal is a condition that reads dynamic state.
pub(crate) fn goal_reads_dynamic_state(goal: &Goal) -> bool {
    matches!(goal, Goal::Cond(expr) if expr_reads_dynamic_state(expr))
}

/// Whether any condition of the chain reads dynamic state: such a rule is
/// never memoised, and is solved as written.
fn reads_dynamic_state(goals: &[Goal]) -> bool {
    goals.iter().any(goal_reads_dynamic_state)
}

/// The goal chain the engine solves for `rule`: the normalised chain —
/// whether or not a block of it is memoised, so both paths fire in one
/// order and count the same errors — unless a condition reads dynamic
/// state, in which case the chain runs as written.
pub fn solve_chain(rule: &Rule) -> Vec<Goal> {
    if reads_dynamic_state(&rule.goals) {
        rule.goals.clone()
    } else {
        normalise_goals(&rule.goals)
    }
}

/// Whether a goal mentions any of `vars`.
pub(crate) fn goal_mentions(goal: &Goal, vars: &[Symbol]) -> bool {
    match goal {
        Goal::Fact { subject, object, .. } => {
            [subject, object].into_iter().any(|p| matches!(p, Pat::Var(v) if vars.contains(v)))
        }
        Goal::Cond(expr) => {
            let mut read = Vec::new();
            collect_expr_vars(expr, &mut read);
            read.iter().any(|v| vars.contains(v))
        }
    }
}

/// A rule's canonical chain: its memoised block (see module docs)
/// rewritten over numbered slots, the node-identity encodings, and the
/// mapping back to the rule's own variables.
#[derive(Debug, Clone)]
pub struct CanonicalChain {
    /// The block's goals with every variable replaced by its slot symbol
    /// ([`slot_symbol`]).
    pub goals: Vec<Goal>,
    /// Byte-exact encoding of each canonical goal (beta-node identity
    /// under its parent).
    pub reprs: Vec<String>,
    /// The rule's own variable for each slot, in slot order: replayed
    /// canonical bindings translate back through it.
    pub slot_vars: Vec<Symbol>,
    /// Distinct predicates the block enumerates, in first-use order.
    pub predicates: Vec<String>,
    /// Where the block sits in the rule's normalised chain: guards come
    /// before it, per-solution goals after it.
    pub block: Range<usize>,
}

/// The canonical chain of a rule's memoised block, or `None` when the
/// rule must be solved directly every firing: a condition reads dynamic
/// state, no goal enumerates facts (memoising pure filters is pure
/// overhead), or the first fact goal already reads the event (the block
/// is empty).
pub fn canonical_chain(rule: &Rule) -> Option<CanonicalChain> {
    if reads_dynamic_state(&rule.goals) {
        return None;
    }
    let normalised = normalise_goals(&rule.goals);
    let start = normalised.iter().position(|g| matches!(g, Goal::Fact { .. }))?;
    let bound: Vec<Symbol> = rule
        .patterns
        .iter()
        .flat_map(|p| &p.fields)
        .filter_map(|(_, pat)| match pat {
            Pat::Var(v) => Some(*v),
            _ => None,
        })
        .collect();
    let len = normalised[start..].iter().take_while(|g| !goal_mentions(g, &bound)).count();
    if len == 0 {
        return None;
    }
    let block = start..start + len;
    let mut slot_vars: Vec<Symbol> = Vec::new();
    let mut slot_of = |v: Symbol, slot_vars: &mut Vec<Symbol>| -> u32 {
        match slot_vars.iter().position(|s| *s == v) {
            Some(i) => i as u32,
            None => {
                slot_vars.push(v);
                (slot_vars.len() - 1) as u32
            }
        }
    };
    let mut goals = Vec::with_capacity(len);
    let mut reprs = Vec::with_capacity(len);
    let mut predicates: Vec<String> = Vec::new();
    for goal in &normalised[block.clone()] {
        let canonical = match goal {
            Goal::Fact { subject, predicate, object } => {
                if !predicates.iter().any(|p| p == predicate) {
                    predicates.push(predicate.clone());
                }
                Goal::Fact {
                    subject: canon_pat(subject, &mut slot_of, &mut slot_vars),
                    predicate: predicate.clone(),
                    object: canon_pat(object, &mut slot_of, &mut slot_vars),
                }
            }
            Goal::Cond(expr) => Goal::Cond(canon_expr(expr, &mut slot_of, &mut slot_vars)),
        };
        reprs.push(encode_goal(&canonical));
        goals.push(canonical);
    }
    Some(CanonicalChain { goals, reprs, slot_vars, predicates, block })
}

/// The interned symbol for canonical slot `i` (`β0`, `β1`, …). Slot
/// symbols live in their own namespace of environments — canonical
/// bindings never mix with rule bindings — so a user variable happening
/// to share the name is harmless.
pub fn slot_symbol(i: u32) -> Symbol {
    Symbol::intern(&format!("\u{3b2}{i}"))
}

fn canon_pat(
    pat: &Pat,
    slot_of: &mut impl FnMut(Symbol, &mut Vec<Symbol>) -> u32,
    slot_vars: &mut Vec<Symbol>,
) -> Pat {
    match pat {
        Pat::Var(v) => Pat::Var(slot_symbol(slot_of(*v, slot_vars))),
        other => other.clone(),
    }
}

fn canon_expr(
    expr: &Expr,
    slot_of: &mut impl FnMut(Symbol, &mut Vec<Symbol>) -> u32,
    slot_vars: &mut Vec<Symbol>,
) -> Expr {
    match expr {
        Expr::Lit(t) => Expr::Lit(t.clone()),
        Expr::Var(v) => Expr::Var(slot_symbol(slot_of(*v, slot_vars))),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter().map(|a| canon_expr(a, slot_of, slot_vars)).collect(),
        ),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(canon_expr(l, slot_of, slot_vars)),
            Box::new(canon_expr(r, slot_of, slot_vars)),
        ),
        Expr::Not(e) => Expr::Not(Box::new(canon_expr(e, slot_of, slot_vars))),
        Expr::Neg(e) => Expr::Neg(Box::new(canon_expr(e, slot_of, slot_vars))),
    }
}

/// Renders a canonical goal to its identity string. Literal terms encode
/// variant- and bit-exactly (floats by bit pattern): goals that could ever
/// solve differently must encode differently.
fn encode_goal(goal: &Goal) -> String {
    let mut s = String::new();
    match goal {
        Goal::Fact { subject, predicate, object } => {
            s.push('F');
            encode_pat(subject, &mut s);
            let _ = write!(s, "|{}:{predicate}|", predicate.len());
            encode_pat(object, &mut s);
        }
        Goal::Cond(expr) => {
            s.push('C');
            encode_expr(expr, &mut s);
        }
    }
    s
}

fn encode_pat(pat: &Pat, s: &mut String) {
    match pat {
        // Canonical pats only hold slot symbols, whose names are unique
        // per slot.
        Pat::Var(v) => {
            let _ = write!(s, "v{v}");
        }
        Pat::Wild => s.push('w'),
        Pat::Lit(t) => encode_term(t, s),
    }
}

fn encode_term(t: &Term, s: &mut String) {
    match t {
        Term::Str(x) => {
            let _ = write!(s, "s{}:{x}", x.len());
        }
        Term::Int(x) => {
            let _ = write!(s, "i{x}");
        }
        Term::Float(x) => {
            let _ = write!(s, "f{}", x.to_bits());
        }
        Term::Bool(x) => {
            let _ = write!(s, "b{}", *x as u8);
        }
        Term::Geo(g) => {
            let _ = write!(s, "g{},{}", g.lat.to_bits(), g.lon.to_bits());
        }
        Term::Time(x) => {
            let _ = write!(s, "t{}", x.as_micros());
        }
    }
}

fn encode_expr(expr: &Expr, s: &mut String) {
    match expr {
        Expr::Lit(t) => encode_term(t, s),
        Expr::Var(v) => {
            let _ = write!(s, "v{v}");
        }
        Expr::Call(name, args) => {
            let _ = write!(s, "k{}:{name}(", name.len());
            for a in args {
                encode_expr(a, s);
                s.push(',');
            }
            s.push(')');
        }
        Expr::Binary(op, l, r) => {
            let _ = write!(s, "({op:?} ");
            encode_expr(l, s);
            s.push(' ');
            encode_expr(r, s);
            s.push(')');
        }
        Expr::Not(e) => {
            s.push('!');
            encode_expr(e, s);
        }
        Expr::Neg(e) => {
            s.push('-');
            encode_expr(e, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;

    fn chain(body: &str) -> CanonicalChain {
        let src = format!("rule r {{ on a: event k(x: ?x) {body} within 1m emit o() }}");
        canonical_chain(&parse_rules(&src).unwrap()[0]).expect("memoisable")
    }

    #[test]
    fn alpha_equivalent_rules_encode_identically() {
        let a = chain("where fact(?u, likes, ?w) and fact(?u, knows, ?k)");
        let b = chain("where fact(?p, likes, ?q) and fact(?p, knows, ?z)");
        assert_eq!(a.reprs, b.reprs);
        assert_eq!(a.slot_vars.len(), 3);
    }

    #[test]
    fn repeated_variable_structure_is_preserved() {
        let a = chain("where fact(?u, likes, ?w)");
        let b = chain("where fact(?u, likes, ?u)");
        assert_ne!(a.reprs[0], b.reprs[0], "self-join must not alias a plain enumeration");
    }

    #[test]
    fn conditions_hoist_to_their_introduction_point() {
        let c = chain("where fact(?u, likes, ?w) and fact(?u, knows, ?k) and ?w != \"golf\"");
        // The filter reads ?w (introduced by goal 1): it hoists between
        // the two fact goals.
        assert!(matches!(c.goals[0], Goal::Fact { .. }));
        assert!(matches!(c.goals[1], Goal::Cond(_)));
        assert!(matches!(c.goals[2], Goal::Fact { .. }));
        // ... which makes it share a prefix with the filter-first rule.
        let d = chain("where fact(?a, likes, ?b) and ?b != \"golf\"");
        assert_eq!(c.reprs[..2], d.reprs[..]);
    }

    #[test]
    fn the_block_ends_where_the_chain_reads_the_event() {
        // A condition over the event alone hoists to the front and stays
        // outside the block: a guard.
        let c = chain("where fact(?u, likes, ?w) and ?x > 2");
        assert_eq!(c.block, 1..2);
        assert_eq!(c.reprs, chain("where fact(?a, likes, ?b)").reprs, "guards split no node");
        assert_eq!(c.slot_vars.iter().map(|v| v.as_str()).collect::<Vec<_>>(), ["u", "w"]);
        // A condition joining a fact-bound variable with the event, or a
        // fact goal over an event-bound subject, ends the block; the
        // goals behind it run per memoised solution even when they read
        // nothing from the event themselves.
        let c = chain("where fact(?u, likes, ?w) and fact(?u, rank, ?r) and ?r > ?x and ?w != 1");
        assert!(matches!(c.goals[1], Goal::Cond(_)), "?w != 1 hoists into the block");
        assert_eq!(c.block, 0..3);
        let c =
            chain("where fact(?s, likes, \"ice\") and fact(?x, knows, ?s) and fact(?s, rank, ?r)");
        assert_eq!(c.block, 0..1);
        assert_eq!(c.predicates, ["likes"]);
        // A first fact goal that reads the event leaves nothing to memoise.
        let src = "rule r { on a: event k(x: ?x) where fact(?x, likes, ?w) and fact(?u, rank, ?w) emit o() }";
        assert!(canonical_chain(&parse_rules(src).unwrap()[0]).is_none());
    }

    #[test]
    fn facts_never_reorder() {
        let c = chain("where fact(?u, likes, ?w) and fact(?w, sold_at, ?s)");
        let Goal::Fact { predicate, .. } = &c.goals[0] else { panic!() };
        assert_eq!(predicate, "likes");
        let Goal::Fact { predicate, .. } = &c.goals[1] else { panic!() };
        assert_eq!(predicate, "sold_at");
        assert_eq!(c.predicates, vec!["likes".to_string(), "sold_at".to_string()]);
    }

    #[test]
    fn dynamic_and_factless_rules_have_no_chain() {
        let src = r#"
            rule clocky { on a: event k(x: ?x) where fact(?u, closes_at, ?c) and minutes_of_day() < ?c within 1m emit o() }
            rule pure { on a: event k(x: ?x) where ?x > 2 within 1m emit o() }
        "#;
        let rules = parse_rules(src).unwrap();
        assert!(canonical_chain(&rules[0]).is_none());
        assert!(canonical_chain(&rules[1]).is_none());
    }

    #[test]
    fn literal_encodings_are_bit_exact() {
        // The parser narrows `3.0` to Int(3), so drive the encoder on
        // constructed terms: same numeric value, different variant or bit
        // pattern, must never alias a beta node.
        let enc = |t: &Term| {
            let mut s = String::new();
            encode_term(t, &mut s);
            s
        };
        assert_ne!(enc(&Term::Int(3)), enc(&Term::Float(3.0)), "Int(3) vs Float(3.0)");
        assert_ne!(enc(&Term::Float(0.0)), enc(&Term::Float(-0.0)), "float zeros differ by bit");
        assert_ne!(enc(&Term::Bool(true)), enc(&Term::Int(1)), "Bool(true) vs Int(1)");
        // And through the full chain: a fractional literal survives as Float.
        let a = chain("where fact(?u, score, 3)");
        let b = chain("where fact(?u, score, 3.5)");
        assert_ne!(a.reprs[0], b.reprs[0]);
    }
}
