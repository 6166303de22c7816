//! Property tests: the analyzer's verdicts are sound.
//!
//! Every error-level verdict is a *proof*, so random search must never
//! find a counterexample:
//!
//! - a filter judged unsatisfiable matches no random event;
//! - when `covers` says yes, every event matching the covered filter
//!   matches the cover;
//! - `simplify` preserves the match set exactly;
//! - a `merge_cover` filter covers both inputs (checked structurally
//!   *and* against random events);
//! - a rule flagged `unbound-variable`, `type-conflict` or `never-true`
//!   never emits, under random event streams through the real engine.
//!
//! Same harness style as `matchlet/tests/engine_equivalence.rs`:
//! strategies build small source strings / constraint sets over a shared
//! pool of attributes and values so collisions (and thus matches) are
//! common.

use gloss_analysis::{analyze_rules, simplify, unsatisfiable};
use gloss_event::{merge_cover, AttrValue, Constraint, Event, Filter, Op};
use gloss_knowledge::{Fact, InMemoryFacts, Term};
use gloss_matchlet::{parse_rules, MatchletEngine};
use gloss_sim::SimTime;
use proptest::prelude::*;

// --- generators ----------------------------------------------------------

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (0i64..6).prop_map(AttrValue::Int),
        (0i64..8).prop_map(|n| AttrValue::Float(n as f64 / 2.0)),
        prop_oneof![
            Just("north"),
            Just("south"),
            Just("st"),
            Just("st andrews"),
            Just("5"),
            Just(""),
        ]
        .prop_map(|s| AttrValue::Str(s.into())),
        prop_oneof![Just(true), Just(false)].prop_map(AttrValue::Bool),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Prefix),
        Just(Op::Suffix),
        Just(Op::Contains),
        Just(Op::Exists),
    ]
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    ((0usize..3), arb_op(), arb_attr_value())
        .prop_map(|(a, op, v)| Constraint::new(format!("a{a}"), op, v))
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        prop_oneof![Just(None), Just(Some("k0")), Just(Some("k1"))],
        proptest::collection::vec(arb_constraint(), 0..5),
    )
        .prop_map(|(kind, cs)| Filter::from_parts(kind.map(str::to_owned), cs))
}

fn arb_filter_event() -> impl Strategy<Value = Event> {
    ((0usize..2), proptest::collection::vec(((0usize..3), arb_attr_value()), 0..4)).prop_map(
        |(k, attrs)| {
            let mut ev = Event::new(format!("k{k}"));
            for (a, v) in attrs {
                ev.set_attr(format!("a{a}"), v);
            }
            ev
        },
    )
}

// --- filter soundness ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn unsatisfiable_filters_match_nothing(
        filter in arb_filter(),
        events in proptest::collection::vec(arb_filter_event(), 1..12),
    ) {
        if let Some(reason) = unsatisfiable(&filter) {
            for ev in &events {
                prop_assert!(
                    !filter.matches(ev),
                    "filter `{}` judged unsatisfiable ({reason}) but matched {}",
                    filter, ev
                );
            }
        }
    }

    #[test]
    fn covers_implies_match_subset(
        wide in arb_filter(),
        narrow in arb_filter(),
        events in proptest::collection::vec(arb_filter_event(), 1..12),
    ) {
        if wide.covers(&narrow) {
            for ev in &events {
                if narrow.matches(ev) {
                    prop_assert!(
                        wide.matches(ev),
                        "`{}` covers `{}` but missed their shared match {}",
                        wide, narrow, ev
                    );
                }
            }
        }
    }

    #[test]
    fn simplify_preserves_match_set(
        filter in arb_filter(),
        events in proptest::collection::vec(arb_filter_event(), 1..12),
    ) {
        let (simpler, _) = simplify(&filter);
        prop_assert!(simpler.constraints().len() <= filter.constraints().len());
        for ev in &events {
            prop_assert_eq!(
                simpler.matches(ev),
                filter.matches(ev),
                "simplify changed the match set: `{}` vs `{}` on {}",
                &filter, &simpler, ev
            );
        }
    }

    #[test]
    fn merge_cover_covers_both(
        a in arb_filter(),
        b in arb_filter(),
        events in proptest::collection::vec(arb_filter_event(), 1..12),
    ) {
        if let Some(merged) = merge_cover(&a, &b) {
            prop_assert!(merged.covers(&a), "`{}` does not cover `{}`", merged, a);
            for ev in &events {
                if a.matches(ev) || b.matches(ev) {
                    prop_assert!(
                        merged.matches(ev),
                        "merge `{}` of `{}` and `{}` missed {}",
                        merged, a, b, ev
                    );
                }
            }
        }
    }
}

// --- rule soundness ------------------------------------------------------

fn arb_pat() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..3).prop_map(|v| format!("?v{v}")),
        (0i64..3).prop_map(|n| n.to_string()),
        Just("_".to_string()),
        prop_oneof![Just("ua"), Just("ub"), Just("ice")].prop_map(|s| format!("\"{s}\"")),
    ]
}

fn arb_pattern() -> impl Strategy<Value = String> {
    (
        (0usize..3),
        proptest::collection::vec(
            ((0usize..3), arb_pat()).prop_map(|(f, p)| format!("f{f}: {p}")),
            0..3,
        ),
    )
        .prop_map(|(k, fields)| format!("on a: event k{k}({})", fields.join(", ")))
}

/// Deliberately sloppy pool: some clauses are clean, some provably
/// unbound, contradictory, or constant-false — exactly what the analyzer
/// must flag, and flagged rules must then never fire.
fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("where ?v0 > 0".to_string()),
        Just("where ?v0 != ?v1".to_string()),
        Just("where fact(?v0, likes, ?v2)".to_string()),
        Just("where ?v0 = 1 or ?v0 = \"ua\"".to_string()),
        Just("where ?ghost > 1".to_string()),
        Just("where ?v0 > 5 and ?v0 = \"ua\"".to_string()),
        Just("where ?v0 = \"ua\" and lat(?v0) > 50.0".to_string()),
        Just("where 1 > 2".to_string()),
        Just("where len(?v0) > 9000".to_string()),
    ]
}

fn arb_emit(idx: usize) -> impl Strategy<Value = String> {
    prop_oneof![
        Just(format!("emit out{idx}()")),
        Just(format!("emit out{idx}(x: ?v0)")),
        Just(format!("emit out{idx}(x: ?v0, y: ?ghost)")),
        Just(format!("emit out{idx}(x: ?v0 + 1)")),
    ]
}

fn arb_rule(idx: usize) -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_pattern(), 1..3), arb_where(), (5u64..40), arb_emit(idx))
        .prop_map(move |(patterns, cond, window, emit)| {
            format!("rule r{idx} {{ {} {cond} within {window} s {emit} }}", patterns.join(" "))
        })
}

fn arb_rule_event() -> impl Strategy<Value = (u64, Event)> {
    (
        (0usize..3),
        proptest::collection::vec(
            (
                (0usize..3),
                prop_oneof![
                    (0i64..3).prop_map(AttrValue::Int),
                    (0i64..5).prop_map(|i| AttrValue::Float(i as f64 / 2.0)),
                    prop_oneof![Just("ua"), Just("ub"), Just("ice")]
                        .prop_map(|s| AttrValue::Str(s.into())),
                ],
            ),
            0..3,
        ),
        (0u64..10),
    )
        .prop_map(|(k, fields, dt)| {
            let mut ev = Event::new(format!("k{k}"));
            for (f, v) in fields {
                ev.set_attr(format!("f{f}"), v);
            }
            (dt, ev)
        })
}

fn kb() -> InMemoryFacts {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ua", "likes", Term::str("ice")));
    kb.add(Fact::new("ub", "likes", Term::str("tea")));
    kb.add(Fact::new("ua", "knows", Term::str("ub")));
    kb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flagged_rules_never_fire(
        srcs in (arb_rule(0), arb_rule(1), arb_rule(2)),
        events in proptest::collection::vec(arb_rule_event(), 1..25),
    ) {
        let src = format!("{}\n{}\n{}", srcs.0, srcs.1, srcs.2);
        let rules = parse_rules(&src).expect("generated rules parse");
        let report = analyze_rules(&rules);
        // Each rule r{i} emits only out{i}: an error-flagged rule's emit
        // kind must never appear in the output stream. (Codes below are
        // the ones whose verdict is "this rule cannot successfully fire";
        // `or` is generated only over bound variables, so an unbound read
        // is always on a mandatory path.)
        let doomed: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| {
                matches!(d.code, "unbound-variable" | "type-conflict" | "never-true")
            })
            .filter_map(|d| d.rule.as_deref())
            .collect();

        let mut engine = MatchletEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        let kb = kb();
        let mut now = SimTime::ZERO;
        for (dt, ev) in &events {
            now += gloss_sim::SimDuration::from_secs(*dt);
            for fired in engine.on_event(now, ev, &kb) {
                for name in &doomed {
                    let emitted_by_doomed =
                        fired.kind() == format!("out{}", &name[1..]).as_str();
                    prop_assert!(
                        !emitted_by_doomed,
                        "rule `{name}` was flagged fatal but emitted {} (rules:\n{src})",
                        fired
                    );
                }
            }
        }
    }
}
