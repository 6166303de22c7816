//! Property tests: the indexed, index-joining, delta-memoising engine is
//! semantics-preserving.
//!
//! Three comparisons:
//!
//! 1. A transcription of the seed implementation's algorithm — scan every
//!    rule for every event, evict every buffer every event, join buffers
//!    with a clone-first nested loop — on top of the shared
//!    `unify`/`solve`/`eval` primitives. Random rule sets and event
//!    streams must produce identical outputs (kind + attributes,
//!    order-insensitive), identical per-rule fire behaviour, and
//!    identical error counts.
//!
//! 2. The engine *itself*, fed through an opaque `FactSource` wrapper
//!    that hides the change feed — which forces a from-scratch re-solve
//!    of every firing: no memo, and no local-prefix stamp (a stamp needs
//!    a version). Under random interleavings of fact inserts and
//!    retracts on two predicates, rule additions/removals, and events
//!    (including facts with validity windows), the incremental engine's
//!    firings must be
//!    **byte-identical in order** to the from-scratch twin's, and the
//!    error/fire counters must agree exactly.
//!
//! 3. The persistent window indexes against reference 1's nested loop,
//!    on pure joins (no fact goals, so the emit order is the join order):
//!    keys that hash exactly and keys that do not enter and leave the
//!    windows, rules come and go, the engine is cloned mid-stream — and
//!    the emitted sequences must be identical *in order*, as must every
//!    rule's buffered count.
//!
//! 4. A promoted standby against a live twin fed the same stream. The
//!    standby's rules are unloaded while it stands by; at a random
//!    `since` they are loaded again and fed, through `replay`, what a
//!    bounded log of the stream holds from one window before `since`:
//!    they fire exactly the live twin's firings whose later event
//!    arrived at or after `since` (as multisets), and from then on the
//!    two fire identically, in order. Half the time the standby starts
//!    live and is demoted mid-stream.

use gloss_event::Event;
use gloss_knowledge::{Fact, FactSource, InMemoryFacts, Term};
use gloss_matchlet::engine::{attr_to_term, term_to_attr};
use gloss_matchlet::eval::{eval, solve, unify, Bindings};
use gloss_matchlet::{parse_rules, EventPattern, MatchletEngine, Rule};
use gloss_sim::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A direct transcription of the seed engine: no kind index, no
/// precompiled patterns, no hash join, eviction on every event.
type Buffers = Vec<VecDeque<(SimTime, Bindings)>>;

struct ReferenceEngine {
    rules: Vec<(Rule, Buffers)>,
    eval_errors: u64,
}

impl ReferenceEngine {
    fn new(rules: Vec<Rule>) -> Self {
        let rules = rules
            .into_iter()
            .map(|r| (r.clone(), vec![VecDeque::new(); r.patterns.len()]))
            .collect();
        ReferenceEngine { rules, eval_errors: 0 }
    }

    fn add_rule(&mut self, rule: Rule) {
        let buffers = vec![VecDeque::new(); rule.patterns.len()];
        self.rules.push((rule, buffers));
    }

    fn remove_rule(&mut self, name: &str) -> bool {
        let before = self.rules.len();
        self.rules.retain(|(r, _)| r.name != name);
        self.rules.len() != before
    }

    fn match_pattern(pattern: &EventPattern, event: &Event) -> Option<Bindings> {
        if pattern.kind != event.kind() {
            return None;
        }
        let mut env = Bindings::new();
        for (key, pat) in &pattern.fields {
            // Generated rules only use plain attribute keys (no payload
            // projections), matching the seed's attribute path.
            let value = attr_to_term(event.attr(key)?);
            if !unify(pat, &value, &mut env) {
                return None;
            }
        }
        Some(env)
    }

    fn on_event(&mut self, now: SimTime, event: &Event, kb: &dyn FactSource) -> Vec<Event> {
        let mut out = Vec::new();
        for (rule, buffers) in &mut self.rules {
            let window = rule.window;
            let cutoff = if now.as_micros() > window.as_micros() {
                SimTime::from_micros(now.as_micros() - window.as_micros())
            } else {
                SimTime::ZERO
            };
            for buf in buffers.iter_mut() {
                while buf.front().is_some_and(|(t, _)| *t < cutoff) {
                    buf.pop_front();
                }
            }

            let mut matched: Vec<(usize, Bindings)> = Vec::new();
            for (p, pattern) in rule.patterns.iter().enumerate() {
                if let Some(b) = Self::match_pattern(pattern, event) {
                    matched.push((p, b));
                }
            }
            for (fixed, bindings) in &matched {
                // Clone-first nested-loop join, exactly as seeded.
                let mut envs = vec![bindings.clone()];
                for (p, buffer) in buffers.iter().enumerate() {
                    if p == *fixed {
                        continue;
                    }
                    let mut next = Vec::new();
                    for env in &envs {
                        for (_, buffered) in buffer {
                            let mut child = env.clone();
                            let mut compatible = true;
                            for (k, v) in buffered.iter() {
                                match child.get_sym(k) {
                                    Some(existing) if !existing.eq_term(v) => {
                                        compatible = false;
                                        break;
                                    }
                                    Some(_) => {}
                                    None => child.insert_sym(k, v.clone()),
                                }
                            }
                            if compatible {
                                next.push(child);
                            }
                        }
                    }
                    envs = next;
                    if envs.is_empty() {
                        break;
                    }
                }
                for env in envs {
                    let mut solutions: Vec<Bindings> = Vec::new();
                    self.eval_errors += solve(&rule.goals, &env, kb, now, &mut |s| {
                        solutions.push(s.clone());
                    });
                    for solution in solutions {
                        let mut ev = Event::new(rule.emit.kind.as_str());
                        let mut ok = true;
                        for (field, expr) in &rule.emit.fields {
                            match eval(expr, &solution, kb, now) {
                                Ok(term) => ev.set_attr(field.as_str(), term_to_attr(&term)),
                                Err(_) => {
                                    self.eval_errors += 1;
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok {
                            out.push(ev);
                        }
                    }
                }
            }
            for (p, bindings) in matched {
                buffers[p].push_back((now, bindings));
            }
        }
        out
    }
}

fn kb() -> InMemoryFacts {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ua", "likes", Term::str("ice")));
    kb.add(Fact::new("ub", "likes", Term::str("ice")));
    kb.add(Fact::new("ub", "likes", Term::str("tea")));
    kb.add(Fact::new("ua", "knows", Term::str("ub")));
    kb
}

/// Renders events into an order-insensitive, comparable form (attribute
/// maps iterate in name order, so the rendering is canonical).
fn canonical(events: &[Event]) -> Vec<String> {
    let mut rendered: Vec<String> = events
        .iter()
        .map(|e| {
            let attrs: Vec<String> = e.attrs().map(|(k, v)| format!("{k}={v:?}")).collect();
            format!("{}({})", e.kind(), attrs.join(","))
        })
        .collect();
    rendered.sort();
    rendered
}

// --- generators ----------------------------------------------------------

fn arb_pat() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..3).prop_map(|v| format!("?v{v}")),
        (0i64..3).prop_map(|n| n.to_string()),
        Just("_".to_string()),
        prop_oneof![Just("ua"), Just("ub"), Just("ice")].prop_map(|s| format!("\"{s}\"")),
    ]
}

fn arb_field() -> impl Strategy<Value = String> {
    ((0usize..3), arb_pat()).prop_map(|(f, p)| format!("f{f}: {p}"))
}

fn arb_pattern() -> impl Strategy<Value = String> {
    ((0usize..3), proptest::collection::vec(arb_field(), 0..3))
        .prop_map(|(k, fields)| format!("on a: event k{k}({})", fields.join(", ")))
}

fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("where ?v0 > 0".to_string()),
        Just("where ?v0 != ?v1".to_string()),
        Just("where fact(?v0, likes, ?v2)".to_string()),
        Just("where fact(?v0, likes, \"ice\") and fact(?v0, knows, ?v1)".to_string()),
    ]
}

fn arb_emit() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("emit out()".to_string()),
        Just("emit out(x: ?v0)".to_string()),
        Just("emit out(x: ?v0, y: ?v1)".to_string()),
        Just("emit out(x: ?v0 + 1)".to_string()),
    ]
}

fn arb_rule(idx: usize) -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_pattern(), 1..3), arb_where(), (5u64..40), arb_emit()).prop_map(
        move |(patterns, cond, window, emit)| {
            format!("rule r{idx} {{ {} {cond} within {window} s {emit} }}", patterns.join(" "))
        },
    )
}

fn arb_rules() -> impl Strategy<Value = String> {
    (arb_rule(0), arb_rule(1), arb_rule(2)).prop_map(|(a, b, c)| format!("{a}\n{b}\n{c}"))
}

fn arb_attr_value() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(Term::Int),
        // Non-integral floats route joins through the nested-loop
        // fallback (hash fingerprints are not epsilon-faithful for them).
        (0i64..5).prop_map(|i| Term::Float(i as f64 / 2.0)),
        prop_oneof![Just("ua"), Just("ub"), Just("ice")].prop_map(Term::str),
    ]
}

fn arb_event() -> impl Strategy<Value = (u64, Event)> {
    ((0usize..3), proptest::collection::vec(((0usize..3), arb_attr_value()), 0..3), (0u64..10))
        .prop_map(|(k, fields, dt)| {
            let mut ev = Event::new(format!("k{k}"));
            for (f, value) in fields {
                ev.set_attr(format!("f{f}"), term_to_attr(&value));
            }
            (dt, ev)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_engine_matches_reference(
        src in arb_rules(),
        events in proptest::collection::vec(arb_event(), 1..30),
    ) {
        let rules = parse_rules(&src).expect("generated rules parse");
        let mut reference = ReferenceEngine::new(rules.clone());
        let mut engine = MatchletEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        let kb = kb();
        let mut now = SimTime::ZERO;
        for (dt, ev) in &events {
            now += gloss_sim::SimDuration::from_secs(*dt);
            let expected = reference.on_event(now, ev, &kb);
            let got = engine.on_event(now, ev, &kb);
            prop_assert_eq!(
                canonical(&got),
                canonical(&expected),
                "rules:\n{}\nevent: {} at {}",
                src,
                ev,
                now
            );
        }
        prop_assert_eq!(engine.stats.eval_errors, reference.eval_errors);
        let fired: u64 = engine.rules().iter().map(|r| r.fired).sum();
        prop_assert_eq!(engine.stats.events_out, fired);
    }
}

// --- incremental engine vs from-scratch re-solve -------------------------

/// Hides a store's change feed: an engine fed through this wrapper can
/// never memoise and re-solves every firing from scratch — the exact
/// "from-scratch re-solve" semantics the incremental path must preserve.
struct Opaque<'a>(&'a InMemoryFacts);

impl FactSource for Opaque<'_> {
    fn query<'b>(
        &'b self,
        subject: Option<&'b str>,
        predicate: Option<&'b str>,
    ) -> Box<dyn Iterator<Item = &'b Fact> + 'b> {
        self.0.query(subject, predicate)
    }

    fn for_each_at(
        &self,
        subject: Option<&str>,
        predicate: Option<&str>,
        t: SimTime,
        f: &mut dyn FnMut(&Fact),
    ) {
        self.0.for_each_at(subject, predicate, t, f)
    }
}

/// Renders events order-sensitively (attribute maps iterate in name
/// order, so each rendering is canonical; the *sequence* is compared).
fn rendered(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let attrs: Vec<String> = e.attrs().map(|(k, v)| format!("{k}={v:?}")).collect();
            format!("{}({})", e.kind(), attrs.join(","))
        })
        .collect()
}

/// One step of a random knowledge/rule/event interleaving.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Advance time and offer an event.
    Event(u64, Event),
    /// Insert a fact, optionally with a validity window starting at the
    /// current time plus the first offset and ending plus the second.
    Insert { subject: String, predicate: &'static str, object: Term, windowed: Option<(u64, u64)> },
    /// Retract every fact matching `(subject, predicate, object)`.
    Retract { subject: String, predicate: &'static str, object: Term },
    /// Remove all facts about a subject.
    RemoveSubject(String),
    /// Hot-add one rule from source.
    AddRule(String),
    /// Remove a rule by name.
    RemoveRule(usize),
}

fn arb_subject() -> impl Strategy<Value = String> {
    prop_oneof![Just("ua"), Just("ub"), Just("uc")].prop_map(String::from)
}

/// The churned predicates: `likes`, and `rank`, the second predicate the
/// local prefixes below read.
fn arb_predicate() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("likes"), Just("likes"), Just("rank")]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop_oneof![Just("ice"), Just("tea")].prop_map(Term::str),
        (0i64..3).prop_map(Term::Int),
    ]
}

/// Two-pattern join bodies with a local prefix — leading goals that read
/// only pattern `a`'s `?v0`, whose outcome is stamped on `a`'s entries:
/// the meetup shape (one solution while the user likes ice and has one
/// rank), a prefix with two solutions for `ub`, and a condition that
/// errs while a rank is a string. `b` shares no variable with `a`, so
/// every `b` event pairs with every buffered `a` entry.
fn arb_local_prefix_body() -> impl Strategy<Value = String> {
    let bodies = prop_oneof![
        Just("on a: event k1(f0: ?v0) on b: event k2(f2: ?v2) where fact(?v0, likes, \"ice\") and fact(?v0, rank, ?v3) where ?v3 >= ?v2".to_string()),
        Just("on a: event k0(f0: ?v0) on b: event k2(f1: ?v1) where fact(?v0, likes, ?v2) and ?v2 != ?v1".to_string()),
        Just("on a: event k1(f0: ?v0) on b: event k2(f1: ?v1) where fact(?v0, rank, ?v2) and ?v2 > 0 and ?v2 != ?v1".to_string()),
    ];
    (bodies, 10u64..40).prop_map(|(body, win)| format!("{body} within {win} s emit out(u: ?v0)"))
}

/// Rule bodies over the churned predicates: fact enumerations with bound
/// and unbound subjects, multi-goal chains, and windowed two-pattern
/// event joins on top — the local-prefix ones among them (wrapped in
/// `rule aN { ... }` at apply time).
fn arb_churn_rule_body() -> impl Strategy<Value = String> {
    let bodies = prop_oneof![
        Just("on a: event k0(f0: ?v0) where fact(?v0, likes, ?v2)".to_string()),
        Just("on a: event k1() where fact(?v0, likes, \"ice\")".to_string()),
        Just("on a: event k0(f0: ?v0) where fact(?v0, likes, ?v2) and fact(?v0, knows, ?v1)".to_string()),
        Just("on a: event k1(f1: ?v1) on b: event k2(f1: ?v1) where fact(?v0, likes, ?v2) and ?v1 != 1".to_string()),
        Just("on a: event k2(f0: ?v0, f1: ?v1) where fact(?v0, rank, ?v1)".to_string()),
        Just("on a: event k2(f1: ?v1) where fact(?v0, likes, ?v2) and fact(?v0, rank, ?v3) and ?v3 > ?v1".to_string()),
        Just("on a: event k0(f0: ?v0) where fact(?v3, likes, \"ice\") and fact(?v0, knows, ?v3)".to_string()),
    ];
    prop_oneof![
        (bodies, 10u64..40)
            .prop_map(|(body, win)| format!("{body} within {win} s emit out(u: ?v0)")),
        arb_local_prefix_body(),
    ]
}

/// An event whose `f0` names a subject the facts are about, so the
/// patterns of fact-joining rules bind one (a random value does one
/// time in nine).
fn arb_subject_event() -> impl Strategy<Value = ChurnOp> {
    (arb_subject(), arb_event()).prop_map(|(subject, (dt, mut ev))| {
        ev.set_attr("f0", term_to_attr(&Term::str(subject)));
        ChurnOp::Event(dt, ev)
    })
}

/// A `k2` event with `f1` and `f2` set: the `b` pattern of every
/// local-prefix body matches it, so it pairs with each buffered `a`
/// entry — twice or more between fact changes now and then, which is
/// when a stamp is read back.
fn arb_partner_event() -> impl Strategy<Value = ChurnOp> {
    (arb_attr_value(), arb_attr_value(), 0u64..4).prop_map(|(f1, f2, dt)| {
        let ev =
            Event::new("k2").with_attr("f1", term_to_attr(&f1)).with_attr("f2", term_to_attr(&f2));
        ChurnOp::Event(dt, ev)
    })
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    let event = || arb_event().prop_map(|(dt, ev)| ChurnOp::Event(dt, ev));
    let insert = || {
        (arb_subject(), arb_predicate(), arb_object(), (0u64..4), (0u64..10), (10u64..30)).prop_map(
            |(subject, predicate, object, w, from, to)| ChurnOp::Insert {
                subject,
                predicate,
                object,
                windowed: (w == 0).then_some((from, to)),
            },
        )
    };
    // The vendored proptest has no weighted `prop_oneof!`; duplicate
    // entries weight events and inserts over the rarer churn ops.
    prop_oneof![
        event(),
        event(),
        event(),
        event(),
        event(),
        arb_subject_event(),
        arb_subject_event(),
        arb_subject_event(),
        arb_partner_event(),
        arb_partner_event(),
        arb_partner_event(),
        insert(),
        insert(),
        (arb_subject(), arb_predicate(), arb_object()).prop_map(|(subject, predicate, object)| {
            ChurnOp::Retract { subject, predicate, object }
        }),
        arb_subject().prop_map(ChurnOp::RemoveSubject),
        arb_churn_rule_body().prop_map(ChurnOp::AddRule),
        (0usize..4).prop_map(ChurnOp::RemoveRule),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_engine_matches_from_scratch_resolve(
        base_rules in arb_rules(),
        stamped in arb_local_prefix_body(),
        ops in proptest::collection::vec(arb_op(), 1..48),
    ) {
        // One local-prefix rule from the start, under a name no
        // `RemoveRule` op takes away.
        let base_rules = format!("{base_rules}\nrule stamped {{ {stamped} }}");
        let rules = parse_rules(&base_rules).expect("generated rules parse");
        let mut incremental = MatchletEngine::new();
        let mut scratch = MatchletEngine::new();
        for rule in rules {
            incremental.add_rule(rule.clone());
            scratch.add_rule(rule);
        }
        let mut kb = kb();
        kb.add(Fact::new("ua", "rank", Term::Int(1)));
        kb.add(Fact::new("ub", "rank", Term::Int(2)));
        let mut now = SimTime::ZERO;
        let mut added = 0usize;
        for op in &ops {
            match op {
                ChurnOp::Event(dt, ev) => {
                    now += gloss_sim::SimDuration::from_secs(*dt);
                    let got = incremental.on_event(now, ev, &kb);
                    let expected = scratch.on_event(now, ev, &Opaque(&kb));
                    prop_assert_eq!(
                        rendered(&got),
                        rendered(&expected),
                        "diverged on event {} at {}",
                        ev,
                        now
                    );
                }
                ChurnOp::Insert { subject, predicate, object, windowed } => {
                    let mut fact = Fact::new(subject.clone(), predicate, object.clone());
                    if let Some((from, to)) = windowed {
                        fact = fact.valid_between(
                            now + gloss_sim::SimDuration::from_secs(*from),
                            now + gloss_sim::SimDuration::from_secs(*to),
                        );
                    }
                    kb.add(fact);
                }
                ChurnOp::Retract { subject, predicate, object } => {
                    kb.retract(subject, predicate, object);
                }
                ChurnOp::RemoveSubject(subject) => {
                    kb.remove_subject(subject);
                }
                ChurnOp::AddRule(body) => {
                    // Names cycle over a0..a3 so RemoveRule ops land on
                    // real rules often (same-name rules are fine: removal
                    // takes all of them, identically in both engines).
                    let src = format!("rule a{} {{ {body} }}", added % 4);
                    let parsed = parse_rules(&src).expect("churn rule parses");
                    added += 1;
                    for r in parsed {
                        incremental.add_rule(r.clone());
                        scratch.add_rule(r);
                    }
                }
                ChurnOp::RemoveRule(i) => {
                    let name = format!("a{i}");
                    prop_assert_eq!(incremental.remove_rule(&name), scratch.remove_rule(&name));
                }
            }
        }
        prop_assert_eq!(incremental.stats.eval_errors, scratch.stats.eval_errors);
        prop_assert_eq!(incremental.stats.events_out, scratch.stats.events_out);
        let fired_inc: Vec<u64> = incremental.rules().iter().map(|r| r.fired).collect();
        let fired_scr: Vec<u64> = scratch.rules().iter().map(|r| r.fired).collect();
        prop_assert_eq!(fired_inc, fired_scr);
    }
}

// --- window indexes vs the nested-loop join ------------------------------

/// Join-key values, chosen for how `join_key` treats them. The first
/// nine hash exactly — and `Int(3)`/`Float(3.0)`, `0`/`0.0`/`-0.0` are
/// sets that must share a bucket. The last seven (a half, `0.1 + 0.2` vs
/// `0.3`, values from 9e15 up, and one ulp above 3 — which is
/// `eq_term`-equal to the exactly hashable 3) do not: while one is
/// buffered its stage must scan, or an exact probe would miss it.
fn join_values() -> [Term; 16] {
    [
        Term::Int(0),
        Term::Int(1),
        Term::Int(3),
        Term::Float(3.0),
        Term::Float(0.0),
        Term::Float(-0.0),
        Term::Int(8_999_999_999_999_999),
        Term::str("ua"),
        Term::str("ub"),
        Term::Float(0.5),
        Term::Float(3.0 + 4e-16),
        Term::Float(0.1 + 0.2),
        Term::Float(0.3),
        Term::Int(9_000_000_000_000_000),
        Term::Float(9.0e15),
        Term::Float(9.1e15),
    ]
}

/// Exactly hashable values four times as often as each of the others, so
/// windows are free of inexact keys about half the time and both the
/// probe and the scan path carry real traffic.
fn arb_join_value() -> impl Strategy<Value = Term> {
    (0usize..4 * 9 + 7).prop_map(|i| join_values()[if i < 36 { i % 9 } else { i - 27 }].clone())
}

/// Pattern `i` of a join rule: always binds the event's serial number to
/// its own `?n{i}` (so a firing names exactly the entries it joined), and
/// constrains one or two of `f0..f2` with shared variables, wildcards or
/// literals — variable-disjoint patterns (cross products) included.
fn arb_join_pattern(i: usize) -> impl Strategy<Value = String> {
    let pat = || {
        prop_oneof![
            (0usize..3).prop_map(|v| format!("?v{v}")),
            (0usize..3).prop_map(|v| format!("?v{v}")),
            (0usize..3).prop_map(|v| format!("?v{v}")),
            Just("_".to_string()),
            Just("3".to_string()),
        ]
    };
    ((0usize..3), proptest::collection::vec(((0usize..3), pat()), 1..3)).prop_map(
        move |(k, fields)| {
            let fields: Vec<String> = fields.iter().map(|(f, p)| format!("f{f}: {p}")).collect();
            format!("on a: event k{k}(n: ?n{i}, {})", fields.join(", "))
        },
    )
}

/// A two- or three-pattern pure join, wrapped in `rule NAME { ... }` at
/// apply time. The join-variable set of a stage depends on which pattern
/// the event fixed, so one buffer is probed through several indexes.
fn arb_join_rule_body() -> impl Strategy<Value = String> {
    let filter = prop_oneof![Just(""), Just(""), Just("where ?v0 != ?v1")];
    (arb_join_pattern(0), arb_join_pattern(1), arb_join_pattern(2), any::<bool>(), filter, 3u64..12)
        .prop_map(|(p0, p1, p2, three, filter, window)| {
            if three {
                format!(
                    "{p0} {p1} {p2} {filter} within {window} s emit out(a: ?n0, b: ?n1, c: ?n2)"
                )
            } else {
                format!("{p0} {p1} {filter} within {window} s emit out(a: ?n0, b: ?n1)")
            }
        })
}

#[derive(Debug, Clone)]
enum JoinOp {
    /// Advance time by this many seconds and offer an event of kind
    /// `k{kind}` carrying these values as `f0..f2`.
    Event(u64, usize, Vec<Term>),
    /// Carry on with a clone of the engine.
    CloneEngine,
    AddRule(String),
    RemoveRule(usize),
}

fn arb_join_op() -> impl Strategy<Value = JoinOp> {
    // Steps of 0..4 s against windows of 3..12 s land entries before, on
    // and after every eviction boundary.
    let event = || {
        ((0u64..4), (0usize..3), proptest::collection::vec(arb_join_value(), 3..4))
            .prop_map(|(dt, kind, values)| JoinOp::Event(dt, kind, values))
    };
    prop_oneof![
        event(),
        event(),
        event(),
        event(),
        event(),
        event(),
        event(),
        event(),
        event(),
        Just(JoinOp::CloneEngine),
        arb_join_rule_body().prop_map(JoinOp::AddRule),
        (0usize..5).prop_map(JoinOp::RemoveRule),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_indexes_match_nested_loop_join(
        bodies in proptest::collection::vec(arb_join_rule_body(), 1..4),
        ops in proptest::collection::vec(arb_join_op(), 1..120),
    ) {
        let kb = InMemoryFacts::new();
        let mut engine = MatchletEngine::new();
        let mut reference = ReferenceEngine::new(Vec::new());
        let mut added = 0usize;
        // Names cycle over j0..j4, so RemoveRule lands on real rules
        // (same-name rules go together, identically on both sides).
        let mut add = |engine: &mut MatchletEngine, reference: &mut ReferenceEngine, body: &str| {
            let src = format!("rule j{} {{ {body} }}", added % 5);
            added += 1;
            for rule in parse_rules(&src).expect("generated join rule parses") {
                engine.add_rule(rule.clone());
                reference.add_rule(rule);
            }
        };
        for body in &bodies {
            add(&mut engine, &mut reference, body);
        }
        let mut now = SimTime::ZERO;
        for (serial, op) in ops.iter().enumerate() {
            match op {
                JoinOp::Event(dt, kind, values) => {
                    now += gloss_sim::SimDuration::from_secs(*dt);
                    let mut ev = Event::new(format!("k{kind}")).with_attr("n", serial as i64);
                    for (f, value) in values.iter().enumerate() {
                        ev.set_attr(format!("f{f}"), term_to_attr(value));
                    }
                    let expected = reference.on_event(now, &ev, &kb);
                    let got = engine.on_event(now, &ev, &kb);
                    prop_assert_eq!(
                        rendered(&got),
                        rendered(&expected),
                        "diverged on event {} at {}; rules: {:?}",
                        ev,
                        now,
                        engine.rule_names()
                    );
                    // The engine evicts a rule's buffers when an event
                    // of a kind it listens for arrives; the reference,
                    // on every event. Compare the rules both just swept.
                    for (compiled, (rule, buffers)) in engine.rules().iter().zip(&reference.rules) {
                        if rule.patterns.iter().any(|p| p.kind == ev.kind()) {
                            let expected: usize = buffers.iter().map(VecDeque::len).sum();
                            prop_assert_eq!(compiled.buffered(), expected, "rule {}", rule.name);
                        }
                    }
                }
                JoinOp::CloneEngine => engine = engine.clone(),
                JoinOp::AddRule(body) => add(&mut engine, &mut reference, body),
                JoinOp::RemoveRule(i) => {
                    let name = format!("j{i}");
                    prop_assert_eq!(engine.remove_rule(&name), reference.remove_rule(&name));
                }
            }
        }
        prop_assert_eq!(engine.stats.eval_errors, reference.eval_errors);
        let stats = engine.stats;
        prop_assert!(
            stats.events_out == 0 || stats.join_probes + stats.join_scans > 0,
            "firings without a join stage"
        );
    }
}

// --- promotion vs the live engine -----------------------------------------

/// An event for the promotion oracle: one time in three at the instant of
/// the one before it, so both patterns of a rule often arrive at one
/// instant, and in whole seconds otherwise, so pairs land exactly on
/// windows' edges.
fn arb_promotion_event() -> impl Strategy<Value = (u64, Event)> {
    (arb_event(), 0u64..3).prop_map(|((dt, ev), same)| (if same == 0 { 0 } else { dt }, ev))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_promoted_standby_fires_what_the_live_engine_fired_since(
        src in arb_rules(),
        events in proptest::collection::vec(arb_promotion_event(), 0..40),
        split in 0usize..40,
        demote in 0usize..80,
        pick in 0usize..40,
        offset in 0u64..5,
        slack in 0u64..20,
    ) {
        let rules = parse_rules(&src).expect("generated rules parse");
        let mut live = MatchletEngine::new();
        let mut standby = MatchletEngine::new();
        for rule in &rules {
            live.add_rule(rule.clone());
            standby.add_rule(rule.clone());
        }
        let kb = kb();
        let mut now = SimTime::ZERO;
        let times: Vec<SimTime> = events
            .iter()
            .map(|(dt, _)| {
                now += gloss_sim::SimDuration::from_secs(*dt);
                now
            })
            .collect();
        let split = split.min(events.len());
        // The standby runs live up to event `demote` (for one case in two):
        // its firings then were the live twin's, and a promotion fires
        // nothing from before the demotion. Then its rules are unloaded.
        let demote = if demote < 40 { demote.min(split) } else { 0 };
        let demoted_at = demote.checked_sub(1).map_or(SimTime::ZERO, |d| {
            times[d] + gloss_sim::SimDuration::from_micros(1)
        });
        // `since` lies on or up to two seconds either side of an instant
        // the stream before the promotion reaches, or at zero.
        let since = match times[..split].get(pick % split.max(1)) {
            Some(t) => SimTime::from_micros((t.as_micros() + offset * 1_000_000).saturating_sub(2_000_000)),
            None => SimTime::ZERO,
        }
        .max(demoted_at);
        // Just enough horizon to keep every partner of a join fired from
        // `since` on, or up to 19 s more.
        let last = times[..split].last().copied().unwrap_or(SimTime::ZERO);
        let needed = last.as_micros().saturating_sub(since.as_micros());
        let horizon = gloss_sim::SimDuration::from_micros(needed + slack * 1_000_000);
        let names = ["r0", "r1", "r2"];
        let unload = |engine: &mut MatchletEngine| -> Result<(), TestCaseError> {
            for name in names {
                prop_assert!(engine.remove_rule(name));
            }
            Ok(())
        };
        let mut expected = Vec::new();
        for (i, ((_, ev), &at)) in events[..split].iter().zip(&times).enumerate() {
            if i == demote {
                unload(&mut standby)?;
            }
            let fired = live.on_event(at, ev, &kb);
            if i < demote {
                let got = standby.on_event(at, ev, &kb);
                prop_assert_eq!(rendered(&got), rendered(&fired), "before the demotion, at {}", at);
            }
            if at >= since {
                expected.extend(fired);
            }
        }
        if demote == split {
            unload(&mut standby)?;
        }
        // The log keeps the stream for the longest window plus the
        // horizon before its newest event; the promotion replays it from
        // one window before `since`.
        let window = rules.iter().map(|r| r.window).max().expect("three rules");
        let kept = SimTime::from_micros(last.as_micros().saturating_sub((window + horizon).as_micros()));
        let from = SimTime::from_micros(since.as_micros().saturating_sub(window.as_micros()));
        for rule in &rules {
            standby.add_rule(rule.clone());
        }
        let mut promoted = Vec::new();
        for ((_, ev), &at) in events[..split].iter().zip(&times) {
            if at >= kept && at >= from {
                promoted.extend(standby.replay(at, ev, since, &kb));
            }
        }
        prop_assert_eq!(
            canonical(&promoted),
            canonical(&expected),
            "rules:\n{}\nsince {} with horizon {:?}",
            src,
            since,
            horizon
        );
        for ((_, ev), &at) in events[split..].iter().zip(&times[split..]) {
            let expected = live.on_event(at, ev, &kb);
            let got = standby.on_event(at, ev, &kb);
            prop_assert_eq!(rendered(&got), rendered(&expected), "after promotion, at {}", at);
        }
    }
}

/// Validity windows must expire out of the alpha/beta memories: a memo
/// computed while a windowed fact held must not replay once it lapses,
/// and one computed before the window opens must not mask the opening.
#[test]
fn validity_windows_expire_out_of_alpha_and_beta_memories() {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ua", "likes", Term::str("ice")));
    kb.add(
        Fact::new("ub", "likes", Term::str("ice"))
            .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
    );
    let src = r#"rule fans { on q: event k1() where fact(?v0, likes, "ice") emit out(u: ?v0) }"#;
    let mut incremental = MatchletEngine::compile(src).unwrap();
    let mut scratch = MatchletEngine::compile(src).unwrap();
    let ev = Event::new("k1");
    for secs in [0u64, 50, 99, 100, 150, 199, 200, 250, 150, 50] {
        // (The last two go backwards: replay probes must handle any
        // computed_at/now ordering.)
        let now = SimTime::from_secs(secs);
        let got = rendered(&incremental.on_event(now, &ev, &kb));
        let expected = rendered(&scratch.on_event(now, &ev, &Opaque(&kb)));
        assert_eq!(got, expected, "at t={secs}");
        let inside = (100..200).contains(&secs);
        assert_eq!(got.len(), if inside { 2 } else { 1 }, "ub only inside the window (t={secs})");
    }
    assert!(incremental.stats.memo_hits > 0, "steady spans were memoised");
}
