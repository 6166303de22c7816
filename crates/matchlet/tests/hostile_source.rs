//! Hostile-input tests for matchlet source.
//!
//! Rule source reaches a node from outside it: in a bundle, and during
//! discovery as a `code/<kind>` document any node may have stored, which
//! the coordinator wraps in a bundle signed with its own key. Byte-level
//! mutations of the repository's real rules — flips, overwrites with
//! rule-syntax characters, inserts, deletes, truncations and duplicated
//! chunks — go through `parse_rules`, the static analysis passes,
//! `MatchletEngine::add_rules` and `on_event` over a few events and a
//! small knowledge base. Each step must return and never panic, in debug
//! and in release.
//!
//! Known answers pin the nesting bound: parentheses, `-` chains, `not`
//! chains, nested calls and operator chains parse up to it, are refused
//! one level past it, and are an error, not a stack overflow, ten
//! thousand and a hundred thousand levels deep.

use gloss_event::Event;
use gloss_knowledge::{Fact, InMemoryFacts, Term};
use gloss_matchlet::{parse_rules, MatchletEngine};
use gloss_sim::{GeoPoint, SimRng, SimTime};

/// The repository's rules: the example matchlets, the ice-cream scenario,
/// the `report` binary's smog rule, and transcriptions of the end-to-end
/// benchmark's meetup rule and the C13 churn rule.
const SEEDS: &[&str] = &[
    include_str!("../../../examples/matchlets/hot_alert.matchlet"),
    include_str!("../../../examples/matchlets/past_recommendation.matchlet"),
    include_str!("../../../examples/matchlets/replication_noop.matchlet"),
    include_str!("../../../examples/matchlets/smog.matchlet"),
    include_str!("../../core/src/matchlets/ice_cream.matchlet"),
    include_str!("../../bench/src/matchlets/smog.matchlet"),
    r#"rule meetup {
    on w: event weather.reading(street: ?s, celsius: ?c, t0: ?tw)
    on l: event user.location(user: ?u, street: ?s, t0: ?tl)
    where fact(?u, likes, "ice cream") and fact(?u, nationality, ?n)
    where ?c >= hot_threshold(?n)
    within 5 s
    emit meetup(user: ?u, street: ?s, tw: ?tw, tl: ?tl)
}"#,
    r#"rule churn7 { on t: event tick(seq: _) where fact(?u, likes, "ice cream") and fact(?u, nationality, _) within 1 m emit hit7(user: ?u) }"#,
];

// ---------------------------------------------------------------------
// Mutations (the decode oracle's helper, with rule-syntax characters in
// the alphabet).
// ---------------------------------------------------------------------

const SYNTAX: &[u8] =
    b"(){}:,?_\"#-+*/<>=! .0123456789eE\nruleoneventwherenotandorwithinemitfactmsh";

fn mutate(rng: &mut SimRng, doc: &[u8]) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..rng.range(1, 4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        match rng.range(0, 6) {
            0 => bytes[at] ^= 1 << rng.range(0, 8),
            1 => bytes[at] = SYNTAX[rng.index(SYNTAX.len())],
            2 => bytes.insert(at, SYNTAX[rng.index(SYNTAX.len())]),
            3 => {
                let end = (at + rng.range(1, 8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            _ => {
                let end = (at + rng.range(1, 24) as usize).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                let to = rng.index(bytes.len() + 1);
                bytes.splice(to..to, chunk);
            }
        }
    }
    bytes
}

// ---------------------------------------------------------------------
// What the rules meet.
// ---------------------------------------------------------------------

fn kb() -> InMemoryFacts {
    let mut kb = InMemoryFacts::new();
    for (s, p, o) in [
        ("anna", "likes", Term::from("ice cream")),
        ("anna", "nationality", Term::from("scottish")),
        ("anna", "knows", Term::from("bob")),
        ("bob", "recommends", Term::from("janettas")),
        ("janettas", "sells", Term::from("ice cream")),
        ("janettas", "located_at", Term::Geo(GeoPoint::new(56.3398, -2.7967))),
        ("janettas", "closes_at", Term::Int(1320)),
    ] {
        kb.add(Fact::new(s, p, o));
    }
    kb
}

fn events() -> Vec<Event> {
    vec![
        Event::new("weather.reading")
            .with_attr("street", "Market Street")
            .with_attr("celsius", 21.5)
            .with_attr("t0", 3i64),
        Event::new("user.location")
            .with_attr("user", "anna")
            .with_attr("street", "Market Street")
            .with_attr("lat", 56.3399)
            .with_attr("lon", -2.7966)
            .with_attr("on_foot", true)
            .with_attr("t0", 4i64),
        Event::new("user.location")
            .with_attr("user", "bob")
            .with_attr("lat", f64::NAN)
            .with_attr("lon", f64::INFINITY),
        Event::new("air.quality").with_attr("aqi", 180i64).with_attr("street", "North Street"),
        Event::new("tick").with_attr("seq", 1i64),
        Event::new("replication.probe"),
        Event::new("weather.reading").with_attr("street", 7i64).with_attr("celsius", "hot"),
    ]
}

/// Parses, analyses, installs and runs `src`; returns whether it parsed.
fn run(src: &str, kb: &InMemoryFacts, events: &[Event]) -> bool {
    let Ok(rules) = parse_rules(src) else {
        let mut engine = MatchletEngine::new();
        assert!(engine.add_rules(src).is_err(), "the engine parses what parse_rules refused");
        return false;
    };
    let _ = gloss_analysis::analyze_rules(&rules);
    let mut engine = MatchletEngine::new();
    engine.add_rules(src).expect("the engine parses what parse_rules parsed");
    for (i, event) in events.iter().enumerate() {
        engine.on_event(SimTime::from_secs(i as u64), event, kb);
    }
    true
}

#[test]
fn seeds_parse_and_run() {
    let (kb, events) = (kb(), events());
    for src in SEEDS {
        assert!(run(src, &kb, &events), "{src}");
    }
}

#[test]
fn mutated_sources_never_panic() {
    let (kb, events) = (kb(), events());
    let (mut parsed, mut refused) = (0, 0);
    for seed in 0..32 {
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let src = SEEDS[rng.index(SEEDS.len())];
            let bytes = mutate(&mut rng, src.as_bytes());
            if run(&String::from_utf8_lossy(&bytes), &kb, &events) {
                parsed += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(parsed > 0 && refused > 0, "parsed {parsed}, refused {refused}");
}

// ---------------------------------------------------------------------
// The nesting bound.
// ---------------------------------------------------------------------

fn rule_where(expr: &str) -> String {
    format!("rule r {{ on e: event k(x: ?x) where {expr} emit out(v: ?x) }}")
}

/// A nesting shape: its name, its source at `n` levels, and the most
/// levels it parses at.
type Shape = (&'static str, fn(usize) -> String, usize);

/// The bound is 64, counting the `where` expression itself, and a shape
/// inside a comparison sits one level below it.
fn shapes() -> Vec<Shape> {
    vec![
        ("parentheses", |n| rule_where(&format!("{}?x > 1{}", "(".repeat(n), ")".repeat(n))), 63),
        ("not", |n| rule_where(&format!("{}?x > 1", "not ".repeat(n))), 62),
        ("minus", |n| rule_where(&format!("?x > {}1", "- ".repeat(n))), 62),
        ("calls", |n| rule_where(&format!("?x > {}1{}", "f(".repeat(n), ")".repeat(n))), 62),
        ("operators", |n| rule_where(&format!("?x > 1{}", " + 1".repeat(n))), 62),
        (
            "emit",
            |n| {
                let v = format!("{}?x{}", "(".repeat(n), ")".repeat(n));
                format!("rule r {{ on e: event k(x: ?x) emit out(v: {v}) }}")
            },
            63,
        ),
    ]
}

#[test]
fn nesting_up_to_the_bound_parses_and_one_level_more_is_refused() {
    let (kb, events) = (kb(), events());
    for (name, shape, most) in shapes() {
        assert!(run(&shape(most), &kb, &events), "{name} at {most}");
        let err = parse_rules(&shape(most + 1)).expect_err(name);
        assert_eq!(err.message, "expression nested deeper than 64", "{name}");
    }
}

/// The test thread has a 2 MiB stack; before the bound, a few hundred
/// parentheses overflowed it.
#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for (name, shape, _) in shapes() {
        for n in [10_000, 100_000] {
            assert!(parse_rules(&shape(n)).is_err(), "{name} at {n}");
        }
    }
}
