//! Hostile-input tests for pipeline specifications.
//!
//! Byte-level mutations of real specs — flips, overwrites with markup and
//! spec characters, inserts, deletes, truncations and duplicated chunks —
//! go through `gloss_xml::parse` → [`assemble`] → [`PipelineGraph::push`].
//! Each step must return `Ok` or `Err` and never panic, in debug and in
//! release. A spec that assembles holds one component per `<component>`
//! element, and a graph it builds takes a stream of events without
//! panicking, whatever the mutated configuration says.

use gloss_event::Event;
use gloss_pipeline::{
    assemble, standard::register_standard, AssemblyError, PipelineGraph, Registry,
};
use gloss_sim::{SimRng, SimTime};
use gloss_xml::parse;

fn registry() -> Registry {
    let mut r = Registry::new();
    register_standard(&mut r);
    r
}

/// Real specs: a distillation chain, a fan-out with two entries and a
/// relabeller, and every standard kind with its configuration.
const SEEDS: &[&str] = &[
    r#"<pipeline>
  <component id="f1" kind="filter.kind"><cfg kind="user.location"/></component>
  <component id="m1" kind="filter.movement"><cfg min_km="0.05"/></component>
  <component id="t1" kind="throttle"><cfg key="user" period_ms="5000"/></component>
  <link from="f1" to="m1"/>
  <link from="m1" to="t1"/>
  <entry id="f1"/>
</pipeline>"#,
    r#"<pipeline>
  <component id="c1" kind="counter"/>
  <component id="r1" kind="relabel"><cfg kind="sighting"><stamp key="via" value="gate-3"/><stamp key="zone" value="9"/></cfg></component>
  <component id="f2" kind="filter.kind"><cfg kind="weather"/></component>
  <link from="c1" to="r1"/>
  <link from="c1" to="f2"/>
  <entry id="c1"/>
  <entry id="f2"/>
</pipeline>"#,
    r#"<pipeline>
  <component id="k" kind="filter.kind"><cfg kind="user.location"/></component>
  <component id="mv" kind="filter.movement"><cfg min_km="1e-3"/></component>
  <component id="th" kind="throttle"><cfg key="tag" period_ms="0"/></component>
  <component id="rl" kind="relabel"/>
  <component id="ct" kind="counter"><cfg/></component>
  <link from="k" to="mv"/>
  <link from="mv" to="th"/>
  <link from="th" to="rl"/>
  <link from="rl" to="ct"/>
  <entry id="k"/>
</pipeline>"#,
];

/// The stream every assembled graph takes: location fixes of two users,
/// noise, weather, and events missing the attributes a stage reads.
fn stream() -> Vec<Event> {
    let fix = |user: &str, lat: f64| {
        Event::new("user.location")
            .with_attr("user", user)
            .with_attr("lat", lat)
            .with_attr("lon", -2.79)
    };
    vec![
        fix("bob", 56.34),
        fix("anna", 56.34),
        fix("bob", 56.3401),
        Event::new("telemetry.noise"),
        fix("bob", 56.40),
        Event::new("weather").with_attr("celsius", 21.0),
        Event::new("user.location").with_attr("user", "eve"),
        Event::new("user.location").with_attr("lat", f64::NAN).with_attr("lon", f64::INFINITY),
        fix("anna", 57.0),
    ]
}

// ---------------------------------------------------------------------
// Mutations (the decode oracle's helper, with spec characters added to
// the alphabet).
// ---------------------------------------------------------------------

const MARKUP: &[u8] =
    b"<>/&;=\"' !-?[]#xX0123456789.eE+-_:componentlinkentryidkindcfgfromtostampthrottle\n";

fn mutate(rng: &mut SimRng, doc: &[u8]) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..rng.range(1, 4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        match rng.range(0, 6) {
            0 => bytes[at] ^= 1 << rng.range(0, 8),
            1 => bytes[at] = MARKUP[rng.index(MARKUP.len())],
            2 => bytes.insert(at, MARKUP[rng.index(MARKUP.len())]),
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
// The checks.
// ---------------------------------------------------------------------

/// Parses and assembles `text`; on success, pushes the stream through the
/// graph. `None` when the text is not XML.
fn run(text: &str, registry: &Registry) -> Option<Result<usize, AssemblyError>> {
    let spec = parse(text).ok()?;
    Some(assemble(&spec, registry).map(|mut graph| {
        assert_eq!(graph.len(), spec.children_named("component").count(), "{text}");
        push_stream(&mut graph)
    }))
}

/// Pushes the stream a second apart; returns how many events left.
fn push_stream(graph: &mut PipelineGraph) -> usize {
    let mut out = 0;
    for (i, event) in stream().into_iter().enumerate() {
        out += graph.push(SimTime::from_secs(i as u64), event).len();
    }
    out
}

#[test]
fn seeds_assemble_and_distil() {
    let registry = registry();
    let outs: Vec<_> = SEEDS.iter().map(|s| run(s, &registry)).collect();
    // Chain: bob's and anna's first fixes, the two events with no
    // position (movement passes them, each is its throttle key's first)
    // and anna's 73 km move. Bob's 11 m step is too small, his 6.7 km
    // move comes 4 s after his last pass, and the other kinds are dropped.
    assert_eq!(outs[0], Some(Ok(5)));
    // Fan-out: every event is relabelled, and weather also leaves
    // through its filter, which is an entry as well.
    assert_eq!(outs[1], Some(Ok(stream().len() + 2)));
    assert!(matches!(outs[2], Some(Ok(n)) if n > 0));
}

#[test]
fn mutated_specs_never_panic() {
    let registry = registry();
    let (mut assembled, mut refused) = (0, 0);
    for seed in 0..32 {
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let spec = SEEDS[rng.index(SEEDS.len())];
            let bytes = mutate(&mut rng, spec.as_bytes());
            match run(&String::from_utf8_lossy(&bytes), &registry) {
                Some(Ok(_)) => assembled += 1,
                Some(Err(_)) => refused += 1,
                None => {}
            }
        }
    }
    assert!(assembled > 0 && refused > 0, "assembled {assembled}, refused {refused}");
}

/// Known answers: a period too long to represent, a kind that is gone,
/// and configurations that parse to odd but harmless values.
#[test]
fn hostile_configurations_are_refused_or_harmless() {
    let registry = registry();
    let one = |component: &str| {
        let text = format!(r#"<pipeline>{component}<entry id="a"/></pipeline>"#);
        run(&text, &registry).expect("well-formed")
    };
    let overflow = one(
        r#"<component id="a" kind="throttle"><cfg period_ms="18446744073709551615"/></component>"#,
    );
    assert_eq!(
        overflow,
        Err(AssemblyError::BadConfig {
            id: "a".into(),
            message: "throttle period_ms is too long".into()
        })
    );
    // A buffer flushed only on a tick, and nothing ticks a pipeline.
    let buffer = one(r#"<component id="a" kind="buffer"><cfg capacity="4"/></component>"#);
    assert_eq!(buffer, Err(AssemblyError::UnknownKind("buffer".into())));
    for min_km in ["NaN", "inf", "-1", "1e308"] {
        let movement = format!(
            r#"<component id="a" kind="filter.movement"><cfg min_km="{min_km}"/></component>"#
        );
        assert!(one(&movement).is_ok(), "min_km {min_km}");
    }
}
