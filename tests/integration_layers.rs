//! Integration tests pairing adjacent layers (narrower than the full
//! stack, wider than unit tests).

use gloss::bundle::{AuthKey, Bundle, Capability, ThinServer};
use gloss::event::Event;
use gloss::knowledge::{DistributedKnowledge, Fact, InMemoryFacts, Term};
use gloss::matchlet::MatchletEngine;
use gloss::pipeline::{assemble, standard::register_standard};
use gloss::sim::{NodeIndex, SimDuration, SimTime};
use gloss::store::{Document, StoreConfig, StoreNetwork};
use gloss::xml::parse;

/// Bundle → thin server → matchlet engine → events (bundle/matchlet/event).
#[test]
fn bundle_deploys_rules_that_match_events() {
    let key = AuthKey::new("ops", b"secret");
    let mut server = ThinServer::new("edge-1");
    server.trust(key.clone());
    server.grant("ops", Capability::DeployMatchlet);
    let packet = Bundle::matchlet(
        "movement",
        r#"
        rule fast {
            on l: event user.location(user: ?u, speed: ?s)
            where ?s > 30.0
            within 1 m
            emit speeding(user: ?u, speed: ?s)
        }
        "#,
    )
    .issued_by("ops")
    .to_packet(&key);
    server.receive_packet(&packet).unwrap();

    let kb = InMemoryFacts::new();
    let out = server.match_event(
        SimTime::ZERO,
        &Event::new("user.location").with_attr("user", "bob").with_attr("speed", 42.0),
        SimTime::ZERO,
        &kb,
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].kind(), "speeding");
}

/// XML spec → registry → pipeline → filtered events (xml/pipeline).
#[test]
fn xml_assembled_pipeline_filters_event_stream() {
    let mut registry = gloss::pipeline::Registry::new();
    register_standard(&mut registry);
    let spec = parse(
        r#"<pipeline>
             <component id="f" kind="filter.kind"><cfg kind="user.location"/></component>
             <component id="m" kind="filter.movement"><cfg min_km="0.5"/></component>
             <component id="c" kind="counter"/>
             <link from="f" to="m"/>
             <link from="m" to="c"/>
             <entry id="f"/>
           </pipeline>"#,
    )
    .unwrap();
    let mut graph = assemble(&spec, &registry).unwrap();
    let mut passed = 0;
    for i in 0..10 {
        let lat = 56.34 + if i % 5 == 0 { i as f64 * 0.01 } else { 0.00001 * i as f64 };
        let ev = Event::new("user.location")
            .with_attr("user", "bob")
            .with_attr("lat", lat)
            .with_attr("lon", -2.8);
        passed += graph.push(SimTime::ZERO, ev).len();
    }
    assert!(passed > 0 && passed < 10, "threshold filter must drop small moves; passed {passed}");
}

/// Matchlet engine fed from the pub/sub network, facts from the store
/// (event/store/knowledge/matchlet).
#[test]
fn matchlets_consume_store_backed_facts() {
    // Facts go through a real storage network round trip first.
    let mut net = StoreNetwork::build(10, StoreConfig::default(), 2001);
    net.settle();
    let facts = [Fact::new("anna", "vip", Term::Bool(true))];
    let refs: Vec<&Fact> = facts.iter().collect();
    let xml = DistributedKnowledge::facts_to_xml_versioned("anna", &refs, 1, 0).to_xml();
    let doc = Document::new(DistributedKnowledge::doc_name("anna"), xml.into_bytes());
    let guid = doc.guid;
    net.insert(NodeIndex(0), doc);
    net.run_for(SimDuration::from_secs(30));
    let req = net.lookup_retrying(NodeIndex(7), guid);
    net.run_for(SimDuration::from_secs(30));
    let doc = net.result(req).and_then(|r| r.doc.as_ref()).expect("facts round-trip the store");
    let text = std::str::from_utf8(&doc.content).expect("kb documents are utf-8");
    let fetched = DistributedKnowledge::facts_from_xml(&parse(text).expect("and well-formed"));
    assert_eq!(fetched, facts);

    let mut kb = InMemoryFacts::new();
    kb.extend(fetched);
    let mut engine = MatchletEngine::compile(
        r#"
        rule vip_arrival {
            on l: event user.location(user: ?u)
            where fact(?u, vip, true)
            within 1 m
            emit vip_seen(user: ?u)
        }
        "#,
    )
    .unwrap();
    let out =
        engine.on_event(SimTime::ZERO, &Event::new("user.location").with_attr("user", "anna"), &kb);
    assert_eq!(out.len(), 1);
    let none = engine.on_event(
        SimTime::from_secs(1),
        &Event::new("user.location").with_attr("user", "bob"),
        &kb,
    );
    assert!(none.is_empty());
}

/// A thin server's object store holds XML objects shipped in bundles and
/// serves them to locally running code (bundle/xml).
#[test]
fn bundle_data_objects_feed_local_code() {
    let key = AuthKey::new("ops", b"secret");
    let mut server = ThinServer::new("edge-2");
    server.trust(key.clone());
    server.grant("ops", Capability::DeployMatchlet);
    server.grant("ops", Capability::StoreAccess);
    let packet = Bundle::matchlet("with-config", r#"rule r { on a: event k() emit out() }"#)
        .issued_by("ops")
        .with_data("config/thresholds", parse(r#"<t hot="18.0" cold="5.0"/>"#).unwrap())
        .to_packet(&key);
    server.receive_packet(&packet).unwrap();
    let cfg = server.object("config/thresholds").unwrap();
    assert_eq!(cfg.attr("hot"), Some("18.0"));
}
