//! The paper's global scenario (§1.1): "Bob, currently in Australia,
//! walks past a restaurant previously recommended by Anna: her opinion of
//! the restaurant should be delivered to Bob if it is dinner time and he
//! has no plans for dinner."
//!
//! The knowledge (Anna's recommendation, made in Scotland) and the event
//! (Bob's location in Sydney) are on opposite sides of the planet; the
//! P2P store moves the knowledge to the matching computation.
//!
//! Run with: `cargo run --example global_recommendation`

use gloss::core::{ActiveArchitecture, ArchConfig, ServiceSpec};
use gloss::event::{Event, Filter};
use gloss::knowledge::{Fact, Term};
use gloss::sim::{GeoPoint, NodeIndex, SimDuration, SimTime};

const RULES: &str = include_str!("matchlets/past_recommendation.matchlet");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut arch =
        ActiveArchitecture::build(ArchConfig { nodes: 10, seed: 7, ..Default::default() });
    arch.settle();

    // Anna (back home) recommended the Harbour Grill in Sydney months ago.
    let harbour_grill = GeoPoint::new(-33.8570, 151.2100);
    arch.seed_knowledge(
        NodeIndex(1),
        "anna",
        &[Fact::new("anna", "recommends", Term::str("Harbour Grill"))],
    );
    arch.seed_knowledge(
        NodeIndex(1),
        "Harbour Grill",
        &[Fact::new("Harbour Grill", "located_at", Term::Geo(harbour_grill))],
    );
    arch.seed_knowledge(NodeIndex(2), "bob", &[Fact::new("bob", "knows", Term::str("anna"))]);
    arch.run_for(SimDuration::from_secs(30));

    // The service runs wherever the evolution engine places it — require
    // an instance in Australia, near Bob. It stands by: the instance
    // nearest the coordinator in Scotland, the hub every event and
    // notification crosses, is the one that fires.
    let spec =
        ServiceSpec::new("recommendations", RULES, vec![(Some("australia".into()), 1), (None, 2)])?;
    arch.deploy_service(spec);
    arch.run_for(SimDuration::from_secs(60));
    println!(
        "service hosts: {:?} (satisfaction {:.0}%)",
        arch.hosts_of("matchlet:recommendations"),
        arch.satisfaction() * 100.0
    );

    // The matching hosts pull the relevant knowledge from the P2P store.
    for subject in ["anna", "bob", "Harbour Grill"] {
        arch.prefetch_subject_everywhere(subject);
    }
    arch.run_for(SimDuration::from_secs(30));

    // Bob's phone is his UI.
    arch.subscribe_ui(NodeIndex(4), Filter::for_kind("recommendation"));
    arch.run_for(SimDuration::from_secs(10));

    // 19:10 local: Bob strolls along the quay, 200 m from the restaurant.
    let dinner_time = SimTime::from_secs(19 * 3600 + 10 * 60);
    arch.run_until(dinner_time);
    arch.publish(
        NodeIndex(4),
        Event::new("user.location")
            .with_attr("user", "bob")
            .with_attr("lat", -33.8553)
            .with_attr("lon", 151.2090),
    );
    arch.run_for(SimDuration::from_secs(120));

    let delivered = &arch.node(NodeIndex(4)).ui_received;
    println!("{} recommendation(s) delivered:", delivered.len());
    for r in delivered {
        println!(
            "  {} -> try {} (recommended by {})",
            r.str_attr("user").unwrap_or("?"),
            r.str_attr("place").unwrap_or("?"),
            r.str_attr("from").unwrap_or("?"),
        );
    }
    assert!(!delivered.is_empty(), "Anna's opinion must reach Bob");
    Ok(())
}
