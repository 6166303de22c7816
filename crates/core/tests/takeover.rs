//! Takeover: a service's primary instance fires, its standbys hold the
//! bundle and nothing else, the hub logs the events of the service's
//! kinds, and when the evolution engine's sweep declares the primary
//! failed the best-ranked standby is promoted, replayed the log, and
//! fires what the primary may have left unfired.
//!
//! `crashing_the_primary_mid_window_loses_no_join` crashes the primary
//! while pairs are open across the crash. Every join of the stream must
//! reach the UI at least once: the ones before the crash from the
//! primary, and the ones whose later event arrived after the primary's
//! last heartbeat from the promoted standby — pairs whose first event
//! arrived before the crash among them. `the_hub_log_retains_a_bounded_window`
//! holds the hub's log to the window plus the takeover horizon: after T
//! and after 4T of steady traffic it differs by at most one window's
//! worth, and every event logged is held or counted as dropped; while the
//! primary lives, a standby's engine and broker see no event of the
//! service's kinds.
//! `a_ui_filter_on_the_promoted_kind_receives_each_event_once` puts a UI
//! filter on a kind the service reads at every host: the promoted one
//! is replayed that kind's log, and its UI still holds each event once.
//! Its pings are a second apart, so none is in flight from the hub while
//! the promoted node's replay is due; one that is reaches the matchlets
//! but not the UI (`GlossNode`'s `replayed`).
//! `a_primary_fetches_knowledge_it_never_held_before_it_joins` leaves the
//! primary without a subject the rule reads: it fetches the subject before
//! it matches, and fires.

use gloss_core::{ActiveArchitecture, ArchConfig, ServiceSpec, TAKEOVER_HORIZON};
use gloss_event::{Event, Filter};
use gloss_knowledge::{Fact, FactSource, Term};
use gloss_sim::{NodeIndex, SimDuration};
use std::collections::BTreeSet;

const WINDOW_S: u64 = 30;
const RULES: &str = r#"rule pair {
    on a: event ping(k: ?k, n: ?n)
    on b: event pong(k: ?k, m: ?m)
    within 30 s
    emit paired(n: ?n, m: ?m)
}"#;

/// Eight nodes with the pair service placed on three of them; returns the
/// architecture, the hosts and the one whose rules are live.
fn deployed() -> (ActiveArchitecture, Vec<NodeIndex>, NodeIndex) {
    let mut arch =
        ActiveArchitecture::build(ArchConfig { nodes: 8, seed: 5, ..Default::default() });
    arch.settle();
    let spec = ServiceSpec::new("pair", RULES, vec![(None, 3)]).expect("rules compile");
    arch.deploy_service(spec);
    arch.run_for(SimDuration::from_secs(60));
    assert_eq!(arch.satisfaction(), 1.0, "service placed");
    let hosts = arch.hosts_of("matchlet:pair");
    assert_eq!(hosts.len(), 3);
    let live: Vec<NodeIndex> = hosts.iter().copied().filter(|&h| !standing_by(&arch, h)).collect();
    assert_eq!(live.len(), 1, "exactly one primary among {hosts:?}");
    (arch, hosts.clone(), live[0])
}

/// Whether `node`'s pair service stands by: installed, its rules not
/// loaded.
fn standing_by(arch: &ActiveArchitecture, node: NodeIndex) -> bool {
    let server = &arch.node(node).server;
    let installed = server.installed_names();
    assert!(installed.iter().any(|n| n.starts_with("matchlet:pair")), "{installed:?}");
    !server.engine().rule_names().contains(&"pair")
}

/// A node that is neither the coordinator nor a host.
fn bystander(arch: &ActiveArchitecture, hosts: &[NodeIndex]) -> NodeIndex {
    (1..arch.len() as u32).map(NodeIndex).find(|n| !hosts.contains(n)).expect("a free node")
}

fn ping(k: i64, n: i64) -> Event {
    Event::new("ping").with_attr("k", k).with_attr("n", n)
}

fn pong(k: i64, m: i64) -> Event {
    Event::new("pong").with_attr("k", k).with_attr("m", m)
}

#[test]
fn crashing_the_primary_mid_window_loses_no_join() {
    let (mut arch, hosts, primary) = deployed();
    let sensor = bystander(&arch, &hosts);
    let ui = (1..arch.len() as u32)
        .map(NodeIndex)
        .find(|&n| n != sensor && n != primary)
        .expect("a UI node");
    arch.subscribe_ui(ui, Filter::for_kind("paired"));
    arch.run_for(SimDuration::from_secs(5));

    // A ping and, 2.5 s later, a pong every 5 s: every pair is 2.5 s off
    // a multiple of 5 s, so none is near the window's edge. The primary
    // crashes 62 s in, with pairs open across the crash.
    let t0 = arch.now() + SimDuration::from_secs(1);
    let at = |ms: u64| t0 + SimDuration::from_millis(ms);
    let crash = at(62_000);
    let mut pings = Vec::new();
    let mut pongs = Vec::new();
    for i in 0..40u64 {
        let (tp, tq) = (at(i * 5_000 + 500), at(i * 5_000 + 3_000));
        arch.publish_at(tp, sensor, ping(1, i as i64));
        arch.publish_at(tq, sensor, pong(1, i as i64));
        pings.push((i as i64, tp));
        pongs.push((i as i64, tq));
    }
    arch.world_mut().crash_at(crash, primary);
    arch.run_until(at(200_000 + 120_000));

    let metrics = arch.world().metrics();
    assert_eq!(metrics.counter("gloss.promotions"), 1.0, "one standby was promoted");
    // The replacement may outrank it and be handed over to as well.
    let handovers = metrics.counter("gloss.handovers");
    assert_eq!(metrics.counter("gloss.promoted"), 1.0 + handovers);
    let now_hosting = arch.hosts_of("matchlet:pair");
    let live: Vec<NodeIndex> =
        now_hosting.iter().copied().filter(|&h| !standing_by(&arch, h)).collect();
    assert_eq!(live.len(), 1, "one surviving host fires, of {now_hosting:?}");
    assert!(!now_hosting.contains(&primary));

    let received: BTreeSet<(i64, i64)> = arch
        .node(ui)
        .ui_received
        .iter()
        .map(|e| (e.num_attr("n").unwrap() as i64, e.num_attr("m").unwrap() as i64))
        .collect();
    let window = SimDuration::from_secs(WINDOW_S);
    let mut across = 0;
    for &(n, tp) in &pings {
        for &(m, tq) in &pongs {
            let (first, later) = if tp <= tq { (tp, tq) } else { (tq, tp) };
            if later.since(first) > window {
                continue;
            }
            assert!(
                received.contains(&(n, m)),
                "ping {n} at {tp} and pong {m} at {tq} never joined"
            );
            if first < crash && later > crash {
                across += 1;
            }
        }
    }
    assert!(across > 0, "some pairs straddle the crash");
}

#[test]
fn the_hub_log_retains_a_bounded_window() {
    let (mut arch, hosts, primary) = deployed();
    let standby = hosts.iter().copied().find(|&h| h != primary).expect("a standby");
    let sensor = bystander(&arch, &hosts);
    // One ping and one pong a second.
    let t0 = arch.now() + SimDuration::from_secs(1);
    let period = SimDuration::from_secs(100);
    for s in 0..4 * 100u64 + 5 {
        let t = t0 + SimDuration::from_secs(s);
        arch.publish_at(t, sensor, ping(s as i64 % 7, s as i64));
        arch.publish_at(t + SimDuration::from_millis(500), sensor, pong(s as i64 % 5, s as i64));
    }
    let hub = NodeIndex(0);
    let logged = |arch: &ActiveArchitecture| arch.node(hub).broker.log().expect("a log").len();
    let handled = |arch: &ActiveArchitecture| arch.node(standby).broker.msgs_handled;
    let before = handled(&arch);
    arch.run_until(t0 + period);
    let after_t = logged(&arch);
    // The standby's broker handled its own heartbeats, and nothing else.
    let heartbeats = period.as_micros() / 10_000_000 + 1;
    assert!(handled(&arch) - before <= heartbeats, "{} messages", handled(&arch) - before);
    arch.run_until(t0 + period + period + period + period);
    let after_4t = logged(&arch);
    assert!(standing_by(&arch, standby));
    assert_eq!(arch.node(standby).server.engine().stats.events_in, 0, "the standby saw an event");

    let per_s = 2;
    let window_worth = per_s * WINDOW_S as usize;
    let retention = per_s * (WINDOW_S + TAKEOVER_HORIZON.as_micros() / 1_000_000) as usize;
    assert!(after_t.abs_diff(after_4t) <= window_worth, "{after_t} after T, {after_4t} after 4T");
    assert!(after_4t <= retention + per_s, "{after_4t} logged, more than window + horizon");
    assert!(after_4t + per_s >= retention, "{after_4t} logged, less than window + horizon");

    // What aged out is counted: every ping and pong published before 4T
    // was logged, and is either held or dropped.
    let log = arch.node(hub).broker.log().expect("a log");
    assert!(log.dropped > 0, "nothing aged out after 4T");
    assert_eq!(log.appended, 4 * 100 * per_s as u64, "pings and pongs logged by 4T");
    assert_eq!(after_4t as u64 + log.dropped, log.appended);
}

#[test]
fn a_ui_filter_on_the_promoted_kind_receives_each_event_once() {
    let (mut arch, hosts, primary) = deployed();
    for &h in &hosts {
        arch.subscribe_ui(h, Filter::for_kind("ping"));
    }
    let sensor = bystander(&arch, &hosts);
    arch.run_for(SimDuration::from_secs(5));
    let t0 = arch.now() + SimDuration::from_secs(1);
    let pings = 200u64;
    for i in 0..pings {
        let t = t0 + SimDuration::from_millis(i * 1_000 + 300);
        arch.publish_at(t, sensor, ping(1, i as i64));
        arch.publish_at(t + SimDuration::from_millis(400), sensor, pong(1, i as i64));
    }
    arch.world_mut().crash_at(t0 + SimDuration::from_secs(62), primary);
    arch.run_until(t0 + SimDuration::from_secs(pings + 60));

    let metrics = arch.world().metrics();
    assert_eq!(metrics.counter("gloss.promotions"), 1.0, "one standby was promoted");
    assert!(metrics.counter("gloss.replayed_events") > 0.0, "the promotion replayed the log");
    // The promoted standby is among the surviving hosts; each of them
    // had the UI filter from the start.
    for h in hosts.into_iter().filter(|&h| h != primary) {
        let ui = &arch.node(h).ui_received;
        let seen: Vec<i64> = ui
            .iter()
            .filter(|e| e.kind() == "ping")
            .map(|e| e.num_attr("n").unwrap() as i64)
            .collect();
        let unique: BTreeSet<i64> = seen.iter().copied().collect();
        assert_eq!(unique.len(), seen.len(), "a ping reached {h}'s UI twice");
        let all: BTreeSet<i64> = (0..pings as i64).collect();
        assert_eq!(unique, all, "a ping never reached {h}'s UI");
    }
}

#[test]
fn a_primary_fetches_knowledge_it_never_held_before_it_joins() {
    let mut arch =
        ActiveArchitecture::build(ArchConfig { nodes: 8, seed: 5, ..Default::default() });
    arch.settle();
    let rules = r#"rule liked { on a: event ping(user: ?u) where fact(?u, likes, "ice") emit liked(u: ?u) }"#;
    let spec = ServiceSpec::new("liked", rules, vec![(None, 3)]).expect("rules compile");
    arch.deploy_service(spec);
    arch.run_for(SimDuration::from_secs(60));
    let hosts = arch.hosts_of("matchlet:liked");
    let loaded =
        |arch: &ActiveArchitecture, h: NodeIndex| !arch.node(h).server.engine().rules().is_empty();
    let primary = hosts.iter().copied().find(|&h| loaded(&arch, h)).expect("a primary");
    let via = bystander(&arch, &hosts);
    let bob = [Fact::new("bob", "likes", Term::str("ice"))];
    arch.seed_knowledge(via, "bob", &bob);
    arch.run_for(SimDuration::from_secs(30));
    // Every node but the primary follows bob.
    for i in (0..arch.len() as u32).map(NodeIndex).filter(|&n| n != primary) {
        arch.prefetch_subject(i, "bob");
    }
    arch.run_for(SimDuration::from_secs(30));
    let ui = via;
    arch.subscribe_ui(ui, Filter::for_kind("liked"));
    arch.run_for(SimDuration::from_secs(5));
    assert!(arch.node(primary).kb.query(Some("bob"), None).next().is_none());

    arch.publish(via, Event::new("ping").with_attr("user", "bob"));
    arch.run_for(SimDuration::from_secs(10));
    let metrics = arch.world().metrics();
    assert_eq!(metrics.counter("gloss.kb_gap_fetches"), 1.0);
    let liked: Vec<&Event> = arch.node(ui).ui_received.iter().collect();
    assert_eq!(liked.len(), 1, "{liked:?}");
    assert_eq!(liked[0].str_attr("u"), Some("bob"));

    // Held now, the subject is not fetched again.
    arch.publish(via, Event::new("ping").with_attr("user", "bob"));
    arch.run_for(SimDuration::from_secs(10));
    assert_eq!(arch.world().metrics().counter("gloss.kb_gap_fetches"), 1.0);
    assert_eq!(arch.node(ui).ui_received.len(), 2);
}
