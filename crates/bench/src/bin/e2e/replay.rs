//! Replay: per-layer unit costs, measured by timing direct calls into
//! each layer's public API on the inputs this workload generated.
//!
//! These are **out-of-situ estimates**. A replayed call runs with a
//! cache state, an allocator state and a neighbour mix that differ from
//! the call inside the running architecture; the numbers say which layer
//! is expensive per operation and whether a change made it cheaper, not
//! exactly how many microseconds of a run it owns. Costs that ride on
//! other layers (a store lookup routes through the overlay, which
//! dispatches through the simulator) have the carried layers' cost
//! subtracted where attribution sums them (see [`attribute`]).

use crate::drive::{NodeTotals, Rep, ARCH_SEED};
use crate::workload::{meetup_rules, Plan, Workload, SLICE_US, WINDOW_S};
use gloss_bundle::{AuthKey, Bundle, Capability, ThinServer};
use gloss_event::{Broker, BrokerMsg, BrokerTopology, Event, FilterIndex, Subscription};
use gloss_knowledge::{
    reconcile, DeltaAction, DeltaBatch, DistributedKnowledge, Fact, FactDelta, InMemoryFacts,
    KnowledgeAuthority, Shipment, Term,
};
use gloss_matchlet::MatchletEngine;
use gloss_overlay::{GovernorConfig, Key, OverlayNetwork};
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimRng, SimTime, Topology, World};
use gloss_store::{Document, StoreConfig, StoreNetwork};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Unit costs of one workload, by per-layer metric name.
pub type Costs = BTreeMap<&'static str, f64>;

/// Repeats `pass` (which returns how many operations it performed and
/// how long the timed part of it took) until `budget` is spent; returns
/// nanoseconds per operation.
fn per_op(budget: Duration, mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
    let started = Instant::now();
    let (mut ops, mut spent) = (0u64, Duration::ZERO);
    loop {
        let (n, t) = pass();
        ops += n;
        spent += t;
        if started.elapsed() >= budget || n == 0 {
            break;
        }
    }
    if ops == 0 {
        0.0
    } else {
        spent.as_nanos() as f64 / ops as f64
    }
}

// --- sim -----------------------------------------------------------------

/// The cheapest possible node: relays each message to a pseudo-random
/// peer until its hop budget is spent. What is left to time is the
/// engine: queueing, latency sampling, delivery, batching.
struct Relay {
    n: u32,
    state: u64,
}

impl Node for Relay {
    type Msg = u32;

    fn handle(&mut self, _now: SimTime, input: Input<u32>, out: &mut Outbox<u32>) {
        let hops = match input {
            Input::Start => 64,
            Input::Msg { msg, .. } => msg,
            Input::Timer { .. } => return,
        };
        if hops > 0 {
            let peer = (gloss_sim::splitmix64(&mut self.state) % self.n as u64) as u32;
            out.send(NodeIndex(peer), hops - 1);
        }
    }
}

fn sim_dispatch_ns(nodes: usize, budget: Duration) -> f64 {
    per_op(budget, || {
        let regions = ["scotland", "england", "europe", "australia"];
        let topology = Topology::random(nodes, &regions, ARCH_SEED);
        let relays =
            (0..nodes as u32).map(|i| Relay { n: nodes as u32, state: i as u64 }).collect();
        let mut world = World::new(topology, ARCH_SEED, relays);
        world.set_threads(1);
        for round in 0..200u32 {
            for i in 0..nodes as u32 {
                world.inject(NodeIndex(i), NodeIndex((i + round) % nodes as u32), 64);
            }
        }
        let tick = Instant::now();
        world.run_until(SimTime::from_secs(60));
        let t = tick.elapsed();
        (world.metrics().counter("sim.messages_delivered") as u64, t)
    })
}

// --- event ---------------------------------------------------------------

/// The interface a subscription stored at the hub arrived on: client
/// ids are `(node << 32) | seq`, broker-minted covers set bit 63.
fn iface_of(sub: &Subscription) -> NodeIndex {
    NodeIndex(((sub.id & !(1 << 63)) >> 32) as u32)
}

/// A broker of node `me` holding `subs`, as the architecture wires it
/// (a peer star centred on node 0).
fn loaded_broker(plan: &Plan, me: NodeIndex, subs: &[Subscription]) -> Broker {
    let neighbors = if me.0 == 0 {
        (1..plan.nodes as u32).map(NodeIndex).collect()
    } else {
        vec![NodeIndex(0)]
    };
    let mut broker = Broker::new(me, BrokerTopology::Peer { neighbors });
    let mut out = Outbox::new();
    broker.handle(SimTime::ZERO, me, BrokerMsg::Attach, &mut out);
    for sub in subs {
        let mut out = Outbox::new();
        broker.handle(SimTime::ZERO, iface_of(sub), BrokerMsg::Subscribe(sub.clone()), &mut out);
    }
    broker
}

fn event_costs(plan: &Plan, rep: &Rep, budget: Duration, costs: &mut Costs) {
    let hub = NodeIndex(0);
    let subs: Vec<Subscription> = rep.arch.node(hub).broker.subscriptions().cloned().collect();
    let events: Vec<(NodeIndex, Event)> =
        plan.sensors.iter().map(|s| (s.node, s.event.clone())).collect();
    if subs.is_empty() || events.is_empty() {
        return;
    }

    let mut broker = loaded_broker(plan, hub, &subs);
    costs.insert(
        "event.publish_ns",
        per_op(budget, || {
            let tick = Instant::now();
            for (from, event) in &events {
                let mut out = Outbox::new();
                broker.handle(SimTime::ZERO, *from, BrokerMsg::Publish(event.clone()), &mut out);
                black_box(&out);
            }
            (events.len() as u64, tick.elapsed())
        }),
    );

    // The busiest worker's broker, notified by the hub.
    let leaf = rep
        .arch
        .world()
        .nodes()
        .filter(|n| !n.is_coordinator())
        .max_by_key(|n| (n.broker.msgs_handled, std::cmp::Reverse(n.index())))
        .expect("more than one node")
        .index();
    let leaf_subs: Vec<Subscription> =
        rep.arch.node(leaf).broker.subscriptions().cloned().collect();
    let mut broker = loaded_broker(plan, leaf, &leaf_subs);
    costs.insert(
        "event.leaf_notify_ns",
        per_op(budget, || {
            let tick = Instant::now();
            for (_, event) in &events {
                let mut out = Outbox::new();
                broker.handle(SimTime::ZERO, hub, BrokerMsg::Notify(event.clone()), &mut out);
                black_box(&out);
            }
            (events.len() as u64, tick.elapsed())
        }),
    );

    let mut index = FilterIndex::new();
    for sub in &subs {
        index.insert(sub.clone());
    }
    costs.insert(
        "event.index_probe_ns",
        per_op(budget, || {
            let tick = Instant::now();
            for (_, event) in &events {
                black_box(index.matching_event(event));
            }
            (events.len() as u64, tick.elapsed())
        }),
    );
    costs.insert(
        "event.sub_insert_ns",
        per_op(budget, || {
            let tick = Instant::now();
            for (k, sub) in subs.iter().enumerate() {
                let id = (1 << 62) | k as u64;
                index.insert(Subscription { id, filter: sub.filter.clone() });
                black_box(index.remove(id));
            }
            (subs.len() as u64, tick.elapsed())
        }),
    );
}

// --- matchlet ------------------------------------------------------------

fn matchlet_costs(plan: &Plan, budget: Duration, costs: &mut Costs) {
    if plan.instances == 0 {
        return;
    }
    let kb = plan.profile_kb();
    let rules = meetup_rules(WINDOW_S);
    let span = SimDuration::from_secs(plan.slices as u64 + WINDOW_S + 1);
    let mut engine = MatchletEngine::compile(&rules).expect("rules compile");
    let mut epoch = SimTime::from_secs(1_000);
    // Hosts subscribe to the kinds their rules consume and see little
    // else, so the unit cost is per event of a handled kind.
    let handled: Vec<&crate::workload::Sensor> =
        plan.sensors.iter().filter(|s| engine.handles_kind(s.event.kind())).collect();
    costs.insert(
        "matchlet.on_event_ns",
        per_op(budget, || {
            // Each pass replays the whole stream one window later, so
            // buffers from the previous pass have expired and memos are
            // warm; the first window of a pass refills the buffers.
            epoch += span;
            let warm_us = (WINDOW_S * 1_000_000).min(plan.slices as u64 * SLICE_US / 2);
            let warm = handled.partition_point(|s| s.at_us < warm_us);
            for s in &handled[..warm] {
                let now = epoch + SimDuration::from_micros(s.at_us);
                black_box(engine.on_event(now, &s.event, &kb));
            }
            let tick = Instant::now();
            for s in &handled[warm..] {
                let now = epoch + SimDuration::from_micros(s.at_us);
                black_box(engine.on_event(now, &s.event, &kb));
            }
            ((handled.len() - warm) as u64, tick.elapsed())
        }),
    );

    // The first event after a delta to a joined fact: toggle a user's
    // `likes`, then offer that user's location on a street with hot
    // weather buffered.
    let mut kb = plan.profile_kb();
    let mut engine = MatchletEngine::compile(&rules).expect("rules compile");
    let mut now = SimTime::from_secs(1_000);
    let mut likes: Vec<bool> = plan
        .profiles
        .iter()
        .map(|facts| facts.iter().any(|f| f.object == Term::str("ice cream")))
        .collect();
    let mut next_user = 0;
    costs.insert(
        "matchlet.repair_ns",
        per_op(budget, || {
            now += SimDuration::from_secs(WINDOW_S + 1);
            let weather = Event::new("weather.reading")
                .with_attr("street", Plan::street_name(0))
                .with_attr("celsius", 35.0)
                .with_attr("t0", 0i64);
            black_box(engine.on_event(now, &weather, &kb));
            let mut spent = Duration::ZERO;
            let batch = 64.min(likes.len()) as u64;
            for _ in 0..batch {
                let u = next_user % likes.len();
                next_user += 1;
                let name = Plan::user_name(u);
                let (old, new) = if likes[u] { ("ice cream", "tea") } else { ("tea", "ice cream") };
                likes[u] = !likes[u];
                kb.retract(&name, "likes", &Term::str(old));
                kb.add(Fact::new(&name, "likes", Term::str(new)));
                now += SimDuration::from_millis(10);
                let location = Event::new("user.location")
                    .with_attr("user", name)
                    .with_attr("street", Plan::street_name(0))
                    .with_attr("t0", 1i64);
                let tick = Instant::now();
                black_box(engine.on_event(now, &location, &kb));
                spent += tick.elapsed();
            }
            (batch, spent)
        }),
    );
}

// --- knowledge + xml -----------------------------------------------------

/// The documents this workload puts on the wire: one versioned snapshot
/// per profile, one delta batch per mutation.
struct Wire {
    snapshots: Vec<(String, String)>,
    batches: Vec<String>,
    /// `(source, epoch)` each snapshot anchors its subject at.
    anchors: BTreeMap<String, (u64, u64)>,
}

fn wire(plan: &Plan) -> Wire {
    let mut authority = KnowledgeAuthority::new();
    let mut w = Wire { snapshots: Vec::new(), batches: Vec::new(), anchors: BTreeMap::new() };
    for (u, facts) in plan.profiles.iter().enumerate() {
        let name = Plan::user_name(u);
        authority.facts_mut(&name).extend(facts.iter().cloned());
        if let Some(Shipment::Snapshot { source, epoch, facts }) = authority.snapshot(&name) {
            let refs: Vec<&Fact> = facts.iter().collect();
            let xml = DistributedKnowledge::facts_to_xml_versioned(&name, &refs, source, epoch);
            w.snapshots.push((name.clone(), xml.to_xml()));
            w.anchors.insert(name, (source, epoch));
        }
    }
    for m in &plan.churn {
        let name = Plan::user_name(m.user);
        m.apply(authority.facts_mut(&name));
        if let Some(Shipment::Delta(batch)) = authority.flush(&name) {
            w.batches.push(batch.to_xml().to_xml());
        }
    }
    w
}

fn knowledge_and_xml_costs(plan: &Plan, packet: &str, budget: Duration, costs: &mut Costs) {
    let w = wire(plan);
    let docs: Vec<&str> = w
        .snapshots
        .iter()
        .map(|(_, x)| x.as_str())
        .chain(w.batches.iter().map(String::as_str))
        .chain(std::iter::once(packet))
        .collect();
    let kib = docs.iter().map(|d| d.len()).sum::<usize>() as f64 / 1024.0;
    let parsed: Vec<gloss_xml::Element> =
        docs.iter().map(|d| gloss_xml::parse(d).expect("own documents parse")).collect();
    let per_doc = per_op(budget, || {
        let tick = Instant::now();
        for d in &docs {
            black_box(gloss_xml::parse(d).expect("own documents parse"));
        }
        (docs.len() as u64, tick.elapsed())
    });
    costs.insert("xml.parse_ns_per_kib", per_doc * docs.len() as f64 / kib);
    let per_doc = per_op(budget, || {
        let tick = Instant::now();
        for el in &parsed {
            black_box(el.to_xml());
        }
        (parsed.len() as u64, tick.elapsed())
    });
    costs.insert("xml.write_ns_per_kib", per_doc * parsed.len() as f64 / kib);

    if !w.snapshots.is_empty() {
        let elements: Vec<(&str, gloss_xml::Element)> = w
            .snapshots
            .iter()
            .map(|(n, x)| (n.as_str(), gloss_xml::parse(x).expect("snapshot parses")))
            .collect();
        let mut kb = InMemoryFacts::new();
        costs.insert(
            "knowledge.snapshot_ingest_ns",
            per_op(budget, || {
                let tick = Instant::now();
                for (name, el) in &elements {
                    let facts = DistributedKnowledge::facts_from_xml(el);
                    kb.remove_subject(name);
                    kb.extend(facts);
                }
                (elements.len() as u64, tick.elapsed())
            }),
        );
    }
    if !w.batches.is_empty() {
        let elements: Vec<gloss_xml::Element> =
            w.batches.iter().map(|x| gloss_xml::parse(x).expect("batch parses")).collect();
        costs.insert(
            "knowledge.delta_apply_ns",
            per_op(budget, || {
                // A fresh receiver per pass: the batches only apply in
                // order on top of the anchored snapshots.
                let mut kb = plan.profile_kb();
                let mut tracked = w.anchors.clone();
                let tick = Instant::now();
                for el in &elements {
                    let batch = DeltaBatch::from_xml(el).expect("own batches decode");
                    match reconcile(tracked.get(&batch.subject).copied(), &batch) {
                        DeltaAction::Apply { skip } => {
                            for d in &batch.deltas[skip..] {
                                match d {
                                    FactDelta::Insert(f) => kb.add(f.clone()),
                                    FactDelta::Retract(f) => {
                                        kb.retract(&f.subject, &f.predicate, &f.object);
                                    }
                                }
                            }
                            tracked.insert(batch.subject.clone(), (batch.source, batch.to));
                        }
                        other => panic!("replayed batch must apply, got {other:?}"),
                    }
                }
                (elements.len() as u64, tick.elapsed())
            }),
        );
    }
}

// --- store + overlay -----------------------------------------------------

const NET_BATCH: usize = 200;
const NET_WINDOW: SimDuration = SimDuration::from_secs(3);

fn overlay_route_us(nodes: usize, budget: Duration) -> f64 {
    let mut net = OverlayNetwork::build_with(nodes, ARCH_SEED, Some(GovernorConfig::default()));
    net.run_for(SimDuration::from_millis(200) * nodes as u64 + SimDuration::from_secs(60));
    let mut rng = SimRng::new(ARCH_SEED).fork("replay-routes");
    let mut k = 0u64;
    per_op(budget, || {
        // The same simulated window with and without the routes: the
        // difference is what the routes cost (probes and heartbeats tick
        // in both).
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        let idle = tick.elapsed();
        for _ in 0..NET_BATCH {
            k += 1;
            let from = NodeIndex(rng.index(nodes) as u32);
            net.route_from(from, Key::hash_of_str(&format!("replay-{k}")));
        }
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        (NET_BATCH as u64, tick.elapsed().saturating_sub(idle))
    }) / 1e3
}

fn store_costs(plan: &Plan, budget: Duration, costs: &mut Costs) {
    let w = wire(plan);
    if w.snapshots.is_empty() {
        return;
    }
    let mut net = StoreNetwork::build(plan.nodes, StoreConfig::default(), ARCH_SEED);
    net.settle();
    let mut rng = SimRng::new(ARCH_SEED).fork("replay-store");
    let mut version = 0u64;
    let mut next = 0usize;
    let insert_ns = per_op(budget, || {
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        let idle = tick.elapsed();
        // Each pass rewrites documents at a newer version, as a
        // re-seeded profile would.
        version += 1;
        let batch = NET_BATCH.min(w.snapshots.len());
        for _ in 0..batch {
            let (name, xml) = &w.snapshots[next % w.snapshots.len()];
            next += 1;
            let mut doc =
                Document::new(DistributedKnowledge::doc_name(name), xml.clone().into_bytes());
            doc.version = version;
            net.insert(NodeIndex(rng.index(plan.nodes) as u32), doc);
        }
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        (batch as u64, tick.elapsed().saturating_sub(idle))
    });
    costs.insert("store.insert_host_us", insert_ns / 1e3);
    let lookup_ns = per_op(budget, || {
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        let idle = tick.elapsed();
        for _ in 0..NET_BATCH {
            let (name, _) = &w.snapshots[rng.index(w.snapshots.len())];
            let guid = Key::hash_of_str(&DistributedKnowledge::doc_name(name));
            net.lookup_retrying(NodeIndex(rng.index(plan.nodes) as u32), guid);
        }
        let tick = Instant::now();
        net.run_for(NET_WINDOW);
        (NET_BATCH as u64, tick.elapsed().saturating_sub(idle))
    });
    costs.insert("store.lookup_host_us", lookup_ns / 1e3);
}

// --- bundle --------------------------------------------------------------

fn bundle_costs(budget: Duration, costs: &mut Costs) -> String {
    let key = AuthKey::new("evolution", b"gloss-architecture-key");
    let bundle =
        Bundle::matchlet("matchlet:meetup@n1#1", meetup_rules(WINDOW_S)).issued_by(key.issuer());
    let packet = bundle.to_packet(&key);
    costs.insert(
        "bundle.pack_ns",
        per_op(budget, || {
            let tick = Instant::now();
            for _ in 0..32 {
                black_box(bundle.to_packet(&key));
            }
            (32, tick.elapsed())
        }),
    );
    costs.insert(
        "bundle.install_ns",
        per_op(budget, || {
            let mut spent = Duration::ZERO;
            for _ in 0..32 {
                let mut server = ThinServer::new("replay");
                server.trust(key.clone());
                server.grant(key.issuer(), Capability::DeployMatchlet);
                let tick = Instant::now();
                black_box(server.receive_packet(&packet).expect("own bundle installs"));
                spent += tick.elapsed();
            }
            (32, spent)
        }),
    );
    packet
}

/// Measures every replay cost of `plan`; `rep` is a finished bulk
/// repetition (for the hub broker's table). `seconds` is the total
/// budget, split evenly over the sixteen replays.
pub fn costs(plan: &Plan, rep: &Rep, seconds: f64) -> Costs {
    let budget = Duration::from_secs_f64(seconds / 16.0);
    let mut costs = Costs::new();
    costs.insert("sim.dispatch_ns_per_msg", sim_dispatch_ns(plan.nodes, budget));
    event_costs(plan, rep, budget, &mut costs);
    matchlet_costs(plan, budget, &mut costs);
    let packet = bundle_costs(budget, &mut costs);
    knowledge_and_xml_costs(plan, &packet, budget, &mut costs);
    if plan.workload != Workload::SubscriberFanout {
        store_costs(plan, budget, &mut costs);
        costs.insert("overlay.route_host_us", overlay_route_us(plan.nodes, budget));
    }
    costs
}

/// What the timed section did, in the units the replay costs price.
pub struct Counts {
    pub msgs: f64,
    pub totals: NodeTotals,
    pub subs_added: f64,
    pub batches_ingested: f64,
    pub snapshots_ingested: f64,
    pub bytes_parsed: f64,
    pub bytes_written: f64,
    pub lookups: f64,
    pub inserts: f64,
    pub routes: f64,
    pub hops_mean: f64,
    pub bundles_sent: f64,
    pub installs: f64,
}

/// Host seconds attributed to each layer: count × replay unit cost.
/// Costs that include another layer's work have it taken out, so that
/// the layers can be summed: a route carries `hops + 1` dispatched
/// messages, a store lookup carries one route.
pub fn attribute(c: &Counts, costs: &Costs) -> BTreeMap<&'static str, f64> {
    let cost = |name: &str| costs.get(name).copied().unwrap_or(0.0);
    let dispatch = cost("sim.dispatch_ns_per_msg");
    let route_ns = (cost("overlay.route_host_us") * 1e3 - (c.hops_mean + 1.0) * dispatch).max(0.0);
    let lookup_ns =
        (cost("store.lookup_host_us") * 1e3 - cost("overlay.route_host_us") * 1e3).max(0.0);
    let insert_ns =
        (cost("store.insert_host_us") * 1e3 - cost("overlay.route_host_us") * 1e3).max(0.0);
    let t = &c.totals;
    let repairs = (t.memo_misses as f64).min(c.batches_ingested);
    let repair_extra = (cost("matchlet.repair_ns") - cost("matchlet.on_event_ns")).max(0.0);
    let mut ns = BTreeMap::new();
    ns.insert("sim", c.msgs * dispatch);
    ns.insert(
        "event",
        t.hub_broker_msgs as f64 * cost("event.publish_ns")
            + t.leaf_broker_msgs as f64 * cost("event.leaf_notify_ns")
            + c.subs_added * cost("event.sub_insert_ns"),
    );
    ns.insert(
        "matchlet",
        t.engine_events_in as f64 * cost("matchlet.on_event_ns") + repairs * repair_extra,
    );
    ns.insert(
        "knowledge",
        c.batches_ingested * cost("knowledge.delta_apply_ns")
            + c.snapshots_ingested * cost("knowledge.snapshot_ingest_ns"),
    );
    ns.insert(
        "xml",
        c.bytes_parsed / 1024.0 * cost("xml.parse_ns_per_kib")
            + c.bytes_written / 1024.0 * cost("xml.write_ns_per_kib"),
    );
    ns.insert("store", c.lookups * lookup_ns + c.inserts * insert_ns);
    ns.insert("overlay", c.routes * route_ns);
    ns.insert(
        "bundle",
        c.bundles_sent * cost("bundle.pack_ns") + c.installs * cost("bundle.install_ns"),
    );
    ns.into_iter().map(|(k, v)| (k, v / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_takes_carried_layers_out_of_carrying_costs() {
        let mut costs = Costs::new();
        costs.insert("sim.dispatch_ns_per_msg", 100.0);
        costs.insert("overlay.route_host_us", 1.0); // 1000 ns, 3 hops + 1 = 400 ns of dispatch
        costs.insert("store.lookup_host_us", 3.0);
        costs.insert("store.insert_host_us", 0.5); // cheaper than a route: floors at 0
        let c = Counts {
            msgs: 1e6,
            totals: NodeTotals::default(),
            subs_added: 0.0,
            batches_ingested: 0.0,
            snapshots_ingested: 0.0,
            bytes_parsed: 0.0,
            bytes_written: 0.0,
            lookups: 1e3,
            inserts: 1e3,
            routes: 1e3,
            hops_mean: 3.0,
            bundles_sent: 0.0,
            installs: 0.0,
        };
        let s = attribute(&c, &costs);
        assert!((s["sim"] - 0.1).abs() < 1e-12);
        assert!((s["overlay"] - 600e-6).abs() < 1e-12);
        assert!((s["store"] - 2000e-6).abs() < 1e-12);
        assert_eq!(s["matchlet"], 0.0);
    }

    #[test]
    fn per_op_divides_timed_time_by_operations() {
        let ns = per_op(Duration::ZERO, || (4, Duration::from_nanos(400)));
        assert_eq!(ns, 100.0);
        assert_eq!(per_op(Duration::ZERO, || (0, Duration::from_nanos(5))), 0.0);
    }
}
