//! Experiment harness: one function per experiment in EXPERIMENTS.md's
//! matrix.
//!
//! `cargo run -p gloss-bench --bin report` regenerates every table in
//! EXPERIMENTS.md; the Criterion benches under `benches/` measure the
//! per-operation costs behind each experiment.

use gloss_core::{ActiveArchitecture, ArchConfig, IceCreamScenario, PopulationWorkload};
use gloss_deploy::Constraint;
use gloss_event::{Architecture, Event, Filter, PubSubConfig, PubSubNetwork};
use gloss_knowledge::{
    Fact, InMemoryFacts, LexicalMatcher, Ontology, RetrievalScores, ServiceDescription,
    SpecMatcher, Term, TextMatcher,
};
use gloss_matchlet::MatchletEngine;
use gloss_overlay::{FreenetNetwork, Key, OverlayNetwork};
use gloss_pipeline::{assemble, standard::register_standard, Registry};
use gloss_sim::{NodeIndex, SimDuration, SimRng, SimTime, Zipf};
use gloss_store::{Document, ErasureCode, Priority, StoreConfig, StoreNetwork};
use gloss_xml::{Element, Node, Path};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Renders an aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(line, "| {:<w$} ", c, w = widths[i]);
        }
        line.push('|');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{:-<w$}", "", w = w + 2);
    }
    sep.push('|');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// E1 (Figure 1): the global matching service distils a high event volume
/// into few meaningful events.
pub fn e1_matching_service() -> String {
    let mut rows = Vec::new();
    for users in [10usize, 20, 40] {
        let mut scenario = IceCreamScenario::setup(100 + users as u64);
        let workload = PopulationWorkload {
            users,
            duration: SimDuration::from_secs(300),
            ..Default::default()
        };
        workload.seed_population_knowledge(&mut scenario.arch, 1);
        scenario.arch.run_for(SimDuration::from_secs(30));
        let scheduled = workload.inject(&mut scenario.arch, 2);
        scenario.play_events();
        scenario.arch.run_for(SimDuration::from_secs(400));
        let sensed = scenario.arch.total_sensed();
        let meaningful = scenario.arch.total_synthesized();
        let suggestions = scenario.suggestions().len();
        rows.push(vec![
            users.to_string(),
            scheduled.to_string(),
            sensed.to_string(),
            meaningful.to_string(),
            f(sensed as f64 / meaningful.max(1) as f64),
            suggestions.to_string(),
        ]);
    }
    table(
        &["users", "scheduled", "events in", "events out", "distillation", "bob+anna suggestions"],
        &rows,
    )
}

/// E2 (Figure 2): an event distillation pipeline. A noisy stream (40 %
/// `telemetry.noise`, the rest location fixes of walking users) goes
/// through `filter.kind → filter.movement → throttle`, assembled from an
/// XML spec; each column counts the events left after one more stage.
pub fn e2_pipelines() -> String {
    const EVENTS: u64 = 20_000;
    let mut registry = Registry::new();
    register_standard(&mut registry);
    let stages = [
        r#"<component id="kind" kind="filter.kind"><cfg kind="user.location"/></component>"#,
        r#"<component id="move" kind="filter.movement"><cfg min_km="{min_km}"/></component><link from="kind" to="move"/>"#,
        r#"<component id="rate" kind="throttle"><cfg key="user" period_ms="5000"/></component><link from="move" to="rate"/>"#,
    ];
    let mut rows = Vec::new();
    for (users, min_km) in [(10usize, 0.01), (10, 0.05), (100, 0.01), (100, 0.05)] {
        let mut cells = vec![users.to_string(), min_km.to_string(), EVENTS.to_string()];
        let mut passed = 0;
        // The same stream through the first one, two and three stages.
        for depth in 1..=stages.len() {
            let body = stages[..depth].concat().replace("{min_km}", &min_km.to_string());
            let spec =
                gloss_xml::parse(&format!(r#"<pipeline>{body}<entry id="kind"/></pipeline>"#))
                    .expect("well-formed spec");
            let mut graph = assemble(&spec, &registry).expect("standard kinds");
            let mut rng = SimRng::new(11).fork("e2");
            let mut at = vec![(56.34, -2.79); users];
            passed = 0;
            for i in 0..EVENTS {
                let now = SimTime::from_millis(i * 10);
                let event = if rng.chance(0.4) {
                    Event::new("telemetry.noise")
                } else {
                    // A walker moves up to ~11 m per fix in each axis.
                    let u = rng.index(users);
                    at[u].0 += rng.float_range(-1e-4, 1e-4);
                    at[u].1 += rng.float_range(-1e-4, 1e-4);
                    Event::new("user.location")
                        .with_attr("user", format!("u{u}"))
                        .with_attr("lat", at[u].0)
                        .with_attr("lon", at[u].1)
                };
                passed += graph.push(now, event).len();
            }
            cells.push(passed.to_string());
        }
        cells.push(f(EVENTS as f64 / passed.max(1) as f64));
        rows.push(cells);
    }
    table(
        &["users", "min km", "events in", "after kind", "after movement", "out", "distillation"],
        &rows,
    )
}

/// An 11-node architecture whose coordinator's evolution engine holds
/// `constraint`. Workers advertise over pub/sub; bundles ship to their
/// thin servers.
fn deploy_arch(constraint: Constraint, seed: u64) -> ActiveArchitecture {
    let mut arch = ActiveArchitecture::build(ArchConfig { nodes: 11, seed, ..Default::default() });
    let cs = arch
        .world_mut()
        .node_mut(NodeIndex(0))
        .coordinator_state
        .as_mut()
        .expect("node 0 is the coordinator");
    cs.evolution.add_constraint(constraint);
    arch
}

/// E3 (Figure 3): bundle deployment onto thin servers.
pub fn e3_deployment() -> String {
    let mut rows = Vec::new();
    for instances in [2usize, 4, 8] {
        let mut arch = deploy_arch(Constraint::count("matcher", None, instances), 21);
        arch.run_for(SimDuration::from_secs(120));
        let metrics = arch.world().metrics();
        let cs = arch.node(NodeIndex(0)).coordinator_state.as_ref().expect("coordinator");
        // The initial rollout is the first repair episode.
        let rollout = cs
            .evolution
            .repair_episodes
            .first()
            .map(|(a, b)| b.since(*a).as_secs_f64())
            .unwrap_or(0.0);
        rows.push(vec![
            instances.to_string(),
            f(arch.satisfaction() * 100.0),
            metrics.counter("gloss.bundles_sent").to_string(),
            metrics.counter("gloss.installs").to_string(),
            f(rollout),
        ]);
    }
    table(&["instances", "satisfied %", "bundles sent", "installs", "rollout s"], &rows)
}

/// C1: centralized vs hierarchical vs acyclic-peer event routing load.
pub fn c1_event_routing() -> String {
    let mut rows = Vec::new();
    for brokers in [2usize, 4, 8] {
        let mut cells = vec![brokers.to_string(), (brokers * 4).to_string()];
        for arch in
            [Architecture::Centralized, Architecture::Hierarchical, Architecture::AcyclicPeer]
        {
            let mut net = PubSubNetwork::build(PubSubConfig {
                architecture: arch,
                brokers,
                clients_per_broker: 4,
                seed: 31,
                ..PubSubConfig::default()
            });
            let clients = net.clients().to_vec();
            for &c in &clients {
                net.subscribe(c, Filter::for_kind("k").with_eq("shard", (c.0 % 4) as i64));
            }
            net.run_for(SimDuration::from_secs(5));
            for round in 0..5 {
                for &c in &clients {
                    net.publish(c, Event::new("k").with_attr("shard", ((c.0 + round) % 4) as i64));
                }
                net.run_for(SimDuration::from_secs(5));
            }
            cells.push(net.max_broker_load().to_string());
        }
        rows.push(cells);
    }
    table(&["brokers", "clients", "central max load", "hier max load", "peer max load"], &rows)
}

/// C2: deterministic Plaxton routing vs a Freenet-like walk.
pub fn c2_overlay_routing() -> String {
    let mut rows = Vec::new();
    for n in [16usize, 64, 256] {
        let mut net = OverlayNetwork::build(n, 41);
        net.settle();
        let mut ids = Vec::new();
        for i in 0..60 {
            let from = net.random_node();
            let target = Key::hash_of(format!("c2-{i}").as_bytes());
            ids.push((net.route_from(from, target), target));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        let delivered = ids.iter().filter(|(id, _)| outcomes.contains_key(id)).count();
        let correct = ids
            .iter()
            .filter(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            })
            .count();
        let mean_hops =
            outcomes.values().map(|o| o.hops as f64).sum::<f64>() / outcomes.len().max(1) as f64;

        // Freenet-like baseline with the same population.
        let mut fnet = FreenetNetwork::build(n, 5, 24, 41);
        let mut batch = Vec::new();
        for i in 0..60 {
            let key = Key::hash_of(format!("c2-{i}").as_bytes());
            fnet.store(key);
            batch.push(fnet.lookup(key));
        }
        fnet.run_for(SimDuration::from_secs(240));
        rows.push(vec![
            n.to_string(),
            format!("{delivered}/60"),
            format!("{correct}/60"),
            f(mean_hops),
            f((n as f64).log(16.0)),
            f(fnet.success_rate(&batch) * 100.0),
        ]);
    }
    table(
        &[
            "nodes",
            "plaxton delivered",
            "correct dest",
            "mean hops",
            "log16 N",
            "freenet success %",
        ],
        &rows,
    )
}

/// C3: promiscuous caching and self-healing replication.
pub fn c3_caching() -> String {
    let mut rows = Vec::new();
    for cache in [false, true] {
        let cfg = StoreConfig { cache_enabled: cache, ..Default::default() };
        let mut net = StoreNetwork::build(24, cfg, 51);
        net.settle();
        // 30 documents, Zipf-read 200 times from random nodes.
        let docs: Vec<Document> =
            (0..30).map(|i| Document::new(format!("doc-{i}"), vec![7u8; 256])).collect();
        for d in &docs {
            let node = net.random_node();
            net.insert(node, d.clone());
        }
        net.run_for(SimDuration::from_secs(60));
        let zipf = Zipf::new(docs.len(), 1.0);
        let mut rng = SimRng::new(51).fork("c3");
        for _ in 0..200 {
            let d = &docs[zipf.sample(&mut rng)];
            let reader = net.random_node();
            net.lookup_retrying(reader, d.guid);
            net.run_for(SimDuration::from_secs(2));
        }
        net.run_for(SimDuration::from_secs(30));
        let lat = net.world().metrics().summary("store.lookup_ms");
        let served_cache = net.world().metrics().counter("store.cache_served");
        let local = net.world().metrics().counter("store.lookups_local");
        rows.push(vec![
            if cache { "on" } else { "off" }.to_string(),
            f(lat.mean),
            f(lat.p99),
            f(served_cache),
            f(local),
        ]);
    }
    let mut out = String::from("Promiscuous caching (Zipf reads over 30 docs, 24 nodes):\n");
    out.push_str(&table(&["cache", "mean read ms", "p99 ms", "cache-served", "local hits"], &rows));

    // Healing: crash a replica holder, watch the count recover.
    let cfg = StoreConfig {
        replicas: 3,
        heal_interval: SimDuration::from_secs(10),
        ..Default::default()
    };
    let mut net = StoreNetwork::build(16, cfg, 52);
    net.settle();
    let doc = Document::new("healing-doc", vec![1u8; 128]);
    net.insert(NodeIndex(0), doc.clone());
    net.run_for(SimDuration::from_secs(60));
    let before = net.replica_count(doc.guid);
    let holder = (0..16u32)
        .map(NodeIndex)
        .find(|&i| net.world().node(i).store.holds(doc.guid))
        .expect("replicated");
    net.crash(holder);
    let mut elapsed = 0u64;
    while net.replica_count(doc.guid) < 3 && elapsed < 300 {
        net.run_for(SimDuration::from_secs(10));
        elapsed += 10;
    }
    let _ = writeln!(
        out,
        "\nSelf-healing: {before} replicas -> crash one -> back to {} within {elapsed} s (probe timeout + heal interval).",
        net.replica_count(doc.guid)
    );
    out
}

/// C4: evolution engine repair latency under churn.
pub fn c4_evolution() -> String {
    let mut rows = Vec::new();
    for crashes in [1usize, 2, 3] {
        let mut arch = deploy_arch(Constraint::count("replicator", None, 4), 61);
        arch.run_for(SimDuration::from_secs(120));
        let cs = arch.node(NodeIndex(0)).coordinator_state.as_ref().expect("coordinator");
        // Distinct hosts: adverts reach the coordinator one by one, so the
        // first plan may stack two instances on one node.
        let hosts: BTreeSet<NodeIndex> =
            cs.evolution.deployment().instances_of("replicator").map(|(_, n)| n).collect();
        for h in hosts.into_iter().take(crashes) {
            arch.world_mut().crash(h);
        }
        arch.run_for(SimDuration::from_secs(240));
        let cs = arch.node(NodeIndex(0)).coordinator_state.as_ref().expect("coordinator");
        let repair = arch.world().metrics().summary("gloss.repair_ms");
        rows.push(vec![
            crashes.to_string(),
            f(arch.satisfaction() * 100.0),
            cs.evolution.failures_detected.to_string(),
            f(repair.mean / 1000.0),
            f(repair.max / 1000.0),
        ]);
    }
    table(
        &[
            "simultaneous crashes",
            "final satisfied %",
            "failures detected",
            "mean repair s",
            "max repair s",
        ],
        &rows,
    )
}

/// C5: latency-reduction vs backup placement policies.
pub fn c5_placement() -> String {
    // Latency policy: Australian reads of a Scottish document.
    let run_reads = |threshold: Option<u64>| -> Vec<f64> {
        let cfg = StoreConfig {
            replicas: 1,
            cache_enabled: false,
            latency_policy_threshold: threshold,
            ..Default::default()
        };
        let mut net = StoreNetwork::build(18, cfg, 71);
        net.settle();
        let doc = Document::new("bob-personal-data", vec![2u8; 64]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(30));
        let reader = net.random_node_in("australia").expect("has australia");
        let mut latencies = Vec::new();
        for _ in 0..6 {
            let id = net.lookup_retrying(reader, doc.guid);
            net.run_for(SimDuration::from_secs(20));
            latencies
                .push(net.result(id).map(|r| r.latency.as_secs_f64() * 1e3).unwrap_or(f64::NAN));
        }
        latencies
    };
    let without = run_reads(None);
    let with = run_reads(Some(3));
    let mut rows = Vec::new();
    for i in 0..6 {
        rows.push(vec![(i + 1).to_string(), f(without[i]), f(with[i])]);
    }
    let mut out = String::from(
        "Latency-reduction policy (read #N from Australia, primary in Scotland, threshold 3):\n",
    );
    out.push_str(&table(&["read #", "policy off ms", "policy on ms"], &rows));

    // Backup policy: time to a geographically remote replica.
    let cfg =
        StoreConfig { replicas: 1, backup_policy_min_km: Some(5_000.0), ..Default::default() };
    let mut net = StoreNetwork::build(18, cfg, 72);
    net.settle();
    let doc = Document::new("fresh-data", vec![3u8; 64]);
    let t0 = net.now();
    net.insert(NodeIndex(0), doc.clone());
    let mut waited = 0u64;
    let far_exists = |net: &StoreNetwork| -> bool {
        let holders: Vec<NodeIndex> = (0..18u32)
            .map(NodeIndex)
            .filter(|&i| net.world().node(i).store.holds(doc.guid))
            .collect();
        holders.iter().any(|&a| {
            holders.iter().any(|&b| {
                net.world().topology().node(a).geo.distance_km(net.world().topology().node(b).geo)
                    >= 5_000.0
            })
        })
    };
    while !far_exists(&net) && waited < 120 {
        net.run_for(SimDuration::from_secs(5));
        waited += 5;
    }
    let _ = writeln!(
        out,
        "\nBackup policy: geographically remote (>=5000 km) replica exists {:.1} s after creation.",
        (net.now().since(t0)).as_secs_f64()
    );
    out
}

/// The island of a C6 location event that a consumer reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Location {
    /// `user/@id`.
    pub user: String,
    /// `pos/@lat`.
    pub lat: f64,
    /// `pos/@lon`.
    pub lon: f64,
}

/// Type projection as a matchlet runs it (§3): one [`Path`] per field,
/// compiled once, read through `select_text_first` as a payload key is.
/// Whatever else the document carries is never looked at.
#[derive(Debug, Clone)]
pub struct LocationProjection {
    user: Path,
    lat: Path,
    lon: Path,
}

impl Default for LocationProjection {
    fn default() -> Self {
        let path = |p: &str| Path::parse(p).expect("C6 paths compile");
        LocationProjection { user: path("user/@id"), lat: path("pos/@lat"), lon: path("pos/@lon") }
    }
}

impl LocationProjection {
    /// The island of `doc`, if every field is present and typed.
    pub fn bind(&self, doc: &Element) -> Option<Location> {
        Some(Location {
            user: self.user.select_text_first(doc)?,
            lat: self.lat.select_text_first(doc)?.parse().ok()?,
            lon: self.lon.select_text_first(doc)?.parse().ok()?,
        })
    }
}

/// Type generation: the class a schema compiler derives from C6's
/// regular corpus, with every member the corpus shows.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedEvent {
    /// `@seq`.
    pub seq: u64,
    /// The `user` and `pos` members.
    pub location: Location,
}

impl GeneratedEvent {
    /// Binds a document of exactly the generated shape: root `event` with
    /// `@seq`, then `user` with `@id` and `pos` with `@lat` and `@lon`.
    /// An element, attribute or text the shape does not declare refuses
    /// the document.
    pub fn bind(doc: &Element) -> Option<GeneratedEvent> {
        /// Whether `el` is a childless `name` with no attribute outside `attrs`.
        fn declared(el: &Element, name: &str, attrs: &[&str]) -> bool {
            el.name() == name && el.is_empty() && el.attrs().all(|(k, _)| attrs.contains(&k))
        }
        let [Node::Element(user), Node::Element(pos)] = doc.nodes() else { return None };
        let shaped = doc.name() == "event"
            && doc.attrs().all(|(k, _)| k == "seq")
            && declared(user, "user", &["id"])
            && declared(pos, "pos", &["lat", "lon"]);
        if !shaped {
            return None;
        }
        Some(GeneratedEvent {
            seq: doc.attr("seq")?.parse().ok()?,
            location: Location {
                user: user.attr("id")?.to_string(),
                lat: pos.attr("lat")?.parse().ok()?,
                lon: pos.attr("lon")?.parse().ok()?,
            },
        })
    }
}

/// C6's corpus: 200 location events. An evolved one also carries a vendor
/// extension that no consumer was written for.
fn c6_corpus(evolved: bool) -> Vec<Element> {
    (0..200)
        .map(|i| {
            let mut e = Element::new("event")
                .with_attr("seq", i.to_string())
                .with_child(Element::new("user").with_attr("id", format!("u{}", i % 50)))
                .with_child(
                    Element::new("pos")
                        .with_attr("lat", format!("{}", 56.0 + (i % 100) as f64 / 1000.0))
                        .with_attr("lon", "-2.8"),
                );
            if evolved {
                e.push(
                    Element::new("vendor_extension")
                        .with_attr("firmware", "2.1")
                        .with_child(Element::new("diag").with_text("ok")),
                );
            }
            e
        })
        .collect()
}

/// C6: type projection vs type generation vs naive tree walking.
pub fn c6_projection() -> String {
    let regular = c6_corpus(false);
    let evolved = c6_corpus(true);
    let projection = LocationProjection::default();

    let time_per_doc = |f: &mut dyn FnMut(&Element) -> bool, docs: &[Element]| -> (f64, f64) {
        let start = std::time::Instant::now();
        let mut ok = 0usize;
        let reps = 50;
        for _ in 0..reps {
            for d in docs {
                if f(d) {
                    ok += 1;
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / (docs.len() * reps) as f64;
        (ns, ok as f64 / (docs.len() * reps) as f64 * 100.0)
    };

    let mut naive = |d: &Element| -> bool {
        // Hand-rolled tree walk: scan all descendants for the fields.
        let mut user = None;
        let mut lat = None;
        for el in d.descendants() {
            if el.name() == "user" {
                user = el.attr("id");
            }
            if el.name() == "pos" {
                lat = el.attr("lat");
            }
        }
        user.is_some() && lat.and_then(|l| l.parse::<f64>().ok()).is_some()
    };
    let mut proj = |d: &Element| -> bool { projection.bind(d).is_some() };
    let mut gen = |d: &Element| -> bool { GeneratedEvent::bind(d).is_some() };

    let mut rows = Vec::new();
    for (name, func) in [
        ("naive tree walk", &mut naive as &mut dyn FnMut(&Element) -> bool),
        ("type projection", &mut proj),
        ("type generation", &mut gen),
    ] {
        let (ns_reg, ok_reg) = time_per_doc(func, &regular);
        let (ns_evo, ok_evo) = time_per_doc(func, &evolved);
        rows.push(vec![name.to_string(), f(ns_reg), f(ok_reg), f(ns_evo), f(ok_evo)]);
    }
    table(
        &["binding strategy", "regular ns/doc", "regular ok %", "evolved ns/doc", "evolved ok %"],
        &rows,
    )
}

/// C7: the ice-cream correlation inside its five-minute window, under
/// background noise.
pub fn c7_scenario() -> String {
    let mut rows = Vec::new();
    for noise_rate in [0.0f64, 2.0, 10.0] {
        let mut scenario = IceCreamScenario::setup(81);
        if noise_rate > 0.0 {
            let w = PopulationWorkload {
                users: 10,
                noise_rate,
                duration: SimDuration::from_secs(400),
                ..Default::default()
            };
            w.seed_population_knowledge(&mut scenario.arch, 3);
            scenario.arch.run_for(SimDuration::from_secs(20));
            w.inject(&mut scenario.arch, 4);
        }
        let before = scenario.arch.now();
        scenario.play_events();
        // The last enabling event lands 70 s after `before`.
        let enabling_done = before + SimDuration::from_secs(70);
        scenario.arch.run_for(SimDuration::from_secs(400));
        let first_suggestion = scenario
            .suggestions()
            .first()
            .map(|e| e.published_at())
            .unwrap_or(gloss_sim::SimTime::MAX);
        let latency_s = if first_suggestion == gloss_sim::SimTime::MAX {
            f64::NAN
        } else {
            first_suggestion.since(enabling_done).as_secs_f64()
        };
        rows.push(vec![
            f(noise_rate),
            scenario.arch.total_sensed().to_string(),
            scenario.suggestions().len().to_string(),
            f(latency_s),
            (latency_s < 300.0).to_string(),
        ]);
    }
    table(&["noise ev/s", "total events", "suggestions", "latency s", "within 5 min window"], &rows)
}

/// C8: discovery of handlers for unknown event kinds.
pub fn c8_discovery() -> String {
    let mut arch =
        ActiveArchitecture::build(ArchConfig { nodes: 8, seed: 91, ..Default::default() });
    arch.settle();
    arch.register_handler_code(
        NodeIndex(1),
        "air.quality",
        include_str!("matchlets/smog.matchlet"),
    );
    arch.run_for(SimDuration::from_secs(30));
    arch.subscribe_ui(NodeIndex(2), Filter::for_kind("smog_warning"));
    arch.run_for(SimDuration::from_secs(10));

    // Phase 1: events before discovery produce nothing.
    let t0 = arch.now();
    arch.publish(NodeIndex(6), Event::new("air.quality").with_attr("aqi", 140i64));
    arch.run_for(SimDuration::from_secs(60));
    let discovered = arch
        .node(NodeIndex(0))
        .coordinator_state
        .as_ref()
        .map(|c| c.discovered.clone())
        .unwrap_or_default();
    let matched_before = arch.node(NodeIndex(2)).ui_received.len();
    // Phase 2: post-discovery events are matched.
    arch.publish(NodeIndex(6), Event::new("air.quality").with_attr("aqi", 150i64));
    arch.run_for(SimDuration::from_secs(30));
    let matched_after = arch.node(NodeIndex(2)).ui_received.len();
    let lookups = arch.world().metrics().counter("gloss.discovery_lookups");

    let rows = vec![vec![
        discovered.join(","),
        f(lookups),
        matched_before.to_string(),
        (matched_after - matched_before).to_string(),
        f(arch.now().since(t0).as_secs_f64()),
    ]];
    table(
        &["discovered kinds", "store lookups", "matched before", "matched after", "elapsed s"],
        &rows,
    )
}

/// C9: text vs lexical vs specification description matching.
pub fn c9_description_match() -> String {
    // A corpus of 40 services: half genuinely about ice cream (with
    // controlled facet terms), half lexically confusable prose.
    let ontology = Ontology::food_and_context();
    let mut corpus = Vec::new();
    let mut relevant: BTreeSet<String> = BTreeSet::new();
    let variants = ["gelato", "sorbet", "ice cream"];
    for i in 0..20 {
        let term = variants[i % variants.len()];
        let name = format!("cold-{i}");
        relevant.insert(name.clone());
        corpus.push(
            ServiceDescription::new(
                &name,
                format!("shop number {i} selling quality {term} near the beach"),
            )
            .with_facet("offers", term),
        );
    }
    for i in 0..20 {
        corpus.push(
            ServiceDescription::new(
                format!("decoy-{i}"),
                "we repair ice damaged cream colored phone screens",
            )
            .with_facet("offers", "phone repair"),
        );
    }
    let text = RetrievalScores::compute(&TextMatcher.retrieve("ice cream", &corpus), &relevant);
    let lexical = RetrievalScores::compute(
        &LexicalMatcher::new(ontology).retrieve("offers", "ice cream", &corpus),
        &relevant,
    );
    let spec = RetrievalScores::compute(
        &SpecMatcher::new().require("offers", "ice cream").retrieve(&corpus),
        &relevant,
    );
    let rows = vec![
        vec!["text".into(), f(text.precision), f(text.recall), f(text.f1())],
        vec![
            "lexical (faceted+ontology)".into(),
            f(lexical.precision),
            f(lexical.recall),
            f(lexical.f1()),
        ],
        vec!["specification".into(), f(spec.precision), f(spec.recall), f(spec.f1())],
    ];
    table(&["strategy", "precision", "recall", "F1"], &rows)
}

/// C10: erasure coding vs replication — overhead and availability.
pub fn c10_erasure() -> String {
    let mut rng = SimRng::new(101).fork("c10");
    let mut rows = Vec::new();
    let object: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    for (m, n) in [(1usize, 3usize), (4, 6), (4, 8), (8, 12)] {
        let code = ErasureCode::new(m, n).expect("valid params");
        // Availability under independent node loss p=0.2 (Monte Carlo).
        let p = 0.2;
        let trials = 5_000;
        let mut survived = 0;
        for _ in 0..trials {
            let alive = (0..n).filter(|_| !rng.chance(p)).count();
            if alive >= m {
                survived += 1;
            }
        }
        // Encode/decode timing.
        let start = std::time::Instant::now();
        let shards = code.encode(&object);
        let enc_us = start.elapsed().as_micros();
        let kept: Vec<(usize, Vec<u8>)> = (n - m..n).map(|i| (i, shards[i].clone())).collect();
        let start = std::time::Instant::now();
        let restored = code.decode(&kept, object.len()).expect("decodes");
        let dec_us = start.elapsed().as_micros();
        assert_eq!(restored, object);
        rows.push(vec![
            format!("({m},{n})"),
            f(code.overhead()),
            (n - m).to_string(),
            f(survived as f64 / trials as f64 * 100.0),
            enc_us.to_string(),
            dec_us.to_string(),
        ]);
    }
    table(
        &[
            "(m,n)",
            "storage overhead",
            "tolerated losses",
            "availability % @ p=0.2",
            "encode us (64 KiB)",
            "decode us",
        ],
        &rows,
    )
}

/// S3: node-count scaling of the simulation event plane — wall-clock and
/// throughput for a full overlay build + settle at 64–1024 nodes (2048 with
/// `GLOSS_SCALE_MAX=2048`).
pub fn s3_scaling() -> String {
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mut sizes: Vec<usize> = if smoke { vec![64, 128] } else { vec![64, 256, 512, 1024] };
    if let Ok(v) = std::env::var("GLOSS_SCALE_MAX") {
        if let Ok(extra) = v.parse::<usize>() {
            if !smoke && extra > 1024 {
                sizes.push(extra);
            }
        }
    }
    let mut rows = Vec::new();
    for n in sizes {
        let start = std::time::Instant::now();
        let mut net = OverlayNetwork::build(n, 42);
        let horizon = gloss_overlay::ring_settle(n);
        net.run_for(horizon);
        let wall = start.elapsed().as_secs_f64();
        let m = net.world().metrics();
        let delivered = m.counter("sim.messages_delivered");
        rows.push(vec![
            n.to_string(),
            f(net.joined_fraction() * 100.0),
            f(horizon.as_secs_f64()),
            f(wall * 1e3),
            f(delivered),
            f(delivered / wall / 1e6),
        ]);
    }
    table(&["nodes", "joined %", "sim s", "wall ms", "messages", "Mmsg/s wall"], &rows)
}

/// C11: churn-heavy overlay — sustained crash/recover churn while routing
/// keeps running; measures routing health and failure detection under
/// membership change.
pub fn c11_churn_heavy() -> String {
    use gloss_sim::{ChurnKind, ChurnModel, SimTime};
    let mut rows = Vec::new();
    for (mtbf_s, mttr_s) in [(240u64, 30u64), (120, 20), (60, 15)] {
        let n = 48usize;
        let mut net = OverlayNetwork::build(n, 43);
        net.settle();
        // Churn every node but the bootstrap for five minutes.
        let horizon = SimDuration::from_secs(300);
        let nodes: Vec<NodeIndex> = (1..n as u32).map(NodeIndex).collect();
        let model = ChurnModel::new(SimDuration::from_secs(mtbf_s), SimDuration::from_secs(mttr_s));
        let mut rng = SimRng::new(43).fork("c11");
        let base = net.now();
        let events = model.generate(&nodes, SimTime::ZERO + horizon, &mut rng);
        let mut churn_count = 0usize;
        for e in &events {
            let at = base + e.at.since(SimTime::ZERO);
            match e.kind {
                ChurnKind::Crash => {
                    net.world_mut().crash_at(at, e.node);
                    churn_count += 1;
                }
                ChurnKind::Recover => net.world_mut().recover_at(at, e.node),
            }
        }
        // Route batches every 30 s while the churn plays out.
        let mut ids = Vec::new();
        for round in 0..10 {
            for i in 0..8 {
                let mut from = net.random_node();
                while !net.world().is_alive(from) {
                    from = net.random_node();
                }
                let target = Key::hash_of(format!("churn-{round}-{i}").as_bytes());
                ids.push((net.route_from(from, target), target));
            }
            net.run_for(SimDuration::from_secs(30));
        }
        net.run_for(SimDuration::from_secs(60));
        let outcomes = net.outcomes();
        let delivered = ids.iter().filter(|(id, _)| outcomes.contains_key(id)).count();
        let correct = ids
            .iter()
            .filter(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            })
            .count();
        let m = net.world().metrics();
        rows.push(vec![
            format!("{mtbf_s}/{mttr_s}"),
            churn_count.to_string(),
            format!("{delivered}/{}", ids.len()),
            f(correct as f64 / ids.len().max(1) as f64 * 100.0),
            f(m.counter("overlay.failures_detected")),
            f(m.counter("sim.recoveries")),
            f(net.joined_fraction() * 100.0),
        ]);
    }
    table(
        &[
            "mtbf/mttr s",
            "failures",
            "routes delivered",
            "at closest-alive %",
            "detections",
            "re-starts",
            "final joined %",
        ],
        &rows,
    )
}

/// C12: mobility-heavy event plane — clients roam between brokers under a
/// steady publish load; measures broker handoff under sustained membership
/// change (move-out proxying, buffered replay, duplicate/false-positive
/// rates).
pub fn c12_mobility_heavy() -> String {
    let mut rows = Vec::new();
    for move_every_s in [60u64, 20, 5] {
        let mut net = PubSubNetwork::build(PubSubConfig {
            architecture: Architecture::AcyclicPeer,
            brokers: 8,
            clients_per_broker: 3,
            seed: 23,
            ..PubSubConfig::default()
        });
        let clients = net.clients().to_vec();
        let brokers = net.brokers().to_vec();
        for &c in &clients {
            net.subscribe(c, Filter::for_kind("m"));
        }
        net.run_for(SimDuration::from_secs(5));
        let mut rng = SimRng::new(23).fork("c12");
        let total_secs = 240u64;
        let mut moves = 0u64;
        let mut t = 0u64;
        while t < total_secs {
            let step = move_every_s.min(total_secs - t);
            // Publish from two random clients each second of the step.
            for _ in 0..step {
                for _ in 0..2 {
                    let p = clients[rng.index(clients.len())];
                    net.publish(p, Event::new("m"));
                }
                net.run_for(SimDuration::from_secs(1));
            }
            t += step;
            if t < total_secs {
                let mover = clients[rng.index(clients.len())];
                let target = brokers[rng.index(brokers.len())];
                net.move_client(mover, target, SimDuration::from_secs(2));
                moves += 1;
            }
        }
        net.run_for(SimDuration::from_secs(30));
        let m = net.world().metrics();
        let lat = m.summary("pubsub.delivery_ms");
        rows.push(vec![
            move_every_s.to_string(),
            moves.to_string(),
            f(m.counter("pubsub.delivered")),
            f(m.counter("pubsub.handoff_events")),
            f(m.counter("pubsub.duplicates")),
            f(m.counter("pubsub.false_deliveries")),
            f(lat.p50),
            f(lat.p99),
        ]);
    }
    table(
        &[
            "move every s",
            "moves",
            "delivered",
            "handoff replays",
            "dups",
            "false",
            "p50 ms",
            "p99 ms",
        ],
        &rows,
    )
}

/// C13: adversarial subscription churn — matchlet rules are added and
/// removed at a high rate while the contextual facts churn underneath:
/// the worst case for the incremental matching core's add/remove
/// invalidation (kind-index rebuilds, alpha coverage, beta memo
/// lifecycle). Eight rules stay resident; every N events the oldest is
/// retired and a fresh one installed, and every 8 events one user's
/// facts are removed and re-seeded (flavour preserved, so the workload
/// is stationary). Reports wall-clock throughput and memo behaviour per
/// churn rate.
pub fn c13_subscription_churn() -> String {
    use gloss_sim::SimTime;
    let rule_src = churn_rule_src;
    let flavor = |i: usize| if i.is_multiple_of(20) { "ice cream" } else { "tea" };
    let mut rows = Vec::new();
    for rule_churn_every in [64usize, 16, 4] {
        let mut kb = InMemoryFacts::new();
        for i in 0..200 {
            kb.add(Fact::new(format!("user{i}"), "likes", Term::str(flavor(i))));
            kb.add(Fact::new(format!("user{i}"), "nationality", Term::str("scottish")));
        }
        let mut engine = MatchletEngine::new();
        let mut gen = 0usize;
        for _ in 0..8 {
            engine.add_rules(&rule_src(gen)).expect("churn rule compiles");
            gen += 1;
        }
        let events = 20_000usize;
        let ev = Event::new("tick").with_attr("seq", 1i64);
        let start = std::time::Instant::now();
        for t in 1..=events {
            if t % rule_churn_every == 0 {
                engine.remove_rule(&format!("churn{}", gen - 8));
                engine.add_rules(&rule_src(gen)).expect("churn rule compiles");
                gen += 1;
            }
            if t % 8 == 0 {
                let i = (t / 8) % 200;
                let u = format!("user{i}");
                kb.remove_subject(&u);
                kb.add(Fact::new(u.clone(), "likes", Term::str(flavor(i))));
                kb.add(Fact::new(u, "nationality", Term::str("scottish")));
            }
            engine.on_event(SimTime::from_micros(t as u64), &ev, &kb);
        }
        let wall = start.elapsed().as_secs_f64();
        let s = engine.stats;
        let hit_rate = s.memo_hits as f64 / (s.memo_hits + s.memo_misses).max(1) as f64 * 100.0;
        rows.push(vec![
            rule_churn_every.to_string(),
            (events / rule_churn_every).to_string(),
            f(wall * 1e3),
            f(events as f64 / wall / 1e3),
            f(hit_rate),
            s.events_out.to_string(),
        ]);
    }
    table(
        &["rule churn every", "rule churns", "wall ms", "k events/s", "memo hit %", "events out"],
        &rows,
    )
}

/// C14: regional partition and heal — a 25 s two-way partition isolates
/// half the overlay; ten minority-side nodes crash and restart
/// mid-partition, turning the heal into a reconnection stampede. The
/// governed overlay wins twice: joiners cut off from their bootstraps
/// retry on the admission plane's short jittered backoff (vs. the
/// legacy blind fixed interval), so re-joins complete quickly after the
/// heal; and unreachable peers sit behind open circuits instead of
/// being purged, so the pre-partition routing state survives the
/// outage. Reports per-casualty re-join completion time after the heal,
/// the time to full re-convergence (every node joined *and* a 16-route
/// probe batch all delivered at the globally closest node), and
/// eviction counts. Loss is zero and the partition is shorter than the
/// evict escalation, so any eviction is a false one — the governed row
/// must show zero.
pub fn c14_partition_heal() -> String {
    use gloss_overlay::GovernorConfig;
    let mut rows = Vec::new();
    for governed in [true, false] {
        let n = 48usize;
        let seed = 47u64;
        let mut net = OverlayNetwork::build_with(n, seed, governed.then(GovernorConfig::default));
        net.settle();
        let t0 = net.now() + SimDuration::from_secs(1);
        let heal = t0 + SimDuration::from_secs(25);
        net.world_mut().partition_regions_at(t0, Some(heal), &["us-east", "us-west", "australia"]);
        // Ten minority-side casualties: down 2 s into the cut, back 8 s
        // later. Their re-join attempts go unanswered while the cut holds
        // (bootstraps across the partition stay silent), so the heal
        // releases a reconnection stampede: governed joiners are already
        // retrying on the short jittered backoff cadence, ungoverned ones
        // sit out the blind fixed retry interval.
        let casualties: Vec<NodeIndex> =
            (1..n as u32).map(NodeIndex).filter(|x| x.0 % 6 >= 3).take(10).collect();
        for &c in &casualties {
            net.world_mut().crash_at(t0 + SimDuration::from_secs(2), c);
            net.world_mut().recover_at(t0 + SimDuration::from_secs(10), c);
        }
        net.run_for(heal.since(net.now()));
        // Post-heal: when does each casualty complete its re-join?
        let mut join_done: BTreeMap<u32, u64> = BTreeMap::new();
        let mut elapsed = 0u64;
        while elapsed < 60 && join_done.len() < casualties.len() {
            net.run_for(SimDuration::from_secs(1));
            elapsed += 1;
            for &c in &casualties {
                if net.world().node(c).overlay.is_joined() {
                    join_done.entry(c.0).or_insert(elapsed);
                }
            }
        }
        let joins: Vec<f64> =
            casualties.iter().map(|c| join_done.get(&c.0).copied().unwrap_or(60) as f64).collect();
        let mean_join = joins.iter().sum::<f64>() / joins.len() as f64;
        let max_join = joins.iter().cloned().fold(0.0f64, f64::max);
        // Then probe every 2 s until the overlay is whole again.
        let mut reconverged_s: Option<u64> = None;
        while elapsed < 120 {
            let mut batch = Vec::new();
            for i in 0..16 {
                let mut from = net.random_node();
                while !net.world().is_alive(from) {
                    from = net.random_node();
                }
                let target = Key::hash_of(format!("c14-{elapsed}-{i}").as_bytes());
                batch.push((net.route_from(from, target), target));
            }
            net.run_for(SimDuration::from_secs(2));
            elapsed += 2;
            let outcomes = net.outcomes();
            let whole = batch.iter().all(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            });
            if whole && net.joined_fraction() >= 1.0 {
                reconverged_s = Some(elapsed);
                break;
            }
        }
        // Steady-state correctness well after the heal.
        let mut finals = Vec::new();
        for i in 0..32 {
            let mut from = net.random_node();
            while !net.world().is_alive(from) {
                from = net.random_node();
            }
            let target = Key::hash_of(format!("c14-final-{i}").as_bytes());
            finals.push((net.route_from(from, target), target));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        let correct = finals
            .iter()
            .filter(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            })
            .count();
        let m = net.world().metrics();
        rows.push(vec![
            if governed { "governor" } else { "three-strikes" }.to_string(),
            f(mean_join),
            f(max_join),
            reconverged_s.map_or(">120 (cap)".to_string(), |s| format!("{s}")),
            f(correct as f64 / finals.len() as f64 * 100.0),
            f(m.counter("overlay.evictions")),
            f(m.counter("overlay.failures_detected")),
            f(net.joined_fraction() * 100.0),
        ]);
    }
    table(
        &[
            "detector",
            "mean rejoin s",
            "max rejoin s",
            "re-converge s",
            "routes correct %",
            "evictions",
            "table purges",
            "joined %",
        ],
        &rows,
    )
}

/// C15: byzantine ack-then-drop peers — a subset of nodes keeps
/// answering probes (so naive liveness detection never fires) while
/// silently swallowing every routed payload handed to them. The
/// governor's conduct channel (unacked forwards) opens their circuits,
/// half-open trials fail, and they are evicted network-wide. Reports how
/// many byzantine peers got evicted, the mean time to first eviction,
/// honest-node false evictions (must be zero), and the delivery rate for
/// routes whose true destination is honest once the quarantine settles.
pub fn c15_byzantine() -> String {
    use gloss_overlay::ByzBehavior;
    let mut rows = Vec::new();
    for byz_count in [2usize, 4, 6] {
        let n = 48usize;
        let mut net = OverlayNetwork::build(n, 31);
        net.world_mut().enable_tracing(262_144);
        net.settle();
        let byz: Vec<NodeIndex> = (0..byz_count).map(|i| NodeIndex((5 + 7 * i) as u32)).collect();
        for &b in &byz {
            net.set_byzantine(b, ByzBehavior::AckThenDrop);
        }
        let start = net.now();
        // Sustained routing with payload traffic terminating all over the
        // ring: targets are low-bit perturbations of every node's own key
        // (FNV keys cluster in a narrow band of the 128-bit space, so
        // uniformly random targets would concentrate on a handful of
        // nodes and most peers — byzantine ones included — would never
        // see a payload).
        let mut phase_ids = Vec::new();
        for round in 0..36u128 {
            for j in 0..n as u32 {
                let mut from = net.random_node();
                while !net.world().is_alive(from) || byz.contains(&from) {
                    from = net.random_node();
                }
                let target = Key(net.id_of(NodeIndex(j)).key.0 ^ (round * 48 + j as u128 + 1));
                if !byz.contains(&net.closest_alive(target)) {
                    phase_ids.push((net.route_from(from, target), target));
                } else {
                    net.route_from(from, target);
                }
            }
            net.run_for(SimDuration::from_secs(5));
        }
        let outcomes = net.outcomes();
        let phase_ok = phase_ids
            .iter()
            .filter(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            })
            .count();
        let phase_pct = phase_ok as f64 / phase_ids.len().max(1) as f64 * 100.0;
        // First eviction time per peer, from the trace.
        let mut first_evict: BTreeMap<u32, f64> = BTreeMap::new();
        for ev in net.world().tracer().events() {
            if ev.kind == "overlay.evict" {
                if let Ok(peer) = ev.detail.parse::<u32>() {
                    first_evict.entry(peer).or_insert(ev.at.since(start).as_secs_f64());
                }
            }
        }
        let evicted: Vec<f64> = byz.iter().filter_map(|b| first_evict.get(&b.0)).copied().collect();
        let honest_evicted = first_evict.keys().filter(|k| !byz.iter().any(|b| b.0 == **k)).count();
        let mean_tte = if evicted.is_empty() {
            f64::NAN
        } else {
            evicted.iter().sum::<f64>() / evicted.len() as f64
        };
        // Honest delivery once the quarantine settles: routes whose true
        // closest node is honest must still arrive there.
        let mut finals = Vec::new();
        let mut salt = 1000u128;
        while finals.len() < 100 {
            let j = (salt % n as u128) as u32;
            let target = Key(net.id_of(NodeIndex(j)).key.0 ^ salt);
            salt += 1;
            if byz.contains(&net.closest_alive(target)) {
                continue;
            }
            let mut from = net.random_node();
            while !net.world().is_alive(from) || byz.contains(&from) {
                from = net.random_node();
            }
            finals.push((net.route_from(from, target), target));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        let delivered = finals
            .iter()
            .filter(|(id, t)| {
                outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
            })
            .count();
        rows.push(vec![
            byz_count.to_string(),
            format!("{}/{byz_count}", evicted.len()),
            if mean_tte.is_nan() { "-".to_string() } else { f(mean_tte) },
            honest_evicted.to_string(),
            f(phase_pct),
            f(delivered as f64 / finals.len() as f64 * 100.0),
            f(net.world().metrics().counter("overlay.byz_dropped")),
        ]);
    }
    table(
        &[
            "byz nodes",
            "byz evicted",
            "mean evict s",
            "honest evicted",
            "honest del (phase) %",
            "honest del (settled) %",
            "payloads dropped",
        ],
        &rows,
    )
}

/// C16: broker overload — a sustained publication burst runs well above
/// the brokers' service rate, with a thin stream of high-priority events
/// mixed in. Unbounded brokers accept everything (unbounded queueing in a
/// real deployment); load-shedding brokers shed low-priority
/// publications at the watermark, keep admitting the high-priority
/// stream, and reject new subscriptions while overloaded.
pub fn c16_overload() -> String {
    use gloss_event::ShedConfig;
    let mut rows = Vec::new();
    for bounded in [false, true] {
        let shed = bounded.then(|| ShedConfig {
            capacity: 64.0,
            high_watermark: 32.0,
            drain_per_sec: 40.0,
            priority_floor: 4.0,
            fair_window: SimDuration::from_secs(1),
            fair_share: 64,
        });
        let mut net = PubSubNetwork::build(PubSubConfig {
            architecture: Architecture::AcyclicPeer,
            brokers: 4,
            clients_per_broker: 4,
            seed: 29,
            shedding: shed,
        });
        let clients = net.clients().to_vec();
        for &c in &clients {
            net.subscribe(c, Filter::for_kind("lo"));
            net.subscribe(c, Filter::for_kind("hi"));
        }
        net.run_for(SimDuration::from_secs(5));
        let mut rng = SimRng::new(29).fork("c16");
        let (mut sent_lo, mut sent_hi) = (0u64, 0u64);
        for s in 0..60u64 {
            // 40 low-priority + 2 high-priority publications per second,
            // against a 40 msg/s drain rate: persistently overloaded.
            for _ in 0..40 {
                let p = clients[rng.index(clients.len())];
                net.publish(p, Event::new("lo").with_attr("prio", 1i64));
                sent_lo += 1;
            }
            for _ in 0..2 {
                let p = clients[rng.index(clients.len())];
                net.publish(p, Event::new("hi").with_attr("prio", 9i64));
                sent_hi += 1;
            }
            if s == 30 {
                // A subscription arriving mid-overload: bounded brokers
                // refuse it rather than grow matching state.
                net.subscribe(clients[0], Filter::for_kind("late"));
            }
            net.run_for(SimDuration::from_secs(1));
        }
        net.run_for(SimDuration::from_secs(30));
        let (mut got_lo, mut got_hi) = (0u64, 0u64);
        for &c in &clients {
            got_lo += net.client(c).received_of_kind("lo").count() as u64;
            got_hi += net.client(c).received_of_kind("hi").count() as u64;
        }
        let m = net.world().metrics();
        // A publisher is not notified of its own event, so each event has
        // `clients - 1` expected deliveries.
        let expect_lo = sent_lo * (clients.len() as u64 - 1);
        let expect_hi = sent_hi * (clients.len() as u64 - 1);
        rows.push(vec![
            if bounded { "shedding" } else { "unbounded" }.to_string(),
            f(got_hi as f64 / expect_hi.max(1) as f64 * 100.0),
            f(got_lo as f64 / expect_lo.max(1) as f64 * 100.0),
            f(m.counter("pubsub.shed")),
            f(m.counter("pubsub.subs_rejected")),
            if bounded { f(m.summary("pubsub.queue_delay_us").p99 / 1e3) } else { "-".to_string() },
            net.max_broker_load().to_string(),
        ]);
    }
    table(
        &[
            "broker",
            "high-prio delivered %",
            "low-prio delivered %",
            "shed",
            "subs rejected",
            "queue p99 ms",
            "max broker msgs",
        ],
        &rows,
    )
}

/// C17: flash crowd — every client holds the same hot-topic subscription
/// (covering collapses them to one forwarded filter per link) plus an
/// overlapping personal range filter (SIENA merging collapses those into
/// broader covers). A synchronized burst on the hot topic then hits the
/// collapsed tables. Reports delivery completeness, latency percentiles
/// and how much forwarding state covering/merging actually saved.
pub fn c17_flash_crowd() -> String {
    let mut rows = Vec::new();
    for (brokers, per_broker) in [(4usize, 8usize), (8, 16), (8, 48)] {
        let mut net = PubSubNetwork::build(PubSubConfig {
            architecture: Architecture::AcyclicPeer,
            brokers,
            clients_per_broker: per_broker,
            seed: 53,
            ..PubSubConfig::default()
        });
        let clients = net.clients().to_vec();
        for (i, &c) in clients.iter().enumerate() {
            // The hot topic everyone watches.
            net.subscribe(c, Filter::for_kind("goal"));
            // A personal context filter overlapping its neighbours':
            // same kind and a shared range shape, distinct user.
            net.subscribe(
                c,
                Filter::for_kind("ctx")
                    .with_constraint("temp", gloss_event::Op::Gt, (i % 4) as i64)
                    .with_eq("user", format!("u{i}")),
            );
        }
        net.run_for(SimDuration::from_secs(5));
        let mut rng = SimRng::new(53).fork("c17");
        // The flash crowd: one burst of hot events, all in the same
        // instant, from publishers scattered across the graph.
        let burst = 50usize;
        for _ in 0..burst {
            let p = clients[rng.index(clients.len())];
            net.publish(p, Event::new("goal").with_attr("minute", 90i64));
        }
        // Background personal traffic riding the same burst window.
        let mut personal_expect = 0u64;
        for _ in 0..clients.len() * 4 {
            let u = rng.index(clients.len());
            let p = clients[rng.index(clients.len())];
            if p != clients[u] {
                personal_expect += 1;
            }
            net.publish(
                p,
                Event::new("ctx").with_attr("user", format!("u{u}")).with_attr("temp", 10i64),
            );
        }
        net.run_for(SimDuration::from_secs(30));
        let hot_got: u64 =
            clients.iter().map(|&c| net.client(c).received_of_kind("goal").count() as u64).sum();
        let personal_got: u64 =
            clients.iter().map(|&c| net.client(c).received_of_kind("ctx").count() as u64).sum();
        // A publisher is not notified of its own event.
        let hot_expect = burst as u64 * (clients.len() as u64 - 1);
        let m = net.world().metrics();
        let lat = m.summary("pubsub.delivery_ms");
        rows.push(vec![
            clients.len().to_string(),
            f(hot_got as f64 / hot_expect as f64 * 100.0),
            f(personal_got as f64 / personal_expect.max(1) as f64 * 100.0),
            f(lat.p50),
            f(lat.p99),
            f(m.counter("pubsub.subs_pruned")),
            f(m.counter("pubsub.subs_merged")),
        ]);
    }
    table(
        &[
            "clients",
            "hot delivered %",
            "personal delivered %",
            "delivery p50 ms",
            "p99 ms",
            "subs pruned",
            "subs merged",
        ],
        &rows,
    )
}

/// S6: subscriber scaling — the cost of one publish on a broker holding
/// 1 k to 1 M subscriptions. The counting index resolves a publish with
/// one probe per event attribute, so the cost is near-flat in table
/// size; the pre-PR8 linear broker ([`gloss_event::LinearBroker`], kept as the
/// baseline) pays a full table scan. `GLOSS_BENCH_SMOKE=1` trims the
/// sizes for CI.
pub fn s6_subscriber_scaling() -> String {
    use gloss_event::{Broker, BrokerMsg, BrokerTopology, LinearBroker, Subscription};
    use gloss_sim::{Outbox, SimTime};
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke { &[1_000, 10_000] } else { &[1_000, 100_000, 1_000_000] };
    let filter_for = |i: usize| Filter::for_kind("ctx").with_eq("user", format!("u{i}"));
    let percentiles = |lat: &mut Vec<f64>| {
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (lat[lat.len() / 2], lat[lat.len() * 99 / 100])
    };
    // The linear baseline stops at 100 k: its own subscribe dup-check is
    // an O(N) table scan, so merely *building* its 1 M table is
    // quadratic (hours). The 100 k row already pins the linear slope.
    let linear_max = 100_000usize;
    let mut rows = Vec::new();
    let mut base_p50: Option<f64> = None;
    for &n in sizes {
        let topology = BrokerTopology::Peer { neighbors: vec![] };
        let mut broker = Broker::new(NodeIndex(0), topology.clone());
        let mut out = Outbox::new();
        let t0 = std::time::Instant::now();
        for i in 0..n {
            let client = NodeIndex(10 + i as u32);
            let s = Subscription { id: i as u64 + 1, filter: filter_for(i) };
            broker.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
            broker.handle(SimTime::ZERO, client, BrokerMsg::Subscribe(s), &mut out);
        }
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut rng = SimRng::new(86).fork("s6");
        let publisher = NodeIndex(5);
        let probes = 256usize;
        let mut lat = Vec::with_capacity(probes);
        for _ in 0..probes {
            let e = Event::new("ctx").with_attr("user", format!("u{}", rng.index(n)));
            let mut out = Outbox::new();
            let t = std::time::Instant::now();
            broker.handle(SimTime::ZERO, publisher, BrokerMsg::Publish(e), &mut out);
            lat.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        let (p50, p99) = percentiles(&mut lat);
        let lin_p50 = (n <= linear_max).then(|| {
            let mut linear = LinearBroker::new(NodeIndex(0), topology);
            for i in 0..n {
                let client = NodeIndex(10 + i as u32);
                let s = Subscription { id: i as u64 + 1, filter: filter_for(i) };
                linear.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
                linear.handle(SimTime::ZERO, client, BrokerMsg::Subscribe(s), &mut out);
            }
            let lin_probes = 64usize;
            let mut lin_lat = Vec::with_capacity(lin_probes);
            for _ in 0..lin_probes {
                let e = Event::new("ctx").with_attr("user", format!("u{}", rng.index(n)));
                let mut out = Outbox::new();
                let t = std::time::Instant::now();
                linear.handle(SimTime::ZERO, publisher, BrokerMsg::Publish(e), &mut out);
                lin_lat.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            percentiles(&mut lin_lat).0
        });
        let base = *base_p50.get_or_insert(p50);
        rows.push(vec![
            n.to_string(),
            f(build_ms),
            f(p50),
            f(p99),
            lin_p50.map_or_else(|| "-".to_string(), f),
            lin_p50.map_or_else(|| "-".to_string(), |l| f(l / p50.max(1e-9))),
            f(p50 / base.max(1e-9)),
        ]);
    }
    table(
        &[
            "subs",
            "build ms",
            "indexed publish p50 us",
            "p99 us",
            "linear p50 us",
            "speedup",
            "p50 vs 1k",
        ],
        &rows,
    )
}

/// C19: crash-driven repair storm. A correlated regional crash kills at
/// least a quarter of the store nodes; the repair pipeline must return
/// every surviving document to its tier's redundancy target with zero
/// data loss, while its token bucket keeps foreground lookups usable
/// mid-storm. Rows sweep the repair rate budget: a bigger budget
/// shortens time-to-redundancy, the cap bounds what the storm does to
/// concurrent reads. `GLOSS_BENCH_SMOKE=1` trims the sweep for CI.
pub fn c19_repair_storm() -> String {
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let nodes = if smoke { 32usize } else { 48 };
    // The low end is deliberately throttled into deferral (burst rides
    // the rate): the table shows pacing trading time-to-redundancy for a
    // bounded repair-traffic rate, not three unthrottled reruns.
    let rates: &[f64] = if smoke { &[8.0] } else { &[0.1, 1.0, 8.0] };
    let fill = |seed: u64, len: usize| -> Vec<u8> {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xff) as u8
            })
            .collect()
    };
    let mut rows = Vec::new();
    for &rate in rates {
        let cfg = StoreConfig {
            replicas: 3,
            heal_interval: SimDuration::from_secs(10),
            repair_rate_per_sec: rate,
            repair_burst: (rate * 2.0).max(1.0),
            ..Default::default()
        };
        let mut net = StoreNetwork::build(nodes, cfg, 1907);
        net.settle();
        let docs: Vec<Document> = (0..12u64)
            .map(|i| {
                Document::new(format!("c19-doc-{i}"), fill(500 + i, 400)).with_priority(
                    match i % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Low,
                    },
                )
            })
            .collect();
        for (i, d) in docs.iter().enumerate() {
            net.insert(NodeIndex((i % nodes) as u32), d.clone());
        }
        let (m, n) = (3usize, 6usize);
        let obj = fill(4242, 1500);
        let shard_guids = net.insert_erasure(NodeIndex(0), "c19-obj", &obj, m, n).unwrap();
        net.run_for(SimDuration::from_secs(60));

        // The correlated crash: whole regions until >= 1/4 of nodes die.
        let mut killed = 0usize;
        for region in ["us-east", "australia", "europe", "us-west"] {
            if killed * 4 >= nodes {
                break;
            }
            killed += net.crash_region(region);
        }
        assert!(killed * 4 >= nodes, "crash script killed only {killed}/{nodes}");
        let alive: Vec<NodeIndex> =
            (0..nodes as u32).map(NodeIndex).filter(|&i| net.world().is_alive(i)).collect();
        let targets: Vec<usize> = docs
            .iter()
            .map(|d| net.world().node(alive[0]).store.target_replicas(d.priority))
            .collect();

        // Poll in 10 s steps, riding foreground lookups on the storm.
        let mut rng = SimRng::new(1907).fork("c19-fg");
        let mut fg_reqs = Vec::new();
        let mut ttr = None;
        let mut elapsed = 0u64;
        while elapsed < 600 {
            for _ in 0..4 {
                let reader = alive[rng.index(alive.len())];
                let target = &docs[rng.index(docs.len())];
                fg_reqs.push(net.lookup_retrying(reader, target.guid));
            }
            net.run_for(SimDuration::from_secs(10));
            elapsed += 10;
            let recovered = docs.iter().zip(&targets).all(|(d, t)| net.replica_count(d.guid) >= *t)
                && net.shards_alive("c19-obj", n) == n;
            if recovered {
                ttr = Some(elapsed);
                break;
            }
        }
        let ttr = ttr.expect("repair never restored redundancy within 600 s");
        // Let stragglers conclude, then split outcomes.
        net.run_for(SimDuration::from_secs(30));
        let mut lat_ms: Vec<f64> = Vec::new();
        let mut fg_timeouts = 0u64;
        for id in &fg_reqs {
            match net.result(*id) {
                Some(r) if r.doc.is_some() => {
                    lat_ms.push(r.latency.as_secs_f64() * 1e3);
                }
                _ => fg_timeouts += 1,
            }
        }
        lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |v: &[f64], p: usize| {
            if v.is_empty() {
                0.0
            } else {
                v[(v.len() * p / 100).min(v.len() - 1)]
            }
        };

        // Zero data loss: every document's bytes and the reconstructed
        // erasure object must match what was inserted.
        let reader = alive[0];
        let doc_reqs: Vec<u64> = docs.iter().map(|d| net.lookup_retrying(reader, d.guid)).collect();
        let shard_reqs = net.lookup_erasure(reader, &shard_guids);
        net.run_for(SimDuration::from_secs(30));
        let mut lost = 0usize;
        for (d, req) in docs.iter().zip(&doc_reqs) {
            let ok = net
                .result(*req)
                .and_then(|r| r.doc.as_ref())
                .is_some_and(|got| got.content == d.content);
            if !ok {
                lost += 1;
            }
        }
        if net.reconstruct(&shard_reqs, m, n, obj.len()).map(|b| b == obj) != Ok(true) {
            lost += 1;
        }
        rows.push(vec![
            f(rate),
            killed.to_string(),
            ttr.to_string(),
            f(net.counter("store.repair_puts")),
            f(net.counter("store.repair_bytes") / 1024.0),
            f(net.counter("store.repair_deferred")),
            fg_reqs.len().to_string(),
            f(pct(&lat_ms, 50)),
            f(pct(&lat_ms, 99)),
            fg_timeouts.to_string(),
            lost.to_string(),
        ]);
    }
    table(
        &[
            "repair rate/s",
            "killed",
            "time-to-redundancy s",
            "repair puts",
            "repair KiB",
            "deferred",
            "fg lookups",
            "fg p50 ms",
            "fg p99 ms",
            "fg timeouts",
            "objects lost",
        ],
        &rows,
    )
}

/// The generated C13 churn rule for generation `g` (kept lint-clean:
/// wildcards where nothing reads the binding).
fn churn_rule_src(g: usize) -> String {
    format!(
        "rule churn{g} {{ on t: event tick(seq: _) where fact(?u, likes, \"ice cream\") and fact(?u, nationality, _) within 1 m emit hit{g}(user: ?u) }}"
    )
}

/// Runs one experiment by id, returning its rendered output.
pub fn run_experiment(id: &str) -> Option<(String, String)> {
    let (title, body) = match id {
        "e1" => ("E1 (Figure 1): global matching service distillation", e1_matching_service()),
        "e2" => ("E2 (Figure 2): an event distillation pipeline", e2_pipelines()),
        "e3" => ("E3 (Figure 3): bundle deployment infrastructure", e3_deployment()),
        "c1" => ("C1: event routing — centralized vs hierarchical vs peer", c1_event_routing()),
        "c2" => ("C2: Plaxton routing vs non-deterministic baseline", c2_overlay_routing()),
        "c3" => ("C3: promiscuous caching and self-healing", c3_caching()),
        "c4" => ("C4: evolution engine repair under churn", c4_evolution()),
        "c5" => ("C5: data placement policies", c5_placement()),
        "c6" => ("C6: type projection vs generation vs tree walking", c6_projection()),
        "c7" => ("C7: ice-cream correlation within its window", c7_scenario()),
        "c8" => ("C8: discovery matchlets for unknown kinds", c8_discovery()),
        "c9" => ("C9: description matching strategies", c9_description_match()),
        "c10" => ("C10: erasure coding vs replication", c10_erasure()),
        "c11" => ("C11: overlay routing under churn-heavy membership", c11_churn_heavy()),
        "c12" => ("C12: broker handoff under mobility-heavy clients", c12_mobility_heavy()),
        "c13" => ("C13: adversarial subscription churn (rules + facts)", c13_subscription_churn()),
        "c14" => {
            ("C14: regional partition + heal — governor vs three-strikes", c14_partition_heal())
        }
        "c15" => ("C15: byzantine ack-then-drop peers — conduct-channel eviction", c15_byzantine()),
        "c16" => ("C16: broker overload — load shedding vs unbounded ingress", c16_overload()),
        "c17" => (
            "C17: flash crowd — synchronized burst over covering-collapsed tables",
            c17_flash_crowd(),
        ),
        "c19" => (
            "C19: repair storm — regional crash, rate-limited re-replication, zero loss",
            c19_repair_storm(),
        ),
        "s3" => ("S3: event-plane scaling, 64-1024 nodes", s3_scaling()),
        "s6" => (
            "S6: subscriber scaling — publish cost from 1k to 1M subscriptions",
            s6_subscriber_scaling(),
        ),
        _ => return None,
    };
    Some((title.to_string(), body))
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "c12",
    "c13", "c14", "c15", "c16", "c17", "c19", "s3", "s6",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_rules_are_lint_clean() {
        // Every matchlet a report-binary workload deploys must survive
        // the same analysis gate the thin servers now enforce.
        for (name, src) in [
            ("smog", include_str!("matchlets/smog.matchlet").to_string()),
            ("churn", churn_rule_src(0)),
            ("ice-cream", gloss_core::scenario::ICE_CREAM_RULES.to_string()),
        ] {
            let report = gloss_analysis::analyze_source(&src)
                .unwrap_or_else(|e| panic!("{name} fails to parse: {e}"));
            assert!(report.is_clean(), "{name} has findings:\n{report}");
        }
    }

    /// The body rows of a rendered table, cell by cell.
    fn rows(table: &str) -> Vec<Vec<String>> {
        table
            .lines()
            .skip(2)
            .map(|l| l.split('|').map(str::trim).filter(|c| !c.is_empty()).map(String::from))
            .map(Iterator::collect)
            .collect()
    }

    /// Every E3 and C4 row ends with all constraints met on the deploy
    /// path `GlossNode` runs, and every bundle sent is installed.
    #[test]
    fn deploy_experiments_end_fully_satisfied() {
        for row in rows(&e3_deployment()) {
            assert_eq!(row[1], "100", "{row:?}");
            assert_eq!(row[2], row[3], "bundles sent = installs: {row:?}");
        }
        for row in rows(&c4_evolution()) {
            assert_eq!(row[1], "100", "{row:?}");
            assert_eq!(row[0], row[2], "each crashed host detected: {row:?}");
        }
    }

    /// The generated binder takes only the shape it was generated from;
    /// the projection reads its island out of either corpus, and both
    /// bind the same values from a regular document.
    #[test]
    fn generation_refuses_evolved_documents_that_projection_binds() {
        let projection = LocationProjection::default();
        for doc in c6_corpus(false) {
            let generated = GeneratedEvent::bind(&doc).expect("a regular document binds");
            assert_eq!(projection.bind(&doc), Some(generated.location), "{doc}");
        }
        for doc in c6_corpus(true) {
            assert_eq!(GeneratedEvent::bind(&doc), None, "{doc}");
            assert!(projection.bind(&doc).is_some(), "{doc}");
        }
    }

    /// Each E2 stage only removes events.
    #[test]
    fn distillation_stages_only_remove_events() {
        for row in rows(&e2_pipelines()) {
            let counts: Vec<u64> = row[2..6].iter().map(|c| c.parse().unwrap()).collect();
            assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{row:?}");
            assert!(counts[3] > 0, "{row:?}");
        }
    }
}
