//! The smoke scenarios. Each builds a seeded simulation, asserts its own
//! invariants (a violated one panics, so the process exits nonzero) and
//! returns its one stdout line.

use crate::Args;
use gloss_core::{ActiveArchitecture, ArchConfig};
use gloss_event::{Event, Filter, FilterIndex, Op, Subscription};
use gloss_knowledge::{DeltaBatch, Fact, FactDelta, FactSource, Term};
use gloss_overlay::{ByzBehavior, GovernorConfig, Key, OverlayNetwork};
use gloss_sim::testkit::Chatter;
use gloss_sim::{FnvHasher, NodeIndex, SimDuration, SimRng, SimTime, Topology, World};
use gloss_store::{Document, Priority, StoreConfig, StoreNetwork};
use std::hash::Hasher;

/// A chattering multi-region protocol with loss and a crash/recover
/// schedule, traces enabled. The digest covers everything observable —
/// the full trace, per-node schedules, engine counters and the settle
/// time.
pub fn chatter(Args { nodes, seed, .. }: Args) -> String {
    let regions =
        &["scotland", "england", "europe", "us-east", "us-west", "brazil", "australia", "asia"];
    let topology = Topology::random(nodes, regions, seed);
    let machines: Vec<Chatter> = (0..nodes)
        .map(|i| Chatter::new(i as u32, nodes as u32, seed ^ (i as u64) << 9, 8))
        .collect();
    let mut w = World::new(topology, seed, machines);
    w.enable_tracing(1 << 22);
    w.set_loss(0.1);
    let mut rng = SimRng::new(seed).fork("digest-churn");
    for k in 0..nodes as u64 / 16 {
        let victim = NodeIndex(rng.index(nodes) as u32);
        let at = SimTime::from_millis(10 + 13 * k);
        w.crash_at(at, victim);
        w.recover_at(at + SimDuration::from_millis(20), victim);
    }
    w.run_until(SimTime::from_millis(30));
    for _ in 0..nodes / 4 {
        let a = NodeIndex(rng.index(nodes) as u32);
        let b = NodeIndex(rng.index(nodes) as u32);
        w.inject(a, b, 8);
    }
    // Push the whole crash/recover schedule and the event bulk through
    // `run_until` — which flushes node counters only at control events —
    // before the per-event quiescence tail.
    w.run_until(SimTime::from_millis(400));
    let settle = w.run_to_quiescence(SimTime::from_secs(60));
    let mut digest = FnvHasher::default();
    digest.write(w.tracer().render().as_bytes());
    for n in w.nodes() {
        digest.write(n.log.join("\n").as_bytes());
    }
    for name in ["chatter.msgs", "sim.messages_sent", "sim.messages_lost", "sim.crashes"] {
        digest.write(format!("{name}={}", w.metrics().counter(name)).as_bytes());
    }
    let digest = digest.finish();
    let line = format!(
        "mode=chatter nodes={nodes} seed={seed} trace_events={} settle={settle} digest={digest:016x}",
        w.tracer().events().len()
    );
    line
}

/// Builds and settles an N-node overlay network — no tracing,
/// counters-only digest — which doubles as the wall-clock scale smoke.
pub fn overlay(Args { nodes, seed, .. }: Args) -> String {
    let mut net = OverlayNetwork::build(nodes, seed);
    net.settle();
    assert!(net.joined_fraction() > 0.99, "overlay failed to settle");
    let m = net.world().metrics();
    let mut digest = FnvHasher::default();
    for name in [
        "sim.messages_sent",
        "sim.messages_delivered",
        "sim.messages_lost",
        "sim.batches",
        "sim.batched_messages",
    ] {
        digest.write(format!("{name}={}", m.counter(name)).as_bytes());
    }
    let digest = digest.finish();
    let line = format!(
        "mode=overlay nodes={nodes} seed={seed} joined={:.4} delivered={} digest={digest:016x}",
        net.joined_fraction(),
        m.counter("sim.messages_delivered")
    );
    line
}

/// Full robustness plane under one digest: a governed overlay survives a
/// regional partition with mid-partition casualties and byzantine
/// ack-then-drop peers while routing perturbed-key traffic throughout.
/// The digest covers the trace (every suspicion, quarantine, eviction,
/// and re-route lands there) plus the governor's counters.
pub fn faults(Args { nodes, seed, .. }: Args) -> String {
    let mut net = OverlayNetwork::build_with(nodes, seed, Some(GovernorConfig::default()));
    net.world_mut().enable_tracing(1 << 22);
    net.settle();
    assert!(net.joined_fraction() > 0.99, "governed overlay failed to settle");
    // Three byzantine peers spread across the index space.
    for i in 0..3u32 {
        net.set_byzantine(NodeIndex((5 + 11 * i) % nodes as u32), ByzBehavior::AckThenDrop);
    }
    // Regional partition with a scheduled heal, plus casualties that
    // crash behind it and rejoin through the admission governor.
    let t0 = net.now() + SimDuration::from_secs(1);
    let heal = t0 + SimDuration::from_secs(20);
    net.world_mut().partition_regions_at(t0, Some(heal), &["us-east", "us-west", "australia"]);
    for k in 0..(nodes as u32 / 24).max(2) {
        let victim = NodeIndex(1 + (7 * k) % (nodes as u32 - 1));
        net.world_mut().crash_at(t0 + SimDuration::from_secs(2), victim);
        net.world_mut().recover_at(t0 + SimDuration::from_secs(10), victim);
    }
    // Routed traffic across partition, heal, and recovery: perturbed
    // node keys spread payload over the whole ring (random hashes
    // cluster under FNV), exercising forwards through suspects.
    for round in 0..12u64 {
        for j in (0..nodes as u32).step_by(5) {
            let target = Key(net.id_of(NodeIndex(j)).key.0 ^ (round as u128 * 131 + j as u128 + 1));
            let from = net.random_node();
            net.route_from(from, target);
        }
        net.run_for(SimDuration::from_secs(5));
    }
    net.run_for(SimDuration::from_secs(30));
    let mut digest = FnvHasher::default();
    digest.write(net.world().tracer().render().as_bytes());
    let m = net.world().metrics();
    for name in [
        "sim.messages_sent",
        "sim.messages_delivered",
        "sim.messages_partitioned",
        "sim.crashes",
        "overlay.suspected",
        "overlay.evictions",
        "overlay.reroutes",
        "overlay.refutations",
        "overlay.join_backoff",
        "overlay.byz_dropped",
        "overlay.delivered",
    ] {
        digest.write(format!("{name}={}", m.counter(name)).as_bytes());
    }
    let digest = digest.finish();
    let line = format!(
        "mode=faults nodes={nodes} seed={seed} trace_events={} evictions={} reroutes={} digest={digest:016x}",
        net.world().tracer().events().len(),
        m.counter("overlay.evictions"),
        m.counter("overlay.reroutes"),
    );
    line
}

const SUBJECT: &str = "bob";
const WRITER: NodeIndex = NodeIndex(2);

fn seeded_arch(nodes: usize, seed: u64) -> ActiveArchitecture {
    let mut a = ActiveArchitecture::build(ArchConfig { nodes, seed, ..Default::default() });
    a.settle();
    a.world_mut().enable_tracing(1 << 22);
    let facts: Vec<Fact> =
        (0..16i64).map(|i| Fact::new(SUBJECT, format!("attr{i}"), Term::Int(i))).collect();
    a.seed_knowledge(WRITER, SUBJECT, &facts);
    a.run_for(SimDuration::from_secs(30));
    a.prefetch_subject_everywhere(SUBJECT);
    a.run_for(SimDuration::from_secs(30));
    a
}

/// A node's fact set for the subject, in canonical order.
fn fact_set(a: &ActiveArchitecture, node: u32) -> Vec<String> {
    let mut v: Vec<String> = a
        .node(NodeIndex(node))
        .kb
        .query(Some(SUBJECT), None)
        .map(|f| format!("{}={}", f.predicate, f.object))
        .collect();
    v.sort();
    v
}

/// Two seeded active architectures side by side over the same
/// knowledge-churn schedule — one replicating context updates as
/// epoch-tagged `kbdelta/…` batches, one re-seeding whole `kb/…`
/// documents. The digest covers the traces, every `gloss.kb_*` counter
/// and each node's final fact set: the delta plane must be
/// schedule-preserving, and delta-fed replicas must converge to the
/// byte-identical fact sets the snapshot-fed replicas hold.
///
/// The schedule also injects one hand-crafted gap batch (a range
/// starting past every receiver's epoch), so the snapshot-fallback
/// path and its counters are part of the digested behaviour.
pub fn kbdelta(Args { nodes, seed, rounds }: Args) -> String {
    let mut delta = seeded_arch(nodes, seed);
    let mut snap = seeded_arch(nodes, seed);
    for r in 1..=rounds {
        // Delta mode: one changed fact ships as a 2-delta batch.
        delta.knowledge_mut(SUBJECT).retract(SUBJECT, "attr0", &Term::Int(r - 1));
        delta.knowledge_mut(SUBJECT).add(Fact::new(SUBJECT, "attr0", Term::Int(r)));
        delta.update_knowledge(WRITER, SUBJECT);
        delta.run_for(SimDuration::from_secs(5));
        delta.prefetch_deltas_everywhere(SUBJECT);
        delta.run_for(SimDuration::from_secs(10));
        // Snapshot mode: the whole document re-seeds.
        let facts: Vec<Fact> = (0..16i64)
            .map(|i| Fact::new(SUBJECT, format!("attr{i}"), Term::Int(if i == 0 { r } else { i })))
            .collect();
        snap.seed_knowledge(WRITER, SUBJECT, &facts);
        snap.run_for(SimDuration::from_secs(5));
        snap.prefetch_subject_everywhere(SUBJECT);
        snap.run_for(SimDuration::from_secs(10));
    }

    // A gap batch nobody can apply: receivers must fall back to a full
    // fetch and still converge.
    let source = delta.knowledge_mut(SUBJECT).version().expect("versioned store").source;
    let gap = DeltaBatch {
        subject: SUBJECT.into(),
        source,
        from: 900,
        to: 901,
        deltas: vec![FactDelta::Insert(Fact::new(SUBJECT, "bogus", Term::Int(1)))],
    };
    let mut doc = Document::new(gap.doc_name(), gap.to_xml().to_xml().into_bytes());
    doc.guid = Key::hash_of_str(&format!("kbdelta/{SUBJECT}"));
    doc.version = 1000; // outrank every legitimate batch
    delta.insert_document(WRITER, doc);
    delta.run_for(SimDuration::from_secs(30));
    delta.prefetch_deltas_everywhere(SUBJECT);
    delta.run_for(SimDuration::from_secs(60));

    let mut digest = FnvHasher::default();
    for (label, a) in [("delta", &delta), ("snap", &snap)] {
        digest.write(a.world().tracer().render().as_bytes());
        let m = a.world().metrics();
        for name in [
            "gloss.kb_ingested",
            "gloss.kb_reingest_skipped",
            "gloss.kb_snapshot_stale",
            "gloss.kb_snapshot_bytes",
            "gloss.kb_delta_applied",
            "gloss.kb_delta_facts",
            "gloss.kb_delta_stale",
            "gloss.kb_delta_fallback",
            "gloss.kb_delta_bytes",
            "sim.messages_delivered",
        ] {
            digest.write(format!("{label}:{name}={}", m.counter(name)).as_bytes());
        }
    }
    let reference = fact_set(&snap, 0);
    assert_eq!(reference.len(), 16, "snapshot-fed node 0 incomplete");
    for n in 0..nodes as u32 {
        let d = fact_set(&delta, n);
        assert_eq!(d, fact_set(&snap, n), "node {n}: delta-fed replica diverged");
        assert_eq!(d, reference, "node {n}: replicas disagree");
        assert!(!d.iter().any(|f| f.starts_with("bogus")), "node {n}: gap batch applied");
        for f in &d {
            digest.write(f.as_bytes());
        }
    }
    let dm = delta.world().metrics();
    assert!(dm.counter("gloss.kb_delta_applied") > 0.0, "no batch applied incrementally");
    assert!(dm.counter("gloss.kb_delta_fallback") > 0.0, "gap batch never forced a fallback");

    let digest = digest.finish();
    let line = format!(
        "mode=kbdelta nodes={nodes} seed={seed} rounds={rounds} applied={} fallback={} \
         delta_bytes={} snapshot_bytes={} digest={digest:016x}",
        dm.counter("gloss.kb_delta_applied"),
        dm.counter("gloss.kb_delta_fallback"),
        dm.counter("gloss.kb_delta_bytes"),
        snap.world().metrics().counter("gloss.kb_snapshot_bytes"),
    );
    line
}

/// Deterministic xorshift content.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s & 0xff) as u8
        })
        .collect()
}

fn first_alive(net: &StoreNetwork) -> NodeIndex {
    (0..net.len() as u32)
        .map(NodeIndex)
        .find(|&i| net.world().is_alive(i))
        .expect("someone survived")
}

/// A store network loses whole regions at once (a correlated
/// machine-room crash taking out at least a quarter of the nodes) and
/// must self-heal — every surviving document back at its tier's
/// redundancy target, every erasure shard re-encoded from survivors, and
/// **zero data loss**: all document bytes and the reconstructed erasure
/// object byte-identical to what was inserted.
///
/// The digest covers repair counters, per-document redundancy and the
/// time-to-redundancy, so the whole repair storm — scan order,
/// token-bucket grants, retry jitter — must be schedule-preserving.
pub fn repair(Args { nodes, seed, .. }: Args) -> String {
    let cfg = StoreConfig {
        replicas: 3,
        heal_interval: SimDuration::from_secs(10),
        ..Default::default()
    };
    let mut net = StoreNetwork::build(nodes, cfg, seed);
    net.settle();

    // A tiered document population plus one erasure-coded object.
    let docs: Vec<Document> = (0..9u64)
        .map(|i| {
            Document::new(format!("smoke-doc-{i}"), fill(1000 + i, 300)).with_priority(
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
    let obj = fill(42, 1200);
    let shard_guids = net.insert_erasure(NodeIndex(0), "smoke-obj", &obj, m, n).unwrap();
    net.run_for(SimDuration::from_secs(60));
    assert_eq!(net.shards_alive("smoke-obj", n), n, "erasure object incompletely placed");

    // Correlated loss: whole regions go dark together until at least a
    // quarter of the network is gone.
    let mut killed = 0usize;
    let mut regions_lost = Vec::new();
    for region in ["us-east", "australia", "europe", "us-west"] {
        if killed * 4 >= nodes {
            break;
        }
        killed += net.crash_region(region);
        regions_lost.push(region);
    }
    assert!(killed * 4 >= nodes, "only {killed}/{nodes} nodes crashed; smoke needs >= 1/4");

    // Additionally wipe every surviving holder of shard 0, so only
    // re-encoding from the other shards can bring it back — the smoke
    // must drive the erasure repair path, not just replica top-up.
    let g0 = shard_guids[0];
    let shard_victims: Vec<NodeIndex> = (0..nodes as u32)
        .map(NodeIndex)
        .filter(|&i| net.world().is_alive(i) && net.world().node(i).store.holds(g0))
        .collect();
    killed += shard_victims.len();
    for v in shard_victims {
        net.crash(v);
    }
    assert_eq!(net.replica_count(g0), 0, "shard 0 should be durably gone");

    // Redundancy targets per tier, judged from any survivor's config.
    let probe = first_alive(&net);
    let targets: Vec<usize> =
        docs.iter().map(|d| net.world().node(probe).store.target_replicas(d.priority)).collect();

    // Poll until every document is back at target and every shard has a
    // durable holder again.
    fn recovered(net: &StoreNetwork, docs: &[Document], targets: &[usize], n: usize) -> bool {
        docs.iter().zip(targets).all(|(d, t)| net.replica_count(d.guid) >= *t)
            && net.shards_alive("smoke-obj", n) == n
    }
    let deadline = 600u64;
    let mut elapsed = 0u64;
    while elapsed < deadline && !recovered(&net, &docs, &targets, n) {
        net.run_for(SimDuration::from_secs(10));
        elapsed += 10;
    }
    assert!(
        recovered(&net, &docs, &targets, n),
        "not back at redundancy {deadline} s after losing {killed} nodes ({regions_lost:?})"
    );
    let time_to_redundancy = elapsed;

    // Zero data loss: every document's bytes and the reconstructed
    // erasure object must match what was inserted.
    let reader = first_alive(&net);
    let doc_reqs: Vec<u64> = docs.iter().map(|d| net.lookup_retrying(reader, d.guid)).collect();
    let shard_reqs = net.lookup_erasure(reader, &shard_guids);
    net.run_for(SimDuration::from_secs(30));
    for (d, req) in docs.iter().zip(&doc_reqs) {
        let got = net
            .result(*req)
            .and_then(|r| r.doc.as_ref())
            .unwrap_or_else(|| panic!("{} lost after the crash", d.name));
        assert_eq!(got.content, d.content, "{} bytes corrupted by repair", d.name);
    }
    let rebuilt =
        net.reconstruct(&shard_reqs, m, n, obj.len()).expect("erasure object unrecoverable");
    assert_eq!(rebuilt, obj, "erasure object bytes corrupted by repair");
    assert!(
        net.counter("store.repair_shards") >= 1.0,
        "shard 0 came back without the erasure repair path firing"
    );

    // Digest: counters, redundancy, shard survival.
    let mut digest = FnvHasher::default();
    for d in &docs {
        digest.write(format!("{}={}", d.name, net.replica_count(d.guid)).as_bytes());
    }
    for (i, g) in shard_guids.iter().enumerate() {
        digest.write(format!("shard{i}={}", net.replica_count(*g)).as_bytes());
    }
    for name in [
        "store.repair_puts",
        "store.repair_bytes",
        "store.repair_shards",
        "store.repair_audits",
        "store.repair_deferred",
        "store.locations_purged",
        "store.lookups_retried",
        "store.lookups_timeout",
        "store.evictions",
        "sim.messages_sent",
    ] {
        digest.write(format!("{name}={}", net.counter(name)).as_bytes());
    }
    digest.write(format!("ttr={time_to_redundancy}").as_bytes());

    let digest = digest.finish();
    let line = format!(
        "repairsmoke ok: nodes={nodes} seed={seed} killed={killed} ttr_s={time_to_redundancy} \
         repair_puts={} repair_shards={} repair_bytes={} retried={} digest={digest:016x}",
        net.counter("store.repair_puts"),
        net.counter("store.repair_shards"),
        net.counter("store.repair_bytes"),
        net.counter("store.lookups_retried"),
    );
    line
}

/// A governed overlay takes a two-region partition with mid-partition
/// casualties, heals, and must re-converge — every node re-joined,
/// routes landing at the key-closest live node — with **zero** evictions
/// at loss 0. The governor's phi-accrual detector is allowed to suspect
/// and quarantine while the cut holds, but evicting a healthy node in a
/// lossless world is a bug this scenario exists to catch.
pub fn partition(Args { nodes, seed, .. }: Args) -> String {
    let mut net = OverlayNetwork::build_with(nodes, seed, Some(GovernorConfig::default()));
    net.settle();
    assert!(net.joined_fraction() > 0.99, "overlay failed to settle before the partition");

    // Cut off two regions (a third of the ring) for 25 seconds, with
    // casualties that crash behind the cut and must re-join through the
    // admission governor after the heal.
    let t0 = net.now() + SimDuration::from_secs(1);
    let heal = t0 + SimDuration::from_secs(25);
    net.world_mut().partition_regions_at(t0, Some(heal), &["us-west", "australia"]);
    let casualties: Vec<NodeIndex> =
        (1..nodes as u32).map(NodeIndex).filter(|x| x.0 % 6 >= 4).take(16).collect();
    for &c in &casualties {
        net.world_mut().crash_at(t0 + SimDuration::from_secs(2), c);
        net.world_mut().recover_at(t0 + SimDuration::from_secs(10), c);
    }
    net.run_for(heal.since(net.now()));

    // Re-convergence: every node (casualties included) back in the ring.
    let mut elapsed = 0u64;
    while elapsed < 120 && net.joined_fraction() < 1.0 {
        net.run_for(SimDuration::from_secs(2));
        elapsed += 2;
    }
    assert!(
        net.joined_fraction() >= 1.0,
        "overlay did not re-converge within 120 s of the heal (joined {:.4})",
        net.joined_fraction()
    );

    // Routes land at the key-closest live node. Quarantines opened
    // during the cut are allowed their cooldown + refutation window, so
    // probe in rounds until a whole batch is correct. Perturbed node
    // keys spread the probes over the whole ring (random hashes cluster
    // under FNV).
    let mut probe_count = 0usize;
    let mut whole = false;
    while elapsed < 240 && !whole {
        let mut batch = Vec::new();
        for j in (0..nodes as u32).step_by(7) {
            let target =
                Key(net.id_of(NodeIndex(j)).key.0 ^ (elapsed as u128 * 131 + j as u128 + 1));
            let from = net.random_node();
            batch.push((net.route_from(from, target), target));
        }
        probe_count = batch.len();
        net.run_for(SimDuration::from_secs(5));
        elapsed += 5;
        let outcomes = net.outcomes();
        whole = batch.iter().all(|(id, t)| {
            outcomes.get(id).is_some_and(|o| o.delivered_at == net.closest_alive(*t))
        });
    }
    assert!(whole, "routes still missing the key-closest live node {elapsed} s after the heal");

    // Zero false evictions: the world is lossless, every silence had a
    // cause (cut or crash) that ended well inside the eviction horizon.
    let evictions = net.world().metrics().counter("overlay.evictions");
    assert_eq!(evictions, 0.0, "evicted a healthy node in a lossless world");

    let line = format!(
        "faultsmoke ok: nodes={nodes} seed={seed} converged_s={elapsed} probes={probe_count} evictions=0"
    );
    line
}

const SUBS: usize = 100_000;
const PUBLISHES: usize = 1_000;
const VERIFIED: usize = 20;

const OPS: [Op; 10] = [
    Op::Eq,
    Op::Ne,
    Op::Lt,
    Op::Le,
    Op::Gt,
    Op::Ge,
    Op::Prefix,
    Op::Suffix,
    Op::Contains,
    Op::Exists,
];

/// Subscription kinds. The last two share one 32-bit FNV-1a hash, so an
/// index that told kinds apart by a hash would confuse them; each must
/// still match only its own filters.
const KINDS: [&str; 6] = ["ctx", "goal", "weather", "alert", "k21608", "k82419"];

fn random_filter(rng: &mut SimRng) -> Filter {
    let mut f = match KINDS.get(rng.index(KINDS.len() + 1)) {
        Some(kind) => Filter::for_kind(*kind),
        None => Filter::any(),
    };
    for _ in 0..1 + rng.index(3) {
        let attr = ["user", "temp", "place", "seq"][rng.index(4)];
        let op = OPS[rng.index(OPS.len())];
        if rng.chance(0.5) {
            f = f.with_constraint(attr, op, rng.index(1000) as i64);
        } else {
            f = f.with_constraint(attr, op, ["st", "st andrews", "dundee", ""][rng.index(4)]);
        }
    }
    f
}

fn random_event(rng: &mut SimRng) -> Event {
    let mut e = Event::new(KINDS.get(rng.index(KINDS.len() + 1)).copied().unwrap_or("other"));
    for _ in 0..rng.index(4) {
        let attr = ["user", "temp", "place", "seq"][rng.index(4)];
        if rng.chance(0.5) {
            e = e.with_attr(attr, rng.index(1000) as i64);
        } else {
            e = e.with_attr(attr, ["st", "st andrews", "dundee", ""][rng.index(4)]);
        }
    }
    e
}

/// Builds a 100 k-subscription counting index with every constraint
/// shape, runs 1 k publishes through it, and spot-verifies a sample of
/// events against the linear scan oracle. Meant to finish in seconds
/// even on one core.
pub fn index(_: Args) -> String {
    let mut rng = SimRng::new(0xb8);
    let subs: Vec<Subscription> = (0..SUBS)
        .map(|i| Subscription { id: i as u64 + 1, filter: random_filter(&mut rng) })
        .collect();

    let t0 = std::time::Instant::now();
    let mut index = FilterIndex::new();
    for s in &subs {
        index.insert(s.clone());
    }
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let events: Vec<Event> = (0..PUBLISHES).map(|_| random_event(&mut rng)).collect();
    let t1 = std::time::Instant::now();
    let mut total_matches = 0usize;
    for e in &events {
        total_matches += index.matching_event(e).len();
    }
    let publish_ms = t1.elapsed().as_secs_f64() * 1e3;

    // Spot-verify a sample against the linear scan.
    let mut mismatches = 0usize;
    let mut colliding = 0usize;
    for k in 0..VERIFIED {
        let e = &events[k * (PUBLISHES / VERIFIED)];
        colliding += usize::from(KINDS[4..].contains(&e.kind()));
        let got = index.matching_event(e);
        let want: Vec<u64> = subs.iter().filter(|s| s.filter.matches(e)).map(|s| s.id).collect();
        if got != want {
            mismatches += 1;
            eprintln!("MISMATCH for {e:?}: indexed {} ids, linear {} ids", got.len(), want.len());
        }
    }

    let line = format!(
        "indexsmoke: {SUBS} subs built in {build_ms:.0} ms, {PUBLISHES} publishes in \
         {publish_ms:.1} ms ({total_matches} matches), {VERIFIED} events verified \
         ({colliding} of a hash-colliding kind), {mismatches} mismatches"
    );
    assert_eq!(mismatches, 0, "{line}");
    assert!(colliding > 0, "no verified event has a hash-colliding kind: {line}");
    line
}
