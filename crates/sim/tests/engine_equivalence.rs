//! Property test: the engine's scheduler is schedule-preserving.
//!
//! `SeedWorld` below transcribes the seed scheduler's shape — one global
//! binary heap of whole entries, control events included, popped in
//! ascending key order one `step` at a time — on top of the engine's
//! canonical semantics (per-link latency streams, FIFO clamping, one
//! activation per same-instant delivery group, crash purging, partitions
//! dropping cross-group sends). Random topologies, loss rates, timers,
//! injections before and between runs, crash/recover schedules, and
//! partitions with heals must produce an identical delivery order
//! (per-node input logs), an identical trace, identical engine counters,
//! and an identical `run_to_quiescence` settle time from the engine (a key
//! heap over a payload slab) and the transcription.

use gloss_sim::{
    link_stream_seed, splitmix64, splitmix_unit, FnvHashMap, Input, Node, NodeIndex, Outbox,
    SimDuration, SimRng, SimTime, Topology, Tracer, World,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// The deterministic protocol driven through both schedulers.
// ---------------------------------------------------------------------------

/// Messages carry `value * 8 + hops`; nodes stop relaying after 3 hops.
#[derive(Debug, Clone)]
struct TNode {
    id: u32,
    n: u32,
    /// Private decision stream (node-local, scheduler-independent).
    decisions: u64,
    /// Timer re-arms left.
    rearms: u32,
    /// Everything this node saw, in order (the per-node schedule).
    log: Vec<String>,
}

impl TNode {
    fn new(id: u32, n: u32) -> Self {
        TNode { id, n, decisions: 0x5eed ^ (id as u64) << 17, rearms: 4, log: Vec::new() }
    }

    fn roll(&mut self) -> u64 {
        splitmix64(&mut self.decisions)
    }
}

impl Node for TNode {
    type Msg = u64;

    fn handle(&mut self, now: SimTime, input: Input<u64>, out: &mut Outbox<u64>) {
        match input {
            Input::Start => {
                self.log.push(format!("{now} start"));
                out.trace("start", format!("n{}", self.id));
                out.timer(SimDuration::from_millis(5 + (self.id as u64 % 13)), 1);
            }
            Input::Timer { tag } => {
                self.log.push(format!("{now} timer {tag}"));
                out.trace("timer", format!("n{} tag{tag}", self.id));
                // Send to one or two pseudo-random peers.
                let r = self.roll();
                let a = (r % self.n as u64) as u32;
                out.send(NodeIndex(a), (r % 97) * 8);
                if r.is_multiple_of(3) {
                    let b = ((r >> 16) % self.n as u64) as u32;
                    out.send(NodeIndex(b), ((r >> 8) % 89) * 8);
                }
                if self.rearms > 0 {
                    self.rearms -= 1;
                    out.timer(SimDuration::from_millis(3 + r % 17), tag + 1);
                }
            }
            Input::Msg { from, msg } => {
                self.log.push(format!("{now} msg {msg} from {from}"));
                out.trace("msg", format!("n{} got {msg} from {from}", self.id));
                out.count("t.msgs", 1.0);
                let hops = msg % 8;
                if hops < 3 {
                    let r = self.roll();
                    // Sometimes reply, sometimes relay; same-activation
                    // fan-out over one link exercises latency sharing.
                    out.send(from, (msg & !7) + hops + 1);
                    if r.is_multiple_of(4) {
                        let c = (r % self.n as u64) as u32;
                        out.send(NodeIndex(c), (msg & !7) + hops + 1);
                        out.send(NodeIndex(c), ((r >> 20) % 83) * 8 + hops + 1);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SeedWorld: one global heap, canonical key order, same link semantics.
// ---------------------------------------------------------------------------

const CLASS_CTRL: u8 = 0;
const CLASS_TIMER: u8 = 1;
const CLASS_LINK: u8 = 2;
const CLASS_HARNESS: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    class: u8,
    a: u64,
    b: u64,
}

#[derive(Debug)]
enum Kind {
    Deliver { from: NodeIndex, to: NodeIndex, msg: u64 },
    Timer { node: NodeIndex, tag: u64 },
    Crash { node: NodeIndex },
    Recover { node: NodeIndex },
    Partition { groups: Vec<u8> },
    Heal,
}

#[derive(Debug)]
struct HeapEntry {
    key: Key,
    kind: Kind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

struct Link {
    last_at: u64,
    nominal: u64,
    jittered: u64,
    last_apply: u64,
    rng: u64,
    seq: u64,
}

/// A transcription of the seed scheduler: one global `BinaryHeap`, popped
/// strictly in ascending canonical key order.
struct SeedWorld {
    topology: Topology,
    nodes: Vec<TNode>,
    alive: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    links: Vec<FnvHashMap<u32, Link>>,
    timer_seq: Vec<u64>,
    harness_seq: u64,
    apply_seq: u64,
    seed: u64,
    now: SimTime,
    rng: SimRng,
    loss: f64,
    partition: Option<Vec<u8>>,
    pub tracer: Tracer,
    started: bool,
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub dropped_dead: u64,
    pub partitioned: u64,
    pub msgs_counter: f64,
    /// Sends the per-link FIFO clamp held back (not an engine counter).
    pub clamped: u64,
}

impl SeedWorld {
    fn new(topology: Topology, seed: u64, nodes: Vec<TNode>) -> Self {
        let n = nodes.len();
        SeedWorld {
            topology,
            nodes,
            alive: vec![true; n],
            heap: BinaryHeap::new(),
            links: (0..n).map(|_| FnvHashMap::default()).collect(),
            timer_seq: vec![0; n],
            harness_seq: 0,
            apply_seq: 0,
            seed,
            now: SimTime::ZERO,
            rng: SimRng::new(seed).fork("world"),
            loss: 0.0,
            partition: None,
            tracer: Tracer::enabled(1 << 20),
            started: false,
            sent: 0,
            delivered: 0,
            lost: 0,
            dropped_dead: 0,
            partitioned: 0,
            msgs_counter: 0.0,
            clamped: 0,
        }
    }

    fn set_loss(&mut self, p: f64) {
        self.loss = p.clamp(0.0, 1.0);
    }

    fn inject(&mut self, from: NodeIndex, to: NodeIndex, msg: u64) {
        let latency = self.topology.sample_latency(from, to, &mut self.rng);
        let at = self.now + latency;
        self.harness_seq += 1;
        let key = Key { at, class: CLASS_HARNESS, a: self.harness_seq, b: 0 };
        self.heap.push(Reverse(HeapEntry { key, kind: Kind::Deliver { from, to, msg } }));
    }

    fn inject_at(&mut self, at: SimTime, from: NodeIndex, to: NodeIndex, msg: u64) {
        self.harness_seq += 1;
        let key = Key { at, class: CLASS_HARNESS, a: self.harness_seq, b: 0 };
        self.heap.push(Reverse(HeapEntry { key, kind: Kind::Deliver { from, to, msg } }));
    }

    fn ctrl_at(&mut self, at: SimTime, kind: Kind) {
        self.harness_seq += 1;
        let key = Key { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.heap.push(Reverse(HeapEntry { key, kind }));
    }

    fn crash(&mut self, node: NodeIndex) {
        self.alive[node.as_usize()] = false;
        self.links[node.as_usize()].clear();
        for senders in &mut self.links {
            senders.remove(&node.0);
        }
    }

    fn recover(&mut self, node: NodeIndex) {
        if !self.alive[node.as_usize()] {
            self.alive[node.as_usize()] = true;
            self.activate_one(node, Input::Start);
        }
    }

    fn start_all(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.alive[i] {
                self.activate_one(NodeIndex(i as u32), Input::Start);
            }
        }
    }

    fn activate_one(&mut self, index: NodeIndex, input: Input<u64>) {
        let mut out = Outbox::new();
        self.nodes[index.as_usize()].handle(self.now, input, &mut out);
        self.apply(index, out);
    }

    /// Hands each message of a same-instant group to `handle`, applying
    /// all effects as one activation (this is what groups one flush's
    /// sends per link).
    fn activate_batch(&mut self, to: NodeIndex, batch: Vec<(NodeIndex, u64)>) {
        let mut out = Outbox::new();
        for (from, msg) in batch {
            self.nodes[to.as_usize()].handle(self.now, Input::Msg { from, msg }, &mut out);
        }
        self.apply(to, out);
    }

    fn apply(&mut self, from: NodeIndex, mut out: Outbox<u64>) {
        self.apply_seq += 1;
        for (to, msg) in out.take_sends() {
            self.send(from, to, msg);
        }
        for (delay, tag) in out.take_timers() {
            let seq = &mut self.timer_seq[from.as_usize()];
            *seq += 1;
            let key = Key { at: self.now + delay, class: CLASS_TIMER, a: from.0 as u64, b: *seq };
            self.heap.push(Reverse(HeapEntry { key, kind: Kind::Timer { node: from, tag } }));
        }
        for (name, by) in out.counts() {
            if name == "t.msgs" {
                self.msgs_counter += by;
            }
        }
        for (kind, detail) in out.traces() {
            self.tracer.record(self.now, from, kind, detail.clone());
        }
    }

    fn send(&mut self, from: NodeIndex, to: NodeIndex, msg: u64) {
        if let Some(groups) = &self.partition {
            if groups[from.as_usize()] != groups[to.as_usize()] {
                self.partitioned += 1;
                return;
            }
        }
        let jitter = self.topology.latency_model().jitter;
        let sender = from.as_usize();
        if !self.links[sender].contains_key(&to.0) {
            let nominal = self.topology.nominal_latency(from, to).as_micros();
            self.links[sender].insert(
                to.0,
                Link {
                    last_at: 0,
                    nominal,
                    jittered: nominal,
                    last_apply: 0,
                    rng: link_stream_seed(self.seed, from, to),
                    seq: 0,
                },
            );
        }
        let ls = self.links[sender].get_mut(&to.0).expect("inserted");
        if ls.last_apply != self.apply_seq {
            ls.last_apply = self.apply_seq;
            ls.jittered = if to == from || jitter <= 0.0 {
                ls.nominal
            } else {
                let factor = 1.0 - jitter + 2.0 * jitter * splitmix_unit(&mut ls.rng);
                (ls.nominal as f64 * factor).round() as u64
            };
        }
        if self.loss > 0.0 && to != from && splitmix_unit(&mut ls.rng) < self.loss {
            self.lost += 1;
            return;
        }
        let mut at = self.now.as_micros() + ls.jittered;
        if at < ls.last_at {
            // A later activation drew a shorter latency on this link.
            at = ls.last_at;
            self.clamped += 1;
        }
        ls.last_at = at;
        ls.seq += 1;
        let key = Key {
            at: SimTime::from_micros(at),
            class: CLASS_LINK,
            a: ((to.0 as u64) << 32) | from.0 as u64,
            b: ls.seq,
        };
        self.sent += 1;
        self.heap.push(Reverse(HeapEntry { key, kind: Kind::Deliver { from, to, msg } }));
    }

    fn step(&mut self) -> bool {
        self.start_all();
        let Some(Reverse(entry)) = self.heap.pop() else {
            return false;
        };
        self.now = entry.key.at;
        match entry.kind {
            Kind::Crash { node } => self.crash(node),
            Kind::Recover { node } => self.recover(node),
            Kind::Partition { groups } => self.partition = Some(groups),
            Kind::Heal => self.partition = None,
            Kind::Timer { node, tag } => {
                if self.alive[node.as_usize()] {
                    self.activate_one(node, Input::Timer { tag });
                }
            }
            Kind::Deliver { from, to, msg } => {
                let mut batch = vec![(from, msg)];
                // Only link deliveries batch (mirrors the engine).
                while let Some(Reverse(next)) = self.heap.peek() {
                    let k = next.key;
                    if k.at != entry.key.at || k.class != CLASS_LINK || (k.a >> 32) as u32 != to.0 {
                        break;
                    }
                    let Some(Reverse(HeapEntry { kind: Kind::Deliver { from, msg, .. }, .. })) =
                        self.heap.pop()
                    else {
                        unreachable!("peeked a link delivery");
                    };
                    batch.push((from, msg));
                }
                if self.alive[to.as_usize()] {
                    self.delivered += batch.len() as u64;
                    self.activate_batch(to, batch);
                } else {
                    self.dropped_dead += batch.len() as u64;
                }
            }
        }
        true
    }

    fn run_until(&mut self, t: SimTime) {
        self.start_all();
        while let Some(Reverse(e)) = self.heap.peek() {
            if e.key.at > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    fn run_to_quiescence(&mut self, limit: SimTime) -> SimTime {
        self.start_all();
        let mut first = true;
        loop {
            if self.heap.peek().is_none() {
                if self.now > limit {
                    self.now = limit;
                    return limit;
                }
                return self.now;
            };
            if !first && self.heap.peek().expect("checked").0.key.at > limit {
                break;
            }
            first = false;
            self.step();
        }
        self.now = limit;
        limit
    }
}

// ---------------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------------

const REGION_POOL: &[&str] =
    &["scotland", "england", "europe", "us-east", "us-west", "brazil", "australia", "asia"];

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    nodes: usize,
    region_names: usize,
    loss_pct: u64,
    injects: u64,
    crashes: u64,
    partitions: u64,
}

/// (trace render, per-node logs, engine counters, settle time).
type Outcome = (String, Vec<String>, (u64, u64, u64, u64, u64, f64), SimTime);

fn scripted_harness(s: &Scenario) -> Outcome {
    let regions: Vec<&str> = REGION_POOL[..s.region_names].to_vec();
    let topology = Topology::random(s.nodes, &regions, s.seed);
    let nodes: Vec<TNode> = (0..s.nodes).map(|i| TNode::new(i as u32, s.nodes as u32)).collect();
    let mut w = World::new(topology, s.seed, nodes);
    w.enable_tracing(1 << 20);
    w.set_loss(s.loss_pct as f64 / 100.0);
    drive(&mut Driver::New(&mut w), s);
    let settle = w.run_to_quiescence(SimTime::from_secs(120));
    let logs = w.nodes().map(|n| n.log.join("\n")).collect();
    let m = w.metrics();
    (
        w.tracer().render(),
        logs,
        (
            m.counter("sim.messages_sent") as u64,
            m.counter("sim.messages_delivered") as u64,
            m.counter("sim.messages_lost") as u64,
            m.counter("sim.messages_dropped_dead") as u64,
            m.counter("sim.messages_partitioned") as u64,
            m.counter("t.msgs"),
        ),
        settle,
    )
}

/// The reference's outcome and how many sends its FIFO clamp held back.
fn scripted_reference(s: &Scenario) -> (Outcome, u64) {
    let regions: Vec<&str> = REGION_POOL[..s.region_names].to_vec();
    let topology = Topology::random(s.nodes, &regions, s.seed);
    let nodes: Vec<TNode> = (0..s.nodes).map(|i| TNode::new(i as u32, s.nodes as u32)).collect();
    let mut w = SeedWorld::new(topology, s.seed, nodes);
    w.set_loss(s.loss_pct as f64 / 100.0);
    drive(&mut Driver::Seed(&mut w), s);
    let settle = w.run_to_quiescence(SimTime::from_secs(120));
    let logs = w.nodes.iter().map(|n| n.log.join("\n")).collect();
    let counters = (w.sent, w.delivered, w.lost, w.dropped_dead, w.partitioned, w.msgs_counter);
    ((w.tracer.render(), logs, counters, settle), w.clamped)
}

/// One harness script issued identically to both schedulers.
enum Driver<'a> {
    New(&'a mut World<TNode>),
    Seed(&'a mut SeedWorld),
}

impl Driver<'_> {
    fn inject(&mut self, from: NodeIndex, to: NodeIndex, msg: u64) {
        match self {
            Driver::New(w) => w.inject(from, to, msg),
            Driver::Seed(w) => w.inject(from, to, msg),
        }
    }
    fn inject_at(&mut self, at: SimTime, from: NodeIndex, to: NodeIndex, msg: u64) {
        match self {
            Driver::New(w) => w.inject_at(at, from, to, msg),
            Driver::Seed(w) => w.inject_at(at, from, to, msg),
        }
    }
    fn crash_at(&mut self, at: SimTime, node: NodeIndex) {
        match self {
            Driver::New(w) => w.crash_at(at, node),
            Driver::Seed(w) => w.ctrl_at(at, Kind::Crash { node }),
        }
    }
    fn recover_at(&mut self, at: SimTime, node: NodeIndex) {
        match self {
            Driver::New(w) => w.recover_at(at, node),
            Driver::Seed(w) => w.ctrl_at(at, Kind::Recover { node }),
        }
    }
    fn partition_at(&mut self, at: SimTime, heal_at: SimTime, groups: Vec<u8>) {
        match self {
            Driver::New(w) => w.partition_at(at, Some(heal_at), groups),
            Driver::Seed(w) => {
                w.ctrl_at(at, Kind::Partition { groups });
                w.ctrl_at(heal_at, Kind::Heal);
            }
        }
    }
    fn run_until(&mut self, t: SimTime) {
        match self {
            Driver::New(w) => w.run_until(t),
            Driver::Seed(w) => w.run_until(t),
        }
    }
}

fn drive(d: &mut Driver<'_>, s: &Scenario) {
    let n = s.nodes as u64;
    let mut r = s.seed ^ 0xfeed_beef;
    for _ in 0..s.injects {
        let x = splitmix64(&mut r);
        d.inject(
            NodeIndex((x % n) as u32),
            NodeIndex(((x >> 16) % n) as u32),
            ((x >> 32) % 71) * 8,
        );
    }
    // Crash/recover schedule.
    for _ in 0..s.crashes {
        let x = splitmix64(&mut r);
        let victim = NodeIndex((x % n) as u32);
        let at = SimTime::from_millis(5 + x % 200);
        d.crash_at(at, victim);
        if x.is_multiple_of(2) {
            d.recover_at(at + SimDuration::from_millis(10 + (x >> 8) % 300), victim);
        }
    }
    // Partitions: a random bipartition, healed later (possibly at the
    // instant of another control event or after the run's end).
    for _ in 0..s.partitions {
        let x = splitmix64(&mut r);
        let groups = (0..n).map(|i| ((x >> (i % 64)) & 1) as u8).collect();
        let at = SimTime::from_millis(5 + x % 250);
        d.partition_at(at, at + SimDuration::from_millis((x >> 8) % 400), groups);
    }
    // Run in phases with harness activity between them.
    d.run_until(SimTime::from_millis(40));
    for _ in 0..s.injects / 2 {
        let x = splitmix64(&mut r);
        d.inject(
            NodeIndex((x % n) as u32),
            NodeIndex(((x >> 16) % n) as u32),
            ((x >> 24) % 61) * 8,
        );
    }
    // Same-instant harness deliveries to one node (batching edge).
    let at = SimTime::from_millis(55);
    d.inject_at(at, NodeIndex(0), NodeIndex((splitmix64(&mut r) % n) as u32), 16);
    d.inject_at(at, NodeIndex(1 % s.nodes as u32), NodeIndex(0), 24);
    d.inject_at(at, NodeIndex(2 % s.nodes as u32), NodeIndex(0), 32);
    d.run_until(SimTime::from_millis(300));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_seed_scheduler(
        seed in 0u64..1_000_000,
        nodes in 2usize..28,
        region_names in 1usize..7,
        loss_pct in 0u64..3, // scaled below to 0%, 40%, 80%
        injects in 0u64..8,
        crashes in 0u64..4,
        partitions in 0u64..3,
    ) {
        let s = Scenario {
            seed,
            nodes,
            region_names,
            loss_pct: loss_pct * 40, // 0%, 40%, 80%
            injects,
            crashes,
            partitions,
        };
        let (trace_a, logs_a, counters_a, settle_a) = scripted_harness(&s);
        let ((trace_b, logs_b, counters_b, settle_b), _) = scripted_reference(&s);
        prop_assert_eq!(&logs_a, &logs_b, "per-node schedules diverged: {:?}", &s);
        prop_assert_eq!(&trace_a, &trace_b, "traces diverged: {:?}", &s);
        prop_assert_eq!(counters_a, counters_b, "counters diverged: {:?}", &s);
        prop_assert_eq!(settle_a, settle_b, "settle time diverged: {:?}", &s);
    }
}

/// Every send carries latency alone, so the per-link FIFO clamp is reached
/// only when a later activation draws a shorter jittered latency on a link
/// than the send before it. The property above cannot tell a clamp the
/// script never reaches from one that works, so the reference counts its
/// hits and this test requires some, on scenarios both schedulers agree on.
#[test]
fn the_script_reaches_the_fifo_clamp() {
    let mut clamped = Vec::new();
    for seed in 0..8 {
        let s = Scenario {
            seed,
            nodes: 12,
            region_names: 4,
            loss_pct: 0,
            injects: 6,
            crashes: 1,
            partitions: 1,
        };
        let (outcome, hits) = scripted_reference(&s);
        assert_eq!(scripted_harness(&s), outcome, "schedulers diverged: {s:?}");
        clamped.push(hits);
    }
    assert!(clamped.iter().sum::<u64>() > 0, "no send was clamped: {clamped:?}");
}
