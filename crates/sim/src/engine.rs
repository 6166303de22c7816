//! The discrete-event engine: a [`World`] drives a set of sans-IO [`Node`]
//! state machines, owning time, message latency, loss, and failures.
//!
//! Nodes never perform IO or read clocks; they receive [`Input`]s and write
//! sends, timers, and measurements into an [`Outbox`]. This makes every
//! protocol in the workspace unit-testable without a simulator and keeps
//! whole-system runs deterministic.
//!
//! # Scheduler architecture
//!
//! The event plane is one queue, drained on the calling thread:
//!
//! - **One key heap.** Every pending event — message, timer, and harness
//!   control event alike — sits in one binary heap of `(EvKey, slot)`
//!   pairs; the payloads live in a slab indexed by slot, so a sift moves a
//!   key, never a message, and freed slots are reused.
//! - **Control events in line.** Crashes, recoveries, partitions and heals
//!   have the lowest event class, so they apply before every other event
//!   at their instant. Node-emitted counters are pre-summed per name and
//!   reach the registry just before each control event applies and when a
//!   step or a run ends.
//! - **Canonical event keys.** Every entry carries an `EvKey` that is a
//!   pure function of *what* the event is (link + per-link sequence, node +
//!   per-node timer sequence, harness call order) rather than of push
//!   order: same seed, same trace. The `engine_equivalence` integration
//!   test checks the engine against a transcription of the seed
//!   scheduler.
//! - **Per-link state.** A flat FNV map per sender caches the jitter-free
//!   latency of each link (the haversine distance is computed once, not per
//!   message), carries the link's deterministic jitter/loss stream, and
//!   enforces FIFO ordering (links model TCP/web-service connections).
//!   Link state is purged when either endpoint crashes, so churn-heavy
//!   runs do not grow memory without bound.
//! - **Batched delivery.** Messages sent over one link by one activation
//!   share a sampled latency and land at the same instant; all messages
//!   arriving at one node at the same instant are handed over as a single
//!   [`Node::on_batch`] call (default: per-message fallback), letting
//!   broker fan-out and matchlet dispatch amortise per-event overhead.
//!
//! # Embedding
//!
//! A node embeds another state machine with its own message type (the
//! storage layer wraps the overlay, the integrated node wraps a broker
//! and a storelet) through [`Outbox::nested`]. The inner machine shares
//! the host's outbox for everything but sends. Its sends go to a buffer
//! the host owns and lends on every call, and are drained into the
//! host's sends afterwards. A host that keeps one such buffer per
//! embedded machine allocates nothing per call once that buffer has
//! grown to its working size.

use crate::hash::{splitmix64, splitmix_unit, FnvHashMap};
use crate::metrics::{CounterId, MetricsRegistry};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeIndex, Topology};
use crate::trace::Tracer;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An input delivered to a node by the engine.
#[derive(Debug, Clone)]
pub enum Input<M> {
    /// The node is starting (at world start, or after recovering from a
    /// crash). Crash recovery delivers `Start` again; nodes must treat it
    /// as a cold boot and reschedule their timers.
    Start,
    /// A message from another node (or injected externally).
    Msg {
        /// The sending node.
        from: NodeIndex,
        /// The message payload.
        msg: M,
    },
    /// A timer previously requested via [`Outbox::timer`] has fired.
    ///
    /// Timers cannot be cancelled; nodes should ignore stale tags.
    Timer {
        /// The tag passed to [`Outbox::timer`].
        tag: u64,
    },
}

/// Collects the effects of one node activation: sends, timers, trace and
/// metric observations.
///
/// Metric and trace names are `Cow<'static, str>`: the common case — a
/// string literal — is recorded without allocating, keeping per-event
/// accounting off the allocator in the simulator's hot loop.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) sends: Vec<(NodeIndex, M, SimDuration)>,
    pub(crate) timers: Vec<(SimDuration, u64)>,
    pub(crate) counts: Vec<(Cow<'static, str>, f64)>,
    pub(crate) observations: Vec<(Cow<'static, str>, f64)>,
    pub(crate) traces: Vec<(Cow<'static, str>, String)>,
    /// Whether trace events are kept. A [`World`] clears this on the
    /// outbox it hands to nodes while its tracer is disabled, so trace
    /// calls cost nothing then; a standalone outbox keeps everything.
    pub(crate) tracing: bool,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            timers: Vec::new(),
            counts: Vec::new(),
            observations: Vec::new(),
            traces: Vec::new(),
            tracing: true,
        }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox. Mostly useful in unit tests that drive a
    /// state machine without a [`World`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends `msg` to `to`; the engine adds network latency.
    pub fn send(&mut self, to: NodeIndex, msg: M) {
        self.sends.push((to, msg, SimDuration::ZERO));
    }

    /// Sends `msg` to `to` after an extra local processing delay, on top of
    /// network latency.
    pub fn send_after(&mut self, to: NodeIndex, msg: M, delay: SimDuration) {
        self.sends.push((to, msg, delay));
    }

    /// Requests a timer that fires after `delay` with the given `tag`.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// Increments the named world counter by `by`.
    pub fn count(&mut self, name: impl Into<Cow<'static, str>>, by: f64) {
        self.counts.push((name.into(), by));
    }

    /// Records a sample in the named world histogram.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.observations.push((name.into(), value));
    }

    /// Records a trace event (kept only when the world's tracer is enabled).
    pub fn trace(&mut self, kind: impl Into<Cow<'static, str>>, detail: impl Into<String>) {
        self.trace_with(kind, || detail.into());
    }

    /// Records a trace event whose detail is rendered by `detail`, which
    /// runs only when the event is kept: the form for hot paths, where
    /// formatting a detail nobody reads is the whole cost of the call.
    pub fn trace_with(
        &mut self,
        kind: impl Into<Cow<'static, str>>,
        detail: impl FnOnce() -> String,
    ) {
        if self.tracing {
            self.traces.push((kind.into(), detail()));
        }
    }

    /// The messages queued so far, for tests that drive state machines
    /// directly: `(destination, message, extra delay)`.
    pub fn sends(&self) -> &[(NodeIndex, M, SimDuration)] {
        &self.sends
    }

    /// The timers requested so far: `(delay, tag)`.
    pub fn timers(&self) -> &[(SimDuration, u64)] {
        &self.timers
    }

    /// The counter increments recorded so far.
    pub fn counts(&self) -> &[(Cow<'static, str>, f64)] {
        &self.counts
    }

    /// The histogram observations recorded so far.
    pub fn observations(&self) -> &[(Cow<'static, str>, f64)] {
        &self.observations
    }

    /// The trace events recorded so far.
    pub fn traces(&self) -> &[(Cow<'static, str>, String)] {
        &self.traces
    }

    /// Removes and returns all queued sends.
    pub fn take_sends(&mut self) -> Vec<(NodeIndex, M, SimDuration)> {
        std::mem::take(&mut self.sends)
    }

    /// Removes and returns all queued timers.
    pub fn take_timers(&mut self) -> Vec<(SimDuration, u64)> {
        std::mem::take(&mut self.timers)
    }

    /// Runs `f` against an outbox of an embedded state machine's message
    /// type `I` and returns what `f` returns.
    ///
    /// This lets a node embed an inner state machine with its own message
    /// type (e.g. the storage layer wrapping the overlay). The inner
    /// outbox *is* this one for everything but sends: timers, counts,
    /// observations and traces land directly in this outbox's vectors,
    /// behind whatever the host recorded before the call, and the inner
    /// machine sees the host's tracing switch. Its sends go to `spare`, a
    /// buffer the host owns and passes on every call; after the call they
    /// are drained into this outbox's sends, each converted with `wrap`,
    /// and `spare` is handed back empty with its capacity kept. A host
    /// that keeps one spare buffer per embedded machine therefore
    /// allocates for inner sends only while that buffer is still growing.
    pub fn nested<I, R>(
        &mut self,
        spare: &mut Vec<(NodeIndex, I, SimDuration)>,
        wrap: impl Fn(I) -> M,
        f: impl FnOnce(&mut Outbox<I>) -> R,
    ) -> R {
        debug_assert!(spare.is_empty(), "a spare send buffer comes back drained");
        let mut inner = Outbox {
            sends: std::mem::take(spare),
            timers: std::mem::take(&mut self.timers),
            counts: std::mem::take(&mut self.counts),
            observations: std::mem::take(&mut self.observations),
            traces: std::mem::take(&mut self.traces),
            tracing: self.tracing,
        };
        let result = f(&mut inner);
        self.timers = inner.timers;
        self.counts = inner.counts;
        self.observations = inner.observations;
        self.traces = inner.traces;
        self.sends.extend(inner.sends.drain(..).map(|(to, msg, delay)| (to, wrap(msg), delay)));
        *spare = inner.sends;
        result
    }
}

/// All messages arriving at one node at one instant, drained in canonical
/// delivery order (per-link FIFO order is preserved).
///
/// Handed to [`Node::on_batch`]; any messages left undrained when the
/// handler returns are discarded.
#[derive(Debug)]
pub struct Batch<'a, M> {
    inner: std::vec::Drain<'a, (NodeIndex, M)>,
}

impl<M> Iterator for Batch<'_, M> {
    type Item = (NodeIndex, M);

    fn next(&mut self) -> Option<(NodeIndex, M)> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<M> ExactSizeIterator for Batch<'_, M> {}

/// A sans-IO node state machine driven by a [`World`].
pub trait Node {
    /// The message type exchanged between nodes of this world.
    type Msg;

    /// Handles one input, writing any effects to `out`.
    fn handle(&mut self, now: SimTime, input: Input<Self::Msg>, out: &mut Outbox<Self::Msg>);

    /// Handles every message arriving at this node at the same instant.
    ///
    /// The engine groups same-instant deliveries (e.g. a broker's fan-out
    /// flushed over one connection) into one call so implementations can
    /// amortise per-event overhead. The default forwards each message to
    /// [`handle`](Node::handle), so state machines that don't care about
    /// batching need not implement it.
    fn on_batch(
        &mut self,
        now: SimTime,
        batch: &mut Batch<'_, Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) {
        for (from, msg) in batch {
            self.handle(now, Input::Msg { from, msg }, out);
        }
    }
}

/// Event classes, ordered at equal timestamps: control (crash/recover)
/// first, then timers, then link deliveries, then harness injections.
const CLASS_CTRL: u8 = 0;
const CLASS_TIMER: u8 = 1;
const CLASS_LINK: u8 = 2;
const CLASS_HARNESS: u8 = 3;

/// Canonical event key: a total order over pending events that is a pure
/// function of what the event *is*, not of scheduler internals.
///
/// - control events: `a` = harness call sequence;
/// - timers: `a` = node, `b` = that node's timer sequence;
/// - link deliveries: `a` = `(to << 32) | from` (destination-major, so
///   same-instant deliveries to one node are contiguous and batch), `b` =
///   the link's message sequence;
/// - harness injections: `a` = harness call sequence.
///
/// Because each component is derived from deterministic per-node /
/// per-link / per-harness-call counters, the induced order — and therefore
/// the trace — depends on the seed and the harness script alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: SimTime,
    class: u8,
    a: u64,
    b: u64,
}

/// What a scheduled control event does when it comes due.
#[derive(Debug, Clone, Copy)]
enum CtrlAction {
    Crash,
    Recover,
    /// Install the partition spec at this index in `World::partition_specs`.
    Partition(u32),
    /// Remove the active partition.
    Heal,
}

/// A queued event's payload. `Ctrl` is a crash, recovery, partition, or
/// heal scheduled by the harness.
#[derive(Debug)]
enum EntryKind<M> {
    Deliver { from: NodeIndex, to: NodeIndex, msg: M },
    Timer { node: NodeIndex, tag: u64 },
    Ctrl { node: NodeIndex, action: CtrlAction },
}

/// Every pending event: a binary heap of `(key, slot)` pairs over a slab
/// of payloads. A sift moves a key and a slot index, never a message;
/// popped slots go on a free list and are reused. Pops come out in
/// ascending [`EvKey`] order.
#[derive(Debug)]
struct Queue<M> {
    keys: BinaryHeap<Reverse<(EvKey, u32)>>,
    slab: Vec<Option<EntryKind<M>>>,
    free: Vec<u32>,
}

impl<M> Queue<M> {
    fn new() -> Self {
        Queue { keys: BinaryHeap::new(), slab: Vec::new(), free: Vec::new() }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, key: EvKey, kind: EntryKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.keys.push(Reverse((key, slot)));
    }

    fn peek(&self) -> Option<EvKey> {
        self.keys.peek().map(|Reverse((key, _))| *key)
    }

    fn pop(&mut self) -> Option<(EvKey, EntryKind<M>)> {
        let Reverse((key, slot)) = self.keys.pop()?;
        self.free.push(slot);
        let kind = self.slab[slot as usize].take().expect("a queued slot holds its entry");
        Some((key, kind))
    }
}

/// Per-link connection state: FIFO ordering, the cached jitter-free
/// latency, and the link's private jitter/loss randomness stream.
///
/// Keyed by destination in a per-sender FNV map, and purged when either
/// endpoint crashes (connections reset; memory is reclaimed).
#[derive(Debug, Clone, Copy)]
struct LinkState {
    /// Scheduled delivery time (µs) of the last message on this link.
    last_at: u64,
    /// Cached jitter-free latency (µs); the haversine runs once per link.
    nominal: u64,
    /// The latency (µs) sampled for the current activation's flush.
    jittered: u64,
    /// Activation id that sampled `jittered`; messages flushed by one
    /// activation over one link share a latency (one TCP segment train).
    last_apply: u64,
    /// splitmix64 state: an order-independent per-link randomness stream.
    rng: u64,
    /// Messages scheduled on this link (canonical tie-break component).
    seq: u64,
}

/// The per-link randomness stream seed: a pure function of the world seed
/// and the link endpoints, so a link draws the same jitter/loss sequence
/// regardless of how activity on other links interleaves. Public so
/// scheduler-equivalence tests can transcribe the engine's sampling.
pub fn link_stream_seed(world_seed: u64, from: NodeIndex, to: NodeIndex) -> u64 {
    let pack = ((from.0 as u64) << 32) | to.0 as u64;
    let mut s = world_seed ^ pack.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// Slots of the pre-registered hot engine counters in
/// `World::engine_ids`.
const EC_SENT: usize = 0;
const EC_DELIVERED: usize = 1;
const EC_DROPPED_DEAD: usize = 2;
const EC_LOST: usize = 3;
const EC_BAD_DESTINATION: usize = 4;
const EC_BATCHES: usize = 5;
const EC_BATCHED: usize = 6;
const EC_PARTITIONED: usize = 7;
const ENGINE_COUNTERS: usize = 8;

/// Directed-link key for the fault map.
#[inline]
fn link_key(from: NodeIndex, to: NodeIndex) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// The simulation driver: a topology, one state machine per node, and
/// one event queue popped in canonical key order.
///
/// See the [crate docs](crate) for a complete example and the
/// [module docs](self) for the scheduler architecture.
pub struct World<N: Node> {
    topology: Topology,
    /// The node state machines, by node index.
    nodes: Vec<N>,
    alive: Vec<bool>,
    /// Per-sender link state, by node index; purged on crash.
    links: Vec<FnvHashMap<u32, LinkState>>,
    /// Per-node timer sequence numbers (canonical tie-break component).
    timer_seq: Vec<u64>,
    queue: Queue<N::Msg>,
    /// Partition group vectors referenced by scheduled
    /// [`CtrlAction::Partition`] events.
    partition_specs: Vec<Vec<u8>>,
    /// Active partition: the group id of each node. Messages between
    /// different groups are dropped at send time. `None` = fully
    /// connected.
    partition: Option<Vec<u8>>,
    /// Orders harness calls (injects, crashes, recoveries).
    harness_seq: u64,
    /// Activation counter; groups one activation's sends per link for
    /// latency sharing.
    apply_seq: u64,
    now: SimTime,
    seed: u64,
    rng: SimRng,
    loss: f64,
    /// Harness-installed loss probability per directed link, overriding
    /// the world's uniform loss there (empty in the common case; the hot
    /// path checks `is_empty` before hashing). Like [`LinkState`], purged
    /// when either endpoint crashes (a restarted node gets fresh links).
    link_faults: FnvHashMap<u64, f64>,
    /// Cached latency-model jitter fraction.
    jitter: f64,
    /// Reusable same-instant delivery buffer.
    batch: Vec<(NodeIndex, N::Msg)>,
    /// Reusable activation outbox (capacity persists across activations).
    scratch: Outbox<N::Msg>,
    metrics: MetricsRegistry,
    /// Registry handles for the hot engine counters, in slot order.
    engine_ids: [CounterId; ENGINE_COUNTERS],
    /// Node-emitted counter increments, pre-summed per name (bounded by
    /// the distinct-name count, not the event count) and added to the
    /// registry, names sorted, before a control event applies and when a
    /// step or a run ends.
    counts: FnvHashMap<Cow<'static, str>, f64>,
    tracer: Tracer,
    started: bool,
}

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

impl<N: Node> World<N> {
    /// Creates a world over `topology` with one state machine per node,
    /// all scheduled through one event queue.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn new(topology: Topology, seed: u64, nodes: Vec<N>) -> Self {
        assert_eq!(topology.len(), nodes.len(), "one state machine per topology node");
        let n = nodes.len();
        let jitter = topology.latency_model().jitter;
        let mut metrics = MetricsRegistry::new();
        let engine_ids = [
            metrics.register_counter("sim.messages_sent"),
            metrics.register_counter("sim.messages_delivered"),
            metrics.register_counter("sim.messages_dropped_dead"),
            metrics.register_counter("sim.messages_lost"),
            metrics.register_counter("sim.bad_destination"),
            metrics.register_counter("sim.batches"),
            metrics.register_counter("sim.batched_messages"),
            metrics.register_counter("sim.messages_partitioned"),
        ];
        World {
            topology,
            nodes,
            alive: vec![true; n],
            links: (0..n).map(|_| FnvHashMap::default()).collect(),
            timer_seq: vec![0; n],
            queue: Queue::new(),
            partition_specs: Vec::new(),
            partition: None,
            harness_seq: 0,
            apply_seq: 0,
            now: SimTime::ZERO,
            seed,
            rng: SimRng::new(seed).fork("world"),
            loss: 0.0,
            link_faults: FnvHashMap::default(),
            jitter,
            batch: Vec::new(),
            scratch: Outbox { tracing: false, ..Outbox::new() },
            metrics,
            engine_ids,
            counts: FnvHashMap::default(),
            tracer: Tracer::disabled(),
            started: false,
        }
    }

    /// Has no effect: the world always runs on the calling thread.
    ///
    /// Kept only because the end-to-end benchmark's sources
    /// (`crates/bench/src/bin/e2e/`), which change only together with the
    /// benchmark, still call it. The next change to the benchmark deletes
    /// those calls and this method with them.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Live per-link connection-state entries (bounded by churn purging;
    /// see the link-state leak regression test).
    pub fn link_state_count(&self) -> usize {
        self.links.iter().map(FnvHashMap::len).sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, index: NodeIndex) -> &N {
        &self.nodes[index.as_usize()]
    }

    /// Mutable access to a node's state machine (for test setup and for
    /// client APIs layered above the world).
    pub fn node_mut(&mut self, index: NodeIndex) -> &mut N {
        &mut self.nodes[index.as_usize()]
    }

    /// Iterates over all node state machines in global index order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeIndex) -> bool {
        self.alive[node.as_usize()]
    }

    /// Sets the independent per-message loss probability (ignores loopback).
    pub fn set_loss(&mut self, p: f64) {
        self.loss = p.clamp(0.0, 1.0);
    }

    /// Overrides the loss probability on the directed link `from → to`,
    /// shadowing the world-level loss for that link only. A harness-level
    /// call: apply it between runs, like [`set_loss`](Self::set_loss).
    pub fn set_link_loss(&mut self, from: NodeIndex, to: NodeIndex, p: f64) {
        self.link_faults.insert(link_key(from, to), p.clamp(0.0, 1.0));
    }

    /// Schedules a network partition at `at`: nodes with different group
    /// ids in `groups` cannot exchange messages while the partition is
    /// active (sends are dropped and counted as `sim.messages_partitioned`).
    /// If `heal_at` is given, the partition heals at that time; otherwise
    /// it lasts until [`heal_at`](Self::heal_at) or forever. Partitions
    /// apply as control events, ordered before every other event at their
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len()` differs from the node count, if `at` is in
    /// the past, or if `heal_at` precedes `at`.
    pub fn partition_at(&mut self, at: SimTime, heal_at: Option<SimTime>, groups: Vec<u8>) {
        assert_eq!(groups.len(), self.nodes.len(), "one group id per node");
        let idx = self.partition_specs.len() as u32;
        self.push_ctrl(at, NodeIndex(0), CtrlAction::Partition(idx));
        self.partition_specs.push(groups);
        if let Some(heal) = heal_at {
            assert!(heal >= at, "heal precedes partition");
            self.heal_at(heal);
        }
    }

    /// Schedules a partition that isolates the named topology regions
    /// from the rest of the world (convenience over
    /// [`partition_at`](Self::partition_at)).
    pub fn partition_regions_at(
        &mut self,
        at: SimTime,
        heal_at: Option<SimTime>,
        regions: &[&str],
    ) {
        let groups = self
            .topology
            .iter()
            .map(|info| u8::from(regions.contains(&info.region.as_str())))
            .collect();
        self.partition_at(at, heal_at, groups);
    }

    /// Schedules the active partition (if any at that time) to heal at
    /// `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.push_ctrl(at, NodeIndex(0), CtrlAction::Heal);
    }

    /// Whether a partition is currently active.
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Enables trace collection (with a maximum retained event count).
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
        self.scratch.tracing = true;
    }

    /// The collected trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// World-level metrics (message counts plus anything nodes observed).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Delivers `Start` to every alive node at the current time. Called
    /// implicitly by the run methods if not called explicitly.
    pub fn start_all(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.alive[i] {
                self.activate(NodeIndex(i as u32), Input::Start);
                self.flush_counts();
            }
        }
    }

    fn push_harness_deliver(&mut self, at: SimTime, from: NodeIndex, to: NodeIndex, msg: N::Msg) {
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_HARNESS, a: self.harness_seq, b: 0 };
        self.queue.push(key, EntryKind::Deliver { from, to, msg });
    }

    /// Schedules a control event at `at`; control events at one instant
    /// apply in harness call order, before every other event there.
    fn push_ctrl(&mut self, at: SimTime, node: NodeIndex, action: CtrlAction) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.queue.push(key, EntryKind::Ctrl { node, action });
    }

    /// Injects a message from `from` to `to`, subject to normal latency.
    pub fn inject(&mut self, from: NodeIndex, to: NodeIndex, msg: N::Msg) {
        let latency = self.topology.sample_latency(from, to, &mut self.rng);
        let at = self.now + latency;
        self.push_harness_deliver(at, from, to, msg);
    }

    /// Schedules a message to arrive at `to` at the absolute time `at`.
    ///
    /// Used by workload generators that precompute event streams.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_at(&mut self, at: SimTime, from: NodeIndex, to: NodeIndex, msg: N::Msg) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push_harness_deliver(at, from, to, msg);
    }

    /// Schedules a crash of `node` at time `at`. In-flight messages already
    /// addressed to it are dropped on delivery; its timers are discarded.
    pub fn crash_at(&mut self, at: SimTime, node: NodeIndex) {
        self.push_ctrl(at, node, CtrlAction::Crash);
    }

    /// Schedules a recovery of `node` at time `at`; the node receives
    /// [`Input::Start`] when it recovers.
    pub fn recover_at(&mut self, at: SimTime, node: NodeIndex) {
        self.push_ctrl(at, node, CtrlAction::Recover);
    }

    /// Crashes `node` immediately, resetting its link connection state
    /// (both outbound and inbound entries are reclaimed).
    pub fn crash(&mut self, node: NodeIndex) {
        self.alive[node.as_usize()] = false;
        self.metrics.inc("sim.crashes", 1.0);
        self.links[node.as_usize()].clear();
        for senders in &mut self.links {
            senders.remove(&node.0);
        }
        if !self.link_faults.is_empty() {
            // Link faults model conditions of the *connection*; a restarted
            // node gets fresh links, so purge faults like link state.
            let n = node.0 as u64;
            self.link_faults.retain(|k, _| (k >> 32) != n && (k & 0xffff_ffff) != n);
        }
    }

    /// Recovers `node` immediately, delivering [`Input::Start`].
    pub fn recover(&mut self, node: NodeIndex) {
        if !self.alive[node.as_usize()] {
            self.alive[node.as_usize()] = true;
            self.metrics.inc("sim.recoveries", 1.0);
            self.activate(node, Input::Start);
            self.flush_counts();
        }
    }

    /// Adds the pre-summed node counters to the registry, names sorted.
    fn flush_counts(&mut self) {
        if !self.counts.is_empty() {
            let mut counts: Vec<(Cow<'static, str>, f64)> = self.counts.drain().collect();
            counts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (name, by) in counts {
                self.metrics.inc(&name, by);
            }
        }
    }

    /// Processes the next queued event — a crash/recovery, a timer, or a
    /// same-instant delivery batch. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.start_all();
        let Some((key, kind)) = self.queue.pop() else {
            return false;
        };
        self.process(key, kind);
        self.flush_counts();
        true
    }

    /// Handles one popped entry at its time: a control event, a timer, or
    /// a link delivery together with the rest of its same-instant batch.
    fn process(&mut self, key: EvKey, kind: EntryKind<N::Msg>) {
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        match kind {
            EntryKind::Ctrl { node, action } => {
                // Node counters reach the registry before global state
                // changes: these are a run's only mid-run flush points.
                self.flush_counts();
                match action {
                    CtrlAction::Crash => self.crash(node),
                    CtrlAction::Recover => self.recover(node),
                    CtrlAction::Partition(idx) => {
                        self.partition = Some(self.partition_specs[idx as usize].clone());
                        self.metrics.inc("sim.partitions", 1.0);
                    }
                    CtrlAction::Heal => {
                        if self.partition.take().is_some() {
                            self.metrics.inc("sim.heals", 1.0);
                        }
                    }
                }
            }
            EntryKind::Timer { node, tag } => {
                if self.alive[node.as_usize()] {
                    self.activate(node, Input::Timer { tag });
                }
            }
            EntryKind::Deliver { from, to, msg } => {
                debug_assert!(self.batch.is_empty());
                self.batch.push((from, msg));
                // Gather the rest of the same-instant batch for `to`. Only
                // link deliveries batch: their destination-major keys make
                // same-instant arrivals at one node contiguous in the key
                // order (harness injections are keyed by call order and
                // deliver singly; control events sort first at an instant).
                while let Some(h) = self.queue.peek() {
                    if h.at != key.at || h.class != CLASS_LINK || (h.a >> 32) as u32 != to.0 {
                        break;
                    }
                    let Some((_, EntryKind::Deliver { from, msg, .. })) = self.queue.pop() else {
                        unreachable!("class-checked Deliver above");
                    };
                    self.batch.push((from, msg));
                }
                let n = self.batch.len() as f64;
                if self.alive[to.as_usize()] {
                    self.metrics.add(self.engine_ids[EC_DELIVERED], n);
                    if self.batch.len() > 1 {
                        self.metrics.add(self.engine_ids[EC_BATCHES], 1.0);
                        self.metrics.add(self.engine_ids[EC_BATCHED], n);
                    }
                    self.activate_batch(to);
                } else {
                    self.metrics.add(self.engine_ids[EC_DROPPED_DEAD], n);
                    self.batch.clear();
                }
            }
        }
    }

    /// Runs one node activation for a single input.
    fn activate(&mut self, node: NodeIndex, input: Input<N::Msg>) {
        self.apply_seq += 1;
        self.nodes[node.as_usize()].handle(self.now, input, &mut self.scratch);
        self.apply_effects(node);
    }

    /// Runs one node activation for the gathered same-instant batch.
    fn activate_batch(&mut self, to: NodeIndex) {
        self.apply_seq += 1;
        let mut batch = Batch { inner: self.batch.drain(..) };
        self.nodes[to.as_usize()].on_batch(self.now, &mut batch, &mut self.scratch);
        drop(batch);
        self.apply_effects(to);
    }

    /// Drains the scratch outbox of one activation into the schedule, the
    /// metrics and the trace, preserving the outbox's capacity.
    fn apply_effects(&mut self, from: NodeIndex) {
        if !self.scratch.sends.is_empty() {
            let mut sends = std::mem::take(&mut self.scratch.sends);
            for (to, msg, extra) in sends.drain(..) {
                self.dispatch_send(from, to, msg, extra);
            }
            self.scratch.sends = sends;
        }
        if !self.scratch.timers.is_empty() {
            let mut timers = std::mem::take(&mut self.scratch.timers);
            for (delay, tag) in timers.drain(..) {
                self.timer_seq[from.as_usize()] += 1;
                let key = EvKey {
                    at: self.now + delay,
                    class: CLASS_TIMER,
                    a: from.0 as u64,
                    b: self.timer_seq[from.as_usize()],
                };
                self.queue.push(key, EntryKind::Timer { node: from, tag });
            }
            self.scratch.timers = timers;
        }
        for (name, by) in self.scratch.counts.drain(..) {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
        for (name, v) in self.scratch.observations.drain(..) {
            self.metrics.observe(&name, v);
        }
        // Non-empty only while tracing: the scratch outbox drops traces at
        // the call otherwise.
        for (kind, detail) in self.scratch.traces.drain(..) {
            self.tracer.record(self.now, from, &kind, detail);
        }
    }

    /// Schedules one send: latency sampling (shared per activation and
    /// link), loss, and FIFO clamping.
    fn dispatch_send(&mut self, from: NodeIndex, to: NodeIndex, msg: N::Msg, extra: SimDuration) {
        if to.as_usize() >= self.nodes.len() {
            self.metrics.add(self.engine_ids[EC_BAD_DESTINATION], 1.0);
            return;
        }
        if let Some(groups) = &self.partition {
            if groups[from.as_usize()] != groups[to.as_usize()] {
                self.metrics.add(self.engine_ids[EC_PARTITIONED], 1.0);
                return;
            }
        }
        let (topology, seed) = (&self.topology, self.seed);
        let ls = self.links[from.as_usize()].entry(to.0).or_insert_with(|| {
            let nominal = topology.nominal_latency(from, to).as_micros();
            LinkState {
                last_at: 0,
                nominal,
                jittered: nominal,
                last_apply: 0,
                rng: link_stream_seed(seed, from, to),
                seq: 0,
            }
        });
        if ls.last_apply != self.apply_seq {
            // First message of this activation on this link: sample the
            // connection's latency once; the rest of the flush shares it.
            ls.last_apply = self.apply_seq;
            ls.jittered = if to == from || self.jitter <= 0.0 {
                ls.nominal
            } else {
                let factor = 1.0 - self.jitter + 2.0 * self.jitter * splitmix_unit(&mut ls.rng);
                (ls.nominal as f64 * factor).round() as u64
            };
        }
        let loss = if self.link_faults.is_empty() {
            self.loss
        } else {
            self.link_faults.get(&link_key(from, to)).copied().unwrap_or(self.loss)
        };
        if loss > 0.0 && to != from && splitmix_unit(&mut ls.rng) < loss {
            self.metrics.add(self.engine_ids[EC_LOST], 1.0);
            return;
        }
        // Per-link FIFO: links are connection-oriented (the architecture's
        // web-service interfaces run over TCP); equal times are allowed
        // and preserve send order via the link sequence number.
        let mut at = self.now.as_micros() + ls.jittered + extra.as_micros();
        if at < ls.last_at {
            at = ls.last_at;
        }
        ls.last_at = at;
        ls.seq += 1;
        let key = EvKey {
            at: SimTime::from_micros(at),
            class: CLASS_LINK,
            a: ((to.0 as u64) << 32) | from.0 as u64,
            b: ls.seq,
        };
        self.metrics.add(self.engine_ids[EC_SENT], 1.0);
        self.queue.push(key, EntryKind::Deliver { from, to, msg });
    }

    /// Runs until the queue is empty or simulated time reaches `t`;
    /// afterwards `now()` is at least `t`.
    ///
    /// Pops the queue in key order. Node counters reach the registry
    /// before each control event (crash, recovery, partition, heal) and
    /// when the run ends.
    pub fn run_until(&mut self, t: SimTime) {
        self.start_all();
        while self.queue.peek().is_some_and(|key| key.at <= t) {
            let (key, kind) = self.queue.pop().expect("peeked");
            self.process(key, kind);
        }
        self.flush_counts();
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs for an additional duration `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Runs until no events remain or `limit` is reached; returns the time
    /// at which the system went quiescent (or `limit`).
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> SimTime {
        self.start_all();
        let mut first = true;
        loop {
            let Some(key) = self.queue.peek() else {
                // Mirrors the seed scheduler: the returned settle time
                // (and `now`) never exceed the limit, even when the final
                // processed event lay beyond it.
                if self.now > limit {
                    self.now = limit;
                    return limit;
                }
                return self.now;
            };
            // Mirrors the seed scheduler: the first pending event is
            // processed even when it lies beyond the limit.
            if !first && key.at > limit {
                break;
            }
            first = false;
            self.step();
        }
        self.now = limit;
        limit
    }

    /// Number of entries waiting, control events included.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LatencyModel, Topology};

    /// Counts pings; replies with pongs; optionally re-arms a periodic timer.
    #[derive(Debug, Default)]
    struct TestNode {
        started: u32,
        pings: u32,
        pongs: u32,
        timer_fires: u32,
        periodic: bool,
        batch_sizes: Vec<usize>,
    }

    #[derive(Debug, Clone)]
    enum M {
        Ping,
        Pong,
        Burst(u32),
        /// Asks the receiver to ping the given node.
        Forward(u32),
    }

    impl Node for TestNode {
        type Msg = M;
        fn handle(&mut self, _now: SimTime, input: Input<M>, out: &mut Outbox<M>) {
            match input {
                Input::Start => {
                    self.started += 1;
                    if self.periodic {
                        out.timer(SimDuration::from_millis(100), 1);
                    }
                }
                Input::Msg { from, msg: M::Ping } => {
                    self.pings += 1;
                    out.send(from, M::Pong);
                    out.count("pings", 1.0);
                }
                Input::Msg { msg: M::Pong, .. } => self.pongs += 1,
                Input::Msg { from, msg: M::Burst(n) } => {
                    for _ in 0..n {
                        out.send(from, M::Pong);
                    }
                }
                Input::Msg { msg: M::Forward(to), .. } => out.send(NodeIndex(to), M::Ping),
                Input::Timer { tag: 1 } => {
                    self.timer_fires += 1;
                    out.timer(SimDuration::from_millis(100), 1);
                }
                Input::Timer { .. } => {}
            }
        }

        fn on_batch(&mut self, now: SimTime, batch: &mut Batch<'_, M>, out: &mut Outbox<M>) {
            self.batch_sizes.push(batch.len());
            for (from, msg) in batch {
                self.handle(now, Input::Msg { from, msg }, out);
            }
        }
    }

    fn world(n: usize) -> World<TestNode> {
        let t = Topology::lan(n, 11);
        let nodes = (0..n).map(|_| TestNode::default()).collect();
        World::new(t, 11, nodes)
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = world(2);
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(1)).pings, 1);
        assert_eq!(w.node(NodeIndex(0)).pongs, 1);
        assert_eq!(w.metrics().counter("pings"), 1.0);
    }

    #[test]
    fn start_is_delivered_once() {
        let mut w = world(3);
        w.run_until(SimTime::from_millis(1));
        w.run_until(SimTime::from_millis(2));
        for n in w.nodes() {
            assert_eq!(n.started, 1);
        }
    }

    #[test]
    fn periodic_timer_fires_repeatedly() {
        let t = Topology::lan(1, 1);
        let mut w = World::new(t, 1, vec![TestNode { periodic: true, ..Default::default() }]);
        w.run_until(SimTime::from_millis(1050));
        assert_eq!(w.node(NodeIndex(0)).timer_fires, 10);
    }

    #[test]
    fn crash_drops_messages_and_timers() {
        let mut w = world(2);
        w.crash(NodeIndex(1));
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(1)).pings, 0);
        assert_eq!(w.metrics().counter("sim.messages_dropped_dead"), 1.0);
    }

    #[test]
    fn recover_delivers_start_again() {
        let mut w = world(2);
        w.run_until(SimTime::from_millis(1));
        w.crash(NodeIndex(1));
        w.recover(NodeIndex(1));
        assert_eq!(w.node(NodeIndex(1)).started, 2);
    }

    #[test]
    fn scheduled_crash_and_recover() {
        let mut w = world(2);
        w.crash_at(SimTime::from_millis(10), NodeIndex(1));
        w.recover_at(SimTime::from_millis(20), NodeIndex(1));
        // Ping lands in the dead window and is dropped.
        w.inject_at(SimTime::from_millis(15), NodeIndex(0), NodeIndex(1), M::Ping);
        // This one lands after recovery.
        w.inject_at(SimTime::from_millis(25), NodeIndex(0), NodeIndex(1), M::Ping);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(1)).pings, 1);
    }

    #[test]
    fn loss_drops_fraction_of_messages() {
        let mut w = world(2);
        w.set_loss(1.0);
        for _ in 0..10 {
            w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        }
        w.run_until(SimTime::from_secs(1));
        // Injections bypass loss (they model external arrivals), but the
        // pong replies are all lost.
        assert_eq!(w.node(NodeIndex(1)).pings, 10);
        assert_eq!(w.node(NodeIndex(0)).pongs, 0);
        assert_eq!(w.metrics().counter("sim.messages_lost"), 10.0);
    }

    #[test]
    fn link_loss_overrides_world_loss_per_direction() {
        let mut w = world(2);
        w.set_link_loss(NodeIndex(1), NodeIndex(0), 1.0);
        for _ in 0..10 {
            w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        }
        w.run_until(SimTime::from_secs(1));
        // Pings arrive (faults are per directed link), pongs all die.
        assert_eq!(w.node(NodeIndex(1)).pings, 10);
        assert_eq!(w.node(NodeIndex(0)).pongs, 0);
        assert_eq!(w.metrics().counter("sim.messages_lost"), 10.0);
        // Override can also *lower* loss below the world level.
        w.set_loss(1.0);
        w.set_link_loss(NodeIndex(1), NodeIndex(0), 0.0);
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node(NodeIndex(0)).pongs, 1);
    }

    #[test]
    fn crash_purges_link_faults() {
        let mut w = world(2);
        w.set_link_loss(NodeIndex(0), NodeIndex(1), 1.0);
        w.crash(NodeIndex(1));
        w.recover(NodeIndex(1));
        w.inject(NodeIndex(1), NodeIndex(0), M::Ping);
        w.run_until(SimTime::from_secs(1));
        // The fault died with the link: node 0's pong gets through... and
        // the faulted direction 0 -> 1 is also clean again.
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node(NodeIndex(0)).pings, 1);
        assert_eq!(w.metrics().counter("sim.messages_lost"), 0.0);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_heal() {
        let mut w = world(4);
        // Nodes 0,1 vs 2,3.
        w.partition_at(SimTime::from_millis(10), Some(SimTime::from_secs(5)), vec![0, 0, 1, 1]);
        w.run_until(SimTime::from_millis(20));
        assert!(w.partitioned());
        // Same side: round trip completes.
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        // Cross side: the ping is injected (harness bypasses dispatch) but
        // the pong reply is dropped at the boundary.
        w.inject(NodeIndex(0), NodeIndex(3), M::Ping);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(0)).pongs, 1);
        assert_eq!(w.metrics().counter("sim.messages_partitioned"), 1.0);
        assert_eq!(w.metrics().counter("sim.partitions"), 1.0);
        // After the heal, cross-group traffic flows again.
        w.run_until(SimTime::from_secs(6));
        assert!(!w.partitioned());
        w.inject(NodeIndex(0), NodeIndex(3), M::Ping);
        w.run_until(SimTime::from_secs(7));
        assert_eq!(w.node(NodeIndex(0)).pongs, 2);
        assert_eq!(w.metrics().counter("sim.heals"), 1.0);
    }

    #[test]
    fn partition_by_region_isolates_named_regions() {
        let t = Topology::random(6, &["ap", "eu", "us"], 17);
        let names: Vec<String> = t.iter().map(|i| i.region.as_str().to_string()).collect();
        let nodes = (0..6).map(|_| TestNode::default()).collect();
        let mut w: World<TestNode> = World::new(t, 17, nodes);
        let minority = names[0].as_str();
        w.partition_regions_at(SimTime::from_millis(1), None, &[minority]);
        w.run_until(SimTime::from_millis(5));
        let inside: Vec<usize> = (0..6).filter(|&i| names[i] == minority).collect();
        let outside: Vec<usize> = (0..6).filter(|&i| names[i] != minority).collect();
        // Cross-boundary pong dies; intra-minority pong survives.
        w.inject(NodeIndex(inside[0] as u32), NodeIndex(outside[0] as u32), M::Ping);
        w.inject(NodeIndex(inside[0] as u32), NodeIndex(inside[1] as u32), M::Ping);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(inside[0] as u32)).pongs, 1);
        assert_eq!(w.metrics().counter("sim.messages_partitioned"), 1.0);
    }

    #[test]
    fn run_to_quiescence_returns_settle_time() {
        let mut w = world(2);
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
        let settled = w.run_to_quiescence(SimTime::from_secs(5));
        assert!(settled < SimTime::from_secs(5));
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut w = world(2);
            // Note: world() uses fixed topology seed; vary message count by seed.
            for _ in 0..(seed % 5 + 1) {
                w.inject(NodeIndex(0), NodeIndex(1), M::Ping);
            }
            w.run_until(SimTime::from_secs(1));
            (w.node(NodeIndex(0)).pongs, w.metrics().counter("sim.messages_sent"))
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn time_advances_to_run_target() {
        let mut w = world(1);
        w.run_until(SimTime::from_secs(9));
        assert_eq!(w.now(), SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn inject_at_past_panics() {
        let mut w = world(1);
        w.run_until(SimTime::from_secs(1));
        w.inject_at(SimTime::from_millis(1), NodeIndex(0), NodeIndex(0), M::Ping);
    }

    #[test]
    fn crash_purges_link_state_both_directions() {
        // Regression: the seed engine kept per-link FIFO entries forever,
        // so long churn runs grew memory without bound.
        let mut w = world(3);
        w.inject(NodeIndex(0), NodeIndex(1), M::Ping); // 1 replies to 0
        w.inject(NodeIndex(1), NodeIndex(2), M::Ping); // 2 replies to 1
        w.inject(NodeIndex(2), NodeIndex(0), M::Ping); // 0 replies to 2
        w.run_until(SimTime::from_secs(1));
        // Replies created links 1->0, 2->1, 0->2.
        assert_eq!(w.link_state_count(), 3);
        w.crash(NodeIndex(1));
        // Both 1's outbound state and every inbound entry to 1 are gone.
        assert_eq!(w.link_state_count(), 1);
        w.crash(NodeIndex(0));
        w.crash(NodeIndex(2));
        assert_eq!(w.link_state_count(), 0);
    }

    #[test]
    fn same_activation_fanout_arrives_as_one_batch() {
        // A burst of sends from one activation over one link shares a
        // latency sample, lands at one instant, and is handed over as one
        // on_batch call.
        let mut w = world(2);
        w.inject(NodeIndex(1), NodeIndex(0), M::Burst(5));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node(NodeIndex(1)).pongs, 5);
        assert!(
            w.node(NodeIndex(1)).batch_sizes.contains(&5),
            "burst replies batch: {:?}",
            w.node(NodeIndex(1)).batch_sizes
        );
        assert_eq!(w.metrics().counter("sim.batched_messages"), 5.0);
    }

    #[test]
    fn same_instant_control_events_apply_before_deliveries() {
        // No jitter: every link takes exactly the LAN's 200 µs.
        let lan = Topology::lan(3, 11);
        let latency = LatencyModel { jitter: 0.0, ..lan.latency_model().clone() };
        let t = Topology::from_nodes(lan.iter().cloned().collect(), latency);
        let nodes = (0..3).map(|_| TestNode::default()).collect();
        let mut w = World::new(t, 11, nodes);
        let t0 = SimTime::from_millis(1);
        let at = t0 + SimDuration::from_micros(200);
        // At t0 node 0 sends node 1 three pongs and node 2 a ping, all
        // due at `at`, where node 1 crashes and node 2 is cut off.
        w.inject_at(t0, NodeIndex(1), NodeIndex(0), M::Burst(3));
        w.inject_at(t0, NodeIndex(2), NodeIndex(0), M::Forward(2));
        w.crash_at(at, NodeIndex(1));
        w.partition_at(at, None, vec![0, 0, 1]);
        w.run_until(at);
        assert_eq!(w.node(NodeIndex(1)).pongs, 0);
        assert!(w.node(NodeIndex(1)).batch_sizes.is_empty(), "no batch reached node 1");
        // The whole batch to node 1 was dropped together, none delivered.
        assert_eq!(w.metrics().counter("sim.messages_dropped_dead"), 3.0);
        assert_eq!(w.metrics().counter("sim.batches"), 0.0);
        // Node 2's ping arrived after the partition: its pong was cut.
        assert_eq!(w.node(NodeIndex(2)).pings, 1);
        assert_eq!(w.metrics().counter("sim.messages_partitioned"), 1.0);
        assert_eq!(w.metrics().counter("sim.messages_delivered"), 3.0, "2 injected + 1 ping");
        assert_eq!(w.metrics().counter("pings"), 1.0);
    }

    /// Drives the queue against a binary heap of keys: interleaved pushes
    /// and pops (so freed slots are reused), control entries included.
    /// Each payload is derived from its key, so a pop that hands back the
    /// wrong slot's payload fails as surely as one out of key order.
    #[test]
    fn queue_pops_in_binary_heap_order() {
        fn payload(key: EvKey) -> EntryKind<()> {
            let node = NodeIndex(key.b as u32);
            match key.class {
                CLASS_CTRL => EntryKind::Ctrl { node, action: CtrlAction::Heal },
                CLASS_TIMER => EntryKind::Timer { node, tag: key.b },
                _ => EntryKind::Deliver { from: node, to: node, msg: () },
            }
        }
        fn id(kind: EntryKind<()>) -> u64 {
            match kind {
                EntryKind::Ctrl { node, .. } | EntryKind::Deliver { from: node, .. } => {
                    node.0 as u64
                }
                EntryKind::Timer { tag, .. } => tag,
            }
        }
        let mut r = 0x0ddba11_u64;
        let mut q: Queue<()> = Queue::new();
        let mut oracle: BinaryHeap<Reverse<EvKey>> = BinaryHeap::new();
        for seq in 1..20_000u64 {
            let x = splitmix64(&mut r);
            if x % 5 < 3 {
                // Few distinct instants, classes and `a`s: keys that differ
                // only in `b` are common.
                let at = SimTime::from_micros((x >> 8) & 63);
                let key = EvKey { at, class: ((x >> 16) & 3) as u8, a: (x >> 18) & 1, b: seq };
                q.push(key, payload(key));
                oracle.push(Reverse(key));
            } else {
                assert_eq!(q.peek(), oracle.peek().map(|k| k.0), "peek at {seq}");
                let got = q.pop().map(|(key, kind)| (key, id(kind)));
                assert_eq!(got, oracle.pop().map(|Reverse(k)| (k, k.b)), "pop at {seq}");
            }
            assert_eq!(q.len(), oracle.len());
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop().map(|(key, kind)| (key, id(kind))), Some((want, want.b)));
        }
        assert!(q.pop().is_none());
        assert!(q.slab.len() < 10_000, "freed slots are reused");
    }

    /// Renders a trace detail per message and counts the renderings.
    #[derive(Debug, Default)]
    struct Narrator {
        rendered: u32,
    }

    impl Node for Narrator {
        type Msg = u32;
        fn handle(&mut self, _now: SimTime, input: Input<u32>, out: &mut Outbox<u32>) {
            if let Input::Msg { msg, .. } = input {
                out.trace_with("heard", || {
                    self.rendered += 1;
                    format!("m{msg}")
                });
                out.trace("heard.eager", "x");
            }
        }
    }

    #[test]
    fn lazy_trace_details_render_only_while_tracing() {
        let run = |tracing: bool| {
            let mut w = World::new(
                Topology::lan(2, 11),
                11,
                vec![Narrator::default(), Narrator::default()],
            );
            if tracing {
                w.enable_tracing(64);
            }
            for m in 0..3 {
                w.inject(NodeIndex(0), NodeIndex(1), m);
            }
            w.run_until(SimTime::from_secs(1));
            // (Arrival order is the links' jitter's business, not this test's.)
            let mut details: Vec<String> =
                w.tracer().of_kind("heard").map(|e| e.detail.clone()).collect();
            details.sort();
            (w.node(NodeIndex(1)).rendered, details, w.tracer().events().len())
        };
        assert_eq!(run(false), (0, vec![], 0), "tracing off: nothing rendered, nothing kept");
        let (rendered, details, kept) = run(true);
        assert_eq!(rendered, 3);
        assert_eq!(details, ["m0", "m1", "m2"]);
        assert_eq!(kept, 6, "eager and lazy events are both kept");
    }

    #[test]
    fn nested_outbox_keeps_copy_order_and_the_hosts_tracing_switch() {
        // A host records effects, lets an embedded machine (u8 messages)
        // record its own, then records more.
        fn drive(out: &mut Outbox<String>) -> (usize, bool) {
            let mut rendered = false;
            out.count("host.before", 1.0);
            out.timer(SimDuration::from_millis(1), 1);
            out.send(NodeIndex(1), "host-before".to_string());
            let mut spare = Vec::new();
            let from_inner = out.nested(
                &mut spare,
                |m: u8| format!("inner-{m}"),
                |inner| {
                    inner.count("inner", 2.0);
                    inner.timer(SimDuration::from_millis(2), 2);
                    inner.observe("inner.obs", 0.5);
                    inner.send(NodeIndex(2), 7);
                    inner.send_after(NodeIndex(3), 8, SimDuration::from_millis(9));
                    inner.trace("inner.eager", "e");
                    inner.trace_with("inner.lazy", || {
                        rendered = true;
                        "l".to_string()
                    });
                    inner.sends().len()
                },
            );
            out.count("host.after", 3.0);
            out.timer(SimDuration::from_millis(3), 3);
            out.send(NodeIndex(4), "host-after".to_string());
            (from_inner, rendered)
        }

        let mut out = Outbox::new();
        assert_eq!(drive(&mut out), (2, true), "the closure's value comes back");
        // What building a second outbox and copying it over produced.
        let counts: Vec<(&str, f64)> = out.counts().iter().map(|(n, v)| (n.as_ref(), *v)).collect();
        assert_eq!(counts, [("host.before", 1.0), ("inner", 2.0), ("host.after", 3.0)]);
        let tags: Vec<u64> = out.timers().iter().map(|(_, tag)| *tag).collect();
        assert_eq!(tags, [1, 2, 3]);
        assert_eq!(out.observations().len(), 1);
        let sends: Vec<(u32, &str, u64)> =
            out.sends().iter().map(|(to, m, d)| (to.0, m.as_str(), d.as_micros())).collect();
        assert_eq!(
            sends,
            [(1, "host-before", 0), (2, "inner-7", 0), (3, "inner-8", 9_000), (4, "host-after", 0)]
        );
        let kinds: Vec<&str> = out.traces().iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(kinds, ["inner.eager", "inner.lazy"]);

        // The outbox a world hands out while its tracer is off.
        let mut quiet = Outbox { tracing: false, ..Outbox::new() };
        assert_eq!(drive(&mut quiet), (2, false), "no detail is rendered for a tracer that is off");
        assert!(quiet.traces().is_empty());
        assert_eq!(quiet.sends().len(), 4);
    }

    #[test]
    fn nested_outbox_reuses_the_hosts_spare_send_buffer() {
        let mut out: Outbox<u32> = Outbox::new();
        let mut spare: Vec<(NodeIndex, u8, SimDuration)> = Vec::new();
        let call = |out: &mut Outbox<u32>, spare: &mut Vec<_>, base: u8| {
            out.nested(spare, u32::from, |inner| {
                for m in base..base + 3 {
                    inner.send(NodeIndex(1), m);
                }
            });
        };
        call(&mut out, &mut spare, 0);
        assert!(spare.is_empty(), "the sends were drained into the host");
        let (ptr, cap) = (spare.as_ptr(), spare.capacity());
        assert!(cap >= 3, "the buffer comes back with the capacity it grew to");
        call(&mut out, &mut spare, 10);
        assert!(spare.is_empty());
        assert_eq!(spare.as_ptr(), ptr, "the second call used the same buffer");
        assert_eq!(spare.capacity(), cap, "and did not regrow it");
        let sent: Vec<u32> = out.sends().iter().map(|(_, m, _)| *m).collect();
        assert_eq!(sent, [0, 1, 2, 10, 11, 12]);
    }
}
