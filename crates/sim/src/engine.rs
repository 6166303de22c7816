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
//! The event plane is sharded, bucketed, and (optionally) threaded for
//! 1k–4k-node workloads:
//!
//! - **Regions.** Nodes partition into regions (derived from the topology's
//!   region names); each region is a `Shard` owning its own calendar
//!   queue, its nodes' state machines, their per-link connection state, and
//!   buffers for every side effect (sends, counters, traces). Cross-region
//!   sends travel through per-region *outgoing* buffers that are flushed
//!   when the world advances to the next lockstep time slice. The slice
//!   width is a conservative lookahead (the latency model's cross-region
//!   floor), so a message sent in one slice can never be due inside the
//!   same slice.
//! - **Worker threads.** Because a shard owns everything its drain mutates,
//!   `run_until` can hand disjoint `&mut Shard` borrows to scoped worker
//!   threads and drain all regions of a slice concurrently
//!   (`GLOSS_SIM_THREADS` / [`World::set_threads`]; default 1 keeps the
//!   sequential path). Workers synchronise at slice barriers with a spin
//!   barrier, exchange cross-region messages through per-shard mailboxes,
//!   and the slice leader advances the lockstep window. Counters and trace
//!   records accumulate shard-locally and merge back in canonical shard /
//!   key order at segment boundaries, so the schedule, the trace, and all
//!   counters are **byte-identical at any thread count**.
//! - **Calendar queues.** Each shard's queue is a timer-wheel of
//!   fixed-width buckets over the near future plus an overflow heap for
//!   far-future entries (long timers), replacing one global `BinaryHeap`.
//!   Pushes and pops into the wheel are O(1) amortised.
//! - **Canonical event keys.** Every entry carries an `EvKey` that is a
//!   pure function of *what* the event is (link + per-link sequence, node +
//!   per-node timer sequence, harness call order) rather than of global
//!   push order. Processing events in key order therefore yields the same
//!   schedule at any region count, bucket width, or thread count: same
//!   seed, same trace. The `engine_equivalence` integration test checks
//!   this against a single-heap transcription of the seed scheduler; the
//!   `region_determinism` test checks byte-identical traces across region
//!   counts and thread counts.
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

use crate::hash::{splitmix64, splitmix_unit, FnvHashMap};
use crate::metrics::{CounterId, MetricsRegistry};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{GeoPoint, NodeIndex, Topology};
use crate::trace::Tracer;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// machine sees the host's tracing switch. Its sends are appended
    /// after the call, each converted with `wrap`.
    pub fn nested<I, R>(
        &mut self,
        wrap: impl Fn(I) -> M,
        f: impl FnOnce(&mut Outbox<I>) -> R,
    ) -> R {
        let mut inner = Outbox {
            sends: Vec::new(),
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
        self.sends.extend(inner.sends.into_iter().map(|(to, msg, delay)| (to, wrap(msg), delay)));
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
///
/// `Node: Send` (with `Msg: Send`) is a deliberate engine-wide bound: the
/// world drains each region's slice on a scoped worker thread when
/// `GLOSS_SIM_THREADS` (or [`World::set_threads`]) asks for it, which moves
/// `&mut` access to node state machines across threads. State machines are
/// plain data in this workspace, so the bound is free; it exists to keep
/// non-`Send` interior (e.g. `Rc`) from creeping into protocol state.
pub trait Node: Send {
    /// The message type exchanged between nodes of this world.
    type Msg: Send;

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
/// the trace — is identical at any region count, bucket width, and thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: SimTime,
    class: u8,
    a: u64,
    b: u64,
}

#[derive(Debug)]
enum EntryKind<M> {
    Deliver { from: NodeIndex, to: NodeIndex, msg: M },
    Timer { node: NodeIndex, tag: u64 },
}

#[derive(Debug)]
struct Entry<M> {
    key: EvKey,
    kind: EntryKind<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// What a scheduled control event does when it comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CtrlAction {
    Crash,
    Recover,
    /// Install the partition spec at this index in `World::partition_specs`.
    Partition(u32),
    /// Remove the active partition.
    Heal,
}

/// A crash, recovery, partition, or heal scheduled by the harness. Held
/// outside the region queues: control events change global state
/// (aliveness, link purges, reachability), so they act as barriers between
/// lockstep slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CtrlEntry {
    key: EvKey,
    node: NodeIndex,
    action: CtrlAction,
}

/// A calendar queue: a timer-wheel of `width`-microsecond buckets covering
/// the near future, an `active` heap ordering the current bucket, and an
/// overflow heap for entries beyond the wheel horizon (long timers).
///
/// Pop order is exactly ascending [`EvKey`] order: the wheel partitions by
/// time, the active heap orders within the current bucket, and same-`at`
/// entries always land in the same bucket.
#[derive(Debug)]
struct CalendarQueue<M> {
    /// The current bucket's entries, sorted descending by key (pop from
    /// the end); a sorted vec beats a heap here because one bucket holds
    /// few entries and stragglers are rare.
    active: Vec<Entry<M>>,
    buckets: Vec<Vec<Entry<M>>>,
    /// log2 of the bucket width in µs (widths round up to a power of two
    /// so the per-push bucket math is a shift, not a division).
    shift: u32,
    /// `buckets.len() - 1`; the count is a power of two.
    mask: usize,
    /// Start time (µs) of the bucket at `cursor`; a multiple of the width.
    wheel_start: u64,
    cursor: usize,
    in_buckets: usize,
    overflow: BinaryHeap<Reverse<Entry<M>>>,
    len: usize,
}

impl<M> CalendarQueue<M> {
    fn new(width: u64, buckets: usize) -> Self {
        let shift = width.max(1).next_power_of_two().trailing_zeros();
        let buckets = buckets.max(2).next_power_of_two();
        CalendarQueue {
            active: Vec::new(),
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            shift,
            mask: buckets - 1,
            wheel_start: 0,
            cursor: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn width(&self) -> u64 {
        1 << self.shift
    }

    fn len(&self) -> usize {
        self.len
    }

    fn horizon(&self) -> u64 {
        self.wheel_start.saturating_add(self.width() * self.buckets.len() as u64)
    }

    fn push(&mut self, e: Entry<M>) {
        let t = e.key.at.as_micros();
        self.len += 1;
        if t < self.wheel_start + self.width() {
            self.insert_active(e);
        } else if t < self.horizon() {
            let idx = (t >> self.shift) as usize & self.mask;
            self.buckets[idx].push(e);
            self.in_buckets += 1;
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Inserts a straggler into the sorted active vec (descending order).
    fn insert_active(&mut self, e: Entry<M>) {
        let pos = self.active.partition_point(|x| x.key > e.key);
        self.active.insert(pos, e);
    }

    /// Advances the wheel until the queue's minimum entry (if any) sits on
    /// top of `active`.
    fn settle(&mut self) {
        while self.active.is_empty() && self.len > 0 {
            if self.in_buckets == 0 {
                // Nothing in the wheel: jump straight to the earliest
                // overflow entry instead of sweeping empty buckets.
                let t = self.overflow.peek().expect("len > 0").0.key.at.as_micros();
                self.wheel_start = t & !(self.width() - 1);
            } else {
                self.wheel_start += self.width();
            }
            self.cursor = (self.wheel_start >> self.shift) as usize & self.mask;
            self.refill_from_overflow();
            // Drain in place: bucket capacity persists across wheel laps.
            let (buckets, active) = (&mut self.buckets, &mut self.active);
            let spilled = &mut buckets[self.cursor];
            self.in_buckets -= spilled.len();
            active.append(spilled);
            active.sort_unstable_by_key(|e| Reverse(e.key));
        }
    }

    /// Moves overflow entries that the advancing horizon now covers into
    /// their wheel bucket (or straight into `active`).
    fn refill_from_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.key.at.as_micros() >= horizon {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            let t = e.key.at.as_micros();
            if t < self.wheel_start + self.width() {
                self.insert_active(e);
            } else {
                let idx = (t >> self.shift) as usize & self.mask;
                self.buckets[idx].push(e);
                self.in_buckets += 1;
            }
        }
    }

    fn peek(&mut self) -> Option<&Entry<M>> {
        self.settle();
        self.active.last()
    }

    fn pop(&mut self) -> Option<Entry<M>> {
        self.settle();
        let e = self.active.pop()?;
        self.len -= 1;
        Some(e)
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
    /// Activation ids are shard-local: a link belongs to its sender, a
    /// sender to exactly one shard, so the stamp only ever meets its own
    /// shard's strictly-increasing counter.
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

/// Slots of the pre-registered hot engine counters, accumulated per shard
/// as plain array adds and merged into the registry at segment boundaries.
const EC_SENT: usize = 0;
const EC_DELIVERED: usize = 1;
const EC_DROPPED_DEAD: usize = 2;
const EC_LOST: usize = 3;
const EC_BAD_DESTINATION: usize = 4;
const EC_BATCHES: usize = 5;
const EC_BATCHED: usize = 6;
const EC_PARTITIONED: usize = 7;
const ENGINE_COUNTERS: usize = 8;

/// Registry handles for the hot engine counters, in slot order.
#[derive(Debug, Clone, Copy)]
struct EngineCounters {
    ids: [CounterId; ENGINE_COUNTERS],
}

/// Directed-link key for the fault map.
#[inline]
fn link_key(from: NodeIndex, to: NodeIndex) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// Where a node lives: its region shard and its slot within that shard.
#[derive(Debug, Clone, Copy)]
struct Place {
    region: u32,
    slot: u32,
}

/// Engine state that is immutable while shards drain: worker threads share
/// it by reference. Aliveness and loss are only mutated by the main thread
/// between slices (control events are barriers).
#[derive(Debug)]
struct Shared {
    topology: Topology,
    /// Region shard and shard-local slot of each node.
    place: Vec<Place>,
    alive: Vec<bool>,
    seed: u64,
    loss: f64,
    /// Harness-installed loss probability per directed link, overriding
    /// the world's uniform loss there (empty in the common case; the hot
    /// path checks `is_empty` before hashing). Like [`LinkState`], purged
    /// when either endpoint crashes (a restarted node gets fresh links).
    link_faults: FnvHashMap<u64, f64>,
    /// Active partition: the group id of each node. Messages between
    /// different groups are dropped at send time. `None` = fully
    /// connected.
    partition: Option<Vec<u8>>,
    /// Cached latency-model jitter fraction.
    jitter: f64,
    /// Lockstep slice width (µs): a conservative lookahead no larger than
    /// the minimum cross-shard latency, so cross-region messages are never
    /// due inside the slice that sent them.
    slice_width: u64,
    /// Whether the latency model permits a safe multi-region lookahead.
    can_shard: bool,
}

/// One region of the world: the calendar queue plus everything a drain of
/// that region mutates. Shards are disjoint, so a slice can drain all of
/// them concurrently on scoped worker threads.
struct Shard<N: Node> {
    queue: CalendarQueue<N::Msg>,
    /// Cached head key of `queue` (kept in sync by push/drain).
    head: Option<EvKey>,
    /// This shard's node state machines, in ascending global index order.
    nodes: Vec<N>,
    /// Per-sender link state, by shard-local slot; purged on crash.
    links: Vec<FnvHashMap<u32, LinkState>>,
    /// Per-node timer sequence numbers (canonical tie-break component).
    timer_seq: Vec<u64>,
    /// Shard-local activation counter; groups one activation's sends per
    /// link for latency sharing.
    apply_seq: u64,
    /// The shard's current time: the key time of the entry being processed
    /// (monotone within the shard; shards advance independently inside a
    /// slice).
    now: SimTime,
    /// Canonical key of the entry currently being processed (trace merge).
    cur_key: EvKey,
    /// Reusable same-instant delivery buffer.
    batch: Vec<(NodeIndex, N::Msg)>,
    /// Reusable activation outbox (capacity persists across activations).
    scratch: Outbox<N::Msg>,
    /// Cross-shard sends buffered per destination shard, flushed at slice
    /// boundaries (the boundary exchange).
    outgoing: Vec<Vec<Entry<N::Msg>>>,
    outgoing_len: usize,
    /// Hot engine counter partial sums (integer-valued adds, so partial
    /// summation is exact), merged in shard order at segment boundaries.
    engine: [f64; ENGINE_COUNTERS],
    /// Node-emitted counter increments, pre-summed per name (bounded by
    /// the distinct-name count, not the event count) and replayed in
    /// shard order, names sorted, on merge.
    counts: FnvHashMap<Cow<'static, str>, f64>,
    /// Node-emitted histogram samples, replayed in shard order on merge.
    observations: Vec<(Cow<'static, str>, f64)>,
    /// Trace records keyed canonically, merged across shards on flush.
    /// Shard-local processing is key-ascending, so this buffer is sorted.
    trace_buf: Vec<(EvKey, NodeIndex, Cow<'static, str>, String)>,
}

/// Pushes into a shard's queue, keeping the cached head in sync.
fn shard_push<N: Node>(shard: &mut Shard<N>, entry: Entry<N::Msg>) {
    if shard.head.is_none_or(|h| entry.key < h) {
        shard.head = Some(entry.key);
    }
    shard.queue.push(entry);
}

/// Drains shard entries up to and including `stop_at`, stopping early at a
/// control barrier, then refreshes the cached head.
fn drain_shard<N: Node>(
    shard: &mut Shard<N>,
    sh: &Shared,
    stop_at: SimTime,
    barrier: Option<EvKey>,
    window_end: u64,
) {
    while let Some(head) = shard.queue.peek().map(|e| e.key) {
        if head.at > stop_at || barrier.is_some_and(|b| head > b) {
            break;
        }
        process_entry(shard, sh, window_end);
    }
    shard.head = shard.queue.peek().map(|e| e.key);
}

/// Pops and handles the head entry of a shard — a timer or a same-instant
/// delivery batch. Sets the shard's `now` to the entry's time.
fn process_entry<N: Node>(shard: &mut Shard<N>, sh: &Shared, window_end: u64) {
    let entry = shard.queue.pop().expect("non-empty");
    let key = entry.key;
    shard.now = key.at;
    shard.cur_key = key;
    match entry.kind {
        EntryKind::Timer { node, tag } => {
            if sh.alive[node.as_usize()] {
                activate(shard, sh, window_end, node, Input::Timer { tag });
            }
        }
        EntryKind::Deliver { from, to, msg } => {
            debug_assert!(shard.batch.is_empty());
            shard.batch.push((from, msg));
            // Gather the rest of the same-instant batch for `to`. Only
            // link deliveries batch: their destination-major keys make
            // same-instant arrivals at one node contiguous in the key
            // order (harness injections are keyed by call order and
            // deliver singly).
            while let Some(next) = shard.queue.peek() {
                let h = next.key;
                if h.at != key.at || h.class != CLASS_LINK || (h.a >> 32) as u32 != to.0 {
                    break;
                }
                let popped = shard.queue.pop().expect("peeked");
                let EntryKind::Deliver { from, msg, .. } = popped.kind else {
                    unreachable!("class-checked Deliver above");
                };
                shard.batch.push((from, msg));
            }
            let n = shard.batch.len() as f64;
            if sh.alive[to.as_usize()] {
                shard.engine[EC_DELIVERED] += n;
                if shard.batch.len() > 1 {
                    shard.engine[EC_BATCHES] += 1.0;
                    shard.engine[EC_BATCHED] += n;
                }
                activate_batch(shard, sh, window_end, to);
            } else {
                shard.engine[EC_DROPPED_DEAD] += n;
                shard.batch.clear();
            }
        }
    }
}

/// Runs one node activation for a single input.
fn activate<N: Node>(
    shard: &mut Shard<N>,
    sh: &Shared,
    window_end: u64,
    index: NodeIndex,
    input: Input<N::Msg>,
) {
    shard.apply_seq += 1;
    let slot = sh.place[index.as_usize()].slot as usize;
    let now = shard.now;
    let (nodes, scratch) = (&mut shard.nodes, &mut shard.scratch);
    nodes[slot].handle(now, input, scratch);
    apply_effects(shard, sh, window_end, index);
}

/// Runs one node activation for a same-instant delivery batch.
fn activate_batch<N: Node>(shard: &mut Shard<N>, sh: &Shared, window_end: u64, to: NodeIndex) {
    shard.apply_seq += 1;
    let slot = sh.place[to.as_usize()].slot as usize;
    let now = shard.now;
    let (nodes, scratch, buf) = (&mut shard.nodes, &mut shard.scratch, &mut shard.batch);
    let mut batch = Batch { inner: buf.drain(..) };
    nodes[slot].on_batch(now, &mut batch, scratch);
    drop(batch);
    apply_effects(shard, sh, window_end, to);
}

/// Drains the scratch outbox of one activation into the schedule and the
/// shard's effect buffers, preserving the outbox's capacity.
fn apply_effects<N: Node>(shard: &mut Shard<N>, sh: &Shared, window_end: u64, from: NodeIndex) {
    if !shard.scratch.sends.is_empty() {
        let mut sends = std::mem::take(&mut shard.scratch.sends);
        for (to, msg, extra) in sends.drain(..) {
            dispatch_send(shard, sh, window_end, from, to, msg, extra);
        }
        shard.scratch.sends = sends;
    }
    if !shard.scratch.timers.is_empty() {
        let mut timers = std::mem::take(&mut shard.scratch.timers);
        for (delay, tag) in timers.drain(..) {
            push_timer(shard, sh, from, delay, tag);
        }
        shard.scratch.timers = timers;
    }
    if !shard.scratch.counts.is_empty() {
        let (scratch, counts) = (&mut shard.scratch, &mut shard.counts);
        for (name, by) in scratch.counts.drain(..) {
            *counts.entry(name).or_insert(0.0) += by;
        }
    }
    if !shard.scratch.observations.is_empty() {
        let (scratch, observations) = (&mut shard.scratch, &mut shard.observations);
        observations.append(&mut scratch.observations);
    }
    // Non-empty only while tracing: the scratch outbox drops traces at
    // the call otherwise.
    if !shard.scratch.traces.is_empty() {
        let key = shard.cur_key;
        let (scratch, trace_buf) = (&mut shard.scratch, &mut shard.trace_buf);
        for (kind, detail) in scratch.traces.drain(..) {
            trace_buf.push((key, from, kind, detail));
        }
    }
}

/// Schedules a timer for a node of this shard.
fn push_timer<N: Node>(
    shard: &mut Shard<N>,
    sh: &Shared,
    node: NodeIndex,
    delay: SimDuration,
    tag: u64,
) {
    let slot = sh.place[node.as_usize()].slot as usize;
    shard.timer_seq[slot] += 1;
    let key = EvKey {
        at: shard.now + delay,
        class: CLASS_TIMER,
        a: node.0 as u64,
        b: shard.timer_seq[slot],
    };
    shard_push(shard, Entry { key, kind: EntryKind::Timer { node, tag } });
}

/// Schedules one send: latency sampling (shared per activation and link),
/// loss, FIFO clamping, and routing into the shard's own queue or its
/// outgoing cross-shard buffer.
fn dispatch_send<N: Node>(
    shard: &mut Shard<N>,
    sh: &Shared,
    window_end: u64,
    from: NodeIndex,
    to: NodeIndex,
    msg: N::Msg,
    extra: SimDuration,
) {
    if to.as_usize() >= sh.place.len() {
        shard.engine[EC_BAD_DESTINATION] += 1.0;
        return;
    }
    if let Some(groups) = &sh.partition {
        if groups[from.as_usize()] != groups[to.as_usize()] {
            shard.engine[EC_PARTITIONED] += 1.0;
            return;
        }
    }
    let sslot = sh.place[from.as_usize()].slot as usize;
    let (topology, seed) = (&sh.topology, sh.seed);
    let ls = shard.links[sslot].entry(to.0).or_insert_with(|| {
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
    if ls.last_apply != shard.apply_seq {
        // First message of this activation on this link: sample the
        // connection's latency once; the rest of the flush shares it.
        ls.last_apply = shard.apply_seq;
        ls.jittered = if to == from || sh.jitter <= 0.0 {
            ls.nominal
        } else {
            let factor = 1.0 - sh.jitter + 2.0 * sh.jitter * splitmix_unit(&mut ls.rng);
            (ls.nominal as f64 * factor).round() as u64
        };
    }
    let loss = if sh.link_faults.is_empty() {
        sh.loss
    } else {
        sh.link_faults.get(&link_key(from, to)).copied().unwrap_or(sh.loss)
    };
    if loss > 0.0 && to != from && splitmix_unit(&mut ls.rng) < loss {
        shard.engine[EC_LOST] += 1.0;
        return;
    }
    // Per-link FIFO: links are connection-oriented (the architecture's
    // web-service interfaces run over TCP); equal times are allowed
    // and preserve send order via the link sequence number.
    let mut at = shard.now.as_micros() + ls.jittered + extra.as_micros();
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
    shard.engine[EC_SENT] += 1.0;
    let entry = Entry { key, kind: EntryKind::Deliver { from, to, msg } };
    let rt = sh.place[to.as_usize()].region as usize;
    if rt == sh.place[from.as_usize()].region as usize {
        shard_push(shard, entry);
    } else {
        // Cross-shard: buffer for the boundary exchange. With a bounded
        // window the lookahead guarantees the message is not due inside
        // the slice that sent it; the degenerate unbounded window is
        // handled by the sequential outer loop re-flushing between passes.
        debug_assert!(
            window_end == u64::MAX || at >= window_end,
            "cross-region message due inside its own slice: at={at} window_end={window_end}"
        );
        shard.outgoing[rt].push(entry);
        shard.outgoing_len += 1;
    }
}

/// A reusable generation-counting spin barrier. The last thread to arrive
/// runs the slice-leader work, then releases the others. Spins briefly and
/// falls back to `yield_now` so oversubscribed hosts (CI, single-core
/// containers) stay live.
struct SyncPoint {
    arrived: AtomicUsize,
    gen: AtomicU64,
    /// Set when a worker unwinds: spinners panic out instead of waiting
    /// forever for an arrival that can never come.
    poisoned: AtomicBool,
    n: usize,
}

impl SyncPoint {
    fn new(n: usize) -> Self {
        SyncPoint {
            arrived: AtomicUsize::new(0),
            gen: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            n,
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn wait(&self, leader_work: impl FnOnce()) {
        let gen = self.gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            leader_work();
            self.arrived.store(0, Ordering::Release);
            self.gen.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("a simulation worker panicked; aborting the threaded segment");
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Poisons the barrier if its worker unwinds (a node handler panicked),
/// so sibling workers abort instead of spinning forever and the scope can
/// propagate the original panic.
struct PoisonGuard<'a>(&'a SyncPoint);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Per-segment coordination state shared by the slice workers.
struct Coord<M> {
    /// End (µs, exclusive) of the slice currently being drained.
    window: AtomicU64,
    /// Set by the slice leader when the segment is over (control event
    /// due, target time reached, queues empty, or window overflow).
    stop: AtomicBool,
    sync: SyncPoint,
    /// Per-worker minimum pending event time after each slice.
    mins: Vec<AtomicU64>,
    /// Per-shard mailboxes for cross-shard sends, drained by the owning
    /// worker at the next slice boundary.
    mailboxes: Vec<Mutex<Vec<Entry<M>>>>,
    slice: u64,
    t_us: u64,
    /// Time of the next control event (`u64::MAX` when none). Ties go to
    /// the control event: its key class sorts first.
    ctrl_at: u64,
}

impl<M> Coord<M> {
    /// Slice-leader work: compute the global minimum pending time and
    /// either advance the lockstep window or end the segment.
    fn advance(&self) {
        let m = self.mins.iter().map(|a| a.load(Ordering::Acquire)).min().unwrap_or(u64::MAX);
        if m == u64::MAX || m > self.t_us || self.ctrl_at <= m {
            self.stop.store(true, Ordering::Release);
            return;
        }
        let aligned = (m / self.slice).saturating_add(1).saturating_mul(self.slice);
        if aligned <= m || aligned == u64::MAX {
            // Alignment overflow (saturation lands on the unbounded-window
            // sentinel): fall back to the sequential degenerate path.
            self.stop.store(true, Ordering::Release);
        } else {
            self.window.store(aligned, Ordering::Release);
        }
    }
}

/// The loop one worker runs for a threaded segment: drain own shards for
/// the current slice, flush cross-shard sends into mailboxes, synchronise,
/// deliver own mailboxes, publish the local minimum, synchronise again
/// while the leader advances the window.
fn worker_loop<N: Node>(
    wid: usize,
    mut chunk: Vec<(usize, &mut Shard<N>)>,
    sh: &Shared,
    coord: &Coord<N::Msg>,
    ctrl_key: Option<EvKey>,
) {
    let _guard = PoisonGuard(&coord.sync);
    loop {
        let window_end = coord.window.load(Ordering::Acquire);
        let stop_at = SimTime::from_micros(coord.t_us.min(window_end - 1));
        for (_, shard) in chunk.iter_mut() {
            if shard.head.is_some_and(|h| h.at <= stop_at && ctrl_key.is_none_or(|b| h <= b)) {
                drain_shard(shard, sh, stop_at, ctrl_key, window_end);
            }
            if shard.outgoing_len > 0 {
                for (dst, buf) in shard.outgoing.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        coord.mailboxes[dst].lock().expect("worker panicked").append(buf);
                    }
                }
                shard.outgoing_len = 0;
            }
        }
        // Barrier 1: all cross-shard sends of this slice are in mailboxes.
        coord.sync.wait(|| {});
        let mut local_min = u64::MAX;
        for (r, shard) in chunk.iter_mut() {
            let mut mb = coord.mailboxes[*r].lock().expect("worker panicked");
            for e in mb.drain(..) {
                shard_push(shard, e);
            }
            drop(mb);
            if let Some(h) = shard.head {
                local_min = local_min.min(h.at.as_micros());
            }
        }
        coord.mins[wid].store(local_min, Ordering::Release);
        // Barrier 2: the last arriver advances the window (or stops).
        coord.sync.wait(|| coord.advance());
        if coord.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum NextSrc {
    Ctrl,
    Region(usize),
}

/// Parses a `GLOSS_SIM_THREADS`-style value; anything unset, unparsable,
/// or below 1 means 1 (the sequential path).
fn threads_from_env(value: Option<&str>) -> usize {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1).unwrap_or(1)
}

/// Computes the base lockstep slice width from the latency model: the
/// minimum cross-node latency (base minus full jitter), floored. The
/// jittered latency of any message is at least this floor
/// (`round(nominal * f)` with `nominal >= base` and `f >= 1 - jitter`), so a
/// slice of exactly the floor guarantees no cross-region message is due
/// inside its own slice. Returns `(width, can_shard)`; models without a
/// positive latency floor cannot shard safely and run as a single region.
fn lookahead(topology: &Topology) -> (u64, bool) {
    let lm = topology.latency_model();
    let floor = (lm.base.as_micros() as f64 * (1.0 - lm.jitter)).floor() as u64;
    if floor < 2 {
        (1, false)
    } else {
        (floor, true)
    }
}

/// The simulation driver: a topology, one state machine per node, and
/// per-region bucketed event queues merged in canonical key order —
/// drained sequentially or on scoped worker threads.
///
/// See the [crate docs](crate) for a complete example and the
/// [module docs](self) for the scheduler architecture.
pub struct World<N: Node> {
    shared: Shared,
    shards: Vec<Shard<N>>,
    /// Crash/recover/partition events (global barriers).
    ctrl: BinaryHeap<Reverse<CtrlEntry>>,
    /// Partition group vectors referenced by scheduled
    /// [`CtrlAction::Partition`] events.
    partition_specs: Vec<Vec<u8>>,
    /// Orders harness calls (injects, crashes, recoveries).
    harness_seq: u64,
    /// End (µs, exclusive) of the slice currently being processed.
    window_end: u64,
    now: SimTime,
    rng: SimRng,
    metrics: MetricsRegistry,
    ids: EngineCounters,
    tracer: Tracer,
    started: bool,
    /// Requested worker thread count (effective = min with shard count).
    threads: usize,
    bucket_width: u64,
    bucket_count: usize,
    /// Scratch for merging per-shard trace buffers in key order.
    trace_merge: Vec<(EvKey, NodeIndex, Cow<'static, str>, String)>,
}

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.shared.place.len())
            .field("regions", &self.shards.len())
            .field("threads", &self.threads)
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("slice_micros", &self.shared.slice_width)
            .finish_non_exhaustive()
    }
}

/// Default wheel geometry: 256 buckets of 1024 µs cover ~262 ms of near
/// future; longer timers take the overflow heap. Buckets are coarse on
/// purpose: the wheel advance (one bucket at a time) must stay cheap on
/// sparse stretches, and the sorted active vec holding one bucket's
/// entries stays small either way.
const DEFAULT_BUCKET_WIDTH: u64 = 1024;
const DEFAULT_BUCKET_COUNT: usize = 256;

impl<N: Node> World<N> {
    /// Creates a world over `topology` with one state machine per node.
    ///
    /// Nodes are sharded into one region per distinct topology region name
    /// (use [`set_region_count`](Self::set_region_count) to override), and
    /// the worker thread count defaults to `GLOSS_SIM_THREADS` (default 1,
    /// the sequential path; see [`set_threads`](Self::set_threads)).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn new(topology: Topology, seed: u64, nodes: Vec<N>) -> Self {
        assert_eq!(topology.len(), nodes.len(), "one state machine per topology node");
        let n = nodes.len();
        let (slice_width, can_shard) = lookahead(&topology);
        let jitter = topology.latency_model().jitter;
        let mut metrics = MetricsRegistry::new();
        let ids = EngineCounters {
            ids: [
                metrics.register_counter("sim.messages_sent"),
                metrics.register_counter("sim.messages_delivered"),
                metrics.register_counter("sim.messages_dropped_dead"),
                metrics.register_counter("sim.messages_lost"),
                metrics.register_counter("sim.bad_destination"),
                metrics.register_counter("sim.batches"),
                metrics.register_counter("sim.batched_messages"),
                metrics.register_counter("sim.messages_partitioned"),
            ],
        };
        let mut world = World {
            shared: Shared {
                topology,
                place: vec![Place { region: 0, slot: 0 }; n],
                alive: vec![true; n],
                seed,
                loss: 0.0,
                link_faults: FnvHashMap::default(),
                partition: None,
                jitter,
                slice_width,
                can_shard,
            },
            shards: Vec::new(),
            ctrl: BinaryHeap::new(),
            partition_specs: Vec::new(),
            harness_seq: 0,
            window_end: slice_width,
            now: SimTime::ZERO,
            rng: SimRng::new(seed).fork("world"),
            metrics,
            ids,
            tracer: Tracer::disabled(),
            started: false,
            threads: threads_from_env(std::env::var("GLOSS_SIM_THREADS").ok().as_deref()),
            bucket_width: DEFAULT_BUCKET_WIDTH,
            bucket_count: DEFAULT_BUCKET_COUNT,
            trace_merge: Vec::new(),
        };
        world.distribute(nodes, usize::MAX);
        world
    }

    /// (Re)partitions nodes into at most `want` region shards, rebuilding
    /// the shard structures and refining the lockstep lookahead.
    fn distribute(&mut self, nodes: Vec<N>, want: usize) {
        debug_assert_eq!(
            self.shards.iter().map(|s| s.queue.len() + s.outgoing_len).sum::<usize>(),
            0,
            "repartition requires empty queues"
        );
        let mut names: Vec<&str> = self.shared.topology.iter().map(|i| i.region.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let limit = if self.shared.can_shard { names.len() } else { 1 };
        let count = want.clamp(1, limit.max(1));
        let shard_of: BTreeMap<&str, u32> =
            names.iter().enumerate().map(|(i, nm)| (*nm, (i % count) as u32)).collect();
        let regions: Vec<u32> =
            self.shared.topology.iter().map(|info| shard_of[info.region.as_str()]).collect();
        let mut slots = vec![0u32; count];
        for (i, &region) in regions.iter().enumerate() {
            let r = region as usize;
            self.shared.place[i] = Place { region, slot: slots[r] };
            slots[r] += 1;
        }
        self.shards = (0..count)
            .map(|r| Shard {
                queue: CalendarQueue::new(self.bucket_width, self.bucket_count),
                head: None,
                nodes: Vec::with_capacity(slots[r] as usize),
                links: (0..slots[r]).map(|_| FnvHashMap::default()).collect(),
                timer_seq: vec![0; slots[r] as usize],
                apply_seq: 0,
                now: self.now,
                cur_key: EvKey { at: SimTime::ZERO, class: 0, a: 0, b: 0 },
                batch: Vec::new(),
                scratch: Outbox { tracing: self.tracer.is_enabled(), ..Outbox::new() },
                outgoing: (0..count).map(|_| Vec::new()).collect(),
                outgoing_len: 0,
                engine: [0.0; ENGINE_COUNTERS],
                counts: FnvHashMap::default(),
                observations: Vec::new(),
                trace_buf: Vec::new(),
            })
            .collect();
        for (i, node) in nodes.into_iter().enumerate() {
            // Ascending global index per shard == ascending slot order.
            self.shards[regions[i] as usize].nodes.push(node);
        }
        self.refine_slice_width();
        if !self.started {
            self.window_end = self.shared.slice_width;
        }
    }

    /// Widens the lockstep slice beyond the base latency floor using a
    /// cheap spherical lower bound on the minimum cross-shard distance
    /// (per-shard centre + radius, triangle inequality). Wider slices mean
    /// fewer barriers; any safe lower bound preserves the lookahead
    /// invariant, and the slice width never affects the schedule.
    fn refine_slice_width(&mut self) {
        let (base_width, can_shard) = lookahead(&self.shared.topology);
        self.shared.can_shard = can_shard;
        let mut width = base_width;
        let lm = self.shared.topology.latency_model();
        if can_shard && self.shards.len() > 1 && lm.per_km_micros > 0.0 {
            let count = self.shards.len();
            let mut centre: Vec<Option<GeoPoint>> = vec![None; count];
            let mut radius = vec![0.0f64; count];
            for info in self.shared.topology.iter() {
                let r = self.shared.place[info.index.as_usize()].region as usize;
                match centre[r] {
                    None => centre[r] = Some(info.geo),
                    Some(c) => radius[r] = radius[r].max(c.distance_km(info.geo)),
                }
            }
            let mut min_km = f64::INFINITY;
            for a in 0..count {
                for b in a + 1..count {
                    if let (Some(ca), Some(cb)) = (centre[a], centre[b]) {
                        min_km = min_km.min((ca.distance_km(cb) - radius[a] - radius[b]).max(0.0));
                    }
                }
            }
            if min_km.is_finite() && min_km > 0.0 {
                let floor = ((lm.base.as_micros() as f64 + min_km * lm.per_km_micros)
                    * (1.0 - lm.jitter))
                    .floor() as u64;
                // -2 µs covers sub-µs rounding in `nominal` and the
                // round-to-nearest of the jitter sample.
                width = width.max(floor.saturating_sub(2)).max(base_width);
            }
        }
        self.shared.slice_width = width.max(1);
    }

    /// Pulls every node state machine back out in global index order.
    fn take_nodes(&mut self) -> Vec<N> {
        let n = self.shared.place.len();
        let mut per_shard: Vec<std::vec::IntoIter<N>> =
            self.shards.iter_mut().map(|s| std::mem::take(&mut s.nodes).into_iter()).collect();
        (0..n)
            .map(|i| {
                per_shard[self.shared.place[i].region as usize].next().expect("one node per slot")
            })
            .collect()
    }

    /// Sets the number of region shards (clamped to the number of distinct
    /// topology region names). The schedule is region-count invariant:
    /// traces are byte-identical at any setting.
    ///
    /// # Panics
    ///
    /// Panics if the world has started or events are pending.
    pub fn set_region_count(&mut self, count: usize) {
        assert!(!self.started && self.pending() == 0, "set_region_count before starting the world");
        let nodes = self.take_nodes();
        self.distribute(nodes, count.max(1));
    }

    /// Sets the calendar-queue geometry (bucket width in µs, bucket
    /// count). The schedule is bucket-width invariant: traces are
    /// byte-identical at any setting.
    ///
    /// # Panics
    ///
    /// Panics if the world has started or events are pending.
    pub fn set_wheel_geometry(&mut self, width_micros: u64, buckets: usize) {
        assert!(
            !self.started && self.pending() == 0,
            "set_wheel_geometry before starting the world"
        );
        self.bucket_width = width_micros.max(1);
        self.bucket_count = buckets.max(2);
        for shard in &mut self.shards {
            shard.queue = CalendarQueue::new(self.bucket_width, self.bucket_count);
            shard.head = None;
        }
    }

    /// Sets the worker thread count for bulk runs (`run_until`). The
    /// effective count is capped at the region count; 1 (the default, or
    /// via `GLOSS_SIM_THREADS`) keeps the sequential path. Thread count
    /// never changes outcomes — traces, counters, and schedules are
    /// byte-identical at any setting — only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of region shards.
    pub fn region_count(&self) -> usize {
        self.shards.len()
    }

    /// The lockstep slice width in microseconds (the cross-region
    /// lookahead; the synchronisation quantum of threaded execution).
    pub fn slice_micros(&self) -> u64 {
        self.shared.slice_width
    }

    /// Live per-link connection-state entries (bounded by churn purging;
    /// see the link-state leak regression test).
    pub fn link_state_count(&self) -> usize {
        self.shards.iter().map(|s| s.links.iter().map(FnvHashMap::len).sum::<usize>()).sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, index: NodeIndex) -> &N {
        let p = self.shared.place[index.as_usize()];
        &self.shards[p.region as usize].nodes[p.slot as usize]
    }

    /// Mutable access to a node's state machine (for test setup and for
    /// client APIs layered above the world).
    pub fn node_mut(&mut self, index: NodeIndex) -> &mut N {
        let p = self.shared.place[index.as_usize()];
        &mut self.shards[p.region as usize].nodes[p.slot as usize]
    }

    /// Iterates over all node state machines in global index order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.shared.place.iter().map(|p| &self.shards[p.region as usize].nodes[p.slot as usize])
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeIndex) -> bool {
        self.shared.alive[node.as_usize()]
    }

    /// Sets the independent per-message loss probability (ignores loopback).
    pub fn set_loss(&mut self, p: f64) {
        self.shared.loss = p.clamp(0.0, 1.0);
    }

    /// Overrides the loss probability on the directed link `from → to`,
    /// shadowing the world-level loss for that link only. A harness-level
    /// call: apply it between runs, like [`set_loss`](Self::set_loss).
    pub fn set_link_loss(&mut self, from: NodeIndex, to: NodeIndex, p: f64) {
        self.shared.link_faults.insert(link_key(from, to), p.clamp(0.0, 1.0));
    }

    /// Schedules a network partition at `at`: nodes with different group
    /// ids in `groups` cannot exchange messages while the partition is
    /// active (sends are dropped and counted as `sim.messages_partitioned`).
    /// If `heal_at` is given, the partition heals at that time; otherwise
    /// it lasts until [`heal_at`](Self::heal_at) or forever. Partitions
    /// apply as control barriers, so they are deterministic at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len()` differs from the node count, if `at` is in
    /// the past, or if `heal_at` precedes `at`.
    pub fn partition_at(&mut self, at: SimTime, heal_at: Option<SimTime>, groups: Vec<u8>) {
        assert_eq!(groups.len(), self.shared.place.len(), "one group id per node");
        assert!(at >= self.now, "cannot schedule into the past");
        let idx = self.partition_specs.len() as u32;
        self.partition_specs.push(groups);
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.ctrl.push(Reverse(CtrlEntry {
            key,
            node: NodeIndex(0),
            action: CtrlAction::Partition(idx),
        }));
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
            .shared
            .topology
            .iter()
            .map(|info| u8::from(regions.contains(&info.region.as_str())))
            .collect();
        self.partition_at(at, heal_at, groups);
    }

    /// Schedules the active partition (if any at that time) to heal at
    /// `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.ctrl.push(Reverse(CtrlEntry { key, node: NodeIndex(0), action: CtrlAction::Heal }));
    }

    /// Whether a partition is currently active.
    pub fn partitioned(&self) -> bool {
        self.shared.partition.is_some()
    }

    /// Enables trace collection (with a maximum retained event count).
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
        for shard in &mut self.shards {
            shard.scratch.tracing = true;
        }
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
        for i in 0..self.shared.place.len() {
            if self.shared.alive[i] {
                self.activate_now(NodeIndex(i as u32), Input::Start);
            }
        }
    }

    /// Runs one main-thread activation (start, recovery) at the world's
    /// current time and merges its effects immediately, mirroring the
    /// pre-shard engine's direct application order.
    fn activate_now(&mut self, node: NodeIndex, input: Input<N::Msg>) {
        let r = self.shared.place[node.as_usize()].region as usize;
        let window_end = self.window_end;
        let now = self.now;
        {
            let (shards, shared) = (&mut self.shards, &self.shared);
            let shard = &mut shards[r];
            shard.now = now;
            // Synthetic key: only `.at` is observable (trace timestamps);
            // single-activation merges preserve emission order.
            shard.cur_key = EvKey { at: now, class: CLASS_CTRL, a: u64::MAX, b: 0 };
            activate(shard, shared, window_end, node, input);
        }
        self.merge_shard(r);
    }

    fn push_harness_deliver(&mut self, at: SimTime, from: NodeIndex, to: NodeIndex, msg: N::Msg) {
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_HARNESS, a: self.harness_seq, b: 0 };
        let r = self.shared.place[to.as_usize()].region as usize;
        // Harness injections go straight into the destination queue: they
        // happen between run calls, never inside a slice.
        shard_push(&mut self.shards[r], Entry { key, kind: EntryKind::Deliver { from, to, msg } });
    }

    /// Injects a message from `from` to `to`, subject to normal latency.
    pub fn inject(&mut self, from: NodeIndex, to: NodeIndex, msg: N::Msg) {
        let latency = self.shared.topology.sample_latency(from, to, &mut self.rng);
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
        assert!(at >= self.now, "cannot schedule into the past");
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.ctrl.push(Reverse(CtrlEntry { key, node, action: CtrlAction::Crash }));
    }

    /// Schedules a recovery of `node` at time `at`; the node receives
    /// [`Input::Start`] when it recovers.
    pub fn recover_at(&mut self, at: SimTime, node: NodeIndex) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.harness_seq += 1;
        let key = EvKey { at, class: CLASS_CTRL, a: self.harness_seq, b: 0 };
        self.ctrl.push(Reverse(CtrlEntry { key, node, action: CtrlAction::Recover }));
    }

    /// Crashes `node` immediately, resetting its link connection state
    /// (both outbound and inbound entries are reclaimed).
    pub fn crash(&mut self, node: NodeIndex) {
        self.shared.alive[node.as_usize()] = false;
        self.metrics.inc("sim.crashes", 1.0);
        let p = self.shared.place[node.as_usize()];
        self.shards[p.region as usize].links[p.slot as usize].clear();
        for shard in &mut self.shards {
            for senders in &mut shard.links {
                senders.remove(&node.0);
            }
        }
        if !self.shared.link_faults.is_empty() {
            // Link faults model conditions of the *connection*; a restarted
            // node gets fresh links, so purge faults like link state.
            let n = node.0 as u64;
            self.shared.link_faults.retain(|k, _| (k >> 32) != n && (k & 0xffff_ffff) != n);
        }
    }

    /// Recovers `node` immediately, delivering [`Input::Start`].
    pub fn recover(&mut self, node: NodeIndex) {
        if !self.shared.alive[node.as_usize()] {
            self.shared.alive[node.as_usize()] = true;
            self.metrics.inc("sim.recoveries", 1.0);
            self.activate_now(node, Input::Start);
        }
    }

    /// Merges one shard's counter partials into the registry.
    fn merge_counters(&mut self, r: usize) {
        let shard = &mut self.shards[r];
        for (slot, id) in self.ids.ids.iter().enumerate() {
            let v = shard.engine[slot];
            if v != 0.0 {
                self.metrics.add(*id, v);
                shard.engine[slot] = 0.0;
            }
        }
        if !shard.counts.is_empty() {
            let mut counts: Vec<(Cow<'static, str>, f64)> = shard.counts.drain().collect();
            counts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (name, by) in counts {
                self.metrics.inc(&name, by);
            }
        }
        for (name, v) in shard.observations.drain(..) {
            self.metrics.observe(&name, v);
        }
    }

    /// Merges one shard's buffered effects (per-event path: the shard's
    /// trace buffer is already in canonical order).
    fn merge_shard(&mut self, r: usize) {
        self.merge_counters(r);
        let shard = &mut self.shards[r];
        if !shard.trace_buf.is_empty() {
            for (key, node, kind, detail) in shard.trace_buf.drain(..) {
                self.tracer.record(key.at, node, &kind, detail);
            }
        }
    }

    /// Merges every shard's buffered effects in shard order, interleaving
    /// trace records back into canonical key order (segment boundaries are
    /// time-monotone, so per-segment flushes concatenate correctly).
    fn merge_all(&mut self) {
        for r in 0..self.shards.len() {
            self.merge_counters(r);
        }
        let total: usize = self.shards.iter().map(|s| s.trace_buf.len()).sum();
        if total > 0 {
            let mut buf = std::mem::take(&mut self.trace_merge);
            buf.reserve(total);
            for shard in &mut self.shards {
                buf.append(&mut shard.trace_buf);
            }
            // Stable: same-key records (one activation) keep emission
            // order; keys are globally unique across shards.
            buf.sort_by_key(|r| r.0);
            for (key, node, kind, detail) in buf.drain(..) {
                self.tracer.record(key.at, node, &kind, detail);
            }
            self.trace_merge = buf;
        }
    }

    /// Moves every shard's buffered cross-shard entries into destination
    /// queues (the slice-boundary handover of the sequential path).
    fn flush_outgoing(&mut self) {
        if self.shards.iter().all(|s| s.outgoing_len == 0) {
            return;
        }
        let count = self.shards.len();
        for src in 0..count {
            if self.shards[src].outgoing_len == 0 {
                continue;
            }
            for dst in 0..count {
                if self.shards[src].outgoing[dst].is_empty() {
                    continue;
                }
                let mut buf = std::mem::take(&mut self.shards[src].outgoing[dst]);
                for e in buf.drain(..) {
                    shard_push(&mut self.shards[dst], e);
                }
                self.shards[src].outgoing[dst] = buf;
            }
            self.shards[src].outgoing_len = 0;
        }
    }

    /// Whether the lockstep window currently covers time `t` (µs).
    fn window_contains(&self, t: u64) -> bool {
        t < self.window_end
            && (self.window_end == u64::MAX || t >= self.window_end - self.shared.slice_width)
    }

    /// Moves the window to the slice containing time `t` (µs). This jumps
    /// forward over empty slices, and also back: a run can stop
    /// mid-stretch and harness activity (injects between run calls) may
    /// then schedule work before the speculatively advanced window.
    /// Outgoing entries are always due at or after the window that
    /// buffered them, so retreating is safe.
    fn move_window(&mut self, t: u64) {
        let w = self.shared.slice_width;
        let aligned = (t / w).saturating_add(1).saturating_mul(w);
        // Alignment overflow (pathological far-future event): fall back to
        // one unbounded window.
        self.window_end = if aligned <= t { u64::MAX } else { aligned };
    }

    /// The minimal pending key over the control heap and all shard heads.
    fn scan_min(&self) -> Option<(EvKey, NextSrc)> {
        let mut best: Option<(EvKey, NextSrc)> = self.ctrl.peek().map(|r| (r.0.key, NextSrc::Ctrl));
        for (r, shard) in self.shards.iter().enumerate() {
            if let Some(k) = shard.head {
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, NextSrc::Region(r)));
                }
            }
        }
        best
    }

    /// Positions the scheduler on the next canonical event: flushes the
    /// boundary exchange and moves the lockstep window as needed, then
    /// returns the minimal key over the control heap and all shard queues.
    fn position_next(&mut self) -> Option<(EvKey, NextSrc)> {
        loop {
            if self.window_end == u64::MAX && self.shards.iter().any(|s| s.outgoing_len > 0) {
                // Unbounded window: there are no further slice boundaries
                // to flush at, so buffered cross-shard sends must become
                // visible before the minimum is trusted (the pre-shard
                // engine direct-pushed these).
                self.flush_outgoing();
            }
            let Some((k, src)) = self.scan_min() else {
                if self.shards.iter().any(|s| s.outgoing_len > 0) {
                    self.flush_outgoing();
                    continue;
                }
                return None;
            };
            if self.window_contains(k.at.as_micros()) {
                return Some((k, src));
            }
            if self.shards.iter().any(|s| s.outgoing_len > 0) {
                self.flush_outgoing();
                continue;
            }
            self.move_window(k.at.as_micros());
        }
    }

    /// Processes the next queued event — a crash/recovery, a timer, or a
    /// same-instant delivery batch. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.start_all();
        let Some((key, src)) = self.position_next() else {
            return false;
        };
        self.step_at(key, src);
        true
    }

    /// Processes the event `position_next` selected.
    fn step_at(&mut self, key: EvKey, src: NextSrc) {
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        match src {
            NextSrc::Ctrl => {
                let Reverse(ctrl) = self.ctrl.pop().expect("peeked");
                match ctrl.action {
                    CtrlAction::Crash => self.crash(ctrl.node),
                    CtrlAction::Recover => self.recover(ctrl.node),
                    CtrlAction::Partition(idx) => {
                        self.shared.partition = Some(self.partition_specs[idx as usize].clone());
                        self.metrics.inc("sim.partitions", 1.0);
                    }
                    CtrlAction::Heal => {
                        if self.shared.partition.take().is_some() {
                            self.metrics.inc("sim.heals", 1.0);
                        }
                    }
                }
            }
            NextSrc::Region(r) => {
                let window_end = self.window_end;
                {
                    let (shards, shared) = (&mut self.shards, &self.shared);
                    let shard = &mut shards[r];
                    process_entry(shard, shared, window_end);
                    shard.head = shard.queue.peek().map(|e| e.key);
                }
                self.merge_shard(r);
            }
        }
    }

    /// Runs until the queue is empty or simulated time reaches `t`.
    /// Afterwards `now() == t` unless the queue emptied earlier.
    ///
    /// Runs slice by slice in *segments* (stretches free of control
    /// events): each region drains its own queue for the current lockstep
    /// window — sequentially, or concurrently on scoped worker threads
    /// when [`set_threads`](Self::set_threads) / `GLOSS_SIM_THREADS` asks
    /// for more than one — crash/recover events act as barriers between
    /// segments, and the boundary exchange is flushed between windows.
    /// With tracing on, trace records are merged back into canonical key
    /// order at each segment boundary, so the trace is byte-identical at
    /// any region count and any thread count.
    pub fn run_until(&mut self, t: SimTime) {
        self.start_all();
        loop {
            self.flush_outgoing();
            let Some((k, src)) = self.scan_min() else {
                break;
            };
            if k.at > t {
                break;
            }
            if let NextSrc::Ctrl = src {
                // Everything ordered before the control event has been
                // processed (it is the global minimum): apply it through
                // the one authoritative control path.
                self.step_at(k, src);
                continue;
            }
            if !self.window_contains(k.at.as_micros()) {
                self.move_window(k.at.as_micros());
            }
            if self.window_end == u64::MAX {
                // Degenerate unbounded window (alignment overflow): drain
                // everything due up to `t` honouring control barriers;
                // cross-shard traffic flushes between outer-loop passes.
                let barrier = self.ctrl.peek().map(|c| c.0.key);
                for r in 0..self.shards.len() {
                    let (shards, shared) = (&mut self.shards, &self.shared);
                    drain_shard(&mut shards[r], shared, t, barrier, u64::MAX);
                    // Flush after every shard: with no further slice
                    // boundaries, later-drained shards must see earlier
                    // shards' sends in this same pass (the pre-shard
                    // engine direct-pushed these).
                    self.flush_outgoing();
                }
                self.merge_all();
                continue;
            }
            let workers = self.threads.min(self.shards.len());
            if workers > 1 {
                self.run_segment_threaded(t, workers);
            } else {
                self.run_segment_sequential(t);
            }
            self.merge_all();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Drains whole windows on the main thread until a control event comes
    /// due, `t` is reached, the queues empty, or the window degenerates.
    fn run_segment_sequential(&mut self, t: SimTime) {
        loop {
            self.flush_outgoing();
            let Some((k, src)) = self.scan_min() else {
                return;
            };
            if k.at > t || matches!(src, NextSrc::Ctrl) {
                return;
            }
            if !self.window_contains(k.at.as_micros()) {
                self.move_window(k.at.as_micros());
                if self.window_end == u64::MAX {
                    return;
                }
            }
            let barrier = self.ctrl.peek().map(|c| c.0.key);
            let stop_at = SimTime::from_micros(t.as_micros().min(self.window_end - 1));
            let window_end = self.window_end;
            let (shards, shared) = (&mut self.shards, &self.shared);
            for shard in shards.iter_mut() {
                // The cached head gates the drain: idle shards skip the
                // queue peek + refresh entirely.
                if shard.head.is_some_and(|h| h.at <= stop_at && barrier.is_none_or(|b| h <= b)) {
                    drain_shard(shard, shared, stop_at, barrier, window_end);
                }
            }
        }
    }

    /// Drains whole windows with one scoped worker thread pool: shards are
    /// distributed round-robin over `workers` threads (the calling thread
    /// is worker 0), which synchronise per slice and exchange cross-shard
    /// messages through mailboxes. Ends on the same conditions as the
    /// sequential segment; per-shard work and merge order are identical,
    /// so outcomes are byte-identical.
    fn run_segment_threaded(&mut self, t: SimTime, workers: usize) {
        let ctrl_key = self.ctrl.peek().map(|c| c.0.key);
        let coord = Coord {
            window: AtomicU64::new(self.window_end),
            stop: AtomicBool::new(false),
            sync: SyncPoint::new(workers),
            mins: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            mailboxes: (0..self.shards.len()).map(|_| Mutex::new(Vec::new())).collect(),
            slice: self.shared.slice_width,
            t_us: t.as_micros(),
            ctrl_at: ctrl_key.map_or(u64::MAX, |k| k.at.as_micros()),
        };
        let shared = &self.shared;
        let mut chunks: Vec<Vec<(usize, &mut Shard<N>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (r, shard) in self.shards.iter_mut().enumerate() {
            chunks[r % workers].push((r, shard));
        }
        std::thread::scope(|s| {
            let coord = &coord;
            let mut chunks = chunks.into_iter();
            let own = chunks.next().expect("workers >= 1");
            for (wid, chunk) in chunks.enumerate() {
                s.spawn(move || worker_loop(wid + 1, chunk, shared, coord, ctrl_key));
            }
            worker_loop(0, own, shared, coord, ctrl_key);
        });
        self.window_end = coord.window.load(Ordering::Acquire);
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
            let Some((key, src)) = self.position_next() else {
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
            self.step_at(key, src);
        }
        self.now = limit;
        limit
    }

    /// Number of entries waiting across all queues (control events, shard
    /// queues, and the boundary exchange).
    pub fn pending(&self) -> usize {
        self.ctrl.len() + self.shards.iter().map(|s| s.queue.len() + s.outgoing_len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

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
    fn region_count_and_wheel_geometry_do_not_change_outcomes() {
        let run = |regions: usize, width: u64, buckets: usize| {
            let t = Topology::random(8, &["scotland", "us-east", "asia", "brazil"], 5);
            let nodes = (0..8).map(|_| TestNode::default()).collect();
            let mut w = World::new(t, 5, nodes);
            w.set_region_count(regions);
            w.set_wheel_geometry(width, buckets);
            for i in 0..8u32 {
                w.inject(NodeIndex(i), NodeIndex((i + 1) % 8), M::Ping);
            }
            w.run_until(SimTime::from_secs(2));
            let pongs: Vec<u32> = w.nodes().map(|n| n.pongs).collect();
            (pongs, w.metrics().counter("sim.messages_sent"), w.now())
        };
        let baseline = run(1, DEFAULT_BUCKET_WIDTH, DEFAULT_BUCKET_COUNT);
        assert_eq!(baseline, run(2, DEFAULT_BUCKET_WIDTH, DEFAULT_BUCKET_COUNT));
        assert_eq!(baseline, run(4, 64, 32));
        assert_eq!(baseline, run(4, 10_000, 8));
    }

    #[test]
    fn multi_region_world_shards_by_topology_region() {
        let t = Topology::random(8, &["scotland", "us-east"], 5);
        let nodes = (0..8).map(|_| TestNode::default()).collect::<Vec<_>>();
        let w = World::new(t, 5, nodes);
        assert_eq!(w.region_count(), 2);
        assert_ne!(w.shared.place[0].region, w.shared.place[1].region);
        assert!(w.slice_micros() > 0);
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let run = |threads: usize| {
            let t = Topology::random(12, &["scotland", "us-east", "asia", "brazil"], 9);
            let nodes = (0..12).map(|_| TestNode::default()).collect();
            let mut w = World::new(t, 9, nodes);
            w.set_threads(threads);
            w.set_loss(0.2);
            for i in 0..12u32 {
                w.inject(NodeIndex(i), NodeIndex((i + 5) % 12), M::Ping);
                w.inject(NodeIndex(i), NodeIndex((i + 7) % 12), M::Burst(3));
            }
            w.crash_at(SimTime::from_millis(8), NodeIndex(3));
            w.recover_at(SimTime::from_millis(40), NodeIndex(3));
            w.run_until(SimTime::from_secs(2));
            let pongs: Vec<u32> = w.nodes().map(|n| n.pongs).collect();
            let m = w.metrics();
            (
                pongs,
                m.counter("sim.messages_sent"),
                m.counter("sim.messages_lost"),
                m.counter("sim.messages_delivered"),
                w.now(),
            )
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(4));
        // Requests beyond the shard count cap at the shard count.
        assert_eq!(baseline, run(64));
    }

    #[test]
    fn slice_width_refinement_never_narrows_the_base_floor() {
        let t = Topology::random(16, &["scotland", "brazil"], 3);
        let lm = t.latency_model();
        let base_floor = (lm.base.as_micros() as f64 * (1.0 - lm.jitter)).floor() as u64;
        let nodes = (0..16).map(|_| TestNode::default()).collect::<Vec<_>>();
        let w = World::new(t, 3, nodes);
        // Distant region pair: the refined cross-shard lookahead widens
        // the slice well past the base floor.
        assert!(w.slice_micros() > base_floor, "refined {} <= base {base_floor}", w.slice_micros());
    }

    #[test]
    fn threads_env_parsing() {
        assert_eq!(threads_from_env(None), 1);
        assert_eq!(threads_from_env(Some("")), 1);
        assert_eq!(threads_from_env(Some("0")), 1);
        assert_eq!(threads_from_env(Some("nope")), 1);
        assert_eq!(threads_from_env(Some("4")), 4);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
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
            let from_inner = out.nested(
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
    fn sync_point_smoke() {
        let sp = SyncPoint::new(4);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..100 {
                        sp.wait(|| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
            for _ in 0..100 {
                sp.wait(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100, "one leader per barrier round");
    }
}
