//! PR 8 equivalence proofs: the counting [`FilterIndex`] and the indexed
//! [`Broker`] must be observably identical to the linear implementations
//! they replaced.
//!
//! Two layers:
//!
//! 1. **Match-set equivalence** — for random filters spanning all ten
//!    operators and mixed attribute types (including NaN floats, negative
//!    zero, empty-string patterns and cross-type constraints), every
//!    verified shape beside a point constraint, and kinds that include
//!    two whose FNV-1a hashes collide, the index returns exactly the ids
//!    a filter-by-filter scan returns, in the same order (through
//!    `matching_event` and `hits` alike, the latter with the
//!    owner each was stored for), across rounds of removal and
//!    re-insertion into one index (slot, counter and kind and attribute
//!    id reuse), and `covering_ids` returns exactly the ids
//!    `Filter::covers` admits on the same tables.
//! 2. **Delivery equivalence** — replaying a random
//!    subscribe/unsubscribe/publish/detach/roaming script through a
//!    three-broker line of indexed [`Broker`]s and of [`LinearBroker`]s
//!    yields byte-identical per-client notification streams and equal
//!    delivery counters (one `Notify` per client per event, however many
//!    of its subscriptions match), and every filter the linear broker
//!    forwards on a link is covered by some filter the indexed broker
//!    forwards there (the covering-soundness invariant that makes the
//!    delivery claim hold in general). The same scripts, publications
//!    given priorities, run once more under a tight `ShedConfig`: equal
//!    streams and equal shed / rejected / queue-delay totals.
//! 3. **The star** — the same claim on a hub and four leaves wired as
//!    the architecture wires `GlossNode`s, each broker's own node its
//!    client: the topology where a broker skips one of its two
//!    subscription tables (a leaf notified by the hub probes only its
//!    clients'). Late subscriptions, merged covers, detaches and moves
//!    are mixed in, and a broker whose neighbour is also its client
//!    must send what the linear broker sends, in the same order.
//!
//! 4. **Subscriptions that start in the past** — the star over FIFO
//!    links with sampled latencies, the hub keeping a replay log: a late
//!    subscriber's replay and the live stream after it, against the
//!    hub's arrival sequence scanned by `Filter::matches`. And a client
//!    roaming from one end of a four-broker line to the other while
//!    publishers on both sides publish: every match once, none lost.
//!
//! Every [`BrokerMsg`] variant is handled in both worlds by these scripts
//! (`the_script_drives_every_broker_message`); [`variant_name`] has no
//! wildcard arm, so a new variant does not compile until it is placed
//! under the oracle.

use gloss_event::{
    AttrValue, Broker, BrokerMsg, BrokerTopology, Event, EventId, Filter, FilterIndex,
    LinearBroker, Op, ShedConfig, Subscription,
};
use gloss_sim::{NodeIndex, Outbox, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const ATTRS: [&str; 4] = ["x", "y", "s", "u"];
const STRINGS: [&str; 5] = ["", "st", "st andrews", "dundee", "ab"];
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

fn rand_value(rng: &mut SimRng) -> AttrValue {
    match rng.range(0, 9) {
        0 => AttrValue::Int(rng.range(0, 7) as i64 - 3),
        1 => AttrValue::Float(rng.range(0, 9) as f64 / 2.0 - 2.0),
        2 => AttrValue::Float(-0.0),
        3 => AttrValue::Float(f64::NAN),
        4 => AttrValue::Bool(rng.chance(0.5)),
        5 | 6 => AttrValue::Str(STRINGS[rng.index(STRINGS.len())].into()),
        _ => AttrValue::Int(rng.range(0, 3) as i64),
    }
}

fn rand_filter(rng: &mut SimRng) -> Filter {
    // A third of filters take a deliberately mergeable shape — same kind,
    // an open x-interval, usually a distinguishing Eq — so scripts
    // routinely drive the brokers' merge path and forward broker-minted
    // covers across hops (the foreign-merged-cover regression surface).
    if rng.chance(0.33) {
        let kind = ["a", "b"][rng.index(2)];
        let mut f = Filter::for_kind(kind).with_constraint("x", Op::Gt, rng.range(0, 7) as i64 - 3);
        if rng.chance(0.7) {
            f = f.with_eq("u", STRINGS[rng.index(STRINGS.len())]);
        }
        return f;
    }
    let mut f = match rng.range(0, 3) {
        0 => Filter::any(),
        1 => Filter::for_kind("a"),
        _ => Filter::for_kind("b"),
    };
    for _ in 0..rng.range(0, 4) {
        let attr = ATTRS[rng.index(ATTRS.len())];
        let op = OPS[rng.index(OPS.len())];
        f = f.with_constraint(attr, op, rand_value(rng));
    }
    f
}

/// Two kinds whose 32-bit FNV-1a hashes collide (low half, low bit
/// set). An earlier index counted by that hash; ids keep them apart.
const COLLIDING: [&str; 2] = ["k21608", "k82419"];

fn rand_event(rng: &mut SimRng) -> Event {
    rand_event_of(rng, &["a", "b", "c"])
}

fn rand_event_of(rng: &mut SimRng, kinds: &[&str]) -> Event {
    let kind = kinds[rng.index(kinds.len())];
    let mut e = Event::new(kind);
    for _ in 0..rng.range(0, 4) {
        let attr = ATTRS[rng.index(ATTRS.len())];
        e = e.with_attr(attr, rand_value(rng));
    }
    e
}

/// [`rand_filter`], plus the shapes the select-then-verify probe treats
/// specially: an indexed and a verified constraint on the *same*
/// attribute, a filter whose only point constraint can never be
/// satisfied (`Eq NaN`, entered nowhere) beside a range that can, and a
/// point constraint beside each verified shape. A third of them then
/// take one of the [`COLLIDING`] kinds.
fn rand_index_filter(rng: &mut SimRng) -> Filter {
    let f = rand_index_shape(rng);
    if rng.chance(0.33) {
        let kind = COLLIDING[rng.index(COLLIDING.len())];
        return Filter::from_parts(Some(kind.into()), f.constraints().to_vec());
    }
    f
}

fn rand_index_shape(rng: &mut SimRng) -> Filter {
    let range_ops = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Ne];
    let bound = rng.range(0, 7) as i64 - 3;
    match rng.range(0, 8) {
        0 => Filter::for_kind(["a", "b"][rng.index(2)])
            .with_eq("x", rng.range(0, 7) as i64 - 3)
            .with_constraint("x", range_ops[rng.index(range_ops.len())], bound),
        1 => Filter::any()
            .with_constraint("s", Op::Prefix, STRINGS[rng.index(STRINGS.len())])
            .with_constraint("s", Op::Suffix, STRINGS[rng.index(STRINGS.len())]),
        2 => Filter::any().with_eq("y", f64::NAN).with_constraint(
            "x",
            range_ops[rng.index(range_ops.len())],
            bound,
        ),
        3 | 4 => {
            let mut f = match rng.range(0, 3) {
                0 => Filter::any(),
                k => Filter::for_kind(["a", "b"][k as usize - 1]),
            };
            let (attr, op, value) = rand_point(rng);
            f = f.with_constraint(attr, op, value);
            for _ in 0..rng.range(1, 3) {
                let (op, value) = rand_verified(rng);
                f = f.with_constraint(ATTRS[rng.index(ATTRS.len())], op, value);
            }
            f
        }
        _ => rand_filter(rng),
    }
}

/// A constraint that selects (an `Eq` on a non-NaN value of any type, or
/// a `Prefix`), on a random attribute.
fn rand_point(rng: &mut SimRng) -> (&'static str, Op, AttrValue) {
    let attr = ATTRS[rng.index(ATTRS.len())];
    let string = AttrValue::Str(STRINGS[rng.index(STRINGS.len())].into());
    match rng.range(0, 5) {
        0 => (attr, Op::Eq, string),
        1 => (attr, Op::Eq, AttrValue::Int(rng.range(0, 3) as i64)),
        2 => (attr, Op::Eq, AttrValue::Float(rng.range(0, 5) as f64 / 2.0)),
        3 => (attr, Op::Eq, AttrValue::Bool(rng.chance(0.5))),
        _ => (attr, Op::Prefix, string),
    }
}

/// A constraint a point constraint leaves to be verified: `Ne`,
/// `Suffix`, `Contains`, `Exists`, or an ordering on a string, a bool,
/// an `Int`, a `Float` or `NaN`.
fn rand_verified(rng: &mut SimRng) -> (Op, AttrValue) {
    let order = [Op::Lt, Op::Le, Op::Gt, Op::Ge][rng.index(4)];
    let string = AttrValue::Str(STRINGS[rng.index(STRINGS.len())].into());
    match rng.range(0, 9) {
        0 => (Op::Ne, rand_value(rng)),
        1 => (Op::Suffix, string),
        2 => (Op::Contains, string),
        3 => (Op::Exists, rand_value(rng)),
        4 => (order, string),
        5 => (order, AttrValue::Bool(rng.chance(0.5))),
        6 => (order, AttrValue::Int(rng.range(0, 7) as i64 - 3)),
        7 => (order, AttrValue::Float(rng.range(0, 9) as f64 / 2.0 - 2.0)),
        _ => (order, AttrValue::Float(f64::NAN)),
    }
}

/// The owner a subscription is stored for in the match-set oracle.
fn owner_of(id: u64) -> u32 {
    (id % 7) as u32
}

/// A covering query inside the fragment `covering_ids` answers: an
/// optional kind and `Eq` constraints on distinct attributes.
fn rand_eq_query(rng: &mut SimRng) -> Filter {
    let kinds = ["a", "b", COLLIDING[0], COLLIDING[1]];
    let mut q = match rng.index(kinds.len() + 1) {
        0 => Filter::any(),
        k => Filter::for_kind(kinds[k - 1]),
    };
    for attr in ATTRS {
        if rng.chance(0.4) {
            q = q.with_eq(attr, rand_value(rng));
        }
    }
    q
}

/// The index must agree with a scan of `subs` (held in insertion order):
/// match sets through `Filter::matches`, cover sets through
/// `Filter::covers`. `hits` must yield `matching_event`'s sequence,
/// each id with its [`owner_of`], under rising insertion sequences.
fn check_against_scan(
    index: &FilterIndex,
    subs: &[Subscription],
    rng: &mut SimRng,
    stage: &str,
) -> Result<(), TestCaseError> {
    for _ in 0..12 {
        let e = rand_event_of(rng, &["a", "b", "c", COLLIDING[0], COLLIDING[1]]);
        let want: Vec<u64> = subs.iter().filter(|s| s.filter.matches(&e)).map(|s| s.id).collect();
        let got = index.matching_event(&e);
        prop_assert_eq!(&got, &want, "{stage}: event {e}: index {got:?}, scan {want:?}");
        let hits = index.hits(&e);
        let walked: Vec<(u64, u32)> = hits.iter().map(|&(_, id, owner)| (id, owner)).collect();
        let owned: Vec<(u64, u32)> = got.iter().map(|&id| (id, owner_of(id))).collect();
        prop_assert_eq!(&walked, &owned, "{stage}: event {e}: hits");
        prop_assert!(hits.windows(2).all(|w| w[0].0 < w[1].0), "{stage}: event {e}: sequences");
    }
    for _ in 0..4 {
        let q = rand_eq_query(rng);
        let want: Vec<u64> = subs.iter().filter(|s| s.filter.covers(&q)).map(|s| s.id).collect();
        let got = index.covering_ids(&q).expect("all-Eq query on distinct attributes");
        prop_assert_eq!(&got, &want, "{stage}: query {q}: index {got:?}, covers {want:?}");
    }
    Ok(())
}

proptest! {
    #[test]
    fn index_match_set_equals_linear_scan(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        // One index lives through every round, so later rounds insert
        // into slots earlier rounds freed and probe with counters earlier
        // probes stamped: a stale stamp or count would show as a
        // disagreement with the scan.
        let mut index = FilterIndex::new();
        let mut subs: Vec<Subscription> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        let mut next_id = 0;
        for round in 0..4 {
            for _ in 0..rng.range(1, 31) {
                // Half the time a removed id comes back, under a new
                // filter and at the back of the table.
                let id = if !retired.is_empty() && rng.chance(0.5) {
                    retired.swap_remove(rng.index(retired.len()))
                } else {
                    next_id += 1;
                    next_id
                };
                let sub = Subscription { id, filter: rand_index_filter(&mut rng) };
                prop_assert!(index.insert_owned(sub.clone(), owner_of(id)));
                subs.push(sub);
            }
            check_against_scan(&index, &subs, &mut rng, &format!("round {round}, filled"))?;
            // Remove a random subset, and every filter of one kind or
            // naming one attribute, so that their ids are freed and the
            // next round hands them to whichever name comes first. The
            // survivors must still match exactly.
            let kind = ["a", "b", COLLIDING[0], COLLIDING[1]][rng.index(4)];
            let attr = ATTRS[rng.index(ATTRS.len())];
            let mut i = 0;
            while i < subs.len() {
                let f = &subs[i].filter;
                let doomed = f.kind() == Some(kind) || f.constraints().iter().any(|c| c.attr == attr);
                if !doomed && rng.chance(0.5) {
                    i += 1;
                } else {
                    let gone = subs.remove(i);
                    let removed = index.remove(gone.id).map(|(s, owner)| (s.id, owner));
                    prop_assert_eq!(removed, Some((gone.id, owner_of(gone.id))));
                    retired.push(gone.id);
                }
            }
            prop_assert_eq!(index.len(), subs.len());
            check_against_scan(&index, &subs, &mut rng, &format!("round {round}, thinned"))?;
        }
    }
}

/// The pieces of broker state the dual-world harness compares.
trait AnyBroker {
    /// Broker `i` of the 0..BROKERS line.
    fn on_line(i: u32) -> Self;
    /// Broker `i` of the 0..`len` line.
    fn on_line_of(len: u32, i: u32) -> Self;
    /// Broker 0 with no neighbours, its ingress bounded by [`tight_shed`].
    fn shedding_island() -> Self;
    /// Broker `i` of the hub-and-leaves [`star`].
    fn in_star(i: u32) -> Self;
    fn dispatch(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    );
    fn forwarded(&self, target: NodeIndex) -> Vec<Filter>;
}

impl AnyBroker for Broker {
    fn on_line(i: u32) -> Self {
        Broker::on_line_of(BROKERS, i)
    }
    fn on_line_of(len: u32, i: u32) -> Self {
        Broker::new(NodeIndex(i), line(len, i))
    }
    fn shedding_island() -> Self {
        Broker::new(NodeIndex(0), island()).with_shedding(tight_shed())
    }
    fn in_star(i: u32) -> Self {
        Broker::new(NodeIndex(i), star(i))
    }
    fn dispatch(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.handle(now, from, msg, out);
    }
    fn forwarded(&self, target: NodeIndex) -> Vec<Filter> {
        self.forwarded_filters(target)
    }
}

impl AnyBroker for LinearBroker {
    fn on_line(i: u32) -> Self {
        LinearBroker::on_line_of(BROKERS, i)
    }
    fn on_line_of(len: u32, i: u32) -> Self {
        LinearBroker::new(NodeIndex(i), line(len, i))
    }
    fn shedding_island() -> Self {
        LinearBroker::new(NodeIndex(0), island()).with_shedding(tight_shed())
    }
    fn in_star(i: u32) -> Self {
        LinearBroker::new(NodeIndex(i), star(i))
    }
    fn dispatch(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.handle(now, from, msg, out);
    }
    fn forwarded(&self, target: NodeIndex) -> Vec<Filter> {
        self.forwarded_filters(target)
    }
}

/// Number of brokers in the line; nodes 0..BROKERS are brokers, 10+
/// are clients.
const BROKERS: u32 = 3;

/// Topology of broker `i` in the 0..`len` line.
fn line(len: u32, i: u32) -> BrokerTopology {
    let mut neighbors = Vec::new();
    if i > 0 {
        neighbors.push(NodeIndex(i - 1));
    }
    if i + 1 < len {
        neighbors.push(NodeIndex(i + 1));
    }
    BrokerTopology::Peer { neighbors }
}

/// Number of leaves of the star; nodes 0..=LEAVES are brokers (0 the
/// hub), 10+ roaming clients.
const LEAVES: u32 = 4;

/// Topology of broker `i` of the star: the hub 0 neighbours every leaf,
/// and a leaf only the hub — how the architecture wires `GlossNode`s.
fn star(i: u32) -> BrokerTopology {
    let neighbors = if i == 0 { (1..=LEAVES).map(NodeIndex).collect() } else { vec![NodeIndex(0)] };
    BrokerTopology::Peer { neighbors }
}

/// A broker with no neighbours. Under shedding only this topology can
/// be held to equal streams: what crosses a link differs between the
/// brokers by design (the covering DAG prunes and merges more, and a
/// merged cover admits more events), and every message that crosses
/// deepens the receiving shedder's backlog — on the 0..BROKERS line the
/// two worlds part ways in about four scripts of ten.
fn island() -> BrokerTopology {
    BrokerTopology::Peer { neighbors: Vec::new() }
}

/// Selective shedding from depth 4, hard bound 8, draining a little
/// slower than one message per [`SHED_STEP`]: a script crosses both
/// marks and comes back.
fn tight_shed() -> ShedConfig {
    ShedConfig {
        capacity: 8.0,
        high_watermark: 4.0,
        drain_per_sec: 10.0,
        priority_floor: 4.0,
        fair_window: SimDuration::from_secs(1),
        fair_share: 3,
    }
}

/// Simulated time between script steps in the shedding run.
const SHED_STEP: SimDuration = SimDuration::from_millis(80);

/// One injected protocol message: (destination broker, from, message).
type ScriptStep = (u32, u32, BrokerMsg);

/// The counters (and the one histogram, by its sum) both brokers must
/// keep alike: they count what clients are sent, what roaming clients
/// left and were replayed, and what the ingress shedder decided.
/// (`subs_pruned` / `subs_merged` legitimately differ — the covering DAG
/// prunes and merges more than the linear table.)
const DELIVERY_COUNTERS: [&str; 8] = [
    "pubsub.delivered_local",
    "pubsub.replayed",
    "pubsub.move_out",
    "pubsub.away_expired",
    "pubsub.replay_expired",
    "pubsub.shed",
    "pubsub.subs_rejected",
    "pubsub.queue_delay_us",
];

/// The variant's name. No wildcard arm: a variant added to [`BrokerMsg`]
/// must be named here and in [`VARIANTS`], and then
/// `the_script_drives_every_broker_message` fails until the script
/// produces it.
fn variant_name(msg: &BrokerMsg) -> &'static str {
    match msg {
        BrokerMsg::Subscribe(_) => "Subscribe",
        BrokerMsg::Unsubscribe(_) => "Unsubscribe",
        BrokerMsg::Publish(_) => "Publish",
        BrokerMsg::Notify(_) => "Notify",
        BrokerMsg::Attach => "Attach",
        BrokerMsg::Detach => "Detach",
        BrokerMsg::MoveOut => "MoveOut",
        BrokerMsg::Replay { .. } => "Replay",
        BrokerMsg::Replayed { .. } => "Replayed",
    }
}

/// Every name [`variant_name`] returns.
const VARIANTS: [&str; 9] = [
    "Subscribe",
    "Unsubscribe",
    "Publish",
    "Notify",
    "Attach",
    "Detach",
    "MoveOut",
    "Replay",
    "Replayed",
];

/// What one world's clients were sent, and what its brokers counted.
#[derive(Debug, Default)]
struct Seen {
    /// Per client, the events it was sent, notified or replayed, in
    /// order.
    deliveries: BTreeMap<u32, Vec<Event>>,
    /// Per client, the replays it was sent, in order.
    replays: BTreeMap<u32, Vec<Vec<(SimTime, Event)>>>,
    /// Totals of the [`DELIVERY_COUNTERS`].
    counters: BTreeMap<&'static str, f64>,
    /// [`variant_name`] of every message a broker handled.
    handled: BTreeSet<&'static str>,
    /// On the [`star`]: notifications a leaf sent its own node for an
    /// event the hub forwarded, and covers the brokers merged (each
    /// world's own business, so neither is compared).
    relayed: usize,
    merged: f64,
}

impl Seen {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn delivered(&self) -> usize {
        self.deliveries.values().map(Vec::len).sum()
    }

    /// What the two worlds must agree on, rendered: `Event` equality is
    /// false for NaN attrs (IEEE semantics), but identical bytes are what
    /// we claim. (`handled` is left out: which messages cross a link is
    /// each broker's own business.)
    fn streams(&self) -> String {
        format!("{:?} {:?} {:?}", self.deliveries, self.replays, self.counters)
    }

    /// Records what a broker sent client `to`.
    fn sent(&mut self, to: u32, msg: &BrokerMsg) {
        match msg {
            BrokerMsg::Notify(e) => self.deliveries.entry(to).or_default().push(e.clone()),
            BrokerMsg::Replayed { events, .. } => {
                let received = self.deliveries.entry(to).or_default();
                received.extend(events.iter().map(|(_, e)| e.clone()));
                self.replays.entry(to).or_default().push(events.clone())
            }
            _ => {}
        }
    }
}

/// Injects one message at time zero and shuttles all resulting
/// inter-broker traffic until quiescent, recording notifications
/// delivered to clients.
fn run_step<B: AnyBroker>(brokers: &mut [B], step: &ScriptStep, seen: &mut Seen) {
    run_step_at(SimTime::ZERO, brokers, step, seen);
}

/// [`run_step`] at simulated time `now` (all that a shedder reads of it).
fn run_step_at<B: AnyBroker>(now: SimTime, brokers: &mut [B], step: &ScriptStep, seen: &mut Seen) {
    let mut q: VecDeque<ScriptStep> = VecDeque::from([step.clone()]);
    while let Some((to, from, msg)) = q.pop_front() {
        seen.handled.insert(variant_name(&msg));
        let mut out = Outbox::new();
        brokers[to as usize].dispatch(now, NodeIndex(from), msg, &mut out);
        for (t, m) in out.sends() {
            if t.0 < BROKERS {
                q.push_back((t.0, to, m.clone()));
            } else {
                seen.sent(t.0, m);
            }
        }
        for (name, by) in out.counts().iter().chain(out.observations()) {
            if let Some(known) = DELIVERY_COUNTERS.iter().find(|c| *c == name) {
                *seen.counters.entry(known).or_default() += by;
            }
        }
    }
}

/// Generates a random but protocol-valid script: clients attach to a
/// broker line, then subscribe, unsubscribe, publish, detach/re-attach,
/// and roam between brokers (their old broker logging for them).
fn rand_script(rng: &mut SimRng) -> Vec<ScriptStep> {
    struct Client {
        node: u32,
        home: u32,
        attached: bool,
        /// Moved out of `home`, which logs for it.
        away: bool,
        next_sub: u64,
        live: Vec<Subscription>,
    }
    let n_clients = rng.range(2, 5) as u32;
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|i| Client {
            node: 10 + i,
            home: rng.range(0, u64::from(BROKERS)) as u32,
            attached: false,
            away: false,
            next_sub: 0,
            live: Vec::new(),
        })
        .collect();
    let mut script: Vec<ScriptStep> = Vec::new();
    for c in &mut clients {
        script.push((c.home, c.node, BrokerMsg::Attach));
        c.attached = true;
    }
    for _ in 0..rng.range(20, 61) {
        let ci = rng.index(clients.len());
        let c = &mut clients[ci];
        match rng.range(0, 10) {
            // Subscribe (weighted): a fresh random filter.
            0..=2 => {
                if c.attached && !c.away {
                    let sub = fresh_sub(c.node, &mut c.next_sub, rand_filter(rng));
                    c.live.push(sub.clone());
                    script.push((c.home, c.node, BrokerMsg::Subscribe(sub)));
                }
            }
            // Publish (weighted): anyone attached and present may publish.
            3..=6 => {
                if c.attached && !c.away {
                    let e = stamped(rand_event(rng), c.node, script.len());
                    script.push((c.home, c.node, BrokerMsg::Publish(e)));
                }
            }
            // Unsubscribe a random live subscription.
            7 => {
                if c.attached && !c.away && !c.live.is_empty() {
                    let sub = c.live.swap_remove(rng.index(c.live.len()));
                    script.push((c.home, c.node, BrokerMsg::Unsubscribe(sub.id)));
                }
            }
            // Roam: move out now; reconnect at a (possibly different)
            // broker later in the script, so intervening publishes hit
            // the old broker's log.
            8 => {
                if c.away {
                    c.home = rng.range(0, u64::from(BROKERS)) as u32;
                    reconnect(&mut script, c.home, c.node, &mut c.next_sub, &mut c.live);
                    c.away = false;
                } else if c.attached {
                    script.push((c.home, c.node, BrokerMsg::MoveOut));
                    c.away = true;
                }
            }
            // Detach (drops all subscriptions, and while away the log at
            // the old home) or re-attach.
            _ => {
                if c.attached {
                    script.push((c.home, c.node, BrokerMsg::Detach));
                    c.attached = false;
                    c.away = false;
                    c.live.clear();
                } else {
                    script.push((c.home, c.node, BrokerMsg::Attach));
                    c.attached = true;
                }
            }
        }
    }
    // Bring roamers back so logged events drain into the comparison.
    for c in clients.iter_mut().filter(|c| c.away) {
        reconnect(&mut script, c.home, c.node, &mut c.next_sub, &mut c.live);
        c.away = false;
    }
    // Every attached client asks for a replay, which no broker on the
    // line holds a log for.
    for c in clients.iter().filter(|c| c.attached) {
        script.push((c.home, c.node, replay_of(c.node, rand_filter(rng))));
    }
    script
}

/// Client `node`'s next subscription, `filter` under a fresh id.
fn fresh_sub(node: u32, next_sub: &mut u64, filter: Filter) -> Subscription {
    let id = (u64::from(node) << 32) | *next_sub;
    *next_sub += 1;
    Subscription { id, filter }
}

/// `event` as client `node` publishes it, its `seq`-th publication.
fn stamped(mut event: Event, node: u32, seq: usize) -> Event {
    event.stamp(EventId { origin: NodeIndex(node), seq: seq as u64 }, SimTime::ZERO);
    event
}

/// A roaming client's reconnection at `home`: it attaches, subscribes its
/// `live` filters again under fresh ids, and asks for what they matched
/// since it left.
fn reconnect(
    script: &mut Vec<ScriptStep>,
    home: u32,
    node: u32,
    next_sub: &mut u64,
    live: &mut [Subscription],
) {
    script.push((home, node, BrokerMsg::Attach));
    for sub in live.iter_mut() {
        *sub = fresh_sub(node, next_sub, sub.filter.clone());
        script.push((home, node, BrokerMsg::Subscribe(sub.clone())));
    }
    let filters = live.iter().map(|s| s.filter.clone()).collect();
    script.push((
        home,
        node,
        BrokerMsg::Replay { client: NodeIndex(node), since: SimTime::ZERO, filters },
    ));
}

/// Client `node`'s request to replay what matched `filter`, from the start.
fn replay_of(node: u32, filter: Filter) -> BrokerMsg {
    BrokerMsg::Replay { client: NodeIndex(node), since: SimTime::ZERO, filters: vec![filter] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn indexed_broker_delivers_byte_identical_to_linear(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let script = rand_script(&mut rng);

        let mut indexed: Vec<Broker> = (0..BROKERS).map(Broker::on_line).collect();
        let mut linear: Vec<LinearBroker> = (0..BROKERS).map(LinearBroker::on_line).collect();

        let mut got = Seen::default();
        let mut want = Seen::default();
        for step in &script {
            run_step(&mut indexed, step, &mut got);
            run_step(&mut linear, step, &mut want);

            // Covering soundness at every quiescent point: whatever the
            // linear broker forwards on a link is covered by something
            // the indexed broker forwards there, so no wanted event can
            // fail to cross.
            for i in 0..BROKERS {
                for j in 0..BROKERS {
                    let roots = indexed[i as usize].forwarded(NodeIndex(j));
                    for lf in linear[i as usize].forwarded(NodeIndex(j)) {
                        // `covers` is deliberately not reflexive for
                        // NaN-carrying (unsatisfiable) constraints, so
                        // accept the identical filter by rendering.
                        prop_assert!(
                            roots.iter().any(|r| r.covers(&lf) || r.to_string() == lf.to_string()),
                            "link {}->{}: linear forwards `{}` but no indexed root covers it",
                            i,
                            j,
                            lf
                        );
                    }
                }
            }
        }
        // Byte-identical notification streams, per client, in order, and
        // equal delivery counters.
        prop_assert_eq!(got.streams(), want.streams());
        // The counters count the messages: every event a client was sent
        // is a live delivery or replayed from a roaming client's log.
        prop_assert_eq!(
            got.counter("pubsub.delivered_local") + got.counter("pubsub.replayed"),
            got.delivered() as f64
        );
    }
}

// The ingress policy is written once per broker (`ingress_class` and
// the three verdict arms); here the same script meets the same
// [`tight_shed`] in both worlds and must come out alike: streams,
// `pubsub.shed`, `pubsub.subs_rejected` and the summed queue delay.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn shedding_brokers_shed_alike(seed in any::<u64>()) {
        let (got, want) = run_shedding(rand_script(&mut SimRng::new(seed)));
        prop_assert_eq!(got.streams(), want.streams());
    }
}

/// Runs `script` through one indexed and one linear shedding broker, a
/// step every [`SHED_STEP`]: every client is homed on broker 0 (roaming
/// becomes the same-broker move), and publications carry a `prio`
/// cycling through 0..8, so half fall under the priority floor.
fn run_shedding(mut script: Vec<ScriptStep>) -> (Seen, Seen) {
    for (k, (to, _, msg)) in script.iter_mut().enumerate() {
        *to = 0;
        if let BrokerMsg::Publish(e) = msg {
            e.set_attr("prio", (k % 8) as i64);
        }
    }
    let mut indexed = [Broker::shedding_island()];
    let mut linear = [LinearBroker::shedding_island()];
    let mut got = Seen::default();
    let mut want = Seen::default();
    let mut now = SimTime::ZERO;
    for step in &script {
        run_step_at(now, &mut indexed, step, &mut got);
        run_step_at(now, &mut linear, step, &mut want);
        now += SHED_STEP;
    }
    (got, want)
}

/// Whether a client of `script` detaches while roaming (after its
/// `MoveOut`, before it reconnects with a `Replay`), subscribes again,
/// and a publication follows: the sequence that finds a log left behind
/// by `Detach`.
fn detaches_while_away(script: &[ScriptStep]) -> bool {
    let mut away = BTreeSet::new();
    let mut detached_away = BTreeSet::new();
    let mut resubscribed = false;
    for (_, from, msg) in script {
        match msg {
            BrokerMsg::MoveOut => {
                away.insert(*from);
            }
            BrokerMsg::Replay { .. } => {
                away.remove(from);
            }
            BrokerMsg::Detach if away.remove(from) => {
                detached_away.insert(*from);
            }
            BrokerMsg::Subscribe(_) if detached_away.contains(from) => resubscribed = true,
            BrokerMsg::Publish(_) if resubscribed => return true,
            _ => {}
        }
    }
    false
}

/// The oracle leaves nothing out: over a fixed run of seeds the script
/// has every [`BrokerMsg`] variant handled by both brokers, a client
/// detaches while roaming and comes back, and the shedding run reaches
/// all three verdicts while still delivering.
#[test]
fn the_script_drives_every_broker_message() {
    let mut indexed_handled = BTreeSet::new();
    let mut linear_handled = BTreeSet::new();
    let mut shedding = Seen::default();
    let mut detached_away = false;
    for seed in 0..32 {
        let script = rand_script(&mut SimRng::new(seed));
        detached_away |= detaches_while_away(&script);
        let mut indexed: Vec<Broker> = (0..BROKERS).map(Broker::on_line).collect();
        let mut linear: Vec<LinearBroker> = (0..BROKERS).map(LinearBroker::on_line).collect();
        let mut got = Seen::default();
        let mut want = Seen::default();
        for step in &script {
            run_step(&mut indexed, step, &mut got);
            run_step(&mut linear, step, &mut want);
        }
        indexed_handled.extend(got.handled);
        linear_handled.extend(want.handled);
        let (shed, _) = run_shedding(script);
        for (name, by) in shed.counters {
            *shedding.counters.entry(name).or_default() += by;
        }
    }
    let all: BTreeSet<&str> = VARIANTS.into_iter().collect();
    assert_eq!(indexed_handled, all);
    assert_eq!(linear_handled, all);
    assert!(detached_away, "no script detached a roaming client and brought it back");
    for reached in [
        "pubsub.shed",
        "pubsub.subs_rejected",
        "pubsub.queue_delay_us",
        "pubsub.delivered_local",
        "pubsub.replayed",
    ] {
        assert!(shedding.counter(reached) > 0.0, "no script reached {reached}: {shedding:?}");
    }
}

/// Deterministic multi-hop regression for the foreign-merged-cover bug:
/// the downstream broker (2) merges two client subscriptions into one
/// synthetic cover S, forwarded two hops (2 → 1 → 0). At the *middle*
/// broker S is a live subscription whose id happens to carry the
/// synthetic tag bit. Local churn there — a covered child draining, or a
/// merge that absorbs S as partner and then unwinds — must never retract
/// S (or drop it from the forward table) while it is still live, or
/// publications entering at broker 0 silently stop reaching the real
/// subscriber behind broker 2.
#[test]
fn foreign_merged_cover_survives_covered_child_churn() {
    let mut indexed: Vec<Broker> = (0..BROKERS).map(Broker::on_line).collect();
    let mut linear: Vec<LinearBroker> = (0..BROKERS).map(LinearBroker::on_line).collect();
    let mut got = Seen::default();
    let mut want = Seen::default();

    let sub_at = |broker: u32, client: u32, id: u64, filter: Filter| {
        (broker, client, BrokerMsg::Subscribe(Subscription { id, filter }))
    };
    let mut script: Vec<ScriptStep> = vec![
        (2, 12, BrokerMsg::Attach),
        (1, 11, BrokerMsg::Attach),
        (0, 10, BrokerMsg::Attach),
        // The real subscriber's first filter crosses both hops as itself.
        sub_at(
            2,
            12,
            1,
            Filter::for_kind("k").with_constraint("x", Op::Gt, 0i64).with_eq("u", "bob"),
        ),
    ];
    // Pad broker 1's table toward broker 0 with unrelated roots so the
    // synthetic cover arriving next falls outside the MERGE_SCAN window
    // and becomes a forwarded root itself instead of being re-merged.
    for i in 0..8u64 {
        script.push(sub_at(1, 11, 100 + i, Filter::for_kind(format!("z{i}"))));
    }
    // The second subscription overlaps the first without either covering
    // the other: broker 2 mints synthetic S = (k, x>0), forwards it
    // through broker 1 to broker 0 and retracts subscription 1.
    script.push(sub_at(
        2,
        12,
        2,
        Filter::for_kind("k").with_constraint("x", Op::Gt, 5i64).with_eq("u", "anna"),
    ));
    // Covered-child churn at the middle broker: a local sub covered by S
    // subscribes then unsubscribes, draining S's child list to empty.
    script.push(sub_at(
        1,
        11,
        3,
        Filter::for_kind("k").with_constraint("x", Op::Gt, 3i64).with_eq("u", "carol"),
    ));
    script.push((1, 11, BrokerMsg::Unsubscribe(3)));
    // The publication must still cross 0 → 1 → 2 to the real subscriber.
    let ev = Event::new("k").with_attr("x", 7i64).with_attr("u", "bob");
    script.push((0, 10, BrokerMsg::Publish(ev.clone())));
    // Merge-partner churn: a local sub broad enough to absorb S into a
    // new merged cover. When it unwinds, S must have been re-tracked as a
    // covered child so the replacement cover keeps standing in for it.
    script.push(sub_at(1, 11, 4, Filter::for_kind("k").with_constraint("x", Op::Gt, -1i64)));
    script.push((1, 11, BrokerMsg::Unsubscribe(4)));
    script.push((0, 10, BrokerMsg::Publish(ev)));

    for step in &script {
        run_step(&mut indexed, step, &mut got);
        run_step(&mut linear, step, &mut want);
    }
    assert_eq!(
        got.deliveries.get(&12).map_or(0, Vec::len),
        2,
        "both publications must reach the downstream subscriber: {got:?}"
    );
    assert_eq!(got.streams(), want.streams());
}

/// Delivery is per client, not per subscription: a client holding three
/// filters that all match is sent one `Notify` per event while attached,
/// one replayed copy of an event logged while it roamed, and one per
/// event again once its subscriptions are re-registered at the new
/// broker.
fn one_notify_per_client_per_event<B: AnyBroker>() {
    let mut brokers: Vec<B> = (0..BROKERS).map(B::on_line).collect();
    let mut seen = Seen::default();
    let (subscriber, publisher) = (10, 11);
    let filters = [
        Filter::for_kind("alert"),
        Filter::for_kind("alert").with_eq("zone", 3i64),
        Filter::any().with_eq("zone", 3i64).with_constraint("level", Op::Ge, 10i64),
    ];
    let alert = |level: i64| {
        let e = Event::new("alert").with_attr("zone", 3i64).with_attr("level", level);
        (2, publisher, BrokerMsg::Publish(e))
    };
    let sent = |seen: &Seen| seen.deliveries.get(&subscriber).map_or(0, Vec::len);

    run_step(&mut brokers, &(0, subscriber, BrokerMsg::Attach), &mut seen);
    run_step(&mut brokers, &(2, publisher, BrokerMsg::Attach), &mut seen);
    let mut next_sub = 0;
    let mut live: Vec<Subscription> =
        filters.into_iter().map(|f| fresh_sub(subscriber, &mut next_sub, f)).collect();
    for sub in &live {
        run_step(&mut brokers, &(0, subscriber, BrokerMsg::Subscribe(sub.clone())), &mut seen);
    }
    run_step(&mut brokers, &alert(50), &mut seen);
    assert_eq!(sent(&seen), 1, "three matching subscriptions, one live copy");

    run_step(&mut brokers, &(0, subscriber, BrokerMsg::MoveOut), &mut seen);
    run_step(&mut brokers, &alert(51), &mut seen);
    assert_eq!(sent(&seen), 1, "away: logged, not sent");
    let mut steps = Vec::new();
    reconnect(&mut steps, 1, subscriber, &mut next_sub, &mut live);
    for step in &steps {
        run_step(&mut brokers, step, &mut seen);
    }
    assert_eq!(sent(&seen), 2, "one logged copy replayed");

    run_step(&mut brokers, &alert(52), &mut seen);
    assert_eq!(sent(&seen), 3, "re-registered at the new broker: still one copy");
    let levels: Vec<f64> =
        seen.deliveries[&subscriber].iter().filter_map(|e| e.num_attr("level")).collect();
    assert_eq!(levels, [50.0, 51.0, 52.0]);
    assert_eq!(seen.counter("pubsub.delivered_local"), 2.0, "counts clients notified");
    assert_eq!(seen.counter("pubsub.replayed"), 1.0);
}

#[test]
fn a_client_is_sent_one_notify_per_event_however_many_subscriptions_match() {
    one_notify_per_client_per_event::<Broker>();
    one_notify_per_client_per_event::<LinearBroker>();
}

/// [`run_step`] on the [`star`], where every broker's own node is also a
/// client of that broker, as a `GlossNode` is: a broker's send to its own
/// node is a `Notify` or a `Replayed` for that client, and any other send
/// to a broker node is broker-to-broker.
fn run_star_step<B: AnyBroker>(brokers: &mut [B], step: &ScriptStep, seen: &mut Seen) {
    let mut q: VecDeque<ScriptStep> = VecDeque::from([step.clone()]);
    while let Some((to, from, msg)) = q.pop_front() {
        seen.handled.insert(variant_name(&msg));
        let mut out = Outbox::new();
        brokers[to as usize].dispatch(SimTime::ZERO, NodeIndex(from), msg, &mut out);
        for (t, m) in out.sends() {
            match m {
                BrokerMsg::Notify(_) | BrokerMsg::Replayed { .. } if t.0 == to || t.0 > LEAVES => {
                    let relayed = matches!(m, BrokerMsg::Notify(_)) && t.0 == to && from == 0;
                    seen.relayed += usize::from(relayed && to != 0);
                    seen.sent(t.0, m);
                }
                _ if t.0 <= LEAVES => q.push_back((t.0, to, m.clone())),
                _ => {}
            }
        }
        for (name, by) in out.counts().iter().chain(out.observations()) {
            if let Some(known) = DELIVERY_COUNTERS.iter().find(|c| *c == name) {
                *seen.counters.entry(known).or_default() += by;
            }
        }
        seen.merged += out
            .counts()
            .iter()
            .filter(|(n, _)| n == "pubsub.subs_merged")
            .map(|(_, by)| by)
            .sum::<f64>();
    }
}

/// A random script on the [`star`]: every broker's own node attaches to
/// it as a client, and two more clients roam between brokers. Clients
/// subscribe (mergeable filters among them, so the hub forwards merged
/// covers to leaves), publish, unsubscribe, detach and re-attach, move
/// out and back in, all interleaved, so subscriptions keep arriving
/// after publications have started.
fn rand_star_script(rng: &mut SimRng) -> Vec<ScriptStep> {
    struct Client {
        node: u32,
        home: u32,
        attached: bool,
        away: bool,
        next_sub: u64,
        live: Vec<Subscription>,
    }
    let homes = (0..=LEAVES).map(|b| (b, b));
    let roamers = [10, 11].map(|c| (c, rng.range(0, u64::from(LEAVES) + 1) as u32));
    let mut clients: Vec<Client> = homes
        .chain(roamers)
        .map(|(node, home)| Client {
            node,
            home,
            attached: true,
            away: false,
            next_sub: 0,
            live: Vec::new(),
        })
        .collect();
    let mut script: Vec<ScriptStep> =
        clients.iter().map(|c| (c.home, c.node, BrokerMsg::Attach)).collect();
    for _ in 0..rng.range(30, 81) {
        let pick = rng.index(clients.len());
        let c = &mut clients[pick];
        let present = c.attached && !c.away;
        match rng.range(0, 10) {
            0..=3 if present => {
                let sub = fresh_sub(c.node, &mut c.next_sub, rand_filter(rng));
                c.live.push(sub.clone());
                script.push((c.home, c.node, BrokerMsg::Subscribe(sub)));
            }
            4..=6 if present => {
                let e = stamped(rand_event(rng), c.node, script.len());
                script.push((c.home, c.node, BrokerMsg::Publish(e)));
            }
            7 if present && !c.live.is_empty() => {
                let sub = c.live.swap_remove(rng.index(c.live.len()));
                script.push((c.home, c.node, BrokerMsg::Unsubscribe(sub.id)));
            }
            8 if present => {
                script.push((c.home, c.node, BrokerMsg::MoveOut));
                c.away = true;
            }
            // A broker's own node comes back to its own broker; a
            // roaming client to any.
            8 if c.away => {
                if c.node > LEAVES {
                    c.home = rng.range(0, u64::from(LEAVES) + 1) as u32;
                }
                reconnect(&mut script, c.home, c.node, &mut c.next_sub, &mut c.live);
                c.away = false;
            }
            9 if c.attached => {
                script.push((c.home, c.node, BrokerMsg::Detach));
                c.attached = false;
                c.away = false;
                c.live.clear();
            }
            9 => {
                script.push((c.home, c.node, BrokerMsg::Attach));
                c.attached = true;
            }
            _ => {}
        }
    }
    for c in clients.iter_mut().filter(|c| c.away) {
        reconnect(&mut script, c.home, c.node, &mut c.next_sub, &mut c.live);
        c.away = false;
    }
    // Every attached client asks for a replay, which no broker holds a
    // log for.
    for c in clients.iter().filter(|c| c.attached) {
        script.push((c.home, c.node, replay_of(c.node, rand_filter(rng))));
    }
    script
}

/// Runs `script` on a star of indexed brokers and on one of linear ones.
fn run_star(script: &[ScriptStep]) -> (Seen, Seen) {
    let mut indexed: Vec<Broker> = (0..=LEAVES).map(Broker::in_star).collect();
    let mut linear: Vec<LinearBroker> = (0..=LEAVES).map(LinearBroker::in_star).collect();
    let mut got = Seen::default();
    let mut want = Seen::default();
    for step in script {
        run_star_step(&mut indexed, step, &mut got);
        run_star_step(&mut linear, step, &mut want);
    }
    (got, want)
}

// The star is where a broker skips a table: a leaf notified by the hub
// has no other neighbour, and a leaf whose own node publishes no other
// client, so each probes one of its two tables. Skipping must lose
// nothing.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn star_of_indexed_brokers_delivers_byte_identical_to_linear(seed in any::<u64>()) {
        let (got, want) = run_star(&rand_star_script(&mut SimRng::new(seed)));
        prop_assert_eq!(got.streams(), want.streams());
        prop_assert_eq!(
            got.counter("pubsub.delivered_local") + got.counter("pubsub.replayed"),
            got.delivered() as f64
        );
    }
}

/// Over a fixed run of seeds the star scripts merge covers, detach and
/// move clients out and back, subscribe after publications have begun,
/// and deliver across the hub from one leaf to another.
#[test]
fn the_star_script_reaches_merges_mobility_and_cross_leaf_delivery() {
    let mut total = Seen::default();
    let mut late_subscribe = false;
    for seed in 0..32 {
        let script = rand_star_script(&mut SimRng::new(seed));
        let first_publish = script.iter().position(|(_, _, m)| matches!(m, BrokerMsg::Publish(_)));
        late_subscribe |= first_publish.is_some_and(|p| {
            script[p..].iter().any(|(_, _, m)| matches!(m, BrokerMsg::Subscribe(_)))
        });
        let (got, _) = run_star(&script);
        total.handled.extend(got.handled);
        for (name, by) in got.counters {
            *total.counters.entry(name).or_default() += by;
        }
        total.relayed += got.relayed;
        total.merged += got.merged;
    }
    assert!(late_subscribe, "no star script subscribed after a publication");
    assert!(total.relayed > 0, "no leaf's own node was sent an event the hub forwarded");
    assert!(total.merged > 0.0, "no star script merged covers");
    for variant in ["Detach", "MoveOut", "Replay", "Replayed"] {
        assert!(total.handled.contains(variant), "no star script handled {variant}");
    }
    for reached in ["pubsub.replayed", "pubsub.move_out"] {
        assert!(total.counter(reached) > 0.0, "no star script reached {reached}: {total:?}");
    }
}

/// When a neighbour is also an attached client its subscriptions sit in
/// the neighbour table, beside clients' in the other; the broker still
/// notifies clients in arrival order across both tables, send for send
/// what the linear broker sends.
#[test]
fn a_publication_is_sent_in_arrival_order_across_both_tables() {
    fn sends<B: AnyBroker>() -> Vec<(NodeIndex, BrokerMsg)> {
        let mut b = B::in_star(0);
        let mut out = Outbox::new();
        let mut id = 0;
        for iface in [10, 1, 11, 2, 12] {
            b.dispatch(SimTime::ZERO, NodeIndex(iface), BrokerMsg::Attach, &mut out);
        }
        for iface in [10, 1, 11, 2, 12, 1, 10] {
            id += 1;
            let sub = Subscription { id, filter: Filter::for_kind("k") };
            b.dispatch(SimTime::ZERO, NodeIndex(iface), BrokerMsg::Subscribe(sub), &mut out);
        }
        let mut out = Outbox::new();
        b.dispatch(SimTime::ZERO, NodeIndex(3), BrokerMsg::Publish(Event::new("k")), &mut out);
        out.sends().to_vec()
    }
    let got = sends::<Broker>();
    let to: Vec<u32> = got.iter().map(|(t, _)| t.0).collect();
    assert_eq!(to, [10, 1, 11, 2, 12, 1, 2], "clients in arrival order, then neighbours");
    assert_eq!(got, sends::<LinearBroker>());
}

// --- subscriptions that start in the past ---------------------------------

/// What one run of [`since_scenario`] exercised.
#[derive(Debug, Default)]
struct SinceRun {
    /// The subscriber's broker already forwarded a filter covering its
    /// subscriptions, and the replay held something.
    covered_replay: bool,
    /// A publication on the subscriber's own broker reached it live.
    own_broker_live: bool,
    /// The log had dropped matches the replay would otherwise hold.
    truncated_replay: bool,
}

/// The star over FIFO links with sampled latencies: the hub logs kind
/// `a` for a few seconds, clients at the leaves and the hub publish
/// stamped events of kinds `a` and `b`, and subscriber 10 subscribes
/// late and asks for a replay from a random `since`. The reference is
/// the hub's arrival sequence scanned by `Filter::matches`: the
/// subscriber must be sent, first, exactly the logged matches that
/// arrived at the hub from `since` on before the hub answered (less what
/// the log's retention had dropped), in arrival order; and then, once
/// each, every other matching event that reached its broker after it
/// subscribed — and nothing else.
fn since_scenario(seed: u64) -> SinceRun {
    let mut rng = SimRng::new(seed);
    let mut brokers: Vec<Broker> = (0..=LEAVES).map(Broker::in_star).collect();
    let ms = SimDuration::from_millis;
    let at_ms = |v: u64| SimTime::ZERO + ms(v);
    let subscriber = 10u32;
    let home = if rng.chance(0.25) { 0 } else { 1 };
    // (client, its broker): the subscriber, a neighbour on its broker,
    // clients on two other leaves and one on the hub.
    let clients = [(subscriber, home), (11, home), (12, 2), (13, 3), (14, 0)];
    let retention = SimDuration::from_secs(rng.range(1, 9));

    // Scheduled inputs: (instant, order) → (broker, from, message).
    let mut queue: BTreeMap<(SimTime, u64), (u32, u32, BrokerMsg)> = BTreeMap::new();
    let mut order = 0u64;
    let mut at = |queue: &mut BTreeMap<_, _>, t: SimTime, step: (u32, u32, BrokerMsg)| {
        order += 1;
        queue.insert((t, order), step);
    };
    for (c, b) in clients {
        at(&mut queue, SimTime::ZERO, (b, c, BrokerMsg::Attach));
    }
    let covered = rng.chance(0.5);
    if covered {
        let cover = Subscription { id: 11 << 32, filter: Filter::for_kind("a") };
        at(&mut queue, at_ms(100), (home, 11, BrokerMsg::Subscribe(cover)));
    }
    let mut published: Vec<(u32, Event)> = Vec::new();
    for k in 0..80u64 {
        let (c, b) = clients[rng.index(clients.len())];
        let kind = if rng.chance(0.7) { "a" } else { "b" };
        let mut e = Event::new(kind).with_attr("x", rng.range(0, 8) as i64);
        e.stamp(EventId { origin: NodeIndex(c), seq: k }, SimTime::ZERO);
        published.push((c, e.clone()));
        at(&mut queue, at_ms(rng.range(200, 10_000)), (b, c, BrokerMsg::Publish(e)));
    }
    let subscribed = at_ms(rng.range(3_000, 9_000));
    let since = at_ms(rng.range(0, subscribed.as_micros() / 1_000 + 1));
    let shapes = [
        Filter::for_kind("a").with_constraint("x", Op::Gt, 2i64),
        Filter::for_kind("a").with_eq("x", 0i64),
        Filter::for_kind("b").with_constraint("x", Op::Lt, 4i64),
    ];
    let filters: Vec<Filter> =
        shapes.iter().filter(|_| rng.chance(0.6)).cloned().chain([shapes[0].clone()]).collect();
    for (k, filter) in filters.iter().enumerate() {
        let sub =
            Subscription { id: (u64::from(subscriber) << 32) | k as u64, filter: filter.clone() };
        at(&mut queue, subscribed, (home, subscriber, BrokerMsg::Subscribe(sub)));
    }
    let request =
        BrokerMsg::Replay { client: NodeIndex(subscriber), since, filters: filters.clone() };
    at(&mut queue, subscribed, (home, subscriber, request));

    // The hub's log subscription goes out first.
    let mut out = Outbox::new();
    brokers[0].keep_log(
        Subscription { id: 1 << 62, filter: Filter::for_kind("a") },
        retention,
        &mut out,
    );
    let mut sends: Vec<(SimTime, u32, u32, BrokerMsg)> =
        out.sends().iter().map(|(t, m)| (SimTime::ZERO, t.0, 0, m.clone())).collect();

    let mut link_clear: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
    let mut hub_arrivals: Vec<(SimTime, Event)> = Vec::new();
    let mut answered_at: Option<usize> = None;
    let mut reached_after: BTreeSet<EventId> = BTreeSet::new();
    let mut asked = false;
    let mut received: Vec<BrokerMsg> = Vec::new();
    loop {
        // Broker-to-broker sends land after a sampled latency, in order
        // per link.
        for (now, to, from, msg) in sends.drain(..) {
            let clear = link_clear.entry((from, to)).or_insert(SimTime::ZERO);
            *clear = (*clear).max(now + ms(rng.range(1, 41)));
            at(&mut queue, *clear, (to, from, msg));
        }
        let Some(((now, _), (to, from, msg))) = queue.pop_first() else {
            break;
        };
        let event = match &msg {
            BrokerMsg::Publish(e) | BrokerMsg::Notify(e) => Some(e.id()),
            _ => None,
        };
        if to == 0 {
            if let BrokerMsg::Publish(e) | BrokerMsg::Notify(e) = &msg {
                hub_arrivals.push((now, e.clone()));
            }
            if matches!(msg, BrokerMsg::Replay { .. }) {
                answered_at = Some(hub_arrivals.len());
            }
        }
        if to == home && asked && from != subscriber {
            reached_after.extend(event);
        }
        asked |= to == home && from == subscriber && matches!(msg, BrokerMsg::Replay { .. });
        let mut out = Outbox::new();
        brokers[to as usize].handle(now, NodeIndex(from), msg, &mut out);
        for (t, m) in out.sends() {
            if t.0 <= LEAVES {
                sends.push((now, t.0, to, m.clone()));
            } else if t.0 == subscriber {
                received.push(m.clone());
            }
        }
    }

    let matches = |e: &Event| filters.iter().any(|f| f.matches(e));
    let logged: Vec<&(SimTime, Event)> = hub_arrivals[..answered_at.expect("the hub answered")]
        .iter()
        .filter(|(_, e)| e.kind() == "a")
        .collect();
    let kept_from = logged.last().map_or(SimTime::ZERO, |(t, _)| {
        SimTime::from_micros(t.as_micros().saturating_sub(retention.as_micros()))
    });
    let replay: Vec<(SimTime, Event)> = logged
        .iter()
        .filter(|(t, e)| *t >= kept_from && *t >= since && matches(e))
        .map(|&(t, e)| (*t, e.clone()))
        .collect();
    let replayed: BTreeSet<EventId> = replay.iter().map(|(_, e)| e.id()).collect();
    let live: BTreeSet<EventId> = published
        .iter()
        .filter(|(c, e)| *c != subscriber && matches(e) && reached_after.contains(&e.id()))
        .map(|(_, e)| e.id())
        .filter(|id| !replayed.contains(id))
        .collect();

    let (first, rest) = received.split_first().expect("the subscriber was sent its replay");
    let BrokerMsg::Replayed { events, .. } = first else {
        panic!("sent {first:?} before its replay");
    };
    assert_eq!(events, &replay, "the replay (since {since}, subscribed at {subscribed})");
    let notified: Vec<EventId> = rest
        .iter()
        .map(|m| match m {
            BrokerMsg::Notify(e) => e.id(),
            other => panic!("sent {other:?} after its replay"),
        })
        .collect();
    let unique: BTreeSet<EventId> = notified.iter().copied().collect();
    assert_eq!(unique.len(), notified.len(), "an event notified twice: {notified:?}");
    assert_eq!(unique, live, "the live stream after the replay");

    let log = brokers[0].log().expect("the hub keeps a log");
    let a_events = published.iter().filter(|(_, e)| e.kind() == "a").count() as u64;
    assert_eq!(log.appended, a_events, "every event of kind a reached the hub's log");
    assert_eq!(log.appended, log.len() as u64 + log.dropped);
    let own = published.iter().any(|(c, e)| *c == 11 && unique.contains(&e.id()));
    let lost = logged.iter().any(|(t, e)| *t < kept_from && *t >= since && matches(e));
    SinceRun {
        covered_replay: covered && home != 0 && !replay.is_empty(),
        own_broker_live: own,
        truncated_replay: lost && log.dropped > 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn a_subscription_since_receives_the_logged_matches_then_the_live_stream(seed in any::<u64>()) {
        since_scenario(seed);
    }
}

/// Over a fixed run of seeds the replay oracle covers a subscriber whose
/// broker already forwarded a covering filter, a publisher on the
/// subscriber's own broker, and a log whose retention cut the replay.
#[test]
fn the_since_scenarios_reach_covers_own_broker_publishers_and_truncation() {
    let mut reached = SinceRun::default();
    for seed in 0..64 {
        let run = since_scenario(seed);
        reached.covered_replay |= run.covered_replay;
        reached.own_broker_live |= run.own_broker_live;
        reached.truncated_replay |= run.truncated_replay;
    }
    assert!(reached.covered_replay, "{reached:?}");
    assert!(reached.own_broker_live, "{reached:?}");
    assert!(reached.truncated_replay, "{reached:?}");
}

// --- a client roaming across the line -------------------------------------

/// Brokers on the line the roaming client crosses.
const LONG_LINE: u32 = 4;

/// A line of [`LONG_LINE`] brokers over FIFO links with sampled
/// latencies. Client 10 subscribes at broker 0, moves out at a random
/// instant and reconnects at the far end a random while later, asking
/// for what it missed since it left; clients at both ends and in the
/// middle publish stamped events throughout. The client must be sent
/// every matching event published by another client exactly once:
/// before it left live, while it was away through its old broker's log,
/// and after it reconnected live or held and released at the seam.
/// Returns how many matching events were replayed.
fn line_move_scenario<B: AnyBroker>(seed: u64) -> usize {
    let mut rng = SimRng::new(seed);
    let mut brokers: Vec<B> = (0..LONG_LINE).map(|i| B::on_line_of(LONG_LINE, i)).collect();
    let ms = SimDuration::from_millis;
    let at_ms = |v: u64| SimTime::ZERO + ms(v);
    let mover = 10u32;
    let far = LONG_LINE - 1;
    // (client, its broker): the mover, then publishers along the line.
    let publishers = [(11, 0), (12, 1), (13, far), (14, far)];

    let mut queue: BTreeMap<(SimTime, u64), (u32, u32, BrokerMsg)> = BTreeMap::new();
    let mut order = 0u64;
    let mut at = |queue: &mut BTreeMap<_, _>, t: SimTime, step: (u32, u32, BrokerMsg)| {
        order += 1;
        queue.insert((t, order), step);
    };
    at(&mut queue, SimTime::ZERO, (0, mover, BrokerMsg::Attach));
    for (c, b) in publishers {
        at(&mut queue, SimTime::ZERO, (b, c, BrokerMsg::Attach));
    }
    let shapes = [
        Filter::for_kind("a").with_constraint("x", Op::Gt, 2i64),
        Filter::for_kind("a").with_eq("x", 0i64),
        Filter::for_kind("b").with_constraint("x", Op::Lt, 4i64),
    ];
    let filters: Vec<Filter> =
        shapes.iter().filter(|_| rng.chance(0.6)).cloned().chain([shapes[0].clone()]).collect();
    let mut next_sub = 0;
    let mut live: Vec<Subscription> =
        filters.iter().map(|f| fresh_sub(mover, &mut next_sub, f.clone())).collect();
    for sub in &live {
        at(&mut queue, SimTime::ZERO, (0, mover, BrokerMsg::Subscribe(sub.clone())));
    }
    let mut published: Vec<Event> = Vec::new();
    for k in 0..80usize {
        let (c, b) = publishers[rng.index(publishers.len())];
        let kind = if rng.chance(0.7) { "a" } else { "b" };
        let e = stamped(Event::new(kind).with_attr("x", rng.range(0, 8) as i64), c, k);
        published.push(e.clone());
        at(&mut queue, at_ms(rng.range(500, 10_000)), (b, c, BrokerMsg::Publish(e)));
    }
    let left = at_ms(rng.range(1_000, 6_000));
    at(&mut queue, left, (0, mover, BrokerMsg::MoveOut));
    let mut steps = Vec::new();
    reconnect(&mut steps, far, mover, &mut next_sub, &mut live);
    let back = left + ms(rng.range(0, 3_000));
    for (b, c, msg) in steps {
        let msg = match msg {
            BrokerMsg::Replay { client, filters, .. } => {
                BrokerMsg::Replay { client, since: left, filters }
            }
            other => other,
        };
        at(&mut queue, back, (b, c, msg));
    }

    let mut link_clear: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
    let mut received: Vec<EventId> = Vec::new();
    let mut replayed = 0;
    while let Some(((now, _), (to, from, msg))) = queue.pop_first() {
        let mut out = Outbox::new();
        brokers[to as usize].dispatch(now, NodeIndex(from), msg, &mut out);
        for (t, m) in out.sends() {
            if t.0 < LONG_LINE {
                // Broker-to-broker sends land after a sampled latency, in
                // order per link.
                let clear = link_clear.entry((to, t.0)).or_insert(SimTime::ZERO);
                *clear = (*clear).max(now + ms(rng.range(1, 41)));
                at(&mut queue, *clear, (t.0, to, m.clone()));
            } else if t.0 == mover {
                match m {
                    BrokerMsg::Notify(e) => received.push(e.id()),
                    BrokerMsg::Replayed { events, .. } => {
                        replayed += events.len();
                        received.extend(events.iter().map(|(_, e)| e.id()));
                    }
                    other => panic!("the mover was sent {other:?}"),
                }
            }
        }
    }

    let want: BTreeSet<EventId> =
        published.iter().filter(|e| filters.iter().any(|f| f.matches(e))).map(Event::id).collect();
    let got: BTreeSet<EventId> = received.iter().copied().collect();
    assert_eq!(got.len(), received.len(), "an event sent twice: {received:?}");
    assert_eq!(got, want, "moved out at {left}, back at {back}");
    replayed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn a_client_roaming_across_the_line_misses_nothing_and_hears_nothing_twice(seed in any::<u64>()) {
        line_move_scenario::<Broker>(seed);
        line_move_scenario::<LinearBroker>(seed);
    }
}

/// Over a fixed run of seeds the roaming client is replayed something:
/// events reach its old broker's log while it is away.
#[test]
fn the_line_scenarios_replay_events_logged_while_away() {
    let replayed: usize = (0..16).map(line_move_scenario::<Broker>).sum();
    assert!(replayed > 0);
}
