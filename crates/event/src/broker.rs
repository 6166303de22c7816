//! The Siena-like event broker: a sans-IO state machine implementing
//! subscription propagation with covering-based pruning and merging, and
//! notification forwarding over hierarchical or acyclic-peer broker
//! topologies.
//!
//! Since PR 8 the broker is *sublinear* in its subscription table:
//!
//! * routing consults counting [`FilterIndex`]es instead of scanning the
//!   table filter-by-filter, so publish cost tracks the number of
//!   candidate subscriptions sharing attributes with the event,
//! * the table is two indexes, split Siena's way by the interface a
//!   subscription arrived on: the *neighbour table* holds those sent by
//!   neighbouring brokers that are notified by subscription (peer
//!   neighbours, hierarchical children), the *client table* everything
//!   else. An event is served to no interface it came from, so `route`
//!   probes the neighbour table only when such a broker other than the
//!   sender exists, and the client table only when a client (attached or
//!   away) other than the sender does (a hierarchical parent is sent every
//!   event without a probe). A leaf notified by its only neighbour thus
//!   probes its clients' subscriptions alone, not the covers the
//!   neighbour forwarded it; one arrival sequence runs across both
//!   tables, and matches from both merge back into arrival order, so
//!   deliveries, forwarding and [`subscriptions`](Broker::subscriptions)
//!   come out as one table's would, and
//! * each neighbouring interface keeps a `ForwardTable` — the covering
//!   relation over forwarded filters maintained *incrementally* as a
//!   parent/children DAG, with overlapping same-kind filters collapsed
//!   into one merged upstream filter ([`merge_cover`]) — so subscribe
//!   prunes against forwarded roots only and unsubscribe repairs just the
//!   removed filter's children instead of re-scanning the whole table.
//!
//! The pre-index broker survives as
//! [`LinearBroker`](crate::LinearBroker); property tests assert both
//! deliver byte-identical notification streams to clients.
//!
//! Delivery is per client: however many of its subscriptions an event
//! matches, an attached client is sent one `Notify` (and a client that
//! moved out has one copy logged, [`replay`](crate::replay)). A client on
//! the broker's own node is handed that `Notify` in-process: the host
//! keeps the broker's sends addressed to its own node back from the
//! network (`Outbox::nested` with `keep` set) and delivers them in the
//! same activation. The counters follow the notifications:
//! `pubsub.delivered_local` counts *clients notified* — one per `Notify`
//! sent or handed to an attached client — `pubsub.replayed` the events
//! an away client's log answers with, and
//! [`notifications_forwarded`](Broker::notifications_forwarded) one per
//! neighbouring broker an event is forwarded to.

use crate::filter::{merge_cover, Filter, Subscription};
use crate::index::{FilterIndex, Hit};
use crate::notification::Event;
use crate::replay::{ReplayLog, Replays, LOG};
use gloss_governor::{IngressClass, LoadShedder, ShedConfig, ShedDecision};
use gloss_sim::{FnvBuildHasher, FnvHashMap, NodeIndex, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Unique subscription identifier (clients derive these from their node
/// index so ids never collide).
pub type SubId = u64;

/// Tag bit for broker-minted merged filters. Client-assigned ids are
/// `(node_index << 32) | seq` with 31-bit node indices, so bit 63 is
/// never set on a client's subscription — the bit only keeps minted ids
/// collision-free. It does NOT mean "synthetic to this broker": a merged
/// cover minted downstream arrives here as a perfectly live subscription
/// with bit 63 set, so "is this id live here" is always decided by
/// `subs.contains(id)`, never by testing the bit.
const SYNTH_BIT: u64 = 1 << 63;

/// How many most-recent forwarded roots a new subscription is tested
/// against for merging. Bounded so subscribe stays O(1)-ish per target;
/// newest roots are the likeliest merge partners under churn.
const MERGE_SCAN: usize = 8;

/// How this broker is wired to other brokers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerTopology {
    /// Acyclic peer-to-peer graph: subscriptions propagate to all
    /// neighbours (pruned by covering); notifications follow reverse
    /// subscription paths.
    Peer {
        /// Neighbouring brokers.
        neighbors: Vec<NodeIndex>,
    },
    /// Hierarchical (client/server chain): subscriptions propagate to the
    /// parent only; notifications always flow up, and down only toward
    /// matching subscriptions. Simpler, but the root sees every event —
    /// the scalability contrast measured in experiment C1.
    Hierarchical {
        /// The parent broker (`None` at the root).
        parent: Option<NodeIndex>,
        /// Child brokers.
        children: Vec<NodeIndex>,
    },
}

impl BrokerTopology {
    /// The neighbouring brokers.
    pub(crate) fn neighbours(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        let (up, rest) = match self {
            BrokerTopology::Peer { neighbors } => (None, neighbors),
            BrokerTopology::Hierarchical { parent, children } => (*parent, children),
        };
        up.into_iter().chain(rest.iter().copied())
    }

    /// Where a subscription arriving from `from` propagates: every other
    /// peer neighbour, or the parent.
    pub(crate) fn sub_targets(&self, from: NodeIndex) -> Vec<NodeIndex> {
        let up = match self {
            BrokerTopology::Peer { neighbors } => neighbors.as_slice(),
            BrokerTopology::Hierarchical { parent, .. } => parent.as_slice(),
        };
        up.iter().copied().filter(|&n| n != from).collect()
    }
}

/// Messages of the publish/subscribe plane.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerMsg {
    /// Register a subscription (client→broker and broker→broker).
    Subscribe(Subscription),
    /// Remove a subscription by id.
    Unsubscribe(SubId),
    /// Publish an event (client→broker).
    Publish(Event),
    /// Deliver/forward an event (broker→broker and broker→client).
    Notify(Event),
    /// A client registers with its access broker.
    Attach,
    /// A client deregisters (its subscriptions are dropped).
    Detach,
    /// Mobility: the client disconnects; its broker logs what its
    /// subscriptions match until it asks for a replay.
    MoveOut,
    /// Asks for the logged matches of `filters` from `since` on: sent by
    /// a client, naming itself, right after the subscriptions it starts
    /// in the past or re-subscribes after a move, and passed on from
    /// broker to broker ([`replay`](crate::replay)).
    Replay {
        /// The client the replay is for.
        client: NodeIndex,
        /// The earliest arrival replayed.
        since: SimTime,
        /// What the client subscribed.
        filters: Vec<Filter>,
    },
    /// The answer to [`Replay`](BrokerMsg::Replay), to the broker that
    /// passed it on and then to the client: `(arrival at the log, event)`,
    /// oldest first.
    Replayed {
        /// The client the replay is for.
        client: NodeIndex,
        /// The logged matches.
        events: Vec<(SimTime, Event)>,
    },
}

/// The covering DAG over filters forwarded toward one neighbouring
/// interface. *Roots* are the filters actually forwarded (real
/// subscription filters, or broker-minted merged covers); every
/// non-forwarded subscription is recorded as a *child* of the root that
/// covers it. Roots double as a [`FilterIndex`], so "is this new filter
/// already covered" is a counting probe, not a table scan, and removing a
/// root repairs only its recorded children.
#[derive(Debug, Clone, Default)]
struct ForwardTable {
    /// Forwarded filters, indexed for sublinear cover queries.
    roots: FilterIndex,
    /// Root ids in forwarding order (deterministic scan/merge order).
    order: Vec<SubId>,
    /// Covered subscription → the root covering it.
    parent: FnvHashMap<SubId, SubId>,
    /// Root → covered subscriptions, in arrival order.
    children: FnvHashMap<SubId, Vec<SubId>>,
}

impl ForwardTable {
    fn add_root(&mut self, sub: Subscription) {
        self.order.push(sub.id);
        self.roots.insert(sub);
    }

    fn remove_root(&mut self, id: SubId) {
        self.order.retain(|x| *x != id);
        self.roots.remove(id);
    }

    /// The first forwarded root covering `f`, if any. All-`Eq` filters
    /// (the overwhelmingly common shape) resolve through the counting
    /// index; anything else scans the forwarded roots — still bounded by
    /// the *forwarded* set, which covering keeps far smaller than the
    /// subscription table.
    fn find_cover(&self, f: &Filter) -> Option<SubId> {
        if self.order.is_empty() {
            return None;
        }
        if let Some(ids) = self.roots.covering_ids(f) {
            return ids.into_iter().next();
        }
        self.order.iter().copied().find(|&r| self.roots.get(r).is_some_and(|s| s.filter.covers(f)))
    }

    /// A recent root `f` can merge with, and the merged cover.
    fn try_merge(&self, f: &Filter) -> Option<(SubId, Filter)> {
        for &r in self.order.iter().rev().take(MERGE_SCAN) {
            let rf = &self.roots.get(r).expect("root indexed").filter;
            if let Some(m) = merge_cover(rf, f).or_else(|| merge_cover(f, rf)) {
                return Some((r, m));
            }
        }
        None
    }
}

/// The subscription table as its neighbour and client tables (see the
/// module doc), each subscription stored for (owned by) the interface it
/// arrived on, under one arrival sequence across both.
#[derive(Debug, Clone, Default)]
struct SubTable {
    neighbours: FilterIndex,
    clients: FilterIndex,
    next_seq: u64,
}

impl SubTable {
    fn len(&self) -> usize {
        self.neighbours.len() + self.clients.len()
    }

    fn contains(&self, id: SubId) -> bool {
        self.neighbours.contains(id) || self.clients.contains(id)
    }

    fn get(&self, id: SubId) -> Option<&Subscription> {
        self.neighbours.get(id).or_else(|| self.clients.get(id))
    }

    fn insert(&mut self, sub: Subscription, iface: NodeIndex, from_neighbour: bool) {
        let table = if from_neighbour { &mut self.neighbours } else { &mut self.clients };
        table.insert_at(sub, iface.0, self.next_seq);
        self.next_seq += 1;
    }

    fn remove(&mut self, id: SubId) -> Option<(Subscription, u32)> {
        self.neighbours.remove(id).or_else(|| self.clients.remove(id))
    }

    fn in_order(&self) -> impl Iterator<Item = &Subscription> {
        let mut v: Vec<(u64, &Subscription)> =
            self.neighbours.iter_with_seq().chain(self.clients.iter_with_seq()).collect();
        v.sort_unstable_by_key(|&(seq, _)| seq);
        v.into_iter().map(|(_, sub)| sub)
    }
}

/// A content-based event broker (one per broker node).
#[derive(Debug, Clone)]
pub struct Broker {
    me: NodeIndex,
    topology: BrokerTopology,
    clients: BTreeSet<NodeIndex>,
    /// The subscription table, as two counting attribute indexes.
    subs: SubTable,
    /// Subscription ids per arrival interface, in arrival order (drives
    /// detach and move-out without a table scan).
    by_iface: FnvHashMap<u32, Vec<SubId>>,
    /// Incremental covering DAG per neighbouring broker.
    tables: BTreeMap<NodeIndex, ForwardTable>,
    /// The replay log, the replays awaiting answers, and the clients
    /// away.
    replays: Replays,
    /// Ingress load shedder (None = unbounded legacy behaviour).
    shed: Option<LoadShedder>,
    /// Counter for broker-minted merged-filter ids.
    synth_seq: u64,
    /// `route`'s working set — interfaces with a matching subscription —
    /// kept between events so routing one costs no allocation of its own.
    wanted: HashSet<u32, FnvBuildHasher>,
    /// Messages handled (load metric for C1).
    pub msgs_handled: u64,
    /// Notifications forwarded to other brokers.
    pub notifications_forwarded: u64,
}

/// Classifies a broker message for the load shedder. Publications carry
/// their priority in a `prio` numeric attribute; events without one
/// default above the priority floor (unmarked traffic is not low
/// priority).
fn ingress_class(msg: &BrokerMsg) -> (IngressClass, f64) {
    match msg {
        BrokerMsg::Subscribe(_) => (IngressClass::Subscription, 0.0),
        BrokerMsg::Publish(e) | BrokerMsg::Notify(e) => {
            (IngressClass::Publication, e.num_attr("prio").unwrap_or(f64::MAX))
        }
        _ => (IngressClass::Control, 0.0),
    }
}

impl Broker {
    /// Creates a broker for node `me` with the given topology.
    pub fn new(me: NodeIndex, topology: BrokerTopology) -> Self {
        Broker {
            me,
            topology,
            clients: BTreeSet::new(),
            subs: SubTable::default(),
            by_iface: FnvHashMap::default(),
            tables: BTreeMap::new(),
            replays: Replays::default(),
            shed: None,
            synth_seq: 0,
            wanted: HashSet::default(),
            msgs_handled: 0,
            notifications_forwarded: 0,
        }
    }

    /// Bounds this broker's ingress with a watermark load shedder.
    pub fn with_shedding(mut self, cfg: ShedConfig) -> Self {
        self.shed = Some(LoadShedder::new(cfg));
        self
    }

    /// The ingress shedder, when installed (for harness assertions).
    pub fn shedder(&self) -> Option<&LoadShedder> {
        self.shed.as_ref()
    }

    /// This broker's node index.
    pub fn index(&self) -> NodeIndex {
        self.me
    }

    /// Number of subscription entries currently stored.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// The stored subscriptions, in arrival order (for audit passes over
    /// the table).
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.in_order()
    }

    /// The replay log, if this broker keeps one.
    pub fn log(&self) -> Option<&ReplayLog> {
        self.replays.log.as_ref()
    }

    /// Logs what `sub` matches for at least `retention`. The subscription
    /// propagates as a client's would, but notifies no client.
    pub fn keep_log(
        &mut self,
        sub: Subscription,
        retention: SimDuration,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.replays.keep(retention);
        self.subscribe(LOG, sub, out);
    }

    /// Whether a subscription stored for `client` matches `event`: one
    /// probe of the table that interface's subscriptions live in.
    pub fn client_matches(&self, client: NodeIndex, event: &Event) -> bool {
        let table = if self.forwards_by_subscription(client) {
            &self.subs.neighbours
        } else {
            &self.subs.clients
        };
        table.hits(event).iter().any(|&(_, _, owner)| owner == client.0)
    }

    /// Whether notifications are forwarded to `iface` by what it
    /// subscribed: a peer neighbour, or a hierarchical child. (A
    /// hierarchical parent is sent every event; subscriptions never flow
    /// down to a child, and one that did would be kept with the clients'.)
    fn forwards_by_subscription(&self, iface: NodeIndex) -> bool {
        match &self.topology {
            BrokerTopology::Peer { neighbors } => neighbors.contains(&iface),
            BrokerTopology::Hierarchical { children, .. } => children.contains(&iface),
        }
    }

    /// Filters currently forwarded toward `target`, in forwarding order.
    /// Together they cover every local subscription that needs events
    /// from that interface (the invariant the equivalence tests check).
    pub fn forwarded_filters(&self, target: NodeIndex) -> Vec<Filter> {
        let Some(table) = self.tables.get(&target) else {
            return Vec::new();
        };
        table
            .order
            .iter()
            .map(|&r| table.roots.get(r).expect("root indexed").filter.clone())
            .collect()
    }

    /// Handles one message. `from` is the interface (client or neighbour
    /// broker) it arrived on.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.msgs_handled += 1;
        if let Some(shed) = &mut self.shed {
            let (class, priority) = ingress_class(&msg);
            match shed.offer(now, from.0, class, priority) {
                ShedDecision::Admit(delay) => {
                    if delay > SimDuration::ZERO {
                        out.observe("pubsub.queue_delay_us", delay.as_micros() as f64);
                    }
                }
                ShedDecision::Shed => {
                    out.count("pubsub.shed", 1.0);
                    return;
                }
                ShedDecision::RejectSubscription => {
                    out.count("pubsub.subs_rejected", 1.0);
                    return;
                }
            }
        }
        match msg {
            BrokerMsg::Attach => {
                self.clients.insert(from);
            }
            BrokerMsg::Detach => {
                self.clients.remove(&from);
                self.replays.forget(from);
                let ids: Vec<SubId> = self.by_iface.get(&from.0).cloned().unwrap_or_default();
                for id in ids {
                    self.unsubscribe(id, out);
                }
            }
            BrokerMsg::Subscribe(sub) => self.subscribe(from, sub, out),
            BrokerMsg::Unsubscribe(id) => self.unsubscribe(id, out),
            BrokerMsg::Publish(event) | BrokerMsg::Notify(event) => {
                self.route(now, from, event, out)
            }
            BrokerMsg::Replay { client, since, filters } => {
                // A log answers at once if it covers every filter.
                let logged = self.by_iface.get(&LOG.0).map(Vec::as_slice).unwrap_or_default();
                let covers = |f: &Filter| {
                    logged.iter().any(|&id| self.subs.get(id).is_some_and(|s| s.filter.covers(f)))
                };
                let covered = !logged.is_empty() && filters.iter().all(covers);
                let targets = self.topology.neighbours().filter(|&n| n != from).collect();
                let request = (client, since, filters);
                for id in self.replays.request(now, from, targets, covered, request, out) {
                    self.unsubscribe(id, out);
                }
            }
            BrokerMsg::Replayed { client, events } => self.replays.answered(client, events, out),
            BrokerMsg::MoveOut => {
                self.clients.remove(&from);
                let ids = self.by_iface.get(&from.0).cloned().unwrap_or_default();
                self.replays.move_out(now, from, ids);
                out.count("pubsub.move_out", 1.0);
            }
        }
    }

    fn subscribe(&mut self, from: NodeIndex, sub: Subscription, out: &mut Outbox<BrokerMsg>) {
        if self.subs.contains(sub.id) {
            return; // duplicate (acyclic topologies make this rare)
        }
        for target in self.topology.sub_targets(from) {
            let table = self.tables.entry(target).or_default();
            // Covering-based pruning: an already-forwarded root covering
            // this filter makes forwarding redundant. `find_cover`
            // short-circuits on an empty table and answers all-Eq filters
            // from the counting index.
            if let Some(root) = table.find_cover(&sub.filter) {
                table.parent.insert(sub.id, root);
                table.children.entry(root).or_default().push(sub.id);
                out.count("pubsub.subs_pruned", 1.0);
                continue;
            }
            // SIENA-style merging: collapse this filter with an
            // overlapping forwarded root into one broader cover, so the
            // upstream broker holds one filter instead of two. (A merged
            // cover admits more events on this link; local matching
            // still delivers exactly the right ones to clients.)
            if let Some((partner, merged)) = table.try_merge(&sub.filter) {
                let synth = SYNTH_BIT
                    | (u64::from(self.me.0) << 32)
                    | (self.synth_seq & u64::from(u32::MAX));
                self.synth_seq += 1;
                let synthetic = Subscription { id: synth, filter: merged };
                // Subscribe before unsubscribe: upstream coverage never gaps.
                out.send(target, BrokerMsg::Subscribe(synthetic.clone()));
                out.send(target, BrokerMsg::Unsubscribe(partner));
                table.remove_root(partner);
                let mut kids = table.children.remove(&partner).unwrap_or_default();
                if self.subs.contains(partner) {
                    // A live partner — a client's sub, or a merged cover a
                    // downstream broker forwarded to us — is now covered
                    // itself; only this broker's own minted covers (never
                    // stored in `subs`) simply vanish.
                    kids.push(partner);
                }
                kids.push(sub.id);
                for &c in &kids {
                    table.parent.insert(c, synth);
                }
                table.children.insert(synth, kids);
                table.add_root(synthetic);
                out.count("pubsub.subs_merged", 1.0);
                continue;
            }
            table.add_root(sub.clone());
            out.send(target, BrokerMsg::Subscribe(sub.clone()));
        }
        self.by_iface.entry(from.0).or_default().push(sub.id);
        let from_neighbour = self.forwards_by_subscription(from);
        self.subs.insert(sub, from, from_neighbour);
    }

    fn unsubscribe(&mut self, id: SubId, out: &mut Outbox<BrokerMsg>) {
        let Some((_, iface)) = self.subs.remove(id) else { return };
        if let Some(v) = self.by_iface.get_mut(&iface) {
            v.retain(|x| *x != id);
            if v.is_empty() {
                self.by_iface.remove(&iface);
            }
        }
        for (target, table) in self.tables.iter_mut() {
            if table.roots.contains(id) {
                // A forwarded root goes away: retract it, then repair
                // coverage for exactly its recorded children — not the
                // whole table, which is what the linear broker re-scanned.
                table.remove_root(id);
                out.send(*target, BrokerMsg::Unsubscribe(id));
                let kids = table.children.remove(&id).unwrap_or_default();
                for c in kids {
                    table.parent.remove(&c);
                    let cf = self.subs.get(c).expect("children are live subs").clone();
                    match table.find_cover(&cf.filter) {
                        Some(r) => {
                            table.parent.insert(c, r);
                            table.children.entry(r).or_default().push(c);
                        }
                        None => {
                            out.send(*target, BrokerMsg::Subscribe(cf.clone()));
                            table.add_root(cf);
                        }
                    }
                }
            } else if let Some(p) = table.parent.remove(&id) {
                // A covered child goes away: detach it, and retract a
                // broker-minted merged cover once its last child is gone.
                if let Some(kids) = table.children.get_mut(&p) {
                    kids.retain(|x| *x != id);
                    if kids.is_empty() {
                        table.children.remove(&p);
                        if !self.subs.contains(p) {
                            // Not a live subscription here ⇒ a cover this
                            // broker minted; retract it. A downstream
                            // broker's merged cover stays forwarded until
                            // its own Unsubscribe arrives.
                            table.remove_root(p);
                            out.send(*target, BrokerMsg::Unsubscribe(p));
                        }
                    }
                }
            }
        }
    }

    fn route(&mut self, now: SimTime, from: NodeIndex, event: Event, out: &mut Outbox<BrokerMsg>) {
        for id in self.replays.expire(now, out) {
            self.unsubscribe(id, out);
        }
        // A table is probed only if an interface other than `from` can
        // be served from it; `from`'s own matches are never served. The
        // neighbour table is probed when a broker other than `from` is
        // forwarded to by subscription, the client table when a client
        // other than `from` is attached or away. So a leaf notified by
        // its only neighbour probes its clients' table alone, and a
        // client's publication on a broker with no other client its
        // neighbours' (unless the broker keeps a log, whose subscriptions
        // sit with the clients').
        let probe_neighbours = match &self.topology {
            BrokerTopology::Peer { neighbors } => neighbors.iter().any(|&n| n != from),
            BrokerTopology::Hierarchical { children, .. } => children.iter().any(|&c| c != from),
        };
        let probe_clients = self.clients.iter().chain(self.replays.away.keys()).any(|&c| c != from)
            || self.replays.log.is_some();
        let holding = !self.replays.pending.is_empty();

        // Each probe walks its matching subscriptions in arrival order
        // straight out of its index's reused hit list, each with the
        // interface it arrived on; the two lists merge by arrival
        // sequence into the order one table (and the old linear scan)
        // delivered in. Routing an event allocates only the copies it
        // sends or logs.
        //
        // An interface is served once per event, at its first matching
        // subscription: a client with k matching filters gets one copy,
        // live, logged while it is away, or held back for a replay.
        // `wanted` then also says which neighbours hold a matching
        // subscription, for forwarding below, and whether a log
        // subscription matched.
        let Broker { subs, wanted, clients, replays, .. } = self;
        wanted.clear();
        let neighbour_hits = probe_neighbours.then(|| subs.neighbours.hits(&event));
        let client_hits = probe_clients.then(|| subs.clients.hits(&event));
        let hits = merged(
            neighbour_hits.as_deref().unwrap_or_default(),
            client_hits.as_deref().unwrap_or_default(),
        );
        for (_, _, owner) in hits {
            let iface = NodeIndex(owner);
            if !wanted.insert(owner) || iface == from || replays.log_away(iface, now, &event) {
                continue;
            }
            if clients.contains(&iface) && !(holding && replays.hold(iface, &event)) {
                out.send(iface, BrokerMsg::Notify(event.clone()));
                out.count("pubsub.delivered_local", 1.0);
            }
        }
        if let Some(log) = replays.log.as_mut().filter(|_| wanted.contains(&LOG.0)) {
            log.append(now, &event);
        }

        // Inter-broker forwarding.
        match &self.topology {
            BrokerTopology::Peer { neighbors } => {
                for &n in neighbors {
                    if n != from && self.wanted.contains(&n.0) {
                        self.notifications_forwarded += 1;
                        out.send(n, BrokerMsg::Notify(event.clone()));
                    }
                }
            }
            BrokerTopology::Hierarchical { parent, children } => {
                if let Some(p) = parent {
                    if *p != from {
                        // Hierarchical cost: everything flows to the root.
                        self.notifications_forwarded += 1;
                        out.send(*p, BrokerMsg::Notify(event.clone()));
                    }
                }
                for &c in children {
                    if c != from && self.wanted.contains(&c.0) {
                        self.notifications_forwarded += 1;
                        out.send(c, BrokerMsg::Notify(event.clone()));
                    }
                }
            }
        }
    }
}

/// Two hit lists, each in arrival order, walked as one in arrival order.
fn merged<'a>(mut a: &'a [Hit], mut b: &'a [Hit]) -> impl Iterator<Item = Hit> + 'a {
    std::iter::from_fn(move || {
        let side = match (a.first(), b.first()) {
            (None, None) => return None,
            (Some(x), Some(y)) if y.0 < x.0 => &mut b,
            (Some(_), _) => &mut a,
            (None, Some(_)) => &mut b,
        };
        let (&hit, rest) = side.split_first()?;
        *side = rest;
        Some(hit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Op;

    fn n(i: u32) -> NodeIndex {
        NodeIndex(i)
    }

    fn sub(id: SubId, filter: Filter) -> Subscription {
        Subscription { id, filter }
    }

    fn sent_to(out: &Outbox<BrokerMsg>, to: NodeIndex) -> Vec<&BrokerMsg> {
        out.sends().iter().filter(|(t, _)| *t == to).map(|(_, m)| m).collect()
    }

    /// Broker 0 with peer neighbours 1 and 2; client 10 attached.
    fn peer_broker() -> Broker {
        let mut b = Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![n(1), n(2)] });
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        b
    }

    #[test]
    fn subscription_forwarded_to_other_neighbors() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        let s = sub(1, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        assert_eq!(sent_to(&out, n(1)).len(), 1);
        assert_eq!(sent_to(&out, n(2)).len(), 1);
        // From a neighbour: not forwarded back.
        let mut out = Outbox::new();
        let s = sub(2, Filter::for_kind("j"));
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Subscribe(s), &mut out);
        assert!(sent_to(&out, n(1)).is_empty());
        assert_eq!(sent_to(&out, n(2)).len(), 1);
    }

    #[test]
    fn covering_prunes_forwarding() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        let broad = sub(1, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(broad), &mut out);
        // A narrower subscription is covered: no further forwarding.
        let mut out = Outbox::new();
        let narrow = sub(2, Filter::for_kind("k").with_eq("user", "bob"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(narrow), &mut out);
        assert!(out.sends().is_empty(), "covered sub must not be forwarded");
        assert_eq!(b.subscription_count(), 2);
    }

    #[test]
    fn uncovered_subscription_still_forwarded() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        let narrow = sub(1, Filter::for_kind("k").with_eq("user", "bob"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(narrow), &mut out);
        let mut out = Outbox::new();
        let broad = sub(2, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(broad), &mut out);
        // Broad is not covered by narrow; must go out to both neighbours.
        assert_eq!(out.sends().len(), 2);
    }

    #[test]
    fn notification_follows_subscription_reverse_path() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        // Neighbour 1 subscribed to kind k.
        b.handle(
            SimTime::ZERO,
            n(1),
            BrokerMsg::Subscribe(sub(1, Filter::for_kind("k"))),
            &mut out,
        );
        // Client 10 publishes a matching event.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert_eq!(sent_to(&out, n(1)).len(), 1, "forward toward subscriber");
        assert!(sent_to(&out, n(2)).is_empty(), "no subscriber there");
        // Non-matching event goes nowhere.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Publish(Event::new("other")), &mut out);
        assert!(out.sends().is_empty());
    }

    #[test]
    fn local_client_delivery() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(
            SimTime::ZERO,
            n(10),
            BrokerMsg::Subscribe(sub(1, Filter::any().with_constraint("t", Op::Gt, 15i64))),
            &mut out,
        );
        let mut out = Outbox::new();
        let ev = Event::new("w").with_attr("t", 20i64);
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Notify(ev), &mut out);
        let delivered = sent_to(&out, n(10));
        assert_eq!(delivered.len(), 1);
        assert!(matches!(delivered[0], BrokerMsg::Notify(_)));
    }

    #[test]
    fn publisher_does_not_receive_own_event() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, Filter::any())), &mut out);
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert!(sent_to(&out, n(10)).is_empty());
    }

    #[test]
    fn unsubscribe_stops_forwarding_and_reinstates_covered() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(
            SimTime::ZERO,
            n(10),
            BrokerMsg::Subscribe(sub(1, Filter::for_kind("k"))),
            &mut out,
        );
        b.handle(
            SimTime::ZERO,
            n(10),
            BrokerMsg::Subscribe(sub(2, Filter::for_kind("k").with_eq("u", "bob"))),
            &mut out,
        );
        // Unsubscribe the broad one; the narrow one must now be forwarded.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Unsubscribe(1), &mut out);
        let to1 = sent_to(&out, n(1));
        assert!(to1.iter().any(|m| matches!(m, BrokerMsg::Unsubscribe(1))));
        assert!(
            to1.iter().any(|m| matches!(m, BrokerMsg::Subscribe(s) if s.id == 2)),
            "previously covered sub must be re-forwarded"
        );
        // Events no longer delivered to 10 after full unsubscribe of 2.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Unsubscribe(2), &mut out);
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Notify(Event::new("k")), &mut out);
        assert!(sent_to(&out, n(10)).is_empty());
    }

    #[test]
    fn hierarchical_notifications_always_go_up() {
        let mut b = Broker::new(
            n(1),
            BrokerTopology::Hierarchical { parent: Some(n(0)), children: vec![n(2)] },
        );
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert_eq!(sent_to(&out, n(0)).len(), 1, "parent always gets the event");
        assert!(sent_to(&out, n(2)).is_empty(), "child has no matching sub");
    }

    #[test]
    fn hierarchical_subscriptions_go_to_parent_only() {
        let mut b = Broker::new(
            n(1),
            BrokerTopology::Hierarchical { parent: Some(n(0)), children: vec![n(2)] },
        );
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, Filter::any())), &mut out);
        assert_eq!(sent_to(&out, n(0)).len(), 1);
        assert!(sent_to(&out, n(2)).is_empty());
    }

    #[test]
    fn hierarchical_down_forwarding_needs_matching_sub() {
        let mut b = Broker::new(
            n(0),
            BrokerTopology::Hierarchical { parent: None, children: vec![n(1), n(2)] },
        );
        let mut out = Outbox::new();
        b.handle(
            SimTime::ZERO,
            n(1),
            BrokerMsg::Subscribe(sub(1, Filter::for_kind("k"))),
            &mut out,
        );
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(2), BrokerMsg::Notify(Event::new("k")), &mut out);
        assert_eq!(sent_to(&out, n(1)).len(), 1);
        assert!(sent_to(&out, n(2)).is_empty());
    }

    #[test]
    fn detach_removes_client_subscriptions() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, Filter::any())), &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Detach, &mut out);
        assert_eq!(b.subscription_count(), 0);
        assert!(b.clients.is_empty());
    }

    /// A client that detaches while roaming takes its log with it: once
    /// it attaches and subscribes again, its events are sent, not logged
    /// for a replay that will never come.
    #[test]
    fn detach_while_away_drops_the_log() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::MoveOut, &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Detach, &mut out);
        assert_eq!(b.replays.away.len(), 0);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        let s = sub(1, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(11), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert_eq!(sent_to(&out, n(10)).len(), 1, "the re-attached client is notified");
    }

    /// A leaf's subscriptions from its neighbour and from clients sit in
    /// two tables; `subscriptions()` still lists them in arrival order,
    /// and `client_matches` answers from the asking interface's own.
    #[test]
    fn subscriptions_keep_arrival_order_across_both_tables() {
        let mut b = Broker::new(n(1), BrokerTopology::Peer { neighbors: vec![n(0)] });
        let mut out = Outbox::new();
        for (id, iface) in [(1, 0), (2, 1), (3, 1), (4, 0), (5, 10), (6, 0)] {
            let f = Filter::for_kind("k").with_eq("id", id as i64);
            b.handle(SimTime::ZERO, n(iface), BrokerMsg::Subscribe(sub(id, f)), &mut out);
        }
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Unsubscribe(2), &mut out);
        let f = Filter::for_kind("k").with_eq("id", 2i64);
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Subscribe(sub(2, f)), &mut out);
        let ids: Vec<SubId> = b.subscriptions().map(|s| s.id).collect();
        assert_eq!(ids, [1, 3, 4, 5, 6, 2]);
        let ev = |id: i64| Event::new("k").with_attr("id", id);
        assert!(b.client_matches(n(1), &ev(3)));
        assert!(!b.client_matches(n(1), &ev(5)), "client 10's subscription");
        assert!(b.client_matches(n(0), &ev(4)), "the neighbour's own table");
        assert!(!b.client_matches(n(0), &ev(3)));
    }

    /// An away client is served even if it never attached: a leaf
    /// notified by its only neighbour probes its clients' table when an
    /// away client's log is all it could serve.
    #[test]
    fn an_away_client_alone_is_served_from_the_clients_table() {
        let mut b = Broker::new(n(1), BrokerTopology::Peer { neighbors: vec![n(0)] });
        let mut out = Outbox::new();
        let s = sub(1, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::MoveOut, &mut out);
        b.handle(SimTime::ZERO, n(0), BrokerMsg::Notify(Event::new("k")), &mut out);
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(0), replay_of(10, "k"), &mut out);
        match sent_to(&out, n(0))[..] {
            [BrokerMsg::Replayed { events, .. }, BrokerMsg::Unsubscribe(1)] => {
                assert_eq!(events.len(), 1)
            }
            ref other => panic!("expected one replay, got {other:?}"),
        }
    }

    /// Client `client`'s request to replay what matched kind `kind`, from
    /// the start.
    fn replay_of(client: u32, kind: &str) -> BrokerMsg {
        let filters = vec![Filter::for_kind(kind)];
        BrokerMsg::Replay { client: n(client), since: SimTime::ZERO, filters }
    }

    #[test]
    fn duplicate_subscription_ignored() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        let s = sub(1, Filter::any());
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s.clone()), &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        assert_eq!(b.subscription_count(), 1);
    }

    #[test]
    fn move_out_logs_then_a_replay_drains() {
        let mut b = peer_broker();
        let mut out = Outbox::new();
        b.handle(
            SimTime::ZERO,
            n(10),
            BrokerMsg::Subscribe(sub(1, Filter::for_kind("k"))),
            &mut out,
        );
        b.handle(SimTime::ZERO, n(10), BrokerMsg::MoveOut, &mut out);
        assert_eq!(b.replays.away.keys().copied().collect::<Vec<_>>(), [n(10)]);
        // Events arriving while away are logged, not sent; the client's
        // own publication is not logged for it.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Notify(Event::new("k")), &mut out);
        let mut own = Event::new("k");
        own.stamp(crate::EventId { origin: n(10), seq: 1 }, SimTime::ZERO);
        b.handle(SimTime::ZERO, n(1), BrokerMsg::Notify(own), &mut out);
        assert!(sent_to(&out, n(10)).is_empty());
        // The client's request reaches this broker from neighbour 2.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(2), replay_of(10, "k"), &mut out);
        let answers = sent_to(&out, n(2));
        match answers[0] {
            BrokerMsg::Replayed { client, events } => {
                assert_eq!(*client, n(10));
                assert_eq!(events.len(), 1);
            }
            other => panic!("expected a replay, got {other:?}"),
        }
        assert!(matches!(answers[1], BrokerMsg::Unsubscribe(1)), "old subscription retracted");
        assert_eq!(b.replays.away.len(), 0);
        assert_eq!(b.subscription_count(), 0);
        assert!(out.counts().iter().any(|(k, by)| k == "pubsub.replayed" && *by == 1.0));
    }

    /// The client's new broker holds its notifications until the replay
    /// is in, then sends it the replay and each held notification the
    /// replay does not hold.
    #[test]
    fn a_reconnected_client_is_sent_the_replay_then_what_was_held() {
        let mut b2 = Broker::new(n(5), BrokerTopology::Peer { neighbors: vec![n(0)] });
        let mut out = Outbox::new();
        b2.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        let s = sub(2, Filter::for_kind("k"));
        b2.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        let mut out = Outbox::new();
        b2.handle(SimTime::ZERO, n(10), replay_of(10, "k"), &mut out);
        assert!(
            matches!(sent_to(&out, n(0))[0], BrokerMsg::Replay { client, .. } if *client == n(10))
        );
        let ev = |x: i64| Event::new("k").with_attr("x", x);
        let mut out = Outbox::new();
        b2.handle(SimTime::ZERO, n(0), BrokerMsg::Notify(ev(1)), &mut out);
        b2.handle(SimTime::ZERO, n(0), BrokerMsg::Notify(ev(2)), &mut out);
        assert!(sent_to(&out, n(10)).is_empty(), "held while the replay is due");
        let events = vec![(SimTime::ZERO, ev(0)), (SimTime::ZERO, ev(1))];
        let mut out = Outbox::new();
        b2.handle(SimTime::ZERO, n(0), BrokerMsg::Replayed { client: n(10), events }, &mut out);
        match sent_to(&out, n(10))[..] {
            [BrokerMsg::Replayed { events, .. }, BrokerMsg::Notify(e)] => {
                assert_eq!(events.len(), 2);
                assert_eq!(e, &ev(2));
            }
            ref other => panic!("expected the replay and one notification, got {other:?}"),
        }
        assert_eq!(b2.subscription_count(), 1);
    }

    /// A replay whose neighbour never answers is released on the first
    /// routed event after the deadline: the client is sent an empty
    /// replay, then each held notification once, and nothing stays
    /// pending.
    #[test]
    fn a_replay_nobody_answers_is_released_after_the_deadline() {
        let mut b = Broker::new(n(5), BrokerTopology::Peer { neighbors: vec![n(0)] });
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        let s = sub(2, Filter::for_kind("k"));
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
        b.handle(SimTime::ZERO, n(10), replay_of(10, "k"), &mut out);
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let ev = |x: i64| Event::new("k").with_attr("x", x);
        let mut out = Outbox::new();
        b.handle(at(10), n(0), BrokerMsg::Notify(ev(1)), &mut out);
        b.handle(at(20), n(0), BrokerMsg::Notify(ev(2)), &mut out);
        assert!(sent_to(&out, n(10)).is_empty());
        assert!(out.counts().iter().all(|(k, _)| k != "pubsub.replay_expired"));
        let deadline = at(0) + crate::replay::REPLAY_DEADLINE;
        let mut out = Outbox::new();
        b.handle(deadline, n(0), BrokerMsg::Notify(ev(3)), &mut out);
        match sent_to(&out, n(10))[..] {
            [BrokerMsg::Replayed { events, .. }, BrokerMsg::Notify(x), BrokerMsg::Notify(y), BrokerMsg::Notify(z)] =>
            {
                assert!(events.is_empty());
                assert_eq!([x, y, z], [&ev(1), &ev(2), &ev(3)], "held ones first, then live");
            }
            ref other => panic!("expected a released replay, got {other:?}"),
        }
        assert!(out.counts().iter().any(|(k, by)| k == "pubsub.replay_expired" && *by == 1.0));
        assert!(b.replays.pending.is_empty());
        let mut out = Outbox::new();
        b.handle(
            deadline,
            n(0),
            BrokerMsg::Replayed { client: n(10), events: Vec::new() },
            &mut out,
        );
        b.handle(deadline, n(0), BrokerMsg::Notify(ev(4)), &mut out);
        assert_eq!(sent_to(&out, n(10)).len(), 1, "a late answer is dropped; live again");
    }

    /// A client that moves out and never comes back leaves its old broker
    /// holding the same state after T as after 4T: detached once away
    /// longer than the retention, its subscription retracted upstream and
    /// the drop counted.
    #[test]
    fn a_client_that_never_returns_leaves_a_bounded_log() {
        let after = |secs: u64| {
            let mut b = peer_broker();
            let mut out = Outbox::new();
            let s = sub(1, Filter::for_kind("k"));
            b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(s), &mut out);
            b.handle(SimTime::ZERO, n(10), BrokerMsg::MoveOut, &mut out);
            let mut out = Outbox::new();
            let mut peak = 0;
            for t in 1..=secs {
                let now = SimTime::ZERO + SimDuration::from_secs(t);
                b.handle(now, n(1), BrokerMsg::Notify(Event::new("k")), &mut out);
                peak = peak.max(b.replays.away_log_len(n(10)));
            }
            let retracted =
                sent_to(&out, n(1)).iter().any(|m| matches!(m, BrokerMsg::Unsubscribe(1)));
            let expired: f64 = out
                .counts()
                .iter()
                .filter(|(k, _)| k == "pubsub.away_expired")
                .map(|(_, by)| by)
                .sum();
            (b.subscription_count(), b.replays.away.len(), peak, retracted, expired)
        };
        let t = 2 * crate::replay::AWAY_RETENTION.as_micros() / 1_000_000;
        let retention = (t / 2) as usize;
        assert_eq!(after(t), (0, 0, retention - 1, true, 1.0));
        assert_eq!(after(4 * t), after(t));
    }

    #[test]
    fn overlapping_forwards_merge_into_one_cover() {
        let mut b = Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![n(1)] });
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        let f1 = Filter::for_kind("k").with_constraint("x", Op::Gt, 0i64).with_eq("u", "bob");
        let f2 = Filter::for_kind("k").with_constraint("x", Op::Gt, 5i64).with_eq("u", "anna");
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, f1.clone())), &mut out);
        assert_eq!(out.sends().len(), 1, "first sub forwards as itself");
        // The second overlaps the first without either covering the
        // other: the broker mints one merged cover and retracts the
        // original, so upstream holds one filter instead of two.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(2, f2.clone())), &mut out);
        let to1 = sent_to(&out, n(1));
        assert_eq!(to1.len(), 2);
        let merged = match to1[0] {
            BrokerMsg::Subscribe(s) => {
                assert_ne!(s.id & SYNTH_BIT, 0, "merged cover carries a synthetic id");
                s.filter.clone()
            }
            other => panic!("expected merged subscribe first, got {other:?}"),
        };
        assert!(matches!(to1[1], BrokerMsg::Unsubscribe(1)), "original retracted after cover");
        assert!(merged.covers(&f1) && merged.covers(&f2), "merge must cover both: {merged}");
        assert!(out.counts().iter().any(|(k, _)| k == "pubsub.subs_merged"));
        assert_eq!(b.forwarded_filters(n(1)), vec![merged]);
    }

    #[test]
    fn merged_cover_retracted_when_last_child_unsubscribes() {
        let mut b = Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![n(1)] });
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Attach, &mut out);
        let f1 = Filter::for_kind("k").with_constraint("x", Op::Gt, 0i64).with_eq("u", "bob");
        let f2 = Filter::for_kind("k").with_constraint("x", Op::Gt, 5i64).with_eq("u", "anna");
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, f1)), &mut out);
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(2, f2)), &mut out);
        assert_eq!(b.forwarded_filters(n(1)).len(), 1);
        // First child gone: the merged cover still serves the second.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Unsubscribe(1), &mut out);
        assert!(out.sends().is_empty(), "cover still needed, nothing retracted");
        assert_eq!(b.forwarded_filters(n(1)).len(), 1);
        // Last child gone: the synthetic cover is retracted upstream.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Unsubscribe(2), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert!(
            matches!(sent_to(&out, n(1))[0], BrokerMsg::Unsubscribe(id) if id & SYNTH_BIT != 0),
            "synthetic cover must be retracted"
        );
        assert!(b.forwarded_filters(n(1)).is_empty());
    }

    /// Tight shedding policy for overload tests: selective shedding from
    /// depth 4, hard bound 8, slow drain.
    fn tight_shed() -> gloss_governor::ShedConfig {
        gloss_governor::ShedConfig {
            capacity: 8.0,
            high_watermark: 4.0,
            drain_per_sec: 10.0,
            priority_floor: 4.0,
            fair_window: gloss_sim::SimDuration::from_secs(1),
            fair_share: 1000,
        }
    }

    #[test]
    fn overloaded_broker_sheds_low_priority_publications() {
        let mut b = peer_broker().with_shedding(tight_shed());
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, Filter::any())), &mut out);
        // Fill past the high watermark with unmarked (high-priority)
        // publications from distinct sources.
        let mut out = Outbox::new();
        for i in 0..6 {
            b.handle(SimTime::ZERO, n(100 + i), BrokerMsg::Publish(Event::new("k")), &mut out);
        }
        assert_eq!(b.shedder().unwrap().shed, 0, "high priority admitted up to capacity");
        // A low-priority publication is now shed (never delivered) ...
        let mut out = Outbox::new();
        let low = Event::new("k").with_attr("prio", 1i64);
        b.handle(SimTime::ZERO, n(200), BrokerMsg::Publish(low), &mut out);
        assert!(sent_to(&out, n(10)).is_empty(), "shed event must not be delivered");
        assert!(out.counts().iter().any(|(k, _)| k == "pubsub.shed"));
        // ... while a high-priority one still gets through.
        let mut out = Outbox::new();
        let high = Event::new("k").with_attr("prio", 9i64);
        b.handle(SimTime::ZERO, n(201), BrokerMsg::Publish(high), &mut out);
        assert_eq!(sent_to(&out, n(10)).len(), 1);
        // The load metric counts every message, the shed one included.
        assert_eq!(b.msgs_handled, 10);
    }

    #[test]
    fn overloaded_broker_rejects_subscriptions_but_admits_control() {
        let mut b = peer_broker().with_shedding(tight_shed());
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Subscribe(sub(1, Filter::any())), &mut out);
        let mut out = Outbox::new();
        for i in 0..6 {
            b.handle(SimTime::ZERO, n(100 + i), BrokerMsg::Publish(Event::new("k")), &mut out);
        }
        // New subscriptions are refused under overload.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(11), BrokerMsg::Subscribe(sub(2, Filter::any())), &mut out);
        assert_eq!(b.subscription_count(), 1, "subscription must be rejected");
        assert!(out.counts().iter().any(|(k, _)| k == "pubsub.subs_rejected"));
        // Unsubscribes (load-reducing control) are always admitted.
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(10), BrokerMsg::Unsubscribe(1), &mut out);
        assert_eq!(b.subscription_count(), 0);
    }

    /// Runs `msg` at its destination and shuttles every resulting
    /// inter-broker message until the pair is quiescent.
    fn drain(
        a: &mut Broker,
        b: &mut Broker,
        mut q: std::collections::VecDeque<(NodeIndex, NodeIndex, BrokerMsg)>,
    ) -> Vec<(NodeIndex, BrokerMsg)> {
        let mut external = Vec::new();
        while let Some((to, from, msg)) = q.pop_front() {
            let target = if to == a.index() { &mut *a } else { &mut *b };
            let me = target.index();
            let mut out = Outbox::new();
            target.handle(SimTime::ZERO, from, msg, &mut out);
            for (t, m) in out.sends() {
                if *t == a.index() || *t == b.index() {
                    q.push_back((*t, me, m.clone()));
                } else {
                    external.push((*t, m.clone()));
                }
            }
        }
        external
    }

    /// Regression: a client crashing mid-covering-chain must not leave
    /// orphan subscription entries at the upstream broker. The access
    /// broker holds a broad forwarded sub and a narrow covered one; on the
    /// client's detach (how the harness surfaces a client crash) the
    /// covered sub is transiently re-forwarded upstream by the covering
    /// repair — the detach must still unwind it.
    #[test]
    fn client_crash_mid_covering_chain_leaves_no_orphans_upstream() {
        let mut a = Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![n(1)] });
        let mut b = Broker::new(n(1), BrokerTopology::Peer { neighbors: vec![n(0)] });

        let client = n(10);
        drain(
            &mut a,
            &mut b,
            [
                (n(0), client, BrokerMsg::Attach),
                // Broad sub: forwarded to b.
                (n(0), client, BrokerMsg::Subscribe(sub(1, Filter::for_kind("k")))),
                // Narrow sub: covered by the broad one, pruned.
                (
                    n(0),
                    client,
                    BrokerMsg::Subscribe(sub(2, Filter::for_kind("k").with_eq("u", "x"))),
                ),
            ]
            .into(),
        );
        assert_eq!(a.subscription_count(), 2);
        assert_eq!(b.subscription_count(), 1, "only the broad sub crosses the link");

        // The client crashes; its access broker sees a detach.
        drain(&mut a, &mut b, [(n(0), client, BrokerMsg::Detach)].into());
        assert_eq!(a.subscription_count(), 0);
        assert_eq!(
            b.subscription_count(),
            0,
            "upstream broker kept orphan entries for a dead client"
        );
    }

    /// Un-merge regression: after a merged cover is fully unwound,
    /// republished events must stop crossing the link.
    #[test]
    fn unsubscribe_then_republish_after_unmerge() {
        let mut a = Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![n(1)] });
        let mut b = Broker::new(n(1), BrokerTopology::Peer { neighbors: vec![n(0)] });
        let subscriber = n(10); // at a
        let publisher = n(20); // at b
        drain(
            &mut a,
            &mut b,
            [
                (n(0), subscriber, BrokerMsg::Attach),
                (n(1), publisher, BrokerMsg::Attach),
                (
                    n(0),
                    subscriber,
                    BrokerMsg::Subscribe(sub(
                        1,
                        Filter::for_kind("k")
                            .with_constraint("x", Op::Gt, 0i64)
                            .with_eq("u", "bob"),
                    )),
                ),
                (
                    n(0),
                    subscriber,
                    BrokerMsg::Subscribe(sub(
                        2,
                        Filter::for_kind("k")
                            .with_constraint("x", Op::Gt, 5i64)
                            .with_eq("u", "anna"),
                    )),
                ),
            ]
            .into(),
        );
        assert_eq!(b.subscription_count(), 1, "one merged cover crosses the link");

        // A matching publication reaches the subscriber through the cover.
        let ev = Event::new("k").with_attr("x", 3i64).with_attr("u", "bob");
        let delivered =
            drain(&mut a, &mut b, [(n(1), publisher, BrokerMsg::Publish(ev.clone()))].into());
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0, subscriber);

        // Unwind both children; then republish: nothing may cross.
        drain(&mut a, &mut b, [(n(0), subscriber, BrokerMsg::Unsubscribe(1))].into());
        assert_eq!(b.subscription_count(), 1, "cover still serves the second child");
        drain(&mut a, &mut b, [(n(0), subscriber, BrokerMsg::Unsubscribe(2))].into());
        assert_eq!(b.subscription_count(), 0, "merged cover retracted upstream");
        let delivered = drain(&mut a, &mut b, [(n(1), publisher, BrokerMsg::Publish(ev))].into());
        assert!(delivered.is_empty(), "republish after unmerge must not deliver");
    }
}
