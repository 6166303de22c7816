//! The integrated architecture node: broker + storelet + thin server +
//! matchlets, with the coordinator engines on node 0.
//!
//! Knowledge documents ingest wherever they land, and a node reads each
//! one only as far as its verdict needs. A `kbdelta` batch's envelope
//! (subject, source, epochs) is read first; the subject's replica record
//! is looked up once and [`reconcile`] decides on the envelope alone.
//! Stale batches and snapshot fallbacks never decode the body; a batch
//! that applies decodes it into a buffer the node keeps, with names taken
//! from the node's fact store, and moves its facts into that store. A
//! `kb` snapshot is read version first, and one older than the held state
//! is turned away before any fact is built. A malformed body, or a
//! snapshot whose root names another subject than its document, never
//! applies anything.

use crate::service::ServiceSpec;
use gloss_bundle::{AuthKey, Bundle, Capability, ThinServer};
use gloss_deploy::evolution::DEADLINE;
use gloss_deploy::resource::kinds as resource_kinds;
use gloss_deploy::{Deploy, EvolutionEngine, NodeResources};
use gloss_event::{Broker, BrokerMsg, Event, EventId, Filter, SubId, Subscription};
use gloss_knowledge::{
    reconcile, BatchReader, DeltaAction, FactDelta, InMemoryFacts, SnapshotReader,
};
use gloss_overlay::Key;
use gloss_sim::{FnvHashMap, GeoPoint, Input, Node, NodeIndex, Outbox, SimDuration, SimTime};
use gloss_store::{Document, LookupOutcome, StoreMsg, StoreNode};
use gloss_xml::Element;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Messages of the integrated architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum GlossMsg {
    /// Event-plane traffic (Siena brokers).
    PubSub(BrokerMsg),
    /// Storage-plane traffic (overlay + storage).
    Store(StoreMsg),
    /// A locally sensed event, injected by the workload (the role the
    /// paper gives a device wrapper).
    Sensor(Event),
    /// A UI client subscription on this node.
    UiSubscribe(Filter),
    /// Prefetch the knowledge-base document for a subject into this node.
    /// The subject is a shared name (`Rc<str>`): the sender's copy
    /// travels with no string built per message.
    PrefetchSubject(Rc<str>),
    /// Pull the latest delta batch for a subject (repairs incrementally
    /// when it extends the held state; falls back to the full document
    /// otherwise).
    PrefetchDeltas(Rc<str>),
    /// A sealed code bundle shipped by the evolution engine or discovery.
    Bundle {
        /// Instance id (evolution bookkeeping; empty for discovery).
        instance: String,
        /// The XML packet.
        packet: String,
        /// The role the instance's rules take on install.
        role: Role,
    },
    /// The coordinator makes a standby instance the primary of its
    /// service: the node loads the instance's rules, subscribes the kinds
    /// they read, and has the hub replay from its log what arrived from
    /// one window before `since` on ([`BrokerMsg::Replay`]). The rules
    /// take the replay, each event at its logged arrival instant, firing
    /// only from `since` on, and then run live.
    Promote {
        /// Instance id (the bundle's name).
        instance: String,
        /// The failed primary's last heartbeat, less one heartbeat period;
        /// [`SimTime::MAX`] when a live primary is handed over from (the
        /// instance then replays nothing: it subscribes and runs live).
        since: SimTime,
    },
    /// The coordinator makes an ex-primary stand by again: the node
    /// unloads the instance's rules and withdraws the kind subscriptions
    /// nothing else on it holds.
    Demote {
        /// Instance id (the bundle's name).
        instance: String,
    },
    /// Install confirmation back to the coordinator.
    Installed {
        /// Instance id.
        instance: String,
    },
    /// A node saw an event kind no local matchlet handles (discovery, §5).
    UnknownKind {
        /// The unhandled kind.
        kind: String,
    },
}

/// A worker's resource advertisement period.
const HEARTBEAT: SimDuration = SimDuration::from_secs(10);
/// The coordinator's sweep period: failure detection and reconciliation.
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(10);

/// How long past a service's longest window the hub's replay log keeps
/// the events of the kinds its rules read, so that a promoted standby can
/// be replayed what it missed. A promotion fires what arrived from the
/// failed primary's last heartbeat less one heartbeat period on; the
/// evolution engine declares the failure at the first sweep after the
/// deadline, so at most the deadline plus one sweep period after that
/// heartbeat. Joins fired from there on need partners up to one window
/// older, and the one heartbeat period of margin in `since` covers the
/// `Promote` message's flight.
pub const TAKEOVER_HORIZON: SimDuration = SimDuration::from_micros(
    DEADLINE.as_micros() + SWEEP_EVERY.as_micros() + HEARTBEAT.as_micros(),
);

/// The role a service instance ships with ([`GlossMsg::Bundle`]).
///
/// The coordinator ranks a service's instances by great-circle distance
/// from its own site (the centre of the broker star, which every event
/// and notification crosses), ties broken by node index. While no
/// primary of the service is alive, the best-ranked instance of a
/// deployment ships as primary; every other instance ships as a standby.
/// A standby is cold: its node installs the bundle but neither loads its
/// rules nor subscribes to the service's kinds, so it is sent nothing and
/// keeps nothing. What a promotion needs, the hub keeps instead: one log
/// of the events of every registered service's kinds, each for the
/// service's longest window plus [`TAKEOVER_HORIZON`].
/// When the evolution engine's sweep declares the primary's node failed,
/// the best-ranked confirmed live standby is promoted
/// ([`GlossMsg::Promote`]); a standby's failure promotes nobody. A
/// confirmed instance that outranks the primary takes over at once, and
/// the old primary fires on for one window of the rules before it stands
/// by ([`GlossMsg::Demote`]). A primary that recovers (a crash is a
/// pause) keeps its role: its firings and the promoted standby's are
/// copies, counted by the UI's duplicate ratio, not failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Subscribes to its rules' kinds, joins, fires and publishes.
    Primary,
    /// Installs its bundle and does nothing else until it is promoted,
    /// when the hub replays it what it missed.
    Standby,
}

/// Timer tags owned by the integration layer (store/overlay tags pass
/// through to the storelet).
mod timers {
    /// Worker resource heartbeat.
    pub const HEARTBEAT: u64 = 0x40;
    /// Coordinator sweep (failure detection + reconciliation).
    pub const SWEEP: u64 = 0x41;
}

/// Coordinator-only state (node 0).
#[derive(Debug)]
pub struct CoordinatorState {
    /// The evolution engine, which also keeps the one view of which
    /// nodes are alive.
    pub evolution: EvolutionEngine,
    /// Registered services by name.
    pub services: BTreeMap<String, ServiceSpec>,
    /// Kinds currently being discovered → reporting nodes.
    discovery_pending: BTreeMap<String, BTreeSet<NodeIndex>>,
    /// Outstanding handler-code fetches: store request id → kind.
    handler_reqs: BTreeMap<u64, String>,
    next_req: u64,
    /// Kinds successfully discovered and deployed.
    pub discovered: Vec<String>,
    /// The primary instance of each matchlet service, by component kind:
    /// `(instance, node)`, from when it ships or is promoted until its
    /// node fails or a better-ranked instance takes over.
    primaries: BTreeMap<String, (String, NodeIndex)>,
    /// Ex-primaries still firing beside the instance that took over from
    /// them, until they stand by.
    retiring: Vec<Retiring>,
    /// The services whose kinds the hub's replay log subscribes to.
    logged: BTreeSet<String>,
}

/// A primary a better-ranked instance took over from. It keeps firing
/// for one window of its service's rules, until every join the new
/// primary can miss (one whose earlier event arrived before the new
/// primary was installed) has fired, and then stands by.
#[derive(Debug)]
struct Retiring {
    kind: String,
    instance: String,
    node: NodeIndex,
    /// When it stands by.
    at: SimTime,
}

impl CoordinatorState {
    /// The rank of `node` as a host of a service instance, lower first:
    /// its great-circle distance from `site`, the coordinator's, then its
    /// index. A node that never advertised ranks last. (A distance is
    /// never negative, and the bits of non-negative floats order as the
    /// floats do.)
    fn rank(&self, site: GeoPoint, node: NodeIndex) -> (u64, u32) {
        let km = self
            .evolution
            .resources()
            .get(&node)
            .map_or(f64::INFINITY, |r| site.distance_km(r.geo));
        (km.to_bits(), node.0)
    }

    fn new() -> Self {
        CoordinatorState {
            evolution: EvolutionEngine::new(Vec::new()),
            services: BTreeMap::new(),
            discovery_pending: BTreeMap::new(),
            handler_reqs: BTreeMap::new(),
            next_req: 0,
            discovered: Vec::new(),
            primaries: BTreeMap::new(),
            retiring: Vec::new(),
            logged: BTreeSet::new(),
        }
    }
}

/// The two store documents a subject's knowledge travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnowledgeDoc {
    /// `kb/<subject>`: a full snapshot.
    Snapshot,
    /// `kbdelta/<subject>@<from..to>`: a delta batch. Every batch for a
    /// subject lives under the one guid of `kbdelta/<subject>` (the epoch
    /// range travels in the name only), so successive batches land on
    /// the same replica and cache set, and version-skipping drops stale
    /// re-deliveries.
    Deltas,
}

impl KnowledgeDoc {
    /// The storage guid of `subject`'s document of this kind: the hash of
    /// `kb/<subject>` or `kbdelta/<subject>`, with no name built.
    pub fn guid(self, subject: &str) -> Key {
        let prefix = match self {
            KnowledgeDoc::Snapshot => "kb/",
            KnowledgeDoc::Deltas => "kbdelta/",
        };
        Key::hash_of_parts([prefix.as_bytes(), subject.as_bytes()])
    }
}

/// What a node holds of one subject's replicated knowledge.
#[derive(Debug, Default)]
struct SubjectReplica {
    /// Ingested `kb/<subject>` document version: re-deliveries of an
    /// unchanged document (cache pushes, replica re-sends) are skipped so
    /// they do not churn the fact store's delta feed — and with it the
    /// matching engine's memoised solutions — for nothing.
    snapshot_doc: Option<u64>,
    /// Highest `kbdelta/<subject>` *document* version ingested. Delta
    /// prefetches demand strictly newer copies so a stale
    /// promiscuously-cached batch can't short-circuit the pull.
    delta_doc: Option<u64>,
    /// Authority `(source, epoch)` the held facts are anchored at, set by
    /// versioned snapshots and advanced by applied delta batches. Before
    /// either, no fact about the subject is held: a delta batch then
    /// falls back to a snapshot fetch, unless it starts at epoch 0 — a
    /// complete history, which builds the subject from nothing.
    anchor: Option<(u64, u64)>,
}

/// One node of the active architecture.
#[derive(Debug)]
pub struct GlossNode {
    me: NodeIndex,
    /// The event broker.
    pub broker: Broker,
    /// The storelet (overlay + storage + caches).
    pub store: StoreNode,
    /// The broker's and the storelet's send buffers, lent to every
    /// [`Outbox::nested`] call into them and handed back empty, so their
    /// capacity is reused from one activation to the next.
    broker_sends: Vec<(NodeIndex, BrokerMsg)>,
    store_sends: Vec<(NodeIndex, StoreMsg)>,
    /// The lookups the storelet hands over after a call into it, kept
    /// here so that the buffer's capacity is reused; empty between calls.
    store_concluded: Vec<(u64, LookupOutcome)>,
    /// The thin server hosting matchlets.
    pub server: ThinServer,
    /// The node-local fact store (fed by `kb/…` documents).
    pub kb: InMemoryFacts,
    /// The deltas of the batch being applied, decoded here so that the
    /// buffer's capacity is reused from one batch to the next.
    delta_scratch: Vec<FactDelta>,
    /// Events held back from the matchlets while `gap_fetches` is not
    /// empty ([`fetch_gaps`](Self::fetch_gaps)) or a replay is awaited,
    /// each with its arrival instant and the instant it fires from
    /// ([`SimTime::ZERO`] for a live event).
    held: VecDeque<(SimTime, SimTime, Event)>,
    /// The outstanding lookups of subjects a loaded rule needed and this
    /// node had never held knowledge of.
    gap_fetches: Vec<u64>,
    /// While a promotion's replay is awaited, the instant its events
    /// fire from.
    replaying: Option<SimTime>,
    resources: NodeResources,
    coordinator: NodeIndex,
    key: AuthKey,
    sub_seq: u64,
    pub_seq: u64,
    /// Whole-kind subscriptions at this node's broker, by kind
    /// ([`sync_kinds`](Self::sync_kinds)).
    subscribed_kinds: BTreeMap<String, SubId>,
    reported_unknown: BTreeSet<String>,
    /// UI-style subscriptions delivered to [`ui_received`](Self::ui_received).
    pub ui_filters: Vec<Filter>,
    /// Events delivered to this node's UI subscriptions, in arrival
    /// order: an unbounded inbox that nothing in the node reads or
    /// trims. It exists for the harness (examples, tests and the
    /// end-to-end benchmark observe deliveries here), so a long run holds
    /// every UI delivery.
    pub ui_received: Vec<Event>,
    /// Events synthesised by local matchlets.
    pub emitted: u64,
    /// Coordinator engines (node 0 only; boxed, so that the other nodes
    /// hold one pointer for them).
    pub coordinator_state: Option<Box<CoordinatorState>>,
    /// Replication state of every subject a kb or kbdelta document has
    /// been seen for, hashed by subject (nothing walks it in order): a
    /// held subject's record is found with one hash, and a record is
    /// created, copying the name, only on a subject's first sight.
    replicas: FnvHashMap<Box<str>, SubjectReplica>,
}

impl GlossNode {
    /// Creates an integrated node.
    pub fn new(
        me: NodeIndex,
        broker: Broker,
        store: StoreNode,
        resources: NodeResources,
        coordinator: NodeIndex,
        key: AuthKey,
    ) -> Self {
        let mut server = ThinServer::new(format!("gloss-{me}"));
        server.trust(key.clone());
        server.grant(key.issuer(), Capability::DeployMatchlet);
        server.grant(key.issuer(), Capability::DeployComponent);
        server.grant(key.issuer(), Capability::StoreAccess);
        let coordinator_state = (me == coordinator).then(|| Box::new(CoordinatorState::new()));
        GlossNode {
            me,
            broker,
            store,
            broker_sends: Vec::new(),
            store_sends: Vec::new(),
            store_concluded: Vec::new(),
            server,
            kb: InMemoryFacts::new(),
            delta_scratch: Vec::new(),
            held: VecDeque::new(),
            gap_fetches: Vec::new(),
            replaying: None,
            resources,
            coordinator,
            key,
            sub_seq: 0,
            pub_seq: 0,
            subscribed_kinds: BTreeMap::new(),
            reported_unknown: BTreeSet::new(),
            ui_filters: Vec::new(),
            ui_received: Vec::new(),
            emitted: 0,
            coordinator_state,
            replicas: FnvHashMap::default(),
        }
    }

    /// This node's index.
    pub fn index(&self) -> NodeIndex {
        self.me
    }

    /// Whether this node is the coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.coordinator_state.is_some()
    }

    /// The versions of the last `kb` and the newest `kbdelta` document
    /// about `subject` ingested here.
    #[cfg(test)]
    pub(crate) fn ingested_versions(&self, subject: &str) -> (Option<u64>, Option<u64>) {
        self.replicas.get(subject).map_or((None, None), |r| (r.snapshot_doc, r.delta_doc))
    }

    /// Whether facts about `subject` have been ingested locally (from a
    /// snapshot, or built up from a first-epoch delta batch).
    #[cfg(test)]
    pub(crate) fn knows_subject(&self, subject: &str) -> bool {
        self.replicas.get(subject).is_some_and(|r| r.snapshot_doc.is_some() || r.anchor.is_some())
    }

    /// Feeds one message to the broker. Its sends to other nodes leave
    /// through `out`. Its sends to this node are notifications for its
    /// local client, this node, and are handed to
    /// [`deliver_to_client`](Self::deliver_to_client) in this same
    /// activation, in the order the broker produced them, instead of
    /// looping back through the network.
    fn broker_do(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<GlossMsg>,
    ) {
        self.broker_call(now, out, |broker, bout| broker.handle(now, from, msg, bout));
    }

    /// Runs `call` against the broker, as [`broker_do`](Self::broker_do)
    /// runs one message.
    fn broker_call(
        &mut self,
        now: SimTime,
        out: &mut Outbox<GlossMsg>,
        call: impl FnOnce(&mut Broker, &mut Outbox<BrokerMsg>),
    ) {
        let me = self.me;
        out.nested(&mut self.broker_sends, Some(me), GlossMsg::PubSub, |bout| {
            call(&mut self.broker, bout)
        });
        // What is left in the buffer is addressed to this node: at most
        // one `Notify` per event routed here, and a promotion's replay. A
        // hand-off can publish and so re-enter this function; the inner
        // call's sends queue behind the ones still waiting here, and its
        // loop hands off all of them, oldest first.
        while !self.broker_sends.is_empty() {
            match self.broker_sends.remove(0).1 {
                BrokerMsg::Notify(event) => self.deliver_to_client(now, event, true, out),
                BrokerMsg::Replayed { events, .. } => self.replayed(now, events, out),
                other => self.broker_do(now, me, other, out),
            }
        }
    }

    /// A subscription id no other node mints: this node's index over its
    /// sequence.
    fn next_sub_id(&mut self) -> SubId {
        self.sub_seq += 1;
        ((self.me.0 as u64) << 32) | self.sub_seq
    }

    /// Subscribes `filter` at this node's broker under a fresh id.
    fn subscribe_filter(
        &mut self,
        now: SimTime,
        filter: Filter,
        out: &mut Outbox<GlossMsg>,
    ) -> SubId {
        let id = self.next_sub_id();
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Subscribe(Subscription { id, filter }), out);
        id
    }

    /// Brings the whole-kind subscriptions in line with what holds them:
    /// the kinds the loaded rules listen for and, on the coordinator,
    /// `resource.advertise`, which its evolution engine reads. A kind
    /// newly held is subscribed (in kind order), and its filter returned;
    /// a kind nothing holds any more is unsubscribed.
    fn sync_kinds(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) -> Vec<Filter> {
        let patterns = self.server.engine().rules().iter().flat_map(|r| &r.rule.patterns);
        let mut held: BTreeSet<String> = patterns.map(|p| p.kind.clone()).collect();
        if self.is_coordinator() {
            held.insert(resource_kinds::ADVERTISE.to_string());
        }
        let gone = self.subscribed_kinds.extract_if(.., |kind, _| !held.contains(kind));
        for (_, id) in gone.collect::<Vec<_>>() {
            self.broker_do(now, self.me, BrokerMsg::Unsubscribe(id), out);
        }
        held.retain(|kind| !self.subscribed_kinds.contains_key(kind));
        let filters: Vec<Filter> = held.iter().map(Filter::for_kind).collect();
        for (kind, filter) in held.into_iter().zip(&filters) {
            let id = self.subscribe_filter(now, filter.clone(), out);
            self.subscribed_kinds.insert(kind, id);
        }
        filters
    }

    /// Publishes an event onto the bus from this node.
    fn publish(&mut self, now: SimTime, mut event: Event, out: &mut Outbox<GlossMsg>) {
        self.stamp(now, &mut event);
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Publish(event), out);
    }

    /// Gives `event` this node's next publication id.
    fn stamp(&mut self, now: SimTime, event: &mut Event) {
        self.pub_seq += 1;
        event.stamp(EventId { origin: self.me, seq: self.pub_seq }, now);
    }

    /// Client-side delivery: UI logging, matchlet matching, coordinator
    /// engines. It runs in the activation that produced the event: for a
    /// local sensor reading, and for each `Notify` this node's broker
    /// addresses to the node itself, handed over by
    /// [`broker_do`](Self::broker_do) without a message.
    ///
    /// `routed` says this node's own broker handed the event over, which
    /// it does only when one of this node's subscriptions matched it.
    /// This node subscribes its UI filters and whole kinds
    /// (`subscribed_kinds`), and nothing else, at its own broker. So for
    /// an event of a kind not subscribed whole, "a UI filter matches" is
    /// "one of this node's subscriptions matches": a routed one goes to
    /// the UI unscanned, and a local sensor reading asks the broker
    /// (one indexed probe of its client table) instead of scanning
    /// `ui_filters`. An event of a kind subscribed whole is scanned: the
    /// kind subscription may be all it matches.
    fn deliver_to_client(
        &mut self,
        now: SimTime,
        event: Event,
        routed: bool,
        out: &mut Outbox<GlossMsg>,
    ) {
        if self.ui_wants(&event, routed) {
            out.count("gloss.ui_delivered", 1.0);
            self.ui_received.push(event.clone());
        }
        // The coordinator's evolution engine consumes resource
        // advertisements from the bus, each decoded once.
        if event.kind().starts_with("resource.") {
            if let Some(cs) = self.coordinator_state.as_mut() {
                if let Some(r) = NodeResources::from_event(&event) {
                    let deploys = cs.evolution.advertised(now, r);
                    self.dispatch_deploys(deploys, out);
                }
            }
            return;
        }
        if self.matchlets_free() {
            self.fetch_gaps(now, &event, out);
        }
        if self.matchlets_free() {
            self.run_matchlets(now, SimTime::ZERO, now, event, out);
        } else {
            self.held.push_back((now, SimTime::ZERO, event));
        }
    }

    /// Whether events go to the matchlets as they arrive: no gap fetch is
    /// outstanding and no replay awaited.
    fn matchlets_free(&self) -> bool {
        self.gap_fetches.is_empty() && self.replaying.is_none()
    }

    /// Takes a promotion's replay: its events go to the matchlets before
    /// anything held back while it was awaited, each at its logged
    /// arrival instant, firing from the promotion's `since` on.
    fn replayed(
        &mut self,
        now: SimTime,
        events: Vec<(SimTime, Event)>,
        out: &mut Outbox<GlossMsg>,
    ) {
        let Some(since) = self.replaying.take() else {
            return;
        };
        out.count("gloss.replayed_events", events.len() as f64);
        for (at, event) in events.into_iter().rev() {
            self.held.push_front((at, since, event));
        }
        self.release_held(now, out);
    }

    /// Fetches the snapshot of each subject a live rule would read about
    /// `event` that this node has never held knowledge of (no `kb` or
    /// `kbdelta` document about it has landed here). Until every such
    /// fetch concludes, the node holds `event` and every event after it
    /// back from its matchlets ([`release_held`](Self::release_held)):
    /// one instance fires for a service, so a join decided on knowledge
    /// the node lacks would be lost. A subject is fetched once; one no
    /// store holds is not fetched again.
    fn fetch_gaps(&mut self, now: SimTime, event: &Event, out: &mut Outbox<GlossMsg>) {
        loop {
            let mut gap: Option<Box<str>> = None;
            let replicas = &self.replicas;
            self.server.engine().fact_subjects(event, &mut |subject| {
                if gap.is_none() && !replicas.contains_key(subject) {
                    gap = Some(subject.into());
                }
            });
            let Some(subject) = gap else {
                return;
            };
            out.count("gloss.kb_gap_fetches", 1.0);
            let guid = KnowledgeDoc::Snapshot.guid(&subject);
            self.replicas.insert(subject, SubjectReplica::default());
            let req = self.next_request();
            self.gap_fetches.push(req);
            self.prefetch(guid, 0, req, now, out);
        }
    }

    /// Offers the held events to the matchlets, oldest first, each at its
    /// arrival instant, until one needs another fetch.
    fn release_held(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) {
        while self.matchlets_free() {
            let Some((at, since, event)) = self.held.pop_front() else {
                return;
            };
            self.fetch_gaps(now, &event, out);
            if self.gap_fetches.is_empty() {
                self.run_matchlets(at, since, now, event, out);
            } else {
                self.held.push_front((at, since, event));
            }
        }
    }

    /// Offers `event`, which arrived at `at`, to the local matchlets,
    /// which fire only if `at` is at or after `since`, and publishes
    /// what they fire.
    fn run_matchlets(
        &mut self,
        at: SimTime,
        since: SimTime,
        now: SimTime,
        event: Event,
        out: &mut Outbox<GlossMsg>,
    ) {
        // All bundles installed on this node share the server's one
        // engine, so its alpha/beta indexes are repaired once per
        // knowledge update however many matchlets are deployed; memo hits
        // are surfaced as a world metric, and so are the change-feed
        // reads that found the store's bounded delta log wrapped past the
        // engine's cursor (each forced a full re-read).
        let memo_before = self.server.engine().stats.memo_hits;
        let truncated_before = self.kb.delta_log_truncations();
        let outputs = self.server.match_event(at, &event, since, &self.kb);
        let memo_hits = self.server.engine().stats.memo_hits - memo_before;
        if memo_hits > 0 {
            out.count("gloss.match_memo_hits", memo_hits as f64);
        }
        let truncated = self.kb.delta_log_truncations() - truncated_before;
        if truncated > 0 {
            out.count("gloss.kb_delta_log_truncated", truncated as f64);
        }
        self.publish_synthesized(now, outputs, out);
    }

    /// Whether a UI filter of this node matches `event` (see
    /// [`deliver_to_client`](Self::deliver_to_client) for `routed`).
    fn ui_wants(&self, event: &Event, routed: bool) -> bool {
        let scan = |node: &Self| node.ui_filters.iter().any(|f| f.matches(event));
        if self.subscribed_kinds.contains_key(event.kind()) {
            scan(self)
        } else if routed {
            debug_assert!(
                scan(self),
                "routed, not of a kind subscribed whole, yet no UI filter matches: {event}"
            );
            true
        } else if self.ui_filters.is_empty() {
            false
        } else {
            let matched = self.broker.client_matches(self.me, event);
            debug_assert_eq!(
                matched,
                scan(self),
                "the broker and the UI filters disagree: {event}"
            );
            matched
        }
    }

    /// Publishes what local matchlets fired. The broker never hands a
    /// node's own publication back to it, so this node's UI filters are
    /// served here: a UI on the node that fires sees the firing.
    fn publish_synthesized(&mut self, now: SimTime, fired: Vec<Event>, out: &mut Outbox<GlossMsg>) {
        for mut synthesized in fired {
            self.emitted += 1;
            out.count("gloss.synthesized", 1.0);
            out.trace_with("synthesize", || synthesized.to_string());
            self.stamp(now, &mut synthesized);
            if self.ui_wants(&synthesized, false) {
                out.count("gloss.ui_delivered", 1.0);
                self.ui_received.push(synthesized.clone());
            }
            let me = self.me;
            self.broker_do(now, me, BrokerMsg::Publish(synthesized), out);
        }
    }

    fn dispatch_deploys(&mut self, deploys: Vec<(String, Deploy)>, out: &mut Outbox<GlossMsg>) {
        let site = self.resources.geo;
        let cs = self.coordinator_state.as_mut().expect("only coordinator dispatches");
        for (instance, Deploy { kind, node }) in &deploys {
            let (bundle, role) = match kind.strip_prefix("matchlet:") {
                Some(service_name) => {
                    let Some(spec) = cs.services.get(service_name) else {
                        continue;
                    };
                    // While the service has no primary, the best-ranked
                    // instance of this deployment ships as its primary.
                    let best = deploys
                        .iter()
                        .filter(|(_, d)| d.kind == *kind)
                        .map(|(_, d)| cs.rank(site, d.node))
                        .min();
                    let role =
                        if cs.primaries.contains_key(kind) || best != Some(cs.rank(site, *node)) {
                            Role::Standby
                        } else {
                            cs.primaries.insert(kind.clone(), (instance.clone(), *node));
                            Role::Primary
                        };
                    (Bundle::matchlet(instance.clone(), &spec.rules_source), role)
                }
                None => (
                    Bundle::component(instance.clone(), kind.clone(), Element::new("cfg")),
                    Role::Primary,
                ),
            };
            let packet = bundle.issued_by(self.key.issuer()).to_packet(&self.key);
            out.count("gloss.bundles_sent", 1.0);
            out.send(*node, GlossMsg::Bundle { instance: instance.clone(), packet, role });
        }
    }

    /// Hands each matchlet service whose primary was on `failed` to its
    /// best-ranked confirmed live standby, which fires what the events it
    /// kept join from `since` on. A service with no such standby is left without a
    /// primary: the replacement the evolution engine deploys ships as
    /// one.
    fn take_over(&mut self, failed: NodeIndex, since: SimTime, out: &mut Outbox<GlossMsg>) {
        let site = self.resources.geo;
        let cs = self.coordinator_state.as_mut().expect("only the coordinator promotes");
        cs.retiring.retain(|r| r.node != failed);
        let lost: Vec<String> = cs
            .primaries
            .iter()
            .filter(|(_, (_, node))| *node == failed)
            .map(|(kind, _)| kind.clone())
            .collect();
        for kind in lost {
            cs.primaries.remove(&kind);
            // An ex-primary still firing takes its role back.
            if let Some(k) = cs.retiring.iter().position(|r| r.kind == kind) {
                let r = cs.retiring.remove(k);
                cs.primaries.insert(kind, (r.instance, r.node));
                continue;
            }
            let standby = cs
                .evolution
                .deployment()
                .instances_of(&kind)
                .filter(|&(_, node)| cs.evolution.resources().contains_key(&node))
                .filter(|&(instance, _)| cs.retiring.iter().all(|r| r.instance != instance))
                .min_by_key(|&(_, node)| cs.rank(site, node))
                .map(|(instance, node)| (instance.to_string(), node));
            if let Some((instance, node)) = standby {
                out.count("gloss.promotions", 1.0);
                out.send(node, GlossMsg::Promote { instance: instance.clone(), since });
                cs.primaries.insert(kind, (instance, node));
            }
        }
    }

    /// Makes `instance`, just confirmed, the primary of its service if it
    /// outranks the service's primary. It goes live with nothing to fire
    /// from its standby days; the primary it takes over from keeps firing
    /// for one window of the service's rules, and then stands by.
    fn hand_over(&mut self, now: SimTime, instance: &str, out: &mut Outbox<GlossMsg>) {
        let site = self.resources.geo;
        let Some(cs) = self.coordinator_state.as_mut() else {
            return;
        };
        let Some((kind, node)) = cs
            .evolution
            .deployment()
            .iter()
            .find(|&(i, _, _)| i == instance)
            .map(|(_, kind, node)| (kind.to_string(), node))
        else {
            return;
        };
        let (Some((primary, primary_node)), Some(spec)) = (
            cs.primaries.get(&kind),
            kind.strip_prefix("matchlet:").and_then(|name| cs.services.get(name)),
        ) else {
            return;
        };
        if primary == instance || cs.rank(site, node) >= cs.rank(site, *primary_node) {
            return;
        }
        let at = now + spec.window();
        let (old, old_node) =
            cs.primaries.insert(kind.clone(), (instance.to_string(), node)).expect("checked");
        cs.retiring.push(Retiring { kind, instance: old, node: old_node, at });
        out.count("gloss.handovers", 1.0);
        out.send(node, GlossMsg::Promote { instance: instance.to_string(), since: SimTime::MAX });
    }

    /// Makes the hub's replay log subscribe to the kinds of each
    /// registered service it does not log yet, keeping events for at
    /// least the service's longest window plus [`TAKEOVER_HORIZON`]. (A
    /// kind two services read is subscribed twice; the second is covered
    /// by the first, so it propagates nowhere.)
    fn log_service_kinds(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) {
        let Some(cs) = self.coordinator_state.as_mut() else {
            return;
        };
        let mut new: Vec<(String, SimDuration)> = Vec::new();
        for spec in cs.services.values().filter(|s| cs.logged.insert(s.name.clone())) {
            let retention = spec.window() + TAKEOVER_HORIZON;
            new.extend(spec.input_kinds.iter().map(|kind| (kind.clone(), retention)));
        }
        for (kind, retention) in new {
            let sub = Subscription { id: self.next_sub_id(), filter: Filter::for_kind(kind) };
            self.broker_call(now, out, |broker, bout| broker.keep_log(sub, retention, bout));
        }
    }

    /// Loads the rules of the standby `instance` and subscribes the kinds
    /// they read. Unless the promotion hands a live primary over
    /// (`since` is [`SimTime::MAX`]), the hub is asked to replay what it
    /// logged of the newly subscribed kinds from one window before
    /// `since`; until the replay lands, the matchlets take nothing else.
    /// (A kind another loaded rule already held is not replayed: that
    /// rule has had its events.)
    fn promote(
        &mut self,
        now: SimTime,
        instance: &str,
        since: SimTime,
        out: &mut Outbox<GlossMsg>,
    ) {
        if !self.server.promote(instance) {
            return;
        }
        out.count("gloss.promoted", 1.0);
        let filters = self.sync_kinds(now, out);
        if since == SimTime::MAX || filters.is_empty() {
            return;
        }
        let rules = self.server.engine().rules();
        let window = rules.iter().map(|r| r.rule.window).max().unwrap_or(SimDuration::ZERO);
        self.replaying = Some(self.replaying.map_or(since, |s| s.min(since)));
        let from = SimTime::from_micros(since.as_micros().saturating_sub(window.as_micros()));
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Replay { client: me, since: from, filters }, out);
    }

    /// Sends each ex-primary whose time is up to stand by.
    fn retire_due(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) {
        let Some(cs) = self.coordinator_state.as_mut() else {
            return;
        };
        for r in cs.retiring.extract_if(.., |r| r.at <= now) {
            out.count("gloss.demotions", 1.0);
            out.send(r.node, GlossMsg::Demote { instance: r.instance });
        }
    }

    /// Every call into the storelet goes through here, and it is the one
    /// place that takes the lookups the storelet concluded: `call` runs
    /// against the store with a store-plane outbox, then each lookup that
    /// concluded in it is handed over once, oldest first. An awaited
    /// discovery fetch deploys its handler code, however it ended (a
    /// reply, a local copy, or the lookup-retry timer giving up).
    /// `prefetch`, the prefetch this call issues, if any, ingests the
    /// copy it found if it concluded on the spot; every other document
    /// was ingested when its reply landed ([`store_do`](Self::store_do)).
    fn store_call(
        &mut self,
        now: SimTime,
        prefetch: Option<u64>,
        out: &mut Outbox<GlossMsg>,
        call: impl FnOnce(&mut StoreNode, &mut Outbox<StoreMsg>),
    ) {
        out.nested(&mut self.store_sends, None, GlossMsg::Store, |sout| {
            call(&mut self.store, sout)
        });
        self.store.take_concluded(&mut self.store_concluded);
        // An ingest can issue a prefetch and so re-enter this function,
        // whose loop then takes over the conclusions still waiting here.
        while !self.store_concluded.is_empty() {
            let (req, outcome) = self.store_concluded.remove(0);
            if let Some(k) = self.gap_fetches.iter().position(|&r| r == req) {
                self.gap_fetches.swap_remove(k);
            }
            let kind = self.coordinator_state.as_mut().and_then(|cs| cs.handler_reqs.remove(&req));
            match (kind, outcome.doc) {
                (Some(kind), doc) => self.conclude_discovery_fetch(now, kind, doc, out),
                (None, Some(doc)) if prefetch == Some(req) => self.ingest_document(now, &doc, out),
                (None, _) => {}
            }
        }
    }

    /// Feeds a store-plane message to the storelet, then ingests the
    /// knowledge document it carried, if any.
    fn store_do(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: StoreMsg,
        out: &mut Outbox<GlossMsg>,
    ) {
        let landed_doc: Option<Document> = match &msg {
            StoreMsg::ReplicaPut { doc } | StoreMsg::CachePush { doc } => Some(doc.clone()),
            StoreMsg::FetchReply { doc, .. } => Some(doc.clone()),
            _ => None,
        };
        self.store_call(now, None, out, |store, sout| store.handle(now, from, msg, sout));
        if let Some(doc) = landed_doc {
            self.ingest_document(now, &doc, out);
        }
        self.release_held(now, out);
    }

    /// Knowledge documents ingest into the local fact store wherever
    /// they land — the knowledge analogue of promiscuous caching.
    /// `kb/<subject>` documents are full snapshots;
    /// `kbdelta/<subject>@<from..to>` documents are epoch-tagged delta
    /// batches repairing the held state incrementally.
    fn ingest_document(&mut self, now: SimTime, doc: &Document, out: &mut Outbox<GlossMsg>) {
        if doc.name.starts_with("kbdelta/") {
            self.ingest_delta_document(now, doc, out);
            return;
        }
        let Some(subject) = doc.name.strip_prefix("kb/") else {
            return;
        };
        // A version we already hold is a no-op re-delivery (the version
        // is the document's content identity at the storage layer):
        // re-ingesting it would only spray retract+insert deltas that
        // invalidate the matching engine's memos for nothing.
        let held = self.replicas.get_mut(subject);
        if held.as_ref().and_then(|r| r.snapshot_doc).is_some_and(|v| v >= doc.version) {
            out.count("gloss.kb_reingest_skipped", 1.0);
            return;
        }
        let Some(snapshot) = std::str::from_utf8(&doc.content).ok().and_then(SnapshotReader::open)
        else {
            return;
        };
        if snapshot.subject() != Some(subject) {
            // Its facts would land under another subject's name (or
            // "unknown") after this one's were removed.
            return;
        }
        // A snapshot with no `(source, epoch)` could anchor no later batch.
        let Some((source, epoch)) = snapshot.version() else {
            return;
        };
        if let Some((tracked_source, tracked_epoch)) = held.as_ref().and_then(|r| r.anchor) {
            // Deltas may have advanced us past the snapshot in flight:
            // rebuilding from it would roll those deltas back.
            if source == tracked_source && tracked_epoch >= epoch {
                out.count("gloss.kb_snapshot_stale", 1.0);
                return;
            }
        }
        let Some(facts) = snapshot.facts(&self.kb) else {
            return;
        };
        self.kb.remove_subject(subject);
        self.kb.extend(facts);
        let replica = match held {
            Some(replica) => replica,
            None => self.replicas.entry(subject.into()).or_default(),
        };
        replica.snapshot_doc = Some(doc.version);
        replica.anchor = Some((source, epoch));
        out.count("gloss.kb_ingested", 1.0);
        out.count("gloss.kb_snapshot_bytes", doc.size() as f64);
    }

    /// Applies a `kbdelta/…` batch, or falls back to a full snapshot
    /// fetch when it cannot extend the held state ([`reconcile`]). The
    /// verdict is taken on the envelope; only a batch that applies has
    /// its body decoded.
    fn ingest_delta_document(&mut self, now: SimTime, doc: &Document, out: &mut Outbox<GlossMsg>) {
        let Some(incoming) = std::str::from_utf8(&doc.content).ok().and_then(BatchReader::open)
        else {
            return;
        };
        let replica = match self.replicas.get_mut(incoming.subject()) {
            Some(replica) => replica,
            None => self.replicas.entry(incoming.subject().into()).or_default(),
        };
        replica.delta_doc = replica.delta_doc.max(Some(doc.version));
        let span = incoming.span();
        match reconcile(replica.anchor, span) {
            DeltaAction::Apply { skip } => {
                let deltas = &mut self.delta_scratch;
                if incoming.decode_into(&self.kb, deltas).is_none() {
                    return;
                }
                out.count("gloss.kb_delta_applied", 1.0);
                out.count("gloss.kb_delta_facts", (deltas.len() - skip) as f64);
                out.count("gloss.kb_delta_bytes", doc.size() as f64);
                for d in deltas.drain(..).skip(skip) {
                    self.kb.apply(d);
                }
                replica.anchor = Some((span.source, span.to));
            }
            DeltaAction::Stale => out.count("gloss.kb_delta_stale", 1.0),
            DeltaAction::Snapshot(_) => {
                // Unanchored, writer changed identity, or epochs are
                // missing (e.g. the writer's bounded log truncated):
                // repair by fetching the full document.
                out.count("gloss.kb_delta_fallback", 1.0);
                self.prefetch_subject(now, incoming.subject(), out);
            }
        }
    }

    /// Completes the awaited discovery fetch for `kind`, which found
    /// `doc`, if anything: deploy handler code to the reporters.
    fn conclude_discovery_fetch(
        &mut self,
        now: SimTime,
        kind: String,
        doc: Option<Document>,
        out: &mut Outbox<GlossMsg>,
    ) {
        let cs = self.coordinator_state.as_mut().expect("only the coordinator awaits fetches");
        let reporters = cs.discovery_pending.remove(&kind).unwrap_or_default();
        match doc {
            Some(doc) => {
                let Ok(source) = String::from_utf8(doc.content.to_vec()) else {
                    return;
                };
                cs.discovered.push(kind.clone());
                out.count("gloss.discovered_kinds", 1.0);
                let bundle = Bundle::matchlet(format!("discovered:{kind}"), &source)
                    .issued_by(self.key.issuer());
                let packet = bundle.to_packet(&self.key);
                for node in reporters {
                    if node == self.me {
                        // Install locally.
                        if self.server.receive_packet(&packet).is_ok() {
                            self.sync_kinds(now, out);
                        }
                    } else {
                        out.send(
                            node,
                            GlossMsg::Bundle {
                                instance: String::new(),
                                packet: packet.clone(),
                                role: Role::Primary,
                            },
                        );
                    }
                }
            }
            None => {
                out.count("gloss.discovery_misses", 1.0);
            }
        }
    }

    fn handle_sensor(&mut self, now: SimTime, event: Event, out: &mut Outbox<GlossMsg>) {
        out.count("gloss.sensor_events", 1.0);
        // The raw reading goes to this node's own client first (its UI
        // filters, then its matchlets), then is published unchanged
        // through the local broker. No distillation stage runs here.
        self.deliver_to_client(now, event.clone(), false, out);
        // Discovery: no local matchlet handles this kind.
        if !event.kind().starts_with("resource.")
            && !self.server.engine().handles_kind(event.kind())
            && !self.reported_unknown.contains(event.kind())
            && self.reported_unknown.insert(event.kind().to_string())
        {
            out.send(self.coordinator, GlossMsg::UnknownKind { kind: event.kind().to_string() });
        }
        self.publish(now, event, out);
    }

    fn on_start(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) {
        // Attach to our own broker as the local client.
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Attach, out);
        // Storage/overlay stack.
        self.store_call(now, None, out, |store, sout| store.on_start(now, sout));
        if self.is_coordinator() {
            self.sync_kinds(now, out);
            out.timer(SWEEP_EVERY, timers::SWEEP);
        } else {
            let advert = self.resources.to_event();
            self.publish(now, advert, out);
            out.timer(HEARTBEAT, timers::HEARTBEAT);
        }
    }

    fn on_timer(&mut self, now: SimTime, tag: u64, out: &mut Outbox<GlossMsg>) {
        match tag {
            timers::HEARTBEAT => {
                let advert = self.resources.to_event();
                self.publish(now, advert, out);
                out.timer(HEARTBEAT, timers::HEARTBEAT);
            }
            timers::SWEEP => {
                if let Some(cs) = self.coordinator_state.as_mut() {
                    let sweep = cs.evolution.sweep(now);
                    if !sweep.failed.is_empty() {
                        out.count("gloss.failures_detected", sweep.failed.len() as f64);
                    }
                    self.log_service_kinds(now, out);
                    // Standbys take over first, so that a replacement ships
                    // as a standby wherever one did.
                    for (node, heard) in sweep.failed {
                        let since = heard.as_micros().saturating_sub(HEARTBEAT.as_micros());
                        self.take_over(node, SimTime::from_micros(since), out);
                    }
                    self.retire_due(now, out);
                    self.dispatch_deploys(sweep.deploys, out);
                }
                out.timer(SWEEP_EVERY, timers::SWEEP);
            }
            other => {
                self.store_call(now, None, out, |store, sout| store.on_timer(now, other, sout));
                self.release_held(now, out);
            }
        }
    }

    /// Issues a storage lookup for a subject's kb document (the reply
    /// auto-ingests).
    fn prefetch_subject(&mut self, now: SimTime, subject: &str, out: &mut Outbox<GlossMsg>) {
        let guid = KnowledgeDoc::Snapshot.guid(subject);
        // Versions at or below the one already ingested are no-ops, so
        // don't let a stale cached copy answer for the authoritative
        // one; the responsible node still serves whatever it holds.
        let held = self.replicas.get(subject).and_then(|r| r.snapshot_doc);
        let floor = held.map_or(0, |v| v.saturating_add(1));
        let req = self.next_request();
        self.prefetch(guid, floor, req, now, out);
    }

    /// Issues a storage lookup for a subject's latest delta batch (the
    /// reply auto-ingests through [`reconcile`], falling back to a full
    /// fetch when the batch cannot extend the held state).
    fn prefetch_deltas(&mut self, now: SimTime, subject: &str, out: &mut Outbox<GlossMsg>) {
        let guid = KnowledgeDoc::Deltas.guid(subject);
        // Demand a batch newer than the last one ingested: any cached
        // copy we (or an en-route node) already hold is stale by
        // definition, and serving it would end the pull early.
        let held = self.replicas.get(subject).and_then(|r| r.delta_doc);
        let floor = held.map_or(0, |v| v.saturating_add(1));
        let req = self.next_request();
        self.prefetch(guid, floor, req, now, out);
    }

    /// A request id for this node's next knowledge lookup. The store's
    /// ledger is this node's own, so the id needs no node bits: a tag bit
    /// over the per-node sequence, below the coordinator's discovery
    /// fetches (bit 52).
    fn next_request(&mut self) -> u64 {
        self.sub_seq += 1;
        (1 << 48) | self.sub_seq
    }

    /// Looks `guid` up in the store as request `req`, refusing copies
    /// below version `floor`, and ingests what comes back: a reply when it
    /// lands, a locally held copy (concluded with no reply message) in
    /// the call that issues the lookup.
    fn prefetch(
        &mut self,
        guid: Key,
        floor: u64,
        req: u64,
        now: SimTime,
        out: &mut Outbox<GlossMsg>,
    ) {
        self.store_call(now, Some(req), out, |store, sout| {
            store.lookup_min_version(guid, floor, req, now, sout)
        });
    }
}

impl Node for GlossNode {
    type Msg = GlossMsg;

    fn handle(&mut self, now: SimTime, input: Input<GlossMsg>, out: &mut Outbox<GlossMsg>) {
        match input {
            Input::Start => self.on_start(now, out),
            Input::Timer { tag } => self.on_timer(now, tag, out),
            Input::Msg { from, msg } => self.on_msg(now, from, msg, out),
        }
    }
}

impl GlossNode {
    /// Handles one message from another node or from the harness. Every
    /// event-plane message goes to the broker; what the broker then has
    /// for this node as a client arrives in-process, never as a message
    /// from this node to itself.
    fn on_msg(&mut self, now: SimTime, from: NodeIndex, msg: GlossMsg, out: &mut Outbox<GlossMsg>) {
        match msg {
            GlossMsg::PubSub(bmsg) => self.broker_do(now, from, bmsg, out),
            GlossMsg::Store(smsg) => self.store_do(now, from, smsg, out),
            GlossMsg::Sensor(event) => self.handle_sensor(now, event, out),
            GlossMsg::UiSubscribe(filter) => {
                // Deploy-time satisfiability gate: a filter proven to
                // match nothing would only bloat the routing tables.
                if gloss_analysis::unsatisfiable(&filter).is_some() {
                    out.count("gloss.subs_rejected", 1.0);
                    return;
                }
                self.ui_filters.push(filter.clone());
                self.subscribe_filter(now, filter, out);
            }
            GlossMsg::PrefetchSubject(subject) => self.prefetch_subject(now, &subject, out),
            GlossMsg::PrefetchDeltas(subject) => self.prefetch_deltas(now, &subject, out),
            GlossMsg::Bundle { instance, packet, role } => {
                match self.server.receive_packet(&packet) {
                    Ok(report) => {
                        out.count("gloss.installs", 1.0);
                        if report.lint_warnings > 0 {
                            out.count("gloss.lint_warnings", report.lint_warnings as f64);
                        }
                        if role == Role::Standby {
                            self.server.standby(&report.name);
                        }
                        self.sync_kinds(now, out);
                        if !instance.is_empty() {
                            out.send(from, GlossMsg::Installed { instance });
                        }
                    }
                    Err(gloss_bundle::BundleError::RejectedByAnalysis(_)) => {
                        out.count("gloss.lint_rejected", 1.0);
                        out.count("gloss.install_failures", 1.0);
                    }
                    Err(_) => out.count("gloss.install_failures", 1.0),
                }
            }
            GlossMsg::Promote { instance, since } => self.promote(now, &instance, since, out),
            GlossMsg::Demote { instance } => {
                if self.server.standby(&instance) {
                    out.count("gloss.demoted", 1.0);
                    self.sync_kinds(now, out);
                }
            }
            GlossMsg::Installed { instance } => {
                if let Some(cs) = self.coordinator_state.as_mut() {
                    cs.evolution.confirm_deploy(now, &instance);
                    if cs.evolution.violated() == 0 {
                        if let Some(&(v_at, r_at)) = cs.evolution.repair_episodes.last() {
                            out.observe("gloss.repair_ms", r_at.since(v_at).as_secs_f64() * 1e3);
                        }
                    }
                }
                self.hand_over(now, &instance, out);
            }
            GlossMsg::UnknownKind { kind } => {
                let mut fetch: Option<(u64, Key)> = None;
                if let Some(cs) = self.coordinator_state.as_mut() {
                    // Skip kinds already covered by a registered service.
                    let covered =
                        cs.services.values().any(|s| s.input_kinds.iter().any(|k| k == &kind));
                    let entry = cs.discovery_pending.entry(kind.clone()).or_default();
                    let first_report = entry.is_empty();
                    entry.insert(from);
                    if !covered && first_report {
                        cs.next_req += 1;
                        let req = (1 << 52) | cs.next_req;
                        cs.handler_reqs.insert(req, kind.clone());
                        let guid = Key::hash_of_str(&format!("code/{kind}"));
                        fetch = Some((req, guid));
                    }
                }
                if let Some((req, guid)) = fetch {
                    out.count("gloss.discovery_lookups", 1.0);
                    self.store_call(now, None, out, |store, sout| {
                        store.lookup(guid, req, now, sout)
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_event::BrokerTopology;
    use gloss_knowledge::{DeltaBatch, DistributedKnowledge, Fact, FactSource, Term};
    use gloss_overlay::{KeyedNode, OverlayNode};
    use gloss_sim::GeoPoint;
    use gloss_store::{store_node::timers::LOOKUP_RETRY, StoreConfig, StorePayload};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts each thread's allocation calls, for the ingest budget below.
    struct Counting;

    thread_local! {
        /// Allocation calls (`alloc` and `realloc`) made by this thread.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn record_allocation() {
        // A thread being torn down has no slot left; its requests go unseen.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }

    // SAFETY: every method forwards to `System` with the caller's layout
    // and pointer unchanged; counting touches no memory handed out.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record_allocation();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record_allocation();
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// What this thread allocated while running `f`.
    fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
        ALLOCATIONS.with(|count| count.set(0));
        let out = f();
        (out, ALLOCATIONS.with(Cell::get))
    }

    // The guids hash the names the codecs write, byte for byte.
    proptest::proptest! {
        #[test]
        fn knowledge_guids_hash_the_document_names(subject in "[a-z0-9 &/@.é_-]{0,24}") {
            proptest::prop_assert_eq!(
                KnowledgeDoc::Snapshot.guid(&subject),
                Key::hash_of_str(&DistributedKnowledge::doc_name(&subject))
            );
            proptest::prop_assert_eq!(
                KnowledgeDoc::Deltas.guid(&subject),
                Key::hash_of_str(&format!("kbdelta/{subject}"))
            );
            let deltas = Vec::new();
            let batch = DeltaBatch { subject: subject.clone(), source: 1, from: 2, to: 2, deltas };
            let name = batch.doc_name();
            let (unversioned, _) = name.rsplit_once('@').unwrap();
            let guid = KnowledgeDoc::Deltas.guid(&subject);
            proptest::prop_assert_eq!(guid, Key::hash_of_str(unversioned));
        }
    }

    fn counted(out: &Outbox<GlossMsg>, name: &str) -> bool {
        out.counts().iter().any(|(n, _)| n == name)
    }

    /// Node 0, its own coordinator, with a broker of no neighbours and
    /// the given overlay.
    fn coordinator(overlay: OverlayNode<StorePayload>) -> GlossNode {
        let me = NodeIndex(0);
        GlossNode::new(
            me,
            Broker::new(me, BrokerTopology::Peer { neighbors: Vec::new() }),
            StoreNode::new(me, overlay, StoreConfig::default(), Vec::new()),
            NodeResources {
                node: me,
                region: "scotland".into(),
                geo: GeoPoint { lat: 56.3, lon: -2.8 },
                cpu: 1.0,
                storage: 1 << 20,
            },
            me,
            AuthKey::new("test", b"secret"),
        )
    }

    /// A worker whose coordinator, node 0, is also its broker's one
    /// neighbour (the architecture's star), with an overlay that knows no
    /// peer.
    fn worker(me: NodeIndex) -> GlossNode {
        let overlay = OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO);
        GlossNode::new(
            me,
            Broker::new(me, BrokerTopology::Peer { neighbors: vec![NodeIndex(0)] }),
            StoreNode::new(me, overlay, StoreConfig::default(), Vec::new()),
            NodeResources {
                node: me,
                region: "scotland".into(),
                geo: GeoPoint { lat: 56.3, lon: -2.8 },
                cpu: 1.0,
                storage: 1 << 20,
            },
            NodeIndex(0),
            AuthKey::new("test", b"secret"),
        )
    }

    /// Hands `msg` from `from` to `node`.
    fn deliver(node: &mut GlossNode, from: NodeIndex, msg: GlossMsg) {
        let mut out = Outbox::new();
        node.handle(SimTime::ZERO, Input::Msg { from, msg }, &mut out);
        assert!(out.sends().iter().all(|(to, _)| *to != node.index()), "{:?}", out.sends());
    }

    /// A coordinator that has loaded no rule subscribes one kind whole:
    /// the advertisements its evolution engine reads.
    #[test]
    fn a_fresh_coordinator_subscribes_only_resource_advertisements() {
        let me = NodeIndex(0);
        let mut node = coordinator(OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO));
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let kinds: Vec<&str> = node.subscribed_kinds.keys().map(String::as_str).collect();
        assert_eq!(kinds, [resource_kinds::ADVERTISE]);
    }

    /// A routed event of a kind the node subscribes whole is scanned
    /// against the UI filters (the kind subscription may be all it
    /// matched); one of a kind only a UI filter asks for goes to the UI
    /// unscanned, once.
    #[test]
    fn routed_events_reach_the_ui_only_through_a_matching_ui_filter() {
        let me = NodeIndex(0);
        let mut node = coordinator(OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO));
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let key = AuthKey::new("test", b"secret");
        let bundle = Bundle::matchlet("m", r#"rule r { on p: event ping() emit pong() }"#)
            .issued_by(key.issuer());
        let packet = bundle.to_packet(&key);
        let peer = NodeIndex(1);
        deliver(
            &mut node,
            peer,
            GlossMsg::Bundle { instance: String::new(), packet, role: Role::Primary },
        );
        let zone_9_pings = Filter::for_kind("ping").with_eq("zone", 9i64);
        deliver(&mut node, peer, GlossMsg::UiSubscribe(zone_9_pings));
        deliver(&mut node, peer, GlossMsg::UiSubscribe(Filter::for_kind("alert")));

        let publish = |e: Event| GlossMsg::PubSub(BrokerMsg::Publish(e));
        deliver(&mut node, peer, publish(Event::new("ping").with_attr("zone", 3i64)));
        assert_eq!(node.emitted, 1, "the matchlet's kind subscription delivered the ping");
        assert!(node.ui_received.is_empty(), "no UI filter matches a zone 3 ping");

        deliver(&mut node, peer, publish(Event::new("alert").with_attr("zone", 3i64)));
        let kinds: Vec<&str> = node.ui_received.iter().map(Event::kind).collect();
        assert_eq!(kinds, ["alert"]);
        assert_eq!(node.emitted, 1);
    }

    /// A local sensor reading lands in `ui_received` exactly when a UI
    /// filter matches it: on a node with none, through constrained
    /// filters (the broker's probe of the node's own subscriptions
    /// answers), and on a matchlet host that also subscribes the UI
    /// filter's kind whole (the filters are scanned).
    #[test]
    fn a_local_sensor_event_reaches_the_ui_only_through_a_matching_ui_filter() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let sensed = |node: &mut GlossNode, event: Event| {
            let before = node.ui_received.len();
            deliver(node, me, GlossMsg::Sensor(event));
            node.ui_received.len() - before
        };
        let alert = |zone: i64| Event::new("alert").with_attr("zone", zone);
        let smoke = |level: i64| Event::new("smoke").with_attr("level", level);
        let ping = |zone: i64| Event::new("ping").with_attr("zone", zone);

        assert_eq!(sensed(&mut node, alert(9)), 0, "no UI filters");

        let zone_9_alerts = Filter::for_kind("alert").with_eq("zone", 9i64);
        let high_levels = Filter::any().with_constraint("level", gloss_event::Op::Ge, 50i64);
        deliver(&mut node, me, GlossMsg::UiSubscribe(zone_9_alerts));
        deliver(&mut node, me, GlossMsg::UiSubscribe(high_levels));
        for (event, received) in [(alert(9), 1), (alert(3), 0), (smoke(70), 1), (smoke(10), 0)] {
            assert_eq!(sensed(&mut node, event.clone()), received, "{event}");
        }

        let key = AuthKey::new("test", b"secret");
        let packet = Bundle::matchlet("m", r#"rule r { on p: event ping() emit pong() }"#)
            .issued_by(key.issuer())
            .to_packet(&key);
        deliver(
            &mut node,
            hub,
            GlossMsg::Bundle { instance: String::new(), packet, role: Role::Primary },
        );
        assert!(node.subscribed_kinds.contains_key("ping"));
        deliver(
            &mut node,
            me,
            GlossMsg::UiSubscribe(Filter::for_kind("ping").with_eq("zone", 9i64)),
        );
        let emitted = node.emitted;
        assert_eq!(sensed(&mut node, ping(9)), 1);
        assert_eq!(sensed(&mut node, ping(3)), 0, "the kind subscription alone matches");
        assert_eq!(node.emitted, emitted + 2, "the matchlet saw both");
    }

    /// The node's broker routes a neighbour's `Notify` to the node itself
    /// as a client; that hand-off happens in the same call, never as a
    /// message to itself.
    #[test]
    fn a_routed_notify_reaches_the_ui_in_the_same_activation() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let zone_9_alerts = Filter::for_kind("alert").with_eq("zone", 9i64);
        let subscribe = GlossMsg::UiSubscribe(zone_9_alerts);
        node.handle(SimTime::ZERO, Input::Msg { from: me, msg: subscribe }, &mut Outbox::new());

        let notify = |zone: i64| {
            GlossMsg::PubSub(BrokerMsg::Notify(Event::new("alert").with_attr("zone", zone)))
        };
        for (zone, received) in [(9, 1), (3, 1), (9, 2)] {
            let mut out = Outbox::new();
            node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: notify(zone) }, &mut out);
            assert_eq!(node.ui_received.len(), received, "zone {zone}");
            assert_eq!(counted(&out, "gloss.ui_delivered"), zone == 9, "zone {zone}");
            assert!(out.sends().iter().all(|(to, _)| *to != me), "{:?}", out.sends());
        }
    }

    /// A routed event of a rule's kind fires the matchlet in the same
    /// call, and the synthesised publication leaves for the hub that
    /// subscribed to it in that activation too.
    #[test]
    fn a_routed_notify_fires_the_matchlet_and_publishes_in_the_same_activation() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let key = AuthKey::new("test", b"secret");
        let packet = Bundle::matchlet("m", r#"rule r { on p: event ping() emit pong() }"#)
            .issued_by(key.issuer())
            .to_packet(&key);
        let install = GlossMsg::Bundle { instance: String::new(), packet, role: Role::Primary };
        node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: install }, &mut Outbox::new());
        let pongs = Subscription { id: 7, filter: Filter::for_kind("pong") };
        let subscribe = GlossMsg::PubSub(BrokerMsg::Subscribe(pongs));
        node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: subscribe }, &mut Outbox::new());

        let mut out = Outbox::new();
        let ping = GlossMsg::PubSub(BrokerMsg::Notify(Event::new("ping")));
        node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: ping }, &mut out);
        assert_eq!(node.emitted, 1);
        let sent: Vec<(NodeIndex, &str)> = out
            .sends()
            .iter()
            .map(|(to, m)| match m {
                GlossMsg::PubSub(BrokerMsg::Notify(e)) => (*to, e.kind()),
                other => panic!("unexpected send {other:?}"),
            })
            .collect();
        assert_eq!(sent, [(hub, "pong")]);
    }

    /// A matchlet whose change-feed read finds the store's delta log
    /// wrapped past its cursor makes the node count it, once per wrapped
    /// read; an event that reads nothing wrapped counts nothing.
    #[test]
    fn a_wrapped_delta_log_read_is_counted() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let key = AuthKey::new("test", b"secret");
        let rule = r#"rule r { on p: event ping() where fact(?u, likes, "ice") emit pong(u: ?u) }"#;
        let packet = Bundle::matchlet("m", rule).issued_by(key.issuer()).to_packet(&key);
        let install = GlossMsg::Bundle { instance: String::new(), packet, role: Role::Primary };
        node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: install }, &mut Outbox::new());
        let ping = || GlossMsg::PubSub(BrokerMsg::Notify(Event::new("ping")));
        let pinged = |node: &mut GlossNode| {
            let mut out = Outbox::new();
            node.handle(SimTime::ZERO, Input::Msg { from: hub, msg: ping() }, &mut out);
            out.counts()
                .iter()
                .filter(|(n, _)| n == "gloss.kb_delta_log_truncated")
                .map(|(_, v)| *v)
                .sum::<f64>()
        };
        assert_eq!(pinged(&mut node), 0.0, "the first read rebuilds; nothing is wrapped");
        node.kb.extend((0..5_000).map(|i| Fact::new(format!("s{i}"), "n", Term::Int(i))));
        assert_eq!(pinged(&mut node), 1.0);
        assert_eq!(pinged(&mut node), 0.0);
    }

    /// A bundle the analysis gate rejects installs nothing, is counted as
    /// a lint rejection and an install failure, and sends no `Installed`;
    /// its clean twin installs, subscribes its kind and confirms.
    #[test]
    fn a_bundle_the_analysis_gate_rejects_is_counted_and_never_confirmed() {
        let mut node = worker(NodeIndex(1));
        let key = AuthKey::new("test", b"secret");
        let mut offer = |name: &str, source: &str| {
            let packet = Bundle::matchlet(name, source).issued_by(key.issuer()).to_packet(&key);
            let msg =
                GlossMsg::Bundle { instance: format!("{name}@n1#1"), packet, role: Role::Primary };
            let mut out = Outbox::new();
            node.handle(SimTime::ZERO, Input::Msg { from: NodeIndex(0), msg }, &mut out);
            let confirmed = out
                .sends()
                .iter()
                .filter(|(to, m)| *to == NodeIndex(0) && matches!(m, GlossMsg::Installed { .. }))
                .count();
            let counters: Vec<String> = out.counts().iter().map(|(n, _)| n.to_string()).collect();
            (confirmed, counters)
        };

        // The emit reads an unbound variable: it parses, but the gate
        // must turn it away before installation.
        let ghost = r#"rule ghost { on w: event weather(c: ?c) emit alert(c: ?c, x: ?ghost) }"#;
        let (confirmed, counters) = offer("ghost", ghost);
        assert_eq!(confirmed, 0, "no install confirmation for a rejected bundle");
        assert_eq!(counters, ["gloss.lint_rejected", "gloss.install_failures"]);

        let hot = r#"rule hot { on w: event weather(c: ?c) where ?c > 18.0 emit alert(c: ?c) }"#;
        let (confirmed, counters) = offer("hot", hot);
        assert_eq!(confirmed, 1);
        assert_eq!(counters, ["gloss.installs"], "a clean bundle reports no warnings");
        assert_eq!(node.server.installed_names(), ["hot"]);
        assert_eq!(node.server.engine().rule_names(), ["hot"]);
        assert!(node.subscribed_kinds.contains_key("weather"));
    }

    /// A discovery fetch nobody answers ends on the store's lookup-retry
    /// timer; the coordinator must conclude it there, not wait for a late
    /// duplicate reply that nothing guarantees.
    #[test]
    fn a_discovery_fetch_that_times_out_is_concluded_on_the_timer() {
        let me = NodeIndex(0);
        // A peer sits on the handler code's guid, so the lookup routes
        // away and nobody ever answers.
        let mut overlay = OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO);
        overlay.learn(KeyedNode::new(Key::hash_of_str("code/mystery"), NodeIndex(1)));
        let mut node = coordinator(overlay);
        let awaited =
            |node: &GlossNode| node.coordinator_state.as_ref().unwrap().handler_reqs.len();

        let mut out = Outbox::new();
        let report = GlossMsg::UnknownKind { kind: "mystery".into() };
        node.handle(SimTime::ZERO, Input::Msg { from: NodeIndex(1), msg: report }, &mut out);
        assert!(counted(&out, "gloss.discovery_lookups"));
        assert_eq!(awaited(&node), 1, "in flight");

        // Sweep far past every retry deadline until the store gives up.
        for i in 1..=8 {
            let mut out = Outbox::new();
            node.handle(SimTime::from_secs(i * 60), Input::Timer { tag: LOOKUP_RETRY }, &mut out);
            if counted(&out, "store.lookups_timeout") {
                assert!(counted(&out, "gloss.discovery_misses"), "concluded with the timeout");
                assert_eq!(awaited(&node), 0);
                return;
            }
            assert_eq!(awaited(&node), 1, "still retrying");
        }
        panic!("the lookup never timed out");
    }

    /// A shared subject name costs the prefetch messages nothing in
    /// size, and an in-place lookup path costs the store messages
    /// nothing: no message grows.
    #[test]
    fn gloss_messages_grow_no_larger() {
        assert!(std::mem::size_of::<GlossMsg>() <= 128, "{}", std::mem::size_of::<GlossMsg>());
    }

    fn fact(object: &str) -> Fact {
        Fact::new("bob", "likes", Term::str(object))
    }

    /// A pull issued 2^20 requests after another ingests the newer copy
    /// it finds, and every conclusion is taken in the call it happens in.
    #[test]
    fn prefetch_ids_stay_distinct_past_two_to_the_twenty_requests() {
        let mut node = worker(NodeIndex(1));
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let peer = NodeIndex(2);
        let v1 = snapshot_doc(&[fact("golf")], (7, 1));
        node.store.insert(v1.clone(), &mut Outbox::new());
        deliver(&mut node, peer, GlossMsg::PrefetchSubject("bob".into()));
        assert_eq!(bob(&node), [fact("golf")]);

        // A newer version lands in the store, and the next pull is
        // exactly 2^20 requests after the first.
        let v2 = snapshot_doc(&[fact("ice cream")], (7, 2));
        node.store.insert(v1.updated(v2.content), &mut Outbox::new());
        node.sub_seq += (1 << 20) - 1;
        deliver(&mut node, peer, GlossMsg::PrefetchSubject("bob".into()));
        assert!(node.store_concluded.is_empty(), "every conclusion was taken");
        assert_eq!(bob(&node), [fact("ice cream")], "the fresh outcome was ingested");
    }

    /// A reply whose lookup has already ended is a duplicate to the
    /// store, which hands no second outcome over; the document it carries
    /// still ingests, as every document landing at a node does.
    #[test]
    fn a_duplicate_reply_still_ingests_its_document() {
        let mut node = worker(NodeIndex(1));
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let doc = snapshot_doc(&[fact("tea")], (7, 1));
        let reply = StoreMsg::FetchReply { req_id: 77, doc, from_cache: false, hops: 1 };
        let mut out = Outbox::new();
        let msg = GlossMsg::Store(reply);
        node.handle(SimTime::ZERO, Input::Msg { from: NodeIndex(2), msg }, &mut out);
        assert!(counted(&out, "store.lookups_dup_replies"));
        assert_eq!(bob(&node), [fact("tea")]);
    }

    /// A `kb/bob` snapshot document of `(source, epoch)`.
    fn snapshot_doc(facts: &[Fact], (source, epoch): (u64, u64)) -> Document {
        let refs: Vec<_> = facts.iter().collect();
        let el = DistributedKnowledge::facts_to_xml_versioned("bob", &refs, source, epoch);
        Document::new(DistributedKnowledge::doc_name("bob"), el.to_xml().into_bytes())
    }

    /// The text of a `kb/bob` snapshot of `fact` with its `source` and
    /// `epoch` stamp removed: a snapshot no node ingests.
    fn unversioned_text(fact: &Fact) -> String {
        let el = DistributedKnowledge::facts_to_xml_versioned("bob", &[fact], 7, 0);
        let text = el.to_xml().replacen(r#" source="7" epoch="0""#, "", 1);
        assert!(!text.contains("source=") && !text.contains("epoch="), "{text}");
        text
    }

    /// A `kbdelta/bob` document holding `text`.
    fn batch_doc(text: String) -> Document {
        Document::new("kbdelta/bob", text.into_bytes())
    }

    fn batch_text(source: u64, from: u64, deltas: Vec<FactDelta>) -> String {
        let to = from + deltas.len() as u64;
        DeltaBatch { subject: "bob".into(), source, from, to, deltas }.to_xml().to_xml()
    }

    fn bob(node: &GlossNode) -> Vec<Fact> {
        node.kb.query(Some("bob"), None).cloned().collect()
    }

    /// A batch from epoch 0 is a complete history: after an unversioned
    /// snapshot, which is refused, the batch alone is what the node holds.
    #[test]
    fn a_first_epoch_batch_replaces_a_legacy_snapshot() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let legacy = unversioned_text(&fact("golf"));
        let legacy = Document::new(DistributedKnowledge::doc_name("bob"), legacy.into_bytes());
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &legacy, &mut out);
        assert!(out.counts().is_empty(), "counted {:?}", out.counts());
        assert!(bob(&node).is_empty(), "an unversioned snapshot is not ingested");
        let history = batch_text(7, 0, vec![FactDelta::Insert(fact("tea"))]);
        node.ingest_document(SimTime::ZERO, &batch_doc(history), &mut out);
        assert!(counted(&out, "gloss.kb_delta_applied"));
        assert_eq!(bob(&node), [fact("tea")], "the batch's fact, not the snapshot's");
        assert_eq!(node.replicas["bob"].anchor, Some((7, 1)));
    }

    /// A pull a cache serves lands one `kbdelta` document twice: the
    /// cache's `CachePush`, then the `FetchReply` answering the pull, each
    /// handed to `ingest_document` as it lands. The batch applies once;
    /// the second copy is stale on its envelope, and finding bob's record
    /// and counting it allocate nothing. A batch about a subject seen for
    /// the first time creates that subject's one record.
    #[test]
    fn a_cache_served_pull_applies_its_batch_once() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let held = snapshot_doc(&[fact("tea")], (7, 3));
        node.ingest_document(SimTime::ZERO, &held, &mut Outbox::new());
        let deltas = vec![FactDelta::Retract(fact("tea")), FactDelta::Insert(fact("ice cream"))];
        let doc = batch_doc(batch_text(7, 3, deltas));

        // The push and the reply share the outbox, whose counts have room
        // for the reply's one.
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &doc, &mut out);
        let ((), cost) = allocations(|| node.ingest_document(SimTime::ZERO, &doc, &mut out));
        let counted: Vec<&str> = out.counts().iter().map(|(name, _)| &**name).collect();
        assert_eq!(
            counted,
            [
                "gloss.kb_delta_applied",
                "gloss.kb_delta_facts",
                "gloss.kb_delta_bytes",
                "gloss.kb_delta_stale"
            ]
        );
        assert_eq!(cost, 0, "the reply's stale copy allocated");
        assert_eq!(bob(&node), [fact("ice cream")]);
        assert_eq!(node.replicas["bob"].anchor, Some((7, 5)));
        assert_eq!(node.replicas["bob"].delta_doc, Some(doc.version));

        let anna = Fact::new("anna", "likes", Term::str("golf"));
        let history = DeltaBatch {
            subject: "anna".into(),
            source: 9,
            from: 0,
            to: 1,
            deltas: vec![FactDelta::Insert(anna.clone())],
        };
        let anna_doc = Document::new("kbdelta/anna", history.to_xml().to_xml().into_bytes());
        for _ in 0..2 {
            node.ingest_document(SimTime::ZERO, &anna_doc, &mut Outbox::new());
        }
        assert_eq!(node.replicas.len(), 2, "one record each for bob and anna");
        assert_eq!(node.replicas["anna"].anchor, Some((9, 1)));
        assert_eq!(node.kb.query(Some("anna"), None).cloned().collect::<Vec<_>>(), [anna]);
    }

    /// A `kb/bob` snapshot whose root names another subject, or none, is
    /// turned away whole: bob's facts stay, and nothing lands under the
    /// root's name or "unknown".
    #[test]
    fn a_snapshot_naming_another_subject_applies_nothing() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let held_doc = snapshot_doc(&[fact("tea")], (7, 3));
        node.ingest_document(SimTime::ZERO, &held_doc, &mut Outbox::new());
        let (held, epoch) = (bob(&node), node.kb.epoch());
        let alice = Fact::new("alice", "likes", Term::str("golf"));
        let misnamed = DistributedKnowledge::facts_to_xml_versioned("alice", &[&alice], 7, 4);
        let unnamed = r#"<facts source="7" epoch="4"><fact predicate="likes" type="str"><value>golf</value></fact></facts>"#;
        for text in [misnamed.to_xml(), unnamed.to_string()] {
            let doc = held_doc.updated(text.clone().into_bytes());
            let mut out = Outbox::new();
            node.ingest_document(SimTime::ZERO, &doc, &mut out);
            assert!(out.counts().is_empty(), "{text}: counted {:?}", out.counts());
            assert_eq!((bob(&node), node.kb.epoch(), node.kb.len()), (held.clone(), epoch, 1));
            assert_eq!(node.replicas["bob"].snapshot_doc, Some(held_doc.version), "{text}");
            assert_eq!(node.replicas["bob"].anchor, Some((7, 3)), "{text}");
        }
    }

    /// A batch whose envelope says it applies but whose body does not
    /// decode changes nothing: no fact, no anchor, no counter; nor does a
    /// snapshot with no `(source, epoch)`, which could anchor no batch.
    /// A batch whose envelope says stale or gapped is counted or acted on
    /// from the envelope, body unread.
    #[test]
    fn a_malformed_body_applies_nothing() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let mut out = Outbox::new();
        let held_doc = snapshot_doc(&[fact("tea")], (7, 3));
        node.ingest_document(SimTime::ZERO, &held_doc, &mut out);
        let good = batch_text(
            7,
            3,
            vec![FactDelta::Retract(fact("tea")), FactDelta::Insert(fact("ice cream"))],
        );
        let mut malformed: Vec<Document> = [
            good.replacen("type=\"str\"", "type=\"tensor\"", 1),
            good.replacen("<insert", "<upsert", 1).replacen("</insert", "</upsert", 1),
            good.replacen("to=\"5\"", "to=\"6\"", 1),
            good.replacen("</value></retract>", "</retract>", 1),
            format!("{good}<trailing/>"),
            good.replacen("</kbdelta>", "", 1),
        ]
        .into_iter()
        .map(batch_doc)
        .collect();
        malformed.push(held_doc.updated(unversioned_text(&fact("ice cream")).into_bytes()));
        let (held, epoch) = (bob(&node), node.kb.epoch());
        for doc in malformed {
            let text = String::from_utf8_lossy(&doc.content).into_owned();
            assert_ne!(text, good);
            let mut out = Outbox::new();
            node.ingest_document(SimTime::ZERO, &doc, &mut out);
            assert!(out.counts().is_empty(), "{text}: counted {:?}", out.counts());
            assert_eq!((bob(&node), node.kb.epoch()), (held.clone(), epoch), "{text}");
            assert_eq!(node.replicas["bob"].anchor, Some((7, 3)), "{text}");
            assert_eq!(node.replicas["bob"].snapshot_doc, Some(held_doc.version), "{text}");
        }

        let body = "<insert predicate=\"likes\" type=\"tensor\"/>";
        let stale =
            format!(r#"<kbdelta subject="bob" source="7" from="1" to="2">{body}</kbdelta>"#);
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &batch_doc(stale), &mut out);
        assert!(counted(&out, "gloss.kb_delta_stale"));
        let gapped = format!(r#"<kbdelta subject="bob" source="7" from="8" to="9">{body}"#);
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &batch_doc(gapped), &mut out);
        assert!(counted(&out, "gloss.kb_delta_fallback"));
        assert_eq!((bob(&node), node.kb.epoch()), (held, epoch));

        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &batch_doc(good), &mut out);
        assert!(counted(&out, "gloss.kb_delta_applied"), "the well-formed batch applies");
        assert_eq!(bob(&node), [fact("ice cream")]);
        assert_eq!(node.replicas["bob"].anchor, Some((7, 5)));
    }

    // --- service roles on the coordinator ---------------------------------

    /// A coordinator at St Andrews running the two-pattern `pair` service,
    /// of `instances` instances, over workers advertised at `sites`
    /// (`(node, lat, lon)`) at t = 0 s.
    fn roles_coordinator(sites: &[(u32, f64, f64)], instances: usize) -> GlossNode {
        let me = NodeIndex(0);
        let mut node = coordinator(OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO));
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        for &(i, lat, lon) in sites {
            advertise(&mut node, i, lat, lon, 0);
        }
        let rules = "rule pair { on a: event ping(k: ?k) on b: event pong(k: ?k) within 30 s emit paired(k: ?k) }";
        let spec = ServiceSpec::new("pair", rules, vec![(None, instances)]).unwrap();
        let cs = node.coordinator_state.as_mut().unwrap();
        for c in spec.constraints() {
            cs.evolution.add_constraint(c);
        }
        cs.services.insert(spec.name.clone(), spec);
        node
    }

    /// Worker `i`'s advertisement from (`lat`, `lon`), heard at `secs`.
    fn advertise(node: &mut GlossNode, i: u32, lat: f64, lon: f64, secs: u64) {
        let advert = NodeResources {
            node: NodeIndex(i),
            region: "somewhere".into(),
            geo: GeoPoint { lat, lon },
            cpu: 1.0,
            storage: 1 << 20,
        }
        .to_event();
        let msg = GlossMsg::PubSub(BrokerMsg::Publish(advert));
        node.handle(
            SimTime::from_secs(secs),
            Input::Msg { from: NodeIndex(i), msg },
            &mut Outbox::new(),
        );
    }

    /// What the coordinator sent: bundles as `(node, instance, role)`,
    /// promotions as `(node, since)` and demotions as nodes.
    type Sent = (Vec<(u32, String, Role)>, Vec<(u32, SimTime)>, Vec<u32>);

    /// What a coordinator sweep at `secs` sent.
    fn sweep(node: &mut GlossNode, secs: u64) -> Sent {
        let mut out = Outbox::new();
        node.handle(SimTime::from_secs(secs), Input::Timer { tag: timers::SWEEP }, &mut out);
        sent(&out)
    }

    fn sent(out: &Outbox<GlossMsg>) -> Sent {
        let (mut bundles, mut promotions, mut demotions) = (Vec::new(), Vec::new(), Vec::new());
        for (to, msg) in out.sends() {
            match msg {
                GlossMsg::Bundle { instance, role, .. } => {
                    bundles.push((to.0, instance.clone(), *role))
                }
                GlossMsg::Promote { since, .. } => promotions.push((to.0, *since)),
                GlossMsg::Demote { .. } => demotions.push(to.0),
                _ => {}
            }
        }
        (bundles, promotions, demotions)
    }

    /// Confirms the install of `instance` at `secs`; returns what the
    /// coordinator sent.
    fn confirm(node: &mut GlossNode, worker: u32, instance: &str, secs: u64) -> Sent {
        let msg = GlossMsg::Installed { instance: instance.to_string() };
        let mut out = Outbox::new();
        node.handle(
            SimTime::from_secs(secs),
            Input::Msg { from: NodeIndex(worker), msg },
            &mut out,
        );
        sent(&out)
    }

    const LONDON: (f64, f64) = (51.5, -0.1);
    const PARIS: (f64, f64) = (48.8, 2.3);
    const SYDNEY: (f64, f64) = (-33.9, 151.2);

    /// The primary is the instance nearest the coordinator, whatever the
    /// node order; of two equally near, the lower index.
    #[test]
    fn the_instance_nearest_the_coordinator_ships_as_primary() {
        let sites = [(1, SYDNEY.0, SYDNEY.1), (2, PARIS.0, PARIS.1), (3, LONDON.0, LONDON.1)];
        let mut node = roles_coordinator(&sites, 3);
        let (bundles, promotions, _) = sweep(&mut node, 10);
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(1, Role::Standby), (2, Role::Standby), (3, Role::Primary)]);
        assert!(promotions.is_empty());

        let tied = [(1, SYDNEY.0, SYDNEY.1), (2, LONDON.0, LONDON.1), (3, LONDON.0, LONDON.1)];
        let mut node = roles_coordinator(&tied, 3);
        let (bundles, ..) = sweep(&mut node, 10);
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(1, Role::Standby), (2, Role::Primary), (3, Role::Standby)]);
    }

    /// Three instances on n1 (primary), n2 and n3, all confirmed at
    /// t = 12 s, with n4 free; n1 is nearest and n4 farthest.
    fn confirmed_service() -> GlossNode {
        let sites = [
            (1, LONDON.0, LONDON.1),
            (2, PARIS.0, PARIS.1),
            (3, 40.4, -3.7),
            (4, SYDNEY.0, SYDNEY.1),
        ];
        let mut node = roles_coordinator(&sites, 3);
        let (bundles, ..) = sweep(&mut node, 10);
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(1, Role::Primary), (2, Role::Standby), (3, Role::Standby)]);
        for (worker, instance, _) in &bundles {
            let (b, p, d) = confirm(&mut node, *worker, instance, 12);
            assert!(b.is_empty() && p.is_empty() && d.is_empty(), "n{worker} ranks below n1");
        }
        node
    }

    /// Every worker but `silent` advertises at `secs`.
    fn heartbeat_all_but(node: &mut GlossNode, silent: u32, secs: u64) {
        let sites = [(1, LONDON), (2, PARIS), (3, (40.4, -3.7)), (4, SYDNEY)];
        for (i, (lat, lon)) in sites {
            if i != silent {
                advertise(node, i, lat, lon, secs);
            }
        }
    }

    /// A standby's failure promotes nobody, and its replacement ships as
    /// a standby while the primary is alive.
    #[test]
    fn a_standby_failure_is_replaced_by_a_standby_and_promotes_nobody() {
        let mut node = confirmed_service();
        heartbeat_all_but(&mut node, 3, 50);
        let (bundles, promotions, _) = sweep(&mut node, 60);
        assert!(promotions.is_empty(), "{promotions:?}");
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(4, Role::Standby)]);
    }

    /// The primary's failure promotes the best-ranked confirmed live
    /// standby, from the primary's last heartbeat less one period; the
    /// replacement then ships as a standby.
    #[test]
    fn a_primary_failure_promotes_the_best_ranked_standby() {
        let mut node = confirmed_service();
        advertise(&mut node, 1, LONDON.0, LONDON.1, 25);
        heartbeat_all_but(&mut node, 1, 50);
        let (bundles, promotions, _) = sweep(&mut node, 60);
        assert_eq!(promotions, [(2, SimTime::from_secs(15))], "n2, the next nearest");
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(4, Role::Standby)]);
        assert_eq!(
            node.coordinator_state.as_ref().unwrap().primaries["matchlet:pair"].1,
            NodeIndex(2)
        );
    }

    /// With no confirmed standby, the primary's failure promotes nobody
    /// and its replacement ships as the primary.
    #[test]
    fn with_no_confirmed_standby_the_replacement_ships_as_primary() {
        let sites = [(1, LONDON.0, LONDON.1), (2, PARIS.0, PARIS.1), (3, SYDNEY.0, SYDNEY.1)];
        let mut node = roles_coordinator(&sites, 2);
        let (bundles, ..) = sweep(&mut node, 10);
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(1, Role::Primary), (2, Role::Standby)]);
        advertise(&mut node, 2, PARIS.0, PARIS.1, 50);
        advertise(&mut node, 3, SYDNEY.0, SYDNEY.1, 50);
        let (bundles, promotions, _) = sweep(&mut node, 60);
        assert!(promotions.is_empty(), "the standby on n2 never confirmed");
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(3, Role::Primary)]);
    }

    /// A confirmed instance that outranks the primary takes over at once,
    /// with nothing to fire from its standby days; the primary it took
    /// over from fires on for one window of the rules, then stands by.
    #[test]
    fn a_better_ranked_instance_takes_over_and_the_old_primary_stands_by_a_window_later() {
        let sites = [(1, PARIS.0, PARIS.1), (2, 40.4, -3.7)];
        let mut node = roles_coordinator(&sites, 2);
        let (bundles, ..) = sweep(&mut node, 10);
        let roles: Vec<(u32, Role)> = bundles.iter().map(|(n, _, r)| (*n, *r)).collect();
        assert_eq!(roles, [(1, Role::Primary), (2, Role::Standby)]);
        for (worker, instance, _) in &bundles {
            confirm(&mut node, *worker, instance, 12);
        }
        // London advertises late, and n2 fails: the replacement goes to
        // London, nearer than the primary, and ships as a standby.
        advertise(&mut node, 3, LONDON.0, LONDON.1, 20);
        for (i, (lat, lon)) in [(1, PARIS), (3, LONDON)] {
            advertise(&mut node, i, lat, lon, 50);
        }
        let (bundles, promotions, _) = sweep(&mut node, 60);
        assert!(promotions.is_empty());
        let [(3, instance, Role::Standby)] = bundles.as_slice() else { panic!("{bundles:?}") };
        let (_, promotions, demotions) = confirm(&mut node, 3, instance, 61);
        assert_eq!(promotions, [(3, SimTime::MAX)]);
        assert!(demotions.is_empty(), "n1 fires on for a window");
        for (i, (lat, lon)) in [(1, PARIS), (3, LONDON)] {
            advertise(&mut node, i, lat, lon, 80);
        }
        assert_eq!(sweep(&mut node, 90).2, [] as [u32; 0], "61 s + 30 s is not yet up");
        assert_eq!(sweep(&mut node, 100).2, [1]);
    }

    /// The `pair` rule (30 s window) as a bundle for role `role`.
    fn pair_bundle(role: Role) -> GlossMsg {
        let key = AuthKey::new("test", b"secret");
        let rules = "rule pair { on a: event ping(k: ?k) on b: event pong(k: ?k) within 30 s emit paired(k: ?k) }";
        let packet = Bundle::matchlet("pair", rules).issued_by(key.issuer()).to_packet(&key);
        GlossMsg::Bundle { instance: String::new(), packet, role }
    }

    /// A cold standby subscribes to nothing and loads no rule. Promoted,
    /// it subscribes its kinds and asks for a replay from one window
    /// before `since`; the replay's events are offered at their logged
    /// instants, so two more than a window apart never join although
    /// they arrive in one replay, and a join completed before `since`
    /// does not fire. Demoted, it withdraws its kind subscriptions.
    #[test]
    fn a_promoted_standby_joins_its_replay_at_the_logged_instants() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        deliver(&mut node, hub, pair_bundle(Role::Standby));
        assert!(node.subscribed_kinds.is_empty() && node.server.engine().rules().is_empty());
        assert_eq!(node.server.installed_names(), ["pair"]);

        let since = SimTime::from_secs(100);
        let promote = GlossMsg::Promote { instance: "pair".into(), since };
        let mut out = Outbox::new();
        node.handle(since, Input::Msg { from: hub, msg: promote }, &mut out);
        let asked: Vec<&BrokerMsg> = out
            .sends()
            .iter()
            .filter_map(|(to, m)| match m {
                GlossMsg::PubSub(b) if *to == hub => Some(b),
                _ => None,
            })
            .collect();
        let [BrokerMsg::Subscribe(_), BrokerMsg::Subscribe(_), BrokerMsg::Replay { since: from, .. }] =
            asked[..]
        else {
            panic!("{asked:?}");
        };
        assert_eq!(*from, SimTime::from_secs(70), "one window before `since`");
        assert!(
            node.subscribed_kinds.contains_key("ping")
                && node.subscribed_kinds.contains_key("pong")
        );

        let ev = |kind: &str, k: i64| Event::new(kind).with_attr("k", k);
        let at = SimTime::from_secs;
        let events = vec![
            (at(71), ev("ping", 1)),
            (at(72), ev("ping", 3)),
            (at(75), ev("ping", 2)),
            (at(90), ev("pong", 3)),
            (at(101), ev("pong", 2)),
            (at(102), ev("pong", 1)),
        ];
        let replayed = GlossMsg::PubSub(BrokerMsg::Replayed { client: me, events });
        deliver(&mut node, hub, replayed);
        assert_eq!(node.emitted, 1, "k 2 alone: k 1 is 31 s apart, k 3 completed before `since`");

        deliver(&mut node, hub, GlossMsg::PubSub(BrokerMsg::Notify(ev("pong", 2))));
        assert_eq!(node.emitted, 2, "live after the replay");

        let mut out = Outbox::new();
        let demote = GlossMsg::Demote { instance: "pair".into() };
        node.handle(at(200), Input::Msg { from: hub, msg: demote }, &mut out);
        assert!(node.subscribed_kinds.is_empty() && node.server.engine().rules().is_empty());
        let withdrawn = out
            .sends()
            .iter()
            .filter(|(to, m)| {
                *to == hub && matches!(m, GlossMsg::PubSub(BrokerMsg::Unsubscribe(_)))
            })
            .count();
        assert_eq!(withdrawn, 2);
    }

    /// While the promoted node awaits its replay, a live event is held
    /// back from its matchlets, and offered after the replay.
    #[test]
    fn a_live_event_waits_behind_the_replay() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        deliver(&mut node, hub, pair_bundle(Role::Standby));
        let since = SimTime::from_secs(100);
        let promote = GlossMsg::Promote { instance: "pair".into(), since };
        node.handle(since, Input::Msg { from: hub, msg: promote }, &mut Outbox::new());
        let ev = |kind: &str| Event::new(kind).with_attr("k", 1i64);
        let at = SimTime::from_secs;
        let sensed = Input::Msg { from: me, msg: GlossMsg::Sensor(ev("pong")) };
        node.handle(at(101), sensed, &mut Outbox::new());
        assert_eq!((node.emitted, node.held.len()), (0, 1), "held behind the replay");
        let events = vec![(at(99), ev("ping"))];
        let replayed = GlossMsg::PubSub(BrokerMsg::Replayed { client: me, events });
        node.handle(at(102), Input::Msg { from: hub, msg: replayed }, &mut Outbox::new());
        assert_eq!((node.emitted, node.held.len()), (1, 0), "the replayed ping joins the pong");
    }

    /// A node's own firing reaches its own UI: the broker never hands a
    /// node's publication back to it.
    #[test]
    fn a_firing_reaches_a_ui_on_the_node_that_fired() {
        let (me, hub) = (NodeIndex(1), NodeIndex(0));
        let mut node = worker(me);
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let key = AuthKey::new("test", b"secret");
        let packet = Bundle::matchlet("m", r#"rule r { on p: event ping() emit pong() }"#)
            .issued_by(key.issuer())
            .to_packet(&key);
        deliver(
            &mut node,
            hub,
            GlossMsg::Bundle { instance: String::new(), packet, role: Role::Primary },
        );
        deliver(&mut node, me, GlossMsg::UiSubscribe(Filter::for_kind("pong")));
        deliver(&mut node, hub, GlossMsg::PubSub(BrokerMsg::Notify(Event::new("ping"))));
        let kinds: Vec<&str> = node.ui_received.iter().map(Event::kind).collect();
        assert_eq!(kinds, ["pong"]);
        assert_eq!(node.ui_received[0].id().origin, me, "the copy is the stamped publication");
    }

    /// The `liked` service (one event goal joined with one fact goal) on
    /// three of eight nodes, `bob` seeded and followed by every node, and
    /// a UI for its firings: the architecture, the primary, and the node
    /// that publishes and watches.
    fn liked_service() -> (crate::ActiveArchitecture, NodeIndex, NodeIndex) {
        use crate::{ActiveArchitecture, ArchConfig, ServiceSpec};
        let mut arch =
            ActiveArchitecture::build(ArchConfig { nodes: 8, seed: 5, ..Default::default() });
        arch.settle();
        let rules = r#"rule liked { on a: event ping(user: ?u) where fact(?u, likes, "ice") emit liked(u: ?u) }"#;
        let spec = ServiceSpec::new("liked", rules, vec![(None, 3)]).expect("rules compile");
        arch.deploy_service(spec);
        arch.run_for(SimDuration::from_secs(60));
        let hosts = arch.hosts_of("matchlet:liked");
        let primary = *hosts
            .iter()
            .find(|&&h| !arch.node(h).server.engine().rules().is_empty())
            .expect("a primary");
        let via = (1..arch.len() as u32)
            .map(NodeIndex)
            .find(|n| !hosts.contains(n))
            .expect("a free node");
        arch.seed_knowledge(via, "bob", &[Fact::new("bob", "likes", Term::str("ice"))]);
        arch.run_for(SimDuration::from_secs(30));
        arch.prefetch_subject_everywhere("bob");
        arch.run_for(SimDuration::from_secs(30));
        arch.subscribe_ui(via, Filter::for_kind("liked"));
        arch.run_for(SimDuration::from_secs(5));
        assert!(arch.node(primary).replicas.contains_key("bob"));
        (arch, primary, via)
    }

    fn ping_from(user: &str) -> Event {
        Event::new("ping").with_attr("user", user)
    }

    /// Runs `arch` for `span` in 1 ms steps; returns the most events the
    /// node held back at once, and the first instant, if any, at which
    /// it held none after holding some.
    fn watch_held(
        arch: &mut crate::ActiveArchitecture,
        node: NodeIndex,
        span: SimDuration,
    ) -> (usize, Option<SimTime>) {
        let end = arch.now() + span;
        let (mut most, mut released) = (0, None);
        while arch.now() < end {
            arch.run_for(SimDuration::from_millis(1));
            let held = arch.node(node).held.len();
            if held > most {
                (most, released) = (held, None);
            }
            if held == 0 && most > 0 && released.is_none() {
                released = Some(arch.now());
            }
        }
        (most, released)
    }

    /// A gap fetch for a subject no store holds concludes "missing": the
    /// events held behind it go to the matchlets (bob's fires), and a
    /// later event about the subject is neither held nor fetched again.
    #[test]
    fn a_gap_no_store_fills_releases_the_held_events_and_is_not_fetched_again() {
        let (mut arch, primary, via) = liked_service();
        let m = |arch: &crate::ActiveArchitecture, name: &str| arch.world().metrics().counter(name);
        let missing = m(&arch, "store.lookups_missing");
        arch.publish(via, ping_from("carol"));
        arch.publish_at(arch.now() + SimDuration::from_millis(1), via, ping_from("bob"));
        let (most, released) = watch_held(&mut arch, primary, SimDuration::from_secs(5));
        assert_eq!(most, 2, "carol's event and bob's behind it were held");
        assert!(released.is_some(), "and released");
        assert_eq!(m(&arch, "gloss.kb_gap_fetches"), 1.0);
        assert_eq!(m(&arch, "store.lookups_missing"), missing + 1.0, "no store holds carol");
        assert_eq!(m(&arch, "store.lookups_timeout"), 0.0);
        let node = arch.node(primary);
        assert!(node.gap_fetches.is_empty() && node.replicas.contains_key("carol"));
        let liked: Vec<Option<&str>> =
            arch.node(via).ui_received.iter().map(|e| e.str_attr("u")).collect();
        assert_eq!(liked, [Some("bob")]);

        arch.publish(via, ping_from("carol"));
        arch.publish_at(arch.now() + SimDuration::from_millis(1), via, ping_from("bob"));
        assert_eq!(watch_held(&mut arch, primary, SimDuration::from_secs(5)), (0, None));
        assert_eq!(m(&arch, "gloss.kb_gap_fetches"), 1.0, "carol is not fetched again");
        assert_eq!(m(&arch, "store.lookups_missing"), missing + 1.0);
        assert_eq!(arch.node(via).ui_received.len(), 2);
    }

    /// A gap fetch whose lookup is never answered — every link out of the
    /// primary drops what it carries — holds the events only until the
    /// lookup ledger's retry budget is spent: attempts at 2, 4, 8 and 16 s
    /// deadlines, each jittered by ±25 %, so between 22.5 and 37.5 s.
    #[test]
    fn a_gap_fetch_that_times_out_holds_nothing_past_the_retry_budget() {
        let (mut arch, primary, via) = liked_service();
        for to in (0..arch.len() as u32).map(NodeIndex).filter(|&n| n != primary) {
            arch.world_mut().set_link_loss(primary, to, 1.0);
        }
        arch.publish(via, ping_from("carol"));
        let sent = arch.now();
        let (most, released) = watch_held(&mut arch, primary, SimDuration::from_secs(45));
        assert_eq!(most, 1);
        let released = released.expect("released within the budget").since(sent);
        assert!(
            (SimDuration::from_millis(22_500)..=SimDuration::from_millis(37_600))
                .contains(&released),
            "released {released:?} after the publication"
        );
        let m = |name: &str| arch.world().metrics().counter(name);
        assert_eq!((m("store.lookups_timeout"), m("store.lookups_retried")), (1.0, 3.0));
        assert!(arch.node(primary).gap_fetches.is_empty());
    }
}
