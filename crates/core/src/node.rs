//! The integrated architecture node: broker + storelet + thin server +
//! matchlets, with the coordinator engines on node 0.
//!
//! Knowledge documents ingest wherever they land, and a node reads each
//! one only as far as its verdict needs. A `kbdelta` batch's envelope
//! (subject, source, epochs) is read first; the subject's replica record
//! is looked up once and [`reconcile`] decides on the envelope alone.
//! Stale batches and snapshot fallbacks never decode the body; a batch
//! that applies decodes it and moves its facts into the fact store. A
//! `kb` snapshot is read version first, and one older than the held state
//! is turned away before any fact is built. A malformed body never
//! applies anything.

use crate::service::ServiceSpec;
use gloss_bundle::{AuthKey, Bundle, Capability, ThinServer};
use gloss_deploy::{coordinator_sweep, EvolutionEngine, MonitorEngine, NodeResources};
use gloss_event::{Broker, BrokerMsg, Event, EventId, Filter, Subscription};
use gloss_knowledge::{
    reconcile, BatchReader, DeltaAction, DistributedKnowledge, FactDelta, InMemoryFacts,
    SnapshotReader,
};
use gloss_overlay::Key;
use gloss_sim::{Batch, Input, Node, NodeIndex, Outbox, SimDuration, SimTime};
use gloss_store::{Document, StoreMsg, StoreNode};
use gloss_xml::Element;
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the integrated architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum GlossMsg {
    /// Event-plane traffic (Siena brokers).
    PubSub(BrokerMsg),
    /// Storage-plane traffic (overlay + storage).
    Store(StoreMsg),
    /// A locally sensed event (device wrappers / workload injection).
    Sensor(Event),
    /// A UI client subscription on this node.
    UiSubscribe(Filter),
    /// Prefetch the knowledge-base document for a subject into this node.
    PrefetchSubject(String),
    /// Pull the latest delta batch for a subject (repairs incrementally
    /// when it extends the held state; falls back to the full document
    /// otherwise).
    PrefetchDeltas(String),
    /// A sealed code bundle shipped by the evolution engine or discovery.
    Bundle {
        /// Instance id (evolution bookkeeping; empty for discovery).
        instance: String,
        /// The XML packet.
        packet: String,
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

/// Timer tags owned by the integration layer (store/overlay tags pass
/// through to the storelet).
mod timers {
    /// Worker resource heartbeat.
    pub const HEARTBEAT: u64 = 0x40;
    /// Coordinator sweep (monitor + reconcile).
    pub const SWEEP: u64 = 0x41;
}

/// Coordinator-only state (node 0).
#[derive(Debug)]
pub struct CoordinatorState {
    /// The monitoring engine.
    pub monitor: MonitorEngine,
    /// The evolution engine.
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
}

impl CoordinatorState {
    fn new(monitor_deadline: SimDuration) -> Self {
        CoordinatorState {
            monitor: MonitorEngine::new(monitor_deadline),
            evolution: EvolutionEngine::new(Vec::new()),
            services: BTreeMap::new(),
            discovery_pending: BTreeMap::new(),
            handler_reqs: BTreeMap::new(),
            next_req: 0,
            discovered: Vec::new(),
        }
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
    /// versioned snapshots and advanced by applied delta batches. Facts
    /// ingested from a legacy (unversioned) snapshot have none: a delta
    /// batch then falls back to a snapshot fetch, unless it starts at
    /// epoch 0 — a complete history, which replaces the held facts.
    anchor: Option<(u64, u64)>,
}

/// The record for `subject`, created empty on first sight (the only time
/// the name is copied).
fn replica_mut<'a>(
    replicas: &'a mut BTreeMap<String, SubjectReplica>,
    subject: &str,
) -> &'a mut SubjectReplica {
    if !replicas.contains_key(subject) {
        replicas.insert(subject.to_string(), SubjectReplica::default());
    }
    replicas.get_mut(subject).expect("present or just inserted")
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
    broker_sends: Vec<(NodeIndex, BrokerMsg, SimDuration)>,
    store_sends: Vec<(NodeIndex, StoreMsg, SimDuration)>,
    /// The thin server hosting matchlets.
    pub server: ThinServer,
    /// The node-local fact store (fed by `kb/…` documents).
    pub kb: InMemoryFacts,
    resources: NodeResources,
    coordinator: NodeIndex,
    heartbeat: SimDuration,
    sweep_every: SimDuration,
    key: AuthKey,
    sub_seq: u64,
    pub_seq: u64,
    subscribed_kinds: BTreeSet<String>,
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
    /// Coordinator engines (node 0 only).
    pub coordinator_state: Option<CoordinatorState>,
    /// Replication state of every subject a kb or kbdelta document has
    /// been seen for.
    replicas: BTreeMap<String, SubjectReplica>,
}

impl GlossNode {
    /// Creates an integrated node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: NodeIndex,
        broker: Broker,
        store: StoreNode,
        resources: NodeResources,
        coordinator: NodeIndex,
        key: AuthKey,
        heartbeat: SimDuration,
        monitor_deadline: SimDuration,
    ) -> Self {
        let mut server = ThinServer::new(format!("gloss-{me}"));
        server.trust(key.clone());
        server.grant(key.issuer(), Capability::DeployMatchlet);
        server.grant(key.issuer(), Capability::DeployComponent);
        server.grant(key.issuer(), Capability::StoreAccess);
        let coordinator_state =
            (me == coordinator).then(|| CoordinatorState::new(monitor_deadline));
        GlossNode {
            me,
            broker,
            store,
            broker_sends: Vec::new(),
            store_sends: Vec::new(),
            server,
            kb: InMemoryFacts::new(),
            resources,
            coordinator,
            heartbeat,
            sweep_every: SimDuration::from_secs(10),
            key,
            sub_seq: 0,
            pub_seq: 0,
            subscribed_kinds: BTreeSet::new(),
            reported_unknown: BTreeSet::new(),
            ui_filters: Vec::new(),
            ui_received: Vec::new(),
            emitted: 0,
            coordinator_state,
            replicas: BTreeMap::new(),
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

    /// Whether facts about `subject` have been ingested locally (from a
    /// snapshot, or built up from a first-epoch delta batch).
    pub fn knows_subject(&self, subject: &str) -> bool {
        self.replicas.get(subject).is_some_and(|r| r.snapshot_doc.is_some() || r.anchor.is_some())
    }

    fn broker_do(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<GlossMsg>,
    ) {
        out.nested(&mut self.broker_sends, GlossMsg::PubSub, |bout| {
            self.broker.handle(now, from, msg, bout)
        });
    }

    fn subscribe_filter(&mut self, now: SimTime, filter: Filter, out: &mut Outbox<GlossMsg>) {
        self.sub_seq += 1;
        let id = ((self.me.0 as u64) << 32) | self.sub_seq;
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Subscribe(Subscription { id, filter }), out);
    }

    fn subscribe_kind(&mut self, now: SimTime, kind: &str, out: &mut Outbox<GlossMsg>) {
        if self.subscribed_kinds.insert(kind.to_string()) {
            self.subscribe_filter(now, Filter::for_kind(kind), out);
        }
    }

    /// Subscribes to every event kind an installed rule listens for
    /// (kinds already subscribed are skipped).
    fn subscribe_rule_kinds(&mut self, now: SimTime, out: &mut Outbox<GlossMsg>) {
        let kinds: Vec<String> = self
            .server
            .engine()
            .rules()
            .iter()
            .flat_map(|r| r.rule.patterns.iter().map(|p| p.kind.clone()))
            .collect();
        for k in kinds {
            self.subscribe_kind(now, &k, out);
        }
    }

    /// Publishes an event onto the bus from this node.
    fn publish(&mut self, now: SimTime, mut event: Event, out: &mut Outbox<GlossMsg>) {
        self.pub_seq += 1;
        event.stamp(EventId { origin: self.me, seq: self.pub_seq }, now);
        let me = self.me;
        self.broker_do(now, me, BrokerMsg::Publish(event), out);
    }

    /// Client-side delivery: UI logging, matchlet matching, coordinator
    /// engines.
    ///
    /// `routed` says this node's own broker sent the event, which it does
    /// only when one of this node's subscriptions matched it. This node
    /// subscribes its UI filters and whole kinds (`subscribed_kinds`), so
    /// a routed event of a kind not subscribed whole matched a UI filter
    /// and goes to the UI without re-scanning `ui_filters`. Any other
    /// event — a whole-kind subscription's, or a local sensor reading —
    /// is scanned.
    fn deliver_to_client(
        &mut self,
        now: SimTime,
        event: Event,
        routed: bool,
        out: &mut Outbox<GlossMsg>,
    ) {
        let to_ui = if routed && !self.subscribed_kinds.contains(event.kind()) {
            debug_assert!(
                self.ui_filters.iter().any(|f| f.matches(&event)),
                "routed, not of a kind subscribed whole, yet no UI filter matches: {event}"
            );
            true
        } else {
            self.ui_filters.iter().any(|f| f.matches(&event))
        };
        if to_ui {
            out.count("gloss.ui_delivered", 1.0);
            self.ui_received.push(event.clone());
        }
        // Coordinator engines consume resource events from the bus.
        if event.kind().starts_with("resource.") {
            if let Some(cs) = self.coordinator_state.as_mut() {
                cs.monitor.on_event(now, &event);
                let actions = cs.evolution.on_event(now, &event);
                self.dispatch_actions(actions, out);
            }
            return;
        }
        // Matchlets. All bundles installed on this node share the
        // server's one engine, so its alpha/beta indexes are repaired
        // once per knowledge update however many matchlets are deployed;
        // memo hits are surfaced as a world metric.
        let memo_before = self.server.engine().stats.memo_hits;
        let outputs = self.server.match_event(now, &event, &self.kb);
        let memo_hits = self.server.engine().stats.memo_hits - memo_before;
        if memo_hits > 0 {
            out.count("gloss.match_memo_hits", memo_hits as f64);
        }
        for synthesized in outputs {
            self.emitted += 1;
            out.count("gloss.synthesized", 1.0);
            out.trace_with("synthesize", || synthesized.to_string());
            self.publish(now, synthesized, out);
        }
    }

    fn dispatch_actions(
        &mut self,
        actions: Vec<(String, gloss_deploy::Action)>,
        out: &mut Outbox<GlossMsg>,
    ) {
        for (instance, action) in actions {
            if let gloss_deploy::Action::Deploy { kind, node } = action {
                let cs = self.coordinator_state.as_ref().expect("only coordinator dispatches");
                let bundle = match kind.strip_prefix("matchlet:") {
                    Some(service_name) => match cs.services.get(service_name) {
                        Some(spec) => Bundle::matchlet(instance.clone(), &spec.rules_source)
                            .issued_by(self.key.issuer()),
                        None => continue,
                    },
                    None => Bundle::component(instance.clone(), kind, Element::new("cfg"))
                        .issued_by(self.key.issuer()),
                };
                let packet = bundle.to_packet(&self.key);
                out.count("gloss.bundles_sent", 1.0);
                out.send(node, GlossMsg::Bundle { instance, packet });
            }
        }
    }

    /// Every call into the storelet goes through here: `call` runs
    /// against the store with a store-plane outbox, and afterwards each
    /// discovery fetch the coordinator awaits that the store now has an
    /// outcome for is concluded — whichever way it ended (a reply, a
    /// local copy, or the lookup-retry timer giving up). Workers and an
    /// idle coordinator await nothing and pay one emptiness test.
    fn store_call(
        &mut self,
        now: SimTime,
        out: &mut Outbox<GlossMsg>,
        call: impl FnOnce(&mut StoreNode, &mut Outbox<StoreMsg>),
    ) {
        out.nested(&mut self.store_sends, GlossMsg::Store, |sout| call(&mut self.store, sout));
        let Some(cs) = self.coordinator_state.as_ref() else {
            return;
        };
        if cs.handler_reqs.is_empty() {
            return;
        }
        let concluded: Vec<u64> = cs
            .handler_reqs
            .keys()
            .copied()
            .filter(|req| self.store.outcomes.contains_key(req))
            .collect();
        for req in concluded {
            self.conclude_discovery_fetch(now, req, out);
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
        self.store_call(now, out, |store, sout| store.handle(now, from, msg, sout));
        if let Some(doc) = landed_doc {
            self.ingest_document(now, &doc, out);
        }
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
        let held = self.replicas.get(subject);
        if held.and_then(|r| r.snapshot_doc).is_some_and(|v| v >= doc.version) {
            out.count("gloss.kb_reingest_skipped", 1.0);
            return;
        }
        let Some(snapshot) = std::str::from_utf8(&doc.content).ok().and_then(SnapshotReader::open)
        else {
            return;
        };
        let snap_version = snapshot.version();
        if let (Some((source, epoch)), Some((tracked_source, tracked_epoch))) =
            (snap_version, held.and_then(|r| r.anchor))
        {
            // Deltas may have advanced us past the snapshot in flight:
            // rebuilding from it would roll those deltas back.
            if source == tracked_source && tracked_epoch >= epoch {
                out.count("gloss.kb_snapshot_stale", 1.0);
                return;
            }
        }
        let Some(facts) = snapshot.facts() else {
            return;
        };
        self.kb.remove_subject(subject);
        self.kb.extend(facts);
        let replica = replica_mut(&mut self.replicas, subject);
        replica.snapshot_doc = Some(doc.version);
        // A legacy snapshot breaks the anchor: epochs applied on top of
        // unanchored state would be fiction.
        replica.anchor = snap_version;
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
        let replica = replica_mut(&mut self.replicas, incoming.subject());
        replica.delta_doc = replica.delta_doc.max(Some(doc.version));
        match reconcile(replica.anchor, incoming.span()) {
            DeltaAction::Apply { skip } => {
                let Some(batch) = incoming.decode() else {
                    return;
                };
                if replica.anchor.is_none() {
                    // A batch from epoch 0 is the subject's complete
                    // history: it replaces what a legacy snapshot left.
                    self.kb.remove_subject(&batch.subject);
                }
                out.count("gloss.kb_delta_applied", 1.0);
                out.count("gloss.kb_delta_facts", (batch.deltas.len() - skip) as f64);
                out.count("gloss.kb_delta_bytes", doc.size() as f64);
                for d in batch.deltas.into_iter().skip(skip) {
                    match d {
                        FactDelta::Insert(f) => self.kb.add(f),
                        FactDelta::Retract(f) => {
                            self.kb.retract(&f.subject, &f.predicate, &f.object);
                        }
                    }
                }
                replica.anchor = Some((batch.source, batch.to));
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

    /// Completes the awaited discovery fetch `req`, whose outcome the
    /// store holds: deploy handler code to the reporters.
    fn conclude_discovery_fetch(&mut self, now: SimTime, req: u64, out: &mut Outbox<GlossMsg>) {
        let cs = self.coordinator_state.as_mut().expect("only the coordinator awaits fetches");
        let kind = cs.handler_reqs.remove(&req).expect("an awaited request");
        let outcome = self.store.outcomes.get(&req).cloned().expect("a concluded request");
        let reporters = cs.discovery_pending.remove(&kind).unwrap_or_default();
        match outcome.doc {
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
                            self.subscribe_rule_kinds(now, out);
                        }
                    } else {
                        out.send(
                            node,
                            GlossMsg::Bundle { instance: String::new(), packet: packet.clone() },
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
        self.store_call(now, out, |store, sout| store.on_start(sout));
        if self.is_coordinator() {
            self.subscribe_kind(now, gloss_deploy::resource::kinds::ADVERTISE, out);
            self.subscribe_kind(now, gloss_deploy::resource::kinds::WITHDRAW, out);
            out.timer(self.sweep_every, timers::SWEEP);
        } else {
            let advert = self.resources.to_event();
            self.publish(now, advert, out);
            out.timer(self.heartbeat, timers::HEARTBEAT);
        }
    }

    fn on_timer(&mut self, now: SimTime, tag: u64, out: &mut Outbox<GlossMsg>) {
        match tag {
            timers::HEARTBEAT => {
                let advert = self.resources.to_event();
                self.publish(now, advert, out);
                out.timer(self.heartbeat, timers::HEARTBEAT);
            }
            timers::SWEEP => {
                if let Some(cs) = self.coordinator_state.as_mut() {
                    let sweep = coordinator_sweep(&mut cs.monitor, &mut cs.evolution, now);
                    if sweep.suspected > 0 {
                        out.count("gloss.suspected", sweep.suspected as f64);
                    }
                    if sweep.failed > 0 {
                        out.count("gloss.failures_detected", sweep.failed as f64);
                    }
                    self.dispatch_actions(sweep.actions, out);
                }
                out.timer(self.sweep_every, timers::SWEEP);
            }
            other => self.store_call(now, out, |store, sout| store.on_timer(now, other, sout)),
        }
    }

    /// Issues a storage lookup for a subject's kb document (the reply
    /// auto-ingests).
    fn prefetch_subject(&mut self, now: SimTime, subject: &str, out: &mut Outbox<GlossMsg>) {
        let guid = Key::hash_of_str(&DistributedKnowledge::doc_name(subject));
        // Versions at or below the one already ingested are no-ops, so
        // don't let a stale cached copy answer for the authoritative
        // one; the responsible node still serves whatever it holds.
        let held = self.replicas.get(subject).and_then(|r| r.snapshot_doc);
        let floor = held.map_or(0, |v| v.saturating_add(1));
        self.prefetch(guid, floor, now, out);
    }

    /// Issues a storage lookup for a subject's latest delta batch (the
    /// reply auto-ingests through [`reconcile`], falling back to a full
    /// fetch when the batch cannot extend the held state).
    fn prefetch_deltas(&mut self, now: SimTime, subject: &str, out: &mut Outbox<GlossMsg>) {
        let guid = Key::hash_of_str(&format!("kbdelta/{subject}"));
        // Demand a batch newer than the last one ingested: any cached
        // copy we (or an en-route node) already hold is stale by
        // definition, and serving it would end the pull early.
        let held = self.replicas.get(subject).and_then(|r| r.delta_doc);
        let floor = held.map_or(0, |v| v.saturating_add(1));
        self.prefetch(guid, floor, now, out);
    }

    /// Looks `guid` up in the store, refusing copies below version
    /// `floor`, and ingests what comes back.
    fn prefetch(&mut self, guid: Key, floor: u64, now: SimTime, out: &mut Outbox<GlossMsg>) {
        self.sub_seq += 1;
        // The store's outcome ledger is this node's own, so the id needs
        // no node bits: a tag bit over the per-node sequence, below the
        // coordinator's discovery fetches (bit 52).
        let req = (1 << 48) | self.sub_seq;
        self.store_call(now, out, |store, sout| {
            store.lookup_min_version(guid, floor, req, now, sout)
        });
        // A locally held copy concludes synchronously with no FetchReply
        // message, so the ingest hook must run here.
        if let Some(doc) = self.store.outcomes.get(&req).and_then(|o| o.doc.clone()) {
            self.ingest_document(now, &doc, out);
        }
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

    /// Batched delivery: broker fan-out and matchlet-bound event streams
    /// arriving at one instant dispatch in one call (the enclosing world
    /// applies their effects as a single activation).
    fn on_batch(
        &mut self,
        now: SimTime,
        batch: &mut Batch<'_, GlossMsg>,
        out: &mut Outbox<GlossMsg>,
    ) {
        if batch.len() > 1 {
            out.count("gloss.batched_events", batch.len() as f64);
        }
        for (from, msg) in batch {
            self.on_msg(now, from, msg, out);
        }
    }
}

impl GlossNode {
    fn on_msg(&mut self, now: SimTime, from: NodeIndex, msg: GlossMsg, out: &mut Outbox<GlossMsg>) {
        match msg {
            GlossMsg::PubSub(bmsg) => {
                // A Notify from ourselves is the broker delivering to
                // its local client (this node); everything else is
                // broker-plane traffic.
                match bmsg {
                    BrokerMsg::Notify(event) if from == self.me => {
                        self.deliver_to_client(now, event, true, out)
                    }
                    other => self.broker_do(now, from, other, out),
                }
            }
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
            GlossMsg::Bundle { instance, packet } => match self.server.receive_packet(&packet) {
                Ok(report) => {
                    out.count("gloss.installs", 1.0);
                    if report.lint_warnings > 0 {
                        out.count("gloss.lint_warnings", report.lint_warnings as f64);
                    }
                    self.subscribe_rule_kinds(now, out);
                    if !instance.is_empty() {
                        out.send(from, GlossMsg::Installed { instance });
                    }
                }
                Err(gloss_bundle::BundleError::RejectedByAnalysis(_)) => {
                    out.count("gloss.lint_rejected", 1.0);
                    out.count("gloss.install_failures", 1.0);
                }
                Err(_) => out.count("gloss.install_failures", 1.0),
            },
            GlossMsg::Installed { instance } => {
                if let Some(cs) = self.coordinator_state.as_mut() {
                    cs.evolution.confirm_deploy(now, &instance);
                    if cs.evolution.violations().is_empty() {
                        if let Some(&(v_at, r_at)) = cs.evolution.repair_episodes.last() {
                            out.observe("gloss.repair_ms", r_at.since(v_at).as_secs_f64() * 1e3);
                        }
                    }
                }
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
                    self.store_call(now, out, |store, sout| store.lookup(guid, req, now, sout));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_event::BrokerTopology;
    use gloss_knowledge::{DeltaBatch, Fact, FactSource, Term};
    use gloss_overlay::{KeyedNode, OverlayNode};
    use gloss_sim::GeoPoint;
    use gloss_store::{store_node::timers::LOOKUP_RETRY, StoreConfig, StorePayload};

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
            SimDuration::from_secs(5),
            SimDuration::from_secs(15),
        )
    }

    /// Hands `msg` from `from` to `node`, then feeds back every message
    /// the node sends itself (its broker notifying it as a client) until
    /// none is left.
    fn deliver(node: &mut GlossNode, from: NodeIndex, msg: GlossMsg) {
        let me = node.index();
        let mut queue = vec![(from, msg)];
        while let Some((from, msg)) = queue.pop() {
            let mut out = Outbox::new();
            node.handle(SimTime::ZERO, Input::Msg { from, msg }, &mut out);
            let to_me = out.take_sends().into_iter().filter(|(to, ..)| *to == me);
            queue.extend(to_me.map(|(_, m, _)| (me, m)));
        }
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
        deliver(&mut node, peer, GlossMsg::Bundle { instance: String::new(), packet });
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

    fn fact(object: &str) -> Fact {
        Fact::new("bob", "likes", Term::str(object))
    }

    /// Prefetch request ids stay distinct however many a node issues. An
    /// id that repeated an earlier one (node bits overlapping a sequence
    /// past 2^20) had its outcome dropped as a duplicate, and the ingest
    /// then read the earlier request's stale document.
    #[test]
    fn prefetch_ids_stay_distinct_past_two_to_the_twenty_requests() {
        let me = NodeIndex(1);
        let overlay = OverlayNode::new(Key(0x100), me, None, SimDuration::ZERO);
        let mut node = GlossNode::new(
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
            NodeIndex(0),
            AuthKey::new("test", b"secret"),
            SimDuration::from_secs(5),
            SimDuration::from_secs(15),
        );
        node.handle(SimTime::ZERO, Input::Start, &mut Outbox::new());
        let peer = NodeIndex(2);
        let v1 = snapshot_doc(&[fact("golf")], Some((7, 1)));
        node.store.insert(v1.clone(), SimTime::ZERO, &mut Outbox::new());
        deliver(&mut node, peer, GlossMsg::PrefetchSubject("bob".into()));
        assert_eq!(bob(&node), [fact("golf")]);

        // A newer version lands in the store, and the next pull is
        // exactly 2^20 requests after the first.
        let v2 = snapshot_doc(&[fact("ice cream")], Some((7, 2)));
        node.store.insert(v1.updated(v2.content), SimTime::ZERO, &mut Outbox::new());
        node.sub_seq += (1 << 20) - 1;
        deliver(&mut node, peer, GlossMsg::PrefetchSubject("bob".into()));
        assert_eq!(node.store.outcomes.len(), 2, "two requests, two ids, two outcomes");
        assert_eq!(bob(&node), [fact("ice cream")], "the fresh outcome was ingested");
    }

    /// A `kb/bob` snapshot document; versioned when `version` is given.
    fn snapshot_doc(facts: &[Fact], version: Option<(u64, u64)>) -> Document {
        let refs: Vec<_> = facts.iter().collect();
        let el = match version {
            Some((source, epoch)) => {
                DistributedKnowledge::facts_to_xml_versioned("bob", &refs, source, epoch)
            }
            None => DistributedKnowledge::facts_to_xml("bob", &refs),
        };
        Document::new(DistributedKnowledge::doc_name("bob"), el.to_xml().into_bytes())
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

    /// A batch from epoch 0 is a complete history: at a node holding an
    /// unversioned snapshot it replaces the held facts instead of landing
    /// on top of them.
    #[test]
    fn a_first_epoch_batch_replaces_a_legacy_snapshot() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &snapshot_doc(&[fact("tea")], None), &mut out);
        assert_eq!(bob(&node), [fact("tea")]);
        let history = batch_text(7, 0, vec![FactDelta::Insert(fact("tea"))]);
        node.ingest_document(SimTime::ZERO, &batch_doc(history), &mut out);
        assert!(counted(&out, "gloss.kb_delta_applied"));
        assert_eq!(bob(&node), [fact("tea")], "one fact, not the snapshot's plus the batch's");
        assert_eq!(node.replicas["bob"].anchor, Some((7, 1)));
    }

    /// A batch whose envelope says it applies but whose body does not
    /// decode changes nothing: no fact, no anchor, no counter. One whose
    /// envelope says stale or gapped is counted or acted on from the
    /// envelope, body unread.
    #[test]
    fn a_malformed_body_applies_nothing() {
        let mut node =
            coordinator(OverlayNode::new(Key(0x100), NodeIndex(0), None, SimDuration::ZERO));
        let mut out = Outbox::new();
        node.ingest_document(SimTime::ZERO, &snapshot_doc(&[fact("tea")], Some((7, 3))), &mut out);
        let good = batch_text(
            7,
            3,
            vec![FactDelta::Retract(fact("tea")), FactDelta::Insert(fact("ice cream"))],
        );
        let malformed = [
            good.replacen("type=\"str\"", "type=\"tensor\"", 1),
            good.replacen("<insert", "<upsert", 1).replacen("</insert", "</upsert", 1),
            good.replacen("to=\"5\"", "to=\"6\"", 1),
            good.replacen("</value></retract>", "</retract>", 1),
            format!("{good}<trailing/>"),
            good.replacen("</kbdelta>", "", 1),
        ];
        let (held, epoch) = (bob(&node), node.kb.epoch());
        for text in malformed {
            assert_ne!(text, good);
            let mut out = Outbox::new();
            node.ingest_document(SimTime::ZERO, &batch_doc(text.clone()), &mut out);
            assert!(out.counts().is_empty(), "{text}: counted {:?}", out.counts());
            assert_eq!((bob(&node), node.kb.epoch()), (held.clone(), epoch), "{text}");
            assert_eq!(node.replicas["bob"].anchor, Some((7, 3)), "{text}");
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
}
