//! The Pastry-style overlay node state machine: joining, prefix routing,
//! failure detection, and repair. Sans-IO; drive it with
//! [`crate::OverlayNetwork`] or embed it (the storage layer does).

use crate::id::{Key, KeyedNode};
use crate::table::{LeafSet, RoutingTable};
use gloss_governor::{
    Admission, AdmissionGovernor, ProbeDecision, SuspicionTracker, SuspicionVerdict,
};
use gloss_sim::{FaultClass, FnvHashMap, NodeIndex, Outbox, SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// Timer tags used by the overlay (the embedding layer must route timer
/// fires with these tags back into [`OverlayNode::on_timer`]). Tags use
/// the low 32 bits; the overlay stamps join-attempt sequence numbers into
/// the high bits, so embedders must pass tags through unmodified.
pub mod timers {
    /// Periodic leaf-set heartbeat.
    pub const PROBE: u64 = 0x10;
    /// Deferred join (staggered bootstrap). The high 32 bits carry the
    /// join attempt sequence, so superseded retry timers are ignored.
    pub const JOIN: u64 = 0x11;
}

/// Overlay protocol messages, generic over the routed payload `P`.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayMsg<P> {
    /// A joining node's request, routed toward its own key.
    Join {
        /// The joiner.
        joiner: KeyedNode,
    },
    /// Routing state sent to a joiner by each node on the join path.
    JoinInfo {
        /// The sender's routing entries (a superset of one row; sending
        /// everything known speeds convergence in small networks).
        known: Vec<KeyedNode>,
    },
    /// Final join message from the numerically closest node.
    JoinDone {
        /// The closest node itself.
        closest: KeyedNode,
        /// Its leaf set, which seeds the joiner's.
        leaves: Arc<[KeyedNode]>,
    },
    /// A (re)joined node introduces itself to everyone it knows.
    Announce {
        /// The new node.
        node: KeyedNode,
    },
    /// Reply to an announcement, so the joiner learns the replier too.
    AnnounceAck {
        /// The replying node.
        node: KeyedNode,
    },
    /// An application payload being routed to the live node closest to
    /// `target`.
    Route {
        /// The destination key.
        target: Key,
        /// The payload delivered at the destination.
        payload: P,
        /// Who originated the route (for replies).
        origin: NodeIndex,
        /// Hops taken so far.
        hops: u32,
    },
    /// Leaf-set heartbeat.
    Probe,
    /// Heartbeat acknowledgement, carrying the responder's leaf set so
    /// ring-neighbour knowledge converges continuously (gossip). The list
    /// is shared (`Arc`): responding costs a pointer clone, not a copy.
    ProbeAck {
        /// The responder's current leaf members.
        leaves: Arc<[KeyedNode]>,
        /// Content digest of `leaves`; receivers skip re-learning a list
        /// they already absorbed from this neighbour.
        digest: u64,
    },
    /// Ask a neighbour for its leaf set (repair after a failure).
    LeafSetRequest,
    /// Leaf set contents.
    LeafSetReply {
        /// The members.
        leaves: Arc<[KeyedNode]>,
    },
    /// Join rejected by admission control: retry after the given delay
    /// (the governor's exponential backoff with jitter).
    JoinRetry {
        /// When the joiner should try again.
        after: SimDuration,
    },
    /// Per-hop acknowledgement that a routed payload was accepted
    /// (conduct evidence for the suspicion tracker; only sent when the
    /// governor is enabled).
    RouteAck,
}

/// Classifies an overlay message for byzantine fault policies
/// ([`gloss_sim::ByzantineActor`]).
pub fn fault_class<P>(msg: &OverlayMsg<P>) -> FaultClass {
    match msg {
        OverlayMsg::Route { .. } => FaultClass::Payload,
        OverlayMsg::Probe | OverlayMsg::ProbeAck { .. } => FaultClass::Liveness,
        OverlayMsg::JoinInfo { .. }
        | OverlayMsg::Announce { .. }
        | OverlayMsg::AnnounceAck { .. }
        | OverlayMsg::LeafSetRequest
        | OverlayMsg::LeafSetReply { .. } => FaultClass::Gossip,
        OverlayMsg::Join { .. }
        | OverlayMsg::JoinDone { .. }
        | OverlayMsg::JoinRetry { .. }
        | OverlayMsg::RouteAck => FaultClass::Control,
    }
}

/// A payload delivered at this node (it is the live node numerically
/// closest to the target).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<P> {
    /// The routed key.
    pub target: Key,
    /// The payload.
    pub payload: P,
    /// The originating physical node.
    pub origin: NodeIndex,
    /// Overlay hops from origin to delivery.
    pub hops: u32,
}

/// Safety valve: routes longer than this deliver locally and are counted,
/// preventing pathological loops while tables converge.
const MAX_HOPS: u32 = 64;
/// Consecutive missed probes before a leaf is declared dead (legacy
/// three-strikes path, used when no governor is installed).
const PROBE_DEATH: u32 = 3;

/// Interval between consecutive joins of a [`ring`](OverlayNode::ring).
pub const JOIN_STAGGER: SimDuration = SimDuration::from_millis(200);

/// How long a [`ring`](OverlayNode::ring) of `n` nodes needs to form:
/// the last staggered join plus a minute of retry slack.
pub fn ring_settle(n: usize) -> SimDuration {
    JOIN_STAGGER * n as u64 + SimDuration::from_secs(60)
}

/// An in-flight routed payload: (`target`, `payload`, `origin`, `hops`).
type PendingForwards<P> = Vec<(Key, P, NodeIndex, u32)>;

/// The per-node governor state: join admission, peer suspicion, and the
/// outstanding-forward ledger feeding the conduct channel.
#[derive(Debug, Clone)]
struct Governor<P> {
    admission: AdmissionGovernor,
    suspicion: SuspicionTracker,
    /// Routed payloads forwarded per peer and awaiting
    /// [`OverlayMsg::RouteAck`], retained in full so the next probe
    /// round can re-route an abandoned payload around the suspect
    /// instead of losing it.
    pending_acks: FnvHashMap<u32, PendingForwards<P>>,
}

impl<P> Governor<P> {
    fn new(probe_interval: SimDuration, seed: u64) -> Self {
        Governor {
            admission: AdmissionGovernor::new(seed),
            suspicion: SuspicionTracker::new(probe_interval),
            pending_acks: FnvHashMap::default(),
        }
    }
}

/// A Pastry-style overlay node.
#[derive(Debug, Clone)]
pub struct OverlayNode<P> {
    me: KeyedNode,
    table: RoutingTable,
    leaves: LeafSet,
    joined: bool,
    bootstrap: Option<NodeIndex>,
    join_delay: SimDuration,
    probe_interval: SimDuration,
    /// Missed-probe counters aligned index-for-index with `known_cache`
    /// (rebuilt together); the per-heartbeat probe loop walks both arrays
    /// with no map lookups. `u32::MAX` marks "acked since last probe".
    probe_counters: Vec<u32>,
    /// Nodes heard from (probe or ack) since the counters were last
    /// walked. Fresh evidence both clears the missed counter and
    /// suppresses this round's probe to that node — any contact proves
    /// liveness, so symmetric heartbeat pairs collapse to one probe/ack
    /// exchange per interval (SWIM-style suppression), at the cost of at
    /// most one extra heartbeat interval of detection latency for a node
    /// that dies right after making contact.
    acked_since: FnvHashMap<u32, ()>,
    /// Cached `known()` result; rebuilt only after the routing state
    /// changes (the probe loop reads it every heartbeat).
    known_cache: Vec<KeyedNode>,
    known_dirty: bool,
    /// Digest of the last leaf-set gossip learned per neighbour: at steady
    /// state every ack repeats the same list, and re-learning it is the
    /// hottest no-op in large settled overlays.
    acked_gossip: FnvHashMap<u32, u64>,
    /// Admission + suspicion plane (None = legacy three-strikes detection).
    governor: Option<Governor<P>>,
    /// The governor's jitter seed, kept to rebuild fresh state on restart.
    gov_seed: Option<u64>,
    /// Join attempt sequence; stamped into JOIN timer tags so a backoff
    /// retry invalidates the fixed-interval fallback timer (and vice
    /// versa).
    join_attempt: u64,
    /// Peers declared dead (probe exhaustion or circuit eviction) since
    /// the embedder last drained [`take_failed`](Self::take_failed).
    /// Embedding layers hold state keyed by peer — replica location maps,
    /// placement holder sets — that silently rots when a peer crashes;
    /// this is the notification channel that lets them purge it.
    failed_peers: Vec<NodeIndex>,
}

impl<P: Clone> OverlayNode<P> {
    /// Creates a node with identifier `key` on physical node `node`.
    ///
    /// `bootstrap` is the physical node to join through (`None` for the
    /// first node of the ring). `join_delay` staggers joins so the ring
    /// forms incrementally.
    pub fn new(
        key: Key,
        node: NodeIndex,
        bootstrap: Option<NodeIndex>,
        join_delay: SimDuration,
    ) -> Self {
        let me = KeyedNode::new(key, node);
        OverlayNode {
            me,
            table: RoutingTable::new(key),
            leaves: LeafSet::new(key, 8),
            joined: bootstrap.is_none(),
            bootstrap,
            join_delay,
            probe_interval: SimDuration::from_secs(5),
            probe_counters: Vec::new(),
            acked_since: FnvHashMap::default(),
            known_cache: Vec::new(),
            known_dirty: false,
            acked_gossip: FnvHashMap::default(),
            governor: None,
            gov_seed: None,
            join_attempt: 0,
            failed_peers: Vec::new(),
        }
    }

    /// Sets the leaf-set heartbeat interval.
    pub fn with_probe_interval(mut self, interval: SimDuration) -> Self {
        self.probe_interval = interval;
        self
    }

    /// Installs the admission + suspicion governor (call after
    /// [`with_probe_interval`](Self::with_probe_interval): the suspicion
    /// phi scale follows the probe cadence). `seed` drives the backoff
    /// jitter stream; derive it from the world seed and the node index so
    /// every node jitters independently but deterministically.
    pub fn with_governor(mut self, seed: u64) -> Self {
        self.governor = Some(Governor::new(self.probe_interval, seed));
        self.gov_seed = Some(seed);
        self
    }

    /// Builds the `n` nodes of a ring that forms incrementally, as every
    /// harness over the overlay starts one: node 0 is the bootstrap and
    /// node `i` joins through a random earlier node (one `rng` draw each,
    /// in index order) `i` × [`JOIN_STAGGER`] after the start. Keys hash
    /// `{label}{i}-{seed}`, leaf sets are probed every 5 s, and when
    /// `governed` (`false` = legacy three-strikes failure detection, no
    /// admission control) every node gets a jitter seed of its own.
    pub fn ring(label: &str, n: usize, seed: u64, rng: &mut SimRng, governed: bool) -> Vec<Self> {
        (0..n)
            .map(|i| {
                let key = Key::hash_of(format!("{label}{i}-{seed}").as_bytes());
                let (bootstrap, delay) = if i == 0 {
                    (None, SimDuration::ZERO)
                } else {
                    let b = NodeIndex(rng.index(i) as u32);
                    (Some(b), JOIN_STAGGER * i as u64)
                };
                let node = OverlayNode::new(key, NodeIndex(i as u32), bootstrap, delay)
                    .with_probe_interval(SimDuration::from_secs(5));
                if governed {
                    // Deterministic, but no two nodes share a backoff
                    // stream.
                    node.with_governor(seed ^ ((i as u64) << 17))
                } else {
                    node
                }
            })
            .collect()
    }

    /// Whether the governor plane is active.
    pub fn governed(&self) -> bool {
        self.governor.is_some()
    }

    /// The suspicion tracker, when the governor is installed (for harness
    /// assertions and embedders).
    pub fn suspicion(&self) -> Option<&SuspicionTracker> {
        self.governor.as_ref().map(|g| &g.suspicion)
    }

    /// This node's key and address.
    pub fn id(&self) -> KeyedNode {
        self.me
    }

    /// Whether the node has completed its join.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The current leaf set members.
    pub fn leaf_members(&self) -> &[KeyedNode] {
        self.leaves.members()
    }

    /// Leaf set members whose circuit allows replica placement (all of
    /// them when no governor is installed). Placement is stricter than
    /// routing: half-open peers carry trial traffic but do not receive
    /// new replicas.
    pub fn usable_leaf_members(&self) -> Vec<KeyedNode> {
        match &self.governor {
            None => self.leaf_members().to_vec(),
            Some(g) => self
                .leaves
                .members()
                .iter()
                .copied()
                .filter(|m| g.suspicion.allows_placement(m.node))
                .collect(),
        }
    }

    /// Whether routing may currently use `node` as a hop.
    fn peer_usable(&self, node: NodeIndex) -> bool {
        self.governor.as_ref().is_none_or(|g| g.suspicion.allows_routing(node))
    }

    /// Every node this node knows about.
    pub fn known(&self) -> Vec<KeyedNode> {
        let mut all = self.table.entries();
        for m in self.leaves.members() {
            if !all.iter().any(|e| e.key == m.key) {
                all.push(*m);
            }
        }
        all
    }

    /// The cached `known()` set, rebuilt only after routing-state changes.
    /// The missed-probe counters move with it (keyed rebuild).
    fn known_refreshed(&mut self) -> &[KeyedNode] {
        if self.known_dirty {
            let old: FnvHashMap<u32, u32> = self
                .known_cache
                .iter()
                .zip(&self.probe_counters)
                .map(|(k, c)| (k.node.0, *c))
                .collect();
            self.known_cache = self.known();
            self.probe_counters =
                self.known_cache.iter().map(|k| old.get(&k.node.0).copied().unwrap_or(0)).collect();
            self.known_dirty = false;
        }
        &self.known_cache
    }

    fn reset_probe_counter(&mut self, from: NodeIndex) {
        self.acked_since.insert(from.0, ());
    }

    /// Incorporates a discovered node into the routing state. Evicted
    /// peers are ignored: gossip cannot re-introduce a banned node (the
    /// one readmission path is an explicit [`OverlayMsg::Join`], which is
    /// guarded by admission control).
    pub fn learn(&mut self, node: KeyedNode) {
        if let Some(g) = &self.governor {
            if g.suspicion.is_banned(node.node) {
                return;
            }
        }
        if node.key != self.me.key {
            let changed = self.table.offer(node) | self.leaves.offer(node);
            self.known_dirty |= changed;
        }
    }

    /// Handles a cold start (initial or post-crash): reset volatile state,
    /// arm timers, and begin joining if a bootstrap is configured.
    pub fn on_start(&mut self, out: &mut Outbox<OverlayMsg<P>>) {
        self.table = RoutingTable::new(self.me.key);
        self.leaves = LeafSet::new(self.me.key, 8);
        self.probe_counters.clear();
        self.acked_since.clear();
        self.known_cache.clear();
        self.known_dirty = false;
        self.acked_gossip.clear();
        if let Some(seed) = self.gov_seed {
            // A restarted node starts with a clean slate: suspicion scores
            // and bans describe the previous incarnation's world view.
            self.governor = Some(Governor::new(self.probe_interval, seed));
        }
        self.joined = self.bootstrap.is_none();
        self.join_attempt = 0;
        self.failed_peers.clear();
        if self.bootstrap.is_some() {
            out.timer(self.join_delay, timers::JOIN);
        }
        out.timer(self.probe_interval, timers::PROBE);
    }

    /// Handles a timer fire for one of [`timers`]' tags (high bits may
    /// carry a join attempt sequence).
    pub fn on_timer(&mut self, now: SimTime, tag: u64, out: &mut Outbox<OverlayMsg<P>>) {
        let seq = tag >> 32;
        match tag & 0xffff_ffff {
            timers::JOIN if !self.joined => {
                // A stale timer: a JoinRetry backoff (or a newer fallback)
                // superseded this attempt.
                if seq != self.join_attempt {
                    return;
                }
                if let Some(b) = self.bootstrap {
                    out.send(b, OverlayMsg::Join { joiner: self.me });
                    // Retry until JoinDone (or a JoinRetry backoff)
                    // arrives. Governed joiners retry on the admission
                    // plane's exponential-with-jitter schedule (capped at
                    // max_backoff), so a joiner cut off from its
                    // bootstrap re-completes quickly once connectivity
                    // returns; the ungoverned fallback is a blind fixed
                    // interval.
                    let attempt = self.join_attempt as u32;
                    let fallback = match &mut self.governor {
                        Some(g) => g.admission.retry_backoff(attempt),
                        None => self.probe_interval * 4,
                    };
                    self.join_attempt += 1;
                    out.timer(fallback, timers::JOIN | (self.join_attempt << 32));
                }
            }
            timers::PROBE => {
                // Probe everything we know (leaves *and* routing table):
                // stale table entries would otherwise silently eat routed
                // messages after a crash.
                self.known_refreshed();
                let mut dead: Vec<NodeIndex> = Vec::new();
                let mut abandoned = Vec::new();
                if self.governor.is_some() {
                    abandoned = self.governed_probe_round(now, &mut dead, out);
                } else {
                    let drain_acks = !self.acked_since.is_empty();
                    for i in 0..self.known_cache.len() {
                        let target = self.known_cache[i].node;
                        if drain_acks && self.acked_since.remove(&target.0).is_some() {
                            // Heard from this node since the last
                            // heartbeat: it is alive, skip this round's
                            // probe.
                            self.probe_counters[i] = 0;
                            continue;
                        }
                        if self.probe_counters[i] >= PROBE_DEATH {
                            dead.push(target);
                        } else {
                            self.probe_counters[i] += 1;
                            out.send(target, OverlayMsg::Probe);
                        }
                    }
                }
                self.acked_since.clear();
                for d in dead {
                    self.handle_failure(d, out);
                }
                // Give abandoned payloads a second life now that evicted
                // peers are gone and opened circuits divert routing.
                for (target, payload, origin, hops) in abandoned {
                    self.reroute(target, payload, origin, hops, out);
                }
                out.timer(self.probe_interval, timers::PROBE);
            }
            _ => {}
        }
    }

    /// One probe round under the governor: expire outstanding forward
    /// acks into conduct evidence, feed probe contact/timeout evidence,
    /// and gate probes on each peer's circuit state. Peers whose circuit
    /// exhausts its half-open trials land in `dead`.
    fn governed_probe_round(
        &mut self,
        now: SimTime,
        dead: &mut Vec<NodeIndex>,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> PendingForwards<P> {
        let g = self.governor.as_mut().expect("caller checked");
        // Forwards that went unacknowledged for a whole probe interval are
        // conduct evidence (an honest peer acks within a round trip). The
        // abandoned payloads themselves are returned to the caller, which
        // re-routes them once failure handling has settled the circuit
        // state. Sorted: hash-map iteration order must not influence the
        // schedule.
        let mut outstanding: Vec<(u32, PendingForwards<P>)> = g.pending_acks.drain().collect();
        outstanding.sort_unstable_by_key(|(peer, _)| *peer);
        let mut abandoned = Vec::new();
        for (peer, pending) in outstanding {
            let target = NodeIndex(peer);
            match g.suspicion.on_forward_unacked(now, target) {
                SuspicionVerdict::Opened => {
                    out.count("overlay.suspected", 1.0);
                    out.trace("overlay.suspect", format!("conduct:{peer}"));
                }
                SuspicionVerdict::Evict => dead.push(target),
                _ => {}
            }
            abandoned.extend(pending);
        }
        let drain_acks = !self.acked_since.is_empty();
        for i in 0..self.known_cache.len() {
            let target = self.known_cache[i].node;
            if dead.contains(&target) {
                continue;
            }
            if drain_acks && self.acked_since.remove(&target.0).is_some() {
                self.probe_counters[i] = 0;
                if g.suspicion.on_contact(now, target) == SuspicionVerdict::Refuted {
                    out.count("overlay.refutations", 1.0);
                }
                // Contact alone cannot re-close a conduct-opened circuit,
                // but its cooldown must still elapse into the half-open
                // trial — that trial (routing forwards to the peer again)
                // is what decides between refutation and eviction for an
                // ack-then-drop peer.
                let _ = g.suspicion.probe_decision(now, target);
                continue;
            }
            if self.probe_counters[i] > 0 {
                // The previous round's probe went unanswered.
                match g.suspicion.on_probe_timeout(now, target) {
                    SuspicionVerdict::Opened => {
                        out.count("overlay.suspected", 1.0);
                        out.trace("overlay.suspect", format!("liveness:{}", target.0));
                    }
                    SuspicionVerdict::Evict => {
                        dead.push(target);
                        continue;
                    }
                    _ => {}
                }
            }
            match g.suspicion.probe_decision(now, target) {
                ProbeDecision::Skip => {}
                ProbeDecision::Probe => {
                    self.probe_counters[i] = self.probe_counters[i].saturating_add(1);
                    out.send(target, OverlayMsg::Probe);
                }
            }
        }
        abandoned
    }

    /// Re-routes a payload whose forward went unacknowledged. The next
    /// hop is re-chosen under the *current* circuit state, so a payload
    /// abandoned by a suspected peer detours around it; if this node is
    /// now the best usable destination, the payload is looped back to
    /// itself as a message so the delivery surfaces through the normal
    /// [`handle`](Self::handle) path.
    fn reroute(
        &mut self,
        target: Key,
        payload: P,
        origin: NodeIndex,
        hops: u32,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        out.count("overlay.reroutes", 1.0);
        match self.next_hop(target) {
            None => {
                out.send(self.me.node, OverlayMsg::Route { target, payload, origin, hops });
            }
            Some(hop) => self.forward(hop.node, target, payload, origin, hops, out),
        }
    }

    /// Sends a routed payload one hop on — under the governor, entered
    /// first in the ledger of forwards awaiting their
    /// [`OverlayMsg::RouteAck`].
    fn forward(
        &mut self,
        hop: NodeIndex,
        target: Key,
        payload: P,
        origin: NodeIndex,
        hops: u32,
        out: &mut Outbox<OverlayMsg<P>>,
    ) {
        if let Some(g) = &mut self.governor {
            g.pending_acks.entry(hop.0).or_default().push((target, payload.clone(), origin, hops));
        }
        out.send(hop, OverlayMsg::Route { target, payload, origin, hops: hops + 1 });
    }

    /// Dead peers detected since the last call (probe exhaustion or
    /// circuit eviction), in detection order. Embedders drain this after
    /// every [`on_timer`](Self::on_timer)/[`handle`](Self::handle) call
    /// to purge peer-keyed state (the storage layer's replica location
    /// maps are the canonical customer).
    pub fn take_failed(&mut self) -> Vec<NodeIndex> {
        std::mem::take(&mut self.failed_peers)
    }

    /// Declares `node` dead on external evidence (an embedder's own
    /// fault detector, an operator action): same state purge and leaf
    /// repair as a probe-exhaustion detection, and `node` appears in the
    /// next [`take_failed`](Self::take_failed) drain.
    pub fn declare_failed(&mut self, node: NodeIndex, out: &mut Outbox<OverlayMsg<P>>) {
        self.handle_failure(node, out);
    }

    fn handle_failure(&mut self, node: NodeIndex, out: &mut Outbox<OverlayMsg<P>>) {
        self.failed_peers.push(node);
        self.acked_since.remove(&node.0);
        if let Some(g) = &mut self.governor {
            g.suspicion.evict(node);
            g.pending_acks.remove(&node.0);
            out.count("overlay.evictions", 1.0);
            out.trace("overlay.evict", node.0.to_string());
        }
        let in_leaves = self.leaves.remove_node(node);
        let in_table = self.table.remove_node(node) > 0;
        self.known_dirty |= in_leaves || in_table;
        out.count("overlay.failures_detected", 1.0);
        if in_leaves {
            // Repair the leaf set from the survivors.
            for m in self.leaves.members() {
                out.send(m.node, OverlayMsg::LeafSetRequest);
            }
        }
    }

    /// Handles a protocol message; returns payloads delivered here.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: OverlayMsg<P>,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Vec<Delivery<P>> {
        match msg {
            OverlayMsg::Join { joiner } => {
                // Admission control applies at the ingress node (the one
                // the joiner contacted directly); forwarded joins already
                // paid at the door.
                if let Some(g) = &mut self.governor {
                    if from != joiner.node {
                        g.suspicion.readmit(joiner.node);
                    } else {
                        match g.admission.check(now, joiner.node) {
                            Admission::Admit => {
                                // An explicit, admitted join is the one
                                // path back in for an evicted node: a
                                // restart means a new incarnation.
                                g.suspicion.readmit(joiner.node);
                            }
                            Admission::Backoff(after) => {
                                out.count("overlay.joins_rejected", 1.0);
                                out.send(joiner.node, OverlayMsg::JoinRetry { after });
                                return Vec::new();
                            }
                        }
                    }
                }
                // Send the joiner everything we know, then pass the join
                // along the route toward its key.
                let mut known = self.known();
                known.push(self.me);
                out.send(joiner.node, OverlayMsg::JoinInfo { known });
                match self.next_hop(joiner.key) {
                    Some(hop) if hop.node != joiner.node => {
                        out.send(hop.node, OverlayMsg::Join { joiner });
                    }
                    _ => {
                        out.send(
                            joiner.node,
                            OverlayMsg::JoinDone {
                                closest: self.me,
                                leaves: self.leaves.members_shared(),
                            },
                        );
                    }
                }
                self.learn(joiner);
                Vec::new()
            }
            OverlayMsg::JoinInfo { known } => {
                for k in known {
                    self.learn(k);
                }
                Vec::new()
            }
            OverlayMsg::JoinDone { closest, leaves } => {
                self.learn(closest);
                for l in leaves.iter().copied() {
                    self.learn(l);
                }
                if !self.joined {
                    self.joined = true;
                    out.count("overlay.joins_completed", 1.0);
                    for k in self.known() {
                        out.send(k.node, OverlayMsg::Announce { node: self.me });
                    }
                }
                Vec::new()
            }
            OverlayMsg::Announce { node } => {
                self.learn(node);
                out.send(node.node, OverlayMsg::AnnounceAck { node: self.me });
                Vec::new()
            }
            OverlayMsg::AnnounceAck { node } => {
                self.learn(node);
                Vec::new()
            }
            OverlayMsg::Route { target, payload, origin, hops } => {
                if self.governor.is_some() && from != self.me.node {
                    // Conduct evidence for the previous hop: we accepted
                    // the payload.
                    out.send(from, OverlayMsg::RouteAck);
                }
                self.route_step(target, payload, origin, hops, out).into_iter().collect()
            }
            OverlayMsg::RouteAck => {
                self.reset_probe_counter(from);
                if let Some(g) = &mut self.governor {
                    if let Some(pending) = g.pending_acks.get_mut(&from.0) {
                        // FIFO: acks arrive in forward order on a lossless
                        // link, and any ack is equal evidence of conduct.
                        if !pending.is_empty() {
                            pending.remove(0);
                        }
                        if pending.is_empty() {
                            g.pending_acks.remove(&from.0);
                        }
                    }
                    if g.suspicion.on_forward_acked(now, from) == SuspicionVerdict::Refuted {
                        out.count("overlay.refutations", 1.0);
                    }
                }
                Vec::new()
            }
            OverlayMsg::JoinRetry { after } => {
                if !self.joined {
                    out.count("overlay.join_backoff", 1.0);
                    // Supersede the pending fixed-interval retry with the
                    // governor's backoff.
                    self.join_attempt += 1;
                    out.timer(after, timers::JOIN | (self.join_attempt << 32));
                }
                Vec::new()
            }
            OverlayMsg::Probe => {
                // An incoming probe is itself liveness evidence.
                self.reset_probe_counter(from);
                out.send(
                    from,
                    OverlayMsg::ProbeAck {
                        leaves: self.leaves.members_shared(),
                        digest: self.leaves.digest(),
                    },
                );
                Vec::new()
            }
            OverlayMsg::ProbeAck { leaves, digest } => {
                self.reset_probe_counter(from);
                // Skip re-learning gossip we already absorbed from this
                // neighbour (learning is idempotent, so this is purely an
                // optimisation).
                if self.acked_gossip.get(&from.0) != Some(&digest) {
                    self.acked_gossip.insert(from.0, digest);
                    for l in leaves.iter().copied() {
                        self.learn(l);
                    }
                }
                Vec::new()
            }
            OverlayMsg::LeafSetRequest => {
                let mut leaves = self.leaves.members().to_vec();
                leaves.push(self.me);
                out.send(from, OverlayMsg::LeafSetReply { leaves: leaves.into() });
                Vec::new()
            }
            OverlayMsg::LeafSetReply { leaves } => {
                for l in leaves.iter().copied() {
                    self.learn(l);
                }
                Vec::new()
            }
        }
    }

    /// Originates a route from this node; returns the delivery if this
    /// node is itself the destination.
    pub fn route(
        &mut self,
        target: Key,
        payload: P,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<Delivery<P>> {
        let origin = self.me.node;
        self.route_step(target, payload, origin, 0, out)
    }

    /// The Pastry routing decision for `key`: `None` means this node is
    /// the destination.
    pub fn next_hop(&self, key: Key) -> Option<KeyedNode> {
        if key == self.me.key {
            return None;
        }
        // Final hops: within the leaf-set span, go numerically closest.
        if self.leaves.covers(key) {
            let closest = self.leaves.closest(key, self.me);
            if closest.key == self.me.key {
                return None;
            }
            if self.peer_usable(closest.node) {
                return Some(closest);
            }
            // The numerically closest leaf's circuit is open: deliver to
            // the closest *usable* leaf instead (or locally), exactly as
            // if the suspected peer had already been removed.
            let best = self
                .leaves
                .members()
                .iter()
                .copied()
                .filter(|m| self.peer_usable(m.node))
                .chain(std::iter::once(self.me))
                .min_by_key(|k| k.key.ring_distance(key))
                .expect("chain includes self");
            return if best.key == self.me.key { None } else { Some(best) };
        }
        // Prefix routing: advance the shared prefix by one digit.
        if let Some(hop) = self.table.next_hop(key) {
            if self.peer_usable(hop.node) {
                return Some(hop);
            }
        }
        // Rare case: no (usable) entry; take any known node strictly
        // closer with at least our prefix length. (Iterates the raw state
        // directly: a duplicate between table and leaves cannot change
        // the minimum.)
        let my_prefix = self.me.key.shared_prefix(key);
        let my_dist = self.me.key.ring_distance(key);
        self.table
            .entries()
            .into_iter()
            .chain(self.leaves.members().iter().copied())
            .filter(|k| {
                k.key.shared_prefix(key) >= my_prefix
                    && k.key.ring_distance(key) < my_dist
                    && self.peer_usable(k.node)
            })
            .min_by_key(|k| k.key.ring_distance(key))
    }

    fn route_step(
        &mut self,
        target: Key,
        payload: P,
        origin: NodeIndex,
        hops: u32,
        out: &mut Outbox<OverlayMsg<P>>,
    ) -> Option<Delivery<P>> {
        if hops >= MAX_HOPS {
            out.count("overlay.route_overflow", 1.0);
            return Some(Delivery { target, payload, origin, hops });
        }
        match self.next_hop(target) {
            None => {
                out.count("overlay.delivered", 1.0);
                out.observe("overlay.hops", hops as f64);
                Some(Delivery { target, payload, origin, hops })
            }
            Some(hop) => {
                self.forward(hop.node, target, payload, origin, hops, out);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeIndex {
        NodeIndex(i)
    }

    fn node(key: u128, idx: u32) -> OverlayNode<u64> {
        OverlayNode::new(Key(key), n(idx), None, SimDuration::ZERO)
    }

    #[test]
    fn ring_pins_keys_bootstraps_and_join_delays() {
        // Captured from the three hand-written loops this builder
        // replaced (`OverlayNetwork`, `StoreNetwork`, `ActiveArchitecture`
        // at seed 42, each with its own rng fork): key, bootstrap node.
        type Pinned = [(u128, Option<u32>); 8];
        const OVERLAY: Pinned = [
            (0x6b93d27157768c07ce5a2965d0fb51d6, None),
            (0x8f90708869ad9d3fee202c093299c220, Some(0)),
            (0x53c81b930c4e987ed25146b30b97da74, Some(1)),
            (0x932799a10e1c4da6f0cf4c07ea4f1f86, Some(0)),
            (0x4e610ea80f9db3c400bf57bc8c7f9546, Some(1)),
            (0xab975d5f10c20d37b1ab4169bc044da4, Some(2)),
            (0x3696e8e03eee78e3c0b97d5c8ffc6ffc, Some(2)),
            (0x1704513a6141fe5709bdfb3ee12d5121, Some(1)),
        ];
        const STORE: Pinned = [
            (0x80133501a63fad35b19d9c6bc3c32454, None),
            (0x1dbc88f4fa3aa0460a4faa76ec0dfafc, Some(0)),
            (0x3fbe84bb5b3d952a9acaf35d0ad2ea4e, Some(1)),
            (0x198f9f7f1f09fbf5133123ddbbca7bd8, Some(1)),
            (0xb789410e7b38f28086bed939330309cf, Some(1)),
            (0xf96730c50e47f1c303836347c3823c3b, Some(3)),
            (0x46342ed75d1147de839e87126615cf69, Some(0)),
            (0xad5f0fb6fd55484ea18b1ca0c315bccf, Some(5)),
        ];
        const GLOSS: Pinned = [
            (0xca5bea7e3af30be6a44c7aea46a75739, None),
            (0x3b2811462d5b664272d3e9c6a205a64d, Some(0)),
            (0x2de2aa2307c4e2cc903a998414cbf411, Some(1)),
            (0x462f38f36c48af80614a30b884fe4115, Some(1)),
            (0xe7bdbe3c8247d49b02496238e401f30b, Some(2)),
            (0x09d8a9a5df6da6c4b9d2eb6a51db8470, Some(1)),
            (0x20144d9b6f81d3dbec3cb3effb5133a6, Some(2)),
            (0x109a0301b27ed522c3d8db4bbcbf09f6, Some(4)),
        ];
        for (label, fork, pinned) in [
            ("overlay-node-", "overlay-net", OVERLAY),
            ("store-node-", "store-net", STORE),
            ("gloss-node-", "gloss-arch", GLOSS),
        ] {
            let mut rng = SimRng::new(42).fork(fork);
            let ring: Vec<OverlayNode<u64>> = OverlayNode::ring(label, 8, 42, &mut rng, true);
            assert_eq!(ring.len(), 8);
            for (i, (node, (key, bootstrap))) in ring.iter().zip(pinned).enumerate() {
                assert_eq!(node.me, KeyedNode::new(Key(key), n(i as u32)), "{label}{i}");
                assert_eq!(node.bootstrap, bootstrap.map(n), "{label}{i}");
                assert_eq!(node.join_delay, JOIN_STAGGER * i as u64, "{label}{i}");
                assert_eq!(node.probe_interval, SimDuration::from_secs(5));
                assert_eq!(node.gov_seed, Some(42 ^ ((i as u64) << 17)));
            }
        }
        // Ungoverned nodes draw the same.
        let mut rng = SimRng::new(42).fork("overlay-net");
        let ring: Vec<OverlayNode<u64>> =
            OverlayNode::ring("overlay-node-", 8, 42, &mut rng, false);
        assert!(ring.iter().all(|node| !node.governed()));
        assert_eq!(ring[7].bootstrap, Some(n(1)));
    }

    #[test]
    fn singleton_delivers_everything_to_itself() {
        let mut a = node(0x1000, 0);
        let mut out = Outbox::new();
        let d = a.route(Key(0xffff), 7, &mut out);
        assert!(d.is_some());
        assert_eq!(d.unwrap().hops, 0);
        assert!(out.sends().is_empty());
    }

    #[test]
    fn routes_toward_numerically_closest_known() {
        let mut a = node(0, 0);
        let far = KeyedNode::new(Key(8 << 120), n(1));
        a.learn(far);
        let mut out = Outbox::new();
        // Target right next to the far node: must forward there.
        let d = a.route(Key(8 << 120 | 5), 1, &mut out);
        assert!(d.is_none());
        assert_eq!(out.sends()[0].0, n(1));
    }

    #[test]
    fn keeps_local_when_self_is_closest() {
        let mut a = node(0, 0);
        a.learn(KeyedNode::new(Key(8 << 120), n(1)));
        let mut out = Outbox::new();
        let d = a.route(Key(3), 1, &mut out);
        assert!(d.is_some(), "self is numerically closest to 3");
    }

    #[test]
    fn join_done_triggers_announcements() {
        let mut joiner: OverlayNode<u64> =
            OverlayNode::new(Key(0x77), n(5), Some(n(0)), SimDuration::ZERO);
        let mut out = Outbox::new();
        joiner.on_start(&mut out);
        assert!(!joiner.is_joined());
        let mut out = Outbox::new();
        joiner.handle(
            SimTime::ZERO,
            n(0),
            OverlayMsg::JoinDone {
                closest: KeyedNode::new(Key(0x70), n(0)),
                leaves: vec![KeyedNode::new(Key(0x90), n(1))].into(),
            },
            &mut out,
        );
        assert!(joiner.is_joined());
        // Announces to both learned nodes.
        let targets: Vec<NodeIndex> = out.sends().iter().map(|(t, _, _)| *t).collect();
        assert!(targets.contains(&n(0)));
        assert!(targets.contains(&n(1)));
    }

    #[test]
    fn join_request_is_forwarded_or_answered() {
        // Closest node answers with JoinDone.
        let mut a = node(0x100, 0);
        let joiner = KeyedNode::new(Key(0x105), n(9));
        let mut out = Outbox::new();
        a.handle(SimTime::ZERO, n(9), OverlayMsg::Join { joiner }, &mut out);
        assert!(out
            .sends()
            .iter()
            .any(|(t, m, _)| *t == n(9) && matches!(m, OverlayMsg::JoinDone { .. })));
        // A node that knows someone closer forwards the join.
        let mut b = node(0, 1);
        b.learn(KeyedNode::new(Key(0x100), n(0)));
        let joiner2 = KeyedNode::new(Key(0x101), n(8));
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, n(8), OverlayMsg::Join { joiner: joiner2 }, &mut out);
        assert!(out
            .sends()
            .iter()
            .any(|(t, m, _)| *t == n(0) && matches!(m, OverlayMsg::Join { .. })));
    }

    #[test]
    fn probes_acknowledge_and_detect_death() {
        let mut a = node(0x100, 0);
        a.learn(KeyedNode::new(Key(0x110), n(1)));
        // Probe timer fires four times with no acks: node 1 declared dead.
        for _ in 0..=PROBE_DEATH {
            let mut out = Outbox::new();
            a.on_timer(SimTime::ZERO, timers::PROBE, &mut out);
        }
        assert!(a.leaf_members().is_empty());
        // An ack in between resets the counter.
        let mut b = node(0x100, 0);
        b.learn(KeyedNode::new(Key(0x110), n(1)));
        for _ in 0..10 {
            let mut out = Outbox::new();
            b.on_timer(SimTime::ZERO, timers::PROBE, &mut out);
            b.handle(
                SimTime::ZERO,
                n(1),
                OverlayMsg::ProbeAck { leaves: Vec::new().into(), digest: 0 },
                &mut out,
            );
        }
        assert_eq!(b.leaf_members().len(), 1);
    }

    #[test]
    fn probe_is_answered() {
        let mut a = node(0x1, 0);
        let mut out = Outbox::new();
        a.handle(SimTime::ZERO, n(3), OverlayMsg::Probe, &mut out);
        assert!(matches!(&out.sends()[0], (to, OverlayMsg::ProbeAck { .. }, _) if *to == n(3)));
    }

    #[test]
    fn leaf_set_request_reply_cycle() {
        let mut a = node(0x1, 0);
        a.learn(KeyedNode::new(Key(0x2), n(1)));
        let mut out = Outbox::new();
        a.handle(SimTime::ZERO, n(5), OverlayMsg::LeafSetRequest, &mut out);
        let (to, msg, _) = &out.sends()[0];
        assert_eq!(*to, n(5));
        match msg {
            OverlayMsg::LeafSetReply { leaves } => assert_eq!(leaves.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Receiving a reply teaches us the members.
        let mut b = node(0x9, 2);
        let mut out = Outbox::new();
        b.handle(
            SimTime::ZERO,
            n(0),
            OverlayMsg::LeafSetReply { leaves: vec![KeyedNode::new(Key(0x1), n(0))].into() },
            &mut out,
        );
        assert_eq!(b.leaf_members().len(), 1);
    }

    #[test]
    fn hop_overflow_delivers_locally() {
        let mut a = node(0, 0);
        a.learn(KeyedNode::new(Key(8 << 120), n(1)));
        let mut out = Outbox::new();
        let d = a.route_step(Key(8 << 120), 1, n(0), MAX_HOPS, &mut out);
        assert!(d.is_some());
    }

    fn gnode(key: u128, idx: u32, bootstrap: Option<NodeIndex>) -> OverlayNode<u64> {
        OverlayNode::new(Key(key), n(idx), bootstrap, SimDuration::ZERO).with_governor(7)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn admission_overflow_sends_join_retry() {
        let mut a = gnode(0x100, 0, None);
        // Burst of 8 ingress joins from one source prefix admitted, the
        // ninth pushed back with a backoff.
        for i in 1..=8 {
            let joiner = KeyedNode::new(Key(0x200 + i as u128), n(i));
            let mut out = Outbox::new();
            a.handle(SimTime::ZERO, n(i), OverlayMsg::Join { joiner }, &mut out);
            assert!(
                !out.sends().iter().any(|(_, m, _)| matches!(m, OverlayMsg::JoinRetry { .. })),
                "join {i} should be admitted"
            );
        }
        let joiner = KeyedNode::new(Key(0x300), n(9));
        let mut out = Outbox::new();
        a.handle(SimTime::ZERO, n(9), OverlayMsg::Join { joiner }, &mut out);
        assert!(
            out.sends()
                .iter()
                .any(|(to, m, _)| *to == n(9) && matches!(m, OverlayMsg::JoinRetry { .. })),
            "ninth join should be rejected with a backoff"
        );
        // Forwarded joins (from != joiner) are not re-charged.
        let joiner = KeyedNode::new(Key(0x400), n(10));
        let mut out = Outbox::new();
        a.handle(SimTime::ZERO, n(3), OverlayMsg::Join { joiner }, &mut out);
        assert!(!out.sends().iter().any(|(_, m, _)| matches!(m, OverlayMsg::JoinRetry { .. })));
    }

    #[test]
    fn join_retry_supersedes_pending_attempt() {
        let mut j = gnode(0x77, 5, Some(n(0)));
        let mut out = Outbox::new();
        j.on_start(&mut out);
        // First JOIN fire (seq 0): sends the join, arms fallback seq 1.
        let mut out = Outbox::new();
        j.on_timer(t(1), timers::JOIN, &mut out);
        assert!(out.sends().iter().any(|(_, m, _)| matches!(m, OverlayMsg::Join { .. })));
        let (_, fallback_tag) = out.timers()[0];
        assert_eq!(fallback_tag & 0xffff_ffff, timers::JOIN);
        assert_eq!(fallback_tag >> 32, 1);
        // A JoinRetry arrives: arms a backoff timer with seq 2.
        let mut out = Outbox::new();
        j.handle(
            t(1),
            n(0),
            OverlayMsg::JoinRetry { after: SimDuration::from_millis(700) },
            &mut out,
        );
        let (delay, retry_tag) = out.timers()[0];
        assert_eq!(delay, SimDuration::from_millis(700));
        assert_eq!(retry_tag >> 32, 2);
        // The stale fallback timer is now ignored...
        let mut out = Outbox::new();
        j.on_timer(t(2), fallback_tag, &mut out);
        assert!(out.sends().is_empty(), "superseded timer must not re-send the join");
        // ...while the backoff timer re-sends.
        let mut out = Outbox::new();
        j.on_timer(t(2), retry_tag, &mut out);
        assert!(out.sends().iter().any(|(_, m, _)| matches!(m, OverlayMsg::Join { .. })));
    }

    #[test]
    fn governed_silence_evicts_and_bans() {
        let mut a = gnode(0x100, 0, None);
        let peer = KeyedNode::new(Key(0x110), n(1));
        a.learn(peer);
        for k in 1..=12 {
            let mut out = Outbox::new();
            a.on_timer(t(5 * k), timers::PROBE, &mut out);
        }
        let g = a.suspicion().expect("governor installed");
        assert!(g.is_banned(n(1)), "silent peer should be evicted");
        assert!(a.leaf_members().is_empty());
        // Gossip cannot re-introduce the banned peer.
        a.learn(peer);
        assert!(a.leaf_members().is_empty());
        // An explicit admitted join can.
        let mut out = Outbox::new();
        a.handle(t(100), n(1), OverlayMsg::Join { joiner: peer }, &mut out);
        assert!(!a.suspicion().unwrap().is_banned(n(1)));
    }

    #[test]
    fn ack_then_drop_peer_is_evicted_despite_probe_contact() {
        let mut a = gnode(0x100, 0, None);
        let peer = KeyedNode::new(Key(8 << 120), n(1));
        a.learn(peer);
        let mut evicted_at = None;
        for k in 1..=30u64 {
            let now = t(5 * k);
            let mut out = Outbox::new();
            a.on_timer(now, timers::PROBE, &mut out);
            if a.suspicion().unwrap().is_banned(n(1)) {
                evicted_at = Some(now);
                break;
            }
            // The byzantine peer acks every probe (liveness looks fine)...
            a.handle(
                now,
                n(1),
                OverlayMsg::ProbeAck { leaves: Vec::new().into(), digest: 0 },
                &mut out,
            );
            // ...but never acks the payloads we forward to it.
            let mut out = Outbox::new();
            a.route(Key(8 << 120 | 1), k, &mut out);
        }
        assert!(evicted_at.is_some(), "conduct evidence should evict an ack-then-drop peer");
        // Liveness-only flapping would have been refuted; conduct was not.
        assert!(a.suspicion().unwrap().evicted >= 1);
    }

    #[test]
    fn open_circuit_diverts_routing() {
        let mut a = gnode(0x100, 0, None);
        let near = KeyedNode::new(Key(0x111), n(1));
        let far = KeyedNode::new(Key(0x140), n(2));
        a.learn(near);
        a.learn(far);
        // Silence from `near` until its circuit opens (but before
        // eviction).
        for k in 1..=6 {
            let mut out = Outbox::new();
            a.on_timer(t(5 * k), timers::PROBE, &mut out);
            // `far` stays healthy.
            a.handle(
                t(5 * k),
                n(2),
                OverlayMsg::ProbeAck { leaves: Vec::new().into(), digest: 0 },
                &mut out,
            );
            if a.suspicion().unwrap().state(n(1)) == gloss_governor::CircuitState::Open {
                break;
            }
        }
        assert_eq!(a.suspicion().unwrap().state(n(1)), gloss_governor::CircuitState::Open);
        // A key numerically closest to the suspected peer routes to the
        // next usable node instead.
        let hop = a.next_hop(Key(0x112));
        assert_ne!(hop.map(|h| h.node), Some(n(1)), "open circuit must not carry traffic");
        // Placement is stricter still: only closed circuits.
        assert!(a.usable_leaf_members().iter().all(|m| m.node != n(1)));
    }

    #[test]
    fn prefix_routing_uses_table() {
        let mut a = node(0, 0);
        // A node sharing no prefix, first digit 0xf.
        let hop = KeyedNode::new(Key(0xf << 124), n(3));
        a.learn(hop);
        // Force leaf set not to cover by targeting far away: with only one
        // known node the leaf set spans little of the ring... the target
        // shares the first digit with `hop`.
        let target = Key(0xf << 124 | 0xabc);
        assert_eq!(a.next_hop(target), Some(hop));
    }
}
