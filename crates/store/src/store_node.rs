//! The storelet: a storage node embedding an overlay node, implementing
//! PAST-style replication, promiscuous caching, self-healing, and the
//! placement policies.
//!
//! A lookup's life is three functions, each the only one of its kind.
//! `send_lookup` builds the routed payload and routes it, for the first
//! send and for every retry the `LOOKUP_RETRY` sweep makes: in flight it
//! enters the lookup in the ledger (`pending_lookups`) under its next
//! deadline, and when this node turns out to be the responsible one it
//! ends the lookup on the spot. `reply` is what a serving node sends
//! back — an en-route node intercepting with a fresh-enough copy, or the
//! responsible node with whatever it holds (`FetchReply`) or nothing
//! (`NotFound`). `conclude` is where every lookup ends at its issuer,
//! whichever way the answer came (own copy, reply message, retry budget
//! spent): it takes the ledger entry it ends, counts and observes, and
//! hands the outcome to the embedder once ([`StoreNode::take_concluded`])
//! or — for the repair pipeline's own audit lookups, which touch no
//! client counter — to the fragment audit. The ledger is the only record
//! of an open lookup: a reply whose request it no longer holds is a
//! duplicate, and each storelet keeps one retry timer, armed for the
//! ledger's earliest deadline. This file is also the only one that knows
//! the shape of a routed [`StorePayload`]: harnesses inject
//! [`StoreMsg::insert_via`] and [`StoreMsg::LocalLookup`].

use crate::cache::LruCache;
use crate::document::{Document, Priority};
use crate::erasure::ErasureCode;
use crate::placement::{
    plan_quota_targets, BackupPolicy, LatencyReductionPolicy, NodeCapacity, NodeSite,
};
use crate::repair::{FragmentManifest, RepairScheduler};
use gloss_governor::backoff::{exponential, jittered};
use gloss_overlay::{Delivery, Key, OverlayMsg, OverlayNode};
use gloss_sim::{splitmix64, NodeIndex, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Timer tags private to the storage layer (overlay tags pass through).
pub mod timers {
    /// Periodic replica audit (self-healing).
    pub const HEAL: u64 = 0x20;
    /// Repair pipeline scan (under-replication + fragment audits).
    pub const REPAIR: u64 = 0x21;
    /// One-shot sweep of lookup retry/timeout deadlines.
    pub const LOOKUP_RETRY: u64 = 0x22;
}

/// High bit marking request ids minted by the storage layer itself
/// (fragment audits); their outcomes feed the repair pipeline instead of
/// being handed to the embedder ([`StoreNode::take_concluded`]).
/// Embedder request ids must stay below this bit.
pub const INTERNAL_REQ_BIT: u64 = 1 << 63;

/// Payloads routed through the overlay.
#[derive(Debug, Clone, PartialEq)]
pub enum StorePayload {
    /// Store a document at the nodes responsible for its GUID.
    Insert {
        /// The document.
        doc: Document,
    },
    /// Find a document; the holder replies directly to `reply_to`.
    Lookup {
        /// The GUID sought.
        guid: Key,
        /// Where to send the reply.
        reply_to: NodeIndex,
        /// Correlation id (assigned by the requester).
        req_id: u64,
        /// Nodes the request has passed through (promiscuous caching
        /// pushes copies back along this path).
        path: LookupPath,
        /// Minimum acceptable `Document::version`. Cached copies below
        /// this floor neither satisfy the request locally nor intercept
        /// it en route; only the responsible node answers with whatever
        /// it holds. `0` preserves the classic any-copy behaviour.
        min_version: u64,
    },
}

/// How many of a lookup's path nodes its payload holds in place.
const PATH_IN_PLACE: usize = 4;

/// The nodes a lookup has passed through, in order. The first four live
/// in the payload itself, so a lookup routed over no more nodes than
/// that carries its path, and the copy every forward keeps, with no
/// allocation; a longer route spills the rest into a `Vec`, boxed so
/// that a payload holding a path is no larger than one holding a bare
/// `Vec`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LookupPath {
    len: u32,
    in_place: [NodeIndex; PATH_IN_PLACE],
    // Boxed to be one pointer wide: a bare `Vec` here would grow every
    // routed payload, and a spill is rare.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<NodeIndex>>>,
}

impl LookupPath {
    /// Appends `node`.
    pub fn push(&mut self, node: NodeIndex) {
        match self.in_place.get_mut(self.len as usize) {
            Some(slot) => *slot = node,
            None => self.spill.get_or_insert_default().push(node),
        }
        self.len += 1;
    }

    /// The nodes, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        let in_place = &self.in_place[..(self.len as usize).min(PATH_IN_PLACE)];
        in_place.iter().chain(self.spill.iter().flat_map(|v| v.iter())).copied()
    }
}

impl FromIterator<NodeIndex> for LookupPath {
    fn from_iter<I: IntoIterator<Item = NodeIndex>>(nodes: I) -> Self {
        let mut path = LookupPath::default();
        for node in nodes {
            path.push(node);
        }
        path
    }
}

/// Messages of the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreMsg {
    /// Overlay protocol traffic (join, routing, probes) carrying
    /// [`StorePayload`]s.
    Overlay(OverlayMsg<StorePayload>),
    /// Push a durable replica (idempotent; receivers keep the highest
    /// version). Answered with a [`StoreMsg::ReplicaPutAck`].
    ReplicaPut {
        /// The document.
        doc: Document,
    },
    /// Answer to a [`StoreMsg::ReplicaPut`]: whether the receiver kept
    /// the replica, and its current durable usage — the capacity gossip
    /// that feeds the sender's quota-aware placement planner.
    ReplicaPutAck {
        /// The document acknowledged.
        guid: Key,
        /// Whether the replica was (or already is) durably stored; a
        /// refusal means the receiver's quota is exhausted and the
        /// sender should place elsewhere.
        accepted: bool,
        /// The receiver's durable bytes after handling the put.
        used_bytes: u64,
    },
    /// Push a cached copy (promiscuous caching; evictable).
    CachePush {
        /// The document.
        doc: Document,
    },
    /// Audit: does the receiver hold a replica of `guid` at `version`?
    HaveReplica {
        /// The GUID audited.
        guid: Key,
        /// The auditor's version.
        version: u64,
    },
    /// Audit answer; `false` triggers a [`StoreMsg::ReplicaPut`].
    HaveReplicaAck {
        /// The GUID audited.
        guid: Key,
        /// Whether the responder holds it (at `version` or newer).
        have: bool,
    },
    /// Successful lookup reply, sent directly to the requester.
    FetchReply {
        /// Correlation id.
        req_id: u64,
        /// The document found.
        doc: Document,
        /// Whether it was served from a cache (vs a durable replica).
        from_cache: bool,
        /// Overlay hops the request travelled before being served.
        hops: u32,
    },
    /// The responsible node does not hold the document.
    NotFound {
        /// Correlation id.
        req_id: u64,
    },
    /// Harness request: originate a lookup from this node through the
    /// client path every lookup takes — local fast path, routing, and
    /// the retry / backoff plane. Its outcome is handed over once,
    /// through [`StoreNode::take_concluded`], under `req_id`.
    LocalLookup {
        /// The GUID to look up.
        guid: Key,
        /// Correlation id (below [`INTERNAL_REQ_BIT`]).
        req_id: u64,
    },
}

impl StoreMsg {
    /// What a harness injects at `via` (as a message from `via` to
    /// itself) to insert `doc` from there.
    pub fn insert_via(via: NodeIndex, doc: Document) -> Self {
        let (target, payload) = (doc.guid, StorePayload::Insert { doc });
        StoreMsg::Overlay(OverlayMsg::Route { target, payload, origin: via, hops: 0 })
    }
}

/// The outcome of a lookup, handed to the embedder of the node that issued it.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupOutcome {
    /// The GUID sought.
    pub guid: Key,
    /// The document, if found.
    pub doc: Option<Document>,
    /// Request-to-reply latency.
    pub latency: SimDuration,
    /// Whether a cache served it.
    pub from_cache: bool,
    /// Overlay hops travelled by the request.
    pub hops: u32,
}

/// Storage layer configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Replication factor `k` (primary + `k − 1` replicas).
    pub replicas: usize,
    /// Enable promiscuous caching.
    pub cache_enabled: bool,
    /// How often each node audits the documents it is primary for.
    pub heal_interval: SimDuration,
    /// Latency-reduction policy: replicate into a region after this many
    /// reads from it (`None` = off).
    pub latency_policy_threshold: Option<u64>,
    /// Backup policy: minimum distance (km) for the creation-time remote
    /// replica (`None` = off).
    pub backup_policy_min_km: Option<f64>,
    /// Sustained repair transfers per second a node will initiate.
    pub repair_rate_per_sec: f64,
    /// Repair transfer burst (token-bucket capacity).
    pub repair_burst: f64,
}

/// Per-node promiscuous-cache capacity in bytes.
const CACHE_CAPACITY: usize = 1 << 20;
/// Extra replicas for [`Priority::High`] documents.
pub(crate) const TIER_HIGH_EXTRA: usize = 1;
/// Replicas trimmed from [`Priority::Low`] documents (floored at 1).
const TIER_LOW_CUT: usize = 1;
/// Retries for an unanswered lookup before reporting a timeout.
const LOOKUP_RETRIES: u32 = 3;
/// Outstanding repair transfers allowed per target peer.
const REPAIR_INFLIGHT_PER_PEER: usize = 2;
/// Repair pipeline scan cadence (per-node jitter of ±25% is applied to
/// each tick).
const REPAIR_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Base per-attempt lookup deadline; doubles each retry, jittered ±25% so
/// synchronised readers do not re-storm a recovering node.
const LOOKUP_TIMEOUT: SimDuration = SimDuration::from_secs(2);

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            replicas: 3,
            cache_enabled: true,
            heal_interval: SimDuration::from_secs(30),
            latency_policy_threshold: None,
            backup_policy_min_km: None,
            repair_rate_per_sec: 8.0,
            repair_burst: 4.0,
        }
    }
}

/// A lookup this node issued and has not yet seen answered, as the
/// ledger holds it: the retry plane re-routes it when its deadline lapses
/// and reports a timeout outcome once the attempt budget is spent.
#[derive(Debug, Clone, Copy)]
struct PendingLookup {
    guid: Key,
    min_version: u64,
    issued_at: SimTime,
    attempts: u32,
    deadline: SimTime,
}

/// How a lookup ended, as `conclude` is told it.
#[derive(Debug)]
enum Answer {
    /// A copy of the document.
    Copy {
        doc: Document,
        /// Whether a cache served it (vs a durable replica).
        from_cache: bool,
        /// Overlay hops the request travelled before being served;
        /// `None` when this node served itself without a reply message.
        hops: Option<u32>,
    },
    /// The responsible node does not hold the document.
    Missing,
    /// The retry budget was spent with no reply.
    TimedOut,
}

/// An in-flight fragment audit: one internal lookup per shard; once all
/// resolve, missing shards are re-encoded from the survivors.
#[derive(Debug, Clone)]
struct FragmentRepair {
    manifest: FragmentManifest,
    priority: Priority,
    /// Outstanding internal request id → shard index.
    pending: BTreeMap<u64, usize>,
    found: BTreeMap<usize, Vec<u8>>,
    missing: BTreeSet<usize>,
}

/// A storage node (storelet) embedding an overlay node.
#[derive(Debug)]
pub struct StoreNode {
    me: NodeIndex,
    overlay: OverlayNode<StorePayload>,
    /// The overlay's send buffer, lent to every [`Outbox::nested`] call
    /// into it and handed back empty, so its capacity is reused.
    overlay_sends: Vec<(NodeIndex, OverlayMsg<StorePayload>)>,
    cfg: StoreConfig,
    store: BTreeMap<Key, Document>,
    cache: LruCache,
    directory: Vec<NodeSite>,
    latency_policy: Option<LatencyReductionPolicy>,
    backup_policy: Option<BackupPolicy>,
    /// Nodes we have pushed policy replicas of each doc to.
    policy_holders: BTreeMap<Key, BTreeSet<NodeIndex>>,
    /// Durable bytes stored locally (replicas + primaries).
    used: u64,
    /// Last advertised durable usage of each peer (from
    /// [`StoreMsg::ReplicaPutAck`]s); feeds the placement planner.
    peer_used: BTreeMap<NodeIndex, u64>,
    /// Where the replicas of each document this node is primary for are
    /// known (acknowledged) to live. Purged when the overlay declares a
    /// holder dead; the repair scan replaces the lost copies.
    replica_locations: BTreeMap<Key, BTreeSet<NodeIndex>>,
    /// The ledger: every open lookup, by request id, and nothing else.
    pending_lookups: BTreeMap<u64, PendingLookup>,
    /// The instant the one armed `LOOKUP_RETRY` timer falls due, if one
    /// is armed: the ledger's earliest deadline when it was armed.
    retry_armed: Option<SimTime>,
    /// Embedder lookups concluded since the embedder last took them.
    concluded: Vec<(u64, LookupOutcome)>,
    /// Fragment audits in flight, by manifest GUID.
    repairs: BTreeMap<Key, FragmentRepair>,
    /// Anti-storm pacing for repair traffic.
    scheduler: RepairScheduler,
    /// Internal request id counter (fragment audits).
    internal_req: u64,
    /// Private jitter stream (retry deadlines).
    rng: u64,
}

impl StoreNode {
    /// Creates a storage node wrapping `overlay`, with `directory`
    /// describing all nodes' locations (used by placement policies).
    pub fn new(
        me: NodeIndex,
        overlay: OverlayNode<StorePayload>,
        cfg: StoreConfig,
        directory: Vec<NodeSite>,
    ) -> Self {
        let cache = LruCache::new(CACHE_CAPACITY);
        let latency_policy = cfg.latency_policy_threshold.map(LatencyReductionPolicy::new);
        let backup_policy = cfg.backup_policy_min_km.map(BackupPolicy::new);
        let key = overlay.id().key.0;
        let mut rng = (key as u64) ^ ((key >> 64) as u64) ^ ((me.0 as u64) << 32);
        splitmix64(&mut rng);
        let scheduler = RepairScheduler::new(
            cfg.repair_rate_per_sec,
            cfg.repair_burst,
            REPAIR_INFLIGHT_PER_PEER,
            rng,
        );
        StoreNode {
            me,
            overlay,
            overlay_sends: Vec::new(),
            cfg,
            store: BTreeMap::new(),
            cache,
            directory,
            latency_policy,
            backup_policy,
            policy_holders: BTreeMap::new(),
            used: 0,
            peer_used: BTreeMap::new(),
            replica_locations: BTreeMap::new(),
            pending_lookups: BTreeMap::new(),
            retry_armed: None,
            concluded: Vec::new(),
            repairs: BTreeMap::new(),
            scheduler,
            internal_req: 0,
            rng,
        }
    }

    /// This node's index.
    pub fn index(&self) -> NodeIndex {
        self.me
    }

    /// The embedded overlay node.
    pub fn overlay(&self) -> &OverlayNode<StorePayload> {
        &self.overlay
    }

    /// Whether this node durably stores `guid`.
    pub fn holds(&self, guid: Key) -> bool {
        self.store.contains_key(&guid)
    }

    /// Whether this node has `guid` cached.
    #[cfg(test)]
    fn has_cached(&self, guid: Key) -> bool {
        self.cache.contains(guid)
    }

    /// Durable bytes stored locally.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// This node's advertised capacity (directory entry, or the default
    /// profile when the deployment layer did not describe it).
    pub fn capacity(&self) -> NodeCapacity {
        self.site_of(self.me).map(|s| s.capacity).unwrap_or_default()
    }

    /// Acknowledged replica holders of `guid` (primary-side knowledge).
    #[cfg(test)]
    pub(crate) fn known_replicas(&self, guid: Key) -> usize {
        self.replica_locations.get(&guid).map_or(0, BTreeSet::len)
    }

    /// The replica target for a document of the given tier.
    pub fn target_replicas(&self, p: Priority) -> usize {
        match p {
            Priority::High => self.cfg.replicas + TIER_HIGH_EXTRA,
            Priority::Normal => self.cfg.replicas,
            Priority::Low => self.cfg.replicas.saturating_sub(TIER_LOW_CUT).max(1),
        }
    }

    /// Cold start (and recovery): reset overlay state, arm the periodic
    /// timers, and watch the ledger's first deadline still ahead. A
    /// retry timer that fell due while this node was down never fired,
    /// so it is no longer armed; the lookups it watched are swept with
    /// the next deadline.
    pub fn on_start(&mut self, now: SimTime, out: &mut Outbox<StoreMsg>) {
        out.nested(&mut self.overlay_sends, None, StoreMsg::Overlay, |oout| {
            self.overlay.on_start(oout)
        });
        out.timer(self.cfg.heal_interval, timers::HEAL);
        // Jittered per node so regional crashes do not produce a
        // synchronised wall of repair scans.
        let delay = self.scheduler.backoff(REPAIR_INTERVAL);
        out.timer(delay, timers::REPAIR);
        self.retry_armed = self.retry_armed.filter(|at| *at >= now);
        let next = self.pending_lookups.values().map(|p| p.deadline).filter(|d| *d >= now).min();
        if let Some(deadline) = next {
            self.arm_retry(deadline, now, out);
        }
    }

    /// Timer dispatch (overlay tags pass through; `HEAL` audits replicas,
    /// `REPAIR` runs the self-healing scan, `LOOKUP_RETRY` sweeps lookup
    /// deadlines).
    pub fn on_timer(&mut self, now: SimTime, tag: u64, out: &mut Outbox<StoreMsg>) {
        match tag {
            timers::HEAL => {
                self.heal(out);
                out.timer(self.cfg.heal_interval, timers::HEAL);
            }
            timers::REPAIR => {
                self.repair_tick(now, out);
                let delay = self.scheduler.backoff(REPAIR_INTERVAL);
                out.timer(delay, timers::REPAIR);
            }
            timers::LOOKUP_RETRY => self.retry_sweep(now, out),
            _ => {
                out.nested(&mut self.overlay_sends, None, StoreMsg::Overlay, |oout| {
                    self.overlay.on_timer(now, tag, oout)
                });
                self.drain_failures(out);
            }
        }
    }

    /// Whether this node believes it is the primary for `guid` (closest
    /// among itself and its leaf set).
    pub fn is_primary_for(&self, guid: Key) -> bool {
        let my_d = self.overlay.id().key.ring_distance(guid);
        self.overlay.leaf_members().iter().all(|m| m.key.ring_distance(guid) >= my_d)
    }

    /// The `k − 1` leaf-set members numerically closest to `guid` (the
    /// desired replica holders besides the primary). Suspected peers are
    /// excluded — replicas placed on a node with an open circuit would be
    /// unreachable exactly when they are needed. (`is_primary_for` stays
    /// on the full leaf set: primaryship is about ring position, and a
    /// suspected-but-alive closer neighbour must still suppress us.)
    ///
    /// Closest first, ties in leaf-set order — a stable sort of the
    /// usable members by ring distance, then the first `k − 1` — picked
    /// by successive minima of `(distance, leaf position)`, with nothing
    /// allocated.
    fn replica_targets(&self, guid: Key) -> impl Iterator<Item = NodeIndex> + '_ {
        let members = self.overlay.leaf_members();
        let closest_after = move |last: Option<(u128, usize)>| {
            members
                .iter()
                .enumerate()
                .filter(|(_, m)| self.overlay.allows_placement(m.node))
                .map(|(i, m)| (m.key.ring_distance(guid), i))
                .filter(|c| last.is_none_or(|last| *c > last))
                .min()
        };
        std::iter::successors(closest_after(None), move |last| closest_after(Some(*last)))
            .take(self.cfg.replicas.saturating_sub(1))
            .map(|(_, i)| members[i].node)
    }

    fn heal(&self, out: &mut Outbox<StoreMsg>) {
        for (&guid, doc) in &self.store {
            if !self.is_primary_for(guid) {
                continue;
            }
            for target in self.replica_targets(guid) {
                out.send(target, StoreMsg::HaveReplica { guid, version: doc.version });
            }
        }
    }

    /// Plans `want` more replica holders for `doc`, which this node and
    /// `holders` already hold: the quota planner re-ranks the ring-closest
    /// usable leaf members by advertised capacity and region diversity,
    /// the regions of the present holders counting as covered.
    fn plan_replicas(
        &self,
        doc: &Document,
        want: usize,
        holders: &BTreeSet<NodeIndex>,
    ) -> Vec<NodeIndex> {
        let mut members = self.overlay.usable_leaf_members();
        members.sort_by_key(|m| m.key.ring_distance(doc.guid));
        let candidates: Vec<NodeIndex> =
            members.into_iter().map(|m| m.node).filter(|n| !holders.contains(n)).collect();
        let covered: Vec<&str> = holders
            .iter()
            .chain([&self.me])
            .filter_map(|h| self.site_of(*h))
            .map(|s| s.region.as_str())
            .collect();
        plan_quota_targets(
            doc.size() as u64,
            want,
            &covered,
            &candidates,
            &self.directory,
            &self.peer_used,
        )
    }

    /// One repair scan: re-replicate documents this node is primary for
    /// that have fallen under their tier target, and audit the shard
    /// sets of erasure manifests rooted here. All transfers pass through
    /// the scheduler — deferred work is retried on the next tick.
    fn repair_tick(&mut self, now: SimTime, out: &mut Outbox<StoreMsg>) {
        let primaries: Vec<(Key, Document)> = self
            .store
            .iter()
            .filter(|(g, _)| self.is_primary_for(**g))
            .map(|(g, d)| (*g, d.clone()))
            .collect();
        for (guid, doc) in &primaries {
            let target = self.target_replicas(doc.priority);
            let holders = self.replica_locations.get(guid).cloned().unwrap_or_default();
            let have = holders.len() + 1; // + this primary
            if have >= target {
                continue;
            }
            out.count("store.repair_underreplicated", 1.0);
            for t in self.plan_replicas(doc, target - have, &holders) {
                if self.scheduler.try_grant(now, t, *guid) {
                    out.count("store.repair_puts", 1.0);
                    out.count("store.repair_bytes", doc.size() as f64);
                    out.send(t, StoreMsg::ReplicaPut { doc: doc.clone() });
                } else {
                    out.count("store.repair_deferred", 1.0);
                }
            }
        }
        // Fragment audits: the manifest's primary is the coordinator.
        // One scheduler grant per audit (held until it concludes) caps
        // concurrency; the budget is shared with replica repair above.
        for (mguid, doc) in &primaries {
            let Some(manifest) = FragmentManifest::parse(doc) else { continue };
            if self.repairs.contains_key(mguid) {
                continue;
            }
            if !self.scheduler.try_grant(now, self.me, *mguid) {
                out.count("store.repair_deferred", 1.0);
                break;
            }
            out.count("store.repair_audits", 1.0);
            self.start_fragment_audit(*mguid, manifest, doc.priority, now, out);
        }
    }

    /// Issues one internal lookup per shard of `manifest`; outcomes are
    /// routed back through [`on_internal_outcome`](Self::on_internal_outcome).
    fn start_fragment_audit(
        &mut self,
        mguid: Key,
        manifest: FragmentManifest,
        priority: Priority,
        now: SimTime,
        out: &mut Outbox<StoreMsg>,
    ) {
        let mut reqs: Vec<(u64, usize, Key)> = Vec::with_capacity(manifest.n);
        for i in 0..manifest.n {
            self.internal_req += 1;
            let req = INTERNAL_REQ_BIT | self.internal_req;
            let shard_guid = Key::hash_of_str(&FragmentManifest::shard_name(&manifest.base, i));
            reqs.push((req, i, shard_guid));
        }
        // Register the audit before issuing: a shard held locally
        // resolves synchronously inside lookup_min_version.
        self.repairs.insert(
            mguid,
            FragmentRepair {
                manifest,
                priority,
                pending: reqs.iter().map(|(r, i, _)| (*r, *i)).collect(),
                found: BTreeMap::new(),
                missing: BTreeSet::new(),
            },
        );
        for (req, _, shard_guid) in reqs {
            // An unsatisfiable version floor pushes the probe past every
            // promiscuous cache to the shard's responsible node: the
            // audit must measure durable redundancy, and a cache hit
            // en route would mask a shard whose holders all crashed.
            self.lookup_min_version(shard_guid, u64::MAX, req, now, out);
        }
    }

    /// Receives the outcome of one internal shard lookup; when the last
    /// one lands, the audit concludes. The ledger concludes each lookup
    /// once, and an audit stays open until its last lookup concludes.
    fn on_internal_outcome(
        &mut self,
        req: u64,
        outcome: LookupOutcome,
        out: &mut Outbox<StoreMsg>,
    ) {
        let (&mguid, fr) = self
            .repairs
            .iter_mut()
            .find(|(_, fr)| fr.pending.contains_key(&req))
            .expect("an audit lookup concludes while its audit is open");
        if outcome.doc.is_some() {
            out.count("store.repair_fetches", 1.0);
        }
        let idx = fr.pending.remove(&req).expect("found above");
        // When the responsible node answered from its *cache*, the bytes
        // survive but no durable authority holds them: keep them (they
        // spare a decode) and repair the shard all the same.
        if outcome.doc.is_none() || outcome.from_cache {
            fr.missing.insert(idx);
        }
        if let Some(d) = outcome.doc {
            fr.found.insert(idx, d.content.to_vec());
        }
        if fr.pending.is_empty() {
            let fr = self.repairs.remove(&mguid).expect("present");
            self.scheduler.complete(self.me, mguid);
            self.finish_fragment_audit(fr, out);
        }
    }

    /// All shard lookups resolved: re-encode whatever is missing from
    /// the survivors and re-insert it through normal (quota-aware)
    /// placement. Systematic Reed–Solomon makes the repaired bytes
    /// byte-identical to the originals.
    fn finish_fragment_audit(&mut self, fr: FragmentRepair, out: &mut Outbox<StoreMsg>) {
        if fr.missing.is_empty() {
            out.count("store.repair_audits_clean", 1.0);
            return;
        }
        let (m, n) = (fr.manifest.m, fr.manifest.n);
        let mut bytes_of = fr.found;
        // Shards whose bytes arrived (e.g. cache-served) re-insert as-is;
        // the rest must be re-encoded from any m survivors.
        if fr.missing.iter().any(|i| !bytes_of.contains_key(i)) {
            if bytes_of.len() < m {
                // Fewer than m survivors: unrecoverable for now; the next
                // scan retries in case survivors were merely unreachable.
                out.count("store.repair_unrecoverable", 1.0);
                return;
            }
            let Ok(code) = ErasureCode::new(m, n) else {
                out.count("store.repair_bad_manifest", 1.0);
                return;
            };
            let survivors: Vec<(usize, Vec<u8>)> =
                bytes_of.iter().map(|(i, b)| (*i, b.clone())).collect();
            let Ok(data) = code.decode(&survivors, fr.manifest.len) else {
                out.count("store.repair_decode_failed", 1.0);
                return;
            };
            let shards = code.encode(&data);
            for (idx, shard) in shards.into_iter().enumerate() {
                bytes_of.entry(idx).or_insert(shard);
            }
        }
        for idx in fr.missing {
            let shard = bytes_of.get(&idx).expect("present or re-encoded").clone();
            let name = FragmentManifest::shard_name(&fr.manifest.base, idx);
            let doc = Document::new(name, shard).with_priority(fr.priority);
            out.count("store.repair_shards", 1.0);
            out.count("store.repair_bytes", doc.size() as f64);
            self.insert(doc, out);
        }
    }

    /// A jittered deadline for lookup attempt number `attempt`
    /// (exponential: base × 2^attempt, ±25%).
    fn retry_delay(&mut self, attempt: u32) -> SimDuration {
        jittered(exponential(LOOKUP_TIMEOUT, attempt), 0.25, &mut self.rng)
    }

    /// Arms the retry timer for `deadline` unless the armed one falls
    /// due no later: a timer only ever watches the earliest deadline.
    fn arm_retry(&mut self, deadline: SimTime, now: SimTime, out: &mut Outbox<StoreMsg>) {
        if self.retry_armed.is_none_or(|armed| deadline < armed) {
            self.retry_armed = Some(deadline);
            out.timer(deadline.since(now), timers::LOOKUP_RETRY);
        }
    }

    /// Sweeps lookup deadlines: re-sends lapsed requests with budget left,
    /// concludes the rest as timed out, then watches the earliest
    /// deadline left. A sweep at or after the armed instant is that
    /// timer's; an earlier one is a timer an earlier deadline superseded.
    fn retry_sweep(&mut self, now: SimTime, out: &mut Outbox<StoreMsg>) {
        let due: Vec<u64> = self
            .pending_lookups
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(r, _)| *r)
            .collect();
        for req in due {
            let mut p = self.pending_lookups.remove(&req).expect("due entries are in the ledger");
            if p.attempts >= LOOKUP_RETRIES {
                self.conclude(req, p, Answer::TimedOut, now, out);
                continue;
            }
            p.attempts += 1;
            out.count("store.lookups_retried", 1.0);
            // Re-route: the previous carrier is presumed lost with a
            // crashed hop (or the responsible node died holding it).
            self.send_lookup(req, p, now, out);
        }
        if self.retry_armed.is_some_and(|armed| armed <= now) {
            self.retry_armed = None;
        }
        if let Some(next) = self.pending_lookups.values().map(|p| p.deadline).min() {
            self.arm_retry(next, now, out);
        }
    }

    /// Routes request `req_id` toward its GUID's responsible node — the
    /// first send and every retry. In flight, it enters the lookup in
    /// the ledger under a jittered deadline: an unanswered lookup
    /// (crashed holder, lost carrier) is re-sent then, and concluded as
    /// timed out once the attempt budget is spent. When this node is the
    /// responsible one (from the start, or because the ring shrank onto
    /// it), it answers with whatever it holds — the version floor only
    /// filters non-authoritative copies — or concludes the miss.
    fn send_lookup(
        &mut self,
        req_id: u64,
        p: PendingLookup,
        now: SimTime,
        out: &mut Outbox<StoreMsg>,
    ) {
        let path = LookupPath::from_iter([self.me]);
        let (guid, min_version) = (p.guid, p.min_version);
        let payload = StorePayload::Lookup { guid, reply_to: self.me, req_id, path, min_version };
        let delivered = out.nested(&mut self.overlay_sends, None, StoreMsg::Overlay, |oout| {
            self.overlay.route(guid, payload, oout)
        });
        if delivered.is_some() {
            let answer = match self.local_copy(guid, 0) {
                Some((doc, from_cache)) => Answer::Copy { doc, from_cache, hops: None },
                None => Answer::Missing,
            };
            self.conclude(req_id, p, answer, now, out);
        } else {
            let deadline = now + self.retry_delay(p.attempts);
            self.pending_lookups.insert(req_id, PendingLookup { deadline, ..p });
            self.arm_retry(deadline, now, out);
        }
    }

    /// The one end of every lookup this node issued, however it was
    /// answered: takes the ledger entry `p` it ends (already out of the
    /// ledger, or never entered when the lookup ended where it began),
    /// counts and observes, caches a fetched copy, and hands the outcome
    /// to the embedder ([`take_concluded`](Self::take_concluded)) — or,
    /// for an internal request, to the fragment audit, which does its own
    /// counting: an audit's lookups are the repair pipeline's, not a
    /// client's, and touch no client counter or histogram.
    fn conclude(
        &mut self,
        req_id: u64,
        p: PendingLookup,
        answer: Answer,
        now: SimTime,
        out: &mut Outbox<StoreMsg>,
    ) {
        let internal = req_id & INTERNAL_REQ_BIT != 0;
        let latency = now.since(p.issued_at);
        if !internal {
            match &answer {
                Answer::Copy { doc, from_cache, hops } => {
                    out.count("store.lookups_ok", 1.0);
                    if hops.is_none() {
                        out.count("store.lookups_local", 1.0);
                    }
                    out.observe("store.lookup_ms", latency.as_secs_f64() * 1e3);
                    out.observe("store.lookup_hops", hops.unwrap_or(0) as f64);
                    if *from_cache {
                        out.count("store.cache_served", 1.0);
                    }
                    // The requester caches what it fetched (promiscuous).
                    if hops.is_some() && self.cfg.cache_enabled {
                        self.cache.insert(doc.clone());
                    }
                }
                Answer::Missing => out.count("store.lookups_missing", 1.0),
                Answer::TimedOut => out.count("store.lookups_timeout", 1.0),
            }
        }
        let (doc, from_cache, hops) = match answer {
            Answer::Copy { doc, from_cache, hops } => (Some(doc), from_cache, hops.unwrap_or(0)),
            Answer::Missing | Answer::TimedOut => (None, false, 0),
        };
        let outcome = LookupOutcome { guid: p.guid, doc, latency, from_cache, hops };
        if internal {
            self.on_internal_outcome(req_id, outcome, out);
        } else {
            self.concluded.push((req_id, outcome));
        }
    }

    /// Ends request `req_id` with the `answer` a reply message brought.
    /// Re-routing delivers at least once, so a request the retry plane
    /// already concluded (or a slow original racing its own re-route)
    /// can see a second reply: one whose request is no longer in the
    /// ledger is a duplicate, dropped, and counted for an embedder's
    /// request.
    fn on_reply(&mut self, req_id: u64, answer: Answer, now: SimTime, out: &mut Outbox<StoreMsg>) {
        match self.pending_lookups.remove(&req_id) {
            Some(p) => self.conclude(req_id, p, answer, now, out),
            None if req_id & INTERNAL_REQ_BIT == 0 => out.count("store.lookups_dup_replies", 1.0),
            None => {}
        }
    }

    fn site_of(&self, node: NodeIndex) -> Option<&NodeSite> {
        self.directory.iter().find(|s| s.node == node)
    }

    /// Pushes a replica of `guid` to the node a placement policy chose,
    /// recording it as a holder (nothing is sent when that is this node).
    fn place_policy_replica(
        &mut self,
        guid: Key,
        target: Option<NodeIndex>,
        out: &mut Outbox<StoreMsg>,
    ) {
        let (Some(target), Some(doc)) = (target, self.store.get(&guid)) else {
            return;
        };
        self.policy_holders.entry(guid).or_default().insert(target);
        out.count("store.policy_replicas", 1.0);
        if target != self.me {
            out.send(target, StoreMsg::ReplicaPut { doc: doc.clone() });
        }
    }

    /// Stores a document durably, keeping the newest version. Returns
    /// whether the write changed state.
    fn put_local(&mut self, doc: Document) -> bool {
        match self.store.get(&doc.guid) {
            Some(existing) if existing.version >= doc.version => false,
            existing => {
                let old = existing.map_or(0, |d| d.size() as u64);
                self.used = self.used.saturating_sub(old).saturating_add(doc.size() as u64);
                self.store.insert(doc.guid, doc);
                true
            }
        }
    }

    /// Makes room for `need` more bytes, shedding strictly-lower-priority
    /// replicas this node is not primary for (lowest tier first, then
    /// GUID order — deterministic). Returns whether the write now fits.
    fn make_room(&mut self, need: u64, incoming: Priority, out: &mut Outbox<StoreMsg>) -> bool {
        let cap = self.capacity();
        if cap.admits(self.used, need) {
            return true;
        }
        let mut victims: Vec<(Priority, Key, u64)> = self
            .store
            .iter()
            .filter(|(g, d)| d.priority < incoming && !self.is_primary_for(**g))
            .map(|(g, d)| (d.priority, *g, d.size() as u64))
            .collect();
        victims.sort();
        for (_, guid, size) in victims {
            if cap.admits(self.used, need) {
                break;
            }
            self.store.remove(&guid);
            self.used = self.used.saturating_sub(size);
            out.count("store.evictions", 1.0);
        }
        cap.admits(self.used, need)
    }

    /// Forgets everything predicated on `peer` being alive: replica
    /// location entries, policy holder records, advertised usage, and
    /// repair in-flight slots. Runs for every peer the overlay declares
    /// dead, so the repair scan sees true (not wishful) redundancy.
    fn drain_failures(&mut self, out: &mut Outbox<StoreMsg>) {
        for peer in self.overlay.take_failed() {
            let mut purged = 0u64;
            self.replica_locations.retain(|_, holders| {
                if holders.remove(&peer) {
                    purged += 1;
                }
                !holders.is_empty()
            });
            for holders in self.policy_holders.values_mut() {
                holders.remove(&peer);
            }
            self.peer_used.remove(&peer);
            self.scheduler.forget_peer(peer);
            if purged > 0 {
                out.count("store.locations_purged", purged as f64);
            }
        }
    }

    /// The local copy — from the durable store or else (if enabled) the
    /// cache: `(doc, from_cache)` — provided it is at `min_version` or
    /// newer; `0` asks for whatever this node holds.
    fn local_copy(&mut self, guid: Key, min_version: u64) -> Option<(Document, bool)> {
        let copy = match self.store.get(&guid) {
            Some(doc) => Some((doc.clone(), false)),
            None if self.cfg.cache_enabled => self.cache.get(guid).map(|doc| (doc, true)),
            None => None,
        };
        copy.filter(|(doc, _)| doc.version >= min_version)
    }

    /// Handles one message.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: StoreMsg,
        out: &mut Outbox<StoreMsg>,
    ) {
        match msg {
            StoreMsg::Overlay(omsg) => self.handle_overlay(now, from, omsg, out),
            StoreMsg::ReplicaPut { doc } => {
                let guid = doc.guid;
                let already = self.store.get(&guid).is_some_and(|d| d.version >= doc.version);
                let accepted = if already {
                    true
                } else {
                    let old = self.store.get(&guid).map_or(0, |d| d.size() as u64);
                    let extra = (doc.size() as u64).saturating_sub(old);
                    if self.make_room(extra, doc.priority, out) {
                        if self.put_local(doc) {
                            out.count("store.replica_puts", 1.0);
                        }
                        true
                    } else {
                        out.count("store.replica_rejected", 1.0);
                        false
                    }
                };
                out.send(from, StoreMsg::ReplicaPutAck { guid, accepted, used_bytes: self.used });
            }
            StoreMsg::ReplicaPutAck { guid, accepted, used_bytes } => {
                self.peer_used.insert(from, used_bytes);
                self.scheduler.complete(from, guid);
                if accepted {
                    self.replica_locations.entry(guid).or_default().insert(from);
                } else {
                    // The peer's quota refused us: stop counting it and
                    // let the next repair scan place elsewhere.
                    out.count("store.replica_refused", 1.0);
                    if let Some(holders) = self.replica_locations.get_mut(&guid) {
                        holders.remove(&from);
                    }
                }
            }
            StoreMsg::CachePush { doc } => {
                if self.cfg.cache_enabled {
                    self.cache.insert(doc);
                }
            }
            StoreMsg::HaveReplica { guid, version } => {
                let have = self.store.get(&guid).is_some_and(|d| d.version >= version);
                out.send(from, StoreMsg::HaveReplicaAck { guid, have });
            }
            StoreMsg::HaveReplicaAck { guid, have } => {
                if have {
                    self.replica_locations.entry(guid).or_default().insert(from);
                } else if let Some(doc) = self.store.get(&guid).cloned() {
                    out.count("store.heal_puts", 1.0);
                    out.send(from, StoreMsg::ReplicaPut { doc });
                }
            }
            StoreMsg::FetchReply { req_id, doc, from_cache, hops } => {
                self.on_reply(req_id, Answer::Copy { doc, from_cache, hops: Some(hops) }, now, out);
            }
            StoreMsg::NotFound { req_id } => self.on_reply(req_id, Answer::Missing, now, out),
            StoreMsg::LocalLookup { guid, req_id } => {
                self.lookup(guid, req_id, now, out);
            }
        }
    }

    fn handle_overlay(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        mut omsg: OverlayMsg<StorePayload>,
        out: &mut Outbox<StoreMsg>,
    ) {
        // Intercept lookups: any node along the route holding a copy
        // answers immediately (promiscuous caching's latency win).
        if let OverlayMsg::Route {
            payload: StorePayload::Lookup { guid, reply_to, req_id, path, min_version },
            hops,
            ..
        } = &mut omsg
        {
            if let Some(copy) = self.local_copy(*guid, *min_version) {
                // The intercept consumes the Route without the overlay
                // ever seeing it, so the previous hop's forward must be
                // acknowledged here — otherwise the hop holds the payload
                // as un-acked, conduct-suspects this node, and re-routes
                // a duplicate lookup every probe round.
                if self.overlay.governed() && from != self.me {
                    out.send(from, StoreMsg::Overlay(OverlayMsg::RouteAck));
                }
                // Cache along the path walked so far; the copy itself
                // moves into the reply (no clone for the common
                // empty-path case).
                if self.cfg.cache_enabled {
                    for n in path.iter().filter(|n| *n != self.me) {
                        out.send(n, StoreMsg::CachePush { doc: copy.0.clone() });
                    }
                }
                self.reply(*reply_to, *req_id, *guid, Some(copy), *hops, out);
                return;
            }
            path.push(self.me);
        }

        let delivered = out.nested(&mut self.overlay_sends, None, StoreMsg::Overlay, |oout| {
            self.overlay.handle(now, from, omsg, oout)
        });
        self.drain_failures(out);

        if let Some(d) = delivered {
            match d.payload {
                StorePayload::Insert { doc } => self.root_insert(doc, out),
                // Delivered at the responsible node: it answers with
                // whatever it holds, and when that is nothing the
                // document does not exist.
                StorePayload::Lookup { guid, reply_to, req_id, .. } => {
                    let copy = self.local_copy(guid, 0);
                    self.reply(reply_to, req_id, guid, copy, d.hops, out);
                }
            }
        }
    }

    /// Answers a lookup this node serves after `hops` overlay hops: with
    /// the `copy` it holds (and whether that came from its cache), a read
    /// the latency-reduction policy gets to see — or, with none, that
    /// the document is not found.
    fn reply(
        &mut self,
        reply_to: NodeIndex,
        req_id: u64,
        guid: Key,
        copy: Option<(Document, bool)>,
        hops: u32,
        out: &mut Outbox<StoreMsg>,
    ) {
        let Some((doc, from_cache)) = copy else {
            out.send(reply_to, StoreMsg::NotFound { req_id });
            return;
        };
        out.send(reply_to, StoreMsg::FetchReply { req_id, doc, from_cache, hops });
        let Some(policy) = &mut self.latency_policy else {
            return;
        };
        let Some(reader_site) = self.directory.iter().find(|s| s.node == reply_to) else {
            return;
        };
        let mut holders: Vec<NodeIndex> =
            self.policy_holders.get(&guid).map(|s| s.iter().copied().collect()).unwrap_or_default();
        holders.push(self.me);
        let target = policy.on_access(guid, reader_site, &self.directory, &holders);
        self.place_policy_replica(guid, target, out);
    }

    /// Takes a document this node is the root of: places its replicas,
    /// keeps the primary copy and runs the creation-time backup policy.
    fn root_insert(&mut self, doc: Document, out: &mut Outbox<StoreMsg>) {
        let guid = doc.guid;
        out.count("store.inserts_rooted", 1.0);
        let want = self.target_replicas(doc.priority).saturating_sub(1);
        for target in self.plan_replicas(&doc, want, &BTreeSet::new()) {
            out.send(target, StoreMsg::ReplicaPut { doc: doc.clone() });
        }
        // The primary always keeps its copy (it is the authority);
        // eviction still makes best-effort room.
        let old = self.store.get(&guid).map_or(0, |d2| d2.size() as u64);
        self.make_room((doc.size() as u64).saturating_sub(old), Priority::High, out);
        self.put_local(doc);
        // Backup policy: remote replica as soon as created.
        if let (Some(policy), Some(site)) = (&self.backup_policy, self.site_of(self.me)) {
            let mut holders: Vec<NodeIndex> = self.replica_targets(guid).collect();
            holders.push(self.me);
            let target = policy.on_create(site, &self.directory, &holders);
            self.place_policy_replica(guid, target, out);
        }
    }

    /// Originates an insert from this node (used by the harness).
    pub fn insert(&mut self, doc: Document, out: &mut Outbox<StoreMsg>) {
        let guid = doc.guid;
        let delivered = out.nested(&mut self.overlay_sends, None, StoreMsg::Overlay, |oout| {
            self.overlay.route(guid, StorePayload::Insert { doc }, oout)
        });
        // We are the root ourselves.
        if let Some(Delivery { payload: StorePayload::Insert { doc }, .. }) = delivered {
            self.root_insert(doc, out);
        }
    }

    /// Originates a lookup from this node; its outcome is handed over
    /// once, under `req_id`, by [`take_concluded`](Self::take_concluded).
    pub fn lookup(&mut self, guid: Key, req_id: u64, now: SimTime, out: &mut Outbox<StoreMsg>) {
        self.lookup_min_version(guid, 0, req_id, now, out);
    }

    /// Like [`lookup`](Self::lookup), but refuses cached copies below
    /// `min_version`: neither the local fast path nor en-route
    /// interception serves a stale copy, so the request reaches the
    /// responsible node, which answers with whatever it holds. Lets
    /// readers who know a document has advanced (e.g. the knowledge
    /// plane pulling the next delta batch) bypass promiscuous caching's
    /// stale copies without losing its latency win for fresh ones.
    pub fn lookup_min_version(
        &mut self,
        guid: Key,
        min_version: u64,
        req_id: u64,
        now: SimTime,
        out: &mut Outbox<StoreMsg>,
    ) {
        let first = PendingLookup { guid, min_version, issued_at: now, attempts: 0, deadline: now };
        // Fresh-enough local copy? Serve instantly.
        match self.local_copy(guid, min_version) {
            Some((doc, from_cache)) => {
                let answer = Answer::Copy { doc, from_cache, hops: None };
                self.conclude(req_id, first, answer, now, out);
            }
            None => self.send_lookup(req_id, first, now, out),
        }
    }

    /// Appends every embedder lookup concluded since the last call to
    /// `into`, oldest first, and forgets them: each conclusion is handed
    /// over once.
    pub fn take_concluded(&mut self, into: &mut Vec<(u64, LookupOutcome)>) {
        into.append(&mut self.concluded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_overlay::KeyedNode;

    fn n(i: u32) -> NodeIndex {
        NodeIndex(i)
    }

    fn store_node(key: u128, idx: u32, cfg: StoreConfig) -> StoreNode {
        let overlay = OverlayNode::new(Key(key), n(idx), None, SimDuration::ZERO);
        StoreNode::new(n(idx), overlay, cfg, Vec::new())
    }

    fn doc(name: &str) -> Document {
        Document::new(name, format!("content of {name}").into_bytes())
    }

    /// The one lookup `s` has concluded since it was last asked, which
    /// must be request `req`.
    fn only_outcome(s: &mut StoreNode, req: u64) -> LookupOutcome {
        let mut taken = Vec::new();
        s.take_concluded(&mut taken);
        match <[_; 1]>::try_from(taken) {
            Ok([(r, o)]) if r == req => o,
            other => panic!("expected one outcome, for request {req}; got {other:?}"),
        }
    }

    /// Whether `s` has concluded nothing since it was last asked.
    fn nothing_concluded(s: &mut StoreNode) -> bool {
        let mut taken = Vec::new();
        s.take_concluded(&mut taken);
        taken.is_empty()
    }

    #[test]
    fn singleton_insert_then_lookup_locally() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("menu");
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        assert!(s.holds(d.guid));
        let mut out = Outbox::new();
        s.lookup(d.guid, 1, SimTime::ZERO, &mut out);
        let o = only_outcome(&mut s, 1);
        assert_eq!(o.doc.as_ref().unwrap().content, d.content);
        assert!(!o.from_cache);
        assert_eq!(o.latency, SimDuration::ZERO);
    }

    #[test]
    fn inserting_at_ones_own_root_runs_the_backup_policy() {
        // A singleton ring: every document's root is the inserting node,
        // so the insert never crosses the overlay. It is rooted all the
        // same — counted, and backed up remotely on creation.
        let here = gloss_sim::GeoPoint::new(56.34, -2.80);
        let far = gloss_sim::GeoPoint::new(-33.87, 151.21);
        let directory =
            vec![NodeSite::new(n(0), here, "scotland"), NodeSite::new(n(1), far, "australia")];
        let overlay = OverlayNode::new(Key(0x100), n(0), None, SimDuration::ZERO);
        let cfg = StoreConfig { backup_policy_min_km: Some(1000.0), ..Default::default() };
        let mut s = StoreNode::new(n(0), overlay, cfg, directory);
        let d = doc("deed");
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        assert!(s.holds(d.guid));
        let count = |name: &str| out.counts().iter().filter(|(k, _)| k == name).count();
        assert_eq!(count("store.inserts_rooted"), 1);
        assert_eq!(count("store.policy_replicas"), 1);
        let backups: Vec<NodeIndex> = out
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, StoreMsg::ReplicaPut { doc } if doc.guid == d.guid))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(backups, [n(1)], "the policy's ReplicateTo goes to the remote site");
    }

    #[test]
    fn missing_document_reports_not_found() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let mut out = Outbox::new();
        s.lookup(Key::hash_of_str("ghost"), 9, SimTime::ZERO, &mut out);
        assert!(only_outcome(&mut s, 9).doc.is_none());
    }

    #[test]
    fn insert_replicates_to_leaf_targets() {
        let mut s = store_node(0x100, 0, StoreConfig { replicas: 3, ..Default::default() });
        // Teach the node two leaf neighbours.
        s.overlay.learn(KeyedNode::new(Key(0x110), n(1)));
        s.overlay.learn(KeyedNode::new(Key(0x120), n(2)));
        let d = doc("replicated");
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        let puts: Vec<NodeIndex> = out
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, StoreMsg::ReplicaPut { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(puts.len(), 2, "k-1 replica pushes");
        assert!(puts.contains(&n(1)));
        assert!(puts.contains(&n(2)));
    }

    #[test]
    fn replica_put_keeps_newest_version() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let v1 = doc("versioned");
        let v2 = v1.updated(b"newer".to_vec());
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: v2.clone() }, &mut out);
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: v1 }, &mut out);
        let mut out = Outbox::new();
        s.lookup(v2.guid, 1, SimTime::ZERO, &mut out);
        assert_eq!(only_outcome(&mut s, 1).doc.unwrap().version, 2);
    }

    #[test]
    fn cache_push_serves_later_lookups() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("cached");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::CachePush { doc: d.clone() }, &mut out);
        assert!(s.has_cached(d.guid));
        let mut out = Outbox::new();
        s.lookup(d.guid, 2, SimTime::ZERO, &mut out);
        assert!(only_outcome(&mut s, 2).from_cache);
    }

    #[test]
    fn cache_disabled_ignores_pushes() {
        let cfg = StoreConfig { cache_enabled: false, ..Default::default() };
        let mut s = store_node(0x100, 0, cfg);
        let d = doc("cached");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::CachePush { doc: d.clone() }, &mut out);
        assert!(!s.has_cached(d.guid));
    }

    #[test]
    fn lookup_interception_serves_en_route() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("popular");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::CachePush { doc: d.clone() }, &mut out);
        // A lookup routed through this node gets answered here.
        let lookup = StoreMsg::Overlay(OverlayMsg::Route {
            target: d.guid,
            payload: StorePayload::Lookup {
                guid: d.guid,
                reply_to: n(9),
                req_id: 4,
                path: [n(9), n(7)].into_iter().collect(),
                min_version: 0,
            },
            origin: n(9),
            hops: 2,
        });
        let mut out = Outbox::new();
        s.handle(SimTime::from_millis(10), n(7), lookup, &mut out);
        let reply = out
            .sends()
            .iter()
            .find(|(t, m)| *t == n(9) && matches!(m, StoreMsg::FetchReply { .. }));
        assert!(reply.is_some(), "served from the intermediate cache");
        // Path nodes get cache pushes (n9 and n7).
        let pushes =
            out.sends().iter().filter(|(_, m)| matches!(m, StoreMsg::CachePush { .. })).count();
        assert_eq!(pushes, 2);
    }

    #[test]
    fn cache_intercept_acks_the_forward() {
        // Under the governor every accepted forward must be acknowledged,
        // *including* lookups the cache intercept consumes before the
        // overlay sees them. An un-acked forward is held by the previous
        // hop and re-routed every probe round: the same lookup is served
        // again and again, and an honest cache-serving node accumulates
        // conduct suspicion.
        let overlay = OverlayNode::new(Key(0x100), n(0), None, SimDuration::ZERO).with_governor(7);
        let mut s = StoreNode::new(n(0), overlay, StoreConfig::default(), Vec::new());
        let d = doc("popular");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::CachePush { doc: d.clone() }, &mut out);
        let lookup = StoreMsg::Overlay(OverlayMsg::Route {
            target: d.guid,
            payload: StorePayload::Lookup {
                guid: d.guid,
                reply_to: n(9),
                req_id: 4,
                path: [n(9), n(7)].into_iter().collect(),
                min_version: 0,
            },
            origin: n(9),
            hops: 2,
        });
        let mut out = Outbox::new();
        s.handle(SimTime::from_millis(10), n(7), lookup, &mut out);
        assert!(
            out.sends()
                .iter()
                .any(|(t, m)| *t == n(7) && matches!(m, StoreMsg::Overlay(OverlayMsg::RouteAck))),
            "cache intercept must ack the previous hop's forward"
        );
    }

    #[test]
    fn duplicate_replies_keep_the_first_outcome() {
        // Re-routing delivers at least once; a request can see a second
        // reply (slow original racing its own re-route). The first
        // conclusion wins — a late duplicate is counted, and hands no
        // second outcome over.
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("raced");
        // A peer sits on the guid: the request routes away.
        s.overlay.learn(KeyedNode::new(d.guid, n(3)));
        s.lookup(d.guid, 8, SimTime::ZERO, &mut Outbox::new());
        let reply = |at_ms: u64, out: &mut Outbox<StoreMsg>, s: &mut StoreNode| {
            let msg =
                StoreMsg::FetchReply { req_id: 8, doc: d.clone(), from_cache: false, hops: 2 };
            s.handle(SimTime::from_millis(at_ms), n(3), msg, out);
        };
        let mut out = Outbox::new();
        reply(10, &mut out, &mut s);
        assert_eq!(only_outcome(&mut s, 8).latency, SimDuration::from_millis(10));
        let mut out = Outbox::new();
        reply(5000, &mut out, &mut s);
        assert!(nothing_concluded(&mut s), "a duplicate reply handed a second outcome over");
        assert_eq!(out.counts(), [("store.lookups_dup_replies".into(), 1.0)]);
    }

    #[test]
    fn a_lookup_path_keeps_its_first_nodes_in_place_and_spills_the_rest() {
        for len in 0..=10u32 {
            let nodes: Vec<NodeIndex> = (0..len).map(|i| n(100 + i)).collect();
            let mut path = LookupPath::default();
            for &node in &nodes {
                path.push(node);
            }
            assert_eq!(path.iter().collect::<Vec<_>>(), nodes);
            assert_eq!(path.spill.is_some(), nodes.len() > PATH_IN_PLACE);
            assert_eq!(path, nodes.iter().copied().collect::<LookupPath>());
            let mut other = path.clone();
            other.push(n(7));
            assert_ne!(other, path);
        }
    }

    /// The in-place path costs no message any size: a lookup payload is
    /// no larger than an insert's, and neither is a store message.
    #[test]
    fn routed_lookups_grow_no_message() {
        use std::mem::size_of;
        assert!(size_of::<LookupPath>() <= size_of::<Document>() - size_of::<Key>());
        assert!(size_of::<StorePayload>() <= 96, "{}", size_of::<StorePayload>());
        assert!(size_of::<StoreMsg>() <= 128, "{}", size_of::<StoreMsg>());
    }

    /// `replica_targets` picks what a stable sort of the usable leaf
    /// members by ring distance followed by `take(k - 1)` picked: closest
    /// first, equidistant members in leaf-set order.
    #[test]
    fn replica_targets_are_the_ring_closest_leaves_ties_in_leaf_order() {
        let mut rng = gloss_sim::SimRng::new(11);
        let me = 0x1000u128;
        for _ in 0..300 {
            let replicas = 1 + rng.index(6);
            let mut s = store_node(me, 0, StoreConfig { replicas, ..Default::default() });
            // Members on a grid of 4 around this node, guids on a grid of
            // 2: a guid between two members is equidistant from both.
            for i in 0..rng.index(14) {
                let offset = 4 * rng.range(1, 33) as u128;
                let key = if rng.chance(0.5) { me + offset } else { me - offset };
                s.overlay.learn(KeyedNode::new(Key(key), n(1 + i as u32)));
            }
            let guid = Key(me - 130 + 2 * rng.range(0, 130) as u128);
            let mut members = s.overlay.usable_leaf_members();
            members.sort_by_key(|m| m.key.ring_distance(guid));
            let want: Vec<NodeIndex> = members.iter().take(replicas - 1).map(|m| m.node).collect();
            assert_eq!(s.replica_targets(guid).collect::<Vec<_>>(), want, "guid {guid:?}");
        }
    }

    #[test]
    fn heal_audits_and_repairs() {
        let mut s = store_node(0x100, 0, StoreConfig { replicas: 2, ..Default::default() });
        s.overlay.learn(KeyedNode::new(Key(0x110), n(1)));
        let d = doc("healme");
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        // Heal timer: audit goes to the replica target.
        let mut out = Outbox::new();
        s.on_timer(SimTime::from_secs(30), timers::HEAL, &mut out);
        let audits: Vec<NodeIndex> = out
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, StoreMsg::HaveReplica { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(audits, vec![n(1)]);
        // Negative ack triggers a repair put.
        let mut out = Outbox::new();
        s.handle(
            SimTime::from_secs(31),
            n(1),
            StoreMsg::HaveReplicaAck { guid: d.guid, have: false },
            &mut out,
        );
        assert!(out
            .sends()
            .iter()
            .any(|(t, m)| *t == n(1) && matches!(m, StoreMsg::ReplicaPut { .. })));
        // Positive ack does not.
        let mut out = Outbox::new();
        s.handle(
            SimTime::from_secs(32),
            n(1),
            StoreMsg::HaveReplicaAck { guid: d.guid, have: true },
            &mut out,
        );
        assert!(out.sends().is_empty());
    }

    #[test]
    fn have_replica_answers_by_version() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("audited");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: d.clone() }, &mut out);
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(2), StoreMsg::HaveReplica { guid: d.guid, version: 1 }, &mut out);
        assert!(matches!(out.sends()[0].1, StoreMsg::HaveReplicaAck { have: true, .. }));
        // A newer version elsewhere means we do not "have" it.
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(2), StoreMsg::HaveReplica { guid: d.guid, version: 2 }, &mut out);
        assert!(matches!(out.sends()[0].1, StoreMsg::HaveReplicaAck { have: false, .. }));
    }

    fn site_with(node: u32, region: &str, capacity: NodeCapacity) -> NodeSite {
        NodeSite::new(n(node), gloss_sim::GeoPoint::new(0.0, 0.0), region).with_capacity(capacity)
    }

    #[test]
    fn tier_targets_follow_priority() {
        let s = store_node(0x100, 0, StoreConfig { replicas: 3, ..Default::default() });
        assert_eq!(s.target_replicas(Priority::Normal), 3);
        assert_eq!(s.target_replicas(Priority::High), 4);
        assert_eq!(s.target_replicas(Priority::Low), 3 - TIER_LOW_CUT);
        let s = store_node(0x100, 0, StoreConfig { replicas: 1, ..Default::default() });
        assert_eq!(s.target_replicas(Priority::Low), 1, "low tier never drops below one copy");
    }

    #[test]
    fn replica_put_is_acked_with_usage() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("acked");
        let size = d.size() as u64;
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: d.clone() }, &mut out);
        match out.sends().iter().find(|(t, _)| *t == n(5)) {
            Some((_, StoreMsg::ReplicaPutAck { guid, accepted, used_bytes })) => {
                assert_eq!(*guid, d.guid);
                assert!(accepted);
                assert_eq!(*used_bytes, size);
            }
            other => panic!("expected ReplicaPutAck, got {other:?}"),
        }
        assert_eq!(s.used_bytes(), size);
    }

    #[test]
    fn replica_put_rejected_when_quota_exhausted() {
        let cap = NodeCapacity { max_bytes: 16, reserved_bytes: 0, min_free_bytes: 0 };
        let overlay = OverlayNode::new(Key(0x100), n(0), None, SimDuration::ZERO);
        let mut s = StoreNode::new(
            n(0),
            overlay,
            StoreConfig::default(),
            vec![site_with(0, "scotland", cap)],
        );
        // Content > 16 bytes, and an empty node has nothing to evict.
        let d = doc("too-big-to-host");
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: d.clone() }, &mut out);
        match &out.sends()[0].1 {
            StoreMsg::ReplicaPutAck { accepted, used_bytes, .. } => {
                assert!(!accepted, "over-quota put must be refused");
                assert_eq!(*used_bytes, 0);
            }
            other => panic!("expected ReplicaPutAck, got {other:?}"),
        }
        assert!(!s.holds(d.guid));
    }

    #[test]
    fn eviction_sheds_lower_priority_non_primary_docs() {
        // Budget fits one ~30-byte doc; the node is NOT primary for the
        // low-priority resident (a peer sits exactly on its guid).
        let low = doc("low-doc").with_priority(Priority::Low);
        let high = doc("high-doc").with_priority(Priority::High);
        let cap = NodeCapacity {
            max_bytes: low.size().max(high.size()) as u64 + 8,
            reserved_bytes: 0,
            min_free_bytes: 0,
        };
        let overlay = OverlayNode::new(Key(0x100), n(0), None, SimDuration::ZERO);
        let mut s =
            StoreNode::new(n(0), overlay, StoreConfig::default(), vec![site_with(0, "x", cap)]);
        s.overlay.learn(KeyedNode::new(low.guid, n(1)));
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: low.clone() }, &mut out);
        assert!(s.holds(low.guid));
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: high.clone() }, &mut out);
        assert!(s.holds(high.guid), "high-priority replica admitted");
        assert!(!s.holds(low.guid), "low-priority replica evicted to make room");
        assert!(out.counts().iter().any(|(name, _)| name == "store.evictions"));
    }

    #[test]
    fn acks_build_replica_locations_and_refusals_unbuild_them() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("tracked");
        let mut out = Outbox::new();
        s.handle(
            SimTime::ZERO,
            n(1),
            StoreMsg::ReplicaPutAck { guid: d.guid, accepted: true, used_bytes: 64 },
            &mut out,
        );
        assert_eq!(s.known_replicas(d.guid), 1);
        s.handle(
            SimTime::ZERO,
            n(1),
            StoreMsg::ReplicaPutAck { guid: d.guid, accepted: false, used_bytes: 512 },
            &mut out,
        );
        assert_eq!(s.known_replicas(d.guid), 0, "a refusal withdraws the holder");
    }

    #[test]
    fn crash_purges_location_maps() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        s.overlay.learn(KeyedNode::new(Key(0x110), n(1)));
        let d = doc("purge-me");
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        s.handle(
            SimTime::ZERO,
            n(1),
            StoreMsg::ReplicaPutAck { guid: d.guid, accepted: true, used_bytes: 64 },
            &mut out,
        );
        assert_eq!(s.known_replicas(d.guid), 1);
        // The overlay declares n1 dead; the next store-layer activity
        // drains the failure and purges every map keyed by it.
        let mut oout = Outbox::new();
        s.overlay.declare_failed(n(1), &mut oout);
        let mut out = Outbox::new();
        s.drain_failures(&mut out);
        assert_eq!(s.known_replicas(d.guid), 0, "dead holder purged from location map");
        assert!(out.counts().iter().any(|(name, _)| name == "store.locations_purged"));
    }

    #[test]
    fn repair_tick_replaces_lost_replicas() {
        let d = doc("under-replicated");
        let mut s = store_node(
            d.guid.0,
            0,
            StoreConfig { replicas: 3, repair_rate_per_sec: 100.0, ..Default::default() },
        );
        s.overlay.learn(KeyedNode::new(Key(d.guid.0 ^ 0x10), n(1)));
        s.overlay.learn(KeyedNode::new(Key(d.guid.0 ^ 0x20), n(2)));
        let mut out = Outbox::new();
        s.insert(d.clone(), &mut out);
        // Only n1 acknowledged; n2's put was lost. Target 3, have 2.
        s.handle(
            SimTime::ZERO,
            n(1),
            StoreMsg::ReplicaPutAck { guid: d.guid, accepted: true, used_bytes: 64 },
            &mut out,
        );
        let mut out = Outbox::new();
        s.on_timer(SimTime::from_secs(10), timers::REPAIR, &mut out);
        let repairs: Vec<NodeIndex> = out
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, StoreMsg::ReplicaPut { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(repairs, vec![n(2)], "the unacknowledged slot is re-placed");
        assert!(out.counts().iter().any(|(name, _)| name == "store.repair_puts"));
    }

    #[test]
    fn an_insert_ack_does_not_free_a_repair_slot() {
        // One leaf peer, four documents rooted here whose insert-time puts
        // all went unacknowledged: the repair scan may keep
        // REPAIR_INFLIGHT_PER_PEER transfers to the peer in flight and
        // must defer the rest until one of *those* is acknowledged.
        let cfg = StoreConfig { replicas: 2, repair_rate_per_sec: 100.0, ..Default::default() };
        let mut s = store_node(0x100, 0, cfg);
        s.overlay.learn(KeyedNode::new(Key(0x110), n(1)));
        let docs: Vec<Document> = (0..)
            .map(|i| doc(&format!("doc-{i}")))
            .filter(|d| s.is_primary_for(d.guid))
            .take(4)
            .collect();
        let mut out = Outbox::new();
        for d in &docs {
            s.insert(d.clone(), &mut out);
        }
        let repair_puts = |s: &mut StoreNode, at_s: u64| -> Vec<Key> {
            let mut out = Outbox::new();
            s.on_timer(SimTime::from_secs(at_s), timers::REPAIR, &mut out);
            out.sends()
                .iter()
                .filter_map(|(_, m)| match m {
                    StoreMsg::ReplicaPut { doc } => Some(doc.guid),
                    _ => None,
                })
                .collect()
        };
        let granted = repair_puts(&mut s, 10);
        assert_eq!(granted.len(), REPAIR_INFLIGHT_PER_PEER);
        let ack = |s: &mut StoreNode, guid: Key| {
            let msg = StoreMsg::ReplicaPutAck { guid, accepted: true, used_bytes: 64 };
            s.handle(SimTime::from_secs(11), n(1), msg, &mut Outbox::new());
        };
        // The late ack of an insert-time put the scheduler never granted.
        let ungranted = docs.iter().map(|d| d.guid).find(|g| !granted.contains(g)).unwrap();
        ack(&mut s, ungranted);
        assert!(repair_puts(&mut s, 20).is_empty(), "both repair transfers are still outstanding");
        // The ack of a granted transfer does free its slot.
        ack(&mut s, granted[0]);
        assert_eq!(repair_puts(&mut s, 30).len(), 1);
    }

    #[test]
    fn lookup_times_out_after_bounded_retries() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        // A peer sits on the guid, so the lookup routes away and nobody
        // ever answers.
        let guid = Key::hash_of_str("silent");
        s.overlay.learn(KeyedNode::new(guid, n(1)));
        let mut out = Outbox::new();
        s.lookup(guid, 7, SimTime::ZERO, &mut out);
        assert!(nothing_concluded(&mut s), "in flight");
        assert!(
            out.timers().iter().any(|(_, tag)| *tag == timers::LOOKUP_RETRY),
            "retry deadline armed"
        );
        // Sweep far past every (jittered, doubling) deadline each time:
        // the retry budget, then the timeout outcome.
        let mut retried = 0u32;
        let mut taken = Vec::new();
        for i in 1..=u64::from(LOOKUP_RETRIES) + 2 {
            let mut out = Outbox::new();
            s.on_timer(SimTime::from_secs(i * 60), timers::LOOKUP_RETRY, &mut out);
            retried +=
                out.counts().iter().filter(|(name, _)| name == "store.lookups_retried").count()
                    as u32;
            s.take_concluded(&mut taken);
            if !taken.is_empty() {
                break;
            }
        }
        assert_eq!(retried, LOOKUP_RETRIES, "bounded retry budget");
        let [(7, o)] = &taken[..] else { panic!("one timeout outcome, for 7: {taken:?}") };
        assert!(o.doc.is_none());
        assert!(o.latency >= SimDuration::from_secs(60));
    }

    #[test]
    fn fetch_reply_cancels_pending_retry() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let guid = Key::hash_of_str("answered");
        s.overlay.learn(KeyedNode::new(guid, n(1)));
        let mut out = Outbox::new();
        s.lookup(guid, 8, SimTime::ZERO, &mut out);
        let d = Document::new("answered", b"late but fine".to_vec());
        let mut out = Outbox::new();
        s.handle(
            SimTime::from_millis(300),
            n(1),
            StoreMsg::FetchReply { req_id: 8, doc: d, from_cache: false, hops: 2 },
            &mut out,
        );
        // A later sweep must not retry or overwrite the outcome.
        let mut out = Outbox::new();
        s.on_timer(SimTime::from_secs(600), timers::LOOKUP_RETRY, &mut out);
        assert!(out.sends().is_empty());
        assert!(only_outcome(&mut s, 8).doc.is_some());
    }

    /// One armed timer serves every open lookup: each is retried at the
    /// deadline a timer of its own would have fired at, including one
    /// whose deadline falls before the armed one.
    #[test]
    fn every_lookup_is_retried_at_its_own_deadline() {
        let guid = Key::hash_of_str("unanswered");
        let mut s = store_node(0x100, 0, StoreConfig::default());
        s.overlay.learn(KeyedNode::new(guid, n(1)));
        // The same jitter stream, sampled in issue order: every lookup is
        // issued before the first deadline, so no retry draws in between.
        let mut twin = store_node(0x100, 0, StoreConfig::default());
        let mut armed: Vec<SimTime> = Vec::new();
        let arm = |armed: &mut Vec<SimTime>, now: SimTime, out: &Outbox<StoreMsg>| {
            let retry = out.timers().iter().filter(|(_, tag)| *tag == timers::LOOKUP_RETRY);
            armed.extend(retry.map(|(delay, _)| now + *delay));
        };
        let mut deadlines = BTreeMap::new();
        for req in 0..8u64 {
            let now = SimTime::from_millis(100 * req);
            let mut out = Outbox::new();
            s.lookup(guid, req, now, &mut out);
            arm(&mut armed, now, &out);
            deadlines.insert(req, now + twin.retry_delay(0));
        }
        assert!(armed.len() < deadlines.len(), "a timer per lookup: {armed:?}");
        let mut retried_at = BTreeMap::new();
        while retried_at.len() < deadlines.len() {
            armed.sort();
            let now = armed.remove(0);
            let mut out = Outbox::new();
            s.on_timer(now, timers::LOOKUP_RETRY, &mut out);
            for (_, msg) in out.sends() {
                if let StoreMsg::Overlay(OverlayMsg::Route {
                    payload: StorePayload::Lookup { req_id, .. },
                    ..
                }) = msg
                {
                    retried_at.entry(*req_id).or_insert(now);
                }
            }
            arm(&mut armed, now, &out);
        }
        assert_eq!(retried_at, deadlines);
    }

    #[test]
    fn fragment_audit_reencodes_missing_shards() {
        let mut s = store_node(
            0x100,
            0,
            StoreConfig { replicas: 1, repair_rate_per_sec: 100.0, ..Default::default() },
        );
        // The node is primary for everything (no peers): store the
        // manifest and all-but-one shard locally, then let the repair
        // tick audit and re-create the missing one.
        let content: Vec<u8> = (0..200u8).collect();
        let code = crate::erasure::ErasureCode::new(3, 5).unwrap();
        let shards = code.encode(&content);
        let manifest = FragmentManifest { base: "obj".into(), m: 3, n: 5, len: content.len() };
        let mut out = Outbox::new();
        s.insert(manifest.to_doc(Priority::Normal), &mut out);
        for (i, bytes) in shards.iter().enumerate() {
            if i == 2 {
                continue; // lost shard
            }
            let d = Document::new(FragmentManifest::shard_name("obj", i), bytes.clone());
            s.insert(d, &mut out);
        }
        let missing_guid = Key::hash_of_str(&FragmentManifest::shard_name("obj", 2));
        assert!(!s.holds(missing_guid));
        let mut out = Outbox::new();
        s.on_timer(SimTime::from_secs(10), timers::REPAIR, &mut out);
        assert!(s.holds(missing_guid), "audit re-encoded and re-inserted the lost shard");
        let repaired = s.store.get(&missing_guid).unwrap();
        assert_eq!(
            repaired.content.as_ref(),
            shards[2].as_slice(),
            "systematic re-encode reproduces the original bytes exactly"
        );
        assert!(out.counts().iter().any(|(name, _)| name == "store.repair_shards"));
    }

    #[test]
    fn a_manifest_longer_than_its_shards_fails_the_decode_not_the_node() {
        // A manifest another node wrote claims more bytes than its shards
        // hold. The audit finds a shard missing, decodes, and must count
        // the failure instead of sizing a buffer by the claim.
        let content: Vec<u8> = (0..200u8).collect();
        let code = crate::erasure::ErasureCode::new(3, 5).unwrap();
        let shards = code.encode(&content);
        for len in [usize::MAX, 3 * shards[0].len() + 1] {
            let mut s = store_node(
                0x100,
                0,
                StoreConfig { replicas: 1, repair_rate_per_sec: 100.0, ..Default::default() },
            );
            let manifest = FragmentManifest { base: "obj".into(), m: 3, n: 5, len };
            let mut out = Outbox::new();
            s.insert(manifest.to_doc(Priority::Normal), &mut out);
            for (i, bytes) in shards.iter().enumerate().skip(1) {
                let d = Document::new(FragmentManifest::shard_name("obj", i), bytes.clone());
                s.insert(d, &mut out);
            }
            let mut out = Outbox::new();
            s.on_timer(SimTime::from_secs(10), timers::REPAIR, &mut out);
            let count = |name: &str| {
                out.counts().iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum::<f64>()
            };
            assert_eq!(count("store.repair_audits"), 1.0, "len {len}");
            assert_eq!(count("store.repair_decode_failed"), 1.0, "len {len}");
            assert_eq!(count("store.repair_shards"), 0.0, "len {len}");
            let lost = Key::hash_of_str(&FragmentManifest::shard_name("obj", 0));
            assert!(!s.holds(lost), "nothing is re-inserted from a failed decode");
        }
    }

    #[test]
    fn fetch_reply_records_outcome_and_caches() {
        let mut s = store_node(0x100, 0, StoreConfig::default());
        let d = doc("fetched");
        s.overlay.learn(KeyedNode::new(d.guid, n(3)));
        s.lookup(d.guid, 11, SimTime::from_millis(100), &mut Outbox::new());
        let mut out = Outbox::new();
        s.handle(
            SimTime::from_millis(150),
            n(3),
            StoreMsg::FetchReply { req_id: 11, doc: d.clone(), from_cache: false, hops: 3 },
            &mut out,
        );
        let o = only_outcome(&mut s, 11);
        assert_eq!(o.latency, SimDuration::from_millis(50));
        assert_eq!(o.hops, 3);
        assert!(s.has_cached(d.guid), "requester caches what it fetched");
    }

    /// How one row of `every_conclusion_path_counts_once` drives its
    /// lookup to an end.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        LocalDurable,
        LocalCache,
        LocalBelowFloor,
        RootMiss,
        ReplyDurable,
        ReplyCache,
        ReplyNotFound,
        Timeout,
        ShrankHit,
        ShrankMiss,
        DuplicateReply,
    }

    /// Drives request `req` for one document down `path` on a fresh node
    /// and returns the `store.*` counter totals and histogram samples
    /// the whole life of the lookup produced.
    fn drive(path: Path, req: u64) -> (BTreeMap<String, f64>, Vec<(String, f64)>) {
        use Path::*;
        let d = doc("sought");
        let guid = d.guid;
        let mut s = store_node(0x100, 0, StoreConfig::default());
        // An audit waiting on `req` (and on a second shard that never
        // resolves, so it stays open): an internal outcome is consumed
        // rather than dropped as a late duplicate.
        s.repairs.insert(
            Key(1),
            FragmentRepair {
                manifest: FragmentManifest { base: "obj".into(), m: 1, n: 2, len: 0 },
                priority: Priority::Normal,
                pending: [(req, 0), (u64::MAX, 1)].into(),
                found: BTreeMap::new(),
                missing: BTreeSet::new(),
            },
        );
        let setup = &mut Outbox::new();
        match path {
            LocalDurable | LocalBelowFloor => {
                s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: d.clone() }, setup)
            }
            LocalCache => {
                s.handle(SimTime::ZERO, n(5), StoreMsg::CachePush { doc: d.clone() }, setup)
            }
            RootMiss => {}
            // A peer sits on the guid: the request routes away.
            _ => s.overlay.learn(KeyedNode::new(guid, n(1))),
        }
        let mut out = Outbox::new();
        let floor = if path == LocalBelowFloor { d.version + 1 } else { 0 };
        s.lookup_min_version(guid, floor, req, SimTime::ZERO, &mut out);
        let reply = |s: &mut StoreNode, at_ms: u64, from_cache, out: &mut Outbox<StoreMsg>| {
            let msg = StoreMsg::FetchReply { req_id: req, doc: d.clone(), from_cache, hops: 2 };
            s.handle(SimTime::from_millis(at_ms), n(1), msg, out);
        };
        match path {
            LocalDurable | LocalCache | LocalBelowFloor | RootMiss => {}
            ReplyDurable => reply(&mut s, 50, false, &mut out),
            ReplyCache => reply(&mut s, 50, true, &mut out),
            DuplicateReply => {
                reply(&mut s, 50, false, &mut out);
                reply(&mut s, 900, false, &mut out);
            }
            ReplyNotFound => {
                let msg = StoreMsg::NotFound { req_id: req };
                s.handle(SimTime::from_millis(50), n(1), msg, &mut out);
            }
            Timeout => {
                // Each sweep is far past the (jittered, doubling) deadline.
                for i in 1..=u64::from(LOOKUP_RETRIES) + 1 {
                    s.on_timer(SimTime::from_secs(i * 600), timers::LOOKUP_RETRY, &mut out);
                }
            }
            ShrankHit | ShrankMiss => {
                // The root dies; the re-route finds this node is the root.
                s.overlay.declare_failed(n(1), &mut Outbox::new());
                if path == ShrankHit {
                    s.handle(SimTime::ZERO, n(5), StoreMsg::ReplicaPut { doc: d.clone() }, setup);
                }
                s.on_timer(SimTime::from_secs(60), timers::LOOKUP_RETRY, &mut out);
            }
        }
        assert!(s.pending_lookups.is_empty(), "{path:?}: pending entry left behind");
        let mut taken = Vec::new();
        s.take_concluded(&mut taken);
        let handed: Vec<u64> = taken.iter().map(|(r, _)| *r).collect();
        let embedder = req & INTERNAL_REQ_BIT == 0;
        assert_eq!(handed, if embedder { vec![req] } else { vec![] }, "{path:?}: handed over");
        let mut counts = BTreeMap::new();
        for (name, v) in out.counts().iter().filter(|(name, _)| name.starts_with("store.")) {
            *counts.entry(name.to_string()).or_insert(0.0) += v;
        }
        let mut samples: Vec<(String, f64)> = out
            .observations()
            .iter()
            .filter(|(name, _)| name.starts_with("store."))
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        (counts, samples)
    }

    #[test]
    fn every_conclusion_path_counts_once() {
        use Path::*;
        const OK: &str = "store.lookups_ok";
        const LOCAL: &str = "store.lookups_local";
        const CACHE: &str = "store.cache_served";
        const MISSING: &str = "store.lookups_missing";
        const TIMEOUT: &str = "store.lookups_timeout";
        const RETRIED: &str = "store.lookups_retried";
        const DUP: &str = "store.lookups_dup_replies";
        const FETCH: &str = "store.repair_fetches";
        const HOPS: &str = "store.lookup_hops";
        const MS: &str = "store.lookup_ms";
        type Row<'a> = (Path, &'a [(&'a str, f64)], &'a [(&'a str, f64)], &'a [(&'a str, f64)]);
        // Path; an embedder's counters and histogram samples; an audit's
        // counters (an audit never records a sample).
        let rows: &[Row<'_>] = &[
            (LocalDurable, &[(OK, 1.0), (LOCAL, 1.0)], &[(HOPS, 0.0), (MS, 0.0)], &[(FETCH, 1.0)]),
            (
                LocalCache,
                &[(OK, 1.0), (LOCAL, 1.0), (CACHE, 1.0)],
                &[(HOPS, 0.0), (MS, 0.0)],
                &[(FETCH, 1.0)],
            ),
            // The root answers with whatever it holds, floor or not.
            (
                LocalBelowFloor,
                &[(OK, 1.0), (LOCAL, 1.0)],
                &[(HOPS, 0.0), (MS, 0.0)],
                &[(FETCH, 1.0)],
            ),
            (RootMiss, &[(MISSING, 1.0)], &[], &[]),
            (ReplyDurable, &[(OK, 1.0)], &[(HOPS, 2.0), (MS, 50.0)], &[(FETCH, 1.0)]),
            (ReplyCache, &[(OK, 1.0), (CACHE, 1.0)], &[(HOPS, 2.0), (MS, 50.0)], &[(FETCH, 1.0)]),
            (ReplyNotFound, &[(MISSING, 1.0)], &[], &[]),
            (Timeout, &[(RETRIED, 3.0), (TIMEOUT, 1.0)], &[], &[(RETRIED, 3.0)]),
            (
                ShrankHit,
                &[(RETRIED, 1.0), (OK, 1.0), (LOCAL, 1.0)],
                &[(HOPS, 0.0), (MS, 60_000.0)],
                &[(RETRIED, 1.0), (FETCH, 1.0)],
            ),
            (ShrankMiss, &[(RETRIED, 1.0), (MISSING, 1.0)], &[], &[(RETRIED, 1.0)]),
            (DuplicateReply, &[(OK, 1.0), (DUP, 1.0)], &[(HOPS, 2.0), (MS, 50.0)], &[(FETCH, 1.0)]),
        ];
        let owned = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|(name, v)| (name.to_string(), *v)).collect()
        };
        for &(path, client_counts, client_samples, audit_counts) in rows {
            let (counts, samples) = drive(path, 5);
            assert_eq!(counts, owned(client_counts).into_iter().collect(), "{path:?} (client)");
            assert_eq!(samples, owned(client_samples), "{path:?} (client samples)");
            let (counts, samples) = drive(path, INTERNAL_REQ_BIT | 5);
            assert_eq!(counts, owned(audit_counts).into_iter().collect(), "{path:?} (audit)");
            assert_eq!(samples, [], "{path:?}: an audit must not feed a client histogram");
        }
    }

    /// The four callers of `gloss_governor::backoff`, pinned to the
    /// microsecond (captured before they shared it): a drift in any
    /// caller's cap, floor, jitter fraction or sample order moves a value.
    #[test]
    fn backoff_schedules_are_pinned() {
        use gloss_governor::{Admission, AdmissionGovernor};
        let micros = |d: SimDuration| d.as_micros();
        let mut g = AdmissionGovernor::new(7);
        let mut rejected = Vec::new();
        while rejected.len() < 8 {
            if let Admission::Backoff(d) = g.check(SimTime::ZERO, n(1)) {
                rejected.push(micros(d));
            }
        }
        assert_eq!(
            rejected,
            [420813, 838953, 2285124, 4543838, 8385716, 8479512, 9815818, 6516234]
        );
        let mut g = AdmissionGovernor::new(7);
        let unanswered: Vec<u64> = (0..8).map(|a| micros(g.retry_backoff(a))).collect();
        assert_eq!(
            unanswered,
            [841626, 838953, 2285124, 4543838, 8385716, 8479512, 9815818, 6516234]
        );
        let mut r = RepairScheduler::new(1.0, 1.0, 1, 42);
        let paced: Vec<u64> =
            (0..8).map(|_| micros(r.backoff(SimDuration::from_secs(2)))).collect();
        assert_eq!(paced, [1930476, 1712957, 1707340, 2304236, 1627246, 1994450, 2290688, 2399163]);
        let mut s = store_node(0x100, 3, StoreConfig::default());
        let lookups: Vec<u64> = (0..8).map(|a| micros(s.retry_delay(a))).collect();
        assert_eq!(
            lookups,
            [2352456, 4302163, 7546282, 13254216, 32946242, 67612869, 151875251, 217630638]
        );
    }
}
