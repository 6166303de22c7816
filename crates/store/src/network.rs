//! Simulation harness for the storage layer: insert/lookup workloads,
//! cache experiments, healing under churn, and erasure-coded storage.

use crate::document::{Document, Priority};
use crate::erasure::{ErasureCode, ErasureError};
use crate::placement::NodeSite;
use crate::repair::FragmentManifest;
use crate::store_node::{LookupOutcome, StoreConfig, StoreMsg, StoreNode};
use gloss_overlay::{ring_settle, Key, OverlayNode};
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimRng, SimTime, Topology, World};
use std::collections::BTreeMap;

/// The world node wrapping a [`StoreNode`].
#[derive(Debug)]
pub struct StoreWorldNode {
    /// The storage state machine.
    pub store: StoreNode,
    /// Every lookup this node issued that has concluded, in the order
    /// they concluded: the harness's results, kept for the whole run.
    concluded: Vec<(u64, LookupOutcome)>,
}

impl Node for StoreWorldNode {
    type Msg = StoreMsg;

    fn handle(&mut self, now: SimTime, input: Input<StoreMsg>, out: &mut Outbox<StoreMsg>) {
        match input {
            Input::Start => self.store.on_start(now, out),
            Input::Timer { tag } => self.store.on_timer(now, tag, out),
            Input::Msg { from, msg } => self.store.handle(now, from, msg, out),
        }
        self.store.take_concluded(&mut self.concluded);
    }
}

/// A storage network over the overlay, on a simulated wide-area topology.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct StoreNetwork {
    world: World<StoreWorldNode>,
    next_req: u64,
    req_origin: BTreeMap<u64, NodeIndex>,
    rng: SimRng,
}

impl StoreNetwork {
    /// Builds `n` storage nodes over a fresh overlay, scattered across six
    /// world regions.
    pub fn build(n: usize, cfg: StoreConfig, seed: u64) -> Self {
        let topology = Topology::random(
            n,
            &["scotland", "england", "europe", "us-east", "us-west", "australia"],
            seed,
        );
        let mut rng = SimRng::new(seed).fork("store-net");
        let directory: Vec<NodeSite> = topology
            .iter()
            .map(|info| NodeSite::new(info.index, info.geo, info.region.clone()))
            .collect();
        let nodes = OverlayNode::ring("store-node-", n, seed, &mut rng, true)
            .into_iter()
            .map(|overlay| {
                let idx = overlay.id().node;
                StoreWorldNode {
                    store: StoreNode::new(idx, overlay, cfg.clone(), directory.clone()),
                    concluded: Vec::new(),
                }
            })
            .collect();
        let world = World::new(topology, seed, nodes);
        StoreNetwork { world, next_req: 0, req_origin: BTreeMap::new(), rng }
    }

    /// Runs the simulation long enough for all joins to complete.
    pub fn settle(&mut self) {
        self.run_for(ring_settle(self.len()));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.world.topology().len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A uniformly random node.
    pub fn random_node(&mut self) -> NodeIndex {
        NodeIndex(self.rng.index(self.len()) as u32)
    }

    /// A random node in the given region, if any.
    pub fn random_node_in(&mut self, region: &str) -> Option<NodeIndex> {
        let nodes: Vec<NodeIndex> =
            self.world.topology().in_region(region).map(|i| i.index).collect();
        self.rng.choose(&nodes).copied()
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The underlying world.
    pub fn world(&self) -> &World<StoreWorldNode> {
        &self.world
    }

    /// Mutable world access (failure injection etc.).
    pub fn world_mut(&mut self) -> &mut World<StoreWorldNode> {
        &mut self.world
    }

    /// Inserts a document from `node`.
    pub fn insert(&mut self, node: NodeIndex, mut doc: Document) {
        doc.stamp(self.world.now());
        self.world.inject(node, node, StoreMsg::insert_via(node, doc));
    }

    /// Looks `guid` up from `node` through the client path every lookup
    /// takes ([`StoreMsg::LocalLookup`]): `node`'s own fresh copy answers
    /// at once; otherwise the request is routed, re-routed with
    /// exponential backoff while unanswered, and concludes as a timeout
    /// once the attempt budget is spent. Returns the request id
    /// [`result`](Self::result) takes.
    pub fn lookup_retrying(&mut self, node: NodeIndex, guid: Key) -> u64 {
        self.next_req += 1;
        let id = self.next_req;
        self.req_origin.insert(id, node);
        self.world.inject(node, node, StoreMsg::LocalLookup { guid, req_id: id });
        id
    }

    /// The outcome of a lookup, if concluded.
    pub fn result(&self, req_id: u64) -> Option<&LookupOutcome> {
        let origin = self.req_origin.get(&req_id)?;
        let concluded = &self.world.node(*origin).concluded;
        concluded.iter().find(|(id, _)| *id == req_id).map(|(_, outcome)| outcome)
    }

    /// How many *alive* nodes durably hold `guid`.
    pub fn replica_count(&self, guid: Key) -> usize {
        (0..self.len() as u32)
            .map(NodeIndex)
            .filter(|&i| self.world.is_alive(i) && self.world.node(i).store.holds(guid))
            .count()
    }

    /// Crashes a node.
    pub fn crash(&mut self, node: NodeIndex) {
        self.world.crash(node);
    }

    /// Crashes every node in `region` (correlated machine-room loss);
    /// returns how many went down.
    pub fn crash_region(&mut self, region: &str) -> usize {
        let victims: Vec<NodeIndex> =
            self.world.topology().in_region(region).map(|i| i.index).collect();
        for &v in &victims {
            self.world.crash(v);
        }
        victims.len()
    }

    /// A metrics counter's current value (e.g. `store.repair_puts`).
    pub fn counter(&self, name: &str) -> f64 {
        self.world.metrics().counter(name)
    }

    /// Inserts `content` as `(m, n)` erasure-coded shards named
    /// `name#shard{i}` plus a `name#manifest` document (whose primary
    /// becomes the object's repair coordinator); returns the shard GUIDs
    /// in index order. All documents carry `priority`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError`] for invalid `(m, n)`.
    pub fn insert_erasure_priority(
        &mut self,
        node: NodeIndex,
        name: &str,
        content: &[u8],
        m: usize,
        n: usize,
        priority: Priority,
    ) -> Result<Vec<Key>, ErasureError> {
        let code = ErasureCode::new(m, n)?;
        let shards = code.encode(content);
        let mut guids = Vec::with_capacity(n);
        for (i, shard) in shards.into_iter().enumerate() {
            let doc = Document::new(format!("{name}#shard{i}"), shard).with_priority(priority);
            guids.push(doc.guid);
            self.insert(node, doc);
        }
        let manifest = FragmentManifest { base: name.to_string(), m, n, len: content.len() };
        self.insert(node, manifest.to_doc(priority));
        Ok(guids)
    }

    /// [`insert_erasure_priority`](Self::insert_erasure_priority) at
    /// [`Priority::Normal`].
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError`] for invalid `(m, n)`.
    pub fn insert_erasure(
        &mut self,
        node: NodeIndex,
        name: &str,
        content: &[u8],
        m: usize,
        n: usize,
    ) -> Result<Vec<Key>, ErasureError> {
        self.insert_erasure_priority(node, name, content, m, n, Priority::Normal)
    }

    /// How many of the `n` shards of erasure object `name` still have at
    /// least one alive durable holder.
    pub fn shards_alive(&self, name: &str, n: usize) -> usize {
        (0..n)
            .filter(|&i| {
                let guid = Key::hash_of_str(&FragmentManifest::shard_name(name, i));
                self.replica_count(guid) > 0
            })
            .count()
    }

    /// Fetches and reconstructs an erasure-coded object by issuing
    /// lookups for all shards; call after [`run_for`](Self::run_for) has
    /// let the lookups conclude, passing the ids returned here.
    pub fn lookup_erasure(&mut self, node: NodeIndex, shard_guids: &[Key]) -> Vec<u64> {
        shard_guids.iter().map(|g| self.lookup_retrying(node, *g)).collect()
    }

    /// Attempts reconstruction from the concluded shard lookups.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::NotEnoughShards`] when too few shards were
    /// retrievable.
    pub fn reconstruct(
        &self,
        req_ids: &[u64],
        m: usize,
        n: usize,
        len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let code = ErasureCode::new(m, n)?;
        let mut shards = Vec::new();
        for (i, id) in req_ids.iter().enumerate() {
            if let Some(r) = self.result(*id) {
                if let Some(doc) = &r.doc {
                    shards.push((i, doc.content.to_vec()));
                }
            }
        }
        code.decode(&shards, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled(n: usize, cfg: StoreConfig, seed: u64) -> StoreNetwork {
        let mut net = StoreNetwork::build(n, cfg, seed);
        net.settle();
        net
    }

    #[test]
    fn insert_then_lookup_from_elsewhere() {
        let mut net = settled(16, StoreConfig::default(), 11);
        let writer = NodeIndex(2);
        let reader = NodeIndex(13);
        let doc = Document::new("menu", b"pistachio, vanilla".to_vec());
        net.insert(writer, doc.clone());
        net.run_for(SimDuration::from_secs(30));
        assert!(net.replica_count(doc.guid) >= 1);
        let id = net.lookup_retrying(reader, doc.guid);
        net.run_for(SimDuration::from_secs(30));
        let r = net.result(id).expect("lookup concluded");
        assert_eq!(r.doc.as_ref().unwrap().content, doc.content);
    }

    #[test]
    fn replication_reaches_k_nodes() {
        let cfg = StoreConfig { replicas: 3, ..Default::default() };
        let mut net = settled(16, cfg, 12);
        let doc = Document::new("replicated-doc", vec![7u8; 64]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(60));
        assert!(net.replica_count(doc.guid) >= 3, "got {} replicas", net.replica_count(doc.guid));
    }

    #[test]
    fn missing_guid_concludes_not_found() {
        let mut net = settled(12, StoreConfig::default(), 13);
        let id = net.lookup_retrying(NodeIndex(3), Key::hash_of_str("never-inserted"));
        net.run_for(SimDuration::from_secs(30));
        let r = net.result(id).expect("concluded");
        assert!(r.doc.is_none());
    }

    #[test]
    fn repeated_reads_hit_cache_and_get_faster() {
        let mut net = settled(20, StoreConfig::default(), 14);
        let doc = Document::new("hot-doc", vec![1u8; 256]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(30));
        let reader = NodeIndex(19);
        let first = net.lookup_retrying(reader, doc.guid);
        net.run_for(SimDuration::from_secs(30));
        let first_latency = net.result(first).unwrap().latency;
        let second = net.lookup_retrying(reader, doc.guid);
        net.run_for(SimDuration::from_secs(30));
        let r2 = net.result(second).unwrap();
        assert!(r2.from_cache || r2.latency < first_latency);
        assert!(
            r2.latency < first_latency,
            "cached read {:?} not faster than first {:?}",
            r2.latency,
            first_latency
        );
    }

    #[test]
    fn healing_restores_replica_count_after_crash() {
        let cfg = StoreConfig {
            replicas: 3,
            heal_interval: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut net = settled(16, cfg, 15);
        let doc = Document::new("precious", vec![9u8; 128]);
        net.insert(NodeIndex(1), doc.clone());
        net.run_for(SimDuration::from_secs(40));
        let before = net.replica_count(doc.guid);
        assert!(before >= 3);
        // Crash one replica holder.
        let holder = (0..net.len() as u32)
            .map(NodeIndex)
            .find(|&i| net.world().node(i).store.holds(doc.guid))
            .unwrap();
        net.crash(holder);
        assert!(net.replica_count(doc.guid) < before);
        // Probes detect the death (~20 s), heal runs every 10 s.
        net.run_for(SimDuration::from_secs(120));
        assert!(
            net.replica_count(doc.guid) >= 3,
            "healed back to {} replicas",
            net.replica_count(doc.guid)
        );
    }

    #[test]
    fn erasure_round_trip_with_node_loss() {
        let cfg = StoreConfig { replicas: 1, ..Default::default() };
        let mut net = settled(20, cfg, 16);
        let content: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let guids = net.insert_erasure(NodeIndex(0), "big-object", &content, 4, 8).unwrap();
        net.run_for(SimDuration::from_secs(30));
        // Crash three arbitrary nodes; any 4 of 8 shards suffice.
        for i in [3u32, 7, 11] {
            net.crash(NodeIndex(i));
        }
        net.run_for(SimDuration::from_secs(60));
        let reader = NodeIndex(19);
        let ids = net.lookup_erasure(reader, &guids);
        net.run_for(SimDuration::from_secs(60));
        let restored = net.reconstruct(&ids, 4, 8, content.len()).unwrap();
        assert_eq!(restored, content);
    }

    #[test]
    fn crash_purges_replica_location_maps_network_wide() {
        let cfg = StoreConfig {
            replicas: 3,
            heal_interval: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut net = settled(16, cfg, 21);
        let doc = Document::new("tracked-doc", vec![3u8; 128]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(40));
        // Find the primary (the holder that believes it is responsible)
        // and one acknowledged replica holder to kill.
        let primary = (0..net.len() as u32)
            .map(NodeIndex)
            .find(|&i| {
                let s = &net.world().node(i).store;
                s.holds(doc.guid) && s.is_primary_for(doc.guid) && s.known_replicas(doc.guid) > 0
            })
            .expect("a primary with acknowledged replicas");
        let victim = (0..net.len() as u32)
            .map(NodeIndex)
            .find(|&i| i != primary && net.world().node(i).store.holds(doc.guid))
            .expect("a replica holder");
        net.crash(victim);
        // Probes detect the death; every node's failure drain then purges
        // the dead peer from its location maps.
        net.run_for(SimDuration::from_secs(90));
        assert!(
            net.counter("store.locations_purged") >= 1.0,
            "crash purged at least one location entry"
        );
        assert!(
            net.replica_count(doc.guid) >= 3,
            "repair restored redundancy to {} alive holders",
            net.replica_count(doc.guid)
        );
    }

    #[test]
    fn high_priority_documents_get_extra_replicas() {
        let cfg = StoreConfig { replicas: 2, ..Default::default() };
        let mut net = settled(16, cfg, 22);
        let high = Document::new("vital", vec![8u8; 64]).with_priority(Priority::High);
        let low = Document::new("scratch", vec![8u8; 64]).with_priority(Priority::Low);
        net.insert(NodeIndex(0), high.clone());
        net.insert(NodeIndex(1), low.clone());
        // The repair scan tops the high-tier doc up to replicas +
        // TIER_HIGH_EXTRA even though initial placement may find fewer
        // usable targets.
        net.run_for(SimDuration::from_secs(90));
        assert!(
            net.replica_count(high.guid) >= 2 + crate::store_node::TIER_HIGH_EXTRA,
            "high tier reached {} copies",
            net.replica_count(high.guid)
        );
        assert!(net.replica_count(low.guid) >= 1);
    }

    #[test]
    fn retrying_lookup_concludes_even_when_every_holder_crashed() {
        let cfg = StoreConfig { replicas: 2, ..Default::default() };
        let mut net = settled(16, cfg, 31);
        let doc = Document::new("fragile", vec![9u8; 64]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(30));
        let victims: Vec<NodeIndex> = (0..net.len() as u32)
            .map(NodeIndex)
            .filter(|&i| net.world().node(i).store.holds(doc.guid))
            .collect();
        assert!(!victims.is_empty());
        let reader = (0..net.len() as u32)
            .map(NodeIndex)
            .find(|i| !victims.contains(i))
            .expect("a surviving reader");
        for v in victims {
            net.crash(v);
        }
        // A lookup routed towards a dead holder is re-routed with backoff
        // and concludes — as not-found or a timeout — within the retry
        // budget.
        let id = net.lookup_retrying(reader, doc.guid);
        net.run_for(SimDuration::from_secs(90));
        let r = net.result(id).expect("lookup never concluded despite retry plane");
        assert!(r.doc.is_none(), "every durable copy died with the crash");
    }

    #[test]
    fn fragment_repair_recreates_lost_shards() {
        let cfg = StoreConfig {
            replicas: 2,
            heal_interval: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut net = settled(20, cfg, 23);
        let content: Vec<u8> = (0..600u32).map(|i| (i * 7 % 251) as u8).collect();
        net.insert_erasure(NodeIndex(0), "sharded", &content, 3, 6).unwrap();
        net.run_for(SimDuration::from_secs(40));
        assert_eq!(net.shards_alive("sharded", 6), 6);
        // Kill every durable holder of shard 4: no surviving copy, so
        // only re-encoding from the other shards can bring it back.
        let g4 = Key::hash_of_str("sharded#shard4");
        let victims: Vec<NodeIndex> = (0..net.len() as u32)
            .map(NodeIndex)
            .filter(|&i| net.world().is_alive(i) && net.world().node(i).store.holds(g4))
            .collect();
        assert!(!victims.is_empty());
        for v in victims {
            net.crash(v);
        }
        assert!(net.shards_alive("sharded", 6) < 6, "shard 4 is gone");
        net.run_for(SimDuration::from_secs(240));
        assert_eq!(
            net.shards_alive("sharded", 6),
            6,
            "repair pipeline re-encoded the lost shard from survivors"
        );
        assert!(net.counter("store.repair_shards") >= 1.0);
    }

    #[test]
    fn backup_policy_creates_remote_replica() {
        let cfg =
            StoreConfig { replicas: 1, backup_policy_min_km: Some(5_000.0), ..Default::default() };
        let mut net = settled(18, cfg, 17);
        let doc = Document::new("backup-me", vec![5u8; 64]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(60));
        // Find holders and check at least two are far apart.
        let holders: Vec<NodeIndex> = (0..net.len() as u32)
            .map(NodeIndex)
            .filter(|&i| net.world().node(i).store.holds(doc.guid))
            .collect();
        assert!(holders.len() >= 2, "backup replica created");
        let far = holders.iter().any(|&a| {
            holders.iter().any(|&b| {
                net.world().topology().node(a).geo.distance_km(net.world().topology().node(b).geo)
                    >= 5_000.0
            })
        });
        assert!(far, "some pair of holders is geographically remote");
    }

    #[test]
    fn latency_policy_pulls_data_toward_readers() {
        let cfg = StoreConfig {
            replicas: 1,
            cache_enabled: false, // isolate the policy effect from caching
            latency_policy_threshold: Some(3),
            ..Default::default()
        };
        let mut net = settled(18, cfg, 18);
        let doc = Document::new("personal-data", vec![2u8; 64]);
        net.insert(NodeIndex(0), doc.clone());
        net.run_for(SimDuration::from_secs(30));
        let reader = net.random_node_in("australia").unwrap();
        // Read repeatedly from Australia.
        let mut latencies = Vec::new();
        for _ in 0..6 {
            let id = net.lookup_retrying(reader, doc.guid);
            net.run_for(SimDuration::from_secs(20));
            latencies.push(net.result(id).unwrap().latency);
        }
        let first = latencies.first().unwrap();
        let last = latencies.last().unwrap();
        assert!(last < first, "policy should cut read latency: first {first}, last {last}");
    }
}
