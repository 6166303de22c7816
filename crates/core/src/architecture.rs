//! The [`ActiveArchitecture`] harness: builds the full stack on a
//! simulated wide-area topology and exposes the operations the examples,
//! tests, and benchmarks drive.

use crate::node::{GlossMsg, GlossNode, KnowledgeDoc};
use crate::service::ServiceSpec;
use gloss_bundle::AuthKey;
use gloss_deploy::NodeResources;
use gloss_event::{Broker, BrokerTopology, Event, Filter};
use gloss_knowledge::{DistributedKnowledge, Fact, InMemoryFacts, KnowledgeAuthority, Shipment};
use gloss_overlay::{ring_settle, OverlayNode};
use gloss_sim::{NodeIndex, SimDuration, SimRng, SimTime, Topology, World};
use gloss_store::placement::NodeSite;
use gloss_store::{Document, StoreConfig, StoreMsg, StoreNode};
use std::rc::Rc;

/// Configuration for an [`ActiveArchitecture`].
#[derive(Debug, Clone)]
pub struct ArchConfig {
    /// Number of nodes (node 0 is the coordinator).
    pub nodes: usize,
    /// Root seed.
    pub seed: u64,
    /// Storage configuration (replication, caching, healing).
    pub store: StoreConfig,
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig { nodes: 8, seed: 1, store: StoreConfig::default() }
    }
}

/// The regions the topology spans.
const REGIONS: [&str; 4] = ["scotland", "england", "europe", "australia"];

/// The assembled architecture: one [`GlossNode`] per physical node.
///
/// # Example
///
/// ```
/// use gloss_core::{ActiveArchitecture, ArchConfig};
/// let mut arch = ActiveArchitecture::build(ArchConfig { nodes: 4, ..Default::default() });
/// arch.settle();
/// assert!(arch.world().metrics().counter("sim.messages_delivered") > 0.0);
/// ```
#[derive(Debug)]
pub struct ActiveArchitecture {
    world: World<GlossNode>,
    /// Authoritative per-subject fact stores feeding delta propagation:
    /// mutate via [`knowledge_mut`](Self::knowledge_mut), ship via
    /// [`update_knowledge`](Self::update_knowledge).
    authority: KnowledgeAuthority,
    /// The text of the last knowledge document shipped, kept so the next
    /// one is written into its capacity; each document copies out only
    /// its own bytes.
    ship_buf: String,
}

impl ActiveArchitecture {
    /// Builds the stack per `cfg`.
    pub fn build(cfg: ArchConfig) -> Self {
        let topology = Topology::random(cfg.nodes, &REGIONS, cfg.seed);
        let mut rng = SimRng::new(cfg.seed).fork("gloss-arch");
        let key = AuthKey::new("evolution", b"gloss-architecture-key");

        // Broker graph: an acyclic peer star centred on the coordinator.
        // A worker crash then never partitions the event plane (the
        // brokers themselves have no topology-repair protocol; the
        // general tree/graph topologies are exercised by
        // `gloss-event`'s own networks in experiment C1).
        let mut neighbors: Vec<Vec<NodeIndex>> = vec![Vec::new(); cfg.nodes];
        for i in 1..cfg.nodes {
            neighbors[i].push(NodeIndex(0));
            neighbors[0].push(NodeIndex(i as u32));
        }

        let directory: Vec<NodeSite> = topology
            .iter()
            .map(|info| NodeSite::new(info.index, info.geo, info.region.clone()))
            .collect();

        let ring = OverlayNode::ring("gloss-node-", cfg.nodes, cfg.seed, &mut rng, true);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for (info, overlay) in topology.iter().zip(ring) {
            let i = info.index.as_usize();
            let broker =
                Broker::new(info.index, BrokerTopology::Peer { neighbors: neighbors[i].clone() });
            let store = StoreNode::new(info.index, overlay, cfg.store.clone(), directory.clone());
            let resources = NodeResources {
                node: info.index,
                region: info.region.clone(),
                geo: info.geo,
                cpu: info.cpu,
                storage: info.storage,
            };
            nodes.push(GlossNode::new(
                info.index,
                broker,
                store,
                resources,
                NodeIndex(0),
                key.clone(),
            ));
        }
        let world = World::new(topology, cfg.seed, nodes);
        ActiveArchitecture { world, authority: KnowledgeAuthority::new(), ship_buf: String::new() }
    }

    /// Runs long enough for overlay joins, broker subscriptions, and
    /// initial heartbeats to complete.
    pub fn settle(&mut self) {
        let n = self.world.topology().len();
        self.world.run_for(ring_settle(n) + SimDuration::from_secs(30));
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Runs until an absolute simulated time.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.world.topology().len()
    }

    /// Whether the architecture has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying world.
    pub fn world(&self) -> &World<GlossNode> {
        &self.world
    }

    /// Mutable world access (failure injection).
    pub fn world_mut(&mut self) -> &mut World<GlossNode> {
        &mut self.world
    }

    /// A node's state.
    pub fn node(&self, i: NodeIndex) -> &GlossNode {
        self.world.node(i)
    }

    /// Registers a contextual service: its constraints feed the evolution
    /// engine, which deploys matchlet bundles at the next sweep.
    pub fn deploy_service(&mut self, spec: ServiceSpec) {
        let cs = self
            .world
            .node_mut(NodeIndex(0))
            .coordinator_state
            .as_mut()
            .expect("node 0 is the coordinator");
        for c in spec.constraints() {
            cs.evolution.add_constraint(c);
        }
        cs.services.insert(spec.name.clone(), spec);
    }

    /// Publishes a sensed event at `node` now.
    pub fn publish(&mut self, node: NodeIndex, event: Event) {
        self.world.inject(node, node, GlossMsg::Sensor(event));
    }

    /// Publishes a sensed event at `node` at an absolute future time.
    pub fn publish_at(&mut self, at: SimTime, node: NodeIndex, event: Event) {
        self.world.inject_at(at, node, node, GlossMsg::Sensor(event));
    }

    /// Subscribes a UI client at `node`; matching events land in
    /// [`GlossNode::ui_received`].
    pub fn subscribe_ui(&mut self, node: NodeIndex, filter: Filter) {
        self.world.inject(node, node, GlossMsg::UiSubscribe(filter));
    }

    /// Writes facts about one subject into the distributed knowledge base
    /// (stored under `kb/<subject>` in the P2P store).
    ///
    /// The facts also become the authority state for the subject, so
    /// later [`knowledge_mut`](Self::knowledge_mut) +
    /// [`update_knowledge`](Self::update_knowledge) rounds ship only the
    /// changed tail as delta batches.
    pub fn seed_knowledge(&mut self, via: NodeIndex, subject: &str, facts: &[Fact]) {
        let store = self.authority.facts_mut(subject);
        store.remove_subject(subject);
        store.extend(facts.iter().cloned());
        let shipment = self.authority.snapshot(subject).expect("subject store just created");
        self.ship_knowledge(via, subject, shipment);
    }

    /// The authoritative fact store for `subject` (created on first
    /// use). Mutate it freely — inserts and retracts are logged — then
    /// call [`update_knowledge`](Self::update_knowledge) to ship the
    /// changes as an epoch-tagged delta batch.
    pub fn knowledge_mut(&mut self, subject: &str) -> &mut InMemoryFacts {
        self.authority.facts_mut(subject)
    }

    /// Ships everything that changed in `subject`'s authority store
    /// since the last shipment: a `kbdelta/<subject>@<from..to>` batch,
    /// or a full versioned `kb/<subject>` snapshot when the authority's
    /// bounded delta log truncated past the last shipment (receivers of
    /// older epochs then rebuild rather than miss deltas silently).
    pub fn update_knowledge(&mut self, via: NodeIndex, subject: &str) {
        if let Some(shipment) = self.authority.flush(subject) {
            self.ship_knowledge(via, subject, shipment);
        }
    }

    /// Writes `shipment` for `subject` into the kept `ship_buf`, with no
    /// document tree built, and inserts it into the store from `via`.
    /// A document's version is the authority epoch it brings its reader
    /// to: a snapshot's `epoch`, a batch's `to`. A shipment that changes
    /// what a reader holds reaches a later epoch than the one before, so
    /// replicas and caches converge on the newest.
    fn ship_knowledge(&mut self, via: NodeIndex, subject: &str, shipment: Shipment) {
        let out = &mut self.ship_buf;
        out.clear();
        let doc = match shipment {
            Shipment::Snapshot { source, epoch, facts } => {
                DistributedKnowledge::write_versioned(out, subject, &facts, source, epoch);
                let mut doc =
                    Document::new(DistributedKnowledge::doc_name(subject), out.as_bytes());
                doc.version = epoch;
                doc
            }
            Shipment::Delta(batch) => {
                batch.write_xml(out);
                let mut doc = Document::new(batch.doc_name(), out.as_bytes());
                doc.guid = KnowledgeDoc::Deltas.guid(subject);
                doc.version = batch.to;
                doc
            }
        };
        self.insert_document(via, doc);
    }

    /// Publishes matchlet handler code for an event kind into the storage
    /// architecture (`code/<kind>`), where discovery matchlets find it.
    pub fn register_handler_code(&mut self, via: NodeIndex, kind: &str, source: &str) {
        let doc = Document::new(format!("code/{kind}"), source.as_bytes().to_vec());
        self.insert_document(via, doc);
    }

    /// Inserts a raw document into the P2P store from `via`.
    pub fn insert_document(&mut self, via: NodeIndex, mut doc: Document) {
        doc.stamp(self.world.now());
        self.world.inject(via, via, GlossMsg::Store(StoreMsg::insert_via(via, doc)));
    }

    /// Pulls the kb document for `subject` into `node`'s local fact store
    /// (through a real storage lookup; the reply auto-ingests).
    pub fn prefetch_subject(&mut self, node: NodeIndex, subject: &str) {
        let subject = self.subject_name(subject);
        self.world.inject(node, node, GlossMsg::PrefetchSubject(subject));
    }

    /// Pulls a subject into every node (population-wide knowledge sync).
    pub fn prefetch_subject_everywhere(&mut self, subject: &str) {
        for i in 0..self.len() as u32 {
            self.prefetch_subject(NodeIndex(i), subject);
        }
    }

    /// Pulls the latest delta batch for `subject` into `node` — the
    /// incremental counterpart of [`prefetch_subject`](Self::prefetch_subject):
    /// a node whose held state the batch extends repairs in place; one
    /// it cannot extend falls back to a full fetch automatically.
    pub fn prefetch_deltas(&mut self, node: NodeIndex, subject: &str) {
        let subject = self.subject_name(subject);
        self.world.inject(node, node, GlossMsg::PrefetchDeltas(subject));
    }

    /// `subject` as a shared name: the authority store's own copy when it
    /// holds facts about the subject, so a prefetch message builds no
    /// string.
    fn subject_name(&self, subject: &str) -> Rc<str> {
        self.authority.facts(subject).map_or_else(|| subject.into(), |store| store.name(subject))
    }

    /// Pulls a subject's latest delta batch into every node.
    pub fn prefetch_deltas_everywhere(&mut self, subject: &str) {
        for i in 0..self.len() as u32 {
            self.prefetch_deltas(NodeIndex(i), subject);
        }
    }

    /// Total events synthesised by matchlets across all nodes.
    pub fn total_synthesized(&self) -> u64 {
        self.world.nodes().map(|n| n.emitted).sum()
    }

    /// Total sensor events injected.
    pub fn total_sensed(&self) -> u64 {
        self.world.metrics().counter("gloss.sensor_events") as u64
    }

    /// The coordinator's evolution-engine satisfaction (1.0 = all
    /// placement constraints met).
    pub fn satisfaction(&self) -> f64 {
        self.world
            .node(NodeIndex(0))
            .coordinator_state
            .as_ref()
            .map(|cs| cs.evolution.satisfaction())
            .unwrap_or(1.0)
    }

    /// Nodes currently hosting an installed bundle whose name starts with
    /// the given prefix.
    pub fn hosts_of(&self, bundle_prefix: &str) -> Vec<NodeIndex> {
        (0..self.len() as u32)
            .map(NodeIndex)
            .filter(|&i| self.world.is_alive(i))
            .filter(|&i| {
                self.world
                    .node(i)
                    .server
                    .installed_names()
                    .iter()
                    .any(|n| n.starts_with(bundle_prefix))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_knowledge::{FactSource, Term};

    fn arch(nodes: usize, seed: u64) -> ActiveArchitecture {
        let mut a = ActiveArchitecture::build(ArchConfig { nodes, seed, ..Default::default() });
        a.settle();
        a
    }

    /// The authority ships documents with no tree built, byte for byte
    /// what the tree writers write: the snapshot a seed ships, then the
    /// batch of the changes made since.
    #[test]
    fn shipped_knowledge_is_the_tree_writers_bytes() {
        let mut a = ActiveArchitecture::build(ArchConfig { nodes: 2, ..Default::default() });
        let facts = [
            Fact::new("bob", "likes", Term::str("fish & \"chips\"")),
            Fact::new("bob", "age", Term::Int(34)),
        ];
        a.seed_knowledge(NodeIndex(0), "bob", &facts);
        let refs: Vec<&Fact> = facts.iter().collect();
        let store = a.knowledge_mut("bob");
        let (source, epoch) = (store.version().unwrap().source, store.epoch());
        let snapshot = DistributedKnowledge::facts_to_xml_versioned("bob", &refs, source, epoch);
        assert_eq!(a.ship_buf, snapshot.to_xml());

        let store = a.knowledge_mut("bob");
        store.retract("bob", "age", &Term::Int(34));
        store.add(Fact::new("bob", "age", Term::Float(34.5)));
        a.update_knowledge(NodeIndex(1), "bob");
        let shipped = gloss_xml::parse(&a.ship_buf).unwrap();
        let batch = gloss_knowledge::DeltaBatch::from_xml(&shipped).unwrap();
        assert_eq!((batch.source, batch.from, batch.to), (source, epoch, epoch + 2));
        assert_eq!(batch.to_xml().to_xml(), a.ship_buf);
    }

    /// A knowledge document's version is the authority epoch it brings
    /// its reader to: re-seeding a subject ships a strictly newer `kb`
    /// version, and a `kbdelta` document's version is its batch's `to`.
    #[test]
    fn shipped_versions_are_the_epochs_they_bring_readers_to() {
        let mut a = arch(4, 19);
        let facts = [Fact::new("bob", "likes", Term::str("golf"))];
        let pull = |a: &mut ActiveArchitecture, deltas: bool| {
            a.run_for(SimDuration::from_secs(30));
            if deltas {
                a.prefetch_deltas(NodeIndex(3), "bob");
            } else {
                a.prefetch_subject(NodeIndex(3), "bob");
            }
            a.run_for(SimDuration::from_secs(30));
            a.node(NodeIndex(3)).ingested_versions("bob")
        };
        a.seed_knowledge(NodeIndex(1), "bob", &facts);
        let (first, _) = pull(&mut a, false);
        assert_eq!(first, Some(a.knowledge_mut("bob").epoch()));
        // The same facts again: a newer version, which the reader ingests.
        a.seed_knowledge(NodeIndex(1), "bob", &facts);
        let (second, _) = pull(&mut a, false);
        assert!(second > first, "{second:?} after {first:?}");
        assert_eq!(second, Some(a.knowledge_mut("bob").epoch()));

        a.knowledge_mut("bob").add(Fact::new("bob", "at", Term::str("home")));
        a.update_knowledge(NodeIndex(1), "bob");
        let batch = gloss_knowledge::DeltaBatch::from_xml(&gloss_xml::parse(&a.ship_buf).unwrap());
        let (_, delta) = pull(&mut a, true);
        assert_eq!(delta, Some(batch.unwrap().to));
    }

    /// Prefetch messages carry the authority store's own copy of a
    /// subject's name, so pulling a subject into every node builds no
    /// string; a subject it holds nothing about gets a name of its own.
    #[test]
    fn prefetches_share_the_authoritys_subject_name() {
        let mut a = ActiveArchitecture::build(ArchConfig { nodes: 2, ..Default::default() });
        a.seed_knowledge(NodeIndex(0), "bob", &[Fact::new("bob", "likes", Term::str("golf"))]);
        let (x, y) = (a.subject_name("bob"), a.subject_name("bob"));
        assert!(Rc::ptr_eq(&x, &y));
        let held = a.knowledge_mut("bob").query(Some("bob"), None).next().unwrap().subject.clone();
        assert!(Rc::ptr_eq(&x, &held));
        assert_eq!(&*a.subject_name("nobody"), "nobody");
    }

    /// Hands `constraints` to the coordinator's evolution engine.
    fn constrain(a: &mut ActiveArchitecture, constraints: Vec<gloss_deploy::Constraint>) {
        let cs = a.world_mut().node_mut(NodeIndex(0)).coordinator_state.as_mut().unwrap();
        for c in constraints {
            cs.evolution.add_constraint(c);
        }
    }

    fn coordinator(a: &ActiveArchitecture) -> &crate::node::CoordinatorState {
        a.node(NodeIndex(0)).coordinator_state.as_ref().unwrap()
    }

    #[test]
    fn coordinator_sees_worker_heartbeats() {
        let a = arch(6, 11);
        let cs = a.node(NodeIndex(0)).coordinator_state.as_ref().unwrap();
        // All five workers advertise over pub/sub.
        assert_eq!(cs.evolution.resources().len(), 5);
    }

    #[test]
    fn service_deployment_installs_and_subscribes() {
        let mut a = arch(6, 12);
        let spec = ServiceSpec::new(
            "hot",
            r#"rule hot { on w: event weather.reading(celsius: ?c) where ?c >= 18.0 emit alert(celsius: ?c) }"#,
            vec![(None, 2)],
        )
        .unwrap();
        a.deploy_service(spec);
        a.run_for(SimDuration::from_secs(60));
        assert_eq!(a.satisfaction(), 1.0);
        let hosts = a.hosts_of("matchlet:hot");
        assert_eq!(hosts.len(), 2);
        // The full loop: a sensor event on some node reaches the hosted
        // matchlets through pub/sub and comes back as an alert.
        a.subscribe_ui(NodeIndex(1), Filter::for_kind("alert"));
        a.run_for(SimDuration::from_secs(30));
        a.publish(NodeIndex(5), Event::new("weather.reading").with_attr("celsius", 21.0));
        a.run_for(SimDuration::from_secs(30));
        assert!(a.total_synthesized() >= 1, "matchlet fired");
        assert!(
            !a.node(NodeIndex(1)).ui_received.is_empty(),
            "alert delivered to the UI subscriber"
        );
    }

    #[test]
    fn knowledge_seeding_and_prefetch() {
        let mut a = arch(6, 13);
        let facts = vec![
            Fact::new("bob", "likes", Term::str("ice cream")),
            Fact::new("bob", "nationality", Term::str("scottish")),
        ];
        a.seed_knowledge(NodeIndex(2), "bob", &facts);
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject(NodeIndex(4), "bob");
        a.run_for(SimDuration::from_secs(30));
        let node = a.node(NodeIndex(4));
        assert!(node.knows_subject("bob"));
        assert_eq!(node.kb.query(Some("bob"), None).count(), 2);
    }

    #[test]
    fn knowledge_updates_flow_through_the_delta_matching_path() {
        let mut a = arch(6, 16);
        let spec = ServiceSpec::new(
            "fans",
            r#"rule fans { on w: event weather.reading(celsius: ?c) where fact(?u, likes, "ice cream") and ?c >= 18.0 emit fan_alert(user: ?u) }"#,
            vec![(None, 2)],
        )
        .unwrap();
        a.deploy_service(spec);
        a.run_for(SimDuration::from_secs(60));
        a.seed_knowledge(
            NodeIndex(2),
            "bob",
            &[Fact::new("bob", "likes", gloss_knowledge::Term::str("ice cream"))],
        );
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        a.subscribe_ui(NodeIndex(1), Filter::for_kind("fan_alert"));
        a.run_for(SimDuration::from_secs(10));
        for _ in 0..3 {
            a.publish(NodeIndex(5), Event::new("weather.reading").with_attr("celsius", 21.0));
            a.run_for(SimDuration::from_secs(20));
        }
        assert!(!a.node(NodeIndex(1)).ui_received.is_empty(), "bob suggested");
        // Both deployed instances share their node's one engine; repeat
        // events are served from the memoised goal solve, observable in
        // the per-node stats and the world metric.
        let hosts = a.hosts_of("matchlet:fans");
        assert!(
            hosts.iter().any(|&h| a.node(h).server.engine().stats.memo_hits > 0),
            "repeat events hit the shared index"
        );
        assert!(a.world().metrics().counter("gloss.match_memo_hits") > 0.0);
        // Re-seeding bob's profile flows retract+insert deltas through
        // ingest; the memoised result must not go stale.
        a.seed_knowledge(
            NodeIndex(2),
            "bob",
            &[Fact::new("bob", "likes", gloss_knowledge::Term::str("tea"))],
        );
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        let alerts_before = a.node(NodeIndex(1)).ui_received.len();
        a.publish(NodeIndex(5), Event::new("weather.reading").with_attr("celsius", 21.0));
        a.run_for(SimDuration::from_secs(30));
        assert_eq!(
            a.node(NodeIndex(1)).ui_received.len(),
            alerts_before,
            "updated facts stop the suggestion"
        );
    }

    #[test]
    fn delta_batches_repair_replicas_incrementally() {
        let mut a = arch(6, 17);
        a.seed_knowledge(
            NodeIndex(2),
            "bob",
            &[
                Fact::new("bob", "likes", Term::str("ice cream")),
                Fact::new("bob", "at", Term::str("home")),
            ],
        );
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        // Context churn: bob moves. Only the changed pair ships.
        a.knowledge_mut("bob").retract("bob", "at", &Term::str("home"));
        a.knowledge_mut("bob").add(Fact::new("bob", "at", Term::str("market st")));
        a.update_knowledge(NodeIndex(2), "bob");
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_deltas_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        for i in 0..6u32 {
            let node = a.node(NodeIndex(i));
            let at: Vec<_> = node.kb.query(Some("bob"), Some("at")).collect();
            assert_eq!(at.len(), 1, "node {i} holds exactly one location");
            assert_eq!(at[0].object.as_str(), Some("market st"), "node {i} repaired");
            assert_eq!(node.kb.query(Some("bob"), None).count(), 2, "node {i} full state");
        }
        let m = a.world().metrics();
        assert!(m.counter("gloss.kb_delta_applied") > 0.0, "batches applied incrementally");
        // Replica landings + six explicit prefetches of the same batch:
        // the re-deliveries past the first are recognised as stale, not
        // re-applied (which would retract a live fact).
        assert!(m.counter("gloss.kb_delta_stale") > 0.0, "re-deliveries recognised as stale");
        assert_eq!(m.counter("gloss.kb_delta_fallback"), 0.0, "no node needed a full fetch");
    }

    #[test]
    fn truncated_delta_log_falls_back_to_snapshot_shipping() {
        let mut a = arch(6, 18);
        a.seed_knowledge(NodeIndex(2), "bob", &[Fact::new("bob", "seq", Term::Int(-1))]);
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        // More unshipped churn than the authority's bounded delta log
        // holds: the update MUST ship as a full snapshot (a delta batch
        // would silently miss the truncated prefix).
        for i in 0..2500i64 {
            a.knowledge_mut("bob").retract("bob", "seq", &Term::Int(i - 1));
            a.knowledge_mut("bob").add(Fact::new("bob", "seq", Term::Int(i)));
        }
        assert_eq!(a.knowledge_mut("bob").delta_log_truncations(), 0);
        a.update_knowledge(NodeIndex(2), "bob");
        assert_eq!(a.knowledge_mut("bob").delta_log_truncations(), 1, "wrap observed, counted");
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        for i in 0..6u32 {
            let seq: Vec<_> = a.node(NodeIndex(i)).kb.query(Some("bob"), Some("seq")).collect();
            assert_eq!(seq.len(), 1, "node {i} rebuilt from the snapshot");
            assert_eq!(seq[0].object, Term::Int(2499));
        }
        // The post-truncation snapshot re-anchors: subsequent churn
        // ships as deltas again and applies on top.
        a.knowledge_mut("bob").add(Fact::new("bob", "extra", Term::Int(1)));
        a.update_knowledge(NodeIndex(2), "bob");
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_deltas_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        assert!(a.world().metrics().counter("gloss.kb_delta_applied") > 0.0);
        assert_eq!(a.node(NodeIndex(4)).kb.query(Some("bob"), None).count(), 2);
    }

    #[test]
    fn gap_batches_force_a_full_fetch_that_converges() {
        use gloss_knowledge::{DeltaBatch, FactDelta};
        let mut a = arch(6, 19);
        a.seed_knowledge(NodeIndex(2), "bob", &[Fact::new("bob", "likes", Term::str("tea"))]);
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_subject_everywhere("bob");
        a.run_for(SimDuration::from_secs(30));
        // A hand-crafted batch starting past every receiver's epoch (as
        // if intervening batches were lost): nobody can apply it, and
        // applying it anyway would corrupt the fact set.
        let source = a.knowledge_mut("bob").version().unwrap().source;
        let batch = DeltaBatch {
            subject: "bob".into(),
            source,
            from: 40,
            to: 41,
            deltas: vec![FactDelta::Insert(Fact::new("bob", "bogus", Term::Int(1)))],
        };
        let mut doc = Document::new(batch.doc_name(), batch.to_xml().to_xml().into_bytes());
        doc.guid = KnowledgeDoc::Deltas.guid("bob");
        a.insert_document(NodeIndex(2), doc);
        a.run_for(SimDuration::from_secs(30));
        a.prefetch_deltas_everywhere("bob");
        a.run_for(SimDuration::from_secs(60));
        let m = a.world().metrics();
        assert!(m.counter("gloss.kb_delta_fallback") > 0.0, "gap detected, full fetch issued");
        assert_eq!(m.counter("gloss.kb_delta_applied"), 0.0, "the gap batch never applied");
        for i in 0..6u32 {
            let node = a.node(NodeIndex(i));
            assert_eq!(node.kb.query(Some("bob"), Some("bogus")).count(), 0, "node {i} clean");
            assert_eq!(node.kb.query(Some("bob"), None).count(), 1, "node {i} converged");
        }
    }

    #[test]
    fn node_failure_repairs_service_placement() {
        let mut a = arch(7, 14);
        let spec = ServiceSpec::new(
            "svc",
            r#"rule r { on a: event ping() emit pong() }"#,
            vec![(None, 2)],
        )
        .unwrap();
        a.deploy_service(spec);
        a.run_for(SimDuration::from_secs(60));
        let hosts = a.hosts_of("matchlet:svc");
        assert_eq!(hosts.len(), 2);
        a.world_mut().crash(hosts[0]);
        // Heartbeats stop; deadline 30 s; sweep 10 s; redeploy.
        a.run_for(SimDuration::from_secs(150));
        assert_eq!(a.satisfaction(), 1.0, "constraint repaired after crash");
        let new_hosts = a.hosts_of("matchlet:svc");
        assert!(new_hosts.iter().all(|h| *h != hosts[0]));
        assert!(new_hosts.len() >= 2);
        // One crash is one failure.
        assert_eq!(a.world().metrics().counter("gloss.failures_detected"), 1.0);
    }

    /// A crashed worker holding a component instance is declared failed,
    /// and the component is placed again away from it; the repair is
    /// measured as its own episode.
    #[test]
    fn crash_is_detected_and_repaired() {
        let mut a = arch(8, 2);
        constrain(&mut a, vec![gloss_deploy::Constraint::count("replicator", None, 3)]);
        a.run_for(SimDuration::from_secs(120));
        assert_eq!(a.satisfaction(), 1.0);
        let episodes = a.world().metrics().summary("gloss.repair_ms").count;
        assert_eq!(episodes, 1, "the initial rollout is one repair episode");
        let placed = coordinator(&a).evolution.deployment().instances_of("replicator").next();
        let victim = placed.unwrap().1;
        a.world_mut().crash(victim);
        // Heartbeat stops; deadline 30 s + sweep 10 s + bundle RTT.
        a.run_for(SimDuration::from_secs(120));
        assert_eq!(a.satisfaction(), 1.0, "constraint repaired");
        assert!(coordinator(&a).evolution.failures_detected >= 1);
        let metrics = a.world().metrics();
        assert!(metrics.counter("gloss.failures_detected") >= 1.0);
        assert!(
            coordinator(&a)
                .evolution
                .deployment()
                .instances_of("replicator")
                .all(|(_, n)| n != victim),
            "replacement avoids the dead node"
        );
        let repair = metrics.summary("gloss.repair_ms");
        assert_eq!(repair.count, episodes + 1, "the repair episode is measured");
        assert!(repair.max > 0.0);
    }

    /// A worker that crashed, was declared failed and recovers advertises
    /// again, and the evolution engine places on it once it is needed.
    #[test]
    fn a_recovered_worker_advertises_again_and_is_usable() {
        // Three workers, two instances: after one more crash the
        // recovered worker is the only fresh host left.
        let mut a = arch(4, 3);
        constrain(&mut a, vec![gloss_deploy::Constraint::count("matcher", None, 2)]);
        a.run_for(SimDuration::from_secs(60));
        assert_eq!(a.satisfaction(), 1.0);
        let hosting = |a: &ActiveArchitecture, n: NodeIndex| {
            coordinator(a).evolution.deployment().count_on(n)
        };
        let victim = (1..4).map(NodeIndex).find(|&n| hosting(&a, n) > 0).unwrap();
        a.world_mut().crash(victim);
        a.run_for(SimDuration::from_secs(90));
        let alive =
            |a: &ActiveArchitecture| coordinator(a).evolution.resources().contains_key(&victim);
        assert!(!alive(&a), "declared failed");
        assert_eq!(hosting(&a, victim), 0);
        assert_eq!(a.satisfaction(), 1.0, "repaired on the other two workers");

        a.world_mut().recover(victim);
        a.run_for(SimDuration::from_secs(60));
        assert!(alive(&a), "it advertises again");

        let other = (1..4).map(NodeIndex).find(|&n| n != victim && hosting(&a, n) > 0).unwrap();
        a.world_mut().crash(other);
        a.run_for(SimDuration::from_secs(90));
        assert_eq!(a.satisfaction(), 1.0);
        assert_eq!(hosting(&a, victim), 1, "the recovered worker hosts the replacement");
    }

    /// More regional instances than the region has workers, under a
    /// one-per-node cap: the constraint stays violated, each regional
    /// worker hosts exactly one instance, and nothing is shipped twice.
    #[test]
    fn impossible_constraints_stay_violated_without_stacking() {
        use gloss_deploy::Constraint;
        let mut a = arch(7, 4);
        constrain(
            &mut a,
            vec![Constraint::Capacity { max: 1 }, Constraint::count("big", Some("scotland"), 50)],
        );
        a.run_for(SimDuration::from_secs(120));
        assert!(a.satisfaction() < 1.0);
        let scots: Vec<NodeIndex> = (1..7)
            .map(NodeIndex)
            .filter(|&n| coordinator(&a).evolution.resources()[&n].region == "scotland")
            .collect();
        assert!(!scots.is_empty(), "the seed puts workers in scotland");
        for n in (1..7).map(NodeIndex) {
            let want = usize::from(scots.contains(&n));
            assert_eq!(a.node(n).server.installed_names().len(), want, "{n}");
            assert_eq!(coordinator(&a).evolution.deployment().count_on(n), want, "{n}");
        }
        let sent = a.world().metrics().counter("gloss.bundles_sent");
        assert_eq!(sent, scots.len() as f64, "one bundle per regional worker");
    }

    #[test]
    fn discovery_deploys_handler_for_unknown_kind() {
        let mut a = arch(6, 15);
        // Handler code lives in the storage architecture.
        a.register_handler_code(
            NodeIndex(1),
            "pollen.reading",
            r#"rule pollen { on p: event pollen.reading(level: ?l) where ?l > 5 emit pollen_alert(level: ?l) }"#,
        );
        a.run_for(SimDuration::from_secs(30));
        a.subscribe_ui(NodeIndex(2), Filter::for_kind("pollen_alert"));
        a.run_for(SimDuration::from_secs(10));
        // An unknown kind arrives at node 3: nothing handles it yet.
        a.publish(NodeIndex(3), Event::new("pollen.reading").with_attr("level", 8i64));
        a.run_for(SimDuration::from_secs(60));
        let cs = a.node(NodeIndex(0)).coordinator_state.as_ref().unwrap();
        assert!(cs.discovered.contains(&"pollen.reading".to_string()));
        assert!(!a.hosts_of("discovered:pollen.reading").is_empty());
        // Subsequent events are matched by the discovered matchlet.
        a.publish(NodeIndex(3), Event::new("pollen.reading").with_attr("level", 9i64));
        a.run_for(SimDuration::from_secs(30));
        assert!(
            !a.node(NodeIndex(2)).ui_received.is_empty(),
            "post-discovery events produce alerts"
        );
    }

    #[test]
    fn unsatisfiable_ui_subscriptions_are_dropped() {
        use gloss_event::Op;
        let mut a = arch(4, 21);
        // `x < 5 and x > 9` can never match: the node drops it instead
        // of spreading it through the routing tables.
        let bad = Filter::for_kind("alert").with_constraint("x", Op::Lt, 5i64).with_constraint(
            "x",
            Op::Gt,
            9i64,
        );
        a.subscribe_ui(NodeIndex(1), bad);
        a.run_for(SimDuration::from_secs(5));
        assert_eq!(a.world().metrics().counter("gloss.subs_rejected"), 1.0);
        assert!(a.node(NodeIndex(1)).ui_filters.is_empty());
        // A satisfiable filter on the same attribute registers normally.
        let good = Filter::for_kind("alert").with_constraint("x", Op::Gt, 5i64);
        a.subscribe_ui(NodeIndex(1), good);
        a.run_for(SimDuration::from_secs(5));
        assert_eq!(a.node(NodeIndex(1)).ui_filters.len(), 1);
    }
}
