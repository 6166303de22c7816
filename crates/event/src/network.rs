//! Simulation harness: broker networks, clients, and the three
//! architectures compared in experiment C1 (centralized, hierarchical,
//! acyclic peer).

use crate::broker::{Broker, BrokerMsg, BrokerTopology, SubId};
use crate::filter::{Filter, Subscription};
use crate::notification::{Event, EventId};
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimTime, Topology, World};
use std::collections::{BTreeMap, BTreeSet};

/// What a node in the pub/sub world is.
#[derive(Debug, Clone)]
pub enum Role {
    /// A broker, or the centralized architecture's one server (boxed:
    /// the counting index makes it by far the largest role).
    Broker(Box<Broker>),
    /// An end client: publishes, subscribes, records deliveries.
    Client(ClientApi),
}

/// Client-side state: its access broker, its subscriptions (used to detect
/// false deliveries), and everything it has received.
#[derive(Debug, Clone)]
pub struct ClientApi {
    /// The broker this client is attached to.
    pub access: NodeIndex,
    /// Active subscriptions (mirrors what was sent to the broker).
    pub subs: Vec<Subscription>,
    /// Events received, in arrival order.
    pub received: Vec<Event>,
    seen: BTreeSet<EventId>,
    /// Events received more than once.
    pub duplicates: u64,
    /// Events received that match none of this client's subscriptions.
    pub false_deliveries: u64,
}

impl ClientApi {
    fn new(access: NodeIndex) -> Self {
        ClientApi {
            access,
            subs: Vec::new(),
            received: Vec::new(),
            seen: BTreeSet::new(),
            duplicates: 0,
            false_deliveries: 0,
        }
    }

    /// Events of a given kind received so far.
    pub fn received_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> {
        self.received.iter().filter(move |e| e.kind() == kind)
    }
}

/// One node of the pub/sub simulation.
#[derive(Debug, Clone)]
pub struct PubSubNode {
    /// The node's role.
    pub role: Role,
}

impl ClientApi {
    fn ingest(&mut self, now: SimTime, msg: BrokerMsg, out: &mut Outbox<BrokerMsg>) {
        if let BrokerMsg::Replayed { events, .. } = msg {
            for (_, event) in events {
                self.ingest(now, BrokerMsg::Notify(event), out);
            }
        } else if let BrokerMsg::Notify(event) = msg {
            let latency_ms = now.since(event.published_at()).as_secs_f64() * 1e3;
            out.observe("pubsub.delivery_ms", latency_ms);
            out.count("pubsub.delivered", 1.0);
            if !self.seen.insert(event.id()) {
                self.duplicates += 1;
                out.count("pubsub.duplicates", 1.0);
            }
            if !self.subs.iter().any(|s| s.filter.matches(&event)) {
                self.false_deliveries += 1;
                out.count("pubsub.false_deliveries", 1.0);
            }
            self.received.push(event);
        }
    }
}

impl Node for PubSubNode {
    type Msg = BrokerMsg;

    fn handle(&mut self, now: SimTime, input: Input<BrokerMsg>, out: &mut Outbox<BrokerMsg>) {
        let Input::Msg { from, msg } = input else {
            return;
        };
        match &mut self.role {
            Role::Broker(b) => b.handle(now, from, msg, out),
            Role::Client(c) => c.ingest(now, msg, out),
        }
    }
}

/// Which broker architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// One central server (Elvin-like): a single broker with no
    /// neighbour, to which every client attaches.
    Centralized,
    /// A tree of brokers; subscriptions flow to the root, events flood up.
    Hierarchical,
    /// An acyclic peer graph with covering-pruned subscription propagation.
    AcyclicPeer,
}

/// Configuration for [`PubSubNetwork`].
#[derive(Debug, Clone)]
pub struct PubSubConfig {
    /// Which architecture to build.
    pub architecture: Architecture,
    /// Number of brokers. `Centralized` builds one server instead and
    /// attaches all `brokers × clients_per_broker` clients to it.
    pub brokers: usize,
    /// Clients attached per broker.
    pub clients_per_broker: usize,
    /// RNG seed (topology, latencies).
    pub seed: u64,
    /// Bound every broker's ingress (the central server's included) with
    /// this load-shedding policy (`None` = unbounded legacy behaviour).
    pub shedding: Option<gloss_governor::ShedConfig>,
}

impl Default for PubSubConfig {
    fn default() -> Self {
        PubSubConfig {
            architecture: Architecture::AcyclicPeer,
            brokers: 4,
            clients_per_broker: 4,
            seed: 1,
            shedding: None,
        }
    }
}

/// The regions a network's nodes are scattered over.
const REGIONS: [&str; 3] = ["scotland", "england", "europe"];

/// A complete pub/sub deployment on a simulated topology.
///
/// # Example
///
/// ```
/// use gloss_event::{Event, Filter, PubSubConfig, PubSubNetwork};
/// use gloss_sim::SimDuration;
///
/// let mut net = PubSubNetwork::build(PubSubConfig::default());
/// let clients: Vec<_> = net.clients().to_vec();
/// net.subscribe(clients[0], Filter::for_kind("ping"));
/// net.run_for(SimDuration::from_secs(1)); // let subscriptions propagate
/// net.publish(clients[5], Event::new("ping"));
/// net.run_for(SimDuration::from_secs(5));
/// assert_eq!(net.client(clients[0]).received.len(), 1);
/// ```
#[derive(Debug)]
pub struct PubSubNetwork {
    world: World<PubSubNode>,
    brokers: Vec<NodeIndex>,
    clients: Vec<NodeIndex>,
    sub_seq: BTreeMap<NodeIndex, u64>,
    pub_seq: BTreeMap<NodeIndex, u64>,
}

impl PubSubNetwork {
    /// Builds a network per the configuration and attaches all clients.
    pub fn build(cfg: PubSubConfig) -> Self {
        let broker_count = match cfg.architecture {
            Architecture::Centralized => 1,
            _ => cfg.brokers.max(1),
        };
        let client_count = cfg.clients_per_broker * cfg.brokers.max(1);
        let total = broker_count + client_count;
        let topology = Topology::random(total, &REGIONS, cfg.seed);
        let mut rng = gloss_sim::SimRng::new(cfg.seed).fork("pubsub-wiring");

        let broker_ids: Vec<NodeIndex> = (0..broker_count as u32).map(NodeIndex).collect();
        let client_ids: Vec<NodeIndex> =
            (broker_count as u32..total as u32).map(NodeIndex).collect();

        // Wire the broker graph.
        let mut neighbor_sets: Vec<Vec<NodeIndex>> = vec![Vec::new(); broker_count];
        let mut parents: Vec<Option<NodeIndex>> = vec![None; broker_count];
        if broker_count > 1 {
            for i in 1..broker_count {
                let j = match cfg.architecture {
                    // Random tree keeps the peer graph acyclic.
                    Architecture::AcyclicPeer => rng.index(i),
                    // Balanced binary tree for the hierarchy.
                    _ => (i - 1) / 2,
                };
                neighbor_sets[i].push(broker_ids[j]);
                neighbor_sets[j].push(broker_ids[i]);
                parents[i] = Some(broker_ids[j]);
            }
        }

        let mut nodes = Vec::with_capacity(total);
        for i in 0..broker_count {
            let topology = match cfg.architecture {
                // The central server is the one broker, neighbourless.
                Architecture::Centralized | Architecture::AcyclicPeer => {
                    BrokerTopology::Peer { neighbors: neighbor_sets[i].clone() }
                }
                Architecture::Hierarchical => {
                    let children: Vec<NodeIndex> = neighbor_sets[i]
                        .iter()
                        .copied()
                        .filter(|n| parents[i] != Some(*n))
                        .collect();
                    BrokerTopology::Hierarchical { parent: parents[i], children }
                }
            };
            let mut b = Broker::new(broker_ids[i], topology);
            if let Some(shed) = &cfg.shedding {
                b = b.with_shedding(shed.clone());
            }
            nodes.push(PubSubNode { role: Role::Broker(Box::new(b)) });
        }
        for (k, &c) in client_ids.iter().enumerate() {
            let access = broker_ids[k % broker_count];
            nodes.push(PubSubNode { role: Role::Client(ClientApi::new(access)) });
            let _ = c;
        }

        let mut world = World::new(topology, cfg.seed, nodes);
        for &c in &client_ids {
            let access = match &world.node(c).role {
                Role::Client(cl) => cl.access,
                _ => unreachable!("client ids hold clients"),
            };
            world.inject(c, access, BrokerMsg::Attach);
        }
        PubSubNetwork {
            world,
            brokers: broker_ids,
            clients: client_ids,
            sub_seq: BTreeMap::new(),
            pub_seq: BTreeMap::new(),
        }
    }

    /// The broker node indices.
    pub fn brokers(&self) -> &[NodeIndex] {
        &self.brokers
    }

    /// The client node indices.
    pub fn clients(&self) -> &[NodeIndex] {
        &self.clients
    }

    /// Immutable view of a client's state.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not a client node.
    pub fn client(&self, client: NodeIndex) -> &ClientApi {
        match &self.world.node(client).role {
            Role::Client(c) => c,
            _ => panic!("{client} is not a client"),
        }
    }

    fn client_mut(&mut self, client: NodeIndex) -> &mut ClientApi {
        match &mut self.world.node_mut(client).role {
            Role::Client(c) => c,
            _ => panic!("{client} is not a client"),
        }
    }

    /// Subscribes `client` with `filter`; returns the subscription id.
    pub fn subscribe(&mut self, client: NodeIndex, filter: Filter) -> SubId {
        let sub = self.fresh_sub(client, filter);
        let access = self.client(client).access;
        self.world.inject(client, access, BrokerMsg::Subscribe(sub.clone()));
        sub.id
    }

    /// A subscription of `filter` for `client` under an id it never used
    /// (its node index over its sequence), recorded as its own.
    fn fresh_sub(&mut self, client: NodeIndex, filter: Filter) -> Subscription {
        let seq = self.sub_seq.entry(client).or_insert(0);
        *seq += 1;
        let sub = Subscription { id: ((client.0 as u64) << 32) | *seq, filter };
        self.client_mut(client).subs.push(sub.clone());
        sub
    }

    /// Removes a subscription.
    pub fn unsubscribe(&mut self, client: NodeIndex, id: SubId) {
        self.client_mut(client).subs.retain(|s| s.id != id);
        let access = self.client(client).access;
        self.world.inject(client, access, BrokerMsg::Unsubscribe(id));
    }

    /// Publishes `event` from `client` now.
    pub fn publish(&mut self, client: NodeIndex, event: Event) {
        let at = self.world.now();
        self.publish_at(at, client, event);
    }

    /// Publishes `event` from `client` at the given (future) time.
    pub fn publish_at(&mut self, at: SimTime, client: NodeIndex, mut event: Event) {
        let seq = self.pub_seq.entry(client).or_insert(0);
        *seq += 1;
        event.stamp(EventId { origin: client, seq: *seq }, at);
        let access = self.client(client).access;
        if at == self.world.now() {
            self.world.inject(client, access, BrokerMsg::Publish(event));
        } else {
            self.world.inject_at(at, client, access, BrokerMsg::Publish(event));
        }
    }

    /// Moves a mobile client: it moves out of its broker now, and after
    /// `offline_for` attaches to `new_broker`, subscribes its filters
    /// there under fresh ids and asks for a replay of what they matched
    /// since it left. Its old broker logs those matches meanwhile and
    /// answers the replay ([`replay`](crate::replay)).
    pub fn move_client(
        &mut self,
        client: NodeIndex,
        new_broker: NodeIndex,
        offline_for: SimDuration,
    ) {
        let old = self.client(client).access;
        let since = self.world.now();
        self.world.inject(client, old, BrokerMsg::MoveOut);
        let at = since + offline_for;
        self.world.inject_at(at, client, new_broker, BrokerMsg::Attach);
        let left = std::mem::take(&mut self.client_mut(client).subs);
        let filters: Vec<Filter> = left.into_iter().map(|s| s.filter).collect();
        for filter in &filters {
            let sub = self.fresh_sub(client, filter.clone());
            self.world.inject_at(at, client, new_broker, BrokerMsg::Subscribe(sub));
        }
        let replay = BrokerMsg::Replay { client, since, filters };
        self.world.inject_at(at, client, new_broker, replay);
        self.client_mut(client).access = new_broker;
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Runs until the given time.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The underlying world, for metrics and advanced control.
    pub fn world(&self) -> &World<PubSubNode> {
        &self.world
    }

    /// Mutable world access (failure injection etc.).
    pub fn world_mut(&mut self) -> &mut World<PubSubNode> {
        &mut self.world
    }

    /// Per-broker message loads (the C1 metric).
    pub fn broker_loads(&self) -> Vec<u64> {
        self.brokers
            .iter()
            .map(|&b| match &self.world.node(b).role {
                Role::Broker(br) => br.msgs_handled,
                Role::Client(_) => 0,
            })
            .collect()
    }

    /// Maximum per-broker message load.
    pub fn max_broker_load(&self) -> u64 {
        self.broker_loads().into_iter().max().unwrap_or(0)
    }

    /// Total events received across all clients.
    pub fn total_delivered(&self) -> u64 {
        self.world.metrics().counter("pubsub.delivered") as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(net: &mut PubSubNetwork) {
        net.run_for(SimDuration::from_secs(2));
    }

    fn build(arch: Architecture) -> PubSubNetwork {
        PubSubNetwork::build(PubSubConfig {
            architecture: arch,
            brokers: 4,
            clients_per_broker: 2,
            seed: 7,
            ..PubSubConfig::default()
        })
    }

    #[test]
    fn end_to_end_delivery_acyclic_peer() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        net.subscribe(clients[0], Filter::for_kind("k"));
        settle(&mut net);
        net.publish(*clients.last().unwrap(), Event::new("k").with_attr("x", 1i64));
        settle(&mut net);
        assert_eq!(net.client(clients[0]).received.len(), 1);
        assert_eq!(net.client(clients[0]).false_deliveries, 0);
        assert_eq!(net.client(clients[0]).duplicates, 0);
    }

    #[test]
    fn end_to_end_delivery_hierarchical() {
        let mut net = build(Architecture::Hierarchical);
        let clients = net.clients().to_vec();
        net.subscribe(clients[1], Filter::for_kind("k"));
        settle(&mut net);
        net.publish(clients[6], Event::new("k"));
        settle(&mut net);
        assert_eq!(net.client(clients[1]).received.len(), 1);
    }

    #[test]
    fn end_to_end_delivery_centralized() {
        let mut net = build(Architecture::Centralized);
        let clients = net.clients().to_vec();
        net.subscribe(clients[2], Filter::for_kind("k"));
        settle(&mut net);
        net.publish(clients[3], Event::new("k"));
        settle(&mut net);
        assert_eq!(net.client(clients[2]).received.len(), 1);
    }

    #[test]
    fn non_matching_events_not_delivered() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        net.subscribe(clients[0], Filter::for_kind("k").with_eq("user", "bob"));
        settle(&mut net);
        net.publish(clients[4], Event::new("k").with_attr("user", "anna"));
        net.publish(clients[4], Event::new("j").with_attr("user", "bob"));
        settle(&mut net);
        assert_eq!(net.client(clients[0]).received.len(), 0);
    }

    #[test]
    fn multiple_subscribers_each_get_one_copy() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        for &c in &clients[0..4] {
            net.subscribe(c, Filter::for_kind("k"));
        }
        settle(&mut net);
        net.publish(clients[7], Event::new("k"));
        settle(&mut net);
        for &c in &clients[0..4] {
            assert_eq!(net.client(c).received.len(), 1, "client {c}");
            assert_eq!(net.client(c).duplicates, 0);
        }
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        let id = net.subscribe(clients[0], Filter::for_kind("k"));
        settle(&mut net);
        net.unsubscribe(clients[0], id);
        settle(&mut net);
        net.publish(clients[5], Event::new("k"));
        settle(&mut net);
        assert_eq!(net.client(clients[0]).received.len(), 0);
    }

    #[test]
    fn delivery_latency_recorded() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        net.subscribe(clients[0], Filter::for_kind("k"));
        settle(&mut net);
        net.publish(clients[5], Event::new("k"));
        settle(&mut net);
        let s = net.world().metrics().summary("pubsub.delivery_ms");
        assert_eq!(s.count, 1);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn centralized_load_concentrates() {
        // Same workload on both architectures: the central server handles
        // strictly more messages than the busiest peer broker.
        let run = |arch| {
            let mut net = build(arch);
            let clients = net.clients().to_vec();
            for &c in &clients {
                net.subscribe(c, Filter::for_kind("k"));
            }
            settle(&mut net);
            for &c in &clients {
                net.publish(c, Event::new("k"));
            }
            settle(&mut net);
            net.max_broker_load()
        };
        let central = run(Architecture::Centralized);
        let peer = run(Architecture::AcyclicPeer);
        assert!(central > peer, "central {central} <= peer {peer}");
    }

    #[test]
    fn covering_prunes_subscription_traffic() {
        let mut net = build(Architecture::AcyclicPeer);
        let clients = net.clients().to_vec();
        net.subscribe(clients[0], Filter::for_kind("k"));
        settle(&mut net);
        // Narrower subscriptions from the same access broker are covered.
        net.subscribe(clients[0], Filter::for_kind("k").with_eq("u", "a"));
        net.subscribe(clients[0], Filter::for_kind("k").with_eq("u", "b"));
        settle(&mut net);
        assert!(net.world().metrics().counter("pubsub.subs_pruned") > 0.0);
    }

    #[test]
    fn shedding_bounds_broker_ingress_under_burst() {
        for architecture in [Architecture::AcyclicPeer, Architecture::Centralized] {
            let mut cfg = PubSubConfig {
                architecture,
                brokers: 2,
                clients_per_broker: 2,
                seed: 11,
                ..PubSubConfig::default()
            };
            cfg.shedding = Some(gloss_governor::ShedConfig {
                capacity: 16.0,
                high_watermark: 8.0,
                drain_per_sec: 50.0,
                priority_floor: 4.0,
                fair_window: SimDuration::from_secs(1),
                fair_share: 1000,
            });
            let mut net = PubSubNetwork::build(cfg);
            let clients = net.clients().to_vec();
            net.subscribe(clients[0], Filter::for_kind("k"));
            settle(&mut net);
            // A same-instant burst of low-priority events floods past the
            // watermark; part of it must be shed, and the network stays live.
            for i in 0..200u32 {
                net.publish(
                    clients[3],
                    Event::new("k").with_attr("prio", 1i64).with_attr("i", i as i64),
                );
            }
            settle(&mut net);
            let shed = net.world().metrics().counter("pubsub.shed");
            assert!(shed > 0.0, "{architecture:?}: burst should trip the shedder");
            let got = net.client(clients[0]).received.len();
            assert!(got < 200, "{architecture:?}: some of the burst must be dropped");
            // High-priority traffic still flows after the overload clears.
            net.publish(clients[3], Event::new("k").with_attr("prio", 9i64));
            settle(&mut net);
            assert!(net.client(clients[0]).received.len() > got, "{architecture:?}");
        }
    }
}
