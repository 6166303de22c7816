//! Simulation harness for the overlay: staggered joins, routing
//! experiments, churn (experiment C2), and adversarial scenarios
//! (partitions, byzantine peers — experiments C14/C15).

use crate::id::{Key, KeyedNode};
use crate::node::{ring_settle, Delivery, OverlayMsg, OverlayNode};
use gloss_governor::GovernorConfig;
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimRng, SimTime, Topology, World};
use std::collections::BTreeMap;

/// A world node's misbehaviour in adversarial scenarios. The adversary
/// lives here in the harness, so the protocol code itself stays honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzBehavior {
    /// No misbehaviour.
    Honest,
    /// Takes part in the probe and join machinery, so it always looks
    /// alive, but silently drops every routed payload it receives.
    AckThenDrop,
}

/// The world node: an overlay node plus its delivered payloads and its
/// behaviour.
#[derive(Debug)]
pub struct OverlayWorldNode {
    /// The protocol state machine.
    pub overlay: OverlayNode<u64>,
    /// Payloads delivered here, by request id.
    pub delivered: Vec<Delivery<u64>>,
    /// Misbehaviour policy (honest by default).
    pub byz: ByzBehavior,
}

impl OverlayWorldNode {
    fn dispatch(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: OverlayMsg<u64>,
        out: &mut Outbox<OverlayMsg<u64>>,
    ) {
        if self.byz == ByzBehavior::AckThenDrop && matches!(msg, OverlayMsg::Route { .. }) {
            out.count("overlay.byz_dropped", 1.0);
            return;
        }
        let delivered = self.overlay.handle(now, from, msg, out);
        self.delivered.extend(delivered);
    }
}

impl Node for OverlayWorldNode {
    type Msg = OverlayMsg<u64>;

    fn handle(&mut self, now: SimTime, input: Input<Self::Msg>, out: &mut Outbox<Self::Msg>) {
        match input {
            Input::Start => self.overlay.on_start(out),
            Input::Timer { tag } => self.overlay.on_timer(now, tag, out),
            Input::Msg { from, msg } => self.dispatch(now, from, msg, out),
        }
    }
}

/// Where one routed request ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The request id.
    pub id: u64,
    /// The target key.
    pub target: Key,
    /// The node it was delivered at.
    pub delivered_at: NodeIndex,
    /// Overlay hops taken.
    pub hops: u32,
}

/// An overlay network on a simulated topology.
///
/// # Example
///
/// ```
/// use gloss_overlay::{Key, OverlayNetwork};
/// use gloss_sim::SimDuration;
///
/// let mut net = OverlayNetwork::build(16, 42);
/// net.run_for(SimDuration::from_secs(120)); // let all nodes join
/// let from = net.random_node();
/// let id = net.route_from(from, Key::hash_of_str("doc"));
/// net.run_for(SimDuration::from_secs(10));
/// let outcome = net.outcomes()[&id];
/// assert_eq!(outcome.delivered_at, net.closest_alive(Key::hash_of_str("doc")));
/// ```
#[derive(Debug)]
pub struct OverlayNetwork {
    world: World<OverlayWorldNode>,
    next_req: u64,
    rng: SimRng,
}

impl OverlayNetwork {
    /// Builds `n` overlay nodes on a random wide-area topology; node 0 is
    /// the bootstrap, later nodes join at 200 ms intervals. The governor
    /// plane (admission control + suspicion scoring) is enabled; use
    /// [`build_with`](Self::build_with) to disable it.
    pub fn build(n: usize, seed: u64) -> Self {
        Self::build_with(n, seed, Some(GovernorConfig::default()))
    }

    /// Builds `n` overlay nodes with or without the governor plane (`None`
    /// = legacy three-strikes failure detection, no admission control).
    pub fn build_with(n: usize, seed: u64, governor: Option<GovernorConfig>) -> Self {
        let topology = Topology::random(
            n,
            &["scotland", "england", "europe", "us-east", "us-west", "australia"],
            seed,
        );
        let mut rng = SimRng::new(seed).fork("overlay-net");
        let nodes =
            OverlayNode::ring("overlay-node-", topology.len(), seed, &mut rng, governor.is_some())
                .into_iter()
                .map(|overlay| OverlayWorldNode {
                    overlay,
                    delivered: Vec::new(),
                    byz: ByzBehavior::Honest,
                })
                .collect();
        let world = World::new(topology, seed, nodes);
        OverlayNetwork { world, next_req: 0, rng }
    }

    /// Assigns a byzantine behaviour to one node (honest by default).
    pub fn set_byzantine(&mut self, node: NodeIndex, behavior: ByzBehavior) {
        self.world.node_mut(node).byz = behavior;
    }

    /// Runs the simulation long enough for all joins to complete.
    pub fn settle(&mut self) {
        self.run_for(ring_settle(self.len()));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.world.topology().len()
    }

    /// Whether the network is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A uniformly random node index.
    pub fn random_node(&mut self) -> NodeIndex {
        NodeIndex(self.rng.index(self.len()) as u32)
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
    pub fn world(&self) -> &World<OverlayWorldNode> {
        &self.world
    }

    /// Mutable world access (crash/recover injection).
    pub fn world_mut(&mut self) -> &mut World<OverlayWorldNode> {
        &mut self.world
    }

    /// Fraction of alive nodes that have completed their join.
    pub fn joined_fraction(&self) -> f64 {
        let mut joined = 0usize;
        let mut alive = 0usize;
        for i in 0..self.len() {
            let idx = NodeIndex(i as u32);
            if self.world.is_alive(idx) {
                alive += 1;
                if self.world.node(idx).overlay.is_joined() {
                    joined += 1;
                }
            }
        }
        if alive == 0 {
            0.0
        } else {
            joined as f64 / alive as f64
        }
    }

    /// Originates a route from `from` toward `target`; returns the request
    /// id for correlation in [`outcomes`](Self::outcomes).
    pub fn route_from(&mut self, from: NodeIndex, target: Key) -> u64 {
        self.next_req += 1;
        let id = self.next_req;
        self.world.inject(
            from,
            from,
            OverlayMsg::Route { target, payload: id, origin: from, hops: 0 },
        );
        id
    }

    /// All route outcomes observed so far, keyed by request id.
    pub fn outcomes(&self) -> BTreeMap<u64, RouteOutcome> {
        let mut map = BTreeMap::new();
        for i in 0..self.len() {
            let idx = NodeIndex(i as u32);
            for d in &self.world.node(idx).delivered {
                map.insert(
                    d.payload,
                    RouteOutcome {
                        id: d.payload,
                        target: d.target,
                        delivered_at: idx,
                        hops: d.hops,
                    },
                );
            }
        }
        map
    }

    /// Ground truth: the alive node whose key is numerically closest to
    /// `key`.
    ///
    /// # Panics
    ///
    /// Panics if no nodes are alive.
    pub fn closest_alive(&self, key: Key) -> NodeIndex {
        (0..self.len() as u32)
            .map(NodeIndex)
            .filter(|&i| self.world.is_alive(i))
            .min_by_key(|&i| self.world.node(i).overlay.id().key.ring_distance(key))
            .expect("at least one alive node")
    }

    /// The overlay identifier of a node.
    pub fn id_of(&self, node: NodeIndex) -> KeyedNode {
        self.world.node(node).overlay.id()
    }

    /// Crashes a node immediately.
    pub fn crash(&mut self, node: NodeIndex) {
        self.world.crash(node);
    }
}

// Re-export the timer tags so embedders see one canonical place.
pub use crate::node::timers as overlay_timers;

#[cfg(test)]
mod tests {
    use super::*;

    fn settled(n: usize, seed: u64) -> OverlayNetwork {
        let mut net = OverlayNetwork::build(n, seed);
        net.settle();
        net
    }

    /// An ack-then-drop node answers a probe as an honest one does, but
    /// drops a routed payload, counted in `overlay.byz_dropped`, where an
    /// honest node takes it.
    #[test]
    fn an_ack_then_drop_node_answers_probes_but_drops_routes() {
        let mut net = settled(8, 5);
        let (a, b) = (NodeIndex(1), NodeIndex(2));
        net.set_byzantine(b, ByzBehavior::AckThenDrop);
        let now = net.world.now();
        let node = net.world.node_mut(b);
        let mut out = Outbox::new();
        node.handle(now, Input::Msg { from: a, msg: OverlayMsg::Probe }, &mut out);
        assert!(out
            .sends()
            .iter()
            .any(|(to, m)| *to == a && matches!(m, OverlayMsg::ProbeAck { .. })));
        assert!(out.counts().iter().all(|(name, _)| name != "overlay.byz_dropped"));

        // A payload addressed to the node's own key.
        let route =
            OverlayMsg::Route { target: node.overlay.id().key, payload: 7, origin: a, hops: 1 };
        let mut out = Outbox::new();
        node.handle(now, Input::Msg { from: a, msg: route.clone() }, &mut out);
        assert!(out.sends().is_empty());
        assert_eq!(out.counts(), [("overlay.byz_dropped".into(), 1.0)]);
        assert!(node.delivered.is_empty());

        node.byz = ByzBehavior::Honest;
        node.handle(now, Input::Msg { from: a, msg: route }, &mut Outbox::new());
        assert_eq!(node.delivered.len(), 1, "an honest node delivers it");
    }

    #[test]
    fn all_nodes_join() {
        let net = settled(24, 3);
        assert!((net.joined_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn routes_reach_numerically_closest_node() {
        let mut net = settled(24, 4);
        let mut ids = Vec::new();
        for i in 0..40 {
            let from = net.random_node();
            let target = Key::hash_of(format!("doc-{i}").as_bytes());
            ids.push((net.route_from(from, target), target));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        for (id, target) in ids {
            let o = outcomes.get(&id).expect("route delivered");
            assert_eq!(
                o.delivered_at,
                net.closest_alive(target),
                "request {id} landed at the wrong node"
            );
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let mut net = settled(64, 5);
        for i in 0..60 {
            let from = net.random_node();
            net.route_from(from, Key::hash_of(format!("h-{i}").as_bytes()));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        assert_eq!(outcomes.len(), 60, "all routes delivered");
        let mean_hops: f64 =
            outcomes.values().map(|o| o.hops as f64).sum::<f64>() / outcomes.len() as f64;
        // log16(64) = 1.5; allow generous slack for imperfect tables.
        assert!(mean_hops < 6.0, "mean hops {mean_hops}");
    }

    #[test]
    fn routing_survives_node_failures() {
        let mut net = settled(24, 6);
        // Crash a quarter of the nodes (not the bootstrap).
        let victims: Vec<NodeIndex> = (1..=6).map(NodeIndex).collect();
        for v in &victims {
            net.crash(*v);
        }
        // Allow probe timeouts (3 × 5 s) plus repair to run.
        net.run_for(SimDuration::from_secs(60));
        let mut ids = Vec::new();
        for i in 0..30 {
            let mut from = net.random_node();
            while victims.contains(&from) {
                from = net.random_node();
            }
            let target = Key::hash_of(format!("after-churn-{i}").as_bytes());
            ids.push((net.route_from(from, target), target));
        }
        net.run_for(SimDuration::from_secs(30));
        let outcomes = net.outcomes();
        let mut correct = 0;
        for (id, target) in &ids {
            if let Some(o) = outcomes.get(id) {
                if o.delivered_at == net.closest_alive(*target) {
                    correct += 1;
                }
            }
        }
        // Deterministic routing heals: all routes delivered, at the right
        // live node.
        assert_eq!(correct, ids.len(), "{correct}/{} correct", ids.len());
    }

    #[test]
    fn deterministic_same_seed_same_outcomes() {
        let run = |seed| {
            let mut net = settled(12, seed);
            for i in 0..10 {
                let from = net.random_node();
                net.route_from(from, Key::hash_of(format!("d-{i}").as_bytes()));
            }
            net.run_for(SimDuration::from_secs(20));
            net.outcomes()
        };
        assert_eq!(run(9), run(9));
    }
}
