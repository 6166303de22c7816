//! Non-deterministic routing baseline (Freenet-like greedy walk).
//!
//! The paper (§3): "Some systems, such as \[Freenet\], rely exclusively on
//! non-deterministic algorithms. This means that data cannot always be
//! found, rendering them unsuitable as a base technology for this work."
//! Experiment **C2** quantifies that: lookups here are greedy walks with a
//! TTL over a random neighbour graph, so success degrades as the network
//! grows, while Plaxton routing stays at 100%.

use crate::id::{Key, KeyedNode};
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimRng, SimTime, Topology, World};
use std::collections::BTreeMap;

/// A lookup walking the random graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    /// Request id.
    pub id: u64,
    /// The key being sought (a lookup succeeds only at the node whose key
    /// is globally numerically closest — the node that "stores" the key).
    pub target: Key,
    /// Remaining hops before the walk gives up.
    pub ttl: u32,
    /// Nodes already visited (loop avoidance).
    pub visited: Vec<NodeIndex>,
}

/// Messages of the Freenet-like network.
#[derive(Debug, Clone, PartialEq)]
pub enum FreenetMsg {
    /// Continue a walk.
    Lookup(Walk),
    /// The walk found the responsible node.
    Found {
        /// Request id.
        id: u64,
        /// Hops used.
        hops: u32,
    },
    /// The walk exhausted its TTL or its options.
    Failed {
        /// Request id.
        id: u64,
    },
}

/// A node in the Freenet-like baseline: random neighbours, greedy
/// forwarding with random tie-breaks, no global structure.
#[derive(Debug, Clone)]
pub struct FreenetNode {
    /// This node's identity.
    pub me: KeyedNode,
    /// Random graph neighbours.
    pub neighbors: Vec<KeyedNode>,
    /// The key this node is responsible for storing (ground truth is
    /// computed by the harness).
    pub stores: Vec<Key>,
    rng: SimRng,
    /// Outcomes observed at the *originating* node: id → success.
    pub results: BTreeMap<u64, Option<u32>>,
}

impl Node for FreenetNode {
    type Msg = FreenetMsg;

    fn handle(&mut self, _now: SimTime, input: Input<FreenetMsg>, out: &mut Outbox<FreenetMsg>) {
        let Input::Msg { from: _, msg } = input else {
            return;
        };
        match msg {
            FreenetMsg::Lookup(mut walk) => {
                if self.stores.contains(&walk.target) {
                    out.count("freenet.found", 1.0);
                    let origin = walk.visited.first().copied().unwrap_or(self.me.node);
                    out.send(
                        origin,
                        FreenetMsg::Found { id: walk.id, hops: walk.visited.len() as u32 },
                    );
                    return;
                }
                if walk.ttl == 0 {
                    let origin = walk.visited.first().copied().unwrap_or(self.me.node);
                    out.count("freenet.ttl_exhausted", 1.0);
                    out.send(origin, FreenetMsg::Failed { id: walk.id });
                    return;
                }
                walk.ttl -= 1;
                if !walk.visited.contains(&self.me.node) {
                    walk.visited.push(self.me.node);
                }
                // Greedy: unvisited neighbour closest to the target;
                // otherwise a random unvisited neighbour (the walk is not
                // guaranteed to make progress — that is the point).
                let mut candidates: Vec<&KeyedNode> =
                    self.neighbors.iter().filter(|n| !walk.visited.contains(&n.node)).collect();
                if candidates.is_empty() {
                    let origin = walk.visited.first().copied().unwrap_or(self.me.node);
                    out.count("freenet.dead_end", 1.0);
                    out.send(origin, FreenetMsg::Failed { id: walk.id });
                    return;
                }
                candidates.sort_by_key(|n| n.key.ring_distance(walk.target));
                // Mostly greedy with occasional random exploration.
                let next = if self.rng.chance(0.8) {
                    *candidates[0]
                } else {
                    **self.rng.choose(&candidates).expect("non-empty")
                };
                out.send(next.node, FreenetMsg::Lookup(walk));
            }
            FreenetMsg::Found { id, hops } => {
                self.results.insert(id, Some(hops));
            }
            FreenetMsg::Failed { id } => {
                self.results.insert(id, None);
            }
        }
    }
}

/// The Freenet-like baseline network.
#[derive(Debug)]
pub struct FreenetNetwork {
    world: World<FreenetNode>,
    next_req: u64,
    rng: SimRng,
    ttl: u32,
}

impl FreenetNetwork {
    /// Builds `n` nodes, each wired to `degree` random neighbours, with
    /// every key stored at the globally closest node (same placement rule
    /// as the structured overlay, so lookups are comparable).
    pub fn build(n: usize, degree: usize, ttl: u32, seed: u64) -> Self {
        let topology = Topology::random(
            n,
            &["scotland", "england", "europe", "us-east", "us-west", "australia"],
            seed,
        );
        let mut rng = SimRng::new(seed).fork("freenet");
        let ids: Vec<KeyedNode> = (0..n)
            .map(|i| {
                KeyedNode::new(
                    Key::hash_of(format!("freenet-node-{i}-{seed}").as_bytes()),
                    NodeIndex(i as u32),
                )
            })
            .collect();
        let nodes: Vec<FreenetNode> = (0..n)
            .map(|i| {
                let mut neighbors = Vec::new();
                let mut guard = 0;
                while neighbors.len() < degree.min(n - 1) && guard < 10 * degree {
                    guard += 1;
                    let j = rng.index(n);
                    if j != i && !neighbors.iter().any(|k: &KeyedNode| k.node.0 as usize == j) {
                        neighbors.push(ids[j]);
                    }
                }
                FreenetNode {
                    me: ids[i],
                    neighbors,
                    stores: Vec::new(),
                    rng: rng.fork_indexed("node", i as u64),
                    results: BTreeMap::new(),
                }
            })
            .collect();
        let world = World::new(topology, seed, nodes);
        FreenetNetwork { world, next_req: 0, rng, ttl }
    }

    /// Stores `key` at the node whose id is numerically closest (ground
    /// truth placement; the walk has to *find* it).
    pub fn store(&mut self, key: Key) {
        let closest = (0..self.world.topology().len() as u32)
            .map(NodeIndex)
            .min_by_key(|&i| self.world.node(i).me.key.ring_distance(key))
            .expect("non-empty network");
        self.world.node_mut(closest).stores.push(key);
    }

    /// Starts a lookup from a random node; returns (request id, origin).
    pub fn lookup(&mut self, key: Key) -> (u64, NodeIndex) {
        self.next_req += 1;
        let id = self.next_req;
        let origin = NodeIndex(self.rng.index(self.world.topology().len()) as u32);
        let walk = Walk { id, target: key, ttl: self.ttl, visited: vec![origin] };
        self.world.inject(origin, origin, FreenetMsg::Lookup(walk));
        (id, origin)
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// The outcome of a lookup: `Some(hops)` on success, `None` on failure
    /// or if still in flight.
    pub fn result(&self, id: u64, origin: NodeIndex) -> Option<u32> {
        self.world.node(origin).results.get(&id).copied().flatten()
    }

    /// Whether the lookup has concluded (either way).
    pub fn concluded(&self, id: u64, origin: NodeIndex) -> bool {
        self.world.node(origin).results.contains_key(&id)
    }

    /// Success rate over a batch of `(id, origin)` pairs.
    pub fn success_rate(&self, batch: &[(u64, NodeIndex)]) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let ok = batch.iter().filter(|(id, o)| self.result(*id, *o).is_some()).count();
        ok as f64 / batch.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_can_succeed_on_small_network() {
        let mut net = FreenetNetwork::build(8, 4, 32, 1);
        let key = Key::hash_of(b"popular-doc");
        net.store(key);
        let mut batch = Vec::new();
        for _ in 0..20 {
            batch.push(net.lookup(key));
        }
        net.run_for(SimDuration::from_secs(60));
        assert!(net.success_rate(&batch) > 0.5, "rate {}", net.success_rate(&batch));
    }

    #[test]
    fn success_degrades_with_scale() {
        let rate = |n: usize| {
            let mut net = FreenetNetwork::build(n, 4, 16, 2);
            let mut batch = Vec::new();
            for i in 0..40 {
                let key = Key::hash_of(format!("doc-{i}").as_bytes());
                net.store(key);
                batch.push(net.lookup(key));
            }
            net.run_for(SimDuration::from_secs(120));
            net.success_rate(&batch)
        };
        let small = rate(8);
        let large = rate(256);
        assert!(small > large, "expected degradation: small {small} vs large {large}");
        assert!(large < 0.9, "large networks should miss sometimes: {large}");
    }

    #[test]
    fn every_lookup_concludes() {
        let mut net = FreenetNetwork::build(32, 4, 16, 3);
        let key = Key::hash_of(b"x");
        net.store(key);
        let batch: Vec<(u64, NodeIndex)> = (0..10).map(|_| net.lookup(key)).collect();
        net.run_for(SimDuration::from_secs(120));
        for (id, origin) in &batch {
            assert!(net.concluded(*id, *origin), "walk {id} never concluded");
        }
    }

    #[test]
    fn ttl_zero_fails_immediately_unless_local() {
        let mut net = FreenetNetwork::build(8, 3, 0, 4);
        let key = Key::hash_of(b"y");
        net.store(key);
        let batch: Vec<(u64, NodeIndex)> = (0..10).map(|_| net.lookup(key)).collect();
        net.run_for(SimDuration::from_secs(30));
        // With TTL 0 the only successes are lookups starting at the
        // storing node itself.
        for (id, origin) in &batch {
            if let Some(hops) = net.result(*id, *origin) {
                assert_eq!(hops, 1);
            }
        }
    }
}
