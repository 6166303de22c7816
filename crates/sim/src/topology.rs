//! Physical topology: nodes with geography, regions, capacities, and a
//! latency model derived from great-circle distance.
//!
//! The paper's infrastructure spans "embedded sensors, mobile devices,
//! servers and the networks that link them" across the wide area. We model
//! a set of physical nodes placed on the globe, grouped into named regions,
//! with pairwise message latency = base cost + propagation proportional to
//! distance + multiplicative jitter.

use crate::rng::SimRng;
use crate::time::SimDuration;
use std::fmt;

/// Index of a physical node in a [`Topology`].
///
/// This identifies a *machine* in the simulation; overlay identifiers and
/// event-layer client identities are separate concepts layered above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeIndex(pub u32);

impl fmt::Display for NodeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl NodeIndex {
    /// The index as a `usize`, for vector indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A point on the globe, in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// # Example
    ///
    /// ```
    /// use gloss_sim::GeoPoint;
    /// let st_andrews = GeoPoint::new(56.3398, -2.7967);
    /// let glasgow = GeoPoint::new(55.8617, -4.2583);
    /// let d = st_andrews.distance_km(glasgow);
    /// assert!(d > 95.0 && d < 115.0);
    /// ```
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        const EARTH_RADIUS_KM: f64 = 6371.0;
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// Static description of one physical node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// The node's index in the topology.
    pub index: NodeIndex,
    /// Where the node is.
    pub geo: GeoPoint,
    /// Administrative/geographic region name (used by placement constraints).
    pub region: String,
    /// Relative compute capacity (1.0 = baseline server).
    pub cpu: f64,
    /// Storage capacity in bytes available to the storage layer.
    pub storage: u64,
}

/// Latency model: `base + per_km * distance`, times `1 ± jitter`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-message cost (protocol stacks, queueing).
    pub base: SimDuration,
    /// Propagation cost per kilometre of great-circle distance.
    pub per_km_micros: f64,
    /// Multiplicative jitter fraction in `[0, 1)`; each delivery is scaled
    /// by a uniform factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Latency for a node sending to itself (loopback). A Gloss node hands
    /// its broker's notifications to itself in-process, so this prices
    /// only the storelet's and the overlay's sends to their own node.
    pub local: SimDuration,
}

impl Default for LatencyModel {
    /// A wide-area default: 1 ms base, ~5 µs/km (light in fibre ≈ 5 µs/km),
    /// 10% jitter, 50 µs loopback.
    fn default() -> Self {
        LatencyModel {
            base: SimDuration::from_millis(1),
            per_km_micros: 5.0,
            jitter: 0.1,
            local: SimDuration::from_micros(50),
        }
    }
}

impl LatencyModel {
    /// A LAN-like model for localised experiments.
    pub fn lan() -> Self {
        LatencyModel {
            base: SimDuration::from_micros(200),
            per_km_micros: 0.0,
            jitter: 0.05,
            local: SimDuration::from_micros(20),
        }
    }

    /// Latency of one message from `a` to `b`, sampling jitter from `rng`.
    pub fn sample(&self, a: &NodeInfo, b: &NodeInfo, rng: &mut SimRng) -> SimDuration {
        if a.index == b.index {
            return self.local;
        }
        let km = a.geo.distance_km(b.geo);
        let nominal = self.base.as_secs_f64() + km * self.per_km_micros / 1e6;
        let factor = if self.jitter > 0.0 {
            rng.float_range(1.0 - self.jitter, 1.0 + self.jitter)
        } else {
            1.0
        };
        SimDuration::from_secs_f64(nominal * factor)
    }

    /// Nominal (jitter-free) latency from `a` to `b`.
    pub fn nominal(&self, a: &NodeInfo, b: &NodeInfo) -> SimDuration {
        if a.index == b.index {
            return self.local;
        }
        let km = a.geo.distance_km(b.geo);
        SimDuration::from_secs_f64(self.base.as_secs_f64() + km * self.per_km_micros / 1e6)
    }
}

/// The set of physical nodes and the latency model between them.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    latency: LatencyModel,
}

/// Well-known region centres used by the random topology generators.
const REGION_CENTRES: &[(&str, f64, f64)] = &[
    ("scotland", 56.3, -3.0),
    ("england", 52.5, -1.5),
    ("europe", 48.8, 2.3),
    ("us-east", 40.7, -74.0),
    ("us-west", 37.7, -122.4),
    ("brazil", -22.9, -43.2),
    ("australia", -33.9, 151.2),
    ("asia", 35.7, 139.7),
];

impl Topology {
    /// Builds a topology from explicit node descriptions.
    ///
    /// # Panics
    ///
    /// Panics if node indices are not `0..n` in order.
    #[cfg(test)]
    pub(crate) fn from_nodes(nodes: Vec<NodeInfo>, latency: LatencyModel) -> Self {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.index.as_usize(), i, "node indices must be dense and ordered");
        }
        Topology { nodes, latency }
    }

    /// Generates `n` nodes scattered around the given region names.
    ///
    /// Unknown region names are placed at pseudo-random centres. Nodes get
    /// capacities drawn from a narrow distribution around the baseline.
    pub fn random(n: usize, regions: &[&str], seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork("topology");
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let region = regions[i % regions.len().max(1)];
            let centre = REGION_CENTRES
                .iter()
                .find(|(name, _, _)| *name == region)
                .map(|&(_, lat, lon)| GeoPoint::new(lat, lon))
                .unwrap_or_else(|| {
                    GeoPoint::new(rng.float_range(-60.0, 60.0), rng.float_range(-180.0, 180.0))
                });
            let geo = GeoPoint::new(
                centre.lat + rng.float_range(-1.5, 1.5),
                centre.lon + rng.float_range(-1.5, 1.5),
            );
            nodes.push(NodeInfo {
                index: NodeIndex(i as u32),
                geo,
                region: region.to_string(),
                cpu: rng.float_range(0.5, 2.0),
                storage: rng.range(64, 256) * 1024 * 1024,
            });
        }
        Topology { nodes, latency: LatencyModel::default() }
    }

    /// Generates a single-region LAN of `n` identical nodes.
    pub fn lan(n: usize, seed: u64) -> Self {
        let mut t = Topology::random(n, &["scotland"], seed);
        t.latency = LatencyModel::lan();
        t
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: NodeIndex) -> &NodeInfo {
        &self.nodes[index.as_usize()]
    }

    /// Iterates over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// All node indices.
    pub fn indices(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        (0..self.nodes.len() as u32).map(NodeIndex)
    }

    /// Nodes in a given region.
    pub fn in_region<'a>(&'a self, region: &'a str) -> impl Iterator<Item = &'a NodeInfo> {
        self.nodes.iter().filter(move |n| n.region == region)
    }

    /// The latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Samples the latency of one message from `a` to `b`.
    pub fn sample_latency(&self, a: NodeIndex, b: NodeIndex, rng: &mut SimRng) -> SimDuration {
        self.latency.sample(self.node(a), self.node(b), rng)
    }

    /// Jitter-free latency from `a` to `b`.
    pub fn nominal_latency(&self, a: NodeIndex, b: NodeIndex) -> SimDuration {
        self.latency.nominal(self.node(a), self.node(b))
    }

    /// The geographically nearest node to `point`.
    ///
    /// Returns `None` on an empty topology.
    #[cfg(test)]
    pub(crate) fn nearest(&self, point: GeoPoint) -> Option<NodeIndex> {
        self.nodes
            .iter()
            .min_by(|a, b| {
                a.geo
                    .distance_km(point)
                    .partial_cmp(&b.geo.distance_km(point))
                    .expect("distances are finite")
            })
            .map(|n| n.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(i: u32, lat: f64, lon: f64) -> NodeInfo {
        NodeInfo {
            index: NodeIndex(i),
            geo: GeoPoint::new(lat, lon),
            region: "scotland".into(),
            cpu: 1.0,
            storage: 1 << 20,
        }
    }

    #[test]
    fn haversine_zero_distance() {
        let p = GeoPoint::new(10.0, 20.0);
        assert!(p.distance_km(p) < 1e-9);
    }

    #[test]
    fn haversine_known_distance() {
        // London to New York is roughly 5570 km.
        let london = GeoPoint::new(51.5074, -0.1278);
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let d = london.distance_km(nyc);
        assert!((d - 5570.0).abs() < 60.0, "distance {d}");
    }

    #[test]
    fn latency_scales_with_distance() {
        let m = LatencyModel { jitter: 0.0, ..LatencyModel::default() };
        let a = info(0, 56.0, -3.0);
        let near = info(1, 56.1, -3.0);
        let far = info(2, -33.9, 151.2);
        assert!(m.nominal(&a, &far) > m.nominal(&a, &near));
        assert_eq!(m.nominal(&a, &a), m.local);
    }

    #[test]
    fn latency_jitter_bounds() {
        let m = LatencyModel::default();
        let a = info(0, 56.0, -3.0);
        let b = info(1, 40.7, -74.0);
        let nominal = m.nominal(&a, &b).as_secs_f64();
        let mut rng = SimRng::new(3);
        for _ in 0..200 {
            let s = m.sample(&a, &b, &mut rng).as_secs_f64();
            assert!(s >= nominal * 0.89 && s <= nominal * 1.11, "sample {s} nominal {nominal}");
        }
    }

    #[test]
    fn random_topology_properties() {
        let t = Topology::random(20, &["scotland", "australia"], 1);
        assert_eq!(t.len(), 20);
        assert_eq!(t.in_region("scotland").count(), 10);
        assert_eq!(t.in_region("australia").count(), 10);
        // Scotland nodes should be near the Scotland centre.
        for n in t.in_region("scotland") {
            assert!(n.geo.distance_km(GeoPoint::new(56.3, -3.0)) < 300.0);
        }
    }

    #[test]
    fn random_topology_is_deterministic() {
        let t1 = Topology::random(10, &["europe"], 42);
        let t2 = Topology::random(10, &["europe"], 42);
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn nearest_finds_closest() {
        let t = Topology::random(30, &["scotland", "brazil"], 2);
        let idx = t.nearest(GeoPoint::new(-22.9, -43.2)).unwrap();
        assert_eq!(t.node(idx).region, "brazil");
        assert!(Topology::from_nodes(vec![], LatencyModel::default())
            .nearest(GeoPoint::new(0.0, 0.0))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn from_nodes_validates_indices() {
        let _ = Topology::from_nodes(vec![info(1, 0.0, 0.0)], LatencyModel::default());
    }

    #[test]
    fn lan_topology_has_flat_latency() {
        let t = Topology::lan(4, 9);
        let l01 = t.nominal_latency(NodeIndex(0), NodeIndex(1));
        let l02 = t.nominal_latency(NodeIndex(0), NodeIndex(2));
        assert_eq!(l01, l02);
    }
}
