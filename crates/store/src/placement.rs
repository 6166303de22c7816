//! Data placement policies (§4.6).
//!
//! "Data placement monitors will observe meta-data arising from
//! distributed probes and gauges. Periodically they will initiate data
//! replication, the details of when and where depending on the placement
//! policies currently in operation."
//!
//! Two policies from the paper:
//!
//! * [`LatencyReductionPolicy`] — "seek to replicate progressively more of
//!   a user's personal data at storage units geographically close to the
//!   user's current location, the longer that the user remained at that
//!   location";
//! * [`BackupPolicy`] — "seek to replicate data on a geographically remote
//!   storage unit as soon as possible after it was created".
//!
//! On top of the reactive policies sits the *quota-aware placement
//! planner* ([`plan_quota_targets`]): every replica push — initial
//! placement and crash repair alike — filters candidates by advertised
//! capacity and spreads copies across regions, so one full disk or one
//! lost machine room never takes every copy with it.

use gloss_overlay::Key;
use gloss_sim::{GeoPoint, NodeIndex};
use std::collections::BTreeMap;

/// Per-node storage quota: how many bytes a storage unit is willing to
/// host for the overlay, how much of that is set aside for local use,
/// and the free-space watermark below which it starts shedding
/// lower-priority replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCapacity {
    /// Total bytes the node exposes to the storage plane.
    pub max_bytes: u64,
    /// Bytes held back from placement (local headroom).
    pub reserved_bytes: u64,
    /// Eviction watermark: once free space dips under this, the node is
    /// over-committed and refuses new replicas / evicts low tiers.
    pub min_free_bytes: u64,
}

impl Default for NodeCapacity {
    fn default() -> Self {
        NodeCapacity {
            max_bytes: 64 * 1024 * 1024,
            reserved_bytes: 4 * 1024 * 1024,
            min_free_bytes: 1024 * 1024,
        }
    }
}

impl NodeCapacity {
    /// Bytes actually placeable (max minus reserved).
    pub fn budget(&self) -> u64 {
        self.max_bytes.saturating_sub(self.reserved_bytes)
    }

    /// Placeable bytes left given `used` bytes already stored.
    pub fn available(&self, used: u64) -> u64 {
        self.budget().saturating_sub(used)
    }

    /// Whether a write of `size` bytes fits without crossing the
    /// free-space watermark.
    pub fn admits(&self, used: u64, size: u64) -> bool {
        used.saturating_add(size).saturating_add(self.min_free_bytes) <= self.budget()
    }
}

/// A lightweight directory entry describing a storage node (distributed
/// dynamically by the deployment layer; static within one experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSite {
    /// The node.
    pub node: NodeIndex,
    /// Where it is.
    pub geo: GeoPoint,
    /// Its region name.
    pub region: String,
    /// Advertised storage quota.
    pub capacity: NodeCapacity,
}

impl NodeSite {
    /// A site with the default capacity profile.
    pub fn new(node: NodeIndex, geo: GeoPoint, region: impl Into<String>) -> Self {
        NodeSite { node, geo, region: region.into(), capacity: NodeCapacity::default() }
    }

    /// Overrides the advertised capacity.
    pub fn with_capacity(mut self, capacity: NodeCapacity) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Quota- and diversity-aware replica target selection.
///
/// `candidates` come in the caller's preference order (the storelet's
/// `plan_replicas` passes its usable leaf members nearest the GUID first,
/// present holders left out) and the planner re-ranks them:
///
/// 1. candidates whose advertised quota cannot admit `size` more bytes
///    (given what the planner knows of their usage — unknown usage is
///    treated optimistically as zero, and the receiving node still
///    enforces its own quota on arrival) are dropped;
/// 2. a greedy pass prefers candidates in regions not yet holding a
///    copy (seeded by `covered_regions`, usually the primary's region),
///    breaking ties by available capacity (descending) and then by the
///    caller's preference order — so under equal pressure the plan
///    degrades to exactly the classic closest-in-ring placement;
/// 3. once every region is covered, remaining slots fill by available
///    capacity, same tie-break.
///
/// The plan holds `want` admissible candidates, or all of them if fewer
/// admit the write, and it is the best such set under this score,
/// compared in order:
///
/// 1. the number of regions outside `covered_regions` that the set holds
///    a copy in, more first (a candidate absent from `directory` counts
///    as a region of its own);
/// 2. the members' keys — available capacity, more first, then position
///    in `candidates`, earlier first — each set's keys sorted best first
///    and compared lexicographically.
///
/// Entirely deterministic: no randomness, and every comparison grounds
/// out in the caller-supplied ordering.
pub fn plan_quota_targets<'a>(
    size: u64,
    want: usize,
    covered_regions: &[&'a str],
    candidates: &[NodeIndex],
    directory: &'a [NodeSite],
    used_bytes: &BTreeMap<NodeIndex, u64>,
) -> Vec<NodeIndex> {
    struct Cand<'a> {
        node: NodeIndex,
        region: Option<&'a str>,
        avail: u64,
        pref: usize,
    }
    let mut pool: Vec<Cand<'a>> = Vec::with_capacity(candidates.len());
    for (pref, &node) in candidates.iter().enumerate() {
        let site = directory.iter().find(|s| s.node == node);
        let cap = site.map(|s| s.capacity).unwrap_or_default();
        let used = used_bytes.get(&node).copied().unwrap_or(0);
        if !cap.admits(used, size) {
            continue;
        }
        pool.push(Cand {
            node,
            region: site.map(|s| s.region.as_str()),
            avail: cap.available(used),
            pref,
        });
    }
    fn best(pool: &[Cand<'_>], covered: &[&str], fresh_only: bool) -> Option<usize> {
        pool.iter()
            .enumerate()
            .filter(|(_, c)| !fresh_only || c.region.is_none_or(|r| !covered.contains(&r)))
            .min_by(|(_, a), (_, b)| b.avail.cmp(&a.avail).then(a.pref.cmp(&b.pref)))
            .map(|(i, _)| i)
    }
    let mut covered: Vec<&'a str> =
        Vec::with_capacity(covered_regions.len() + want.min(candidates.len()));
    covered.extend_from_slice(covered_regions);
    let mut chosen = Vec::with_capacity(want);
    while chosen.len() < want && !pool.is_empty() {
        // Prefer a region we have no copy in yet; otherwise anyone.
        let pick = best(&pool, &covered, true)
            .or_else(|| best(&pool, &covered, false))
            .expect("pool is non-empty");
        let c = pool.remove(pick);
        if let Some(r) = c.region {
            covered.push(r);
        }
        chosen.push(c.node);
    }
    chosen
}

/// Replicates a document toward a locality once it has been read from
/// there `threshold` times — "replicate progressively more of a user's
/// personal data at storage units geographically close to the user's
/// current location, the longer that the user remained at that location".
#[derive(Debug, Clone)]
pub struct LatencyReductionPolicy {
    threshold: u64,
    /// A holder within this distance of the reader counts as "close";
    /// no further replica is made.
    near_km: f64,
    counts: BTreeMap<(Key, String), u64>,
}

impl LatencyReductionPolicy {
    /// Creates a policy that replicates after `threshold` accesses from
    /// the same region, unless a copy already sits within 50 km of the
    /// reader.
    pub fn new(threshold: u64) -> Self {
        LatencyReductionPolicy {
            threshold: threshold.max(1),
            near_km: 50.0,
            counts: BTreeMap::new(),
        }
    }

    /// Counts an access to `guid` by a reader at `site`; returns the node
    /// to replicate it to when this access crosses the threshold and no
    /// holder sits near the reader.
    pub fn on_access(
        &mut self,
        guid: Key,
        site: &NodeSite,
        directory: &[NodeSite],
        holders: &[NodeIndex],
    ) -> Option<NodeIndex> {
        let count = self.counts.entry((guid, site.region.clone())).or_insert(0);
        *count += 1;
        if *count != self.threshold {
            return None;
        }
        // Already a copy geographically close to the reader?
        let close_already = directory
            .iter()
            .filter(|s| holders.contains(&s.node))
            .any(|s| s.geo.distance_km(site.geo) <= self.near_km);
        if close_already {
            return None;
        }
        // Replicate to the node nearest the reader (often the reader's
        // own storage unit).
        nearest(directory.iter(), site).map(|s| s.node)
    }
}

/// Pushes a replica to a geographically remote node (≥ `min_km` away)
/// immediately on creation.
#[derive(Debug, Clone)]
pub struct BackupPolicy {
    min_km: f64,
}

impl BackupPolicy {
    /// Creates a backup policy requiring at least `min_km` of separation.
    pub fn new(min_km: f64) -> Self {
        BackupPolicy { min_km }
    }

    /// Where to back up a document first stored at a primary at `site`:
    /// the nearest node at least `min_km` away, unless a holder already is.
    pub fn on_create(
        &self,
        site: &NodeSite,
        directory: &[NodeSite],
        holders: &[NodeIndex],
    ) -> Option<NodeIndex> {
        let remote = |s: &&NodeSite| s.geo.distance_km(site.geo) >= self.min_km;
        if directory.iter().filter(|s| holders.contains(&s.node)).any(|s| remote(&s)) {
            return None;
        }
        // The closest node that satisfies the distance bound, so the
        // backup is remote but not needlessly far.
        nearest(directory.iter().filter(remote), site).map(|s| s.node)
    }
}

/// The site in `candidates` nearest `site` (the first of equals).
fn nearest<'a>(
    candidates: impl Iterator<Item = &'a NodeSite>,
    site: &NodeSite,
) -> Option<&'a NodeSite> {
    candidates.min_by(|a, b| {
        a.geo
            .distance_km(site.geo)
            .partial_cmp(&b.geo.distance_km(site.geo))
            .expect("finite distances")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(node: u32, region: &str, lat: f64, lon: f64) -> NodeSite {
        NodeSite::new(NodeIndex(node), GeoPoint::new(lat, lon), region)
    }

    fn directory() -> Vec<NodeSite> {
        vec![
            site(0, "scotland", 56.3, -3.0),
            site(1, "scotland", 56.0, -3.5),
            site(2, "australia", -33.9, 151.2),
            site(3, "australia", -37.8, 145.0),
        ]
    }

    #[test]
    fn latency_policy_replicates_after_threshold() {
        let mut p = LatencyReductionPolicy::new(3);
        let guid = Key::hash_of_str("doc");
        let dir = directory();
        let reader = &dir[2]; // australia
        let holders = [NodeIndex(0)];
        assert_eq!(p.on_access(guid, reader, &dir, &holders), None);
        assert_eq!(p.on_access(guid, reader, &dir, &holders), None);
        assert_eq!(
            p.on_access(guid, reader, &dir, &holders),
            Some(NodeIndex(2)),
            "third access from australia triggers a replica there"
        );
        // Only fires once at the threshold crossing.
        assert_eq!(p.on_access(guid, reader, &dir, &holders), None);
    }

    #[test]
    fn latency_policy_skips_if_a_copy_is_already_close() {
        let mut p = LatencyReductionPolicy::new(1);
        let guid = Key::hash_of_str("doc");
        let dir = directory();
        // The reader itself already holds a copy: nothing to do.
        assert_eq!(p.on_access(guid, &dir[2], &dir, &[NodeIndex(2)]), None);
        // A copy in the same *region* but 700 km away is not close enough.
        let mut p = LatencyReductionPolicy::new(1);
        let holders = [NodeIndex(3)]; // melbourne vs sydney reader
        assert_eq!(p.on_access(guid, &dir[2], &dir, &holders), Some(NodeIndex(2)));
    }

    #[test]
    fn latency_policy_counts_regions_independently() {
        let mut p = LatencyReductionPolicy::new(2);
        let guid = Key::hash_of_str("doc");
        let dir = directory();
        let holders = [NodeIndex(0)];
        assert_eq!(p.on_access(guid, &dir[2], &dir, &holders), None);
        // One access from scotland does not advance australia's count.
        assert_eq!(p.on_access(guid, &dir[1], &dir, &holders), None);
        assert_eq!(p.on_access(guid, &dir[2], &dir, &holders), Some(NodeIndex(2)));
    }

    #[test]
    fn backup_policy_picks_remote_node_on_create() {
        let p = BackupPolicy::new(5000.0);
        let dir = directory();
        let primary = &dir[0]; // scotland
        let target = p.on_create(primary, &dir, &[NodeIndex(0)]);
        assert!(
            target == Some(NodeIndex(2)) || target == Some(NodeIndex(3)),
            "backup must be in australia, got {target:?}"
        );
    }

    #[test]
    fn backup_policy_satisfied_by_existing_remote_holder() {
        let p = BackupPolicy::new(5000.0);
        let dir = directory();
        assert_eq!(p.on_create(&dir[0], &dir, &[NodeIndex(0), NodeIndex(2)]), None);
    }

    #[test]
    fn backup_policy_no_candidate_is_noop() {
        let p = BackupPolicy::new(50_000.0); // farther than any point on earth
        let dir = directory();
        assert_eq!(p.on_create(&dir[0], &dir, &[NodeIndex(0)]), None);
    }

    #[test]
    fn capacity_admission_and_watermark() {
        let cap = NodeCapacity { max_bytes: 100, reserved_bytes: 20, min_free_bytes: 10 };
        assert_eq!(cap.budget(), 80);
        assert_eq!(cap.available(30), 50);
        assert!(cap.admits(30, 40)); // 30 + 40 + 10 = 80 fits exactly
        assert!(!cap.admits(30, 41));
    }

    #[test]
    fn planner_skips_full_nodes() {
        let tiny = NodeCapacity { max_bytes: 8, reserved_bytes: 0, min_free_bytes: 0 };
        let dir = vec![
            site(0, "scotland", 56.3, -3.0).with_capacity(tiny),
            site(1, "england", 51.5, -0.1),
            site(2, "europe", 48.8, 2.3),
        ];
        let used = BTreeMap::new();
        let plan = plan_quota_targets(
            100,
            2,
            &[],
            &[NodeIndex(0), NodeIndex(1), NodeIndex(2)],
            &dir,
            &used,
        );
        assert_eq!(plan, vec![NodeIndex(1), NodeIndex(2)], "full node 0 must be skipped");
    }

    #[test]
    fn planner_prefers_region_diversity() {
        let dir = vec![
            site(0, "scotland", 56.3, -3.0),
            site(1, "scotland", 56.0, -3.5),
            site(2, "australia", -33.9, 151.2),
        ];
        let used = BTreeMap::new();
        // Primary already sits in scotland: the first pick must jump to
        // australia even though both scotland nodes are preferred by ring
        // order.
        let plan = plan_quota_targets(
            10,
            2,
            &["scotland"],
            &[NodeIndex(0), NodeIndex(1), NodeIndex(2)],
            &dir,
            &used,
        );
        assert_eq!(plan[0], NodeIndex(2), "uncovered region wins the first slot");
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn planner_breaks_ties_by_available_capacity_then_preference() {
        let big = NodeCapacity { max_bytes: 1 << 30, ..NodeCapacity::default() };
        let dir = vec![
            site(0, "scotland", 56.3, -3.0),
            site(1, "scotland", 56.0, -3.5).with_capacity(big),
        ];
        let mut used = BTreeMap::new();
        let plan = plan_quota_targets(10, 1, &[], &[NodeIndex(0), NodeIndex(1)], &dir, &used);
        assert_eq!(plan, vec![NodeIndex(1)], "more available capacity wins");
        // Equal capacity: caller preference order decides.
        used.insert(NodeIndex(1), (1 << 30) - (64 * 1024 * 1024));
        let plan = plan_quota_targets(10, 1, &[], &[NodeIndex(0), NodeIndex(1)], &dir, &used);
        assert_eq!(plan, vec![NodeIndex(0)]);
    }

    #[test]
    fn planner_is_deterministic_and_bounded() {
        let dir = directory();
        let used = BTreeMap::new();
        let cands = [NodeIndex(0), NodeIndex(1), NodeIndex(2), NodeIndex(3)];
        let a = plan_quota_targets(5, 10, &[], &cands, &dir, &used);
        let b = plan_quota_targets(5, 10, &[], &cands, &dir, &used);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "cannot return more targets than candidates");
    }
}
