//! Pastry routing state: the prefix routing table and the leaf set.

use crate::id::{Key, KeyedNode, DIGITS};
use gloss_sim::NodeIndex;
use std::rc::Rc;

/// FNV-1a digest of a membership list (content identity for gossip
/// deduplication).
pub fn digest_of(members: &[KeyedNode]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for m in members {
        mix(m.key.0 as u64);
        mix((m.key.0 >> 64) as u64);
        mix(m.node.0 as u64);
    }
    h
}

/// The prefix routing table: `DIGITS` rows × 16 columns. Row `r` holds
/// nodes sharing an `r`-digit prefix with the owner and differing at digit
/// `r`; column = that digit's value.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    owner: Key,
    rows: Vec<[Option<KeyedNode>; 16]>,
}

impl RoutingTable {
    /// Creates an empty table for `owner`.
    pub fn new(owner: Key) -> Self {
        RoutingTable { owner, rows: vec![[None; 16]; DIGITS] }
    }

    /// The entry that advances routing toward `key` by one digit, if any:
    /// row = shared prefix length, column = `key`'s digit there.
    pub fn next_hop(&self, key: Key) -> Option<KeyedNode> {
        let p = self.owner.shared_prefix(key);
        if p >= DIGITS {
            return None;
        }
        self.rows[p][key.digit(p) as usize]
    }

    /// Offers a node for inclusion; returns `true` if the table changed.
    ///
    /// The slot is determined by the node's prefix relation to the owner;
    /// an occupied slot keeps its current entry unless it is the same
    /// physical node (whose key may have changed on rejoin).
    pub fn offer(&mut self, candidate: KeyedNode) -> bool {
        if candidate.key == self.owner {
            return false;
        }
        let p = self.owner.shared_prefix(candidate.key);
        debug_assert!(p < DIGITS, "equal keys handled above");
        let col = candidate.key.digit(p) as usize;
        let slot = &mut self.rows[p][col];
        match slot {
            Some(existing) if existing.node == candidate.node => {
                if *existing != candidate {
                    *slot = Some(candidate);
                    true
                } else {
                    false
                }
            }
            Some(_) => false,
            None => {
                *slot = Some(candidate);
                true
            }
        }
    }

    /// Removes every entry hosted on the given physical node (failure
    /// handling); returns how many entries were removed.
    pub fn remove_node(&mut self, node: NodeIndex) -> usize {
        let mut removed = 0;
        for row in &mut self.rows {
            for slot in row.iter_mut() {
                if slot.is_some_and(|e| e.node == node) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// One row of the table (for transferring state during joins).
    pub fn row(&self, r: usize) -> Vec<KeyedNode> {
        self.rows[r].iter().flatten().copied().collect()
    }

    /// All entries in the table.
    pub fn entries(&self) -> Vec<KeyedNode> {
        self.rows.iter().flat_map(|r| r.iter().flatten().copied()).collect()
    }

    /// Number of populated slots.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|r| r.iter().flatten().count()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How many nodes a leaf set holds: half clockwise of the owner, half
/// anticlockwise.
const LEAF_SET_SIZE: usize = 8;

/// The leaf set: the four nearest keys clockwise and the four nearest
/// anticlockwise of the owner on the ring. Used for the final hops of
/// routing and for replica placement in the storage layer.
///
/// The deduplicated member list is cached and rebuilt only when the set
/// changes: probes read it once per heartbeat per neighbour, which made
/// the recompute-per-call version the hottest allocation site in
/// 1k-node overlay runs.
#[derive(Debug, Clone)]
pub struct LeafSet {
    owner: Key,
    cw: Vec<KeyedNode>,  // sorted by clockwise distance from owner
    ccw: Vec<KeyedNode>, // sorted by anticlockwise distance from owner
    members: Rc<[KeyedNode]>,
    digest: u64,
}

impl LeafSet {
    /// Nodes held per side.
    const HALF: usize = LEAF_SET_SIZE / 2;

    /// Creates an empty leaf set.
    pub fn new(owner: Key) -> Self {
        LeafSet {
            owner,
            cw: Vec::new(),
            ccw: Vec::new(),
            members: Rc::new([]),
            digest: digest_of(&[]),
        }
    }

    /// Offers a node; returns `true` if the leaf set changed.
    pub fn offer(&mut self, candidate: KeyedNode) -> bool {
        if candidate.key == self.owner {
            return false;
        }
        let mut changed = false;
        // A node near the owner may qualify on both sides of a small ring;
        // keep the sides independent.
        changed |= Self::insert_side(&mut self.cw, Self::HALF, candidate, |k| {
            self.owner.clockwise_distance(k)
        });
        changed |= Self::insert_side(&mut self.ccw, Self::HALF, candidate, |k| {
            k.clockwise_distance(self.owner)
        });
        if changed {
            self.rebuild_members();
        }
        changed
    }

    fn rebuild_members(&mut self) {
        let mut all = self.cw.clone();
        for e in &self.ccw {
            if !self.cw.iter().any(|x| x.key == e.key) {
                all.push(*e);
            }
        }
        self.digest = digest_of(&all);
        self.members = all.into();
    }

    fn insert_side(
        side: &mut Vec<KeyedNode>,
        cap: usize,
        candidate: KeyedNode,
        dist: impl Fn(Key) -> u128,
    ) -> bool {
        if side.iter().any(|e| e.key == candidate.key) {
            return false;
        }
        side.push(candidate);
        side.sort_by_key(|e| dist(e.key));
        if side.len() > cap {
            side.truncate(cap);
        }
        side.iter().any(|e| e.key == candidate.key)
    }

    /// Removes a physical node; returns `true` if anything was removed.
    pub fn remove_node(&mut self, node: NodeIndex) -> bool {
        let before = self.cw.len() + self.ccw.len();
        self.cw.retain(|e| e.node != node);
        self.ccw.retain(|e| e.node != node);
        let removed = before != self.cw.len() + self.ccw.len();
        if removed {
            self.rebuild_members();
        }
        removed
    }

    /// All members (deduplicated), nearest-clockwise first.
    pub fn members(&self) -> &[KeyedNode] {
        &self.members
    }

    /// The member list behind a cheap shared handle (messages carrying a
    /// leaf set bump the `Rc`'s count, not copy the list).
    pub fn members_shared(&self) -> Rc<[KeyedNode]> {
        Rc::clone(&self.members)
    }

    /// A content digest of the member list, maintained on change. Gossip
    /// receivers compare digests to skip re-learning an unchanged list.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Whether `key` falls within the span covered by the leaf set (i.e.
    /// the final-hop region where the numerically closest member decides
    /// delivery).
    pub fn covers(&self, key: Key) -> bool {
        // A side below capacity means this node knows everyone on that
        // side of the ring, so the closest-member rule is globally correct
        // (this includes the singleton ring).
        if self.cw.len() < Self::HALF || self.ccw.len() < Self::HALF {
            return true;
        }
        let cw_span = self.cw.last().map(|e| self.owner.clockwise_distance(e.key)).unwrap_or(0);
        let ccw_span = self.ccw.last().map(|e| e.key.clockwise_distance(self.owner)).unwrap_or(0);
        let d_cw = self.owner.clockwise_distance(key);
        let d_ccw = key.clockwise_distance(self.owner);
        d_cw <= cw_span || d_ccw <= ccw_span
    }

    /// The member (or the owner, represented by `owner_as`) numerically
    /// closest to `key`.
    pub fn closest(&self, key: Key, owner_as: KeyedNode) -> KeyedNode {
        let mut best = owner_as;
        let mut best_d = self.owner.ring_distance(key);
        for e in self.members.iter() {
            let d = e.key.ring_distance(key);
            if d < best_d {
                best = *e;
                best_d = d;
            }
        }
        best
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the leaf set is empty.
    pub fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.ccw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kn(key: u128, node: u32) -> KeyedNode {
        KeyedNode::new(Key(key), NodeIndex(node))
    }

    const TOP: u128 = 1 << 124; // sets the first hex digit to 1

    #[test]
    fn routing_table_slot_placement() {
        let owner = Key(0);
        let mut t = RoutingTable::new(owner);
        // Differs at digit 0 (value 1): row 0, col 1.
        assert!(t.offer(kn(TOP, 1)));
        assert_eq!(t.row(0), vec![kn(TOP, 1)]);
        // Same prefix of one digit (0), differs at digit 1.
        assert!(t.offer(kn(TOP >> 4, 2)));
        assert_eq!(t.row(1), vec![kn(TOP >> 4, 2)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn routing_table_next_hop_advances_prefix() {
        let owner = Key(0);
        let mut t = RoutingTable::new(owner);
        let target = Key(0x2 << 120 | 0x5); // digit0 = 2
        assert!(t.next_hop(target).is_none());
        let hop = kn(0x2 << 120, 7); // shares 0 digits, digit0 = 2
        t.offer(hop);
        assert_eq!(t.next_hop(target), Some(hop));
    }

    #[test]
    fn routing_table_keeps_first_entry() {
        let mut t = RoutingTable::new(Key(0));
        assert!(t.offer(kn(TOP, 1)));
        assert!(!t.offer(kn(TOP | 99, 2)), "occupied slot not replaced");
        // Same physical node updates its key.
        assert!(t.offer(kn(TOP | 99, 1)));
    }

    #[test]
    fn routing_table_remove_node() {
        let mut t = RoutingTable::new(Key(0));
        t.offer(kn(TOP, 1));
        t.offer(kn(2 << 120, 1));
        t.offer(kn(3 << 120, 2));
        assert_eq!(t.remove_node(NodeIndex(1)), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn routing_table_ignores_own_key() {
        let mut t = RoutingTable::new(Key(5));
        assert!(!t.offer(kn(5, 9)));
    }

    #[test]
    fn leaf_set_keeps_nearest_per_side() {
        let mut l = LeafSet::new(Key(1000));
        for i in 1..=5u32 {
            l.offer(kn(1000 + 10 * u128::from(i), i));
            l.offer(kn(1000 - 10 * u128::from(i), 10 + i));
        }
        let members = l.members();
        // Four nearest clockwise: 1010..=1040. Four nearest anticlockwise: 990..=960.
        for i in 1..=4u32 {
            assert!(members.contains(&kn(1000 + 10 * u128::from(i), i)));
            assert!(members.contains(&kn(1000 - 10 * u128::from(i), 10 + i)));
        }
        assert!(!members.contains(&kn(1050, 5)));
        assert!(!members.contains(&kn(950, 15)));
    }

    #[test]
    fn leaf_set_covers_and_closest() {
        let mut l = LeafSet::new(Key(1000));
        for (k, i) in [(1010u128, 1u32), (1020, 2), (1030, 5), (1040, 6)] {
            l.offer(kn(k, i));
        }
        for (k, i) in [(990u128, 3u32), (980, 4), (970, 7), (960, 8)] {
            l.offer(kn(k, i));
        }
        assert!(l.covers(Key(1005)));
        assert!(l.covers(Key(995)));
        assert!(!l.covers(Key(5000)), "full leaf set bounds its span");
        let me = kn(1000, 0);
        assert_eq!(l.closest(Key(1004), me), me);
        assert_eq!(l.closest(Key(1008), me), kn(1010, 1));
        assert_eq!(l.closest(Key(992), me), kn(990, 3));
    }

    #[test]
    fn partially_filled_leaf_set_covers_everything() {
        let mut l = LeafSet::new(Key(1000));
        l.offer(kn(1010, 1));
        l.offer(kn(990, 2));
        // Two members with capacity eight: the node knows the whole ring.
        assert!(l.covers(Key(5000)));
        assert_eq!(l.closest(Key(5000), kn(1000, 0)), kn(1010, 1));
    }

    #[test]
    fn leaf_set_wraps_around_ring() {
        let mut l = LeafSet::new(Key(u128::MAX - 10));
        l.offer(kn(5, 1)); // clockwise across the wrap
        l.offer(kn(u128::MAX - 30, 2));
        assert!(l.covers(Key(2)));
        let me = kn(u128::MAX - 10, 0);
        assert_eq!(l.closest(Key(3), me), kn(5, 1));
    }

    #[test]
    fn leaf_set_remove_and_empty_covers_all() {
        let mut l = LeafSet::new(Key(0));
        l.offer(kn(10, 1));
        assert!(l.remove_node(NodeIndex(1)));
        assert!(!l.remove_node(NodeIndex(1)));
        assert!(l.is_empty());
        assert!(l.covers(Key(1 << 100)), "singleton ring owns everything");
    }
}
