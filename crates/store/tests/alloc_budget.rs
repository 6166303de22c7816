//! Allocation budget of a routed store lookup. Once a node has forwarded
//! a lookup before (its overlay send buffer grown, its forward ledger
//! keeping the list the last ack emptied), forwarding another allocates
//! nothing: the lookup's path lives in the payload, so pushing this node
//! onto it and keeping the copy the forward ledger holds cost no block.
//! A path of up to four nodes never spills to the heap. The placement
//! planner borrows region names rather than copying them.
//!
//! This binary installs an allocator that counts each thread's
//! allocations, so keep the budget checks in this file. CI also runs it
//! with `--release`, the profile the end-to-end benchmark runs in.

use gloss_overlay::{Key, KeyedNode, OverlayMsg, OverlayNode};
use gloss_sim::{GeoPoint, NodeIndex, Outbox, SimDuration, SimTime};
use gloss_store::{
    plan_quota_targets, LookupPath, NodeSite, StoreConfig, StoreMsg, StoreNode, StorePayload,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) made by this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    // A thread being torn down has no slot left; its requests go unseen.
    let _ = COUNT.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; counting touches no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread allocated while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(0));
    let out = f();
    (out, COUNT.with(Cell::get))
}

fn n(i: u32) -> NodeIndex {
    NodeIndex(i)
}

/// The issuer, the forwarding node under test, and the node responsible
/// for the sought guid.
const ISSUER: NodeIndex = NodeIndex(1);
const HOP: NodeIndex = NodeIndex(2);
const ROOT: NodeIndex = NodeIndex(3);
const GUID: Key = Key(0x2ff);

/// Lookup `req_id` for [`GUID`] from [`ISSUER`], arriving at [`HOP`]
/// with the issuer already on its path.
fn lookup(req_id: u64) -> StoreMsg {
    let payload = StorePayload::Lookup {
        guid: GUID,
        reply_to: ISSUER,
        req_id,
        path: [ISSUER].into_iter().collect(),
        min_version: 0,
    };
    StoreMsg::Overlay(OverlayMsg::Route { target: GUID, payload, origin: ISSUER, hops: 1 })
}

/// The path of the lookup `out` forwards to [`ROOT`], if it holds one.
fn forwarded_path(out: &Outbox<StoreMsg>) -> Option<Vec<NodeIndex>> {
    out.sends().iter().rev().find_map(|(to, msg)| match msg {
        StoreMsg::Overlay(OverlayMsg::Route {
            payload: StorePayload::Lookup { path, .. }, ..
        }) if *to == ROOT => Some(path.iter().collect()),
        _ => None,
    })
}

#[test]
fn a_warmed_hop_forwards_a_lookup_without_allocating() {
    // A governed node, so every forward enters the ledger of forwards
    // awaiting their acknowledgement.
    let overlay = OverlayNode::new(Key(0x100), HOP, None, SimDuration::ZERO).with_governor(7);
    let mut hop = StoreNode::new(HOP, overlay, StoreConfig::default(), Vec::new());
    hop.on_start(SimTime::ZERO, &mut Outbox::new());
    // The root is closer to the guid than the hop; so is no one else.
    let mut out = Outbox::new();
    hop.handle(
        SimTime::ZERO,
        ROOT,
        StoreMsg::Overlay(OverlayMsg::Announce { node: KeyedNode::new(Key(0x300), ROOT) }),
        &mut out,
    );

    // Warm-up: one lookup forwarded and acknowledged. The outbox now
    // holds two sends (the ack to the issuer, the forward), room for two
    // more.
    let mut out = Outbox::new();
    let now = SimTime::from_secs(1);
    hop.handle(now, ISSUER, lookup(1), &mut out);
    assert_eq!(forwarded_path(&out), Some(vec![ISSUER, HOP]));
    hop.handle(now, ROOT, StoreMsg::Overlay(OverlayMsg::RouteAck), &mut out);
    assert_eq!(out.sends().len(), 2);

    let message = lookup(2);
    let ((), cost) = allocations(|| hop.handle(now, ISSUER, message, &mut out));
    assert_eq!(out.sends().len(), 4, "acknowledged and forwarded");
    assert_eq!(forwarded_path(&out), Some(vec![ISSUER, HOP]));
    assert_eq!(cost, 0, "forwarding a lookup at a warmed hop allocated");
}

#[test]
fn a_path_of_up_to_four_nodes_never_spills() {
    for len in 0..=4 {
        let (path, cost) = allocations(|| (1..=len).map(n).collect::<LookupPath>());
        assert_eq!(cost, 0, "building a {len}-node path allocated");
        let (copy, cost) = allocations(|| path.clone());
        assert_eq!(cost, 0, "copying a {len}-node path allocated");
        assert_eq!(copy.iter().collect::<Vec<_>>(), (1..=len).map(n).collect::<Vec<_>>());
    }
    let (path, cost) = allocations(|| (1..=5).map(n).collect::<LookupPath>());
    assert!(cost > 0, "a fifth node goes to the heap");
    assert_eq!(path.iter().count(), 5);
}

#[test]
fn planning_replicas_allocates_three_blocks_however_many_regions_it_covers() {
    let regions = ["scotland", "england", "europe", "australia"];
    let directory: Vec<NodeSite> = (0..8)
        .map(|i| NodeSite::new(n(i), GeoPoint::new(0.0, 0.0), regions[i as usize % 4]))
        .collect();
    let candidates: Vec<NodeIndex> = (0..8).map(n).collect();
    let used = BTreeMap::new();
    for (covered, want) in [(&[][..], 1), (&regions[..1], 4), (&regions[..], 8)] {
        let (plan, cost) =
            allocations(|| plan_quota_targets(64, want, covered, &candidates, &directory, &used));
        assert_eq!(plan.len(), want);
        // The candidate pool, the covered regions and the plan.
        assert_eq!(cost, 3, "planning {want} targets past {} covered regions", covered.len());
    }
}
