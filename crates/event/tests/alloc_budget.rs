//! Allocation budget of matching and routing: once its working vectors
//! have grown, a `FilterIndex` probe allocates nothing, whatever it
//! counts, verifies and matches, and a broker routing a notification
//! allocates only what its outbox's vectors grow by for the copies it
//! sends and the counters it bumps. A broker's replay log, once it has
//! reached its steady length, logs one more event with no allocation.
//! An event on a kind its caller holds, and any clone of an event,
//! allocate nothing; its first attribute allocates only the map.
//!
//! This binary installs an allocator that counts each thread's
//! allocations, so keep the budget checks in this file. CI also runs it
//! with `--release`, the profile the end-to-end benchmark runs in.

use gloss_event::{
    Broker, BrokerMsg, BrokerTopology, Event, Filter, FilterIndex, Op, Subscription,
};
use gloss_sim::{NodeIndex, Outbox, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

struct Counting;

thread_local! {
    /// `(allocations, bytes requested)` by this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn record(size: usize) {
    // A thread being torn down has no slot left; its requests go unseen.
    let _ = COUNT.try_with(|count| {
        let (n, bytes) = count.get();
        count.set((n + 1, bytes + size as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; counting reads only the requested size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread allocated while running `f`: `(allocations, bytes)`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNT.with(|count| count.set((0, 0)));
    let out = f();
    (out, COUNT.with(Cell::get))
}

const KINDS: [&str; 3] = ["alert.fire", "alert.ice", "alert.smog"];

/// Filter `n` of a table holding every bucket shape: a point constraint
/// beside one verified range (the common shape), beside two verified
/// constraints (spilled to the heap), string points and prefixes with a
/// verified suffix, fallback-only and range-only filters, and
/// zero-constraint filters with and without a kind.
fn filter(n: usize) -> Filter {
    let kind = KINDS[n % KINDS.len()];
    let zone = (n % 4) as i64;
    let level = (n % 50) as i64;
    match n % 8 {
        0 | 1 => {
            Filter::for_kind(kind).with_eq("zone", zone).with_constraint("level", Op::Ge, level)
        }
        2 => Filter::for_kind(kind)
            .with_eq("zone", zone)
            .with_constraint("level", Op::Ge, level)
            .with_constraint("street", Op::Ne, "north haugh"),
        3 => Filter::any().with_eq("street", "south street").with_constraint(
            "street",
            Op::Suffix,
            "street",
        ),
        4 => Filter::for_kind(kind).with_constraint("street", Op::Prefix, "south"),
        5 => Filter::any().with_constraint("street", Op::Contains, "h st"),
        6 => Filter::for_kind(kind).with_constraint("level", Op::Lt, level),
        _ if n % 16 == 7 => Filter::for_kind(kind),
        _ => Filter::any(),
    }
}

/// An event every shape above can match.
fn event(n: usize) -> Event {
    Event::new(KINDS[n % KINDS.len()])
        .with_attr("zone", (n % 4) as i64)
        .with_attr("level", (n * 7 % 60) as i64)
        .with_attr("street", "south street")
}

#[test]
fn a_warmed_probe_allocates_nothing() {
    let mut index = FilterIndex::new();
    for n in 0..512 {
        assert!(index.insert_owned(Subscription { id: n as u64, filter: filter(n) }, n as u32));
    }
    let events: Vec<Event> = (0..12).map(event).collect();
    let walk = |index: &FilterIndex| {
        let mut matches = 0;
        for e in &events {
            matches += index.hits(e).len();
        }
        matches
    };
    let warm = walk(&index);
    assert!(warm > 12 * 64, "every event matches many filters: {warm}");
    let (matches, cost) = allocations(|| walk(&index));
    assert_eq!(matches, warm);
    assert_eq!(cost, (0, 0), "(allocations, bytes) of twelve warmed probes");
}

/// The scratch a probe works in is sized with the slot table, on insert:
/// a probe that touches and matches more filters than any before it,
/// the index's first probe included, and one after later inserts, still
/// allocates nothing.
#[test]
fn a_probe_beating_every_earlier_probe_allocates_nothing() {
    // Filter `i` is `level < i`: a reading of level `v` matches the
    // filters above `v`, so each lower reading matches more.
    let mut index = FilterIndex::new();
    let insert = |index: &mut FilterIndex, range: std::ops::Range<usize>| {
        for i in range {
            let filter = Filter::for_kind(KINDS[0]).with_constraint("level", Op::Lt, i as i64);
            assert!(index.insert(Subscription { id: i as u64, filter }));
        }
    };
    let probe = |index: &FilterIndex, level: i64| {
        let reading = Event::new(KINDS[0]).with_attr("level", level);
        allocations(|| index.hits(&reading).len())
    };
    // Each round's last probe matches every filter but the first.
    for (filters, levels) in [(0..256, [255, 128, 0]), (256..1024, [1023, 512, 0])] {
        insert(&mut index, filters.clone());
        for level in levels {
            let (matches, cost) = probe(&index, level);
            assert_eq!(matches, filters.end - 1 - level as usize);
            assert_eq!(cost, (0, 0), "(allocations, bytes) of a probe at level {level}");
        }
    }
}

/// A hub with neighbours 1 and 2 and `clients` clients, each holding
/// `per_client` subscriptions, half of which match [`event`]`(0)`; one
/// subscription per neighbour matches too.
fn loaded_hub(clients: u32, per_client: usize) -> Broker {
    let neighbors = vec![NodeIndex(1), NodeIndex(2)];
    let mut hub = Broker::new(NodeIndex(0), BrokerTopology::Peer { neighbors });
    let mut out = Outbox::new();
    let mut id = 0;
    for c in 0..clients {
        let client = NodeIndex(10 + c);
        hub.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
        for k in 0..per_client {
            let zone = if k % 2 == 0 { 0i64 } else { 1 };
            let filter = Filter::for_kind(KINDS[0]).with_eq("zone", zone).with_constraint(
                "level",
                Op::Le,
                (k % 7) as i64,
            );
            id += 1;
            hub.handle(
                SimTime::ZERO,
                client,
                BrokerMsg::Subscribe(Subscription { id, filter }),
                &mut out,
            );
        }
    }
    for n in [1, 2] {
        id += 1;
        let sub = Subscription { id, filter: Filter::for_kind(KINDS[0]).with_eq("zone", 0i64) };
        hub.handle(SimTime::ZERO, NodeIndex(n), BrokerMsg::Subscribe(sub), &mut out);
    }
    hub
}

/// What `broker` allocated handling `msg` from `from` once warmed by
/// the same message, the sends it made, and what filling a fresh outbox
/// with the same sends and counts allocates.
fn routing_cost(
    broker: &mut Broker,
    from: NodeIndex,
    msg: BrokerMsg,
) -> ((u64, u64), Vec<NodeIndex>, (u64, u64)) {
    broker.handle(SimTime::ZERO, from, msg.clone(), &mut Outbox::new());
    let mut out = Outbox::new();
    let ((), cost) = allocations(|| broker.handle(SimTime::ZERO, from, msg, &mut out));
    let sends = out.sends().to_vec();
    let to = sends.iter().map(|(to, _)| *to).collect();
    let counts = out.counts().to_vec();
    let mut replay = Outbox::new();
    let ((), growth) = allocations(|| {
        for (to, msg) in sends {
            replay.send(to, msg);
        }
        for (name, by) in counts {
            replay.count(name, by);
        }
    });
    (cost, to, growth)
}

#[test]
fn routing_a_notification_allocates_only_the_outbox_growth() {
    for (clients, per_client) in [(4, 2), (4, 64), (9, 16)] {
        let mut hub = loaded_hub(clients, per_client);
        let (cost, to, growth) = routing_cost(&mut hub, NodeIndex(1), BrokerMsg::Notify(event(0)));
        assert_eq!(to.len(), clients as usize + 1, "each client and neighbour 2, once");
        assert!(growth.0 > 0, "the sends are still kept");
        assert_eq!(cost, growth, "{clients} clients of {per_client} subscriptions each");
    }
}

/// A leaf as the architecture wires one: node 1, whose one neighbour is
/// the hub 0 and whose one client is node 1 itself, holding `own`
/// selective subscriptions (a third of them match [`event`]`(0)`), with
/// `covers` range-only covers the hub forwarded (every second one
/// matching). The leaf's subscriptions arrive after the hub's covers, so
/// the two tables grow interleaved.
fn loaded_leaf(own: usize, covers: usize) -> Broker {
    let (leaf, hub) = (NodeIndex(1), NodeIndex(0));
    let mut b = Broker::new(leaf, BrokerTopology::Peer { neighbors: vec![hub] });
    let mut out = Outbox::new();
    b.handle(SimTime::ZERO, leaf, BrokerMsg::Attach, &mut out);
    let mut id = 0;
    for k in 0..own.max(covers) {
        let (filter, from) = if k % 2 == 0 && k / 2 < covers {
            (Filter::for_kind(KINDS[0]).with_constraint("level", Op::Ge, (k % 4) as i64 * 20), hub)
        } else if k < own {
            let zone = (k % 3) as i64;
            (
                Filter::for_kind(KINDS[0]).with_eq("zone", zone).with_constraint(
                    "level",
                    Op::Le,
                    5i64,
                ),
                leaf,
            )
        } else {
            continue;
        };
        id += 1;
        b.handle(SimTime::ZERO, from, BrokerMsg::Subscribe(Subscription { id, filter }), &mut out);
    }
    b
}

/// A warmed leaf routes its neighbour's notification (probing its
/// client's table alone) and its own client's publication (probing the
/// hub's covers alone) allocating only the outbox growth.
#[test]
fn a_leaf_routes_allocating_only_the_outbox_growth() {
    let (leaf, hub) = (NodeIndex(1), NodeIndex(0));
    for (own, covers) in [(6, 2), (150, 25), (40, 80)] {
        let mut b = loaded_leaf(own, covers);
        let (cost, to, growth) = routing_cost(&mut b, hub, BrokerMsg::Notify(event(0)));
        assert_eq!(to, [leaf], "the hub's notification goes to the leaf's own node only");
        assert_eq!(cost, growth, "notify: {own} own subscriptions, {covers} covers");
        let (cost, to, growth) = routing_cost(&mut b, leaf, BrokerMsg::Publish(event(0)));
        assert_eq!(to, [hub], "the leaf's own publication goes to the hub only");
        assert_eq!(cost, growth, "publish: {own} own subscriptions, {covers} covers");
    }
}

/// A hub logging [`KINDS`]`[0]` for 10 s, with nobody else subscribed:
/// once its log has reached its steady length (a notification every
/// 100 ms for 30 s), appending one more — and dropping the one that aged
/// out — allocates nothing, and nothing is sent.
#[test]
fn a_log_at_its_steady_length_appends_an_event_without_allocating() {
    let neighbors = vec![NodeIndex(1), NodeIndex(2)];
    let mut hub = Broker::new(NodeIndex(0), BrokerTopology::Peer { neighbors });
    let mut out = Outbox::new();
    hub.handle(SimTime::ZERO, NodeIndex(0), BrokerMsg::Attach, &mut out);
    let log = Subscription { id: 1, filter: Filter::for_kind(KINDS[0]) };
    hub.keep_log(log, gloss_sim::SimDuration::from_secs(10), &mut out);
    let at = |k: u64| SimTime::from_micros(k * 100_000);
    for k in 0..300 {
        hub.handle(at(k), NodeIndex(1), BrokerMsg::Notify(event(0)), &mut Outbox::new());
    }
    let held = hub.log().expect("a log").len();
    let (mut out, notify) = (Outbox::new(), BrokerMsg::Notify(event(0)));
    let ((), cost) = allocations(|| hub.handle(at(300), NodeIndex(1), notify, &mut out));
    assert_eq!(cost, (0, 0), "(allocations, bytes) logging one event at steady length");
    assert!(out.sends().is_empty(), "a logged event is sent nowhere");
    let log = hub.log().expect("a log");
    assert_eq!((log.len(), log.appended, log.dropped), (held, 301, 301 - held as u64));
    assert_eq!(held, 101, "10 s of events, both ends included");
}

/// An event shares what it holds: built on a kind the caller already
/// holds it copies no string, a clone (attributes and payload included)
/// copies nothing, and the first attribute allocates only the map it
/// starts — its counted box and one B-tree leaf.
#[test]
fn an_event_allocates_only_the_map_its_first_attribute_starts() {
    let (kind, name): (Rc<str>, Rc<str>) = (Rc::from(KINDS[0]), Rc::from("zone"));
    drop(Event::new(Rc::clone(&kind)));
    let (mut e, cost) = allocations(|| Event::new(Rc::clone(&kind)));
    assert_eq!(cost, (0, 0), "(allocations, bytes) of an event on a held kind");
    let (copy, cost) = allocations(|| e.clone());
    assert_eq!(cost, (0, 0), "(allocations, bytes) of cloning a bare event");
    let ((), cost) = allocations(|| e.set_attr(Rc::clone(&name), 1i64));
    assert_eq!(cost, (2, 496), "(allocations, bytes) of the first attribute");
    assert_ne!(e, copy);
    let loaded = event(0).with_payload(gloss_xml::parse("<pos><lat>1</lat></pos>").unwrap());
    let (copy, cost) = allocations(|| loaded.clone());
    assert_eq!(cost, (0, 0), "(allocations, bytes) of cloning attributes and payload");
    assert_eq!(copy, loaded);
}
