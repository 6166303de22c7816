//! The lookup ledger: a storelet's `pending_lookups` is the only record
//! of an open lookup. A reply whose request the ledger no longer holds is
//! a duplicate, each conclusion is handed to the embedder once
//! (`StoreNode::take_concluded`), and one `LOOKUP_RETRY` timer watches the
//! ledger's earliest deadline, so the event queue does not grow with the
//! lookups a node has served.
//!
//! CI also runs this file with `--release`, the profile the end-to-end
//! benchmark runs in.

use gloss_overlay::{Key, KeyedNode, OverlayNode};
use gloss_sim::{NodeIndex, Outbox, SimDuration, SimTime};
use gloss_store::store_node::timers::LOOKUP_RETRY;
use gloss_store::{Document, LookupOutcome, StoreConfig, StoreMsg, StoreNetwork, StoreNode};

const ISSUER: NodeIndex = NodeIndex(0);
const PEER: NodeIndex = NodeIndex(1);

/// A storelet with caching `cache`, whose one known peer sits on `guid`:
/// a lookup for `guid` routes to the peer, and only a reply message ends
/// it.
fn issuer(guid: Key, cache: bool) -> StoreNode {
    let mut overlay = OverlayNode::new(Key(0x100), ISSUER, None, SimDuration::ZERO);
    overlay.learn(KeyedNode::new(guid, PEER));
    let cfg = StoreConfig { cache_enabled: cache, ..Default::default() };
    StoreNode::new(ISSUER, overlay, cfg, Vec::new())
}

fn taken(s: &mut StoreNode) -> Vec<(u64, LookupOutcome)> {
    let mut into = Vec::new();
    s.take_concluded(&mut into);
    into
}

fn count(out: &Outbox<StoreMsg>, name: &str) -> f64 {
    out.counts().iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum()
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// An embedder that reuses a request id once the lookup under it has
/// ended gets the second lookup's own outcome: the ledger, not a record
/// of past ids, decides what a duplicate is.
#[test]
fn a_request_id_reused_after_its_lookup_ended_gets_its_own_outcome() {
    let first = Document::new("menu", b"pistachio".to_vec());
    let second = first.updated(b"pistachio, vanilla".to_vec());
    // No cache: the second lookup must route again, not read the copy
    // the first one fetched.
    let mut s = issuer(first.guid, false);
    for (issued, doc) in [(0, &first), (1_000, &second)] {
        s.lookup(first.guid, 5, at_ms(issued), &mut Outbox::new());
        let mut out = Outbox::new();
        let reply =
            StoreMsg::FetchReply { req_id: 5, doc: doc.clone(), from_cache: false, hops: 2 };
        s.handle(at_ms(issued + 50), PEER, reply, &mut out);
        assert_eq!(count(&out, "store.lookups_dup_replies"), 0.0, "issued at {issued} ms");
        let [(5, o)] = &taken(&mut s)[..] else { panic!("one outcome for request 5") };
        assert_eq!(o.doc.as_ref().map(|d| d.version), Some(doc.version));
        assert_eq!(o.latency, SimDuration::from_millis(50));
    }
}

/// A reply that lands after its lookup timed out finds no ledger entry:
/// it is counted as a duplicate and hands nothing over.
#[test]
fn a_reply_after_its_lookup_timed_out_is_a_duplicate() {
    let doc = Document::new("slow", b"late".to_vec());
    let mut s = issuer(doc.guid, true);
    s.lookup(doc.guid, 9, SimTime::ZERO, &mut Outbox::new());
    // Sweep far past every (jittered, doubling) deadline until the retry
    // budget is spent.
    let mut concluded = Vec::new();
    for i in 1..=10 {
        s.on_timer(SimTime::from_secs(i * 600), LOOKUP_RETRY, &mut Outbox::new());
        concluded = taken(&mut s);
        if !concluded.is_empty() {
            break;
        }
    }
    let [(9, timed_out)] = &concluded[..] else { panic!("one timeout outcome: {concluded:?}") };
    assert!(timed_out.doc.is_none());

    let late = SimTime::from_secs(7_000);
    for reply in [
        StoreMsg::FetchReply { req_id: 9, doc: doc.clone(), from_cache: false, hops: 2 },
        StoreMsg::NotFound { req_id: 9 },
    ] {
        let mut out = Outbox::new();
        s.handle(late, PEER, reply, &mut out);
        assert_eq!(count(&out, "store.lookups_dup_replies"), 1.0);
        assert_eq!(out.counts().len(), 1, "a duplicate counts nothing else: {:?}", out.counts());
        assert!(taken(&mut s).is_empty(), "a duplicate hands nothing over");
    }
}

const NODES: usize = 16;

/// A settled network of [`NODES`] storelets holding one document per
/// node, after `rounds` rounds, 300 ms apart, of one lookup from every
/// node. The event-queue length 1.45 s after the first round, once every
/// lookup has concluded and before any lookup's first deadline (no
/// earlier than 1.5 s after it was issued).
fn queue_after(rounds: usize) -> usize {
    let mut net = StoreNetwork::build(NODES, StoreConfig::default(), 7);
    net.settle();
    let docs: Vec<Document> =
        (0..NODES).map(|i| Document::new(format!("doc-{i}"), vec![i as u8; 64])).collect();
    for (i, d) in docs.iter().enumerate() {
        net.insert(NodeIndex(i as u32), d.clone());
    }
    net.run_for(SimDuration::from_secs(30));
    let mut reqs = Vec::new();
    for round in 0..rounds {
        for reader in 0..NODES {
            let d = &docs[(reader + 1 + 3 * round) % NODES];
            reqs.push(net.lookup_retrying(NodeIndex(reader as u32), d.guid));
        }
        net.run_for(SimDuration::from_millis(300));
    }
    net.run_for(SimDuration::from_millis(1_450 - 300 * rounds as u64));
    for req in &reqs {
        let outcome = net.result(*req).unwrap_or_else(|| panic!("lookup {req} still open"));
        assert!(outcome.doc.is_some(), "lookup {req} found nothing");
    }
    net.world().pending()
}

/// The queue does not grow with the lookups served: once N and once 4N
/// lookups have concluded, it holds the same entries, give or take one
/// retry timer per node. A lookup whose deadline falls before the armed
/// one arms a second timer, and the superseded one stays queued until it
/// falls due, so a node whose lookups follow each other faster than the
/// deadline jitter (±0.5 s) can hold more than one. A timer kept per
/// lookup attempt until its deadline would add one per routed lookup.
#[test]
fn the_queue_does_not_grow_with_the_lookups_served() {
    let (n, four_n) = (queue_after(1), queue_after(4));
    assert!(four_n.abs_diff(n) <= NODES, "{NODES} lookups: {n} queued; {}: {four_n}", 4 * NODES);
}

/// The engine drops a timer that falls due while its node is down. A
/// storelet whose armed retry timer fell due that way still retries its
/// other in-flight lookups at their own deadlines once it is back.
#[test]
fn a_retry_timer_lost_to_a_crash_leaves_the_other_lookups_watched() {
    let mut net = StoreNetwork::build(NODES, StoreConfig::default(), 5);
    net.settle();
    let reader = NodeIndex(3);
    // Everything the reader sends is lost, so no lookup of its ends.
    for to in (0..NODES as u32).map(NodeIndex).filter(|&to| to != reader) {
        net.world_mut().set_link_loss(reader, to, 1.0);
    }
    let t0 = net.now();
    let since = |ms: u64| t0 + SimDuration::from_millis(ms);
    let [a, b] = ["ghost-a", "ghost-b"].map(Key::hash_of_str);
    assert!(!net.world().node(reader).store.is_primary_for(a));
    assert!(!net.world().node(reader).store.is_primary_for(b));
    // A's deadline falls in [1.5, 2.5] s and arms the timer; B's, issued
    // 1.1 s later, falls in [2.6, 3.6] s, behind the armed one.
    net.lookup_retrying(reader, a);
    net.run_for(SimDuration::from_millis(1_100));
    net.lookup_retrying(reader, b);
    net.world_mut().crash_at(since(1_200), reader);
    net.world_mut().recover_at(since(2_550), reader);
    net.world_mut().run_until(since(2_590));
    assert_eq!(net.counter("store.lookups_retried"), 0.0, "nothing is due before B's deadline");
    net.world_mut().run_until(since(3_610));
    assert_eq!(
        net.counter("store.lookups_retried"),
        2.0,
        "B's deadline sweeps B and the lookup whose timer the crash dropped"
    );
}
