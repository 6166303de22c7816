//! Allocation budget of the knowledge write-and-pull path. A follower
//! reads a batch's envelope with no allocation, and a batch about a
//! subject the follower holds, decoded into a kept buffer with names
//! taken from the follower's store and applied to it, allocates only its
//! string objects — so 256 retract/insert pairs cost what 8 do. A warmed
//! store replacing one fact at a time allocates only the renumbering
//! vector of each compaction. The authority writes a batch or a snapshot
//! straight into its output buffer: nothing but that buffer's growth,
//! whatever the fact count.
//!
//! This binary installs an allocator that counts each thread's
//! allocations, so keep the budget checks in this file. CI also runs it
//! with `--release`, the profile the end-to-end benchmark runs in.

use gloss_knowledge::{
    reconcile, BatchReader, DeltaAction, DeltaBatch, DistributedKnowledge, Fact, FactDelta,
    FactSource, InMemoryFacts, Term,
};
use gloss_xml::Reader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const SOURCE: u64 = 77;

/// The batch extending epoch `from` of `u1` by `pairs` retract/insert
/// pairs, each replacing `u1`'s one `score` with the next: Int objects,
/// or Str ones.
fn batch(from: u64, pairs: u64, strings: bool) -> DeltaBatch {
    let score = |n: u64| {
        let object = if strings { Term::str(format!("s{n}")) } else { Term::Int(n as i64) };
        Fact::new("u1", "score", object)
    };
    let deltas = (from / 2..from / 2 + pairs)
        .flat_map(|n| [FactDelta::Retract(score(n)), FactDelta::Insert(score(n + 1))])
        .collect();
    DeltaBatch { subject: "u1".into(), source: SOURCE, from, to: from + 2 * pairs, deltas }
}

/// [`batch`]'s document.
fn batch_text(from: u64, pairs: u64, strings: bool) -> String {
    batch(from, pairs, strings).to_xml().to_xml()
}

/// What a follower does with a batch that applies: envelope, verdict,
/// body decoded into its kept buffer with its store's names, applied.
fn receive(kb: &mut InMemoryFacts, kept: &mut Vec<FactDelta>, anchor: u64, text: &str) -> u64 {
    let reader = BatchReader::open(text).expect("a well-formed envelope");
    let span = reader.span();
    let DeltaAction::Apply { skip } = reconcile(Some((SOURCE, anchor)), span) else {
        panic!("the batch extends the anchor");
    };
    reader.decode_into(kb, kept).expect("a well-formed body");
    for delta in kept.drain(..).skip(skip) {
        kb.apply(delta);
    }
    span.to
}

/// Facts about other subjects the follower holds: enough that the 2 × 256
/// retracts below leave fewer than one tombstone per 16 live facts, so
/// no write compacts (a compaction allocates one renumbering vector per
/// at least 32 retracts, amortised).
const OTHERS: i64 = 10_000;

/// A follower holding `u1`'s score and `OTHERS` other facts, warmed by a
/// 256-pair batch (which grows the kept buffer, the slot vector and the
/// delta log to what the measured batch needs); returns what applying a
/// `pairs`-pair batch then allocates, and the store.
fn apply_pairs(pairs: u64, strings: bool) -> (InMemoryFacts, u64) {
    let mut kb = InMemoryFacts::new();
    for i in 0..OTHERS {
        kb.add(Fact::new(format!("other{i}"), "score", Term::Int(i)));
    }
    let first = if strings { Term::str("s0") } else { Term::Int(0) };
    kb.add(Fact::new("u1", "score", first));
    let mut kept = Vec::new();
    let anchor = receive(&mut kb, &mut kept, 0, &batch_text(0, 256, strings));
    let text = batch_text(anchor, pairs, strings);
    let (to, cost) = allocations(|| receive(&mut kb, &mut kept, anchor, &text));
    assert_eq!(to, anchor + 2 * pairs);
    (kb, cost)
}

#[test]
fn a_batch_envelope_opens_with_no_allocation() {
    let text = batch_text(12, 1, true);
    let (reader, cost) = allocations(|| BatchReader::open(&text).map(|r| r.span()));
    assert_eq!(reader.map(|span| (span.from, span.to)), Some((12, 14)));
    assert_eq!(cost, 0, "reading a four-attribute kbdelta envelope allocated");
}

#[test]
fn the_xml_reader_allocates_nothing_up_to_eight_attributes_and_eight_levels() {
    let document = |depth: usize, width: usize| {
        let attrs: String = (0..width).map(|i| format!(" k{i}=\"v{i}\"")).collect();
        let open: String = (0..depth).map(|d| format!("<e{d}{attrs}>t")).collect();
        let close: String = (0..depth).rev().map(|d| format!("</e{d}>")).collect();
        format!("{open}{close}")
    };
    let cost = |text: &str| allocations(|| Reader::new(text).map(Result::unwrap).count()).1;
    assert_eq!(cost(&document(8, 8)), 0, "8 levels of 8 attributes");
    assert!(cost(&document(8, 9)) > 0, "a ninth attribute spills");
    assert!(cost(&document(9, 8)) > 0, "a ninth level spills");
}

#[test]
fn a_batch_about_a_held_subject_allocates_the_same_for_8_and_256_pairs() {
    let (few_kb, few) = apply_pairs(8, false);
    let (many_kb, many) = apply_pairs(256, false);
    assert_eq!(
        few_kb.query(Some("u1"), None).map(|f| &f.object).collect::<Vec<_>>(),
        [&Term::Int(264)]
    );
    assert_eq!(
        many_kb.query(Some("u1"), None).map(|f| &f.object).collect::<Vec<_>>(),
        [&Term::Int(512)]
    );
    assert_eq!(few_kb.len(), many_kb.len());
    assert_eq!(many, few, "allocations applying 256 Int pairs vs 8");
    assert_eq!(few, 0, "held names, Int objects: nothing new is kept");
}

#[test]
fn string_objects_are_all_a_batch_about_a_held_subject_allocates() {
    let (_, few) = apply_pairs(8, true);
    let (_, many) = apply_pairs(256, true);
    // One object per delta: the retracted one is decoded to be matched.
    assert_eq!((few, many), (2 * 8, 2 * 256));
}

/// Profiles in the replacement store, three facts each.
const USERS: usize = 500;
/// A store of `3 × USERS` live facts compacts on every 94th retract: 94
/// is the first tombstone count of at least 32 that is more than one per
/// 16 of the 1 499 facts a retract leaves.
const RETRACTS_PER_COMPACTION: u64 = 94;

#[test]
fn replacing_a_fact_allocates_only_the_compactions_renumbering() {
    let users: Vec<String> = (0..USERS).map(|u| format!("user{u}")).collect();
    let mut kb = InMemoryFacts::new();
    for user in &users {
        kb.add(Fact::new(user.as_str(), "likes", Term::str("ice cream")));
        kb.add(Fact::new(user.as_str(), "nationality", Term::str("scottish")));
        kb.add(Fact::new(user.as_str(), "at", Term::Int(0)));
    }
    let mut at = vec![0; USERS];
    let mut replace = |kb: &mut InMemoryFacts, n: usize| {
        let u = (n * 7) % USERS;
        assert_eq!(kb.retract(&users[u], "at", &Term::Int(at[u])), 1);
        at[u] += 1;
        // The store's own names: a fact about a held subject copies none.
        let (subject, predicate) = (kb.name(&users[u]), kb.name("at"));
        let object = Term::Int(at[u]);
        kb.add(Fact { subject, predicate, object, valid_from: None, valid_to: None });
    };
    // Twenty compaction cycles grow the slots, the index lists and the
    // delta log to their working size, and end on a compaction.
    let warm = 20 * RETRACTS_PER_COMPACTION as usize;
    for n in 0..warm {
        replace(&mut kb, n);
    }
    let replacements = 10_000;
    let ((), cost) = allocations(|| {
        for n in warm..warm + replacements {
            replace(&mut kb, n);
        }
    });
    assert_eq!(kb.len(), 3 * USERS);
    for (user, &at) in users.iter().zip(&at) {
        assert_eq!(
            kb.query(Some(user), Some("at")).map(|f| &f.object).collect::<Vec<_>>(),
            [&Term::Int(at)]
        );
    }
    let compactions = replacements as u64 / RETRACTS_PER_COMPACTION;
    assert_eq!(cost, compactions, "{replacements} replacements: one vector per compaction");
}

/// How many times a `String` grown from empty by appends reallocates on
/// its way to `len` bytes: it doubles from 8, so one allocation per
/// power of two up to `len`.
fn growth(len: usize) -> u64 {
    u64::from(usize::BITS - (len.max(8) - 1).leading_zeros()) - 2
}

/// What `write` allocates into an empty buffer, and into one already
/// holding the capacity the document needs; checks the document is the
/// tree writer's.
fn shipped(write: impl Fn(&mut String), tree: &str) -> (u64, u64) {
    let mut fresh = String::new();
    let ((), grown) = allocations(|| write(&mut fresh));
    assert_eq!(fresh, tree);
    let mut kept = String::with_capacity(fresh.len());
    let ((), reused) = allocations(|| write(&mut kept));
    assert_eq!(kept, tree);
    assert!(grown <= growth(fresh.len()), "{grown} allocations writing {} bytes", fresh.len());
    (grown, reused)
}

#[test]
fn shipping_a_batch_allocates_only_its_output_buffers_growth() {
    for (pairs, strings) in [(4, false), (128, false), (4, true), (128, true)] {
        let batch = batch(40, pairs, strings);
        let (grown, reused) = shipped(|out| batch.write_xml(out), &batch.to_xml().to_xml());
        assert!(grown > 0);
        assert_eq!(reused, 0, "{} deltas written into a kept buffer allocated", 2 * pairs);
    }
}

#[test]
fn shipping_a_snapshot_allocates_only_its_output_buffers_growth() {
    for count in [8, 256] {
        let facts: Vec<Fact> = (0..count)
            .map(|i| {
                let object = if i % 2 == 0 { Term::Int(i) } else { Term::Float(i as f64 / 7.0) };
                Fact::new("u1", format!("p{i}"), object)
            })
            .collect();
        let refs: Vec<&Fact> = facts.iter().collect();
        let tree = DistributedKnowledge::facts_to_xml_versioned("u1", &refs, SOURCE, 9).to_xml();
        let write = |out: &mut String| {
            DistributedKnowledge::write_versioned(out, "u1", &facts, SOURCE, 9);
        };
        let (grown, reused) = shipped(write, &tree);
        assert!(grown > 0);
        assert_eq!(reused, 0, "{count} facts written into a kept buffer allocated");
    }
}
