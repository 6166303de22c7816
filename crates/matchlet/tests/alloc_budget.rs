//! Allocation budget of the join: an event joining many buffered
//! partners allocates exactly what one joining few does, given equal
//! firings. The join extends one scratch environment in place, so
//! partners that are visited and rejected cost no allocation; only what
//! is kept (the event's own buffered bindings, the emitted events) is
//! allocated. The same holds for the facts a fact goal visits: binding a
//! fact's subject shares the fact's name.
//!
//! This binary installs an allocator that counts each thread's
//! allocations, so keep the budget checks in this file. CI also runs it
//! with `--release`, the profile the end-to-end benchmark runs in.

use gloss_event::Event;
use gloss_knowledge::{Fact, InMemoryFacts, Term};
use gloss_matchlet::MatchletEngine;
use gloss_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Two rules joining a `probe` with the buffered `seen` events of the
/// same user, each firing for the one partner numbered 0: `direct`
/// solves its condition from scratch, `memo` replays a memoised fact
/// goal that does not read the event.
const RULES: &str = r#"
    rule direct {
        on p: event probe(user: ?u)
        on s: event seen(user: ?u, n: ?n)
        where ?n = 0
        within 10m
        emit hit(user: ?u, n: ?n)
    }
    rule memo {
        on p: event probe(user: ?u)
        on s: event seen(user: ?u, n: ?n)
        where fact(?fan, likes, "ice")
        where ?n = 0
        within 10m
        emit fan(user: ?u, fan: ?fan)
    }
"#;

/// Buffers `partners` `seen` events for one user, warms the engine up
/// with a probe that joins them all, then returns the events a second
/// probe emits and what that probe allocated.
fn probe_joining(partners: i64) -> (Vec<Event>, (u64, u64)) {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ann", "likes", Term::str("ice")));
    let mut engine = MatchletEngine::compile(RULES).expect("rules parse");
    let t = SimTime::from_secs;
    for n in 0..partners {
        let seen = Event::new("seen").with_attr("user", "ua").with_attr("n", n);
        assert!(engine.on_event(t(1), &seen, &kb).is_empty());
    }
    let probe = Event::new("probe").with_attr("user", "ua");
    assert_eq!(engine.on_event(t(2), &probe, &kb).len(), 2, "the warm-up probe fires");
    let result = allocations(|| engine.on_event(t(3), &probe, &kb));
    assert_eq!(engine.stats.join_probes, 4, "both rules probe the window index, twice");
    result
}

#[test]
fn a_join_allocates_the_same_for_8_and_256_buffered_partners() {
    let (few, few_cost) = probe_joining(8);
    let (many, many_cost) = probe_joining(256);
    assert_eq!(few.len(), 2, "each rule fires once");
    assert_eq!(few, many, "equal firings");
    assert!(few_cost.0 > 0, "what is kept is still allocated");
    assert_eq!(
        many_cost, few_cost,
        "(allocations, bytes) joining 256 partners vs 8: rejected partners must cost nothing"
    );
}

/// A rule whose fact goal reads the event (so it is solved afresh for
/// every probe) and binds the subject of every fact it visits; only the
/// fact about `f0` passes the condition.
const SUBJECT_RULE: &str = r#"
    rule fans {
        on p: event probe(user: ?u)
        where fact(?fan, knows, ?u)
        where ?fan = "f0"
        emit fan(user: ?u, fan: ?fan)
    }
"#;

/// Holds `facts` facts `f<n> knows ua`, warms the engine up with one
/// probe, then returns the events a second probe emits and what that
/// probe allocated.
fn probe_visiting(facts: usize) -> (Vec<Event>, (u64, u64)) {
    let mut kb = InMemoryFacts::new();
    for n in 0..facts {
        kb.add(Fact::new(format!("f{n}"), "knows", Term::str("ua")));
    }
    let mut engine = MatchletEngine::compile(SUBJECT_RULE).expect("rule parses");
    let probe = Event::new("probe").with_attr("user", "ua");
    assert_eq!(engine.on_event(SimTime::from_secs(1), &probe, &kb).len(), 1, "warm-up fires");
    allocations(|| engine.on_event(SimTime::from_secs(2), &probe, &kb))
}

#[test]
fn a_fact_goal_binds_8_or_256_subjects_for_the_same_allocations() {
    let (few, few_cost) = probe_visiting(8);
    let (many, many_cost) = probe_visiting(256);
    assert_eq!(few.len(), 1, "the rule fires once");
    assert_eq!(few, many, "equal firings");
    assert_eq!(
        many_cost, few_cost,
        "(allocations, bytes) visiting 256 facts vs 8: a bound subject must cost nothing"
    );
}

/// The meetup shape: the fact goals read only the location's `?u`, so
/// their outcome is stamped on each buffered location. One user in three
/// likes ice; the fans are Australian (a 30 °C threshold), except `u0`,
/// so only `u0` fires at 20 °C.
const STAMPED_RULE: &str = r#"
    rule meetup {
        on w: event weather(street: ?s, celsius: ?c)
        on l: event loc(user: ?u, street: ?s)
        where fact(?u, likes, "ice") and fact(?u, nationality, ?n)
        where ?c >= hot_threshold(?n)
        within 10m
        emit meetup(user: ?u)
    }
"#;

/// Buffers `partners` locations on one street, warms the engine up with a
/// weather reading that stamps them all (dead, or one solution), then
/// returns the events a second reading emits and what it allocated.
fn reading_stamped(partners: usize) -> (Vec<Event>, (u64, u64)) {
    let mut kb = InMemoryFacts::new();
    for u in 0..partners {
        let name = format!("u{u}");
        kb.add(Fact::new(&name, "likes", Term::str(if u % 3 == 0 { "ice" } else { "tea" })));
        let nationality = if u == 0 { "scottish" } else { "australian" };
        kb.add(Fact::new(&name, "nationality", Term::str(nationality)));
    }
    let mut engine = MatchletEngine::compile(STAMPED_RULE).expect("rule parses");
    let t = SimTime::from_secs;
    for u in 0..partners {
        let seen = Event::new("loc").with_attr("user", format!("u{u}")).with_attr("street", "s");
        assert!(engine.on_event(t(1), &seen, &kb).is_empty());
    }
    let reading = Event::new("weather").with_attr("street", "s").with_attr("celsius", 20.0);
    assert_eq!(engine.on_event(t(2), &reading, &kb).len(), 1, "the warm-up reading fires");
    allocations(|| engine.on_event(t(3), &reading, &kb))
}

#[test]
fn a_join_allocates_the_same_for_8_and_256_stamped_partners() {
    let (few, few_cost) = reading_stamped(8);
    let (many, many_cost) = reading_stamped(256);
    assert_eq!(few.len(), 1, "u0 fires");
    assert_eq!(few, many, "equal firings");
    assert_eq!(
        many_cost, few_cost,
        "(allocations, bytes) joining 256 stamped partners vs 8: a stamp read back must cost nothing"
    );
}
