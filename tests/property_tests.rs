//! Property-based tests (proptest) for core invariants: filter and
//! constraint covering, erasure coding, XML round trips, key geometry,
//! the cache's capacity and replayable random streams.

use gloss::event::{AttrValue, Constraint, Event, Filter, Op};
use gloss::overlay::Key;
use gloss::sim::SimRng;
use gloss::store::{Document, ErasureCode, LruCache};
use gloss::xml::{parse, Element};
use proptest::prelude::*;

// --- helpers -------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Exists),
    ]
}

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-50i64..50).prop_map(AttrValue::Int),
        (-50i64..50).prop_map(|i| AttrValue::Float(i as f64 / 2.0)),
        any::<bool>().prop_map(AttrValue::Bool),
        "[a-c]{0,3}".prop_map(AttrValue::from),
    ]
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    ("[xy]", arb_op(), arb_value()).prop_map(|(attr, op, value)| Constraint { attr, op, value })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Covering soundness: if c1 covers c2, every value satisfying c2
    // satisfies c1 (the invariant broker routing correctness rests on).
    #[test]
    fn constraint_covering_is_sound(
        c1 in arb_constraint(),
        c2 in arb_constraint(),
        v in arb_value(),
    ) {
        if c1.attr == c2.attr && c1.covers(&c2) && c2.matches_value(&v) {
            prop_assert!(
                c1.matches_value(&v),
                "{c1} claims to cover {c2} but rejects {v:?}"
            );
        }
    }

    // Disjointness soundness: provably disjoint constraints never share a
    // satisfying value.
    #[test]
    fn constraint_disjointness_is_sound(
        c1 in arb_constraint(),
        c2 in arb_constraint(),
        v in arb_value(),
    ) {
        if c1.attr == c2.attr && c1.disjoint(&c2) {
            prop_assert!(
                !(c1.matches_value(&v) && c2.matches_value(&v)),
                "{c1} and {c2} claimed disjoint but both match {v:?}"
            );
        }
    }

    // Filter covering lifts constraint covering to conjunctions.
    #[test]
    fn filter_covering_is_sound(
        cs1 in proptest::collection::vec(arb_constraint(), 0..3),
        cs2 in proptest::collection::vec(arb_constraint(), 0..3),
        x in arb_value(),
        y in arb_value(),
    ) {
        let mut f1 = Filter::any();
        for c in &cs1 {
            f1 = f1.with_constraint(&c.attr, c.op, c.value.clone());
        }
        let mut f2 = Filter::any();
        for c in &cs2 {
            f2 = f2.with_constraint(&c.attr, c.op, c.value.clone());
        }
        let ev = Event::new("k").with_attr("x", x).with_attr("y", y);
        if f1.covers(&f2) && f2.matches(&ev) {
            prop_assert!(f1.matches(&ev));
        }
    }

    // Erasure coding reconstructs from any m-subset of shards.
    #[test]
    fn erasure_round_trips_from_any_subset(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        m in 1usize..6,
        extra in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let code = ErasureCode::new(m, n).expect("valid");
        let shards = code.encode(&data);
        // Pick a random m-subset.
        let mut rng = SimRng::new(seed);
        let mut indices: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut indices);
        let kept: Vec<(usize, Vec<u8>)> =
            indices[..m].iter().map(|&i| (i, shards[i].clone())).collect();
        let restored = code.decode(&kept, data.len()).expect("decodes");
        prop_assert_eq!(restored, data);
    }

    // XML compact serialisation round-trips to an equal tree. (Empty
    // text nodes are excluded: they have no serialised form, so they
    // cannot survive a round trip — the standard XML situation.)
    #[test]
    fn xml_write_parse_round_trip(
        name in "[a-z]{1,6}",
        attr in "[a-z]{1,4}",
        value in "[ -~]{0,12}",
        text in "[ -~]{1,16}",
        child in "[a-z]{1,5}",
    ) {
        let el = Element::new(name)
            .with_attr(attr, value)
            .with_text(text)
            .with_child(Element::new(child));
        let reparsed = parse(&el.to_xml()).expect("own output parses");
        prop_assert_eq!(reparsed, el);
    }

    // Ring distance is a symmetric metric bounded by half the ring, and
    // shared prefixes agree with digit equality.
    #[test]
    fn key_geometry_invariants(a in any::<u128>(), b in any::<u128>()) {
        let (ka, kb) = (Key(a), Key(b));
        prop_assert_eq!(ka.ring_distance(kb), kb.ring_distance(ka));
        prop_assert!(ka.ring_distance(kb) <= u128::MAX / 2 + 1);
        prop_assert_eq!(ka.ring_distance(ka), 0);
        let p = ka.shared_prefix(kb);
        for i in 0..p {
            prop_assert_eq!(ka.digit(i), kb.digit(i));
        }
        if p < 32 {
            prop_assert_ne!(ka.digit(p), kb.digit(p));
        }
    }

    // The LRU cache never exceeds its byte budget and its accounting
    // matches its contents.
    #[test]
    fn cache_respects_capacity(
        sizes in proptest::collection::vec(1usize..200, 1..30),
        capacity in 100usize..600,
    ) {
        let mut cache = LruCache::new(capacity);
        for (i, size) in sizes.iter().enumerate() {
            cache.insert(Document::new(format!("doc-{i}"), vec![0u8; *size]));
            prop_assert!(cache.used_bytes() <= capacity);
        }
    }

    // Deterministic replay: same seed, same stream.
    #[test]
    fn rng_streams_replay(seed in any::<u64>()) {
        let mut a = SimRng::new(seed).fork("replay");
        let mut b = SimRng::new(seed).fork("replay");
        for _ in 0..16 {
            prop_assert_eq!(a.range(0, 1 << 30), b.range(0, 1 << 30));
        }
    }
}
