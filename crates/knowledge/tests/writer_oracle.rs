//! The streaming knowledge writers against the element-tree encoders
//! they replace on the ship path: [`DeltaBatch::write_xml`] must write byte
//! for byte what `DeltaBatch::to_xml().to_xml()` writes, and
//! [`DistributedKnowledge::write_versioned`] what
//! `facts_to_xml_versioned(..).to_xml()` writes, for every term type,
//! the floats whose text is easy to get wrong (`-0.0`, `1e21`, `1e-7`,
//! `f64::MAX`, NaN, ±inf), strings that need escaping, multi-byte and
//! empty strings, validity bounds on, off and mixed, and empty batches.
//! Every output must also decode, through the streaming readers a
//! follower uses, to the facts that were written: the two writers share
//! one fact layout, so bytes alone would not catch a layout that writes
//! a field under the wrong name.
//!
//! CI also runs this file with `--release`, the profile the end-to-end
//! benchmark runs in.

use gloss_knowledge::{
    BatchReader, DeltaBatch, DistributedKnowledge, Fact, FactDelta, InMemoryFacts, SnapshotReader,
    Term,
};
use gloss_sim::{GeoPoint, SimRng, SimTime};
use proptest::prelude::*;

/// Floats whose decimal text is easy to get wrong.
const FLOATS: [f64; 11] = [
    -0.0,
    0.0,
    1e21,
    1e-7,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -2.5,
    56.34,
];

/// Strings that need escaping, multi-byte ones and the empty string.
const STRINGS: [&str; 9] =
    ["", "plain", "a&b", "<tag>", "say \"hi\"", "&amp;", "日本語", "é<\"&>ü", " lead"];

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn float(rng: &mut SimRng) -> f64 {
    if rng.chance(0.5) {
        pick(rng, &FLOATS)
    } else {
        rng.float_range(-1e6, 1e6)
    }
}

/// A term of every type in turn, drawn from the awkward values.
fn term(rng: &mut SimRng) -> Term {
    match rng.index(6) {
        0 => Term::str(pick(rng, &STRINGS)),
        1 => Term::Int(pick(rng, &[0, -1, i64::MIN, i64::MAX, 42])),
        2 => Term::Float(float(rng)),
        3 => Term::Bool(rng.chance(0.5)),
        4 => Term::Geo(GeoPoint::new(float(rng), float(rng))),
        _ => Term::Time(SimTime::from_micros(pick(rng, &[0, 1, u64::MAX, 1_500_000]))),
    }
}

/// A fact about `subject` with validity bounds on, off, or only one of
/// the two.
fn fact(rng: &mut SimRng, subject: &str) -> Fact {
    let mut f = Fact::new(subject, pick(rng, &STRINGS), term(rng));
    let bound = |rng: &mut SimRng| SimTime::from_micros(rng.range(0, 1 << 40));
    match rng.index(4) {
        0 => {}
        1 => f.valid_from = Some(bound(rng)),
        2 => f.valid_to = Some(bound(rng)),
        _ => f = f.valid_between(bound(rng), bound(rng)),
    }
    f
}

/// Facts compared field by field, floats by their exact `Debug` text
/// (NaN is not equal to itself, and `-0.0 == 0.0`).
fn same(a: &Fact, b: &Fact) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn same_all(a: &[Fact], b: &[Fact]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
}

fn facts_of(deltas: &[FactDelta]) -> Vec<Fact> {
    deltas
        .iter()
        .map(|d| match d {
            FactDelta::Insert(f) | FactDelta::Retract(f) => f.clone(),
        })
        .collect()
}

/// Writes `batch` both ways, checks the bytes agree, and decodes the
/// streamed text back through `names`.
fn check_batch(batch: &DeltaBatch, names: &InMemoryFacts) -> Result<(), TestCaseError> {
    let tree = batch.to_xml().to_xml();
    let mut streamed = String::new();
    batch.write_xml(&mut streamed);
    prop_assert_eq!(&streamed, &tree);
    let decoded = BatchReader::open(&streamed).and_then(|r| r.decode(names));
    prop_assert!(decoded.is_some(), "the streamed batch does not decode: {}", streamed);
    let decoded = decoded.unwrap();
    prop_assert_eq!(&decoded.subject, &batch.subject);
    prop_assert_eq!(
        (decoded.source, decoded.from, decoded.to),
        (batch.source, batch.from, batch.to)
    );
    let kinds = |b: &DeltaBatch| {
        b.deltas.iter().map(|d| matches!(d, FactDelta::Insert(_))).collect::<Vec<_>>()
    };
    prop_assert_eq!(kinds(&decoded), kinds(batch));
    prop_assert!(
        same_all(&facts_of(&decoded.deltas), &facts_of(&batch.deltas)),
        "decoded {:?}\nwritten {:?}",
        decoded.deltas,
        batch.deltas
    );
    Ok(())
}

/// Writes a versioned snapshot both ways, checks the bytes agree, and
/// decodes the streamed text back through `names`.
fn check_snapshot(
    subject: &str,
    facts: &[Fact],
    source: u64,
    epoch: u64,
    names: &InMemoryFacts,
) -> Result<(), TestCaseError> {
    let refs: Vec<&Fact> = facts.iter().collect();
    let tree = DistributedKnowledge::facts_to_xml_versioned(subject, &refs, source, epoch).to_xml();
    let mut streamed = String::new();
    DistributedKnowledge::write_versioned(&mut streamed, subject, facts, source, epoch);
    prop_assert_eq!(&streamed, &tree);
    let reader = SnapshotReader::open(&streamed);
    prop_assert!(reader.is_some(), "the streamed snapshot does not open: {}", streamed);
    let reader = reader.unwrap();
    prop_assert_eq!(reader.version(), Some((source, epoch)));
    prop_assert_eq!(reader.subject(), Some(subject));
    let decoded = reader.facts(names);
    prop_assert!(decoded.is_some(), "the streamed snapshot does not decode: {}", streamed);
    let decoded = decoded.unwrap();
    prop_assert!(same_all(&decoded, facts), "decoded {:?}\nwritten {:?}", decoded, facts);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_documents_are_the_tree_writers_bytes_and_decode_to_what_was_written(
        seed in any::<u64>()
    ) {
        let mut rng = SimRng::new(seed);
        // Names are resolved through an empty store and one holding the
        // subjects and predicates used.
        let empty = InMemoryFacts::new();
        let mut warm = InMemoryFacts::new();
        for s in STRINGS {
            warm.add(Fact::new(s, s, Term::Int(0)));
        }
        for _ in 0..32 {
            let subject = pick(&mut rng, &STRINGS);
            // Empty batches and snapshots included.
            let len = pick(&mut rng, &[0, 1, 2, 5, 17]);
            let deltas: Vec<FactDelta> = (0..len)
                .map(|_| {
                    let f = fact(&mut rng, subject);
                    if rng.chance(0.5) { FactDelta::Insert(f) } else { FactDelta::Retract(f) }
                })
                .collect();
            let from = rng.range(0, 1 << 40);
            let source = pick(&mut rng, &[0, 7, u64::MAX]);
            let batch = DeltaBatch {
                subject: subject.to_string(),
                source,
                from,
                to: from + len as u64,
                deltas,
            };
            let facts: Vec<Fact> = (0..len).map(|_| fact(&mut rng, subject)).collect();
            for names in [&empty, &warm] {
                check_batch(&batch, names)?;
                check_snapshot(subject, &facts, source, from, names)?;
            }
        }
    }
}

/// Every awkward float, as a `float` object and as both coordinates of a
/// `geo` one, in one batch: the writers must print what `to_string`
/// prints, and the text must parse back to the same bits.
#[test]
fn every_awkward_float_is_written_as_the_tree_writes_it() {
    let mut deltas = Vec::new();
    for x in FLOATS {
        deltas.push(FactDelta::Insert(Fact::new("s", "x", Term::Float(x))));
        deltas.push(FactDelta::Retract(Fact::new("s", "g", Term::Geo(GeoPoint::new(x, -x)))));
    }
    let batch = DeltaBatch { subject: "s".into(), source: 1, from: 0, to: 22, deltas };
    check_batch(&batch, &InMemoryFacts::new()).unwrap();
    let mut text = String::new();
    batch.write_xml(&mut text);
    for pinned in [">-0</value>", ">1000000000000000000000</value>", ">0.0000001</value>"] {
        assert!(text.contains(pinned), "{pinned} missing from {text}");
    }
    for pinned in [">NaN</value>", ">inf</value>", ">-inf</value>", "lat=\"-inf\" lon=\"inf\""] {
        assert!(text.contains(pinned), "{pinned} missing from {text}");
    }
}
