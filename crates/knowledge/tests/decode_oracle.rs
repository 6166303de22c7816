//! Hostile-input oracle for the knowledge decoders that read straight from
//! a document's bytes.
//!
//! [`BatchReader`] (envelope, then deltas) and [`SnapshotReader`]
//! (version, then facts) must decide exactly what `gloss_xml::parse`
//! followed by the element decoders — [`DeltaBatch::from_xml`],
//! [`DistributedKnowledge::snapshot_version`] and
//! [`DistributedKnowledge::facts_from_xml`] — decide, and never panic.
//! The inputs are real batches and snapshots (every `Term` type,
//! validity windows, entities, CDATA, comments, a declaration, nested and
//! repeated `<value>` elements, elements the decoders must skip) and
//! byte-level mutations of them: flips, overwrites with markup
//! characters, inserts, deletes, truncations and duplicated chunks.
//!
//! Equality alone cannot catch a rule both sides lose together, so the
//! oracle also checks known answers: every seed decodes to what was
//! encoded, anything but whitespace and comments after the root is
//! rejected, every decoded batch holds one delta per epoch, and a header
//! claiming 2^64 − 1 epochs is rejected without a large allocation (this
//! binary's allocator records the largest request a thread makes).

use gloss_knowledge::{
    BatchReader, DeltaBatch, DistributedKnowledge, EpochSpan, Fact, FactDelta, SnapshotReader, Term,
};
use gloss_sim::{GeoPoint, SimRng, SimTime};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------
// The largest allocation a thread requests.
// ---------------------------------------------------------------------

struct Recording;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // A thread being torn down has no slot left; its requests go unseen.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; recording reads only the requested size.
unsafe impl GlobalAlloc for Recording {
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
static ALLOCATOR: Recording = Recording;

/// The largest single allocation this thread requested while running `f`.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

// ---------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------

fn every_term_type(subject: &str) -> Vec<Fact> {
    vec![
        Fact::new(subject, "likes", Term::str("ice <cream> & \"tea\" 'n' café")),
        Fact::new(subject, "age", Term::Int(-34)),
        Fact::new(subject, "height_m", Term::Float(1.82)),
        Fact::new(subject, "on_foot", Term::Bool(true)),
        Fact::new(subject, "at", Term::Geo(GeoPoint::new(56.34, -2.8))),
        Fact::new(subject, "seen", Term::Time(SimTime::from_millis(1500))),
        Fact::new(subject, "on_holiday", Term::Bool(false))
            .valid_between(SimTime::from_secs(1), SimTime::from_secs(2)),
        Fact::new(subject, "empty", Term::str("")),
    ]
}

fn batches() -> Vec<DeltaBatch> {
    let likes = |s: &str| Fact::new("user12", "likes", Term::str(s));
    let mixed: Vec<FactDelta> = every_term_type("bob & co")
        .into_iter()
        .enumerate()
        .map(|(i, f)| if i % 3 == 1 { FactDelta::Retract(f) } else { FactDelta::Insert(f) })
        .collect();
    vec![
        // What `context_churn` ships: one fact flipped.
        DeltaBatch {
            subject: "user12".into(),
            source: 4,
            from: 17,
            to: 19,
            deltas: vec![FactDelta::Retract(likes("tea")), FactDelta::Insert(likes("ice cream"))],
        },
        DeltaBatch { subject: "bob & co".into(), source: 7, from: 0, to: 8, deltas: mixed },
        DeltaBatch { subject: "nobody".into(), source: 9, from: 3, to: 3, deltas: Vec::new() },
    ]
}

/// Every seed document, with the batch or snapshot it encodes where the
/// codec wrote it.
fn seeds() -> Vec<(String, Option<DeltaBatch>)> {
    let mut seeds: Vec<(String, Option<DeltaBatch>)> =
        batches().into_iter().map(|b| (b.to_xml().to_xml(), Some(b))).collect();
    let facts = every_term_type("bob");
    let refs: Vec<&Fact> = facts.iter().collect();
    seeds.push((DistributedKnowledge::facts_to_xml_versioned("bob", &refs, 7, 41).to_xml(), None));
    seeds.push((DistributedKnowledge::facts_to_xml("bob", &refs[..3]).to_pretty_xml(), None));
    let hand_written = [
        // Declaration, comments, CDATA beside entities, a value split by
        // a comment, single quotes, an element to skip inside a fact.
        "<?xml version=\"1.0\"?>\n<!-- head -->\n<kbdelta subject=\"x&#65;\" source=\"1\" from=\"0\" to=\"2\">\n  \
         <insert predicate=\"p\" type=\"str\"><value><![CDATA[a<b]]>&amp;c</value></insert>\n  <!-- mid -->\n  \
         <retract predicate='q' type='int' from_us=\"5\" to_us=\"9\"><note/><value>4<!-- x -->2</value></retract>\n\
         </kbdelta>\n<!-- tail -->\n",
        // A value with a nested element, a second value, a self-closing
        // value, text and a stray element the snapshot decoder skips.
        "<facts subject=\"s\" source=\"3\" epoch=\"8\">loose text<other><fact predicate=\"hidden\" type=\"int\"><value>1</value></fact></other>\
         <fact predicate=\"a\" type=\"str\"><value>x<b>ignored</b>y</value><value>second</value></fact>\
         <fact predicate=\"b\" type=\"str\"><value/></fact><fact predicate=\"c\" type=\"float\"><value> 2</value></fact>\
         <fact predicate=\"d\" type=\"time\" us=\"12\"><value>ignored</value></fact></facts>",
        // No subject: facts are about "unknown"; no version: a legacy snapshot.
        "<facts><fact predicate=\"n\" type=\"bool\"><value>true</value></fact></facts>",
    ];
    seeds.extend(hand_written.iter().map(|s| (s.to_string(), None)));
    seeds
}

// ---------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------

const MARKUP: &[u8] = b"<>/&;=\"' !-?[]#xX0123456789.eE+-_:valuetypeinsertretract\n";

fn mutate(rng: &mut SimRng, doc: &[u8]) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..rng.range(1, 4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        match rng.range(0, 6) {
            0 => bytes[at] ^= 1 << rng.range(0, 8),
            1 => bytes[at] = MARKUP[rng.index(MARKUP.len())],
            2 => bytes.insert(at, MARKUP[rng.index(MARKUP.len())]),
            3 => {
                let end = (at + rng.range(1, 8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            _ => {
                let end = (at + rng.range(1, 24) as usize).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                let to = rng.index(bytes.len() + 1);
                bytes.splice(to..to, chunk);
            }
        }
    }
    bytes
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Debug text compares NaN equal to itself (a mutated value can read
/// "NaN"), where `PartialEq` would not.
fn shown<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

fn streamed_batch(text: &str) -> Option<DeltaBatch> {
    BatchReader::open(text).and_then(BatchReader::decode)
}

type Snapshot = (Option<(u64, u64)>, Vec<Fact>);

fn streamed_snapshot(text: &str) -> Option<Snapshot> {
    let snapshot = SnapshotReader::open(text)?;
    let version = snapshot.version();
    Some((version, snapshot.facts()?))
}

/// The streaming decoders against parse + the element decoders, on one
/// input.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let tree = gloss_xml::parse(text).ok();

    let batch = streamed_batch(text);
    let want = tree.as_ref().and_then(DeltaBatch::from_xml);
    prop_assert_eq!(shown(&batch), shown(&want), "batch decode differs on {:?}", text);
    if let Some(b) = &batch {
        prop_assert_eq!(
            b.to.checked_sub(b.from),
            Some(b.deltas.len() as u64),
            "one delta per epoch"
        );
    }
    if let Some(want) = &want {
        // Whatever decodes whole has an envelope that reads alone.
        let envelope = BatchReader::open(text);
        prop_assert!(envelope.is_some(), "envelope of a decodable batch refused: {:?}", text);
        let envelope = envelope.unwrap();
        prop_assert_eq!(envelope.subject(), want.subject.as_str());
        prop_assert_eq!(envelope.span(), EpochSpan::from(want));
    }

    let snapshot = streamed_snapshot(text);
    let want = tree.as_ref().map(|el| {
        (DistributedKnowledge::snapshot_version(el), DistributedKnowledge::facts_from_xml(el))
    });
    prop_assert_eq!(shown(&snapshot), shown(&want), "snapshot decode differs on {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_decoders_decide_what_the_tree_decoders_decide(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let seeds = seeds();
        for _ in 0..400 {
            let (doc, _) = &seeds[rng.index(seeds.len())];
            let bytes = mutate(&mut rng, doc.as_bytes());
            // Nodes read only documents that are UTF-8.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                agree(text)?;
            }
        }
    }
}

#[test]
fn seeds_decode_to_what_was_encoded() {
    for (doc, batch) in seeds() {
        agree(&doc).unwrap();
        match batch {
            Some(batch) => assert_eq!(streamed_batch(&doc), Some(batch), "{doc}"),
            None => assert!(
                streamed_batch(&doc).is_some_and(|b| !b.deltas.is_empty())
                    || streamed_snapshot(&doc).is_some_and(|(_, facts)| !facts.is_empty()),
                "{doc}"
            ),
        }
    }
    let facts = every_term_type("bob");
    let refs: Vec<&Fact> = facts.iter().collect();
    let doc = DistributedKnowledge::facts_to_xml_versioned("bob", &refs, 7, 41).to_xml();
    let (version, decoded) = streamed_snapshot(&doc).unwrap();
    assert_eq!(version, Some((7, 41)));
    assert_eq!(decoded, facts);
}

#[test]
fn nothing_but_whitespace_and_comments_may_follow_the_root() {
    for (doc, _) in seeds() {
        for tail in [" \n<!-- fine -->\t", ""] {
            let text = format!("{doc}{tail}");
            assert!(
                streamed_batch(&text).is_some() || streamed_snapshot(&text).is_some(),
                "{text}"
            );
        }
        for tail in ["<x/>", "x", "&amp;", "<", "<!-- open", "]]>"] {
            let text = format!("{doc}{tail}");
            assert_eq!(streamed_batch(&text), None, "{text}");
            assert_eq!(streamed_snapshot(&text), None, "{text}");
            agree(&text).unwrap();
        }
    }
}

#[test]
fn an_epoch_range_is_checked_not_trusted() {
    let insert = r#"<insert predicate="p" type="int"><value>1</value></insert>"#;
    for (from, to) in [("0", "18446744073709551615"), ("5", "4"), ("0", "2"), ("1", "1")] {
        let text = format!(
            r#"<kbdelta subject="bob" source="1" from="{from}" to="{to}">{insert}</kbdelta>"#
        );
        let envelope = BatchReader::open(&text).expect("a well-formed envelope opens");
        let (batch, largest) = largest_allocation(|| envelope.decode());
        assert_eq!(batch, None, "{from}..{to} holds one delta");
        assert!(largest < 4096, "{from}..{to}: a {largest}-byte allocation");
        agree(&text).unwrap();
    }
}
