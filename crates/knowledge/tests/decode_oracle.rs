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
//! The streaming decoders take subjects and predicates from a receiving
//! store, so each input is decoded through an empty store and through a
//! warmed one that holds some of its names (as subjects, as predicates,
//! one as both), once more into a kept buffer that already holds another
//! batch's deltas; every way must decide the same, and names the warmed
//! store holds must come back as its own copies.
//!
//! Equality alone cannot catch a rule both sides lose together, so the
//! oracle also checks known answers: every seed decodes to what was
//! encoded, anything but whitespace and comments after the root is
//! rejected, every decoded batch holds one delta per epoch, a header
//! claiming 2^64 − 1 epochs is rejected without a large allocation (this
//! binary's allocator records the largest request a thread makes), start
//! tags of 0, 1, 8, 9 and 20 attributes keep every value in document
//! order, a duplicate attribute at any position is the same error, and
//! elements nested 1 to 20 deep read as `gloss_xml::parse` reads them.
//! (The reader keeps eight open elements and eight attributes in place;
//! the sizes straddle that.)

use gloss_knowledge::{
    BatchReader, DeltaBatch, DistributedKnowledge, EpochSpan, Fact, FactDelta, InMemoryFacts,
    SnapshotReader, Term,
};
use gloss_sim::{GeoPoint, SimRng, SimTime};
use gloss_xml::{Reader, Token};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

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
    // An unversioned snapshot: a versioned one with its stamp removed.
    let stamped = DistributedKnowledge::facts_to_xml_versioned("bob", &refs[..3], 7, 41);
    let unversioned = stamped.to_pretty_xml().replacen(r#" source="7" epoch="41""#, "", 1);
    assert!(!unversioned.contains("source="), "{unversioned}");
    seeds.push((unversioned, None));
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

/// The stores the streaming decoders resolve names through.
struct Stores {
    empty: InMemoryFacts,
    /// Holds names the seeds use: subjects, predicates, and `likes` as
    /// both.
    warmed: InMemoryFacts,
}

impl Stores {
    fn new() -> Stores {
        let mut warmed = InMemoryFacts::new();
        warmed.extend(every_term_type("bob"));
        warmed.add(Fact::new("user12", "likes", Term::str("tea")));
        warmed.add(Fact::new("likes", "p", Term::Int(1)));
        warmed.add(Fact::new("s", "q", Term::Int(2)));
        Stores { empty: InMemoryFacts::new(), warmed }
    }
}

fn streamed_batch(text: &str, names: &InMemoryFacts) -> Option<DeltaBatch> {
    BatchReader::open(text)?.decode(names)
}

type Snapshot = (Option<(u64, u64)>, Vec<Fact>);

fn streamed_snapshot(text: &str, names: &InMemoryFacts) -> Option<Snapshot> {
    let snapshot = SnapshotReader::open(text)?;
    let version = snapshot.version();
    Some((version, snapshot.facts(names)?))
}

/// Whether `name` is `store`'s own copy wherever the store holds it.
fn shared_if_held(store: &InMemoryFacts, name: &Rc<str>) -> bool {
    let held = store.name(name);
    let store_holds_it = Rc::ptr_eq(&held, &store.name(name));
    !store_holds_it || Rc::ptr_eq(&held, name)
}

/// Whether every name of `facts` is `store`'s own copy where it holds it.
fn names_shared<'f>(store: &InMemoryFacts, mut facts: impl Iterator<Item = &'f Fact>) -> bool {
    facts.all(|f| shared_if_held(store, &f.subject) && shared_if_held(store, &f.predicate))
}

/// The streaming decoders against parse + the element decoders, on one
/// input, through both stores and into a kept buffer.
fn agree(text: &str, stores: &Stores) -> Result<(), TestCaseError> {
    let tree = gloss_xml::parse(text).ok();

    let batch = streamed_batch(text, &stores.empty);
    let want = tree.as_ref().and_then(DeltaBatch::from_xml);
    prop_assert_eq!(shown(&batch), shown(&want), "batch decode differs on {:?}", text);
    let warm = streamed_batch(text, &stores.warmed);
    prop_assert_eq!(shown(&warm), shown(&want), "warmed batch decode differs on {:?}", text);
    if let Some(b) = &warm {
        let facts = b.deltas.iter().map(FactDelta::fact);
        prop_assert!(names_shared(&stores.warmed, facts), "names not shared: {:?}", text);
    }
    if let Some(reader) = BatchReader::open(text) {
        let mut kept = vec![FactDelta::Insert(Fact::new("stale", "left", Term::Int(0)))];
        let subject = reader.decode_into(&stores.warmed, &mut kept);
        let into = subject.map(|subject| (subject.to_string(), &kept));
        let want_into = want.as_ref().map(|b| (b.subject.clone(), &b.deltas));
        prop_assert_eq!(shown(&into), shown(&want_into), "decode_into differs on {:?}", text);
        if want.is_none() {
            prop_assert!(kept.is_empty(), "a refused batch left deltas behind: {:?}", text);
        }
    }
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

    let snapshot = streamed_snapshot(text, &stores.empty);
    let want = tree.as_ref().map(|el| {
        (DistributedKnowledge::snapshot_version(el), DistributedKnowledge::facts_from_xml(el))
    });
    prop_assert_eq!(shown(&snapshot), shown(&want), "snapshot decode differs on {:?}", text);
    let warm = streamed_snapshot(text, &stores.warmed);
    prop_assert_eq!(shown(&warm), shown(&want), "warmed snapshot decode differs on {:?}", text);
    if let Some((_, facts)) = &warm {
        prop_assert!(names_shared(&stores.warmed, facts.iter()), "names not shared: {:?}", text);
    }
    if let Some(el) = &tree {
        // Whatever parses has a root whose subject reads alone.
        let subject = SnapshotReader::open(text).map(|r| r.subject().map(str::to_string));
        let want = Some(el.attr("subject").map(str::to_string));
        prop_assert_eq!(subject, want, "snapshot subject differs on {:?}", text);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_decoders_decide_what_the_tree_decoders_decide(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let seeds = seeds();
        let stores = Stores::new();
        for _ in 0..400 {
            let (doc, _) = &seeds[rng.index(seeds.len())];
            let bytes = mutate(&mut rng, doc.as_bytes());
            // Nodes read only documents that are UTF-8.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                agree(text, &stores)?;
            }
        }
    }
}

#[test]
fn seeds_decode_to_what_was_encoded() {
    let stores = Stores::new();
    let empty = &stores.empty;
    for (doc, batch) in seeds() {
        agree(&doc, &stores).unwrap();
        match batch {
            Some(batch) => assert_eq!(streamed_batch(&doc, empty), Some(batch), "{doc}"),
            None => assert!(
                streamed_batch(&doc, empty).is_some_and(|b| !b.deltas.is_empty())
                    || streamed_snapshot(&doc, empty).is_some_and(|(_, facts)| !facts.is_empty()),
                "{doc}"
            ),
        }
    }
    let facts = every_term_type("bob");
    let refs: Vec<&Fact> = facts.iter().collect();
    let doc = DistributedKnowledge::facts_to_xml_versioned("bob", &refs, 7, 41).to_xml();
    let (version, decoded) = streamed_snapshot(&doc, empty).unwrap();
    assert_eq!(version, Some((7, 41)));
    assert_eq!(decoded, facts);
    // Through the warmed store, every name is the store's own: the
    // snapshot's facts share one subject and the store's predicates.
    let (_, decoded) = streamed_snapshot(&doc, &stores.warmed).unwrap();
    assert_eq!(decoded, facts);
    let bob = stores.warmed.name("bob");
    for f in &decoded {
        assert!(Rc::ptr_eq(&f.subject, &bob), "{f}");
        assert!(Rc::ptr_eq(&f.predicate, &stores.warmed.name(&f.predicate)), "{f}");
    }
}

#[test]
fn nothing_but_whitespace_and_comments_may_follow_the_root() {
    let stores = Stores::new();
    let empty = &stores.empty;
    for (doc, _) in seeds() {
        for tail in [" \n<!-- fine -->\t", ""] {
            let text = format!("{doc}{tail}");
            assert!(
                streamed_batch(&text, empty).is_some() || streamed_snapshot(&text, empty).is_some(),
                "{text}"
            );
        }
        for tail in ["<x/>", "x", "&amp;", "<", "<!-- open", "]]>"] {
            let text = format!("{doc}{tail}");
            assert_eq!(streamed_batch(&text, empty), None, "{text}");
            assert_eq!(streamed_snapshot(&text, empty), None, "{text}");
            agree(&text, &stores).unwrap();
        }
    }
}

#[test]
fn an_epoch_range_is_checked_not_trusted() {
    let stores = Stores::new();
    let insert = r#"<insert predicate="p" type="int"><value>1</value></insert>"#;
    for (from, to) in [("0", "18446744073709551615"), ("5", "4"), ("0", "2"), ("1", "1")] {
        let text = format!(
            r#"<kbdelta subject="bob" source="1" from="{from}" to="{to}">{insert}</kbdelta>"#
        );
        let envelope = BatchReader::open(&text).expect("a well-formed envelope opens");
        let (batch, largest) = largest_allocation(|| envelope.decode(&stores.empty));
        assert_eq!(batch, None, "{from}..{to} holds one delta");
        assert!(largest < 4096, "{from}..{to}: a {largest}-byte allocation");
        agree(&text, &stores).unwrap();
    }
}

// ---------------------------------------------------------------------
// Wide start tags and deep nesting.
// ---------------------------------------------------------------------

/// Start-tag widths around the reader's eight attributes kept in place.
const WIDTHS: [usize; 5] = [0, 1, 8, 9, 20];

/// `n` attributes `k0="v0" k1="v1" …`; every third value holds an entity,
/// so some are decoded copies and some borrowed.
fn attributes(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let value = if i % 3 == 2 { format!("v{i}&amp;") } else { format!("v{i}") };
            (format!("k{i}"), value)
        })
        .collect()
}

fn written(attrs: &[(String, String)]) -> String {
    attrs.iter().map(|(k, v)| format!(" {k}=\"{v}\"")).collect()
}

#[test]
fn wide_start_tags_keep_every_attribute_in_document_order() {
    let stores = Stores::new();
    for n in WIDTHS {
        let attrs = attributes(n);
        let decoded = |v: &str| v.replace("&amp;", "&");
        let tag = format!("<e{}/>", written(&attrs));
        let el = gloss_xml::parse(&tag).unwrap();
        let want: Vec<(&str, String)> =
            attrs.iter().map(|(k, v)| (k.as_str(), decoded(v))).collect();
        let got: Vec<(&str, String)> = el.attrs().map(|(k, v)| (k, v.to_string())).collect();
        assert_eq!(got, want, "{n} attributes");
        let mut reader = Reader::new(&tag);
        assert_eq!(reader.next(), Some(Ok(Token::Start("e"))));
        for (k, v) in &attrs {
            assert_eq!(reader.attr(k).map(|v| v.as_ref()), Some(decoded(v).as_str()), "{n}: {k}");
        }
        assert_eq!(reader.attr("k99"), None);

        // The batch envelope's four spread among `n` others, and a fact
        // element `n` attributes wider than it needs.
        let mut root = attrs.clone();
        let envelope = [("subject", "bob"), ("source", "1"), ("from", "0"), ("to", "1")];
        for (i, (k, v)) in envelope.into_iter().enumerate() {
            let at = (i * (n + 1) / 4 + i).min(root.len());
            root.insert(at, (k.to_string(), v.to_string()));
        }
        let fact = format!(
            "<insert predicate=\"p\" type=\"int\"{}><value>7</value></insert>",
            written(&attrs)
        );
        let text = format!("<kbdelta{}>{fact}</kbdelta>", written(&root));
        agree(&text, &stores).unwrap();
        let want = FactDelta::Insert(Fact::new("bob", "p", Term::Int(7)));
        let batch = streamed_batch(&text, &stores.warmed).unwrap_or_else(|| panic!("{text}"));
        assert_eq!(batch.deltas, [want], "{n} attributes");
    }
}

#[test]
fn a_duplicate_attribute_at_any_position_is_one_error() {
    let stores = Stores::new();
    for n in WIDTHS {
        let attrs = attributes(n);
        for dup in 0..n {
            for at in dup + 1..=n {
                let mut with_dup = attrs.clone();
                with_dup.insert(at, (format!("k{dup}"), "again".to_string()));
                let tag = format!("<e{}/>", written(&with_dup));
                let err = gloss_xml::parse(&tag).unwrap_err();
                assert_eq!(err.message, format!("duplicate attribute `k{dup}`"), "{tag}");
                // Reported just past the duplicate's value.
                let end = written(&with_dup[..=at]).len() + "<e".len();
                assert_eq!((err.line, err.col), (1, end + 1), "{tag}");
                let mut reader = Reader::new(&tag);
                assert_eq!(reader.next(), Some(Err(err)), "{tag}");
                assert_eq!(reader.next(), None, "{tag}");

                let envelope = r#" subject="bob" source="1" from="0" to="0""#;
                let root = format!("<kbdelta{envelope}{}/>", written(&with_dup));
                assert_eq!(BatchReader::open(&root).map(|b| b.span()), None, "{root}");
                agree(&root, &stores).unwrap();
            }
        }
    }
}

#[test]
fn elements_nested_1_to_20_deep_read_as_parse_reads_them() {
    let stores = Stores::new();
    for depth in 1..=20 {
        let open: String = (1..=depth).map(|d| format!("<e{d} a=\"{d}\">t{d}")).collect();
        let close: String = (1..=depth).rev().map(|d| format!("</e{d}>")).collect();
        let nested = format!("{open}{close}");

        let tokens: Vec<Token> = Reader::new(&nested).map(Result::unwrap).collect();
        let names: Vec<String> = (1..=depth).map(|d| format!("e{d}")).collect();
        let texts: Vec<String> = (1..=depth).map(|d| format!("t{d}")).collect();
        let mut want = Vec::new();
        for (name, text) in names.iter().zip(&texts) {
            want.push(Token::Start(name));
            want.push(Token::Text(text.as_str().into()));
        }
        want.extend(names.iter().rev().map(|name| Token::End(name)));
        assert_eq!(tokens, want, "depth {depth}");
        let root = gloss_xml::parse(&nested).unwrap();
        let mut el = Some(&root);
        for d in 1..=depth {
            let at = el.unwrap_or_else(|| panic!("depth {depth}: no element at {d}"));
            assert_eq!(
                (at.name(), at.attr("a")),
                (format!("e{d}").as_str(), Some(&*d.to_string()))
            );
            assert_eq!(at.nodes()[0].as_text(), Some(format!("t{d}").as_str()));
            el = at.children().next();
        }
        assert!(el.is_none(), "depth {depth}: deeper than written");
        // A wrong close tag at the innermost level fails alike both ways.
        let torn = nested.replacen(&format!("</e{depth}>"), "</x>", 1);
        let err = gloss_xml::parse(&torn).unwrap_err();
        assert_eq!(err.message, format!("mismatched close tag `x`, open was `e{depth}`"));
        assert_eq!(Reader::new(&torn).find_map(Result::err), Some(err), "depth {depth}");

        // In a kb document: wrapped around a fact (skipped by both
        // decoders), and inside a fact's value (whose own text is kept).
        let fact = format!("<fact predicate=\"q\" type=\"str\"><value>x{nested}y</value></fact>");
        let snapshot = format!("<facts subject=\"s\">{open}{fact}{close}{fact}</facts>");
        agree(&snapshot, &stores).unwrap();
        let (_, facts) = streamed_snapshot(&snapshot, &stores.warmed).unwrap();
        assert_eq!(facts, [Fact::new("s", "q", Term::str("xy"))], "depth {depth}");
        let insert = fact.replace("fact", "insert");
        let batch =
            format!(r#"<kbdelta subject="s" source="1" from="0" to="1">{insert}</kbdelta>"#);
        agree(&batch, &stores).unwrap();
        let decoded = streamed_batch(&batch, &stores.empty).unwrap();
        assert_eq!(decoded.deltas, [FactDelta::Insert(Fact::new("s", "q", Term::str("xy")))]);
    }
}
