//! The document form in which the knowledge base is distributed over the
//! P2P store.
//!
//! "In addition to the input event streams, the matching service will
//! operate over a global knowledge base" (§1.1); caching and replication
//! of that knowledge is handled by "a Plaxton based storage architecture
//! supported by promiscuous caching mechanisms" (§5).
//!
//! Facts are grouped by subject into one XML document per subject
//! (`kb/<subject>`), so a matchlet that needs everything known about
//! "bob" or "Janetta's" fetches one document — and repeat fetches hit the
//! promiscuous caches measured in experiment C3. This module is the codec
//! only: putting documents into the store and pulling them out again is
//! the hosting node's business (`gloss_core`), so the knowledge layer
//! does not depend on the storage stack.
//!
//! A receiver decodes straight from a document's bytes with
//! [`SnapshotReader`], version first: a snapshot older than what the
//! receiver holds is turned away before any fact is built, and the facts
//! it does build take their subject and predicate from the receiving
//! store ([`InMemoryFacts::name`]), so names it already holds cost no
//! allocation. The element decoders
//! ([`DistributedKnowledge::facts_from_xml`],
//! [`DistributedKnowledge::snapshot_version`]) read the same fields
//! through the same rules, for callers that already hold a tree.

use crate::fact::{Fact, InMemoryFacts, Term};
use gloss_sim::{GeoPoint, SimTime};
use gloss_xml::{Element, Reader, Token, XmlWriter};
use std::borrow::Cow;
use std::fmt::Display;
use std::rc::Rc;

/// The `kb/<subject>` document codec: names, and facts to and from XML.
#[derive(Debug, Clone, Copy)]
pub struct DistributedKnowledge;

impl DistributedKnowledge {
    /// The store document name for a subject.
    pub fn doc_name(subject: &str) -> String {
        format!("kb/{subject}")
    }

    /// Serialises facts about one subject to the XML document form, with
    /// the authoritative store's identity stamped on: receivers of this
    /// snapshot anchor at `(source, epoch)` and can then apply delta
    /// batches on top.
    pub fn facts_to_xml_versioned(
        subject: &str,
        facts: &[&Fact],
        source: u64,
        epoch: u64,
    ) -> Element {
        let mut el = Element::new("facts")
            .with_attr("subject", subject)
            .with_attr("source", source.to_string())
            .with_attr("epoch", epoch.to_string());
        for f in facts {
            debug_assert_eq!(&*f.subject, subject, "grouped by subject");
            el.push(fact_element("fact", f));
        }
        el
    }

    /// Appends to `out` the document
    /// [`facts_to_xml_versioned`](Self::facts_to_xml_versioned) builds,
    /// byte for byte what its [`Element::to_xml`] writes, with no tree
    /// built: the form an authority ships.
    pub fn write_versioned<'f>(
        out: &mut String,
        subject: &str,
        facts: impl IntoIterator<Item = &'f Fact>,
        source: u64,
        epoch: u64,
    ) {
        let mut w = XmlWriter::new(out);
        w.start("facts");
        w.attr("subject", subject);
        w.attr_display("source", source);
        w.attr_display("epoch", epoch);
        for f in facts {
            debug_assert_eq!(&*f.subject, subject, "grouped by subject");
            write_fact(&mut w, "fact", f);
        }
        w.end("facts");
    }

    /// The `(source, epoch)` a snapshot was taken at, if its root carries
    /// both (a snapshot without them is not ingested).
    pub fn snapshot_version(el: &Element) -> Option<(u64, u64)> {
        version_from(|k| el.attr(k))
    }

    /// Parses facts back from the XML document form. Malformed entries
    /// are skipped (forward compatibility).
    pub fn facts_from_xml(el: &Element) -> Vec<Fact> {
        let subject = el.attr("subject").unwrap_or(UNNAMED).into();
        el.children_named("fact").filter_map(|fe| fact_from_element(&subject, fe)).collect()
    }
}

/// The subject of facts in a snapshot whose root names none.
const UNNAMED: &str = "unknown";

/// The `(source, epoch)` stamp among a snapshot root's attributes.
fn version_from<'v>(attr: impl Fn(&str) -> Option<&'v str>) -> Option<(u64, u64)> {
    Some((attr("source")?.parse().ok()?, attr("epoch")?.parse().ok()?))
}

/// A snapshot document opened at its root: the root's attributes are
/// read, the facts are not — [`facts`](Self::facts) decodes them, straight
/// from the document's tokens, only when asked.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    reader: Reader<'a>,
}

impl<'a> SnapshotReader<'a> {
    /// Reads `text` up to the end of its root's start tag; `None` when
    /// the document is malformed before that.
    pub fn open(text: &'a str) -> Option<SnapshotReader<'a>> {
        let mut reader = Reader::new(text);
        match reader.next()?.ok()? {
            Token::Start(_) => Some(SnapshotReader { reader }),
            _ => None,
        }
    }

    /// What [`DistributedKnowledge::snapshot_version`] reads from the
    /// root: the authority's `(source, epoch)`, if stamped.
    pub fn version(&self) -> Option<(u64, u64)> {
        version_from(|k| self.reader.attr(k).map(|v| v.as_ref()))
    }

    /// The subject the root names, if it names one (the facts of a
    /// snapshot that does not are about `"unknown"`).
    pub fn subject(&self) -> Option<&str> {
        self.reader.attr("subject").map(|v| v.as_ref())
    }

    /// Decodes the rest of the document: what
    /// [`DistributedKnowledge::facts_from_xml`] returns for it, or `None`
    /// when the document is malformed (malformed fact entries are
    /// skipped, a malformed document is not). Subjects and predicates are
    /// `names`' own where it holds them ([`InMemoryFacts::name`]).
    pub fn facts(mut self, names: &InMemoryFacts) -> Option<Vec<Fact>> {
        let subject = names.name(self.subject().unwrap_or(UNNAMED));
        let mut facts = Vec::new();
        loop {
            match self.reader.next()?.ok()? {
                Token::Start(name) => {
                    // Every child is read through; only `fact`s are kept.
                    let fact = read_fact(&mut self.reader, &subject, names)?;
                    facts.extend(fact.filter(|_| name == "fact"));
                }
                Token::Text(_) => {}
                Token::End(_) => break,
            }
        }
        // The reader ends cleanly only if nothing trails the root.
        self.reader.next().is_none().then_some(facts)
    }
}

/// How a fact is laid out as an element: each attribute is handed to
/// `attr` in document order — `predicate`, `type`, the `geo`/`time`
/// object's own fields, then the validity bounds — and the `<value>`
/// text, for objects that have one, is returned. The element encoder
/// ([`fact_element`]) and the streaming writer ([`write_fact`]) both lay
/// facts out through this, so the two write the same document.
fn fact_layout(f: &Fact, mut attr: impl FnMut(&str, &dyn Display)) -> Option<&dyn Display> {
    attr("predicate", &f.predicate);
    attr("type", &f.object.type_name());
    let value: Option<&dyn Display> = match &f.object {
        Term::Geo(g) => {
            attr("lat", &g.lat);
            attr("lon", &g.lon);
            None
        }
        Term::Time(t) => {
            attr("us", &t.as_micros());
            None
        }
        Term::Str(s) => Some(s),
        Term::Int(i) => Some(i),
        Term::Float(x) => Some(x),
        Term::Bool(b) => Some(b),
    };
    if let Some(from) = f.valid_from {
        attr("from_us", &from.as_micros());
    }
    if let Some(to) = f.valid_to {
        attr("to_us", &to.as_micros());
    }
    value
}

/// Encodes one fact as an element named `tag` (shared between subject
/// snapshots, which use `fact`, and delta batches, which use the
/// operation name).
pub(crate) fn fact_element(tag: &str, f: &Fact) -> Element {
    let mut fe = Element::new(tag);
    let value = fact_layout(f, |key, v| fe.set_attr(key, v.to_string()));
    if let Some(v) = value {
        fe.push(Element::new("value").with_text(v.to_string()));
    }
    fe
}

/// Streams the element [`fact_element`] builds for `f` through `w`.
pub(crate) fn write_fact(w: &mut XmlWriter<'_>, tag: &str, f: &Fact) {
    w.start(tag);
    if let Some(v) = fact_layout(f, |key, v| w.attr_display(key, v)) {
        w.start("value");
        w.text_display(v);
        w.end("value");
    }
    w.end(tag);
}

/// Decodes one fact element (any tag), `None` when malformed. The
/// predicate is a fresh name.
pub(crate) fn fact_from_element(subject: &Rc<str>, fe: &Element) -> Option<Fact> {
    let head = FactHead::read(|k| fe.attr(k), |predicate| predicate.into())?;
    head.finish(subject, &fe.child("value").map(|v| v.text()).unwrap_or_default())
}

/// Decodes the fact element whose start tag `reader` has just returned,
/// reading through its end tag. `None` when the document is malformed;
/// `Some(None)` when only this fact is. The fact's `<value>` text is its
/// first `value` child's own text, as [`fact_from_element`] reads it; its
/// predicate is `names`' own where it holds it.
pub(crate) fn read_fact(
    reader: &mut Reader<'_>,
    subject: &Rc<str>,
    names: &InMemoryFacts,
) -> Option<Option<Fact>> {
    let head =
        FactHead::read(|k| reader.attr(k).map(|v| v.as_ref()), |predicate| names.name(predicate));
    let mut value: Option<Cow<'_, str>> = None;
    let mut in_value = false;
    // Elements open inside the fact element.
    let mut depth = 0usize;
    loop {
        match reader.next()?.ok()? {
            Token::Start(name) => {
                depth += 1;
                if depth == 1 && name == "value" && value.is_none() {
                    value = Some(Cow::default());
                    in_value = true;
                }
            }
            Token::Text(text) if in_value && depth == 1 => {
                let value = value.get_or_insert_default();
                if value.is_empty() {
                    *value = text;
                } else {
                    value.to_mut().push_str(&text);
                }
            }
            Token::Text(_) => {}
            Token::End(_) if depth == 0 => break,
            Token::End(_) => {
                in_value &= depth > 1;
                depth -= 1;
            }
        }
    }
    Some(head.and_then(|head| head.finish(subject, value.as_deref().unwrap_or(""))))
}

/// A fact element's attributes, decoded: everything but the `<value>`
/// text. This is where the fact-field rules are written; the element and
/// the token decoders both go through it.
struct FactHead {
    predicate: Rc<str>,
    object: Object,
    valid_from: Option<SimTime>,
    valid_to: Option<SimTime>,
}

/// A fact's object as far as the attributes decide it.
enum Object {
    /// Decoded from attributes (`geo`, `time`).
    Known(Term),
    /// Read from the `<value>` text.
    Str,
    Int,
    Float,
    Bool,
}

impl FactHead {
    /// Reads the attributes `attr` looks up, `None` when one is missing or
    /// malformed. A missing validity bound means unbounded; one present
    /// but unparsable makes the element malformed (read as unbounded, a
    /// corrupted window would widen the fact to always-valid). The
    /// predicate is turned into a shared name by `name`, once the rest
    /// has been read.
    fn read<'v>(
        attr: impl Fn(&str) -> Option<&'v str>,
        name: impl FnOnce(&str) -> Rc<str>,
    ) -> Option<FactHead> {
        let predicate = attr("predicate")?;
        let object = match attr("type")? {
            "str" => Object::Str,
            "int" => Object::Int,
            "float" => Object::Float,
            "bool" => Object::Bool,
            "geo" => {
                let lat = attr("lat")?.parse().ok()?;
                let lon = attr("lon")?.parse().ok()?;
                Object::Known(Term::Geo(GeoPoint::new(lat, lon)))
            }
            "time" => Object::Known(Term::Time(SimTime::from_micros(attr("us")?.parse().ok()?))),
            _ => return None,
        };
        let bound = |key| attr(key).map(|us| us.parse().map(SimTime::from_micros)).transpose().ok();
        let (valid_from, valid_to) = (bound("from_us")?, bound("to_us")?);
        Some(FactHead { predicate: name(predicate), object, valid_from, valid_to })
    }

    /// The fact, given its `<value>` text (empty when it has none).
    fn finish(self, subject: &Rc<str>, value: &str) -> Option<Fact> {
        let object = match self.object {
            Object::Known(term) => term,
            Object::Str => Term::Str(value.into()),
            Object::Int => Term::Int(value.parse().ok()?),
            Object::Float => Term::Float(value.parse().ok()?),
            Object::Bool => Term::Bool(value.parse().ok()?),
        };
        Some(Fact {
            subject: Rc::clone(subject),
            predicate: self.predicate,
            object,
            valid_from: self.valid_from,
            valid_to: self.valid_to,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_round_trip_all_term_types() {
        let facts = [
            Fact::new("bob", "likes", Term::str("ice cream")),
            Fact::new("bob", "age", Term::Int(34)),
            Fact::new("bob", "height_m", Term::Float(1.82)),
            Fact::new("bob", "on_foot", Term::Bool(true)),
            Fact::new("bob", "at", Term::Geo(GeoPoint::new(56.34, -2.8))),
            Fact::new("bob", "seen", Term::Time(SimTime::from_millis(1500))),
            Fact::new("bob", "on_holiday", Term::Bool(true))
                .valid_between(SimTime::from_secs(1), SimTime::from_secs(2)),
        ];
        let refs: Vec<&Fact> = facts.iter().collect();
        let xml = DistributedKnowledge::facts_to_xml_versioned("bob", &refs, 1, 0);
        let back = DistributedKnowledge::facts_from_xml(&xml);
        assert_eq!(back.len(), facts.len());
        for (a, b) in facts.iter().zip(back.iter()) {
            assert_eq!(a.predicate, b.predicate);
            assert!(a.object.eq_term(&b.object) || a.object == b.object, "{a} vs {b}");
            assert_eq!(a.valid_from, b.valid_from);
            assert_eq!(a.valid_to, b.valid_to);
        }
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let xml = gloss_xml::parse(
            r#"<facts subject="x">
                 <fact predicate="ok" type="int"><value>5</value></fact>
                 <fact predicate="bad" type="int"><value>five</value></fact>
                 <fact type="int"><value>5</value></fact>
                 <fact predicate="odd" type="tensor"><value>?</value></fact>
                 <fact predicate="window" type="int" from_us="10" to_us="20"><value>5</value></fact>
                 <fact predicate="torn" type="int" from_us="10" to_us="2O"><value>5</value></fact>
                 <fact predicate="torn" type="int" from_us=""><value>5</value></fact>
               </facts>"#,
        )
        .unwrap();
        let facts = DistributedKnowledge::facts_from_xml(&xml);
        assert_eq!(facts.len(), 2, "a corrupt bound is malformed, not unbounded: {facts:?}");
        assert_eq!(&*facts[0].predicate, "ok");
        assert_eq!(&*facts[1].predicate, "window");
        assert_eq!(facts[1].valid_from, Some(SimTime::from_micros(10)));
        assert_eq!(facts[1].valid_to, Some(SimTime::from_micros(20)));
    }
}
