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

use crate::fact::{Fact, Term};
use gloss_sim::{GeoPoint, SimTime};
use gloss_xml::Element;

/// The `kb/<subject>` document codec: names, and facts to and from XML.
#[derive(Debug, Clone, Copy)]
pub struct DistributedKnowledge;

impl DistributedKnowledge {
    /// The store document name for a subject.
    pub fn doc_name(subject: &str) -> String {
        format!("kb/{subject}")
    }

    /// Serialises facts about one subject to the XML document form.
    pub fn facts_to_xml(subject: &str, facts: &[&Fact]) -> Element {
        let mut el = Element::new("facts").with_attr("subject", subject);
        for f in facts {
            debug_assert_eq!(f.subject, subject, "grouped by subject");
            el.push(fact_element("fact", f));
        }
        el
    }

    /// [`facts_to_xml`](Self::facts_to_xml) with the authoritative
    /// store's identity stamped on: receivers of this snapshot anchor at
    /// `(source, epoch)` and can then apply delta batches on top.
    pub fn facts_to_xml_versioned(
        subject: &str,
        facts: &[&Fact],
        source: u64,
        epoch: u64,
    ) -> Element {
        let mut el = Self::facts_to_xml(subject, facts);
        el.set_attr("source", source.to_string());
        el.set_attr("epoch", epoch.to_string());
        el
    }

    /// The `(source, epoch)` a versioned snapshot was taken at, if the
    /// document carries one (legacy snapshots do not).
    pub fn snapshot_version(el: &Element) -> Option<(u64, u64)> {
        let source = el.attr("source")?.parse().ok()?;
        let epoch = el.attr("epoch")?.parse().ok()?;
        Some((source, epoch))
    }

    /// Parses facts back from the XML document form. Malformed entries
    /// are skipped (forward compatibility).
    pub fn facts_from_xml(el: &Element) -> Vec<Fact> {
        let subject = el.attr("subject").unwrap_or("unknown");
        el.children_named("fact").filter_map(|fe| fact_from_element(subject, fe)).collect()
    }
}

/// Encodes one fact as an element named `tag` (shared between subject
/// snapshots, which use `fact`, and delta batches, which use the
/// operation name).
pub(crate) fn fact_element(tag: &str, f: &Fact) -> Element {
    let mut fe = Element::new(tag)
        .with_attr("predicate", &f.predicate)
        .with_attr("type", f.object.type_name());
    match &f.object {
        Term::Geo(g) => {
            fe.set_attr("lat", g.lat.to_string());
            fe.set_attr("lon", g.lon.to_string());
        }
        Term::Time(t) => {
            fe.set_attr("us", t.as_micros().to_string());
        }
        Term::Str(s) => fe.push(Element::new("value").with_text(s.as_ref())),
        Term::Int(i) => fe.push(Element::new("value").with_text(i.to_string())),
        Term::Float(x) => fe.push(Element::new("value").with_text(x.to_string())),
        Term::Bool(b) => fe.push(Element::new("value").with_text(b.to_string())),
    }
    if let Some(from) = f.valid_from {
        fe.set_attr("from_us", from.as_micros().to_string());
    }
    if let Some(to) = f.valid_to {
        fe.set_attr("to_us", to.as_micros().to_string());
    }
    fe
}

/// Decodes one fact element (any tag), `None` when malformed. A missing
/// validity bound means unbounded; one present but unparsable makes the
/// element malformed (read as unbounded, a corrupted window would widen
/// the fact to always-valid).
pub(crate) fn fact_from_element(subject: &str, fe: &Element) -> Option<Fact> {
    let predicate = fe.attr("predicate")?;
    let value_text = fe.child("value").map(|v| v.text()).unwrap_or_default();
    let object = match fe.attr("type") {
        Some("str") => Term::Str(value_text.into()),
        Some("int") => Term::Int(value_text.parse().ok()?),
        Some("float") => Term::Float(value_text.parse().ok()?),
        Some("bool") => Term::Bool(value_text.parse().ok()?),
        Some("geo") => {
            let lat = fe.attr("lat")?.parse().ok()?;
            let lon = fe.attr("lon")?.parse().ok()?;
            Term::Geo(GeoPoint::new(lat, lon))
        }
        Some("time") => Term::Time(SimTime::from_micros(fe.attr("us")?.parse().ok()?)),
        _ => return None,
    };
    let bound =
        |attr| fe.attr(attr).map(|us| us.parse().map(SimTime::from_micros)).transpose().ok();
    let mut fact = Fact::new(subject, predicate, object);
    fact.valid_from = bound("from_us")?;
    fact.valid_to = bound("to_us")?;
    Some(fact)
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
        let xml = DistributedKnowledge::facts_to_xml("bob", &refs);
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
        assert_eq!(facts[0].predicate, "ok");
        assert_eq!(facts[1].predicate, "window");
        assert_eq!(facts[1].valid_from, Some(SimTime::from_micros(10)));
        assert_eq!(facts[1].valid_to, Some(SimTime::from_micros(20)));
    }
}
