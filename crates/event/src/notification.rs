//! Events (notifications): typed attribute maps with optional XML payloads.

use crate::value::AttrValue;
use gloss_sim::{NodeIndex, SimTime};
use gloss_xml::Element;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Globally unique event identifier: publishing node + per-node sequence.
///
/// Used for duplicate suppression at a replay's seam and for tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId {
    /// The publishing node.
    pub origin: NodeIndex,
    /// The publisher's sequence number.
    pub seq: u64,
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// An event: a kind, typed attributes, an optional structured XML payload,
/// and provenance (id + publication time).
///
/// The paper's events are "XML-encoded". Here an event travels between
/// nodes as a value inside the architecture's messages, and only its
/// payload is XML: an [`Element`] the event carries as it is.
///
/// Kind, attributes and payload are `Rc`-backed with copy-on-write
/// mutation: cloning an event (which brokers do once per
/// neighbour/subscriber on every routing hop) bumps two non-atomic
/// reference counts, three with a payload, instead of deep-copying the
/// attribute map, and [`Event::set_attr`] clones the map only when it is
/// actually shared. An event with no attributes holds no map at all.
///
/// # Example
///
/// ```
/// use gloss_event::Event;
/// let e = Event::new("weather.reading")
///     .with_attr("street", "South Street")
///     .with_attr("celsius", 20.0);
/// assert_eq!(e.kind(), "weather.reading");
/// assert_eq!(e.attr("celsius").and_then(|v| v.as_number()), Some(20.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: Rc<str>,
    /// `None` until the first [`set_attr`](Self::set_attr), its only
    /// writer, so never `Some` of an empty map.
    attrs: Option<Rc<BTreeMap<Rc<str>, AttrValue>>>,
    payload: Option<Rc<Element>>,
    id: EventId,
    published_at: SimTime,
}

impl Default for Event {
    fn default() -> Self {
        Event::new("")
    }
}

impl Event {
    /// Creates an event of the given kind with no attributes. Passing an
    /// `Rc<str>` kind (e.g. one cached by a rule engine) is
    /// allocation-free.
    pub fn new(kind: impl Into<Rc<str>>) -> Self {
        Event {
            kind: kind.into(),
            attrs: None,
            payload: None,
            id: EventId::default(),
            published_at: SimTime::default(),
        }
    }

    /// The event kind (e.g. `"user.location"`).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The unique id assigned at publication.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// When the event was published (simulated time).
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// Stamps provenance; called by the publishing client/broker.
    pub fn stamp(&mut self, id: EventId, at: SimTime) {
        self.id = id;
        self.published_at = at;
    }

    /// The value of attribute `name`.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.as_ref()?.get(name)
    }

    /// String attribute convenience accessor.
    pub fn str_attr(&self, name: &str) -> Option<&str> {
        self.attr(name).and_then(AttrValue::as_str)
    }

    /// Numeric attribute convenience accessor.
    pub fn num_attr(&self, name: &str) -> Option<f64> {
        self.attr(name).and_then(AttrValue::as_number)
    }

    /// All attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.as_deref().map(BTreeMap::iter).unwrap_or_default().map(|(k, v)| (k.as_ref(), v))
    }

    /// Sets an attribute (copy-on-write: clones the attribute map only
    /// if it is shared with another event). Passing `Rc<str>` for the
    /// name is allocation-free.
    pub fn set_attr(&mut self, name: impl Into<Rc<str>>, value: impl Into<AttrValue>) {
        Rc::make_mut(self.attrs.get_or_insert_default()).insert(name.into(), value.into());
    }

    /// Builder form of [`set_attr`](Self::set_attr).
    pub fn with_attr(mut self, name: impl Into<Rc<str>>, value: impl Into<AttrValue>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// The structured payload, if any.
    pub fn payload(&self) -> Option<&Element> {
        self.payload.as_deref()
    }

    /// Attaches a structured payload.
    pub fn with_payload(mut self, payload: Element) -> Self {
        self.payload = Some(Rc::new(payload));
        self
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}](", self.kind, self.id)?;
        for (i, (k, v)) in self.attrs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_xml::parse;

    fn sample() -> Event {
        let mut e = Event::new("user.location")
            .with_attr("user", "bob")
            .with_attr("lat", 56.34)
            .with_attr("lon", -2.80)
            .with_attr("indoor", false)
            .with_attr("floor", 2i64)
            .with_payload(parse(r#"<pos src="gps"><accuracy>5</accuracy></pos>"#).unwrap());
        e.stamp(EventId { origin: NodeIndex(3), seq: 17 }, SimTime::from_millis(1234));
        e
    }

    #[test]
    fn accessors() {
        let e = sample();
        assert_eq!(e.kind(), "user.location");
        assert_eq!(e.str_attr("user"), Some("bob"));
        assert_eq!(e.num_attr("floor"), Some(2.0));
        assert_eq!(e.attr("indoor").and_then(AttrValue::as_bool), Some(false));
        assert_eq!(e.attrs().count(), 5);
        assert_eq!(e.id().seq, 17);
        assert_eq!(e.published_at(), SimTime::from_millis(1234));
        assert_eq!(e.payload().unwrap().child("accuracy").unwrap().text(), "5");
    }

    /// Whether `a` and `b` hold the same kind, attribute map and payload.
    fn shares_all(a: &Event, b: &Event) -> bool {
        Rc::ptr_eq(&a.kind, &b.kind)
            && a.attrs.as_ref().map(Rc::as_ptr) == b.attrs.as_ref().map(Rc::as_ptr)
            && a.payload.as_ref().map(Rc::as_ptr) == b.payload.as_ref().map(Rc::as_ptr)
    }

    #[test]
    fn clone_is_shallow_and_set_attr_copies_on_write() {
        let original = sample();
        let mut cloned = original.clone();
        assert_eq!(cloned, original);
        assert!(shares_all(&cloned, &original), "a clone copies no kind, map or payload");
        // Mutating the clone must not leak into the original.
        cloned.set_attr("user", "anna");
        assert_eq!(cloned.str_attr("user"), Some("anna"));
        assert_eq!(original.str_attr("user"), Some("bob"));
        assert!(!Rc::ptr_eq(cloned.attrs.as_ref().unwrap(), original.attrs.as_ref().unwrap()));
        assert!(Rc::ptr_eq(&cloned.kind, &original.kind), "only the map was copied");
        assert!(Rc::ptr_eq(cloned.payload.as_ref().unwrap(), original.payload.as_ref().unwrap()));
        // An unshared event mutates in place (no second map).
        let mut solo = Event::new("x").with_attr("a", 1i64);
        let map = Rc::as_ptr(solo.attrs.as_ref().unwrap());
        solo.set_attr("b", 2i64);
        assert_eq!(solo.attrs().count(), 2);
        assert_eq!(Rc::as_ptr(solo.attrs.as_ref().unwrap()), map, "the map stayed in place");
        // An event built with no attributes is the bare kind.
        let none: [(&str, i64); 0] = [];
        let bare =
            none.into_iter().fold(Event::new(Rc::<str>::from("x")), |e, (k, v)| e.with_attr(k, v));
        assert_eq!(bare, Event::new("x"));
        assert_ne!(bare, Event::new("x").with_attr("a", 1i64));
        assert!(bare.attrs.is_none() && bare.attrs().next().is_none());
        assert!(shares_all(&bare.clone(), &bare));
    }

    #[test]
    fn display_contains_kind_and_attrs() {
        let s = sample().to_string();
        assert!(s.contains("user.location"));
        assert!(s.contains("user=\"bob\""));
    }
}
