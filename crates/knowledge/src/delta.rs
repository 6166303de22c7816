//! Epoch-tagged knowledge deltas over the store plane.
//!
//! Whole-document replication ships everything known about a subject on
//! every change; under context churn (a user's location updating every
//! few seconds) that is almost entirely redundant bytes. This module
//! extends the [`FactDelta`]/epoch feed across nodes:
//! an authoritative writer ships **delta batches** — the insert/retract
//! tail since the receiver's last known epoch, as a
//! `kbdelta/<subject>@<from..to>` document — and receivers repair their
//! local fact stores (and through them the matching engine's alpha
//! memories) incrementally.
//!
//! The protocol is anchored by versioned snapshots
//! ([`crate::DistributedKnowledge::facts_to_xml_versioned`]): a snapshot stamps
//! the authority's `(source, epoch)`, and a batch applies only when it
//! extends exactly the state the receiver holds. [`reconcile`] is the
//! receiver-side decision: apply (possibly skipping an already-covered
//! prefix), ignore as stale, or fall back to a full snapshot fetch —
//! which is forced whenever the writer's bounded delta log has truncated
//! past the receiver's epoch, the writer is a different store instance
//! (clones never alias epochs), or the receiver was never anchored.
//!
//! A receiver reads a batch **envelope first**. [`BatchReader::open`]
//! reads the `kbdelta` root's `subject`, `source`, `from` and `to` — all
//! [`reconcile`] needs — and stops, so a batch found stale or gapped is
//! never decoded at all. Only a batch that applies has its deltas decoded
//! ([`BatchReader::decode_into`]), straight from the document's tokens,
//! into a buffer the receiver keeps, with subjects and predicates taken
//! from the receiving store ([`InMemoryFacts::name`]): a batch about a
//! subject the receiver holds allocates only its string objects. It goes
//! through the same fact-field and envelope rules as
//! [`DeltaBatch::from_xml`], which serves callers that already hold a tree.

use crate::distributed::{fact_element, fact_from_element, read_fact, write_fact};
use crate::fact::{Fact, FactDelta, FactSource, InMemoryFacts};
use gloss_xml::{Element, Reader, Token, XmlWriter};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The root element name of a batch document.
const ROOT: &str = "kbdelta";

/// A contiguous run of one subject's fact deltas: epochs
/// `from + 1 ..= to` of the authority store `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// The subject the deltas concern.
    pub subject: String,
    /// The authority store's instance id.
    pub source: u64,
    /// Epoch the batch extends (the receiver must hold this state).
    pub from: u64,
    /// Epoch after the last delta.
    pub to: u64,
    /// The deltas, in application order (`deltas.len() == to - from`).
    pub deltas: Vec<FactDelta>,
}

impl DeltaBatch {
    /// The store document name: `kbdelta/<subject>@<from..to>`.
    pub fn doc_name(&self) -> String {
        format!("kbdelta/{}@{}..{}", self.subject, self.from, self.to)
    }

    /// Serialises the batch to its XML document form.
    pub fn to_xml(&self) -> Element {
        let mut el = Element::new(ROOT)
            .with_attr("subject", &self.subject)
            .with_attr("source", self.source.to_string())
            .with_attr("from", self.from.to_string())
            .with_attr("to", self.to.to_string());
        for d in &self.deltas {
            let (tag, f) = tag_of(d);
            el.push(fact_element(tag, f));
        }
        el
    }

    /// Appends to `out` the document [`to_xml`](Self::to_xml) builds,
    /// byte for byte what its [`Element::to_xml`] writes, with no tree
    /// built: the form an authority ships. Nothing is allocated but
    /// `out`'s growth.
    pub fn write_xml(&self, out: &mut String) {
        let mut w = XmlWriter::new(out);
        w.start(ROOT);
        w.attr("subject", &self.subject);
        w.attr_display("source", self.source);
        w.attr_display("from", self.from);
        w.attr_display("to", self.to);
        for d in &self.deltas {
            let (tag, f) = tag_of(d);
            write_fact(&mut w, tag, f);
        }
        w.end(ROOT);
    }

    /// Parses a batch back from XML. `None` when the envelope is
    /// malformed or any delta fails to decode — a batch with a hole
    /// cannot be applied soundly, so unlike snapshot parsing this does
    /// not skip bad entries.
    pub fn from_xml(el: &Element) -> Option<DeltaBatch> {
        if el.name() != ROOT {
            return None;
        }
        let subject = el.attr("subject")?;
        let span = EpochSpan::read(|k| el.attr(k))?;
        let name = subject.into();
        let mut deltas = Vec::new();
        for fe in el.children() {
            let fact = fact_from_element(&name, fe)?;
            deltas.push(delta(fe.name(), fact)?);
        }
        span.holds(deltas.len()).then(|| DeltaBatch::new(subject.to_string(), span, deltas))
    }

    fn new(subject: String, span: EpochSpan, deltas: Vec<FactDelta>) -> DeltaBatch {
        DeltaBatch { subject, source: span.source, from: span.from, to: span.to, deltas }
    }
}

/// The batch child element name of a delta, and its fact.
fn tag_of(d: &FactDelta) -> (&'static str, &Fact) {
    match d {
        FactDelta::Insert(f) => ("insert", f),
        FactDelta::Retract(f) => ("retract", f),
    }
}

/// The delta a batch child element named `tag` carries.
fn delta(tag: &str, fact: Fact) -> Option<FactDelta> {
    match tag {
        "insert" => Some(FactDelta::Insert(fact)),
        "retract" => Some(FactDelta::Retract(fact)),
        _ => None,
    }
}

/// Which epochs of which authority store a batch spans: everything
/// [`reconcile`] reads, and the whole of a batch's envelope but its
/// subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpan {
    /// The authority store's instance id.
    pub source: u64,
    /// Epoch the batch extends.
    pub from: u64,
    /// Epoch after the batch's last delta.
    pub to: u64,
}

impl EpochSpan {
    /// Reads a batch root's `source`, `from` and `to` attributes.
    fn read<'v>(attr: impl Fn(&str) -> Option<&'v str>) -> Option<EpochSpan> {
        Some(EpochSpan {
            source: attr("source")?.parse().ok()?,
            from: attr("from")?.parse().ok()?,
            to: attr("to")?.parse().ok()?,
        })
    }

    /// Whether `deltas` is exactly one delta per epoch of the span.
    fn holds(self, deltas: usize) -> bool {
        self.to.checked_sub(self.from) == Some(deltas as u64)
    }
}

impl From<&DeltaBatch> for EpochSpan {
    fn from(batch: &DeltaBatch) -> EpochSpan {
        EpochSpan { source: batch.source, from: batch.from, to: batch.to }
    }
}

/// A `kbdelta` document read envelope first: [`open`](Self::open) reads
/// the root's attributes and stops, allocating nothing;
/// [`decode_into`](Self::decode_into) reads the deltas only when asked.
#[derive(Debug)]
pub struct BatchReader<'a> {
    reader: Reader<'a>,
    subject: Cow<'a, str>,
    span: EpochSpan,
}

impl<'a> BatchReader<'a> {
    /// Reads `text` up to the end of the `kbdelta` root's start tag. `None`
    /// when that much is malformed, or the envelope is one
    /// [`DeltaBatch::from_xml`] rejects.
    pub fn open(text: &'a str) -> Option<BatchReader<'a>> {
        let mut reader = Reader::new(text);
        if reader.next()?.ok()? != Token::Start(ROOT) {
            return None;
        }
        let subject = reader.attr("subject")?.clone();
        let span = EpochSpan::read(|k| reader.attr(k).map(|v| v.as_ref()))?;
        Some(BatchReader { reader, subject, span })
    }

    /// The subject the batch concerns.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The epochs the batch spans.
    pub fn span(&self) -> EpochSpan {
        self.span
    }

    /// Decodes the rest of the document: the batch
    /// [`DeltaBatch::from_xml`] returns for it, or `None` where that
    /// returns none. [`decode_into`](Self::decode_into) with a fresh
    /// buffer.
    pub fn decode(self, names: &InMemoryFacts) -> Option<DeltaBatch> {
        let span = self.span;
        let mut deltas = Vec::new();
        let subject = self.decode_into(names, &mut deltas)?;
        Some(DeltaBatch::new(subject.to_string(), span, deltas))
    }

    /// Decodes the rest of the document into `deltas` (emptied first):
    /// the deltas [`DeltaBatch::from_xml`] decodes, and the batch's
    /// subject; or `None`, with `deltas` empty, where that returns none.
    /// Subjects and predicates are `names`' own where it holds them
    /// ([`InMemoryFacts::name`]), so a receiver that decodes into one
    /// kept buffer for its own store allocates, for a batch about a
    /// subject it holds, only the batch's string objects.
    pub fn decode_into(
        mut self,
        names: &InMemoryFacts,
        deltas: &mut Vec<FactDelta>,
    ) -> Option<Rc<str>> {
        deltas.clear();
        let subject = names.name(&self.subject);
        let read = self.read_deltas(&subject, names, deltas);
        if read.is_none() || !self.span.holds(deltas.len()) {
            deltas.clear();
            return None;
        }
        Some(subject)
    }

    /// Reads every delta up to the end of the document. `deltas` grows
    /// as they are read: `to - from` comes off the wire, and is checked,
    /// not trusted with an allocation.
    fn read_deltas(
        &mut self,
        subject: &Rc<str>,
        names: &InMemoryFacts,
        deltas: &mut Vec<FactDelta>,
    ) -> Option<()> {
        loop {
            match self.reader.next()?.ok()? {
                Token::Start(tag) => {
                    let fact = read_fact(&mut self.reader, subject, names)??;
                    deltas.push(delta(tag, fact)?);
                }
                Token::Text(_) => {}
                Token::End(_) => break,
            }
        }
        // The reader ends cleanly only if nothing trails the root.
        self.reader.next().is_none().then_some(())
    }
}

/// Why a receiver must fall back to a full snapshot fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotReason {
    /// The receiver has no anchored `(source, epoch)` for the subject.
    Unanchored,
    /// The batch comes from a different store instance than the one the
    /// receiver anchored to (a clone, a restarted writer): its epochs
    /// are not comparable.
    SourceChanged,
    /// The batch starts past the receiver's epoch — intervening deltas
    /// were lost (or the writer's bounded log truncated them).
    EpochGap,
}

/// The receiver-side verdict on an arriving delta batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAction {
    /// Apply `deltas[skip..]`, then anchor at `(batch.source, batch.to)`.
    /// `skip` covers the prefix an interleaved snapshot already
    /// incorporated.
    Apply {
        /// Leading deltas already covered by the receiver's state.
        skip: usize,
    },
    /// Everything in the batch is already incorporated; ignore it.
    Stale,
    /// The batch cannot be applied: fetch a full snapshot instead.
    Snapshot(SnapshotReason),
}

/// Decides what a receiver anchored at `tracked` (`(source, epoch)`, or
/// `None` before any versioned snapshot) does with a batch spanning
/// `batch` — a [`DeltaBatch`], or the [`EpochSpan`] of one not yet
/// decoded.
pub fn reconcile(tracked: Option<(u64, u64)>, batch: impl Into<EpochSpan>) -> DeltaAction {
    let batch = batch.into();
    let Some((source, epoch)) = tracked else {
        // Bootstrap: a batch from the very first epoch is a complete
        // history and can build the subject from nothing.
        return if batch.from == 0 {
            DeltaAction::Apply { skip: 0 }
        } else {
            DeltaAction::Snapshot(SnapshotReason::Unanchored)
        };
    };
    if source != batch.source {
        return DeltaAction::Snapshot(SnapshotReason::SourceChanged);
    }
    if batch.to <= epoch {
        return DeltaAction::Stale;
    }
    if batch.from > epoch {
        return DeltaAction::Snapshot(SnapshotReason::EpochGap);
    }
    DeltaAction::Apply { skip: (epoch - batch.from) as usize }
}

/// What a flush of an authority subject produces for the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Shipment {
    /// A full snapshot (first publication, or the delta log truncated).
    Snapshot {
        /// The authority store's instance id.
        source: u64,
        /// The epoch the snapshot captures.
        epoch: u64,
        /// Every fact currently held for the subject.
        facts: Vec<Fact>,
    },
    /// An incremental batch extending the last shipment.
    Delta(DeltaBatch),
}

/// The writer side: one authoritative bounded-log fact store per
/// subject, tracking what has been shipped so each flush emits exactly
/// the unshipped tail — or a snapshot when the log wrapped past it
/// (observable via
/// [`delta_log_truncations`](InMemoryFacts::delta_log_truncations) on
/// the subject's store).
#[derive(Debug, Default)]
pub struct KnowledgeAuthority {
    subjects: BTreeMap<String, InMemoryFacts>,
    shipped: BTreeMap<String, u64>,
}

impl KnowledgeAuthority {
    /// Creates an empty authority.
    pub fn new() -> Self {
        KnowledgeAuthority::default()
    }

    /// The authoritative store for `subject`, created on first use.
    /// Mutate it freely; the changes ship at the next
    /// [`flush`](Self::flush).
    pub fn facts_mut(&mut self, subject: &str) -> &mut InMemoryFacts {
        if !self.subjects.contains_key(subject) {
            self.subjects.insert(subject.to_string(), InMemoryFacts::default());
        }
        self.subjects.get_mut(subject).expect("present or just inserted")
    }

    /// The authoritative store for `subject`, if it exists.
    pub fn facts(&self, subject: &str) -> Option<&InMemoryFacts> {
        self.subjects.get(subject)
    }

    /// A forced full snapshot of `subject` (used when the wire format
    /// must be a whole document — e.g. compat-seeding `kb/<subject>`).
    /// Marks the subject fully shipped, so the next [`flush`](Self::flush)
    /// emits only deltas on top of it.
    pub fn snapshot(&mut self, subject: &str) -> Option<Shipment> {
        let store = self.subjects.get(subject)?;
        let epoch = store.epoch();
        let source = store.version().expect("in-memory stores are versioned").source;
        mark_shipped(&mut self.shipped, subject, epoch);
        Some(Shipment::Snapshot {
            source,
            epoch,
            facts: store.query(None, None).cloned().collect(),
        })
    }

    /// Everything to ship for `subject` since the last flush: `None`
    /// when nothing changed, a [`Shipment::Delta`] for the unshipped
    /// tail, or a [`Shipment::Snapshot`] on first publication and
    /// whenever the bounded log truncated past the last shipment.
    pub fn flush(&mut self, subject: &str) -> Option<Shipment> {
        let store = self.subjects.get(subject)?;
        let epoch = store.epoch();
        let source = store.version().expect("in-memory stores are versioned").source;
        let snapshot = |store: &InMemoryFacts| Shipment::Snapshot {
            source,
            epoch,
            facts: store.query(None, None).cloned().collect(),
        };
        let shipment = match self.shipped.get(subject) {
            None => snapshot(store),
            Some(&at) if at == epoch => return None,
            Some(&at) => {
                let mut deltas = Vec::with_capacity((epoch - at) as usize);
                if store.for_each_delta_since(at, &mut |d| deltas.push(d.clone())) {
                    Shipment::Delta(DeltaBatch {
                        subject: subject.to_string(),
                        source,
                        from: at,
                        to: epoch,
                        deltas,
                    })
                } else {
                    // The log wrapped past the last shipment (counted on
                    // the store): consumers must rebuild.
                    snapshot(store)
                }
            }
        };
        mark_shipped(&mut self.shipped, subject, epoch);
        Some(shipment)
    }
}

/// Records `subject` as shipped up to `epoch`, allocating its key only
/// on first shipment.
fn mark_shipped(shipped: &mut BTreeMap<String, u64>, subject: &str, epoch: u64) {
    match shipped.get_mut(subject) {
        Some(at) => *at = epoch,
        None => {
            shipped.insert(subject.to_string(), epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Term;

    fn batch(source: u64, from: u64, deltas: Vec<FactDelta>) -> DeltaBatch {
        let to = from + deltas.len() as u64;
        DeltaBatch { subject: "bob".into(), source, from, to, deltas }
    }

    fn ins(p: &str, v: i64) -> FactDelta {
        FactDelta::Insert(Fact::new("bob", p, Term::Int(v)))
    }

    #[test]
    fn batch_xml_round_trip() {
        let b = batch(
            7,
            3,
            vec![
                ins("score", 1),
                FactDelta::Retract(Fact::new("bob", "score", Term::Int(1))),
                FactDelta::Insert(Fact::new("bob", "at", Term::str("market st")).valid_between(
                    gloss_sim::SimTime::from_secs(1),
                    gloss_sim::SimTime::from_secs(9),
                )),
            ],
        );
        assert_eq!(b.doc_name(), "kbdelta/bob@3..6");
        let parsed =
            DeltaBatch::from_xml(&gloss_xml::parse(&b.to_xml().to_xml()).unwrap()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn corrupt_batches_are_rejected_whole() {
        let b = batch(7, 3, vec![ins("score", 1), ins("score", 2)]);
        let text = b.to_xml().to_xml();
        let holed = text.replacen("type=\"int\"", "type=\"tensor\"", 1);
        assert_ne!(holed, text);
        let el = gloss_xml::parse(&holed).unwrap();
        assert!(DeltaBatch::from_xml(&el).is_none(), "a hole is not skippable");
        let short = text.replacen("to=\"5\"", "to=\"9\"", 1);
        assert_ne!(short, text);
        let el = gloss_xml::parse(&short).unwrap();
        assert!(DeltaBatch::from_xml(&el).is_none(), "length must match the range");
        // A windowed insert whose bound is corrupted must not apply as
        // an always-valid fact.
        let windowed = FactDelta::Insert(
            Fact::new("bob", "at", Term::str("pier"))
                .valid_between(gloss_sim::SimTime::from_secs(1), gloss_sim::SimTime::from_secs(9)),
        );
        let text = batch(7, 3, vec![ins("score", 1), windowed]).to_xml().to_xml();
        assert!(DeltaBatch::from_xml(&gloss_xml::parse(&text).unwrap()).is_some());
        for (bound, corrupt) in
            [("from_us=\"1000000\"", "from_us=\"1e6\""), ("to_us=\"9000000\"", "to_us=\"-9\"")]
        {
            let torn = text.replacen(bound, corrupt, 1);
            assert_ne!(torn, text);
            let el = gloss_xml::parse(&torn).unwrap();
            assert!(DeltaBatch::from_xml(&el).is_none(), "corrupt bound {corrupt} applied");
        }
    }

    #[test]
    fn reconcile_applies_contiguous_batches() {
        assert_eq!(
            reconcile(Some((7, 3)), &batch(7, 3, vec![ins("p", 1)])),
            DeltaAction::Apply { skip: 0 }
        );
        // Bootstrap from nothing with a complete history.
        assert_eq!(
            reconcile(None, &batch(7, 0, vec![ins("p", 1)])),
            DeltaAction::Apply { skip: 0 }
        );
        assert_eq!(
            reconcile(None, &batch(7, 2, vec![ins("p", 1)])),
            DeltaAction::Snapshot(SnapshotReason::Unanchored)
        );
    }

    #[test]
    fn receiver_ahead_of_sender_ignores_stale_batches() {
        // The receiver already holds epoch 9 (a snapshot overtook the
        // batch in flight): everything the batch carries is old news.
        assert_eq!(reconcile(Some((7, 9)), &batch(7, 3, vec![ins("p", 1)])), DeltaAction::Stale);
        assert_eq!(
            reconcile(Some((7, 9)), &batch(7, 8, vec![ins("p", 1)])),
            DeltaAction::Stale,
            "to == epoch is already incorporated"
        );
    }

    #[test]
    fn interleaved_snapshot_skips_the_covered_prefix() {
        // Snapshot at epoch 5 arrived mid-range; a 3..8 batch must apply
        // only its 5..8 tail or retracted facts would resurrect.
        let b = batch(7, 3, vec![ins("a", 1), ins("b", 2), ins("c", 3), ins("d", 4), ins("e", 5)]);
        assert_eq!(reconcile(Some((7, 5)), &b), DeltaAction::Apply { skip: 2 });
    }

    #[test]
    fn epoch_gaps_force_a_snapshot() {
        assert_eq!(
            reconcile(Some((7, 3)), &batch(7, 5, vec![ins("p", 1)])),
            DeltaAction::Snapshot(SnapshotReason::EpochGap)
        );
    }

    #[test]
    fn divergent_source_ids_never_alias_epochs() {
        let mut original = InMemoryFacts::new();
        original.add(Fact::new("bob", "likes", Term::str("ice cream")));
        let clone = original.clone();
        let (os, cs) = (original.version().unwrap().source, clone.version().unwrap().source);
        assert_ne!(os, cs);
        // A receiver anchored to the original must snapshot on a batch
        // from the clone even though the epoch numbers line up.
        let epoch = original.epoch();
        assert_eq!(
            reconcile(Some((os, epoch)), &batch(cs, epoch, vec![ins("p", 1)])),
            DeltaAction::Snapshot(SnapshotReason::SourceChanged)
        );
    }

    #[test]
    fn authority_ships_snapshot_then_deltas() {
        let mut auth = KnowledgeAuthority::new();
        auth.facts_mut("bob").add(Fact::new("bob", "likes", Term::str("ice cream")));
        auth.facts_mut("bob").add(Fact::new("bob", "age", Term::Int(34)));
        let Some(Shipment::Snapshot { epoch, facts, .. }) = auth.flush("bob") else {
            panic!("first flush is a snapshot")
        };
        assert_eq!((epoch, facts.len()), (2, 2));
        assert!(auth.flush("bob").is_none(), "nothing changed");
        auth.facts_mut("bob").retract("bob", "age", &Term::Int(34));
        auth.facts_mut("bob").add(Fact::new("bob", "age", Term::Int(35)));
        let Some(Shipment::Delta(b)) = auth.flush("bob") else {
            panic!("subsequent flushes ship the delta tail")
        };
        assert_eq!((b.from, b.to), (2, 4));
        assert!(matches!(&b.deltas[0], FactDelta::Retract(f) if f.object == Term::Int(34)));
        assert!(auth.flush("nobody").is_none());
    }

    #[test]
    fn truncated_log_falls_back_to_snapshot() {
        let mut auth = KnowledgeAuthority::new();
        auth.facts_mut("bob").add(Fact::new("bob", "seq", Term::Int(-1)));
        assert!(matches!(auth.flush("bob"), Some(Shipment::Snapshot { .. })));
        // More unshipped churn than the bounded log holds.
        for i in 0..5000i64 {
            auth.facts_mut("bob").retract("bob", "seq", &Term::Int(i - 1));
            auth.facts_mut("bob").add(Fact::new("bob", "seq", Term::Int(i)));
        }
        let Some(Shipment::Snapshot { epoch, facts, .. }) = auth.flush("bob") else {
            panic!("wrapped log cannot ship deltas")
        };
        assert_eq!(epoch, 1 + 10_000);
        assert_eq!(facts.len(), 1);
        assert_eq!(auth.facts("bob").unwrap().delta_log_truncations(), 1, "wrap was counted");
        // Fully shipped again: the next churn round is a delta.
        auth.facts_mut("bob").add(Fact::new("bob", "extra", Term::Int(1)));
        assert!(matches!(auth.flush("bob"), Some(Shipment::Delta(_))));
    }
}
