//! Facts: subject/predicate/object triples with validity intervals, with
//! an insert/retract change feed for incremental consumers.
//!
//! [`InMemoryFacts`] keeps its facts in stable slots indexed by subject
//! and by predicate, so a write costs what it changes: a retract walks
//! the one subject it names, never the whole store, and the tombstones
//! it leaves are compacted in bulk (see the struct docs for the rule).
//! Reads and the change feed see facts in insertion order throughout.
//!
//! A fact's subject and predicate are shared names (`Rc<str>`), like a
//! [`Term::Str`] object: the store's slot, its delta log, both index keys
//! and every copy a consumer takes point at one allocation, and copying a
//! fact bumps reference counts. [`InMemoryFacts::name`] hands out the
//! store's own copy of a name, so a decoder that builds facts for a store
//! allocates no name the store already holds.

use gloss_sim::FnvHashMap;
use gloss_sim::{GeoPoint, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// A knowledge-base value (also the runtime value type of the matchlet
/// language).
///
/// Strings are `Rc<str>` so cloning a term — which matching does for
/// every binding it materialises — is a reference-count bump, never a
/// heap copy.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A string.
    Str(Rc<str>),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A geographic point.
    Geo(GeoPoint),
    /// An instant of simulated time.
    Time(SimTime),
}

impl Term {
    /// Convenience string constructor.
    pub fn str(s: impl Into<Rc<str>>) -> Term {
        Term::Str(s.into())
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Term::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (`Int` and `Float`; `Time` yields seconds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(*f),
            Term::Time(t) => Some(t.as_secs_f64()),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Term::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The geographic point inside, if any.
    pub fn as_geo(&self) -> Option<GeoPoint> {
        match self {
            Term::Geo(g) => Some(*g),
            _ => None,
        }
    }

    /// The time inside, if any.
    pub fn as_time(&self) -> Option<SimTime> {
        match self {
            Term::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Semantic equality: numerics compare numerically, other types by
    /// structure.
    pub fn eq_term(&self, other: &Term) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => (a - b).abs() < 1e-12,
            _ => self == other,
        }
    }

    /// The type name (used by the XML encoding).
    pub fn type_name(&self) -> &'static str {
        match self {
            Term::Str(_) => "str",
            Term::Int(_) => "int",
            Term::Float(_) => "float",
            Term::Bool(_) => "bool",
            Term::Geo(_) => "geo",
            Term::Time(_) => "time",
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Str(s) => write!(f, "\"{s}\""),
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => write!(f, "{x}"),
            Term::Bool(b) => write!(f, "{b}"),
            Term::Geo(g) => write!(f, "{g}"),
            Term::Time(t) => write!(f, "{t}"),
        }
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Term {
        Term::Str(s.into())
    }
}
impl From<String> for Term {
    fn from(s: String) -> Term {
        Term::Str(s.into())
    }
}
impl From<i64> for Term {
    fn from(i: i64) -> Term {
        Term::Int(i)
    }
}
impl From<f64> for Term {
    fn from(f: f64) -> Term {
        Term::Float(f)
    }
}
impl From<bool> for Term {
    fn from(b: bool) -> Term {
        Term::Bool(b)
    }
}
impl From<GeoPoint> for Term {
    fn from(g: GeoPoint) -> Term {
        Term::Geo(g)
    }
}
impl From<SimTime> for Term {
    fn from(t: SimTime) -> Term {
        Term::Time(t)
    }
}

/// A fact: `subject predicate object`, optionally valid only within a
/// time interval ("Bob is on holiday from 20/6/2003 to 27/6/2003").
///
/// The subject and predicate are shared, so cloning a fact allocates
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// The subject ("bob").
    pub subject: Rc<str>,
    /// The predicate ("likes").
    pub predicate: Rc<str>,
    /// The object.
    pub object: Term,
    /// Validity start (inclusive), if bounded.
    pub valid_from: Option<SimTime>,
    /// Validity end (exclusive), if bounded.
    pub valid_to: Option<SimTime>,
}

impl Fact {
    /// Creates an always-valid fact, copying the names. (A store adopts
    /// its own copy of a name it already holds when the fact is added.)
    pub fn new(subject: impl AsRef<str>, predicate: impl AsRef<str>, object: Term) -> Self {
        Fact {
            subject: subject.as_ref().into(),
            predicate: predicate.as_ref().into(),
            object,
            valid_from: None,
            valid_to: None,
        }
    }

    /// Restricts validity to `[from, to)`.
    pub fn valid_between(mut self, from: SimTime, to: SimTime) -> Self {
        self.valid_from = Some(from);
        self.valid_to = Some(to);
        self
    }

    /// Whether the fact holds at `t`.
    pub fn valid_at(&self, t: SimTime) -> bool {
        self.valid_from.is_none_or(|f| t >= f) && self.valid_to.is_none_or(|e| t < e)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.predicate, self.object)
    }
}

/// One entry in a fact store's change feed.
#[derive(Debug, Clone, PartialEq)]
pub enum FactDelta {
    /// The fact was added.
    Insert(Fact),
    /// The fact was removed.
    Retract(Fact),
}

impl FactDelta {
    /// The fact the delta concerns.
    pub fn fact(&self) -> &Fact {
        match self {
            FactDelta::Insert(f) | FactDelta::Retract(f) => f,
        }
    }
}

/// Identity of a fact store's mutation state: a per-instance source id
/// plus a monotonically increasing epoch (one tick per insert/retract).
/// Consumers compare versions to tell "the same store, advanced" (replay
/// deltas) from "a different store entirely" (rebuild).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactsVersion {
    /// Unique per store instance; clones get fresh ids, so two stores
    /// never alias each other's epochs.
    pub source: u64,
    /// Mutation count of this instance.
    pub epoch: u64,
}

/// Read access to a fact collection, as used by the matchlet engine.
pub trait FactSource {
    /// Facts with the given subject and/or predicate (either may be left
    /// open), regardless of validity.
    fn query<'a>(
        &'a self,
        subject: Option<&'a str>,
        predicate: Option<&'a str>,
    ) -> Box<dyn Iterator<Item = &'a Fact> + 'a>;

    /// Facts valid at `t` with the given subject and/or predicate.
    fn query_at<'a>(
        &'a self,
        subject: Option<&'a str>,
        predicate: Option<&'a str>,
        t: SimTime,
    ) -> Box<dyn Iterator<Item = &'a Fact> + 'a> {
        Box::new(self.query(subject, predicate).filter(move |f| f.valid_at(t)))
    }

    /// Calls `f` for every fact valid at `t` with the given subject
    /// and/or predicate. This is the matcher's inner loop; implementors
    /// with indexed storage can override it to avoid boxing an iterator
    /// per query.
    fn for_each_at(
        &self,
        subject: Option<&str>,
        predicate: Option<&str>,
        t: SimTime,
        f: &mut dyn FnMut(&Fact),
    ) {
        for fact in self.query_at(subject, predicate, t) {
            f(fact);
        }
    }

    /// The store's mutation version, when it maintains a change feed.
    /// `None` (the default) means the source has no incremental support
    /// and consumers must re-read on every use.
    fn version(&self) -> Option<FactsVersion> {
        None
    }

    /// Replays every delta applied after `epoch`, in application order.
    /// Returns `false` when the span is unavailable (no feed, or the log
    /// has been truncated past `epoch`), in which case the consumer must
    /// rebuild from a full read instead.
    fn for_each_delta_since(&self, _epoch: u64, _f: &mut dyn FnMut(&FactDelta)) -> bool {
        false
    }

    /// How many of the source's facts hold only within a bounded
    /// validity window, when it keeps count. While this is `Some(0)`, a
    /// read at one version gives the same facts at every instant. `None`
    /// (the default) means the source cannot tell, and consumers must
    /// assume some fact's validity is bounded.
    fn bounded_facts(&self) -> Option<usize> {
        None
    }
}

/// How many deltas the in-memory store keeps for replay before a
/// consumer that fell this far behind is told to rebuild instead.
const DELTA_LOG_CAP: usize = 4096;

fn fresh_source_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A store's change feed: its mutation count and the deltas for epochs
/// `base + 1 ..= epoch`, oldest first, at most [`DELTA_LOG_CAP`] of them.
#[derive(Debug, Default)]
struct DeltaLog {
    epoch: u64,
    base: u64,
    deltas: VecDeque<FactDelta>,
}

impl DeltaLog {
    fn record(&mut self, delta: FactDelta) {
        self.epoch += 1;
        self.deltas.push_back(delta);
        while self.deltas.len() > DELTA_LOG_CAP {
            self.deltas.pop_front();
            self.base += 1;
        }
    }
}

/// Tombstones are compacted once at least this many have built up…
const COMPACT_MIN_DEAD: usize = 32;
/// …and they outnumber one in this many live facts.
const COMPACT_LIVE_PER_DEAD: usize = 16;

/// An indexed in-memory fact store with a bounded insert/retract delta
/// log (the change feed incremental matchers repair their indexes from).
///
/// Facts live in stable slots, in insertion order; a retracted fact
/// leaves a tombstone (`None`) behind. The subject index holds ascending
/// slot numbers of live facts only; the predicate index holds ascending
/// slot numbers that may still name tombstones, which every read skips.
/// So every read — [`query`](FactSource::query),
/// [`for_each_at`](FactSource::for_each_at),
/// [`by_subject`](Self::by_subject) — yields facts in insertion order,
/// and a retract records its deltas in that order too.
///
/// A write costs what it changes: [`add`](Self::add) appends one slot
/// and copies no name — an index key is the fact's own shared name (a
/// subject or predicate not yet indexed costs only its slot list), and a
/// fact naming one already indexed is switched to the index's copy, so
/// every fact about one subject shares one name; [`retract`](Self::retract) and
/// [`remove_subject`](Self::remove_subject) walk only the subject's slot
/// list, in place, and leave each doomed slot's number in its predicate
/// list as a tombstone. Tombstones are compacted in one order-preserving
/// O(n) remap, which also drops them from the predicate lists, once
/// there are at least 32 of them and more than one per 16 live facts, so
/// no write leaves more than `max(31, len / 16)` behind (in the slots or
/// in the predicate lists) and the amortised cost of a retract does not
/// grow with the store. An index list a retract empties, or leaves
/// holding tombstones only, stays, key and capacity, until that
/// compaction (there are never more of them than tombstones), so
/// replacing a subject's only fact allocates nothing.
#[derive(Debug)]
pub struct InMemoryFacts {
    /// Facts in insertion order; `None` marks a retracted fact.
    slots: Vec<Option<Fact>>,
    /// Number of `Some` slots.
    live: usize,
    /// Live facts with a `valid_from` or `valid_to` bound.
    bounded: usize,
    by_predicate: FnvHashMap<Rc<str>, Vec<usize>>,
    by_subject: FnvHashMap<Rc<str>, Vec<usize>>,
    source: u64,
    log: DeltaLog,
    /// Times a consumer asked for a span the wrapped log no longer holds
    /// and was forced to rebuild from a full read. Previously this
    /// happened silently; surfacing it is what tells an operator the
    /// 4096-delta window is too small for their churn rate.
    truncated_reads: AtomicU64,
}

impl Default for InMemoryFacts {
    fn default() -> Self {
        InMemoryFacts {
            slots: Vec::new(),
            live: 0,
            bounded: 0,
            by_predicate: FnvHashMap::default(),
            by_subject: FnvHashMap::default(),
            source: fresh_source_id(),
            log: DeltaLog::default(),
            truncated_reads: AtomicU64::new(0),
        }
    }
}

impl Clone for InMemoryFacts {
    /// Clones the contents under a *fresh* source id (so a consumer
    /// synced to the original never mistakes the clone's epochs for a
    /// continuation). The delta log is not carried over.
    fn clone(&self) -> Self {
        InMemoryFacts {
            slots: self.slots.clone(),
            live: self.live,
            bounded: self.bounded,
            by_predicate: self.by_predicate.clone(),
            by_subject: self.by_subject.clone(),
            source: fresh_source_id(),
            log: DeltaLog { epoch: self.log.epoch, base: self.log.epoch, deltas: VecDeque::new() },
            truncated_reads: AtomicU64::new(0),
        }
    }
}

impl InMemoryFacts {
    /// Creates an empty store.
    pub fn new() -> Self {
        InMemoryFacts::default()
    }

    /// The store's mutation count.
    pub fn epoch(&self) -> u64 {
        self.log.epoch
    }

    /// How many delta-feed reads failed because the bounded log had
    /// already wrapped past the requested epoch (each one forced a
    /// consumer to rebuild from a full read). A `GlossNode` counts what a
    /// matchlet's read of its store adds here as
    /// `gloss.kb_delta_log_truncated`.
    pub fn delta_log_truncations(&self) -> u64 {
        self.truncated_reads.load(Ordering::Relaxed)
    }

    /// Adds a fact.
    pub fn add(&mut self, mut fact: Fact) {
        let slot = self.slots.len();
        index_push(&mut self.by_predicate, &mut fact.predicate, slot);
        index_push(&mut self.by_subject, &mut fact.subject, slot);
        self.bounded += usize::from(is_bounded(&fact));
        self.slots.push(Some(fact.clone()));
        self.live += 1;
        self.log.record(FactDelta::Insert(fact));
    }

    /// Applies one entry of a change feed: adds an inserted fact, or
    /// [`retract`](Self::retract)s every fact matching a retracted one.
    pub fn apply(&mut self, delta: FactDelta) {
        match delta {
            FactDelta::Insert(fact) => self.add(fact),
            FactDelta::Retract(fact) => {
                self.retract(&fact.subject, &fact.predicate, &fact.object);
            }
        }
    }

    /// `name` as a shared name: the store's own copy when some held fact
    /// has it as subject or predicate (a reference-count bump), a new one
    /// otherwise. Decoders build facts for this store with it, so a fact
    /// about a held subject allocates no name.
    pub fn name(&self, name: &str) -> Rc<str> {
        match self.by_subject.get_key_value(name).or_else(|| self.by_predicate.get_key_value(name))
        {
            Some((held, _)) => Rc::clone(held),
            None => name.into(),
        }
    }

    /// Adds many facts.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for f in facts {
            self.add(f);
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes all facts about a subject (profile update), returning how
    /// many were removed.
    pub fn remove_subject(&mut self, subject: &str) -> usize {
        self.retract_where(subject, |_| true)
    }

    /// Removes every fact whose subject, predicate, and object all match
    /// (object by structural equality; validity bounds are *not*
    /// compared, so windowed variants of the triple go too), returning
    /// how many were removed. The targeted counterpart of
    /// [`remove_subject`](Self::remove_subject) for fact churn.
    pub fn retract(&mut self, subject: &str, predicate: &str, object: &Term) -> usize {
        self.retract_where(subject, |f| *f.predicate == *predicate && f.object == *object)
    }

    /// Retracts the facts about `subject` that `gone` selects, walking
    /// only that subject's slots (ascending, so the `Retract` deltas are
    /// recorded in insertion order). A taken slot's number stays in its
    /// predicate list as a tombstone until [`compact`](Self::compact).
    fn retract_where(&mut self, subject: &str, mut gone: impl FnMut(&Fact) -> bool) -> usize {
        let InMemoryFacts { slots, live, bounded, by_subject, log, .. } = self;
        let Some(held) = by_subject.get_mut(subject) else {
            return 0;
        };
        let before = held.len();
        held.retain(|&slot| {
            let Some(fact) = slots[slot].take_if(|f| gone(f)) else {
                return true;
            };
            *live -= 1;
            *bounded -= usize::from(is_bounded(&fact));
            log.record(FactDelta::Retract(fact));
            false
        });
        let removed = before - held.len();
        let dead = self.slots.len() - self.live;
        if dead >= COMPACT_MIN_DEAD && dead * COMPACT_LIVE_PER_DEAD > self.live {
            self.compact();
        }
        removed
    }

    /// Drops every tombstone, renumbering the survivors in order and
    /// remapping both indexes (which stay ascending, and afterwards name
    /// live slots only), and the index lists left with no live slot.
    fn compact(&mut self) {
        const DEAD: usize = usize::MAX;
        let mut renumbered = vec![DEAD; self.slots.len()];
        let mut next = 0;
        for (old, slot) in self.slots.iter().enumerate() {
            if slot.is_some() {
                renumbered[old] = next;
                next += 1;
            }
        }
        self.slots.retain(Option::is_some);
        let remap = |_: &Rc<str>, held: &mut Vec<usize>| {
            held.retain_mut(|slot| {
                *slot = renumbered[*slot];
                *slot != DEAD
            });
            !held.is_empty()
        };
        self.by_subject.retain(remap);
        self.by_predicate.retain(remap);
    }

    /// Every live fact, in insertion order.
    fn facts(&self) -> impl Iterator<Item = &Fact> {
        self.slots.iter().flatten()
    }

    /// All facts, grouped by subject (for distribution into the store).
    pub fn by_subject(&self) -> BTreeMap<&str, Vec<&Fact>> {
        let mut map: BTreeMap<&str, Vec<&Fact>> = BTreeMap::new();
        for f in self.facts() {
            map.entry(&*f.subject).or_default().push(f);
        }
        map
    }
}

/// Whether a fact's validity is bounded at either end.
fn is_bounded(fact: &Fact) -> bool {
    fact.valid_from.is_some() || fact.valid_to.is_some()
}

/// Appends `slot` to `name`'s list and points `name` at the index's copy;
/// a name not yet indexed becomes the key itself.
fn index_push(index: &mut FnvHashMap<Rc<str>, Vec<usize>>, name: &mut Rc<str>, slot: usize) {
    match index.entry(Rc::clone(name)) {
        Entry::Occupied(mut held) => {
            if !Rc::ptr_eq(held.key(), name) {
                *name = Rc::clone(held.key());
            }
            held.get_mut().push(slot);
        }
        Entry::Vacant(absent) => {
            absent.insert(vec![slot]);
        }
    }
}

impl InMemoryFacts {
    /// The index positions matching a subject/predicate query (the
    /// smaller index wins; subject lists are usually short), or `None`
    /// for an unconstrained query. Positions from the predicate index
    /// may name tombstones, which callers skip. The flag reports whether
    /// candidates still need the predicate checked (only the
    /// subject-indexed arm does; the predicate index already guarantees
    /// it).
    fn candidate_indices(
        &self,
        subject: Option<&str>,
        predicate: Option<&str>,
    ) -> Option<(&[usize], bool)> {
        static EMPTY: &[usize] = &[];
        match (subject, predicate) {
            (Some(s), _) => {
                let idx = self.by_subject.get(s).map_or(EMPTY, Vec::as_slice);
                Some((idx, predicate.is_some()))
            }
            (None, Some(p)) => Some((self.by_predicate.get(p).map_or(EMPTY, Vec::as_slice), false)),
            (None, None) => None,
        }
    }
}

impl FactSource for InMemoryFacts {
    fn query<'a>(
        &'a self,
        subject: Option<&'a str>,
        predicate: Option<&'a str>,
    ) -> Box<dyn Iterator<Item = &'a Fact> + 'a> {
        match self.candidate_indices(subject, predicate) {
            Some((idx, check_predicate)) => {
                Box::new(idx.iter().filter_map(|&i| self.slots[i].as_ref()).filter(move |f| {
                    !check_predicate || predicate.is_none_or(|p| *f.predicate == *p)
                }))
            }
            None => Box::new(self.facts()),
        }
    }

    fn for_each_at(
        &self,
        subject: Option<&str>,
        predicate: Option<&str>,
        t: SimTime,
        f: &mut dyn FnMut(&Fact),
    ) {
        match self.candidate_indices(subject, predicate) {
            Some((idx, check_predicate)) => {
                for fact in idx.iter().filter_map(|&i| self.slots[i].as_ref()) {
                    if (!check_predicate || predicate.is_none_or(|p| *fact.predicate == *p))
                        && fact.valid_at(t)
                    {
                        f(fact);
                    }
                }
            }
            None => {
                for fact in self.facts() {
                    if fact.valid_at(t) {
                        f(fact);
                    }
                }
            }
        }
    }

    fn version(&self) -> Option<FactsVersion> {
        Some(FactsVersion { source: self.source, epoch: self.log.epoch })
    }

    fn bounded_facts(&self) -> Option<usize> {
        Some(self.bounded)
    }

    fn for_each_delta_since(&self, epoch: u64, f: &mut dyn FnMut(&FactDelta)) -> bool {
        let log = &self.log;
        if epoch < log.base {
            // The bounded log wrapped past the consumer: it must rebuild.
            self.truncated_reads.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if epoch > log.epoch {
            return false;
        }
        for d in log.deltas.iter().skip((epoch - log.base) as usize) {
            f(d);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> InMemoryFacts {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "nationality", Term::str("scottish")));
        kb.add(Fact::new("anna", "likes", Term::str("coffee")));
        kb.add(Fact::new("bob", "knows", Term::str("anna")));
        kb.add(
            Fact::new("bob", "on_holiday", Term::Bool(true))
                .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        kb
    }

    #[test]
    fn query_combinations() {
        let kb = kb();
        assert_eq!(kb.query(Some("bob"), Some("likes")).count(), 1);
        assert_eq!(kb.query(Some("bob"), None).count(), 4);
        assert_eq!(kb.query(None, Some("likes")).count(), 2);
        assert_eq!(kb.query(None, None).count(), 5);
        assert_eq!(kb.query(Some("zoe"), None).count(), 0);
    }

    #[test]
    fn validity_intervals() {
        let kb = kb();
        let at = |s| kb.query_at(Some("bob"), Some("on_holiday"), SimTime::from_secs(s)).count();
        assert_eq!(at(50), 0);
        assert_eq!(at(100), 1);
        assert_eq!(at(199), 1);
        assert_eq!(at(200), 0, "end is exclusive");
    }

    #[test]
    fn remove_subject_reindexes() {
        let mut kb = kb();
        assert_eq!(kb.remove_subject("bob"), 4);
        assert_eq!(kb.query(Some("bob"), None).count(), 0);
        assert_eq!(kb.query(None, Some("likes")).count(), 1);
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn term_accessors_and_equality() {
        assert!(Term::Int(3).eq_term(&Term::Float(3.0)));
        assert!(!Term::Int(3).eq_term(&Term::str("3")));
        assert_eq!(Term::str("x").as_str(), Some("x"));
        assert_eq!(Term::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Term::Bool(true).as_bool(), Some(true));
        let g = GeoPoint::new(56.0, -3.0);
        assert_eq!(Term::Geo(g).as_geo(), Some(g));
        assert_eq!(Term::Time(SimTime::from_secs(2)).as_f64(), Some(2.0));
    }

    #[test]
    fn by_subject_grouping() {
        let kb = kb();
        let groups = kb.by_subject();
        assert_eq!(groups["bob"].len(), 4);
        assert_eq!(groups["anna"].len(), 1);
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::str("a").to_string(), "\"a\"");
        assert_eq!(Term::Int(4).to_string(), "4");
        assert_eq!(Fact::new("a", "b", Term::Int(1)).to_string(), "a b 1");
    }

    #[test]
    fn delta_feed_replays_mutations_in_order() {
        let mut kb = InMemoryFacts::new();
        let v0 = kb.version().unwrap();
        assert_eq!(v0.epoch, 0);
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "likes", Term::str("golf")));
        assert_eq!(kb.retract("bob", "likes", &Term::str("golf")), 1);
        assert_eq!(kb.version().unwrap().epoch, 3);
        let mut seen = Vec::new();
        assert!(kb.for_each_delta_since(0, &mut |d| seen.push(d.clone())));
        assert_eq!(seen.len(), 3);
        assert!(matches!(&seen[0], FactDelta::Insert(f) if f.object.as_str() == Some("ice cream")));
        assert!(matches!(&seen[2], FactDelta::Retract(f) if f.object.as_str() == Some("golf")));
        // Mid-stream replay only sees the tail.
        let mut tail = Vec::new();
        assert!(kb.for_each_delta_since(2, &mut |d| tail.push(d.clone())));
        assert_eq!(tail.len(), 1);
        // A future epoch is unavailable.
        assert!(!kb.for_each_delta_since(99, &mut |_| {}));
    }

    #[test]
    fn remove_subject_emits_one_retract_per_fact() {
        let mut kb = kb();
        let e = kb.epoch();
        assert_eq!(kb.remove_subject("bob"), 4);
        let mut retracts = 0;
        assert!(kb.for_each_delta_since(e, &mut |d| {
            assert!(matches!(d, FactDelta::Retract(f) if &*f.subject == "bob"));
            retracts += 1;
        }));
        assert_eq!(retracts, 4);
        // Retracting nothing does not advance the epoch.
        assert_eq!(kb.retract("zoe", "likes", &Term::str("x")), 0);
        assert_eq!(kb.epoch(), e + 4);
    }

    #[test]
    fn targeted_retract_splices_indexes() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("a", "p", Term::Int(1)));
        kb.add(Fact::new("b", "p", Term::Int(2)));
        kb.add(Fact::new("a", "q", Term::Int(3)));
        kb.add(Fact::new("c", "p", Term::Int(4)));
        assert_eq!(kb.retract("b", "p", &Term::Int(2)), 1);
        // Shifted survivors still resolve through both indexes.
        assert_eq!(kb.query(Some("a"), Some("q")).next().unwrap().object, Term::Int(3));
        assert_eq!(kb.query(None, Some("p")).count(), 2);
        assert_eq!(kb.query(Some("c"), None).count(), 1);
        // Subsequent adds land on correct positions after the splice.
        kb.add(Fact::new("d", "p", Term::Int(5)));
        assert_eq!(kb.query(None, Some("p")).count(), 3);
        assert_eq!(kb.query(Some("d"), Some("p")).count(), 1);
        // Validity bounds are not part of the match: the windowed
        // variant of the triple is retracted along with the plain one.
        kb.add(
            Fact::new("d", "p", Term::Int(5))
                .valid_between(SimTime::from_secs(1), SimTime::from_secs(2)),
        );
        assert_eq!(kb.retract("d", "p", &Term::Int(5)), 2);
        assert_eq!(kb.query(Some("d"), None).count(), 0);
    }

    #[test]
    fn added_facts_share_the_names_the_store_holds() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("tea")));
        kb.add(Fact::new("bob", "likes", Term::str("golf")));
        kb.add(Fact::new("anna", "knows", Term::str("bob")));
        let (bob, likes) = (kb.name("bob"), kb.name("likes"));
        assert!(Rc::ptr_eq(&bob, &kb.name("bob")), "a held subject is handed back");
        assert!(Rc::ptr_eq(&likes, &kb.name("likes")), "so is a held predicate");
        assert!(!Rc::ptr_eq(&kb.name("zoe"), &kb.name("zoe")), "a name held nowhere is new");
        for f in kb.query(Some("bob"), None) {
            assert!(Rc::ptr_eq(&f.subject, &bob) && Rc::ptr_eq(&f.predicate, &likes), "{f}");
        }
        let mut logged = 0;
        kb.for_each_delta_since(0, &mut |d| {
            let f = d.fact();
            logged += usize::from(Rc::ptr_eq(&f.subject, &bob) && Rc::ptr_eq(&f.predicate, &likes));
        });
        assert_eq!(logged, 2, "the delta log shares the slots' names");
        // A subject emptied by retracts keeps its key until compaction.
        kb.remove_subject("bob");
        kb.add(Fact::new("bob", "likes", Term::str("tea")));
        assert!(Rc::ptr_eq(&kb.name("bob"), &bob), "an emptied subject keeps its key");
        kb.extend((0..40).map(|i| Fact::new("tmp", "n", Term::Int(i))));
        assert_eq!(kb.remove_subject("tmp"), 40, "enough tombstones to compact");
        assert!(!Rc::ptr_eq(&kb.name("tmp"), &kb.name("tmp")), "compaction drops it");
        assert!(!Rc::ptr_eq(&kb.name("n"), &kb.name("n")), "and an emptied predicate");
    }

    #[test]
    fn predicate_lists_keep_tombstones_only_until_compaction() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("anna", "at", Term::Int(0)));
        let at = kb.name("at");
        // The `likes` objects both predicate-only reads yield.
        let likes = |kb: &InMemoryFacts| {
            let mut seen = Vec::new();
            kb.for_each_at(None, Some("likes"), SimTime::ZERO, &mut |f| {
                seen.push(f.object.clone())
            });
            let queried: Vec<Term> =
                kb.query(None, Some("likes")).map(|f| f.object.clone()).collect();
            assert_eq!(seen, queried);
            seen
        };
        kb.extend((0..40).map(|i| Fact::new(format!("u{i}"), "likes", Term::Int(i))));
        for i in (0..40).step_by(2) {
            assert_eq!(kb.retract(&format!("u{i}"), "likes", &Term::Int(i)), 1);
        }
        // Twenty tombstones: too few to compact, so the list keeps them.
        assert_eq!(kb.by_predicate["likes"].len(), 40);
        let odd: Vec<Term> = (1..40).step_by(2).map(Term::Int).collect();
        assert_eq!(likes(&kb), odd, "no retracted fact is read back");
        // A list holding tombstones only keeps its key and its name.
        assert_eq!(kb.retract("anna", "at", &Term::Int(0)), 1);
        assert_eq!(kb.by_predicate["at"].len(), 1);
        assert_eq!(kb.query(None, Some("at")).count(), 0);
        assert!(Rc::ptr_eq(&kb.name("at"), &at), "a tombstoned predicate keeps its key");
        // Eleven more make 32, the compaction threshold.
        for i in (1..22).step_by(2) {
            assert_eq!(kb.retract(&format!("u{i}"), "likes", &Term::Int(i)), 1);
        }
        assert_eq!(kb.slots.len(), kb.len(), "compacted");
        for held in kb.by_predicate.values().chain(kb.by_subject.values()) {
            assert!(held.iter().all(|&slot| kb.slots[slot].is_some()), "live slots only");
            assert!(held.windows(2).all(|w| w[0] < w[1]), "still ascending");
        }
        assert!(!kb.by_predicate.contains_key("at"), "compaction drops the dead list");
        let left: Vec<Term> = (23..40).step_by(2).map(Term::Int).collect();
        assert_eq!(likes(&kb), left);
        // Tombstones built after a compaction are skipped the same way.
        assert_eq!(kb.retract("u23", "likes", &Term::Int(23)), 1);
        assert_eq!(likes(&kb), left[1..]);
    }

    #[test]
    fn bounded_facts_are_counted_while_they_live() {
        let mut kb = kb();
        assert_eq!(kb.bounded_facts(), Some(1), "bob's holiday");
        let window = (SimTime::from_secs(1), SimTime::from_secs(2));
        kb.add(Fact::new("anna", "at", Term::str("home")).valid_between(window.0, window.1));
        kb.add(Fact { valid_from: Some(window.0), ..Fact::new("anna", "at", Term::str("work")) });
        assert_eq!(kb.bounded_facts(), Some(3), "a bound at either end counts");
        assert_eq!(kb.clone().bounded_facts(), Some(3));
        assert_eq!(kb.retract("anna", "at", &Term::str("home")), 1);
        assert_eq!(kb.bounded_facts(), Some(2));
        assert_eq!(kb.remove_subject("bob"), 4);
        assert_eq!(kb.remove_subject("anna"), 2);
        assert_eq!(kb.bounded_facts(), Some(0), "only unbounded facts are left");
    }

    #[test]
    fn clones_get_a_fresh_source_id_and_empty_log() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        let twin = kb.clone();
        assert_ne!(kb.version().unwrap().source, twin.version().unwrap().source);
        // The clone's history is unavailable: consumers must rebuild.
        assert!(!twin.for_each_delta_since(0, &mut |_| {}));
        assert_eq!(twin.len(), 1);
    }

    #[test]
    fn overflowing_log_reports_truncation() {
        let mut kb = InMemoryFacts::new();
        for i in 0..(super::DELTA_LOG_CAP + 10) {
            kb.add(Fact::new(format!("s{i}"), "p", Term::Int(i as i64)));
        }
        assert!(!kb.for_each_delta_since(0, &mut |_| {}), "oldest span truncated");
        let recent = kb.epoch() - 5;
        let mut n = 0;
        assert!(kb.for_each_delta_since(recent, &mut |_| n += 1));
        assert_eq!(n, 5);
    }

    #[test]
    fn truncated_reads_are_counted_not_silent() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("s", "p", Term::Int(0)));
        assert_eq!(kb.delta_log_truncations(), 0);
        // In-window reads never count, even at the exact log base.
        assert!(kb.for_each_delta_since(0, &mut |_| {}));
        assert_eq!(kb.delta_log_truncations(), 0);
        // Wrap the bounded log: epoch 0 now precedes the log base by one.
        for i in 0..super::DELTA_LOG_CAP {
            kb.add(Fact::new(format!("s{i}"), "p", Term::Int(i as i64)));
        }
        assert!(!kb.for_each_delta_since(0, &mut |_| {}));
        assert_eq!(kb.delta_log_truncations(), 1, "wrapped read counted");
        assert!(kb.for_each_delta_since(1, &mut |_| {}), "log base itself still replays");
        // A *future* epoch is unavailable but not a truncation.
        assert!(!kb.for_each_delta_since(kb.epoch() + 1, &mut |_| {}));
        assert_eq!(kb.delta_log_truncations(), 1);
    }
}
