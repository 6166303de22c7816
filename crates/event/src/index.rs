//! Counting-based attribute index over subscription filters.
//!
//! The broker's matching problem is: given an event, find every stored
//! filter whose *every* constraint is satisfied. [`FilterIndex`] solves it
//! the SIENA way — decompose each filter into per-attribute constraint
//! buckets, let the event's attributes probe only the buckets they can
//! satisfy, and count satisfied constraints per filter — with the
//! forwarding-table refinement of Carzaniga & Wolf ("Forwarding in a
//! Content-Based Network", SIGCOMM 2003): a filter is *selected* by its
//! most selective constraints and the rest are *verified* on the few
//! candidates that survive. Matching cost follows the candidates, not the
//! constraints the event touches.
//!
//! Bucket layout per attribute:
//!
//! | operator               | structure                       | probe cost      | holds                       |
//! |------------------------|---------------------------------|-----------------|-----------------------------|
//! | `Eq` (string)          | hash map on the operand         | O(1)            | every filter                |
//! | `Eq` (numeric)         | hash map on canonical f64 bits  | O(1)            | every filter                |
//! | `Eq` (bool)            | two buckets                     | O(1)            | every filter                |
//! | `Prefix`               | byte trie on the pattern        | O(len + hits)   | every filter                |
//! | `Gt`/`Ge` (numeric)    | sorted boundary map (lower)     | O(log n + hits) | filters with no point above |
//! | `Lt`/`Le` (numeric)    | sorted boundary map (upper)     | O(log n + hits) | filters with no point above |
//! | everything else        | linear fallback list            | O(list)         | filters with no point above |
//!
//! **What is counted.** The first four rows are the *point-selective*
//! constraints: an event value satisfies a handful of them, however many
//! are stored. A filter that has at least one is entered in those buckets
//! only, and its counter target is the number of them. A filter that has
//! none is entered under every constraint it has — ranges in the boundary
//! maps, `Suffix`/`Contains`/`Ne`/`Exists` and the rare non-numeric
//! ordering constraints in the fallback list, which is scanned only when
//! the event carries the attribute — and its target is its constraint
//! total. Constraints no value can ever satisfy (string operators with a
//! non-string operand, comparisons against `NaN`) are entered nowhere, so
//! such a filter's counter never reaches its total: the linear scan's
//! verdict.
//!
//! **What is verified.** A filter whose counter filled is a candidate. If
//! it was selected by its point constraints, its remaining constraints
//! (ranges, fallback operators, never-satisfiable ones) are now checked
//! with [`Constraint::matches_value`] against the event's own attribute —
//! a range floor at or below the event's value is half of every table, so
//! counting it would touch half of every table per probe to confirm a
//! handful of matches.
//!
//! **Kind narrows the count; it is decided per candidate.** Kind is not a
//! counted constraint (counting it would make every publication touch
//! every same-kind subscription, the hot-topic blow-up this index exists
//! to avoid) and not a bucket key (one bucket set per kind costs a map
//! per attribute per kind). Instead every bucket entry carries a 32-bit
//! tag of its filter's kind — `0` when the filter has none — and a probe
//! counts only the entries tagged with the event kind's tag or with `0`.
//! A `zone = 3` bucket shared by eight alert kinds then costs an event
//! the entries of its own kind, not all eight. A tag is a hash, so two
//! kinds can share one; the exact kind comparison on each candidate
//! stays, and a collision costs a wasted count, never a wrong match. A
//! query with no kind (covering queries) has tag `0` and counts only
//! kindless filters, which are the only ones that can cover it. The only
//! filters selected without a constraint probe are the zero-constraint
//! ones (tracked in dedicated kind/universal lists — those genuinely
//! match every event of their kind).
//!
//! **Storage.** Entries live in a slab addressed by a dense `u32` slot;
//! buckets and the trie hold `(kind tag, slot)` members, the
//! kind/universal lists hold slots, one map takes a `SubId` to its slot,
//! and freed slots are reused. Counters are an epoch-stamped array over
//! the slots plus the list of slots touched, and a probe's matches are
//! collected in a hit list; all three are kept in the index and reused,
//! so [`FilterIndex::for_each_match`] allocates nothing, and
//! [`FilterIndex::matching_event`] only the vector it returns.
//!
//! The same structure answers *covering* queries for the broker's forward
//! tables: for a filter made of distinct-attribute `Eq` constraints,
//! "which stored filters cover it" is exactly "which stored filters match
//! the event formed by its operands" (see [`FilterIndex::covering_ids`]).

use crate::broker::SubId;
use crate::filter::{Constraint, Filter, Op, Subscription};
use crate::notification::Event;
use crate::value::AttrValue;
use gloss_sim::{fnv1a, FnvHashMap};
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;

/// Position of an entry in the slab.
type Slot = u32;

/// A kind folded to 32 bits for bucket members: `0` for no kind, an odd
/// number for any kind. Distinct kinds may share a tag.
fn kind_tag(kind: Option<&str>) -> u32 {
    kind.map_or(0, |k| fnv1a(k.as_bytes()) as u32 | 1)
}

/// One bucket entry: a stored constraint's slot, tagged with its filter's
/// [`kind_tag`].
#[derive(Debug, Clone, Copy)]
struct Member {
    kind: u32,
    slot: Slot,
}

impl Member {
    /// Whether a probe under kind tag `tag` counts this member: the
    /// filter has that tag, or no kind at all.
    fn counts_for(self, tag: u32) -> bool {
        self.kind == tag || self.kind == 0
    }
}

#[derive(Debug, Clone)]
struct Entry {
    sub: Subscription,
    /// Insertion sequence; match results are returned in this order so
    /// the indexed broker emits notifications in table order, exactly
    /// like the linear scan it replaces.
    seq: u64,
    /// Number of counted constraints (the counter target): the point
    /// constraints when the filter has any — the rest are then verified
    /// once the counter fills — else all of them.
    required: u32,
}

/// Where one constraint is indexed.
enum Place<'a> {
    EqStr(&'a str),
    EqNum(f64),
    EqBool(bool),
    /// `Gt`/`Ge` with a numeric operand; `strict` for `Gt`.
    Lower {
        bound: f64,
        strict: bool,
    },
    /// `Lt`/`Le` with a numeric operand; `strict` for `Lt`.
    Upper {
        bound: f64,
        strict: bool,
    },
    Prefix(&'a str),
    /// Evaluated by `matches_value` when the event carries the attribute.
    Fallback,
    /// No value can satisfy this constraint; leave it unindexed so its
    /// filter's counter can never reach `required`.
    Never,
}

impl Place<'_> {
    /// Whether one event value satisfies only a handful of the stored
    /// constraints of this class, however many are stored.
    fn is_point(&self) -> bool {
        matches!(self, Place::EqStr(_) | Place::EqNum(_) | Place::EqBool(_) | Place::Prefix(_))
    }
}

fn classify(c: &Constraint) -> Place<'_> {
    match (c.op, &c.value) {
        (Op::Eq, AttrValue::Str(s)) => Place::EqStr(s),
        (Op::Eq, AttrValue::Bool(b)) => Place::EqBool(*b),
        (Op::Eq, v) => match v.as_number() {
            Some(x) if !x.is_nan() => Place::EqNum(x),
            _ => Place::Never,
        },
        (Op::Lt | Op::Le, AttrValue::Int(_) | AttrValue::Float(_)) => match c.value.as_number() {
            Some(x) if !x.is_nan() => Place::Upper { bound: x, strict: c.op == Op::Lt },
            _ => Place::Never,
        },
        (Op::Gt | Op::Ge, AttrValue::Int(_) | AttrValue::Float(_)) => match c.value.as_number() {
            Some(x) if !x.is_nan() => Place::Lower { bound: x, strict: c.op == Op::Gt },
            _ => Place::Never,
        },
        (Op::Prefix, v) => match v.as_str() {
            Some(s) => Place::Prefix(s),
            None => Place::Never,
        },
        (Op::Suffix | Op::Contains, v) => match v.as_str() {
            Some(_) => Place::Fallback,
            None => Place::Never,
        },
        (Op::Ne, v) => match v.as_number() {
            Some(x) if x.is_nan() => Place::Never,
            _ => Place::Fallback,
        },
        // String/bool ordering, Exists.
        _ => Place::Fallback,
    }
}

/// The constraints a filter is counted by, with their positions: its
/// point constraints when it has any (the rest are verified on the
/// candidates), else all of them.
fn counted(f: &Filter) -> impl Iterator<Item = (usize, &Constraint, Place<'_>)> {
    let selective = f.constraints().iter().any(|c| classify(c).is_point());
    f.constraints()
        .iter()
        .enumerate()
        .map(|(ci, c)| (ci, c, classify(c)))
        .filter(move |(_, _, place)| !selective || place.is_point())
}

/// Canonical hash key for a finite numeric operand: `Int` and `Float`
/// compare numerically, so both map through `f64`; `-0.0` folds onto
/// `0.0` (they compare equal).
fn num_key(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    x.to_bits()
}

/// Order-preserving bit transform for finite floats, so boundary maps can
/// use a plain `BTreeMap<u64, _>`.
fn ord_key(x: f64) -> u64 {
    let b = num_key(x);
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One boundary value's constraint lists in a sorted boundary map.
#[derive(Debug, Clone, Default)]
struct Boundary {
    /// Strict comparisons (`Gt` in the lower map, `Lt` in the upper map).
    strict: Vec<Member>,
    /// Inclusive comparisons (`Ge` / `Le`).
    incl: Vec<Member>,
}

impl Boundary {
    fn is_empty(&self) -> bool {
        self.strict.is_empty() && self.incl.is_empty()
    }
}

/// Byte trie over `Prefix` patterns: walking an event string's bytes
/// visits exactly the nodes of its satisfied prefixes.
#[derive(Debug, Clone, Default)]
struct Trie {
    /// Constraints whose pattern ends at this node.
    members: Vec<Member>,
    children: FnvHashMap<u8, Trie>,
}

impl Trie {
    fn insert(&mut self, pat: &[u8], m: Member) {
        let mut node = self;
        for &b in pat {
            node = node.children.entry(b).or_default();
        }
        node.members.push(m);
    }

    /// Removes one occurrence path, pruning nodes left empty.
    fn remove(&mut self, pat: &[u8], slot: Slot) {
        match pat.split_first() {
            None => {
                if let Some(pos) = self.members.iter().position(|m| m.slot == slot) {
                    self.members.remove(pos);
                }
            }
            Some((b, rest)) => {
                if let Some(child) = self.children.get_mut(b) {
                    child.remove(rest, slot);
                    if child.is_empty() {
                        self.children.remove(b);
                    }
                }
            }
        }
    }

    /// Calls `f` with the member list of every node on `s`'s path: the
    /// patterns `s` starts with.
    fn visit(&self, s: &[u8], f: &mut impl FnMut(&[Member])) {
        let mut node = self;
        f(&node.members);
        for b in s {
            match node.children.get(b) {
                Some(child) => node = child,
                None => return,
            }
            f(&node.members);
        }
    }

    fn is_empty(&self) -> bool {
        self.members.is_empty() && self.children.is_empty()
    }
}

/// Per-attribute constraint buckets.
#[derive(Debug, Clone, Default)]
struct AttrBuckets {
    eq_str: FnvHashMap<String, Vec<Member>>,
    eq_num: FnvHashMap<u64, Vec<Member>>,
    eq_bool: [Vec<Member>; 2],
    prefix: Trie,
    /// `Gt`/`Ge` boundaries, keyed by [`ord_key`] of the bound.
    lower: BTreeMap<u64, Boundary>,
    /// `Lt`/`Le` boundaries, keyed by [`ord_key`] of the bound.
    upper: BTreeMap<u64, Boundary>,
    /// `(entry, constraint position)` pairs evaluated directly.
    fallback: Vec<(Member, u32)>,
}

impl AttrBuckets {
    fn is_empty(&self) -> bool {
        self.eq_str.is_empty()
            && self.eq_num.is_empty()
            && self.eq_bool[0].is_empty()
            && self.eq_bool[1].is_empty()
            && self.prefix.is_empty()
            && self.lower.is_empty()
            && self.upper.is_empty()
            && self.fallback.is_empty()
    }
}

fn remove_from(v: &mut Vec<Member>, slot: Slot) {
    v.retain(|m| m.slot != slot);
}

/// Appends `item` to the list under `key`, copying the key only when the
/// list is new.
fn push_under<T>(map: &mut FnvHashMap<String, Vec<T>>, key: &str, item: T) {
    match map.get_mut(key) {
        Some(v) => v.push(item),
        None => {
            map.insert(key.to_string(), vec![item]);
        }
    }
}

/// Per-probe working state, kept between probes so that a probe
/// allocates nothing once the vectors have grown to the working size.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The current probe's stamp; a cell stamped otherwise is stale,
    /// which is what makes clearing the counters free.
    epoch: u32,
    /// Per slot: `(stamp, satisfied constraints counted under that stamp)`.
    cells: Vec<(u32, u32)>,
    /// Slots counted at least once by the current probe.
    touched: Vec<Slot>,
    /// The current probe's matches as `(seq, id)`, for ordering.
    hits: Vec<(u64, SubId)>,
}

impl Scratch {
    fn begin(&mut self) {
        self.touched.clear();
        self.hits.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from the previous cycle would read as current.
            self.cells.fill((0, 0));
            self.epoch = 1;
        }
    }

    fn bump(&mut self, slot: Slot) {
        let cell = &mut self.cells[slot as usize];
        if cell.0 == self.epoch {
            cell.1 += 1;
        } else {
            *cell = (self.epoch, 1);
            self.touched.push(slot);
        }
    }

    /// Counts the members a probe under kind tag `tag` can match.
    fn count(&mut self, tag: u32, members: &[Member]) {
        for m in members {
            if m.counts_for(tag) {
                self.bump(m.slot);
            }
        }
    }
}

/// The counting index over a set of subscriptions.
///
/// Duplicate ids are rejected ([`insert`](Self::insert) returns `false`);
/// beyond that any mix of filters is accepted, including unsatisfiable
/// ones (they are stored, forwarded, audited — they just never match,
/// exactly as under a linear scan).
#[derive(Debug, Clone, Default)]
pub struct FilterIndex {
    /// Entries by slot; `None` marks a slot on the free list.
    slab: Vec<Option<Entry>>,
    free: Vec<Slot>,
    slot_of: FnvHashMap<SubId, Slot>,
    attrs: FnvHashMap<String, AttrBuckets>,
    /// Zero-constraint filters restricted to a kind: they match every
    /// event of that kind, with no constraint to count.
    kind_only: FnvHashMap<String, Vec<Slot>>,
    /// Zero-constraint, kindless filters: they match everything.
    universal: Vec<Slot>,
    next_seq: u64,
    /// Probes take `&self`; the counters they reuse are interior state.
    scratch: RefCell<Scratch>,
}

impl FilterIndex {
    /// An empty index.
    pub fn new() -> Self {
        FilterIndex::default()
    }

    /// Number of stored subscriptions.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Whether `id` is stored.
    pub fn contains(&self, id: SubId) -> bool {
        self.slot_of.contains_key(&id)
    }

    fn entry(&self, slot: Slot) -> &Entry {
        self.slab[slot as usize].as_ref().expect("an indexed slot holds an entry")
    }

    /// The stored subscription with this id.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        self.slot_of.get(&id).map(|&slot| &self.entry(slot).sub)
    }

    /// Stored subscriptions in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.slab.iter().flatten().map(|e| &e.sub)
    }

    /// Stored subscriptions in insertion order.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &Subscription> {
        let mut v: Vec<&Entry> = self.slab.iter().flatten().collect();
        v.sort_unstable_by_key(|e| e.seq);
        v.into_iter().map(|e| &e.sub)
    }

    /// Indexes a subscription. Returns `false` (and stores nothing) if the
    /// id is already present.
    pub fn insert(&mut self, sub: Subscription) -> bool {
        if self.slot_of.contains_key(&sub.id) {
            return false;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = Slot::try_from(self.slab.len()).expect("fewer than 2^32 slots");
            self.slab.push(None);
            self.scratch.get_mut().cells.push((0, 0));
            slot
        });
        let m = Member { kind: kind_tag(sub.filter.kind()), slot };
        let mut required = 0;
        for (ci, c, place) in counted(&sub.filter) {
            required += 1;
            if matches!(place, Place::Never) {
                continue;
            }
            if !self.attrs.contains_key(&c.attr) {
                self.attrs.insert(c.attr.clone(), AttrBuckets::default());
            }
            let b = self.attrs.get_mut(&c.attr).expect("just ensured");
            match place {
                Place::EqStr(s) => push_under(&mut b.eq_str, s, m),
                Place::EqNum(x) => b.eq_num.entry(num_key(x)).or_default().push(m),
                Place::EqBool(v) => b.eq_bool[v as usize].push(m),
                Place::Lower { bound, strict } => {
                    let bo = b.lower.entry(ord_key(bound)).or_default();
                    if strict { &mut bo.strict } else { &mut bo.incl }.push(m);
                }
                Place::Upper { bound, strict } => {
                    let bo = b.upper.entry(ord_key(bound)).or_default();
                    if strict { &mut bo.strict } else { &mut bo.incl }.push(m);
                }
                Place::Prefix(s) => b.prefix.insert(s.as_bytes(), m),
                Place::Fallback => b.fallback.push((m, ci as u32)),
                Place::Never => unreachable!(),
            }
        }
        if sub.filter.constraints().is_empty() {
            match sub.filter.kind() {
                Some(k) => push_under(&mut self.kind_only, k, slot),
                None => self.universal.push(slot),
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slot_of.insert(sub.id, slot);
        self.slab[slot as usize] = Some(Entry { sub, seq, required });
        true
    }

    /// Removes a subscription, returning it.
    pub fn remove(&mut self, id: SubId) -> Option<Subscription> {
        let slot = self.slot_of.remove(&id)?;
        let e = self.slab[slot as usize].take().expect("an indexed slot holds an entry");
        self.free.push(slot);
        for (_, c, place) in counted(&e.sub.filter) {
            if matches!(place, Place::Never) {
                continue;
            }
            let Some(b) = self.attrs.get_mut(&c.attr) else { continue };
            match place {
                Place::EqStr(s) => {
                    if let Some(v) = b.eq_str.get_mut(s) {
                        remove_from(v, slot);
                        if v.is_empty() {
                            b.eq_str.remove(s);
                        }
                    }
                }
                Place::EqNum(x) => {
                    let k = num_key(x);
                    if let Some(v) = b.eq_num.get_mut(&k) {
                        remove_from(v, slot);
                        if v.is_empty() {
                            b.eq_num.remove(&k);
                        }
                    }
                }
                Place::EqBool(v) => remove_from(&mut b.eq_bool[v as usize], slot),
                Place::Lower { bound, strict } => {
                    let k = ord_key(bound);
                    if let Some(bo) = b.lower.get_mut(&k) {
                        remove_from(if strict { &mut bo.strict } else { &mut bo.incl }, slot);
                        if bo.is_empty() {
                            b.lower.remove(&k);
                        }
                    }
                }
                Place::Upper { bound, strict } => {
                    let k = ord_key(bound);
                    if let Some(bo) = b.upper.get_mut(&k) {
                        remove_from(if strict { &mut bo.strict } else { &mut bo.incl }, slot);
                        if bo.is_empty() {
                            b.upper.remove(&k);
                        }
                    }
                }
                Place::Prefix(s) => b.prefix.remove(s.as_bytes(), slot),
                Place::Fallback => b.fallback.retain(|(m, _)| m.slot != slot),
                Place::Never => unreachable!(),
            }
            if b.is_empty() {
                self.attrs.remove(&c.attr);
            }
        }
        if e.sub.filter.constraints().is_empty() {
            match e.sub.filter.kind() {
                Some(k) => {
                    if let Some(v) = self.kind_only.get_mut(k) {
                        v.retain(|x| *x != slot);
                        if v.is_empty() {
                            self.kind_only.remove(k);
                        }
                    }
                }
                None => self.universal.retain(|x| *x != slot),
            }
        }
        Some(e.sub)
    }

    /// One probe: `attrs` walks the event's attributes (distinct names),
    /// `get` reads one of them by name for the verified constraints. The
    /// matches, as `(seq, id)` in insertion order, are left in the
    /// scratch hit list, which stays borrowed while the caller reads it.
    fn probe<'a>(
        &self,
        kind: Option<&str>,
        attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>,
        get: impl Fn(&str) -> Option<&'a AttrValue>,
    ) -> RefMut<'_, [(u64, SubId)]> {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        s.begin();
        let tag = kind_tag(kind);
        for (name, value) in attrs {
            let Some(b) = self.attrs.get(name) else { continue };
            match value {
                AttrValue::Str(v) => {
                    if let Some(members) = b.eq_str.get(v.as_ref()) {
                        s.count(tag, members);
                    }
                    b.prefix.visit(v.as_bytes(), &mut |members| s.count(tag, members));
                }
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let x = value.as_number().expect("numeric");
                    // NaN compares with nothing: only the fallback list
                    // (where `Exists` lives) can be satisfied.
                    if !x.is_nan() {
                        if let Some(members) = b.eq_num.get(&num_key(x)) {
                            s.count(tag, members);
                        }
                        let k = ord_key(x);
                        for (&bk, bo) in b.lower.range(..=k) {
                            s.count(tag, &bo.incl);
                            if bk != k {
                                s.count(tag, &bo.strict);
                            }
                        }
                        for (&bk, bo) in b.upper.range(k..) {
                            s.count(tag, &bo.incl);
                            if bk != k {
                                s.count(tag, &bo.strict);
                            }
                        }
                    }
                }
                AttrValue::Bool(v) => s.count(tag, &b.eq_bool[*v as usize]),
            }
            for &(m, ci) in &b.fallback {
                if m.counts_for(tag)
                    && self.entry(m.slot).sub.filter.constraints()[ci as usize].matches_value(value)
                {
                    s.bump(m.slot);
                }
            }
        }
        for &slot in &s.touched {
            let e = self.entry(slot);
            let f = &e.sub.filter;
            // The exact kind: a counted member only shared the kind's tag.
            if s.cells[slot as usize].1 != e.required || f.kind().is_some_and(|k| kind != Some(k)) {
                continue;
            }
            // Every constraint was counted, or the uncounted ones hold.
            let holds = |c: &Constraint| {
                classify(c).is_point() || get(&c.attr).is_some_and(|v| c.matches_value(v))
            };
            if e.required as usize == f.constraints().len() || f.constraints().iter().all(holds) {
                s.hits.push((e.seq, e.sub.id));
            }
        }
        let unconstrained = kind.and_then(|k| self.kind_only.get(k)).into_iter().flatten();
        for &slot in unconstrained.chain(&self.universal) {
            let e = self.entry(slot);
            s.hits.push((e.seq, e.sub.id));
        }
        s.hits.sort_unstable();
        RefMut::map(scratch, |s| s.hits.as_mut_slice())
    }

    /// Ids of subscriptions matching an event with the given kind and
    /// attributes (distinct names), in insertion order. `kind: None` means
    /// "no kind": only kind-unrestricted filters can pass (used by
    /// covering queries; events always carry a kind).
    pub fn matching<'a>(
        &self,
        kind: Option<&str>,
        attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>,
    ) -> Vec<SubId> {
        let pairs: Vec<(&str, &AttrValue)> = attrs.collect();
        self.matching_pairs(kind, &pairs)
    }

    fn matching_pairs(&self, kind: Option<&str>, pairs: &[(&str, &AttrValue)]) -> Vec<SubId> {
        let hits = self.probe(kind, pairs.iter().copied(), |name| {
            pairs.iter().find(|(a, _)| *a == name).map(|&(_, v)| v)
        });
        hits.iter().map(|&(_, id)| id).collect()
    }

    /// Ids of subscriptions matching `event`, in insertion order. Agrees
    /// exactly with scanning every stored filter through
    /// [`Filter::matches`].
    pub fn matching_event(&self, event: &Event) -> Vec<SubId> {
        self.probe_event(event).iter().map(|&(_, id)| id).collect()
    }

    /// Calls `f` with the id of every subscription matching `event`, in
    /// insertion order — [`matching_event`](Self::matching_event) without
    /// the vector: the matches are read from the index's own reused hit
    /// list. `f` must not probe this index (the hit list is borrowed
    /// while it runs; a nested probe panics).
    pub fn for_each_match(&self, event: &Event, mut f: impl FnMut(SubId)) {
        for &(_, id) in self.probe_event(event).iter() {
            f(id);
        }
    }

    fn probe_event(&self, event: &Event) -> RefMut<'_, [(u64, SubId)]> {
        self.probe(Some(event.kind()), event.attrs(), |name| event.attr(name))
    }

    /// Ids of stored filters that *cover* `query` — exact (sound and
    /// complete) when `query` is a conjunction of `Eq` constraints on
    /// distinct attributes, plus an optional kind. Returns `None` for
    /// filters outside that fragment (the caller falls back to a scan).
    ///
    /// Why this works: for an `Eq(a, v)` constraint, a stored constraint
    /// on `a` covers it iff `v` satisfies the stored constraint, so
    /// "stored filters covering the query" is precisely "stored filters
    /// matching the event `{a: v, ...}` of the query's operands" — one
    /// counting probe instead of a pairwise `covers` sweep.
    pub fn covering_ids(&self, query: &Filter) -> Option<Vec<SubId>> {
        let cs = query.constraints();
        let mut pairs: Vec<(&str, &AttrValue)> = Vec::with_capacity(cs.len());
        for c in cs {
            if c.op != Op::Eq {
                return None;
            }
            if pairs.iter().any(|(a, _)| *a == c.attr.as_str()) {
                return None; // repeated attribute: one synthetic value cannot represent both
            }
            pairs.push((c.attr.as_str(), &c.value));
        }
        Some(self.matching_pairs(query.kind(), &pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(id: SubId, filter: Filter) -> Subscription {
        Subscription { id, filter }
    }

    fn ids(index: &FilterIndex, event: &Event) -> Vec<SubId> {
        index.matching_event(event)
    }

    #[test]
    fn counting_matches_conjunctions() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::for_kind("k").with_eq("u", "bob")));
        ix.insert(sub(2, Filter::for_kind("k").with_constraint("t", Op::Gt, 10i64)));
        ix.insert(sub(
            3,
            Filter::for_kind("k").with_eq("u", "bob").with_constraint("t", Op::Gt, 10i64),
        ));
        let e = Event::new("k").with_attr("u", "bob").with_attr("t", 20i64);
        assert_eq!(ids(&ix, &e), vec![1, 2, 3]);
        let e = Event::new("k").with_attr("u", "bob").with_attr("t", 5i64);
        assert_eq!(ids(&ix, &e), vec![1]);
        let e = Event::new("k").with_attr("t", 20i64);
        assert_eq!(ids(&ix, &e), vec![2], "partial conjunction must not match");
    }

    #[test]
    fn kind_checked_per_candidate() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::for_kind("a").with_eq("x", 1i64)));
        ix.insert(sub(2, Filter::for_kind("b").with_eq("x", 1i64)));
        ix.insert(sub(3, Filter::any().with_eq("x", 1i64)));
        ix.insert(sub(4, Filter::for_kind("a")));
        ix.insert(sub(5, Filter::any()));
        let e = Event::new("a").with_attr("x", 1i64);
        assert_eq!(ids(&ix, &e), vec![1, 3, 4, 5]);
        let e = Event::new("c").with_attr("x", 1i64);
        assert_eq!(ids(&ix, &e), vec![3, 5]);
    }

    /// Two kinds with one tag: each one's probe counts the other's
    /// members, and the exact kind check still keeps their filters
    /// apart. Kindless filters match under every tag; a kindless query
    /// counts nothing else.
    #[test]
    fn colliding_kind_tags_cost_a_count_never_a_match() {
        let (k1, k2) = ("k21608", "k82419");
        assert_eq!(kind_tag(Some(k1)), 0xdaf4_10a7);
        assert_eq!(kind_tag(Some(k2)), kind_tag(Some(k1)), "the pair must collide");
        assert_eq!(kind_tag(None), 0);
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::for_kind(k1).with_eq("x", 1i64)));
        ix.insert(sub(2, Filter::for_kind(k2).with_eq("x", 1i64)));
        ix.insert(sub(3, Filter::for_kind(k1).with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(4, Filter::for_kind(k2).with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(5, Filter::any().with_eq("x", 1i64)));
        ix.insert(sub(6, Filter::any().with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(7, Filter::for_kind("other").with_eq("x", 1i64)));
        let at = |kind: &str| Event::new(kind).with_attr("x", 1i64).with_attr("y", 5i64);
        assert_eq!(ids(&ix, &at(k1)), vec![1, 3, 5, 6]);
        assert_eq!(ids(&ix, &at(k2)), vec![2, 4, 5, 6]);
        assert_eq!(ids(&ix, &at("third")), vec![5, 6], "kindless filters match every kind");
        let kindless = Filter::any().with_eq("x", 1i64).with_eq("y", 5i64);
        assert_eq!(ix.covering_ids(&kindless), Some(vec![5, 6]), "only kindless filters cover");
    }

    #[test]
    fn numeric_eq_is_cross_type() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::any().with_eq("x", 3i64)));
        ix.insert(sub(2, Filter::any().with_eq("x", 3.0)));
        ix.insert(sub(3, Filter::any().with_eq("x", 0.0)));
        let e = Event::new("k").with_attr("x", 3.0);
        assert_eq!(ids(&ix, &e), vec![1, 2]);
        let e = Event::new("k").with_attr("x", 3i64);
        assert_eq!(ids(&ix, &e), vec![1, 2]);
        // -0.0 equals 0.0 numerically.
        let e = Event::new("k").with_attr("x", -0.0);
        assert_eq!(ids(&ix, &e), vec![3]);
    }

    #[test]
    fn boundary_maps_respect_strictness() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::any().with_constraint("x", Op::Gt, 10i64)));
        ix.insert(sub(2, Filter::any().with_constraint("x", Op::Ge, 10i64)));
        ix.insert(sub(3, Filter::any().with_constraint("x", Op::Lt, 10i64)));
        ix.insert(sub(4, Filter::any().with_constraint("x", Op::Le, 10i64)));
        let at = |v: f64| Event::new("k").with_attr("x", v);
        assert_eq!(ids(&ix, &at(10.0)), vec![2, 4]);
        assert_eq!(ids(&ix, &at(10.5)), vec![1, 2]);
        assert_eq!(ids(&ix, &at(9.5)), vec![3, 4]);
    }

    #[test]
    fn prefix_trie_walks_event_string() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::any().with_constraint("s", Op::Prefix, "st")));
        ix.insert(sub(2, Filter::any().with_constraint("s", Op::Prefix, "st andrews")));
        ix.insert(sub(3, Filter::any().with_constraint("s", Op::Prefix, "")));
        ix.insert(sub(4, Filter::any().with_constraint("s", Op::Prefix, "dundee")));
        let e = Event::new("k").with_attr("s", "st andrews west");
        assert_eq!(ids(&ix, &e), vec![1, 2, 3]);
        let e = Event::new("k").with_attr("s", 5i64);
        assert!(ids(&ix, &e).is_empty(), "prefix never matches non-strings");
    }

    #[test]
    fn fallback_ops_and_exists() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::any().with_constraint("s", Op::Suffix, "street")));
        ix.insert(sub(2, Filter::any().with_constraint("s", Op::Contains, "h st")));
        ix.insert(sub(3, Filter::any().with_constraint("s", Op::Ne, "north haugh")));
        ix.insert(sub(4, Filter::any().with_exists("s")));
        ix.insert(sub(5, Filter::any().with_constraint("s", Op::Lt, "t")));
        let e = Event::new("k").with_attr("s", "south street");
        assert_eq!(ids(&ix, &e), vec![1, 2, 3, 4, 5]);
        let e = Event::new("k").with_attr("s", "north haugh");
        assert_eq!(ids(&ix, &e), vec![4, 5]);
    }

    #[test]
    fn nan_operands_and_nan_events_never_match() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::any().with_eq("x", f64::NAN)));
        ix.insert(sub(2, Filter::any().with_constraint("x", Op::Lt, f64::NAN)));
        ix.insert(sub(3, Filter::any().with_constraint("x", Op::Ne, f64::NAN)));
        ix.insert(sub(4, Filter::any().with_exists("x")));
        ix.insert(sub(5, Filter::any().with_eq("x", 1.0)));
        let e = Event::new("k").with_attr("x", 1.0);
        assert_eq!(ids(&ix, &e), vec![4, 5]);
        // A NaN event value satisfies only Exists.
        let e = Event::new("k").with_attr("x", f64::NAN);
        assert_eq!(ids(&ix, &e), vec![4]);
    }

    #[test]
    fn duplicate_and_repeated_constraints_count_separately() {
        let mut ix = FilterIndex::new();
        // Same attribute twice: an interval.
        ix.insert(sub(
            1,
            Filter::any().with_constraint("x", Op::Gt, 0i64).with_constraint("x", Op::Lt, 10i64),
        ));
        // Identical constraint repeated.
        ix.insert(sub(
            2,
            Filter::any().with_constraint("x", Op::Gt, 5i64).with_constraint("x", Op::Gt, 5i64),
        ));
        let at = |v: i64| Event::new("k").with_attr("x", v);
        assert_eq!(ids(&ix, &at(7)), vec![1, 2]);
        assert_eq!(ids(&ix, &at(12)), vec![2]);
        assert_eq!(ids(&ix, &at(3)), vec![1]);
    }

    #[test]
    fn point_constraints_select_and_the_rest_is_verified() {
        let mut ix = FilterIndex::new();
        let alert = |zone: i64, level: i64| {
            Filter::for_kind("k").with_eq("zone", zone).with_constraint("level", Op::Ge, level)
        };
        ix.insert(sub(1, alert(3, 10)));
        ix.insert(sub(2, alert(3, 60)));
        ix.insert(sub(3, alert(4, 10)));
        // Indexed `Eq` and verified range on the same attribute.
        ix.insert(sub(
            4,
            Filter::any().with_eq("zone", 3i64).with_constraint("zone", Op::Lt, 3i64),
        ));
        // A verified constraint nothing satisfies, beside a point one.
        ix.insert(sub(5, Filter::any().with_eq("zone", 3i64).with_eq("level", f64::NAN)));
        // No point constraint: counted in the boundary map as before.
        ix.insert(sub(6, Filter::for_kind("k").with_constraint("level", Op::Ge, 20i64)));
        assert_eq!(ix.attrs["level"].lower.len(), 1, "only the range-only filter is a floor");
        let at = |zone: i64, level: i64| {
            Event::new("k").with_attr("zone", zone).with_attr("level", level)
        };
        assert_eq!(ids(&ix, &at(3, 50)), vec![1, 6]);
        assert_eq!(ids(&ix, &at(3, 60)), vec![1, 2, 6]);
        assert_eq!(ids(&ix, &at(4, 15)), vec![3]);
        let e = Event::new("k").with_attr("zone", 3i64);
        assert!(ids(&ix, &e).is_empty(), "a verified constraint needs its attribute");
    }

    #[test]
    fn reused_slots_and_a_wrapped_epoch_start_from_zero() {
        let mut ix = FilterIndex::new();
        let two = |u: &str| Filter::any().with_eq("u", u).with_eq("x", 1i64);
        ix.insert(sub(1, two("bob")));
        // Leaves slot 0 counted once under the current stamp.
        assert!(ids(&ix, &Event::new("k").with_attr("u", "bob")).is_empty());
        ix.remove(1);
        ix.insert(sub(2, two("anna")));
        assert_eq!(ix.slab.len(), 1, "the freed slot is reused");
        assert!(ids(&ix, &Event::new("k").with_attr("x", 1i64)).is_empty());
        // Across the wrap, the stamp of two probes ago must not read as current.
        ix.scratch.get_mut().epoch = u32::MAX - 1;
        for _ in 0..4 {
            assert!(ids(&ix, &Event::new("k").with_attr("x", 1i64)).is_empty());
            let e = Event::new("k").with_attr("x", 1i64).with_attr("u", "anna");
            assert_eq!(ids(&ix, &e), vec![2]);
        }
    }

    #[test]
    fn insert_remove_roundtrip_leaves_no_residue() {
        let mut ix = FilterIndex::new();
        let filters = [
            Filter::for_kind("k").with_eq("u", "bob"),
            Filter::any().with_constraint("x", Op::Gt, 1.5),
            Filter::any().with_constraint("s", Op::Prefix, "abc"),
            Filter::any().with_constraint("s", Op::Suffix, "z"),
            Filter::for_kind("k"),
            Filter::any(),
        ];
        for (i, f) in filters.iter().enumerate() {
            assert!(ix.insert(sub(i as u64, f.clone())));
        }
        assert!(!ix.insert(sub(0, Filter::any())), "duplicate id rejected");
        for i in 0..filters.len() {
            assert!(ix.remove(i as u64).is_some());
        }
        assert!(ix.is_empty());
        assert!(ix.attrs.is_empty(), "attribute buckets must drain");
        assert!(ix.kind_only.is_empty());
        assert!(ix.universal.is_empty());
        assert_eq!(ix.free.len(), ix.slab.len(), "every slot is back on the free list");
        assert!(ix.remove(0).is_none());
    }

    #[test]
    fn covering_ids_agrees_with_filter_covers() {
        let mut ix = FilterIndex::new();
        let stored = [
            Filter::for_kind("k"),
            Filter::for_kind("k").with_eq("u", "bob"),
            Filter::any().with_constraint("x", Op::Gt, 0i64),
            Filter::any().with_constraint("s", Op::Prefix, "st"),
            Filter::any().with_exists("u"),
            Filter::any(),
            Filter::for_kind("other"),
        ];
        for (i, f) in stored.iter().enumerate() {
            ix.insert(sub(i as u64, f.clone()));
        }
        let queries = [
            Filter::for_kind("k").with_eq("u", "bob"),
            Filter::for_kind("k").with_eq("u", "bob").with_eq("x", 5i64),
            Filter::for_kind("k"),
            Filter::any().with_eq("s", "st andrews"),
            Filter::any(),
        ];
        for q in &queries {
            let got = ix.covering_ids(q).expect("all-Eq query");
            let want: Vec<SubId> = stored
                .iter()
                .enumerate()
                .filter(|(_, f)| f.covers(q))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want, "query {q}");
        }
        // Outside the Eq fragment: no answer, caller scans.
        assert!(ix.covering_ids(&Filter::any().with_constraint("x", Op::Gt, 1i64)).is_none());
        assert!(ix.covering_ids(&Filter::any().with_eq("x", 1i64).with_eq("x", 2i64)).is_none());
    }

    #[test]
    fn match_order_is_insertion_order() {
        let mut ix = FilterIndex::new();
        for id in [9u64, 4, 7, 1] {
            ix.insert(sub(id, Filter::for_kind("k")));
        }
        assert_eq!(ids(&ix, &Event::new("k")), vec![9, 4, 7, 1]);
        ix.remove(4);
        ix.insert(sub(4, Filter::for_kind("k")));
        assert_eq!(ids(&ix, &Event::new("k")), vec![9, 7, 1, 4], "reinsertion goes to the back");
    }
}
