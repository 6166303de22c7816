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
//! against the event's own attribute with the comparison
//! [`Constraint::matches_value`] makes — a range floor at or below the
//! event's value is half of every table, so counting it would touch half
//! of every table per probe to confirm a handful of matches.
//!
//! **Kind picks the runs a probe counts.** Kind is not a counted
//! constraint (counting it would make every publication touch every
//! same-kind subscription, the hot-topic blow-up this index exists to
//! avoid) and not a bucket key (one bucket set per kind costs a map per
//! attribute per kind). Instead each index gives every kind it holds a
//! dense id — reference-counted, freed with the last filter of that kind,
//! `0` for no kind — every bucket member carries its filter's kind id,
//! and every member list is kept sorted by it. A probe counts two runs of
//! each list it reaches, found by binary search: the kindless run and the
//! run of the event's kind. A `zone = 3` bucket shared by eight alert
//! kinds then costs an event the members of its own kind, not all eight,
//! and a counted filter is always of the event's kind or of none, so no
//! candidate's kind is compared again. A query with no kind (covering
//! queries), or with a kind no stored filter names, counts only the
//! kindless runs: kindless filters are the only ones that can match or
//! cover it; an index that holds no kindless filter answers such a
//! probe at once. Zero-constraint filters sit in one more kind-sorted list,
//! and every filter in the runs a probe reads there matches.
//!
//! **Storage.** Subscriptions live in a slab addressed by a dense `u32`
//! slot, which `get`, `iter` and `remove` read; one map takes a `SubId` to
//! its slot, and freed slots are reused. The match path never reads a
//! subscription. Buckets and the trie hold `(kind id, slot)` members, and
//! per slot a probe reads one *match record*: the id, the insertion
//! sequence, the counter target, the owner the caller stored the
//! subscription for, and the verified constraints compiled to
//! `(attribute id, operator, operand)`, the first of them inline.
//! Attribute names have reference-counted ids as well: a probe stamps
//! each event value it reaches into its scratch under the attribute's id,
//! and a verified constraint reads the value from there. Counters are an
//! epoch-stamped array over the slots plus the list of slots touched, and
//! a probe's matches are collected in a hit list; these and the stamped
//! values are kept in the index, sized on insert and reused, so
//! [`FilterIndex::hits`] allocates nothing, and
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
use gloss_sim::FnvHashMap;
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;

/// Position of an entry in the slab.
type Slot = u32;

/// A name's id in an index's [`Ids`] table.
type Id = u32;

/// The kind id of a kindless filter or query; never handed to a name.
const NO_KIND: Id = 0;

/// Dense, reference-counted ids for the names an index holds (kinds,
/// attribute names): an id is held while some stored filter names it,
/// and is then free for reuse. A free id still answers for its last
/// name, which takes it back without copying itself again, until a new
/// name takes it over. Id `0` is never handed out.
#[derive(Debug, Clone)]
struct Ids {
    /// Every name with an id, held or free.
    by_name: FnvHashMap<String, Id>,
    /// Per id, how many holds it has; `0` for a free id and for id `0`.
    refs: Vec<u32>,
    free: Vec<Id>,
}

impl Default for Ids {
    fn default() -> Self {
        Ids { by_name: FnvHashMap::default(), refs: vec![0], free: Vec::new() }
    }
}

impl Ids {
    /// `name`'s id. A free one selects nothing: no stored filter holds it.
    fn get(&self, name: &str) -> Option<Id> {
        self.by_name.get(name).copied()
    }

    /// `name`'s id while some stored filter holds it.
    fn held(&self, name: &str) -> Option<Id> {
        self.get(name).filter(|&id| self.refs[id as usize] > 0)
    }

    /// Takes a hold on `name`'s id. A new name takes a free id (whose
    /// last name gives it up) before a new one is minted.
    fn acquire(&mut self, name: &str) -> Id {
        let id = match self.by_name.get(name) {
            Some(&id) => {
                if self.refs[id as usize] == 0 {
                    let at = self.free.iter().position(|&f| f == id).expect("a free id is listed");
                    self.free.swap_remove(at);
                }
                id
            }
            None => {
                let id = match self.free.pop() {
                    Some(id) => {
                        self.by_name.retain(|_, named| *named != id);
                        id
                    }
                    None => {
                        self.refs.push(0);
                        Id::try_from(self.refs.len() - 1).expect("fewer than 2^32 names")
                    }
                };
                self.by_name.insert(name.to_string(), id);
                id
            }
        };
        self.refs[id as usize] += 1;
        id
    }

    /// Drops a hold on `name`'s id, freeing the id with its last hold.
    fn release(&mut self, name: &str) -> Id {
        let id = self.get(name).expect("a released name holds an id");
        let refs = &mut self.refs[id as usize];
        *refs -= 1;
        if *refs == 0 {
            self.free.push(id);
        }
        id
    }

    /// One past the highest id ever handed out.
    fn bound(&self) -> usize {
        self.refs.len()
    }

    /// Whether no id is held.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.refs.iter().all(|&r| r == 0)
    }
}

/// One bucket entry: a counted constraint's slot, with its filter's kind
/// id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    kind: Id,
    slot: Slot,
}

/// An item of a member list. Every such list is kept sorted by kind id,
/// so that a probe reads two runs of it (see [`runs`]).
trait Keyed {
    fn member(&self) -> Member;
}

impl Keyed for Member {
    fn member(&self) -> Member {
        *self
    }
}

impl Keyed for (Member, Check) {
    fn member(&self) -> Member {
        self.0
    }
}

/// Inserts `item` at the end of its kind's run.
fn enter<T: Keyed>(list: &mut Vec<T>, item: T) {
    let kind = item.member().kind;
    let at = list.partition_point(|x| x.member().kind <= kind);
    list.insert(at, item);
}

/// Removes one item of member `m` from its kind's run.
fn leave<T: Keyed>(list: &mut Vec<T>, m: Member) {
    let run = list.partition_point(|x| x.member().kind < m.kind);
    if let Some(k) = list[run..].iter().position(|x| x.member() == m) {
        list.remove(run + k);
    }
}

/// The runs of `list` a probe under kind id `kind` counts: the kindless
/// filters', then `kind`'s (empty for a kindless probe).
fn runs<T: Keyed>(list: &[T], kind: Id) -> [&[T]; 2] {
    let kindless = list.partition_point(|x| x.member().kind == NO_KIND);
    let (none, kinded) = list.split_at(kindless);
    if kind == NO_KIND {
        return [none, &[]];
    }
    let lo = kinded.partition_point(|x| x.member().kind < kind);
    let len = kinded[lo..].partition_point(|x| x.member().kind == kind);
    [none, &kinded[lo..lo + len]]
}

/// A constraint compiled for the match path: its attribute's id, its
/// operator and its operand.
#[derive(Debug, Clone)]
struct Check {
    attr: Id,
    op: Op,
    operand: AttrValue,
}

impl Check {
    fn new(attr: Id, c: &Constraint) -> Self {
        Check { attr, op: c.op, operand: c.value.clone() }
    }

    fn holds(&self, value: &AttrValue) -> bool {
        self.op.holds(&self.operand, value)
    }
}

/// A filter's verified constraints: one inline (the common shape, a
/// range beside a point constraint), any other number on the heap.
#[derive(Debug, Clone)]
enum Checks {
    One(Check),
    Many(Box<[Check]>),
}

impl Checks {
    fn none() -> Self {
        Checks::Many(Box::default())
    }

    /// Adds `c`: the first one inline, any more on the heap.
    fn push(&mut self, c: Check) {
        *self = match std::mem::replace(self, Checks::none()) {
            Checks::Many(cs) if cs.is_empty() => Checks::One(c),
            Checks::One(first) => Checks::Many(Box::new([first, c])),
            Checks::Many(cs) => Checks::Many(cs.into_vec().into_iter().chain([c]).collect()),
        };
    }

    fn as_slice(&self) -> &[Check] {
        match self {
            Checks::One(c) => std::slice::from_ref(c),
            Checks::Many(cs) => cs,
        }
    }
}

/// What the match path reads of one stored filter, dense by slot.
#[derive(Debug, Clone)]
struct Record {
    id: SubId,
    /// Insertion sequence; match results are returned in this order so
    /// the indexed broker emits notifications in table order, exactly
    /// like the linear scan it replaces.
    seq: u64,
    /// Number of counted constraints (the counter target): the point
    /// constraints when the filter has any — the rest are then verified
    /// once the counter fills — else all of them.
    required: u32,
    /// The caller's tag for the subscription, handed out with its matches.
    owner: u32,
    /// The constraints not counted, checked once the counter fills.
    checks: Checks,
}

/// One match of a probe: the insertion sequence, id and owner of its
/// record.
pub type Hit = (u64, SubId, u32);

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
    /// Evaluated by its operator when the event carries the attribute.
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

/// Whether `f` is counted by its point constraints only (it has some)
/// and verified on the rest; otherwise every constraint is counted.
fn selective(f: &Filter) -> bool {
    f.constraints().iter().any(|c| classify(c).is_point())
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

    fn list(&mut self, strict: bool) -> &mut Vec<Member> {
        if strict {
            &mut self.strict
        } else {
            &mut self.incl
        }
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
        enter(&mut node.members, m);
    }

    /// Removes one occurrence path, pruning nodes left empty.
    fn remove(&mut self, pat: &[u8], m: Member) {
        match pat.split_first() {
            None => leave(&mut self.members, m),
            Some((b, rest)) => {
                if let Some(child) = self.children.get_mut(b) {
                    child.remove(rest, m);
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
    /// Constraints evaluated directly, each beside its member.
    fallback: Vec<(Member, Check)>,
}

impl AttrBuckets {
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.eq_str.is_empty()
            && self.eq_num.is_empty()
            && self.eq_bool.iter().all(Vec::is_empty)
            && self.prefix.is_empty()
            && self.lower.is_empty()
            && self.upper.is_empty()
            && self.fallback.is_empty()
    }

    /// The member list of an `Eq` or boundary place, made on first use.
    fn list(&mut self, place: &Place) -> &mut Vec<Member> {
        match *place {
            Place::EqStr(s) => {
                if !self.eq_str.contains_key(s) {
                    self.eq_str.insert(s.to_string(), Vec::new());
                }
                self.eq_str.get_mut(s).expect("just ensured")
            }
            Place::EqNum(x) => self.eq_num.entry(num_key(x)).or_default(),
            Place::EqBool(v) => &mut self.eq_bool[v as usize],
            Place::Lower { bound, strict } => {
                self.lower.entry(ord_key(bound)).or_default().list(strict)
            }
            Place::Upper { bound, strict } => {
                self.upper.entry(ord_key(bound)).or_default().list(strict)
            }
            Place::Prefix(_) | Place::Fallback | Place::Never => {
                unreachable!("not a listed place")
            }
        }
    }

    /// Drops the map entry of an `Eq` or boundary place left empty.
    fn prune(&mut self, place: &Place) {
        match *place {
            Place::EqStr(s) if self.eq_str.get(s).is_some_and(Vec::is_empty) => {
                self.eq_str.remove(s);
            }
            Place::EqNum(x) if self.eq_num.get(&num_key(x)).is_some_and(Vec::is_empty) => {
                self.eq_num.remove(&num_key(x));
            }
            Place::Lower { bound, .. }
                if self.lower.get(&ord_key(bound)).is_some_and(Boundary::is_empty) =>
            {
                self.lower.remove(&ord_key(bound));
            }
            Place::Upper { bound, .. }
                if self.upper.get(&ord_key(bound)).is_some_and(Boundary::is_empty) =>
            {
                self.upper.remove(&ord_key(bound));
            }
            _ => {}
        }
    }

    /// Enters (`add`) or removes member `m` under constraint `c`'s place.
    fn place(&mut self, c: &Constraint, place: Place, attr: Id, m: Member, add: bool) {
        match place {
            Place::Never => {}
            Place::Prefix(s) if add => self.prefix.insert(s.as_bytes(), m),
            Place::Prefix(s) => self.prefix.remove(s.as_bytes(), m),
            Place::Fallback if add => enter(&mut self.fallback, (m, Check::new(attr, c))),
            Place::Fallback => leave(&mut self.fallback, m),
            _ if add => enter(self.list(&place), m),
            _ => {
                leave(self.list(&place), m);
                self.prune(&place);
            }
        }
    }
}

/// Per-probe working state, kept between probes and sized with the slot
/// table on insert ([`Scratch::grow`]), so that no probe allocates.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The current probe's stamp; a cell stamped otherwise is stale,
    /// which is what makes clearing the counters free.
    epoch: u32,
    /// Per slot: `(stamp, satisfied constraints counted under that stamp)`.
    cells: Vec<(u32, u32)>,
    /// Per attribute id: `(stamp, the probed event's value under that
    /// stamp)`, what the verified constraints read.
    values: Vec<(u32, AttrValue)>,
    /// Slots counted at least once by the current probe.
    touched: Vec<Slot>,
    /// The current probe's matches, in insertion order once it ends.
    hits: Vec<Hit>,
}

impl Scratch {
    /// Makes room for a probe of `slots` slots: a counter per slot, and
    /// as many touched slots and hits, which a probe cannot exceed (it
    /// touches and matches each slot at most once), so that no probe
    /// grows a vector.
    fn grow(&mut self, slots: usize) {
        self.cells.resize(slots, (0, 0));
        self.touched.reserve(slots.saturating_sub(self.touched.len()));
        self.hits.reserve(slots.saturating_sub(self.hits.len()));
    }

    fn begin(&mut self) {
        self.touched.clear();
        self.hits.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from the previous cycle would read as current.
            self.cells.fill((0, 0));
            self.values.iter_mut().for_each(|v| v.0 = 0);
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

    /// Counts the members a probe under kind id `kind` can match.
    fn count(&mut self, kind: Id, members: &[Member]) {
        for run in runs(members, kind) {
            for m in run {
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
    /// Subscriptions by slot; `None` marks a slot on the free list.
    slab: Vec<Option<Subscription>>,
    /// Match records by slot (a free slot's is stale).
    records: Vec<Record>,
    free: Vec<Slot>,
    slot_of: FnvHashMap<SubId, Slot>,
    kinds: Ids,
    attrs: Ids,
    /// Constraint buckets by attribute id (a free id's are empty).
    buckets: Vec<AttrBuckets>,
    /// Zero-constraint filters: they match every event of their kind
    /// (every event, when kindless), with no constraint to count.
    unconstrained: Vec<Member>,
    /// How many stored filters have no kind: with none, a probe whose
    /// kind no stored filter names matches nothing.
    kindless: usize,
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

    /// The stored subscription with this id.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        self.slot_of
            .get(&id)
            .map(|&slot| self.slab[slot as usize].as_ref().expect("an indexed slot holds an entry"))
    }

    /// Stored subscriptions in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.slab.iter().flatten()
    }

    /// Stored subscriptions with their insertion sequences, in arbitrary
    /// order.
    pub fn iter_with_seq(&self) -> impl Iterator<Item = (u64, &Subscription)> {
        (self.slab.iter().zip(&self.records)).filter_map(|(sub, r)| Some((r.seq, sub.as_ref()?)))
    }

    /// Indexes a subscription with owner `0`; see
    /// [`insert_owned`](Self::insert_owned).
    pub fn insert(&mut self, sub: Subscription) -> bool {
        self.insert_owned(sub, 0)
    }

    /// Indexes a subscription, stored for `owner` (a tag of the caller's
    /// choosing, handed back with each match and by
    /// [`remove`](Self::remove)). Returns `false` (and stores nothing) if
    /// the id is already present.
    pub fn insert_owned(&mut self, sub: Subscription, owner: u32) -> bool {
        self.insert_at(sub, owner, self.next_seq)
    }

    /// [`insert_owned`](Self::insert_owned) at insertion sequence `seq`,
    /// for a caller that keeps one arrival order over several indexes:
    /// matches and [`hits`](Self::hits) follow `seq`, and
    /// [`iter_with_seq`](Self::iter_with_seq) reports it. Sequences must
    /// rise from one insertion to the next.
    pub fn insert_at(&mut self, sub: Subscription, owner: u32, seq: u64) -> bool {
        debug_assert!(seq >= self.next_seq, "insertion sequences rise");
        if self.slot_of.contains_key(&sub.id) {
            return false;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = Slot::try_from(self.slab.len()).expect("fewer than 2^32 slots");
            self.slab.push(None);
            self.scratch.get_mut().grow(self.slab.len());
            slot
        });
        let f = &sub.filter;
        let m = Member { kind: f.kind().map_or(NO_KIND, |k| self.kinds.acquire(k)), slot };
        self.kindless += usize::from(m.kind == NO_KIND);
        let selective = selective(f);
        let mut required = 0;
        let mut checks = Checks::none();
        for c in f.constraints() {
            let attr = self.attrs.acquire(&c.attr);
            if self.buckets.len() < self.attrs.bound() {
                self.buckets.resize_with(self.attrs.bound(), AttrBuckets::default);
                let values = &mut self.scratch.get_mut().values;
                values.resize(self.attrs.bound(), (0, AttrValue::Bool(false)));
            }
            let place = classify(c);
            if selective && !place.is_point() {
                checks.push(Check::new(attr, c));
                continue;
            }
            required += 1;
            self.buckets[attr as usize].place(c, place, attr, m, true);
        }
        if f.constraints().is_empty() {
            enter(&mut self.unconstrained, m);
        }
        let record = Record { id: sub.id, seq, required, owner, checks };
        self.next_seq = seq + 1;
        match self.records.get_mut(slot as usize) {
            Some(r) => *r = record,
            None => self.records.push(record),
        }
        self.slot_of.insert(sub.id, slot);
        self.slab[slot as usize] = Some(sub);
        true
    }

    /// Removes a subscription, returning it and the owner it was stored
    /// for.
    pub fn remove(&mut self, id: SubId) -> Option<(Subscription, u32)> {
        let slot = self.slot_of.remove(&id)?;
        let sub = self.slab[slot as usize].take().expect("an indexed slot holds an entry");
        self.free.push(slot);
        let record = &mut self.records[slot as usize];
        record.checks = Checks::none();
        let owner = record.owner;
        let f = &sub.filter;
        let m = Member { kind: f.kind().map_or(NO_KIND, |k| self.kinds.release(k)), slot };
        self.kindless -= usize::from(m.kind == NO_KIND);
        let selective = selective(f);
        for c in f.constraints() {
            let attr = self.attrs.release(&c.attr);
            let place = classify(c);
            if !selective || place.is_point() {
                self.buckets[attr as usize].place(c, place, attr, m, false);
            }
        }
        if f.constraints().is_empty() {
            leave(&mut self.unconstrained, m);
        }
        Some((sub, owner))
    }

    /// One probe: `attrs` walks the event's attributes (distinct names).
    /// The matches, in insertion order, are left in the scratch hit list,
    /// which stays borrowed while the caller reads it.
    fn probe<'a>(
        &self,
        kind: Option<&str>,
        attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>,
    ) -> RefMut<'_, [Hit]> {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        s.begin();
        // A kind no stored filter names selects what no kind selects:
        // the kindless filters, when there are any.
        let kind = match kind.and_then(|k| self.kinds.held(k)) {
            Some(id) => id,
            None if self.kindless == 0 => return RefMut::map(scratch, |s| s.hits.as_mut_slice()),
            None => NO_KIND,
        };
        for (name, value) in attrs {
            let Some(attr) = self.attrs.get(name) else { continue };
            s.values[attr as usize] = (s.epoch, value.clone());
            let b = &self.buckets[attr as usize];
            match value {
                AttrValue::Str(v) => {
                    if let Some(members) = b.eq_str.get(v.as_ref()) {
                        s.count(kind, members);
                    }
                    b.prefix.visit(v.as_bytes(), &mut |members| s.count(kind, members));
                }
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let x = value.as_number().expect("numeric");
                    // NaN compares with nothing: only the fallback list
                    // (where `Exists` lives) can be satisfied.
                    if !x.is_nan() {
                        if let Some(members) = b.eq_num.get(&num_key(x)) {
                            s.count(kind, members);
                        }
                        let k = ord_key(x);
                        for (&bk, bo) in b.lower.range(..=k) {
                            s.count(kind, &bo.incl);
                            if bk != k {
                                s.count(kind, &bo.strict);
                            }
                        }
                        for (&bk, bo) in b.upper.range(k..) {
                            s.count(kind, &bo.incl);
                            if bk != k {
                                s.count(kind, &bo.strict);
                            }
                        }
                    }
                }
                AttrValue::Bool(v) => s.count(kind, &b.eq_bool[*v as usize]),
            }
            for run in runs(&b.fallback, kind) {
                for (m, check) in run {
                    if check.holds(value) {
                        s.bump(m.slot);
                    }
                }
            }
        }
        let Scratch { epoch, cells, values, touched, hits } = s;
        for &slot in touched.iter() {
            let r = &self.records[slot as usize];
            // Every constraint was counted, or the uncounted ones hold.
            let holds = |c: &Check| {
                let (stamp, value) = &values[c.attr as usize];
                stamp == epoch && c.holds(value)
            };
            if cells[slot as usize].1 == r.required && r.checks.as_slice().iter().all(holds) {
                hits.push((r.seq, r.id, r.owner));
            }
        }
        for run in runs(&self.unconstrained, kind) {
            for m in run {
                let r = &self.records[m.slot as usize];
                hits.push((r.seq, r.id, r.owner));
            }
        }
        hits.sort_unstable_by_key(|&(seq, ..)| seq);
        RefMut::map(scratch, |s| s.hits.as_mut_slice())
    }

    /// Ids of subscriptions matching `event`, in insertion order. Agrees
    /// exactly with scanning every stored filter through
    /// [`Filter::matches`].
    pub fn matching_event(&self, event: &Event) -> Vec<SubId> {
        self.hits(event).iter().map(|&(_, id, _)| id).collect()
    }

    /// The subscriptions matching `event`, in insertion order, each with
    /// its sequence and owner — [`matching_event`](Self::matching_event)
    /// without the vector: the index's own reused hit list, borrowed
    /// until the guard drops (a second probe of this index meanwhile
    /// panics), so a caller can walk the hits of several indexes at
    /// once, merged by sequence.
    pub fn hits(&self, event: &Event) -> RefMut<'_, [Hit]> {
        self.probe(Some(event.kind()), event.attrs())
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
        let hits = self.probe(query.kind(), pairs.into_iter());
        Some(hits.iter().map(|&(_, id, _)| id).collect())
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
    fn kind_selects_the_counted_runs() {
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

    /// `k21608` and `k82419` share a 32-bit FNV-1a hash, the kind tag an
    /// earlier layout counted by: their ids differ, so a probe for one
    /// never counts the other's filters. Kindless filters are counted
    /// under every kind; a kindless query counts nothing else.
    #[test]
    fn kinds_with_one_hash_are_never_counted_for_each_other() {
        let (k1, k2) = ("k21608", "k82419");
        let tag = |k: &str| gloss_sim::fnv1a(k.as_bytes()) as u32 | 1;
        assert_eq!(tag(k1), tag(k2), "the pair must collide");
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::for_kind(k1).with_eq("x", 1i64)));
        ix.insert(sub(2, Filter::for_kind(k2).with_eq("x", 1i64)));
        ix.insert(sub(3, Filter::for_kind(k1).with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(4, Filter::for_kind(k2).with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(5, Filter::any().with_eq("x", 1i64)));
        ix.insert(sub(6, Filter::any().with_constraint("y", Op::Ge, 0i64)));
        ix.insert(sub(7, Filter::for_kind("other").with_eq("x", 1i64)));
        assert_ne!(ix.kinds.get(k1), ix.kinds.get(k2));
        let slot_of = |ix: &FilterIndex, id: SubId| ix.slot_of[&id];
        let counted = |ix: &FilterIndex, event: &Event| -> Vec<Slot> {
            ids(ix, event);
            let mut touched = ix.scratch.borrow().touched.clone();
            touched.sort_unstable();
            touched
        };
        let at = |kind: &str| Event::new(kind).with_attr("x", 1i64).with_attr("y", 5i64);
        for (kind, own) in [(k1, [1, 3]), (k2, [2, 4])] {
            let mut want: Vec<Slot> =
                own.iter().chain(&[5, 6]).map(|&id| slot_of(&ix, id)).collect();
            want.sort_unstable();
            assert_eq!(counted(&ix, &at(kind)), want, "{kind} counts its own and kindless filters");
        }
        assert_eq!(ids(&ix, &at(k1)), vec![1, 3, 5, 6]);
        assert_eq!(ids(&ix, &at(k2)), vec![2, 4, 5, 6]);
        assert_eq!(ids(&ix, &at("third")), vec![5, 6], "kindless filters match every kind");
        let kindless = Filter::any().with_eq("x", 1i64).with_eq("y", 5i64);
        assert_eq!(ix.covering_ids(&kindless), Some(vec![5, 6]), "only kindless filters cover");
        assert_eq!(counted(&ix, &Event::new("third").with_attr("x", 1i64)), vec![slot_of(&ix, 5)]);
    }

    /// A kind or attribute freed with its last filter gives its id to the
    /// next new name, which then matches only its own filters.
    #[test]
    fn freed_ids_are_reused_by_new_names() {
        let mut ix = FilterIndex::new();
        ix.insert(sub(1, Filter::for_kind("a").with_eq("x", 1i64)));
        ix.insert(sub(
            2,
            Filter::for_kind("b").with_eq("y", 1i64).with_constraint("z", Op::Lt, 5i64),
        ));
        let (a, x) = (ix.kinds.get("a"), ix.attrs.get("x"));
        ix.remove(1);
        assert_eq!((ix.kinds.free.len(), ix.attrs.free.len()), (1, 1));
        ix.insert(sub(
            3,
            Filter::for_kind("c").with_eq("w", 1i64).with_constraint("v", Op::Gt, 0i64),
        ));
        assert_eq!((ix.kinds.get("c"), ix.attrs.get("w")), (a, x), "freed ids go to new names");
        assert_eq!((ix.kinds.get("a"), ix.attrs.get("x")), (None, None), "and leave the old ones");
        let e = |kind: &str| {
            Event::new(kind).with_attr("x", 1i64).with_attr("w", 1i64).with_attr("v", 2i64)
        };
        assert!(ids(&ix, &e("a")).is_empty());
        assert_eq!(ids(&ix, &e("c")), vec![3]);
        assert!(ids(&ix, &e("c").with_attr("v", 0i64)).is_empty(), "the verified range holds");
        let e = Event::new("b").with_attr("y", 1i64).with_attr("z", 4i64);
        assert_eq!(ids(&ix, &e), vec![2]);
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
        let level = ix.attrs.get("level").expect("level is held") as usize;
        assert_eq!(ix.buckets[level].lower.len(), 1, "only the range-only filter is a floor");
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
        assert!(ix.kinds.is_empty() && ix.attrs.is_empty(), "the id tables must drain");
        assert_eq!(ix.kinds.free.len(), 1);
        assert_eq!(ix.attrs.free.len(), 3, "u, x and s held ids");
        assert!(ix.buckets.iter().all(AttrBuckets::is_empty), "attribute buckets must drain");
        assert!(ix.unconstrained.is_empty());
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
