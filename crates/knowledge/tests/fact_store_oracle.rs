//! Oracle for [`InMemoryFacts`]: the slot store must be observably
//! identical to [`NaiveFacts`], a transcription of the dense store it
//! replaced — one `Vec<Fact>` that every retract scans, `retain`s and
//! splices both indexes of.
//!
//! Each case runs a random script of `add` / `extend` / `retract` /
//! `remove_subject` / `clone` over a handful of subjects (one of them
//! the empty string) and predicates, with duplicate triples, windowed
//! variants of one triple, `Int(3)` beside `Float(3.0)` and NaN floats,
//! and enough retracts to cross the tombstone-compaction rule many times.
//! After every step both stores must return the same values and agree
//! on `query` for every (subject?, predicate?) pair — absent ones
//! included — on `for_each_at` at three instants, and on `len`,
//! `by_subject`, the version epoch, `for_each_delta_since(e)` for every
//! `e`, `delta_log_truncations` and the count of live facts with bounded
//! validity (`bounded_facts`). One case in twelve then floods the
//! store past the delta log's capacity with a large live set (so the
//! compaction rule's ratio half decides) and checks again.
//!
//! This file holds a single test on purpose: it checks that `clone`
//! draws exactly one store source id, which only holds while no other
//! thread is creating stores.

use gloss_knowledge::{Fact, FactDelta, FactSource, FactsVersion, InMemoryFacts, Term};
use gloss_sim::{FnvHashMap, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// The dense store, transcribed.
// ---------------------------------------------------------------------

const DELTA_LOG_CAP: usize = 4096;

fn fresh_source_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
struct NaiveFacts {
    facts: Vec<Fact>,
    by_predicate: FnvHashMap<String, Vec<usize>>,
    by_subject: FnvHashMap<String, Vec<usize>>,
    source: u64,
    epoch: u64,
    log: VecDeque<FactDelta>,
    log_base: u64,
    truncated_reads: AtomicU64,
}

impl Default for NaiveFacts {
    fn default() -> Self {
        NaiveFacts {
            facts: Vec::new(),
            by_predicate: FnvHashMap::default(),
            by_subject: FnvHashMap::default(),
            source: fresh_source_id(),
            epoch: 0,
            log: VecDeque::new(),
            log_base: 0,
            truncated_reads: AtomicU64::new(0),
        }
    }
}

impl Clone for NaiveFacts {
    fn clone(&self) -> Self {
        NaiveFacts {
            facts: self.facts.clone(),
            by_predicate: self.by_predicate.clone(),
            by_subject: self.by_subject.clone(),
            source: fresh_source_id(),
            epoch: self.epoch,
            log: VecDeque::new(),
            log_base: self.epoch,
            truncated_reads: AtomicU64::new(0),
        }
    }
}

impl NaiveFacts {
    fn delta_log_truncations(&self) -> u64 {
        self.truncated_reads.load(Ordering::Relaxed)
    }

    fn record(&mut self, delta: FactDelta) {
        self.epoch += 1;
        self.log.push_back(delta);
        while self.log.len() > DELTA_LOG_CAP {
            self.log.pop_front();
            self.log_base += 1;
        }
    }

    fn add(&mut self, fact: Fact) {
        let i = self.facts.len();
        self.by_predicate.entry(fact.predicate.to_string()).or_default().push(i);
        self.by_subject.entry(fact.subject.to_string()).or_default().push(i);
        self.facts.push(fact.clone());
        self.record(FactDelta::Insert(fact));
    }

    fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for f in facts {
            self.add(f);
        }
    }

    fn len(&self) -> usize {
        self.facts.len()
    }

    fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    fn remove_subject(&mut self, subject: &str) -> usize {
        self.retract_where(|f| *f.subject == *subject)
    }

    fn retract(&mut self, subject: &str, predicate: &str, object: &Term) -> usize {
        self.retract_where(|f| {
            *f.subject == *subject && *f.predicate == *predicate && f.object == *object
        })
    }

    fn retract_where(&mut self, mut gone: impl FnMut(&Fact) -> bool) -> usize {
        let mut removed_at: Vec<usize> = Vec::new();
        let mut removed: Vec<Fact> = Vec::new();
        for (i, f) in self.facts.iter().enumerate() {
            if gone(f) {
                removed_at.push(i);
                removed.push(f.clone());
            }
        }
        if removed_at.is_empty() {
            return 0;
        }
        let mut i = 0;
        let mut r = 0;
        self.facts.retain(|_| {
            let dead = r < removed_at.len() && removed_at[r] == i;
            if dead {
                r += 1;
            }
            i += 1;
            !dead
        });
        let splice = |map: &mut FnvHashMap<String, Vec<usize>>| {
            map.retain(|_, positions| {
                positions.retain_mut(|pos| match removed_at.binary_search(pos) {
                    Ok(_) => false,
                    Err(below) => {
                        *pos -= below;
                        true
                    }
                });
                !positions.is_empty()
            });
        };
        splice(&mut self.by_predicate);
        splice(&mut self.by_subject);
        for f in removed {
            self.record(FactDelta::Retract(f));
        }
        removed_at.len()
    }

    fn by_subject(&self) -> BTreeMap<&str, Vec<&Fact>> {
        let mut map: BTreeMap<&str, Vec<&Fact>> = BTreeMap::new();
        for f in &self.facts {
            map.entry(&*f.subject).or_default().push(f);
        }
        map
    }

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

    /// The span `for_each_delta_since(epoch)` replays, when it replays.
    fn log_since(&self, epoch: u64) -> Option<impl Iterator<Item = &FactDelta>> {
        (self.log_base..=self.epoch)
            .contains(&epoch)
            .then(|| self.log.iter().skip((epoch - self.log_base) as usize))
    }
}

impl FactSource for NaiveFacts {
    fn query<'a>(
        &'a self,
        subject: Option<&'a str>,
        predicate: Option<&'a str>,
    ) -> Box<dyn Iterator<Item = &'a Fact> + 'a> {
        match self.candidate_indices(subject, predicate) {
            Some((idx, check_predicate)) => {
                Box::new(idx.iter().map(|&i| &self.facts[i]).filter(move |f| {
                    !check_predicate || predicate.is_none_or(|p| *f.predicate == *p)
                }))
            }
            None => Box::new(self.facts.iter()),
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
                for &i in idx {
                    let fact = &self.facts[i];
                    if (!check_predicate || predicate.is_none_or(|p| *fact.predicate == *p))
                        && fact.valid_at(t)
                    {
                        f(fact);
                    }
                }
            }
            None => {
                for fact in &self.facts {
                    if fact.valid_at(t) {
                        f(fact);
                    }
                }
            }
        }
    }

    fn version(&self) -> Option<FactsVersion> {
        Some(FactsVersion { source: self.source, epoch: self.epoch })
    }

    fn for_each_delta_since(&self, epoch: u64, f: &mut dyn FnMut(&FactDelta)) -> bool {
        if epoch < self.log_base {
            self.truncated_reads.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if epoch > self.epoch {
            return false;
        }
        for d in self.log.iter().skip((epoch - self.log_base) as usize) {
            f(d);
        }
        true
    }
}

// ---------------------------------------------------------------------
// Scripts.
// ---------------------------------------------------------------------

const SUBJECTS: [&str; 5] = ["", "bob", "anna", "u1", "u2"];
const PREDICATES: [&str; 4] = ["likes", "at", "age", "p"];
const ABSENT_SUBJECT: &str = "zoe";
const ABSENT_PREDICATE: &str = "nope";
const INSTANTS_S: [u64; 3] = [5, 15, 25];
const WINDOWS_S: [(u64, u64); 3] = [(10, 20), (0, 16), (15, 30)];

fn rand_object(rng: &mut SimRng) -> Term {
    match rng.range(0, 8) {
        0 => Term::Int(3),
        1 => Term::Float(3.0),
        2 => Term::Float(f64::NAN),
        3 => Term::str(""),
        4 => Term::Bool(true),
        5 => Term::Int(rng.range(0, 3) as i64),
        _ => Term::str(["ice cream", "golf"][rng.index(2)]),
    }
}

fn rand_fact_about(rng: &mut SimRng, subject: &str) -> Fact {
    let fact = Fact::new(subject, PREDICATES[rng.index(PREDICATES.len())], rand_object(rng));
    if rng.chance(0.3) {
        let (from, to) = WINDOWS_S[rng.index(WINDOWS_S.len())];
        fact.valid_between(SimTime::from_secs(from), SimTime::from_secs(to))
    } else {
        fact
    }
}

fn rand_subject(rng: &mut SimRng) -> &'static str {
    SUBJECTS[rng.index(SUBJECTS.len())]
}

/// A subject to retract from: one that may hold facts, or the one that
/// never does.
fn rand_target(rng: &mut SimRng) -> &'static str {
    if rng.chance(0.1) {
        ABSENT_SUBJECT
    } else {
        rand_subject(rng)
    }
}

/// A (subject, predicate, object) to retract: usually one the store
/// holds (hitting duplicates and windowed variants alike), sometimes a
/// random one.
fn rand_triple(rng: &mut SimRng, naive: &NaiveFacts) -> (String, String, Term) {
    if !naive.is_empty() && rng.chance(0.7) {
        let f = &naive.facts[rng.index(naive.len())];
        (f.subject.to_string(), f.predicate.to_string(), f.object.clone())
    } else {
        let subject = rand_target(rng);
        let f = rand_fact_about(rng, subject);
        (f.subject.to_string(), f.predicate.to_string(), f.object)
    }
}

/// Applies one random operation to both stores, requiring equal return
/// values. Returns the operation's name for failure messages.
fn step(
    rng: &mut SimRng,
    store: &mut InMemoryFacts,
    naive: &mut NaiveFacts,
) -> Result<String, TestCaseError> {
    let op = rng.range(0, 100);
    Ok(if op < 30 {
        let subject = rand_subject(rng);
        let f = rand_fact_about(rng, subject);
        let name = format!("add {f:?}");
        store.add(f.clone());
        naive.add(f);
        name
    } else if op < 42 {
        // A burst, usually about one subject.
        let subject = rand_subject(rng);
        let facts: Vec<Fact> = (0..rng.range(1, 5))
            .map(|_| {
                let s = if rng.chance(0.8) { subject } else { rand_subject(rng) };
                rand_fact_about(rng, s)
            })
            .collect();
        let name = format!("extend {facts:?}");
        store.extend(facts.clone());
        naive.extend(facts);
        name
    } else if op < 52 {
        // A snapshot re-ingest: everything about one subject, replaced.
        let subject = rand_subject(rng);
        let facts: Vec<Fact> =
            (0..rng.range(0, 4)).map(|_| rand_fact_about(rng, subject)).collect();
        prop_assert_eq!(store.remove_subject(subject), naive.remove_subject(subject));
        let name = format!("reingest {subject:?} with {facts:?}");
        store.extend(facts.clone());
        naive.extend(facts);
        name
    } else if op < 82 {
        let (s, p, o) = rand_triple(rng, naive);
        let removed = naive.retract(&s, &p, &o);
        prop_assert_eq!(store.retract(&s, &p, &o), removed, "retract {} {} {:?}", s, p, o);
        format!("retract {s:?} {p:?} {o:?} ({removed} removed)")
    } else if op < 92 {
        let subject = rand_target(rng);
        let removed = naive.remove_subject(subject);
        prop_assert_eq!(store.remove_subject(subject), removed, "remove_subject {:?}", subject);
        format!("remove_subject {subject:?} ({removed} removed)")
    } else {
        let original = store.version().unwrap();
        let before = InMemoryFacts::new().version().unwrap().source;
        *store = store.clone();
        let after = InMemoryFacts::new().version().unwrap().source;
        prop_assert_eq!(after - before, 2, "clone draws exactly one source id");
        prop_assert_eq!(store.version().unwrap().source, before + 1);
        prop_assert_eq!(store.version().unwrap().epoch, original.epoch);
        *naive = naive.clone();
        "clone".to_string()
    })
}

/// Churns a large live set past the delta log's capacity: many
/// subjects, each `at` fact retracted and re-inserted over and over.
fn flood(rng: &mut SimRng, store: &mut InMemoryFacts, naive: &mut NaiveFacts) {
    const FLOODED: u64 = 700;
    let at = |s: u64, v: u64| Fact::new(format!("s{s}"), "at", Term::Int(v as i64));
    for s in 0..FLOODED {
        store.add(at(s, 0));
        naive.add(at(s, 0));
    }
    let mut held = vec![0; FLOODED as usize];
    for round in 1..=(DELTA_LOG_CAP as u64 / 2 + 50) {
        let s = rng.range(0, FLOODED);
        let old = Term::Int(held[s as usize] as i64);
        let subject = format!("s{s}");
        store.retract(&subject, "at", &old);
        naive.retract(&subject, "at", &old);
        store.add(at(s, round));
        naive.add(at(s, round));
        held[s as usize] = round;
    }
}

// ---------------------------------------------------------------------
// Observational equality.
// ---------------------------------------------------------------------

/// Structural equality that holds NaN equal to itself, so a NaN fact
/// compares equal to its own copy.
fn same_fact(a: &Fact, b: &Fact) -> bool {
    let same_object = match (&a.object, &b.object) {
        (Term::Float(x), Term::Float(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    };
    a.subject == b.subject
        && a.predicate == b.predicate
        && a.valid_from == b.valid_from
        && a.valid_to == b.valid_to
        && same_object
}

fn same_delta(a: &FactDelta, b: &FactDelta) -> bool {
    match (a, b) {
        (FactDelta::Insert(x), FactDelta::Insert(y)) => same_fact(x, y),
        (FactDelta::Retract(x), FactDelta::Retract(y)) => same_fact(x, y),
        _ => false,
    }
}

fn same_facts(a: &[&Fact], b: &[&Fact]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_fact(x, y))
}

fn check(store: &InMemoryFacts, naive: &NaiveFacts) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), naive.len());
    prop_assert_eq!(store.is_empty(), naive.is_empty());
    prop_assert_eq!(store.epoch(), naive.epoch);
    let bounded = naive.facts.iter().filter(|f| f.valid_from.is_some() || f.valid_to.is_some());
    prop_assert_eq!(store.bounded_facts(), Some(bounded.count()));
    prop_assert_eq!(store.version().unwrap().epoch, naive.version().unwrap().epoch);
    prop_assert!(store.query(Some(ABSENT_SUBJECT), None).next().is_none());
    prop_assert!(store.query(None, Some(ABSENT_PREDICATE)).next().is_none());

    let subjects = SUBJECTS.iter().chain([&ABSENT_SUBJECT]).map(|s| Some(*s)).chain([None]);
    for subject in subjects {
        let predicates =
            PREDICATES.iter().chain([&ABSENT_PREDICATE]).map(|p| Some(*p)).chain([None]);
        for predicate in predicates {
            let got: Vec<&Fact> = store.query(subject, predicate).collect();
            let want: Vec<&Fact> = naive.query(subject, predicate).collect();
            prop_assert!(
                same_facts(&got, &want),
                "query({:?}, {:?}):\n  store {:?}\n  naive {:?}",
                subject,
                predicate,
                got,
                want
            );
            for secs in INSTANTS_S {
                let t = SimTime::from_secs(secs);
                let mut want = Vec::new();
                naive.for_each_at(subject, predicate, t, &mut |f| want.push(f.clone()));
                let mut want = want.iter();
                let mut diverged = false;
                store.for_each_at(subject, predicate, t, &mut |f| {
                    diverged |= !want.next().is_some_and(|w| same_fact(f, w));
                });
                prop_assert!(
                    !diverged && want.next().is_none(),
                    "for_each_at({:?}, {:?}, {}s)",
                    subject,
                    predicate,
                    secs
                );
            }
        }
    }

    let (got, want) = (store.by_subject(), naive.by_subject());
    prop_assert!(
        got.len() == want.len()
            && got.iter().zip(&want).all(|((gs, gf), (ws, wf))| gs == ws && same_facts(gf, wf)),
        "by_subject differs"
    );

    for e in 0..=naive.epoch + 1 {
        let mut replayed = 0;
        let naive_ok = naive.for_each_delta_since(e, &mut |_| replayed += 1);
        let mut want = naive.log_since(e).into_iter().flatten();
        let mut matched = 0;
        let mut diverged = false;
        let store_ok = store.for_each_delta_since(e, &mut |d| match want.next() {
            Some(w) if same_delta(d, w) => matched += 1,
            _ => diverged = true,
        });
        prop_assert_eq!(store_ok, naive_ok, "for_each_delta_since({}) availability", e);
        prop_assert!(
            !diverged && matched == replayed && want.next().is_none(),
            "for_each_delta_since({}) replays a different span",
            e
        );
    }
    prop_assert_eq!(store.delta_log_truncations(), naive.delta_log_truncations());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slot_store_is_observably_the_dense_store(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut store = InMemoryFacts::new();
        let mut naive = NaiveFacts::default();
        for i in 0..160 {
            let op = step(&mut rng, &mut store, &mut naive)
                .map_err(|e| TestCaseError::fail(format!("at step {i}: {e}")))?;
            check(&store, &naive)
                .map_err(|e| TestCaseError::fail(format!("after step {i} ({op}): {e}")))?;
        }
        if rng.chance(1.0 / 12.0) {
            flood(&mut rng, &mut store, &mut naive);
            check(&store, &naive)
                .map_err(|e| TestCaseError::fail(format!("after the flood: {e}")))?;
        }
    }
}
