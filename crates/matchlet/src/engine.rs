//! The matchlet engine: windowed multi-event joins driving rule firing.
//!
//! The hot path is indexed, allocation-lean, and — when the knowledge
//! plane exposes a change feed — *delta-driven* (Rete-style):
//!
//! - a **kind index** maps event kinds to the `(rule, pattern)` pairs
//!   that listen for them, so an event never touches a rule that cannot
//!   match it (and [`MatchletEngine::handles_kind`] is O(1));
//! - pattern fields are **precompiled** (attribute name vs. parsed XPath
//!   projection), so matching never re-parses keys;
//! - multi-pattern joins **probe persistent window indexes**: each
//!   pattern's window buffer (`PatternBuffer`) keeps one hash index per
//!   set of join variables a join plan needs from it, maintained in O(1)
//!   as events enter and leave the window, and the join plans themselves
//!   (partner order, join variables, serving index) are fixed when the
//!   rule is compiled — so a join costs O(matches), not O(window). A stage
//!   scans its partner's buffer only when the patterns share no variable
//!   (a cartesian join) or while a key that cannot be hashed faithfully
//!   to [`Term::eq_term`] (a non-integral or huge numeric) is inside the
//!   window;
//! - bindings are flat `(Symbol, Term)` vectors ([`Bindings`]), so
//!   environments clone in one allocation and compare keys by integer;
//! - **alpha memories** keep, per predicate a rule's goals read, the two
//!   things memo invalidation needs: a change stamp, bumped whenever the
//!   knowledge plane's insert/retract feed ([`FactDelta`]) touches the
//!   predicate, and the validity-window boundaries of its facts. The
//!   facts themselves live in the knowledge base and nowhere else;
//! - a **shared beta network** memoises the part of a `where`-goal chain
//!   that does not read the event, in a trie of join nodes owned by the
//!   engine, not by any one rule. Each rule's goals are normalised and
//!   split by which variables its event patterns bind
//!   ([`crate::canonical`]): *guards* (conditions ahead of the first fact
//!   goal) are evaluated per firing; the *memoised block* — from the
//!   first fact goal up to the first goal that mentions a pattern-bound
//!   variable — is canonically renamed and interned into the trie, so
//!   rules whose blocks share a prefix share the trie nodes, and
//!   therefore the join state, for that prefix; the goals after the block
//!   are solved against the knowledge base once per memoised solution. A
//!   node holds at most one entry — the cumulative solutions of its path,
//!   the same for every event — reused until a delta touches one of the
//!   path's predicates or a fact validity boundary is crossed. A leaf
//!   miss extends the deepest still-valid ancestor entry one goal at a
//!   time (against the same knowledge base the direct path reads) instead
//!   of re-solving the whole block, so 10k deployed rules with
//!   overlapping conditions repair each shared prefix **once** per
//!   relevant fact delta, not once per rule — and while the facts hold
//!   still, `on_event` replays a solution list instead of re-enumerating
//!   the predicate.
//!
//! Rules with nothing to memoise are solved from scratch every firing:
//! those whose first fact goal already reads the event (a user's event
//! joined against that user's facts — a narrow subject-bound probe, which
//! a memo keyed on the event never hit often enough to pay for), those
//! with no fact goal, and those whose conditions read dynamic state the
//! memo cannot see — a `fact(...)` call *inside* an expression, or the
//! clock builtins `now` / `minutes_of_day`. Equivalence with from-scratch
//! re-solving is property-tested in `tests/engine_equivalence.rs`.

use crate::ast::{EventPattern, Goal, Pat, Rule};
use crate::canonical::{canonical_chain, solve_chain, CanonicalChain};
use crate::eval::{eval, solve_mut, unify, Bindings};
use crate::parser::{parse_rules, MatchletError};
use crate::symbol::Symbol;
use gloss_event::{AttrValue, Event};
use gloss_knowledge::{Fact, FactDelta, FactSource, FactsVersion, Term};
use gloss_sim::{FnvHashMap, SimTime};
use gloss_xml::Path;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// How one pattern field reads its value from an event, precompiled so
/// the per-event path never inspects or parses field keys.
#[derive(Debug, Clone)]
enum FieldAccess {
    /// A typed attribute, by name.
    Attr(String),
    /// An XPath type projection into the XML payload (§3).
    Payload(Path),
    /// A projection key that failed to parse: matches nothing.
    Invalid,
}

#[derive(Debug, Clone)]
struct CompiledField {
    access: FieldAccess,
    pat: Pat,
}

/// A precompiled event pattern: field accessors plus the variables the
/// pattern binds (sorted, for set intersection during joins).
#[derive(Debug, Clone)]
struct CompiledPattern {
    fields: Vec<CompiledField>,
    vars: Vec<Symbol>,
}

impl CompiledPattern {
    fn new(pattern: &EventPattern) -> Self {
        let fields = pattern
            .fields
            .iter()
            .map(|(key, pat)| {
                let access = if key.contains('/') || key.starts_with('@') {
                    match Path::parse(key) {
                        Ok(path) => FieldAccess::Payload(path),
                        Err(_) => FieldAccess::Invalid,
                    }
                } else {
                    FieldAccess::Attr(key.clone())
                };
                CompiledField { access, pat: pat.clone() }
            })
            .collect::<Vec<_>>();
        let mut vars: Vec<Symbol> = fields
            .iter()
            .filter_map(|f| match f.pat {
                Pat::Var(v) => Some(v),
                _ => None,
            })
            .collect();
        vars.sort_unstable();
        vars.dedup();
        CompiledPattern { fields, vars }
    }
}

// --- alpha memories: what the memo knows about a predicate ---------------

/// Facts a predicate must have held since its boundaries were last
/// rebuilt (those left plus those retracted) before another rebuild is
/// considered: below this the stale boundaries cost less than the read.
const BOUNDARY_REBUILD_FLOOR: usize = 64;

/// What memo invalidation needs to know about one predicate some rule's
/// goals read: when it last changed, and at which instants the set of its
/// valid facts changes. The facts themselves stay in the knowledge base,
/// which memo misses solve against directly.
#[derive(Debug, Clone, Default)]
struct AlphaMemory {
    /// Validity-window boundaries (µs) of the predicate's facts, sorted.
    /// A retracted fact's boundaries linger until the next rebuild — safe
    /// either way: a stale boundary can only force a spurious memo
    /// recompute, never a stale hit.
    boundaries: Vec<u64>,
    /// Engine change stamp of the last mutation (memo invalidation).
    last_change: u64,
    /// Facts of the predicate in the knowledge base.
    live: usize,
    /// Retractions since `boundaries` was last built from a full read.
    retracted: usize,
}

impl AlphaMemory {
    /// The memory of `predicate` as `kb` holds it now.
    fn read(kb: &dyn FactSource, predicate: &str, stamp: u64) -> Self {
        let mut mem = AlphaMemory { last_change: stamp, ..Default::default() };
        for fact in kb.query(None, Some(predicate)) {
            mem.insert(fact);
        }
        mem
    }

    fn insert(&mut self, fact: &Fact) {
        for b in [fact.valid_from, fact.valid_to].into_iter().flatten() {
            let m = b.as_micros();
            if let Err(pos) = self.boundaries.binary_search(&m) {
                self.boundaries.insert(pos, m);
            }
        }
        self.live += 1;
    }

    fn retract(&mut self) {
        self.live = self.live.saturating_sub(1);
        self.retracted += 1;
    }

    /// Whether retractions since the last rebuild outnumber the facts
    /// left, i.e. most of `boundaries` may belong to facts long gone.
    /// Rebuilding is safe at any time: every retraction bumps
    /// `last_change`, so memo entries that consulted the old boundary set
    /// are condemned before their next probe.
    fn boundaries_stale(&self) -> bool {
        self.live + self.retracted >= BOUNDARY_REBUILD_FLOOR && self.retracted > self.live
    }

    /// Whether no validity boundary lies in `(lo, hi]` (µs): a solution
    /// computed at `lo` is still fact-for-fact identical at `hi`.
    fn quiet_between(&self, lo: u64, hi: u64) -> bool {
        let i = self.boundaries.partition_point(|&x| x <= lo);
        self.boundaries.get(i).is_none_or(|&x| x > hi)
    }
}

// --- the shared beta network: memoised goal solutions --------------------

/// How a rule's `where` goals are solved.
#[derive(Debug, Clone)]
enum SolvePlan {
    /// A block of the goals reads only static-predicate facts and pure
    /// builtins, and nothing from the event: its solutions are memoised in
    /// the engine's shared beta network.
    Memo {
        /// The (static) predicates the block enumerates.
        predicates: Vec<String>,
        /// The rule's own variable for each canonical slot, in slot
        /// order: replayed canonical solutions translate back through it.
        slot_vars: Vec<Symbol>,
        /// Beta-trie node ids, root to leaf, one per goal of the block.
        path: Vec<u32>,
        /// The block within `CompiledRule::goals`: the guards before it
        /// run once per firing, the goals after it once per memoised
        /// solution.
        block: Range<usize>,
    },
    /// Nothing to memoise — the first fact goal reads the event, no goal
    /// reads facts at all, or a condition reads dynamic state (`fact(...)`
    /// inside an expression, or a clock builtin): re-solved from scratch
    /// every firing.
    Direct,
}

/// Per solution of a beta path, the `(slot, value)` bindings the path
/// produced, in solve order.
type Solutions = Vec<Vec<(u32, Term)>>;

/// The memoised solve of a beta node's path: when it was computed, and
/// the *cumulative* bindings of each solution of the path's goals. The
/// path reads nothing from the event, so one entry serves every firing.
#[derive(Debug, Clone)]
struct BetaEntry {
    computed_at: SimTime,
    /// The path's solutions, shared with the child entries a memo miss
    /// extended from this one.
    solutions: Arc<Solutions>,
    /// Condition-evaluation errors the path produced (replayed into the
    /// engine stats so memoisation never hides misconfigured rules).
    solve_errors: u64,
}

/// One join node of the shared beta trie: a canonical goal under a
/// canonical prefix. Every rule whose canonical chain passes through
/// this node shares its memo.
#[derive(Debug, Clone)]
struct BetaNode {
    /// Parent node (`None` for depth-0 nodes).
    parent: Option<u32>,
    /// This node's identity under its parent (the canonical encoding of
    /// `goal`).
    repr: String,
    /// The goal, over canonical slot symbols.
    goal: Goal,
    /// Child encoding → node id.
    children: FnvHashMap<String, u32>,
    /// Distinct predicates the path up to and including this goal
    /// enumerates (invalidation scope).
    predicates: Vec<String>,
    memo: Option<BetaEntry>,
    /// Alpha change stamp the memo is valid against.
    stamp: u64,
    /// How many hosted rules route through this node.
    refs: u32,
}

/// The engine's shared beta trie.
#[derive(Debug, Clone, Default)]
struct BetaNet {
    /// Node slab; `None` = freed.
    nodes: Vec<Option<BetaNode>>,
    free: Vec<u32>,
    /// Depth-0 encoding → node id.
    roots: FnvHashMap<String, u32>,
    /// Interned slot symbols, `slot_syms[i]` = `βi`.
    slot_syms: Vec<Symbol>,
}

impl BetaNet {
    fn node(&self, id: u32) -> &BetaNode {
        self.nodes[id as usize].as_ref().expect("live beta node")
    }

    fn node_mut(&mut self, id: u32) -> &mut BetaNode {
        self.nodes[id as usize].as_mut().expect("live beta node")
    }

    fn live_nodes(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    fn shared_nodes(&self) -> usize {
        self.nodes.iter().flatten().filter(|n| n.refs > 1).count()
    }

    /// Interns a rule's canonical chain, creating missing nodes and
    /// taking a reference on every node along the path.
    fn intern_path(&mut self, chain: &CanonicalChain) -> Vec<u32> {
        while self.slot_syms.len() < chain.slot_vars.len() {
            self.slot_syms.push(crate::canonical::slot_symbol(self.slot_syms.len() as u32));
        }
        let mut path = Vec::with_capacity(chain.goals.len());
        let mut parent: Option<u32> = None;
        for (goal, repr) in chain.goals.iter().zip(&chain.reprs) {
            let existing = match parent {
                None => self.roots.get(repr).copied(),
                Some(p) => self.node(p).children.get(repr).copied(),
            };
            let id = match existing {
                Some(id) => id,
                None => {
                    let mut predicates =
                        parent.map(|p| self.node(p).predicates.clone()).unwrap_or_default();
                    if let Goal::Fact { predicate, .. } = goal {
                        if !predicates.iter().any(|q| q == predicate) {
                            predicates.push(predicate.clone());
                        }
                    }
                    let node = BetaNode {
                        parent,
                        repr: repr.clone(),
                        goal: goal.clone(),
                        children: FnvHashMap::default(),
                        predicates,
                        memo: None,
                        stamp: 0,
                        refs: 0,
                    };
                    let id = match self.free.pop() {
                        Some(id) => {
                            self.nodes[id as usize] = Some(node);
                            id
                        }
                        None => {
                            self.nodes.push(Some(node));
                            (self.nodes.len() - 1) as u32
                        }
                    };
                    match parent {
                        None => {
                            self.roots.insert(repr.clone(), id);
                        }
                        Some(p) => {
                            self.node_mut(p).children.insert(repr.clone(), id);
                        }
                    }
                    id
                }
            };
            self.node_mut(id).refs += 1;
            path.push(id);
            parent = Some(id);
        }
        path
    }

    /// Drops one rule's references along its path, freeing nodes no rule
    /// routes through any more (leaf first, so a freed child always
    /// detaches from a still-live parent).
    fn release(&mut self, path: &[u32]) {
        for &id in path.iter().rev() {
            let node = self.node_mut(id);
            node.refs -= 1;
            if node.refs == 0 {
                let parent = node.parent;
                let repr = std::mem::take(&mut node.repr);
                self.nodes[id as usize] = None;
                self.free.push(id);
                match parent {
                    None => {
                        self.roots.remove(&repr);
                    }
                    Some(p) => {
                        self.node_mut(p).children.remove(&repr);
                    }
                }
            }
        }
    }

    /// Condemns the memo entries along the path whose predicates saw
    /// alpha deltas since the node's stamp.
    fn refresh(&mut self, path: &[u32], alphas: &FnvHashMap<String, AlphaMemory>) {
        for &id in path {
            let node = self.nodes[id as usize].as_mut().expect("live beta node");
            let newest = node
                .predicates
                .iter()
                .filter_map(|p| alphas.get(p))
                .map(|a| a.last_change)
                .max()
                .unwrap_or(0);
            if newest > node.stamp {
                node.memo = None;
                node.stamp = newest;
            }
        }
    }

    /// The entry at `id`, if no validity boundary of the path's
    /// predicates was crossed since it was computed.
    fn valid_entry(
        &self,
        id: u32,
        alphas: &FnvHashMap<String, AlphaMemory>,
        now: SimTime,
    ) -> Option<&BetaEntry> {
        let node = self.node(id);
        node.memo
            .as_ref()
            .filter(|e| boundaries_quiet(alphas, &node.predicates, e.computed_at, now))
    }

    /// Computes (and memoises) the leaf entry along `path`: finds the
    /// deepest ancestor with a still-valid entry, then extends it one
    /// goal at a time, memoising at every node passed so sibling rules
    /// hit the shared prefix. Bumps `partial` when an ancestor entry was
    /// reused.
    fn compute(
        &mut self,
        path: &[u32],
        alphas: &FnvHashMap<String, AlphaMemory>,
        kb: &dyn FactSource,
        now: SimTime,
        partial: &mut u64,
    ) {
        // The walk starts below the deepest ancestor that still holds a
        // valid entry, from that entry's solutions — failing that at the
        // root, whose base case is one empty solution and no errors.
        let reused = (0..path.len().saturating_sub(1)).rev().find_map(|d| {
            let entry = self.valid_entry(path[d], alphas, now)?;
            Some((Arc::clone(&entry.solutions), entry.solve_errors, d + 1))
        });
        *partial += u64::from(reused.is_some());
        let (mut base, mut errors, start) =
            reused.unwrap_or_else(|| (Arc::new(vec![Vec::new()]), 0, 0));
        let mut env = Bindings::new();
        for &id in &path[start..] {
            let slot_syms = &self.slot_syms;
            let goal_slice = std::slice::from_ref(&self.node(id).goal);
            let mut next: Solutions = Vec::new();
            for sol in base.iter() {
                env.truncate(0);
                for (slot, term) in sol {
                    env.push_raw(slot_syms[*slot as usize], term.clone());
                }
                let mark = env.len();
                errors += solve_mut(goal_slice, &mut env, kb, now, &mut |senv| {
                    let mut cum = sol.clone();
                    for (sym, term) in &senv.raw_entries()[mark..] {
                        let slot =
                            slot_syms.iter().position(|s| s == sym).expect("canonical slot symbol")
                                as u32;
                        cum.push((slot, term.clone()));
                    }
                    next.push(cum);
                });
            }
            // The stored entry and the next level's base share one list.
            base = Arc::new(next);
            self.node_mut(id).memo = Some(BetaEntry {
                computed_at: now,
                solutions: Arc::clone(&base),
                solve_errors: errors,
            });
        }
    }
}

/// Whether, for every predicate in `predicates`, no validity boundary
/// lies strictly between the two instants (so a solution computed at one
/// is fact-for-fact identical at the other).
fn boundaries_quiet(
    alphas: &FnvHashMap<String, AlphaMemory>,
    predicates: &[String],
    a: SimTime,
    b: SimTime,
) -> bool {
    if a == b {
        return true;
    }
    let (lo, hi) =
        if a < b { (a.as_micros(), b.as_micros()) } else { (b.as_micros(), a.as_micros()) };
    predicates.iter().all(|p| alphas.get(p).is_none_or(|m| m.quiet_between(lo, hi)))
}

/// The memoisation context of one rule while an event fires it: the
/// engine's shared beta trie, the shared alpha memories, and the rule's
/// plan metadata.
struct MemoCtx<'a> {
    beta: &'a mut BetaNet,
    alphas: &'a FnvHashMap<String, AlphaMemory>,
    slot_vars: &'a [Symbol],
    path: &'a [u32],
    block: &'a Range<usize>,
    hits: u64,
    misses: u64,
    partial: u64,
}

// --- window buffers: persistent join state -------------------------------

/// One hash index over a pattern's window buffer, for one set of join
/// variables: key fingerprint → sequence numbers of the buffered entries
/// with that key, ascending. A bucket therefore walks in buffer order, and
/// the entry FIFO eviction removes is always the front of its bucket.
/// Fingerprint collisions are harmless: the join re-verifies every
/// shared binding.
#[derive(Debug, Clone)]
struct JoinIndex {
    /// The join variables (sorted).
    vars: Vec<Symbol>,
    buckets: FnvHashMap<u64, VecDeque<u64>>,
    /// Buffered entries whose key [`join_key`] cannot hash faithfully
    /// (they are in no bucket): while any is inside the window, stages on
    /// this index scan the buffer instead of probing.
    inexact: usize,
}

/// One pattern's window buffer: the partial matches in arrival order,
/// plus one [`JoinIndex`] per distinct join-variable set the rule's join
/// plans probe it with, kept in step on every push and eviction.
#[derive(Debug, Clone, Default)]
struct PatternBuffer {
    /// `(arrival time, bindings)`, oldest first.
    entries: VecDeque<(SimTime, Bindings)>,
    /// Sequence number of `entries.front()`: the entry with sequence
    /// number `s` sits at `entries[s - head]`.
    head: u64,
    indexes: Vec<JoinIndex>,
}

impl PatternBuffer {
    /// The position of the index over `vars`, created if no plan asked
    /// for that variable set yet (plan time only: the buffer is empty).
    fn index_over(&mut self, vars: Vec<Symbol>) -> usize {
        debug_assert!(self.entries.is_empty(), "indexes are fixed before events arrive");
        self.indexes.iter().position(|ix| ix.vars == vars).unwrap_or_else(|| {
            self.indexes.push(JoinIndex { vars, buckets: FnvHashMap::default(), inexact: 0 });
            self.indexes.len() - 1
        })
    }

    fn push(&mut self, at: SimTime, bindings: Bindings) {
        let seq = self.head + self.entries.len() as u64;
        for index in &mut self.indexes {
            match join_key(&bindings, &index.vars) {
                Some(key) => index.buckets.entry(key).or_default().push_back(seq),
                None => index.inexact += 1,
            }
        }
        self.entries.push_back((at, bindings));
    }

    /// Drops the entries at the front that arrived before `cutoff`. Empty
    /// buckets go with their last entry, so the indexes hold nothing the
    /// window does not.
    fn evict_before(&mut self, cutoff: SimTime) {
        while self.entries.front().is_some_and(|(t, _)| *t < cutoff) {
            let (_, bindings) = self.entries.pop_front().expect("front was just inspected");
            for index in &mut self.indexes {
                match join_key(&bindings, &index.vars) {
                    Some(key) => {
                        let Entry::Occupied(mut bucket) = index.buckets.entry(key) else {
                            unreachable!("a buffered entry with an exact key is in its bucket");
                        };
                        let seq = bucket.get_mut().pop_front();
                        debug_assert_eq!(seq, Some(self.head), "oldest entry fronts its bucket");
                        if bucket.get().is_empty() {
                            bucket.remove();
                        }
                    }
                    None => index.inexact -= 1,
                }
            }
            self.head += 1;
        }
    }
}

/// One stage of a join plan: the partner pattern whose buffer is joined
/// in, and which of that buffer's indexes is keyed on the variables the
/// partner shares with everything bound before it (`None`: it shares
/// none, and the stage is a cross product).
#[derive(Debug, Clone, Copy)]
struct JoinStage {
    partner: usize,
    index: Option<usize>,
}

/// Plans the join for each fixed pattern — the other patterns in rule
/// order, each joined on the variables already bound when its turn comes
/// — and creates the buffer indexes those stages probe.
fn join_plans(compiled: &[CompiledPattern], buffers: &mut [PatternBuffer]) -> Vec<Vec<JoinStage>> {
    (0..compiled.len())
        .map(|fixed| {
            // Variables bound so far (sorted): the fixed pattern's, then
            // each joined pattern's in turn.
            let mut bound = compiled[fixed].vars.clone();
            let mut stages = Vec::with_capacity(compiled.len() - 1);
            for (partner, cp) in compiled.iter().enumerate() {
                if partner == fixed {
                    continue;
                }
                let join_vars: Vec<Symbol> =
                    cp.vars.iter().copied().filter(|v| bound.binary_search(v).is_ok()).collect();
                let index = (!join_vars.is_empty()).then(|| buffers[partner].index_over(join_vars));
                stages.push(JoinStage { partner, index });
                for v in &cp.vars {
                    if let Err(pos) = bound.binary_search(v) {
                        bound.insert(pos, *v);
                    }
                }
            }
            stages
        })
        .collect()
}

/// A rule plus its per-pattern event buffers.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The rule.
    pub rule: Rule,
    /// Precompiled patterns, parallel to `rule.patterns`.
    compiled: Vec<CompiledPattern>,
    /// Per-pattern window buffers, parallel to `rule.patterns`.
    buffers: Vec<PatternBuffer>,
    /// Per fixed pattern (parallel to `rule.patterns`), the stages that
    /// join an event matching it against the other patterns' buffers.
    plans: Vec<Vec<JoinStage>>,
    /// The emit kind, shared so every synthesised event clones a
    /// refcount instead of the string.
    emit_kind: Arc<str>,
    /// Emit field names, parallel to `rule.emit.fields`, shared the same
    /// way.
    emit_keys: Vec<Arc<str>>,
    /// The goal chain both solve paths run ([`solve_chain`]): normalised,
    /// so memoising a block of it changes neither the order of firings
    /// nor the error count — or as written, for a rule that reads dynamic
    /// state.
    goals: Vec<Goal>,
    /// How the goals are solved (memoised vs from scratch).
    plan: SolvePlan,
    /// How many times the rule has fired.
    pub fired: u64,
}

impl CompiledRule {
    fn new(rule: Rule, beta: &mut BetaNet) -> Self {
        let compiled: Vec<CompiledPattern> =
            rule.patterns.iter().map(CompiledPattern::new).collect();
        let mut buffers = vec![PatternBuffer::default(); rule.patterns.len()];
        let plans = join_plans(&compiled, &mut buffers);
        let emit_kind = Arc::from(rule.emit.kind.as_str());
        let emit_keys = rule.emit.fields.iter().map(|(k, _)| Arc::from(k.as_str())).collect();
        let goals = solve_chain(&rule);
        let plan = match canonical_chain(&rule) {
            Some(chain) => SolvePlan::Memo {
                path: beta.intern_path(&chain),
                predicates: chain.predicates,
                slot_vars: chain.slot_vars,
                block: chain.block,
            },
            None => SolvePlan::Direct,
        };
        CompiledRule { rule, compiled, buffers, plans, emit_kind, emit_keys, goals, plan, fired: 0 }
    }

    fn evict_before(&mut self, cutoff: SimTime) {
        for buf in &mut self.buffers {
            buf.evict_before(cutoff);
        }
    }

    /// Total buffered partial matches.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(|b| b.entries.len()).sum()
    }
}

/// Aggregate engine statistics — the "distillation" measure of Figure 1:
/// a high volume of input events reduced to few meaningful outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events offered to the engine.
    pub events_in: u64,
    /// Events synthesised.
    pub events_out: u64,
    /// Where-clause evaluation errors (branches pruned).
    pub eval_errors: u64,
    /// Firings served from a memoised goal solve.
    pub memo_hits: u64,
    /// Firings that had to re-solve their goals (and memoised the result).
    pub memo_misses: u64,
    /// Memo misses that reused a still-valid shared-prefix entry from an
    /// ancestor beta node instead of re-solving the whole chain.
    pub beta_partial_hits: u64,
    /// Join environments extended through a window index: one bucket
    /// probe visiting only the partner's key-compatible buffered entries.
    pub join_probes: u64,
    /// Join environments extended by scanning the partner's whole window
    /// buffer: the patterns share no variable, or a key that cannot be
    /// hashed faithfully (a non-integral or huge numeric) was in the
    /// window or in the probing environment.
    pub join_scans: u64,
}

impl EngineStats {
    /// Input events per output event (∞ reported as `f64::INFINITY`).
    pub fn distillation_ratio(&self) -> f64 {
        if self.events_out == 0 {
            f64::INFINITY
        } else {
            self.events_in as f64 / self.events_out as f64
        }
    }
}

/// A matchlet engine hosting compiled rules.
///
/// All hosted rules — however they were deployed — share one set of
/// alpha memories, one change-feed cursor, and one beta trie per engine:
/// a node running many matchlets reads the change feed once per
/// knowledge update, and rules with overlapping goal prefixes share the
/// join state for the overlap. The engine holds no copy of any fact.
///
/// See the [crate docs](crate) for the language and an example.
#[derive(Debug, Clone, Default)]
pub struct MatchletEngine {
    rules: Vec<CompiledRule>,
    /// Event kind → `(rule index, pattern index)` pairs listening for it,
    /// in rule order. Rebuilt on rule addition/removal.
    kind_index: FnvHashMap<String, Vec<(u32, u32)>>,
    /// Predicate → alpha memory, shared by every memoised rule.
    alphas: FnvHashMap<String, AlphaMemory>,
    /// The shared beta trie (prefix-shared join state).
    beta: BetaNet,
    /// The knowledge-base version the alpha memories reflect (`None` =
    /// not synced / source has no change feed).
    synced: Option<FactsVersion>,
    /// Bumped whenever a tracked predicate changes; compared against
    /// each beta node's memo stamp for invalidation.
    change_stamp: u64,
    /// Rule set changed since the last sync: alpha coverage must be
    /// re-checked against the rules' plans.
    plans_dirty: bool,
    /// How many hosted rules have a memoisable plan; when zero, the
    /// per-event sync is skipped entirely (direct-only engines pay
    /// nothing for the delta machinery).
    memo_rules: usize,
    /// Scratch for `on_event`'s per-rule `(pattern, bindings)` matches,
    /// kept so the steady state does not allocate it per event.
    matched: Vec<(usize, Bindings)>,
    /// The join environment `join_and_fire` extends in place and
    /// truncates back, kept so a join allocates nothing per pair.
    join_env: Bindings,
    /// Engine statistics.
    pub stats: EngineStats,
}

impl MatchletEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        MatchletEngine::default()
    }

    /// Compiles source text into a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns [`MatchletError`] on syntax errors.
    pub fn compile(src: &str) -> Result<Self, MatchletError> {
        let mut engine = MatchletEngine::new();
        engine.add_rules(src)?;
        Ok(engine)
    }

    /// Hot-adds rules from source to a running engine (the dynamic
    /// deployment path used by code bundles).
    ///
    /// # Errors
    ///
    /// Returns [`MatchletError`] on syntax errors; existing rules are
    /// untouched.
    pub fn add_rules(&mut self, src: &str) -> Result<(), MatchletError> {
        for rule in parse_rules(src)? {
            self.add_rule(rule);
        }
        Ok(())
    }

    /// Adds one already-parsed rule, threading its canonical goal chain
    /// into the shared beta trie. Any predicate its goals read that is
    /// not yet tracked gets its alpha memory at the next event.
    pub fn add_rule(&mut self, rule: Rule) {
        let ri = self.rules.len() as u32;
        for (pi, pattern) in rule.patterns.iter().enumerate() {
            self.kind_index.entry(pattern.kind.clone()).or_default().push((ri, pi as u32));
        }
        let compiled = CompiledRule::new(rule, &mut self.beta);
        if matches!(compiled.plan, SolvePlan::Memo { .. }) {
            self.memo_rules += 1;
        }
        self.rules.push(compiled);
        self.plans_dirty = true;
    }

    /// Removes a rule by name; returns whether it existed. Its
    /// references on the beta trie go with it — join state shared with
    /// no surviving rule is freed — and alpha memories no rule reads any
    /// more are dropped (so unrelated fact churn stops invalidating
    /// anything).
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let before = self.rules.len();
        let mut i = 0;
        while i < self.rules.len() {
            if self.rules[i].rule.name == name {
                let gone = self.rules.remove(i);
                if let SolvePlan::Memo { path, .. } = &gone.plan {
                    self.beta.release(path);
                }
            } else {
                i += 1;
            }
        }
        if before == self.rules.len() {
            return false;
        }
        self.rebuild_kind_index();
        let rules = &self.rules;
        self.alphas.retain(|pred, _| {
            rules.iter().any(|r| match &r.plan {
                SolvePlan::Memo { predicates, .. } => predicates.iter().any(|p| p == pred),
                SolvePlan::Direct => false,
            })
        });
        self.memo_rules =
            self.rules.iter().filter(|r| matches!(r.plan, SolvePlan::Memo { .. })).count();
        self.plans_dirty = true;
        true
    }

    fn rebuild_kind_index(&mut self) {
        self.kind_index.clear();
        for (ri, compiled) in self.rules.iter().enumerate() {
            for (pi, pattern) in compiled.rule.patterns.iter().enumerate() {
                self.kind_index
                    .entry(pattern.kind.clone())
                    .or_default()
                    .push((ri as u32, pi as u32));
            }
        }
    }

    /// The hosted rule names.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.rule.name.as_str()).collect()
    }

    /// The hosted rules (with buffer state).
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// How many predicates the engine tracks changes of (rules sharing a
    /// predicate share the alpha memory).
    pub fn indexed_predicates(&self) -> usize {
        self.alphas.len()
    }

    /// How many join nodes the shared beta trie holds. Rules with
    /// alpha-equivalent goal prefixes share nodes, so this is strictly
    /// less than the total goal count when prefixes overlap.
    pub fn beta_nodes(&self) -> usize {
        self.beta.live_nodes()
    }

    /// How many beta nodes more than one hosted rule routes through.
    pub fn beta_shared_nodes(&self) -> usize {
        self.beta.shared_nodes()
    }

    /// Whether any rule listens for the given event kind (one index
    /// lookup; hosting layers call this per event).
    pub fn handles_kind(&self, kind: &str) -> bool {
        self.kind_index.contains_key(kind)
    }

    /// Offers an event to the rules listening for its kind; returns the
    /// synthesised events. Rules without a pattern on the event's kind
    /// are never touched.
    ///
    /// Joining semantics: the new event is fixed at each pattern position
    /// it matches and joined against the *buffered* partial matches of
    /// the other patterns (so an event never joins with itself), then the
    /// event is buffered. All joined events lie within the rule's window
    /// of the new event.
    pub fn on_event(&mut self, now: SimTime, event: &Event, kb: &dyn FactSource) -> Vec<Event> {
        self.on_event_joining(now, event, kb, join_and_fire)
    }

    /// [`on_event`](Self::on_event) with the join as a parameter, so the
    /// tests can run a transcription of an earlier join strategy through
    /// the same matching, memo and emit code.
    fn on_event_joining(
        &mut self,
        now: SimTime,
        event: &Event,
        kb: &dyn FactSource,
        join: JoinFn,
    ) -> Vec<Event> {
        self.stats.events_in += 1;
        let mut out = Vec::new();
        let MatchletEngine {
            rules,
            kind_index,
            alphas,
            beta,
            synced,
            change_stamp,
            plans_dirty,
            memo_rules,
            matched,
            join_env,
            stats,
        } = self;
        let Some(entries) = kind_index.get(event.kind()) else {
            return out;
        };
        let delta_active =
            *memo_rules > 0 && sync(alphas, synced, change_stamp, plans_dirty, rules, kb);
        // Entries are grouped by rule (rule order, then pattern order).
        let mut i = 0;
        while i < entries.len() {
            let ri = entries[i].0 as usize;
            let mut j = i;
            while j < entries.len() && entries[j].0 as usize == ri {
                j += 1;
            }
            let pattern_entries = &entries[i..j];
            i = j;

            let rule = &mut rules[ri];
            let window = rule.rule.window;
            let cutoff = if now.as_micros() > window.as_micros() {
                SimTime::from_micros(now.as_micros() - window.as_micros())
            } else {
                SimTime::ZERO
            };
            rule.evict_before(cutoff);

            for &(_, pi) in pattern_entries {
                let p = pi as usize;
                if let Some(b) = match_compiled(&rule.compiled[p], event) {
                    matched.push((p, b));
                }
            }
            if matched.is_empty() {
                continue;
            }

            // Single-pattern rules have no join partner, so their buffers
            // are never read: fire directly and skip buffering entirely.
            let single = rule.rule.patterns.len() == 1;
            let rule = &rules[ri];
            let mut memoctx = match &rule.plan {
                SolvePlan::Memo { slot_vars, path, block, .. } if delta_active => {
                    // Condemn stale memo entries along the rule's beta
                    // path: any delta that touched a predicate a path
                    // node reads (and only that).
                    beta.refresh(path, alphas);
                    Some(MemoCtx {
                        beta: &mut *beta,
                        alphas,
                        slot_vars,
                        path,
                        block,
                        hits: 0,
                        misses: 0,
                        partial: 0,
                    })
                }
                _ => None,
            };

            let mut tally = Tally::default();
            if single {
                // Single-pattern rules never buffer: fire each match in
                // place and leave nothing for the push below.
                for (_, bindings) in matched.iter_mut() {
                    fire(rule, &mut memoctx, bindings, kb, now, &mut out, &mut tally);
                }
                matched.clear();
            } else {
                for (p, bindings) in matched.iter() {
                    join_env.assign(bindings);
                    let plan = &rule.plans[*p];
                    join(rule, plan, join_env, &mut memoctx, kb, now, &mut out, &mut tally);
                }
            }
            stats.eval_errors += tally.errors;
            stats.join_probes += tally.join_probes;
            stats.join_scans += tally.join_scans;
            if let Some(ctx) = memoctx.take() {
                stats.memo_hits += ctx.hits;
                stats.memo_misses += ctx.misses;
                stats.beta_partial_hits += ctx.partial;
            }
            let rule = &mut rules[ri];
            rule.fired += tally.fired;
            for (p, bindings) in matched.drain(..) {
                rule.buffers[p].push(now, bindings);
            }
        }
        stats.events_out += out.len() as u64;
        out
    }
}

/// What one rule did with one event; folded into the rule's and the
/// engine's counters once its joins have run.
#[derive(Default)]
struct Tally {
    fired: u64,
    errors: u64,
    join_probes: u64,
    join_scans: u64,
}

/// Brings the alpha memories up to date with `kb`'s change feed (a free
/// function over the engine's destructured fields, so `on_event` can
/// hold its kind-index borrow across the call). Returns whether
/// memoisation is usable for this event (`false` when the source has no
/// feed, in which case every rule solves directly).
fn sync(
    alphas: &mut FnvHashMap<String, AlphaMemory>,
    synced: &mut Option<FactsVersion>,
    change_stamp: &mut u64,
    plans_dirty: &mut bool,
    rules: &[CompiledRule],
    kb: &dyn FactSource,
) -> bool {
    let Some(v) = kb.version() else {
        if synced.is_some() {
            // The source cannot tell us what changed: drop the memories
            // and run direct until a delta-capable source comes back.
            *synced = None;
            alphas.clear();
            *change_stamp += 1;
        }
        return false;
    };
    let up_to_date = match *synced {
        Some(s) if s.source == v.source => {
            if v.epoch == s.epoch {
                true
            } else {
                // Fold the delta span into the alpha memories.
                *change_stamp += 1;
                let stamp = *change_stamp;
                let replayed = kb.for_each_delta_since(s.epoch, &mut |d| {
                    if let Some(mem) = alphas.get_mut(d.fact().predicate.as_str()) {
                        mem.last_change = stamp;
                        match d {
                            FactDelta::Insert(fact) => mem.insert(fact),
                            FactDelta::Retract(_) => mem.retract(),
                        }
                    }
                });
                if replayed {
                    for (predicate, mem) in alphas.iter_mut() {
                        if mem.boundaries_stale() {
                            *mem = AlphaMemory::read(kb, predicate, mem.last_change);
                        }
                    }
                }
                replayed
            }
        }
        _ => false,
    };
    if !up_to_date {
        // A different store, or the feed was truncated past our cursor:
        // rebuild from a full read.
        *change_stamp += 1;
        alphas.clear();
        *plans_dirty = true;
    }
    if *plans_dirty {
        let stamp = *change_stamp;
        for rule in rules {
            let SolvePlan::Memo { predicates, .. } = &rule.plan else {
                continue;
            };
            for p in predicates {
                if !alphas.contains_key(p.as_str()) {
                    alphas.insert(p.clone(), AlphaMemory::read(kb, p, stamp));
                }
            }
        }
        *plans_dirty = false;
    }
    *synced = Some(v);
    true
}

/// Matches one precompiled pattern against an event, producing bindings.
/// The kind has already been matched by the engine's kind index.
fn match_compiled(pattern: &CompiledPattern, event: &Event) -> Option<Bindings> {
    let mut env = Bindings::new();
    for field in &pattern.fields {
        let value = match &field.access {
            FieldAccess::Attr(name) => attr_to_term(event.attr(name)?),
            FieldAccess::Payload(path) => {
                let payload = event.payload()?;
                let text = path.select_text_first(payload)?;
                text_to_term(&text)
            }
            FieldAccess::Invalid => return None,
        };
        if !unify(&field.pat, &value, &mut env) {
            return None;
        }
    }
    Some(env)
}

/// How `on_event` joins one fixed pattern's bindings along its join
/// plan and fires the complete join environments: [`join_and_fire`]
/// outside the tests.
type JoinFn = fn(
    &CompiledRule,
    &[JoinStage],
    &mut Bindings,
    &mut Option<MemoCtx<'_>>,
    &dyn FactSource,
    SimTime,
    &mut Vec<Event>,
    &mut Tally,
);

/// Joins `env` against the remaining `stages` of a join plan (all of
/// them: `env` holds the fixed pattern's bindings; fewer: the stages
/// before have extended it) and fires the rule's goals/emit for every
/// complete join environment. `env` comes back as it was passed.
///
/// The join runs depth first: each compatible buffered entry extends
/// `env` in place, the join recurses into the next stage (or fires,
/// after the last) and `env` is truncated back, so a join allocates
/// nothing per pair. Firings come out in the order of the stages'
/// buffer walks, nested — the order a stage-by-stage (breadth-first)
/// join fires in.
///
/// A stage whose partner shares variables with the environment probes the
/// partner buffer's index on those variables, so only key-compatible
/// entries are visited — in buffer order, exactly the entries and the
/// order a scan would have produced, since `Bindings::join` re-verifies
/// every shared binding either way.
#[allow(clippy::too_many_arguments)]
fn join_and_fire(
    rule: &CompiledRule,
    stages: &[JoinStage],
    env: &mut Bindings,
    memo: &mut Option<MemoCtx<'_>>,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    tally: &mut Tally,
) {
    let Some((stage, rest)) = stages.split_first() else {
        fire(rule, memo, env, kb, now, out, tally);
        return;
    };
    let buffer = &rule.buffers[stage.partner];
    if buffer.entries.is_empty() {
        return;
    }
    // An index serves the stage only while every buffered key is exactly
    // hashable: an entry outside the buckets must not be skipped.
    let index = stage.index.map(|i| &buffer.indexes[i]).filter(|ix| ix.inexact == 0);
    // `Some(bucket)`: the only entries that can be compatible. `None`: no
    // usable index, or this environment's own key is not exactly
    // hashable — scan the buffer for it.
    let probe = index.and_then(|ix| join_key(env, &ix.vars).map(|key| ix.buckets.get(&key)));
    let mark = env.len();
    let mut join = |buffered: &Bindings, tally: &mut Tally| {
        if env.join(buffered) {
            join_and_fire(rule, rest, env, memo, kb, now, out, tally);
            env.truncate(mark);
        }
    };
    match probe {
        Some(bucket) => {
            tally.join_probes += 1;
            for &seq in bucket.into_iter().flatten() {
                join(&buffer.entries[(seq - buffer.head) as usize].1, tally);
            }
        }
        None => {
            tally.join_scans += 1;
            for (_, buffered) in &buffer.entries {
                join(buffered, tally);
            }
        }
    }
}

/// Evaluates the emit spec over one solution and pushes the synthesised
/// event (shared by the fresh-solve and memo-replay paths).
#[inline]
fn emit_one(
    rule: &CompiledRule,
    solution: &Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    tally: &mut Tally,
) {
    let mut ev = Event::new(rule.emit_kind.clone());
    for (key, (_, expr)) in rule.emit_keys.iter().zip(&rule.rule.emit.fields) {
        match eval(expr, solution, kb, now) {
            Ok(term) => ev.set_attr(key.clone(), term_to_attr(&term)),
            Err(_) => {
                tally.errors += 1;
                return;
            }
        }
    }
    tally.fired += 1;
    out.push(ev);
}

/// Solves the rule's where-goals over one join environment and emits one
/// event per solution. Bindings are appended to `env` and truncated
/// again while solving; it comes back as it was passed.
///
/// With a [`MemoCtx`] (delta-driven mode) only the guards and the goals
/// after the memoised block are solved here. The block's solutions come
/// from the rule's leaf node in the shared beta trie, unless a validity
/// boundary of the path's predicates was crossed since they were
/// computed; on such a miss the trie extends the deepest still-valid
/// ancestor entry — join work another rule may already have paid for —
/// goal by goal against `kb`, memoising at every node passed. Either way
/// the leaf's canonical solutions replay through the rule's own
/// variables, in the order a from-scratch solve enumerates them. Emit
/// expressions are always evaluated fresh (they may read the clock or the
/// raw knowledge base).
fn fire(
    rule: &CompiledRule,
    memo: &mut Option<MemoCtx<'_>>,
    env: &mut Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    tally: &mut Tally,
) {
    let Some(ctx) = memo.as_mut() else {
        // Direct path: re-solve from scratch against the knowledge base.
        // `rule.goals` is the same chain the beta path splits, so the two
        // paths count errors identically.
        let solve_errors = solve_mut(&rule.goals, env, kb, now, &mut |solution| {
            emit_one(rule, solution, kb, now, out, tally);
        });
        tally.errors += solve_errors;
        return;
    };

    // Guards are conditions: they pass once or not at all.
    let mut passed = false;
    tally.errors += solve_mut(&rule.goals[..ctx.block.start], env, kb, now, &mut |_| passed = true);
    if !passed {
        return;
    }
    let leaf = *ctx.path.last().expect("memoised rules have a non-empty beta path");
    if ctx.beta.valid_entry(leaf, ctx.alphas, now).is_some() {
        ctx.hits += 1;
    } else {
        ctx.misses += 1;
        ctx.beta.compute(ctx.path, ctx.alphas, kb, now, &mut ctx.partial);
    }
    let entry = ctx.beta.node(leaf).memo.as_ref().expect("hit or just computed");
    tally.errors += entry.solve_errors;
    let rest = &rule.goals[ctx.block.end..];
    let mark = env.len();
    for solution in entry.solutions.iter() {
        for (slot, term) in solution {
            env.push_raw(ctx.slot_vars[*slot as usize], term.clone());
        }
        let solve_errors = solve_mut(rest, env, kb, now, &mut |solution| {
            emit_one(rule, solution, kb, now, out, tally);
        });
        tally.errors += solve_errors;
        env.truncate(mark);
    }
}

/// Fingerprints the join variables' values in `env` into a hash key, or
/// `None` when the key cannot be hashed faithfully to
/// [`Term::eq_term`] and the join must scan the buffer instead.
///
/// Numeric terms (`Int`/`Float`/`Time`) hash their `f64` value, so
/// `Int(3)` and `Float(3.0)` land in the same bucket — but only
/// *integral* values within `f64`'s exact range qualify: two integral
/// values within eq_term's 1e-12 epsilon are bitwise equal, while
/// non-integral or huge numerics can compare eq_term-equal with
/// different bits and would make buckets diverge from scan
/// semantics. Unbound variables also yield `None` (cannot happen for a
/// pattern's own buffered bindings). Non-numeric terms compare
/// structurally and always hash faithfully.
fn join_key(env: &Bindings, join_vars: &[Symbol]) -> Option<u64> {
    use std::hash::Hasher as _;
    // IEEE 754 zero has two bit patterns (+0.0 / -0.0) that compare
    // equal; hash them identically.
    fn norm_bits(f: f64) -> u64 {
        (if f == 0.0 { 0.0 } else { f }).to_bits()
    }
    let mut h = gloss_sim::FnvHasher::default();
    for &v in join_vars {
        let term = env.get_sym(v)?;
        if let Some(f) = term.as_f64() {
            if f.fract() != 0.0 || f.abs() >= 9.0e15 {
                return None;
            }
            h.write_u8(1);
            h.write_u64(norm_bits(f));
        } else {
            match term {
                Term::Str(s) => {
                    h.write_u8(2);
                    h.write(s.as_bytes());
                }
                Term::Bool(b) => {
                    h.write_u8(3);
                    h.write_u8(*b as u8);
                }
                Term::Geo(g) => {
                    h.write_u8(4);
                    h.write_u64(norm_bits(g.lat));
                    h.write_u64(norm_bits(g.lon));
                }
                // Int/Float/Time are numeric and handled above.
                _ => h.write_u8(5),
            }
        }
    }
    Some(h.finish())
}

/// Converts an event attribute to a matchlet term.
pub fn attr_to_term(value: &AttrValue) -> Term {
    match value {
        AttrValue::Str(s) => Term::Str(s.clone()),
        AttrValue::Int(i) => Term::Int(*i),
        AttrValue::Float(f) => Term::Float(*f),
        AttrValue::Bool(b) => Term::Bool(*b),
    }
}

/// Converts a matchlet term to an event attribute.
pub fn term_to_attr(term: &Term) -> AttrValue {
    match term {
        Term::Str(s) => AttrValue::Str(s.clone()),
        Term::Int(i) => AttrValue::Int(*i),
        Term::Float(f) => AttrValue::Float(*f),
        Term::Bool(b) => AttrValue::Bool(*b),
        Term::Geo(g) => AttrValue::Str(format!("{},{}", g.lat, g.lon).into()),
        Term::Time(t) => AttrValue::Int(t.as_micros() as i64),
    }
}

/// Parses projected payload text into the most specific term.
fn text_to_term(text: &str) -> Term {
    let t = text.trim();
    if let Ok(i) = t.parse::<i64>() {
        return Term::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Term::Float(f);
    }
    match t {
        "true" => Term::Bool(true),
        "false" => Term::Bool(false),
        _ => Term::str(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_knowledge::{Fact, InMemoryFacts};
    use gloss_xml::parse;
    use proptest::prelude::*;

    fn kb() -> InMemoryFacts {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "nationality", Term::str("scottish")));
        kb.add(Fact::new("anna", "nationality", Term::str("australian")));
        kb.add(Fact::new("anna", "likes", Term::str("ice cream")));
        kb
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn single_pattern_rule_fires_immediately() {
        let mut e = MatchletEngine::compile(
            r#"rule r { on a: event ping(n: ?n) where ?n > 2 emit pong(n: ?n) }"#,
        )
        .unwrap();
        let out = e.on_event(t(0), &Event::new("ping").with_attr("n", 5i64), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind(), "pong");
        assert_eq!(out[0].num_attr("n"), Some(5.0));
        let out = e.on_event(t(1), &Event::new("ping").with_attr("n", 1i64), &kb());
        assert!(out.is_empty());
        assert_eq!(e.stats.events_in, 2);
        assert_eq!(e.stats.events_out, 1);
    }

    #[test]
    fn two_pattern_join_within_window() {
        let src = r#"
            rule meet {
                on a: event user.location(user: ?u, place: ?p)
                on b: event user.location(user: ?v, place: ?p)
                where ?u != ?v
                within 1m
                emit co_located(a: ?u, b: ?v, place: ?p)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let ev = |u: &str, p: &str| {
            Event::new("user.location").with_attr("user", u).with_attr("place", p)
        };
        assert!(e.on_event(t(0), &ev("bob", "market st"), &kb()).is_empty());
        // Different place: no join.
        assert!(e.on_event(t(10), &ev("anna", "north st"), &kb()).is_empty());
        // Same place within window: fires (both pattern orders join).
        let out = e.on_event(t(20), &ev("anna", "market st"), &kb());
        assert_eq!(out.len(), 2, "anna joins bob's buffered event in both roles");
        assert_eq!(out[0].kind(), "co_located");
    }

    #[test]
    fn window_expiry_prevents_stale_joins() {
        let src = r#"
            rule meet {
                on a: event x(u: ?u)
                on b: event y(v: ?v)
                within 30 s
                emit z(u: ?u, v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        e.on_event(t(0), &Event::new("x").with_attr("u", "one"), &kb());
        // 60 s later: the x event has expired.
        let out = e.on_event(t(60), &Event::new("y").with_attr("v", "two"), &kb());
        assert!(out.is_empty());
        // Within the window it joins.
        e.on_event(t(70), &Event::new("x").with_attr("u", "three"), &kb());
        let out = e.on_event(t(80), &Event::new("y").with_attr("v", "four"), &kb());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn event_does_not_join_with_itself() {
        let src = r#"
            rule pair {
                on a: event k(u: ?u)
                on b: event k(v: ?v)
                within 1m
                emit p(u: ?u, v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k").with_attr("u", "x").with_attr("v", "x"), &kb());
        assert!(out.is_empty(), "first event has nothing buffered to join");
    }

    #[test]
    fn fact_goals_enrich_matches() {
        let src = r#"
            rule hot_for_you {
                on w: event weather(celsius: ?c)
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                where ?c >= hot_threshold(?nat)
                within 1m
                emit suggest(user: ?u, c: ?c)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        // 20C: hot for scottish bob (18), not for australian anna (30).
        let out = e.on_event(t(0), &Event::new("weather").with_attr("celsius", 20.0), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].str_attr("user"), Some("bob"));
        // 35C: hot for both.
        let out = e.on_event(t(10), &Event::new("weather").with_attr("celsius", 35.0), &kb());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn payload_projection_binding() {
        let src = r#"
            rule gps {
                on l: event loc("pos/@lat": ?lat, "pos/@lon": ?lon)
                where ?lat > 56.0
                within 1m
                emit seen(lat: ?lat, lon: ?lon)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let payload = parse(r#"<fix><pos lat="56.34" lon="-2.80"/></fix>"#).unwrap();
        let out = e.on_event(t(0), &Event::new("loc").with_payload(payload), &kb());
        assert_eq!(out.len(), 1);
        assert!((out[0].num_attr("lat").unwrap() - 56.34).abs() < 1e-9);
        // Event without a payload cannot match a projection pattern.
        let out = e.on_event(t(1), &Event::new("loc"), &kb());
        assert!(out.is_empty());
    }

    #[test]
    fn literal_field_constraints_filter() {
        let src = r#"
            rule walkers {
                on l: event loc(user: ?u, on_foot: true)
                within 1m
                emit walking(user: ?u)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let walk = Event::new("loc").with_attr("user", "bob").with_attr("on_foot", true);
        let drive = Event::new("loc").with_attr("user", "anna").with_attr("on_foot", false);
        assert_eq!(e.on_event(t(0), &walk, &kb()).len(), 1);
        assert_eq!(e.on_event(t(1), &drive, &kb()).len(), 0);
    }

    #[test]
    fn hot_rule_addition_and_removal() {
        let mut e = MatchletEngine::new();
        assert!(!e.handles_kind("ping"));
        e.add_rules(r#"rule r { on a: event ping() emit pong() }"#).unwrap();
        assert!(e.handles_kind("ping"));
        assert_eq!(e.on_event(t(0), &Event::new("ping"), &kb()).len(), 1);
        assert!(e.remove_rule("r"));
        assert!(!e.remove_rule("r"));
        assert!(!e.handles_kind("ping"));
        assert_eq!(e.on_event(t(1), &Event::new("ping"), &kb()).len(), 0);
    }

    #[test]
    fn kind_index_tracks_rule_indices_after_removal() {
        let mut e = MatchletEngine::new();
        e.add_rules(
            r#"
            rule one { on a: event x() emit ox() }
            rule two { on a: event y() emit oy() }
            rule three { on a: event y() emit oz() }
            "#,
        )
        .unwrap();
        // Removing `one` shifts the indices of `two` and `three`.
        assert!(e.remove_rule("one"));
        assert!(!e.handles_kind("x"));
        let out = e.on_event(t(0), &Event::new("y"), &kb());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind(), "oy");
        assert_eq!(out[1].kind(), "oz");
    }

    #[test]
    fn distillation_ratio() {
        let mut e = MatchletEngine::compile(
            r#"rule r { on a: event tick(n: ?n) where ?n = 0 emit rare() }"#,
        )
        .unwrap();
        for i in 0..100i64 {
            e.on_event(t(i as u64), &Event::new("tick").with_attr("n", i % 50), &kb());
        }
        assert_eq!(e.stats.events_out, 2);
        assert_eq!(e.stats.distillation_ratio(), 50.0);
    }

    #[test]
    fn cross_variable_join_narrows() {
        // The shared ?u across patterns requires the same user.
        let src = r#"
            rule same_user {
                on a: event enter(user: ?u)
                on b: event exit(user: ?u)
                within 1m
                emit visit(user: ?u)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        e.on_event(t(0), &Event::new("enter").with_attr("user", "bob"), &kb());
        let out = e.on_event(t(5), &Event::new("exit").with_attr("user", "anna"), &kb());
        assert!(out.is_empty(), "different users do not join");
        let out = e.on_event(t(6), &Event::new("exit").with_attr("user", "bob"), &kb());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn hash_join_matches_nested_loop_on_deep_buffers() {
        // A deep buffer with only a few compatible entries: the index
        // probe must find exactly those, in arrival order.
        let src = r#"
            rule same_user {
                on a: event enter(user: ?u, n: ?n)
                on b: event exit(user: ?u)
                within 10m
                emit visit(user: ?u, n: ?n)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..40i64 {
            let user = format!("user{}", i % 10);
            e.on_event(
                t(i as u64),
                &Event::new("enter").with_attr("user", user).with_attr("n", i),
                &kb(),
            );
        }
        // user3 entered 4 times (i = 3, 13, 23, 33).
        let out = e.on_event(t(50), &Event::new("exit").with_attr("user", "user3"), &kb());
        assert_eq!(out.len(), 4);
        let ns: Vec<f64> = out.iter().map(|ev| ev.num_attr("n").unwrap()).collect();
        assert_eq!(ns, vec![3.0, 13.0, 23.0, 33.0], "buffer order is preserved");
    }

    /// `Bindings::merged` as the breadth-first join called it: `None` on
    /// a conflicting shared variable, else a fresh copy of `env` extended
    /// with `other`'s unbound variables.
    fn merged(env: &Bindings, other: &Bindings) -> Option<Bindings> {
        for (k, v) in other.iter() {
            if env.get_sym(k).is_some_and(|existing| !existing.eq_term(v)) {
                return None;
            }
        }
        let mut child = env.clone();
        for (k, v) in other.iter() {
            if child.get_sym(k).is_none() {
                child.push_raw(k, v.clone());
            }
        }
        Some(child)
    }

    /// The join `on_event` ran before [`join_and_fire`]: stage by stage,
    /// every merged environment of a stage materialised in a vector
    /// before the next stage reads it, the last stage firing each merged
    /// environment directly.
    #[allow(clippy::too_many_arguments)]
    fn breadth_first_join_and_fire(
        rule: &CompiledRule,
        plan: &[JoinStage],
        fixed: &mut Bindings,
        memo: &mut Option<MemoCtx<'_>>,
        kb: &dyn FactSource,
        now: SimTime,
        out: &mut Vec<Event>,
        tally: &mut Tally,
    ) {
        let mut envs: Vec<Bindings> = Vec::new();
        for (s, stage) in plan.iter().enumerate() {
            let buffer = &rule.buffers[stage.partner];
            if buffer.entries.is_empty() {
                return;
            }
            let current = if s == 0 { std::slice::from_ref(&*fixed) } else { &envs[..] };
            let last = s + 1 == plan.len();
            let mut next = Vec::new();
            let index = stage.index.map(|i| &buffer.indexes[i]).filter(|ix| ix.inexact == 0);
            for env in current {
                let probe =
                    index.and_then(|ix| join_key(env, &ix.vars).map(|key| ix.buckets.get(&key)));
                let mut join = |buffered: &Bindings, tally: &mut Tally| {
                    if let Some(mut child) = merged(env, buffered) {
                        if last {
                            fire(rule, memo, &mut child, kb, now, out, tally);
                        } else {
                            next.push(child);
                        }
                    }
                };
                match probe {
                    Some(bucket) => {
                        tally.join_probes += 1;
                        for &seq in bucket.into_iter().flatten() {
                            join(&buffer.entries[(seq - buffer.head) as usize].1, tally);
                        }
                    }
                    None => {
                        tally.join_scans += 1;
                        for (_, buffered) in &buffer.entries {
                            join(buffered, tally);
                        }
                    }
                }
            }
            if next.is_empty() {
                return;
            }
            envs = next;
        }
    }

    /// Join keys: integral numerics that hash exactly (`Int(3)` and
    /// `Float(3.0)`, `0`, `0.0` and `-0.0` must share a bucket), strings
    /// that name knowledge-base subjects, and floats that do not hash
    /// exactly yet are `eq_term`-equal to another (`0.1 + 0.2` vs `0.3`,
    /// one ulp above 3 vs 3).
    fn oracle_values() -> [Term; 12] {
        [
            Term::Int(0),
            Term::Int(1),
            Term::Int(3),
            Term::Float(3.0),
            Term::Float(0.0),
            Term::Float(-0.0),
            Term::str("ua"),
            Term::str("ub"),
            Term::Float(0.5),
            Term::Float(3.0 + 4e-16),
            Term::Float(0.1 + 0.2),
            Term::Float(0.3),
        ]
    }

    /// Pattern `i` of an oracle rule: binds the event's serial number to
    /// `?n{i}` and constrains fields with shared variables (a variable
    /// may repeat within the pattern), wildcards or a literal. Pattern 0
    /// always binds `?v0`, which the direct rule's fact goal reads.
    fn oracle_pattern(i: usize) -> impl Strategy<Value = String> {
        let pat = || {
            prop_oneof![
                (0usize..3).prop_map(|v| format!("?v{v}")),
                (0usize..3).prop_map(|v| format!("?v{v}")),
                Just("_".to_string()),
                Just("3".to_string()),
            ]
        };
        let extra = if i == 0 { 0..2 } else { 1..3 };
        ((0usize..3), proptest::collection::vec(((0usize..3), pat()), extra)).prop_map(
            move |(k, fields)| {
                let mut fields: Vec<String> =
                    fields.iter().map(|(f, p)| format!("f{f}: {p}")).collect();
                if i == 0 {
                    fields.insert(0, "f0: ?v0".to_string());
                }
                format!("on p{i}: event k{k}(n: ?n{i}, {})", fields.join(", "))
            },
        )
    }

    /// A two- or three-pattern rule named `name` with the given
    /// where-clause; the emit may read an unbound variable (an error).
    fn oracle_rule(name: &'static str, goals: &'static str) -> impl Strategy<Value = String> {
        let emit = prop_oneof![Just(""), Just(", x: ?v1")];
        (oracle_pattern(0), oracle_pattern(1), oracle_pattern(2), any::<bool>(), emit, 3u64..12)
            .prop_map(move |(p0, p1, p2, three, emit, window)| {
                let (patterns, serials) = if three {
                    (format!("{p0} {p1} {p2}"), "a: ?n0, b: ?n1, c: ?n2")
                } else {
                    (format!("{p0} {p1}"), "a: ?n0, b: ?n1")
                };
                format!(
                    "rule {name} {{ {patterns} {goals} within {window} s \
                     emit out(rule: \"{name}\", {serials}{emit}) }}"
                )
            })
    }

    #[derive(Debug, Clone)]
    enum OracleOp {
        /// Advance time by this many seconds and offer an event of kind
        /// `k{kind}` carrying these values as `f0..f2`.
        Event(u64, usize, Vec<Term>),
        /// Add `ub rank 1` if absent, else retract it: the memo's beta
        /// entries go stale and are recomputed.
        Churn,
    }

    fn oracle_op() -> impl Strategy<Value = OracleOp> {
        let event = || {
            let value = (0usize..oracle_values().len()).prop_map(|i| oracle_values()[i].clone());
            ((0u64..4), (0usize..3), proptest::collection::vec(value, 3..4))
                .prop_map(|(dt, kind, values)| OracleOp::Event(dt, kind, values))
        };
        prop_oneof![event(), event(), event(), event(), Just(OracleOp::Churn)]
    }

    // The in-place depth-first join emits the same events, in the same
    // order, with the same error, memo and probe/scan tallies as the
    // breadth-first `merged` join it replaced — for 2- and 3-pattern
    // rules on both solve plans.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn in_place_join_matches_the_breadth_first_merged_join(
            plain in oracle_rule("plain", "where ?v0 != ?v1"),
            direct in oracle_rule("direct", "where fact(?v0, likes, ?w)"),
            memo in oracle_rule("memo", "where fact(?s, likes, ?w) and fact(?s, rank, ?v1)"),
            memo_cond in oracle_rule("memo_cond", "where fact(?s, rank, ?r) where ?r = ?v0"),
            ops in proptest::collection::vec(oracle_op(), 1..100),
        ) {
                let mut kb = InMemoryFacts::new();
            for (s, p, o) in [
                ("ua", "likes", Term::str("ice")),
                ("ub", "likes", Term::str("ice")),
                ("ua", "likes", Term::str("tea")),
                ("ua", "rank", Term::Int(3)),
                ("ub", "rank", Term::Float(3.0)),
                ("ua", "rank", Term::Float(-0.0)),
                ("ub", "rank", Term::Float(0.1 + 0.2)),
            ] {
                kb.add(Fact::new(s, p, o));
            }
            let src = [plain, direct, memo, memo_cond].join("\n");
            let mut in_place = MatchletEngine::compile(&src).expect("oracle rules parse");
            let mut breadth_first = in_place.clone();
            let plans: Vec<bool> =
                in_place.rules().iter().map(|r| matches!(r.plan, SolvePlan::Memo { .. })).collect();
            prop_assert_eq!(plans, vec![false, false, true, true], "two rules on each plan");
            let churned = Fact::new("ub", "rank", Term::Int(1));
            let mut now = SimTime::ZERO;
            for (serial, op) in ops.iter().enumerate() {
                match op {
                    OracleOp::Event(dt, kind, values) => {
                        now += gloss_sim::SimDuration::from_secs(*dt);
                        let mut ev = Event::new(format!("k{kind}")).with_attr("n", serial as i64);
                        for (f, value) in values.iter().enumerate() {
                            ev.set_attr(format!("f{f}"), term_to_attr(value));
                        }
                        let got = in_place.on_event(now, &ev, &kb);
                        let expected = breadth_first.on_event_joining(
                            now,
                            &ev,
                            &kb,
                            breadth_first_join_and_fire,
                        );
                        prop_assert_eq!(got, expected, "diverged on {} at {}", ev, now);
                        prop_assert_eq!(in_place.stats, breadth_first.stats);
                    }
                    OracleOp::Churn => {
                        if kb.query(Some("ub"), Some("rank")).any(|f| *f == churned) {
                            kb.retract("ub", "rank", &churned.object);
                        } else {
                            kb.add(churned.clone());
                        }
                    }
                }
            }
            for (a, b) in in_place.rules().iter().zip(breadth_first.rules()) {
                prop_assert_eq!((a.fired, a.buffered()), (b.fired, b.buffered()));
            }
        }
    }

    #[test]
    fn numeric_join_keys_cross_int_float() {
        // Int(3) in the buffer must hash-join with Float(3.0) probes,
        // mirroring eq_term's numeric equality.
        let src = r#"
            rule num {
                on a: event ia(v: ?v)
                on b: event fb(v: ?v)
                within 10m
                emit both(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20i64 {
            e.on_event(t(i as u64), &Event::new("ia").with_attr("v", i), &kb());
        }
        let out = e.on_event(t(30), &Event::new("fb").with_attr("v", 7.0), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_attr("v"), Some(7.0));
    }

    #[test]
    fn epsilon_equal_floats_join_even_with_deep_buffers() {
        // 0.1 + 0.2 != 0.3 bitwise but eq_term-equal; the join must not
        // lose the pair to the index, so while a non-integral float is
        // buffered the stage scans.
        let src = r#"
            rule f {
                on a: event x(v: ?v)
                on b: event y(v: ?v)
                within 10m
                emit z(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20u64 {
            let v = if i == 5 { 0.1 + 0.2 } else { i as f64 + 0.5 };
            e.on_event(t(i), &Event::new("x").with_attr("v", v), &kb());
        }
        let out = e.on_event(t(30), &Event::new("y").with_attr("v", 0.3), &kb());
        assert_eq!(out.len(), 1, "epsilon-equal pair must join");
    }

    #[test]
    fn negative_zero_joins_with_positive_zero_at_depth() {
        // -0.0 and 0.0 are eq_term-equal with different bit patterns;
        // the index must bucket them together.
        let src = r#"
            rule f {
                on a: event x(v: ?v)
                on b: event y(v: ?v)
                within 10m
                emit z(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20u64 {
            let v = if i == 5 { -0.0 } else { (i as f64) + 1.0 };
            e.on_event(t(i), &Event::new("x").with_attr("v", v), &kb());
        }
        let out = e.on_event(t(30), &Event::new("y").with_attr("v", 0.0), &kb());
        assert_eq!(out.len(), 1, "-0.0 buffered entry must join a +0.0 probe");
    }

    #[test]
    fn inexact_keys_scan_only_while_they_are_in_the_window() {
        let src = r#"
            rule f {
                on a: event x(v: ?v)
                on b: event y(v: ?v)
                within 10 s
                emit z(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let x = |v: f64| Event::new("x").with_attr("v", v);
        let y = |v: f64| Event::new("y").with_attr("v", v);
        e.on_event(t(0), &x(1.0), &kb());
        assert_eq!(e.on_event(t(1), &y(1.0), &kb()).len(), 1);
        assert_eq!((e.stats.join_probes, e.stats.join_scans), (1, 0));
        // One ulp above 3 is not exactly hashable, yet eq_term-equal to
        // 3. It enters x's window (its own probe of y's buffer scans, for
        // itself alone); from then on y-side stages must scan, or the
        // exactly hashable 3.0 would miss it.
        e.on_event(t(2), &x(3.0 + 4e-16), &kb());
        assert_eq!((e.stats.join_probes, e.stats.join_scans), (1, 1));
        assert_eq!(e.on_event(t(3), &y(3.0), &kb()).len(), 1, "the epsilon-equal pair joins");
        assert_eq!(e.on_event(t(4), &y(1.0), &kb()).len(), 1);
        assert_eq!((e.stats.join_probes, e.stats.join_scans), (1, 3));
        // t=13: the inexact entry (t=2) has left the 10 s window, and the
        // stage is back on the index.
        e.on_event(t(12), &x(2.0), &kb());
        assert!(e.on_event(t(13), &y(3.0), &kb()).is_empty());
        assert_eq!((e.stats.join_probes, e.stats.join_scans), (3, 3));
    }

    #[test]
    fn window_indexes_drain_with_the_window() {
        // Three patterns whose join-variable set differs per fixed
        // pattern, so a buffer carries more than one index.
        let src = r#"
            rule tri {
                on a: event ka(p: ?x, q: ?y)
                on b: event kb(p: ?x, q: ?z)
                on c: event kc(p: ?y, q: ?z)
                within 20 s
                emit out(x: ?x, y: ?y, z: ?z)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let indexes: Vec<usize> = e.rules()[0].buffers.iter().map(|b| b.indexes.len()).collect();
        assert_eq!(indexes, [2, 2, 1], "a: x, y; b: x, xz; c: yz");
        let kinds = ["ka", "kb", "kc"];
        for i in 0..90u64 {
            // Unboundedly many distinct keys, some not exactly hashable.
            let p = if i % 7 == 0 { AttrValue::Float(i as f64 + 0.5) } else { (i as i64).into() };
            let ev = Event::new(kinds[(i % 3) as usize]).with_attr("p", p).with_attr("q", i as i64);
            e.on_event(t(i), &ev, &kb());
            let rule = &e.rules()[0];
            for buffer in &rule.buffers {
                for index in &buffer.indexes {
                    let bucketed: usize = index.buckets.values().map(VecDeque::len).sum();
                    assert_eq!(bucketed + index.inexact, buffer.entries.len());
                    assert!(index.buckets.values().all(|b| !b.is_empty()));
                }
            }
            assert!(rule.buffered() <= 21, "the window bounds the buffers");
        }
        // One event of each kind long after: every buffer is evicted
        // down to that event, and nothing else lingers in any index.
        for (i, kind) in kinds.iter().enumerate() {
            let ev = Event::new(*kind).with_attr("p", 1i64).with_attr("q", 1i64);
            e.on_event(t(1000 + i as u64), &ev, &kb());
        }
        e.on_event(t(2000), &Event::new("ka"), &kb());
        let rule = &e.rules()[0];
        assert_eq!(rule.buffered(), 0);
        for buffer in &rule.buffers {
            assert_eq!(buffer.head, 31, "90 events over three kinds, plus one");
            for index in &buffer.indexes {
                assert!(index.buckets.is_empty(), "no bucket outlives its entries");
                assert_eq!(index.inexact, 0);
            }
        }
    }

    #[test]
    fn emit_errors_counted_and_skipped() {
        let src = r#"rule r { on a: event k() emit out(v: ?never_bound) }"#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k"), &kb());
        assert!(out.is_empty());
        assert_eq!(e.stats.eval_errors, 1);
    }

    // --- delta-driven matching ------------------------------------------

    const FACT_RULE: &str = r#"
        rule suggest {
            on w: event weather(celsius: ?c)
            where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
            where ?c >= hot_threshold(?nat)
            within 1m
            emit suggest(user: ?u)
        }
    "#;

    #[test]
    fn repeated_events_hit_the_memo() {
        let kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        // The temperature differs event to event: the memoised block
        // (`likes ∧ nationality`) never reads it, the threshold filter
        // behind the block does.
        for i in 0..10 {
            let ev = Event::new("weather").with_attr("celsius", 20.0 + i as f64);
            let out = e.on_event(t(i), &ev, &kb);
            assert_eq!(out.len(), 1, "bob suggested every event");
        }
        assert_eq!(e.stats.memo_misses, 1, "one fresh solve");
        assert_eq!(e.stats.memo_hits, 9, "then replays");
        assert_eq!(e.indexed_predicates(), 2, "likes + nationality");
    }

    #[test]
    fn fact_churn_invalidates_and_repairs_incrementally() {
        let mut kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 35.0);
        assert_eq!(e.on_event(t(0), &ev, &kb).len(), 2, "bob and anna");
        assert_eq!(e.on_event(t(1), &ev, &kb).len(), 2);
        // Anna stops liking ice cream: the delta must reach the memo.
        assert_eq!(kb.retract("anna", "likes", &Term::str("ice cream")), 1);
        assert_eq!(e.on_event(t(2), &ev, &kb).len(), 1, "only bob now");
        // A new fan appears mid-stream.
        kb.add(Fact::new("zoe", "likes", Term::str("ice cream")));
        kb.add(Fact::new("zoe", "nationality", Term::str("scottish")));
        let out = e.on_event(t(3), &ev, &kb);
        assert_eq!(out.len(), 2, "bob and zoe");
        assert_eq!(out[1].str_attr("user"), Some("zoe"));
        // Steady state again: served from the memo.
        let hits = e.stats.memo_hits;
        e.on_event(t(4), &ev, &kb);
        assert!(e.stats.memo_hits > hits);
    }

    #[test]
    fn unrelated_predicate_churn_keeps_memos_valid() {
        let mut kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        e.on_event(t(0), &ev, &kb);
        let misses = e.stats.memo_misses;
        // Churn on a predicate the rule never reads.
        for i in 0..5 {
            kb.add(Fact::new("bob", "visited", Term::Int(i)));
            e.on_event(t(1 + i as u64), &ev, &kb);
        }
        assert_eq!(e.stats.memo_misses, misses, "no re-solve for unrelated churn");
    }

    #[test]
    fn validity_windows_expire_out_of_the_memories() {
        let mut kb = InMemoryFacts::new();
        kb.add(
            Fact::new("shop", "open", Term::Bool(true))
                .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        let src = r#"
            rule visit {
                on p: event ping()
                where fact(?s, open, true)
                within 1m
                emit go(shop: ?s)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let ping = Event::new("ping");
        assert!(e.on_event(t(50), &ping, &kb).is_empty(), "not open yet");
        assert_eq!(e.on_event(t(150), &ping, &kb).len(), 1, "open");
        assert_eq!(e.on_event(t(160), &ping, &kb).len(), 1, "memo hit inside window");
        assert!(e.on_event(t(250), &ping, &kb).is_empty(), "expired out of the memo");
        assert!(e.stats.memo_hits >= 1);
    }

    #[test]
    fn rule_churn_invalidation_is_clean() {
        let mut kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        assert_eq!(e.on_event(t(0), &ev, &kb).len(), 1);
        // A second rule sharing one predicate: the alpha memory is shared.
        e.add_rules(
            r#"rule fans { on q: event query() where fact(?u, likes, "ice cream") emit fan(user: ?u) }"#,
        )
        .unwrap();
        assert_eq!(e.on_event(t(1), &Event::new("query"), &kb).len(), 2);
        assert_eq!(e.indexed_predicates(), 2, "likes shared, nationality");
        // Removing the first rule drops its predicate when unused.
        assert!(e.remove_rule("suggest"));
        assert_eq!(e.indexed_predicates(), 1, "nationality dropped, likes kept");
        kb.add(Fact::new("zoe", "likes", Term::str("ice cream")));
        assert_eq!(e.on_event(t(2), &Event::new("query"), &kb).len(), 3);
        assert!(e.remove_rule("fans"));
        assert_eq!(e.indexed_predicates(), 0);
    }

    #[test]
    fn clock_reading_rules_stay_on_the_direct_path() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("shop", "closes_at", Term::Int(17 * 60)));
        let src = r#"
            rule open_now {
                on p: event ping()
                where fact(?s, closes_at, ?c)
                where minutes_of_day() < ?c
                within 1m
                emit go(shop: ?s)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        // 10:00: open. 18:00: closed. Memoisation must not freeze the
        // clock — the rule reads `minutes_of_day()`.
        assert_eq!(e.on_event(SimTime::from_secs(10 * 3600), &Event::new("ping"), &kb).len(), 1);
        assert_eq!(
            e.on_event(SimTime::from_secs(10 * 3600 + 1), &Event::new("ping"), &kb).len(),
            1
        );
        assert!(e.on_event(SimTime::from_secs(18 * 3600), &Event::new("ping"), &kb).is_empty());
        assert_eq!(e.stats.memo_hits + e.stats.memo_misses, 0, "never memoised");
    }

    #[test]
    fn sources_without_a_change_feed_disable_memoisation() {
        /// A [`FactSource`] that hides its change feed.
        struct Opaque<'a>(&'a InMemoryFacts);
        impl FactSource for Opaque<'_> {
            fn query<'b>(
                &'b self,
                subject: Option<&'b str>,
                predicate: Option<&'b str>,
            ) -> Box<dyn Iterator<Item = &'b Fact> + 'b> {
                self.0.query(subject, predicate)
            }
        }
        let kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        assert_eq!(e.on_event(t(0), &ev, &Opaque(&kb)).len(), 1);
        assert_eq!(e.on_event(t(1), &ev, &Opaque(&kb)).len(), 1);
        assert_eq!(e.stats.memo_hits + e.stats.memo_misses, 0);
        assert_eq!(e.indexed_predicates(), 0);
        // Handing it a delta-capable source switches memoisation on.
        assert_eq!(e.on_event(t(2), &ev, &kb).len(), 1);
        assert_eq!(e.stats.memo_misses, 1);
    }

    #[test]
    fn goals_that_read_the_event_are_solved_against_the_knowledge_base() {
        // The only fact goal reads ?u, which arrives bound from the
        // event: there is nothing the memo could share between users, so
        // the rule never enters the beta network.
        let src = r#"
            rule likes_what {
                on l: event seen(user: ?u)
                where fact(?u, likes, ?what)
                within 1m
                emit pref(user: ?u, what: ?what)
            }
        "#;
        let kb = kb();
        let mut e = MatchletEngine::compile(src).unwrap();
        let see = |u: &str| Event::new("seen").with_attr("user", u);
        assert_eq!(e.on_event(t(0), &see("bob"), &kb).len(), 1);
        assert_eq!(e.on_event(t(1), &see("anna"), &kb).len(), 1);
        let out = e.on_event(t(2), &see("bob"), &kb);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].str_attr("user"), Some("bob"));
        assert_eq!(e.stats.memo_hits + e.stats.memo_misses, 0, "nothing offered to the memo");
        assert_eq!(e.beta_nodes(), 0);
    }

    #[test]
    fn nan_objects_retract_cleanly_through_the_memo() {
        // NaN != NaN under PartialEq, so nothing downstream of the feed
        // may depend on finding "the same" fact again: the retract delta
        // alone must condemn the memoised solution.
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("s", "score", Term::Float(f64::NAN)));
        let src = r#"rule r { on p: event ping() where fact(?u, score, ?v) emit out(u: ?u) }"#;
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.on_event(t(0), &Event::new("ping"), &kb).len(), 1);
        assert_eq!(e.on_event(t(1), &Event::new("ping"), &kb).len(), 1);
        assert_eq!(e.stats.memo_hits, 1, "the solution is memoised");
        kb.remove_subject("s");
        assert!(
            e.on_event(t(2), &Event::new("ping"), &kb).is_empty(),
            "retracting the NaN fact must invalidate the memo"
        );
        assert_eq!(e.stats.memo_misses, 2);
    }

    #[test]
    fn churned_boundaries_are_rebuilt_from_the_facts_left() {
        let windowed = |i: u64| {
            Fact::new(format!("s{i}"), "p", Term::Int(i as i64))
                .valid_between(SimTime::from_secs(i), SimTime::from_secs(i + 1000))
        };
        let mut kb = InMemoryFacts::new();
        kb.extend((0..100).map(windowed));
        let src = r#"rule r { on q: event ping() where fact(?s, p, ?v) emit out(s: ?s) }"#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let ping = Event::new("ping");
        assert_eq!(e.on_event(t(999), &ping, &kb).len(), 100);
        assert_eq!(e.alphas["p"].boundaries.len(), 200);
        // 80 of the 100 go: retractions outnumber the facts left, so the
        // boundaries are read back from the 20 survivors instead of
        // carrying 160 instants at which nothing changes any more.
        for i in 0..80 {
            assert_eq!(kb.retract(&format!("s{i}"), "p", &Term::Int(i)), 1);
        }
        let out = e.on_event(t(999), &ping, &kb);
        assert_eq!(out.len(), 20);
        assert_eq!(out[0].str_attr("s"), Some("s80"), "survivors keep kb order");
        let mem = &e.alphas["p"];
        assert_eq!((mem.live, mem.retracted), (20, 0));
        let expected: Vec<u64> =
            (80..100).chain(1080..1100).map(|secs| SimTime::from_secs(secs).as_micros()).collect();
        assert_eq!(mem.boundaries, expected);
        // Below the 64-fact floor stale boundaries stay, by design.
        for i in 80..95 {
            kb.retract(&format!("s{i}"), "p", &Term::Int(i));
        }
        assert_eq!(e.on_event(t(999), &ping, &kb).len(), 5);
        let mem = &e.alphas["p"];
        assert_eq!((mem.live, mem.retracted), (5, 15));
        assert_eq!(mem.boundaries.len(), 40);
        // A kept boundary still condemns: s95's window opens at t=95.
        assert_eq!(e.on_event(t(94), &ping, &kb).len(), 0);
        assert_eq!(e.on_event(t(95), &ping, &kb).len(), 1);
    }

    #[test]
    fn memo_does_not_conflate_int_and_float_keys() {
        // Int(5) and Float(5.0) are eq_term-equal but divide differently.
        // The filter reads the event, so it is a guard evaluated per
        // firing; only `fact(ok, is, true)` replays from the memo.
        let src = r#"
            rule halve {
                on k: event k(v: ?v)
                where fact(ok, is, true)
                where ?v / 2 > 1
                within 1m
                emit h(half: ?v / 2)
            }
        "#;
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("ok", "is", Term::Bool(true)));
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k").with_attr("v", 5i64), &kb);
        assert_eq!(out[0].num_attr("half"), Some(2.0), "integer division");
        let out = e.on_event(t(1), &Event::new("k").with_attr("v", 5.0), &kb);
        assert_eq!(out[0].num_attr("half"), Some(2.5), "float division");
    }

    // --- shared beta network --------------------------------------------

    #[test]
    fn shared_prefix_rules_share_beta_nodes() {
        // 10 rules, each `likes ∧ nationality ∧ <own filter over ?nat>`:
        // the two fact goals intern once, only the filter leaves differ.
        // (A filter that also read ?c would end the memoised block and
        // run per solution instead of becoming a leaf.)
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!(
                r#"rule r{i} {{
                    on w: event weather(celsius: ?c)
                    where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                    where ?nat != "x{i}"
                    within 1m
                    emit s{i}(user: ?u)
                }}"#
            ));
        }
        let e = MatchletEngine::compile(&src).unwrap();
        assert_eq!(e.beta_nodes(), 2 + 10, "two shared fact nodes + ten filter leaves");
        assert_eq!(e.beta_shared_nodes(), 2, "the fact prefix is shared by all ten");
    }

    #[test]
    fn shared_prefix_computed_once_feeds_sibling_rules() {
        let src = r#"
            rule fans {
                on q: event query()
                where fact(?u, likes, "ice cream")
                emit fan(user: ?u)
            }
            rule natl_fans {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                emit natl(user: ?u, nat: ?nat)
            }
        "#;
        let kb = kb();
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.beta_shared_nodes(), 1, "the likes node hosts both rules");
        let out = e.on_event(t(0), &Event::new("query"), &kb);
        assert_eq!(out.len(), 4, "2 fans + 2 national fans");
        // Whichever rule ran second extended the first rule's leaf entry
        // instead of re-enumerating `likes` from the knowledge base.
        assert_eq!(e.stats.beta_partial_hits, 1, "prefix reused across rules");
        assert_eq!(e.stats.memo_misses, 2);
        // Steady state: both leaves replay.
        e.on_event(t(1), &Event::new("query"), &kb);
        assert_eq!(e.stats.memo_hits, 2);
    }

    #[test]
    fn beta_nodes_free_when_the_last_hosted_rule_leaves() {
        let src = r#"
            rule a {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                emit a(user: ?u)
            }
            rule b {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, visited, ?p)
                emit b(user: ?u)
            }
        "#;
        let mut kb = kb();
        kb.add(Fact::new("bob", "visited", Term::str("market st")));
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.beta_nodes(), 3, "shared likes + two suffix leaves");
        assert!(e.remove_rule("a"));
        assert_eq!(e.beta_nodes(), 2, "a's nationality leaf freed, prefix kept");
        assert_eq!(e.beta_shared_nodes(), 0);
        // The surviving rule still fires through the retained nodes.
        assert_eq!(e.on_event(t(0), &Event::new("query"), &kb).len(), 1);
        assert!(e.remove_rule("b"));
        assert_eq!(e.beta_nodes(), 0, "empty net once no rule routes through it");
    }

    #[test]
    fn hoisted_filters_share_prefixes_across_placements() {
        // Rule a writes the filter *after* the second fact goal; rule b
        // writes it in hoisted position. Normalisation makes the chains
        // identical, so the whole 3-node path is shared — and firings
        // still reflect the filter.
        let src = r#"
            rule a {
                on q: event query()
                where fact(?u, likes, ?w) and fact(?u, nationality, ?n) and ?w != "golf"
                emit a(user: ?u)
            }
            rule b {
                on q: event query()
                where fact(?p, likes, ?q) and ?q != "golf" and fact(?p, nationality, ?m)
                emit b(user: ?p)
            }
        "#;
        let mut kb = kb();
        kb.add(Fact::new("zoe", "likes", Term::str("golf")));
        kb.add(Fact::new("zoe", "nationality", Term::str("scottish")));
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.beta_nodes(), 3, "one fully shared chain");
        assert_eq!(e.beta_shared_nodes(), 3);
        let out = e.on_event(t(0), &Event::new("query"), &kb);
        assert_eq!(out.len(), 4, "bob+anna for each rule; zoe filtered in both");
        assert!(out.iter().all(|ev| ev.str_attr("user") != Some("zoe")));
        assert_eq!(e.stats.memo_misses, 1, "second rule replays the first's leaf");
        assert_eq!(e.stats.memo_hits, 1);
    }
}
