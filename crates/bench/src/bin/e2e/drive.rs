//! Feeds a [`Plan`] to `ActiveArchitecture` through its public API and
//! observes it from outside.
//!
//! One repetition is: build and set up a fresh architecture (timed as
//! `setup_s`), then advance it one simulated second at a time, handing
//! it the slice's inputs at each boundary and timing each slice on the
//! host clock. A repetition runs in one of two passes: **bulk**
//! (`World::run_until`, the production scheduler path every host-time
//! and allocation number comes from) or **stepped** (`World::step`, one
//! event at a time, so the benchmark can see the simulated instant each
//! notification reaches a UI client and each fact update reaches a
//! follower's `kb`). Both passes must leave the same [`digest`].

use crate::workload::{Plan, SLICE_US, WINDOW_S};
use gloss_core::{ActiveArchitecture, ArchConfig, ServiceSpec};
use gloss_event::Event;
use gloss_knowledge::{DistributedKnowledge, Fact, FactSource, InMemoryFacts};
use gloss_overlay::Key;
use gloss_sim::{FnvHasher, NodeIndex, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::time::Instant;

/// The architecture's own seed (topology jitter, overlay keys, engine
/// RNG). Fixed: where nodes sit and which of them the evolution engine
/// picks as hosts is the system's layout, not a generated input, and
/// letting it move with `--seed` would make the simulated latencies of
/// two seeds incomparable.
pub const ARCH_SEED: u64 = 2003;

/// Slice boundaries sit this far past a whole simulated second, clear of
/// the heartbeat, sweep and probe timers that fire on round instants (so
/// "at the boundary" means the same thing to both passes).
const BOUNDARY_PHASE_US: u64 = 537_313;

/// Makes repetitions within one process comparable. Every fact store
/// takes its `source` id from a process-wide counter; the id travels in
/// kb documents as decimal text, document sizes feed quota-aware replica
/// placement, and so the simulated outcome of a run depends on how many
/// stores the process created before it. Burning the counter up to seven
/// digits once pins the width (and with it every document size) for the
/// next nine million stores.
pub fn pin_fact_source_width() {
    while InMemoryFacts::new().version().is_some_and(|v| v.source < 1_000_000) {}
}

/// How the world is advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Bulk,
    Stepped,
}

/// A fact update on its way to one follower (stepped pass only).
#[derive(Debug, Clone)]
pub struct KbSpan {
    pub subject: String,
    pub epoch: u64,
    pub node: NodeIndex,
    /// When `update_knowledge` shipped it / when the follower asked.
    pub shipped: SimTime,
    pub pulled: SimTime,
    /// When the follower's `kb` reflected it (`None`: never, by the end).
    pub applied: Option<SimTime>,
}

/// Everything one repetition leaves behind.
pub struct Rep {
    pub arch: ActiveArchitecture,
    /// Start of the timed section.
    pub t0: SimTime,
    pub setup_s: f64,
    /// Host seconds per slice of the timed section, and of the control
    /// kernel run right after each slice.
    pub slice_s: Vec<f64>,
    pub control_s: Vec<f64>,
    /// Matchlet hosts when timing started, in `hosts_of` order (the
    /// order the plan's unprefetched host slots refer to).
    pub hosts: Vec<NodeIndex>,
    /// Every world counter when timing started.
    pub counters_at_t0: BTreeMap<String, f64>,
    /// Node-field totals when timing started (see [`NodeTotals`]).
    pub totals_at_t0: NodeTotals,
    /// `store.lookup_ms` samples recorded before timing started.
    pub lookups_at_t0: usize,
    /// Allocator reading when timing started.
    pub allocs_at_t0: crate::alloc::Snapshot,
    /// `overlay.evictions` after each slice.
    pub evictions_by_slice: Vec<f64>,
    /// Stepped pass: per UI node (in `plan.ui_nodes` order), the
    /// simulated arrival instant of each `ui_received` entry.
    pub arrivals: Vec<Vec<SimTime>>,
    /// Stepped pass: `ui_received` lengths when timing started.
    pub ui_base: Vec<usize>,
    pub kb_spans: Vec<KbSpan>,
    /// `degraded_recovery`: seconds from the crash until the service is
    /// fully placed again, every surviving kb document is back at its
    /// replica target and notifications flow (`None`: not by the end).
    pub recovery_s: Option<f64>,
    /// Seconds from the crash until `satisfaction() == 1.0` alone.
    pub satisfied_s: Option<f64>,
}

/// Sums of public per-node fields that no world counter mirrors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTotals {
    /// Messages handled by node 0's broker / by all other brokers.
    pub hub_broker_msgs: u64,
    pub leaf_broker_msgs: u64,
    pub subscriptions: u64,
    pub engine_events_in: u64,
    pub engine_events_out: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub beta_partial_hits: u64,
    pub eval_errors: u64,
}

impl NodeTotals {
    pub fn read(arch: &ActiveArchitecture) -> NodeTotals {
        let mut t = NodeTotals::default();
        for node in arch.world().nodes() {
            if node.is_coordinator() {
                t.hub_broker_msgs += node.broker.msgs_handled;
            } else {
                t.leaf_broker_msgs += node.broker.msgs_handled;
            }
            t.subscriptions += node.broker.subscription_count() as u64;
            // Every node offers its locally sensed events to its engine;
            // only engines that host rules do any work on them.
            if node.server.engine().rules().is_empty() {
                continue;
            }
            let s = node.server.engine().stats;
            t.engine_events_in += s.events_in;
            t.engine_events_out += s.events_out;
            t.memo_hits += s.memo_hits;
            t.memo_misses += s.memo_misses;
            t.beta_partial_hits += s.beta_partial_hits;
            t.eval_errors += s.eval_errors;
        }
        t
    }
}

fn boundary(t0: SimTime, slice: usize) -> SimTime {
    t0 + SimDuration::from_micros(slice as u64 * SLICE_US)
}

/// Builds the architecture and brings it to the start of the timed
/// section: settle, seed knowledge, deploy, prefetch, subscribe, warm up.
fn setup(plan: &Plan, threads: usize) -> (ActiveArchitecture, Vec<NodeIndex>, SimTime) {
    let mut arch = ActiveArchitecture::build(ArchConfig {
        nodes: plan.nodes,
        seed: ARCH_SEED,
        ..Default::default()
    });
    // Set explicitly, whatever GLOSS_SIM_THREADS says: every end-to-end
    // number is taken with one simulator thread.
    arch.world_mut().set_threads(threads);
    arch.settle();

    for (u, facts) in plan.profiles.iter().enumerate() {
        let via = plan.sensor_nodes[u % plan.sensor_nodes.len()];
        arch.seed_knowledge(via, &Plan::user_name(u), facts);
    }
    if !plan.profiles.is_empty() {
        arch.run_for(SimDuration::from_secs(30));
    }

    let mut hosts = Vec::new();
    if plan.instances > 0 {
        let spec = ServiceSpec::new(
            "meetup",
            crate::workload::meetup_rules(WINDOW_S),
            vec![(None, plan.instances)],
        )
        .expect("benchmark rules compile");
        arch.deploy_service(spec);
        arch.run_for(SimDuration::from_secs(60));
        assert_eq!(arch.satisfaction(), 1.0, "service placed during setup");
        hosts = arch.hosts_of("matchlet:meetup");
        if let Some(f) = &plan.faults {
            let topology = arch.world().topology();
            assert!(
                hosts.iter().any(|&h| topology.node(h).region == f.region),
                "the crash must take a matchlet host with it (hosts {hosts:?})"
            );
        }
    }

    // Knowledge is prefetched everywhere (the role the paper gives the
    // caching policies), except the plan's deliberate holes.
    let holes = plan.holes(&hosts);
    for u in 0..plan.profiles.len() {
        let name = Plan::user_name(u);
        for i in 0..plan.nodes as u32 {
            if !holes.contains(&(u, NodeIndex(i))) {
                arch.prefetch_subject(NodeIndex(i), &name);
            }
        }
    }
    if !plan.profiles.is_empty() {
        arch.run_for(SimDuration::from_secs(30));
    }

    for (node, filter) in &plan.ui_filters {
        arch.subscribe_ui(*node, filter.clone());
    }
    arch.run_for(SimDuration::from_secs(10));

    // Warm-up: one event of every kind from every sensor node, long
    // enough before timing that the join window forgets them. Lazy
    // one-time work (discovery probes for unhandled kinds, first-event
    // index builds) happens here, not in the timed section. Warm-up
    // events carry a negative `t0`; the oracle ignores them.
    let warm = arch.now() + SimDuration::from_secs(1);
    let mut k = 0i64;
    for &node in &plan.sensor_nodes {
        for kind in &plan.kinds {
            k += 1;
            let event = Event::new(*kind)
                .with_attr("user", Plan::user_name(0))
                .with_attr("street", Plan::street_name(0))
                .with_attr("celsius", 0.0)
                .with_attr("zone", -1i64)
                .with_attr("level", -1i64)
                .with_attr("t0", -k);
            arch.publish_at(warm + SimDuration::from_micros(k as u64 * 997), node, event);
        }
    }
    let resume = arch.now() + SimDuration::from_secs(WINDOW_S + 10);
    let t0 =
        SimTime::from_micros(resume.as_micros().div_ceil(SLICE_US) * SLICE_US + BOUNDARY_PHASE_US);
    arch.world_mut().heal_at(t0);
    arch.run_until(t0);
    (arch, hosts, t0)
}

/// The per-boundary harness state shared by both passes.
struct Harness<'p> {
    plan: &'p Plan,
    t0: SimTime,
    next_sensor: usize,
    next_churn: usize,
    next_late: usize,
    /// Mutations shipped at the previous boundary, to be pulled now.
    to_pull: Vec<(usize, u64)>,
    /// `(user, host)` pairs the plan left unprefetched. The host's first
    /// pull of such a user cannot apply (nothing to extend): it falls
    /// back to the snapshot, which predates the batch — so the harness,
    /// standing in for the caching policy, pulls the batch once more a
    /// second later, when the host is anchored.
    holes: Vec<(usize, NodeIndex)>,
    repull: Vec<(usize, NodeIndex)>,
    hosts: Vec<NodeIndex>,
    kb_spans: Vec<KbSpan>,
    /// Indices into `kb_spans` not yet seen applied, with the fact whose
    /// presence shows it.
    pending: Vec<(usize, Fact)>,
    crash_at: Option<SimTime>,
    recovered_s: Option<f64>,
    satisfied_s: Option<f64>,
    kb_guids: Vec<Key>,
    ui_seen: usize,
}

impl Harness<'_> {
    fn followers(&self) -> Vec<NodeIndex> {
        let mut f = self.hosts.clone();
        for n in &self.plan.ui_nodes {
            if !f.contains(n) {
                f.push(*n);
            }
        }
        f
    }

    /// Hands the architecture everything due in slice `i`. Called with
    /// `arch.now()` exactly at the slice's start.
    fn begin_slice(&mut self, arch: &mut ActiveArchitecture, i: usize, track_kb: bool) {
        let plan = self.plan;
        let now = arch.now();
        let end_us = (i as u64 + 1) * SLICE_US;

        if let Some(f) = &plan.faults {
            if i == 0 {
                for a in 1..plan.nodes as u32 {
                    for b in 1..plan.nodes as u32 {
                        if a != b {
                            arch.world_mut().set_link_loss(
                                NodeIndex(a),
                                NodeIndex(b),
                                f.worker_link_loss,
                            );
                        }
                    }
                }
                let victims: Vec<NodeIndex> = arch
                    .world()
                    .topology()
                    .iter()
                    .filter(|info| info.region == f.region)
                    .map(|info| info.index)
                    .collect();
                assert!(!victims.contains(&NodeIndex(0)), "the coordinator never crashes");
                let crash = boundary(self.t0, f.crash_slice);
                for v in victims {
                    arch.world_mut().crash_at(crash, v);
                    arch.world_mut().recover_at(boundary(self.t0, f.recover_slice), v);
                }
                self.crash_at = Some(crash);
            }
        }

        while self.next_sensor < plan.sensors.len() && plan.sensors[self.next_sensor].at_us < end_us
        {
            let s = &plan.sensors[self.next_sensor];
            arch.publish_at(self.t0 + SimDuration::from_micros(s.at_us), s.node, s.event.clone());
            self.next_sensor += 1;
        }

        // Hosts only move when something fails. A host the evolution
        // engine creates mid-run follows every subject from here on; it
        // starts from the snapshots it prefetched during setup, stale
        // for subjects that churned since — which is why the one
        // workload that redeploys churns only facts no rule reads.
        if plan.faults.is_some() {
            let current = arch.hosts_of("matchlet:meetup");
            for h in &current {
                if !self.hosts.contains(h) {
                    self.hosts.push(*h);
                }
            }
            self.hosts.retain(|h| current.contains(h));
        }
        // Pull what shipped a second ago into every follower.
        let followers = self.followers();
        for (user, node) in std::mem::take(&mut self.repull) {
            arch.prefetch_deltas(node, &Plan::user_name(user));
        }
        for (user, epoch) in std::mem::take(&mut self.to_pull) {
            let name = Plan::user_name(user);
            for &node in &followers {
                if !arch.world().is_alive(node) {
                    continue;
                }
                arch.prefetch_deltas(node, &name);
                if let Some(k) = self.holes.iter().position(|h| *h == (user, node)) {
                    self.holes.swap_remove(k);
                    self.repull.push((user, node));
                }
                if track_kb {
                    if let Some(span) = self
                        .kb_spans
                        .iter_mut()
                        .find(|s| s.node == node && s.epoch == epoch && s.subject == name)
                    {
                        span.pulled = now;
                    }
                }
            }
        }

        while self.next_churn < plan.churn.len() && plan.churn[self.next_churn].slice == i {
            let m = &plan.churn[self.next_churn];
            self.next_churn += 1;
            let name = Plan::user_name(m.user);
            let store = arch.knowledge_mut(&name);
            let proof = m.apply(store);
            let epoch = store.epoch();
            arch.update_knowledge(m.writer, &name);
            self.to_pull.push((m.user, epoch));
            if track_kb {
                for &node in &followers {
                    self.pending.push((self.kb_spans.len(), proof.clone()));
                    self.kb_spans.push(KbSpan {
                        subject: name.clone(),
                        epoch,
                        node,
                        shipped: now,
                        pulled: now,
                        applied: None,
                    });
                }
            }
        }

        while self.next_late < plan.late_subs.len() && plan.late_subs[self.next_late].slice == i {
            let s = &plan.late_subs[self.next_late];
            arch.subscribe_ui(s.node, s.filter.clone());
            self.next_late += 1;
        }

        // The no-op control event both passes stop at.
        arch.world_mut().heal_at(boundary(self.t0, i + 1));
    }

    /// Marks pending kb spans whose fact the follower now holds.
    fn poll_kb(&mut self, arch: &ActiveArchitecture) {
        let now = arch.now();
        let spans = &mut self.kb_spans;
        self.pending.retain(|(idx, fact)| {
            let span = &mut spans[*idx];
            let held = arch
                .node(span.node)
                .kb
                .query(Some(&fact.subject), Some(&fact.predicate))
                .any(|f| f.object == fact.object);
            if held {
                span.applied = Some(now);
            }
            !held
        });
    }

    /// After slice `i` (degraded_recovery): has the system recovered?
    fn poll_recovery(&mut self, arch: &ActiveArchitecture, i: usize) {
        let (Some(crash), None) = (self.crash_at, self.recovered_s) else {
            return;
        };
        let now = arch.now();
        let ui_total: usize =
            self.plan.ui_nodes.iter().map(|&n| arch.node(n).ui_received.len()).sum();
        let flowing = ui_total > self.ui_seen || i >= self.plan.slices;
        self.ui_seen = ui_total;
        if now <= crash {
            return;
        }
        if self.satisfied_s.is_none() {
            // The violation itself lasts only from the monitor's sweep
            // to the install confirmation, far less than a slice: read
            // the evolution engine's own episode log instead.
            let cs = arch.node(NodeIndex(0)).coordinator_state.as_ref().expect("coordinator");
            let repaired = cs.evolution.repair_episodes.iter().find(|(from, _)| *from >= crash);
            match repaired {
                Some(&(_, to)) => self.satisfied_s = Some(to.since(crash).as_secs_f64()),
                None => return,
            }
        }
        let since = now.since(crash).as_secs_f64();
        let world = arch.world();
        let alive: Vec<NodeIndex> =
            (0..self.plan.nodes as u32).map(NodeIndex).filter(|&n| world.is_alive(n)).collect();
        let target = arch.node(NodeIndex(0)).store.target_replicas(Default::default());
        let want = target.min(alive.len());
        let under = self
            .kb_guids
            .iter()
            .filter(|&&g| {
                let holders = alive.iter().filter(|&&n| world.node(n).store.holds(g)).count();
                holders > 0 && holders < want
            })
            .count();
        let replicated = under == 0;
        if replicated && flowing {
            self.recovered_s = Some(since);
        }
    }
}

/// Runs one repetition of `plan` with `threads` simulator threads.
pub fn run(plan: &Plan, pass: Pass, track_kb: bool, threads: usize) -> Rep {
    let started = Instant::now();
    let (mut arch, hosts, t0) = setup(plan, threads);
    let setup_s = started.elapsed().as_secs_f64();

    let counters_at_t0 = counters(&arch);
    let totals_at_t0 = NodeTotals::read(&arch);
    let lookups_at_t0 = lookup_samples(&arch).len();
    let allocs_at_t0 = crate::alloc::read();
    let mut evictions_by_slice = Vec::with_capacity(plan.total_slices());
    let ui_base: Vec<usize> =
        plan.ui_nodes.iter().map(|&n| arch.node(n).ui_received.len()).collect();
    let mut arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); plan.ui_nodes.len()];
    let mut seen = ui_base.clone();
    let kb_guids = if plan.faults.is_some() {
        (0..plan.profiles.len())
            .map(|u| Key::hash_of_str(&DistributedKnowledge::doc_name(&Plan::user_name(u))))
            .collect()
    } else {
        Vec::new()
    };
    let mut h = Harness {
        plan,
        t0,
        next_sensor: 0,
        next_churn: 0,
        next_late: 0,
        to_pull: Vec::new(),
        holes: plan.holes(&hosts).into_iter().collect(),
        repull: Vec::new(),
        hosts: hosts.clone(),
        kb_spans: Vec::new(),
        pending: Vec::new(),
        crash_at: None,
        recovered_s: None,
        satisfied_s: None,
        kb_guids,
        ui_seen: ui_base.iter().sum(),
    };

    let total = plan.total_slices();
    let mut slice_s = Vec::with_capacity(total);
    let mut control_s = Vec::with_capacity(total);
    for i in 0..total {
        let end = boundary(t0, i + 1);
        let tick = Instant::now();
        h.begin_slice(&mut arch, i, track_kb && pass == Pass::Stepped);
        match pass {
            Pass::Bulk => arch.run_until(end),
            Pass::Stepped => {
                let mut kb_mark = kb_activity(&arch);
                while arch.now() < end && arch.world_mut().step() {
                    let now = arch.now();
                    for (k, &n) in plan.ui_nodes.iter().enumerate() {
                        let len = arch.node(n).ui_received.len();
                        while seen[k] < len {
                            arrivals[k].push(now);
                            seen[k] += 1;
                        }
                    }
                    if !h.pending.is_empty() {
                        let mark = kb_activity(&arch);
                        if mark != kb_mark {
                            kb_mark = mark;
                            h.poll_kb(&arch);
                        }
                    }
                }
                assert_eq!(arch.now(), end, "the boundary marker stops the stepped pass");
            }
        }
        slice_s.push(tick.elapsed().as_secs_f64());
        // (Not while allocations are being counted: the kernel allocates,
        // and the counted repetition's times are not used.)
        let counting = crate::alloc::counting();
        control_s.push(if counting {
            crate::control::NOMINAL_S
        } else {
            crate::control::run(i as u64)
        });
        evictions_by_slice.push(arch.world().metrics().counter("overlay.evictions"));
        h.poll_recovery(&arch, i);
    }

    Rep {
        arch,
        t0,
        setup_s,
        slice_s,
        control_s,
        hosts,
        counters_at_t0,
        totals_at_t0,
        lookups_at_t0,
        allocs_at_t0,
        evictions_by_slice,
        arrivals,
        ui_base,
        kb_spans: h.kb_spans,
        recovery_s: h.recovered_s,
        satisfied_s: h.satisfied_s,
    }
}

/// Changes whenever any node applied a delta batch or ingested a
/// snapshot: the only instants a follower's `kb` can have moved.
fn kb_activity(arch: &ActiveArchitecture) -> (u64, u64) {
    let m = arch.world().metrics();
    (m.counter("gloss.kb_delta_applied") as u64, m.counter("gloss.kb_ingested") as u64)
}

/// Every `store.lookup_ms` sample so far, in recording order.
pub fn lookup_samples(arch: &ActiveArchitecture) -> &[f64] {
    arch.world().metrics().histogram("store.lookup_ms").map_or(&[], |h| h.samples())
}

/// Every world counter, by name.
pub fn counters(arch: &ActiveArchitecture) -> BTreeMap<String, f64> {
    let m = arch.world().metrics();
    m.counter_names().map(|n| (n.to_string(), m.counter(n))).collect()
}

/// The per-workload `sim_digest`: every world counter plus every UI
/// node's `ui_received` sequence (event identity and publication
/// instant). A change meant only to speed up the code must leave it
/// untouched; so must switching between the bulk and stepped passes.
pub fn digest(plan: &Plan, arch: &ActiveArchitecture) -> u64 {
    let mut h = FnvHasher::default();
    for (name, value) in counters(arch) {
        // Byte totals are not a pure function of the inputs: every fact
        // store draws its `source` id from a process-wide counter and
        // the id is serialised as decimal text, so a document's size
        // depends on how many stores this process created before it.
        if name.ends_with("_bytes") {
            continue;
        }
        h.write(name.as_bytes());
        h.write(&value.to_bits().to_le_bytes());
    }
    for &n in &plan.ui_nodes {
        h.write(&n.0.to_le_bytes());
        for e in &arch.node(n).ui_received {
            h.write(&e.id().origin.0.to_le_bytes());
            h.write(&e.id().seq.to_le_bytes());
            h.write(&e.published_at().as_micros().to_le_bytes());
        }
    }
    h.finish()
}

impl Rep {
    /// Growth of a world counter over the timed section.
    pub fn delta(&self, name: &str) -> f64 {
        self.arch.world().metrics().counter(name)
            - self.counters_at_t0.get(name).copied().unwrap_or(0.0)
    }
}
