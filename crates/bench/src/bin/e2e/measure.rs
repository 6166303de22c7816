//! Turns repetitions into reported numbers: the untraced end-to-end
//! measurement and the traced per-layer one.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::drive::{self, NodeTotals, Pass, Rep};
use crate::estimate::{median, sum_of_slice_minima, tail, Tail};
use crate::oracle::{self, Expected, Verdict};
use crate::replay::{self, Counts};
use crate::trace;
use crate::workload::Plan;
use crate::{alloc, control, Failure};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What one measurement of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    /// In catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and the percentile actually reported, by metric.
    pub notes: BTreeMap<&'static str, String>,
    /// What diverged from the reference (empty when `correct`).
    pub diverged: Vec<String>,
    /// Timed repetitions behind the host numbers.
    pub reps: usize,
}

/// Operations attempted and failed in one repetition: expected
/// deliveries, storage lookups, bundle installs, post-quiesce convergence
/// checks and, under faults, the recovery itself.
struct Tally {
    attempted: u64,
    /// Failures nothing excuses: they make the run incorrect.
    failed: u64,
    /// Lookups that timed out or found nothing while faults were being
    /// injected. A lookup may then legitimately find every replica down,
    /// so these do not make the run incorrect; they are held to a bound
    /// instead, through `ok_ops_ratio`.
    lookups_lost_to_faults: u64,
}

impl Tally {
    fn ok_ratio(&self) -> f64 {
        1.0 - (self.failed + self.lookups_lost_to_faults) as f64 / self.attempted as f64
    }
}

fn tally(plan: &Plan, rep: &Rep, v: &mut Verdict) -> Tally {
    let lookups_ok = rep.delta("store.lookups_ok") as u64;
    let lookups_lost =
        rep.delta("store.lookups_missing") as u64 + rep.delta("store.lookups_timeout") as u64;
    let m = rep.arch.world().metrics();
    let installs = m.counter("gloss.installs") as u64;
    let install_failures = m.counter("gloss.install_failures") as u64;
    let never_recovered = plan.faults.is_some() && rep.recovery_s.is_none();
    if never_recovered {
        v.diverged.push(format!(
            "{}: not recovered from the regional crash by the end of the run",
            plan.workload.name()
        ));
    }
    let attempted = v.expected
        + lookups_ok
        + lookups_lost
        + installs
        + install_failures
        + v.converge_checked
        + plan.faults.is_some() as u64;
    let (lookup_failures, lookups_lost_to_faults) =
        if plan.faults.is_none() { (lookups_lost, 0) } else { (0, lookups_lost) };
    let failed = (v.expected - v.delivered)
        + v.unexpected
        + install_failures
        + v.converge_failed
        + lookup_failures
        + never_recovered as u64;
    Tally { attempted: attempted.max(1), failed, lookups_lost_to_faults }
}

fn note(t: &Tail, tail_metric: bool) -> String {
    if tail_metric {
        format!("p{} of {} samples", t.tail_pct, t.n)
    } else {
        format!("{} samples", t.n)
    }
}

fn check_digest(plan: &Plan, what: &str, want: u64, rep: &Rep) -> Result<(), Failure> {
    let got = drive::digest(plan, &rep.arch);
    if got == want {
        Ok(())
    } else {
        Err(Failure(format!(
            "{}: sim_digest of the {what} is {got:016x}, the first repetition's was {want:016x}",
            plan.workload.name()
        )))
    }
}

/// The untraced measurement: every end-to-end metric of `plan`.
///
/// One repetition runs with the counting allocator on and is checked
/// against the reference; one runs stepped, for the simulated instants;
/// then bulk repetitions are timed for as long as another one fits into
/// the `seconds` that began at `started` (at least `min_reps`). Every
/// repetition must leave the same `sim_digest`.
pub fn end_to_end(
    plan: &Plan,
    exp: &Expected,
    started: Instant,
    seconds: f64,
    min_reps: usize,
) -> Result<Outcome, Failure> {
    let events = plan.sensors.len() as f64;

    let session = alloc::start();
    let mut counted = drive::run(plan, Pass::Bulk, false, 1);
    let heap = alloc::read();
    drop(session);
    let allocs = heap.allocs - counted.allocs_at_t0.allocs;
    let sim_digest = drive::digest(plan, &counted.arch);
    let mut verdict = oracle::check(plan, exp, &mut counted);
    let tally = tally(plan, &counted, &mut verdict);
    let msgs = counted.delta("sim.messages_delivered");
    drop(counted);

    let stepped = drive::run(plan, Pass::Stepped, false, 1);
    check_digest(plan, "stepped pass", sim_digest, &stepped)?;
    let stages = trace::stages(plan, exp, &stepped);
    drop(stepped);
    let Some(notify) = tail(&stages.total_ms, 99.0) else {
        return Err(Failure(format!(
            "{}: no notification reached a UI client",
            plan.workload.name()
        )));
    };

    let mut slices: Vec<Vec<f64>> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut raw: Vec<Vec<f64>> = Vec::new();
    let mut kernel: Vec<f64> = Vec::new();
    // The last repetition's duration is the estimate of the next one's.
    let mut last_rep_s = 0.0;
    while slices.len() < min_reps || started.elapsed().as_secs_f64() + last_rep_s <= seconds {
        let tick = Instant::now();
        let rep = drive::run(plan, Pass::Bulk, false, 1);
        check_digest(plan, "timed repetition", sim_digest, &rep)?;
        setups.push(rep.setup_s);
        slices.push(control::normalise(&rep.slice_s, &rep.control_s));
        raw.push(rep.slice_s);
        kernel.extend(rep.control_s);
        last_rep_s = tick.elapsed().as_secs_f64();
    }
    let composite = sum_of_slice_minima(&slices);

    let mut notes = BTreeMap::new();
    notes.insert("notify_p50_ms", note(&notify, false));
    notes.insert("notify_p99_ms", note(&notify, true));
    notes.insert(
        "events_per_s",
        format!(
            "{events} events, {} repetitions; {:.0}/s on the wall clock, control kernel {:.0} us",
            slices.len(),
            events / sum_of_slice_minima(&raw),
            median(&kernel) * 1e6
        ),
    );
    notes.insert(
        "delivered_ratio",
        format!("{} of {} pairs, {} guarded", verdict.delivered, verdict.expected, verdict.guarded),
    );
    notes.insert(
        "ok_ops_ratio",
        format!(
            "{} operations, {} failed, {} lookups lost to injected faults",
            tally.attempted, tally.failed, tally.lookups_lost_to_faults
        ),
    );
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min)),
        ("events_per_s", events / composite),
        ("allocs_per_event", allocs as f64 / events),
        ("peak_heap_mb", heap.peak_bytes as f64 / 1e6),
        ("msgs_per_event", msgs / events),
        ("notify_p50_ms", notify.p50),
        ("notify_p99_ms", notify.tail),
        ("delivered_ratio", verdict.delivered as f64 / verdict.expected.max(1) as f64),
        ("ok_ops_ratio", tally.ok_ratio()),
    ]
    .into_iter()
    .collect();
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        sim_digest,
        metrics: END_TO_END.iter().map(|m| (m.name, values[m.name])).collect(),
        notes,
        diverged: verdict.diverged,
        reps: slices.len(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced measurement: every per-layer metric of `plan`. Runs one
/// stepped repetition (spans, stage latencies, knowledge freshness), one
/// bulk repetition (in-situ counters, the host time the attribution is
/// held against), a two-thread repetition when the machine has two
/// cores, and then the replays, which share what is left of the
/// `seconds` that began at `started`. Writes `spans.jsonl` and
/// `layers.tsv` into `spans_dir` when given.
pub fn per_layer(
    plan: &Plan,
    exp: &Expected,
    started: Instant,
    seconds: f64,
    spans_dir: Option<&Path>,
) -> Result<Outcome, Failure> {
    let name = plan.workload.name();
    let mut stepped = drive::run(plan, Pass::Stepped, true, 1);
    let sim_digest = drive::digest(plan, &stepped.arch);
    let mut verdict = oracle::check(plan, exp, &mut stepped);
    let tally = tally(plan, &stepped, &mut verdict);
    let stages = trace::stages(plan, exp, &stepped);
    let fresh: Vec<f64> = stepped
        .kb_spans
        .iter()
        .filter_map(|s| s.applied.map(|at| at.since(s.shipped).as_secs_f64() * 1e3))
        .collect();
    let unapplied = stepped.kb_spans.len() - fresh.len();
    if let Some(dir) = spans_dir {
        trace::write_spans(dir, plan, &stepped, &stages)
            .map_err(|e| Failure(format!("{name}: writing spans: {e}")))?;
    }
    // Repetition-to-repetition comparisons are made in nominal seconds;
    // the attribution is held against the wall clock, like the replays.
    let nominal = |rep: &Rep| control::normalise(&rep.slice_s, &rep.control_s).iter().sum::<f64>();
    let stepped_nominal = nominal(&stepped);
    let recovery_s = stepped.recovery_s;
    let satisfied_s = stepped.satisfied_s;
    let crashed = plan.faults.is_some();
    drop(stepped);

    let bulk = drive::run(plan, Pass::Bulk, false, 1);
    check_digest(plan, "bulk pass", sim_digest, &bulk)?;
    let bulk_host: f64 = bulk.slice_s.iter().sum();
    let bulk_nominal = nominal(&bulk);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads2_speedup = if nproc >= 2 {
        let two = drive::run(plan, Pass::Bulk, false, 2);
        check_digest(plan, "two-thread pass", sim_digest, &two)?;
        bulk_nominal / nominal(&two)
    } else {
        0.0
    };

    let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    let costs = replay::costs(plan, &bulk, left);

    // --- in-situ counts ---
    let d = |counter: &str| bulk.delta(counter);
    let m = bulk.arch.world().metrics();
    let whole = |counter: &str| m.counter(counter);
    let end = NodeTotals::read(&bulk.arch);
    let at0 = bulk.totals_at_t0;
    let totals = NodeTotals {
        hub_broker_msgs: end.hub_broker_msgs - at0.hub_broker_msgs,
        leaf_broker_msgs: end.leaf_broker_msgs - at0.leaf_broker_msgs,
        subscriptions: end.subscriptions,
        engine_events_in: end.engine_events_in - at0.engine_events_in,
        engine_events_out: end.engine_events_out - at0.engine_events_out,
        memo_hits: end.memo_hits - at0.memo_hits,
        memo_misses: end.memo_misses - at0.memo_misses,
        beta_partial_hits: end.beta_partial_hits - at0.beta_partial_hits,
        eval_errors: end.eval_errors - at0.eval_errors,
    };
    let events = plan.sensors.len() as f64;
    let msgs = d("sim.messages_delivered");
    let applied = d("gloss.kb_delta_applied");
    let stale = d("gloss.kb_delta_stale");
    let fallbacks = d("gloss.kb_delta_fallback");
    let lookups_ok = d("store.lookups_ok");
    let lookups = lookups_ok + d("store.lookups_missing") + d("store.lookups_timeout");
    let hops = m.summary("overlay.hops");
    let ui_entries: usize = plan
        .ui_nodes
        .iter()
        .zip(&bulk.ui_base)
        .map(|(&n, base)| bulk.arch.node(n).ui_received.len() - base)
        .sum();
    let bytes_per_update = ratio(d("gloss.kb_delta_bytes"), applied);
    // Evictions in slices where every node was up and no outage ended
    // within the last minute.
    let false_evictions: f64 = {
        let mut prev = bulk.counters_at_t0.get("overlay.evictions").copied().unwrap_or(0.0);
        let mut n = 0.0;
        for (i, &now) in bulk.evictions_by_slice.iter().enumerate() {
            let calm =
                plan.faults.as_ref().is_none_or(|f| i < f.crash_slice || i >= f.recover_slice + 60);
            if calm {
                n += now - prev;
            }
            prev = now;
        }
        n
    };

    let counts = Counts {
        msgs,
        totals,
        subs_added: end.subscriptions.saturating_sub(at0.subscriptions) as f64,
        batches_ingested: applied + stale + fallbacks,
        snapshots_ingested: d("gloss.kb_ingested"),
        bytes_parsed: d("gloss.kb_snapshot_bytes")
            + (applied + stale + fallbacks) * bytes_per_update,
        bytes_written: plan.churn.len() as f64 * bytes_per_update,
        lookups,
        inserts: d("store.inserts_rooted"),
        routes: d("overlay.delivered"),
        hops_mean: hops.mean,
        bundles_sent: d("gloss.bundles_sent"),
        installs: d("gloss.installs"),
    };
    let attributed = replay::attribute(&counts, &costs);
    let attributed_total: f64 = attributed.values().sum();

    let mut v: BTreeMap<&'static str, f64> = costs.clone();
    let mut notes: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut put_tail = |p50: &'static str,
                        p99: &'static str,
                        samples: &[f64],
                        v: &mut BTreeMap<&'static str, f64>| {
        if let Some(t) = tail(samples, 99.0) {
            v.insert(p50, t.p50);
            v.insert(p99, t.tail);
            notes.insert(p50, note(&t, false));
            notes.insert(p99, note(&t, true));
        }
    };
    put_tail(
        "core.sensor_to_fire_ms_p50",
        "core.sensor_to_fire_ms_p99",
        &stages.to_fire_ms,
        &mut v,
    );
    put_tail("core.fire_to_ui_ms_p50", "core.fire_to_ui_ms_p99", &stages.to_ui_ms, &mut v);
    put_tail("knowledge.fresh_ms_p50", "knowledge.fresh_ms_p99", &fresh, &mut v);
    let lookup_ms = &drive::lookup_samples(&bulk.arch)[bulk.lookups_at_t0..];
    put_tail("store.lookup_ms_p50", "store.lookup_ms_p99", lookup_ms, &mut v);
    let in_situ: Vec<(&'static str, f64)> = vec![
        ("sim.msgs_delivered", msgs),
        ("sim.batched_share", ratio(d("sim.batched_messages"), msgs)),
        ("sim.msgs_lost", d("sim.messages_lost")),
        ("sim.threads2_speedup", threads2_speedup),
        ("event.subs_total", end.subscriptions as f64),
        (
            "event.fanout_per_publish",
            ratio(d("pubsub.delivered_local"), events + d("gloss.synthesized")),
        ),
        ("event.subs_pruned", whole("pubsub.subs_pruned")),
        ("event.subs_merged", whole("pubsub.subs_merged")),
        ("event.dup_notifies", stages.dup_event_ids as f64),
        (
            "matchlet.memo_hit_ratio",
            ratio(totals.memo_hits as f64, (totals.memo_hits + totals.memo_misses) as f64),
        ),
        ("matchlet.beta_partial_hits", totals.beta_partial_hits as f64),
        ("matchlet.firings", totals.engine_events_out as f64),
        (
            "matchlet.dup_firing_ratio",
            ratio(totals.engine_events_out as f64, stages.distinct_fired as f64),
        ),
        ("matchlet.eval_errors", totals.eval_errors as f64),
        ("knowledge.deltas_applied", applied),
        ("knowledge.deltas_stale", stale),
        ("knowledge.fallbacks", fallbacks),
        ("knowledge.stale_ratio", ratio(stale, applied + stale)),
        ("knowledge.bytes_per_update", bytes_per_update),
        ("knowledge.unapplied_pulls", unapplied as f64),
        ("xml.bytes_parsed", counts.bytes_parsed),
        ("store.lookups", lookups),
        ("store.cache_served_ratio", ratio(d("store.cache_served"), lookups_ok)),
        ("store.local_ratio", ratio(d("store.lookups_local"), lookups_ok)),
        ("store.retry_ratio", ratio(d("store.lookups_retried"), lookups)),
        ("store.timeouts", d("store.lookups_timeout")),
        ("store.not_found", d("store.lookups_missing")),
        ("store.dup_replies", d("store.lookups_dup_replies")),
        ("store.replica_puts", d("store.replica_puts")),
        ("store.repair_puts", d("store.repair_puts")),
        ("store.repair_deferred", d("store.repair_deferred")),
        ("overlay.hops_mean", hops.mean),
        ("overlay.reroutes", d("overlay.reroutes")),
        ("overlay.route_overflow", d("overlay.route_overflow")),
        ("governor.suspected", d("overlay.suspected")),
        ("governor.evictions", d("overlay.evictions")),
        ("governor.false_evictions", false_evictions),
        ("governor.joins_rejected", whole("overlay.joins_rejected")),
        ("bundle.installs", whole("gloss.installs")),
        ("bundle.install_failures", whole("gloss.install_failures")),
        ("deploy.repair_ms_p50", m.summary("gloss.repair_ms").p50),
        ("deploy.failures_detected", d("gloss.failures_detected")),
        ("deploy.bundles_sent", whole("gloss.bundles_sent")),
        ("deploy.satisfied_s", satisfied_s.unwrap_or(0.0)),
        (
            "deploy.recovery_s",
            match (crashed, recovery_s) {
                (false, _) => 0.0,
                (true, Some(s)) => s,
                (true, None) => plan.total_slices() as f64,
            },
        ),
        ("core.ui_dup_ratio", ratio(ui_entries as f64, stages.distinct_at_ui as f64)),
        ("core.unattributed_share", 1.0 - ratio(attributed_total, bulk_host)),
        ("core.trace_overhead_pct", 100.0 * ratio(stepped_nominal - bulk_nominal, bulk_nominal)),
        ("host.control_ms", median(&bulk.control_s) * 1e3),
        ("host.nproc", nproc as f64),
    ];
    v.extend(in_situ);
    for (layer, seconds) in &attributed {
        let name = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("share.") == Some(layer))
            .expect("every attributed layer has a share metric")
            .name;
        v.insert(name, ratio(*seconds, attributed_total));
    }
    debug_assert!(
        v.keys().all(|k| PER_LAYER.iter().any(|m| m.name == *k)),
        "a computed metric is missing from the catalogue"
    );

    let outcome = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        sim_digest,
        // A metric the workload has no input for (no churn, no service)
        // reads zero.
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, v.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        notes,
        diverged: verdict.diverged,
        reps: 1,
    };
    if let Some(dir) = spans_dir {
        trace::write_layers(dir, plan, &outcome)
            .map_err(|e| Failure(format!("{name}: writing the per-layer table: {e}")))?;
    }
    Ok(outcome)
}
