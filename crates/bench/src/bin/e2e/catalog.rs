//! The metric catalogue: every number the benchmark prints, by name,
//! with its unit, what clock it is on, which layer owns it and where it
//! is read. `BENCHMARK.json` is rendered from this table
//! ([`manifest_json`]), and a unit test holds the committed file to it,
//! so the manifest, the printed tables and the README's claims cannot
//! drift apart.

use crate::workload::Workload;

/// What a value is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What the modelled architecture would take; repeats exactly for a
    /// fixed seed.
    Sim,
    /// What this implementation costs to run on this machine.
    Host,
    /// A count made by the program or the allocator; repeats exactly.
    Exact,
}

/// Where a value is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// End-to-end: the untraced runs.
    E2e,
    /// Read after the untraced run from `world().metrics()` or public
    /// node fields.
    In,
    /// Replay: direct calls into the layer's public API, timed on the
    /// inputs this workload generated. Out-of-situ.
    Replay,
    /// Observed in the stepped pass.
    Stepped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Workspace crate (or `host`) that owns the number.
    pub layer: &'static str,
    pub source: Source,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub meaning: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

use Better::{Higher, Lower};
use Clock::{Exact, Host, Sim};
use Source::{E2e, In, Replay, Stepped};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        layer: "core",
        source: E2e,
        better,
        bound: Some(bound),
        meaning,
        moves: "",
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    layer: &'static str,
    source: Source,
    better: Better,
    meaning: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, clock, layer, source, better, bound: None, meaning, moves }
}

/// The end-to-end metrics. Every workload reports every one, and none is
/// ever zero (the driver's contract): what applies to one workload only
/// (`recovery_s`, knowledge freshness) lives in [`PER_LAYER`], and the
/// issue's `failed_ops_ratio`, zero when all is well, is reported as its
/// complement.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Host, Lower, 0.25,
        "build + settle + seed knowledge + deploy + prefetch + subscribe + warm-up, until the timed section starts; wall clock, minimum over repetitions"),
    e2e("events_per_s", "1/s", Host, Higher, 0.25,
        "sensor events in the timed section / composite host time: slice times rescaled by the control kernel run beside each slice, then summed over 1-sim-second slices taking the minimum across repetitions"),
    e2e("allocs_per_event", "count", Exact, Lower, 0.03,
        "heap allocations during the timed section / sensor events, from the counting allocator, in one repetition excluded from timing"),
    e2e("peak_heap_mb", "MB", Exact, Lower, 0.08,
        "peak live heap bytes over setup + timed section of that repetition (includes the generated inputs)"),
    e2e("msgs_per_event", "count", Sim, Lower, 0.05,
        "simulated messages delivered in the timed section / sensor events"),
    e2e("notify_p50_ms", "ms", Sim, Lower, 0.08,
        "creation of the last contributing sensor event -> the instant the notification first appears in a subscribed node's ui_received; median"),
    e2e("notify_p99_ms", "ms", Sim, Lower, 0.1,
        "same, at the highest percentile up to p99 with at least ten samples beyond it"),
    e2e("delivered_ratio", "ratio", Sim, Higher, 0.002,
        "distinct expected (notification, UI node) pairs delivered / expected by the reference"),
    e2e("ok_ops_ratio", "ratio", Sim, Higher, 0.01,
        "1 - failed_ops_ratio: operations that succeeded / attempted, over expected deliveries, storage lookups (timed out or not found is failed, under injected faults too), bundle installs, post-quiesce convergence checks and, under faults, the recovery itself"),
];

/// The per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[Metric] = &[
    // --- sim ---
    layer("sim.msgs_delivered", "count", Sim, "sim", In, Lower,
        "messages delivered in the timed section", "events_per_s everywhere, most on subscriber_fanout"),
    layer("sim.batched_share", "ratio", Sim, "sim", In, Higher,
        "share of those delivered inside a same-instant batch", "events_per_s on subscriber_fanout"),
    layer("sim.msgs_lost", "count", Sim, "sim", In, Lower,
        "messages dropped by link loss", "delivered_ratio on degraded_recovery"),
    layer("sim.dispatch_ns_per_msg", "ns", Host, "sim", Replay, Lower,
        "engine cost per delivered message with trivial nodes (World<Chatter>, same node count)", "events_per_s everywhere"),
    layer("sim.threads2_speedup", "ratio", Host, "sim", Replay, Higher,
        "timed section at set_threads(1) / at set_threads(2), digests equal; 0 when nproc < 2", "none (diagnostic: every end-to-end number is single-threaded)"),
    // --- event ---
    layer("event.publish_ns", "ns", Host, "event", Replay, Lower,
        "Broker::handle(Publish) on a broker loaded with node 0's subscriptions()", "events_per_s on subscriber_fanout (large), city_steady (moderate)"),
    layer("event.leaf_notify_ns", "ns", Host, "event", Replay, Lower,
        "Broker::handle(Notify) on a broker loaded with the busiest worker's subscriptions()", "events_per_s on subscriber_fanout"),
    layer("event.index_probe_ns", "ns", Host, "event", Replay, Lower,
        "FilterIndex::matching_event over the same table", "events_per_s on subscriber_fanout"),
    layer("event.sub_insert_ns", "ns", Host, "event", Replay, Lower,
        "FilterIndex::insert + remove of one subscription", "events_per_s and setup_s on subscriber_fanout"),
    layer("event.subs_total", "count", Sim, "event", In, Lower,
        "subscription entries over all brokers at the end", "msgs_per_event on subscriber_fanout"),
    layer("event.fanout_per_publish", "count", Sim, "event", In, Lower,
        "local client deliveries per published event (sensor + synthesised)", "msgs_per_event on subscriber_fanout"),
    layer("event.subs_pruned", "count", Sim, "event", In, Higher,
        "subscriptions not forwarded because a forwarded root covers them (whole run)", "msgs_per_event, setup_s on subscriber_fanout"),
    layer("event.subs_merged", "count", Sim, "event", In, Higher,
        "subscriptions merged into a broader forwarded cover (whole run)", "msgs_per_event on subscriber_fanout"),
    layer("event.dup_notifies", "count", Sim, "event", In, Lower,
        "copies of one event id beyond the first at one UI node (a broker notifies per matching subscription, not per client)", "msgs_per_event, allocs_per_event on subscriber_fanout"),
    // --- matchlet ---
    layer("matchlet.on_event_ns", "ns", Host, "matchlet", Replay, Lower,
        "MatchletEngine::on_event with warm memos, over this workload's events", "events_per_s on city_steady"),
    layer("matchlet.repair_ns", "ns", Host, "matchlet", Replay, Lower,
        "first on_event after a delta to a fact the rule joins on", "events_per_s on context_churn"),
    layer("matchlet.memo_hit_ratio", "ratio", Sim, "matchlet", In, Higher,
        "memo hits / (hits + misses) over all hosts", "events_per_s on context_churn"),
    layer("matchlet.beta_partial_hits", "count", Sim, "matchlet", In, Higher,
        "memo misses that reused a shared-prefix beta entry", "events_per_s on context_churn"),
    layer("matchlet.firings", "count", Sim, "matchlet", In, Lower,
        "events synthesised over all hosts in the timed section", "msgs_per_event on city_steady"),
    layer("matchlet.dup_firing_ratio", "ratio", Sim, "matchlet", In, Lower,
        "firings / distinct notifications (redundant instances fire alike)", "msgs_per_event, allocs_per_event on city_steady"),
    layer("matchlet.eval_errors", "count", Sim, "matchlet", In, Lower,
        "where-clause evaluation errors over all hosts", "delivered_ratio everywhere"),
    // --- knowledge ---
    layer("knowledge.delta_apply_ns", "ns", Host, "knowledge", Replay, Lower,
        "DeltaBatch::from_xml + reconcile + apply, per batch this workload shipped", "events_per_s on context_churn"),
    layer("knowledge.snapshot_ingest_ns", "ns", Host, "knowledge", Replay, Lower,
        "facts_from_xml + remove_subject + extend, per profile snapshot", "setup_s everywhere"),
    layer("knowledge.deltas_applied", "count", Sim, "knowledge", In, Lower,
        "delta batches applied over all nodes", "events_per_s on context_churn"),
    layer("knowledge.deltas_stale", "count", Sim, "knowledge", In, Lower,
        "delta batches recognised as already incorporated", "events_per_s on context_churn"),
    layer("knowledge.fallbacks", "count", Sim, "knowledge", In, Lower,
        "delta batches that could not extend the held state and forced a snapshot fetch", "events_per_s on context_churn"),
    layer("knowledge.stale_ratio", "ratio", Sim, "knowledge", In, Lower,
        "stale / (applied + stale)", "msgs_per_event on context_churn"),
    layer("knowledge.bytes_per_update", "B", Sim, "knowledge", In, Lower,
        "delta document bytes per applied batch", "allocs_per_event on context_churn"),
    layer("knowledge.fresh_ms_p50", "ms", Sim, "knowledge", Stepped, Lower,
        "update_knowledge -> a follower's kb reflects it (followers pull one second after the ship); median", "a freshness beyond the oracle's 5 s guard fails delivered_ratio on context_churn"),
    layer("knowledge.fresh_ms_p99", "ms", Sim, "knowledge", Stepped, Lower,
        "same, tail: the slowest of many parallel pulls sets it", "as above"),
    layer("knowledge.unapplied_pulls", "count", Sim, "knowledge", Stepped, Lower,
        "(update, follower) pairs never reflected by the end of the run", "must be 0 outside degraded_recovery"),
    // --- xml ---
    layer("xml.parse_ns_per_kib", "ns", Host, "xml", Replay, Lower,
        "gloss_xml::parse over this workload's kb snapshots, delta batches and bundle packet", "events_per_s, allocs_per_event on context_churn; setup_s everywhere"),
    layer("xml.write_ns_per_kib", "ns", Host, "xml", Replay, Lower,
        "Element::to_xml over the same documents", "as above; gates the deferred binary wire format"),
    layer("xml.bytes_parsed", "B", Sim, "xml", In, Lower,
        "kb snapshot + delta document bytes ingested in the timed section", "events_per_s on context_churn"),
    // --- store ---
    layer("store.lookup_ms_p50", "ms", Sim, "store", In, Lower,
        "request-to-reply latency of storage lookups in the timed section; median", "knowledge.fresh_ms_* on context_churn"),
    layer("store.lookup_ms_p99", "ms", Sim, "store", In, Lower,
        "same, tail", "knowledge.fresh_ms_p99 on context_churn"),
    layer("store.lookups", "count", Sim, "store", In, Lower,
        "lookups concluded (ok + missing + timed out)", "events_per_s on context_churn"),
    layer("store.cache_served_ratio", "ratio", Sim, "store", In, Higher,
        "lookups served from a promiscuous cache / ok", "knowledge.fresh_ms_* on context_churn"),
    layer("store.local_ratio", "ratio", Sim, "store", In, Higher,
        "lookups served without leaving the node / ok", "msgs_per_event on context_churn"),
    layer("store.retry_ratio", "ratio", Sim, "store", In, Lower,
        "lookup retries / lookups", "deploy.recovery_s on degraded_recovery"),
    layer("store.timeouts", "count", Sim, "store", In, Lower,
        "lookups that spent their retry budget", "ok_ops_ratio on degraded_recovery; failed elsewhere"),
    layer("store.not_found", "count", Sim, "store", In, Lower,
        "lookups answered with no document", "ok_ops_ratio on degraded_recovery; failed elsewhere"),
    layer("store.dup_replies", "count", Sim, "store", In, Lower,
        "replies to an already concluded lookup", "msgs_per_event on degraded_recovery"),
    layer("store.replica_puts", "count", Sim, "store", In, Lower,
        "replica writes", "msgs_per_event on context_churn"),
    layer("store.repair_puts", "count", Sim, "store", In, Lower,
        "replica writes made by the repair pipeline", "deploy.recovery_s on degraded_recovery"),
    layer("store.repair_deferred", "count", Sim, "store", In, Lower,
        "repair transfers deferred by rate or in-flight limits", "deploy.recovery_s on degraded_recovery"),
    layer("store.lookup_host_us", "us", Host, "store", Replay, Lower,
        "host time per lookup on a StoreNetwork of the same size and documents (includes its messages' dispatch and routing)", "events_per_s on context_churn"),
    layer("store.insert_host_us", "us", Host, "store", Replay, Lower,
        "host time per insert on the same network", "events_per_s on context_churn; setup_s"),
    // --- overlay ---
    layer("overlay.hops_mean", "count", Sim, "overlay", In, Lower,
        "mean overlay hops per routed payload (whole run)", "store.lookup_ms_* -> knowledge.fresh_ms_*; msgs_per_event on context_churn"),
    layer("overlay.reroutes", "count", Sim, "overlay", In, Lower,
        "forwards re-routed around a suspected hop", "deploy.recovery_s on degraded_recovery"),
    layer("overlay.route_overflow", "count", Sim, "overlay", In, Lower,
        "routes dropped at the hop limit", "ok_ops_ratio on degraded_recovery"),
    layer("overlay.route_host_us", "us", Host, "overlay", Replay, Lower,
        "host time per OverlayNetwork::route_from on a network of the same size", "events_per_s on context_churn"),
    // --- governor ---
    layer("governor.suspected", "count", Sim, "governor", In, Lower,
        "peers put under suspicion", "deploy.recovery_s on degraded_recovery"),
    layer("governor.evictions", "count", Sim, "governor", In, Lower,
        "peers evicted from routing tables", "deploy.recovery_s on degraded_recovery"),
    layer("governor.false_evictions", "count", Sim, "governor", In, Lower,
        "evictions in slices where every node was up (and not within a minute of an outage)", "must be 0 on the fault-free workloads"),
    layer("governor.joins_rejected", "count", Sim, "governor", In, Lower,
        "join requests refused by admission control", "setup_s; deploy.recovery_s on degraded_recovery"),
    // --- bundle ---
    layer("bundle.pack_ns", "ns", Host, "bundle", Replay, Lower,
        "Bundle::to_packet of the service's matchlet bundle", "setup_s; deploy.recovery_s"),
    layer("bundle.install_ns", "ns", Host, "bundle", Replay, Lower,
        "ThinServer::receive_packet of it (verify, lint, compile, install)", "setup_s; deploy.recovery_s"),
    layer("bundle.installs", "count", Sim, "bundle", In, Lower,
        "bundles installed (whole run)", "setup_s"),
    layer("bundle.install_failures", "count", Sim, "bundle", In, Lower,
        "bundles refused (whole run)", "failed everywhere"),
    // --- deploy ---
    layer("deploy.repair_ms_p50", "ms", Sim, "deploy", In, Lower,
        "violation -> confirmed repair, per evolution-engine episode (whole run); median", "deploy.recovery_s, setup_s"),
    layer("deploy.failures_detected", "count", Sim, "deploy", In, Lower,
        "nodes the monitor declared failed", "deploy.recovery_s on degraded_recovery"),
    layer("deploy.bundles_sent", "count", Sim, "deploy", In, Lower,
        "bundles shipped by the coordinator (whole run)", "setup_s"),
    layer("deploy.satisfied_s", "s", Sim, "deploy", Stepped, Lower,
        "regional crash -> the evolution engine's constraints hold again; 0 without a crash", "deploy.recovery_s"),
    layer("deploy.recovery_s", "s", Sim, "deploy", Stepped, Lower,
        "regional crash -> constraints hold AND every surviving kb document is back at its replica target AND notifications flow; 0 without a crash; if never, the run's length and the run fails", "the recovery figure of degraded_recovery"),
    // --- core ---
    layer("core.sensor_to_fire_ms_p50", "ms", Sim, "core", Stepped, Lower,
        "last contributing sensor event -> the notification's published_at at its origin host; median", "with fire_to_ui it sums to notify_p50_ms"),
    layer("core.sensor_to_fire_ms_p99", "ms", Sim, "core", Stepped, Lower, "same, tail", "notify_p99_ms"),
    layer("core.fire_to_ui_ms_p50", "ms", Sim, "core", Stepped, Lower,
        "published_at -> first appearance in the UI node's ui_received; median", "notify_p50_ms"),
    layer("core.fire_to_ui_ms_p99", "ms", Sim, "core", Stepped, Lower, "same, tail", "notify_p99_ms"),
    layer("core.ui_dup_ratio", "ratio", Sim, "core", In, Lower,
        "ui_received entries / distinct notifications", "allocs_per_event, msgs_per_event"),
    layer("core.unattributed_share", "ratio", Host, "core", Replay, Lower,
        "1 - sum(count x replay unit cost) / timed host time; what the composition seam itself costs (may be negative: replay costs overlap)", "allocs_per_event should confirm a large value"),
    layer("core.trace_overhead_pct", "%", Host, "core", Stepped, Lower,
        "(stepped pass - bulk pass) / bulk pass host time of the timed section", "none (cost of observing)"),
    // --- attribution ---
    layer("share.sim", "ratio", Host, "sim", Replay, Lower, "share of attributed host time: messages x dispatch cost", ""),
    layer("share.event", "ratio", Host, "event", Replay, Lower, "hub broker messages x publish cost + worker broker messages x leaf notify cost + subscribes x insert cost", ""),
    layer("share.matchlet", "ratio", Host, "matchlet", Replay, Lower, "engine events x on_event cost + host-side deltas x repair cost", ""),
    layer("share.knowledge", "ratio", Host, "knowledge", Replay, Lower, "batches x apply cost + snapshots x ingest cost", ""),
    layer("share.xml", "ratio", Host, "xml", Replay, Lower, "bytes parsed and written x per-KiB costs", ""),
    layer("share.store", "ratio", Host, "store", Replay, Lower, "lookups and inserts x their host costs, less the route each carries", ""),
    layer("share.overlay", "ratio", Host, "overlay", Replay, Lower, "routed payloads x route cost, less the dispatch of the hops each carries", ""),
    layer("share.bundle", "ratio", Host, "bundle", Replay, Lower, "bundles sent and installed x pack and install costs", ""),
    // --- host ---
    layer("host.control_ms", "ms", Host, "host", In, Lower,
        "median time of the control kernel (control.rs, std only) run after every slice of the bulk repetition: tells a slow machine from a slow commit", "none (diagnostic)"),
    layer("host.nproc", "count", Host, "host", In, Higher,
        "std::thread::available_parallelism", "none (diagnostic)"),
];

/// How long one driver run measures.
pub const RUN_SECONDS: u32 = 15;

/// Checks a metric or workload name against the driver's rules: 1..=64
/// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

/// Checks a unit: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks the whole catalogue against the manifest's limits; returns the
/// first violation.
pub fn validate(workloads: &[Workload], e2e: &[Metric], layers: &[Metric]) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads (2..=8 allowed)", workloads.len()));
    }
    if !(1..=16).contains(&e2e.len()) {
        return Err(format!("{} end-to-end metrics (1..=16 allowed)", e2e.len()));
    }
    if !(1..=128).contains(&layers.len()) {
        return Err(format!("{} per-layer metrics (1..=128 allowed)", layers.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().map(|w| w.name()).chain(e2e.iter().chain(layers).map(|m| m.name)) {
        if !valid_name(name) {
            return Err(format!("bad name `{name}`"));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` used twice"));
        }
    }
    for m in e2e.iter().chain(layers) {
        if !valid_unit(m.unit) {
            return Err(format!("bad unit `{}` on `{}`", m.unit, m.name));
        }
    }
    for m in e2e {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => return Err(format!("bound {other:?} on `{}` (0 < bound <= 0.25)", m.name)),
        }
    }
    if !e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower) {
        return Err("no `setup_s` in seconds, lower is better".into());
    }
    for w in workloads {
        if w.why().len() > 200 || w.why().contains('\n') {
            return Err(format!("why of `{}` is not one line of at most 200", w.name()));
        }
    }
    Ok(())
}

fn better_str(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better_str(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better_str(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders the catalogue as the README's metric tables.
pub fn markdown() -> String {
    let clock = |c: Clock| match c {
        Sim => "sim",
        Host => "host",
        Exact => "exact",
    };
    let source = |s: Source| match s {
        E2e => "e2e",
        In => "in",
        Replay => "rp",
        Stepped => "st",
    };
    let mut s = String::from(
        "| name | unit | kind | better | bound | meaning |\n|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {}% | {} |\n",
            m.name,
            m.unit,
            clock(m.clock),
            better_str(m.better),
            m.bound.expect("end-to-end metrics carry a bound") * 100.0,
            m.meaning
        ));
    }
    s.push_str("\n| name | unit | kind | layer | source | better | meaning | should move |\n|---|---|---|---|---|---|---|---|\n");
    for m in PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            clock(m.clock),
            m.layer,
            source(m.source),
            better_str(m.better),
            m.meaning,
            m.moves
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_drivers_alphabet() {
        for good in ["a", "setup_s", "store.lookup_ms_p99", "9lives", "a-b.c_d", &"x".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in
            ["", ".hidden", "_x", "-x", "has space", "slash/ed", "pct%", "é", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("") && !valid_unit("events per s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn the_catalogue_fits_the_manifest_limits() {
        validate(&Workload::ALL, END_TO_END, PER_LAYER).unwrap();
    }

    #[test]
    fn limits_are_enforced() {
        let m = END_TO_END[0];
        let many = |n: usize| -> Vec<Metric> {
            (0..n)
                .map(|i| Metric {
                    name: Box::leak(format!("m{i}").into_boxed_str()),
                    bound: Some(0.1),
                    ..m
                })
                .collect()
        };
        let setup = [m];
        assert!(validate(&Workload::ALL, &setup, &many(128)).is_ok());
        assert!(validate(&Workload::ALL, &setup, &many(129)).unwrap_err().contains("per-layer"));
        assert!(validate(&Workload::ALL, &setup, &[]).unwrap_err().contains("per-layer"));
        let z = [Metric { name: "z", ..m }];
        let mut e2e = many(15);
        e2e.push(m);
        assert!(validate(&Workload::ALL, &e2e, &z).is_ok(), "16 end-to-end metrics fit");
        e2e.push(Metric { name: "one_too_many", ..m });
        assert!(validate(&Workload::ALL, &e2e, &z).unwrap_err().contains("end-to-end"));
        assert!(validate(&Workload::ALL[..1], &setup, &many(1)).unwrap_err().contains("workloads"));
        let nine = [Workload::CitySteady; 9];
        assert!(validate(&nine, &setup, &many(1)).unwrap_err().contains("workloads"));
        let dup = [m, m];
        assert!(validate(&Workload::ALL, &dup, &many(1)).unwrap_err().contains("twice"));
        let wide = [Metric { bound: Some(0.3), ..m }];
        assert!(validate(&Workload::ALL, &wide, &many(1)).unwrap_err().contains("bound"));
        let no_setup = [Metric { name: "other", ..m }];
        assert!(validate(&Workload::ALL, &no_setup, &many(1)).unwrap_err().contains("setup_s"));
    }

    /// The README's metric tables are this table, rendered. Regenerate
    /// with `e2e catalog` and paste between the catalogue markers.
    #[test]
    fn readme_embeds_the_rendered_catalogue() {
        let readme = include_str!("README.md");
        assert!(readme.contains(&markdown()), "README.md's metric tables are out of date");
    }

    /// The committed manifest is this table, rendered. Regenerate with
    /// `e2e manifest > BENCHMARK.json` from the repository root.
    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(committed, manifest_json());
        assert!(committed.len() <= 64 * 1024);
    }
}
