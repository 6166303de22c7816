//! Spans, recorded from the benchmark's own side of the API.
//!
//! The stepped pass sees the simulated instant every `ui_received` entry
//! appears; the notification itself carries the instant it was published
//! at its origin host (`published_at`) and the creation offsets of the
//! sensor events it joined. That is enough to cut every delivery into
//! `sensor_to_fire` and `fire_to_ui`, and every knowledge update into
//! `kb_ship` and `kb_apply`, without a line of tracing inside the
//! program (spans inside the program are a later issue). Spans are kept
//! in memory and written when the run ends.

use crate::drive::Rep;
use crate::measure::Outcome;
use crate::oracle::{fire_us, key_of, Expected, Key};
use crate::workload::Plan;
use gloss_event::EventId;
use gloss_sim::{NodeIndex, SimTime};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One notification's first arrival at one UI node.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    pub key: Key,
    pub ui: NodeIndex,
    pub origin: NodeIndex,
    /// Creation of the last contributing sensor event.
    pub created: SimTime,
    pub fired: SimTime,
    pub arrived: SimTime,
}

/// Stage latencies and duplicate counts of a stepped repetition.
#[derive(Debug, Default)]
pub struct Stages {
    pub deliveries: Vec<Delivery>,
    pub total_ms: Vec<f64>,
    pub to_fire_ms: Vec<f64>,
    pub to_ui_ms: Vec<f64>,
    /// Distinct notifications over all UI nodes / summed per UI node.
    pub distinct_fired: usize,
    pub distinct_at_ui: usize,
    /// Copies of one event id beyond the first at one UI node.
    pub dup_event_ids: usize,
}

fn ms(from: SimTime, to: SimTime) -> f64 {
    to.since(from).as_micros() as f64 / 1e3
}

/// Cuts every first arrival of `rep` (a stepped repetition) into stages.
/// Where the reference decides whole runs (`exp.sampled` is `None`),
/// only the deliveries it requires are latency samples: an undecided
/// one — say, fired first by the one host whose facts were already
/// fresh — measures the guard it sits in, not the path.
pub fn stages(plan: &Plan, exp: &Expected, rep: &Rep) -> Stages {
    let mut s = Stages::default();
    let mut fired: BTreeSet<Key> = BTreeSet::new();
    for (slot, &ui) in plan.ui_nodes.iter().enumerate() {
        let received = &rep.arch.node(ui).ui_received[rep.ui_base[slot]..];
        let mut keys: BTreeSet<Key> = BTreeSet::new();
        let mut ids: BTreeSet<(EventId, Key)> = BTreeSet::new();
        for (event, &arrived) in received.iter().zip(&rep.arrivals[slot]) {
            let Some((key, _)) = key_of(event) else {
                continue;
            };
            // (A node hands its own sensor events to its client before
            // the broker stamps them, so the id alone is not enough.)
            if !ids.insert((event.id(), key)) {
                s.dup_event_ids += 1;
            }
            if fire_us(key) < 0 || !keys.insert(key) {
                continue; // warm-up traffic, or a later copy
            }
            fired.insert(key);
            if exp.sampled.is_none() && !exp.required[slot].contains(&key) {
                continue;
            }
            let created = SimTime::from_micros(rep.t0.as_micros() + fire_us(key) as u64);
            let d = Delivery {
                key,
                ui,
                origin: event.id().origin,
                created,
                // The unstamped local copy of a sensor event "fires"
                // where it was created.
                fired: event.published_at().max(created),
                arrived,
            };
            s.total_ms.push(ms(d.created, d.arrived));
            s.to_fire_ms.push(ms(d.created, d.fired));
            s.to_ui_ms.push(ms(d.fired, d.arrived));
            s.deliveries.push(d);
        }
        s.distinct_at_ui += keys.len();
    }
    s.distinct_fired = fired.len();
    s
}

/// Writes `spans.jsonl`: one JSON object per span, with `trace` (shared
/// by the spans of one notification or one knowledge update), `id`,
/// `parent`, `name`, `node`, and `start_us` / `end_us` in simulated
/// microseconds.
pub fn write_spans(dir: &Path, plan: &Plan, rep: &Rep, stages: &Stages) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.spans.jsonl", plan.workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut id = 0u64;
    let mut line = String::new();
    let mut span = |out: &mut std::io::BufWriter<std::fs::File>,
                    trace: &str,
                    parent: Option<u64>,
                    name: &str,
                    node: NodeIndex,
                    start: SimTime,
                    end: Option<SimTime>|
     -> std::io::Result<u64> {
        id += 1;
        line.clear();
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        let end = end.map_or("null".to_string(), |e| e.as_micros().to_string());
        let _ = write!(
            line,
            "{{\"trace\":\"{trace}\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"node\":\"{node}\",\"start_us\":{},\"end_us\":{end}}}",
            start.as_micros()
        );
        writeln!(out, "{line}")?;
        Ok(id)
    };
    for d in &stages.deliveries {
        let trace = format!("n:{}:{}", d.key.0, d.key.1);
        let root =
            span(&mut out, &trace, None, "sensor_to_fire", d.origin, d.created, Some(d.fired))?;
        span(&mut out, &trace, Some(root), "fire_to_ui", d.ui, d.fired, Some(d.arrived))?;
    }
    for k in &rep.kb_spans {
        let trace = format!("kb:{}@{}", k.subject, k.epoch);
        let root = span(&mut out, &trace, None, "kb_ship", k.node, k.shipped, Some(k.pulled))?;
        span(&mut out, &trace, Some(root), "kb_apply", k.node, k.pulled, k.applied)?;
    }
    out.flush()
}

/// Writes the per-layer table next to the spans, tab-separated.
pub fn write_layers(dir: &Path, plan: &Plan, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.layers.tsv", plan.workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "metric\tvalue\tunit\tnote")?;
    for (name, value) in &outcome.metrics {
        let unit =
            crate::catalog::PER_LAYER.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
        let note = outcome.notes.get(name).map_or("", String::as_str);
        writeln!(out, "{name}\t{value}\t{unit}\t{note}")?;
    }
    out.flush()
}
