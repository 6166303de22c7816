//! The standard component library, registered by kind name so components
//! can arrive in code bundles.

use crate::component::{Component, Emit};
use crate::registry::Registry;
use gloss_event::{Event, Filter};
use gloss_sim::{GeoPoint, SimDuration, SimTime};
use std::collections::HashMap;

/// Passes only events matching a content-based filter.
#[derive(Debug)]
pub struct KindFilter {
    name: String,
    filter: Filter,
    /// Events dropped.
    pub dropped: u64,
}

impl KindFilter {
    /// Creates a filter component.
    pub fn new(name: impl Into<String>, filter: Filter) -> Self {
        KindFilter { name: name.into(), filter, dropped: 0 }
    }
}

impl Component for KindFilter {
    fn name(&self) -> &str {
        &self.name
    }
    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        if self.filter.matches(&event) {
            out.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// The paper's filtering example: "transmitting user-location events only
/// when the distance moved exceeds a certain threshold". Tracks the last
/// reported position per user.
#[derive(Debug)]
pub struct MovementThreshold {
    name: String,
    min_km: f64,
    last: HashMap<String, GeoPoint>,
    /// Events suppressed as insignificant movement.
    pub suppressed: u64,
}

impl MovementThreshold {
    /// Creates a movement-threshold filter.
    pub fn new(name: impl Into<String>, min_km: f64) -> Self {
        MovementThreshold { name: name.into(), min_km, last: HashMap::new(), suppressed: 0 }
    }
}

impl Component for MovementThreshold {
    fn name(&self) -> &str {
        &self.name
    }
    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        let (Some(user), Some(lat), Some(lon)) = (
            event.str_attr("user").map(str::to_string),
            event.num_attr("lat"),
            event.num_attr("lon"),
        ) else {
            out.push(event); // not a location event: pass through
            return;
        };
        let here = GeoPoint::new(lat, lon);
        match self.last.get(&user) {
            Some(prev) if prev.distance_km(here) < self.min_km => {
                self.suppressed += 1;
            }
            _ => {
                self.last.insert(user, here);
                out.push(event);
            }
        }
    }
}

/// Rate limiter: at most one event per key attribute per period.
#[derive(Debug)]
pub struct Throttle {
    name: String,
    key_attr: String,
    period: SimDuration,
    last: HashMap<String, SimTime>,
    /// Events dropped by the rate limit.
    pub throttled: u64,
}

impl Throttle {
    /// Creates a throttle keyed by `key_attr`.
    pub fn new(name: impl Into<String>, key_attr: impl Into<String>, period: SimDuration) -> Self {
        Throttle {
            name: name.into(),
            key_attr: key_attr.into(),
            period,
            last: HashMap::new(),
            throttled: 0,
        }
    }
}

impl Component for Throttle {
    fn name(&self) -> &str {
        &self.name
    }
    fn put(&mut self, now: SimTime, event: Event, out: &mut Emit) {
        let key = event.str_attr(&self.key_attr).unwrap_or("").to_string();
        match self.last.get(&key) {
            Some(&t) if now.since(t) < self.period => {
                self.throttled += 1;
            }
            _ => {
                self.last.insert(key, now);
                out.push(event);
            }
        }
    }
}

/// Re-kinds events and/or stamps constant attributes (a trivial
/// transformer; real enrichment is the matchlet engine's job).
#[derive(Debug)]
pub struct Relabel {
    name: String,
    new_kind: Option<String>,
    stamps: Vec<(String, String)>,
}

impl Relabel {
    /// Creates a relabeller.
    pub fn new(name: impl Into<String>) -> Self {
        Relabel { name: name.into(), new_kind: None, stamps: Vec::new() }
    }

    /// Changes the event kind.
    pub fn with_kind(mut self, kind: impl Into<String>) -> Self {
        self.new_kind = Some(kind.into());
        self
    }

    /// Adds a constant attribute stamp.
    pub fn with_stamp(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.stamps.push((key.into(), value.into()));
        self
    }
}

impl Component for Relabel {
    fn name(&self) -> &str {
        &self.name
    }
    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        let mut e = match &self.new_kind {
            Some(k) => {
                let mut n = Event::new(k.clone());
                for (key, v) in event.attrs() {
                    n.set_attr(key, v.clone());
                }
                if let Some(p) = event.payload() {
                    n = n.with_payload(p.clone());
                }
                n.stamp(event.id(), event.published_at());
                n
            }
            None => event,
        };
        for (k, v) in &self.stamps {
            e.set_attr(k.clone(), v.as_str());
        }
        out.push(e);
    }
}

/// Counts events by kind; passes them through untouched.
#[derive(Debug, Default)]
pub struct Counter {
    name: String,
    /// Count per event kind.
    pub counts: HashMap<String, u64>,
}

impl Counter {
    /// Creates a counter.
    pub fn new(name: impl Into<String>) -> Self {
        Counter { name: name.into(), counts: HashMap::new() }
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl Component for Counter {
    fn name(&self) -> &str {
        &self.name
    }
    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        *self.counts.entry(event.kind().to_string()).or_insert(0) += 1;
        out.push(event);
    }
}

/// Registers every standard kind into a component registry, under the
/// names used by pipeline specifications and component bundles.
///
/// Kinds and their configuration attributes:
///
/// | kind | config |
/// |---|---|
/// | `filter.kind` | `kind` — event kind to pass |
/// | `filter.movement` | `min_km` |
/// | `throttle` | `key`, `period_ms` |
/// | `relabel` | `kind` (optional), nested `<stamp key= value=>` |
/// | `counter` | — |
pub fn register_standard(registry: &mut Registry) {
    registry.register("filter.kind", |cfg| {
        let kind = cfg.attr("kind").ok_or("filter.kind needs kind attribute")?;
        Ok(Box::new(KindFilter::new(format!("filter-{kind}"), Filter::for_kind(kind))))
    });
    registry.register("filter.movement", |cfg| {
        let min_km: f64 = cfg
            .attr("min_km")
            .and_then(|s| s.parse().ok())
            .ok_or("filter.movement needs numeric min_km")?;
        Ok(Box::new(MovementThreshold::new("movement", min_km)))
    });
    registry.register("throttle", |cfg| {
        let key = cfg.attr("key").unwrap_or("user").to_string();
        let period_ms: u64 = cfg.attr("period_ms").and_then(|s| s.parse().ok()).unwrap_or(1_000);
        let period = period_ms
            .checked_mul(1_000)
            .map(SimDuration::from_micros)
            .ok_or("throttle period_ms is too long")?;
        Ok(Box::new(Throttle::new("throttle", key, period)))
    });
    registry.register("relabel", |cfg| {
        let mut r = Relabel::new("relabel");
        if let Some(kind) = cfg.attr("kind") {
            r = r.with_kind(kind);
        }
        for stamp in cfg.children_named("stamp") {
            if let (Some(k), Some(v)) = (stamp.attr("key"), stamp.attr("value")) {
                r = r.with_stamp(k, v);
            }
        }
        Ok(Box::new(r))
    });
    registry.register("counter", |_cfg| Ok(Box::new(Counter::new("counter"))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_xml::parse;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn loc(user: &str, lat: f64, lon: f64) -> Event {
        Event::new("user.location")
            .with_attr("user", user)
            .with_attr("lat", lat)
            .with_attr("lon", lon)
    }

    #[test]
    fn kind_filter_passes_and_drops() {
        let mut f = KindFilter::new("f", Filter::for_kind("a"));
        let mut out = Emit::new();
        f.put(t(0), Event::new("a"), &mut out);
        f.put(t(0), Event::new("b"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.dropped, 1);
    }

    #[test]
    fn movement_threshold_suppresses_small_moves() {
        let mut m = MovementThreshold::new("m", 0.5);
        let mut out = Emit::new();
        m.put(t(0), loc("bob", 56.3400, -2.8000), &mut out); // first: passes
        m.put(t(1), loc("bob", 56.3401, -2.8001), &mut out); // ~10 m: suppressed
        m.put(t(2), loc("bob", 56.3500, -2.8000), &mut out); // ~1.1 km: passes
        assert_eq!(out.len(), 2);
        assert_eq!(m.suppressed, 1);
        // Per-user tracking: anna's first report always passes.
        m.put(t(3), loc("anna", 56.3401, -2.8001), &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn movement_threshold_passes_non_location_events() {
        let mut m = MovementThreshold::new("m", 0.5);
        let mut out = Emit::new();
        m.put(t(0), Event::new("weather"), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn throttle_limits_per_key() {
        let mut th = Throttle::new("t", "user", SimDuration::from_secs(60));
        let mut out = Emit::new();
        th.put(t(0), loc("bob", 1.0, 1.0), &mut out);
        th.put(t(10), loc("bob", 1.0, 1.0), &mut out);
        th.put(t(10), loc("anna", 1.0, 1.0), &mut out);
        th.put(t(70), loc("bob", 1.0, 1.0), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(th.throttled, 1);
    }

    #[test]
    fn relabel_changes_kind_and_stamps() {
        let mut r = Relabel::new("r").with_kind("renamed").with_stamp("source", "gps");
        let mut out = Emit::new();
        r.put(t(0), Event::new("old").with_attr("x", 1i64), &mut out);
        let e = &out.drain()[0];
        assert_eq!(e.kind(), "renamed");
        assert_eq!(e.num_attr("x"), Some(1.0));
        assert_eq!(e.str_attr("source"), Some("gps"));
    }

    #[test]
    fn counter_counts_by_kind() {
        let mut c = Counter::new("c");
        let mut out = Emit::new();
        c.put(t(0), Event::new("a"), &mut out);
        c.put(t(0), Event::new("a"), &mut out);
        c.put(t(0), Event::new("b"), &mut out);
        assert_eq!(c.counts["a"], 2);
        assert_eq!(c.total(), 3);
        assert_eq!(out.len(), 3, "counter passes events through");
    }

    #[test]
    fn registry_builds_standard_kinds() {
        let mut reg = Registry::new();
        register_standard(&mut reg);
        for (kind, cfg) in [
            ("filter.kind", r#"<cfg kind="a"/>"#),
            ("filter.movement", r#"<cfg min_km="0.5"/>"#),
            ("throttle", r#"<cfg key="user" period_ms="500"/>"#),
            ("relabel", r#"<cfg kind="x"><stamp key="a" value="b"/></cfg>"#),
            ("counter", "<cfg/>"),
        ] {
            let c = reg.build(kind, &parse(cfg).unwrap());
            assert!(c.is_ok(), "kind {kind}: {:?}", c.err());
        }
        assert!(reg.build("filter.movement", &parse("<cfg/>").unwrap()).is_err());
        assert!(reg.build("no.such.kind", &parse("<cfg/>").unwrap()).is_err());
    }

    /// A period whose microseconds overflow a `u64` is a bad config, not
    /// a panic (debug) or a wrapped period (release).
    #[test]
    fn throttle_rejects_a_period_too_long_to_represent() {
        let mut reg = Registry::new();
        register_standard(&mut reg);
        let build = |period_ms: u64| {
            let cfg = parse(&format!(r#"<cfg period_ms="{period_ms}"/>"#)).unwrap();
            reg.build("throttle", &cfg).map(|_| ())
        };
        let too_long = Err(Some("throttle period_ms is too long".to_string()));
        assert_eq!(build(u64::MAX), too_long);
        assert_eq!(build(u64::MAX / 1_000 + 1), too_long);
        assert_eq!(build(u64::MAX / 1_000), Ok(()));
    }
}
