//! Device wrappers: "Each hardware device has a wrapper component that
//! makes it usable as a pipeline component" (§4.2). Since this
//! reproduction has no physical sensors, the wrappers *simulate* the
//! devices (DESIGN.md substitutions): a GPS with a random-waypoint
//! movement model, a street thermometer with a diurnal temperature curve,
//! and an RFID gate.

use crate::component::{Component, Emit};
use gloss_event::Event;
use gloss_sim::{GeoPoint, SimDuration, SimRng, SimTime};

/// A simulated GPS unit carried by a user: random-waypoint movement
/// around a home point, reporting on a fixed interval via [`Component::tick`].
#[derive(Debug)]
pub struct GpsDevice {
    user: String,
    home: GeoPoint,
    position: GeoPoint,
    waypoint: GeoPoint,
    /// Walking speed in km/h.
    speed_kmh: f64,
    /// Maximum wander distance from home, in km.
    range_km: f64,
    report_interval: SimDuration,
    next_report: SimTime,
    last_tick: SimTime,
    rng: SimRng,
    /// Whether the user is on foot (stamped into events).
    pub on_foot: bool,
}

impl GpsDevice {
    /// Creates a GPS for `user` starting at `home`.
    pub fn new(user: impl Into<String>, home: GeoPoint, rng: SimRng) -> Self {
        GpsDevice {
            user: user.into(),
            home,
            position: home,
            waypoint: home,
            speed_kmh: 5.0,
            range_km: 1.0,
            report_interval: SimDuration::from_secs(30),
            next_report: SimTime::ZERO,
            last_tick: SimTime::ZERO,
            rng,
            on_foot: true,
        }
    }

    /// Sets the reporting interval.
    pub fn with_report_interval(mut self, interval: SimDuration) -> Self {
        self.report_interval = interval;
        self
    }

    /// The current simulated position.
    pub fn position(&self) -> GeoPoint {
        self.position
    }

    /// Moves the user toward the current waypoint for `dt`, picking a new
    /// waypoint on arrival.
    fn advance(&mut self, dt: SimDuration) {
        let step_km = self.speed_kmh * dt.as_secs_f64() / 3600.0;
        let remaining = self.position.distance_km(self.waypoint);
        if remaining <= step_km || remaining < 1e-9 {
            self.position = self.waypoint;
            // New waypoint within range of home (uniform offset box).
            let dlat = self.rng.float_range(-1.0, 1.0) * self.range_km / 111.0;
            let dlon = self.rng.float_range(-1.0, 1.0) * self.range_km
                / (111.0 * self.home.lat.to_radians().cos().max(0.1));
            self.waypoint = GeoPoint::new(self.home.lat + dlat, self.home.lon + dlon);
        } else {
            let f = step_km / remaining;
            self.position = GeoPoint::new(
                self.position.lat + (self.waypoint.lat - self.position.lat) * f,
                self.position.lon + (self.waypoint.lon - self.position.lon) * f,
            );
        }
    }

    /// Builds the location event for the current position.
    pub fn reading(&self, _now: SimTime) -> Event {
        Event::new("user.location")
            .with_attr("user", self.user.as_str())
            .with_attr("lat", self.position.lat)
            .with_attr("lon", self.position.lon)
            .with_attr("on_foot", self.on_foot)
    }
}

impl Component for GpsDevice {
    fn name(&self) -> &str {
        &self.user
    }

    /// GPS units have no upstream; `put` passes events through unchanged.
    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        out.push(event);
    }

    fn tick(&mut self, now: SimTime, out: &mut Emit) {
        let dt = now.since(self.last_tick);
        self.last_tick = now;
        self.advance(dt);
        if now >= self.next_report {
            self.next_report = now + self.report_interval;
            out.push(self.reading(now));
        }
    }
}

/// A simulated street thermometer with a sinusoidal diurnal temperature
/// curve plus noise.
#[derive(Debug)]
pub struct Thermometer {
    street: String,
    /// Daily mean temperature in °C.
    pub mean_c: f64,
    /// Half the daily swing in °C.
    pub swing_c: f64,
    report_interval: SimDuration,
    next_report: SimTime,
    rng: SimRng,
}

impl Thermometer {
    /// Creates a thermometer for `street`.
    pub fn new(street: impl Into<String>, mean_c: f64, swing_c: f64, rng: SimRng) -> Self {
        Thermometer {
            street: street.into(),
            mean_c,
            swing_c,
            report_interval: SimDuration::from_secs(60),
            next_report: SimTime::ZERO,
            rng,
        }
    }

    /// Sets the reporting interval.
    pub fn with_report_interval(mut self, interval: SimDuration) -> Self {
        self.report_interval = interval;
        self
    }

    /// The temperature at `now`: peak at 15:00, trough at 03:00.
    pub fn temperature_at(&mut self, now: SimTime) -> f64 {
        let day_fraction = (now.as_micros() % 86_400_000_000) as f64 / 86_400_000_000.0;
        let phase = (day_fraction - 15.0 / 24.0) * std::f64::consts::TAU;
        self.mean_c + self.swing_c * phase.cos() + self.rng.normal(0.0, 0.3)
    }
}

impl Component for Thermometer {
    fn name(&self) -> &str {
        &self.street
    }

    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        out.push(event);
    }

    fn tick(&mut self, now: SimTime, out: &mut Emit) {
        if now >= self.next_report {
            self.next_report = now + self.report_interval;
            let c = self.temperature_at(now);
            out.push(
                Event::new("weather.reading")
                    .with_attr("street", self.street.as_str())
                    .with_attr("celsius", c),
            );
        }
    }
}

/// A simulated RFID gate: `put` a `tag.seen` trigger (or call
/// [`RfidGate::read`]) to emit a read event stamped with the gate name.
#[derive(Debug)]
pub struct RfidGate {
    gate: String,
    /// Reads performed.
    pub reads: u64,
}

impl RfidGate {
    /// Creates a gate.
    pub fn new(gate: impl Into<String>) -> Self {
        RfidGate { gate: gate.into(), reads: 0 }
    }

    /// Produces a read event for `tag`.
    pub fn read(&mut self, tag: &str) -> Event {
        self.reads += 1;
        Event::new("rfid.read").with_attr("gate", self.gate.as_str()).with_attr("tag", tag)
    }
}

impl Component for RfidGate {
    fn name(&self) -> &str {
        &self.gate
    }

    fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
        if event.kind() == "tag.seen" {
            if let Some(tag) = event.str_attr("tag") {
                let tag = tag.to_string();
                out.push(self.read(&tag));
                return;
            }
        }
        out.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn gps_reports_on_interval_and_moves() {
        let home = GeoPoint::new(56.34, -2.80);
        let mut gps =
            GpsDevice::new("bob", home, rng()).with_report_interval(SimDuration::from_secs(30));
        let mut out = Emit::new();
        let mut positions = Vec::new();
        for s in (0..600).step_by(30) {
            gps.tick(SimTime::from_secs(s), &mut out);
            positions.push(gps.position());
        }
        let events = out.drain();
        assert_eq!(events.len(), 20, "one report per 30 s over 10 min");
        assert_eq!(events[0].kind(), "user.location");
        assert_eq!(events[0].str_attr("user"), Some("bob"));
        // The user wanders but stays near home.
        let moved = positions.iter().any(|p| p.distance_km(home) > 0.01);
        assert!(moved, "random waypoint movement should move the user");
        for p in &positions {
            assert!(p.distance_km(home) < 2.0, "stays within range");
        }
    }

    #[test]
    fn gps_respects_walking_speed() {
        let home = GeoPoint::new(56.34, -2.80);
        let mut gps = GpsDevice::new("bob", home, rng());
        let mut out = Emit::new();
        gps.tick(SimTime::from_secs(60), &mut out);
        // One minute at 5 km/h is at most ~83 m.
        assert!(gps.position().distance_km(home) <= 0.1);
    }

    #[test]
    fn thermometer_diurnal_shape() {
        let mut t = Thermometer::new("South Street", 14.0, 6.0, rng());
        let afternoon = t.temperature_at(SimTime::from_secs(15 * 3600));
        let night = t.temperature_at(SimTime::from_secs(3 * 3600));
        assert!(
            afternoon > night + 8.0,
            "15:00 ({afternoon:.1}C) should be much warmer than 03:00 ({night:.1}C)"
        );
    }

    #[test]
    fn thermometer_emits_weather_readings() {
        let mut t = Thermometer::new("South Street", 14.0, 6.0, rng())
            .with_report_interval(SimDuration::from_secs(60));
        let mut out = Emit::new();
        t.tick(SimTime::ZERO, &mut out);
        t.tick(SimTime::from_secs(30), &mut out); // not due yet
        t.tick(SimTime::from_secs(61), &mut out);
        let events = out.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "weather.reading");
        assert!(events[0].num_attr("celsius").is_some());
    }

    #[test]
    fn rfid_gate_reads_tags() {
        let mut g = RfidGate::new("library-door");
        let e = g.read("tag-42");
        assert_eq!(e.kind(), "rfid.read");
        assert_eq!(e.str_attr("gate"), Some("library-door"));
        assert_eq!(g.reads, 1);
        let mut out = Emit::new();
        g.put(SimTime::ZERO, Event::new("tag.seen").with_attr("tag", "tag-7"), &mut out);
        let events = out.drain();
        assert_eq!(events[0].kind(), "rfid.read");
        assert_eq!(events[0].str_attr("tag"), Some("tag-7"));
    }
}
