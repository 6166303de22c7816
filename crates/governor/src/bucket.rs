//! A deterministic token bucket, the rate-limiting primitive shared by
//! the admission plane (join stampede control) and the storage plane's
//! repair pipeline (anti-storm pacing of re-replication traffic).
//!
//! State advances only on calls carrying simulated time, so identical
//! call sequences yield identical verdicts.

use gloss_sim::SimTime;

/// A token bucket: `capacity` tokens of burst, refilled continuously at
/// `refill_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket whose refill clock starts at `now`.
    pub fn new(capacity: f64, refill_per_sec: f64, now: SimTime) -> Self {
        TokenBucket { capacity, refill_per_sec, tokens: capacity, refilled_at: now }
    }

    /// Advances the refill clock to `now`.
    pub fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        self.refilled_at = now;
    }

    /// Tokens available after refilling to `now`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Takes `cost` tokens if available; returns whether the take
    /// succeeded. A failed take consumes nothing.
    pub fn try_take(&mut self, now: SimTime, cost: f64) -> bool {
        self.refill(now);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_sim::SimDuration;

    #[test]
    fn burst_then_refill() {
        let mut b = TokenBucket::new(3.0, 1.0, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO, 1.0));
        assert!(b.try_take(SimTime::ZERO, 1.0));
        assert!(b.try_take(SimTime::ZERO, 1.0));
        assert!(!b.try_take(SimTime::ZERO, 1.0));
        // One second refills one token.
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(b.try_take(t, 1.0));
        assert!(!b.try_take(t, 1.0));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = TokenBucket::new(2.0, 10.0, SimTime::ZERO);
        assert!((b.available(SimTime::from_secs(100)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn failed_take_consumes_nothing() {
        let mut b = TokenBucket::new(1.0, 0.0, SimTime::ZERO);
        assert!(!b.try_take(SimTime::ZERO, 2.0));
        assert!(b.try_take(SimTime::ZERO, 1.0));
    }

    #[test]
    fn fractional_costs() {
        let mut b = TokenBucket::new(1.0, 0.5, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO, 0.75));
        assert!(!b.try_take(SimTime::ZERO, 0.75));
        // 1 second refills 0.5: 0.25 + 0.5 = 0.75.
        assert!(b.try_take(SimTime::from_secs(1), 0.75));
    }
}
