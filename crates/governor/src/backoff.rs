//! The one jittered exponential backoff schedule: join admission, the
//! storage plane's repair pacing and its lookup retry all build their
//! delays from these two steps, each keeping its own cap, floor and
//! private splitmix64 stream.

use gloss_sim::{splitmix_unit, SimDuration};

/// `base × 2^min(attempt, 16)`, saturating.
pub fn exponential(base: SimDuration, attempt: u32) -> SimDuration {
    SimDuration::from_micros(base.as_micros().saturating_mul(1u64 << attempt.min(16)))
}

/// `delay × uniform[1 − fraction, 1 + fraction)`, rounded to the
/// microsecond and never below 1 µs. Draws exactly one sample from the
/// caller's splitmix64 stream `rng`.
pub fn jittered(delay: SimDuration, fraction: f64, rng: &mut u64) -> SimDuration {
    let factor = 1.0 - fraction + 2.0 * fraction * splitmix_unit(rng);
    delay.mul_f64(factor).max(SimDuration::from_micros(1))
}
