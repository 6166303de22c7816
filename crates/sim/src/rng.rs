//! Seeded randomness with deterministic forking.
//!
//! All randomness in a simulation flows from one root [`SimRng`]. Components
//! obtain independent streams with [`SimRng::fork`], keyed by a label, so
//! adding a new consumer of randomness does not perturb existing streams —
//! a requirement for reproducible experiments.
//!
//! The generator is xoshiro256** seeded through four splitmix64 steps. Every
//! golden digest in the repository is drawn from this stream, and the
//! `seed_7_stream_is_pinned` test pins its first outputs.

use crate::hash::{fnv1a, splitmix64, unit_f64};
use crate::time::SimDuration;

/// A deterministic random number generator for simulations.
///
/// # Example
///
/// ```
/// use gloss_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.range(0, 1000), b.range(0, 1000));
/// // Forks with the same label replay the same stream…
/// let mut fa = a.fork("overlay");
/// let mut fb = b.fork("overlay");
/// assert_eq!(fa.range(0, 1000), fb.range(0, 1000));
/// // …and forks with different labels are independent streams.
/// let mut fc = a.fork("store");
/// let overlay: Vec<u64> = (0..8).map(|_| fa.range(0, 1 << 30)).collect();
/// let store: Vec<u64> = (0..8).map(|_| fc.range(0, 1 << 30)).collect();
/// assert_ne!(overlay, store);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// The xoshiro256** state.
    s: [u64; 4],
    /// The root seed, which forks derive theirs from.
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64's output is a bijection of its state, and the four
        // states differ, so at most one word is zero: xoshiro never starts
        // from the all-zero state it cannot leave.
        let mut state = seed;
        let s = [(); 4].map(|()| splitmix64(&mut state));
        SimRng { s, seed }
    }

    /// The next output of the xoshiro256** stream.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, span)` by widening multiply: the high word
    /// of `next × span` (bias at most 2⁻⁶⁴ per draw).
    fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Derives an independent generator keyed by `label`.
    ///
    /// Forking with the same label from generators with the same seed yields
    /// identical streams; distinct labels yield (statistically) independent
    /// streams.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(self.seed ^ fnv1a(label.as_bytes()))
    }

    /// Derives an independent generator keyed by a label and an index, for
    /// per-node streams.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(self.seed ^ fnv1a(label.as_bytes()) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "cannot sample empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform `usize` index in `[0, len)`, for slice indexing.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.range(0, len as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn float_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A sample from the exponential distribution with the given mean.
    ///
    /// Used for inter-arrival times and failure scheduling.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// An exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// A normally distributed sample (Box–Muller), with `mean` and `std_dev`.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// Returns `None` when `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.index(items.len());
            Some(&items[i])
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A random 128-bit value, for identifier generation.
    pub fn u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }
}

/// A Zipf-distributed sampler over ranks `0..n`.
///
/// Access patterns to contextual data are highly skewed (popular places,
/// popular users); the storage experiments (C3, C5) use Zipf workloads.
///
/// # Example
///
/// ```
/// use gloss_sim::{SimRng, Zipf};
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = SimRng::new(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has no ranks (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1_000_000), b.range(0, 1_000_000));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut c = SimRng::new(8);
        let sa: Vec<u64> = (0..8).map(|_| a.range(0, u64::MAX)).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.range(0, u64::MAX)).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.range(0, u64::MAX)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "a neighbouring seed is another stream");
    }

    /// The first draws of seed 7 through every primitive. Every golden
    /// digest is drawn from this stream, so a change to the generator, its
    /// seeding or a primitive's mapping fails here first.
    #[test]
    fn seed_7_stream_is_pinned() {
        let mut rng = SimRng::new(7);
        assert_eq!(rng.range(10, 1_000_000), 700_579);
        assert_eq!(rng.index(17), 4);
        assert_eq!(rng.unit().to_bits(), 0x3fea_de3a_6932_a58f);
        let draws = [rng.chance(0.5), rng.chance(0.5), rng.chance(0.5), rng.chance(0.25)];
        assert_eq!(draws, [false, false, false, true]);
        assert_eq!(rng.u128(), 0x1abc_4dcb_546f_61dc_6759_4f96_cac8_8520);
        let mut fork = rng.fork("overlay");
        assert_eq!(fork.range(0, u64::MAX), 8_015_379_913_318_597_389);
        assert_eq!(fork.index(1000), 77);
    }

    #[test]
    fn range_bounds_hold() {
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!((10..20).contains(&rng.range(10, 20)));
            assert!(rng.index(7) < 7);
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!((-5.0..5.0).contains(&rng.float_range(-5.0, 5.0)));
        }
    }

    #[test]
    fn unit_mean_is_centered() {
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| rng.unit()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = SimRng::new(3);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let root = SimRng::new(5);
        let mut f1 = root.fork("alpha");
        let mut f2 = root.fork("alpha");
        let mut g = root.fork("beta");
        let s1: Vec<u64> = (0..10).map(|_| f1.range(0, 1 << 30)).collect();
        let s2: Vec<u64> = (0..10).map(|_| f2.range(0, 1 << 30)).collect();
        let s3: Vec<u64> = (0..10).map(|_| g.range(0, 1 << 30)).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn indexed_forks_differ_per_index() {
        let root = SimRng::new(5);
        let mut a = root.fork_indexed("node", 0);
        let mut b = root.fork_indexed("node", 1);
        let sa: Vec<u64> = (0..8).map(|_| a.range(0, 1 << 20)).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.range(0, 1 << 20)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let mean = 5.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!((sample_mean - mean).abs() < 0.2, "sample mean {sample_mean}");
    }

    #[test]
    fn normal_mean_is_plausible() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.normal(10.0, 2.0)).sum();
        let sample_mean = total / n as f64;
        assert!((sample_mean - 10.0).abs() < 0.1, "sample mean {sample_mean}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::new(4);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(rng.choose(&items).unwrap()));
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, orig);
        assert_ne!(v, orig, "50 elements should not shuffle to identity");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(6);
        let mut low = 0;
        let n = 10_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // With s=1.0 over 1000 ranks, the top 10 ranks carry ~39% of mass.
        assert!(low > n / 4, "only {low} of {n} samples in top ranks");
    }

    #[test]
    fn zipf_sample_in_range() {
        let zipf = Zipf::new(3, 2.0);
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn exp_duration_roundtrip() {
        let mut rng = SimRng::new(8);
        let d = rng.exp_duration(SimDuration::from_secs(10));
        // Just sanity: non-negative and finite.
        assert!(d.as_secs_f64() >= 0.0);
    }
}
