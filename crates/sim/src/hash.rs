//! A fast, non-cryptographic hasher for short-key hot-path maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of
//! nanoseconds per short string; the simulator's inner loops (fact
//! indexes, event-kind dispatch) hash trusted, low-cardinality keys
//! where FNV-1a is both sufficient and several times cheaper.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// FNV-1a of a byte string in one call — the fingerprint the matching
/// core's alpha indexes bucket fact subjects by, and the label hash
/// [`SimRng::fork`](crate::SimRng::fork) derives its seeds from.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// A `HashMap` keyed with FNV-1a.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// One step of the splitmix64 sequence: advances `state` and returns the
/// next output.
///
/// The engine gives every network link its own splitmix64 stream for
/// jitter and loss sampling: the stream a link draws from depends only on
/// the world seed and the link's endpoints, never on how activity on other
/// links interleaves — so a trace depends on the event order alone, not
/// on the order the scheduler happened to visit links in. Public so
/// scheduler-equivalence tests can transcribe the sampling exactly.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform `f64` in `[0, 1)` drawn from a splitmix64 stream.
pub fn splitmix_unit(state: &mut u64) -> f64 {
    unit_f64(splitmix64(state))
}

/// The top 53 bits of a uniform `u64` as a uniform `f64` in `[0, 1)`.
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_and_distinguishes_keys() {
        let mut m: FnvHashMap<String, u32> = FnvHashMap::default();
        m.insert("alpha".into(), 1);
        m.insert("beta".into(), 2);
        assert_eq!(m.get("alpha"), Some(&1));
        assert_eq!(m.get("beta"), Some(&2));
        assert_eq!(m.get("gamma"), None);
    }

    #[test]
    fn splitmix_streams_are_deterministic_and_distinct() {
        let mut a = 7u64;
        let mut b = 7u64;
        let mut c = 8u64;
        let sa: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let sb: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        let sc: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn splitmix_unit_in_range() {
        let mut s = 1234u64;
        for _ in 0..1000 {
            let u = splitmix_unit(&mut s);
            assert!((0.0..1.0).contains(&u), "unit sample {u}");
        }
    }

    #[test]
    fn hashes_differ_for_different_inputs() {
        let hash = |s: &str| {
            let mut h = FnvHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_ne!(hash("a"), hash("b"));
        assert_ne!(hash("ab"), hash("ba"));
    }
}
