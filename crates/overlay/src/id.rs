//! 128-bit overlay identifiers with hexadecimal digit access.

use gloss_sim::NodeIndex;
use std::fmt;

/// Number of hexadecimal digits in a [`Key`] (128 bits / 4).
pub const DIGITS: usize = 32;

/// A 128-bit identifier on the overlay ring: node identifiers and document
/// GUIDs share this space, as in Pastry/PAST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u128);

impl Key {
    /// Derives a GUID from content bytes (FNV-1a, 128-bit, with a
    /// murmur-style finalisation pass).
    ///
    /// The paper: "all the P2P architectures cited use hashing algorithms
    /// to assign each document with a globally unique identifier (GUID)",
    /// derived "purely from document content using secure hashes". FNV-1a
    /// stands in for a secure hash here.
    ///
    /// Raw FNV-1a gives a trailing byte only one multiply by the (small)
    /// FNV prime, so names differing near the end ("x#shard0" …
    /// "x#shard5") differ only in their low ~34 bits and land adjacent
    /// on the ring — the same primary would hold every fragment, which
    /// defeats erasure coding's independent-failure premise. The
    /// finalisation avalanches every input bit across all 128 output
    /// bits so related names scatter uniformly.
    pub fn hash_of(bytes: &[u8]) -> Key {
        Key::hash_of_parts([bytes])
    }

    /// [`hash_of`](Self::hash_of) the concatenation of `parts`, read part
    /// by part: the GUID of a name made of a prefix and a variable part
    /// (`kbdelta/` + a subject), with no name built to hash it.
    pub fn hash_of_parts<'b>(parts: impl IntoIterator<Item = &'b [u8]>) -> Key {
        const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        let mut h = OFFSET;
        for &b in parts.into_iter().flatten() {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
        fn fmix64(mut k: u64) -> u64 {
            k ^= k >> 33;
            k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
            k ^= k >> 33;
            k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            k ^= k >> 33;
            k
        }
        let mut lo = h as u64;
        let mut hi = (h >> 64) as u64;
        lo = lo.wrapping_add(hi);
        hi = hi.wrapping_add(lo);
        lo = fmix64(lo);
        hi = fmix64(hi);
        lo = lo.wrapping_add(hi);
        hi = hi.wrapping_add(lo);
        Key(((hi as u128) << 64) | lo as u128)
    }

    /// Derives a GUID from a text name (convenience over
    /// [`hash_of`](Self::hash_of)).
    pub fn hash_of_str(s: &str) -> Key {
        Key::hash_of(s.as_bytes())
    }

    /// The `i`-th hexadecimal digit, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= DIGITS`.
    pub fn digit(self, i: usize) -> u8 {
        assert!(i < DIGITS, "digit index out of range");
        ((self.0 >> ((DIGITS - 1 - i) * 4)) & 0xf) as u8
    }

    /// Length of the shared hexadecimal prefix with `other` (0..=32).
    pub fn shared_prefix(self, other: Key) -> usize {
        let x = self.0 ^ other.0;
        if x == 0 {
            DIGITS
        } else {
            (x.leading_zeros() / 4) as usize
        }
    }

    /// Distance around the ring (minimum of clockwise and anticlockwise).
    pub fn ring_distance(self, other: Key) -> u128 {
        let cw = other.0.wrapping_sub(self.0);
        let ccw = self.0.wrapping_sub(other.0);
        cw.min(ccw)
    }

    /// Clockwise distance from `self` to `other`.
    pub fn clockwise_distance(self, other: Key) -> u128 {
        other.0.wrapping_sub(self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show the leading 8 digits; enough to distinguish in traces.
        write!(f, "{:08x}..", (self.0 >> 96) as u32)
    }
}

impl fmt::LowerHex for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A known overlay participant: its key and the physical node hosting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyedNode {
    /// The overlay identifier.
    pub key: Key,
    /// The physical node (for message addressing in the simulator).
    pub node: NodeIndex,
}

impl KeyedNode {
    /// Creates a keyed node.
    pub fn new(key: Key, node: NodeIndex) -> Self {
        KeyedNode { key, node }
    }
}

impl fmt::Display for KeyedNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.key, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let a = Key::hash_of(b"alpha");
        let b = Key::hash_of(b"alpha");
        let c = Key::hash_of(b"beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Single-byte difference flips high digits with good probability;
        // just check the keys differ substantially.
        assert!(a.ring_distance(c) > 1 << 64);
    }

    #[test]
    fn hashing_in_parts_hashes_the_concatenation() {
        let name = "kbdelta/bob & co";
        for split in 0..=name.len() {
            let (head, tail) = name.as_bytes().split_at(split);
            assert_eq!(Key::hash_of_parts([head, tail]), Key::hash_of_str(name), "split {split}");
        }
        assert_eq!(Key::hash_of_parts([]), Key::hash_of(b""));
    }

    #[test]
    fn sequentially_named_documents_scatter_on_the_ring() {
        // Erasure shards are named "{base}#shard{i}" — differing only in
        // the final byte. Without output avalanching they would share
        // their high bits, cluster on the ring, and all land on one
        // primary, losing fragment independence.
        let keys: Vec<Key> = (0..6).map(|i| Key::hash_of_str(&format!("obj#shard{i}"))).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert!(a.shared_prefix(*b) <= 4, "{a} and {b} cluster");
                assert!(a.ring_distance(*b) > 1 << 100, "{a} and {b} are ring-adjacent");
            }
        }
    }

    #[test]
    fn digit_extraction() {
        let k = Key(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(k.digit(0), 0x0);
        assert_eq!(k.digit(1), 0x1);
        assert_eq!(k.digit(15), 0xf);
        assert_eq!(k.digit(16), 0x0);
        assert_eq!(k.digit(31), 0xf);
    }

    #[test]
    #[should_panic(expected = "digit index")]
    fn digit_out_of_range_panics() {
        Key(0).digit(DIGITS);
    }

    #[test]
    fn shared_prefix_lengths() {
        let a = Key(0xaaaa_0000_0000_0000_0000_0000_0000_0000);
        let b = Key(0xaaab_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix(b), 3);
        assert_eq!(a.shared_prefix(a), DIGITS);
        let c = Key(0x1aaa_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix(c), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let near_top = Key(u128::MAX - 5);
        let near_bottom = Key(5);
        assert_eq!(near_top.ring_distance(near_bottom), 11);
        assert_eq!(near_bottom.ring_distance(near_top), 11);
        assert_eq!(near_top.clockwise_distance(near_bottom), 11);
    }

    #[test]
    fn display_is_short_hex() {
        let k = Key(0xdead_beef_0000_0000_0000_0000_0000_0000);
        assert_eq!(k.to_string(), "deadbeef..");
        assert_eq!(format!("{k:x}").len(), 32);
    }
}
