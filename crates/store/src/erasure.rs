//! Systematic Reed–Solomon erasure coding over GF(2⁸).
//!
//! "The schemes for storing replicated copies of data vary from simple
//! block copying to erasure-codes which permit data to be reconstituted
//! from a subset of the servers on which it is stored." (§3)
//!
//! An `(m, n)` code splits data into `m` data shards and computes `n - m`
//! parity shards; **any** `m` of the `n` shards reconstruct the original.
//! The encoding matrix is a Vandermonde matrix normalised so its top
//! `m × m` block is the identity (making the code systematic: the first
//! `m` shards are the plain data).

use std::error::Error;
use std::fmt;

/// An erasure coding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// Parameters out of range (`0 < m <= n <= 255` required).
    BadParameters {
        /// Requested data shards.
        m: usize,
        /// Requested total shards.
        n: usize,
    },
    /// Fewer than `m` distinct shards supplied to `decode`.
    NotEnoughShards {
        /// Shards needed.
        needed: usize,
        /// Shards supplied.
        got: usize,
    },
    /// Shards had inconsistent lengths or invalid indices.
    MalformedShards(String),
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::BadParameters { m, n } => {
                write!(f, "invalid erasure parameters ({m}, {n})")
            }
            ErasureError::NotEnoughShards { needed, got } => {
                write!(f, "need {needed} shards to reconstruct, got {got}")
            }
            ErasureError::MalformedShards(msg) => write!(f, "malformed shards: {msg}"),
        }
    }
}

impl Error for ErasureError {}

/// The most shards one code can have (shard rows are indexed by a byte).
pub(crate) const MAX_SHARDS: usize = 255;

// --- GF(2^8) arithmetic with generator polynomial 0x11d ---

const GF_POLY: u16 = 0x11d;

/// Exp/log tables built once per process.
fn tables() -> &'static ([u8; 512], [u8; 256]) {
    use std::sync::OnceLock;
    static TABLES: OnceLock<([u8; 512], [u8; 256])> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        (exp, log)
    })
}

fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = tables();
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "inverse of zero");
    let (exp, log) = tables();
    exp[255 - log[a as usize] as usize]
}

fn gf_pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let (exp, log) = tables();
    exp[(log[a as usize] as usize * e) % 255]
}

/// Inverts an `m × m` matrix over GF(2⁸) (Gauss–Jordan).
fn invert(matrix: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let m = matrix.len();
    let mut a: Vec<Vec<u8>> = matrix.to_vec();
    let mut inv: Vec<Vec<u8>> =
        (0..m).map(|i| (0..m).map(|j| u8::from(i == j)).collect()).collect();
    for col in 0..m {
        // Find a pivot.
        let pivot = (col..m).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = gf_inv(a[col][col]);
        for j in 0..m {
            a[col][j] = gf_mul(a[col][j], scale);
            inv[col][j] = gf_mul(inv[col][j], scale);
        }
        for r in 0..m {
            if r != col && a[r][col] != 0 {
                let factor = a[r][col];
                for j in 0..m {
                    a[r][j] ^= gf_mul(factor, a[col][j]);
                    inv[r][j] ^= gf_mul(factor, inv[col][j]);
                }
            }
        }
    }
    Some(inv)
}

/// Shard length below which building a 256-entry multiplication table is
/// not amortised and the plain exp/log path wins.
const MUL_TABLE_MIN_LEN: usize = 64;

/// The full multiplication row `coef · x` for every byte `x`, built with
/// 255 table lookups and then amortised over the whole shard: the inner
/// loop becomes one load per byte instead of two log lookups, an add,
/// and an exp lookup.
fn mul_table(coef: u8) -> [u8; 256] {
    let (exp, log) = tables();
    let mut t = [0u8; 256];
    let lc = log[coef as usize] as usize;
    for (x, slot) in t.iter_mut().enumerate().skip(1) {
        *slot = exp[lc + log[x] as usize];
    }
    t
}

/// `out ^= src`, eight bytes at a time (the identity-coefficient rows of
/// the systematic matrix, and any other coefficient-1 term).
fn xor_assign(out: &mut [u8], src: &[u8]) {
    let mut o = out.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (oc, sc) in o.by_ref().zip(s.by_ref()) {
        let x = u64::from_ne_bytes(oc.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sc.try_into().expect("8-byte chunk"));
        oc.copy_from_slice(&x.to_ne_bytes());
    }
    for (o, &b) in o.into_remainder().iter_mut().zip(s.remainder()) {
        *o ^= b;
    }
}

/// `out[i] ^= table[src[i]]`, unrolled in 8-byte strides so the loads
/// pipeline (a table lookup per byte is unavoidable without SIMD
/// gather, but the XOR accumulation needn't serialise on it).
fn mul_xor(out: &mut [u8], src: &[u8], table: &[u8; 256]) {
    let o = out.chunks_exact_mut(8);
    let s = src.chunks_exact(8);
    let (otail, stail) = (o.len() * 8, s.len() * 8);
    for (oc, sc) in o.zip(s) {
        oc[0] ^= table[sc[0] as usize];
        oc[1] ^= table[sc[1] as usize];
        oc[2] ^= table[sc[2] as usize];
        oc[3] ^= table[sc[3] as usize];
        oc[4] ^= table[sc[4] as usize];
        oc[5] ^= table[sc[5] as usize];
        oc[6] ^= table[sc[6] as usize];
        oc[7] ^= table[sc[7] as usize];
    }
    for (o, &b) in out[otail..].iter_mut().zip(&src[stail..]) {
        *o ^= table[b as usize];
    }
}

/// Multiplies matrix rows by data columns: `rows` is `r × m`, `shards` is
/// `m` equal-length slices; returns `r` output shards.
///
/// Each nonzero coefficient's multiplication table is built once per row
/// use and amortised over the shard length; coefficient 1 (the whole
/// systematic half of the encode matrix) degenerates to a word-wide XOR.
fn matmul(rows: &[Vec<u8>], shards: &[&[u8]]) -> Vec<Vec<u8>> {
    let len = shards.first().map_or(0, |s| s.len());
    rows.iter()
        .map(|row| {
            let mut out = vec![0u8; len];
            for (coef, shard) in row.iter().zip(shards) {
                match *coef {
                    0 => {}
                    1 => xor_assign(&mut out, shard),
                    c if len >= MUL_TABLE_MIN_LEN => mul_xor(&mut out, shard, &mul_table(c)),
                    c => {
                        for (o, &b) in out.iter_mut().zip(shard.iter()) {
                            *o ^= gf_mul(c, b);
                        }
                    }
                }
            }
            out
        })
        .collect()
}

/// A systematic `(m, n)` Reed–Solomon code.
///
/// # Example
///
/// ```
/// use gloss_store::ErasureCode;
/// let code = ErasureCode::new(4, 7)?; // tolerate any 3 losses
/// let data = b"the knowledge base of the global matching engine".to_vec();
/// let shards = code.encode(&data);
/// // Lose three shards, keep any four:
/// let kept: Vec<(usize, Vec<u8>)> =
///     [6, 2, 5, 0].iter().map(|&i| (i, shards[i].clone())).collect();
/// let restored = code.decode(&kept, data.len())?;
/// assert_eq!(restored, data);
/// # Ok::<(), gloss_store::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ErasureCode {
    m: usize,
    n: usize,
    /// The full `n × m` encoding matrix (top `m` rows = identity).
    rows: Vec<Vec<u8>>,
}

impl ErasureCode {
    /// Creates an `(m, n)` code: `m` data shards, `n` total.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::BadParameters`] unless `0 < m <= n <= 255`.
    pub fn new(m: usize, n: usize) -> Result<Self, ErasureError> {
        if m == 0 || n < m || n > MAX_SHARDS {
            return Err(ErasureError::BadParameters { m, n });
        }
        // Vandermonde rows v[i][j] = (i+1)^j, then normalise so the top
        // m×m block becomes the identity: E = V · (V_top)⁻¹. Every m×m
        // submatrix of a Vandermonde with distinct points is invertible,
        // and right-multiplication preserves that property.
        let v: Vec<Vec<u8>> =
            (0..n).map(|i| (0..m).map(|j| gf_pow((i + 1) as u8, j)).collect()).collect();
        let top: Vec<Vec<u8>> = v[..m].to_vec();
        let top_inv = invert(&top).expect("vandermonde top block is invertible");
        let rows: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| {
                        let mut acc = 0u8;
                        for (k, inv_row) in top_inv.iter().enumerate() {
                            acc ^= gf_mul(v[i][k], inv_row[j]);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        Ok(ErasureCode { m, n, rows })
    }

    /// Data shards per object.
    pub fn data_shards(&self) -> usize {
        self.m
    }

    /// Storage overhead factor `n / m` (1.0 = no redundancy).
    pub fn overhead(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Splits `data` into `n` shards (the first `m` carry the data, padded
    /// to equal length; the rest are parity).
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let shard_len = data.len().div_ceil(self.m).max(1);
        let mut padded = data.to_vec();
        padded.resize(shard_len * self.m, 0);
        let data_shards: Vec<&[u8]> = padded.chunks(shard_len).collect();
        matmul(&self.rows, &data_shards)
    }

    /// Reconstructs the original `len` bytes from any `m` shards, given as
    /// `(shard_index, bytes)` pairs.
    ///
    /// Every supplied shard is validated — a duplicate index is rejected
    /// rather than skipped, because a caller presenting the same shard
    /// twice (a repair pipeline double-counting one survivor, say) is
    /// operating on a wrong model of how much redundancy it has. Given
    /// more than `m` shards, the `m` *lowest* indices are used, so the
    /// same survivor set always decodes through the same matrix no
    /// matter what order the survivors answered in.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError`] if fewer than `m` shards are provided or
    /// the shards are malformed (out-of-range or duplicate indices,
    /// unequal lengths, or a `len` longer than `m` shards hold).
    pub fn decode(&self, shards: &[(usize, Vec<u8>)], len: usize) -> Result<Vec<u8>, ErasureError> {
        let mut seen = [false; 256]; // n <= 255
        let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(shards.len());
        for (idx, bytes) in shards {
            if *idx >= self.n {
                return Err(ErasureError::MalformedShards(format!("index {idx} out of range")));
            }
            if seen[*idx] {
                return Err(ErasureError::MalformedShards(format!("duplicate shard index {idx}")));
            }
            seen[*idx] = true;
            if let Some((_, first)) = chosen.first() {
                if first.len() != bytes.len() {
                    return Err(ErasureError::MalformedShards("unequal shard lengths".into()));
                }
            }
            chosen.push((*idx, bytes.as_slice()));
        }
        if chosen.len() < self.m {
            return Err(ErasureError::NotEnoughShards { needed: self.m, got: chosen.len() });
        }
        // `len` comes from a manifest another node wrote: never size the
        // output by more than the shards can fill.
        if self.m.checked_mul(chosen[0].1.len()).is_none_or(|held| len > held) {
            return Err(ErasureError::MalformedShards(format!("length {len} exceeds the shards")));
        }
        // Surplus shards: keep the lowest m indices. With a systematic
        // code those are the cheapest rows (often the identity block).
        chosen.sort_by_key(|(i, _)| *i);
        chosen.truncate(self.m);
        let sub: Vec<Vec<u8>> = chosen.iter().map(|(i, _)| self.rows[*i].clone()).collect();
        let inv = invert(&sub).ok_or_else(|| {
            ErasureError::MalformedShards("singular decode matrix (duplicate rows?)".into())
        })?;
        let shard_refs: Vec<&[u8]> = chosen.iter().map(|(_, s)| *s).collect();
        let data_shards = matmul(&inv, &shard_refs);
        let mut out = Vec::with_capacity(len);
        for s in data_shards {
            out.extend_from_slice(&s);
        }
        out.truncate(len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_field_properties() {
        // Multiplicative identity and inverses.
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
        // Commutativity spot checks.
        assert_eq!(gf_mul(7, 19), gf_mul(19, 7));
        // Distributivity over XOR (addition in GF(2^8)).
        for (a, b, c) in [(3u8, 100u8, 200u8), (255, 254, 1)] {
            assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
        }
    }

    #[test]
    fn decode_rejects_a_length_the_shards_cannot_hold() {
        let code = ErasureCode::new(2, 3).unwrap();
        let data = b"twelve bytes".to_vec();
        let shards: Vec<(usize, Vec<u8>)> = code.encode(&data).into_iter().enumerate().collect();
        let held = 2 * shards[0].1.len();
        for len in [usize::MAX, held + 1, 1 << 40] {
            assert!(
                matches!(code.decode(&shards[..2], len), Err(ErasureError::MalformedShards(_))),
                "len {len}"
            );
        }
        assert_eq!(code.decode(&shards[..2], held).unwrap().len(), held);
        assert_eq!(code.decode(&shards[1..], data.len()).unwrap(), data);
    }

    #[test]
    fn encode_is_systematic() {
        let code = ErasureCode::new(3, 5).unwrap();
        let data = b"abcdefghi".to_vec(); // 9 bytes = 3 shards of 3
        let shards = code.encode(&data);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards[0], b"abc");
        assert_eq!(shards[1], b"def");
        assert_eq!(shards[2], b"ghi");
    }

    #[test]
    fn reconstruct_from_any_m_subset() {
        let code = ErasureCode::new(3, 6).unwrap();
        let data: Vec<u8> = (0..100u8).collect();
        let shards = code.encode(&data);
        // Try every 3-subset of 6 shards.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let kept = vec![
                        (a, shards[a].clone()),
                        (b, shards[b].clone()),
                        (c, shards[c].clone()),
                    ];
                    let out = code.decode(&kept, data.len()).unwrap();
                    assert_eq!(out, data, "subset ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn unpadded_lengths_round_trip() {
        let code = ErasureCode::new(4, 7).unwrap();
        for len in [0usize, 1, 3, 4, 5, 64, 1000, 1001] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let shards = code.encode(&data);
            let kept: Vec<(usize, Vec<u8>)> = (3..7).map(|i| (i, shards[i].clone())).collect();
            assert_eq!(code.decode(&kept, len).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn too_few_shards_fails() {
        let code = ErasureCode::new(3, 5).unwrap();
        let shards = code.encode(b"hello world");
        let kept = vec![(0, shards[0].clone()), (1, shards[1].clone())];
        assert!(matches!(
            code.decode(&kept, 11),
            Err(ErasureError::NotEnoughShards { needed: 3, got: 2 })
        ));
    }

    #[test]
    fn duplicate_shard_indices_rejected() {
        let code = ErasureCode::new(2, 4).unwrap();
        let shards = code.encode(b"data!");
        // The same shard presented three times is one shard — and a
        // caller that thinks otherwise has lost track of its redundancy,
        // so the duplicate is an error even when enough distinct shards
        // ride along.
        let kept = vec![(1, shards[1].clone()), (1, shards[1].clone()), (1, shards[1].clone())];
        assert!(matches!(code.decode(&kept, 5), Err(ErasureError::MalformedShards(_))));
        let dup = vec![(1, shards[1].clone()), (3, shards[3].clone()), (1, shards[1].clone())];
        assert!(matches!(code.decode(&dup, 5), Err(ErasureError::MalformedShards(_))));
    }

    #[test]
    fn exactly_m_survivors_reconstruct() {
        let code = ErasureCode::new(3, 6).unwrap();
        let data: Vec<u8> = (0..64u8).collect();
        let shards = code.encode(&data);
        // The worst crash the code tolerates: n - m losses, exactly m
        // survivors — and all-parity survivors are the hardest subset.
        let kept = vec![(5, shards[5].clone()), (3, shards[3].clone()), (4, shards[4].clone())];
        assert_eq!(code.decode(&kept, data.len()).unwrap(), data);
    }

    #[test]
    fn surplus_shards_decode_deterministically() {
        let code = ErasureCode::new(2, 5).unwrap();
        let data = b"surplus shards".to_vec();
        let shards = code.encode(&data);
        // More than m shards, presented in scrambled orders: every
        // ordering must decode (via the lowest-m-indices rule) to the
        // same bytes.
        let orders: [[usize; 4]; 3] = [[4, 2, 0, 3], [0, 2, 3, 4], [3, 4, 2, 0]];
        for order in orders {
            let kept: Vec<(usize, Vec<u8>)> =
                order.iter().map(|&i| (i, shards[i].clone())).collect();
            assert_eq!(code.decode(&kept, data.len()).unwrap(), data, "order {order:?}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        let code = ErasureCode::new(2, 3).unwrap();
        let shards = code.encode(b"xy");
        assert!(matches!(
            code.decode(&[(9, shards[0].clone()), (1, shards[1].clone())], 2),
            Err(ErasureError::MalformedShards(_))
        ));
        assert!(matches!(
            code.decode(&[(0, vec![1, 2, 3]), (1, vec![1])], 2),
            Err(ErasureError::MalformedShards(_))
        ));
    }

    #[test]
    fn parameter_validation() {
        assert!(ErasureCode::new(0, 5).is_err());
        assert!(ErasureCode::new(5, 4).is_err());
        assert!(ErasureCode::new(4, 256).is_err());
        assert!(ErasureCode::new(1, 1).is_ok());
        assert!(ErasureCode::new(255, 255).is_ok());
    }

    #[test]
    fn replication_is_the_m1_special_case() {
        // (1, k) erasure coding is k-way replication.
        let code = ErasureCode::new(1, 3).unwrap();
        let shards = code.encode(b"copy");
        assert_eq!(shards[0], b"copy");
        assert_eq!(shards[1], b"copy");
        assert_eq!(shards[2], b"copy");
        assert_eq!(code.overhead(), 3.0);
    }

    #[test]
    fn overhead_factor() {
        assert!((ErasureCode::new(4, 6).unwrap().overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn table_path_matches_scalar_multiplies() {
        // Every coefficient's 256-entry row table must agree with gf_mul,
        // and mul_xor/xor_assign must agree with the scalar loop on
        // lengths spanning the 8-byte stride and the table threshold.
        for coef in 1..=255u8 {
            let t = mul_table(coef);
            for x in 0..=255u8 {
                assert_eq!(t[x as usize], gf_mul(coef, x), "coef {coef} x {x}");
            }
        }
        let src: Vec<u8> = (0..300usize).map(|i| (i * 37 % 256) as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 300] {
            for coef in [1u8, 2, 29, 173, 255] {
                let mut fast = vec![0x5au8; len];
                let mut slow = fast.clone();
                if coef == 1 {
                    xor_assign(&mut fast, &src[..len]);
                } else {
                    mul_xor(&mut fast, &src[..len], &mul_table(coef));
                }
                for (o, &b) in slow.iter_mut().zip(&src[..len]) {
                    *o ^= gf_mul(coef, b);
                }
                assert_eq!(fast, slow, "coef {coef} len {len}");
            }
        }
    }
}
