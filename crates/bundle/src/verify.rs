//! Integrity digests and keyed authentication tags.
//!
//! The paper requires bundles to pass "verification and security checks"
//! before execution. Real Cingal uses cryptographic signatures; this
//! reproduction uses FNV-1a-128 digests and a keyed hash tag, which
//! exercise the same decision points (accept/reject, per-issuer trust)
//! without external crypto crates.

/// FNV-1a 128-bit digest of `bytes`.
pub fn digest(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A shared authentication key for one issuing principal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthKey {
    issuer: String,
    secret: Vec<u8>,
}

impl AuthKey {
    /// Creates a key for `issuer` from `secret` bytes.
    pub fn new(issuer: impl Into<String>, secret: &[u8]) -> Self {
        AuthKey { issuer: issuer.into(), secret: secret.to_vec() }
    }

    /// The issuing principal this key authenticates.
    pub fn issuer(&self) -> &str {
        &self.issuer
    }

    /// The authentication tag for a body digest (keyed-hash construction:
    /// `H(secret ‖ H(secret ‖ digest))`, HMAC-shaped).
    pub fn tag(&self, body_digest: u128) -> u128 {
        let mut inner = self.secret.clone();
        inner.extend_from_slice(&body_digest.to_be_bytes());
        let inner_digest = digest(&inner);
        let mut outer = self.secret.clone();
        outer.extend_from_slice(&inner_digest.to_be_bytes());
        digest(&outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn tags_depend_on_key_and_digest() {
        let k1 = AuthKey::new("a", b"one");
        let k2 = AuthKey::new("a", b"two");
        let d = digest(b"payload");
        assert_eq!(k1.tag(d), k1.tag(d));
        assert_ne!(k1.tag(d), k2.tag(d));
        assert_ne!(k1.tag(d), k1.tag(d ^ 1));
    }

    #[test]
    fn issuer_accessor() {
        assert_eq!(AuthKey::new("ops", b"s").issuer(), "ops");
    }
}
