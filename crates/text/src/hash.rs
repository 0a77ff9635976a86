//! 64-bit FNV-1a, the one byte hash the workspace keys caches, checksums
//! frames and digests traces with.
//!
//! Every caller feeds bits that must stay stable (on-disk checksums,
//! committed digests), so the constants are the published FNV-1a ones
//! and never change.
//!
//! # Examples
//!
//! ```
//! use unidm_text::hash::{fnv1a, fnv1a_extend, FNV_OFFSET};
//!
//! assert_eq!(fnv1a(b""), FNV_OFFSET);
//! assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
//! // Extending a running state equals hashing the concatenation.
//! assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
//! ```

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state `h`.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of `bytes` from the offset basis.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}
