//! Canonical byte encodings used for hashing and extraction.
//!
//! The robust sketch hashes `(x, s)` and the extractor consumes `x` as
//! bytes; both need an injective, deterministic encoding of integer
//! vectors.

/// Encodes an `i64` vector as length-prefixed big-endian bytes.
///
/// The 8-byte length prefix makes the encoding injective across
/// dimensions (no vector is a prefix of another's encoding).
///
/// ```rust
/// use fe_core::encode_i64_vector;
///
/// let bytes = encode_i64_vector(&[1i64, -2]);
/// assert_eq!(bytes.len(), 8 + 2 * 8);
/// assert_eq!(bytes[..8], 2u64.to_be_bytes());
/// assert_eq!(bytes[8..16], 1i64.to_be_bytes());
/// assert_eq!(bytes[16..], (-2i64).to_be_bytes());
/// ```
pub fn encode_i64_vector(v: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + v.len() * 8);
    out.extend_from_slice(&(v.len() as u64).to_be_bytes());
    for &x in v {
        out.extend_from_slice(&x.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injective_across_dimensions() {
        // [0] and [0, 0] must encode differently.
        assert_ne!(encode_i64_vector(&[0]), encode_i64_vector(&[0, 0]));
        // [1, 2] vs [258] (raw-byte collision risk without framing).
        assert_ne!(encode_i64_vector(&[1, 2]), encode_i64_vector(&[258]));
    }
}
