//! Constant-time comparison helpers.
//!
//! The robust-sketch hash check and signature comparisons must not leak
//! where the first differing byte is, so equality is computed by
//! accumulating the OR of XORed bytes rather than short-circuiting.

/// Constant-time byte-slice equality.
///
/// Returns `false` immediately when lengths differ (length is public in all
/// of our uses: digests and signatures have fixed, known sizes).
///
/// ```rust
/// use fe_crypto::ct::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"abcd"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
        // Difference in first byte as well as last.
        assert!(!ct_eq(&[0, 2, 3], &[1, 2, 3]));
    }
}
