//! The robust secure sketch of Sec. IV-C: the generic hash-binding
//! construction of Boyen et al. (EUROCRYPT 2005) applied to any secure
//! sketch.
//!
//! An active adversary can modify public helper data in storage or in
//! transit; a plain sketch gives no guarantee in that case. The robust
//! wrapper appends `h = H(x, s)`; `Rec` recomputes the hash over the
//! recovered value and rejects on mismatch, detecting both tampering and
//! silent mis-recovery.

use crate::encode::encode_i64_vector;
use crate::sketch::SecureSketch;
use crate::SketchError;
use fe_crypto::ct::ct_eq;
use fe_crypto::{Digest, Sha256};
use rand::RngCore;
use std::marker::PhantomData;

/// Sketch data produced by [`RobustSketch`]: the inner sketch plus the
/// binding hash tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustData<S> {
    /// The wrapped sketch `s'`.
    pub inner: S,
    /// `h = H(x ‖ s')`.
    pub tag: Vec<u8>,
}

/// A sketch whose helper data can be byte-encoded canonically (needed to
/// feed the binding hash).
pub trait SketchBytes {
    /// Canonical, injective byte encoding.
    fn sketch_bytes(&self) -> Vec<u8>;
}

impl SketchBytes for Vec<i64> {
    fn sketch_bytes(&self) -> Vec<u8> {
        encode_i64_vector(self)
    }
}

/// The robust wrapper: `SS(x) = (s', H(x ‖ s'))`,
/// `Rec(y, (s', h))` = inner recover, then hash check.
///
/// ```rust
/// use fe_core::{ChebyshevSketch, RobustSketch, SecureSketch, SketchError};
/// use fe_crypto::Sha256;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), SketchError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let robust = RobustSketch::<_, Sha256>::new(ChebyshevSketch::paper_defaults());
/// let x = robust.inner().line().random_vector(8, &mut rng);
/// let mut data = robust.sketch(&x, &mut rng)?;
///
/// // Honest recovery works …
/// assert!(robust.recover(&x, &data).is_ok());
///
/// // … but helper-data tampering is detected.
/// data.inner[0] += 2;
/// assert!(matches!(
///     robust.recover(&x, &data),
///     Err(SketchError::TagMismatch) | Err(SketchError::OutOfRange)
/// ));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RobustSketch<S, D = Sha256> {
    inner: S,
    _digest: PhantomData<D>,
}

impl<S, D> RobustSketch<S, D>
where
    S: SecureSketch,
    S::Sketch: SketchBytes,
    D: Digest,
{
    /// Wraps an inner secure sketch.
    pub fn new(inner: S) -> Self {
        RobustSketch {
            inner,
            _digest: PhantomData,
        }
    }

    /// Borrows the wrapped sketch scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Checks the binding tag for an already-recovered value (constant
    /// time). Exposed for callers that run the inner recovery themselves
    /// (e.g. the exhaustive-scan baseline).
    pub fn verify_tag(&self, recovered: &[i64], sketch: &RobustData<S::Sketch>) -> bool {
        ct_eq(&Self::tag(recovered, &sketch.inner), &sketch.tag)
    }

    fn tag(x: &[i64], sketch: &S::Sketch) -> Vec<u8> {
        let mut h = D::new();
        h.update(b"fe-robust-sketch-v1");
        h.update(&encode_i64_vector(x));
        h.update(&sketch.sketch_bytes());
        h.finalize()
    }
}

impl<S, D> SecureSketch for RobustSketch<S, D>
where
    S: SecureSketch,
    S::Sketch: SketchBytes,
    D: Digest,
{
    type Sketch = RobustData<S::Sketch>;

    fn sketch<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<Self::Sketch, SketchError> {
        let inner = self.inner.sketch(input, rng)?;
        // Hash the canonical representative — what recover() will return.
        let canonical = self.inner.recover(input, &inner)?;
        let tag = Self::tag(&canonical, &inner);
        Ok(RobustData { inner, tag })
    }

    fn recover(&self, reading: &[i64], sketch: &Self::Sketch) -> Result<Vec<i64>, SketchError> {
        let recovered = self.inner.recover(reading, &sketch.inner)?;
        let expected = Self::tag(&recovered, &sketch.inner);
        if !ct_eq(&expected, &sketch.tag) {
            return Err(SketchError::TagMismatch);
        }
        Ok(recovered)
    }

    fn expected_dim(&self) -> Option<usize> {
        self.inner.expected_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChebyshevSketch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Robust = RobustSketch<ChebyshevSketch, Sha256>;

    fn scheme() -> Robust {
        RobustSketch::new(ChebyshevSketch::paper_defaults())
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn honest_roundtrip() {
        let s = scheme();
        let mut r = rng();
        let x = s.inner().line().random_vector(32, &mut r);
        let data = s.sketch(&x, &mut r).unwrap();
        assert_eq!(data.tag.len(), 32); // SHA-256
        let noisy: Vec<i64> = x.iter().map(|v| v - 77).collect();
        assert_eq!(s.recover(&noisy, &data).unwrap(), x);
    }

    #[test]
    fn tampered_movement_detected() {
        let s = scheme();
        let mut r = rng();
        let x = s.inner().line().random_vector(32, &mut r);
        let mut data = s.sketch(&x, &mut r).unwrap();
        data.inner[7] += 2; // small shift keeps Rec succeeding but wrong
        match s.recover(&x, &data) {
            Err(SketchError::TagMismatch) | Err(SketchError::OutOfRange) => {}
            other => panic!("tampering not detected: {other:?}"),
        }
    }

    #[test]
    fn tampered_tag_detected() {
        let s = scheme();
        let mut r = rng();
        let x = s.inner().line().random_vector(8, &mut r);
        let mut data = s.sketch(&x, &mut r).unwrap();
        data.tag[0] ^= 0x80;
        assert_eq!(s.recover(&x, &data), Err(SketchError::TagMismatch));
    }

    #[test]
    fn swapped_helper_data_rejected() {
        // Helper data of user A must not verify for user B's reading even
        // if B happens to be within range of A's intervals.
        let s = scheme();
        let mut r = rng();
        let xa = s.inner().line().random_vector(16, &mut r);
        let xb = s.inner().line().random_vector(16, &mut r);
        let data_a = s.sketch(&xa, &mut r).unwrap();
        match s.recover(&xb, &data_a) {
            Err(_) => {}
            Ok(recovered) => assert_eq!(recovered, xa, "robust Rec must return A's value or fail"),
        }
    }

    #[test]
    fn out_of_range_reading_still_bottom() {
        let s = scheme();
        let mut r = rng();
        let x = s.inner().line().random_vector(8, &mut r);
        let data = s.sketch(&x, &mut r).unwrap();
        let far: Vec<i64> = x.iter().map(|v| s.inner().line().wrap(v + 199)).collect();
        assert!(s.recover(&far, &data).is_err());
    }
}
