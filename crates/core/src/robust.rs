//! The robust secure sketch of Sec. IV-C: the generic hash-binding
//! construction of Boyen et al. (EUROCRYPT 2005) applied to the
//! Chebyshev sketch.
//!
//! An active adversary can modify public helper data in storage or in
//! transit; a plain sketch gives no guarantee in that case. The robust
//! wrapper appends `h = H(x, s)`; `Rec` recomputes the hash over the
//! recovered value and rejects on mismatch, detecting both tampering and
//! silent mis-recovery.

use crate::chebyshev::ChebyshevSketch;
use crate::encode::encode_i64_vector;
use crate::sketch::SecureSketch;
use crate::SketchError;
use fe_crypto::ct::ct_eq;
use fe_crypto::Sha256;
use rand::RngCore;

/// Sketch data produced by [`RobustSketch`]: the Chebyshev sketch plus
/// the binding hash tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustData {
    /// The wrapped sketch `s'`.
    pub inner: Vec<i64>,
    /// `h = H(x ‖ s')`, SHA-256.
    pub tag: Vec<u8>,
}

/// The robust wrapper: `SS(x) = (s', H(x ‖ s'))`,
/// `Rec(y, (s', h))` = inner recover, then hash check.
///
/// ```rust
/// use fe_core::{ChebyshevSketch, RobustSketch, SecureSketch, SketchError};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), SketchError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let robust = RobustSketch::new(ChebyshevSketch::paper_defaults());
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
pub struct RobustSketch {
    inner: ChebyshevSketch,
}

impl RobustSketch {
    /// Wraps the Chebyshev sketch.
    pub fn new(inner: ChebyshevSketch) -> Self {
        RobustSketch { inner }
    }

    /// Borrows the wrapped sketch scheme.
    pub fn inner(&self) -> &ChebyshevSketch {
        &self.inner
    }

    /// The canonical encoding of an already-recovered value, once the
    /// binding tag is checked over it (constant time) — `Rec`'s twin of
    /// [`RobustSketch::sketch_encoded`]: `Rep` extracts its key from
    /// exactly these bytes, so it encodes the value once.
    ///
    /// # Errors
    /// [`SketchError::TagMismatch`] when the tag does not cover it.
    pub(crate) fn encode_tagged(
        &self,
        recovered: &[i64],
        sketch: &RobustData,
    ) -> Result<Vec<u8>, SketchError> {
        let encoded = encode_i64_vector(recovered);
        if ct_eq(&tag(&encoded, &sketch.inner), &sketch.tag) {
            Ok(encoded)
        } else {
            Err(SketchError::TagMismatch)
        }
    }

    /// `SS` that also hands back the canonical encoding of the value it
    /// bound: `Gen` extracts its key from exactly these bytes, so it needs
    /// neither a second `Rec` nor a second encoding.
    pub(crate) fn sketch_encoded<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<(RobustData, Vec<u8>), SketchError> {
        let inner = self.inner.sketch(input, rng)?;
        // Hash the canonical representative — what recover() will return:
        // `Rec(x, SS(x))` lands on every identifier at distance 0 and
        // gives back `wrap(x)`.
        let canonical = encode_i64_vector(&self.inner.canonicalize(input));
        let tag = tag(&canonical, &inner);
        Ok((RobustData { inner, tag }, canonical))
    }
}

/// `H(x ‖ s')` over the encoded value `x` and the sketch `s'`, `s'` in
/// [`encode_i64_vector`]'s bytes, hashed eight coordinates at a time
/// from the stack.
fn tag(encoded: &[u8], sketch: &[i64]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(b"fe-robust-sketch-v1");
    h.update(encoded);
    h.update(&(sketch.len() as u64).to_be_bytes());
    let mut block = [0; 64];
    for coords in sketch.chunks(8) {
        for (bytes, x) in block.chunks_exact_mut(8).zip(coords) {
            bytes.copy_from_slice(&x.to_be_bytes());
        }
        h.update(&block[..8 * coords.len()]);
    }
    h.finalize()
}

impl SecureSketch for RobustSketch {
    type Sketch = RobustData;

    fn sketch<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<RobustData, SketchError> {
        Ok(self.sketch_encoded(input, rng)?.0)
    }

    fn recover(&self, reading: &[i64], sketch: &RobustData) -> Result<Vec<i64>, SketchError> {
        let recovered = self.inner.recover(reading, &sketch.inner)?;
        self.encode_tagged(&recovered, sketch)?;
        Ok(recovered)
    }

    fn expected_dim(&self) -> Option<usize> {
        self.inner.expected_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> RobustSketch {
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
