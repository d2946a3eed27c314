//! The Chebyshev-distance secure sketch of Sec. IV-B — the paper's core
//! construction.

use crate::numberline::NumberLine;
use crate::sketch::SecureSketch;
use crate::SketchError;
use rand::Rng;
use rand::RngCore;

/// The maximum-norm secure sketch over a [`NumberLine`].
///
/// **Sketch** (`SS`): every coordinate `x_i` is moved by `s_i` to the
/// identifier of its interval (`I_i = x_i + s_i`, `|s_i| ≤ ka/2`); the
/// movement vector `s` is the public sketch. Boundary points (the paper's
/// special case 1) are moved left or right by a coin flip; ring wrap-around
/// (special case 2) is ordinary modular arithmetic here.
///
/// **Recover** (`Rec`): apply the same movements to the reading, snap to
/// the nearest identifier, undo the movements. Succeeds exactly when
/// the reading is within cyclic Chebyshev distance `t < ka/2` of the
/// enrolled vector (Theorem 1).
///
/// ```rust
/// use fe_core::{ChebyshevSketch, NumberLine, SecureSketch};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), fe_core::SketchError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let sketch = ChebyshevSketch::new(NumberLine::new(100, 4, 500)?, 100)?;
/// let x = vec![12_345, -67_890, 0, 99_999];
/// let s = sketch.sketch(&x, &mut rng)?;
/// let y = vec![12_395, -67_940, -50, -99_951]; // each within 100 (ring!)
/// assert_eq!(sketch.recover(&y, &s)?, sketch.canonicalize(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChebyshevSketch {
    line: NumberLine,
    t: u64,
}

impl ChebyshevSketch {
    /// Creates the sketch scheme with acceptance threshold `t`.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] unless `0 < t < ka/2` (the Setup
    /// requirement of Sec. IV-B).
    pub fn new(line: NumberLine, t: u64) -> Result<ChebyshevSketch, SketchError> {
        if t == 0 || t >= line.interval_len() / 2 {
            return Err(SketchError::BadParameters);
        }
        Ok(ChebyshevSketch { line, t })
    }

    /// The paper's Table II instantiation:
    /// `a = 100, k = 4, v = 500, t = 100`.
    pub fn paper_defaults() -> ChebyshevSketch {
        ChebyshevSketch::new(
            NumberLine::new(100, 4, 500).expect("paper parameters are valid"),
            100,
        )
        .expect("paper threshold is valid")
    }

    /// The underlying number line.
    pub fn line(&self) -> &NumberLine {
        &self.line
    }

    /// The acceptance threshold `t`.
    pub fn threshold(&self) -> u64 {
        self.t
    }

    /// Wraps every coordinate onto the canonical range of the line —
    /// the representative that [`SecureSketch::recover`] returns.
    pub fn canonicalize(&self, input: &[i64]) -> Vec<i64> {
        input.iter().map(|&x| self.line.wrap(x)).collect()
    }

    /// Like [`SecureSketch::recover`] but *without* early abort: every
    /// coordinate is processed before the verdict.
    ///
    /// The paper's `Rec` pseudocode aborts at the first out-of-threshold
    /// coordinate (and so does [`SecureSketch::recover`]); vectorized
    /// implementations — like the authors' Python/NumPy measurement setup
    /// — compute all coordinates first. This method models that cost
    /// profile; the Fig. 4 baseline uses it so the reproduced curve has
    /// the paper's slope. Results are identical, only timing differs.
    ///
    /// # Errors
    /// Same contract as [`SecureSketch::recover`].
    pub fn recover_exhaustive(
        &self,
        reading: &[i64],
        sketch: &[i64],
    ) -> Result<Vec<i64>, SketchError> {
        if reading.len() != sketch.len() {
            return Err(SketchError::DimensionMismatch {
                expected: sketch.len(),
                got: reading.len(),
            });
        }
        let ka = self.line.interval_len() as i64;
        let t = self.t as i64;
        let mut out = Vec::with_capacity(reading.len());
        let mut failed = false;
        for (&y, &s) in reading.iter().zip(sketch.iter()) {
            if s.abs() > ka / 2 {
                failed = true;
                out.push(0);
                continue;
            }
            let shifted = self.line.wrap(self.line.wrap(y) + s);
            let r = shifted.rem_euclid(ka);
            let dist = (r - ka / 2).abs();
            if dist > t {
                failed = true;
            }
            let identifier = shifted - r + ka / 2;
            out.push(self.line.wrap(identifier - s));
        }
        if failed {
            return Err(SketchError::OutOfRange);
        }
        Ok(out)
    }

    /// Sketches a single coordinate, returning the movement `s_i`.
    fn sketch_point<R: RngCore + ?Sized>(&self, x: i64, rng: &mut R) -> i64 {
        let ka = self.line.interval_len() as i64;
        // One division, not two: `ka` divides the period, so wrapping
        // `x` onto the line first cannot change its offset mod `ka`.
        let r = x.rem_euclid(ka); // offset within the interval, [0, ka)
        if r == 0 {
            // Special case 1: boundary point — coin flip picks a side.
            if rng.gen_bool(0.5) {
                ka / 2
            } else {
                -ka / 2
            }
        } else {
            ka / 2 - r // in (-ka/2, ka/2)
        }
    }
}

impl SecureSketch for ChebyshevSketch {
    type Sketch = Vec<i64>;

    fn sketch<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<Vec<i64>, SketchError> {
        Ok(input.iter().map(|&x| self.sketch_point(x, rng)).collect())
    }

    fn recover(&self, reading: &[i64], sketch: &Vec<i64>) -> Result<Vec<i64>, SketchError> {
        if reading.len() != sketch.len() {
            return Err(SketchError::DimensionMismatch {
                expected: sketch.len(),
                got: reading.len(),
            });
        }
        let ka = self.line.interval_len() as i64;
        let t = self.t as i64;
        let mut out = Vec::with_capacity(reading.len());
        for (&y, &s) in reading.iter().zip(sketch.iter()) {
            // Movements outside [-ka/2, ka/2] cannot come from SS.
            if s.abs() > ka / 2 {
                return Err(SketchError::BadParameters);
            }
            let shifted = self.line.wrap(self.line.wrap(y) + s);
            let r = shifted.rem_euclid(ka); // [0, ka)
                                            // Distance to the identifier of the containing interval.
            let dist = (r - ka / 2).abs();
            if dist > t {
                return Err(SketchError::OutOfRange); // the paper's ⊥
            }
            let identifier = shifted - r + ka / 2;
            out.push(self.line.wrap(identifier - s));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> ChebyshevSketch {
        ChebyshevSketch::paper_defaults()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn paper_defaults_match_table2() {
        let s = scheme();
        assert_eq!(s.line().a(), 100);
        assert_eq!(s.line().k(), 4);
        assert_eq!(s.line().v(), 500);
        assert_eq!(s.threshold(), 100);
    }

    #[test]
    fn threshold_validation() {
        let line = NumberLine::new(100, 4, 500).unwrap();
        assert!(ChebyshevSketch::new(line, 0).is_err());
        assert!(ChebyshevSketch::new(line, 199).is_ok());
        assert!(ChebyshevSketch::new(line, 200).is_err()); // t >= ka/2
    }

    #[test]
    fn movements_bounded_by_half_interval() {
        let s = scheme();
        let mut r = rng();
        let x = s.line().random_vector(2000, &mut r);
        let sk = s.sketch(&x, &mut r).unwrap();
        let half = (s.line().interval_len() / 2) as i64;
        assert!(sk.iter().all(|&m| m.abs() <= half));
        // Non-boundary points have |s| < ka/2 strictly; both signs appear.
        assert!(sk.iter().any(|&m| m > 0));
        assert!(sk.iter().any(|&m| m < 0));
    }

    #[test]
    fn movement_lands_on_identifier() {
        let s = scheme();
        let mut r = rng();
        let x = s.line().random_vector(500, &mut r);
        let sk = s.sketch(&x, &mut r).unwrap();
        for (&xi, &si) in x.iter().zip(sk.iter()) {
            let target = s.line().wrap(xi + si);
            assert_eq!(
                s.line().distance_to_identifier(target),
                0,
                "x={xi} s={si} does not land on an identifier"
            );
        }
    }

    #[test]
    fn exact_reading_recovers() {
        let s = scheme();
        let mut r = rng();
        let x = s.line().random_vector(100, &mut r);
        let sk = s.sketch(&x, &mut r).unwrap();
        assert_eq!(s.recover(&x, &sk).unwrap(), x);
    }

    #[test]
    fn recovers_within_threshold_theorem1() {
        let s = scheme();
        let mut r = rng();
        for _ in 0..50 {
            let x = s.line().random_vector(64, &mut r);
            let sk = s.sketch(&x, &mut r).unwrap();
            let noisy: Vec<i64> = x
                .iter()
                .map(|&xi| {
                    use rand::Rng;
                    s.line().wrap(xi + r.gen_range(-100i64..=100))
                })
                .collect();
            assert_eq!(s.recover(&noisy, &sk).unwrap(), x);
        }
    }

    #[test]
    fn rejects_beyond_threshold() {
        let s = scheme();
        let mut r = rng();
        let x = s.line().random_vector(64, &mut r);
        let sk = s.sketch(&x, &mut r).unwrap();
        // One coordinate pushed t+1 away (worst case alignment may still
        // recover — but pushing by ka/2 always changes the interval
        // relationship by more than t).
        let mut bad = x.clone();
        bad[10] = s.line().wrap(bad[10] + 199); // 199 > t = 100
        match s.recover(&bad, &sk) {
            Err(SketchError::OutOfRange) => {}
            Ok(recovered) => {
                // If it recovered, the value must differ from x (wrong
                // interval) — never silently correct.
                assert_ne!(recovered, x);
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn always_rejects_at_half_interval() {
        // A perturbation of exactly ka/2 > t on one coordinate can never
        // recover x: y+s is at least ka/2 - t away from x's identifier.
        let s = scheme();
        let mut r = rng();
        let x = s.line().random_vector(16, &mut r);
        let sk = s.sketch(&x, &mut r).unwrap();
        for delta in [200i64, 250, 300] {
            let mut bad = x.clone();
            bad[0] = s.line().wrap(bad[0] + delta);
            match s.recover(&bad, &sk) {
                Err(SketchError::OutOfRange) => {}
                Ok(recovered) => assert_ne!(recovered, x, "delta={delta}"),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn boundary_points_coin_flip_both_ways() {
        let s = scheme();
        let mut r = rng();
        let boundary = vec![0i64; 200]; // all on the 0 boundary
        let sk = s.sketch(&boundary, &mut r).unwrap();
        let half = (s.line().interval_len() / 2) as i64;
        assert!(sk.iter().all(|&m| m == half || m == -half));
        assert!(sk.contains(&half));
        assert!(sk.iter().any(|&m| m == -half));
        // Either way, recovery from the exact value works.
        assert_eq!(s.recover(&boundary, &sk).unwrap(), boundary);
    }

    #[test]
    fn ring_wraparound_recovery() {
        // Enrolled near +100000 (the seam), read near -100000.
        let s = scheme();
        let mut r = rng();
        let x = vec![99_980i64];
        let sk = s.sketch(&x, &mut r).unwrap();
        let y = vec![-99_990i64]; // cyclic distance 30
        assert_eq!(s.recover(&y, &sk).unwrap(), x);
    }

    #[test]
    fn non_canonical_input_is_canonicalized() {
        let s = scheme();
        let mut r = rng();
        let x = vec![250_000i64]; // wraps to 50_000
        let sk = s.sketch(&x, &mut r).unwrap();
        assert_eq!(s.recover(&[50_000], &sk).unwrap(), vec![50_000]);
        assert_eq!(s.canonicalize(&x), vec![50_000]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let s = scheme();
        let mut r = rng();
        let sk = s.sketch(&[1, 2, 3], &mut r).unwrap();
        assert_eq!(
            s.recover(&[1, 2], &sk),
            Err(SketchError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn forged_oversized_movement_rejected() {
        let s = scheme();
        let forged = vec![10_000i64]; // |s| > ka/2 can't come from SS
        assert_eq!(s.recover(&[0], &forged), Err(SketchError::BadParameters));
    }

    #[test]
    fn empty_vector_roundtrip() {
        let s = scheme();
        let mut r = rng();
        let sk = s.sketch(&[], &mut r).unwrap();
        assert_eq!(s.recover(&[], &sk).unwrap(), Vec::<i64>::new());
    }
}
