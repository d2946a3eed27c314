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
    /// the paper's slope. Results are identical, only timing differs:
    /// the error is the first failing coordinate's.
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
        let mut out = Vec::with_capacity(reading.len());
        let mut failed = None;
        for (&y, &s) in reading.iter().zip(sketch.iter()) {
            match self.recover_point(y, s) {
                Ok(x) => out.push(x),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// `Rec` on one coordinate: the reading `y` moved by `s`, snapped to
    /// the identifier of its interval and moved back.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] for a movement `SS` cannot make,
    /// [`SketchError::OutOfRange`] (the paper's ⊥) when `y + s` is
    /// farther than `t` from its identifier.
    fn recover_point(&self, y: i64, s: i64) -> Result<i64, SketchError> {
        let ka = self.line.interval_len() as i64;
        // Movements outside [-ka/2, ka/2] cannot come from SS; the
        // helper is network input, so `i64::MIN` must be refused too.
        if s.unsigned_abs() > (ka / 2) as u64 {
            return Err(SketchError::BadParameters);
        }
        let shifted = self.line.wrap(self.line.wrap(y) + s);
        let r = self.line.interval_offset(shifted); // [0, ka)
        let dist = (r - ka / 2).abs(); // to the identifier of r's interval
        if dist > self.t as i64 {
            return Err(SketchError::OutOfRange);
        }
        let identifier = shifted - r + ka / 2;
        Ok(self.line.wrap(identifier - s))
    }

    /// `SS` a coordinate at a time: the loop off AVX-512, and its
    /// oracle.
    fn sketch_scalar<R: RngCore + ?Sized>(&self, input: &[i64], rng: &mut R) -> Vec<i64> {
        input.iter().map(|&x| self.sketch_point(x, rng)).collect()
    }

    /// Sketches a single coordinate, returning the movement `s_i`.
    fn sketch_point<R: RngCore + ?Sized>(&self, x: i64, rng: &mut R) -> i64 {
        let ka = self.line.interval_len() as i64;
        // `ka` divides the period, so wrapping `x` onto the line first
        // cannot change its offset mod `ka`.
        let r = self.line.interval_offset(x); // [0, ka)
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

    // Eight coordinates a step on AVX-512 (`half_minus_offsets`), then
    // the boundary points' coin flips in coordinate order: the draws
    // `sketch_scalar` makes, which runs instead over the whole sketch
    // when any coordinate is off the fast range.
    fn sketch<R: RngCore + ?Sized>(
        &self,
        input: &[i64],
        rng: &mut R,
    ) -> Result<Vec<i64>, SketchError> {
        let Some((mut s, boundary)) = self.line.half_minus_offsets(input) else {
            return Ok(self.sketch_scalar(input, rng));
        };
        if boundary {
            // Offset 0 is the one movement of `ka/2`.
            let half = (self.line.interval_len() / 2) as i64;
            for m in s.iter_mut().filter(|m| **m == half) {
                if !rng.gen_bool(0.5) {
                    *m = -half;
                }
            }
        }
        Ok(s)
    }

    fn recover(&self, reading: &[i64], sketch: &Vec<i64>) -> Result<Vec<i64>, SketchError> {
        if reading.len() != sketch.len() {
            return Err(SketchError::DimensionMismatch {
                expected: sketch.len(),
                got: reading.len(),
            });
        }
        let mut out = Vec::with_capacity(reading.len());
        for (&y, &s) in reading.iter().zip(sketch.iter()) {
            out.push(self.recover_point(y, s)?); // early abort at ⊥
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numberline::tests::{oracle_line, ORACLE_LINES};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `SS` and `Rec` as they were before the ring reduced by
    /// reciprocals, verbatim, `wrap` included: a hardware divide a
    /// residue. Their `s.abs()` guard overflows on `i64::MIN`, so they
    /// are never handed it.
    mod by_division {
        use super::*;
        use crate::numberline::tests::by_division::wrap;

        fn sketch_point<R: RngCore + ?Sized>(sk: &ChebyshevSketch, x: i64, rng: &mut R) -> i64 {
            let ka = sk.line.interval_len() as i64;
            let r = x.rem_euclid(ka); // offset within the interval, [0, ka)
            if r == 0 {
                if rng.gen_bool(0.5) {
                    ka / 2
                } else {
                    -ka / 2
                }
            } else {
                ka / 2 - r // in (-ka/2, ka/2)
            }
        }

        pub fn sketch<R: RngCore + ?Sized>(
            sk: &ChebyshevSketch,
            input: &[i64],
            rng: &mut R,
        ) -> Vec<i64> {
            input.iter().map(|&x| sketch_point(sk, x, rng)).collect()
        }

        pub fn recover(
            sk: &ChebyshevSketch,
            reading: &[i64],
            sketch: &[i64],
        ) -> Result<Vec<i64>, SketchError> {
            let ka = sk.line.interval_len() as i64;
            let t = sk.t as i64;
            let mut out = Vec::with_capacity(reading.len());
            for (&y, &s) in reading.iter().zip(sketch.iter()) {
                if s.abs() > ka / 2 {
                    return Err(SketchError::BadParameters);
                }
                let shifted = wrap(&sk.line, wrap(&sk.line, y) + s);
                let r = shifted.rem_euclid(ka); // [0, ka)
                let dist = (r - ka / 2).abs();
                if dist > t {
                    return Err(SketchError::OutOfRange);
                }
                let identifier = shifted - r + ka / 2;
                out.push(wrap(&sk.line, identifier - s));
            }
            Ok(out)
        }
    }

    /// A coordinate for the oracles: canonical, on a boundary, one period
    /// out, at the fast path's end (`x + period` near `2³²`), or any `i64`.
    fn oracle_point(line: &NumberLine, rng: &mut StdRng) -> i64 {
        let ka = line.interval_len() as i64;
        let period = line.period() as i64;
        let half = line.half_range() as i64;
        match rng.gen_range(0..5) {
            0 => rng.gen_range(1 - half..=half),
            1 => ka * rng.gen_range(-(half / ka)..=half / ka),
            2 => rng.gen_range(1 - half..=half) + period * rng.gen_range(-1..=1i64),
            3 => (1 << 32) - period + rng.gen_range(-ka..=ka),
            _ => rng.gen(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On equal rng streams, `sketch` returns what the divides
        /// returned and leaves the rng where they left it; `recover` and
        /// `recover_exhaustive` return what `Rec` by divides returned,
        /// for readings near and far from the enrolled vector and for
        /// genuine, moved and out-of-bounds helpers.
        #[test]
        fn sketch_and_recover_match_division(
            i in 0..ORACLE_LINES.len(),
            seed in any::<u64>(),
            dim in 1usize..24,
        ) {
            let line = oracle_line(i);
            prop_assume!(line.max_threshold() > 0); // `(1, 2, 2)` takes no sketch
            let mut rng = StdRng::seed_from_u64(seed);
            let scheme = ChebyshevSketch::new(line, rng.gen_range(1..=line.max_threshold())).unwrap();
            let ka = line.interval_len() as i64;
            let x: Vec<i64> = (0..dim).map(|_| oracle_point(&line, &mut rng)).collect();

            let mut oracle = rng.clone();
            let s = scheme.sketch(&x, &mut rng).unwrap();
            prop_assert_eq!(&s, &by_division::sketch(&scheme, &x, &mut oracle));
            prop_assert_eq!(rng.next_u64(), oracle.next_u64());

            let noise = rng.gen_range(0..=ka);
            let near: Vec<i64> = x.iter().map(|&xi| xi.wrapping_add(rng.gen_range(-noise..=noise))).collect();
            let far: Vec<i64> = (0..dim).map(|_| oracle_point(&line, &mut rng)).collect();
            let mut moved = s.clone();
            let j = rng.gen_range(0..dim);
            moved[j] = match rng.gen_range(0..4) {
                0 => rng.gen_range(-ka / 2..=ka / 2),
                1 => ka / 2 + 1,
                2 => -(ka / 2) - 1,
                _ => rng.gen_range(i64::MIN + 1..=i64::MAX),
            };
            for reading in [&x, &near, &far] {
                for helper in [&s, &moved] {
                    let expected = by_division::recover(&scheme, reading, helper);
                    prop_assert_eq!(&scheme.recover(reading, helper), &expected);
                    prop_assert_eq!(&scheme.recover_exhaustive(reading, helper), &expected);
                }
            }
        }
    }

    /// Does this host run the AVX-512 bodies?
    fn lanes_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        return crate::index::store::kernels::avx512::available();
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `SS` eight coordinates a step returns what the scalar loop
        /// returns and leaves the rng where it leaves it, at every
        /// dimension from 1 to 130: on points inside the fast range
        /// (canonical or a period out) with `boundaries` of them, or
        /// every one, moved onto a boundary, and on sketches with `off`
        /// points drawn anywhere, the fast path's end and any `i64`
        /// among them. The lanes run exactly when every `x + kav` is a
        /// 32-bit number on a line with `ka < 2³²`. Half the cases take
        /// the oracle lines, half a random line with a period below
        /// `2³²`, where most sketches stay on the lanes.
        #[test]
        fn sketch_lanes_match_the_scalar_loop(
            i in 0..2 * ORACLE_LINES.len(),
            seed in any::<u64>(),
            dim in 1usize..=130,
            boundaries in 0usize..4,
            off in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let line = match ORACLE_LINES.get(i) {
                Some(_) => oracle_line(i),
                None => {
                    let ka = 2 * rng.gen_range(2..=1u64 << 15);
                    NumberLine::new(1, ka, rng.gen_range(2..=u64::from(u32::MAX) / ka)).unwrap()
                }
            };
            prop_assume!(line.max_threshold() > 0); // `(1, 2, 2)` takes no sketch
            let scheme = ChebyshevSketch::new(line, 1).unwrap();
            let ka = line.interval_len() as i64;
            let half = line.half_range() as i64;
            let period = line.period() as i64;
            let mut x: Vec<i64> = (0..dim)
                .map(|_| rng.gen_range(1 - half..=half) + period * rng.gen_range(-1..=1i64))
                .collect();
            let boundaries = if boundaries == 3 { dim } else { boundaries };
            for _ in 0..boundaries {
                let j = rng.gen_range(0..dim);
                x[j] = ka * rng.gen_range(-(half / ka)..=half / ka);
            }
            for _ in 0..off {
                let j = rng.gen_range(0..dim);
                x[j] = oracle_point(&line, &mut rng);
            }

            let fast = ka < 1 << 32
                && x.iter().all(|&xi| (xi.wrapping_add(period) as u64) < 1 << 32);
            prop_assert_eq!(line.half_minus_offsets(&x).is_some(), fast && lanes_available());
            let mut oracle = rng.clone();
            let s = scheme.sketch(&x, &mut rng).unwrap();
            prop_assert_eq!(&s, &scheme.sketch_scalar(&x, &mut oracle));
            prop_assert_eq!(rng.next_u64(), oracle.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `Rec(x, SS(x))` is `canonicalize(x)` — the secure sketch's
        /// `Rec(w, SS(w)) = w`, which lets `Gen` bind the canonical `x`
        /// without running `Rec` — on every oracle line, for random
        /// points, points up to a period out, oracle points, and inputs
        /// whose every coordinate is on a boundary, so both coin flips
        /// occur.
        #[test]
        fn canonicalize_is_rec_of_its_own_sketch(
            i in 0..ORACLE_LINES.len(),
            seed in any::<u64>(),
            dim in 1usize..24,
            kind in 0..4,
        ) {
            let line = oracle_line(i);
            prop_assume!(line.max_threshold() > 0); // `(1, 2, 2)` takes no sketch
            let mut rng = StdRng::seed_from_u64(seed);
            let scheme = ChebyshevSketch::new(line, rng.gen_range(1..=line.max_threshold())).unwrap();
            let ka = line.interval_len() as i64;
            let half = line.half_range() as i64;
            let period = line.period() as i64;
            let x: Vec<i64> = (0..dim)
                .map(|_| match kind {
                    0 => line.random_point(&mut rng),
                    1 => rng.gen_range(1 - half..=half) + period * rng.gen_range(-1..=1i64),
                    2 => oracle_point(&line, &mut rng),
                    _ => ka * rng.gen_range(-(half / ka)..=half / ka),
                })
                .collect();
            let s = scheme.sketch(&x, &mut rng).unwrap();
            if kind == 3 {
                prop_assert!(s.iter().all(|&m| m.abs() == ka / 2));
            }
            prop_assert_eq!(scheme.recover(&x, &s), Ok(scheme.canonicalize(&x)));
        }
    }

    /// A sketch whose one boundary point sits at any lane of any chunk,
    /// the tail's included, takes that point's coin flip: the draws and
    /// the movements are the scalar loop's.
    #[test]
    fn a_lone_boundary_takes_its_coin_flip_at_every_lane() {
        let s = scheme();
        let ka = s.line().interval_len() as i64;
        for dim in 1..=24 {
            for j in 0..dim {
                let mut x = vec![1; dim];
                x[j] = 3 * ka;
                let mut r = rng();
                let mut oracle = r.clone();
                let lanes = s.sketch(&x, &mut r).unwrap();
                assert_eq!(lanes, s.sketch_scalar(&x, &mut oracle), "{j} of {dim}");
                assert_eq!(r.next_u64(), oracle.next_u64(), "{j} of {dim}");
            }
        }
    }

    /// A helper coordinate beyond `±ka/2` cannot come from `SS`:
    /// `i64::MIN` (whose `abs` overflows), `i64::MAX` and `±(ka/2 + 1)`
    /// are refused by both `Rec`s, whatever the reading.
    #[test]
    fn out_of_bounds_helper_coordinates_are_bad_parameters() {
        let s = scheme();
        let half = (s.line().interval_len() / 2) as i64;
        for helper in [i64::MIN, i64::MAX, half + 1, -half - 1] {
            for y in [0, 1, half, -half, 99_999, i64::MIN, i64::MAX] {
                let (reading, sketch) = ([200, y], vec![0, helper]); // 200 recovers
                assert_eq!(
                    s.recover(&reading, &sketch),
                    Err(SketchError::BadParameters)
                );
                assert_eq!(
                    s.recover_exhaustive(&reading, &sketch),
                    Err(SketchError::BadParameters),
                    "helper {helper}, reading {y}"
                );
            }
        }
    }

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
