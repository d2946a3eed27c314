//! Security accounting from Theorem 3 and the false-close analysis of
//! Theorem 2 — the formulas behind the paper's Table II.
//!
//! For a number line with parameters `(a, k, v)` and `n`-dimensional
//! inputs uniform on the line:
//!
//! * min-entropy of the input: `m = n·log₂(kav)`
//! * average min-entropy given the sketch: `m̃ = n·log₂(v)`
//! * entropy loss: `n·log₂(ka)`
//! * sketch storage: `n·log₂(ka + 1)` bits
//! * false-close probability: `Pr[E] < ((2t+1)/ka)^n`

use crate::numberline::NumberLine;
use crate::SketchError;

/// Analytic security figures for a sketch configuration.
///
/// ```rust
/// use fe_core::analysis::SketchAnalysis;
/// use fe_core::NumberLine;
///
/// # fn main() -> Result<(), fe_core::SketchError> {
/// // Table II: n = 5000 gives m̃ ≈ 44,829 bits.
/// let line = NumberLine::new(100, 4, 500)?;
/// let analysis = SketchAnalysis::new(line, 100, 5000)?;
/// assert_eq!(analysis.residual_min_entropy_bits().round(), 44829.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchAnalysis {
    line: NumberLine,
    t: u64,
    n: usize,
}

impl SketchAnalysis {
    /// Creates the analysis for dimension `n` and threshold `t`.
    ///
    /// # Errors
    /// [`SketchError::BadParameters`] if `n == 0` or `t >= ka/2`.
    pub fn new(line: NumberLine, t: u64, n: usize) -> Result<SketchAnalysis, SketchError> {
        if n == 0 || t == 0 || t >= line.interval_len() / 2 {
            return Err(SketchError::BadParameters);
        }
        Ok(SketchAnalysis { line, t, n })
    }

    /// The paper's Table II configuration at dimension `n`.
    pub fn paper_defaults(n: usize) -> SketchAnalysis {
        SketchAnalysis::new(
            NumberLine::new(100, 4, 500).expect("paper parameters valid"),
            100,
            n,
        )
        .expect("paper analysis parameters valid")
    }

    /// The number line under analysis.
    pub fn line(&self) -> &NumberLine {
        &self.line
    }

    /// The threshold `t`.
    pub fn threshold(&self) -> u64 {
        self.t
    }

    /// The input dimension `n`.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Input min-entropy `m = n·log₂(kav)` bits (uniform inputs).
    pub fn min_entropy_bits(&self) -> f64 {
        self.n as f64 * (self.line.period() as f64).log2()
    }

    /// Average min-entropy of the input given the sketch:
    /// `m̃ = n·log₂(v)` bits (Theorem 3).
    pub fn residual_min_entropy_bits(&self) -> f64 {
        self.n as f64 * (self.line.v() as f64).log2()
    }

    /// Entropy loss `m − m̃ = n·log₂(ka)` bits.
    pub fn entropy_loss_bits(&self) -> f64 {
        self.n as f64 * (self.line.interval_len() as f64).log2()
    }

    /// Sketch storage `n·log₂(ka + 1)` bits (each movement takes one of
    /// `ka + 1` values in `[-ka/2, ka/2]`).
    pub fn storage_bits(&self) -> f64 {
        self.n as f64 * ((self.line.interval_len() + 1) as f64).log2()
    }

    /// Upper bound on the false-close probability:
    /// `Pr[E] < ((2t+1)/ka)^n` (Theorem 2 discussion).
    ///
    /// Returned as a log₂ to stay representable for large `n`:
    /// `log₂ Pr[E] < n·log₂((2t+1)/ka)`.
    pub fn log2_false_close_bound(&self) -> f64 {
        let ratio = (2 * self.t + 1) as f64 / self.line.interval_len() as f64;
        self.n as f64 * ratio.log2()
    }

    /// The bound as a plain probability (underflows to 0 for large `n` —
    /// use [`Self::log2_false_close_bound`] for reporting).
    pub fn false_close_bound(&self) -> f64 {
        self.log2_false_close_bound().exp2()
    }

    /// The exact false-close probability from the paper:
    /// `Pr[E] = (2t+1)^n (v^n − 1) / (kav)^n`, again as log₂.
    pub fn log2_false_close_exact(&self) -> f64 {
        // log2[(2t+1)^n (v^n - 1) / (kav)^n]
        //   = n·log2(2t+1) + log2(v^n - 1) - n·log2(kav)
        // with log2(v^n - 1) ≈ n·log2(v) for any realistic n·log2(v).
        let n = self.n as f64;
        let log_vn = n * (self.line.v() as f64).log2();
        let log_vn_minus_1 = if log_vn > 50.0 {
            log_vn // v^n - 1 ≈ v^n beyond ~2^50
        } else {
            ((self.line.v() as f64).powf(n) - 1.0).log2()
        };
        n * ((2 * self.t + 1) as f64).log2() + log_vn_minus_1
            - n * (self.line.period() as f64).log2()
    }

    /// Per-coordinate probability that a *random* pair of sketch elements
    /// passes conditions (1)–(4): `(2t+1)/ka`. The expected number of
    /// coordinates examined per non-matching record in the early-abort
    /// scan is `1 / (1 - this)`.
    pub fn coordinate_pass_probability(&self) -> f64 {
        (2 * self.t + 1) as f64 / self.line.interval_len() as f64
    }

    /// Expected coordinates examined per non-matching record in the scan
    /// index (geometric distribution mean).
    pub fn expected_scan_coordinates(&self) -> f64 {
        1.0 / (1.0 - self.coordinate_pass_probability())
    }

    /// Computes the per-coordinate average min-entropy `H̃∞(X|S)` *exactly*
    /// by enumerating the whole line — the quantity Theorem 3 proves to be
    /// `log₂(v)`.
    ///
    /// `H̃∞(X|S) = −log₂ Σ_s max_x Pr[S=s|X=x]·Pr[X=x]`, with `X` uniform
    /// over the `kav` points and `S` the sketch movement (boundary points
    /// split their mass over the two ±ka/2 movements).
    ///
    /// Only feasible for small lines (`kav` up to a few million); used by
    /// the test suite to validate the theorem against the implementation.
    pub fn exhaustive_residual_entropy_per_coordinate(&self) -> f64 {
        let ka = self.line.interval_len() as i64;
        let period = self.line.period() as i64;
        let half = self.line.half_range() as i64;
        let n_points = period as f64;

        // For each possible movement s (index shifted by ka/2), track
        // max_x Pr[S=s|X=x]·Pr[X=x]. Pr[S=s|X=x] is 1 for interior
        // points, ½ for boundary points (coin flip).
        let mut best = vec![0.0f64; (ka + 1) as usize];
        for x in (-half + 1)..=half {
            let r = x.rem_euclid(ka);
            if r == 0 {
                // Boundary: s = ±ka/2, each with probability ½.
                for s in [ka / 2, -ka / 2] {
                    let idx = (s + ka / 2) as usize;
                    let mass = 0.5 / n_points;
                    if mass > best[idx] {
                        best[idx] = mass;
                    }
                }
            } else {
                let s = ka / 2 - r; // deterministic movement
                let idx = (s + ka / 2) as usize;
                let mass = 1.0 / n_points;
                if mass > best[idx] {
                    best[idx] = mass;
                }
            }
        }
        let guess_prob: f64 = best.iter().sum();
        -guess_prob.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(n: usize) -> SketchAnalysis {
        SketchAnalysis::paper_defaults(n)
    }

    #[test]
    fn table2_residual_entropy() {
        // m̃ = 5000·log2(500) ≈ 44,829 bits — Table II's "≈ 44,829 bits".
        let got = paper(5000).residual_min_entropy_bits();
        assert!((got - 44_828.9).abs() < 1.0, "m̃ = {got}");
    }

    #[test]
    fn table2_storage() {
        // n·log2(ka+1) = 5000·log2(401) ≈ 43,238 bits (the paper rounds to
        // "≈ 45,000"; see DESIGN.md deviations).
        let got = paper(5000).storage_bits();
        assert!((got - 43_237.7).abs() < 1.0, "storage = {got}");
    }

    #[test]
    fn entropy_decomposition() {
        let a = paper(1000);
        let m = a.min_entropy_bits();
        let m_tilde = a.residual_min_entropy_bits();
        let loss = a.entropy_loss_bits();
        assert!((m - m_tilde - loss).abs() < 1e-6, "m = m̃ + loss must hold");
        // m = n·log2(200000) ≈ 17.6 bits per coordinate.
        assert!((m / 1000.0 - 17.6096).abs() < 0.001);
    }

    #[test]
    fn false_close_bound_paper_params() {
        let a = paper(1000);
        // (2t+1)/ka = 201/400 ≈ 0.5025 → log2 ≈ -0.9928 per coordinate.
        let per_coord = a.log2_false_close_bound() / 1000.0;
        assert!((per_coord - (201f64 / 400.0).log2()).abs() < 1e-9);
        // Bound is astronomically small for n = 1000.
        assert!(a.log2_false_close_bound() < -900.0);
        assert!(a.false_close_bound() < 1e-250);
        // At n = 31000 (the paper's largest dimension) the plain
        // probability does underflow — hence the log form.
        assert_eq!(paper(31_000).false_close_bound(), 0.0);
    }

    #[test]
    fn exact_false_close_below_bound() {
        for n in [1usize, 2, 5, 50, 5000] {
            let a = paper(n);
            assert!(
                a.log2_false_close_exact() <= a.log2_false_close_bound() + 1e-9,
                "exact must not exceed bound at n={n}"
            );
        }
    }

    #[test]
    fn exact_false_close_small_n_matches_formula() {
        // n = 1: Pr[E] = (2t+1)(v-1)/(kav) directly computable.
        let a = SketchAnalysis::new(NumberLine::new(10, 4, 8).unwrap(), 5, 1).unwrap();
        let expect = (11.0 * 7.0) / 320.0;
        let got = a.log2_false_close_exact().exp2();
        assert!((got - expect).abs() < 1e-9, "got {got} want {expect}");
    }

    #[test]
    fn scan_cost_expectation() {
        let a = paper(5000);
        // Pass probability 201/400 = 0.5025 → expected ~2.01 coordinates.
        assert!((a.coordinate_pass_probability() - 0.5025).abs() < 1e-9);
        assert!((a.expected_scan_coordinates() - 2.0100).abs() < 0.001);
    }

    #[test]
    fn validation() {
        let line = NumberLine::new(100, 4, 500).unwrap();
        assert!(SketchAnalysis::new(line, 100, 0).is_err());
        assert!(SketchAnalysis::new(line, 0, 10).is_err());
        assert!(SketchAnalysis::new(line, 200, 10).is_err());
    }

    #[test]
    fn theorem3_exhaustive_small_lines() {
        // Enumerate H̃∞(X|S) exactly and compare with the theorem's
        // log₂(v) across several small configurations.
        for (a, k, v) in [(3u64, 2u64, 5u64), (10, 4, 8), (7, 6, 11), (2, 2, 64)] {
            let line = NumberLine::new(a, k, v).unwrap();
            let analysis = SketchAnalysis::new(line, 1, 1).unwrap();
            let exact = analysis.exhaustive_residual_entropy_per_coordinate();
            let theorem = (v as f64).log2();
            assert!(
                (exact - theorem).abs() < 1e-9,
                "a={a} k={k} v={v}: exhaustive {exact} vs theorem {theorem}"
            );
        }
    }

    #[test]
    fn theorem3_exhaustive_paper_line() {
        // The paper's own line (200,000 points) is still enumerable.
        let analysis = SketchAnalysis::paper_defaults(1);
        let exact = analysis.exhaustive_residual_entropy_per_coordinate();
        assert!((exact - 500f64.log2()).abs() < 1e-9, "got {exact}");
    }
}
