//! Quantization of continuous features onto the discrete number line.

/// Uniform scalar quantizer: maps continuous features in `[min, max]` onto
/// `levels` evenly spaced integer grid points `0..levels`, and back to the
/// cell centre.
///
/// Feature extraction pipelines produce real-valued vectors; the paper's
/// number-line sketch consumes integers. This is the bridging encoder, and
/// the quantization step size determines how real-world measurement noise
/// translates into Chebyshev distance on the line.
///
/// ```rust
/// use fe_biometric::UniformQuantizer;
///
/// let q = UniformQuantizer::new(0.0, 1.0, 100);
/// let level = q.quantize(0.503);
/// assert_eq!(level, 50);
/// assert!((q.dequantize(level) - 0.505).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformQuantizer {
    min: f64,
    max: f64,
    levels: u32,
}

impl UniformQuantizer {
    /// Creates a quantizer over `[min, max]` with `levels` cells.
    ///
    /// # Panics
    /// Panics if `min >= max` or `levels == 0`.
    pub fn new(min: f64, max: f64, levels: u32) -> Self {
        assert!(min < max, "empty quantization range");
        assert!(levels > 0, "need at least one level");
        UniformQuantizer { min, max, levels }
    }

    /// Cell width.
    pub fn step(&self) -> f64 {
        (self.max - self.min) / self.levels as f64
    }

    /// Maps a feature value to its cell index in `[0, levels)`.
    /// Values outside the range are clamped.
    pub fn quantize(&self, value: f64) -> i64 {
        let clamped = value.clamp(self.min, self.max);
        let idx = ((clamped - self.min) / self.step()).floor() as i64;
        idx.min(self.levels as i64 - 1)
    }

    /// Returns the centre of cell `level`.
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    pub fn dequantize(&self, level: i64) -> f64 {
        assert!(
            (0..self.levels as i64).contains(&level),
            "level {level} out of range"
        );
        self.min + (level as f64 + 0.5) * self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_boundaries() {
        let q = UniformQuantizer::new(0.0, 10.0, 10);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(0.999), 0);
        assert_eq!(q.quantize(1.0), 1);
        assert_eq!(q.quantize(9.999), 9);
        assert_eq!(q.quantize(10.0), 9); // top edge clamps into last cell
    }

    #[test]
    fn out_of_range_clamps() {
        let q = UniformQuantizer::new(-1.0, 1.0, 4);
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(5.0), 3);
    }

    #[test]
    fn dequantize_is_cell_center() {
        let q = UniformQuantizer::new(0.0, 1.0, 2);
        assert!((q.dequantize(0) - 0.25).abs() < 1e-12);
        assert!((q.dequantize(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let q = UniformQuantizer::new(-3.0, 3.0, 600);
        for i in 0..100 {
            let v = -3.0 + 6.0 * (i as f64) / 99.0;
            let rt = q.dequantize(q.quantize(v));
            assert!((rt - v).abs() <= q.step() / 2.0 + 1e-12, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "empty quantization range")]
    fn bad_range_panics() {
        UniformQuantizer::new(1.0, 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dequantize_out_of_range_panics() {
        UniformQuantizer::new(0.0, 1.0, 4).dequantize(4);
    }
}
