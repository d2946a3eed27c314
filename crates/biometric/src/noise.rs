//! Reading-noise models: how a fresh biometric presentation differs from
//! the enrolled template.

use rand::Rng;
use rand::RngCore;

/// A model of per-reading sensor/extraction noise.
pub trait NoiseModel {
    /// Produces a noisy reading of `template`.
    fn perturb<R: RngCore + ?Sized>(&self, template: &[i64], rng: &mut R) -> Vec<i64>;
}

/// Bounded uniform noise: each coordinate moves by an independent uniform
/// offset in `[-max_dev, max_dev]`.
///
/// With `max_dev <= t` this guarantees the reading stays within the
/// paper's Chebyshev threshold, so genuine users always pass — the model
/// used for the performance experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformNoise {
    max_dev: u64,
}

impl UniformNoise {
    /// Creates the model with the given maximum per-coordinate deviation.
    pub fn new(max_dev: u64) -> Self {
        UniformNoise { max_dev }
    }

    /// The maximum deviation.
    pub fn max_dev(&self) -> u64 {
        self.max_dev
    }
}

impl NoiseModel for UniformNoise {
    fn perturb<R: RngCore + ?Sized>(&self, template: &[i64], rng: &mut R) -> Vec<i64> {
        let d = self.max_dev as i64;
        template
            .iter()
            .map(|&x| x + rng.gen_range(-d..=d))
            .collect()
    }
}

/// Truncated Gaussian noise: offsets are normal with standard deviation
/// `sigma`, clipped to `[-clip, clip]`.
///
/// Unlike [`UniformNoise`], a genuine reading can exceed the matcher's
/// threshold when `clip > t` — this is the model behind the FRR
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNoise {
    sigma: f64,
    clip: u64,
}

impl GaussianNoise {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, clip: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and >= 0"
        );
        GaussianNoise { sigma, clip }
    }

    /// Standard normal sample via Box–Muller.
    fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

impl NoiseModel for GaussianNoise {
    fn perturb<R: RngCore + ?Sized>(&self, template: &[i64], rng: &mut R) -> Vec<i64> {
        let clip = self.clip as f64;
        template
            .iter()
            .map(|&x| {
                let offset = (Self::standard_normal(rng) * self.sigma).clamp(-clip, clip);
                x + offset.round() as i64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    fn max_abs_dev(a: &[i64], b: &[i64]) -> u64 {
        a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).max().unwrap()
    }

    #[test]
    fn uniform_noise_bounded() {
        let mut r = rng();
        let t: Vec<i64> = (0..1000).map(|i| i * 7 - 3500).collect();
        for dev in [0u64, 1, 50, 100] {
            let reading = UniformNoise::new(dev).perturb(&t, &mut r);
            assert!(max_abs_dev(&t, &reading) <= dev, "dev={dev}");
        }
    }

    #[test]
    fn uniform_noise_actually_moves_points() {
        let mut r = rng();
        let t = vec![0i64; 1000];
        let reading = UniformNoise::new(100).perturb(&t, &mut r);
        let moved = reading.iter().filter(|&&v| v != 0).count();
        assert!(moved > 900, "uniform noise barely moved anything: {moved}");
    }

    #[test]
    fn gaussian_noise_respects_clip() {
        let mut r = rng();
        let t = vec![0i64; 5000];
        let reading = GaussianNoise::new(500.0, 100).perturb(&t, &mut r);
        assert!(max_abs_dev(&t, &reading) <= 100);
    }

    #[test]
    fn gaussian_sigma_zero_is_identity() {
        let mut r = rng();
        let t = vec![5i64, -7, 9];
        assert_eq!(GaussianNoise::new(0.0, 10).perturb(&t, &mut r), t);
    }

    #[test]
    fn gaussian_spread_scales_with_sigma() {
        let mut r = rng();
        let t = vec![0i64; 2000];
        let small: i64 = GaussianNoise::new(5.0, 1000)
            .perturb(&t, &mut r)
            .iter()
            .map(|v| v.abs())
            .sum();
        let large: i64 = GaussianNoise::new(50.0, 1000)
            .perturb(&t, &mut r)
            .iter()
            .map(|v| v.abs())
            .sum();
        assert!(
            large > small * 5,
            "sigma scaling broken: {small} vs {large}"
        );
    }
}
