//! Synthetic biometric workloads for the `fuzzy-id` experiments.
//!
//! The paper's evaluation (Sec. VII) deliberately uses *simulated* data
//! "independent from any type of biometric": templates are `n`-dimensional
//! integer vectors with elements in `[-100000, 100000]`, and a genuine
//! presentation is the enrolled template plus bounded noise (within the
//! Chebyshev threshold `t`). This crate is that workload generator, plus:
//!
//! * a truncated-Gaussian noise model, whose readings can leave the
//!   threshold, for the error-rate experiments;
//! * an iris-code-style bit-string model for the Hamming-metric baselines;
//! * an empirical FAR/FRR measurement harness.
//!
//! ```rust
//! use fe_biometric::{NoiseModel, PopulationGenerator, UniformNoise};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let gen = PopulationGenerator::paper_defaults(5000);
//! let template = gen.random_template(&mut rng);
//! let reading = UniformNoise::new(100).perturb(template.features(), &mut rng);
//! let max_dev = template
//!     .features()
//!     .iter()
//!     .zip(&reading)
//!     .map(|(a, b)| a.abs_diff(*b))
//!     .max()
//!     .unwrap();
//! assert!(max_dev <= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod generator;
mod iris;
mod noise;
mod template;

pub use eval::{measure_error_rates, ErrorRates};
pub use generator::PopulationGenerator;
pub use iris::IrisCodeModel;
pub use noise::{GaussianNoise, NoiseModel, UniformNoise};
pub use template::Template;
