//! # fuzzy-id
//!
//! A Rust reproduction of *Fuzzy Extractors for Biometric Identification*
//! (Li, Nepal, Guo, Mu, Susilo — ICDCS 2017): a succinct fuzzy extractor
//! built on a Chebyshev-distance secure sketch over a discretized number
//! line, plus the first fuzzy-extractor-based biometric *identification*
//! protocol with constant heavy-crypto cost per identification.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`core`] (`fe-core`) — number line, secure sketch, robust sketch,
//!   fuzzy extractor, sketch matching/index, security analysis, baselines.
//! * [`protocol`] (`fe-protocol`) — enrollment, verification and
//!   identification protocols (proposed + normal approach); the
//!   authentication server runs the epoch index engine and scales
//!   out via the sharded, batch-capable `concurrent::SharedServer`.
//! * [`crypto`] (`fe-crypto`) — SHA-256, HMAC, HKDF, HMAC-DRBG, DSA, the
//!   HMAC-SHA-256 strong extractor.
//! * [`net`] (`fe-net`) — the networked front door: framed TCP server,
//!   blocking client, handshake and envelope codecs (see `PROTOCOL.md`
//!   for the normative wire spec).
//! * [`biometric`] (`fe-biometric`) — synthetic biometric workloads.
//! * [`metrics`] (`fe-metrics`) — metric spaces (Chebyshev, Hamming, …).
//! * [`ecc`] (`fe-ecc`) — BCH codes and Berlekamp–Welch decoding for the
//!   baselines.
//! * [`bigint`] (`fe-bigint`) — arbitrary-precision arithmetic.
//!
//! ## Quickstart
//!
//! ```rust
//! use fuzzy_id::core::{ChebyshevSketch, FuzzyExtractor, NumberLine, SecureSketch};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Paper parameters: a = 100, k = 4, v = 500, t = 100.
//! let line = NumberLine::new(100, 4, 500)?;
//! let sketch = ChebyshevSketch::new(line, 100)?;
//! let fe = FuzzyExtractor::with_defaults(sketch, 32);
//!
//! let bio = fe.sketcher().line().random_vector(16, &mut rng);
//! let (key, helper) = fe.generate(&bio, &mut rng)?;
//!
//! // A noisy reading within Chebyshev distance t reproduces the key.
//! let mut noisy = bio.clone();
//! noisy.iter_mut().for_each(|x| *x += 37);
//! let key2 = fe.reproduce(&noisy, &helper)?;
//! assert_eq!(key, key2);
//! # Ok(())
//! # }
//! ```

pub use fe_bigint as bigint;
pub use fe_biometric as biometric;
pub use fe_core as core;
pub use fe_crypto as crypto;
pub use fe_ecc as ecc;
pub use fe_metrics as metrics;
pub use fe_net as net;
pub use fe_protocol as protocol;

/// Compiles and runs every `rust` block of the README under
/// `cargo test --doc`, so its examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
