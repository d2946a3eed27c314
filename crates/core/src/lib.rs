//! The succinct fuzzy extractor of *Fuzzy Extractors for Biometric
//! Identification* (Li, Nepal, Guo, Mu, Susilo — ICDCS 2017).
//!
//! # What this crate implements
//!
//! * [`NumberLine`] — the discretized ring of Definition 4, parameterized
//!   by the unit `a`, units-per-interval `k` and interval count `v`.
//! * [`ChebyshevSketch`] — the maximum-norm secure sketch of Sec. IV-B
//!   (`SS`/`Rec` with the boundary-point coin flips), correct for readings
//!   within Chebyshev distance `t < ka/2` (Theorem 1).
//! * [`RobustSketch`] — the Boyen et al. hash-binding wrapper of
//!   Sec. IV-C (a SHA-256 tag), which detects helper-data tampering.
//! * [`FuzzyExtractor`] — the generic `Gen`/`Rep` construction (Sec. II /
//!   IV-C) in the paper's one instantiation: the robust Chebyshev sketch
//!   and the HMAC-SHA-256 strong extractor.
//! * [`conditions`] — the per-coordinate match conditions (1)–(4) of the
//!   identification protocol (Theorem 2), equivalent to a cyclic Chebyshev
//!   test on the sketch ring.
//! * [`index`] — the server-side sketch lookup: the paper's early-abort
//!   scan over columnar storage, as the epoch-published [`EpochIndex`]
//!   every server builds (reads that never wait for a write, batch
//!   lookups, one sweep driver behind every lookup) and the one-arena
//!   [`ScanIndex`] reference the oracle suites compare it against (see
//!   `DESIGN.md`).
//! * [`codec`] — the canonical, versioned binary codec for durable
//!   sketch/helper storage: magic + format version + system-parameter
//!   [`codec::Fingerprint`], length-prefixed fields, CRC-framed journal
//!   entries (the on-disk contract behind `fe-protocol`'s enrollment
//!   store).
//! * [`analysis`] — Theorem 3 entropy accounting (min-entropy, residual
//!   entropy `m̃ = n·log₂v`, loss `n·log₂ka`, storage `n·log₂(ka+1)`) and
//!   the false-close probability bound.
//! * [`baselines`] — the classical constructions used as comparison
//!   points: the code-offset (BCH) sketch and the fuzzy vault.
//!
//! # Quickstart
//!
//! ```rust
//! use fe_core::{ChebyshevSketch, FuzzyExtractor, NumberLine, SecureSketch};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let line = NumberLine::new(100, 4, 500)?;        // Table II parameters
//! let sketch = ChebyshevSketch::new(line, 100)?;   // threshold t = 100
//! let fe = FuzzyExtractor::with_defaults(sketch, 32);
//!
//! let bio = fe.sketcher().line().random_vector(64, &mut rng);
//! let (key, helper) = fe.generate(&bio, &mut rng)?;
//!
//! let noisy: Vec<i64> = bio.iter().map(|x| x + 99).collect();
//! assert_eq!(fe.reproduce(&noisy, &helper)?, key);
//!
//! let far: Vec<i64> = bio.iter().map(|x| x + 101).collect();
//! assert!(fe.reproduce(&far, &helper).is_err());
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: three blocks are sanctioned exceptions,
// each under its own narrow `allow(unsafe_code)` with its safety
// argument beside it — the two calls into the `#[target_feature]`
// bodies of `SS` and the packed-row encode in `index::store::kernels`,
// made after runtime feature detection, and the zeroed reservation of
// the column of atomic words in `index::store::shared`. Everything
// else in the crate, those bodies and that column included, is safe
// code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
mod chebyshev;
pub mod codec;
pub mod conditions;
mod encode;
mod error;
pub mod fusion;
mod fuzzy;
pub mod index;
mod key;
mod numberline;
mod robust;
mod sketch;

pub use chebyshev::ChebyshevSketch;
pub use encode::encode_i64_vector;
pub use error::SketchError;
pub use fuzzy::{FuzzyExtractor, HelperData};
pub use index::{
    sweep_counts, CellWidth, EpochIndex, EpochRead, EpochReader, FilterConfig, IndexReader,
    PlaneDepth, RecordId, ScanIndex, Segment, SketchArena, SketchIndex, SweepCounts,
};
pub use key::ExtractedKey;
pub use numberline::{ring_divides, NumberLine};
pub use robust::{RobustData, RobustSketch};
pub use sketch::SecureSketch;
