//! Arbitrary-precision integer arithmetic for the `fuzzy-id` workspace.
//!
//! This crate is a self-contained bignum substrate built for the DSA
//! signatures used by the biometric identification protocol of *Fuzzy
//! Extractors for Biometric Identification* (ICDCS 2017). It provides:
//!
//! * [`Natural`] — an unsigned arbitrary-precision integer on 64-bit limbs
//!   with schoolbook + Karatsuba multiplication, Knuth Algorithm D division,
//!   and bit-level operations.
//! * [`Integer`] — a signed wrapper used by the extended Euclidean algorithm.
//! * Modular arithmetic: [`Natural::mod_pow`], [`Natural::mod_inv`],
//!   [`Natural::mod_mul`], with a Montgomery (CIOS) fast path for odd moduli
//!   (see [`montgomery::Montgomery`], whose per-thread operation counts
//!   [`montgomery::counts`] reads).
//! * [`FixedBase`] — a Lim–Lee comb for powers of one fixed base (a DSA
//!   generator), and the two-base product a signature verification checks.
//! * Primality testing (Miller–Rabin with trial division) and random prime
//!   generation driven by any [`rand::RngCore`].
//!
//! # Example
//!
//! ```rust
//! use fe_bigint::Natural;
//!
//! # fn main() -> Result<(), fe_bigint::ParseNaturalError> {
//! let p = Natural::from_hex("ffffffffffffffc5")?; // a 64-bit prime
//! let g = Natural::from(3u64);
//! let x = Natural::from(123_456_789u64);
//! let y = g.mod_pow(&x, &p);
//! assert!(y < p);
//! # Ok(())
//! # }
//! ```
//!
//! The crate is `#![forbid(unsafe_code)]`; performance comes from limb-level
//! `u128` arithmetic, not intrinsics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod bits;
mod convert;
mod div;
mod error;
mod fixed_base;
mod integer;
mod modular;
pub mod montgomery;
mod natural;
mod prime;
mod rand_util;

pub use error::ParseNaturalError;
pub use fixed_base::FixedBase;
pub use integer::{Integer, Sign};
pub use natural::Natural;
pub use prime::gen_prime;
pub use rand_util::{random_below, random_bits, random_natural};

/// Extended GCD result: `g = gcd(a, b)` together with Bézout coefficients
/// `x`, `y` such that `a*x + b*y = g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedGcd {
    /// Greatest common divisor of the two inputs.
    pub gcd: Natural,
    /// Coefficient of the first input.
    pub x: Integer,
    /// Coefficient of the second input.
    pub y: Integer,
}
