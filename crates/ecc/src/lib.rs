//! Error-correcting codes for the classical fuzzy-extractor baselines.
//!
//! The paper's related work (Sec. VIII) builds secure sketches from error
//! correction: the **code-offset construction / fuzzy commitment**
//! (Juels–Wattenberg) needs a binary code with a syndrome-style decoder —
//! we provide **BCH codes** — and the **fuzzy vault** (Juels–Sudan) needs
//! polynomial reconstruction over a finite field from points of arbitrary
//! support — we provide **Berlekamp–Welch** decoding.
//!
//! ```rust
//! use fe_ecc::Bch;
//! use fe_metrics::BitVec;
//!
//! # fn main() -> Result<(), fe_ecc::CodeError> {
//! // BCH(15, 7) corrects up to 2 bit errors.
//! let code = Bch::new(4, 2)?;
//! let msg = BitVec::from_fn(code.k(), |i| i % 2 == 0);
//! let mut word = code.encode(&msg)?;
//! word.flip(1);
//! word.flip(8);
//! let decoded = code.decode(&word)?;
//! assert_eq!(decoded.message, msg);
//! assert_eq!(decoded.corrected_errors, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bch;
mod berlekamp_welch;
mod binpoly;
mod error;
mod gf2m;
mod linalg;
mod poly;

pub use bch::{Bch, BchDecode};
pub use berlekamp_welch::berlekamp_welch;
pub use binpoly::BinPoly;
pub use error::CodeError;
pub use gf2m::Gf2m;
pub use linalg::solve_linear_system;
pub use poly::Poly;
