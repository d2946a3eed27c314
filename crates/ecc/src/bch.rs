//! Binary BCH codes: construction from cyclotomic cosets, systematic
//! encoding, and Berlekamp–Massey + Chien-search decoding.

use crate::binpoly::BinPoly;
use crate::gf2m::Gf2m;
use crate::poly::Poly;
use crate::CodeError;
use fe_metrics::BitVec;
use std::collections::HashSet;

/// A binary primitive BCH code of length `n = 2^m - 1` with designed
/// error-correction capability `t`.
///
/// ```rust
/// use fe_ecc::Bch;
/// use fe_metrics::BitVec;
///
/// # fn main() -> Result<(), fe_ecc::CodeError> {
/// let code = Bch::new(5, 3)?; // BCH(31, k, t=3)
/// assert_eq!(code.n(), 31);
/// let msg = BitVec::zeros(code.k());
/// let word = code.encode(&msg)?;
/// assert_eq!(word.len(), 31);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bch {
    field: Gf2m,
    n: usize,
    k: usize,
    t: usize,
    generator: BinPoly,
}

/// Successful BCH decode result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BchDecode {
    /// The corrected codeword.
    pub codeword: BitVec,
    /// The systematic message bits extracted from the codeword.
    pub message: BitVec,
    /// How many bit errors were corrected.
    pub corrected_errors: usize,
}

impl Bch {
    /// Constructs the BCH code over GF(2^m) correcting `t` errors.
    ///
    /// # Errors
    /// Returns [`CodeError::BadParameters`] if `m ∉ 2..=16`, `t == 0`, or
    /// the generator consumes the whole length (no message bits left).
    pub fn new(m: u32, t: usize) -> Result<Bch, CodeError> {
        if t == 0 {
            return Err(CodeError::BadParameters);
        }
        let field = Gf2m::new(m)?;
        let n = field.order() as usize;
        if 2 * t >= n {
            return Err(CodeError::BadParameters);
        }

        // Generator = lcm of minimal polynomials of α^1 .. α^{2t}.
        let mut covered: HashSet<usize> = HashSet::new();
        let mut generator = BinPoly::one();
        for i in 1..=2 * t {
            if covered.contains(&i) {
                continue;
            }
            // Cyclotomic coset {i, 2i, 4i, ...} mod n.
            let mut coset = Vec::new();
            let mut j = i;
            loop {
                coset.push(j);
                covered.insert(j);
                j = (j * 2) % n;
                if j == i {
                    break;
                }
            }
            // Minimal polynomial Π_{j ∈ coset} (x - α^j), computed in
            // GF(2^m); its coefficients land in GF(2).
            let mut mp = Poly::one();
            for &j in &coset {
                let factor = Poly::from_coeffs(vec![field.alpha_pow(j as i64), 1]);
                mp = mp.mul(&factor, &field);
            }
            let bits: Vec<bool> = mp
                .coeffs()
                .iter()
                .map(|&c| {
                    debug_assert!(c <= 1, "minimal polynomial has non-binary coefficient");
                    c == 1
                })
                .collect();
            generator = generator.mul(&BinPoly::from_coeff_bits(&bits));
        }

        let deg = generator.degree().expect("generator is non-zero");
        if deg >= n {
            return Err(CodeError::BadParameters);
        }
        Ok(Bch {
            field,
            n,
            k: n - deg,
            t,
            generator,
        })
    }

    /// Codeword length in bits.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length in bits.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Guaranteed error-correction radius (bit flips).
    pub fn t(&self) -> usize {
        self.t
    }

    /// Encodes a `k()`-bit message into an `n()`-bit systematic codeword.
    ///
    /// # Errors
    /// Returns [`CodeError::WrongLength`] if the message size differs
    /// from `k()`.
    pub fn encode(&self, message: &BitVec) -> Result<BitVec, CodeError> {
        if message.len() != self.k {
            return Err(CodeError::WrongLength {
                expected: self.k,
                got: message.len(),
            });
        }
        let parity_len = self.n - self.k;
        let msg_poly = BinPoly::from_bitvec(message).shl(parity_len);
        let parity = msg_poly.rem(&self.generator);
        let codeword = msg_poly.add(&parity);
        Ok(codeword.to_bitvec(self.n))
    }

    /// The generator polynomial.
    pub fn generator(&self) -> &BinPoly {
        &self.generator
    }

    /// Syndromes `S_j = r(α^j)` for `j = 1..=2t`.
    fn syndromes(&self, word: &BitVec) -> Vec<u16> {
        let mut syn = vec![0u16; 2 * self.t];
        // Collect set-bit positions once; each syndrome is a sum of α^{ij}.
        let positions: Vec<usize> = (0..self.n).filter(|&i| word.get(i)).collect();
        for (j, s) in syn.iter_mut().enumerate() {
            let jj = (j + 1) as i64;
            let mut acc = 0u16;
            for &i in &positions {
                acc ^= self.field.alpha_pow(i as i64 * jj);
            }
            *s = acc;
        }
        syn
    }

    /// Full decode returning the corrected codeword, message and error
    /// count.
    ///
    /// # Errors
    /// [`CodeError::WrongLength`] if `word.len() != n`;
    /// [`CodeError::TooManyErrors`] if more than `t` errors corrupted the
    /// word.
    pub fn decode(&self, word: &BitVec) -> Result<BchDecode, CodeError> {
        if word.len() != self.n {
            return Err(CodeError::WrongLength {
                expected: self.n,
                got: word.len(),
            });
        }
        let syn = self.syndromes(word);
        if syn.iter().all(|&s| s == 0) {
            return Ok(BchDecode {
                message: self.extract_message(word),
                codeword: word.clone(),
                corrected_errors: 0,
            });
        }

        let sigma = berlekamp_massey(&self.field, &syn);
        let num_errors = sigma.degree().unwrap_or(0);
        if num_errors == 0 || num_errors > self.t {
            return Err(CodeError::TooManyErrors);
        }

        // Chien search: position i is in error iff σ(α^{-i}) = 0.
        let mut corrected = word.clone();
        let mut found = 0usize;
        for i in 0..self.n {
            if sigma.eval(self.field.alpha_pow(-(i as i64)), &self.field) == 0 {
                corrected.flip(i);
                found += 1;
            }
        }
        if found != num_errors {
            return Err(CodeError::TooManyErrors);
        }
        // Safety net: the corrected word must be a codeword.
        if self.syndromes(&corrected).iter().any(|&s| s != 0) {
            return Err(CodeError::TooManyErrors);
        }
        Ok(BchDecode {
            message: self.extract_message(&corrected),
            codeword: corrected,
            corrected_errors: found,
        })
    }

    fn extract_message(&self, codeword: &BitVec) -> BitVec {
        // Systematic layout: parity bits in positions [0, n-k),
        // message bits in [n-k, n).
        let parity = self.n - self.k;
        BitVec::from_fn(self.k, |i| codeword.get(parity + i))
    }
}

/// Berlekamp–Massey: finds the minimal LFSR (error-locator polynomial σ,
/// with σ(0) = 1) generating the syndrome sequence.
fn berlekamp_massey(f: &Gf2m, syndromes: &[u16]) -> Poly {
    let mut c = Poly::one(); // current connection polynomial
    let mut b = Poly::one(); // previous connection polynomial
    let mut l = 0usize; // current LFSR length
    let mut m = 1usize; // steps since last length change
    let mut last_d = 1u16; // discrepancy at last length change

    for n in 0..syndromes.len() {
        let mut d = syndromes[n];
        for i in 1..=l {
            d ^= f.mul(c.coeff(i), syndromes[n - i]);
        }
        if d == 0 {
            m += 1;
        } else {
            let coef = f.div(d, last_d).expect("last_d is non-zero");
            let adjustment = b.scale(coef, f).mul(&Poly::monomial(1, m), f);
            if 2 * l <= n {
                let prev_c = c.clone();
                c = c.add(&adjustment, f);
                l = n + 1 - l;
                b = prev_c;
                last_d = d;
                m = 1;
            } else {
                c = c.add(&adjustment, f);
                m += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bch_15_known_dimensions() {
        // Classic table: BCH(15, 11, t=1), BCH(15, 7, t=2), BCH(15, 5, t=3).
        assert_eq!(Bch::new(4, 1).unwrap().k(), 11);
        assert_eq!(Bch::new(4, 2).unwrap().k(), 7);
        assert_eq!(Bch::new(4, 3).unwrap().k(), 5);
    }

    #[test]
    fn bch_31_known_dimensions() {
        // BCH(31, 26, 1), (31, 21, 2), (31, 16, 3), (31, 11, 5).
        assert_eq!(Bch::new(5, 1).unwrap().k(), 26);
        assert_eq!(Bch::new(5, 2).unwrap().k(), 21);
        assert_eq!(Bch::new(5, 3).unwrap().k(), 16);
        assert_eq!(Bch::new(5, 5).unwrap().k(), 11);
    }

    #[test]
    fn hamming_15_11_generator() {
        // t=1 BCH over GF(16) is the Hamming(15,11) code, generator x^4+x+1.
        let code = Bch::new(4, 1).unwrap();
        let g = code.generator();
        assert_eq!(g.degree(), Some(4));
        assert!(g.coeff(0) && g.coeff(1) && !g.coeff(2) && !g.coeff(3) && g.coeff(4));
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(matches!(Bch::new(4, 0), Err(CodeError::BadParameters)));
        assert!(matches!(Bch::new(1, 1), Err(CodeError::BadParameters)));
        assert!(matches!(Bch::new(4, 8), Err(CodeError::BadParameters))); // 2t >= n
    }

    #[test]
    fn encode_wrong_length() {
        let code = Bch::new(4, 2).unwrap();
        let r = code.encode(&BitVec::zeros(3));
        assert_eq!(
            r,
            Err(CodeError::WrongLength {
                expected: 7,
                got: 3
            })
        );
    }

    #[test]
    fn roundtrip_no_errors() {
        let code = Bch::new(6, 4).unwrap();
        let msg = BitVec::from_fn(code.k(), |i| i % 3 == 1);
        let word = code.encode(&msg).unwrap();
        let dec = code.decode(&word).unwrap();
        assert_eq!(dec.message, msg);
        assert_eq!(dec.corrected_errors, 0);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let code = Bch::new(6, 4).unwrap(); // BCH(63, k, 4)
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let msg = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
            let word = code.encode(&msg).unwrap();
            let num_err = rng.gen_range(1..=code.t());
            let mut corrupted = word.clone();
            let mut positions = HashSet::new();
            while positions.len() < num_err {
                positions.insert(rng.gen_range(0..code.n()));
            }
            for &p in &positions {
                corrupted.flip(p);
            }
            let dec = code.decode(&corrupted).unwrap();
            assert_eq!(dec.message, msg, "trial {trial}");
            assert_eq!(dec.codeword, word);
            assert_eq!(dec.corrected_errors, num_err);
        }
    }

    #[test]
    fn detects_too_many_errors_usually() {
        // With >t errors, decoding either fails or returns a *different*
        // codeword — it must never return the original message claiming
        // success with the same codeword.
        let code = Bch::new(5, 2).unwrap();
        let msg = BitVec::from_fn(code.k(), |i| i % 2 == 0);
        let word = code.encode(&msg).unwrap();
        let mut corrupted = word.clone();
        for p in [0usize, 5, 9, 14, 20, 27] {
            corrupted.flip(p);
        }
        match code.decode(&corrupted) {
            Err(CodeError::TooManyErrors) => {}
            Ok(dec) => assert_ne!(dec.codeword, word, "6 errors silently ignored"),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn all_codewords_have_zero_syndrome() {
        let code = Bch::new(4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let msg = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
            let word = code.encode(&msg).unwrap();
            assert!(code.syndromes(&word).iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn systematic_property() {
        // Message bits appear verbatim in the high positions.
        let code = Bch::new(4, 2).unwrap();
        let msg = BitVec::from_fn(code.k(), |i| i == 0 || i == 4);
        let word = code.encode(&msg).unwrap();
        let parity = code.n() - code.k();
        for i in 0..code.k() {
            assert_eq!(word.get(parity + i), msg.get(i));
        }
    }

    #[test]
    fn large_code_roundtrip() {
        // BCH(1023, k, 12) — iris-scale code used by the code-offset bench.
        let code = Bch::new(10, 12).unwrap();
        assert!(code.k() > 900);
        let mut rng = StdRng::seed_from_u64(7);
        let msg = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
        let word = code.encode(&msg).unwrap();
        let mut corrupted = word.clone();
        let mut positions = HashSet::new();
        while positions.len() < 12 {
            positions.insert(rng.gen_range(0..code.n()));
        }
        for &p in &positions {
            corrupted.flip(p);
        }
        let dec = code.decode(&corrupted).unwrap();
        assert_eq!(dec.message, msg);
        assert_eq!(dec.corrected_errors, 12);
    }

    #[test]
    fn berlekamp_massey_finds_known_lfsr() {
        // Syndromes of a single error at position p with magnitude e:
        // S_j = e·α^{pj} → σ(x) = 1 - α^p x (degree 1).
        let f = Gf2m::new(4).unwrap();
        let p = 6i64;
        let e = 9u16;
        let syn: Vec<u16> = (1..=4).map(|j| f.mul(e, f.alpha_pow(p * j))).collect();
        let sigma = berlekamp_massey(&f, &syn);
        assert_eq!(sigma.degree(), Some(1));
        // Root of sigma should be α^{-p}.
        assert_eq!(sigma.eval(f.alpha_pow(-p), &f), 0);
    }
}
