//! Primality testing and prime generation.

use crate::rand_util::{random_below, random_bits};
use crate::Natural;
use rand::RngCore;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

impl Natural {
    /// Miller–Rabin probabilistic primality test with `rounds` random bases
    /// (error probability at most `4^-rounds`), preceded by trial division
    /// by small primes.
    ///
    /// ```rust
    /// use fe_bigint::Natural;
    /// use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let p = Natural::from(1_000_000_007u64);
    /// assert!(p.is_probable_prime(32, &mut rng));
    /// assert!(!Natural::from(1_000_000_008u64).is_probable_prime(32, &mut rng));
    /// ```
    pub fn is_probable_prime<R: RngCore + ?Sized>(&self, rounds: usize, rng: &mut R) -> bool {
        if self < &2u64 {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let pn = Natural::from(p);
            if self == &pn {
                return true;
            }
            if self.rem_nat(&pn).is_zero() {
                return false;
            }
        }
        // self is odd and > 281 here. Write self - 1 = d * 2^s.
        let minus_one = self.checked_sub(&Natural::one()).expect("self >= 2");
        let s = minus_one.trailing_zeros().expect("even number has zeros");
        let d = minus_one.shr_bits(s);

        let two = Natural::two();
        let span = self.checked_sub(&Natural::from(3u64)).expect("self > 3");
        'witness: for _ in 0..rounds {
            // a uniform in [2, self - 2]
            let a = &random_below(&span.add_u64(1), rng) + &two;
            let mut x = a.mod_pow(&d, self);
            if x.is_one() || x == minus_one {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mod_mul(&x, self);
                if x == minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

/// Generates a random probable prime with exactly `bits` bits
/// (top and bottom bits forced to 1).
///
/// # Panics
/// Panics if `bits < 2`.
pub fn gen_prime<R: RngCore + ?Sized>(bits: usize, rounds: usize, rng: &mut R) -> Natural {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    loop {
        let mut cand = random_bits(bits, rng);
        cand = cand.with_bit(bits - 1, true).with_bit(0, true);
        if cand.is_probable_prime(rounds, rng) {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0feb_101d)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 257, 65537] {
            assert!(Natural::from(p).is_probable_prime(16, &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 91, 561, 1105, 65535] {
            assert!(!Natural::from(c).is_probable_prime(16, &mut r), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller-Rabin.
        let mut r = rng();
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!Natural::from(c).is_probable_prime(16, &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_primes() {
        let mut r = rng();
        // 2^89 - 1 and 2^127 - 1 are Mersenne primes.
        for e in [89usize, 127] {
            let p = Natural::power_of_two(e)
                .checked_sub(&Natural::one())
                .unwrap();
            assert!(p.is_probable_prime(16, &mut r), "2^{e}-1");
        }
        // 2^67 - 1 = 193707721 × 761838257287 is composite.
        let c = Natural::power_of_two(67)
            .checked_sub(&Natural::one())
            .unwrap();
        assert!(!c.is_probable_prime(16, &mut r));
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, 16, &mut r);
            assert_eq!(p.bit_length(), bits, "bits={bits}");
            assert!(p.is_probable_prime(16, &mut r));
        }
    }
}
