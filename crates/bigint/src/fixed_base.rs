//! Powers of one fixed base: a Lim–Lee comb, built once per base.

use crate::montgomery::{Montgomery, TEETH};
use crate::Natural;

/// A precomputed table for `g^e mod n` with `g` and `n` fixed and
/// `e < 2^exp_bits`.
///
/// The exponent is cut into 8 rows (the comb's teeth) of
/// `a = ⌈exp_bits / 8⌉` bits, and entry `d` of the table is
/// `Π g^(2^(j·a))` over the set bits `j` of `d`. Column `i` of the exponent
/// (bit `i` of every row) is then one index into the table, and
/// `g^e = Π_i T[column i]^(2^i)` costs `a − 1` squarings and at most `a − 1`
/// multiplications, against ≈ `exp_bits + exp_bits/4` for a 4-bit window.
/// At `exp_bits = 160` that is 39 products where the window takes ≈ 213.
///
/// The table is `2^8` residues: 32 KiB for a 1024-bit modulus, built with
/// `7·a` squarings and 247 multiplications. Exponents longer than
/// `exp_bits` take the generic window instead.
///
/// ```rust
/// use fe_bigint::{FixedBase, Natural};
///
/// let p = Natural::from(2039u64);
/// let g = Natural::from(4u64);
/// let table = FixedBase::new(&g, &p, 10).expect("odd modulus");
/// let e = Natural::from(1000u64);
/// assert_eq!(table.pow(&e), g.mod_pow(&e, &p));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBase {
    ctx: Montgomery,
    base: Natural,
    exp_bits: usize,
    spacing: usize,
    table: Vec<u64>,
}

impl FixedBase {
    /// Builds the comb for `base` modulo the odd `modulus`, serving
    /// exponents of up to `exp_bits` bits.
    ///
    /// Returns `None` if `modulus` is even or zero.
    pub fn new(base: &Natural, modulus: &Natural, exp_bits: usize) -> Option<FixedBase> {
        let ctx = Montgomery::new(modulus)?;
        let len = ctx.limb_len();
        let spacing = exp_bits.div_ceil(TEETH).max(1);
        let base = base.rem_nat(modulus);
        let mut scratch = ctx.scratch();
        let mut table = vec![0; len << TEETH];
        table[len..2 * len].copy_from_slice(&ctx.to_mont(&base));
        for d in 2..1usize << TEETH {
            let high = 1 << d.ilog2();
            let (done, rest) = table.split_at_mut(d * len);
            let entry = &mut rest[..len];
            if d == high {
                // g^(2^(j·a)) = (g^(2^((j−1)·a)))^(2^a)
                entry.copy_from_slice(&done[(high / 2) * len..][..len]);
                for _ in 0..spacing {
                    ctx.sqr(entry, &mut scratch);
                }
            } else {
                entry.copy_from_slice(&done[(d - high) * len..][..len]);
                ctx.mul(entry, &done[high * len..][..len], &mut scratch);
            }
        }
        Some(FixedBase {
            ctx,
            base,
            exp_bits,
            spacing,
            table,
        })
    }

    fn comb<'a>(&'a self, exp: &'a Natural) -> Option<(&'a [u64], usize, &'a Natural)> {
        (exp.bit_length() <= self.exp_bits).then_some((&self.table, self.spacing, exp))
    }

    /// `base^exp mod n`: the comb if `exp < 2^exp_bits`, else the generic
    /// window.
    pub fn pow(&self, exp: &Natural) -> Natural {
        match self.comb(exp) {
            Some(comb) => self.ctx.chain(None, Some(comb)),
            None => self.ctx.pow(&self.base, exp),
        }
    }

    /// `base^exp · other^other_exp mod n`, the two-base product a DSA
    /// verification checks: the comb's columns ride on the
    /// squarings of `other`'s window, one chain for both powers.
    pub fn pow_mul(&self, exp: &Natural, other: &Natural, other_exp: &Natural) -> Natural {
        let Some(comb) = self.comb(exp) else {
            let n = self.ctx.modulus();
            return self.pow(exp).mod_mul(&self.ctx.pow(other, other_exp), n);
        };
        self.ctx.chain(Some((other, other_exp)), Some(comb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::counts;

    fn naive(base: &Natural, exp: &Natural, n: &Natural) -> Natural {
        let mut acc = Natural::one().rem_nat(n);
        for i in (0..exp.bit_length()).rev() {
            acc = acc.mod_mul(&acc, n);
            if exp.bit(i) {
                acc = acc.mod_mul(base, n);
            }
        }
        acc
    }

    #[test]
    fn comb_matches_square_and_multiply() {
        let n = Natural::from_hex("fffffffffffffffffffffffffffffffffffffffffffffff1").unwrap();
        let g = Natural::from_hex("123456789abcdef0123456789abcdef").unwrap();
        for exp_bits in [1, 7, 8, 9, 64, 160] {
            let table = FixedBase::new(&g, &n, exp_bits).unwrap();
            for e in [
                Natural::zero(),
                Natural::one(),
                Natural::power_of_two(exp_bits).checked_sub_u64(1).unwrap(),
                Natural::power_of_two(exp_bits - 1),
                // Past the comb: the window answers.
                Natural::power_of_two(exp_bits),
                Natural::power_of_two(exp_bits + 70).add_u64(12345),
            ] {
                assert_eq!(table.pow(&e), naive(&g, &e, &n), "bits {exp_bits}, e {e:?}");
            }
        }
    }

    #[test]
    fn a_160_bit_exponent_costs_at_most_39_products() {
        let n = Natural::from_hex("fffffffffffffffffffffffffffffffffffffffffffffff1").unwrap();
        let table = FixedBase::new(&Natural::from(3u64), &n, 160).unwrap();
        let e = Natural::power_of_two(160).checked_sub_u64(1).unwrap();
        let before = counts();
        table.pow(&e);
        let spent = counts() - before;
        // 19 squarings, 19 multiplications, one conversion out.
        assert_eq!((spent.squarings, spent.multiplications), (19, 20));
    }

    #[test]
    fn the_table_is_256_residues() {
        // 32 KiB at a 1024-bit modulus, whatever the exponent length.
        let n = Natural::power_of_two(1023).add_u64(1);
        for exp_bits in [8, 160, 256] {
            let table = FixedBase::new(&Natural::from(3u64), &n, exp_bits).unwrap();
            assert_eq!(table.table.len() * 8, 32 * 1024);
        }
    }

    #[test]
    fn unreduced_base_and_modulus_one() {
        let n = Natural::from(1009u64);
        let table = FixedBase::new(&Natural::from(5000u64), &n, 12).unwrap();
        let e = Natural::from(777u64);
        assert_eq!(table.pow(&e), Natural::from(5000u64).mod_pow(&e, &n));
        let one = FixedBase::new(&Natural::from(3u64), &Natural::one(), 8).unwrap();
        assert_eq!(one.pow(&Natural::zero()), Natural::zero());
        assert_eq!(one.pow(&Natural::from(5u64)), Natural::zero());
        assert!(FixedBase::new(&Natural::from(3u64), &Natural::from(10u64), 8).is_none());
    }
}
