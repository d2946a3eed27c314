//! Property-based tests for `fe-bigint` arithmetic invariants.

use fe_bigint::montgomery::{counts, Montgomery};
use fe_bigint::{FixedBase, Integer, Natural};
use proptest::prelude::*;

/// Strategy producing naturals up to ~4 limbs from raw limb vectors.
fn natural() -> impl Strategy<Value = Natural> {
    prop::collection::vec(any::<u64>(), 0..4).prop_map(Natural::from_limbs)
}

/// Strategy producing non-zero naturals.
fn natural_nonzero() -> impl Strategy<Value = Natural> {
    natural().prop_filter("non-zero", |n| !n.is_zero())
}

/// Montgomery widths under test: one limb, and the 512-, 1024- and
/// 2048-bit DSA moduli.
const WIDTHS: [usize; 4] = [1, 8, 16, 32];

/// An odd modulus of exactly `limbs` limbs. One in four is all ones, so
/// every carry and the final subtraction run the full width.
fn odd_modulus(limbs: usize) -> impl Strategy<Value = Natural> {
    (
        prop::collection::vec(any::<u64>(), limbs..limbs + 1),
        0u8..4,
    )
        .prop_map(|(mut l, shape)| {
            if shape == 0 {
                l.fill(u64::MAX);
            }
            l[0] |= 1;
            let top = l.last_mut().expect("at least one limb");
            *top = (*top).max(1);
            Natural::from_limbs(l)
        })
}

/// Raw material for an operand below a modulus of `limbs` limbs, resolved
/// by [`below`]: one time in two an edge value.
fn operand(limbs: usize) -> impl Strategy<Value = (Vec<u64>, u8)> {
    (
        prop::collection::vec(any::<u64>(), limbs..limbs + 1),
        0u8..6,
    )
}

/// `0`, `1`, `n − 1`, or a random value reduced below `n`.
fn below((limbs, pick): (Vec<u64>, u8), n: &Natural) -> Natural {
    match pick {
        0 => Natural::zero(),
        1 => Natural::one().rem_nat(n),
        2 => n.checked_sub(&Natural::one()).expect("n >= 1"),
        _ => Natural::from_limbs(limbs).rem_nat(n),
    }
}

/// A modulus of one of [`WIDTHS`] and two operands below it.
fn mont_case() -> impl Strategy<Value = (Natural, Natural, Natural)> {
    (0..WIDTHS.len())
        .prop_flat_map(|w| {
            let limbs = WIDTHS[w];
            (odd_modulus(limbs), operand(limbs), operand(limbs))
        })
        .prop_map(|(n, a, b)| {
            let (a, b) = (below(a, &n), below(b, &n));
            (n, a, b)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The allocation-free product and the dedicated squaring against the
    /// schoolbook product and long division, at every DSA width.
    #[test]
    fn montgomery_product_and_square_match_rem((n, a, b) in mont_case()) {
        let ctx = Montgomery::new(&n).unwrap();
        let mut scratch = ctx.scratch();
        let mut ab = ctx.to_mont(&a);
        ctx.mul(&mut ab, &ctx.to_mont(&b), &mut scratch);
        prop_assert!(Natural::from_limbs(ab.clone()) < n, "fully reduced");
        prop_assert_eq!(ctx.from_mont(&ab), (&a * &b).rem_nat(&n));
        let mut aa = ctx.to_mont(&a);
        ctx.sqr(&mut aa, &mut scratch);
        prop_assert!(Natural::from_limbs(aa.clone()) < n, "fully reduced");
        prop_assert_eq!(ctx.from_mont(&aa), (&a * &a).rem_nat(&n));
    }

    /// The binary inverse (odd moduli) against the extended Euclidean
    /// algorithm, the path even moduli still take.
    #[test]
    fn mod_inv_matches_extended_gcd((n, a, _b) in mont_case()) {
        let ext = a.extended_gcd(&n);
        let want = (!a.is_zero() && ext.gcd.is_one()).then(|| ext.x.mod_floor(&n));
        prop_assert_eq!(a.mod_inv(&n), want);
    }

    /// The comb, alone and under another base's window, against the
    /// generic window; exponents past the comb's reach fall back to it.
    #[test]
    fn fixed_base_matches_mod_pow((n, g, y) in mont_case(),
                                  exp_bits in 1usize..200,
                                  e in operand(4), f in operand(4), past in 0u8..4) {
        let table = FixedBase::new(&g, &n, exp_bits).unwrap();
        let reach = Natural::power_of_two(exp_bits);
        let mut e = below(e, &reach);
        if past == 0 {
            e = &e + &reach;
        }
        let f = below(f, &Natural::power_of_two(256));
        prop_assert_eq!(table.pow(&e), g.mod_pow(&e, &n));
        prop_assert_eq!(table.pow_mul(&e, &y, &f), g.mod_pow(&e, &n).mod_mul(&y.mod_pow(&f, &n), &n));
        // Within reach, the comb's ⌈exp_bits/8⌉ − 1 squarings at most.
        let before = counts();
        table.pow(&e);
        let spent = counts() - before;
        if past == 0 {
            prop_assert!(spent.squarings + 4 >= exp_bits as u64, "{spent:?}");
        } else {
            prop_assert!(spent.squarings < exp_bits.div_ceil(8) as u64, "{spent:?}");
        }
    }
}

proptest! {
    #[test]
    fn add_commutative(a in natural(), b in natural()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in natural(), b in natural(), c in natural()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in natural(), b in natural()) {
        let sum = &a + &b;
        prop_assert_eq!(&sum - &b, a);
    }

    #[test]
    fn mul_commutative(a in natural(), b in natural()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in natural(), b in natural(), c in natural()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_reconstructs(a in natural(), b in natural_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in natural(), s in 0usize..200) {
        prop_assert_eq!(a.shl_bits(s), &a * &Natural::power_of_two(s));
    }

    #[test]
    fn shr_is_div_by_power_of_two(a in natural(), s in 0usize..200) {
        prop_assert_eq!(a.shr_bits(s), &a / &Natural::power_of_two(s));
    }

    #[test]
    fn hex_roundtrip(a in natural()) {
        prop_assert_eq!(Natural::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in natural()) {
        prop_assert_eq!(Natural::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in natural()) {
        prop_assert_eq!(Natural::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn gcd_divides_both(a in natural_nonzero(), b in natural_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem_nat(&g).is_zero());
        prop_assert!(b.rem_nat(&g).is_zero());
    }

    #[test]
    fn extended_gcd_bezout(a in natural(), b in natural_nonzero()) {
        let ext = a.extended_gcd(&b);
        let lhs = &(&Integer::from(a) * &ext.x) + &(&Integer::from(b) * &ext.y);
        prop_assert_eq!(lhs, Integer::from(ext.gcd));
    }

    #[test]
    fn mod_inv_is_inverse(a in natural_nonzero(), m in natural_nonzero()) {
        if let Some(inv) = a.mod_inv(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m), Natural::one().rem_nat(&m));
        }
    }

    #[test]
    fn mod_pow_matches_naive(base in 0u64..1000, exp in 0u64..64, m in 2u64..10_000) {
        let naive = {
            let mut acc = 1u128;
            for _ in 0..exp {
                acc = acc * base as u128 % m as u128;
            }
            acc as u64
        };
        let got = Natural::from(base).mod_pow(&Natural::from(exp), &Natural::from(m));
        prop_assert_eq!(got, Natural::from(naive));
    }

    #[test]
    fn mod_pow_addition_law(base in natural(), e1 in 0u64..200, e2 in 0u64..200, m in natural_nonzero()) {
        // base^(e1+e2) = base^e1 * base^e2 (mod m)
        let lhs = base.mod_pow(&Natural::from(e1 + e2), &m);
        let a = base.mod_pow(&Natural::from(e1), &m);
        let b = base.mod_pow(&Natural::from(e2), &m);
        prop_assert_eq!(lhs, a.mod_mul(&b, &m));
    }

    #[test]
    fn ordering_consistent_with_sub(a in natural(), b in natural()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }

    #[test]
    fn bit_length_bounds(a in natural_nonzero()) {
        let bits = a.bit_length();
        prop_assert!(a < Natural::power_of_two(bits));
        prop_assert!(a >= Natural::power_of_two(bits - 1));
    }
}
