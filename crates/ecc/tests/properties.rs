//! Property-based tests for the coding substrate.

use fe_ecc::{berlekamp_welch, Bch, Gf2m, Poly};
use fe_metrics::BitVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Field axioms on random GF(2^m) elements.
    #[test]
    fn field_axioms(m in 2u32..12, a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        let f = Gf2m::new(m).unwrap();
        let mask = (f.size() - 1) as u16;
        let (a, b, c) = (a & mask, b & mask, c & mask);
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        prop_assert_eq!(f.mul(a, 1), a);
        if a != 0 {
            prop_assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
        }
    }

    /// Polynomial division: p = q·d + r with deg r < deg d.
    #[test]
    fn poly_div_rem(pc in prop::collection::vec(0u16..256, 0..12),
                    dc in prop::collection::vec(0u16..256, 1..6)) {
        let f = Gf2m::new(8).unwrap();
        let p = Poly::from_coeffs(pc);
        let d = Poly::from_coeffs(dc);
        prop_assume!(!d.is_zero());
        let (q, r) = p.div_rem(&d, &f);
        prop_assert_eq!(q.mul(&d, &f).add(&r, &f), p);
        if let (Some(rd), Some(dd)) = (r.degree(), d.degree()) {
            prop_assert!(rd < dd);
        }
    }

    /// Interpolation inverts evaluation.
    #[test]
    fn interpolation_inverts_evaluation(coeffs in prop::collection::vec(0u16..256, 1..8)) {
        let f = Gf2m::new(8).unwrap();
        let p = Poly::from_coeffs(coeffs);
        let k = p.coeffs().len().max(1);
        let pts: Vec<(u16, u16)> = (1..=k as u16).map(|x| (x, p.eval(x, &f))).collect();
        let q = Poly::interpolate(&pts, &f).unwrap();
        prop_assert_eq!(q, p);
    }

    /// BCH corrects any error pattern of weight ≤ t.
    #[test]
    fn bch_corrects_within_capacity(seed in any::<u64>(), num_err_raw in 0usize..8) {
        let code = Bch::new(6, 4).unwrap();
        let num_err = num_err_raw % (code.t() + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
        let word = code.encode(&msg).unwrap();
        let mut corrupted = word.clone();
        let mut positions = std::collections::HashSet::new();
        while positions.len() < num_err {
            positions.insert(rng.gen_range(0..code.n()));
        }
        for &p in &positions {
            corrupted.flip(p);
        }
        let dec = code.decode(&corrupted).unwrap();
        prop_assert_eq!(dec.message, msg);
        prop_assert_eq!(dec.corrected_errors, num_err);
    }

    /// BCH codewords are closed under XOR (linearity).
    #[test]
    fn bch_linear(seed in any::<u64>()) {
        let code = Bch::new(5, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let m1 = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
        let m2 = BitVec::from_fn(code.k(), |_| rng.gen_bool(0.5));
        let c1 = code.encode(&m1).unwrap();
        let c2 = code.encode(&m2).unwrap();
        let m12: BitVec = (0..code.k()).map(|i| m1.get(i) ^ m2.get(i)).collect();
        prop_assert_eq!(code.encode(&m12).unwrap(), &c1 ^ &c2);
    }

    /// Berlekamp–Welch recovers under any ≤ e_max corruption.
    #[test]
    fn bw_recovers(seed in any::<u64>(), k in 2usize..6) {
        let f = Gf2m::new(8).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs: Vec<u16> = (0..k).map(|_| rng.gen_range(0..256)).collect();
        let p = Poly::from_coeffs(coeffs);
        let n = k + 6; // e_max = 3
        let mut pts: Vec<(u16, u16)> = (1..=n as u16).map(|x| (x, p.eval(x, &f))).collect();
        let e = rng.gen_range(0..=3usize);
        let mut bad = std::collections::HashSet::new();
        while bad.len() < e {
            bad.insert(rng.gen_range(0..n));
        }
        for &i in &bad {
            pts[i].1 ^= rng.gen_range(1..256) as u16;
        }
        prop_assert_eq!(berlekamp_welch(&f, &pts, k).unwrap(), p);
    }
}
