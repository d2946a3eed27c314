//! Statistical checks of the security definitions: Definition 6 says the
//! extracted string must be statistically close to uniform even given the
//! helper data. These tests measure that empirically (coarse chi-square
//! bounds — smoke-level, not a substitute for the analytic argument).
//! The last two pin the error rates of the conditions (1)–(4) match at
//! the paper's ring, which the scan's cost model is derived from.

use fuzzy_id::core::conditions::sketches_match;
use fuzzy_id::core::{ChebyshevSketch, FuzzyExtractor, ScanIndex, SecureSketch, SketchIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chi-square statistic for byte-frequency uniformity.
fn chi_square_bytes(samples: &[u8]) -> f64 {
    let mut counts = [0u64; 256];
    for &b in samples {
        counts[b as usize] += 1;
    }
    let expected = samples.len() as f64 / 256.0;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

#[test]
fn extracted_keys_look_uniform() {
    // 512 keys × 32 bytes = 16,384 byte samples. For 255 degrees of
    // freedom, chi-square has mean 255 and std ≈ 22.6; we accept < 360
    // (≈ +4.6σ) — loose enough to be deterministic-safe, tight enough to
    // catch any structural bias.
    let fe = FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32);
    let mut rng = StdRng::seed_from_u64(0x57A7);
    let mut bytes = Vec::with_capacity(512 * 32);
    for _ in 0..512 {
        let bio = fe.sketcher().line().random_vector(64, &mut rng);
        let (key, _helper) = fe.generate(&bio, &mut rng).unwrap();
        bytes.extend_from_slice(key.as_bytes());
    }
    let chi = chi_square_bytes(&bytes);
    assert!(chi < 360.0, "extracted keys biased: chi-square = {chi:.1}");
}

#[test]
fn keys_independent_of_helper_data_bits() {
    // Correlation smoke test: the first key byte should not predict the
    // first sketch movement's sign (helper data is public!).
    let fe = FuzzyExtractor::with_defaults(ChebyshevSketch::paper_defaults(), 32);
    let mut rng = StdRng::seed_from_u64(0x57A8);
    let trials = 600usize;
    let mut table = [[0u32; 2]; 2]; // [key bit][movement sign]
    for _ in 0..trials {
        let bio = fe.sketcher().line().random_vector(16, &mut rng);
        let (key, helper) = fe.generate(&bio, &mut rng).unwrap();
        let key_bit = (key.as_bytes()[0] & 1) as usize;
        let sign = (helper.sketch.inner[0] > 0) as usize;
        table[key_bit][sign] += 1;
    }
    // Chi-square independence test, 1 degree of freedom; 10.83 = p<0.001.
    let total = trials as f64;
    let row: [f64; 2] = [
        (table[0][0] + table[0][1]) as f64,
        (table[1][0] + table[1][1]) as f64,
    ];
    let col: [f64; 2] = [
        (table[0][0] + table[1][0]) as f64,
        (table[0][1] + table[1][1]) as f64,
    ];
    let mut chi = 0.0;
    for i in 0..2 {
        for j in 0..2 {
            let expected = row[i] * col[j] / total;
            let d = table[i][j] as f64 - expected;
            chi += d * d / expected;
        }
    }
    assert!(
        chi < 10.83,
        "key bit correlates with helper data: chi = {chi:.2}"
    );
}

#[test]
fn sketch_movements_are_near_uniform() {
    // Theorem 3's model assumes uniform inputs induce near-uniform
    // movements over [-ka/2, ka/2]. Check the marginal distribution.
    let scheme = ChebyshevSketch::paper_defaults();
    let ka = scheme.line().interval_len() as i64;
    let mut rng = StdRng::seed_from_u64(0x57A9);
    let x = scheme.line().random_vector(200_000, &mut rng);
    let sketch = scheme.sketch(&x, &mut rng).unwrap();

    // Bucket the movements into 8 equal bins over (-ka/2, ka/2].
    let mut bins = [0u64; 8];
    for &s in &sketch {
        let shifted = (s + ka / 2).clamp(0, ka - 1); // [0, ka)
        bins[(shifted * 8 / ka) as usize] += 1;
    }
    let expected = sketch.len() as f64 / 8.0;
    for (i, &count) in bins.iter().enumerate() {
        let dev = (count as f64 - expected).abs() / expected;
        assert!(
            dev < 0.05,
            "bin {i} deviates {:.1}% from uniform",
            dev * 100.0
        );
    }
}

#[test]
fn false_match_rate_is_the_ring_rate() {
    // Sketches of independent uniform inputs are uniform on the ring, so
    // two of them agree on a coordinate with probability (2t+1)/ka —
    // 0.5025 at the paper's t = 100, ka = 400 — and on d coordinates
    // with its d-th power. That "≈ ½ per coordinate" is what DESIGN.md
    // "The early-abort cost model" and the adaptive plane depth start
    // from. 2·10⁵ impostor pairs per dimension, counted by the index and
    // by the scalar oracle; pair indicators are pairwise independent
    // (uniform ring differences), so the count is within 5 binomial σ.
    let scheme = ChebyshevSketch::paper_defaults();
    let (t, ka) = (scheme.threshold(), scheme.line().interval_len());
    let per_coordinate = (2 * t + 1) as f64 / ka as f64;
    let mut rng = StdRng::seed_from_u64(0x57AA);
    for d in [1usize, 4, 8] {
        let mut sketch = || {
            let x = scheme.line().random_vector(d, &mut rng);
            scheme.sketch(&x, &mut rng).unwrap()
        };
        let enrolled: Vec<Vec<i64>> = (0..2_000).map(|_| sketch()).collect();
        let mut index = ScanIndex::new(t, ka);
        for s in &enrolled {
            index.insert(s);
        }
        let (mut by_index, mut by_oracle) = (0usize, 0usize);
        for _ in 0..100 {
            let probe = sketch();
            by_index += index.find(&probe, None, usize::MAX).len();
            by_oracle += enrolled
                .iter()
                .filter(|s| sketches_match(s, &probe, t, ka))
                .count();
        }
        assert_eq!(by_index, by_oracle, "d = {d}: index and oracle disagree");
        let pairs = (enrolled.len() * 100) as f64;
        let expected = per_coordinate.powi(d as i32);
        let sigma = (expected * (1.0 - expected) / pairs).sqrt();
        let rate = by_index as f64 / pairs;
        assert!(
            (rate - expected).abs() <= 5.0 * sigma,
            "d = {d}: false-match rate {rate:.5} ({:.4} per coordinate), \
             expected {expected:.5} ± {:.5}",
            rate.powf(1.0 / d as f64),
            5.0 * sigma
        );
    }
}

#[test]
fn false_non_match_is_a_step_at_t() {
    // A reading within t of the enrolled input on every coordinate
    // always matches — noise uniform over [−t, t], both ends drawn — and
    // one coordinate at t + 1 never does: 100 users × 100 readings.
    let scheme = ChebyshevSketch::paper_defaults();
    let (t, ka) = (scheme.threshold(), scheme.line().interval_len());
    let t_i = t as i64;
    const D: usize = 8;
    let mut rng = StdRng::seed_from_u64(0x57AB);
    let users: Vec<Vec<i64>> = (0..100)
        .map(|_| scheme.line().random_vector(D, &mut rng))
        .collect();
    let enrolled: Vec<Vec<i64>> = users
        .iter()
        .map(|x| scheme.sketch(x, &mut rng).unwrap())
        .collect();
    let mut index = ScanIndex::new(t, ka);
    for s in &enrolled {
        index.insert(s);
    }
    let (mut lowest, mut highest) = (0i64, 0i64);
    for draw in 0..10_000usize {
        let id = draw % users.len();
        let mut reading = users[id].clone();
        for y in &mut reading {
            let noise = rng.gen_range(-t_i..=t_i);
            (lowest, highest) = (lowest.min(noise), highest.max(noise));
            *y += noise;
        }
        let probe = scheme.sketch(&reading, &mut rng).unwrap();
        assert!(sketches_match(&enrolled[id], &probe, t, ka), "draw {draw}");
        assert!(
            index.find(&probe, None, usize::MAX).contains(&id),
            "draw {draw}"
        );

        let beyond = if draw % 2 == 0 { t_i + 1 } else { -t_i - 1 };
        reading[draw % D] = users[id][draw % D] + beyond;
        let probe = scheme.sketch(&reading, &mut rng).unwrap();
        assert!(!sketches_match(&enrolled[id], &probe, t, ka), "draw {draw}");
        assert!(
            !index.find(&probe, None, usize::MAX).contains(&id),
            "draw {draw}"
        );
    }
    assert_eq!((lowest, highest), (-t_i, t_i), "both ends must be drawn");
}
