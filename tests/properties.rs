//! Cross-crate property-based tests: the paper's theorems as proptest
//! properties over randomized configurations.

use fuzzy_id::core::codec::{
    self, decode_helper, decode_sketch, encode_helper, encode_sketch, CodecError, Fingerprint,
    Version,
};
use fuzzy_id::core::conditions::{cyclic_close, paper_conditions_hold, sketches_match};
use fuzzy_id::core::{
    ChebyshevSketch, EpochIndex, FilterConfig, FuzzyExtractor, HelperData, NumberLine, PlaneDepth,
    RobustData, ScanIndex, SecureSketch, SketchIndex,
};
use fuzzy_id::metrics::{Metric, RingChebyshev};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random but always-valid (line, threshold) configurations.
/// `a >= 2` keeps the interval length `ka >= 4`, so a threshold
/// `1 <= t < ka/2` always exists.
fn line_and_t() -> impl Strategy<Value = (NumberLine, u64)> {
    (2u64..50, 1u64..6, 2u64..40).prop_flat_map(|(a, half_k, v)| {
        let k = half_k * 2;
        let line = NumberLine::new(a, k, v).expect("valid by construction");
        let t_max = line.interval_len() / 2 - 1;
        (Just(line), 1..=t_max)
    })
}

/// `SS` of one coordinate as it was until PR 19 — wrap onto the line,
/// then take the offset within the interval: two divisions where `ka`
/// dividing the period needs one. The oracle of
/// `sketch_divides_once_and_draws_the_same_coins`.
fn sketch_point_two_divisions(line: &NumberLine, x: i64, rng: &mut StdRng) -> i64 {
    use rand::Rng;
    let ka = line.interval_len() as i64;
    let r = line.wrap(x).rem_euclid(ka);
    if r != 0 {
        ka / 2 - r
    } else if rng.gen_bool(0.5) {
        ka / 2
    } else {
        -ka / 2
    }
}

/// CRC-32 (reflected `0xEDB88320`) one bit at a time: the loop
/// `codec::crc32` was before it went table-driven, and its oracle here.
fn crc32_bit_serial(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// A sketch-codec test row of dimension `dim`, drawn from `seed`:
/// kind 0 arbitrary `i64`s; 1 the extremes (`i64::MIN`, `i64::MAX`, 0,
/// `±ka/2` and `±(ka/2 − 1)` of a random ring); 2 all zero; 3 paper-ring
/// values with one arbitrary outlier; 4 paper-ring values.
fn sketch_row(kind: u8, dim: usize, seed: u64) -> Vec<i64> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let half = rng.gen_range(1i64..1 << 40);
    let mut row: Vec<i64> = (0..dim)
        .map(|_| match kind {
            0 => rng.gen(),
            1 => [i64::MIN, i64::MAX, 0, half, -half, half - 1, 1 - half][rng.gen_range(0..7usize)],
            2 => 0,
            _ => rng.gen_range(-200..=200),
        })
        .collect();
    if kind == 3 && dim > 0 {
        row[rng.gen_range(0..dim)] = rng.gen();
    }
    row
}

/// The version-2 sketch as its definition spells it, one bit at a time:
/// the dimension by the one-byte length rule, the width (`width`, or the
/// bit length of the widest zigzag code and at least 1), then code `i`'s
/// bit `b` at stream bit `i·width + b`, byte `j`'s bit `j mod 8` holding
/// stream bit `j`.
fn packed_sketch_oracle(sketch: &[i64], width: Option<u32>) -> Vec<u8> {
    let codes: Vec<u64> = sketch
        .iter()
        .map(|&v| {
            if v >= 0 {
                2 * v as u64
            } else {
                2 * !(v as u64) + 1
            }
        })
        .collect();
    let needed = codes
        .iter()
        .map(|z| 64 - z.leading_zeros())
        .max()
        .unwrap_or(0)
        .max(1);
    let width = width.unwrap_or(needed) as usize;
    let mut out = Vec::new();
    if sketch.len() < 255 {
        out.push(sketch.len() as u8);
    } else {
        out.push(0xff);
        out.extend_from_slice(&(sketch.len() as u32).to_le_bytes());
    }
    out.push(width as u8);
    let mut stream = vec![0u8; (sketch.len() * width).div_ceil(8)];
    for (i, z) in codes.iter().enumerate() {
        for b in 0..width {
            if b < 64 && z >> b & 1 == 1 {
                let at = i * width + b;
                stream[at / 8] |= 1 << (at % 8);
            }
        }
    }
    out.extend_from_slice(&stream);
    out
}

/// A few bytes claiming 2³² − 1 coordinates are `Truncated` before
/// anything is allocated: each coordinate costs at least one bit, so the
/// claim needs half a gigabyte the input does not have. A length escape
/// spelling a length one byte holds is refused as not canonical.
#[test]
fn codec_hostile_lengths_are_refused_before_allocating() {
    for width in [1u8, 9, 64] {
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, width, 0, 0, 0];
        assert_eq!(
            codec::Reader::new(&bytes).get_sketch(Version::V2),
            Err(CodecError::Truncated),
            "width {width}"
        );
    }
    for short in [0u32, 1, 254] {
        let mut bytes = vec![0xff];
        bytes.extend_from_slice(&short.to_le_bytes());
        bytes.extend_from_slice(&[1, 0, 0]);
        assert!(matches!(
            codec::Reader::new(&bytes).get_sketch(Version::V2),
            Err(CodecError::Malformed(_))
        ));
    }
    // 255 coordinates take the escape, and are read back through it.
    let row = vec![-1i64; 255];
    let mut w = codec::Writer::new();
    w.put_sketch(&row, Version::V2);
    assert_eq!(w.as_slice()[..6], [0xff, 255, 0, 0, 0, 1]);
    assert_eq!(
        codec::Reader::new(w.as_slice()).get_sketch(Version::V2),
        Ok(row)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 (forward direction): any reading within cyclic Chebyshev
    /// distance t recovers the enrolled vector exactly.
    #[test]
    fn theorem1_recovery_within_t(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..20,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let sketch = scheme.sketch(&x, &mut rng).unwrap();
        let noisy: Vec<i64> = x
            .iter()
            .map(|&v| {
                use rand::Rng;
                line.wrap(v + rng.gen_range(-(t as i64)..=t as i64))
            })
            .collect();
        prop_assert_eq!(scheme.recover(&noisy, &sketch).unwrap(), x);
    }

    /// Theorem 1 (converse): a reading farther than t in some coordinate
    /// either fails or recovers a *different* vector — never silently the
    /// right one.
    #[test]
    fn theorem1_no_false_recovery(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..10,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let sketch = scheme.sketch(&x, &mut rng).unwrap();
        let mut bad = x.clone();
        // Push one coordinate strictly beyond t (cyclically).
        let delta = (t + 1).min(line.period() / 2) as i64;
        bad[0] = line.wrap(bad[0] + delta);
        let ring = RingChebyshev::new(line.period());
        prop_assume!(ring.distance(&x[..], &bad[..]) > t);
        match scheme.recover(&bad, &sketch) {
            Err(_) => {}
            Ok(recovered) => prop_assert_ne!(recovered, x),
        }
    }

    /// The sketch never stores anything but bounded movements:
    /// |s_i| ≤ ka/2 — the Theorem 3 storage accounting assumption.
    #[test]
    fn sketch_values_bounded(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..20,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let sketch = scheme.sketch(&x, &mut rng).unwrap();
        let half = (line.interval_len() / 2) as i64;
        prop_assert!(sketch.iter().all(|&s| -half <= s && s <= half));
    }

    /// `SS` without the wrap is `SS`: on any line, for any `i64` — the
    /// ends of the type, ±period, ±ka, interval boundaries (where the
    /// coin is flipped) and identifiers far off the line, values one
    /// off either, canonical points and arbitrary ones — `sketch`
    /// returns what the two-division formula returns and leaves the
    /// RNG where that leaves it, so no seeded fixture shifts.
    #[test]
    fn sketch_divides_once_and_draws_the_same_coins(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        picks in prop::collection::vec((0u8..12, any::<i64>()), 1..48),
    ) {
        use rand::RngCore;
        let (ka, period) = (line.interval_len() as i64, line.period() as i64);
        let input: Vec<i64> = picks
            .iter()
            .map(|&(sel, x)| match sel {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => period * x.signum(),
                3 => ka * x.signum(),
                4 => (x % 1_000) * ka,
                5 => (x % 1_000) * ka + ka / 2,
                6 => (x % 1_000) * ka + x.signum(),
                7 => (x % 1_000) * period + period / 2,
                8 => line.wrap(x),
                _ => x,
            })
            .collect();
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let (mut rng, mut oracle_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let sketch = scheme.sketch(&input, &mut rng).unwrap();
        let oracle: Vec<i64> = input
            .iter()
            .map(|&x| sketch_point_two_divisions(&line, x, &mut oracle_rng))
            .collect();
        prop_assert_eq!(sketch, oracle);
        prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "coin flips drawn");
    }

    /// Theorem 2 equivalence: the paper's four conditions equal the
    /// cyclic-distance test for all legal sketch pairs.
    #[test]
    fn conditions_equal_cyclic(
        ka_half in 2i64..500,
        t_raw in 1u64..500,
        s in -500i64..=500,
        sp in -500i64..=500,
    ) {
        let ka = (2 * ka_half) as u64;
        let t = t_raw % (ka / 2);
        prop_assume!(t >= 1);
        let s = s.clamp(-ka_half, ka_half);
        let sp = sp.clamp(-ka_half, ka_half);
        prop_assert_eq!(
            paper_conditions_hold(s, sp, t, ka),
            cyclic_close(s, sp, t, ka)
        );
    }

    /// Theorem 2 (completeness): sketches of close readings always match.
    #[test]
    fn close_readings_always_match(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..16,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let noisy: Vec<i64> = x
            .iter()
            .map(|&v| {
                use rand::Rng;
                line.wrap(v + rng.gen_range(-(t as i64)..=t as i64))
            })
            .collect();
        let sx = scheme.sketch(&x, &mut rng).unwrap();
        let sy = scheme.sketch(&noisy, &mut rng).unwrap();
        prop_assert!(sketches_match(&sx, &sy, t, line.interval_len()));
    }

    /// Full fuzzy extractor roundtrip under random configurations.
    #[test]
    fn fuzzy_extractor_roundtrip(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..12,
        key_len in 16usize..48,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let fe = FuzzyExtractor::with_defaults(scheme, key_len);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let (key, helper) = fe.generate(&x, &mut rng).unwrap();
        prop_assert_eq!(key.len(), key_len);
        let noisy: Vec<i64> = x
            .iter()
            .map(|&v| {
                use rand::Rng;
                line.wrap(v + rng.gen_range(-(t as i64)..=t as i64))
            })
            .collect();
        prop_assert_eq!(fe.reproduce(&noisy, &helper).unwrap(), key);
    }

    /// `Rep` encodes the recovered `w` once, and is still exactly
    /// `extract_key(Rec(y, P), r)`: the same key or the same error —
    /// on readings near and far (`OutOfRange`, or a wrong `w` the tag
    /// refuses), on tampered tags and sketches (`TagMismatch`) and on
    /// seeds cut short (`BadParameters`).
    #[test]
    fn reproduce_is_extract_key_of_recover(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..12,
        noise in 0u64..3,
        tamper in 0u8..4,
        seed_len in 0usize..40,
    ) {
        use rand::Rng;
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let fe = FuzzyExtractor::with_defaults(scheme, 32);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let (_, mut helper) = fe.generate(&x, &mut rng).unwrap();
        let spread = (noise * t) as i64;
        let reading: Vec<i64> = x
            .iter()
            .map(|&v| line.wrap(v + rng.gen_range(-spread..=spread)))
            .collect();
        match tamper {
            0 => helper.sketch.tag[0] ^= 1,
            1 => helper.sketch.inner[0] += 1,
            2 => helper.seed.truncate(seed_len),
            _ => {}
        }
        let parts = fe
            .sketch_scheme()
            .recover(&reading, &helper.sketch)
            .and_then(|w| fe.extract_key(&w, &helper.seed));
        prop_assert_eq!(fe.reproduce(&reading, &helper), parts);
    }

    /// Tiering is transparent: on a random sketch population, an
    /// `EpochIndex` (a threshold small enough to seal many heads within
    /// it, with removals landing in every tier) and the one-arena
    /// `ScanIndex` reference assign the
    /// same record ids and return identical `find_first` / unbounded
    /// `find` / `find_first_batch` results — including after random removals, which
    /// must leave the surviving ids stable.
    #[test]
    fn epoch_index_equivalent_to_scan(
        seal_rows in 1usize..=6,
        users in 1usize..60,
        dim in 1usize..8,
        seed in any::<u64>(),
        removal_mask in any::<u64>(),
    ) {
        const T: u64 = 100;
        const KA: u64 = 400;
        let mut rng = StdRng::seed_from_u64(seed);
        let half = (KA / 2) as i64;

        // Random sketch population (coordinates span the legal sketch
        // range [-ka/2, ka/2]; duplicates and near-duplicates arise
        // naturally, which is exactly what an unbounded find must agree on).
        let sketches: Vec<Vec<i64>> = (0..users)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        use rand::Rng;
                        rng.gen_range(-half..=half)
                    })
                    .collect()
            })
            .collect();

        let mut scan = ScanIndex::new(T, KA);
        let mut epoch = EpochIndex::with_seal_rows(T, KA, FilterConfig::default(), seal_rows);
        for s in &sketches {
            let a = scan.insert(s);
            let b = epoch.insert(s);
            prop_assert_eq!(a, b, "ids must be assigned identically");
        }

        // Random removals (bit u of the mask removes user u).
        for u in 0..users.min(64) {
            if removal_mask & (1 << u) != 0 {
                prop_assert_eq!(scan.remove(u), epoch.remove(u));
            }
        }
        prop_assert_eq!(scan.len(), epoch.len());

        // Probes: every enrolled sketch plus a perturbed copy.
        let mut probes = sketches.clone();
        probes.extend(sketches.iter().map(|s| {
            s.iter()
                .map(|&c| {
                    use rand::Rng;
                    (c + rng.gen_range(-(T as i64)..=T as i64)).clamp(-half, half)
                })
                .collect::<Vec<i64>>()
        }));

        for probe in &probes {
            prop_assert_eq!(scan.find_first(probe), epoch.find_first(probe));
            prop_assert_eq!(scan.find(probe, None, usize::MAX), epoch.find(probe, None, usize::MAX));
        }
        prop_assert_eq!(scan.find_first_batch(&probes), epoch.find_first_batch(&probes));
    }

    /// Codec round-trip: any sketch a legal scheme can produce survives
    /// the durable encoding under its own parameter fingerprint — and is
    /// rejected under any other fingerprint.
    #[test]
    fn codec_sketch_roundtrip_under_arbitrary_params(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 0usize..24,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let sketch = scheme.sketch(&x, &mut rng).unwrap();

        // Fingerprint the (line, t) configuration the way fe-protocol
        // fingerprints SystemParams: any parameter change changes it.
        let mut canon = codec::Writer::new();
        canon.put_u64(line.a());
        canon.put_u64(line.k());
        canon.put_u64(line.v());
        canon.put_u64(t);
        let fp = Fingerprint::of(canon.as_slice());

        let bytes = encode_sketch(&sketch, &fp);
        prop_assert_eq!(decode_sketch(&bytes, &fp).unwrap(), sketch);

        let mut other_canon = codec::Writer::new();
        other_canon.put_u64(line.a() + 1);
        other_canon.put_u64(line.k());
        other_canon.put_u64(line.v());
        other_canon.put_u64(t);
        let other = Fingerprint::of(other_canon.as_slice());
        prop_assert!(matches!(
            decode_sketch(&bytes, &other),
            Err(CodecError::FingerprintMismatch { .. })
        ));
    }

    /// Codec round-trip for full helper data (robust sketch + tag +
    /// seed) with arbitrary byte contents, plus truncation robustness:
    /// every strict prefix errors, never panics and never
    /// round-trips to a wrong value.
    #[test]
    fn codec_helper_roundtrip_and_truncation(
        inner in proptest::collection::vec(any::<i64>(), 0..32),
        tag in proptest::collection::vec(any::<u8>(), 0..48),
        extract_seed in proptest::collection::vec(any::<u8>(), 0..48),
        fp_seed in any::<u64>(),
        cut_permille in 0u32..1000,
    ) {
        let helper = HelperData {
            sketch: RobustData { inner, tag },
            seed: extract_seed,
        };
        let fp = Fingerprint::of(&fp_seed.to_be_bytes());
        let bytes = encode_helper(&helper, &fp);
        prop_assert_eq!(decode_helper(&bytes, &fp).unwrap(), helper);

        let cut = bytes.len() * cut_permille as usize / 1000;
        if cut < bytes.len() {
            prop_assert!(decode_helper(&bytes[..cut], &fp).is_err());
        }
    }

    /// The version-2 sketch codec against a bit-serial oracle, on rows
    /// of dimension 0–70: arbitrary `i64`s, `i64::MIN` / `i64::MAX` /
    /// `±ka/2` and their neighbours, all-zero rows, rows of small values
    /// with one outlier, and paper-ring sketches. The bytes are the
    /// oracle's, they decode to the row, and the row re-encodes to them.
    #[test]
    fn codec_packed_sketch_matches_its_oracle(
        kind in 0u8..5,
        dim in 0usize..71,
        seed in any::<u64>(),
    ) {
        let sketch = sketch_row(kind, dim, seed);
        let oracle = packed_sketch_oracle(&sketch, None);
        let mut w = codec::Writer::new();
        w.put_sketch(&sketch, Version::V2);
        prop_assert_eq!(w.as_slice(), &oracle[..]);
        let mut r = codec::Reader::new(&oracle);
        prop_assert_eq!(r.get_sketch(Version::V2).unwrap(), sketch.clone());
        prop_assert!(r.is_empty());

        // The same row at version 1 is `u32 count ‖ count × i64`.
        let mut w = codec::Writer::new();
        w.put_sketch(&sketch, Version::V1);
        prop_assert_eq!(w.as_slice().len(), 4 + 8 * dim);
        prop_assert_eq!(
            codec::Reader::new(w.as_slice()).get_sketch(Version::V1).unwrap(),
            sketch.clone()
        );

        // Every strict prefix is refused, and never panics.
        for cut in 0..oracle.len() {
            prop_assert!(codec::Reader::new(&oracle[..cut]).get_sketch(Version::V2).is_err());
        }
    }

    /// The decoder is canonical: a width outside 1..=64, a width one
    /// bit wider than the codes need, and a set padding bit are
    /// refused, so every sketch it accepts re-encodes to exactly the
    /// bytes it read — checked on the oracle's bytes, on their
    /// deliberately non-canonical variants, and on random bytes.
    #[test]
    fn codec_packed_sketch_decoder_is_canonical(
        kind in 0u8..5,
        dim in 0usize..71,
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let malformed = |bytes: &[u8]| {
            matches!(
                codec::Reader::new(bytes).get_sketch(Version::V2),
                Err(CodecError::Malformed(_))
            )
        };
        let sketch = sketch_row(kind, dim, seed);
        let canonical = packed_sketch_oracle(&sketch, None);
        let width = u32::from(canonical[1]);

        // One bit wider than the codes need.
        if width < 64 {
            prop_assert!(malformed(&packed_sketch_oracle(&sketch, Some(width + 1))));
        }
        // Widths 0 and 65..=255, with as many bytes as they would need.
        if dim > 0 {
            prop_assert!(malformed(&[dim as u8, 0]));
        }
        for wide in [65u32, 128, 255] {
            let mut bytes = vec![dim as u8, wide as u8];
            bytes.resize(2 + (dim * wide as usize).div_ceil(8), 0);
            prop_assert!(malformed(&bytes));
        }
        // Each padding bit of the last byte.
        let used = dim * width as usize % 8;
        if used != 0 {
            for bit in used..8 {
                let mut bytes = canonical.clone();
                *bytes.last_mut().unwrap() |= 1 << bit;
                prop_assert!(malformed(&bytes));
            }
        }

        // Random bytes behind a small dimension and any width: whatever
        // is accepted is its own encoding.
        let mut bytes = vec![(seed % 20) as u8, (seed >> 8) as u8 % 67];
        bytes.extend_from_slice(&noise);
        let mut r = codec::Reader::new(&bytes);
        if let Ok(decoded) = r.get_sketch(Version::V2) {
            let mut w = codec::Writer::new();
            w.put_sketch(&decoded, Version::V2);
            prop_assert_eq!(w.as_slice(), &bytes[..r.position()]);
        }
    }

    /// A version-2 record row round-trips through `put_record` /
    /// `get_record` with fields on both sides of the one-byte length
    /// rule's escape, spends exactly one length byte per short field,
    /// and every strict prefix of it errors without panicking.
    #[test]
    fn codec_v2_record_roundtrip_and_truncation(
        kind in 0u8..5,
        dim in 0usize..71,
        seed in any::<u64>(),
        lens in (0usize..300, 0usize..300, 0usize..300, 0usize..300),
    ) {
        use fuzzy_id::protocol::store::{get_record, get_row, put_record, put_row, SnapshotRow};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = |n: usize| {
            use rand::RngCore;
            let mut b = vec![0u8; n];
            rng.fill_bytes(&mut b);
            b
        };
        let record = fuzzy_id::protocol::EnrollmentRecord {
            id: "u".repeat(lens.0),
            public_key: bytes(lens.1),
            helper: HelperData {
                sketch: RobustData {
                    inner: sketch_row(kind, dim, seed),
                    tag: bytes(lens.2),
                },
                seed: bytes(lens.3),
            },
        };
        let mut w = codec::Writer::new();
        put_record(&mut w, &record);
        let encoded = w.into_bytes();
        let lengths: usize = [lens.0, lens.1, lens.2, lens.3]
            .iter()
            .map(|&n| codec::len_bytes(n) + n)
            .sum();
        let sketch = packed_sketch_oracle(&record.helper.sketch.inner, None).len();
        prop_assert_eq!(encoded.len(), lengths + sketch);

        let mut r = codec::Reader::new(&encoded);
        prop_assert_eq!(get_record(&mut r).unwrap(), record.clone());
        prop_assert!(r.is_empty());
        for cut in 0..encoded.len() {
            prop_assert!(get_record(&mut codec::Reader::new(&encoded[..cut])).is_err());
        }

        // The version-1 row of the same record reads back under
        // version 1, as the wire and older stores hold it.
        let mut w = codec::Writer::new();
        put_row(&mut w, &SnapshotRow::of(&record), Version::V1);
        let v1 = w.into_bytes();
        prop_assert_eq!(v1.len(), 16 + lens.0 + lens.1 + lens.2 + lens.3 + 4 + 8 * dim);
        prop_assert_eq!(get_row(&mut codec::Reader::new(&v1), Version::V1).unwrap(), record);
    }

    /// Journal-frame robustness: a stream of CRC-framed payloads reads
    /// back exactly; any truncation point yields a clean prefix of the
    /// framed payloads plus a detected torn tail (no misparse).
    #[test]
    fn framed_stream_truncation_yields_clean_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        cut_permille in 0u32..1000,
    ) {
        let mut w = codec::Writer::new();
        for p in &payloads {
            w.put_framed(p);
        }
        let bytes = w.into_bytes();

        // Full read returns every payload.
        let mut r = codec::Reader::new(&bytes);
        for p in &payloads {
            prop_assert_eq!(r.get_framed().unwrap(), &p[..]);
        }
        prop_assert!(r.is_empty());

        // A truncated stream reads a prefix, then reports a torn frame.
        let cut = bytes.len() * cut_permille as usize / 1000;
        let mut r = codec::Reader::new(&bytes[..cut]);
        let mut recovered = 0usize;
        loop {
            if r.is_empty() {
                break;
            }
            match r.get_framed() {
                Ok(p) => {
                    prop_assert_eq!(p, &payloads[recovered][..]);
                    recovered += 1;
                }
                Err(CodecError::Truncated) | Err(CodecError::BadChecksum) => break,
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert!(recovered <= payloads.len());
    }

    /// The table-driven checksum equals the bit-serial definition on
    /// random bytes up to 4 KiB, from every alignment of the buffer.
    #[test]
    fn checksum_kernel_matches_bit_serial_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        start in 0usize..16,
    ) {
        let data = &bytes[start.min(bytes.len())..];
        prop_assert_eq!(codec::crc32(data), crc32_bit_serial(data));
    }

    /// A frame encoded in place (`begin_frame` … `end_frame`) is byte
    /// for byte what `put_framed` wrote before frames were encoded in
    /// place — `len ‖ crc32 ‖ payload`, spelled out here over the
    /// bit-serial checksum — including a frame begun behind other bytes
    /// and two frames back to back in one writer.
    #[test]
    fn frames_in_place_match_put_framed_bytes(
        prefix in proptest::collection::vec(any::<u8>(), 0..20),
        first in proptest::collection::vec(any::<u8>(), 0..900),
        second in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut expected = prefix.clone();
        let mut w = codec::Writer::new();
        for &b in &prefix {
            w.put_u8(b);
        }
        for payload in [&first, &second] {
            expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            expected.extend_from_slice(&crc32_bit_serial(payload).to_be_bytes());
            expected.extend_from_slice(payload);

            let mark = w.begin_frame();
            for &b in payload {
                w.put_u8(b);
            }
            w.end_frame(mark);
        }
        prop_assert_eq!(w.as_slice(), &expected[..]);

        let mut copied = codec::Writer::new();
        copied.put_framed(&first);
        prop_assert_eq!(
            copied.as_slice(),
            &expected[prefix.len()..prefix.len() + 8 + first.len()]
        );
    }

    /// Ring-wrap invariance: shifting the whole input by one full period
    /// leaves the sketch-recovered value unchanged.
    #[test]
    fn period_shift_invariance(
        (line, t) in line_and_t(),
        seed in any::<u64>(),
        dim in 1usize..10,
    ) {
        let scheme = ChebyshevSketch::new(line, t).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = line.random_vector(dim, &mut rng);
        let shifted: Vec<i64> = x.iter().map(|&v| v + line.period() as i64).collect();
        let sketch = scheme.sketch(&x, &mut rng).unwrap();
        prop_assert_eq!(
            scheme.recover(&shifted, &sketch).unwrap(),
            x
        );
    }
}

// ---------------------------------------------------------------------------
// Columnar storage engine: the arena-backed indexes must be observably
// identical to the pre-arena Vec-of-Vec behavior, across every cell width.
// ---------------------------------------------------------------------------

/// The seed storage layout, kept as the reference model: boxed rows
/// behind `Option` tombstones, matching with the scalar conditions from
/// `fe_core::conditions` (which the arena's slice kernel must agree
/// with on every input).
struct ModelIndex {
    t: u64,
    ka: u64,
    entries: Vec<Option<Vec<i64>>>,
}

impl ModelIndex {
    fn new(t: u64, ka: u64) -> Self {
        ModelIndex {
            t,
            ka,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, sketch: &[i64]) -> usize {
        self.entries.push(Some(sketch.to_vec()));
        self.entries.len() - 1
    }

    fn matches(&self, s: &[i64], probe: &[i64]) -> bool {
        s.len() == probe.len() && sketches_match(s, probe, self.t, self.ka)
    }

    fn lookup(&self, probe: &[i64]) -> Option<usize> {
        self.entries
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| self.matches(s, probe)))
    }

    fn lookup_all(&self, probe: &[i64]) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|s| self.matches(s, probe)))
            .map(|(i, _)| i)
            .collect()
    }

    fn remove(&mut self, id: usize) -> bool {
        match self.entries.get_mut(id) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    fn compact(&mut self) -> Vec<(usize, usize)> {
        let mut mapping = Vec::new();
        let entries = std::mem::take(&mut self.entries);
        for (old, slot) in entries.into_iter().enumerate() {
            if let Some(s) = slot {
                mapping.push((old, self.entries.len()));
                self.entries.push(Some(s));
            }
        }
        mapping
    }

    fn live(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// One scripted operation applied to the model and an implementation in
/// lockstep.
#[derive(Debug, Clone)]
enum IndexOp {
    /// Insert a fresh sketch.
    Insert(Vec<i64>),
    /// Probe near the `n % inserted`-th live sketch, with per-coordinate
    /// offsets in `[-t, t]` (guaranteed genuine unless revoked).
    ProbeNear(usize, Vec<i64>),
    /// Probe an arbitrary vector (usually an impostor).
    Probe(Vec<i64>),
    /// Remove slot `n % slots`.
    Remove(usize),
    /// Compact every structure and compare the renumbering mappings.
    Compact,
}

/// Narrow rings `(t, ka)` so loose that no cell of the prefilter plane
/// could ever lie wholly outside a probe's arc — the window the arc
/// leaves is narrower than every cell the rule could cut — each one
/// step on `t` from a ring that gets a plane: the default builds none
/// there and the scalar early-abort kernel answers alone.
const NO_PLANE_RINGS: [(u64, u64); 3] = [(128, 258), (255, 512), (16_320, 32_767)];

/// Ring parameters spanning all three arena row layouts (packed, `i32`,
/// `i64`) **plus** the `ka ≥ 2⁶³` regime where the `i64` kernel must
/// widen through `i128` (and, like every wide ring, skip the SWAR
/// prefilter plane), with `t < ka/2` and capped so noise offsets stay
/// sane — and, three cases in sixteen, one of [`NO_PLANE_RINGS`].
fn ring_params() -> impl Strategy<Value = (u64, u64)> {
    let random = (0u8..4)
        .prop_flat_map(|width| {
            let (lo, hi) = match width {
                0 => (2u64, (1 << 15) - 1),
                1 => (1u64 << 15, (1 << 31) - 1),
                2 => (1u64 << 31, (1 << 62) - 1),
                _ => (1u64 << 63, u64::MAX),
            };
            lo..=hi
        })
        .prop_flat_map(|ka| (1u64..(ka / 2).clamp(2, 1 << 30), Just(ka)));
    (random, 0usize..16).prop_map(|(ring, sel)| NO_PLANE_RINGS.get(sel).copied().unwrap_or(ring))
}

/// A full test case: ring, dimension, and an operation script.
fn index_case() -> impl Strategy<Value = (u64, u64, usize, Vec<IndexOp>)> {
    (ring_params(), 1usize..6).prop_flat_map(|((t, ka), dim)| {
        let half = (ka / 2).min(i64::MAX as u64 / 4) as i64;
        // Includes non-canonical (out-of-ring) coordinates on purpose.
        let op = (
            0u8..12,
            prop::collection::vec(-2 * half..=2 * half, dim..dim + 1),
            prop::collection::vec(-(t as i64)..=(t as i64), dim..dim + 1),
            any::<usize>(),
        )
            .prop_map(|(sel, sketch, noise, n)| match sel {
                0..=3 => IndexOp::Insert(sketch),
                4..=6 => IndexOp::ProbeNear(n, noise),
                7..=8 => IndexOp::Probe(sketch),
                9..=10 => IndexOp::Remove(n),
                _ => IndexOp::Compact,
            });
        (
            Just(t),
            Just(ka),
            Just(dim),
            prop::collection::vec(op, 1..48),
        )
    })
}

/// Drives one implementation and the model through the same script,
/// checking every observable output pairwise: ids, `find_first`,
/// unbounded `find`, `find_first_batch`, `find` over a subset, remove
/// results, compact mappings,
/// live/slot counts, and the streaming iterator.
fn check_against_model<I: SketchIndex>(mut index: I, t: u64, ka: u64, ops: &[IndexOp]) {
    let mut model = ModelIndex::new(t, ka);
    let mut inserted: Vec<Vec<i64>> = Vec::new();
    let mut probes_seen: Vec<Vec<i64>> = Vec::new();
    for op in ops {
        match op {
            IndexOp::Insert(sketch) => {
                let a = model.insert(sketch);
                let b = index.insert(sketch);
                prop_assert_eq!(a, b, "insert ids diverged");
                inserted.push(sketch.clone());
            }
            IndexOp::ProbeNear(n, noise) => {
                if inserted.is_empty() {
                    continue;
                }
                let base = &inserted[n % inserted.len()];
                let probe: Vec<i64> = base
                    .iter()
                    .zip(noise.iter())
                    .map(|(&v, &d)| v.saturating_add(d))
                    .collect();
                prop_assert_eq!(model.lookup(&probe), index.find_first(&probe));
                prop_assert_eq!(
                    model.lookup_all(&probe),
                    index.find(&probe, None, usize::MAX)
                );
                probes_seen.push(probe);
            }
            IndexOp::Probe(probe) => {
                prop_assert_eq!(model.lookup(probe), index.find_first(probe));
                prop_assert_eq!(model.lookup_all(probe), index.find(probe, None, usize::MAX));
                probes_seen.push(probe.clone());
            }
            IndexOp::Remove(n) => {
                let slots = model.entries.len();
                if slots == 0 {
                    continue;
                }
                let id = n % slots;
                prop_assert_eq!(model.remove(id), index.remove(id), "remove({})", id);
            }
            IndexOp::Compact => {
                // The whole renumbering must agree, not just lookups.
                prop_assert_eq!(model.compact(), index.compact());
                // Keep the insert log aligned with the dense state so
                // ProbeNear keeps pointing at live sketches.
                inserted = model.entries.iter().flatten().cloned().collect();
            }
        }
        prop_assert_eq!(model.live(), index.len(), "live count diverged");
        prop_assert_eq!(model.entries.len(), index.slots(), "slots diverged");
    }
    // The batch path agrees with the model's one-at-a-time path.
    let batch = index.find_first_batch(&probes_seen);
    for (probe, got) in probes_seen.iter().zip(batch) {
        prop_assert_eq!(model.lookup(probe), got);
    }
    // A subset lookup over every other slot — and over ids no slot has,
    // which "simply never match" however large they are.
    let slots = model.entries.len();
    let mut subset: Vec<usize> = (0..slots).step_by(2).collect();
    subset.extend([slots, 1 << 40, usize::MAX]);
    for probe in &probes_seen {
        let mut want = model.lookup_all(probe);
        want.retain(|id| id % 2 == 0);
        prop_assert_eq!(
            index.find(probe, Some(&subset), usize::MAX),
            want,
            "subset lookup diverged"
        );
    }
    // The streaming iterator sees exactly the model's live rows, in
    // ascending order, congruent mod ka (the arena stores canonical
    // ring representatives; the model stores raw coordinates).
    let mut live = Vec::new();
    index.for_each_live(&mut |id, row| live.push((id, row.to_vec())));
    let expected: Vec<(usize, Vec<i64>)> = model
        .entries
        .iter()
        .enumerate()
        .filter_map(|(id, s)| s.as_ref().map(|s| (id, s.clone())))
        .collect();
    prop_assert_eq!(live.len(), expected.len(), "for_each_live row count");
    for ((id_a, row), (id_b, s)) in live.iter().zip(expected.iter()) {
        prop_assert_eq!(id_a, id_b);
        for (&a, &b) in row.iter().zip(s.iter()) {
            let d = a.abs_diff(b) % ka;
            prop_assert_eq!(d.min(ka - d), 0, "row {} not ≡ model (mod ka)", id_a);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arena-backed `ScanIndex` ≡ the Vec-of-Vec model — with the
    /// default prefilter plane (the vectorized two-phase scan on narrow
    /// rings, the plain scalar kernel elsewhere).
    #[test]
    fn scan_index_matches_vec_of_vec_model((t, ka, _dim, ops) in index_case()) {
        check_against_model(ScanIndex::new(t, ka), t, ka, &ops);
    }

    /// The scalar columnar kernel in isolation (prefilter disabled) ≡
    /// the model: what `ScanIndex` was before the plane existed.
    #[test]
    fn scalar_kernel_scan_index_matches_model((t, ka, _dim, ops) in index_case()) {
        check_against_model(
            ScanIndex::with_filter(t, ka, FilterConfig::disabled()),
            t, ka, &ops,
        );
    }

    /// The plane by its portable name (`FilterConfig::swar()`, the one
    /// word loop) ≡ the model: prefilter+verify can never disagree with
    /// the scalar path on any population, for any cell width (wide
    /// rings — including the `ka ≥ 2⁶³` i128-fallback class — must
    /// silently skip the plane).
    #[test]
    fn swar_kernel_scan_index_matches_model((t, ka, _dim, ops) in index_case()) {
        check_against_model(
            ScanIndex::with_filter(t, ka, FilterConfig::swar()),
            t, ka, &ops,
        );
    }

    /// The kernel's no-`%` cyclic test on canonical values agrees with
    /// `cyclic_close` on raw values — for every width class (including
    /// the `ka ≥ 2⁶³` ring whose subtraction must widen through i128)
    /// and every kernel: the plane by both its names, and scalar.
    /// Sixty-four copies of a one-dimensional sketch fill one plane
    /// group, so on narrow rings phase 1 decides which of them phase 2
    /// sees at all: a cell ruled out that should not be shows up as a
    /// miss.
    #[test]
    fn arena_kernel_agrees_with_cyclic_close(
        (t, ka) in ring_params(),
        a in any::<i64>(),
        b in any::<i64>(),
    ) {
        for filter in [
            FilterConfig::default(),
            FilterConfig::swar(),
            FilterConfig::disabled(),
        ] {
            let mut arena = fuzzy_id::core::SketchArena::with_filter(t, ka, filter);
            for _ in 0..64 {
                arena.push(&[a]);
            }
            prop_assert_eq!(
                arena.find_first(&[b]).is_some(),
                cyclic_close(a, b, t, ka),
                "kernel {} vs cyclic_close at a={}, b={}, t={}, ka={}",
                arena.filter_kernel(), a, b, t, ka
            );
        }
    }
}

/// Narrow rings biased toward the cell rule's edges: a cell is
/// `w = ⌈ka / 2^b⌉` residues, the last one short when `2^b ∤ ka`, so
/// rings at a byte's capacity (255/256/257) and the extremes (tiny,
/// paper, largest narrow) are where an off-by-one in the cell width,
/// the short cell or the window an arc leaves would first surface.
fn byte_edge_ring() -> impl Strategy<Value = u64> {
    (0u8..8, 2u64..(1 << 15)).prop_map(|(sel, rand_ka)| match sel {
        0 => 255,
        1 => 256,
        2 => 257,
        3 => 400,
        4 => (1 << 15) - 1,
        _ => rand_ka,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The cell plane ≡ the model across every cell-width class and
    /// kernel — on wide rings (i32/i64/i128 cells) and rings where no
    /// cell can be ruled out ([`NO_PLANE_RINGS`]
    /// among them), no plane is built and the scalar fallback must
    /// still agree.
    #[test]
    fn byte_plane_kernel_scan_index_matches_model((t, ka, _dim, ops) in index_case()) {
        for filter in [FilterConfig::default(), FilterConfig::swar()] {
            check_against_model(ScanIndex::with_filter(t, ka, filter), t, ka, &ops);
        }
    }

    /// Cell boundaries: coordinates pinned to cell edges (multiples of
    /// `w = ⌈ka / 2^b⌉`, ±1 — the short last cell's start and the
    /// ring's end among them) and to the ring wrap (`ka−1` wrapping to
    /// `0`), with thresholds on both sides of the cell rule —
    /// `t = ⌊ka/4⌋`, where the paper ring keeps 2 cell bits, and one
    /// more, where it keeps 3 — and the three [`NO_PLANE_RINGS`] beyond
    /// the last ring that gets a plane. One dimension and one full
    /// plane group make the plane the entire phase-1 decision: the
    /// plane under both its names and the no-plane fallback must all
    /// equal `cyclic_close`, exactly.
    #[test]
    fn byte_plane_bucket_edge_kernel_agrees_with_cyclic_close(
        ka in byte_edge_ring(),
        t_sel in 0usize..8,
        edge_a in 0u64..512,
        edge_b in 0u64..512,
        off_a in -1i64..=1,
        off_b in -1i64..=1,
    ) {
        let (t, ka) = match t_sel {
            0 => (ka / 4, ka),     // the paper ring's 2 cell bits
            1 => (ka / 4 + 1, ka), // one more: its 3
            2 => (ka / 2, ka),     // clamp regime: nothing to reject
            3 => (0, ka),          // exact-match-only
            4 => (ka / 8, ka),
            _ => NO_PLANE_RINGS[t_sel - 5],
        };
        // The ring's cell bits, as the plane's label reports them.
        let mut arena = fuzzy_id::core::SketchArena::new(t, ka);
        arena.push(&[0]);
        let bits: u32 = arena.plane_width().strip_prefix('b').map_or(0, |b| b.parse().unwrap());
        let w = ka.div_ceil(1 << bits);
        let edge = |k: u64, off: i64| ((k % ((1 << bits) + 1) * w) as i64 + off).rem_euclid(ka as i64);
        let (a, b) = (edge(edge_a, off_a), edge(edge_b, off_b));
        for filter in [FilterConfig::default(), FilterConfig::swar(), FilterConfig::disabled()] {
            let mut arena = fuzzy_id::core::SketchArena::with_filter(t, ka, filter);
            for _ in 0..64 {
                arena.push(&[a]);
            }
            prop_assert_eq!(
                arena.find_first(&[b]).is_some(),
                cyclic_close(a, b, t, ka),
                "{} plane ({} kernel) vs cyclic_close at a={}, b={}, t={}, ka={}, w={}",
                arena.plane_width(), arena.filter_kernel(), a, b, t, ka, w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plane pinned to depth `F = 8` ≡ the model on arbitrary
    /// populations. Together with `scan_index_matches_vec_of_vec_model`
    /// (which runs the default depth against the same model) this pins
    /// that plane depth only tunes prefilter selectivity — it can never
    /// change the match decision.
    #[test]
    fn fixed_depth_kernel_matches_model((t, ka, _dim, ops) in index_case()) {
        check_against_model(
            ScanIndex::with_filter(
                t, ka,
                FilterConfig::default().with_depth(PlaneDepth::Fixed(8)),
            ),
            t, ka, &ops,
        );
    }
}

/// A stored row reads back as the canonical residues of what was
/// pushed, on **every** narrow ring (`2 ≤ ka < 2¹⁵`): at the bucket
/// edges (`0`, `q − 1`, `q`, `ka − 1`), at the half ring where the
/// canonical sign flips (`±ka/2`, `ka/2 + 1` — the `−ka/2` a helper
/// patch is compared against), at the ends of `i64`, and at odd
/// dimensions (1, 3, 13) whose remainder bits end mid-byte.
#[test]
fn packed_rows_read_back_canonical_on_every_narrow_ring() {
    let canonical = |v: i64, ka: u64| -> i64 {
        let r = i128::from(v).rem_euclid(i128::from(ka));
        (if 2 * r > i128::from(ka) {
            r - i128::from(ka)
        } else {
            r
        }) as i64
    };
    for ka in 2u64..1 << 15 {
        let (q, half) = (ka.div_ceil(256) as i64, (ka / 2) as i64);
        let edges = [
            0,
            q - 1,
            q,
            ka as i64 - 1,
            half,
            -half,
            half + 1,
            i64::MIN,
            i64::MAX,
        ];
        for dim in [1usize, 3, 13] {
            let mut arena = fuzzy_id::core::SketchArena::new(ka / 4, ka);
            for start in 0..edges.len() {
                let sketch: Vec<i64> = (0..dim).map(|j| edges[(start + j) % edges.len()]).collect();
                let id = arena.push(&sketch);
                let want: Vec<i64> = sketch.iter().map(|&v| canonical(v, ka)).collect();
                assert_eq!(arena.row(id), Some(want), "ka={ka} dim={dim} {sketch:?}");
            }
        }
    }
}

/// A stored coordinate takes `max(8, ⌈log₂ ka⌉)` bits on every narrow
/// ring, and wherever the ring outgrows a byte (`ka ≥ 256`) that is
/// within one bit of Theorem 3's `log₂(ka + 1)` — read off
/// `SketchAnalysis::storage_bits` on every ring a number line can have
/// (`ka` even).
#[test]
fn packed_bits_per_coordinate_track_theorem_3() {
    use fuzzy_id::core::analysis::SketchAnalysis;
    use fuzzy_id::core::CellWidth;
    for ka in 2u64..1 << 15 {
        // Eight coordinates take as many bytes as one takes bits.
        let bits = CellWidth::row_bytes(ka, 8) as f64;
        let ring_bits = f64::from(u64::BITS - (ka - 1).leading_zeros());
        assert_eq!(bits, ring_bits.max(8.0), "ka = {ka}");
        if ka >= 256 {
            let paper = ((ka + 1) as f64).log2();
            assert!(
                (bits - paper).abs() < 1.0,
                "ka = {ka}: {bits} vs {paper:.2}"
            );
            if ka % 2 == 0 {
                let line = NumberLine::new(ka / 2, 2, 2).unwrap();
                let n = 64;
                let theorem = SketchAnalysis::new(line, 1, n).unwrap().storage_bits();
                let stored = 8.0 * CellWidth::row_bytes(ka, n) as f64;
                assert!((stored - theorem).abs() < n as f64, "ka = {ka}");
            }
        }
    }
}

/// `heap_bytes` accounting under enroll/revoke/compact churn: memory
/// tracks the live population (bounded under churn with compaction)
/// and the ring-adaptive layout (9 bits/coordinate at paper `ka`),
/// each sketch held once — the prefilter plane holds the 2 cell bits
/// of each of a row's 64 coordinates on the default index, and its row
/// column the 7 offset bits.
#[test]
fn heap_bytes_accounting_under_churn() {
    let (t, ka, dim) = (100u64, 400u64, 64usize);
    let mut index = ScanIndex::new(t, ka);
    for i in 0..1_000i64 {
        index.insert(&vec![i % 200; dim]);
    }
    let full = index.heap_bytes();
    // Packed rows: dim × 9 bits per row, row column and plane
    // together; the bitmap 1 bit per row; capacity slack stays below
    // one doubling.
    assert!(full >= 1_000 * dim * 9 / 8 + 1_000 / 8);
    assert!(
        full <= 2 * 1_000 * (dim * 9 / 8 + 1),
        "unexpected slack: {full}"
    );
    // A filtered index holds what a scalar one over the same rows
    // does — the plane is not a copy — and `reserve` pre-sizes it: a
    // pre-sized load must end exactly where it started, plane blocks
    // included.
    let mut scalar = ScanIndex::with_filter(t, ka, FilterConfig::disabled());
    let mut sized = ScanIndex::new(t, ka);
    scalar.reserve(1_000, dim);
    sized.reserve(1_000, dim);
    let reserved = sized.heap_bytes();
    for i in 0..1_000i64 {
        scalar.insert(&vec![i % 200; dim]);
        sized.insert(&vec![i % 200; dim]);
    }
    assert_eq!(
        sized.heap_bytes(),
        reserved,
        "reserve must pre-size the filter plane too"
    );
    // (The plane reserves whole 512-row blocks, 16 bytes a row, and
    // stages the open group's cells, a byte each: the open block's
    // words past the last row and those 64 × 64 bytes are the only
    // difference.)
    assert_eq!(
        sized.heap_bytes(),
        scalar.heap_bytes() + (1_000usize.div_ceil(512) * 512 - 1_000) * 16 + 64 * 64,
        "plane bytes unaccounted or held twice"
    );

    // Revocation alone reclaims nothing (tombstones keep their cells)…
    for id in 0..500 {
        index.remove(id);
    }
    assert_eq!(index.heap_bytes(), full);
    // …and compaction keeps the buffer (capacity is retained for reuse)
    // while halving the rows it holds.
    index.compact();
    assert_eq!(index.len(), 500);
    assert!(index.heap_bytes() <= full);

    // Sustained churn with periodic compaction stays bounded: memory is
    // proportional to the live population, not enrollments ever.
    let bound = index.heap_bytes().max(full);
    for round in 0..2_000i64 {
        let id = index.insert(&vec![round % 200; dim]);
        index.remove(id);
        if round % 64 == 0 {
            index.compact();
        }
        assert!(
            index.heap_bytes() <= 2 * bound,
            "heap grew unbounded under churn (round {round})"
        );
    }

    // The same sketches on a wide ring cost 40 bits a coordinate.
    let mut wide = fuzzy_id::core::SketchArena::new(t, 1 << 40);
    for i in 0..1_000i64 {
        wide.push(&vec![i % 200; dim]);
    }
    assert_eq!(fuzzy_id::core::CellWidth::row_bytes(1 << 40, 64), 320);
    assert!(wide.heap_bytes() >= 1_000 * 320);
}

/// `heap_bytes` accounting for the epoch engine: it must cover segment
/// cells *and* per-segment prefilter planes *and* tombstone words —
/// each exactly once, the head included, which the published snapshot
/// shares rather than copies — and stay bounded (proportional to the
/// live population) under sustained churn with maintenance and
/// compaction, even while a detached reader exists.
#[test]
fn epoch_heap_bytes_covers_segments_planes_and_garbage() {
    use fuzzy_id::core::EpochRead;

    let (t, ka, dim) = (100u64, 400u64, 64usize);
    // Tiny tiers: 1 000 rows spread over 15 sealed segments and a
    // 40-row head.
    let mut index = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 64);
    for i in 0..1_000i64 {
        index.insert(&vec![i % 200; dim]);
    }
    assert_eq!((index.segments().len(), index.staging_rows()), (15, 40));
    let full = index.heap_bytes();
    // Floor: every row once at 9 bits × dim — row column and plane
    // (2 cell bits of each coordinate at paper `ka`) together — and
    // the tombstone bitmap per row, across all tiers.
    // Ceiling: the same plus per-segment metadata and two segment
    // lists — under 300 B for each of the 16 tiers, 7% more, not a
    // multiple: nothing is held twice, and the head is charged for its
    // 40 rows, not for the 64 it has reserved.
    let floor = 1_000 * dim * 9 / 8 + 1_000 / 8;
    assert!(full >= floor);
    assert!(full <= floor + 16 * 300, "unexpected slack: {full}");

    // Segment metadata must be accounted: more segments over the same
    // rows cost more than one head holding them — which, reserved for
    // twice the rows it holds, is charged for those it holds.
    let mut monolith = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), 2_000);
    for i in 0..1_000i64 {
        monolith.insert(&vec![i % 200; dim]);
    }
    assert!(monolith.segments().is_empty());
    assert!((floor..full).contains(&monolith.heap_bytes()));

    let before_churn = index.heap_bytes();
    let _reader = index.reader();

    // Sustained churn: enroll + revoke + maintain + periodic compact
    // stays within a quarter of the quiescent footprint — the revoked
    // rows waiting in their tiers for the compaction that drops them.
    let bound = before_churn;
    for round in 0..2_000i64 {
        let id = index.insert(&vec![round % 200; dim]);
        index.remove(id);
        if round % 16 == 0 {
            index.maintain();
        }
        if round % 64 == 0 {
            index.compact();
        }
        assert!(
            index.heap_bytes() <= bound + bound / 4,
            "heap grew unbounded under churn (round {round})"
        );
    }
    index.compact();
    assert_eq!(index.len(), 1_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn-bounded memory, property form: for random seal thresholds
    /// and churn scripts, `heap_bytes` after `compact()` is what the
    /// live population takes — segment metadata and planes included —
    /// never a function of the enrollments ever made, nor of what the
    /// head has reserved.
    #[test]
    fn epoch_heap_bytes_bounded_by_live_population(
        seal_rows in 2usize..96,
        keep in 8usize..64,
        churn in 100usize..400,
        dim in 2usize..16,
    ) {
        use fuzzy_id::core::{EpochRead, IndexReader};

        let (t, ka) = (100u64, 400u64);
        let mut index = EpochIndex::with_seal_rows(t, ka, FilterConfig::default(), seal_rows);
        let reader = index.reader();
        for i in 0..keep {
            index.insert(&vec![i as i64 % 200; dim]);
        }
        for round in 0..churn {
            let id = index.insert(&vec![round as i64 % 200; dim]);
            index.remove(id);
            if round % 32 == 31 {
                index.maintain();
            }
        }
        index.compact();
        prop_assert_eq!(index.len(), keep);
        // Ceiling: every live row at 9 bits per coordinate, rounded up
        // (ka = 400), and up to 9 bytes of plane and tombstone words; and 400
        // bytes of metadata and list slots per tier, of which
        // compaction leaves one per `seal_rows` rows plus the head and
        // the index's own fixed part.
        let tiers = keep / seal_rows + 2;
        prop_assert!(
            index.heap_bytes() <= keep * (dim + dim.div_ceil(8) + 9) + 400 * tiers,
            "heap {} not bounded by live population ({} rows of {}, {} churned)",
            index.heap_bytes(), keep, dim, churn
        );
        // The detached reader still answers from the last publish.
        prop_assert_eq!(reader.find_first(&vec![0; dim]), index.find_first(&vec![0; dim]));
    }
}

// ---------------------------------------------------------------------
// The index row is the only copy of a record's sketch: every reader of
// the stored helper data must hand back exactly what was enrolled.
// ---------------------------------------------------------------------

mod helper_round_trip {
    use super::*;
    use fuzzy_id::core::index::store::canonical;
    use fuzzy_id::core::CellWidth;
    use fuzzy_id::crypto::dsa::DsaParams;
    use fuzzy_id::protocol::{
        AuthenticationServer, BiometricDevice, BuildIndex, EnrollmentRecord, FileStore,
        SystemParams,
    };
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DIM: usize = 8;
    const KA: i64 = 400;

    /// Sketch coordinates the arena cannot hold verbatim (`−ka/2`, which
    /// `Gen` really emits, and out-of-range values only a client could
    /// send) among ones it can.
    fn coordinate() -> impl Strategy<Value = i64> {
        (0u8..8, -(KA / 2 - 1)..KA / 2).prop_map(|(sel, ordinary)| match sel {
            0 => -KA / 2,
            1 => KA / 2,
            2 => KA / 2 + 1,
            3 => i64::MIN,
            _ => ordinary,
        })
    }

    /// Records with arbitrary (not necessarily honest) public fields:
    /// the server stores what it is sent.
    fn records() -> impl Strategy<Value = Vec<EnrollmentRecord>> {
        let bytes = |len| prop::collection::vec(any::<u8>(), len);
        let record = (
            prop::collection::vec(coordinate(), DIM..DIM + 1),
            bytes(1..40),
            bytes(0..40),
            bytes(0..40),
        );
        prop::collection::vec(record, 6..14).prop_map(|fields| {
            fields
                .into_iter()
                .enumerate()
                .map(|(u, (inner, public_key, tag, seed))| EnrollmentRecord {
                    id: format!("user-{u}"),
                    public_key,
                    helper: HelperData {
                        sketch: RobustData { inner, tag },
                        seed,
                    },
                })
                .collect()
        })
    }

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fe-helper-round-trip-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every reader of the stored helper data against the records that
    /// should be live, in enrollment order.
    fn assert_reads<I: SketchIndex>(
        server: &mut AuthenticationServer<I>,
        live: &[EnrollmentRecord],
    ) {
        let helpers: Vec<_> = live
            .iter()
            .map(|r| (r.id.clone(), r.helper.clone()))
            .collect();
        assert_eq!(server.all_helpers(), helpers);
        assert_eq!(server.live_enrollment_records(), live);
        let mut rng = StdRng::seed_from_u64(7);
        for record in live {
            // A record's own sketch is a probe at distance 0: the hit is
            // the earliest live record it matches.
            let probe = &record.helper.sketch.inner;
            let slot = server
                .find(probe, None, 1)
                .pop()
                .expect("a sketch matches itself");
            let hit = server.user_at(slot).unwrap().to_string();
            let challenge = server.begin_identification(probe, &mut rng).unwrap();
            let expected = live.iter().find(|r| r.id == hit).unwrap();
            assert_eq!(challenge.helper, expected.helper, "hit on {hit}");
            server.cancel_session(challenge.session);
            let challenge = server.begin_verification(&record.id, &mut rng).unwrap();
            assert_eq!(challenge.helper, record.helper, "claim of {}", record.id);
            server.cancel_session(challenge.session);
        }
    }

    fn reopen<I: BuildIndex>(
        mut server: AuthenticationServer<I>,
        params: &SystemParams,
        dir: &Path,
    ) -> AuthenticationServer<I> {
        server.checkpoint().unwrap();
        drop(server);
        AuthenticationServer::recover(params.clone(), dir).unwrap()
    }

    /// Enroll, checkpoint + recover, revoke, compact, enroll more,
    /// checkpoint + recover — reading everything back at every step.
    fn check<I: BuildIndex>(
        params: &SystemParams,
        index: I,
        records: &[EnrollmentRecord],
        revoke: &[usize],
    ) {
        let dir = temp_dir();
        let mut server = AuthenticationServer::with_index(params.clone(), index);
        let store = FileStore::open(&dir, params.fingerprint()).unwrap();
        server.attach_store(Box::new(store)).unwrap();

        let (early, late) = records.split_at(records.len() - 2);
        let mut live = early.to_vec();
        for record in early {
            server.enroll(record.clone()).unwrap();
        }
        assert_reads(&mut server, &live);
        let mut server = reopen(server, params, &dir);
        assert_reads(&mut server, &live);

        for pick in revoke {
            let gone = live.remove(pick % live.len());
            server.revoke(&gone.id).unwrap();
            assert_reads(&mut server, &live);
        }
        assert_eq!(server.compact(), revoke.len());
        assert_reads(&mut server, &live);
        for record in late {
            server.enroll(record.clone()).unwrap();
            live.push(record.clone());
        }
        assert_reads(&mut server, &live);
        let mut server = reopen(server, params, &dir);
        assert_reads(&mut server, &live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn every_reader_returns_the_enrolled_helper_byte_for_byte(
            records in records(),
            revoke in prop::collection::vec(any::<usize>(), 1..4),
        ) {
            let params = SystemParams::insecure_test_defaults();
            prop_assert_eq!(params.sketch().line().interval_len() as i64, KA);
            check(&params, ScanIndex::build(&params), &records, &revoke);
            check(&params, EpochIndex::build(&params), &records, &revoke);
            // A threshold this small seals within the first
            // enrollments, so the checkpoint is taken over sealed
            // segments.
            let t = params.sketch().threshold();
            let tiny = EpochIndex::with_seal_rows(t, KA as u64, params.filter_config(), 4);
            check(&params, tiny, &records, &revoke);
        }
    }

    /// A record block's length rule at its edges: patches at dimensions
    /// 0, 254, 255 and 299 of a 300-coordinate sketch (one byte, one
    /// byte, escaped, escaped), holding values far from any row and the
    /// common `−ka/2`, read back through revoke, `compact()` and recovery.
    #[test]
    fn patches_at_the_length_byte_edges_restore_byte_for_byte() {
        let params = SystemParams::insecure_test_defaults();
        let edges = [
            (0, i64::MIN),
            (254, i64::MAX),
            (255, KA / 2 + 1),
            (299, -KA / 2),
        ];
        let records: Vec<_> = (0..4i64)
            .map(|u| {
                let mut inner: Vec<i64> = (0..300)
                    .map(|x| (x * 37 + u * 11) % (KA - 1) - (KA / 2 - 1))
                    .collect();
                for (dim, value) in edges {
                    inner[dim] = value;
                }
                EnrollmentRecord {
                    id: format!("wide-{u}"),
                    public_key: vec![u as u8 + 1; 128],
                    helper: HelperData {
                        sketch: RobustData {
                            inner,
                            tag: vec![2; 32],
                        },
                        seed: vec![3; 32],
                    },
                }
            })
            .collect();
        check(&params, ScanIndex::build(&params), &records, &[0]);
        check(&params, EpochIndex::build(&params), &records, &[0]);
    }

    /// Test parameters on the ring `ka = 2a`, whose rows the index lays
    /// out as `width`.
    fn ring_params(a: u64, width: CellWidth) -> SystemParams {
        let line = NumberLine::new(a, 2, 2).unwrap();
        let sketch = ChebyshevSketch::new(line, 100).unwrap();
        let params = SystemParams::new(sketch, 32, DsaParams::insecure_512().clone());
        assert_eq!(CellWidth::for_ring(2 * a), width);
        params
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One patch rule, held to the decoder: a server patches a
        /// coordinate iff `canonical` folds it, and never decodes the
        /// row to find out — so on each row layout (the packed paper
        /// ring, an `i32` ring, an `i64` ring) the row every index type
        /// decodes must be `canonical` of what was inserted, and every
        /// reader must hand back the enrolled helper byte for byte.
        #[test]
        fn one_patch_rule_holds_to_the_decoder_on_every_row_layout(
            coordinates in prop::collection::vec(
                prop::collection::vec((0u8..8, any::<i64>()), DIM..DIM + 1),
                6..10,
            ),
            revoke in prop::collection::vec(any::<usize>(), 1..4),
        ) {
            let rings = [
                ring_params(200, CellWidth::Packed),
                ring_params(50_000, CellWidth::I32),
                ring_params(3_000_000_000, CellWidth::I64),
            ];
            for params in rings {
                let ka = params.sketch().line().interval_len();
                let half = (ka / 2) as i64;
                let records: Vec<EnrollmentRecord> = (coordinates.iter().enumerate())
                    .map(|(u, coordinates)| {
                        let inner = (coordinates.iter())
                            .map(|&(sel, raw)| match sel {
                                0 => i64::MIN,
                                1 => i64::MAX,
                                2 => half,
                                3 => -half,
                                4 => half + 1,
                                5 | 6 => raw,
                                _ => raw.rem_euclid(ka as i64) - half + 1,
                            })
                            .collect();
                        EnrollmentRecord {
                            id: format!("ring-{u}"),
                            public_key: vec![u as u8 + 1; 16],
                            helper: HelperData {
                                sketch: RobustData { inner, tag: vec![u as u8; 32] },
                                seed: vec![!(u as u8); 32],
                            },
                        }
                    })
                    .collect();
                let (mut scan, mut epoch) = (ScanIndex::build(&params), EpochIndex::build(&params));
                let mut decoded = Vec::new();
                for (id, record) in records.iter().enumerate() {
                    let sketch = &record.helper.sketch.inner;
                    let rule: Vec<i64> = sketch.iter().map(|&v| canonical(v, ka)).collect();
                    for index in [&mut scan as &mut dyn SketchIndex, &mut epoch] {
                        prop_assert_eq!(index.insert(sketch), id);
                        prop_assert!(index.copy_row_into(id, &mut decoded));
                        prop_assert_eq!(&decoded, &rule, "ka = {}", ka);
                    }
                }
                check(&params, ScanIndex::build(&params), &records, &revoke);
                check(&params, EpochIndex::build(&params), &records, &revoke);
            }
        }
    }

    /// `Gen` on a biometric with a coordinate on an interval boundary
    /// emits `+ka/2` or `−ka/2` on a coin flip, and the tag covers
    /// whichever it was: the login must succeed both ways.
    #[test]
    fn boundary_biometric_logs_in_on_either_coin_flip() {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut bio = params
            .sketch()
            .line()
            .random_vector(DIM, &mut StdRng::seed_from_u64(1));
        bio[3] = 2 * KA;
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let record = device.enroll("edge", &bio, &mut rng).unwrap();
            let flip = record.helper.sketch.inner[3];
            if !seen.insert(flip) {
                continue;
            }
            let mut server = AuthenticationServer::new(params.clone());
            server.enroll(record).unwrap();
            let reading: Vec<i64> = bio.iter().map(|&x| x + 5).collect();
            let probe = device.probe_sketch(&reading, &mut rng).unwrap();
            let challenge = server.begin_identification(&probe, &mut rng).unwrap();
            let response = device.respond(&reading, &challenge, &mut rng).unwrap();
            let outcome = server.finish_identification(&response).unwrap();
            assert_eq!(outcome.identity(), Some("edge"), "sketch coordinate {flip}");
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![-KA / 2, KA / 2]);
    }
}

// ---------------------------------------------------------------------
// The record table (byte arena + slot vector + id table) against a
// `HashMap` model, under ids and records chosen to hurt.
// ---------------------------------------------------------------------

mod record_table {
    use super::*;
    use fuzzy_id::protocol::{AuthenticationServer, EnrollmentRecord, ProtocolError, SystemParams};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DIM: usize = 4;
    /// The arena's chunk size: a block longer than this gets a chunk of
    /// its own.
    const CHUNK: usize = 1 << 20;

    /// The ids a case draws from: the empty id, a 70 000-byte one, ids
    /// that are prefixes of one another, ids equal except in the last
    /// byte, the id whose record outgrows a chunk, and enough ordinary
    /// ones for the id table to grow from 4 entries to 16 and wrap.
    fn id_pool() -> Vec<String> {
        let mut ids = vec![
            String::new(),
            "x".repeat(70_000),
            "a".into(),
            "ab".into(),
            "abc".into(),
            "user-0000".into(),
            "user-0001".into(),
            "big".into(),
        ];
        ids.extend((0..5).map(|u| format!("u{u}")));
        ids
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Enroll the pool's id `pick` with fields derived from `salt`:
        /// refused as a duplicate when the id is live.
        Enroll {
            pick: usize,
            salt: u8,
            inner: Vec<i64>,
        },
        Revoke {
            pick: usize,
        },
        Compact,
        /// `checkpoint()`, drop, `recover()`.
        Reopen,
    }

    fn op() -> impl Strategy<Value = Op> {
        // −200 reads back from the index as +200: a patched coordinate.
        let coordinate = (0u8..4, -199i64..=200)
            .prop_map(|(sel, ordinary)| if sel == 0 { -200 } else { ordinary });
        (
            0u8..12,
            any::<usize>(),
            any::<u8>(),
            prop::collection::vec(coordinate, DIM..DIM + 1),
        )
            .prop_map(|(kind, pick, salt, inner)| match kind {
                0..=5 => Op::Enroll { pick, salt, inner },
                6..=9 => Op::Revoke { pick },
                10 => Op::Compact,
                _ => Op::Reopen,
            })
    }

    fn record(id: &str, salt: u8, inner: Vec<i64>) -> EnrollmentRecord {
        // Mostly short, but each field also meets 254 and 255: the last
        // length a block spells in one byte, and the first it escapes.
        let len = |salt: u8| match salt % 40 {
            38 => 254,
            39 => 255,
            short => usize::from(short),
        };
        EnrollmentRecord {
            id: id.to_string(),
            public_key: vec![salt; len(salt).max(1)],
            helper: HelperData {
                sketch: RobustData {
                    inner,
                    tag: vec![!salt; len(salt ^ 1)],
                },
                seed: vec![
                    salt ^ 0x5a;
                    if id == "big" {
                        CHUNK + 1
                    } else {
                        len(salt ^ 2)
                    }
                ],
            },
        }
    }

    /// What the server must hold: the record of every live id, and
    /// which id each slot holds.
    #[derive(Default)]
    struct Model {
        records: HashMap<String, EnrollmentRecord>,
        slots: Vec<Option<String>>,
    }

    impl Model {
        fn compact(&mut self) {
            self.slots.retain(Option::is_some);
        }

        fn check(&self, server: &AuthenticationServer, pool: &[String]) {
            assert_eq!(server.user_count(), self.records.len());
            assert_eq!(server.record_slots(), self.slots.len());
            for (slot, id) in self.slots.iter().enumerate() {
                assert_eq!(server.user_at(slot), id.as_deref(), "slot {slot}");
            }
            assert_eq!(server.user_at(self.slots.len()), None);
            for id in pool {
                let slot = self.slots.iter().position(|s| s.as_ref() == Some(id));
                assert_eq!(server.slot_of(id), slot, "id of {} bytes", id.len());
                assert_eq!(server.is_enrolled(id), self.records.contains_key(id));
            }
            let helpers: Vec<_> = self
                .slots
                .iter()
                .flatten()
                .map(|id| (id.clone(), self.records[id].helper.clone()))
                .collect();
            assert_eq!(server.all_helpers(), helpers);
        }
    }

    fn run(ops: &[Op]) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fe-record-table-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::insecure_test_defaults();
        let pool = id_pool();
        let mut model = Model::default();
        let mut server: AuthenticationServer =
            AuthenticationServer::recover(params.clone(), &dir).unwrap();
        for op in ops {
            match op {
                Op::Enroll { pick, salt, inner } => {
                    let id = &pool[pick % pool.len()];
                    let record = record(id, *salt, inner.clone());
                    let outcome = server.enroll(record.clone());
                    if model.records.contains_key(id) {
                        assert_eq!(outcome, Err(ProtocolError::DuplicateUser(id.clone())));
                    } else {
                        assert_eq!(outcome, Ok(()));
                        model.records.insert(id.clone(), record);
                        model.slots.push(Some(id.clone()));
                    }
                }
                Op::Revoke { pick } => {
                    let id = &pool[pick % pool.len()];
                    let dead = server.dead_record_bytes();
                    let outcome = server.revoke(id);
                    if model.records.remove(id).is_some() {
                        assert_eq!(outcome, Ok(()));
                        let slot = model.slots.iter().position(|s| s.as_ref() == Some(id));
                        model.slots[slot.unwrap()] = None;
                        assert!(server.dead_record_bytes() > dead + id.len());
                    } else {
                        assert_eq!(outcome, Err(ProtocolError::UnknownUser(id.clone())));
                    }
                }
                Op::Compact => {
                    let dead = model.slots.iter().filter(|s| s.is_none()).count();
                    assert_eq!(server.compact(), dead);
                    model.compact();
                    assert_eq!(server.dead_record_bytes(), 0);
                }
                Op::Reopen => {
                    server.checkpoint().unwrap();
                    drop(server);
                    server = AuthenticationServer::recover(params.clone(), &dir).unwrap();
                    model.compact();
                    assert_eq!(server.dead_record_bytes(), 0);
                }
            }
            model.check(&server, &pool);
        }
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn record_table_matches_model(ops in prop::collection::vec(op(), 1..60)) {
            run(&ops);
        }
    }

    /// The case a random draw seldom reaches: every id of the pool live
    /// at once (the oversized record among ordinary ones), most revoked
    /// in an order that leaves holes on both sides of the big block,
    /// compacted, re-enrolled and recovered.
    #[test]
    fn record_table_matches_model_on_a_full_pool() {
        let enroll = |pick, salt| Op::Enroll {
            pick,
            salt,
            inner: vec![-200, 3, 200, -7],
        };
        let mut ops: Vec<Op> = (0..13).map(|pick| enroll(pick, pick as u8 * 7)).collect();
        ops.extend([1, 6, 8, 0, 12, 3].map(|pick| Op::Revoke { pick }));
        ops.push(Op::Compact);
        ops.extend([6, 0, 1].map(|pick| enroll(pick, 99)));
        ops.push(Op::Reopen);
        ops.push(Op::Revoke { pick: 7 });
        ops.push(enroll(7, 1));
        ops.push(Op::Reopen);
        run(&ops);
    }
}

/// One bounded lookup per layer, one answer: the arena (`ScanIndex`),
/// the epoch engine, its detached reader and the server over either
/// engine answer `find(probe, subset, budget)` with the ids a
/// brute-force `cyclic_close` scan of the live rows gives, and every
/// first-match batch with its probes' `find(p, None, 1)`.
mod one_lookup_per_layer {
    use super::*;
    use fuzzy_id::core::{EpochRead, IndexReader};
    use fuzzy_id::protocol::{AuthenticationServer, EnrollmentRecord, SystemParams};

    const DIM: usize = 4;
    const BUDGETS: [usize; 5] = [0, 1, 2, 3, usize::MAX];

    /// A probe or a row: a base biometric and a noise selector. Noise 0
    /// copies the base, so a base enrolled twice is a duplicate and
    /// budgets above 1 have several hits to bound.
    type Drawn = (usize, u8, u64);

    /// `base ± noise` per coordinate, `noise` one of 0, t/4, t/2 or 2t
    /// (the last can leave `t` of the base on any coordinate).
    fn draw(bases: &[Vec<i64>], (base, kind, seed): Drawn, t: i64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let spread = [0, t / 4, t / 2, 2 * t][usize::from(kind % 4)];
        bases[base % bases.len()]
            .iter()
            .map(|&v| {
                use rand::Rng;
                v + rng.gen_range(-spread..=spread)
            })
            .collect()
    }

    fn record(id: usize, sketch: Vec<i64>) -> EnrollmentRecord {
        EnrollmentRecord {
            id: format!("user-{id}"),
            public_key: vec![1],
            helper: HelperData {
                sketch: RobustData {
                    inner: sketch,
                    tag: vec![2],
                },
                seed: vec![3],
            },
        }
    }

    /// The subset a lookup is restricted to: none, the empty set, or
    /// ids drawn from past the last slot as well as below it, so it
    /// holds unknown ids, dead ids and repeats.
    fn subset(kind: u8, ids: &[usize]) -> Option<Vec<usize>> {
        match kind % 3 {
            0 => None,
            1 => Some(Vec::new()),
            _ => Some(ids.to_vec()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_layer_finds_what_cyclic_close_finds(
            bases in prop::collection::vec(prop::collection::vec(-200i64..=200, DIM..DIM + 1), 1..4),
            rows in prop::collection::vec((0usize..4, 0u8..4, any::<u64>()), 1..40),
            revoked in any::<u64>(),
            seal_rows in 1usize..=5,
            compact in any::<bool>(),
            probes in prop::collection::vec((0usize..4, 0u8..4, any::<u64>()), 1..8),
            subsets in prop::collection::vec(
                (0u8..3, prop::collection::vec(0usize..44, 0..24)),
                3..4,
            ),
        ) {
            let params = SystemParams::insecure_test_defaults();
            let (t, ka) = (params.sketch().threshold(), params.sketch().line().interval_len());
            let filter = params.filter_config();
            let mut arena = ScanIndex::with_filter(t, ka, filter);
            let mut epoch = EpochIndex::with_seal_rows(t, ka, filter, seal_rows);
            let reader = epoch.reader();
            let mut on_epoch = AuthenticationServer::with_index(
                params.clone(),
                EpochIndex::with_seal_rows(t, ka, filter, seal_rows),
            );
            let mut on_arena =
                AuthenticationServer::with_index(params.clone(), ScanIndex::with_filter(t, ka, filter));

            // The oracle: every enrolled row with its liveness, by id.
            let mut live: Vec<(usize, Vec<i64>)> = Vec::new();
            for (id, &row) in rows.iter().enumerate() {
                let sketch = draw(&bases, row, t as i64);
                prop_assert_eq!(arena.insert(&sketch), id);
                prop_assert_eq!(epoch.insert(&sketch), id);
                on_epoch.enroll(record(id, sketch.clone())).unwrap();
                on_arena.enroll(record(id, sketch.clone())).unwrap();
                live.push((id, sketch));
            }
            for id in (0..rows.len().min(64)).filter(|id| revoked & (1 << id) != 0) {
                prop_assert!(SketchIndex::remove(&mut arena, id));
                prop_assert!(epoch.remove(id));
                on_epoch.revoke(&format!("user-{id}")).unwrap();
                on_arena.revoke(&format!("user-{id}")).unwrap();
                live.retain(|(live_id, _)| *live_id != id);
            }
            if compact {
                let mapping: Vec<(usize, usize)> =
                    live.iter().enumerate().map(|(new, (old, _))| (*old, new)).collect();
                prop_assert_eq!(arena.compact(), mapping.clone());
                prop_assert_eq!(epoch.compact(), mapping);
                on_epoch.compact();
                on_arena.compact();
                live.iter_mut().enumerate().for_each(|(new, (id, _))| *id = new);
            }

            let mut probes: Vec<Vec<i64>> =
                probes.into_iter().map(|p| draw(&bases, p, t as i64)).collect();
            probes.push(vec![0; DIM + 1]);
            for probe in &probes {
                for (kind, ids) in &subsets {
                    let subset = subset(*kind, ids);
                    let subset = subset.as_deref();
                    for budget in BUDGETS {
                        let want: Vec<usize> = live
                            .iter()
                            .filter(|(id, _)| subset.is_none_or(|s| s.contains(id)))
                            .filter(|(_, row)| {
                                probe.len() == DIM
                                    && row.iter().zip(probe).all(|(&a, &b)| cyclic_close(a, b, t, ka))
                            })
                            .map(|(id, _)| *id)
                            .take(budget)
                            .collect();
                        let at = format!("subset {subset:?} budget {budget}");
                        prop_assert_eq!(&arena.find(probe, subset, budget), &want, "arena {}", at);
                        prop_assert_eq!(&epoch.find(probe, subset, budget), &want, "epoch {}", at);
                        prop_assert_eq!(&reader.find(probe, subset, budget), &want, "reader {}", at);
                        prop_assert_eq!(&on_epoch.find(probe, subset, budget), &want, "server {}", at);
                        prop_assert_eq!(&on_arena.find(probe, subset, budget), &want, "server {}", at);
                    }
                }
            }
            let firsts = |find: &dyn Fn(&[i64]) -> Vec<usize>| -> Vec<Option<usize>> {
                probes.iter().map(|p| find(p).first().copied()).collect()
            };
            prop_assert_eq!(arena.find_first_batch(&probes), firsts(&|p| arena.find(p, None, 1)));
            prop_assert_eq!(epoch.find_first_batch(&probes), firsts(&|p| epoch.find(p, None, 1)));
            prop_assert_eq!(reader.find_first_batch(&probes), firsts(&|p| reader.find(p, None, 1)));
            prop_assert_eq!(
                on_epoch.find_first_batch(&probes),
                firsts(&|p| on_epoch.find(p, None, 1))
            );
            prop_assert_eq!(
                on_arena.find_first_batch(&probes),
                firsts(&|p| on_arena.find(p, None, 1))
            );
        }
    }
}
