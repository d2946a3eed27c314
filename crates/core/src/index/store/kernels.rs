//! The AVX-512 bodies of an enroll's two coordinate loops — `SS`'s
//! residues ([`avx512::sketch_offsets`]) and the packed-row encode
//! ([`avx512::encode_packed`]): the crate's `unsafe`, together with the
//! `shared` buffer. Phase 1 has no body here: its one word loop is safe
//! code in `plane` ([`PlaneView::survivors`](super::plane::PlaneView::survivors)),
//! on every target.
//!
//! Both bodies have the same safety argument: the safe entry point
//! asserts `available()`, then makes its one `unsafe` call into the
//! `#[target_feature]` function. Inside, the only other `unsafe` is a
//! raw load or store the slice it came from bounds — masked to that
//! slice's lanes where it can be shorter than a vector — and `SS`'s
//! `set_len` on a `Vec` whose every lane it has stored. The `unsafe`
//! blocks outside tests are seven: the two calls, `load8`'s two loads,
//! `store8`'s two stores and the `set_len`.

/// Eight coordinates a step, the two loops an enroll runs over its
/// sketch: `SS`'s residues and the packed-row encode. Uses only
/// `avx512f` + `avx512bw` (and the encode BMI2's `pext`), so it runs on
/// every AVX-512 server core back to Skylake-SP. Each loop checks its
/// fast range once, after its last chunk. Nothing has drawn from an
/// rng or been published by then, so a sketch with a coordinate off the
/// range is simply redone by the caller's scalar loop (DESIGN.md "Ring
/// arithmetic").
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx512 {
    use super::super::cells::Pile;
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epu64_mask,
        _mm512_cvtepi64_epi16, _mm512_cvtepi64_epi8, _mm512_loadu_si512, _mm512_mask_blend_epi64,
        _mm512_mask_cmpeq_epi64_mask, _mm512_mask_storeu_epi64, _mm512_maskz_add_epi64,
        _mm512_maskz_loadu_epi64, _mm512_max_epu64, _mm512_mul_epu32, _mm512_or_si512,
        _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srai_epi64,
        _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _mm512_test_epi64_mask,
        _mm_cvtsi128_si64, _mm_extract_epi64, _pext_u64,
    };
    use std::mem::MaybeUninit;

    /// `true` once per process: does this CPU have the foundation +
    /// byte/word AVX-512 subsets the loops need, and the BMI2 the
    /// packed-row encode packs fields with (`pext`; every AVX-512 core
    /// has it)?
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("bmi2")
    }

    /// Up to eight coordinates, one a lane, lanes past the chunk 0: a
    /// full chunk by a plain load, a short one by a masked one.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load8(xs: &[i64]) -> __m512i {
        if let Ok(xs) = <&[i64; 8]>::try_from(xs) {
            // SAFETY: the array spans exactly the 64 bytes read.
            unsafe { _mm512_loadu_si512(xs.as_ptr().cast()) }
        } else {
            assert!(xs.len() < 8);
            // SAFETY: the mask reads the chunk's lanes and no more.
            unsafe { _mm512_maskz_loadu_epi64(lanes(xs.len()), xs.as_ptr()) }
        }
    }

    /// Writes a chunk's lanes of `v` to it: a full chunk by a plain
    /// store, a short one by a masked one.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn store8(os: &mut [MaybeUninit<i64>], v: __m512i) {
        if let Ok(os) = <&mut [MaybeUninit<i64>; 8]>::try_from(&mut *os) {
            // SAFETY: the array spans exactly the 64 bytes written.
            unsafe { _mm512_storeu_si512(os.as_mut_ptr().cast(), v) }
        } else {
            assert!(os.len() < 8);
            // SAFETY: the mask writes the chunk's lanes and no more.
            unsafe { _mm512_mask_storeu_epi64(os.as_mut_ptr().cast(), lanes(os.len()), v) }
        }
    }

    /// The mask of a chunk's `len ≤ 8` lanes.
    fn lanes(len: usize) -> u8 {
        ((1u16 << len) - 1) as u8
    }

    /// `ka/2 − (x + kav) mod ka` for every coordinate `x` of `input` —
    /// `SS`'s movement for every point but a boundary's — by the
    /// reciprocal `ka_inv = ⌈2⁶⁴/ka⌉`, bit for bit what
    /// `NumberLine::interval_offset` returns, and whether any residue
    /// was 0; `None` when some `x + kav` is past `2³²`, where the
    /// 32-bit reciprocal is not exact.
    ///
    /// # Panics
    /// Panics when AVX-512 is unavailable, or when `ka` is not in
    /// `[2, 2³²)`.
    pub fn sketch_offsets(
        input: &[i64],
        period: u64,
        ka: u64,
        ka_inv: u64,
    ) -> Option<(Vec<i64>, bool)> {
        assert!(available(), "AVX-512 kernel dispatched without AVX-512");
        assert!(
            (2..1 << 32).contains(&ka),
            "the 32-bit reciprocal needs 2 ≤ ka < 2³²"
        );
        // SAFETY: the avx512f/avx512bw target features were just
        // verified above.
        unsafe { sketch_offsets_avx512(input, period, ka, ka_inv) }
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    fn sketch_offsets_avx512(
        input: &[i64],
        period: u64,
        ka: u64,
        ka_inv: u64,
    ) -> Option<(Vec<i64>, bool)> {
        let period = _mm512_set1_epi64(period as i64);
        let ka_v = _mm512_set1_epi64(ka as i64);
        let half = _mm512_set1_epi64((ka / 2) as i64);
        // `vpmuludq` multiplies the low 32 bits of each lane: the
        // reciprocal goes in as its two halves.
        let (inv_lo, inv_hi) = (
            _mm512_set1_epi64(ka_inv as u32 as i64),
            _mm512_set1_epi64((ka_inv >> 32) as i64),
        );
        // The OR of every `x + kav`: its high half is 0 exactly when
        // each of theirs is. A lane past the chunk adds nothing.
        let (mut far, mut boundary) = (_mm512_setzero_si512(), 0);
        let mut out = Vec::with_capacity(input.len());
        let spare = &mut out.spare_capacity_mut()[..input.len()];
        for (xs, os) in input.chunks(8).zip(spare.chunks_mut(8)) {
            let k = lanes(xs.len());
            let n = _mm512_maskz_add_epi64(k, load8(xs), period);
            far = _mm512_or_si512(far, n);
            // `low = ka_inv · n mod 2⁶⁴`, from `n < 2³²`'s two products.
            let low = _mm512_add_epi64(
                _mm512_mul_epu32(inv_lo, n),
                _mm512_slli_epi64::<32>(_mm512_mul_epu32(inv_hi, n)),
            );
            // `r = ⌊low · ka / 2⁶⁴⌋` a 32-bit half of `low` at a time:
            // `(hi·ka + ⌊lo·ka / 2³²⌋) / 2³²`, whose sum stays below
            // `2⁶⁴` for `ka < 2³²`.
            let r = _mm512_srli_epi64::<32>(_mm512_add_epi64(
                _mm512_mul_epu32(_mm512_srli_epi64::<32>(low), ka_v),
                _mm512_srli_epi64::<32>(_mm512_mul_epu32(low, ka_v)),
            ));
            boundary |= _mm512_mask_cmpeq_epi64_mask(k, r, _mm512_setzero_si512());
            store8(os, _mm512_sub_epi64(half, r));
        }
        let far = _mm512_srli_epi64::<32>(far);
        if _mm512_test_epi64_mask(far, far) != 0 {
            return None;
        }
        // SAFETY: every chunk's store wrote each of its lanes, and the
        // chunks cover the first `input.len()` elements.
        unsafe { out.set_len(input.len()) };
        Some((out, boundary != 0))
    }

    /// What [`encode_packed`] needs of a packed layout: the ring, the
    /// cell width and its reciprocal `⌈2³¹/w⌉`, the bits of a whole
    /// residue and of an offset, and how many leading coordinates are
    /// split into cell and offset.
    #[derive(Debug, Clone, Copy)]
    pub struct Split {
        pub ka: u64,
        pub w: u64,
        pub magic: u64,
        pub bits: u32,
        pub offset_bits: u32,
        pub lead: usize,
    }

    /// The packed row of `sketch`, as `Packed::encode_scalar` lays it
    /// out — the cells of the first `split.lead` coordinates into
    /// `cells`, and the bit stream of their offsets and the residues
    /// after them into `row` — by the same residue fold and the same
    /// multiply-shift; `false`, with both written but meaningless, when
    /// a coordinate lies outside `[−ka, ka)`, whose residue takes a
    /// divide, and without writing either on a ring of `ka ≥ 2¹⁵`,
    /// where a field outgrows its 16-bit lane and the multiply-shift
    /// its exact range.
    ///
    /// # Panics
    /// Panics when AVX-512 or BMI2 is unavailable, or when `cells` or
    /// `row` is too short for the row.
    pub fn encode_packed(split: Split, sketch: &[i64], cells: &mut [u8], row: &mut [u8]) -> bool {
        assert!(available(), "AVX-512 kernel dispatched without AVX-512");
        if split.ka >= 1 << 15 {
            return false;
        }
        // SAFETY: the avx512f/avx512bw/bmi2 target features were just
        // verified above.
        unsafe { encode_packed_avx512(split, sketch, cells, row) }
    }

    #[target_feature(enable = "avx512f,avx512bw,bmi2")]
    fn encode_packed_avx512(
        split: Split,
        sketch: &[i64],
        cells: &mut [u8],
        row: &mut [u8],
    ) -> bool {
        let ka = _mm512_set1_epi64(split.ka as i64);
        let (w, magic) = (
            _mm512_set1_epi64(split.w as i64),
            _mm512_set1_epi64(split.magic as i64),
        );
        let mut high = _mm512_setzero_si512();
        let mut pile = Pile::new(row);
        // Whole chunks of offsets that fit a byte — all eight of the
        // paper ring's, at 7 bits — go first: eight byte lanes, one
        // `pext` a chunk, and none of the per-lane choices below, which
        // took half the encode's time at dimension 64.
        let whole = match split.offset_bits {
            0..=8 => split.lead.min(sketch.len()) / 8,
            _ => 0,
        };
        let (head, tail) = sketch.split_at(8 * whole);
        let bytes = 0x0101_0101_0101_0101 * ((1 << split.offset_bits.min(8)) - 1);
        for (vs, cs) in head.chunks_exact(8).zip(cells.chunks_exact_mut(8)) {
            let [v, cell, offset] = split8(load8(vs), ka, w, magic);
            high = _mm512_max_epu64(high, v);
            pile.push(_pext_u64(low_bytes(offset), bytes), 8 * split.offset_bits);
            cs.copy_from_slice(&low_bytes(cell).to_le_bytes());
        }
        // The rest in 16-bit lanes: the `pext` masks of four lanes of
        // fields, `widths[i]` low bits of lane `i` — one multiply where
        // the widths are equal.
        let masks = |widths: [u32; 8]| {
            let half = |w: &[u32]| (0..4).fold(0u64, |m, i| m | ((1 << w[i]) - 1) << (16 * i));
            [half(&widths[..4]), half(&widths[4..])]
        };
        let even = |width: u32| [0x0001_0001_0001_0001 * ((1 << width) - 1); 2];
        let (offsets, residues) = (even(split.offset_bits), even(split.bits));
        for (c, vs) in (whole..).zip(tail.chunks(8)) {
            let [v, cell, offset] = split8(load8(vs), ka, w, magic);
            high = _mm512_max_epu64(high, v);
            // Lanes below `lead` keep the offset, the rest the residue,
            // lanes past the chunk nothing.
            let lead = split.lead.saturating_sub(8 * c).min(vs.len());
            let field = _mm512_mask_blend_epi64(lanes(lead), v, offset);
            let mask = match (lead, vs.len()) {
                (8, _) => offsets,
                (0, 8) => residues,
                _ => masks(std::array::from_fn(|i| match i {
                    _ if i < lead => split.offset_bits,
                    _ if i < vs.len() => split.bits,
                    _ => 0,
                })),
            };
            // Each field is below 2¹⁵: 16-bit lanes, `pext`ed four at
            // a time into the stream.
            let fields = _mm512_cvtepi64_epi16(field);
            let words = [_mm_cvtsi128_si64(fields), _mm_extract_epi64::<1>(fields)];
            for (word, mask) in words.into_iter().zip(mask) {
                pile.push(_pext_u64(word as u64, mask), mask.count_ones());
            }
            if lead > 0 {
                cells[8 * c..8 * c + lead].copy_from_slice(&low_bytes(cell).to_le_bytes()[..lead]);
            }
        }
        pile.finish();
        _mm512_cmpge_epu64_mask(high, ka) == 0
    }

    /// A chunk's residues of `[−ka, ka)` (of the rest, values `≥ ka`),
    /// their cells by the multiply-shift `magic = ⌈2³¹/w⌉`, and their
    /// offsets in the cells.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn split8(v: __m512i, ka: __m512i, w: __m512i, magic: __m512i) -> [__m512i; 3] {
        // `v + ka` below zero, `v` above: the residue of `[−ka, ka)`.
        let v = _mm512_add_epi64(v, _mm512_and_si512(ka, _mm512_srai_epi64::<63>(v)));
        let cell = _mm512_srli_epi64::<31>(_mm512_mul_epu32(v, magic));
        [v, cell, _mm512_sub_epi64(v, _mm512_mul_epu32(cell, w))]
    }

    /// The low byte of each lane, lane 0 lowest.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn low_bytes(v: __m512i) -> u64 {
        _mm_cvtsi128_si64(_mm512_cvtepi64_epi8(v)) as u64
    }
}
