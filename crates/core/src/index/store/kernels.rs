//! The isolated SIMD prefilter backends (AVX2 and AVX-512), the
//! phase-2 software prefetch, and the AVX-512 bodies of an enroll's two
//! coordinate loops — `SS`'s residues ([`avx512::sketch_offsets`]) and
//! the packed-row encode ([`avx512::encode_packed`]): the crate's
//! `unsafe`, together with the `shared` buffer.
//!
//! Every SIMD body has the same safety argument: the safe entry point
//! asserts `available()`, then makes its one `unsafe` call into the
//! `#[target_feature]` function. Inside, the only other `unsafe` is a
//! raw load or store the slice it came from bounds — masked to that
//! slice's lanes where it can be shorter than a vector — and `SS`'s
//! `set_len` on a `Vec` whose every lane it has stored.
//!
//! A kernel reads one complete plane group, whose words are atomics
//! only because the open group is still being stored to (the `shared`
//! module docs): a complete one is never stored to again, so the
//! kernels load it through the slice's pointer.
//!
//! Runtime CPU detection is the only thing that picks among them: on
//! x86-64 AVX-512, then AVX2, then the portable SWAR kernel in
//! `plane`; every other target runs SWAR.

/// The vector kernel actually chosen for a scan, after runtime feature
/// detection resolved [`FilterKernel::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ActiveKernel {
    Swar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The AVX2 prefilter kernel, one of the crate's two isolated
/// `unsafe` ISA modules (see also [`avx512`]): the
/// intrinsic body is safe inside the `#[target_feature]` function but
/// for one raw load, bounds-checked by a slice first, and the one
/// `unsafe` call site is guarded by an `is_x86_feature_detected!`
/// assertion, so the target-feature contract can never be violated.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(super) mod avx2 {
    use super::super::plane::GROUP_WORDS;
    use std::arch::x86_64::{
        _mm256_and_si256, _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_min_epu8,
        _mm256_movemask_epi8, _mm256_or_si256, _mm256_set1_epi8, _mm256_setzero_si256,
        _mm256_sub_epi8, _mm256_subs_epu8, _mm256_testz_si256,
    };
    use std::sync::atomic::AtomicU64;

    /// `true` once per process: does this CPU have AVX2?
    pub fn available() -> bool {
        // `is_x86_feature_detected!` caches in a relaxed atomic, so
        // per-call cost is a load and a branch.
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Prefilters 32 rows (words `wi .. wi+4` of every lane of one
    /// plane group) against a probe's bucket values, returning one bit
    /// per passing row: the byte-granular `movemask` is the row mask
    /// directly.
    ///
    /// # Panics
    /// Panics when AVX2 is unavailable — which makes the inner
    /// `unsafe` call sound unconditionally.
    pub fn quad(group: &[AtomicU64], biased: &[u16], tq: u16, kq: u16, wi: usize) -> u32 {
        assert!(available(), "AVX2 kernel dispatched without AVX2");
        // SAFETY: the avx2 target feature was just verified above.
        unsafe { quad_avx2(group, biased, tq, kq, wi) }
    }

    #[target_feature(enable = "avx2")]
    fn quad_avx2(group: &[AtomicU64], biased: &[u16], tq: u16, kq: u16, wi: usize) -> u32 {
        let zero = _mm256_setzero_si256();
        let tv = _mm256_set1_epi8(tq as i8);
        // The bucket count is ≤ 256; 256 wraps to 0, which is still
        // correct below: only d = 0 reaches the wrapped lane (buckets
        // are < kq, so d ≤ kq − 1), and d = 0 always passes.
        let kv = _mm256_set1_epi8(kq as u8 as i8);
        let mut acc = _mm256_set1_epi8(-1);
        for (lane, &pb) in group.chunks_exact(GROUP_WORDS).zip(biased) {
            // 32 rows of this dimension: 4 packed u64 words, 8 bucket
            // bytes each. Little-endian byte order matches `movemask`
            // bit order.
            let words = &lane[wi..wi + 4];
            // SAFETY: the bounds-checked slice above spans exactly the
            // 32 bytes the unaligned load reads, of a complete group
            // nothing stores to (module docs).
            let v = unsafe { _mm256_loadu_si256(words.as_ptr().cast()) };
            let p = _mm256_set1_epi8(pb as u8 as i8);
            // |a − b| on unsigned buckets: one of the saturating
            // differences is zero, the other the distance.
            let diff = _mm256_or_si256(_mm256_subs_epu8(v, p), _mm256_subs_epu8(p, v));
            // Cyclic distance min(d, kq − d), then d ≤ tq ⟺ the
            // saturating d − tq is 0.
            let cyc = _mm256_min_epu8(diff, _mm256_sub_epi8(kv, diff));
            let pass = _mm256_cmpeq_epi8(_mm256_subs_epu8(cyc, tv), zero);
            acc = _mm256_and_si256(acc, pass);
            if _mm256_testz_si256(acc, acc) == 1 {
                return 0;
            }
        }
        _mm256_movemask_epi8(acc) as u32
    }
}

/// The AVX-512 prefilter kernel: 64 rows per iteration (the 8
/// contiguous packed `u64` words of one lane per 512-bit load — one
/// whole liveness block), with native `__mmask64` comparison results instead of
/// AVX2's movemask. Uses only `avx512f` + `avx512bw` — no VBMI — so it
/// runs on every AVX-512 server core back to Skylake-SP. Isolated
/// `unsafe`, same soundness argument as [`avx2`]: the dispatch is gated
/// on runtime detection, and the one raw load is bounds-checked by a
/// slice first.
///
/// Beside it, eight coordinates a step, the two loops an enroll runs
/// over its sketch: `SS`'s residues and the packed-row encode. Each
/// checks its fast range once, after its last chunk. Nothing has drawn
/// from an rng or been published by then, so a sketch with a
/// coordinate off the range is simply redone by the caller's scalar
/// loop (DESIGN.md "Ring arithmetic").
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx512 {
    use super::super::plane::GROUP_WORDS;
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epu64_mask, _mm512_cvtepi64_epi8,
        _mm512_loadu_si512, _mm512_mask_cmpeq_epi64_mask, _mm512_mask_storeu_epi64,
        _mm512_maskz_add_epi64, _mm512_maskz_loadu_epi64, _mm512_max_epu64, _mm512_min_epu8,
        _mm512_mul_epu32, _mm512_or_si512, _mm512_set1_epi64, _mm512_set1_epi8,
        _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srai_epi64, _mm512_srli_epi64,
        _mm512_storeu_si512, _mm512_sub_epi64, _mm512_sub_epi8, _mm512_subs_epu8,
        _mm512_test_epi64_mask, _mm_cvtsi128_si64, _pext_u64,
    };
    use std::mem::MaybeUninit;
    use std::sync::atomic::AtomicU64;

    /// `true` once per process: does this CPU have the foundation +
    /// byte/word AVX-512 subsets the kernels need, and the BMI2 the
    /// packed-row encode packs remainders with (`pext`; every AVX-512
    /// core has it)?
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("bmi2")
    }

    /// Prefilters 64 rows (every lane of one plane group) against a
    /// probe's bucket values, returning one bit per passing row: a
    /// whole 64-row liveness block's candidate mask from one
    /// `cmple_epu8` per dimension.
    ///
    /// # Panics
    /// Panics when AVX-512 is unavailable — which makes the inner
    /// `unsafe` call sound unconditionally.
    pub fn octo(group: &[AtomicU64], biased: &[u16], tq: u16, kq: u16) -> u64 {
        assert!(available(), "AVX-512 kernel dispatched without AVX-512");
        // SAFETY: the avx512f/avx512bw target features were just
        // verified above.
        unsafe { octo_avx512(group, biased, tq, kq) }
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    fn octo_avx512(group: &[AtomicU64], biased: &[u16], tq: u16, kq: u16) -> u64 {
        let tv = _mm512_set1_epi8(tq as i8);
        // Bucket count ≤ 256; 256 wraps to 0, reached only by d = 0,
        // which passes regardless (see the AVX2 kernel).
        let kv = _mm512_set1_epi8(kq as u8 as i8);
        let mut acc: u64 = !0;
        for (lane, &pb) in group.chunks_exact(GROUP_WORDS).zip(biased) {
            // 64 rows of this dimension: 8 packed u64 words, 8 bucket
            // bytes each, contiguous in the lane. Little-endian element
            // order matches the mask bit order.
            let words = &lane[..8];
            // SAFETY: the bounds-checked slice above spans exactly the
            // 64 bytes the unaligned load reads, of a complete group
            // nothing stores to (module docs).
            let v = unsafe { _mm512_loadu_si512(words.as_ptr().cast()) };
            let p = _mm512_set1_epi8(pb as u8 as i8);
            // Same lane algebra as the AVX2 kernel, with native mask
            // registers for the ≤ comparison.
            let diff = _mm512_or_si512(_mm512_subs_epu8(v, p), _mm512_subs_epu8(p, v));
            let cyc = _mm512_min_epu8(diff, _mm512_sub_epi8(kv, diff));
            acc &= std::arch::x86_64::_mm512_cmple_epu8_mask(cyc, tv);
            if acc == 0 {
                return 0;
            }
        }
        acc
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

    /// The packed row of `sketch` into `out`, as `Packed::encode`
    /// lays it out — `dim` bucket bytes, then `rbits` remainder bytes
    /// for every eight coordinates — by the same residue fold and the
    /// same multiply-shift `magic = ⌈2²⁴/q⌉`; `false`, with `out`
    /// written but meaningless, when a coordinate lies outside
    /// `[−ka, ka)`, whose residue takes a divide.
    ///
    /// # Panics
    /// Panics when AVX-512 or BMI2 is unavailable, or when `out` is too
    /// short for the row.
    pub fn encode_packed(
        sketch: &[i64],
        out: &mut [u8],
        ka: u32,
        q: u32,
        magic: u64,
        rbits: usize,
    ) -> bool {
        assert!(available(), "AVX-512 kernel dispatched without AVX-512");
        // SAFETY: the avx512f/avx512bw/bmi2 target features were just
        // verified above.
        unsafe { encode_packed_avx512(sketch, out, ka, q, magic, rbits) }
    }

    #[target_feature(enable = "avx512f,avx512bw,bmi2")]
    fn encode_packed_avx512(
        sketch: &[i64],
        out: &mut [u8],
        ka: u32,
        q: u32,
        magic: u64,
        rbits: usize,
    ) -> bool {
        let (buckets, rems) = out.split_at_mut(sketch.len());
        let ka = _mm512_set1_epi64(i64::from(ka));
        let (q, magic) = (
            _mm512_set1_epi64(i64::from(q)),
            _mm512_set1_epi64(magic as i64),
        );
        // A chunk's remainders, narrowed to a byte each, are the low
        // `rbits` bits of each byte.
        let fields = 0x0101_0101_0101_0101 * ((1 << rbits) - 1);
        let mut high = _mm512_setzero_si512();
        let mut chunk = |vs: &[i64]| {
            let (v, buckets, word) = encode8(load8(vs), ka, q, magic, fields);
            high = _mm512_max_epu64(high, v);
            (buckets, word)
        };
        // Chunk words pile up, `8 · rbits` bits each, and leave eight
        // whole bytes at a time.
        let (mut pile, mut bits) = (0u128, 0);
        let mut whole = rems.chunks_exact_mut(8);
        let mut push = |word: u64, bytes: usize| {
            pile |= u128::from(word) << bits;
            bits += 8 * bytes;
            if bits >= 64 {
                let eight = whole.next().expect("the row holds every chunk's bytes");
                eight.copy_from_slice(&(pile as u64).to_le_bytes());
                (pile, bits) = (pile >> 64, bits - 64);
            }
        };
        let (mut vs, mut bs) = (sketch.chunks_exact(8), buckets.chunks_exact_mut(8));
        for (vs, bs) in vs.by_ref().zip(bs.by_ref()) {
            let (buckets, word) = chunk(vs);
            bs.copy_from_slice(&buckets);
            push(word, rbits);
        }
        let (vs, bs) = (vs.remainder(), bs.into_remainder());
        if !vs.is_empty() {
            let (buckets, word) = chunk(vs);
            bs.copy_from_slice(&buckets[..vs.len()]);
            push(word, (vs.len() * rbits).div_ceil(8));
        }
        let tail = whole.into_remainder();
        tail.copy_from_slice(&(pile as u64).to_le_bytes()[..tail.len()]);
        _mm512_cmpge_epu64_mask(high, ka) == 0
    }

    /// One chunk of a packed row: the residues of `[−ka, ka)`'s
    /// coordinates (of the rest, values `≥ ka`), the chunk's bucket
    /// bytes, and its remainders packed `rbits` bits each. A lane past
    /// the chunk holds 0 and adds nothing.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,bmi2")]
    fn encode8(
        v: __m512i,
        ka: __m512i,
        q: __m512i,
        magic: __m512i,
        fields: u64,
    ) -> (__m512i, [u8; 8], u64) {
        // `v + ka` below zero, `v` above: the residue of `[−ka, ka)`.
        let v = _mm512_add_epi64(v, _mm512_and_si512(ka, _mm512_srai_epi64::<63>(v)));
        let bucket = _mm512_srli_epi64::<24>(_mm512_mul_epu32(v, magic));
        let buckets = _mm_cvtsi128_si64(_mm512_cvtepi64_epi8(bucket)) as u64;
        let rem = _mm512_sub_epi64(v, _mm512_mul_epu32(bucket, q));
        let rems = _mm_cvtsi128_si64(_mm512_cvtepi64_epi8(rem)) as u64;
        (v, buckets.to_le_bytes(), _pext_u64(rems, fields))
    }
}

/// Software prefetch for the phase-2 verify pipeline: a best-effort
/// hint (x86-64 `prefetcht0`; a no-op elsewhere). Isolated `unsafe`:
/// the hinted address is always in-bounds, and prefetch has no
/// architectural effect regardless.
#[allow(unsafe_code)]
pub(super) mod fetch {
    /// Hints that `data[index..]` is about to be read.
    #[inline]
    pub fn prefetch_read<T>(data: &[T], index: usize) {
        #[cfg(target_arch = "x86_64")]
        if index < data.len() {
            // SAFETY: in-bounds pointer arithmetic; `prefetcht0` reads
            // nothing architecturally and faults on nothing.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    data.as_ptr().add(index).cast(),
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (data, index);
        }
    }
}
