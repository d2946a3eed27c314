//! The isolated SIMD prefilter backends (AVX2, AVX-512, NEON and its
//! portable emulation) and the phase-2 software prefetch: the index's
//! `unsafe`, together with the `shared` buffer.
//!
//! A kernel reads one complete plane group, whose words are atomics
//! only because the open group is still being stored to (the `shared`
//! module docs): a complete one is never stored to again, so the x86
//! kernels load it through the slice's pointer, and NEON takes its
//! words by `Relaxed` loads — the same instruction.

/// The vector kernel actually chosen for a scan, after runtime feature
/// detection resolved [`FilterKernel::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ActiveKernel {
    Swar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// The AVX2 prefilter kernel, one of the crate's three isolated
/// `unsafe` ISA modules (see also [`avx512`] and [`neon`]): the
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
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(super) mod avx512 {
    use super::super::plane::GROUP_WORDS;
    use std::arch::x86_64::{
        _mm512_loadu_si512, _mm512_min_epu8, _mm512_or_si512, _mm512_set1_epi8, _mm512_sub_epi8,
        _mm512_subs_epu8,
    };
    use std::sync::atomic::AtomicU64;

    /// `true` once per process: does this CPU have the foundation +
    /// byte/word AVX-512 subsets the kernel needs?
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
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
}

/// The NEON prefilter kernel: 16 rows per iteration (2 packed `u64`
/// lane words per 128-bit vector).
///
/// The intrinsics go through the `intr` façade: real
/// `core::arch::aarch64` wrappers on aarch64, and a bit-exact portable
/// emulation elsewhere under `cfg(test)` — so the kernel *logic* is
/// compiled and property-tested on every host, and the x86 CI runner
/// can catch rot without cross-compiling (the aarch64 `cargo check` in
/// CI covers the wrapper layer itself).
#[cfg(any(target_arch = "aarch64", test))]
#[allow(unsafe_code)]
pub(super) mod neon {
    use super::super::plane::GROUP_WORDS;
    use super::intr;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Prefilters 16 rows (words `wi`, `wi+1` of every lane of one
    /// plane group) against a probe's bucket values, returning one bit
    /// per passing row.
    pub fn sixteen(group: &[AtomicU64], biased: &[u16], tq: u16, kq: u16, wi: usize) -> u16 {
        let tv = intr::dup8(tq as u8);
        // Bucket count ≤ 256; 256 wraps to 0, reached only by d = 0,
        // which passes regardless (buckets are < kq, so d ≤ kq − 1 and
        // the wrapped subtraction is exact for every d ≥ 1).
        let kav = intr::dup8(kq as u8);
        let mut acc = intr::dup8(u8::MAX);
        for (lane, &pb) in group.chunks_exact(GROUP_WORDS).zip(biased) {
            // 16 rows of this dimension: 2 packed u64 words, loaded as
            // 16 little-endian u8 lanes.
            let v = intr::load_pair8(
                lane[wi].load(Ordering::Relaxed),
                lane[wi + 1].load(Ordering::Relaxed),
            );
            let p = intr::dup8(pb as u8);
            let d = intr::abd8(v, p);
            let cyc = intr::min8(d, intr::sub8(kav, d));
            acc = intr::and8(acc, intr::cle8(cyc, tv));
            if intr::maxv8(acc) == 0 {
                return 0;
            }
        }
        intr::lane_bits16(acc)
    }
}

/// The NEON intrinsics façade for [`neon`]: thin real wrappers on
/// aarch64, a portable `[u8; 16]` emulation elsewhere (test builds
/// only). Both sides implement the identical lane semantics, so the
/// kernel body above means the same thing wherever it compiles.
#[cfg(any(target_arch = "aarch64", test))]
#[allow(unsafe_code)]
mod intr {
    /// Per-lane bit weights for [`lane_bits16`], one byte lane each:
    /// anding with a lane mask and summing across lanes yields one bit
    /// per all-ones lane. The two 8-lane halves are summed separately
    /// (16 weighted bytes would overflow a u8 accumulator) and
    /// recombined as low/high mask bytes.
    const BIT_WEIGHTS8: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];

    #[cfg(target_arch = "aarch64")]
    mod imp {
        use core::arch::aarch64 as a;

        /// Sixteen byte lanes: one bucket per row.
        pub type W = a::uint8x16_t;

        #[inline]
        pub fn dup8(x: u8) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vdupq_n_u8(x) }
        }

        #[inline]
        pub fn load_pair8(w0: u64, w1: u64) -> W {
            let words = [w0, w1];
            // SAFETY: `words` spans the 16 bytes read; aarch64 is
            // little-endian, so u64 packing order equals lane order.
            unsafe { a::vld1q_u8(words.as_ptr().cast()) }
        }

        #[inline]
        pub fn abd8(x: W, y: W) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vabdq_u8(x, y) }
        }

        #[inline]
        pub fn min8(x: W, y: W) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vminq_u8(x, y) }
        }

        #[inline]
        pub fn sub8(x: W, y: W) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vsubq_u8(x, y) }
        }

        #[inline]
        pub fn and8(x: W, y: W) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vandq_u8(x, y) }
        }

        #[inline]
        pub fn cle8(x: W, y: W) -> W {
            // SAFETY: baseline NEON.
            unsafe { a::vcleq_u8(x, y) }
        }

        #[inline]
        pub fn maxv8(x: W) -> u8 {
            // SAFETY: baseline NEON.
            unsafe { a::vmaxvq_u8(x) }
        }

        #[inline]
        pub fn lane_bits16(mask: W) -> u16 {
            // SAFETY: `BIT_WEIGHTS8` spans the 16 bytes read; the
            // per-half horizontal adds are baseline NEON.
            unsafe {
                let weights = a::vld1q_u8(super::BIT_WEIGHTS8.as_ptr());
                let wm = a::vandq_u8(mask, weights);
                let lo = u16::from(a::vaddv_u8(a::vget_low_u8(wm)));
                let hi = u16::from(a::vaddv_u8(a::vget_high_u8(wm)));
                lo | (hi << 8)
            }
        }
    }

    #[cfg(not(target_arch = "aarch64"))]
    mod imp {
        /// Portable stand-in for `uint8x16_t`.
        #[derive(Clone, Copy)]
        pub struct W(pub [u8; 16]);

        fn zip8(x: W, y: W, f: impl Fn(u8, u8) -> u8) -> W {
            let mut out = [0u8; 16];
            for (o, (a, b)) in out.iter_mut().zip(x.0.iter().zip(y.0.iter())) {
                *o = f(*a, *b);
            }
            W(out)
        }

        pub fn dup8(x: u8) -> W {
            W([x; 16])
        }

        pub fn load_pair8(w0: u64, w1: u64) -> W {
            let mut out = [0u8; 16];
            for (i, o) in out.iter_mut().enumerate() {
                let w = if i < 8 { w0 } else { w1 };
                *o = (w >> (8 * (i % 8))) as u8;
            }
            W(out)
        }

        pub fn abd8(x: W, y: W) -> W {
            zip8(x, y, u8::abs_diff)
        }

        pub fn min8(x: W, y: W) -> W {
            zip8(x, y, u8::min)
        }

        pub fn sub8(x: W, y: W) -> W {
            // vsubq wraps, like the real thing — and the byte kernel
            // leans on it: a 256-bucket ring's `ka` broadcast wraps to
            // 0, and `0 − d` wraps back to the exact `256 − d`.
            zip8(x, y, u8::wrapping_sub)
        }

        pub fn and8(x: W, y: W) -> W {
            zip8(x, y, |a, b| a & b)
        }

        pub fn cle8(x: W, y: W) -> W {
            zip8(x, y, |a, b| if a <= b { u8::MAX } else { 0 })
        }

        pub fn maxv8(x: W) -> u8 {
            x.0.into_iter().max().unwrap_or(0)
        }

        pub fn lane_bits16(mask: W) -> u16 {
            let lo: u8 = mask.0[..8]
                .iter()
                .zip(&super::BIT_WEIGHTS8[..8])
                .map(|(&m, &w)| m & w)
                .sum();
            let hi: u8 = mask.0[8..]
                .iter()
                .zip(&super::BIT_WEIGHTS8[8..])
                .map(|(&m, &w)| m & w)
                .sum();
            u16::from(lo) | (u16::from(hi) << 8)
        }
    }

    pub use imp::{abd8, and8, cle8, dup8, lane_bits16, load_pair8, maxv8, min8, sub8};
}

/// Software prefetch for the phase-2 verify pipeline: a best-effort
/// hint (x86-64 `prefetcht0`; a no-op elsewhere — aarch64 cores
/// prefetch the forward-streaming verify pattern well on their own).
/// Isolated `unsafe`: the hinted address is always in-bounds, and
/// prefetch has no architectural effect regardless.
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
