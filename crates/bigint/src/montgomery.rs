//! Montgomery multiplication and squaring for odd moduli, the hot path of
//! DSA signing and verification, and the one exponentiation chain every
//! modular power in the workspace runs on.

use crate::arith::zeros;
use crate::Natural;
use std::cell::{Cell, RefCell};
use std::ops::Sub;

/// Bits per digit of the generic fixed-window exponentiation.
const WINDOW: usize = 4;

/// Teeth of a fixed-base comb: its table holds `2^TEETH` entries.
pub(crate) const TEETH: usize = 8;

/// Montgomery operations performed on the calling thread since it started
/// (see [`counts`]).
///
/// A count is exact where a clock is not: the paper's cost claims (one
/// signature and one verification per identification, whatever the
/// population) become equalities between two readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Montgomery products of two operands, conversions into and out of
    /// Montgomery form included.
    pub multiplications: u64,
    /// Montgomery squarings.
    pub squarings: u64,
    /// [`Montgomery`] contexts built.
    pub contexts: u64,
}

impl Counts {
    /// Every Montgomery product: multiplications plus squarings.
    pub fn products(&self) -> u64 {
        self.multiplications + self.squarings
    }
}

impl Sub for Counts {
    type Output = Counts;

    /// What happened between two readings (`later - earlier`).
    fn sub(self, earlier: Counts) -> Counts {
        Counts {
            multiplications: self.multiplications - earlier.multiplications,
            squarings: self.squarings - earlier.squarings,
            contexts: self.contexts - earlier.contexts,
        }
    }
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { multiplications: 0, squarings: 0, contexts: 0 })
    };
}

fn bump(f: impl FnOnce(&mut Counts)) {
    COUNTS.with(|cell| {
        let mut counts = cell.get();
        f(&mut counts);
        cell.set(counts);
    });
}

/// The calling thread's Montgomery operation counts so far. Subtract two
/// readings to cost one operation:
///
/// ```rust
/// use fe_bigint::{montgomery, Natural};
///
/// let before = montgomery::counts();
/// Natural::from(5u64).mod_pow(&Natural::from(6u64), &Natural::from(23u64));
/// assert!((montgomery::counts() - before).products() > 0);
/// ```
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
///
/// Values are kept in Montgomery form (`x · R mod n` with `R = 2^(64·limbs)`)
/// as exactly [`limb_len`](Self::limb_len) limbs below `n`.
/// [`mul`](Self::mul) and [`sqr`](Self::sqr) work in place on such a value
/// and never allocate: the caller owns the [`scratch`](Self::scratch)
/// buffer, one per exponentiation. The same code serves every width.
///
/// # Example
///
/// ```rust
/// use fe_bigint::{montgomery::Montgomery, Natural};
///
/// let n = Natural::from(97u64);
/// let ctx = Montgomery::new(&n).expect("odd modulus");
/// let mut scratch = ctx.scratch();
/// let mut a = ctx.to_mont(&Natural::from(5u64));
/// let b = ctx.to_mont(&Natural::from(7u64));
/// ctx.mul(&mut a, &b, &mut scratch);
/// assert_eq!(ctx.from_mont(&a), Natural::from(35u64));
/// ctx.sqr(&mut a, &mut scratch);
/// assert_eq!(ctx.from_mont(&a), Natural::from(35u64 * 35 % 97));
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Natural,
    n_prime: u64, // -n^{-1} mod 2^64
    r2: Vec<u64>, // R^2 mod n, used to convert into Montgomery form
}

/// `-n^{-1} mod 2^64` for odd `n` via Newton iteration on 2-adic inverse.
fn neg_inv_u64(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    let mut inv = n0; // correct to 3 bits already (odd)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

impl Montgomery {
    /// Builds a context for the odd modulus `n`.
    ///
    /// Returns `None` if `n` is even or zero (Montgomery reduction requires
    /// `gcd(n, 2^64) = 1`).
    pub fn new(n: &Natural) -> Option<Montgomery> {
        if n.is_zero() || n.is_even() {
            return None;
        }
        bump(|c| c.contexts += 1);
        let len = n.limb_len();
        // R^2 mod n where R = 2^(64*len): compute by shifting.
        let mut r2 = Natural::power_of_two(64 * len * 2).rem_nat(n).limbs;
        r2.resize(len, 0);
        Some(Montgomery {
            n: n.clone(),
            n_prime: neg_inv_u64(n.limbs[0]),
            r2,
        })
    }

    /// Limb width of the modulus.
    pub fn limb_len(&self) -> usize {
        self.n.limb_len()
    }

    /// The modulus `n`.
    pub(crate) fn modulus(&self) -> &Natural {
        &self.n
    }

    /// A scratch buffer of the length [`mul`](Self::mul) and
    /// [`sqr`](Self::sqr) need (`2 · limb_len()` limbs).
    pub fn scratch(&self) -> Vec<u64> {
        zeros(2 * self.limb_len())
    }

    /// Montgomery product in place: `acc ← acc · b · R^{-1} mod n`.
    ///
    /// One fused CIOS pass (coarsely integrated operand scanning): each
    /// limb of `b` is multiplied in and one limb reduced away in the same
    /// inner loop.
    ///
    /// # Panics
    /// Panics if `acc` or `b` is not exactly `limb_len()` limbs, or
    /// `scratch` is shorter than [`scratch`](Self::scratch)'s.
    pub fn mul(&self, acc: &mut [u64], b: &[u64], scratch: &mut [u64]) {
        bump(|c| c.multiplications += 1);
        let n = self.n.limbs();
        let len = n.len();
        assert!(
            acc.len() == len && b.len() == len,
            "operands are limb_len() limbs"
        );
        let t = &mut scratch[..len + 1];
        t.fill(0);
        let a: &[u64] = acc;
        for &bi in b {
            let v = t[0] as u128 + a[0] as u128 * bi as u128;
            let m = (v as u64).wrapping_mul(self.n_prime);
            let w = (v as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c1, mut c2) = (v >> 64, w >> 64);
            for j in 1..len {
                let v = t[j] as u128 + a[j] as u128 * bi as u128 + c1;
                let w = (v as u64) as u128 + m as u128 * n[j] as u128 + c2;
                t[j - 1] = w as u64;
                c1 = v >> 64;
                c2 = w >> 64;
            }
            let v = t[len] as u128 + c1 + c2;
            t[len - 1] = v as u64;
            t[len] = (v >> 64) as u64;
        }
        let (low, top) = t.split_at(len);
        self.finish(acc, low, top[0]);
    }

    /// Montgomery squaring in place: `acc ← acc² · R^{-1} mod n`.
    ///
    /// The square is formed first (each cross product once, then doubled:
    /// `len·(len+1)/2` limb products instead of `len²`) and reduced after,
    /// which is what makes it cheaper than [`mul`](Self::mul)`(acc, acc)`.
    ///
    /// # Panics
    /// As [`mul`](Self::mul).
    pub fn sqr(&self, acc: &mut [u64], scratch: &mut [u64]) {
        bump(|c| c.squarings += 1);
        let len = self.limb_len();
        assert!(acc.len() == len, "operand is limb_len() limbs");
        let s = &mut scratch[..2 * len];
        s.fill(0);
        let a: &[u64] = acc;
        // Cross products a[i]·a[j], i < j, rows i and i + 1 together: two
        // carry chains in one loop, as in `mul`.
        let mut i = 0;
        while i + 2 < len {
            let (x, y) = (a[i], a[i + 1]);
            let v = x as u128 * y as u128 + s[2 * i + 1] as u128;
            s[2 * i + 1] = v as u64;
            let v = x as u128 * a[i + 2] as u128 + s[2 * i + 2] as u128 + (v >> 64);
            s[2 * i + 2] = v as u64;
            let (mut cx, mut cy) = (v >> 64, 0u128);
            for p in 2 * i + 3..i + len {
                let v = s[p] as u128 + x as u128 * a[p - i] as u128 + cx;
                let w = (v as u64) as u128 + y as u128 * a[p - i - 1] as u128 + cy;
                s[p] = w as u64;
                cx = v >> 64;
                cy = w >> 64;
            }
            // Nothing has reached limbs i + len and i + len + 1 yet.
            let w = cx + y as u128 * a[len - 1] as u128 + cy;
            s[i + len] = w as u64;
            s[i + len + 1] = (w >> 64) as u64;
            i += 2;
        }
        // The last one or two rows (at most one product).
        for (r, &ar) in a.iter().enumerate().skip(i) {
            let mut c = 0u128;
            for (sj, &aj) in s[2 * r + 1..r + len].iter_mut().zip(&a[r + 1..]) {
                let v = *sj as u128 + ar as u128 * aj as u128 + c;
                *sj = v as u64;
                c = v >> 64;
            }
            for sk in &mut s[r + len..] {
                let v = *sk as u128 + c;
                *sk = v as u64;
                c = v >> 64;
            }
        }
        // Double them and add the squares a[i]².
        let (mut shifted_out, mut c) = (0u64, 0u128);
        for (pair, &ai) in s.chunks_exact_mut(2).zip(a) {
            let d = ai as u128 * ai as u128;
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            let v = lo as u128 + (d as u64) as u128 + c;
            pair[0] = v as u64;
            let v = hi as u128 + (d >> 64) + (v >> 64);
            pair[1] = v as u64;
            c = v >> 64;
        }
        self.redc(acc, s);
    }

    /// Montgomery reduction of the `2·len`-limb value in `s` (destroyed)
    /// into `out`: `out ← s · R^{-1} mod n`, for `s < n·R`.
    ///
    /// Limbs are cleared two at a time: the second multiplier `m` is known
    /// once the first row has passed limb `i + 1`, so both rows run in one
    /// loop on two carry chains.
    fn redc(&self, out: &mut [u64], s: &mut [u64]) {
        let n = self.n.limbs();
        let len = n.len();
        let np = self.n_prime;
        // Carry into limb i + len, owed by the rows before row i.
        let mut top = 0u64;
        let mut i = 0;
        while i + 1 < len {
            let mx = s[i].wrapping_mul(np);
            let v = s[i] as u128 + mx as u128 * n[0] as u128;
            let v = s[i + 1] as u128 + mx as u128 * n[1] as u128 + (v >> 64);
            let my = (v as u64).wrapping_mul(np);
            let w = (v as u64) as u128 + my as u128 * n[0] as u128;
            let (mut cx, mut cy) = (v >> 64, w >> 64);
            for j in 2..len {
                let v = s[i + j] as u128 + mx as u128 * n[j] as u128 + cx;
                let w = (v as u64) as u128 + my as u128 * n[j - 1] as u128 + cy;
                s[i + j] = w as u64;
                cx = v >> 64;
                cy = w >> 64;
            }
            let v = s[i + len] as u128 + cx + top as u128;
            let w = (v as u64) as u128 + my as u128 * n[len - 1] as u128 + cy;
            s[i + len] = w as u64;
            let v = s[i + len + 1] as u128 + (v >> 64) + (w >> 64);
            s[i + len + 1] = v as u64;
            top = (v >> 64) as u64;
            i += 2;
        }
        if i < len {
            let m = s[i].wrapping_mul(np);
            let mut c = 0u128;
            for (sj, &nj) in s[i..i + len].iter_mut().zip(n) {
                let v = *sj as u128 + m as u128 * nj as u128 + c;
                *sj = v as u64;
                c = v >> 64;
            }
            let v = s[i + len] as u128 + c + top as u128;
            s[i + len] = v as u64;
            top = (v >> 64) as u64;
        }
        self.finish(out, &s[len..], top);
    }

    /// `out ← t + top·R`, less `n` once if that is at least `n` (the value
    /// is below `2n`, so one subtraction brings it below `n`).
    fn finish(&self, out: &mut [u64], t: &[u64], top: u64) {
        out.copy_from_slice(t);
        if top != 0 || !less_than(out, self.n.limbs()) {
            crate::arith::sub_limbs_in_place(out, self.n.limbs());
        }
    }

    /// Converts `x` (ordinary form, `x < n`) into Montgomery form.
    pub fn to_mont(&self, x: &Natural) -> Vec<u64> {
        let mut out = zeros(self.limb_len());
        self.to_mont_into(&mut out, x, &mut self.scratch());
        out
    }

    fn to_mont_into(&self, out: &mut [u64], x: &Natural, scratch: &mut [u64]) {
        out.fill(0);
        out[..x.limb_len()].copy_from_slice(x.limbs());
        self.mul(out, &self.r2, scratch);
    }

    /// Converts from Montgomery form back to an ordinary [`Natural`]
    /// (one reduction, counted as a multiplication by `1`).
    ///
    /// # Panics
    /// Panics if `x` is not exactly `limb_len()` limbs.
    pub fn from_mont(&self, x: &[u64]) -> Natural {
        self.to_natural(x, &mut self.scratch())
    }

    fn to_natural(&self, x: &[u64], scratch: &mut [u64]) -> Natural {
        bump(|c| c.multiplications += 1);
        let len = self.limb_len();
        assert!(x.len() == len, "operand is limb_len() limbs");
        let s = &mut scratch[..2 * len];
        s[..len].copy_from_slice(x);
        s[len..].fill(0);
        let mut out = zeros(len);
        self.redc(&mut out, s);
        Natural::from_limbs(out)
    }

    /// Modular exponentiation `base^exp mod n` using a 4-bit fixed window.
    pub fn pow(&self, base: &Natural, exp: &Natural) -> Natural {
        self.chain(Some((base, exp)), None)
    }

    /// Fills `table` with `base^0 … base^15` in Montgomery form, one after
    /// another: the table of a 4-bit window. Even powers are squarings.
    fn fill_window(&self, table: &mut [u64], base: &Natural, scratch: &mut [u64]) {
        let len = self.limb_len();
        let reduced;
        let base = if base < &self.n {
            base
        } else {
            reduced = base.rem_nat(&self.n);
            &reduced
        };
        self.to_mont_into(&mut table[len..2 * len], base, scratch);
        for d in 2..1 << WINDOW {
            let (done, rest) = table.split_at_mut(d * len);
            let entry = &mut rest[..len];
            if d % 2 == 0 {
                entry.copy_from_slice(&done[d / 2 * len..][..len]);
                self.sqr(entry, scratch);
            } else {
                entry.copy_from_slice(&done[(d - 1) * len..][..len]);
                self.mul(entry, &done[len..2 * len], scratch);
            }
        }
    }

    /// One left-to-right exponentiation chain: `b^e mod n` by 4-bit fixed
    /// windows over `window = (b, e)`, times `g^f` by a fixed-base comb
    /// over `comb = (comb table, spacing, f)` (see
    /// [`FixedBase`](crate::FixedBase)). With both, the two powers share
    /// one squaring chain (Straus). Digits of zero are skipped, and the
    /// leading squarings of `1` are not done.
    ///
    /// The window table, the scratch and the accumulator live in
    /// [`CHAIN_BUFFERS`]: the chain's only allocation is its result.
    ///
    /// The chain branches on and indexes by exponent digits: it is not
    /// constant-time.
    pub(crate) fn chain(
        &self,
        window: Option<(&Natural, &Natural)>,
        comb: Option<(&[u64], usize, &Natural)>,
    ) -> Natural {
        let len = self.limb_len();
        CHAIN_BUFFERS.with_borrow_mut(|buffers| {
            buffers.resize(((1 << WINDOW) + 3) * len, 0);
            let (table, rest) = buffers.split_at_mut(len << WINDOW);
            let (scratch, acc) = rest.split_at_mut(2 * len);
            if let Some((base, _)) = window {
                self.fill_window(table, base, scratch);
            }
            let window = window.map(|(_, e)| (&*table, e));
            let window_bits = window.map_or(0, |(_, e)| e.bit_length().next_multiple_of(WINDOW));
            let comb_bits = comb.map_or(0, |(_, spacing, _)| spacing);
            let mut started = false;
            for i in (0..window_bits.max(comb_bits)).rev() {
                if started {
                    self.sqr(acc, scratch);
                }
                let window_digit = match window {
                    Some((table, e)) if i % WINDOW == 0 => Some((table, digit(e, i, 1, WINDOW))),
                    _ => None,
                };
                let comb_digit = match comb {
                    Some((table, spacing, f)) if i < spacing => {
                        Some((table, digit(f, i, spacing, TEETH)))
                    }
                    _ => None,
                };
                for (table, d) in [window_digit, comb_digit].into_iter().flatten() {
                    if d == 0 {
                        continue;
                    }
                    let entry = &table[d * len..][..len];
                    if started {
                        self.mul(acc, entry, scratch);
                    } else {
                        acc.copy_from_slice(entry);
                        started = true;
                    }
                }
            }
            if started {
                self.to_natural(acc, scratch)
            } else {
                Natural::one().rem_nat(&self.n)
            }
        })
    }
}

thread_local! {
    /// Each thread's [`Montgomery::chain`] buffers, kept between calls. A
    /// chain used to ask the allocator for its window table, scratch and
    /// accumulator each time; in a long-running process's fragmented heap
    /// those requests took the allocator's slow paths, and a 160-bit
    /// exponentiation measured 80 µs fresh but up to 320 µs after heavy
    /// churn (DESIGN.md, "Modular exponentiation").
    static CHAIN_BUFFERS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The `width`-bit digit whose bit `j` is bit `i + j·stride` of `e`.
fn digit(e: &Natural, i: usize, stride: usize, width: usize) -> usize {
    (0..width).fold(0, |d, j| d | (e.bit(i + j * stride) as usize) << j)
}

fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_inv_correct() {
        for n0 in [1u64, 3, 5, 97, 0xffff_ffff_ffff_ffc5, u64::MAX] {
            let ni = neg_inv_u64(n0);
            assert_eq!(n0.wrapping_mul(ni), 1u64.wrapping_neg(), "n0={n0}");
        }
    }

    #[test]
    fn rejects_even_modulus() {
        assert!(Montgomery::new(&Natural::from(10u64)).is_none());
        assert!(Montgomery::new(&Natural::zero()).is_none());
        assert!(Montgomery::new(&Natural::from(9u64)).is_some());
    }

    #[test]
    fn roundtrip_small() {
        let n = Natural::from(101u64);
        let ctx = Montgomery::new(&n).unwrap();
        for x in 0..101u64 {
            let xm = ctx.to_mont(&Natural::from(x));
            assert_eq!(ctx.from_mont(&xm), Natural::from(x), "x={x}");
        }
    }

    fn mont_mul(ctx: &Montgomery, a: &Natural, b: &Natural) -> Natural {
        let mut am = ctx.to_mont(a);
        ctx.mul(&mut am, &ctx.to_mont(b), &mut ctx.scratch());
        ctx.from_mont(&am)
    }

    #[test]
    fn mul_matches_naive() {
        let n = Natural::from_hex("ffffffffffffffc5").unwrap(); // 64-bit prime
        let ctx = Montgomery::new(&n).unwrap();
        let a = Natural::from(0x1234_5678_9abc_def0u64);
        let b = Natural::from(0x0fed_cba9_8765_4321u64);
        assert_eq!(mont_mul(&ctx, &a, &b), (&a * &b).rem_nat(&n));
    }

    #[test]
    fn mul_multi_limb_modulus() {
        // 192-bit odd modulus.
        let n = Natural::from_hex("fffffffffffffffffffffffffffffffffffffffffffffff1").unwrap();
        let ctx = Montgomery::new(&n).unwrap();
        let a = Natural::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let b = Natural::from_hex("fedcba9876543210fedcba9876543210fedcba987654321").unwrap();
        assert_eq!(mont_mul(&ctx, &a, &b), (&a * &b).rem_nat(&n));
    }

    #[test]
    fn sqr_matches_mul_at_the_carry_edges() {
        // All-ones limbs drive every carry in the doubling and reduction.
        let n = Natural::from_hex("fffffffffffffffffffffffffffffffffffffffffffffff1").unwrap();
        let ctx = Montgomery::new(&n).unwrap();
        let mut scratch = ctx.scratch();
        for x in [
            Natural::zero(),
            Natural::one(),
            n.checked_sub(&Natural::one()).unwrap(),
            n.checked_sub(&Natural::from(2u64)).unwrap(),
            Natural::power_of_two(191),
        ] {
            let mut squared = ctx.to_mont(&x);
            let mut product = squared.clone();
            let copy = squared.clone();
            ctx.sqr(&mut squared, &mut scratch);
            ctx.mul(&mut product, &copy, &mut scratch);
            assert_eq!(squared, product, "x={x:?}");
            assert_eq!(ctx.from_mont(&squared), (&x * &x).rem_nat(&n));
        }
    }

    #[test]
    fn counts_products_and_contexts() {
        let before = counts();
        let ctx = Montgomery::new(&Natural::from(101u64)).unwrap();
        let mut scratch = ctx.scratch();
        let mut a = ctx.to_mont(&Natural::from(7u64));
        ctx.sqr(&mut a, &mut scratch);
        ctx.from_mont(&a);
        let spent = counts() - before;
        assert_eq!(
            spent,
            Counts {
                multiplications: 2,
                squarings: 1,
                contexts: 1
            }
        );
        assert_eq!(spent.products(), 3);
    }

    #[test]
    fn pow_matches_small_cases() {
        let n = Natural::from(1009u64);
        let ctx = Montgomery::new(&n).unwrap();
        // 3^10 = 59049; 59049 mod 1009 = 59049 - 58*1009 = 527
        let got = ctx.pow(&Natural::from(3u64), &Natural::from(10u64));
        assert_eq!(got, Natural::from(59049u64 % 1009));
    }

    #[test]
    fn pow_fermat_little_theorem() {
        // p prime, a^(p-1) ≡ 1 (mod p)
        let p = Natural::from_hex("ffffffffffffffc5").unwrap();
        let ctx = Montgomery::new(&p).unwrap();
        let exp = p.checked_sub(&Natural::one()).unwrap();
        let got = ctx.pow(&Natural::from(2u64), &exp);
        assert_eq!(got, Natural::one());
    }

    #[test]
    fn pow_zero_exponent() {
        let n = Natural::from(97u64);
        let ctx = Montgomery::new(&n).unwrap();
        assert_eq!(
            ctx.pow(&Natural::from(5u64), &Natural::zero()),
            Natural::one()
        );
    }
}
