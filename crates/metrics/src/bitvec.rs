//! A compact bit vector used by the Hamming-metric constructions
//! (code-offset sketch, fuzzy commitment, BCH codewords).

use std::fmt;
use std::ops::BitXor;

/// A fixed-length vector of bits packed into 64-bit words.
///
/// ```rust
/// use fe_metrics::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// v.set(9, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(3));
/// assert!(!v.get(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An all-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one bit vector of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a length-`len` vector with bit `i` equal to `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds from packed little-endian bytes, taking the first `len` bits.
    ///
    /// # Panics
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "not enough bytes for {len} bits");
        BitVec::from_fn(len, |i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
    }

    /// Packs into little-endian bytes (`ceil(len/8)` of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
        self.get(i)
    }

    /// Population count.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn xor_in_place(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= b;
        }
    }

    /// Hamming weight of the XOR of two vectors, without allocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn xor_weight(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in xor_weight");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Clears any bits beyond `len` in the last word (internal invariant).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;
    /// # Panics
    /// Panics if the lengths differ.
    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_in_place(rhs);
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let show = self.len.min(64);
        for i in 0..show {
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
    }

    #[test]
    fn ones_masks_tail() {
        // If the tail were unmasked, count_ones would exceed len.
        for len in [1usize, 63, 64, 65, 127, 128] {
            assert_eq!(BitVec::ones(len).count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(100);
        v.set(64, true);
        assert!(v.get(64));
        assert!(!v.flip(64));
        assert!(v.flip(99));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn bools_roundtrip() {
        let bits = [true, false, true, true, false, false, true];
        let v = BitVec::from_bools(&bits);
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BitVec::from_fn(77, |i| i % 3 == 0);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 10);
        assert_eq!(BitVec::from_bytes(&bytes, 77), v);
    }

    #[test]
    fn xor_and_weight() {
        let a = BitVec::from_fn(200, |i| i % 2 == 0);
        let b = BitVec::from_fn(200, |i| i % 4 == 0);
        let x = &a ^ &b;
        assert_eq!(x.count_ones(), a.xor_weight(&b));
        // Bits where exactly one of a, b is set: i%2==0 && i%4!=0 → 50 bits.
        assert_eq!(x.count_ones(), 50);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let _ = &BitVec::zeros(3) ^ &BitVec::zeros(4);
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = (0..10).map(|i| i < 5).collect();
        assert_eq!(v.count_ones(), 5);
        assert!(v.get(0) && !v.get(5));
    }

    #[test]
    fn debug_format_truncates() {
        let v = BitVec::zeros(100);
        let s = format!("{v:?}");
        assert!(s.contains("BitVec[100;"));
        assert!(s.contains('…'));
    }
}
