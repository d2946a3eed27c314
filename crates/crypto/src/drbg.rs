//! HMAC-DRBG (NIST SP 800-90A style) — a deterministic random bit generator.
//!
//! Used for (a) reproducible test/benchmark randomness, (b) RFC-6979-style
//! deterministic DSA nonces, and (c) deriving key material from the
//! fuzzy-extractor output. Implements [`rand::RngCore`] so it can feed the
//! `fe-bigint` generators directly.

use crate::Hmac;
use rand::RngCore;

/// HMAC-SHA-256 deterministic random bit generator.
///
/// ```rust
/// use fe_crypto::HmacDrbg;
/// use rand::RngCore;
///
/// let mut a = HmacDrbg::new(b"seed", b"context");
/// let mut b = HmacDrbg::new(b"seed", b"context");
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
pub struct HmacDrbg {
    k: Vec<u8>,
    v: Vec<u8>,
}

impl HmacDrbg {
    /// Instantiates the DRBG from entropy input and a personalization
    /// string.
    pub fn new(entropy: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: vec![0u8; 32],
            v: vec![1u8; 32],
        };
        let seed: Vec<u8> = entropy
            .iter()
            .chain(personalization.iter())
            .copied()
            .collect();
        drbg.update(Some(&seed));
        drbg
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut h = Hmac::new(&self.k);
        h.update(&self.v);
        h.update(&[0x00]);
        if let Some(data) = provided {
            h.update(data);
        }
        self.k = h.finalize();
        self.v = Hmac::mac(&self.k, &self.v);

        if let Some(data) = provided {
            let mut h = Hmac::new(&self.k);
            h.update(&self.v);
            h.update(&[0x01]);
            h.update(data);
            self.k = h.finalize();
            self.v = Hmac::mac(&self.k, &self.v);
        }
    }

    /// Fills `out` with deterministic pseudorandom bytes.
    pub fn generate(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            self.v = Hmac::mac(&self.k, &self.v);
            let take = (out.len() - filled).min(self.v.len());
            out[filled..filled + take].copy_from_slice(&self.v[..take]);
            filled += take;
        }
        self.update(None);
    }
}

impl std::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the internal state: it is key material.
        f.debug_struct("HmacDrbg").finish_non_exhaustive()
    }
}

impl RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.generate(&mut buf);
        u32::from_be_bytes(buf)
    }

    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.generate(&mut buf);
        u64::from_be_bytes(buf)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.generate(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(d: &mut HmacDrbg, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        d.generate(&mut out);
        out
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = HmacDrbg::new(b"entropy", b"p13n");
        let mut b = HmacDrbg::new(b"entropy", b"p13n");
        assert_eq!(bytes(&mut a, 64), bytes(&mut b, 64));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"entropy-1", b"");
        let mut b = HmacDrbg::new(b"entropy-2", b"");
        assert_ne!(bytes(&mut a, 32), bytes(&mut b, 32));
    }

    #[test]
    fn personalization_matters() {
        let mut a = HmacDrbg::new(b"e", b"app-a");
        let mut b = HmacDrbg::new(b"e", b"app-b");
        assert_ne!(bytes(&mut a, 32), bytes(&mut b, 32));
    }

    #[test]
    fn chunked_generation_matches_oneshot() {
        // SP 800-90A HMAC_DRBG reseeds the state after every generate()
        // call, so two 16-byte calls differ from one 32-byte call; but the
        // *same* call pattern must reproduce the same stream.
        let mut a = HmacDrbg::new(b"e", b"");
        let mut b = HmacDrbg::new(b"e", b"");
        let mut got_a = bytes(&mut a, 16);
        got_a.extend(bytes(&mut a, 16));
        let mut got_b = bytes(&mut b, 16);
        got_b.extend(bytes(&mut b, 16));
        assert_eq!(got_a, got_b);
    }

    #[test]
    fn rngcore_impl_works() {
        let mut d = HmacDrbg::new(b"rng", b"");
        let x = d.next_u64();
        let y = d.next_u64();
        assert_ne!(x, y); // overwhelming probability
        let mut buf = [0u8; 100];
        d.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 100]);
    }

    #[test]
    fn debug_does_not_leak_state() {
        let d = HmacDrbg::new(b"secret", b"");
        assert_eq!(format!("{d:?}"), "HmacDrbg { .. }");
    }
}
