//! System setup (`SysSetup`): the public parameters shared by every
//! party.

use fe_core::codec::{Fingerprint, Writer};
use fe_core::{ChebyshevSketch, FilterConfig};
use fe_crypto::dsa::{Dsa, DsaParams};

/// Public system parameters: the number line + threshold, the extracted
/// key length and the DSA domain parameters, plus one server-side
/// setting that rides along (prefilter tuning).
///
/// Produced once by the authentication server and published
/// (`params = (La, t, H, Ext)` in Sec. V, plus the signature group).
#[derive(Debug, Clone)]
pub struct SystemParams {
    sketch: ChebyshevSketch,
    key_len: usize,
    dsa: DsaParams,
    filter: FilterConfig,
}

impl SystemParams {
    /// Assembles system parameters (default prefilter).
    pub fn new(sketch: ChebyshevSketch, key_len: usize, dsa: DsaParams) -> Self {
        SystemParams {
            sketch,
            key_len,
            dsa,
            filter: FilterConfig::default(),
        }
    }

    /// Tunes the server-side prefilter plane for the conditions (1)–(4)
    /// scan. The default keeps the cells of every coordinate up to 64
    /// in the plane; [`FilterConfig::disabled`] restores the pure scalar
    /// kernel.
    #[must_use]
    pub fn with_filter_config(mut self, filter: FilterConfig) -> Self {
        self.filter = filter;
        self
    }

    /// The configured prefilter plane knob.
    pub fn filter_config(&self) -> FilterConfig {
        self.filter
    }

    /// The paper's Table II configuration with 1024-bit DSA (the classic
    /// strength of the paper's era).
    pub fn paper_defaults() -> Self {
        SystemParams::new(
            ChebyshevSketch::paper_defaults(),
            32,
            DsaParams::dsa_1024_160().clone(),
        )
    }

    /// Table II sketch parameters with **small, insecure** 512-bit DSA —
    /// fast enough for exhaustive test suites.
    pub fn insecure_test_defaults() -> Self {
        SystemParams::new(
            ChebyshevSketch::paper_defaults(),
            32,
            DsaParams::insecure_512().clone(),
        )
    }

    /// The sketch scheme (`La` and `t`).
    pub fn sketch(&self) -> &ChebyshevSketch {
        &self.sketch
    }

    /// Extracted key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// DSA domain parameters.
    pub fn dsa_params(&self) -> &DsaParams {
        &self.dsa
    }

    /// Instantiates the signature scheme.
    pub fn dsa(&self) -> Dsa {
        Dsa::new(self.dsa.clone())
    }

    /// Instantiates the fuzzy extractor (the paper's stack).
    pub fn fuzzy_extractor(&self) -> fe_core::FuzzyExtractor {
        fe_core::FuzzyExtractor::with_defaults(self.sketch, self.key_len)
    }

    /// The durable-storage fingerprint of these parameters: an 8-byte
    /// digest over everything that affects how a stored enrollment
    /// record is *interpreted* — the number line `(a, k, v)`, the
    /// threshold `t`, the extracted key length, and the DSA domain
    /// `(p, q, g)`.
    ///
    /// Every on-disk artifact embeds this value; recovery under changed
    /// parameters fails with
    /// [`CodecError::FingerprintMismatch`](fe_core::codec::CodecError)
    /// instead of silently matching probes against a re-interpreted ring.
    /// The [`FilterConfig`] is deliberately **excluded**, as is the
    /// index type the server was built with: index and prefilter are
    /// lookup accelerators rebuilt at recovery time — so snapshots stay
    /// portable across index engines, shard counts and prefilter
    /// settings.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut w = Writer::new();
        w.put_u64(self.sketch.line().a());
        w.put_u64(self.sketch.line().k());
        w.put_u64(self.sketch.line().v());
        w.put_u64(self.sketch.threshold());
        w.put_u64(self.key_len as u64);
        w.put_bytes(&self.dsa.p().to_bytes_be());
        w.put_bytes(&self.dsa.q().to_bytes_be());
        w.put_bytes(&self.dsa.g().to_bytes_be());
        Fingerprint::of(w.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_defaults_shape() {
        let p = SystemParams::insecure_test_defaults();
        assert_eq!(p.sketch().line().a(), 100);
        assert_eq!(p.sketch().threshold(), 100);
        assert_eq!(p.key_len(), 32);
        assert_eq!(p.dsa_params().bits(), (512, 160));
    }

    #[test]
    fn fuzzy_extractor_instantiates() {
        let p = SystemParams::insecure_test_defaults();
        let fe = p.fuzzy_extractor();
        assert_eq!(fe.sketcher().threshold(), 100);
    }

    #[test]
    fn fingerprint_tracks_interpretation_not_index() {
        let p = SystemParams::insecure_test_defaults();
        let fp = p.fingerprint();
        // Stable across calls and prefilter configs…
        assert_eq!(fp, p.fingerprint());
        assert_eq!(
            fp,
            p.clone()
                .with_filter_config(FilterConfig::disabled())
                .fingerprint()
        );
        // …but sensitive to anything that changes record meaning.
        let other = SystemParams::new(*p.sketch(), p.key_len() + 1, p.dsa_params().clone());
        assert_ne!(fp, other.fingerprint());
        assert_ne!(fp, SystemParams::paper_defaults().fingerprint());
    }

    #[test]
    fn filter_config_defaults_and_builder() {
        use fe_core::PlaneDepth;
        let p = SystemParams::insecure_test_defaults();
        assert_eq!(p.filter_config(), FilterConfig::default());
        assert_eq!(p.filter_config().depth, PlaneDepth::Fixed(64));
        let p = p.with_filter_config(FilterConfig::disabled());
        assert_eq!(p.filter_config().depth, PlaneDepth::Fixed(0));
    }
}
