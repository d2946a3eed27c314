//! Canonical, versioned binary codec for durable sketch storage.
//!
//! The paper's security model makes helper data *public*: the sketch `s`
//! and the extractor seed leak at most the Theorem 3 entropy loss, so a
//! server may persist enrollment records to disk without weakening the
//! scheme. What persistence *does* demand is an on-disk contract that
//! outlives process restarts and parameter evolution:
//!
//! * **Magic + format version** — a recovering server must detect foreign
//!   files and refuse formats it does not understand, instead of
//!   misparsing them into plausible-looking records.
//! * **Parameter fingerprint** — a sketch is only meaningful relative to
//!   the [`NumberLine`](crate::NumberLine) and threshold it was produced
//!   under. Every durable artifact embeds a [`Fingerprint`] of the system
//!   parameters; decoding under mismatched parameters fails loudly
//!   ([`CodecError::FingerprintMismatch`]) rather than silently matching
//!   probes against a re-interpreted ring.
//! * **Length-prefixed fields + CRC framing** — every variable-length
//!   field is length-prefixed (injective, no delimiter parsing), and the
//!   append-only journal layered on top frames each entry with a CRC32 so
//!   a torn tail write is distinguishable from corruption
//!   ([`crc32`], [`Writer::put_framed`], [`Reader::get_framed`]).
//!
//! The module exposes two layers: raw [`Writer`]/[`Reader`] primitives
//! (big-endian, length-prefixed) used by `fe-protocol`'s enrollment log,
//! and ready-made codecs for the core types ([`encode_sketch`],
//! [`encode_helper`]).
//!
//! ```rust
//! use fe_core::codec::{decode_sketch, encode_sketch, Fingerprint};
//!
//! let fp = Fingerprint::of(b"params: a=100 k=4 v=500 t=100");
//! let sketch = vec![-200i64, 137, 0, 55];
//! let bytes = encode_sketch(&sketch, &fp);
//! assert_eq!(decode_sketch(&bytes, &fp).unwrap(), sketch);
//!
//! // The same bytes refuse to decode under different parameters.
//! let other = Fingerprint::of(b"params: a=50 k=8 v=250 t=20");
//! assert!(decode_sketch(&bytes, &other).is_err());
//! ```

use crate::fuzzy::HelperData;
use crate::robust::RobustData;
use fe_crypto::{Digest, Sha256};
use std::error::Error;
use std::fmt;

/// Magic prefix shared by every durable artifact of this workspace.
pub const MAGIC: [u8; 4] = *b"FECD";

/// Current on-disk format version. Bump on any incompatible layout
/// change; decoders reject versions they do not know.
pub const FORMAT_VERSION: u16 = 1;

/// Artifact kind tags carried in the header, so a snapshot can never be
/// replayed as a journal (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A bare sketch vector.
    Sketch = 1,
    /// Helper data (robust sketch + extractor seed).
    Helper = 2,
    /// Reserved for a future standalone enrollment-record artifact.
    /// No current writer produces it: `fe-protocol` embeds records
    /// headerless inside journal frames and snapshot rows. The tag is
    /// reserved so it can never be reassigned to a different layout.
    Record = 3,
    /// A compacted snapshot of all live records.
    Snapshot = 4,
    /// An append-only enrollment/revocation journal.
    Journal = 5,
    /// Retired: the sealed-segment cache that older builds wrote beside
    /// a snapshot. No current writer produces it and recovery never
    /// reads it: the snapshot and the journal are the only durable
    /// record. The tag is reserved so it can never be reassigned to a
    /// different layout.
    Segment = 6,
}

impl ArtifactKind {
    fn from_u8(b: u8) -> Option<ArtifactKind> {
        Some(match b {
            1 => ArtifactKind::Sketch,
            2 => ArtifactKind::Helper,
            3 => ArtifactKind::Record,
            4 => ArtifactKind::Snapshot,
            5 => ArtifactKind::Journal,
            6 => ArtifactKind::Segment,
            _ => return None,
        })
    }
}

/// Decoding failures for durable artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// The magic prefix is not [`MAGIC`] — not one of our files.
    BadMagic,
    /// A format version this build does not understand.
    UnsupportedVersion(u16),
    /// The artifact kind tag does not match what the caller expected.
    WrongKind {
        /// The kind the caller asked to decode.
        expected: ArtifactKind,
        /// The tag byte actually present in the header.
        found: u8,
    },
    /// The artifact was produced under different system parameters.
    FingerprintMismatch {
        /// Fingerprint the decoder was configured with.
        expected: Fingerprint,
        /// Fingerprint stored in the artifact.
        found: Fingerprint,
    },
    /// A CRC-framed entry failed its checksum (torn or corrupt write).
    BadChecksum,
    /// Structurally invalid contents.
    Malformed(&'static str),
    /// Well-formed prefix followed by unexpected trailing bytes.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadMagic => write!(f, "bad magic (not a fuzzy-id artifact)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong artifact kind: expected {expected:?}, found {found}"
                )
            }
            CodecError::FingerprintMismatch { expected, found } => write!(
                f,
                "system-parameter fingerprint mismatch: expected {expected}, found {found}"
            ),
            CodecError::BadChecksum => write!(f, "checksum mismatch (torn or corrupt entry)"),
            CodecError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after artifact"),
        }
    }
}

impl Error for CodecError {}

/// An 8-byte digest of the system parameters, embedded in every durable
/// artifact so recovery under mismatched parameters fails loudly.
///
/// Fingerprints are *identifiers*, not authenticators: they detect
/// configuration drift, not tampering (helper data is public and the
/// robust sketch's own hash tag covers integrity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub [u8; 8]);

impl Fingerprint {
    /// Derives a fingerprint from a canonical parameter encoding
    /// (SHA-256, truncated to 8 bytes).
    pub fn of(canonical: &[u8]) -> Fingerprint {
        let mut h = Sha256::new();
        h.update(b"fe-fingerprint-v1");
        h.update(canonical);
        let digest = h.finalize();
        let mut out = [0u8; 8];
        out.copy_from_slice(&digest[..8]);
        Fingerprint(out)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 8] {
        &self.0
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// One byte through the CRC register, a bit at a time: the definition
/// the tables below are generated from.
const fn crc32_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (CRC_POLY & mask);
        bit += 1;
    }
    crc
}

/// Bytes [`crc32`] folds per step, and tables it folds them through.
const CRC_STEP: usize = 16;

/// Slice-by-16 tables: `CRC_TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so sixteen input bytes fold in one step
/// of sixteen independent lookups instead of 128 dependent shift/xor
/// steps. 16 KiB of `.rodata`, generated at compile time.
static CRC_TABLES: [[u32; 256]; CRC_STEP] = {
    let mut tables = [[0u32; 256]; CRC_STEP];
    let mut b = 0;
    while b < 256 {
        tables[0][b] = crc32_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < CRC_STEP {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// frame checksum, used to detect torn journal tail writes. Computed
/// sixteen bytes a step (slice-by-16) with a byte-at-a-time tail; the
/// value is that of the bit-serial definition for every input.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(CRC_STEP);
    for chunk in &mut chunks {
        let word = u128::from_le_bytes(chunk.try_into().expect("chunks_exact(CRC_STEP)"))
            ^ u128::from(crc);
        crc = 0;
        for i in 0..CRC_STEP {
            crc ^= t[CRC_STEP - 1 - i][(word >> (8 * i)) as u8 as usize];
        }
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// The bit-at-a-time loop [`crc32`] replaced, kept as the oracle the
/// table kernel is checked against.
#[cfg(test)]
fn crc32_reference(data: &[u8]) -> u32 {
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

/// Bytes of frame header ahead of a payload: `len (u32) ‖ crc32 (u32)`.
const FRAME_HEADER_LEN: usize = 8;

/// Where a frame opened by [`Writer::begin_frame`] starts.
#[derive(Debug)]
#[must_use = "a frame opened with begin_frame is closed with end_frame"]
pub struct FrameMark(usize);

/// Big-endian, length-prefixed binary writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Empties the buffer, keeping its allocation — so per-row encoding
    /// loops (snapshot streaming) reuse one writer instead of
    /// allocating per row.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Writes the artifact header: magic, version, kind, fingerprint.
    pub fn put_header(&mut self, kind: ArtifactKind, fingerprint: &Fingerprint) {
        self.buf.extend_from_slice(&MAGIC);
        self.put_u16(FORMAT_VERSION);
        self.put_u8(kind as u8);
        self.buf.extend_from_slice(fingerprint.as_bytes());
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.buf.extend_from_slice(data);
    }

    /// Appends a UTF-8 string, length-prefixed.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends bytes as they are, with no length prefix: a magic, or a
    /// payload whose end the enclosing frame marks.
    pub fn put_raw(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Appends an `i64` vector, length-prefixed.
    pub fn put_i64s(&mut self, v: &[i64]) {
        self.buf.reserve(4 + 8 * v.len());
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_i64(x);
        }
    }

    /// Appends a CRC-framed payload: `len (u32) ‖ crc32 (u32) ‖ payload`.
    ///
    /// This is the journal-entry frame: an interrupted write leaves either
    /// a short frame (caught by the length) or a payload whose checksum
    /// fails — both recognized as a torn tail by [`Reader::get_framed`].
    pub fn put_framed(&mut self, payload: &[u8]) {
        self.buf.reserve(FRAME_HEADER_LEN + payload.len());
        let mark = self.begin_frame();
        self.buf.extend_from_slice(payload);
        self.end_frame(mark);
    }

    /// Opens a frame in place: reserves the 8 header bytes and returns
    /// the mark [`Writer::end_frame`] needs. Everything written between
    /// the two calls is the frame's payload, encoded where it will lie —
    /// no second buffer, no copy.
    pub fn begin_frame(&mut self) -> FrameMark {
        let mark = FrameMark(self.buf.len());
        self.buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        mark
    }

    /// Closes the frame opened at `mark`: back-patches `len ‖ crc32` over
    /// the bytes written since. The result is byte-identical to
    /// [`Writer::put_framed`] of those bytes.
    pub fn end_frame(&mut self, mark: FrameMark) {
        let body = mark.0 + FRAME_HEADER_LEN;
        let len = (self.buf.len() - body) as u32;
        let crc = crc32(&self.buf[body..]);
        self.buf[mark.0..mark.0 + 4].copy_from_slice(&len.to_be_bytes());
        self.buf[mark.0 + 4..body].copy_from_slice(&crc.to_be_bytes());
    }

    /// The serialized bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes the buffer can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Big-endian, length-prefixed binary reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    /// Reads the next `n` bytes as they are, borrowed from the input
    /// (`n = remaining()` is "everything up to the end").
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bytes are left.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads and validates an artifact header written by
    /// [`Writer::put_header`].
    ///
    /// # Errors
    /// [`CodecError::BadMagic`] / [`CodecError::UnsupportedVersion`] /
    /// [`CodecError::WrongKind`] / [`CodecError::FingerprintMismatch`]
    /// in validation order, so the most fundamental mismatch is reported.
    pub fn read_header(
        &mut self,
        kind: ArtifactKind,
        fingerprint: &Fingerprint,
    ) -> Result<(), CodecError> {
        let magic = self.get_raw(4)?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = self.get_u16()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let tag = self.get_u8()?;
        if ArtifactKind::from_u8(tag) != Some(kind) {
            return Err(CodecError::WrongKind {
                expected: kind,
                found: tag,
            });
        }
        let mut found = [0u8; 8];
        found.copy_from_slice(self.get_raw(8)?);
        let found = Fingerprint(found);
        if &found != fingerprint {
            return Err(CodecError::FingerprintMismatch {
                expected: *fingerprint,
                found,
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_raw(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.get_raw(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.get_raw(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.get_raw(8)?.try_into().unwrap()))
    }

    /// Reads a big-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_be_bytes(self.get_raw(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u32()? as usize;
        Ok(self.get_raw(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| CodecError::Malformed("not utf-8"))
    }

    /// Reads a length-prefixed `i64` vector.
    pub fn get_i64s(&mut self) -> Result<Vec<i64>, CodecError> {
        let len = self.get_u32()? as usize;
        // One bounds check for the whole vector, before any allocation:
        // a count the input cannot back is `Truncated`, however large.
        let bytes = self.get_raw(len.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| i64::from_be_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    /// Reads one CRC-framed payload written by [`Writer::put_framed`].
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when the frame header or payload is cut
    /// short; [`CodecError::BadChecksum`] when the payload does not match
    /// its CRC. Journal replay treats *either* error at the tail as a
    /// torn final write and truncates there.
    pub fn get_framed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        let crc = self.get_u32()?;
        let payload = self.get_raw(len)?;
        if crc32(payload) != crc {
            return Err(CodecError::BadChecksum);
        }
        Ok(payload)
    }
}

/// Encodes a bare sketch vector as a self-describing durable artifact.
pub fn encode_sketch(sketch: &[i64], fingerprint: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_header(ArtifactKind::Sketch, fingerprint);
    w.put_i64s(sketch);
    w.into_bytes()
}

/// Decodes a sketch encoded by [`encode_sketch`], validating magic,
/// version and parameter fingerprint.
///
/// # Errors
/// Any [`CodecError`] raised by header validation or truncation.
pub fn decode_sketch(bytes: &[u8], fingerprint: &Fingerprint) -> Result<Vec<i64>, CodecError> {
    let mut r = Reader::new(bytes);
    r.read_header(ArtifactKind::Sketch, fingerprint)?;
    let sketch = r.get_i64s()?;
    r.expect_end()?;
    Ok(sketch)
}

/// The helper-data shape the paper's default stack produces: robust
/// Chebyshev sketch (movement vector + binding tag) plus extractor seed.
pub type CanonicalHelper = HelperData<RobustData<Vec<i64>>>;

/// Writes helper data fields (no header — callers embed this in larger
/// records; see [`encode_helper`] for the standalone artifact).
pub fn put_helper(w: &mut Writer, helper: &CanonicalHelper) {
    w.put_i64s(&helper.sketch.inner);
    w.put_bytes(&helper.sketch.tag);
    w.put_bytes(&helper.seed);
}

/// Reads helper-data fields written by [`put_helper`].
///
/// # Errors
/// [`CodecError::Truncated`] on short input.
pub fn get_helper(r: &mut Reader<'_>) -> Result<CanonicalHelper, CodecError> {
    let inner = r.get_i64s()?;
    let tag = r.get_bytes()?;
    let seed = r.get_bytes()?;
    Ok(HelperData {
        sketch: RobustData { inner, tag },
        seed,
    })
}

/// Encodes helper data as a standalone self-describing artifact.
pub fn encode_helper(helper: &CanonicalHelper, fingerprint: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_header(ArtifactKind::Helper, fingerprint);
    put_helper(&mut w, helper);
    w.into_bytes()
}

/// Decodes helper data encoded by [`encode_helper`].
///
/// # Errors
/// Any [`CodecError`] raised by header validation or truncation.
pub fn decode_helper(
    bytes: &[u8],
    fingerprint: &Fingerprint,
) -> Result<CanonicalHelper, CodecError> {
    let mut r = Reader::new(bytes);
    r.read_header(ArtifactKind::Helper, fingerprint)?;
    let helper = get_helper(&mut r)?;
    r.expect_end()?;
    Ok(helper)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint::of(b"test params")
    }

    #[test]
    fn sketch_roundtrip() {
        for sketch in [vec![], vec![0i64], vec![i64::MIN, -1, 0, 1, i64::MAX]] {
            let bytes = encode_sketch(&sketch, &fp());
            assert_eq!(decode_sketch(&bytes, &fp()).unwrap(), sketch);
        }
    }

    #[test]
    fn helper_roundtrip() {
        let helper = CanonicalHelper {
            sketch: RobustData {
                inner: vec![-200, 137, 0],
                tag: vec![7; 32],
            },
            seed: vec![1, 2, 3],
        };
        let bytes = encode_helper(&helper, &fp());
        assert_eq!(decode_helper(&bytes, &fp()).unwrap(), helper);
    }

    #[test]
    fn fingerprint_mismatch_detected() {
        let bytes = encode_sketch(&[1, 2, 3], &fp());
        let other = Fingerprint::of(b"other params");
        assert!(matches!(
            decode_sketch(&bytes, &other),
            Err(CodecError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn header_validation_order() {
        let good = encode_sketch(&[5], &fp());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_sketch(&bad, &fp()), Err(CodecError::BadMagic));
        // Bad version.
        let mut bad = good.clone();
        bad[5] = 0xff;
        assert!(matches!(
            decode_sketch(&bad, &fp()),
            Err(CodecError::UnsupportedVersion(_))
        ));
        // Wrong kind: a helper artifact refuses to decode as a sketch.
        let helper_bytes = encode_helper(
            &CanonicalHelper {
                sketch: RobustData {
                    inner: vec![],
                    tag: vec![],
                },
                seed: vec![],
            },
            &fp(),
        );
        assert!(matches!(
            decode_sketch(&helper_bytes, &fp()),
            Err(CodecError::WrongKind { .. })
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = encode_helper(
            &CanonicalHelper {
                sketch: RobustData {
                    inner: vec![1, 2, 3],
                    tag: vec![9; 16],
                },
                seed: vec![4; 8],
            },
            &fp(),
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_helper(&bytes[..cut], &fp()).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_sketch(&[1], &fp());
        bytes.push(0);
        assert_eq!(decode_sketch(&bytes, &fp()), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn crc32_known_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let pinned: [(&[u8], u32); 6] = [
            // The classic check value.
            (b"123456789", 0xcbf4_3926),
            (b"", 0),
            (&[0x00; 32], 0x190a_55ad),
            (&[0xff; 32], 0xff6c_ab0b),
            (&ascending, 0x9126_7e8a),
            (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
        ];
        for (input, value) in pinned {
            assert_eq!(crc32(input), value, "kernel on {input:x?}");
            assert_eq!(crc32_reference(input), value, "reference on {input:x?}");
        }
    }

    #[test]
    fn crc32_matches_the_bit_serial_reference_at_every_length_and_offset() {
        // Head, body and tail of the 16-byte step at every alignment of
        // one buffer: lengths 0..=257 from start offsets 0..16.
        let buf: Vec<u8> = (0..280u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..CRC_STEP {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn framed_payload_roundtrip_and_torn_detection() {
        let mut w = Writer::new();
        w.put_framed(b"hello");
        w.put_framed(b"");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_framed().unwrap(), b"hello");
        assert_eq!(r.get_framed().unwrap(), b"");
        assert!(r.is_empty());

        // A flipped payload byte fails the checksum…
        let mut corrupt = bytes.clone();
        corrupt[9] ^= 0xff;
        assert_eq!(
            Reader::new(&corrupt).get_framed(),
            Err(CodecError::BadChecksum)
        );
        // …and every truncation point reads as a torn frame.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let first = r.get_framed();
            if cut < 13 {
                assert!(first.is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn fingerprint_display_and_stability() {
        let a = Fingerprint::of(b"abc");
        let b = Fingerprint::of(b"abc");
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 16);
        assert_ne!(a, Fingerprint::of(b"abd"));
    }

    #[test]
    fn reader_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-5);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }
}
