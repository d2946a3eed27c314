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
//! * **The paper's bits** — format [`Version::V2`] spells each length in
//!   one byte ([`put_len`]) and a sketch as one-width [`zigzag`] codes
//!   ([`Writer::put_sketch`]): 9 bits a coordinate at the paper ring,
//!   where [`Version::V1`] spent 64. Writers write version 2; readers
//!   read both, dispatching on the version [`Reader::read_header`]
//!   returns.
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
//! // 15-byte header, dimension, width, then 4 × 9 bits in 5 bytes.
//! assert_eq!(bytes.len(), 15 + 1 + 1 + 5);
//!
//! // The same bytes refuse to decode under different parameters.
//! let other = Fingerprint::of(b"params: a=50 k=8 v=250 t=20");
//! assert!(decode_sketch(&bytes, &other).is_err());
//! ```

use crate::fuzzy::HelperData;
use crate::robust::RobustData;
use fe_crypto::Sha256;
use std::error::Error;
use std::fmt;

/// Magic prefix shared by every durable artifact of this workspace.
pub const MAGIC: [u8; 4] = *b"FECD";

/// The on-disk format version every writer writes. Bump on any
/// incompatible layout change; decoders reject versions they do not
/// know.
pub const FORMAT_VERSION: Version = Version::V2;

/// The durable layouts this build reads, named by the `u16` in an
/// artifact header. Only the record row differs between them: the
/// header, the frames and the snapshot's count are the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Version {
    /// Every length a big-endian `u32`, a sketch `u32 count ‖ count ×
    /// i64`. Still read from stores written before version 2, and still
    /// the wire's record row (`PROTOCOL.md` §4).
    V1 = 1,
    /// Lengths by the one-byte rule ([`put_len`]), a sketch as one-width
    /// zigzag codes ([`Writer::put_sketch`]).
    V2 = 2,
}

impl Version {
    fn from_u16(v: u16) -> Option<Version> {
        match v {
            1 => Some(Version::V1),
            2 => Some(Version::V2),
            _ => None,
        }
    }
}

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

/// A length this large or larger is this byte, then the length as a
/// little-endian `u32` ([`put_len`]).
const LEN_ESCAPE: u8 = 0xff;

/// Bytes [`put_len`] writes for `len`.
#[inline]
pub fn len_bytes(len: usize) -> usize {
    1 + 4 * usize::from(len >= usize::from(LEN_ESCAPE))
}

/// The one-byte length rule: a length below 255 is its byte, any other
/// is `0xff` then the length as a little-endian `u32`. The record
/// table spells every length of a block with it, and a version-2
/// artifact every length of a record row.
///
/// # Panics
/// When `len` does not fit a `u32`.
#[inline]
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    if len < usize::from(LEN_ESCAPE) {
        out.push(len as u8);
    } else {
        let len = u32::try_from(len).expect("a length fits a u32");
        out.push(LEN_ESCAPE);
        out.extend_from_slice(&len.to_le_bytes());
    }
}

/// The length [`put_len`] wrote at the front of `bytes`, and the bytes
/// it takes there.
///
/// # Errors
/// [`CodecError::Truncated`] when `bytes` ends inside it;
/// [`CodecError::Malformed`] for an escape spelling a length below 255.
#[inline]
pub fn peek_len(bytes: &[u8]) -> Result<(u32, usize), CodecError> {
    match *bytes {
        [] => Err(CodecError::Truncated),
        [LEN_ESCAPE, ref rest @ ..] => {
            let word = rest.get(..4).ok_or(CodecError::Truncated)?;
            let len = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            if len < u32::from(LEN_ESCAPE) {
                return Err(CodecError::Malformed("escaped length below 255"));
            }
            Ok((len, 5))
        }
        [byte, ..] => Ok((u32::from(byte), 1)),
    }
}

/// `v` as an unsigned code whose bit length grows with `|v|`:
/// `0, −1, 1, −2, …` map to `0, 1, 2, 3, …`.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
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

    /// Writes the artifact header: magic, [`FORMAT_VERSION`], kind,
    /// fingerprint.
    pub fn put_header(&mut self, kind: ArtifactKind, fingerprint: &Fingerprint) {
        self.buf.extend_from_slice(&MAGIC);
        self.put_u16(FORMAT_VERSION as u16);
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

    /// Appends a byte string under `version`'s length rule: a `u32`
    /// prefix in version 1 ([`Writer::put_bytes`]), [`put_len`]'s in
    /// version 2.
    pub fn put_field(&mut self, data: &[u8], version: Version) {
        match version {
            Version::V1 => self.put_bytes(data),
            Version::V2 => {
                put_len(&mut self.buf, data.len());
                self.buf.extend_from_slice(data);
            }
        }
    }

    /// Appends a sketch in `version`'s layout: [`Writer::put_i64s`] in
    /// version 1; in version 2 `len(dim) ‖ width ‖ ⌈dim·width/8⌉ bytes`,
    /// each coordinate [`zigzag`]ged into `width` bits, least
    /// significant bit first, where `width` is the bit length of the OR
    /// of the codes (at least 1). Lossless for every `i64`, and no ring
    /// parameter is needed to read it back: the paper ring's sketches
    /// (`|s| ≤ ka/2 = 200`) take 9 bits a coordinate.
    pub fn put_sketch(&mut self, sketch: &[i64], version: Version) {
        if version == Version::V1 {
            return self.put_i64s(sketch);
        }
        let or = sketch.iter().fold(0, |or, &v| or | zigzag(v));
        let width = (u64::BITS - or.leading_zeros()).max(1);
        put_len(&mut self.buf, sketch.len());
        self.put_u8(width as u8);
        self.buf
            .reserve((sketch.len() * width as usize).div_ceil(8));
        // Whole words out as they fill; a code that straddles a word
        // leaves its high `bits` bits to start the next.
        let (mut acc, mut bits) = (0u64, 0);
        for &v in sketch {
            let z = zigzag(v);
            acc |= z << bits;
            bits += width;
            if bits >= u64::BITS {
                self.buf.extend_from_slice(&acc.to_le_bytes());
                bits -= u64::BITS;
                acc = z.checked_shr(width - bits).unwrap_or(0);
            }
        }
        let tail = bits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&acc.to_le_bytes()[..tail]);
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
    /// [`Writer::put_header`] (by this build or one that wrote an older
    /// [`Version`]), and returns the version, which names the layout of
    /// the record rows behind it.
    ///
    /// # Errors
    /// [`CodecError::BadMagic`] / [`CodecError::UnsupportedVersion`] /
    /// [`CodecError::WrongKind`] / [`CodecError::FingerprintMismatch`]
    /// in validation order, so the most fundamental mismatch is reported.
    pub fn read_header(
        &mut self,
        kind: ArtifactKind,
        fingerprint: &Fingerprint,
    ) -> Result<Version, CodecError> {
        let magic = self.get_raw(4)?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let raw = self.get_u16()?;
        let version = Version::from_u16(raw).ok_or(CodecError::UnsupportedVersion(raw))?;
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
        Ok(version)
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

    /// Reads a length written by the one-byte rule ([`peek_len`]).
    fn get_len(&mut self) -> Result<usize, CodecError> {
        let (len, n) = peek_len(&self.data[self.pos..])?;
        self.pos += n;
        Ok(len as usize)
    }

    /// Reads a byte string written by [`Writer::put_field`] under
    /// `version`, borrowed from the input.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] on short input; as [`peek_len`] in
    /// version 2.
    pub fn get_field(&mut self, version: Version) -> Result<&'a [u8], CodecError> {
        let len = match version {
            Version::V1 => self.get_u32()? as usize,
            Version::V2 => self.get_len()?,
        };
        self.get_raw(len)
    }

    /// Reads a sketch written by [`Writer::put_sketch`] under `version`.
    ///
    /// Version 2 is read canonically, so re-encoding an accepted sketch
    /// gives back its bytes: a width outside `1..=64`, a width the codes
    /// do not need, and a set padding bit are all refused. The width is
    /// at least one bit a coordinate, so a dimension the input cannot
    /// back is [`CodecError::Truncated`] before anything is allocated.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] on short input;
    /// [`CodecError::Malformed`] for a non-canonical encoding.
    pub fn get_sketch(&mut self, version: Version) -> Result<Vec<i64>, CodecError> {
        if version == Version::V1 {
            return self.get_i64s();
        }
        let dim = self.get_len()?;
        let width = u32::from(self.get_u8()?);
        if !(1..=u64::BITS).contains(&width) {
            return Err(CodecError::Malformed("sketch width outside 1..=64"));
        }
        let bits = dim as u64 * u64::from(width);
        let src =
            self.get_raw(usize::try_from(bits.div_ceil(8)).map_err(|_| CodecError::Truncated)?)?;
        let pad = (bits % 8) as u32;
        if pad != 0 && src.last().is_some_and(|&last| last >> pad != 0) {
            return Err(CodecError::Malformed("sketch padding bits set"));
        }
        // Code `i` read from the eight bytes its first bit lies in, each
        // code on its own (no carry from one to the next); a code that
        // runs past them (`width` > 57) takes its top bits from the
        // ninth. Fewer than eight bytes are left only at the end, where
        // the code lies within them.
        let (w, mask) = (width as usize, u64::MAX >> (u64::BITS - width));
        let mut or = 0;
        let sketch = (0..dim)
            .map(|i| {
                let (at, shift) = (i * w / 8, (i * w % 8) as u32);
                let mut z = match src.get(at..at + 8) {
                    Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
                    None => (src[at..].iter().rev()).fold(0, |z, &b| z << 8 | u64::from(b)),
                } >> shift;
                if shift + width > u64::BITS {
                    z |= u64::from(src[at + 8]) << (u64::BITS - shift);
                }
                or |= z & mask;
                unzigzag(z & mask)
            })
            .collect();
        if width > 1 && or >> (width - 1) == 0 {
            return Err(CodecError::Malformed("sketch wider than its codes"));
        }
        Ok(sketch)
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
    w.put_sketch(sketch, FORMAT_VERSION);
    w.into_bytes()
}

/// Decodes a sketch encoded by [`encode_sketch`] (in either
/// [`Version`]), validating magic, version and parameter fingerprint.
///
/// # Errors
/// Any [`CodecError`] raised by header validation or truncation.
pub fn decode_sketch(bytes: &[u8], fingerprint: &Fingerprint) -> Result<Vec<i64>, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.read_header(ArtifactKind::Sketch, fingerprint)?;
    let sketch = r.get_sketch(version)?;
    r.expect_end()?;
    Ok(sketch)
}

/// Writes helper data fields in `version`'s layout (no header — callers
/// embed this in larger records; see [`encode_helper`] for the
/// standalone artifact).
pub fn put_helper(w: &mut Writer, helper: &HelperData, version: Version) {
    w.put_sketch(&helper.sketch.inner, version);
    w.put_field(&helper.sketch.tag, version);
    w.put_field(&helper.seed, version);
}

/// Reads helper-data fields written by [`put_helper`] in `version`.
///
/// # Errors
/// [`CodecError::Truncated`] on short input; [`CodecError::Malformed`]
/// on a non-canonical version-2 field.
pub fn get_helper(r: &mut Reader<'_>, version: Version) -> Result<HelperData, CodecError> {
    let inner = r.get_sketch(version)?;
    let tag = r.get_field(version)?.to_vec();
    let seed = r.get_field(version)?.to_vec();
    Ok(HelperData {
        sketch: RobustData { inner, tag },
        seed,
    })
}

/// Encodes helper data as a standalone self-describing artifact.
pub fn encode_helper(helper: &HelperData, fingerprint: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_header(ArtifactKind::Helper, fingerprint);
    put_helper(&mut w, helper, FORMAT_VERSION);
    w.into_bytes()
}

/// Decodes helper data encoded by [`encode_helper`] (in either
/// [`Version`]).
///
/// # Errors
/// Any [`CodecError`] raised by header validation or truncation.
pub fn decode_helper(bytes: &[u8], fingerprint: &Fingerprint) -> Result<HelperData, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.read_header(ArtifactKind::Helper, fingerprint)?;
    let helper = get_helper(&mut r, version)?;
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
        let helper = HelperData {
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
            &HelperData {
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
            &HelperData {
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
    fn version_1_artifacts_still_decode() {
        let sketch = vec![i64::MIN, -200, 0, 200, i64::MAX];
        let helper = HelperData {
            sketch: RobustData {
                inner: sketch.clone(),
                tag: vec![7; 32],
            },
            seed: vec![3; 300],
        };
        // Version 1 by hand: the header with a 1, then `u32` lengths.
        let v1 = |kind: ArtifactKind, body: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.put_raw(&MAGIC);
            w.put_u16(1);
            w.put_u8(kind as u8);
            w.put_raw(fp().as_bytes());
            body(&mut w);
            w.into_bytes()
        };
        let bytes = v1(ArtifactKind::Sketch, &|w| w.put_i64s(&sketch));
        assert_eq!(decode_sketch(&bytes, &fp()).unwrap(), sketch);
        let bytes = v1(ArtifactKind::Helper, &|w| {
            put_helper(w, &helper, Version::V1)
        });
        assert_eq!(bytes.len(), 15 + (4 + 40) + (4 + 32) + (4 + 300));
        assert_eq!(decode_helper(&bytes, &fp()).unwrap(), helper);
        // Version 2 of the same helper: 64-bit codes, a 300-byte seed
        // behind the escape.
        let bytes = encode_helper(&helper, &fp());
        assert_eq!(bytes.len(), 15 + (2 + 40) + (1 + 32) + (5 + 300));
        assert_eq!(decode_helper(&bytes, &fp()).unwrap(), helper);
    }

    #[test]
    fn length_rule_at_its_edges() {
        for (len, spelled) in [
            (0, vec![0]),
            (254, vec![254]),
            (255, vec![0xff, 255, 0, 0, 0]),
            (65_536, vec![0xff, 0, 0, 1, 0]),
        ] {
            let mut out = Vec::new();
            put_len(&mut out, len);
            assert_eq!((out.len(), len_bytes(len)), (spelled.len(), spelled.len()));
            assert_eq!(out, spelled);
            assert_eq!(peek_len(&out), Ok((len as u32, out.len())));
            for cut in 0..out.len() {
                assert_eq!(peek_len(&out[..cut]), Err(CodecError::Truncated));
            }
        }
        assert!(matches!(
            peek_len(&[0xff, 254, 0, 0, 0]),
            Err(CodecError::Malformed(_))
        ));
        for v in [i64::MIN, -2, -1, 0, 1, 2, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!([0, -1, 1, -2].map(zigzag), [0, 1, 2, 3]);
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
