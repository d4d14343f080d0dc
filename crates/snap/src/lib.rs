//! Primitive binary codec for the durable snapshot format.
//!
//! `s3-core`'s snapshot and WAL modules (and the per-crate serializers
//! they call into: forest, vocabulary, RDF store, graph) all encode with
//! the same primitives: LEB128 varints, bit-exact little-endian `f64`s
//! (the byte-identity property bar requires the exact bits back),
//! length-prefixed UTF-8 strings, and length-prefixed nested blocks.
//! This crate sits below every data crate so they can share one
//! bounds-checked decoder; it deliberately mirrors `s3-wire`'s codec
//! (same varint format) without depending on it — the wire crate sits
//! *above* `s3-core` in the dependency order.
//!
//! Decoding is panic-free by construction: every read checks bounds
//! before touching the buffer, every sequence length is sanity-checked
//! against the remaining bytes before any allocation, and [`crc32`]
//! gives the snapshot/WAL layers their corruption check. The snapshot
//! robustness proptests (truncate/flip any byte ⇒ clean error) lean on
//! exactly these guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Errors produced while decoding snapshot or WAL bytes.
#[derive(Debug)]
pub enum SnapError {
    /// The buffer ended in the middle of a value.
    Truncated,
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not the one this build writes.
    Version(u16),
    /// A checksum did not match — the bytes are corrupt.
    Checksum,
    /// A decoded value is structurally invalid (bad enum discriminant,
    /// out-of-range index, non-UTF-8 string, inconsistent lengths, ...).
    Value(&'static str),
    /// A section or file left undecoded trailing bytes.
    TrailingBytes(usize),
    /// Underlying file I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "truncated snapshot data"),
            SnapError::BadMagic => write!(f, "bad magic bytes (not a snapshot file)"),
            SnapError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Checksum => write!(f, "checksum mismatch (corrupt snapshot data)"),
            SnapError::Value(what) => write!(f, "invalid value: {what}"),
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decoded value"),
            SnapError::Io(e) => write!(f, "snapshot i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapError::Truncated
        } else {
            SnapError::Io(e)
        }
    }
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial) over `bytes` — the corruption check
/// stamped on every snapshot section and WAL record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Append a `u64` as a LEB128 varint.
pub fn put_u64v(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a `u32` as a LEB128 varint.
pub fn put_u32v(out: &mut Vec<u8>, v: u32) {
    put_u64v(out, v as u64);
}

/// Append a `usize` as a LEB128 varint.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64v(out, v as u64);
}

/// Append an `f64` as its IEEE-754 bits, little-endian (bit-exact round
/// trip — weights and scores must come back identical).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a bool as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Append a varint-length-prefixed nested block encoded by `encode` —
/// the decoder recovers it with [`SnapReader::block`], which confines
/// all of the block's reads to its own extent.
pub fn put_block(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let mut body = Vec::new();
    encode(&mut body);
    put_usize(out, body.len());
    out.extend_from_slice(&body);
}

/// A bounds-checked cursor over snapshot bytes. No method panics on
/// malformed input.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wrap a byte buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Value("boolean byte not 0/1")),
        }
    }

    /// Read a LEB128 varint as `u64`.
    pub fn u64v(&mut self) -> Result<u64, SnapError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(SnapError::Value("varint overflows u64"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(SnapError::Value("varint longer than 10 bytes"))
    }

    /// Read a varint that must fit a `u32`.
    pub fn u32v(&mut self) -> Result<u32, SnapError> {
        u32::try_from(self.u64v()?).map_err(|_| SnapError::Value("varint overflows u32"))
    }

    /// Read a varint that must fit a `usize`.
    pub fn usize_v(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64v()?).map_err(|_| SnapError::Value("varint overflows usize"))
    }

    /// Read an `f64` from its little-endian IEEE bits.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        if self.remaining() < 8 {
            return Err(SnapError::Truncated);
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let len = self.usize_v()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map_err(|_| SnapError::Value("string is not UTF-8"))
    }

    /// Read a sequence length and reject it outright when even
    /// `min_elem_bytes` per element cannot fit in the remaining bytes —
    /// the guard that keeps corrupt lengths from pre-allocating.
    pub fn seq(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let len = self.usize_v()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(len)
    }

    /// Read a varint-length-prefixed nested block (written with
    /// [`put_block`]) as its own reader. The block must be fully
    /// consumed; call [`SnapReader::finish`] on it.
    pub fn block(&mut self) -> Result<SnapReader<'a>, SnapError> {
        let len = self.usize_v()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let sub = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(SnapReader::new(sub))
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_overflow_cleanly() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            out.clear();
            put_u64v(&mut out, v);
            let mut r = SnapReader::new(&out);
            assert_eq!(r.u64v().unwrap(), v);
            r.finish().unwrap();
        }
        // 11 continuation bytes can never be a valid varint.
        let mut r = SnapReader::new(&[0x80; 11]);
        assert!(matches!(r.u64v(), Err(SnapError::Value(_))));
    }

    #[test]
    fn f64_bits_are_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 0.1 + 0.2] {
            let mut out = Vec::new();
            put_f64(&mut out, v);
            let mut r = SnapReader::new(&out);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn blocks_confine_reads_and_report_trailing() {
        let mut out = Vec::new();
        put_block(&mut out, |b| put_str(b, "abc"));
        put_u32v(&mut out, 7);
        let mut r = SnapReader::new(&out);
        let mut block = r.block().unwrap();
        assert_eq!(block.str().unwrap(), "abc");
        block.finish().unwrap();
        assert_eq!(r.u32v().unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn seq_guard_rejects_absurd_lengths() {
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX / 2);
        let mut r = SnapReader::new(&out);
        assert!(matches!(r.seq(4), Err(SnapError::Truncated)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert!(matches!(r.f64(), Err(SnapError::Truncated)));
        let mut r = SnapReader::new(&[200]);
        assert!(matches!(r.u64v(), Err(SnapError::Truncated)));
        let mut r = SnapReader::new(&[5, b'a']);
        assert!(matches!(r.str(), Err(SnapError::Truncated)));
    }
}
