//! The one binary codec behind the durable snapshot, the ingest WAL and
//! the fleet's wire protocol.
//!
//! A value's encoding is its [`Codec`] impl: LEB128 varints for the
//! integers, bit-exact little-endian `f64`s (the byte-identity property
//! bar requires the exact bits back), one byte for a `bool`,
//! varint-length-prefixed UTF-8 strings and sequences, a presence byte
//! for an `Option`, and the concatenation of the parts for tuples,
//! field-list structs and tagged enums (both written with [`codec!`]).
//! Length-prefixed nested blocks ([`put_block`], [`SnapReader::block`])
//! confine a section's reads to its own extent. This crate sits below
//! every data crate: `s3-text`, `s3-doc`, `s3-rdf` and `s3-core` encode
//! their snapshot state with it, and `s3-wire` frames its message bodies
//! and shipped ingest batches with it.
//!
//! Decoding is panic-free by construction: every read checks bounds
//! before touching the buffer, every sequence length is checked against
//! the remaining bytes (at [`Codec::MIN_BYTES`] per element) before any
//! allocation, and [`crc32`] gives the snapshot/WAL layers their
//! corruption check. The snapshot and wire robustness properties
//! (truncate/flip any byte ⇒ clean error or a value that re-encodes
//! stably) lean on exactly these guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Errors produced while decoding snapshot, WAL or wire bytes (`s3-wire`
/// converts them into its own `WireError`).
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

/// A value with one binary encoding, shared by the snapshot, the WAL and
/// the wire. [`Self::encode`] appends; [`Self::decode`] reads a fresh
/// value; [`Self::decode_into`] overwrites `self` in place, reusing its
/// allocations (strings and sequences keep their capacity), which is how
/// the fleet's round decoders allocate nothing in steady state.
pub trait Codec: Sized {
    /// The fewest bytes any encoding of the type takes: the per-element
    /// bound [`SnapReader::seq`] checks a sequence length against before
    /// anything is allocated for it.
    const MIN_BYTES: usize;

    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Decode one value over `self`. After an error `self` holds some
    /// valid but unspecified value.
    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Self::decode(r)?;
        Ok(())
    }
}

macro_rules! varint_codec {
    ($($ty:ty => $read:ident),*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = 1;
            fn encode(&self, out: &mut Vec<u8>) {
                let mut v = *self as u64;
                while v >= 0x80 {
                    out.push(v as u8 | 0x80);
                    v >>= 7;
                }
                out.push(v as u8);
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$read()
            }
        }
    )*};
}
varint_codec!(u64 => u64v, u32 => u32v, usize => usize_v);

/// One raw byte (a discriminant).
impl Codec for u8 {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

/// One byte, strictly 0 or 1.
impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

/// The IEEE-754 bits, little-endian: the round trip is bit-exact.
impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

/// Append a varint-length-prefixed byte string (read back with
/// [`SnapReader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    bytes.len().encode(out);
    out.extend_from_slice(bytes);
}

/// Append a borrowed string exactly as its `String` would encode.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Varint byte length, then the UTF-8 bytes.
impl Codec for String {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.str()?.to_owned())
    }
    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let s = r.str()?;
        self.clear();
        self.push_str(s);
        Ok(())
    }
}

/// Varint element count, then the elements; the count is checked against
/// the remaining bytes at `T::MIN_BYTES` each before anything is reserved.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut v = Vec::new();
        v.decode_into(r)?;
        Ok(v)
    }
    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq(T::MIN_BYTES)?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push(T::decode(r)?);
        }
        Ok(())
    }
}

/// A presence byte (0 or 1), then the value when present.
impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Value("option discriminant")),
        }
    }
}

macro_rules! tuple_codec {
    ($($part:ident)+) => {
        /// The parts in order.
        #[allow(non_snake_case)]
        impl<$($part: Codec),+> Codec for ($($part,)+) {
            const MIN_BYTES: usize = 0 $(+ $part::MIN_BYTES)+;
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($part,)+) = self;
                $($part.encode(out);)+
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($part::decode(r)?,)+))
            }
        }
    };
}
tuple_codec!(A B);
tuple_codec!(A B C);

/// [`Codec::MIN_BYTES`] of the field `field` selects (the field-list
/// arm of [`codec!`] names fields, not their types).
#[doc(hidden)]
pub const fn field_min_bytes<S, T: Codec>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// The smallest of `xs` (the enum arm of [`codec!`]: the lightest
/// variant bounds the encoding from below).
#[doc(hidden)]
pub const fn min_of(xs: &[usize]) -> usize {
    let (mut min, mut i) = (usize::MAX, 0);
    while i < xs.len() {
        if xs[i] < min {
            min = xs[i];
        }
        i += 1;
    }
    min
}

/// Implement [`Codec`] for a field-list struct or a tagged enum.
///
/// A struct encodes as the listed fields in order (named fields, or `0`,
/// `1`, ... of a tuple struct); `where check` runs
/// `check(&value) -> Result<(), SnapError>` after every decode. An enum
/// encodes as its variant's discriminant byte, then the variant's
/// payload: nothing, one tuple field, or named fields in order.
///
/// ```
/// use s3_snap::{codec, Codec, SnapReader};
///
/// #[derive(Debug, PartialEq)]
/// struct Edge {
///     from: u32,
///     weight: f64,
/// }
/// codec!(struct Edge { from, weight });
///
/// #[derive(Debug, PartialEq)]
/// enum Ref {
///     Existing(u32),
///     New { index: usize },
/// }
/// codec!(enum Ref { 0 => Existing(u32), 1 => New { index: usize } });
///
/// let value = (Edge { from: 1, weight: 0.5 }, Ref::New { index: 3 });
/// let mut out = Vec::new();
/// value.encode(&mut out);
/// assert_eq!(out.len(), 1 + 8 + 1 + 1);
/// assert_eq!(<(Edge, Ref)>::decode(&mut SnapReader::new(&out)).unwrap(), value);
/// ```
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($field:tt),* $(,)? } $(where $check:expr)?) => {
        impl $crate::Codec for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::field_min_bytes(|v: &$ty| &v.$field))*;
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Codec::encode(&self.$field, out);)*
            }
            fn decode(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                let value = $ty { $($field: $crate::Codec::decode(r)?),* };
                $($check(&value)?;)?
                Ok(value)
            }
            fn decode_into(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> Result<(), $crate::SnapError> {
                $($crate::Codec::decode_into(&mut self.$field, r)?;)*
                $($check(self)?;)?
                Ok(())
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident $(($inner:ty))? $({ $($f:ident: $fty:ty),* })?),* $(,)?
    }) => {
        impl $crate::Codec for $ty {
            const MIN_BYTES: usize =
                1 + $crate::min_of(&[$($crate::codec!(@min $(($inner))? $({ $($f: $fty),* })?)),*]);
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::codec!(@pat $ty $variant value $(($inner))? $({ $($f: $fty),* })?) => {
                        out.push($tag);
                        $crate::codec!(@put out value $(($inner))? $({ $($f: $fty),* })?);
                    })*
                }
            }
            fn decode(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(match r.u8()? {
                    $($tag => $crate::codec!(@get r $ty $variant $(($inner))? $({ $($f: $fty),* })?),)*
                    _ => {
                        let what = concat!(stringify!($ty), " discriminant");
                        return Err($crate::SnapError::Value(what));
                    }
                })
            }
        }
    };
    (@min) => { 0 };
    (@min ($inner:ty)) => { <$inner as $crate::Codec>::MIN_BYTES };
    (@min { $($f:ident: $fty:ty),* }) => { 0 $(+ <$fty as $crate::Codec>::MIN_BYTES)* };
    (@pat $ty:ident $variant:ident $v:ident) => { $ty::$variant };
    (@pat $ty:ident $variant:ident $v:ident ($inner:ty)) => { $ty::$variant($v) };
    (@pat $ty:ident $variant:ident $v:ident { $($f:ident: $fty:ty),* }) => {
        $ty::$variant { $($f),* }
    };
    (@put $out:ident $v:ident) => {};
    (@put $out:ident $v:ident ($inner:ty)) => { $crate::Codec::encode($v, $out) };
    (@put $out:ident $v:ident { $($f:ident: $fty:ty),* }) => {
        $($crate::Codec::encode($f, $out);)*
    };
    (@get $r:ident $ty:ident $variant:ident) => { $ty::$variant };
    (@get $r:ident $ty:ident $variant:ident ($inner:ty)) => {
        $ty::$variant(<$inner as $crate::Codec>::decode($r)?)
    };
    (@get $r:ident $ty:ident $variant:ident { $($f:ident: $fty:ty),* }) => {
        $ty::$variant { $($f: <$fty as $crate::Codec>::decode($r)?),* }
    };
}

/// Append a varint-length-prefixed nested block encoded by `encode` —
/// the decoder recovers it with [`SnapReader::block`], which confines
/// all of the block's reads to its own extent.
pub fn put_block(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let mut body = Vec::new();
    encode(&mut body);
    put_bytes(out, &body);
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

    /// Read a varint-length-prefixed byte string, borrowed from the
    /// buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize_v()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Value("string is not UTF-8"))
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
        Ok(SnapReader::new(self.bytes()?))
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
            v.encode(&mut out);
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
            v.encode(&mut out);
            let mut r = SnapReader::new(&out);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn blocks_confine_reads_and_report_trailing() {
        let mut out = Vec::new();
        put_block(&mut out, |b| "abc".to_owned().encode(b));
        7u32.encode(&mut out);
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
        (usize::MAX / 2).encode(&mut out);
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
