//! Wire protocol for the cross-process scatter-gather fleet.
//!
//! The fleet runs the core's one search driver (`s3_core::S3kEngine::search`)
//! on a remote round executor: each executor operation is one request to
//! every routed shard, answered by that shard's `s3_core::FleetShard` —
//! [`Start`] (expand, round 0) and `NextRound` (one step, one round) are
//! answered by a [`RoundReply`] with the round's admissions and the
//! shard's selection; [`StopCheck`] (the shard's share of the merged
//! selection) by a `Vote` carrying the shard's rival bound; `EndQuery`
//! has no reply. This crate gives those messages (plus
//! [`s3_core::IngestBatch`] shipping, snapshots and compaction) a
//! versioned, length-prefixed binary form, and provides the
//! [`ShardTransport`] abstraction the fleet client drives:
//!
//! * [`FramedTransport`] over any `Read + Write` stream — in particular a
//!   unix-domain socket ([`std::os::unix::net::UnixStream`]) or an
//!   in-memory [`LoopbackConn`] duplex pair for offline tests;
//! * a zero-copy in-process implementation lives in `s3_engine::LocalShard`.
//!
//! # Framing
//!
//! ```text
//! ┌───────────────┬─────────┬──────┬──────────────────────┐
//! │ len: u32 LE   │ version │ tag  │ body (len - 2 bytes) │
//! └───────────────┴─────────┴──────┴──────────────────────┘
//! ```
//!
//! `len` counts the version + tag + body bytes and is capped at
//! [`MAX_FRAME`]. Bodies are written in `s3-snap`'s codec, the one the
//! snapshot and the WAL use: each message body is a field list
//! ([`s3_snap::codec!`]), and an ingest body is [`s3_core::IngestBatch`]'s
//! own encoding. Integers are LEB128 varints, `f64`s are their IEEE bits
//! little-endian (bit-exact round trip — the byte-identity property bar
//! depends on it), strings and sequences are varint-length-prefixed.
//! A WAL record is an ingest frame.
//!
//! # Versioning rule
//!
//! [`WIRE_VERSION`] is a single byte checked on every frame; any change to
//! any message body bumps it, and with it `s3_core::WAL_VERSION` (the
//! journal holds ingest frames). There are no compatibility shims yet: a
//! mismatch is a hard [`WireError::Version`] and the fleet refuses to
//! start. (Rolling upgrades can add per-tag negotiation later without
//! changing the frame header.)
//!
//! Decoding is panic-free by construction: every length is bounds-checked
//! against the remaining frame before any allocation, and structural
//! indices (document tree parents, text node ids) are validated so a
//! decoded [`s3_core::IngestBatch`] always holds documents its builder
//! API could have built. The proptest suite feeds the decoders arbitrary
//! byte strings to keep it that way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod msg;
mod transport;

pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use msg::{
    decode_ingest, encode_ingest, encode_snapshot_chunk, peek_tag, tag, CompactAck, IngestAck,
    Message, RequestBuf, RequestKind, RoundReply, SelectionEntry, Snapshot, SnapshotAck,
    SnapshotChunk, Start, StopCheck, WireIngest, SNAPSHOT_CHUNK_BYTES, WIRE_VERSION,
};
use s3_snap::SnapError;
pub use transport::{loopback_pair, FramedTransport, LoopbackConn, ShardTransport, TransportStats};

/// Errors produced while encoding, decoding or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// Clean end-of-stream between frames (the peer hung up).
    Eof,
    /// The stream or frame ended in the middle of a value.
    Truncated,
    /// The frame's version byte does not match [`WIRE_VERSION`].
    Version(u8),
    /// Unknown or unexpected message tag.
    Tag(u8),
    /// A decoded value is structurally invalid (bad enum discriminant,
    /// out-of-range index, non-UTF-8 string, ...).
    Value(&'static str),
    /// The frame length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// A message body left undecoded trailing bytes.
    TrailingBytes(usize),
    /// The peer violated the request/reply protocol (e.g. replied with the
    /// wrong message kind, or shard acks diverged after an ingest).
    Protocol(&'static str),
    /// Underlying transport I/O error.
    Io(std::io::Error),
    /// A shipped or loaded snapshot was rejected (bad magic, wrong
    /// version, checksum mismatch).
    Snapshot(SnapError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "end of stream"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Version(v) => {
                write!(f, "wire version mismatch: got {v}, expected {}", msg::WIRE_VERSION)
            }
            WireError::Tag(t) => write!(f, "unknown or unexpected message tag {t}"),
            WireError::Value(what) => write!(f, "invalid value: {what}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message body"),
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
            WireError::Io(e) => write!(f, "transport i/o: {e}"),
            WireError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// The codec's shared failures keep their wire names (a truncated,
/// malformed or over-long body); what only a snapshot can fail with
/// travels as [`WireError::Snapshot`].
impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::Truncated => WireError::Truncated,
            SnapError::Value(what) => WireError::Value(what),
            SnapError::TrailingBytes(n) => WireError::TrailingBytes(n),
            SnapError::Io(e) => WireError::Io(e),
            other => WireError::Snapshot(other),
        }
    }
}
