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
//! hand-rolled, versioned, length-prefixed binary form, and provides the
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
//! [`MAX_FRAME`]. Integers in bodies are LEB128 varints, `f64`s are their
//! IEEE bits little-endian (bit-exact round trip — the byte-identity
//! property bar depends on it), strings are varint-length-prefixed UTF-8.
//!
//! # Versioning rule
//!
//! [`WIRE_VERSION`] is a single byte checked on every frame; any change to
//! any message body bumps it. There are no compatibility shims yet: a
//! mismatch is a hard [`WireError::Version`] and the fleet refuses to
//! start. (Rolling upgrades can add per-tag negotiation later without
//! changing the frame header.)
//!
//! Decoding is panic-free by construction: every length is bounds-checked
//! against the remaining frame before any allocation, and structural
//! indices (document tree parents, text node ids) are validated so a
//! decoded [`WireIngest`] can always be replayed through the public
//! [`s3_core::IngestBatch`] builder API. The proptest suite feeds the
//! decoder arbitrary byte strings to keep it that way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod frame;
mod msg;
mod transport;

pub use codec::Reader;
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use msg::{
    encode_snapshot_chunk, peek_tag, tag, CompactAck, IngestAck, Message, RequestBuf, RequestKind,
    RoundReply, SelectionEntry, Snapshot, SnapshotAck, SnapshotChunk, Start, StopCheck, WireDoc,
    WireIngest, SNAPSHOT_CHUNK_BYTES, WIRE_VERSION,
};
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
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
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
