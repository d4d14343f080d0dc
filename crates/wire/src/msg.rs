//! Message bodies for the per-round fleet exchange and ingest shipping.
//!
//! A frame is [`WIRE_VERSION`], the message tag, then the body; every
//! body is a field list ([`s3_snap::codec!`]), and a shipped ingest batch
//! is [`IngestBatch`]'s own encoding. Every reply-carrying struct decodes
//! *into* `&mut self` so the fleet client and shard servers reuse one
//! buffer per message kind across rounds — no per-round `Vec` churn on the
//! hot path.

use crate::WireError;
use s3_core::IngestBatch;
use s3_snap::{codec, put_bytes, Codec, SnapError, SnapReader};

/// Protocol version; bumped on *any* body change (see crate docs).
/// Version 2: the stop-check reply ([`tag::VOTE`]) carries the shard's
/// certified rival upper bound (f64) instead of a boolean vote.
/// Version 3: snapshot bootstrap frames ([`tag::SNAPSHOT`],
/// [`tag::SNAPSHOT_CHUNK`], [`tag::SNAPSHOT_ACK`]) let the fleet client
/// ship a full instance snapshot to shard servers instead of every
/// replica regenerating from an identically-seeded builder.
/// Version 4: ingest bodies carry retraction lists (deleted users,
/// documents and tags, removed social and comment edges), and a
/// compaction request/acknowledgement pair ([`tag::COMPACT`],
/// [`tag::COMPACT_ACK`]) lets the fleet client drive the off-path
/// rebuild on every replica and cross-check the resulting fingerprints.
///
/// A WAL record is an ingest frame, so a bump here must bump
/// `s3_core::WAL_VERSION` too.
pub const WIRE_VERSION: u8 = 4;

/// Payload bytes per [`SnapshotChunk`] frame (8 MiB — comfortably under
/// [`crate::MAX_FRAME`], so a shipped snapshot of any size frames
/// cleanly).
pub const SNAPSHOT_CHUNK_BYTES: usize = 1 << 23;

/// Message tags. Requests are low numbers, replies start at 64.
pub mod tag {
    /// Begin a query round 0 ([`super::Start`]).
    pub const START: u8 = 1;
    /// Advance the propagation one step and run the next round.
    pub const NEXT_ROUND: u8 = 2;
    /// Global stop probe ([`super::StopCheck`]).
    pub const STOP_CHECK: u8 = 3;
    /// The client decided the query is over.
    pub const END_QUERY: u8 = 4;
    /// Ship an ingest batch ([`super::encode_ingest`]).
    pub const INGEST: u8 = 5;
    /// Shut the shard server down.
    pub const SHUTDOWN: u8 = 6;
    /// Announce a snapshot shipment ([`super::Snapshot`]); its chunks
    /// follow immediately.
    pub const SNAPSHOT: u8 = 7;
    /// One chunk of a shipped snapshot ([`super::SnapshotChunk`]).
    pub const SNAPSHOT_CHUNK: u8 = 8;
    /// Compact the replica: rebuild without tombstoned state and swap
    /// the clean instance in (empty body; replied with
    /// [`super::CompactAck`]).
    pub const COMPACT: u8 = 9;
    /// Per-round shard reply ([`super::RoundReply`]).
    pub const ROUND: u8 = 64;
    /// Per-shard stop-check reply: the shard's certified rival upper
    /// bound (f64 body) — the largest upper bound of any local candidate
    /// that could still displace the merged selection, 0 when none.
    pub const VOTE: u8 = 65;
    /// Ingest acknowledgement ([`super::IngestAck`]).
    pub const INGEST_ACK: u8 = 66;
    /// Snapshot bootstrap acknowledgement ([`super::SnapshotAck`]).
    pub const SNAPSHOT_ACK: u8 = 67;
    /// Compaction acknowledgement ([`super::CompactAck`]).
    pub const COMPACT_ACK: u8 = 68;
}

fn begin(out: &mut Vec<u8>, t: u8) {
    out.extend_from_slice(&[WIRE_VERSION, t]);
}

/// Read the version byte (rejecting a mismatch before anything else) and
/// return the tag.
fn read_header(r: &mut SnapReader<'_>) -> Result<u8, WireError> {
    let v = r.u8()?;
    if v != WIRE_VERSION {
        return Err(WireError::Version(v));
    }
    Ok(r.u8()?)
}

/// Check the version byte and return the message tag without consuming
/// the body.
pub fn peek_tag(frame: &[u8]) -> Result<u8, WireError> {
    read_header(&mut SnapReader::new(frame))
}

/// Append a `t` frame carrying `body`.
pub(crate) fn encode_frame(t: u8, body: &impl Codec, out: &mut Vec<u8>) {
    begin(out, t);
    body.encode(out);
}

/// Decode a `t` frame into `body`; the frame must hold exactly the body.
pub(crate) fn decode_frame(t: u8, body: &mut impl Codec, frame: &[u8]) -> Result<(), WireError> {
    let mut r = SnapReader::new(frame);
    let got = read_header(&mut r)?;
    if got != t {
        return Err(WireError::Tag(got));
    }
    body.decode_into(&mut r)?;
    Ok(r.finish()?)
}

/// Append an ingest frame: how a batch ships to a shard, and the record
/// the live engines journal to their WAL.
pub fn encode_ingest(batch: &IngestBatch, out: &mut Vec<u8>) {
    encode_frame(tag::INGEST, batch, out);
}

/// Decode an ingest frame ([`encode_ingest`]) into `batch`.
pub fn decode_ingest(frame: &[u8], batch: &mut IngestBatch) -> Result<(), WireError> {
    decode_frame(tag::INGEST, batch, frame)
}

/// A batch borrowed for shipping: [`encode_ingest`] under the name the
/// benchmark's WAL probe still calls.
#[derive(Debug, Clone, Copy)]
pub struct WireIngest<'a>(pub &'a IngestBatch);

impl<'a> WireIngest<'a> {
    /// Borrow a batch.
    pub fn from_batch(batch: &'a IngestBatch) -> Self {
        WireIngest(batch)
    }

    /// Append the batch's ingest frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_ingest(self.0, out);
    }
}

/// Each body type's frame-level pair: the whole frame, header included.
macro_rules! frames {
    ($($ty:ident = $tag:ident),* $(,)?) => {$(
        impl $ty {
            /// Append version + tag + body to `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                encode_frame(tag::$tag, self, out);
            }

            /// Decode a full frame into `self`.
            pub fn decode_into(&mut self, frame: &[u8]) -> Result<(), WireError> {
                decode_frame(tag::$tag, self, frame)
            }
        }
    )*};
}

frames!(
    Start = START,
    RoundReply = ROUND,
    StopCheck = STOP_CHECK,
    IngestAck = INGEST_ACK,
    Snapshot = SNAPSHOT,
    SnapshotChunk = SNAPSHOT_CHUNK,
    SnapshotAck = SNAPSHOT_ACK,
    CompactAck = COMPACT_ACK,
);

/// Start a query on a shard: round 0 runs immediately and the shard
/// replies with a [`RoundReply`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Start {
    /// Seeker user id ([`s3_core::UserId`] raw value).
    pub seeker: u32,
    /// Requested result count.
    pub k: u64,
    /// Deduplicated query keyword ids, in query order.
    pub keywords: Vec<u32>,
}

codec!(struct Start { seeker, k, keywords });

impl Start {
    /// Reset for reuse.
    pub fn clear(&mut self) {
        self.seeker = 0;
        self.k = 0;
        self.keywords.clear();
    }
}

/// One selected candidate in a shard's current greedy selection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectionEntry {
    /// Index into the shard's candidate pool (stable for the query's
    /// lifetime — used to address candidates in [`StopCheck`]).
    pub index: u32,
    /// Document node id (`s3_doc::DocNodeId` raw value).
    pub doc: u32,
    /// Certified lower score bound.
    pub lower: f64,
    /// Certified upper score bound.
    pub upper: f64,
}

codec!(struct SelectionEntry { index, doc, lower, upper });

/// A shard's answer to `Start`/`NextRound`: what this round admitted, the
/// shard's current selection, and the global-threshold ingredients.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundReply {
    /// Query expansion failed — no shard can answer; every other field is
    /// zero/empty.
    pub no_match: bool,
    /// Propagation iteration this round ran at.
    pub iteration: u32,
    /// Upper bound on every undiscovered document's score (identical on
    /// all shards — expansion is deterministic).
    pub threshold: f64,
    /// Whether the propagation frontier has closed.
    pub frontier_closed: bool,
    /// Cumulative admitted-candidate count (SearchStats mirror).
    pub candidates: u64,
    /// Cumulative rejected-document count.
    pub rejected: u64,
    /// Cumulative discovered-component count.
    pub components: u64,
    /// Cumulative pruned-component count.
    pub pruned: u64,
    /// Documents admitted *this round*, tagged with the global trigger
    /// sequence number that admitted them (the client k-way merges these
    /// by sequence to reconstruct the single-process admission order).
    pub admitted: Vec<(u32, u32)>,
    /// The shard's current selection in greedy order.
    pub selection: Vec<SelectionEntry>,
}

codec!(struct RoundReply {
    no_match,
    iteration,
    threshold,
    frontier_closed,
    candidates,
    rejected,
    components,
    pruned,
    admitted,
    selection,
});

impl RoundReply {
    /// Reset for reuse.
    pub fn clear(&mut self) {
        self.no_match = false;
        self.iteration = 0;
        self.threshold = 0.0;
        self.frontier_closed = false;
        self.candidates = 0;
        self.rejected = 0;
        self.components = 0;
        self.pruned = 0;
        self.admitted.clear();
        self.selection.clear();
    }
}

/// The merged global stop probe, specialized per shard: `selected` holds
/// the candidate-pool indices of *this shard's* entries in the merged
/// global selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StopCheck {
    /// Whether the merged global selection reached `k` entries.
    pub merged_full: bool,
    /// Minimum lower bound across the merged selection (`+inf` when
    /// empty).
    pub min_lower: f64,
    /// This shard's selected candidate indices.
    pub selected: Vec<u32>,
}

codec!(struct StopCheck { merged_full, min_lower, selected });

impl StopCheck {
    /// Reset for reuse.
    pub fn clear(&mut self) {
        self.merged_full = false;
        self.min_lower = 0.0;
        self.selected.clear();
    }
}

/// Acknowledgement of an applied ingest batch: consistency fingerprints
/// the client cross-checks against its own apply (shards must never
/// drift).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestAck {
    /// Whether the shard classified the delta as detached.
    pub detached: bool,
    /// The shard's epoch after the bump.
    pub epoch: u64,
    /// Total graph nodes after the apply.
    pub nodes: u64,
    /// Components the apply touched.
    pub touched: u64,
}

codec!(struct IngestAck { detached, epoch, nodes, touched });

/// Announce a snapshot shipment to a shard server that is waiting to
/// bootstrap: which shard of how many it is to become, and how the
/// snapshot bytes are framed. Exactly `num_chunks` [`SnapshotChunk`]
/// frames follow, in index order; the server replies with a
/// [`SnapshotAck`] once the decoded instance is serving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Fleet size the receiving server partitions for.
    pub num_shards: u32,
    /// The shard index this server takes.
    pub shard: u32,
    /// Total snapshot byte length (the chunks concatenate to this).
    pub total_len: u64,
    /// Number of chunk frames that follow.
    pub num_chunks: u32,
}

codec!(struct Snapshot { num_shards, shard, total_len, num_chunks } where fleet_place);

/// A decoded [`Snapshot`] must name a shard of a non-empty fleet.
fn fleet_place(s: &Snapshot) -> Result<(), SnapError> {
    if s.num_shards == 0 {
        return Err(SnapError::Value("snapshot for a zero-shard fleet"));
    }
    if s.shard >= s.num_shards {
        return Err(SnapError::Value("snapshot shard index out of range"));
    }
    Ok(())
}

/// Encode one snapshot chunk frame without materializing a
/// [`SnapshotChunk`] (the send path slices the snapshot in place).
pub fn encode_snapshot_chunk(out: &mut Vec<u8>, index: u32, bytes: &[u8]) {
    begin(out, tag::SNAPSHOT_CHUNK);
    index.encode(out);
    put_bytes(out, bytes);
}

/// One chunk of a shipped snapshot (see [`Snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Chunk index (0-based, ascending).
    pub index: u32,
    /// The chunk's slice of the snapshot bytes.
    pub bytes: Vec<u8>,
}

/// The index, then the length-prefixed bytes, copied as one slice.
impl Codec for SnapshotChunk {
    const MIN_BYTES: usize = 2;

    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        put_bytes(out, &self.bytes);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SnapshotChunk { index: r.u32v()?, bytes: r.bytes()?.to_vec() })
    }

    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.index = r.u32v()?;
        self.bytes.clear();
        self.bytes.extend_from_slice(r.bytes()?);
        Ok(())
    }
}

/// Acknowledgement of a completed snapshot bootstrap: the decoded
/// instance's consistency fingerprint, which the fleet client
/// cross-checks against its own decode of the same bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotAck {
    /// Graph nodes in the decoded instance.
    pub nodes: u64,
    /// Users in the decoded instance.
    pub users: u64,
    /// Documents in the decoded instance.
    pub docs: u64,
    /// `con(d,k)` connections in the decoded instance.
    pub connections: u64,
}

codec!(struct SnapshotAck { nodes, users, docs, connections });

/// Acknowledgement of a completed compaction: the rebuilt instance's
/// consistency fingerprint, which the fleet client cross-checks against
/// its own compaction of the same replica state (deterministic replay
/// must produce identical clean instances on every shard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactAck {
    /// The shard's epoch after the compaction bump.
    pub epoch: u64,
    /// Graph nodes in the compacted instance.
    pub nodes: u64,
    /// Users in the compacted instance.
    pub users: u64,
    /// Documents in the compacted instance.
    pub docs: u64,
    /// `con(d,k)` connections in the compacted instance.
    pub connections: u64,
}

codec!(struct CompactAck { epoch, nodes, users, docs, connections });

/// [`Message`] from its variant list: each variant's tag and body type.
macro_rules! messages {
    ($($(#[doc = $doc:literal])* $variant:ident $(($body:ty))? = $tag:ident,)*) => {
        /// Owned form of any protocol message — the dispatch/diagnostic
        /// convenience (tests, tooling); the hot path uses the per-type
        /// `encode`/`decode_into` pairs with reused buffers instead.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $($(#[doc = $doc])* $variant $(($body))?,)*
        }

        impl Message {
            /// Append version + tag + body to `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(messages!(@pat $variant body $($body)?) => {
                        begin(out, tag::$tag);
                        messages!(@put out body $($body)?);
                    })*
                }
            }

            /// Decode any message from a frame payload.
            pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
                let mut r = SnapReader::new(frame);
                let msg = match read_header(&mut r)? {
                    $(tag::$tag => messages!(@get r $variant $($body)?),)*
                    other => return Err(WireError::Tag(other)),
                };
                r.finish()?;
                Ok(msg)
            }
        }
    };
    (@pat $variant:ident $v:ident) => { Message::$variant };
    (@pat $variant:ident $v:ident $body:ty) => { Message::$variant($v) };
    (@put $out:ident $v:ident) => {};
    (@put $out:ident $v:ident $body:ty) => { Codec::encode($v, $out) };
    (@get $r:ident $variant:ident) => { Message::$variant };
    (@get $r:ident $variant:ident $body:ty) => {
        Message::$variant(<$body as Codec>::decode(&mut $r)?)
    };
}

messages! {
    /// Begin a query.
    Start(Start) = START,
    /// Advance one propagation step and run the next round.
    NextRound = NEXT_ROUND,
    /// Global stop probe.
    StopCheck(StopCheck) = STOP_CHECK,
    /// Query is over.
    EndQuery = END_QUERY,
    /// Ship an ingest batch.
    Ingest(IngestBatch) = INGEST,
    /// Shut the server down.
    Shutdown = SHUTDOWN,
    /// Announce a snapshot shipment.
    Snapshot(Snapshot) = SNAPSHOT,
    /// One chunk of a shipped snapshot.
    SnapshotChunk(SnapshotChunk) = SNAPSHOT_CHUNK,
    /// Compact the replica off the serving path.
    Compact = COMPACT,
    /// Per-round shard reply.
    Round(RoundReply) = ROUND,
    /// Per-shard stop-check reply: the certified rival upper bound.
    Vote(f64) = VOTE,
    /// Ingest acknowledgement.
    IngestAck(IngestAck) = INGEST_ACK,
    /// Snapshot bootstrap acknowledgement.
    SnapshotAck(SnapshotAck) = SNAPSHOT_ACK,
    /// Compaction acknowledgement.
    CompactAck(CompactAck) = COMPACT_ACK,
}

/// Reusable decode buffers for a shard server's request loop: one slot
/// per request kind with a body, so steady-state serving allocates
/// nothing for `Start`/`StopCheck` bodies (ingest strings still allocate
/// — they are rare and retained).
#[derive(Debug, Default)]
pub struct RequestBuf {
    /// Last decoded `Start`.
    pub start: Start,
    /// Last decoded `StopCheck`.
    pub stop: StopCheck,
    /// Last decoded ingest batch.
    pub ingest: IngestBatch,
}

/// Which request a frame carried (bodies land in [`RequestBuf`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// [`Start`] (body in `RequestBuf::start`).
    Start,
    /// Advance to the next round.
    NextRound,
    /// [`StopCheck`] (body in `RequestBuf::stop`).
    StopCheck,
    /// Query is over.
    EndQuery,
    /// An ingest batch (body in `RequestBuf::ingest`).
    Ingest,
    /// Shut down.
    Shutdown,
    /// Compact the replica (empty body).
    Compact,
}

impl RequestBuf {
    /// Decode one request frame into the matching slot.
    pub fn read(&mut self, frame: &[u8]) -> Result<RequestKind, WireError> {
        let mut r = SnapReader::new(frame);
        let kind = match read_header(&mut r)? {
            tag::START => {
                Codec::decode_into(&mut self.start, &mut r)?;
                RequestKind::Start
            }
            tag::NEXT_ROUND => RequestKind::NextRound,
            tag::STOP_CHECK => {
                Codec::decode_into(&mut self.stop, &mut r)?;
                RequestKind::StopCheck
            }
            tag::END_QUERY => RequestKind::EndQuery,
            tag::INGEST => {
                self.ingest.decode_into(&mut r)?;
                RequestKind::Ingest
            }
            tag::SHUTDOWN => RequestKind::Shutdown,
            tag::COMPACT => RequestKind::Compact,
            other => return Err(WireError::Tag(other)),
        };
        r.finish()?;
        Ok(kind)
    }
}
