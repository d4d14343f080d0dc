//! Cross-process sharded serving: shard servers + the fleet client.
//!
//! [`crate::ShardedEngine`] runs the iteration-synchronous scatter-gather
//! inside one process. This module runs the *same algorithm* across
//! process boundaries:
//!
//! * [`ShardServer`] owns one shard — an [`S3Engine`] restricted to its
//!   components, the deterministically re-derived instance + partition,
//!   and an [`s3_core::FleetShard`] round executor — and answers the wire
//!   protocol's round requests ([`ShardServer::serve`] loops over any
//!   `Read + Write` stream: a unix socket, an in-memory loopback, ...);
//! * [`FleetEngine`] is the client: it routes each query through the
//!   regular [`ShardRouter`], drives the fan-out over N
//!   [`ShardTransport`]s, merges per-shard admissions (by global trigger
//!   sequence) and selections ([`s3_core::selection_rank`]), and applies
//!   the core's one stop rule ([`s3_core::StopState::decide`]) with a
//!   `StopCheck` fan-out as its rival — returning results byte-identical
//!   to [`crate::ShardedEngine`];
//! * [`LocalShard`] is the zero-cost in-process transport: replies move
//!   as typed values through option slots, no bytes on the query hot
//!   path (ingest still exercises the codec — it is rare and the round
//!   trip doubles as a serialization check).
//!
//! Round fan-out is **pipelined**: the client queues every shard's
//! request, flushes them all, then reads replies — so a round costs the
//! *slowest* shard, not the sum ([`s3_wire::ShardTransport`] docs).
//!
//! Replication model: every shard server holds the full instance (built
//! from its own [`InstanceBuilder`]) because proximity propagates over
//! the *whole* graph regardless of which shard owns a component;
//! shipping an [`IngestBatch`] to every shard keeps the replicas
//! bit-identical, since [`InstanceBuilder::apply`] and
//! [`ComponentPartition::extended`] are deterministic. The
//! [`s3_wire::IngestAck`] fingerprint (node count, detachedness, epoch)
//! cross-checks that invariant on every ingest.

use crate::gate::{self, Admission, AdmissionGate, LoadStats, ServeOutcome};
use crate::{EngineConfig, EngineError, S3Engine, ShardRouter};
use s3_core::{
    read_snapshot, CompactionReport, ComponentFilter, ComponentPartition, FleetShard, Hit,
    IngestBatch, IngestSummary, InstanceBuilder, Query, ResumeOutcome, S3Instance, S3kEngine,
    SearchConfig, SearchStats, StopReason, StopState, TopKResult, UserId,
};
use s3_doc::DocNodeId;
use s3_text::KeywordId;
use s3_wire::{
    loopback_pair, read_frame, tag, write_frame, CompactAck, FramedTransport, IngestAck,
    LoopbackConn, RequestBuf, RequestKind, RoundReply, SelectionEntry, ShardTransport, Snapshot,
    SnapshotAck, SnapshotChunk, Start, StopCheck, TransportStats, WireError, WireIngest,
    WIRE_VERSION,
};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One shard's server: the replica instance, the shard's serving engine,
/// and the per-round executor. Drive it through the typed handlers (the
/// [`LocalShard`] transport does) or hand a connected stream to
/// [`Self::serve`].
pub struct ShardServer {
    builder: InstanceBuilder,
    instance: Arc<S3Instance>,
    partition: Arc<ComponentPartition>,
    shard: usize,
    /// The scatter search configuration (no component filter — ownership
    /// is enforced by partition + shard id in the round executor).
    search: SearchConfig,
    /// Engine template for rebuilding the serving engine after ingests.
    config: EngineConfig,
    engine: S3Engine,
    session: FleetShard,
    epoch: u64,
}

/// The consistency fingerprint a freshly-bootstrapped replica reports:
/// coarse enough to stay cheap, precise enough that a shard built from
/// different bytes (or a different snapshot version) cannot match.
fn snapshot_fingerprint(instance: &S3Instance) -> SnapshotAck {
    SnapshotAck {
        nodes: instance.graph().num_nodes() as u64,
        users: instance.num_users() as u64,
        docs: instance.num_documents() as u64,
        connections: instance.connections().len() as u64,
    }
}

fn shard_engine(
    instance: &Arc<S3Instance>,
    partition: &ComponentPartition,
    shard: usize,
    config: &EngineConfig,
) -> S3Engine {
    let filter = Arc::new(ComponentFilter::for_shard(partition, shard));
    S3Engine::new(
        Arc::clone(instance),
        EngineConfig {
            search: SearchConfig { component_filter: Some(filter), ..config.search.clone() },
            threads: 1,
            ..config.clone()
        },
    )
}

impl ShardServer {
    /// Build shard `shard` of a `num_shards` fleet from its own instance
    /// builder. Every server of a fleet (and the [`FleetEngine`] client)
    /// must be built from identically-generated builders with the same
    /// configuration — the replicas are kept consistent by determinism,
    /// and the ingest acks verify it.
    pub fn new(
        builder: InstanceBuilder,
        config: EngineConfig,
        num_shards: usize,
        shard: usize,
    ) -> Self {
        let instance = Arc::new(builder.snapshot());
        Self::from_parts(builder, instance, config, num_shards, shard)
    }

    /// Build shard `shard` from an already-materialised replica instance
    /// (a decoded [`s3_core::read_snapshot`] pair — the snapshot bootstrap
    /// path, whose instance the decode already cold-built).
    pub fn from_parts(
        builder: InstanceBuilder,
        instance: Arc<S3Instance>,
        config: EngineConfig,
        num_shards: usize,
        shard: usize,
    ) -> Self {
        let config = config.validated();
        let partition = Arc::new(ComponentPartition::balanced(&instance, num_shards));
        assert!(shard < partition.num_shards(), "shard index out of range");
        let mut search = config.search.clone();
        search.component_filter = None;
        let engine = shard_engine(&instance, &partition, shard, &config);
        ShardServer {
            builder,
            instance,
            partition,
            shard,
            search,
            config,
            engine,
            session: FleetShard::new(),
            epoch: 0,
        }
    }

    /// Build shard `shard` of a `num_shards` fleet from serialized
    /// snapshot bytes (the fleet bootstrap path: no shared builder, the
    /// replica is the cold build of the shipped builder block — a pure
    /// function of the bytes). Errors — never panics — on
    /// corrupt or version-mismatched snapshots.
    pub fn from_snapshot(
        snapshot: &[u8],
        config: EngineConfig,
        num_shards: usize,
        shard: usize,
    ) -> Result<Self, WireError> {
        if num_shards == 0 {
            return Err(WireError::Value("snapshot for a zero-shard fleet"));
        }
        if shard >= num_shards {
            return Err(WireError::Value("snapshot shard index out of range"));
        }
        let (builder, instance) =
            read_snapshot(snapshot).map_err(|_| WireError::Value("snapshot rejected"))?;
        Ok(Self::from_parts(builder, Arc::new(instance), config, num_shards, shard))
    }

    /// Bootstrap a shard server from a connected stream: read the
    /// [`Snapshot`] header plus its chunk frames, decode the replica, and
    /// answer with the [`SnapshotAck`] consistency fingerprint. This is
    /// the server half of [`FleetEngine::bootstrap`]; run it before
    /// [`Self::serve`] on the same stream.
    pub fn bootstrap_from<S: Read + Write>(
        stream: &mut S,
        config: EngineConfig,
    ) -> Result<Self, WireError> {
        let mut frame = Vec::new();
        read_frame(stream, &mut frame)?;
        let mut header = Snapshot::default();
        header.decode_into(&frame)?;
        let total = usize::try_from(header.total_len)
            .map_err(|_| WireError::Value("snapshot too large for this platform"))?;
        let mut bytes = Vec::new();
        let mut chunk = SnapshotChunk::default();
        for index in 0..header.num_chunks {
            read_frame(stream, &mut frame)?;
            chunk.decode_into(&frame)?;
            if chunk.index != index {
                return Err(WireError::Protocol("snapshot chunk out of order"));
            }
            if bytes.len() + chunk.bytes.len() > total {
                return Err(WireError::Protocol("snapshot longer than its header"));
            }
            bytes.extend_from_slice(&chunk.bytes);
        }
        if bytes.len() != total {
            return Err(WireError::Protocol("snapshot shorter than its header"));
        }
        let server =
            Self::from_snapshot(&bytes, config, header.num_shards as usize, header.shard as usize)?;
        let mut payload = Vec::new();
        snapshot_fingerprint(&server.instance).encode(&mut payload);
        write_frame(stream, &payload)?;
        stream.flush()?;
        Ok(server)
    }

    /// Bootstrap from the stream, then serve the wire protocol on it
    /// until shutdown ([`Self::bootstrap_from`] + [`Self::serve`]).
    pub fn serve_bootstrap<S: Read + Write>(
        mut stream: S,
        config: EngineConfig,
    ) -> Result<(), WireError> {
        let mut server = Self::bootstrap_from(&mut stream, config)?;
        server.serve(stream)
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's serving engine (directly queryable over its own
    /// components, like [`crate::ShardedEngine::shard`]).
    pub fn engine(&self) -> &S3Engine {
        &self.engine
    }

    /// The replica instance.
    pub fn instance(&self) -> &Arc<S3Instance> {
        &self.instance
    }

    /// Ingest epoch (bumped once per applied batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn fill_round(&self, out: &mut RoundReply, no_match: bool) {
        out.clear();
        out.no_match = no_match;
        if no_match {
            return;
        }
        out.iteration = self.session.iteration();
        out.threshold = self.session.threshold();
        out.frontier_closed = self.session.frontier_closed();
        let stats = self.session.stats();
        out.candidates = stats.candidates as u64;
        out.rejected = stats.rejected as u64;
        out.components = stats.components as u64;
        out.pruned = stats.pruned_components as u64;
        out.admitted.extend(self.session.admitted().iter().map(|&(seq, doc)| (seq, doc.0)));
        out.selection.extend(self.session.selection().map(|c| SelectionEntry {
            index: c.index,
            doc: c.doc.0,
            lower: c.lower,
            upper: c.upper,
        }));
    }

    /// Handle a [`Start`]: run round zero, fill the reply.
    pub fn start_query(&mut self, msg: &Start, out: &mut RoundReply) {
        let query = Query::new(
            UserId(msg.seeker),
            msg.keywords.iter().map(|&k| KeywordId(k)).collect(),
            msg.k as usize,
        );
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        let matched = self.session.begin(&engine, &self.partition, self.shard, &query);
        self.fill_round(out, !matched);
    }

    /// Handle a next-round request: step the propagation, run the round,
    /// fill the reply.
    pub fn next_round(&mut self, out: &mut RoundReply) {
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        self.session.advance(&engine, &self.partition, self.shard);
        self.fill_round(out, false);
    }

    /// Handle a [`StopCheck`]: this shard's certified rival upper bound
    /// against the merged selection (the client derives the stop vote
    /// from it; see [`FleetShard::rival_upper`]).
    pub fn stop_check(&mut self, msg: &StopCheck) -> f64 {
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        self.session.rival_upper(&engine, &msg.selected)
    }

    /// Handle an end-of-query notice.
    pub fn end_query(&mut self) {
        self.session.end();
    }

    /// Handle a shipped ingest: rebuild the batch, apply it to the
    /// replica, extend the partition, swap the serving engine, bump the
    /// epoch and fill the consistency ack.
    pub fn ingest(&mut self, msg: &WireIngest, out: &mut IngestAck) {
        let batch = msg.to_batch();
        let (instance, summary) = self.builder.apply(&self.instance, &batch);
        self.instance = Arc::new(instance);
        self.partition = Arc::new(self.partition.extended(&self.instance));
        self.engine = shard_engine(&self.instance, &self.partition, self.shard, &self.config);
        self.session.invalidate();
        self.epoch += 1;
        *out = IngestAck {
            detached: summary.detached,
            epoch: self.epoch,
            nodes: self.instance.graph().num_nodes() as u64,
            touched: summary.touched_components.len() as u64,
        };
    }

    /// Handle a compaction request: rebuild the replica without
    /// tombstoned state ([`InstanceBuilder::compact`]), re-partition the
    /// clean instance, swap the serving engine, bump the epoch and fill
    /// the consistency ack. Entity ids are densely renumbered, so any
    /// in-flight session is invalidated.
    pub fn compact(&mut self, out: &mut CompactAck) -> CompactionReport {
        let (builder, report) = self.builder.compact();
        self.builder = builder;
        self.instance = Arc::new(self.builder.snapshot());
        self.partition =
            Arc::new(ComponentPartition::balanced(&self.instance, self.partition.num_shards()));
        self.engine = shard_engine(&self.instance, &self.partition, self.shard, &self.config);
        self.session.invalidate();
        self.epoch += 1;
        let fp = snapshot_fingerprint(&self.instance);
        *out = CompactAck {
            epoch: self.epoch,
            nodes: fp.nodes,
            users: fp.users,
            docs: fp.docs,
            connections: fp.connections,
        };
        report
    }

    /// Serve the wire protocol over a connected stream until the peer
    /// hangs up or sends `Shutdown`. Request bodies and the reply buffer
    /// are reused across rounds — steady-state serving does not allocate
    /// for the round exchange.
    pub fn serve<S: Read + Write>(&mut self, mut stream: S) -> Result<(), WireError> {
        let mut req = RequestBuf::default();
        let mut frame = Vec::new();
        let mut reply = RoundReply::default();
        let mut payload = Vec::new();
        loop {
            match read_frame(&mut stream, &mut frame) {
                Ok(()) => {}
                Err(WireError::Eof) => return Ok(()),
                Err(e) => return Err(e),
            }
            payload.clear();
            match req.read(&frame)? {
                RequestKind::Start => {
                    self.start_query(&req.start, &mut reply);
                    reply.encode(&mut payload);
                }
                RequestKind::NextRound => {
                    self.next_round(&mut reply);
                    reply.encode(&mut payload);
                }
                RequestKind::StopCheck => {
                    let rival = self.stop_check(&req.stop);
                    payload.extend_from_slice(&[WIRE_VERSION, tag::VOTE]);
                    payload.extend_from_slice(&rival.to_bits().to_le_bytes());
                }
                RequestKind::EndQuery => {
                    self.end_query();
                    continue;
                }
                RequestKind::Ingest => {
                    let mut ack = IngestAck::default();
                    self.ingest(&req.ingest, &mut ack);
                    ack.encode(&mut payload);
                }
                RequestKind::Shutdown => return Ok(()),
                RequestKind::Compact => {
                    let mut ack = CompactAck::default();
                    self.compact(&mut ack);
                    ack.encode(&mut payload);
                }
            }
            write_frame(&mut stream, &payload)?;
            stream.flush()?;
        }
    }

    /// Spawn this server on its own thread behind an in-memory loopback
    /// duplex; returns the client transport and the join handle.
    pub fn spawn_loopback(mut self) -> (FramedTransport<LoopbackConn>, ShardHost) {
        let (client, server_end) = loopback_pair();
        let thread = std::thread::spawn(move || self.serve(server_end));
        (FramedTransport::new(client), ShardHost { thread })
    }

    /// Bind a unix-domain socket at `path`, spawn this server on its own
    /// thread accepting one connection there, and connect to it; returns
    /// the client transport and the join handle. The socket file is
    /// unlinked once the connection is established.
    pub fn spawn_unix(
        mut self,
        path: &Path,
    ) -> std::io::Result<(FramedTransport<UnixStream>, ShardHost)> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let at = path.to_path_buf();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(WireError::from)?;
            drop(listener);
            let _ = std::fs::remove_file(&at);
            self.serve(stream)
        });
        let stream = UnixStream::connect(path)?;
        Ok((FramedTransport::new(stream), ShardHost { thread }))
    }

    /// Spawn a *snapshot-awaiting* server thread behind an in-memory
    /// loopback duplex: it has no builder yet and constructs itself from
    /// the first frames on the stream ([`Self::serve_bootstrap`]).
    /// Hand the returned transport to [`FleetEngine::bootstrap`].
    pub fn spawn_loopback_bootstrap(
        config: EngineConfig,
    ) -> (FramedTransport<LoopbackConn>, ShardHost) {
        let (client, server_end) = loopback_pair();
        let thread = std::thread::spawn(move || Self::serve_bootstrap(server_end, config));
        (FramedTransport::new(client), ShardHost { thread })
    }

    /// Spawn a snapshot-awaiting server thread accepting one connection
    /// on a unix-domain socket at `path` ([`Self::spawn_unix`], bootstrap
    /// flavour). Hand the returned transport to [`FleetEngine::bootstrap`].
    pub fn spawn_unix_bootstrap(
        path: &Path,
        config: EngineConfig,
    ) -> std::io::Result<(FramedTransport<UnixStream>, ShardHost)> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let at = path.to_path_buf();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(WireError::from)?;
            drop(listener);
            let _ = std::fs::remove_file(&at);
            Self::serve_bootstrap(stream, config)
        });
        let stream = UnixStream::connect(path)?;
        Ok((FramedTransport::new(stream), ShardHost { thread }))
    }
}

/// Join handle for a spawned [`ShardServer`] thread.
pub struct ShardHost {
    thread: std::thread::JoinHandle<Result<(), WireError>>,
}

impl ShardHost {
    /// Wait for the server to exit (send `Shutdown` or drop the client
    /// transport first, or this blocks forever).
    pub fn join(self) -> Result<(), WireError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(WireError::Protocol("shard server thread panicked")),
        }
    }
}

/// The in-process [`ShardTransport`]: wraps a [`ShardServer`] and moves
/// replies as typed values through single-message slots. The query hot
/// path is byte-free and copy-free; ingest goes through the wire form
/// like every other transport (it is rare, and the round trip keeps the
/// codec honest).
pub struct LocalShard {
    /// `None` until bootstrapped ([`Self::awaiting`] + a shipped
    /// snapshot); always `Some` when built via [`Self::new`].
    server: Option<ShardServer>,
    /// Engine template held while awaiting a snapshot.
    pending: Option<EngineConfig>,
    round: RoundReply,
    round_ready: bool,
    vote: Option<f64>,
    ack: IngestAck,
    ack_ready: bool,
    snap_ack: SnapshotAck,
    snap_ack_ready: bool,
    compact_ack: CompactAck,
    compact_ack_ready: bool,
    stats: TransportStats,
}

impl LocalShard {
    fn empty(server: Option<ShardServer>, pending: Option<EngineConfig>) -> Self {
        LocalShard {
            server,
            pending,
            round: RoundReply::default(),
            round_ready: false,
            vote: None,
            ack: IngestAck::default(),
            ack_ready: false,
            snap_ack: SnapshotAck::default(),
            snap_ack_ready: false,
            compact_ack: CompactAck::default(),
            compact_ack_ready: false,
            stats: TransportStats::default(),
        }
    }

    /// Wrap a server.
    pub fn new(server: ShardServer) -> Self {
        Self::empty(Some(server), None)
    }

    /// A snapshot-awaiting transport: it holds only the engine template
    /// and builds its [`ShardServer`] from the first shipped snapshot —
    /// the in-process analogue of [`ShardServer::spawn_loopback_bootstrap`].
    /// Hand it to [`FleetEngine::bootstrap`].
    pub fn awaiting(config: EngineConfig) -> Self {
        Self::empty(None, Some(config))
    }

    /// The wrapped server, if bootstrapped.
    pub fn server(&self) -> Option<&ShardServer> {
        self.server.as_ref()
    }

    fn server_mut(&mut self) -> Result<&mut ShardServer, WireError> {
        self.server.as_mut().ok_or(WireError::Protocol("shard not bootstrapped"))
    }
}

impl ShardTransport for LocalShard {
    fn send_start(&mut self, msg: &Start) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let LocalShard { server, round, .. } = self;
        let server = server.as_mut().ok_or(WireError::Protocol("shard not bootstrapped"))?;
        server.start_query(msg, round);
        self.round_ready = true;
        Ok(())
    }

    fn send_next_round(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let LocalShard { server, round, .. } = self;
        let server = server.as_mut().ok_or(WireError::Protocol("shard not bootstrapped"))?;
        server.next_round(round);
        self.round_ready = true;
        Ok(())
    }

    fn send_stop_check(&mut self, msg: &StopCheck) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.vote = Some(self.server_mut()?.stop_check(msg));
        Ok(())
    }

    fn send_end_query(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.server_mut()?.end_query();
        Ok(())
    }

    fn send_ingest(&mut self, msg: &WireIngest) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let mut ack = IngestAck::default();
        self.server_mut()?.ingest(msg, &mut ack);
        self.ack = ack;
        self.ack_ready = true;
        Ok(())
    }

    fn send_snapshot(
        &mut self,
        num_shards: u32,
        shard: u32,
        snapshot: &[u8],
    ) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let config =
            self.pending.take().ok_or(WireError::Protocol("shard already bootstrapped"))?;
        let server = match ShardServer::from_snapshot(
            snapshot,
            config.clone(),
            num_shards as usize,
            shard as usize,
        ) {
            Ok(server) => server,
            Err(e) => {
                // A rejected snapshot leaves the shard still awaiting.
                self.pending = Some(config);
                return Err(e);
            }
        };
        self.snap_ack = snapshot_fingerprint(&server.instance);
        self.snap_ack_ready = true;
        self.server = Some(server);
        Ok(())
    }

    fn send_compact(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let mut ack = CompactAck::default();
        self.server_mut()?.compact(&mut ack);
        self.compact_ack = ack;
        self.compact_ack_ready = true;
        Ok(())
    }

    fn send_shutdown(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), WireError> {
        Ok(())
    }

    fn recv_round(&mut self, out: &mut RoundReply) -> Result<(), WireError> {
        if !self.round_ready {
            return Err(WireError::Protocol("no round reply pending"));
        }
        self.round_ready = false;
        self.stats.frames_received += 1;
        std::mem::swap(out, &mut self.round);
        Ok(())
    }

    fn recv_vote(&mut self) -> Result<f64, WireError> {
        self.stats.frames_received += 1;
        self.vote.take().ok_or(WireError::Protocol("no vote pending"))
    }

    fn recv_ingest_ack(&mut self, out: &mut IngestAck) -> Result<(), WireError> {
        if !self.ack_ready {
            return Err(WireError::Protocol("no ingest ack pending"));
        }
        self.ack_ready = false;
        self.stats.frames_received += 1;
        *out = self.ack;
        Ok(())
    }

    fn recv_snapshot_ack(&mut self, out: &mut SnapshotAck) -> Result<(), WireError> {
        if !self.snap_ack_ready {
            return Err(WireError::Protocol("no snapshot ack pending"));
        }
        self.snap_ack_ready = false;
        self.stats.frames_received += 1;
        *out = self.snap_ack;
        Ok(())
    }

    fn recv_compact_ack(&mut self, out: &mut CompactAck) -> Result<(), WireError> {
        if !self.compact_ack_ready {
            return Err(WireError::Protocol("no compact ack pending"));
        }
        self.compact_ack_ready = false;
        self.stats.frames_received += 1;
        *out = self.compact_ack;
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// The fleet client: the sharded scatter-gather driven over N
/// [`ShardTransport`]s.
///
/// For every query and any transport mix, the returned [`TopKResult`] is
/// byte-identical (hits, candidate order, stop reason) to
/// [`crate::ShardedEngine`] with the same shard count — including after
/// shipped ingests. Property-tested in `tests/fleet.rs`.
pub struct FleetEngine {
    builder: InstanceBuilder,
    instance: Arc<S3Instance>,
    partition: Arc<ComponentPartition>,
    router: ShardRouter,
    search: SearchConfig,
    shards: Vec<Box<dyn ShardTransport>>,
    /// Admission gate for [`Self::serve`] (behind an `Arc` so the RAII
    /// slot ticket can outlive the `&mut self` the query drive needs).
    gate: Arc<AdmissionGate>,
    epoch: u64,
    rounds: u64,
    // Reused across rounds and queries: zero steady-state allocation on
    // the round exchange (the admission log is part of each result and
    // is allocated per query by design).
    start_msg: Start,
    stop_msg: StopCheck,
    replies: Vec<RoundReply>,
    active: Vec<usize>,
    merged: Vec<(usize, u32)>,
    cursors: Vec<usize>,
}

impl FleetEngine {
    /// Build the client over connected shard transports. `builder` must
    /// be generated identically to every shard server's.
    pub fn new(
        builder: InstanceBuilder,
        config: EngineConfig,
        shards: Vec<Box<dyn ShardTransport>>,
    ) -> Self {
        let instance = Arc::new(builder.snapshot());
        Self::from_parts(builder, instance, config, shards)
    }

    /// Build the client over serialized snapshot bytes, shipping them to
    /// every shard transport first: each shard decodes the same bytes,
    /// builds its replica, and answers with a consistency fingerprint
    /// that must match the client's own — no shard shares a builder with
    /// the client, and a diverged bootstrap is a hard error. This is how
    /// a fleet is (re)started from a durable [`s3_core::save_snapshot`].
    pub fn bootstrap(
        snapshot: &[u8],
        config: EngineConfig,
        mut shards: Vec<Box<dyn ShardTransport>>,
    ) -> Result<Self, WireError> {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let (builder, instance) =
            read_snapshot(snapshot).map_err(|_| WireError::Value("snapshot rejected"))?;
        let instance = Arc::new(instance);
        let num_shards = shards.len() as u32;
        for (shard, transport) in shards.iter_mut().enumerate() {
            transport.send_snapshot(num_shards, shard as u32, snapshot)?;
        }
        for transport in &mut shards {
            transport.flush()?;
        }
        let expected = snapshot_fingerprint(&instance);
        let mut ack = SnapshotAck::default();
        for transport in &mut shards {
            transport.recv_snapshot_ack(&mut ack)?;
            if ack != expected {
                return Err(WireError::Protocol("shard snapshot bootstrap diverged"));
            }
        }
        Ok(Self::from_parts(builder, instance, config, shards))
    }

    fn from_parts(
        builder: InstanceBuilder,
        instance: Arc<S3Instance>,
        config: EngineConfig,
        shards: Vec<Box<dyn ShardTransport>>,
    ) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let config = config.validated();
        let gate = Arc::new(AdmissionGate::new(config.overload));
        let mut search = config.search;
        search.component_filter = None;
        let partition = Arc::new(ComponentPartition::balanced(&instance, shards.len()));
        let router = ShardRouter::new(&instance, Arc::clone(&partition));
        let replies = shards.iter().map(|_| RoundReply::default()).collect();
        FleetEngine {
            builder,
            instance,
            partition,
            router,
            search,
            shards,
            gate,
            epoch: 0,
            rounds: 0,
            start_msg: Start::default(),
            stop_msg: StopCheck::default(),
            replies,
            active: Vec::new(),
            merged: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// The client's replica instance.
    pub fn instance(&self) -> &Arc<S3Instance> {
        &self.instance
    }

    /// The component partition (identical on every shard server).
    pub fn partition(&self) -> &ComponentPartition {
        &self.partition
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Ingest epoch (bumped once per shipped batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rounds driven so far (reply waves across all queries; `NoMatch`
    /// probes count as zero rounds, matching the in-process driver).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Per-shard transport traffic counters.
    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.shards.iter().map(|t| t.stats()).collect()
    }

    /// Merge the active shards' per-round admission logs into `order_log`
    /// by global trigger sequence. One component belongs to one shard, so
    /// sequences never tie across shards and the merge reconstructs the
    /// in-process admission order exactly.
    fn merge_admissions(&mut self, order_log: &mut Vec<DocNodeId>) {
        self.cursors.clear();
        self.cursors.resize(self.active.len(), 0);
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (pos, &s) in self.active.iter().enumerate() {
                if let Some(&(seq, _)) = self.replies[s].admitted.get(self.cursors[pos]) {
                    if best.is_none_or(|(bseq, _)| seq < bseq) {
                        best = Some((seq, pos));
                    }
                }
            }
            let Some((seq, pos)) = best else { break };
            let admitted = &self.replies[self.active[pos]].admitted;
            while let Some(&(sq, doc)) = admitted.get(self.cursors[pos]) {
                if sq != seq {
                    break;
                }
                order_log.push(DocNodeId(doc));
                self.cursors[pos] += 1;
            }
        }
    }

    /// Answer one query over the fleet.
    pub fn query(&mut self, query: &Query) -> Result<TopKResult, WireError> {
        let started = self.search.clock.now();
        self.router.route_into(&self.instance, query, &self.search, &mut self.active);
        if self.active.is_empty() {
            // No shard can admit a candidate, but the in-process driver
            // still runs the (empty) round loop to its stop iteration;
            // one shard reproduces that with an empty candidate pool.
            self.active.push(0);
        }
        self.start_msg.clear();
        self.start_msg.seeker = query.seeker.0;
        self.start_msg.k = query.k as u64;
        self.start_msg.keywords.extend(query.keywords.iter().map(|k| k.0));
        for &s in &self.active {
            self.shards[s].send_start(&self.start_msg)?;
        }
        for &s in &self.active {
            self.shards[s].flush()?;
        }
        for &s in &self.active {
            let (shards, replies) = (&mut self.shards, &mut self.replies);
            shards[s].recv_round(&mut replies[s])?;
        }
        if self.replies[self.active[0]].no_match {
            // Expansion is deterministic: every shard must agree, and no
            // round state was kept server-side (no EndQuery needed).
            debug_assert!(self.active.iter().all(|&s| self.replies[s].no_match));
            let stats = SearchStats { stop: StopReason::NoMatch, ..SearchStats::default() };
            return Ok(TopKResult { hits: Vec::new(), candidate_docs: Vec::new(), stats });
        }

        let k = query.k;
        let mut order_log: Vec<DocNodeId> = Vec::new();
        loop {
            self.rounds += 1;
            self.merge_admissions(&mut order_log);

            // Merge the per-shard greedy selections exactly like the
            // in-process driver (rank by upper desc, doc asc; the merged
            // prefix is the global greedy selection).
            self.merged.clear();
            for &s in &self.active {
                for j in 0..self.replies[s].selection.len() {
                    self.merged.push((s, j as u32));
                }
            }
            let replies = &self.replies;
            self.merged.sort_unstable_by(|&(sa, ja), &(sb, jb)| {
                let a = replies[sa].selection[ja as usize];
                let b = replies[sb].selection[jb as usize];
                s3_core::selection_rank(a.upper, DocNodeId(a.doc), b.upper, DocNodeId(b.doc))
            });
            self.merged.truncate(k);
            let min_lower = self
                .merged
                .iter()
                .map(|&(s, j)| self.replies[s].selection[j as usize].lower)
                .fold(f64::INFINITY, f64::min);
            let head = &self.replies[self.active[0]];
            let state = StopState {
                k,
                selected: self.merged.len(),
                min_lower,
                threshold: head.threshold,
                frontier_closed: head.frontier_closed,
                iteration: head.iteration,
                started,
            };

            // The shared stop rule; its rival is one `StopCheck` fan-out,
            // sent only when the rule needs it.
            let FleetEngine { search, shards, stop_msg, replies, active, merged, .. } = self;
            let decision = state.decide(search, || {
                rival_fanout(
                    shards,
                    stop_msg,
                    replies,
                    active,
                    merged,
                    min_lower,
                    merged.len() == k,
                )
            })?;
            if let Some((reason, quality)) = decision {
                for &s in &self.active {
                    self.shards[s].send_end_query()?;
                    self.shards[s].flush()?;
                }
                let hits: Vec<Hit> = self
                    .merged
                    .iter()
                    .map(|&(s, j)| {
                        let e = self.replies[s].selection[j as usize];
                        Hit { doc: DocNodeId(e.doc), lower: e.lower, upper: e.upper }
                    })
                    .collect();
                let mut stats = SearchStats {
                    iterations: state.iteration,
                    stop: reason,
                    resume: ResumeOutcome::Cold,
                    quality,
                    ..SearchStats::default()
                };
                for &s in &self.active {
                    let r = &self.replies[s];
                    stats.candidates += r.candidates as usize;
                    stats.rejected += r.rejected as usize;
                    stats.components += r.components as usize;
                    stats.pruned_components += r.pruned as usize;
                }
                return Ok(TopKResult { hits, candidate_docs: order_log, stats });
            }

            for &s in &self.active {
                self.shards[s].send_next_round()?;
            }
            for &s in &self.active {
                self.shards[s].flush()?;
            }
            for &s in &self.active {
                let (shards, replies) = (&mut self.shards, &mut self.replies);
                shards[s].recv_round(&mut replies[s])?;
            }
        }
    }

    /// Load and shedding counters for [`Self::serve`].
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Answer one query through the admission gate with an optional
    /// per-query deadline ([`S3Engine::serve`]'s contract, minus the
    /// result cache — the fleet client does not keep one). A fleet
    /// client drives queries one at a time (`&mut self`), so the gate
    /// matters mostly for deadline and load accounting; degraded and
    /// deadline-capped admissions run the fan-out under the tightened
    /// time budget and return a certified best-effort answer.
    pub fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, WireError> {
        let arrival = self.search.clock.now();
        let gate = Arc::clone(&self.gate);
        let (ticket, floor) = match gate.admit() {
            Admission::Shed => return Ok(ServeOutcome::Shed),
            Admission::Full(t) => (t, None),
            Admission::Degraded(t, floor) => (t, Some(floor)),
        };
        let remaining = match deadline {
            Some(deadline) => {
                let waited = self.search.clock.now().saturating_sub(arrival);
                if waited >= deadline {
                    gate.note_expired();
                    return Ok(ServeOutcome::Expired);
                }
                Some(deadline - waited)
            }
            None => None,
        };
        let configured = self.search.time_budget;
        self.search.time_budget = gate::effective_budget(configured, remaining, floor);
        let result = self.query(query);
        self.search.time_budget = configured;
        drop(ticket);
        Ok(ServeOutcome::Answered(Arc::new(result?)))
    }

    /// Ship a batch to every shard (pipelined), apply it locally, and
    /// cross-check the acks: every replica must land on the same node
    /// count, delta class and epoch, or the fleet is declared diverged.
    /// A batch that names an entity the fleet lacks is refused first
    /// ([`EngineError::Rejected`]): nothing is sent or applied.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        self.builder.check(&self.instance, batch).map_err(EngineError::Rejected)?;
        let wire = WireIngest::from_batch(batch);
        for t in &mut self.shards {
            t.send_ingest(&wire)?;
        }
        for t in &mut self.shards {
            t.flush()?;
        }
        let (instance, summary) = self.builder.apply(&self.instance, batch);
        self.instance = Arc::new(instance);
        self.partition = Arc::new(self.partition.extended(&self.instance));
        self.router = ShardRouter::new(&self.instance, Arc::clone(&self.partition));
        self.epoch += 1;
        let mut ack = IngestAck::default();
        for t in &mut self.shards {
            t.recv_ingest_ack(&mut ack)?;
            let expected = IngestAck {
                detached: summary.detached,
                epoch: self.epoch,
                nodes: self.instance.graph().num_nodes() as u64,
                touched: summary.touched_components.len() as u64,
            };
            if ack != expected {
                return Err(WireError::Protocol("shard replica diverged after ingest").into());
            }
        }
        Ok(summary)
    }

    /// Compact every replica: ship a compaction request to every shard
    /// (pipelined), run the same [`InstanceBuilder::compact`] locally,
    /// re-partition and re-route over the clean instance, and cross-check
    /// the acks — every replica must land on the same fingerprint and
    /// epoch, or the fleet is declared diverged. Compaction densely
    /// renumbers entity ids, so callers must refresh any ids they hold.
    pub fn compact(&mut self) -> Result<CompactionReport, WireError> {
        for t in &mut self.shards {
            t.send_compact()?;
        }
        for t in &mut self.shards {
            t.flush()?;
        }
        let (builder, report) = self.builder.compact();
        self.builder = builder;
        self.instance = Arc::new(self.builder.snapshot());
        self.partition = Arc::new(ComponentPartition::balanced(&self.instance, self.shards.len()));
        self.router = ShardRouter::new(&self.instance, Arc::clone(&self.partition));
        self.epoch += 1;
        let fp = snapshot_fingerprint(&self.instance);
        let expected = CompactAck {
            epoch: self.epoch,
            nodes: fp.nodes,
            users: fp.users,
            docs: fp.docs,
            connections: fp.connections,
        };
        let mut ack = CompactAck::default();
        for t in &mut self.shards {
            t.recv_compact_ack(&mut ack)?;
            if ack != expected {
                return Err(WireError::Protocol("shard replica diverged after compaction"));
            }
        }
        Ok(report)
    }

    /// Send every shard a shutdown request and return the final per-shard
    /// traffic counters. Remote servers exit their serve loop; join their
    /// [`ShardHost`]s afterwards.
    pub fn shutdown(mut self) -> Result<Vec<TransportStats>, WireError> {
        let mut stats = Vec::with_capacity(self.shards.len());
        for t in &mut self.shards {
            t.send_shutdown()?;
            t.flush()?;
            stats.push(t.stats());
        }
        Ok(stats)
    }
}

/// Fan the merged selection out to every active shard and gather the
/// largest certified rival upper bound — the stop rule's rival
/// ([`FleetShard::rival_upper`] per shard, max over shards).
fn rival_fanout(
    shards: &mut [Box<dyn ShardTransport>],
    stop_msg: &mut StopCheck,
    replies: &[RoundReply],
    active: &[usize],
    merged: &[(usize, u32)],
    min_lower: f64,
    full: bool,
) -> Result<f64, WireError> {
    for &s in active {
        stop_msg.clear();
        stop_msg.merged_full = full;
        stop_msg.min_lower = min_lower;
        stop_msg.selected.extend(
            merged
                .iter()
                .filter(|&&(ms, _)| ms == s)
                .map(|&(ms, j)| replies[ms].selection[j as usize].index),
        );
        shards[s].send_stop_check(stop_msg)?;
    }
    for &s in active {
        shards[s].flush()?;
    }
    let mut rival = 0.0f64;
    for &s in active {
        rival = rival.max(shards[s].recv_vote()?);
    }
    Ok(rival)
}
