//! Cross-process sharded serving: shard servers + the fleet client.
//!
//! [`crate::ShardedEngine`] runs the iteration-synchronous scatter-gather
//! inside one process. This module runs the *same algorithm* across
//! process boundaries — the one search driver
//! ([`s3_core::S3kEngine::search`]) with another round executor:
//!
//! * [`ShardServer`] owns one shard — the deterministically re-derived
//!   instance + partition and an [`s3_core::FleetShard`] — and answers
//!   the wire protocol's round requests over any `Read + Write` stream
//!   ([`ShardServer::serve`]). A request that does not fit the shard's
//!   state ends the session with a [`WireError::Protocol`];
//! * [`FleetEngine`] is the client: it routes each query through the
//!   regular [`ShardRouter`] and drives it on its remote executor, which
//!   only does frame I/O — `Start`, `NextRound`, `StopCheck`, `EndQuery`
//!   to every routed shard, pipelined so a wave costs the slowest shard,
//!   not the sum. Results are byte-identical to [`crate::ShardedEngine`];
//! * [`LocalShard`] is the zero-cost in-process transport: requests and
//!   replies move as typed values through option slots, no bytes on any
//!   path.
//!
//! Replication model: every shard server holds the full instance (built
//! from its own [`InstanceBuilder`]) because proximity propagates over
//! the *whole* graph regardless of which shard owns a component;
//! shipping an [`IngestBatch`] to every shard keeps the replicas
//! bit-identical, since [`InstanceBuilder::apply`] and
//! [`ComponentPartition::extended`] are deterministic. The
//! [`s3_wire::IngestAck`] fingerprint (node count, detachedness, epoch)
//! cross-checks that invariant on every ingest.

use crate::gate::{AdmissionGate, LoadStats, ServeOutcome};
use crate::{EngineConfig, EngineError, ShardRouter};
use s3_core::{
    read_snapshot, CompactionReport, ComponentPartition, FleetShard, Hit, IngestBatch,
    IngestSummary, InstanceBuilder, MergeScratch, Query, Round, RoundExecutor, S3Instance,
    S3kEngine, SearchConfig, SearchStats, StopReason, TopKResult, UserId,
};
use s3_doc::DocNodeId;
use s3_text::KeywordId;
use s3_wire::{
    loopback_pair, read_frame, write_frame, CompactAck, FramedTransport, IngestAck, LoopbackConn,
    Message, RequestBuf, RequestKind, RoundReply, SelectionEntry, ShardTransport, Snapshot,
    SnapshotAck, SnapshotChunk, Start, StopCheck, TransportStats, WireError,
};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One shard's server: the replica instance and the per-round executor.
/// Drive it through the typed handlers (the [`LocalShard`] transport
/// does) or hand a connected stream to [`Self::serve`].
pub struct ShardServer {
    builder: InstanceBuilder,
    instance: Arc<S3Instance>,
    partition: Arc<ComponentPartition>,
    shard: usize,
    /// The search configuration (the fleet client's).
    search: SearchConfig,
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

/// The ack a replica answers an applied batch with: what the client's own
/// apply of the batch must reproduce.
fn ingest_ack(summary: &IngestSummary, epoch: u64, instance: &S3Instance) -> IngestAck {
    let nodes = instance.graph().num_nodes() as u64;
    let touched = summary.touched_components.len() as u64;
    IngestAck { detached: summary.detached, epoch, nodes, touched }
}

/// The ack a replica answers a compaction with (its fingerprint, see
/// [`snapshot_fingerprint`]).
fn compact_ack(epoch: u64, instance: &S3Instance) -> CompactAck {
    let SnapshotAck { nodes, users, docs, connections } = snapshot_fingerprint(instance);
    CompactAck { epoch, nodes, users, docs, connections }
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
        let partition = Arc::new(ComponentPartition::balanced(&instance, num_shards));
        assert!(shard < partition.num_shards(), "shard index out of range");
        ShardServer {
            builder,
            instance,
            partition,
            shard,
            search: config.search,
            session: FleetShard::default(),
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
        let (builder, instance) = read_snapshot(snapshot)?;
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
        let (round, stats, admitted) = self.session.report();
        out.iteration = round.iteration;
        out.threshold = round.threshold;
        out.frontier_closed = round.frontier_closed;
        out.candidates = stats.candidates as u64;
        out.rejected = stats.rejected as u64;
        out.components = stats.components as u64;
        out.pruned = stats.pruned_components as u64;
        out.admitted.extend(admitted.iter().map(|&(seq, doc)| (seq, doc.0)));
        out.selection.extend(self.session.selection().map(|(index, hit)| SelectionEntry {
            index,
            doc: hit.doc.0,
            lower: hit.lower,
            upper: hit.upper,
        }));
    }

    /// Handle a [`Start`]: run round zero, fill the reply. Refused when
    /// the query can match and its seeker is not a user of the replica.
    pub fn start_query(&mut self, msg: &Start, out: &mut RoundReply) -> Result<(), WireError> {
        let keywords = msg.keywords.iter().map(|&k| KeywordId(k)).collect();
        let query = Query::new(UserId(msg.seeker), keywords, msg.k as usize);
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        let matched = self.session.begin(&engine, &self.partition, self.shard, &query);
        self.fill_round(out, !matched.map_err(WireError::Protocol)?);
        Ok(())
    }

    /// Handle a next-round request: step the propagation, run the round,
    /// fill the reply. Refused with no query begun.
    pub fn next_round(&mut self, out: &mut RoundReply) -> Result<(), WireError> {
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        self.session.advance(&engine, &self.partition, self.shard).map_err(WireError::Protocol)?;
        self.fill_round(out, false);
        Ok(())
    }

    /// Handle a [`StopCheck`]: this shard's certified rival upper bound
    /// against the merged selection (see [`FleetShard::rival_upper`]).
    /// Refused with no query begun or an index past the shard's pool.
    pub fn stop_check(&mut self, msg: &StopCheck) -> Result<f64, WireError> {
        let engine = S3kEngine::new(&self.instance, self.search.clone());
        self.session.rival_upper(&engine, &msg.selected).map_err(WireError::Protocol)
    }

    /// Handle an end-of-query notice.
    pub fn end_query(&mut self) {
        self.session.end();
    }

    /// Handle a shipped ingest: apply the batch to the replica, extend
    /// the partition, bump the epoch and fill the consistency ack.
    /// Refused when the batch names an entity the replica lacks
    /// ([`InstanceBuilder::check`]).
    pub fn ingest(&mut self, batch: &IngestBatch, out: &mut IngestAck) -> Result<(), WireError> {
        self.builder
            .check(&self.instance, batch)
            .map_err(|_| WireError::Protocol("ingest batch does not fit the replica"))?;
        let (instance, summary) = self.builder.apply(&self.instance, batch);
        self.instance = Arc::new(instance);
        self.partition = Arc::new(self.partition.extended(&self.instance));
        self.session.end();
        self.epoch += 1;
        *out = ingest_ack(&summary, self.epoch, &self.instance);
        Ok(())
    }

    /// Handle a compaction request: rebuild the replica without
    /// tombstoned state ([`InstanceBuilder::compact`]), re-partition the
    /// clean instance, bump the epoch and fill the consistency ack.
    /// Entity ids are densely renumbered, so any in-flight query ends.
    pub fn compact(&mut self, out: &mut CompactAck) -> CompactionReport {
        let (builder, report) = self.builder.compact();
        self.builder = builder;
        self.instance = Arc::new(self.builder.snapshot());
        self.partition =
            Arc::new(ComponentPartition::balanced(&self.instance, self.partition.num_shards()));
        self.session.end();
        self.epoch += 1;
        *out = compact_ack(self.epoch, &self.instance);
        report
    }

    /// Serve the wire protocol over a connected stream until the peer
    /// hangs up or sends `Shutdown`; a refused request ends the session
    /// with its error. Request bodies and the reply buffer
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
                    self.start_query(&req.start, &mut reply)?;
                    reply.encode(&mut payload);
                }
                RequestKind::NextRound => {
                    self.next_round(&mut reply)?;
                    reply.encode(&mut payload);
                }
                RequestKind::StopCheck => {
                    Message::Vote(self.stop_check(&req.stop)?).encode(&mut payload);
                }
                RequestKind::EndQuery => {
                    self.end_query();
                    continue;
                }
                RequestKind::Ingest => {
                    let mut ack = IngestAck::default();
                    self.ingest(&req.ingest, &mut ack)?;
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
        spawn_loopback(move |conn| self.serve(conn))
    }

    /// Bind a unix-domain socket at `path`, spawn this server on its own
    /// thread accepting one connection there, and connect to it; returns
    /// the client transport and the join handle. The socket file is
    /// unlinked once the connection is established.
    pub fn spawn_unix(
        mut self,
        path: &Path,
    ) -> std::io::Result<(FramedTransport<UnixStream>, ShardHost)> {
        spawn_unix(path, move |stream| self.serve(stream))
    }

    /// Spawn a *snapshot-awaiting* server thread behind an in-memory
    /// loopback duplex: it has no builder yet and constructs itself from
    /// the first frames on the stream ([`Self::serve_bootstrap`]).
    /// Hand the returned transport to [`FleetEngine::bootstrap`].
    pub fn spawn_loopback_bootstrap(
        config: EngineConfig,
    ) -> (FramedTransport<LoopbackConn>, ShardHost) {
        spawn_loopback(move |conn| Self::serve_bootstrap(conn, config))
    }

    /// Spawn a snapshot-awaiting server thread accepting one connection
    /// on a unix-domain socket at `path` ([`Self::spawn_unix`], bootstrap
    /// flavour). Hand the returned transport to [`FleetEngine::bootstrap`].
    pub fn spawn_unix_bootstrap(
        path: &Path,
        config: EngineConfig,
    ) -> std::io::Result<(FramedTransport<UnixStream>, ShardHost)> {
        spawn_unix(path, move |stream| Self::serve_bootstrap(stream, config))
    }
}

/// Run `serve` on its own thread over one end of a loopback duplex.
fn spawn_loopback(
    serve: impl FnOnce(LoopbackConn) -> Result<(), WireError> + Send + 'static,
) -> (FramedTransport<LoopbackConn>, ShardHost) {
    let (client, server_end) = loopback_pair();
    let thread = std::thread::spawn(move || serve(server_end));
    (FramedTransport::new(client), ShardHost { thread })
}

/// Run `serve` on its own thread over the one connection it accepts on a
/// unix-domain socket bound at `path` (unlinked once connected).
fn spawn_unix(
    path: &Path,
    serve: impl FnOnce(UnixStream) -> Result<(), WireError> + Send + 'static,
) -> std::io::Result<(FramedTransport<UnixStream>, ShardHost)> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let at = path.to_path_buf();
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().map_err(WireError::from)?;
        drop(listener);
        let _ = std::fs::remove_file(&at);
        serve(stream)
    });
    let stream = UnixStream::connect(path)?;
    Ok((FramedTransport::new(stream), ShardHost { thread }))
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
/// requests and replies as typed values through single-message slots —
/// byte-free and copy-free. The codec is exercised by the framed
/// transports and its own property tests.
#[derive(Default)]
pub struct LocalShard {
    /// `None` until bootstrapped ([`Self::awaiting`] + a shipped
    /// snapshot); always `Some` when built via [`Self::new`].
    server: Option<ShardServer>,
    /// Engine template held while awaiting a snapshot.
    pending: Option<EngineConfig>,
    /// The round reply buffer, reused across rounds; `round_ready` says
    /// whether it holds an unread reply.
    round: RoundReply,
    round_ready: bool,
    vote: Option<f64>,
    ack: Option<IngestAck>,
    snap_ack: Option<SnapshotAck>,
    compact_ack: Option<CompactAck>,
    stats: TransportStats,
}

impl LocalShard {
    /// Wrap a server.
    pub fn new(server: ShardServer) -> Self {
        LocalShard { server: Some(server), ..LocalShard::default() }
    }

    /// A snapshot-awaiting transport: it holds only the engine template
    /// and builds its [`ShardServer`] from the first shipped snapshot —
    /// the in-process analogue of [`ShardServer::spawn_loopback_bootstrap`].
    /// Hand it to [`FleetEngine::bootstrap`].
    pub fn awaiting(config: EngineConfig) -> Self {
        LocalShard { pending: Some(config), ..LocalShard::default() }
    }

    fn server_mut(&mut self) -> Result<&mut ShardServer, WireError> {
        self.server.as_mut().ok_or(NOT_BOOTSTRAPPED)
    }
}

/// A request reached a [`LocalShard`] still awaiting its snapshot.
const NOT_BOOTSTRAPPED: WireError = WireError::Protocol("shard not bootstrapped");

/// A pending reply taken from its slot, counted as one received frame.
fn receive<T>(
    stats: &mut TransportStats,
    reply: Option<T>,
    what: &'static str,
) -> Result<T, WireError> {
    let reply = reply.ok_or(WireError::Protocol(what))?;
    stats.frames_received += 1;
    Ok(reply)
}

impl ShardTransport for LocalShard {
    fn send_start(&mut self, msg: &Start) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.server.as_mut().ok_or(NOT_BOOTSTRAPPED)?.start_query(msg, &mut self.round)?;
        self.round_ready = true;
        Ok(())
    }

    fn send_next_round(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.server.as_mut().ok_or(NOT_BOOTSTRAPPED)?.next_round(&mut self.round)?;
        self.round_ready = true;
        Ok(())
    }

    fn send_stop_check(&mut self, msg: &StopCheck) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.vote = Some(self.server_mut()?.stop_check(msg)?);
        Ok(())
    }

    fn send_end_query(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        self.server_mut()?.end_query();
        Ok(())
    }

    fn send_ingest(&mut self, batch: &IngestBatch) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let mut ack = IngestAck::default();
        self.server_mut()?.ingest(batch, &mut ack)?;
        self.ack = Some(ack);
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
        self.snap_ack = Some(snapshot_fingerprint(&server.instance));
        self.server = Some(server);
        Ok(())
    }

    fn send_compact(&mut self) -> Result<(), WireError> {
        self.stats.frames_sent += 1;
        let mut ack = CompactAck::default();
        self.server_mut()?.compact(&mut ack);
        self.compact_ack = Some(ack);
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
        let ready = std::mem::take(&mut self.round_ready).then_some(());
        receive(&mut self.stats, ready, "no round reply pending")?;
        std::mem::swap(out, &mut self.round);
        Ok(())
    }

    fn recv_vote(&mut self) -> Result<f64, WireError> {
        receive(&mut self.stats, self.vote.take(), "no vote pending")
    }

    fn recv_ingest_ack(&mut self, out: &mut IngestAck) -> Result<(), WireError> {
        *out = receive(&mut self.stats, self.ack.take(), "no ingest ack pending")?;
        Ok(())
    }

    fn recv_snapshot_ack(&mut self, out: &mut SnapshotAck) -> Result<(), WireError> {
        *out = receive(&mut self.stats, self.snap_ack.take(), "no snapshot ack pending")?;
        Ok(())
    }

    fn recv_compact_ack(&mut self, out: &mut CompactAck) -> Result<(), WireError> {
        *out = receive(&mut self.stats, self.compact_ack.take(), "no compact ack pending")?;
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// The fleet client: the one search driver over a remote executor whose
/// pools are N [`ShardTransport`]s.
///
/// For every query and any transport mix, the returned [`TopKResult`] is
/// byte-identical (hits, candidate order, stop reason) to
/// [`crate::ShardedEngine`] with the same shard count — including after
/// shipped ingests. Property-tested in `tests/identity.rs` and `tests/fleet.rs`.
pub struct FleetEngine {
    builder: InstanceBuilder,
    instance: Arc<S3Instance>,
    partition: Arc<ComponentPartition>,
    router: ShardRouter,
    search: SearchConfig,
    remote: Remote,
    /// The front of [`Self::serve`]: deadlines and load counters. It has
    /// no overload policy, since one client never has two queries in
    /// flight.
    gate: AdmissionGate,
    epoch: u64,
}

/// The fleet's round executor: pool `p` of the driver is shard
/// `active[p]`; message buffers are reused across rounds and queries.
#[derive(Default)]
struct Remote {
    shards: Vec<Box<dyn ShardTransport>>,
    active: Vec<usize>,
    /// Rounds driven so far ([`FleetEngine::rounds`]).
    rounds: u64,
    replies: Vec<RoundReply>,
    start: Start,
    stop: StopCheck,
    merge: MergeScratch,
}

impl Remote {
    /// Answer one query: route it, then run the one driver on this
    /// executor under `search`.
    fn drive(
        &mut self,
        instance: &S3Instance,
        router: &ShardRouter,
        search: SearchConfig,
        query: &Query,
    ) -> Result<TopKResult, WireError> {
        router.route_into(instance, query, &search, &mut self.active);
        let result = S3kEngine::new(instance, search).search(query, self)?;
        if result.stats.stop != StopReason::NoMatch {
            // One reply wave per step, plus round 0.
            self.rounds += u64::from(result.stats.iterations) + 1;
        }
        Ok(result)
    }

    /// Flush every routed shard's queued request, then read each one's
    /// round reply.
    fn gather(&mut self) -> Result<(), WireError> {
        for &s in &self.active {
            self.shards[s].flush()?;
        }
        for &s in &self.active {
            self.shards[s].recv_round(&mut self.replies[s])?;
        }
        Ok(())
    }

    fn reply(&self, pool: usize) -> &RoundReply {
        &self.replies[self.active[pool]]
    }
}

impl RoundExecutor for Remote {
    type Error = WireError;

    fn begin(&mut self, query: &Query) -> Result<bool, WireError> {
        if self.active.is_empty() {
            // No shard can admit a candidate, but the driver still runs the
            // (empty) round loop to its stop iteration; one shard
            // reproduces that with an empty candidate pool.
            self.active.push(0);
        }
        self.start.clear();
        self.start.seeker = query.seeker.0;
        self.start.k = query.k as u64;
        self.start.keywords.extend(query.keywords.iter().map(|k| k.0));
        for &s in &self.active {
            self.shards[s].send_start(&self.start)?;
        }
        self.gather()?;
        // Expansion is deterministic: every shard agrees, and no round
        // state is kept server-side after a NoMatch.
        Ok(!self.reply(0).no_match)
    }

    fn advance(&mut self) -> Result<(), WireError> {
        for &s in &self.active {
            self.shards[s].send_next_round()?;
        }
        self.gather()
    }

    fn rival(&mut self, shares: &[usize], min_lower: f64, full: bool) -> Result<f64, WireError> {
        for (&s, &share) in self.active.iter().zip(shares) {
            self.stop.clear();
            self.stop.merged_full = full;
            self.stop.min_lower = min_lower;
            self.stop.selected.extend(self.replies[s].selection[..share].iter().map(|e| e.index));
            self.shards[s].send_stop_check(&self.stop)?;
        }
        for &s in &self.active {
            self.shards[s].flush()?;
        }
        let mut rival = 0.0f64;
        for &s in &self.active {
            rival = rival.max(self.shards[s].recv_vote()?);
        }
        Ok(rival)
    }

    fn end(&mut self) -> Result<(), WireError> {
        for &s in &self.active {
            self.shards[s].send_end_query()?;
            self.shards[s].flush()?;
        }
        Ok(())
    }

    fn pools(&self) -> usize {
        self.active.len()
    }

    fn round(&self) -> Round {
        let h = self.reply(0);
        Round { iteration: h.iteration, threshold: h.threshold, frontier_closed: h.frontier_closed }
    }

    fn hit(&self, pool: usize, j: usize) -> Option<Hit> {
        let e = self.reply(pool).selection.get(j)?;
        Some(Hit { doc: DocNodeId(e.doc), lower: e.lower, upper: e.upper })
    }

    fn admitted(&self, pool: usize, i: usize) -> Option<(u32, DocNodeId)> {
        self.reply(pool).admitted.get(i).map(|&(seq, doc)| (seq, DocNodeId(doc)))
    }

    fn work(&self, pool: usize) -> SearchStats {
        let r = self.reply(pool);
        SearchStats {
            candidates: r.candidates as usize,
            rejected: r.rejected as usize,
            components: r.components as usize,
            pruned_components: r.pruned as usize,
            ..SearchStats::default()
        }
    }

    fn merge_scratch(&mut self) -> &mut MergeScratch {
        &mut self.merge
    }
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
        let (builder, instance) = read_snapshot(snapshot)?;
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
        let search = config.validated().search;
        let partition = Arc::new(ComponentPartition::balanced(&instance, shards.len()));
        let router = ShardRouter::new(&instance, Arc::clone(&partition));
        let replies = shards.iter().map(|_| RoundReply::default()).collect();
        let remote = Remote { shards, replies, ..Remote::default() };
        FleetEngine {
            builder,
            instance,
            partition,
            router,
            search,
            remote,
            gate: AdmissionGate::new(None),
            epoch: 0,
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
        self.remote.shards.len()
    }

    /// Ingest epoch (bumped once per shipped batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rounds driven so far (reply waves across all queries; `NoMatch`
    /// probes count as zero rounds, matching the in-process driver).
    pub fn rounds(&self) -> u64 {
        self.remote.rounds
    }

    /// Per-shard transport traffic counters.
    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.remote.shards.iter().map(|t| t.stats()).collect()
    }

    /// Answer one query over the fleet: route it, then run the one
    /// driver on the remote executor.
    pub fn query(&mut self, query: &Query) -> Result<TopKResult, WireError> {
        self.remote.drive(&self.instance, &self.router, self.search.clone(), query)
    }

    /// Load counters for [`Self::serve`].
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Answer one query with an optional per-query deadline
    /// ([`crate::ShardedEngine::serve`]'s contract, minus the result
    /// cache — the fleet client does not keep one). The client drives
    /// queries one at a time (`&mut self`), so the in-flight depth never
    /// passes 1 and no overload policy could ever engage: the fleet
    /// ignores [`crate::EngineConfigBuilder::overload`] and gets deadlines
    /// and load counters only. A deadline-capped query runs the fan-out
    /// under the tightened time budget and returns a certified
    /// best-effort answer.
    pub fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, WireError> {
        let arrival = self.search.clock.now();
        let (instance, router, remote) = (&self.instance, &self.router, &mut self.remote);
        self.gate.serve(self.search.clone(), arrival, deadline, |search| {
            remote.drive(instance, router, search, query)
        })
    }

    /// Ship a batch to every shard (pipelined), apply it locally, and
    /// cross-check the acks: every replica must land on the same node
    /// count, delta class and epoch, or the fleet is declared diverged.
    /// A batch that names an entity the fleet lacks is refused first
    /// ([`EngineError::Rejected`]): nothing is sent or applied.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        self.builder.check(&self.instance, batch).map_err(EngineError::Rejected)?;
        for t in &mut self.remote.shards {
            t.send_ingest(batch)?;
        }
        for t in &mut self.remote.shards {
            t.flush()?;
        }
        let (instance, summary) = self.builder.apply(&self.instance, batch);
        self.instance = Arc::new(instance);
        self.partition = Arc::new(self.partition.extended(&self.instance));
        self.router = ShardRouter::new(&self.instance, Arc::clone(&self.partition));
        self.epoch += 1;
        let (mut ack, expected) =
            (IngestAck::default(), ingest_ack(&summary, self.epoch, &self.instance));
        for t in &mut self.remote.shards {
            t.recv_ingest_ack(&mut ack)?;
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
        for t in &mut self.remote.shards {
            t.send_compact()?;
        }
        for t in &mut self.remote.shards {
            t.flush()?;
        }
        let (builder, report) = self.builder.compact();
        self.builder = builder;
        self.instance = Arc::new(self.builder.snapshot());
        self.partition =
            Arc::new(ComponentPartition::balanced(&self.instance, self.remote.shards.len()));
        self.router = ShardRouter::new(&self.instance, Arc::clone(&self.partition));
        self.epoch += 1;
        let (mut ack, expected) = (CompactAck::default(), compact_ack(self.epoch, &self.instance));
        for t in &mut self.remote.shards {
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
        let mut stats = Vec::with_capacity(self.remote.shards.len());
        for t in &mut self.remote.shards {
            t.send_shutdown()?;
            t.flush()?;
            stats.push(t.stats());
        }
        Ok(stats)
    }
}
