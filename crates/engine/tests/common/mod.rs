//! Shared pieces of the serving-layer test suites: the seeded corpora and
//! query streams, the byte-identity assertion, scratch directories that
//! never leak, and the engine shapes — every engine type, fleet transport
//! and durable directory the byte-identity harness (`harness/mod.rs`) and
//! the targeted tests build.

#![allow(dead_code)] // each test binary uses a subset

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{
    write_snapshot, IngestBatch, IngestSummary, InstanceBuilder, Query, S3Instance, TagSubject,
    TopKResult, UserId,
};
use s3_doc::DocBuilder;
use s3_engine::{
    Engine, EngineConfig, EngineError, FleetEngine, Ingest, LiveEngine, LiveShardedEngine,
    LocalShard, RecoveryReport, S3Engine, ShardHost, ShardServer, ShardedEngine,
};
use s3_snap::Codec;
use s3_text::{KeywordId, Language};
use s3_wire::ShardTransport;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Seeded random builder exercising every data-model feature: multi-node
/// documents, an ontology bridge, keyword tags, endorsements, comments.
/// Fully deterministic per seed, so repeated calls yield *identical*
/// builders: the replica generator for fleets and reopened engines.
/// Returns the queryable keyword pool beside it.
pub fn random_builder(seed: u64) -> (InstanceBuilder, Vec<KeywordId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(Language::English);

    // Ontology: classes c0..c1 with specializations s0..s1.
    let mut pool = Vec::new();
    let mut class_kws = Vec::new();
    for i in 0..2 {
        let class = b.intern_entity_keyword(&format!("ex:c{i}"));
        let spec = b.intern_entity_keyword(&format!("ex:s{i}"));
        let (cu, su) = {
            let d = b.rdf_mut().dictionary_mut();
            (d.intern(&format!("ex:c{i}")), d.intern(&format!("ex:s{i}")))
        };
        b.rdf_mut().insert(su, s3_rdf::vocabulary::RDFS_SUBCLASS_OF, s3_rdf::Term::Uri(cu), 1.0);
        class_kws.push(class);
        pool.push(spec);
    }
    for i in 0..6 {
        pool.push(b.analyzer_mut().vocabulary_mut().intern(&format!("w{i}")));
    }

    let users: Vec<UserId> = (0..5).map(|_| b.add_user()).collect();
    for _ in 0..10 {
        let x = rng.gen_range(0..users.len());
        let y = rng.gen_range(0..users.len());
        if x != y {
            b.add_social_edge(users[x], users[y], rng.gen_range(0.1..=1.0));
        }
    }

    let mut roots = Vec::new();
    for d in 0..7 {
        let mut doc = DocBuilder::new("doc");
        let mut targets = vec![doc.root()];
        for _ in 0..rng.gen_range(0..3usize) {
            let parent = targets[rng.gen_range(0..targets.len())];
            targets.push(doc.child(parent, "sec"));
        }
        for &node in &targets {
            let kws: Vec<KeywordId> =
                (0..rng.gen_range(0..4usize)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            for &k in &kws {
                b.analyzer_mut().vocabulary_mut().add_occurrences(k, 1);
            }
            doc.add_content(node, kws);
        }
        let poster =
            if rng.gen_bool(0.9) { Some(users[rng.gen_range(0..users.len())]) } else { None };
        let tree = b.add_document(doc, poster);
        if d > 0 && rng.gen_bool(0.4) {
            let target = roots[rng.gen_range(0..roots.len())];
            b.add_comment_edge(tree, target);
        }
        roots.push(b.doc_root(tree));
    }

    for _ in 0..5 {
        if rng.gen_bool(0.6) {
            let subject = TagSubject::Frag(roots[rng.gen_range(0..roots.len())]);
            let author = users[rng.gen_range(0..users.len())];
            let keyword = if rng.gen_bool(0.7) {
                let k = pool[rng.gen_range(0..pool.len())];
                b.analyzer_mut().vocabulary_mut().add_occurrences(k, 1);
                Some(k)
            } else {
                None
            };
            b.add_tag(subject, author, keyword);
        }
    }

    let mut queryable = class_kws;
    queryable.extend(pool);
    (b, queryable)
}

/// A small deterministic corpus over the stem-stable words
/// `live_workload` itself writes, so its queries hit old and new
/// documents alike: a handful of users, documents and tags.
pub fn base_builder(seed: u64) -> InstanceBuilder {
    let mut b = InstanceBuilder::new(Language::English);
    let users: Vec<_> = (0..4).map(|_| b.add_user()).collect();
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for (i, &u) in users.iter().enumerate() {
        let v = users[(i + 1 + next() % 3) % users.len()];
        if u != v {
            b.add_social_edge(u, v, 0.2 + 0.1 * ((next() % 8) as f64));
        }
    }
    let words = ["alpha", "beta", "gamma", "delta", "omega"];
    for i in 0..3 {
        let text = format!("{} {}", words[next() % words.len()], words[next() % words.len()]);
        let kws = b.analyze(&text);
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        let t = b.add_document(doc, Some(users[i % users.len()]));
        if next() % 2 == 0 {
            let root = b.doc_root(t);
            b.add_tag(TagSubject::Frag(root), users[next() % users.len()], None);
        }
    }
    b
}

/// Random query workload over the instance's keyword pool.
pub fn random_queries(rng: &mut StdRng, users: usize, pool: &[KeywordId], n: usize) -> Vec<Query> {
    queries(rng, users, pool, n, false)
}

/// A seeker-skewed stream: 70 % of the queries come from a hot pair of
/// seekers (the Zipf-like shape of real social-search traffic), with
/// keywords and k varied so the result cache cannot absorb the repeats.
/// Consecutive same-seeker queries must each start their propagation
/// afresh.
pub fn skewed_queries(rng: &mut StdRng, users: usize, pool: &[KeywordId], n: usize) -> Vec<Query> {
    queries(rng, users, pool, n, true)
}

fn queries(rng: &mut StdRng, users: usize, pool: &[KeywordId], n: usize, hot: bool) -> Vec<Query> {
    let query = |i: usize| {
        let seeker = match hot && rng.gen_bool(0.7) {
            true => UserId((i % 2) as u32), // the hot pair
            false => UserId(rng.gen_range(0..users) as u32),
        };
        let n_kw = rng.gen_range(1..3usize);
        let kws = (0..n_kw).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        Query::new(seeker, kws, rng.gen_range(1..if hot { 6 } else { 5 }))
    };
    (0..n).map(query).collect()
}

/// Byte-identical result comparison: stop reason, candidate list, hits
/// with exact bounds.
pub fn assert_identical(a: &TopKResult, b: &TopKResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats.stop, b.stats.stop);
    prop_assert_eq!(&a.candidate_docs, &b.candidate_docs);
    prop_assert_eq!(a.hits.len(), b.hits.len());
    for (x, y) in a.hits.iter().zip(b.hits.iter()) {
        prop_assert_eq!(x.doc, y.doc);
        prop_assert!(x.lower == y.lower, "lower {} != {}", x.lower, y.lower);
        prop_assert!(x.upper == y.upper, "upper {} != {}", x.upper, y.upper);
    }
    Ok(())
}

/// An ingest frame whose `new_users` count says 2^40: a valid frame of
/// seventeen bytes that would have `apply` add users one at a time past
/// the u32 ids.
pub fn oversized_ingest_frame() -> Vec<u8> {
    ingest_frame_adding_users(1 << 40)
}

/// An otherwise empty ingest frame whose `new_users` count says
/// `new_users`.
pub fn ingest_frame_adding_users(new_users: usize) -> Vec<u8> {
    let (empty, mut body, mut frame) = (IngestBatch::new(), Vec::new(), Vec::new());
    empty.encode(&mut body);
    s3_wire::encode_ingest(&empty, &mut frame);
    // `new_users` is the body's first field: one byte while it is zero.
    let at = frame.len() - body.len();
    let mut count = Vec::new();
    new_users.encode(&mut count);
    frame.splice(at..at + 1, count);
    frame
}

/// A fresh directory under the system temp dir, removed on drop — also
/// when a failing assertion returns early or a panic unwinds.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("s3-test-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The data engines grow from: `grow` yields the same builder on every
/// call (one replica per engine, shard server and reopen), `base` is its
/// cold snapshot and `pool` its queryable keywords.
#[derive(Clone)]
pub struct Corpus {
    pub grow: Rc<dyn Fn() -> InstanceBuilder>,
    pub base: Arc<S3Instance>,
    pub pool: Vec<KeywordId>,
}

impl Corpus {
    pub fn new(grow: impl Fn() -> InstanceBuilder + 'static, pool: Vec<KeywordId>) -> Corpus {
        Corpus { base: Arc::new(grow().snapshot()), grow: Rc::new(grow), pool }
    }

    /// [`random_builder`]'s corpus.
    pub fn random(seed: u64) -> Corpus {
        let (builder, pool) = random_builder(seed);
        let grow = Rc::new(move || random_builder(seed).0);
        Corpus { base: Arc::new(builder.snapshot()), grow, pool }
    }
}

/// What an engine keeps between calls: a frozen snapshot, a live one it
/// ingests into, or a live one journaled to a directory it reopens from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum State {
    Frozen,
    Live,
    Durable,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Wire {
    Local,
    Loopback,
    Unix,
}

/// Where the search runs: in process, or on shard servers grown from the
/// corpus's builder (`Fleet`) or built from a shipped snapshot (`Boot`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Exec {
    InProcess,
    Fleet(Wire),
    Boot(Wire),
}

/// A serving shape: state, execution, shard count and result-cache
/// capacity. In process, one shard is `S3Engine` or `LiveEngine`, more
/// are `ShardedEngine` or `LiveShardedEngine`; a fleet is `Live` and
/// caches nothing.
#[derive(Clone, Copy, Debug)]
pub struct Shape(pub State, pub Exec, pub usize, pub usize);

/// Two batch workers and a result cache of `cache` entries.
pub fn config(cache: usize) -> EngineConfig {
    EngineConfig::builder().threads(2).cache_capacity(cache).build()
}

/// An engine of each concrete type a [`Shape`] can name.
#[allow(clippy::large_enum_variant)] // one per rig, never in bulk
pub enum Built {
    S3(S3Engine),
    Sharded(ShardedEngine),
    Live(LiveEngine),
    LiveSharded(LiveShardedEngine),
    Fleet(FleetEngine),
}

/// An engine built to a [`Shape`], with the shard servers and the
/// directory it owns. Fields drop in order: the directory (durable
/// files, unix sockets) goes after the engine and its servers.
pub struct Rig {
    engine: Built,
    hosts: Vec<ShardHost>,
    pub shape: Shape,
    /// What a durable engine's last open recovered.
    pub recovered: Option<RecoveryReport>,
    corpus: Corpus,
    pub dir: Scratch,
}

impl Rig {
    pub fn open(shape: Shape, corpus: &Corpus) -> Rig {
        let (dir, mut hosts) = (Scratch::new(), Vec::new());
        let (engine, recovered) = build(shape, corpus, &dir.0, &mut hosts);
        Rig { engine, hosts, shape, recovered, corpus: corpus.clone(), dir }
    }

    /// Close a durable engine and open it again from its directory.
    pub fn reopen(self) -> Rig {
        let Rig { engine, mut hosts, shape, corpus, dir, .. } = self;
        drop(engine);
        let (engine, recovered) = build(shape, &corpus, &dir.0, &mut hosts);
        Rig { engine, hosts, shape, recovered, corpus, dir }
    }

    pub fn engine(&mut self) -> &mut dyn Engine {
        match &mut self.engine {
            Built::S3(e) => e,
            Built::Sharded(e) => e,
            Built::Live(e) => e,
            Built::LiveSharded(e) => e,
            Built::Fleet(e) => e,
        }
    }

    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        let engine: &mut dyn Ingest = match &mut self.engine {
            Built::Live(e) => e,
            Built::LiveSharded(e) => e,
            Built::Fleet(e) => e,
            _ => panic!("a frozen engine does not ingest"),
        };
        engine.ingest(batch)
    }

    pub fn frozen(&self) -> Option<&ShardedEngine> {
        match &self.engine {
            Built::S3(e) => Some(e),
            Built::Sharded(e) => Some(e),
            _ => None,
        }
    }

    pub fn live(&self) -> Option<&LiveShardedEngine> {
        match &self.engine {
            Built::Live(e) => Some(e),
            Built::LiveSharded(e) => Some(e),
            _ => None,
        }
    }

    pub fn fleet(&mut self) -> Option<&mut FleetEngine> {
        match &mut self.engine {
            Built::Fleet(e) => Some(e),
            _ => None,
        }
    }

    /// Drop the engine — a fleet client hangs up on its shard servers —
    /// and require every server to exit cleanly.
    pub fn close(self) {
        drop(self.engine);
        for host in self.hosts {
            host.join().expect("shard server exits cleanly");
        }
    }
}

fn build(
    shape: Shape,
    corpus: &Corpus,
    dir: &Path,
    hosts: &mut Vec<ShardHost>,
) -> (Built, Option<RecoveryReport>) {
    let (Shape(state, exec, n, _), config) = (shape, config(shape.3));
    let (grow, base, durable) = (&*corpus.grow, || Arc::clone(&corpus.base), dir.join("durable"));
    let engine = match (state, exec) {
        (State::Frozen, Exec::InProcess) if n == 1 => Built::S3(S3Engine::new(base(), config)),
        (State::Frozen, Exec::InProcess) => Built::Sharded(ShardedEngine::new(base(), config, n)),
        (State::Live, Exec::InProcess) if n == 1 => Built::Live(LiveEngine::new(grow(), config)),
        (State::Live, Exec::InProcess) => {
            Built::LiveSharded(LiveShardedEngine::new(grow(), config, n))
        }
        (State::Durable, Exec::InProcess) if n == 1 => {
            let (e, report) = LiveEngine::open(&durable, grow(), config).expect("open");
            return (Built::Live(e), Some(report));
        }
        (State::Durable, Exec::InProcess) => {
            let (e, report) = LiveShardedEngine::open(&durable, grow(), config, n).expect("open");
            return (Built::LiveSharded(e), Some(report));
        }
        (State::Live, Exec::Fleet(wire) | Exec::Boot(wire)) => {
            let boot = exec == Exec::Boot(wire);
            let server = |s| (!boot).then(|| ShardServer::new(grow(), config.clone(), n, s));
            let shards = (0..n).map(|s| connect(wire, server(s), &config, dir, s, hosts)).collect();
            Built::Fleet(match boot {
                true => FleetEngine::bootstrap(&write_snapshot(&grow(), &base()), config, shards)
                    .expect("bootstrap"),
                false => FleetEngine::new(grow(), config, shards),
            })
        }
        _ => panic!("no engine has the shape {shape:?}"),
    };
    (engine, None)
}

/// Shard `s`'s transport over `wire`: to `server`, or to a server that
/// awaits its snapshot when `server` is `None`.
fn connect(
    wire: Wire,
    server: Option<ShardServer>,
    config: &EngineConfig,
    dir: &Path,
    s: usize,
    hosts: &mut Vec<ShardHost>,
) -> Box<dyn ShardTransport> {
    let (socket, config) = (dir.join(format!("shard-{s}.sock")), config.clone());
    match (wire, server) {
        (Wire::Local, Some(server)) => Box::new(LocalShard::new(server)),
        (Wire::Local, None) => Box::new(LocalShard::awaiting(config)),
        (Wire::Loopback, Some(server)) => hosted(hosts, server.spawn_loopback()),
        (Wire::Loopback, None) => hosted(hosts, ShardServer::spawn_loopback_bootstrap(config)),
        (Wire::Unix, Some(server)) => hosted(hosts, server.spawn_unix(&socket).expect("bind")),
        (Wire::Unix, None) => {
            hosted(hosts, ShardServer::spawn_unix_bootstrap(&socket, config).expect("bind"))
        }
    }
}

/// The client end of a spawned shard server, whose host joins `hosts`.
fn hosted<T: ShardTransport + 'static>(
    hosts: &mut Vec<ShardHost>,
    (conn, host): (T, ShardHost),
) -> Box<dyn ShardTransport> {
    hosts.push(host);
    Box::new(conn)
}
