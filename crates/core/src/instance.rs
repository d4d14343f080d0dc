//! The S3 instance: assembly of the social, structured and semantic layers
//! (paper §2), plus the derived query-time structures.

use crate::connections::{ConnectionIndex, Scope, TagInput};
use crate::ids::{TagId, TagSubject, UserId};
use s3_doc::{DocBuilder, DocNodeId, Forest, TreeId};
use s3_graph::{CompId, EdgeKind, GraphBuilder, NodeId, SocialGraph};
use s3_rdf::{TripleStore, UriId};
use s3_text::{Analyzer, KeywordId, Language, Vocabulary};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Construction-time record of a tag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTag {
    pub(crate) subject: TagSubject,
    pub(crate) author: UserId,
    pub(crate) keyword: Option<KeywordId>,
}

s3_snap::codec!(struct PendingTag { subject, author, keyword });

/// One entity event, in insertion order. Graph nodes are numbered by
/// replaying this log, so an instance extended incrementally (live
/// ingestion appends events) numbers its nodes exactly like a cold
/// [`InstanceBuilder::build`] of the same final data — the invariant behind
/// the live engine's byte-identity guarantee.
///
/// Retractions append `Dead*` events instead of erasing creation events:
/// dead entities keep their ids (and their graph nodes stay allocated as
/// permanent gaps), so nothing already handed out to callers ever
/// renumbers. Replaying the log therefore reconstructs both the entity
/// numbering *and* the tombstone sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildEvent {
    /// `add_user` (users are numbered in event order).
    User,
    /// `add_document` (trees are numbered in event order).
    Tree,
    /// `add_tag` (tags are numbered in event order).
    Tag,
    /// `delete_user` (the id stays allocated; the node loses all edges).
    DeadUser(UserId),
    /// `delete_document` (likewise).
    DeadTree(TreeId),
    /// `delete_tag` (likewise; also pushed by cascades).
    DeadTag(TagId),
}

s3_snap::codec!(enum BuildEvent {
    0 => User,
    1 => Tree,
    2 => Tag,
    3 => DeadUser(UserId),
    4 => DeadTree(TreeId),
    5 => DeadTag(TagId),
});

/// The builder's tombstone sets: entities deleted but never deallocated
/// (ids are stable forever). A dead entity keeps its graph node but loses
/// every edge, every content seed and every `con` contribution — it can
/// never be discovered, admitted or emitted again.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tombstones {
    pub(crate) users: HashSet<UserId>,
    pub(crate) trees: HashSet<TreeId>,
    pub(crate) tags: HashSet<TagId>,
}

impl Tombstones {
    pub(crate) fn user_alive(&self, u: UserId) -> bool {
        !self.users.contains(&u)
    }

    pub(crate) fn tree_alive(&self, t: TreeId) -> bool {
        !self.trees.contains(&t)
    }

    pub(crate) fn tag_alive(&self, t: TagId) -> bool {
        !self.tags.contains(&t)
    }

    pub(crate) fn doc_alive(&self, forest: &Forest, d: DocNodeId) -> bool {
        self.tree_alive(forest.tree_of(d))
    }

    /// The tombstoned graph nodes as a bit set over `graph`'s node ids.
    pub(crate) fn mark_nodes(
        &self,
        graph: &SocialGraph,
        user_nodes: &[NodeId],
        tag_nodes: &[NodeId],
    ) -> s3_graph::BitSet {
        let mut dead = s3_graph::BitSet::with_len(graph.num_nodes());
        for &u in &self.users {
            dead.set(user_nodes[u.index()].index());
        }
        for &t in &self.trees {
            for idx in graph.forest().tree_range(t) {
                let node = graph.node_of_frag(DocNodeId(idx as u32)).expect("registered");
                dead.set(node.index());
            }
        }
        for &t in &self.tags {
            dead.set(tag_nodes[t.index()].index());
        }
        dead
    }
}

/// What a batch of retractions actually killed (cascades included) and
/// physically unlinked — the delta [`InstanceBuilder::apply`] needs to
/// compute the retraction-affected components.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetractionLog {
    pub(crate) dead_users: Vec<UserId>,
    pub(crate) dead_trees: Vec<TreeId>,
    pub(crate) dead_tags: Vec<TagId>,
    pub(crate) removed_social: usize,
    pub(crate) removed_comments: Vec<(TreeId, DocNodeId)>,
}

impl RetractionLog {
    pub(crate) fn is_empty(&self) -> bool {
        self.dead_users.is_empty()
            && self.dead_trees.is_empty()
            && self.dead_tags.is_empty()
            && self.removed_social == 0
            && self.removed_comments.is_empty()
    }
}

/// What one [`InstanceBuilder::compact`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Tombstoned users dropped.
    pub dropped_users: usize,
    /// Tombstoned documents dropped.
    pub dropped_documents: usize,
    /// Tombstoned tags dropped.
    pub dropped_tags: usize,
    /// Forest nodes reclaimed (the dead trees' fragments).
    pub dropped_forest_nodes: usize,
    /// Event-log length before compaction (creations + tombstones).
    pub events_before: usize,
    /// Event-log length after (surviving creations only).
    pub events_after: usize,
}

impl std::fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compacted away {} users, {} docs ({} nodes), {} tags; event log {} -> {}",
            self.dropped_users,
            self.dropped_documents,
            self.dropped_forest_nodes,
            self.dropped_tags,
            self.events_before,
            self.events_after,
        )
    }
}

/// Remap a fragment id across a compaction: same offset inside its tree's
/// (re-frozen, offset-preserving — [`Forest::extract`]) node range.
fn remap_frag(old: &Forest, new: &Forest, tree_map: &[Option<TreeId>], f: DocNodeId) -> DocNodeId {
    let tree = old.tree_of(f);
    let offset = f.index() - old.tree_range(tree).start;
    let new_tree = tree_map[tree.index()].expect("fragment of a dead tree");
    DocNodeId((new.tree_range(new_tree).start + offset) as u32)
}

/// Mutable S3 instance under construction, following the paper's data
/// model: users + social edges (§2.2), documents (§2.3), tags and comments
/// (§2.4), RDF schema (§2.1) — then [`InstanceBuilder::build`] freezes
/// everything and derives the network graph, the saturation, the `con`
/// index and the component keyword sets.
///
/// For live serving the builder is *retained* instead of consumed:
/// [`InstanceBuilder::snapshot`] freezes the current data without giving
/// the builder up, and [`InstanceBuilder::apply`] (see [`crate::ingest`])
/// extends a previous snapshot with an [`crate::IngestBatch`] — appending
/// to, not rebuilding, the forest, vocabulary, graph and connection index.
#[derive(Debug)]
pub struct InstanceBuilder {
    pub(crate) analyzer: Analyzer,
    pub(crate) rdf: TripleStore,
    pub(crate) forest: Forest,
    pub(crate) num_users: u32,
    pub(crate) user_uris: HashMap<UriId, UserId>,
    pub(crate) social_edges: Vec<(UserId, UserId, f64)>,
    pub(crate) posters: Vec<(TreeId, UserId)>,
    pub(crate) comments: Vec<(TreeId, DocNodeId)>,
    pub(crate) tags: Vec<PendingTag>,
    pub(crate) events: Vec<BuildEvent>,
    pub(crate) dead: Tombstones,
    /// Has the RDF layer (store or dictionary) been touched since the
    /// last [`InstanceBuilder::snapshot`]? [`InstanceBuilder::apply`]
    /// `Arc`-shares the previous snapshot's saturated store, so schema
    /// changes require a fresh snapshot — apply refuses to silently drop
    /// them. A `Cell` because `snapshot(&self)` clears it.
    pub(crate) rdf_dirty: std::cell::Cell<bool>,
}

/// An empty English instance.
impl Default for InstanceBuilder {
    fn default() -> Self {
        InstanceBuilder::new(Language::English)
    }
}

impl InstanceBuilder {
    /// Start an empty instance for a corpus language.
    pub fn new(language: Language) -> Self {
        InstanceBuilder {
            analyzer: Analyzer::new(language),
            rdf: TripleStore::new(),
            forest: Forest::new(),
            num_users: 0,
            user_uris: HashMap::new(),
            social_edges: Vec::new(),
            posters: Vec::new(),
            comments: Vec::new(),
            tags: Vec::new(),
            events: Vec::new(),
            dead: Tombstones::default(),
            rdf_dirty: std::cell::Cell::new(false),
        }
    }

    /// Analyze a text into content keywords (counted in corpus statistics).
    pub fn analyze(&mut self, text: &str) -> Vec<KeywordId> {
        self.analyzer.analyze(text)
    }

    /// The text analyzer (vocabulary access, query analysis…).
    pub fn analyzer_mut(&mut self) -> &mut Analyzer {
        &mut self.analyzer
    }

    /// The RDF store, for schema and knowledge-base triples. Marks the
    /// RDF layer dirty: a later [`Self::apply`] needs a fresh
    /// [`Self::snapshot`] first (see [`crate::ingest`]).
    pub fn rdf_mut(&mut self) -> &mut TripleStore {
        self.rdf_dirty.set(true);
        &mut self.rdf
    }

    /// Intern a keyword that is a URI (entity mention) and bridge it to the
    /// RDF dictionary, so keyword extension can see it. Returns the keyword.
    pub fn intern_entity_keyword(&mut self, uri: &str) -> KeywordId {
        self.rdf_dirty.set(true);
        self.rdf.dictionary_mut().intern(uri);
        self.analyzer.vocabulary_mut().intern(uri)
    }

    /// Add a user (§2.2: `u type S3:user`).
    pub fn add_user(&mut self) -> UserId {
        let id = UserId(self.num_users);
        self.num_users += 1;
        self.events.push(BuildEvent::User);
        id
    }

    /// Add a user identified by a URI, bridging them to the RDF layer: the
    /// triple `u type S3:user` is asserted, and at [`Self::build`] any
    /// `u' S3:social u''` triple between registered user URIs — asserted
    /// directly, or *derived* by saturation from a sub-property like the
    /// paper's `workedWith ≺sp S3:social`, possibly produced by a
    /// [`s3_rdf::Rule`] (§2.2 "Extensibility") — becomes a social edge.
    pub fn add_user_with_uri(&mut self, uri: &str) -> UserId {
        let id = self.add_user();
        self.rdf_dirty.set(true);
        let u = self.rdf.dictionary_mut().intern(uri);
        self.rdf.insert(u, s3_rdf::vocabulary::RDF_TYPE, s3_rdf::Term::Uri(voc_user()), 1.0);
        self.user_uris.insert(u, id);
        id
    }

    /// The user registered under an RDF URI, if any.
    pub fn user_by_uri(&self, uri: UriId) -> Option<UserId> {
        self.user_uris.get(&uri).copied()
    }

    /// Add a weighted social edge `from S3:social to` (§2.2). The higher
    /// the weight, the closer the users.
    pub fn add_social_edge(&mut self, from: UserId, to: UserId, weight: f64) {
        assert!(from.0 < self.num_users && to.0 < self.num_users, "unknown user");
        assert!(self.dead.user_alive(from) && self.dead.user_alive(to), "deleted user");
        assert!(weight > 0.0 && weight <= 1.0, "social weight must be in (0,1]");
        self.social_edges.push((from, to, weight));
    }

    /// Add a document tree (§2.3), optionally recording its poster
    /// (`d S3:postedBy u`).
    pub fn add_document(&mut self, doc: DocBuilder, poster: Option<UserId>) -> TreeId {
        let tree = self.forest.add_document(doc);
        self.events.push(BuildEvent::Tree);
        if let Some(u) = poster {
            assert!(u.0 < self.num_users, "unknown poster");
            assert!(self.dead.user_alive(u), "deleted poster");
            self.posters.push((tree, u));
        }
        tree
    }

    /// Resolve a builder-local node id to the global document node id.
    pub fn doc_node(&self, tree: TreeId, local: s3_doc::LocalNodeId) -> DocNodeId {
        self.forest.resolve(tree, local)
    }

    /// The root fragment of a document.
    pub fn doc_root(&self, tree: TreeId) -> DocNodeId {
        self.forest.root(tree)
    }

    /// Declare that document `comment` comments on fragment `target`
    /// (§2.4: `S3:commentsOn`; replies, reviews-of-the-same-item, etc. are
    /// specializations of it).
    pub fn add_comment_edge(&mut self, comment: TreeId, target: DocNodeId) {
        assert_ne!(self.forest.tree_of(target), comment, "a document cannot comment on itself");
        assert!(
            self.dead.tree_alive(comment) && self.dead.doc_alive(&self.forest, target),
            "deleted document"
        );
        self.comments.push((comment, target));
    }

    /// Add a tag (§2.4). `keyword = None` is an endorsement (like, +1,
    /// retweet). The subject may be a fragment or another tag (R4).
    pub fn add_tag(
        &mut self,
        subject: TagSubject,
        author: UserId,
        keyword: Option<KeywordId>,
    ) -> TagId {
        assert!(author.0 < self.num_users, "unknown author");
        assert!(self.dead.user_alive(author), "deleted author");
        match subject {
            TagSubject::Tag(t) => {
                assert!(t.index() < self.tags.len(), "tag subjects must already exist");
                assert!(self.dead.tag_alive(t), "deleted tag subject");
            }
            TagSubject::Frag(f) => {
                assert!(self.dead.doc_alive(&self.forest, f), "deleted tag subject");
            }
        }
        let id = TagId(self.tags.len() as u32);
        self.tags.push(PendingTag { subject, author, keyword });
        self.events.push(BuildEvent::Tag);
        id
    }

    /// Delete a user (tombstone: the id stays allocated, the node loses
    /// all edges). Cascades: the user's incident social edges, poster
    /// records and authored tags (recursively through tags-on-tags) are
    /// retracted too. Documents the user posted survive, merely losing
    /// their `S3:postedBy` edge. Unknown or already-deleted ids are
    /// idempotent no-ops (returns `false`) — the wire path relies on this
    /// when a replica receives a delete for an id it never saw.
    pub fn delete_user(&mut self, u: UserId) -> bool {
        let mut log = RetractionLog::default();
        self.retract_user(u, &mut log)
    }

    /// Delete a document tree (tombstone). Cascades: its poster record,
    /// every comment edge touching it (either side) and every tag on any
    /// of its fragments (recursively) are retracted. Returns `false` on
    /// unknown or already-deleted ids (idempotent no-op).
    pub fn delete_document(&mut self, tree: TreeId) -> bool {
        let mut log = RetractionLog::default();
        self.retract_document(tree, &mut log)
    }

    /// Delete a tag (tombstone). Cascades: tags whose subject is this tag
    /// die with it, recursively. Returns `false` on unknown or
    /// already-deleted ids (idempotent no-op).
    pub fn delete_tag(&mut self, t: TagId) -> bool {
        let mut log = RetractionLog::default();
        self.retract_tag(t, &mut log)
    }

    /// Remove every explicit social edge `from → to` (derived edges from
    /// RDF triples are not touched — retract the triple instead). Returns
    /// how many edges were removed (0 is an idempotent no-op).
    pub fn remove_social_edge(&mut self, from: UserId, to: UserId) -> usize {
        let before = self.social_edges.len();
        self.social_edges.retain(|&(a, b, _)| !(a == from && b == to));
        before - self.social_edges.len()
    }

    /// Remove every `comment S3:commentsOn target` edge. Returns how many
    /// were removed (0 is an idempotent no-op).
    pub fn remove_comment_edge(&mut self, comment: TreeId, target: DocNodeId) -> usize {
        let mut log = RetractionLog::default();
        self.retract_comment_edge(comment, target, &mut log);
        log.removed_comments.len()
    }

    /// Is this user deleted?
    pub fn user_is_deleted(&self, u: UserId) -> bool {
        !self.dead.user_alive(u)
    }

    /// Is this document deleted?
    pub fn document_is_deleted(&self, tree: TreeId) -> bool {
        !self.dead.tree_alive(tree)
    }

    /// Is this tag deleted?
    pub fn tag_is_deleted(&self, t: TagId) -> bool {
        !self.dead.tag_alive(t)
    }

    /// Tombstone counts `(users, documents, tags)`.
    pub fn dead_counts(&self) -> (usize, usize, usize) {
        (self.dead.users.len(), self.dead.trees.len(), self.dead.tags.len())
    }

    /// Rebuild a dense, tombstone-free builder by replaying the surviving
    /// events in their original interleaving. The compacted builder is
    /// exactly what a cold build of the surviving data produces — same
    /// event order, same (renumbered) ids, same graph — so its snapshot
    /// answers queries identically to one built from scratch without the
    /// deleted entities. The analyzer (keyword ids stay stable) and the
    /// RDF store are carried over unchanged.
    ///
    /// Surviving entities are **renumbered densely**: external holders of
    /// old `UserId`/`TreeId`/`TagId`/`DocNodeId` values must re-resolve
    /// after a compaction (the serving layer invalidates globally for
    /// this reason). Runs entirely off the serving path — `&self`.
    pub fn compact(&self) -> (InstanceBuilder, CompactionReport) {
        let mut out = InstanceBuilder::new(self.analyzer.language());
        out.analyzer =
            Analyzer::from_parts(self.analyzer.language(), self.analyzer.vocabulary().clone());
        out.rdf = self.rdf.clone();

        let mut user_map: Vec<Option<UserId>> = vec![None; self.num_users as usize];
        let mut tree_map: Vec<Option<TreeId>> = vec![None; self.forest.num_trees()];
        let mut tag_map: Vec<Option<TagId>> = vec![None; self.tags.len()];
        let (mut users, mut trees, mut tags) = (0u32, 0u32, 0u32);
        for &ev in &self.events {
            match ev {
                BuildEvent::User => {
                    let old = UserId(users);
                    users += 1;
                    if self.dead.user_alive(old) {
                        user_map[old.index()] = Some(out.add_user());
                    }
                }
                BuildEvent::Tree => {
                    let old = TreeId(trees);
                    trees += 1;
                    if self.dead.tree_alive(old) {
                        let new = out.forest.add_document(self.forest.extract(old));
                        out.events.push(BuildEvent::Tree);
                        tree_map[old.index()] = Some(new);
                    }
                }
                BuildEvent::Tag => {
                    let old = TagId(tags);
                    tags += 1;
                    if self.dead.tag_alive(old) {
                        let rec = &self.tags[old.index()];
                        // Cascades keep live tags closed over live
                        // subjects and authors, so the remaps are total.
                        let subject = match rec.subject {
                            TagSubject::Frag(f) => TagSubject::Frag(remap_frag(
                                &self.forest,
                                &out.forest,
                                &tree_map,
                                f,
                            )),
                            TagSubject::Tag(b) => {
                                TagSubject::Tag(tag_map[b.index()].expect("live tag on a dead tag"))
                            }
                        };
                        let author =
                            user_map[rec.author.index()].expect("live tag by a dead author");
                        tag_map[old.index()] = Some(TagId(out.tags.len() as u32));
                        out.tags.push(PendingTag { subject, author, keyword: rec.keyword });
                        out.events.push(BuildEvent::Tag);
                    }
                }
                BuildEvent::DeadUser(_) | BuildEvent::DeadTree(_) | BuildEvent::DeadTag(_) => {}
            }
        }

        // Relational state holds only live endpoints (retractions pruned
        // eagerly), so every remap below is total; list order — which
        // freeze() preserves into edge order — is kept.
        out.user_uris = self
            .user_uris
            .iter()
            .map(|(&uri, &u)| (uri, user_map[u.index()].expect("uri of a dead user")))
            .collect();
        out.social_edges = self
            .social_edges
            .iter()
            .map(|&(a, b, w)| {
                (
                    user_map[a.index()].expect("social edge from a dead user"),
                    user_map[b.index()].expect("social edge to a dead user"),
                    w,
                )
            })
            .collect();
        out.posters = self
            .posters
            .iter()
            .map(|&(t, u)| {
                (
                    tree_map[t.index()].expect("poster of a dead tree"),
                    user_map[u.index()].expect("dead poster"),
                )
            })
            .collect();
        out.comments = self
            .comments
            .iter()
            .map(|&(c, tgt)| {
                (
                    tree_map[c.index()].expect("comment from a dead tree"),
                    remap_frag(&self.forest, &out.forest, &tree_map, tgt),
                )
            })
            .collect();

        let report = CompactionReport {
            dropped_users: self.dead.users.len(),
            dropped_documents: self.dead.trees.len(),
            dropped_tags: self.dead.tags.len(),
            dropped_forest_nodes: self.forest.num_nodes() - out.forest.num_nodes(),
            events_before: self.events.len(),
            events_after: out.events.len(),
        };
        (out, report)
    }

    pub(crate) fn retract_user(&mut self, u: UserId, log: &mut RetractionLog) -> bool {
        if u.index() >= self.num_users as usize || !self.dead.users.insert(u) {
            return false;
        }
        self.events.push(BuildEvent::DeadUser(u));
        log.dead_users.push(u);
        self.user_uris.retain(|_, id| *id != u);
        let before = self.social_edges.len();
        self.social_edges.retain(|&(a, b, _)| a != u && b != u);
        log.removed_social += before - self.social_edges.len();
        self.posters.retain(|&(_, p)| p != u);
        // Cascade: tags the user authored die with them (deterministic
        // index-order scan; cascades may recurse through tags-on-tags).
        let authored: Vec<TagId> = self
            .tags
            .iter()
            .enumerate()
            .filter(|&(i, t)| t.author == u && self.dead.tag_alive(TagId(i as u32)))
            .map(|(i, _)| TagId(i as u32))
            .collect();
        for t in authored {
            self.retract_tag(t, log);
        }
        true
    }

    pub(crate) fn retract_document(&mut self, tree: TreeId, log: &mut RetractionLog) -> bool {
        if tree.index() >= self.forest.num_trees() || !self.dead.trees.insert(tree) {
            return false;
        }
        self.events.push(BuildEvent::DeadTree(tree));
        log.dead_trees.push(tree);
        self.posters.retain(|&(t, _)| t != tree);
        // Comment edges touching the tree on either side vanish; both
        // endpoints are logged so apply() can flag the split-off parts.
        let forest = &self.forest;
        let removed: Vec<(TreeId, DocNodeId)> = self
            .comments
            .iter()
            .copied()
            .filter(|&(c, tgt)| c == tree || forest.tree_of(tgt) == tree)
            .collect();
        self.comments.retain(|&(c, tgt)| c != tree && forest.tree_of(tgt) != tree);
        log.removed_comments.extend(removed);
        // Cascade: tags on any fragment of the tree die.
        let range = self.forest.tree_range(tree);
        let on_tree: Vec<TagId> = self
            .tags
            .iter()
            .enumerate()
            .filter(|&(i, t)| {
                self.dead.tag_alive(TagId(i as u32))
                    && matches!(t.subject, TagSubject::Frag(f) if range.contains(&f.index()))
            })
            .map(|(i, _)| TagId(i as u32))
            .collect();
        for t in on_tree {
            self.retract_tag(t, log);
        }
        true
    }

    pub(crate) fn retract_tag(&mut self, t: TagId, log: &mut RetractionLog) -> bool {
        if t.index() >= self.tags.len() || !self.dead.tag_alive(t) {
            return false;
        }
        // Worklist instead of recursion: tag-on-tag chains can be long.
        let mut stack = vec![t];
        while let Some(t) = stack.pop() {
            if !self.dead.tags.insert(t) {
                continue;
            }
            self.events.push(BuildEvent::DeadTag(t));
            log.dead_tags.push(t);
            for (i, tag) in self.tags.iter().enumerate() {
                let id = TagId(i as u32);
                if self.dead.tag_alive(id) && tag.subject == TagSubject::Tag(t) {
                    stack.push(id);
                }
            }
        }
        true
    }

    pub(crate) fn retract_comment_edge(
        &mut self,
        comment: TreeId,
        target: DocNodeId,
        log: &mut RetractionLog,
    ) {
        let removed: Vec<(TreeId, DocNodeId)> = self
            .comments
            .iter()
            .copied()
            .filter(|&(c, tgt)| c == comment && tgt == target)
            .collect();
        self.comments.retain(|&(c, tgt)| !(c == comment && tgt == target));
        log.removed_comments.extend(removed);
    }

    /// Current number of users.
    pub fn num_users(&self) -> usize {
        self.num_users as usize
    }

    /// [`Self::build`], plus a balanced assignment of the frozen instance's
    /// content components to `num_shards` shards — the partition-aware
    /// build path behind sharded serving (`s3-engine`'s `ShardedEngine`).
    pub fn build_sharded(
        self,
        num_shards: usize,
    ) -> (S3Instance, crate::partition::ComponentPartition) {
        let instance = self.build();
        let partition = crate::partition::ComponentPartition::balanced(&instance, num_shards);
        (instance, partition)
    }

    /// Freeze the instance: saturate the RDF graph, build the network graph
    /// (with inverse edges, normalization weights and components), run the
    /// `con(d,k)` fixpoint, and bridge keywords to RDF URIs.
    pub fn build(self) -> S3Instance {
        let InstanceBuilder {
            analyzer,
            mut rdf,
            forest,
            num_users: _,
            user_uris,
            social_edges,
            posters,
            comments,
            tags,
            events,
            dead,
            rdf_dirty: _,
        } = self;
        rdf.saturate();
        let language = analyzer.language();
        let vocabulary = analyzer.into_vocabulary();
        freeze(
            language,
            vocabulary,
            rdf,
            forest,
            user_uris,
            social_edges,
            posters,
            comments,
            tags,
            events,
            dead,
        )
    }

    /// [`Self::build`] without consuming the builder: freezes a snapshot of
    /// the current data (cloning it) and leaves the builder free to keep
    /// growing. This is the cold-rebuild reference the live-ingestion
    /// property tests compare against, and the initial snapshot of a live
    /// engine.
    pub fn snapshot(&self) -> S3Instance {
        self.rdf_dirty.set(false);
        let mut rdf = self.rdf.clone();
        rdf.saturate();
        freeze(
            self.analyzer.language(),
            self.analyzer.vocabulary().clone(),
            rdf,
            self.forest.clone(),
            self.user_uris.clone(),
            self.social_edges.clone(),
            self.posters.clone(),
            self.comments.clone(),
            self.tags.clone(),
            self.events.clone(),
            self.dead.clone(),
        )
    }
}

/// §2.2 extensibility: `S3:social` triples between registered user URIs
/// (direct, or derived through `≺sp` by saturation) materialize as social
/// edges, deduplicated against the explicit ones (which win) and each
/// other. Deterministic in the store's triple order, so an incremental
/// rebuild derives the same list a cold build would.
pub(crate) fn derived_social_edges(
    rdf: &TripleStore,
    user_uris: &HashMap<UriId, UserId>,
    explicit: &[(UserId, UserId, f64)],
) -> Vec<(UserId, UserId, f64)> {
    if user_uris.is_empty() {
        return Vec::new();
    }
    let mut seen: HashSet<(UserId, UserId)> = explicit.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut out = Vec::new();
    for t in rdf.with_property(s3_rdf::vocabulary::S3_SOCIAL) {
        let (Some(&a), Some(b)) = (
            user_uris.get(&t.triple.s),
            t.triple.o.as_uri().and_then(|o| user_uris.get(&o)).copied(),
        ) else {
            continue;
        };
        if a != b && t.weight > 0.0 && seen.insert((a, b)) {
            out.push((a, b, t.weight.min(1.0)));
        }
    }
    out
}

/// The frozen network graph plus the node tables derived while wiring it.
pub(crate) struct GraphParts {
    pub(crate) graph: SocialGraph,
    pub(crate) user_nodes: Vec<NodeId>,
    pub(crate) tag_nodes: Vec<NodeId>,
    pub(crate) poster_of: HashMap<TreeId, UserId>,
    pub(crate) comment_pairs: Vec<(DocNodeId, DocNodeId)>,
}

/// Build the network graph by replaying the entity-creation event log
/// (nodes are numbered in insertion order — each tree's fragments stay
/// contiguous in pre-order) and then adding edges grouped by kind in
/// raw-list order. Replaying base events plus delta events yields the same
/// node numbering and edge order a cold build of the final data produces —
/// the determinism the live engine's byte-identity rests on.
/// `prev_comps` selects stable component ids (the incremental path).
///
/// Dead entities still allocate their nodes (ids are permanent) but
/// contribute no edges: social edges, poster records and comment edges of
/// dead entities were physically removed at retraction time, and dead
/// tags' `HasSubject`/`HasAuthor` edges are skipped here.
#[allow(clippy::too_many_arguments)] // one positional slice per builder side table
pub(crate) fn build_graph(
    events: &[BuildEvent],
    forest: Forest,
    social_edges: &[(UserId, UserId, f64)],
    posters: &[(TreeId, UserId)],
    comments: &[(TreeId, DocNodeId)],
    tags: &[PendingTag],
    dead_tags: &HashSet<TagId>,
    prev_comps: Option<&s3_graph::Components>,
) -> GraphParts {
    let mut gb = GraphBuilder::new(forest);
    let mut user_nodes: Vec<NodeId> = Vec::new();
    let mut tag_nodes: Vec<NodeId> = Vec::new();
    let mut next_tree = 0u32;
    for ev in events {
        match ev {
            BuildEvent::User => user_nodes.push(gb.add_user()),
            BuildEvent::Tree => {
                gb.register_tree(TreeId(next_tree));
                next_tree += 1;
            }
            BuildEvent::Tag => tag_nodes.push(gb.add_tag()),
            BuildEvent::DeadUser(_) | BuildEvent::DeadTree(_) | BuildEvent::DeadTag(_) => {}
        }
    }

    for &(from, to, w) in social_edges {
        gb.add_edge(user_nodes[from.index()], user_nodes[to.index()], EdgeKind::Social, w);
    }
    let mut poster_of: HashMap<TreeId, UserId> = HashMap::new();
    for &(tree, u) in posters {
        let root = gb.forest().root(tree);
        let root_node = gb.node_of_frag(root).expect("registered");
        gb.add_edge(root_node, user_nodes[u.index()], EdgeKind::PostedBy, 1.0);
        poster_of.insert(tree, u);
    }
    let mut comment_pairs: Vec<(DocNodeId, DocNodeId)> = Vec::new();
    for &(tree, target) in comments {
        let root = gb.forest().root(tree);
        let root_node = gb.node_of_frag(root).expect("registered");
        let target_node = gb.node_of_frag(target).expect("registered");
        gb.add_edge(root_node, target_node, EdgeKind::CommentsOn, 1.0);
        comment_pairs.push((root, target));
    }
    for (i, t) in tags.iter().enumerate() {
        if dead_tags.contains(&TagId(i as u32)) {
            continue;
        }
        let tag_node = tag_nodes[i];
        let subject_node = match t.subject {
            TagSubject::Frag(f) => gb.node_of_frag(f).expect("registered"),
            TagSubject::Tag(b) => tag_nodes[b.index()],
        };
        gb.add_edge(tag_node, subject_node, EdgeKind::HasSubject, 1.0);
        gb.add_edge(tag_node, user_nodes[t.author.index()], EdgeKind::HasAuthor, 1.0);
    }
    let graph = match prev_comps {
        Some(prev) => gb.build_extending(prev),
        None => gb.build(),
    };
    GraphParts { graph, user_nodes, tag_nodes, poster_of, comment_pairs }
}

/// The `con`-index inputs of the stored tags.
pub(crate) fn tag_inputs(tags: &[PendingTag], user_nodes: &[NodeId]) -> Vec<TagInput> {
    tags.iter()
        .map(|t| TagInput {
            subject: t.subject,
            author_node: user_nodes[t.author.index()],
            keyword: t.keyword,
        })
        .collect()
}

/// The keyword ↔ URI bridge for vocabulary entries `from_kw..` (entity
/// mentions are interned in both the vocabulary and the RDF dictionary).
pub(crate) fn keyword_bridges(
    vocabulary: &Vocabulary,
    rdf: &TripleStore,
    from_kw: usize,
    kw_to_uri: &mut HashMap<KeywordId, UriId>,
    uri_to_kw: &mut HashMap<UriId, KeywordId>,
) {
    for idx in from_kw..vocabulary.len() {
        let kw = KeywordId(idx as u32);
        if let Some(uri) = rdf.dictionary().get(vocabulary.text(kw)) {
            kw_to_uri.insert(kw, uri);
            uri_to_kw.insert(uri, kw);
        }
    }
}

/// The frozen tags as [`TagRecord`]s.
pub(crate) fn tag_records(tags: &[PendingTag], tag_nodes: &[NodeId]) -> Vec<TagRecord> {
    tags.iter()
        .enumerate()
        .map(|(i, t)| TagRecord {
            node: tag_nodes[i],
            subject: t.subject,
            author: t.author,
            keyword: t.keyword,
        })
        .collect()
}

/// The full cold freeze shared by [`InstanceBuilder::build`] and
/// [`InstanceBuilder::snapshot`]: derive rdf-asserted social edges, replay
/// the graph, run the `con` fixpoint over everything alive, bridge
/// keywords. `rdf` must already be saturated. Dead entities keep their
/// node ids but seed nothing — a cold freeze of a tombstoned builder is
/// the byte-identity reference for the live mutation path.
#[allow(clippy::too_many_arguments)] // one caller-pair, builder-shaped data
fn freeze(
    language: Language,
    vocabulary: Vocabulary,
    rdf: TripleStore,
    forest: Forest,
    user_uris: HashMap<UriId, UserId>,
    mut social_edges: Vec<(UserId, UserId, f64)>,
    posters: Vec<(TreeId, UserId)>,
    comments: Vec<(TreeId, DocNodeId)>,
    tags: Vec<PendingTag>,
    events: Vec<BuildEvent>,
    dead: Tombstones,
) -> S3Instance {
    social_edges.extend(derived_social_edges(&rdf, &user_uris, &social_edges));
    let GraphParts { graph, user_nodes, tag_nodes, poster_of, comment_pairs } =
        build_graph(&events, forest, &social_edges, &posters, &comments, &tags, &dead.tags, None);

    // Connection index (seeker-independent); dead documents and tags are
    // excluded from the fixpoint, so their entries stay empty.
    let inputs = tag_inputs(&tags, &user_nodes);
    let (conn_index, _) = ConnectionIndex::build_scoped(
        graph.forest(),
        &inputs,
        &comment_pairs,
        |d| graph.node_of_frag(d).expect("registered"),
        &Scope::all(graph.forest(), inputs.len(), &dead),
    );

    // Keyword ↔ URI bridge (entity mentions are interned in both).
    let mut kw_to_uri: HashMap<KeywordId, UriId> = HashMap::new();
    let mut uri_to_kw: HashMap<UriId, KeywordId> = HashMap::new();
    keyword_bridges(&vocabulary, &rdf, 0, &mut kw_to_uri, &mut uri_to_kw);

    // Component → keyword sets (the §5.2 pruning test "each keyword is
    // present in every component").
    let comp_keywords = ComponentKeywords::collect(graph.components().iter(), |c, out| {
        connected_keywords(&graph, &conn_index, c, out);
    });

    let tag_records = tag_records(&tags, &tag_nodes);
    let dead_nodes = dead.mark_nodes(&graph, &user_nodes, &tag_nodes);

    S3Instance {
        language,
        vocabulary,
        rdf: Arc::new(rdf),
        graph,
        user_nodes,
        tag_records,
        poster_of,
        comment_pairs,
        conn_index,
        comp_keywords,
        kw_to_uri,
        uri_to_kw,
        dead_nodes,
        ext_cache: Mutex::new(HashMap::new()),
        smax_cache: Mutex::new(HashMap::new()),
    }
}

fn voc_user() -> UriId {
    s3_rdf::vocabulary::S3_USER
}

/// Cached `Smax` tables keyed by the score's `(γ, η)` bit patterns.
type SmaxCache = Mutex<HashMap<(u64, u64), Arc<HashMap<KeywordId, f64>>>>;

/// The §5.2 pruning sets as one flat CSR: the keywords a component is
/// connected to, sorted and distinct, are
/// `keywords[offsets[c]..offsets[c + 1]]`. A few bytes per keyword, where
/// a hash set per component cost a table and a 48-byte header each.
#[derive(Debug, Clone)]
pub(crate) struct ComponentKeywords {
    offsets: Vec<u32>,
    keywords: Vec<KeywordId>,
}

impl ComponentKeywords {
    /// One run per component of `comps`, in order: `fill` appends the
    /// component's keywords (in any order, repeats allowed), and the run
    /// is stored sorted and distinct.
    pub(crate) fn collect(
        comps: impl Iterator<Item = CompId>,
        mut fill: impl FnMut(CompId, &mut Vec<KeywordId>),
    ) -> Self {
        let (mut offsets, mut keywords, mut run) = (vec![0], Vec::new(), Vec::new());
        for c in comps {
            run.clear();
            fill(c, &mut run);
            run.sort_unstable();
            run.dedup();
            keywords.extend_from_slice(&run);
            offsets.push(keywords.len() as u32);
        }
        keywords.shrink_to_fit();
        ComponentKeywords { offsets, keywords }
    }

    /// The sorted keywords of component `c`.
    pub(crate) fn get(&self, c: CompId) -> &[KeywordId] {
        &self.keywords[self.offsets[c.index()] as usize..self.offsets[c.index() + 1] as usize]
    }
}

/// Append the keywords every document fragment of component `c` is
/// connected to (with repeats).
pub(crate) fn connected_keywords(
    graph: &SocialGraph,
    conn_index: &ConnectionIndex,
    c: CompId,
    out: &mut Vec<KeywordId>,
) {
    for &node in graph.components().members(c) {
        if let Some(d) = graph.frag_of_node(node) {
            out.extend(conn_index.keywords_of(d));
        }
    }
}

/// A frozen tag.
#[derive(Debug, Clone, Copy)]
pub struct TagRecord {
    /// The tag's graph node.
    pub node: NodeId,
    /// What it annotates.
    pub subject: TagSubject,
    /// Its author.
    pub author: UserId,
    /// Its keyword (`None` = endorsement).
    pub keyword: Option<KeywordId>,
}

/// Frozen, query-ready S3 instance.
#[derive(Debug)]
pub struct S3Instance {
    pub(crate) language: Language,
    pub(crate) vocabulary: Vocabulary,
    /// Saturated; `Arc`-shared so an incremental snapshot whose batch
    /// carries no schema change reuses the store instead of cloning it.
    pub(crate) rdf: Arc<TripleStore>,
    pub(crate) graph: SocialGraph,
    pub(crate) user_nodes: Vec<NodeId>,
    pub(crate) tag_records: Vec<TagRecord>,
    pub(crate) poster_of: HashMap<TreeId, UserId>,
    pub(crate) comment_pairs: Vec<(DocNodeId, DocNodeId)>,
    pub(crate) conn_index: ConnectionIndex,
    pub(crate) comp_keywords: ComponentKeywords,
    pub(crate) kw_to_uri: HashMap<KeywordId, UriId>,
    pub(crate) uri_to_kw: HashMap<UriId, KeywordId>,
    /// Tombstoned graph nodes (dead users/fragments/tags). Dead nodes have
    /// no edges and no `con` entries, so discovery, admission and emission
    /// skip them structurally; this set makes the invariant checkable.
    pub(crate) dead_nodes: s3_graph::BitSet,
    pub(crate) ext_cache: Mutex<HashMap<KeywordId, Arc<Vec<KeywordId>>>>,
    pub(crate) smax_cache: SmaxCache,
}

impl S3Instance {
    /// The corpus vocabulary (keyword texts and frequencies).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The saturated RDF store.
    pub fn rdf(&self) -> &TripleStore {
        &self.rdf
    }

    /// The network graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// The document forest.
    pub fn forest(&self) -> &Forest {
        self.graph.forest()
    }

    /// The `con(d,k)` index.
    pub fn connections(&self) -> &ConnectionIndex {
        &self.conn_index
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.user_nodes.len()
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.tag_records.len()
    }

    /// Number of documents (trees).
    pub fn num_documents(&self) -> usize {
        self.forest().num_trees()
    }

    /// The graph node of a user.
    pub fn user_node(&self, u: UserId) -> NodeId {
        self.user_nodes[u.index()]
    }

    /// The frozen tags.
    pub fn tags(&self) -> &[TagRecord] {
        &self.tag_records
    }

    /// The poster of a document, if recorded.
    pub fn poster_of(&self, tree: TreeId) -> Option<UserId> {
        self.poster_of.get(&tree).copied()
    }

    /// The `(comment root, commented fragment)` pairs.
    pub fn comment_pairs(&self) -> &[(DocNodeId, DocNodeId)] {
        &self.comment_pairs
    }

    /// Keywords a component is connected to (the §5.2 pruning sets),
    /// sorted ascending and distinct.
    pub fn component_keywords(&self, comp: CompId) -> &[KeywordId] {
        self.comp_keywords.get(comp)
    }

    /// `Ext(k)` at the keyword level (Definition 2.1): the keyword itself
    /// plus every specialization/instance from the saturated RDF graph that
    /// also exists as a corpus keyword. Cached.
    pub fn expand_keyword(&self, k: KeywordId) -> Arc<Vec<KeywordId>> {
        if let Some(hit) = self.ext_cache.lock().expect("ext cache poisoned").get(&k) {
            return Arc::clone(hit);
        }
        let mut out = vec![k];
        if let Some(&uri) = self.kw_to_uri.get(&k) {
            for b in self.rdf.extension(uri) {
                if b == uri {
                    continue;
                }
                if let Some(&kw) = self.uri_to_kw.get(&b) {
                    if !out.contains(&kw) {
                        out.push(kw);
                    }
                }
            }
        }
        let arc = Arc::new(out);
        self.ext_cache.lock().expect("ext cache poisoned").insert(k, Arc::clone(&arc));
        arc
    }

    /// The `Smax` table for a concrete S3k score, cached per `(γ, η)`.
    /// `S3Instance::search` builds a fresh engine per call; without this
    /// cache, every such call re-ran the full `Smax` aggregation over the
    /// connection index.
    pub fn smax_for(&self, score: &crate::score::S3kScore) -> Arc<HashMap<KeywordId, f64>> {
        use crate::score::ScoreModel;
        let key = (score.gamma.to_bits(), score.eta.to_bits());
        if let Some(hit) = self.smax_cache.lock().expect("smax cache poisoned").get(&key) {
            return Arc::clone(hit);
        }
        let table = Arc::new(self.conn_index.smax_table_with(|t, d| score.structural_weight(t, d)));
        self.smax_cache.lock().expect("smax cache poisoned").insert(key, Arc::clone(&table));
        table
    }

    /// Is a graph node tombstoned (a deleted user, fragment of a deleted
    /// document, or deleted tag)? Dead nodes keep their ids but have no
    /// edges and no connections — they can never appear in results.
    pub fn node_is_dead(&self, n: NodeId) -> bool {
        self.dead_nodes.get(n.index())
    }

    /// Number of tombstoned graph nodes.
    pub fn num_dead_nodes(&self) -> usize {
        self.dead_nodes.count_ones()
    }

    /// Fraction of graph nodes that are tombstoned — the signal compaction
    /// trigger policies watch (`s3-engine`'s `CompactionPolicy`).
    pub fn dead_fraction(&self) -> f64 {
        if self.graph.num_nodes() == 0 {
            0.0
        } else {
            self.num_dead_nodes() as f64 / self.graph.num_nodes() as f64
        }
    }

    /// The corpus language.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Convenience: analyze a query string into keywords of this instance's
    /// vocabulary (unknown words yield no keyword — they cannot match).
    pub fn query_keywords(&self, text: &str) -> Vec<KeywordId> {
        // Re-tokenize with a throwaway analyzer sharing no state, then map
        // through the frozen vocabulary.
        let mut scratch = Analyzer::new(self.language);
        let mut out = Vec::new();
        for kw in scratch.analyze_query(text) {
            let t = scratch.vocabulary().text(kw).to_string();
            if let Some(id) = self.vocabulary.get(&t) {
                out.push(id);
            }
        }
        out
    }

    /// Run an S3k search (see [`crate::search`]).
    pub fn search(
        &self,
        query: &crate::search::Query,
        config: &crate::search::SearchConfig,
    ) -> crate::search::TopKResult {
        crate::search::S3kEngine::new(self, config.clone()).run(query)
    }

    /// Instance statistics in the spirit of the paper's Figure 4.
    pub fn stats(&self) -> InstanceStats {
        let forest = self.forest();
        InstanceStats {
            users: self.num_users(),
            social_edges: self
                .graph
                .nodes()
                .filter(|n| self.graph.kind(*n).is_user())
                .map(|n| self.graph.out_edges(n).filter(|(_, k, _)| *k == EdgeKind::Social).count())
                .sum(),
            documents: forest.num_trees(),
            fragments_non_root: forest.num_nodes() - forest.num_trees(),
            tags: self.num_tags(),
            keywords: forest.total_keywords(),
            distinct_keywords: self.vocabulary.len(),
            nodes: self.graph.num_nodes(),
            edges: self.graph.num_edges(),
            connections: self.conn_index.len(),
            dead_nodes: self.num_dead_nodes(),
        }
    }
}

/// Counters mirroring the paper's Figure 4 statistics tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceStats {
    /// Number of users.
    pub users: usize,
    /// Number of directed `S3:social` edges.
    pub social_edges: usize,
    /// Number of documents (trees).
    pub documents: usize,
    /// Non-root fragments.
    pub fragments_non_root: usize,
    /// Number of tags.
    pub tags: usize,
    /// Total keyword occurrences in document content.
    pub keywords: usize,
    /// Distinct keywords in the vocabulary.
    pub distinct_keywords: usize,
    /// Graph nodes (users + fragments + tags).
    pub nodes: usize,
    /// Directed network edges (inverses included).
    pub edges: usize,
    /// `con` tuples in the index.
    pub connections: usize,
    /// Tombstoned graph nodes (kept allocated; reclaimed derived-state-wise
    /// by compaction).
    pub dead_nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> S3Instance {
        let mut b = InstanceBuilder::new(Language::English);
        let u0 = b.add_user();
        let u1 = b.add_user();
        b.add_social_edge(u1, u0, 1.0);
        let kws = b.analyze("university degrees are great");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        let t = b.add_document(doc, Some(u0));
        let root = b.doc_root(t);
        let kw = b.analyzer_mut().vocabulary_mut().intern("univers");
        b.add_tag(TagSubject::Frag(root), u1, Some(kw));
        b.build()
    }

    #[test]
    fn build_wires_everything() {
        let inst = tiny();
        assert_eq!(inst.num_users(), 2);
        assert_eq!(inst.num_documents(), 1);
        assert_eq!(inst.num_tags(), 1);
        let stats = inst.stats();
        assert_eq!(stats.users, 2);
        assert_eq!(stats.social_edges, 1);
        assert!(stats.edges >= 1 + 2 + 4); // social + postedBy± + tag edges±
        assert!(stats.connections > 0);
    }

    #[test]
    fn component_keywords_cover_doc_keywords() {
        let inst = tiny();
        let root = inst.forest().root(s3_doc::TreeId(0));
        let node = inst.graph().node_of_frag(root).unwrap();
        let comp = inst.graph().components().component_of(node);
        let kws = inst.component_keywords(comp);
        let univers = inst.vocabulary().get("univers").unwrap();
        assert!(kws.contains(&univers));
    }

    #[test]
    fn expand_keyword_without_ontology_is_identity() {
        let inst = tiny();
        let k = inst.vocabulary().get("great").unwrap();
        assert_eq!(inst.expand_keyword(k).as_slice(), &[k]);
    }

    #[test]
    fn expand_keyword_with_ontology() {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        // Content mentions the entity URI "ex:MS" and the word "degree".
        let ms = b.intern_entity_keyword("ex:MS");
        let degree = b.intern_entity_keyword("ex:Degree");
        let (ms_uri, deg_uri) = {
            let d = b.rdf_mut().dictionary_mut();
            (d.intern("ex:MS"), d.intern("ex:Degree"))
        };
        b.rdf_mut().insert(
            ms_uri,
            s3_rdf::vocabulary::RDFS_SUBCLASS_OF,
            s3_rdf::Term::Uri(deg_uri),
            1.0,
        );
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), vec![ms]);
        b.add_document(doc, Some(u));
        let inst = b.build();
        let ext = inst.expand_keyword(degree);
        assert!(ext.contains(&ms), "Ext(degree) must contain the M.S. specialization");
        assert_eq!(ext[0], degree);
    }

    #[test]
    fn rdf_social_triples_become_edges() {
        // §2.2 extensibility: a workedWith ≺sp S3:social triple between
        // URI-registered users materializes as a graph edge at build.
        let mut b = InstanceBuilder::new(Language::English);
        let ana = b.add_user_with_uri("ex:ana");
        let bob = b.add_user_with_uri("ex:bob");
        {
            let rdf = b.rdf_mut();
            let ww = rdf.dictionary_mut().intern("ex:workedWith");
            rdf.insert(
                ww,
                s3_rdf::vocabulary::RDFS_SUBPROPERTY_OF,
                s3_rdf::Term::Uri(s3_rdf::vocabulary::S3_SOCIAL),
                1.0,
            );
            let (a, b_) =
                (rdf.dictionary().get("ex:ana").unwrap(), rdf.dictionary().get("ex:bob").unwrap());
            rdf.insert(a, ww, s3_rdf::Term::Uri(b_), 1.0);
        }
        let inst = b.build();
        let ana_node = inst.user_node(ana);
        let bob_node = inst.user_node(bob);
        let found = inst
            .graph()
            .out_edges(ana_node)
            .any(|(t, k, w)| t == bob_node && k == EdgeKind::Social && w == 1.0);
        assert!(found, "derived social edge missing");
    }

    #[test]
    fn explicit_edges_take_precedence_over_rdf_duplicates() {
        let mut b = InstanceBuilder::new(Language::English);
        let ana = b.add_user_with_uri("ex:ana");
        let bob = b.add_user_with_uri("ex:bob");
        b.add_social_edge(ana, bob, 0.4);
        {
            let rdf = b.rdf_mut();
            let (a, b_) =
                (rdf.dictionary().get("ex:ana").unwrap(), rdf.dictionary().get("ex:bob").unwrap());
            rdf.insert(a, s3_rdf::vocabulary::S3_SOCIAL, s3_rdf::Term::Uri(b_), 0.9);
        }
        let inst = b.build();
        let ana_node = inst.user_node(ana);
        let social: Vec<f64> = inst
            .graph()
            .out_edges(ana_node)
            .filter(|(_, k, _)| *k == EdgeKind::Social)
            .map(|(_, _, w)| w)
            .collect();
        assert_eq!(social, vec![0.4], "the explicit edge wins; no duplicate");
    }

    #[test]
    fn build_sharded_partitions_all_documents() {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        for i in 0..6 {
            let kws = b.analyze(&format!("post number {i}"));
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(u));
        }
        let (inst, partition) = b.build_sharded(3);
        assert_eq!(partition.num_shards(), 3);
        assert_eq!(partition.num_components(), inst.graph().components().len());
        let total: usize = (0..3).map(|s| partition.doc_count(s)).sum();
        assert_eq!(total, inst.num_documents());
    }

    #[test]
    fn query_keywords_map_through_frozen_vocabulary() {
        let inst = tiny();
        let kws = inst.query_keywords("universities");
        assert_eq!(kws.len(), 1);
        assert_eq!(inst.vocabulary().text(kws[0]), "univers");
        assert!(inst.query_keywords("nonexistentword").is_empty());
    }

    use crate::search::{Query, SearchConfig};

    fn mutation_base() -> (InstanceBuilder, UserId, UserId) {
        let mut b = InstanceBuilder::new(Language::English);
        let author = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, author, 1.0);
        for text in ["rust degrees", "java degrees", "python degrees"] {
            let kws = b.analyze(text);
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(author));
        }
        (b, author, seeker)
    }

    #[test]
    fn deleted_document_disappears_from_results() {
        let (mut b, _, seeker) = mutation_base();
        assert!(b.delete_document(s3_doc::TreeId(1)));
        assert!(!b.delete_document(s3_doc::TreeId(1)), "second delete is an idempotent no-op");
        assert!(b.document_is_deleted(s3_doc::TreeId(1)));
        let inst = b.snapshot();
        assert!(inst.stats().dead_nodes >= 1);
        let kws = inst.query_keywords("degrees");
        let res = inst.search(&Query::new(seeker, kws, 10), &SearchConfig::default());
        assert_eq!(res.hits.len(), 2);
        for h in &res.hits {
            assert_ne!(inst.forest().tree_of(h.doc), s3_doc::TreeId(1));
        }
    }

    #[test]
    fn deleted_user_loses_edges_but_documents_survive() {
        let (mut b, author, seeker) = mutation_base();
        let root = b.doc_root(s3_doc::TreeId(0));
        let kw = b.analyzer_mut().vocabulary_mut().intern("tagword");
        b.add_tag(TagSubject::Frag(root), author, Some(kw));
        assert!(b.delete_user(author));
        let inst = b.snapshot();
        // Documents survive; the social edge, poster records and the
        // author's tag are gone, so the seeker can no longer reach them.
        assert_eq!(inst.num_documents(), 3);
        assert_eq!(inst.stats().social_edges, 0);
        let kws = inst.query_keywords("degrees");
        let res = inst.search(&Query::new(seeker, kws, 10), &SearchConfig::default());
        assert!(res.hits.is_empty(), "no social path to the orphaned documents");
    }

    #[test]
    fn tag_cascade_follows_tags_on_tags() {
        let (mut b, author, seeker) = mutation_base();
        let root = b.doc_root(s3_doc::TreeId(0));
        let kw = b.analyzer_mut().vocabulary_mut().intern("tagword");
        let t0 = b.add_tag(TagSubject::Frag(root), author, Some(kw));
        let t1 = b.add_tag(TagSubject::Tag(t0), seeker, None);
        assert!(b.delete_tag(t0));
        assert!(b.tag_is_deleted(t1), "the endorsement dies with its subject");
        assert_eq!(b.dead_counts(), (0, 0, 2));
    }

    /// Compaction renumbers every node and rebuilds the graph whole, so
    /// the reverse CSR a gathered propagation step reads must come out
    /// as the forward edges transposed, each target's in-edges in
    /// emission order: trees by `TreeId` (their nodes ascending), then
    /// users and tags by node id, a source's parallel edges in CSR order.
    #[test]
    fn compacted_graph_reverse_csr_is_the_transpose() {
        let (mut b, _author, seeker) = mutation_base();
        let root2 = b.doc_root(s3_doc::TreeId(2));
        let kw = b.analyzer_mut().vocabulary_mut().intern("tagword");
        b.add_tag(TagSubject::Frag(root2), seeker, Some(kw));
        let late = b.add_user();
        b.add_social_edge(late, seeker, 0.5);
        let mut comment = DocBuilder::new("comment");
        let sec = comment.child(comment.root(), "sec");
        let ckws = b.analyze("great degrees");
        comment.set_content(sec, ckws);
        let c = b.add_document(comment, Some(late));
        b.add_comment_edge(c, root2);
        b.delete_document(s3_doc::TreeId(0));
        let (compacted, report) = b.compact();
        assert_eq!(report.dropped_documents, 1);
        let inst = compacted.snapshot();
        let g = inst.graph();

        let trees = g.forest().trees().filter_map(|t| g.tree_node_range(t));
        let singles = g.nodes().filter(|&v| !g.kind(v).is_frag()).map(NodeId::index);
        let mut expected = vec![Vec::new(); g.num_nodes()];
        for src in trees.flatten().chain(singles) {
            for (t, _, w) in g.out_edges(NodeId(src as u32)) {
                expected[t.index()].push((NodeId(src as u32), w.to_bits()));
            }
        }
        for t in g.nodes() {
            let (sources, weights) = g.in_edge_slices(t);
            let got: Vec<_> = sources.iter().zip(weights).map(|(&s, w)| (s, w.to_bits())).collect();
            assert_eq!(got, expected[t.index()], "in-edges of {t:?}");
        }
        assert_eq!(expected.iter().map(Vec::len).sum::<usize>(), g.num_edges());
    }

    #[test]
    fn compact_equals_cold_build_of_survivors() {
        let (mut b, _author, seeker) = mutation_base();
        let root1 = b.doc_root(s3_doc::TreeId(1));
        let kw = b.analyzer_mut().vocabulary_mut().intern("tagword");
        b.add_tag(TagSubject::Frag(root1), seeker, Some(kw));
        let mut comment = DocBuilder::new("comment");
        let ckws = b.analyze("great degrees");
        comment.set_content(comment.root(), ckws);
        let c = b.add_document(comment, Some(seeker));
        b.add_comment_edge(c, root1);
        b.delete_document(s3_doc::TreeId(0));

        let (compacted, report) = b.compact();
        assert_eq!(report.dropped_documents, 1);
        assert_eq!(report.events_after, report.events_before - 2);
        let ci = compacted.snapshot();
        assert_eq!(ci.stats().dead_nodes, 0, "compaction reclaims every tombstone");

        // Cold reference: only the surviving entities, original order.
        let mut cold = InstanceBuilder::new(Language::English);
        let author2 = cold.add_user();
        let seeker2 = cold.add_user();
        cold.add_social_edge(seeker2, author2, 1.0);
        for text in ["java degrees", "python degrees"] {
            let kws = cold.analyze(text);
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            cold.add_document(doc, Some(author2));
        }
        let root1c = cold.doc_root(s3_doc::TreeId(0));
        let kwc = cold.analyzer_mut().vocabulary_mut().intern("tagword");
        cold.add_tag(TagSubject::Frag(root1c), seeker2, Some(kwc));
        let mut comment = DocBuilder::new("comment");
        let ckws = cold.analyze("great degrees");
        comment.set_content(comment.root(), ckws);
        let cc = cold.add_document(comment, Some(seeker2));
        cold.add_comment_edge(cc, root1c);
        let coldi = cold.build();

        // Vocabulary sizes differ (the compacted side never forgets a
        // word), but every structural and derived count must agree…
        let (a, b_) = (ci.stats(), coldi.stats());
        assert_eq!(
            (a.users, a.social_edges, a.documents, a.fragments_non_root, a.tags),
            (b_.users, b_.social_edges, b_.documents, b_.fragments_non_root, b_.tags),
        );
        assert_eq!((a.nodes, a.edges, a.connections), (b_.nodes, b_.edges, b_.connections));
        // …and so must search results, byte for byte (ids renumber
        // identically because the replay order is identical).
        let q = Query::new(seeker, ci.query_keywords("degrees"), 10);
        let qc = Query::new(seeker2, coldi.query_keywords("degrees"), 10);
        let (ra, rb) =
            (ci.search(&q, &SearchConfig::default()), coldi.search(&qc, &SearchConfig::default()));
        assert_eq!(ra.hits, rb.hits);
        assert_eq!(ra.candidate_docs, rb.candidate_docs);
        assert_eq!(ra.stats.stop, rb.stats.stop);
    }
}
