//! Live ingestion: extending a frozen [`S3Instance`] with new data without
//! a stop-the-world rebuild.
//!
//! [`InstanceBuilder::build`] freezes an instance once; the ROADMAP's
//! north-star is a server ingesting documents, tags, social edges and users
//! *while serving*. This module provides the instance-level half of that
//! story (the serving half — snapshot swap, epoch-scoped cache
//! invalidation — lives in `s3-engine`):
//!
//! * [`IngestBatch`] collects a batch of additions, referencing existing
//!   entities by id and batch-local ones positionally ([`UserRef`],
//!   [`DocRef`], [`FragRef`], [`TagRef`]);
//! * [`InstanceBuilder::apply`] appends the batch to the retained builder
//!   and produces a **new** [`S3Instance`] by *extending* the previous
//!   snapshot: the forest and vocabulary grow in place (cloned, appended),
//!   the network graph is replayed with stable node numbering and
//!   stable component ids ([`s3_graph::Components::build_extending`]), the
//!   saturated RDF store is `Arc`-shared, and the expensive `con(d,k)`
//!   fixpoint reruns **only inside the touched components** — untouched
//!   documents keep their connection entries verbatim.
//!
//! The correctness bar, property-tested in `crates/engine/tests/ingest.rs`:
//! after any sequence of batches, the extended instance is
//! query-for-query **byte-identical** to a cold
//! [`InstanceBuilder::snapshot`] of the same final data. The key invariant
//! is numbering: nodes are numbered by replaying the builder's
//! insertion-order event log, so appending events never renumbers anything.
//!
//! # Detached deltas
//!
//! [`IngestSummary::detached`] classifies a batch: a *detached* delta adds
//! no out-edge to any pre-existing graph node (social edges leave batch-new
//! users only — social edges have no inverse; documents are posted by
//! batch-new users or nobody; tags are authored by batch-new users on
//! batch-new subjects; comments relate batch-new documents) and bridges no
//! new keyword into the RDF dictionary. For such a delta every
//! pre-existing node keeps its exact adjacency, out-weights and
//! neighborhood weights, and nothing new is reachable from any
//! pre-existing node — so every previously computed propagation, score and
//! result remains exact. The classification is reported, not acted on:
//! the serving layer purges its whole result cache on every ingest either
//! way, and the fleet's ingest ack cross-checks the flag across replicas.

use crate::connections::{ConnectionIndex, Scope};
use crate::ids::{TagId, TagSubject, UserId};
use crate::instance::{
    build_graph, connected_keywords, derived_social_edges, keyword_bridges, tag_inputs,
    tag_records, ComponentKeywords, GraphParts, InstanceBuilder, RetractionLog, S3Instance,
};
use s3_doc::{DocBuilder, DocNodeId, LocalNodeId, TreeId};
use s3_graph::{CompId, NodeId, NodeKind};
use s3_snap::{codec, put_str, Codec, SnapError, SnapReader};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// A user mentioned by a batch: one that already exists in the instance, or
/// one the batch itself creates (by position in the batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserRef {
    /// A user of the current instance.
    Existing(UserId),
    /// The `i`-th user added by this batch ([`IngestBatch::add_user`]).
    New(usize),
}

/// A document (tree) mentioned by a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocRef {
    /// A tree of the current instance.
    Existing(TreeId),
    /// The `i`-th document added by this batch
    /// ([`IngestBatch::add_document`]).
    New(usize),
}

/// A document fragment mentioned by a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragRef {
    /// A fragment of the current instance.
    Existing(DocNodeId),
    /// A node of the `doc`-th document added by this batch.
    New {
        /// Batch-local document index.
        doc: usize,
        /// The node inside that document's builder.
        node: LocalNodeId,
    },
}

/// A tag mentioned by a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagRef {
    /// A tag of the current instance.
    Existing(TagId),
    /// The `i`-th tag added by this batch (must precede the referencing
    /// tag, mirroring [`InstanceBuilder::add_tag`]'s ordering rule).
    New(usize),
}

/// What a batch tag annotates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSubjectRef {
    /// A document fragment.
    Frag(FragRef),
    /// Another tag (higher-level annotation, requirement R4).
    Tag(TagRef),
}

codec!(enum UserRef { 0 => Existing(UserId), 1 => New(usize) });
codec!(enum DocRef { 0 => Existing(TreeId), 1 => New(usize) });
codec!(enum FragRef { 0 => Existing(DocNodeId), 1 => New { doc: usize, node: LocalNodeId } });

/// One discriminant byte for the three shapes (a fragment, an existing
/// tag, a batch-new tag), then the reference.
impl Codec for TagSubjectRef {
    const MIN_BYTES: usize = 2;

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TagSubjectRef::Frag(f) => (0u8, f).encode(out),
            TagSubjectRef::Tag(TagRef::Existing(t)) => (1u8, t).encode(out),
            TagSubjectRef::Tag(TagRef::New(i)) => (2u8, i).encode(out),
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => TagSubjectRef::Frag(FragRef::decode(r)?),
            1 => TagSubjectRef::Tag(TagRef::Existing(TagId::decode(r)?)),
            2 => TagSubjectRef::Tag(TagRef::New(r.usize_v()?)),
            _ => return Err(SnapError::Value("tag subject discriminant")),
        })
    }
}

/// One document under construction for a batch: a [`DocBuilder`] tree shape
/// plus raw text per node, analyzed against the live vocabulary when the
/// batch is applied (so new terms are interned exactly as a cold build
/// would intern them).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestDoc {
    pub(crate) builder: DocBuilder,
    pub(crate) texts: Vec<(LocalNodeId, String)>,
}

impl IngestDoc {
    /// Start a document whose root node has the given name.
    pub fn new(root_name: impl Into<String>) -> Self {
        IngestDoc { builder: DocBuilder::new(root_name), texts: Vec::new() }
    }

    /// The root node id.
    pub fn root(&self) -> LocalNodeId {
        self.builder.root()
    }

    /// Append a child node under `parent`; returns its id.
    pub fn child(&mut self, parent: LocalNodeId, name: impl Into<String>) -> LocalNodeId {
        self.builder.child(parent, name)
    }

    /// Set the text content of a node (analyzed at apply time; calling
    /// again replaces the node's pending text).
    pub fn set_text(&mut self, node: LocalNodeId, text: impl Into<String>) {
        assert!((node.0 as usize) < self.builder.len(), "unknown node");
        self.texts.retain(|(n, _)| *n != node);
        self.texts.push((node, text.into()));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.builder.len()
    }

    /// A document always has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The tree flattened to `(parent, name)` pairs in node-id order (the
/// root's parent slot is 0 and unused), then the pending `(node, text)`
/// assignments. Node ids are assigned in creation order, so replaying the
/// pairs through [`IngestDoc::child`] reproduces every child list
/// exactly. The decode checks that every parent precedes its child and
/// every text names a node, so a decoded document always replays.
impl Codec for IngestDoc {
    /// The node count, the root's parent and name length, the text count.
    const MIN_BYTES: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        let b = &self.builder;
        let mut parents = vec![0u32; b.len()];
        for i in 0..b.len() as u32 {
            for &child in b.children(LocalNodeId(i)) {
                parents[child.0 as usize] = i;
            }
        }
        parents.len().encode(out);
        for (i, parent) in parents.iter().enumerate() {
            parent.encode(out);
            put_str(out, b.name(LocalNodeId(i as u32)));
        }
        self.texts.encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq(2)?;
        if n == 0 {
            return Err(SnapError::Value("document without a root node"));
        }
        let out_of_range = SnapError::Value("document node parent out of range");
        if r.u32v()? != 0 {
            return Err(out_of_range);
        }
        let mut doc = IngestDoc::new(r.str()?);
        for i in 1..n {
            let parent = r.u32v()?;
            if parent as usize >= i {
                return Err(out_of_range);
            }
            doc.child(LocalNodeId(parent), r.str()?);
        }
        for _ in 0..r.seq(2)? {
            let node = r.u32v()?;
            if node as usize >= n {
                return Err(SnapError::Value("text node out of range"));
            }
            doc.set_text(LocalNodeId(node), r.str()?);
        }
        Ok(doc)
    }
}

/// A batch of additions for [`InstanceBuilder::apply`]: users, weighted
/// social edges, documents (with posters), comment edges and tags.
///
/// ```
/// use s3_core::{IngestBatch, IngestDoc};
///
/// let mut batch = IngestBatch::new();
/// let poster = batch.add_user();
/// let mut doc = IngestDoc::new("post");
/// doc.set_text(doc.root(), "a fresh degree");
/// batch.add_document(doc, Some(poster));
/// assert_eq!((batch.num_users(), batch.num_documents()), (1, 1));
/// ```
///
/// Its encoding (a wire ingest frame's body and a WAL record's) is its
/// fields in declaration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBatch {
    pub(crate) new_users: usize,
    pub(crate) social_edges: Vec<(UserRef, UserRef, f64)>,
    pub(crate) documents: Vec<(IngestDoc, Option<UserRef>)>,
    pub(crate) comments: Vec<(DocRef, FragRef)>,
    pub(crate) tags: Vec<(TagSubjectRef, UserRef, Option<String>)>,
    pub(crate) delete_users: Vec<UserId>,
    pub(crate) delete_documents: Vec<TreeId>,
    pub(crate) delete_tags: Vec<TagId>,
    pub(crate) remove_social_edges: Vec<(UserId, UserId)>,
    pub(crate) remove_comments: Vec<(TreeId, DocNodeId)>,
}

codec!(struct IngestBatch {
    new_users,
    social_edges,
    documents,
    comments,
    tags,
    delete_users,
    delete_documents,
    delete_tags,
    remove_social_edges,
    remove_comments,
});

impl IngestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        IngestBatch::default()
    }

    /// Add a user; the returned reference is valid within this batch.
    pub fn add_user(&mut self) -> UserRef {
        self.new_users += 1;
        UserRef::New(self.new_users - 1)
    }

    /// Add a weighted social edge `from S3:social to` (weight in `(0, 1]`).
    pub fn add_social_edge(&mut self, from: UserRef, to: UserRef, weight: f64) {
        self.social_edges.push((from, to, weight));
    }

    /// Add a document, optionally posted by a user.
    pub fn add_document(&mut self, doc: IngestDoc, poster: Option<UserRef>) -> DocRef {
        self.documents.push((doc, poster));
        DocRef::New(self.documents.len() - 1)
    }

    /// Declare that document `comment` comments on fragment `target`.
    pub fn add_comment(&mut self, comment: DocRef, target: FragRef) {
        self.comments.push((comment, target));
    }

    /// Add a tag; `keyword = None` is an endorsement (like/+1/retweet).
    /// The keyword string is interned verbatim into the vocabulary at
    /// apply time (pass the stemmed/normalized form, as
    /// [`InstanceBuilder::add_tag`] callers do).
    pub fn add_tag(
        &mut self,
        subject: TagSubjectRef,
        author: UserRef,
        keyword: Option<&str>,
    ) -> TagRef {
        self.tags.push((subject, author, keyword.map(str::to_owned)));
        TagRef::New(self.tags.len() - 1)
    }

    /// Delete an existing user (tombstone; cascades to their social edges,
    /// poster records and authored tags — see
    /// [`InstanceBuilder::delete_user`]). Unknown or already-deleted ids
    /// are idempotent no-ops.
    pub fn delete_user(&mut self, u: UserId) {
        self.delete_users.push(u);
    }

    /// Delete an existing document (tombstone; cascades to its poster
    /// record, comment edges and tags — see
    /// [`InstanceBuilder::delete_document`]). Idempotent no-op for unknown
    /// or already-deleted ids.
    pub fn delete_document(&mut self, tree: TreeId) {
        self.delete_documents.push(tree);
    }

    /// Delete an existing tag (tombstone; cascades to tags on it — see
    /// [`InstanceBuilder::delete_tag`]). Idempotent no-op for unknown or
    /// already-deleted ids.
    pub fn delete_tag(&mut self, t: TagId) {
        self.delete_tags.push(t);
    }

    /// Remove every explicit social edge `from → to`. Idempotent no-op
    /// when no such edge exists.
    pub fn remove_social_edge(&mut self, from: UserId, to: UserId) {
        self.remove_social_edges.push((from, to));
    }

    /// Remove every `comment S3:commentsOn target` edge. Idempotent no-op
    /// when no such edge exists.
    pub fn remove_comment(&mut self, comment: TreeId, target: DocNodeId) {
        self.remove_comments.push((comment, target));
    }

    /// Update-in-place as delete + append: tombstone `old` and add `doc`
    /// as its replacement. The replacement gets a **fresh stable id** (the
    /// old id stays allocated as a tombstone); callers that track external
    /// keys remap them to the returned [`DocRef`]'s resolved id.
    pub fn update_document(
        &mut self,
        old: TreeId,
        doc: IngestDoc,
        poster: Option<UserRef>,
    ) -> DocRef {
        self.delete_documents.push(old);
        self.add_document(doc, poster)
    }

    /// Retag as delete + append: tombstone tag `old` (cascading to tags on
    /// it) and add a replacement tag with a fresh id.
    pub fn retag(
        &mut self,
        old: TagId,
        subject: TagSubjectRef,
        author: UserRef,
        keyword: Option<&str>,
    ) -> TagRef {
        self.delete_tags.push(old);
        self.add_tag(subject, author, keyword)
    }

    /// Users this batch creates.
    pub fn num_users(&self) -> usize {
        self.new_users
    }

    /// Documents this batch creates.
    pub fn num_documents(&self) -> usize {
        self.documents.len()
    }

    /// Tags this batch creates.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// Weighted social edges the batch adds.
    pub fn social_edges(&self) -> &[(UserRef, UserRef, f64)] {
        &self.social_edges
    }

    /// Documents the batch adds, with their posters.
    pub fn documents(&self) -> &[(IngestDoc, Option<UserRef>)] {
        &self.documents
    }

    /// Comment edges the batch adds.
    pub fn comments(&self) -> &[(DocRef, FragRef)] {
        &self.comments
    }

    /// Tags the batch adds: subject, author, optional keyword.
    pub fn tags(&self) -> &[(TagSubjectRef, UserRef, Option<String>)] {
        &self.tags
    }

    /// Users the batch deletes.
    pub fn deleted_users(&self) -> &[UserId] {
        &self.delete_users
    }

    /// Documents the batch deletes.
    pub fn deleted_documents(&self) -> &[TreeId] {
        &self.delete_documents
    }

    /// Tags the batch deletes.
    pub fn deleted_tags(&self) -> &[TagId] {
        &self.delete_tags
    }

    /// Social edges the batch removes.
    pub fn removed_social_edges(&self) -> &[(UserId, UserId)] {
        &self.remove_social_edges
    }

    /// Comment edges the batch removes.
    pub fn removed_comments(&self) -> &[(TreeId, DocNodeId)] {
        &self.remove_comments
    }

    /// Does the batch carry any retraction?
    pub fn has_retractions(&self) -> bool {
        !self.delete_users.is_empty()
            || !self.delete_documents.is_empty()
            || !self.delete_tags.is_empty()
            || !self.remove_social_edges.is_empty()
            || !self.remove_comments.is_empty()
    }

    /// True when the batch adds and retracts nothing.
    pub fn is_empty(&self) -> bool {
        self.new_users == 0
            && self.social_edges.is_empty()
            && self.documents.is_empty()
            && self.comments.is_empty()
            && self.tags.is_empty()
            && !self.has_retractions()
    }
}

/// What an [`InstanceBuilder::apply`] did: delta sizes, the delta class and
/// the components it touched (under the new instance's stable numbering).
#[derive(Debug, Clone)]
pub struct IngestSummary {
    /// Users added.
    pub new_users: usize,
    /// Documents (trees) added.
    pub new_documents: usize,
    /// Tags added.
    pub new_tags: usize,
    /// Graph nodes of the previous snapshot (new nodes are
    /// `first_new_node..`).
    pub first_new_node: usize,
    /// Was the delta *detached* (see the module docs)? Detached deltas
    /// leave every pre-existing propagation, score and cached result
    /// exact; the serving layer reports this but purges its result cache
    /// on every ingest.
    pub detached: bool,
    /// Components that gained nodes or edges (or were merged away),
    /// ascending. Their connection entries were recomputed.
    pub touched_components: Vec<CompId>,
    /// The subset of [`Self::touched_components`] that did not exist
    /// before (ids at or beyond the previous component count).
    pub new_components: Vec<CompId>,
    /// Users tombstoned by this batch, cascades included.
    pub deleted_users: usize,
    /// Documents tombstoned by this batch, cascades included.
    pub deleted_documents: usize,
    /// Tags tombstoned by this batch, cascades included.
    pub deleted_tags: usize,
    /// Explicit social edges removed (deletions cascade here too).
    pub removed_social_edges: usize,
    /// Comment edges removed (deletions cascade here too).
    pub removed_comment_edges: usize,
}

impl InstanceBuilder {
    /// Append `batch` to this builder and extend `prev` — which must be the
    /// instance last built from this builder (`build`, `snapshot` or a
    /// previous `apply`) — into a new frozen instance.
    ///
    /// Query results over the returned instance are byte-identical to a
    /// cold [`InstanceBuilder::snapshot`] of the builder's (now grown)
    /// data; only component *ids* may differ (merged-away ids stay
    /// allocated and empty), which no query-visible output depends on.
    ///
    /// Panics on invalid references or weights, before mutating anything
    /// (with the message of the [`IngestError`] that [`Self::check`]
    /// returns for the same batch).
    pub fn apply(&mut self, prev: &S3Instance, batch: &IngestBatch) -> (S3Instance, IngestSummary) {
        if let Err(e) = self.check(prev, batch) {
            panic!("{e}");
        }
        let users0 = self.num_users as usize;
        let vocab0 = self.analyzer.vocabulary().len();
        let nodes0 = prev.graph.num_nodes();
        let comps0 = prev.graph.components().len();

        // ---- Retractions first: tombstone entities (with cascades) and
        // physically unlink their edges, so the additions below see the
        // post-retraction state — a batch may delete a document and add
        // its replacement in one atomic step (`update_document`). ----
        let mut rlog = RetractionLog::default();
        for &u in &batch.delete_users {
            self.retract_user(u, &mut rlog);
        }
        for &t in &batch.delete_documents {
            self.retract_document(t, &mut rlog);
        }
        for &t in &batch.delete_tags {
            self.retract_tag(t, &mut rlog);
        }
        for &(from, to) in &batch.remove_social_edges {
            rlog.removed_social += self.remove_social_edge(from, to);
        }
        for &(c, tgt) in &batch.remove_comments {
            self.retract_comment_edge(c, tgt, &mut rlog);
        }

        // ---- Append the batch to the builder, classifying the delta. ----
        // Any effective retraction invalidates pre-existing propagation
        // state globally (edges vanished), so the delta is not detached.
        let new_users: Vec<UserId> = (0..batch.new_users).map(|_| self.add_user()).collect();
        let user = |r: UserRef| match r {
            UserRef::Existing(u) => u,
            UserRef::New(i) => new_users[i],
        };
        let mut detached = rlog.is_empty();
        for &(from, to, w) in &batch.social_edges {
            detached &= matches!(from, UserRef::New(_));
            self.add_social_edge(user(from), user(to), w);
        }
        let mut new_trees: Vec<TreeId> = Vec::with_capacity(batch.documents.len());
        for (doc, poster) in &batch.documents {
            detached &= matches!(poster, None | Some(UserRef::New(_)));
            let mut db = doc.builder.clone();
            for (node, text) in &doc.texts {
                let kws = self.analyzer.analyze(text);
                db.set_content(*node, kws);
            }
            new_trees.push(self.add_document(db, poster.map(user)));
        }
        let tree = |r: DocRef| match r {
            DocRef::Existing(t) => t,
            DocRef::New(i) => new_trees[i],
        };
        let frag = |forest: &s3_doc::Forest, r: FragRef| match r {
            FragRef::Existing(f) => f,
            FragRef::New { doc, node } => forest.resolve(new_trees[doc], node),
        };
        for &(comment, target) in &batch.comments {
            detached &= matches!(comment, DocRef::New(_)) && matches!(target, FragRef::New { .. });
            let (c, t) = (tree(comment), frag(&self.forest, target));
            self.add_comment_edge(c, t);
        }
        let tags0 = self.tags.len();
        for (subject, author, keyword) in &batch.tags {
            detached &= matches!(author, UserRef::New(_));
            let subject = match *subject {
                TagSubjectRef::Frag(f) => {
                    detached &= matches!(f, FragRef::New { .. });
                    TagSubject::Frag(frag(&self.forest, f))
                }
                TagSubjectRef::Tag(t) => {
                    detached &= matches!(t, TagRef::New(_));
                    TagSubject::Tag(match t {
                        TagRef::Existing(id) => id,
                        TagRef::New(i) => TagId((tags0 + i) as u32),
                    })
                }
            };
            let keyword = keyword.as_deref().map(|s| self.analyzer.vocabulary_mut().intern(s));
            self.add_tag(subject, user(*author), keyword);
        }
        // A new vocabulary entry that matches an RDF URI bridges keyword
        // extension to the ontology: old queries' `Ext` sets may grow, so
        // the delta cannot be treated as detached. Only the entries this
        // batch interned need checking.
        for idx in vocab0..self.analyzer.vocabulary().len() {
            let text = self.analyzer.vocabulary().text(s3_text::KeywordId(idx as u32));
            if prev.rdf.dictionary().get(text).is_some() {
                detached = false;
                break;
            }
        }

        // ---- Extend the graph: stable node numbering, stable comp ids. ----
        let mut social_all = self.social_edges.clone();
        social_all.extend(derived_social_edges(&prev.rdf, &self.user_uris, &social_all));
        let GraphParts { graph, user_nodes, tag_nodes, poster_of, comment_pairs } = build_graph(
            &self.events,
            self.forest.clone(),
            &social_all,
            &self.posters,
            &self.comments,
            &self.tags,
            &self.dead.tags,
            Some(prev.graph.components()),
        );
        debug_assert_eq!(graph.num_nodes(), nodes0 + (graph.num_nodes() - nodes0));
        debug_assert!(user_nodes[..users0].iter().zip(&prev.user_nodes).all(|(a, b)| a == b));

        // ---- Touched components: every component holding a new node,
        // plus old ids merged away (their entries must empty out), plus
        // every component affected by a retraction — the tombstoned
        // entities' own nodes, removed comment edges' endpoints and dead
        // tags' subjects. Node ids are stable, so prev-graph nodes keep
        // their ids in the new graph; a split scatters a prev component
        // over several new ids, and each split-off part contains at least
        // one of the nodes below (the dead node, or the endpoint it lost
        // its bridge to), so flagging their *new* components covers every
        // document whose connections changed. ----
        let comps = graph.components();
        let mut touched: Vec<CompId> =
            (nodes0..graph.num_nodes()).map(|i| comps.component_of(NodeId(i as u32))).collect();
        for c in 0..comps0 {
            let c = CompId(c as u32);
            if comps.members(c).is_empty() && !prev.graph.components().members(c).is_empty() {
                touched.push(c);
            }
        }
        let mut retracted_nodes: Vec<NodeId> = Vec::new();
        for &t in &rlog.dead_trees {
            for idx in self.forest.tree_range(t) {
                retracted_nodes
                    .push(graph.node_of_frag(DocNodeId(idx as u32)).expect("registered"));
            }
        }
        for &u in &rlog.dead_users {
            retracted_nodes.push(user_nodes[u.index()]);
        }
        for &t in &rlog.dead_tags {
            retracted_nodes.push(tag_nodes[t.index()]);
            retracted_nodes.push(match self.tags[t.index()].subject {
                TagSubject::Frag(f) => graph.node_of_frag(f).expect("registered"),
                TagSubject::Tag(b) => tag_nodes[b.index()],
            });
        }
        for &(c, tgt) in &rlog.removed_comments {
            retracted_nodes.push(graph.node_of_frag(self.forest.root(c)).expect("registered"));
            retracted_nodes.push(graph.node_of_frag(tgt).expect("registered"));
        }
        touched.extend(retracted_nodes.iter().map(|&n| comps.component_of(n)));
        touched.sort_unstable();
        touched.dedup();
        let mut comp_touched = vec![false; comps.len()];
        for &c in &touched {
            comp_touched[c.index()] = true;
        }
        let new_components: Vec<CompId> =
            touched.iter().copied().filter(|c| c.index() >= comps0).collect();

        // ---- Extend the con index: rerun the fixpoint inside the touched
        // components only; untouched trees keep their blocks. ----
        let inputs = tag_inputs(&self.tags, &user_nodes);
        let mut scope = Scope {
            docs: touched.iter().flat_map(|&c| graph.component_documents(c)).collect(),
            tags: touched
                .iter()
                .flat_map(|&c| comps.members(c))
                .filter_map(|&node| match graph.kind(node) {
                    NodeKind::Tag(t) => Some(TagId(t)),
                    _ => None,
                })
                .collect(),
            dead: &self.dead,
            prev: Some(&prev.conn_index),
        };
        scope.docs.sort_unstable();
        scope.tags.sort_unstable();
        let (conn_index, _) = ConnectionIndex::build_scoped(
            graph.forest(),
            &inputs,
            &comment_pairs,
            |d| graph.node_of_frag(d).expect("registered"),
            &scope,
        );

        // ---- Extend the per-component keyword sets. ----
        let comp_keywords = ComponentKeywords::collect(comps.iter(), |c, out| {
            if c.index() < comps0 && !comp_touched[c.index()] {
                out.extend_from_slice(prev.component_keywords(c));
            } else {
                connected_keywords(&graph, &conn_index, c, out);
            }
        });

        // ---- Extend the keyword ↔ URI bridge over the new vocabulary. ----
        let vocabulary = self.analyzer.vocabulary().clone();
        let mut kw_to_uri = prev.kw_to_uri.clone();
        let mut uri_to_kw = prev.uri_to_kw.clone();
        keyword_bridges(&vocabulary, &prev.rdf, vocab0, &mut kw_to_uri, &mut uri_to_kw);

        let dead_nodes = self.dead.mark_nodes(&graph, &user_nodes, &tag_nodes);
        let instance = S3Instance {
            language: self.analyzer.language(),
            vocabulary,
            rdf: Arc::clone(&prev.rdf),
            graph,
            tag_records: tag_records(&self.tags, &tag_nodes),
            user_nodes,
            poster_of,
            comment_pairs,
            conn_index,
            comp_keywords,
            kw_to_uri,
            uri_to_kw,
            dead_nodes,
            ext_cache: Mutex::new(HashMap::new()),
            smax_cache: Mutex::new(HashMap::new()),
        };
        let summary = IngestSummary {
            new_users: batch.new_users,
            new_documents: batch.documents.len(),
            new_tags: batch.tags.len(),
            first_new_node: nodes0,
            detached,
            touched_components: touched,
            new_components,
            deleted_users: rlog.dead_users.len(),
            deleted_documents: rlog.dead_trees.len(),
            deleted_tags: rlog.dead_tags.len(),
            removed_social_edges: rlog.removed_social,
            removed_comment_edges: rlog.removed_comments.len(),
        };
        (instance, summary)
    }

    /// Check every reference and weight of `batch` against the current
    /// builder state, without mutating anything: the checks
    /// [`Self::apply`] runs first, as a typed error. `Existing` references
    /// must be alive after the batch's retractions (they apply before its
    /// additions): already-tombstoned entities, entities the batch
    /// deletes, and tags that die through its cascades — with their
    /// author, with their fragment's document, or with their subject tag —
    /// are all rejected here, so an accepted batch always applies.
    pub fn check(&self, prev: &S3Instance, batch: &IngestBatch) -> Result<(), IngestError> {
        ensure(
            prev.graph.num_nodes()
                == self.num_users as usize + self.forest.num_nodes() + self.tags.len(),
            || "`prev` must be the instance last built from this builder".into(),
        )?;
        ensure(!self.rdf_dirty.get(), || {
            "the RDF layer changed since the last snapshot; apply() shares the previous \
             snapshot's saturated store and would drop those changes — take a fresh \
             snapshot() (full rebuild) first"
                .into()
        })?;
        let del_users: HashSet<UserId> = batch.delete_users.iter().copied().collect();
        let del_trees: HashSet<TreeId> = batch.delete_documents.iter().copied().collect();
        let del_tags: HashSet<TagId> = batch.delete_tags.iter().copied().collect();
        let users = self.num_users as usize;
        let check_user = |r: UserRef| match r {
            UserRef::Existing(u) => {
                ensure(u.index() < users, || format!("unknown user {u}"))?;
                ensure(self.dead.user_alive(u) && !del_users.contains(&u), || {
                    format!("user {u} is deleted")
                })
            }
            UserRef::New(i) => {
                ensure(i < batch.new_users, || format!("batch user {i} out of range"))
            }
        };
        let check_doc = |r: DocRef| match r {
            DocRef::Existing(t) => {
                ensure(t.index() < self.forest.num_trees(), || format!("unknown tree {t:?}"))?;
                ensure(self.dead.tree_alive(t) && !del_trees.contains(&t), || {
                    format!("document {t:?} is deleted")
                })
            }
            DocRef::New(i) => {
                ensure(i < batch.documents.len(), || format!("batch doc {i} out of range"))
            }
        };
        let check_frag = |r: FragRef| match r {
            FragRef::Existing(f) => {
                ensure(f.index() < self.forest.num_nodes(), || format!("unknown fragment {f}"))?;
                let t = self.forest.tree_of(f);
                ensure(self.dead.tree_alive(t) && !del_trees.contains(&t), || {
                    format!("fragment {f} belongs to a deleted document")
                })
            }
            FragRef::New { doc, node } => {
                ensure(doc < batch.documents.len(), || format!("batch doc {doc} out of range"))?;
                ensure((node.0 as usize) < batch.documents[doc].0.len(), || {
                    format!("node {node:?} outside batch doc {doc}")
                })
            }
        };
        for &(from, to, w) in &batch.social_edges {
            ensure(w > 0.0 && w <= 1.0, || "social weight must be in (0,1]".into())?;
            check_user(from)?;
            check_user(to)?;
        }
        for (_, poster) in &batch.documents {
            if let Some(p) = poster {
                check_user(*p)?;
            }
        }
        for &(comment, target) in &batch.comments {
            check_doc(comment)?;
            check_frag(target)?;
        }
        // Tags dead once the batch's retractions have run, computed on the
        // first `Existing` tag subject. A tag's subject tag precedes it,
        // so one pass in tag-id order closes the cascade.
        let mut dead_tags: Option<Vec<bool>> = None;
        for (i, (subject, author, _)) in batch.tags.iter().enumerate() {
            check_user(*author)?;
            match *subject {
                TagSubjectRef::Frag(f) => check_frag(f)?,
                TagSubjectRef::Tag(TagRef::Existing(t)) => {
                    ensure(t.index() < self.tags.len(), || format!("unknown tag {t}"))?;
                    let dead = dead_tags.get_or_insert_with(|| {
                        let mut dead = Vec::with_capacity(self.tags.len());
                        for (j, tag) in self.tags.iter().enumerate() {
                            let id = TagId(j as u32);
                            let dies = !self.dead.tag_alive(id)
                                || del_tags.contains(&id)
                                || del_users.contains(&tag.author)
                                || match tag.subject {
                                    TagSubject::Frag(f) => {
                                        del_trees.contains(&self.forest.tree_of(f))
                                    }
                                    TagSubject::Tag(s) => dead[s.index()],
                                };
                            dead.push(dies);
                        }
                        dead
                    });
                    ensure(!dead[t.index()], || format!("tag {t} is deleted"))?;
                }
                TagSubjectRef::Tag(TagRef::New(j)) => ensure(j < i, || {
                    format!("tag subjects must already exist (batch tag {j} after {i})")
                })?,
            }
        }
        Ok(())
    }
}

/// Why [`InstanceBuilder::check`] refused a batch: a reference to an
/// entity the builder lacks or has deleted, an out-of-range batch-local
/// index, a weight outside `(0, 1]`, or a `prev` instance that is not the
/// builder's latest. Nothing was mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError(String);

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for IngestError {}

/// `Ok` when `ok` holds, else the error `message` describes (built only
/// on failure).
fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), IngestError> {
    if ok {
        Ok(())
    } else {
        Err(IngestError(message()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{Query, SearchConfig};
    use s3_text::Language;

    fn base() -> (InstanceBuilder, UserId, S3Instance) {
        let mut b = InstanceBuilder::new(Language::English);
        let u0 = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, u0, 1.0);
        let kws = b.analyze("universities give degrees");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(u0));
        let prev = b.snapshot();
        (b, seeker, prev)
    }

    fn all_queries(inst: &S3Instance, text: &str) -> Vec<Query> {
        let kws = inst.query_keywords(text);
        (0..inst.num_users()).map(|u| Query::new(UserId(u as u32), kws.clone(), 4)).collect()
    }

    fn assert_matches_cold(builder: &InstanceBuilder, live: &S3Instance, text: &str) {
        let cold = builder.snapshot();
        assert_eq!(live.num_documents(), cold.num_documents(), "live vs cold documents");
        let config = SearchConfig::default();
        for (ql, qc) in all_queries(live, text).iter().zip(all_queries(&cold, text).iter()) {
            let a = live.search(ql, &config);
            let b = cold.search(qc, &config);
            assert_eq!(a.hits, b.hits, "live vs cold hits for {ql:?}");
            assert_eq!(a.candidate_docs, b.candidate_docs);
            assert_eq!(a.stats.stop, b.stats.stop);
            assert_eq!(a.stats.iterations, b.stats.iterations);
        }
    }

    #[test]
    fn detached_batch_is_classified_and_exact() {
        let (mut b, _, prev) = base();
        let mut batch = IngestBatch::new();
        let poster = batch.add_user();
        let fan = batch.add_user();
        batch.add_social_edge(fan, poster, 0.9);
        batch.add_social_edge(fan, UserRef::Existing(UserId(0)), 0.4);
        let mut doc = IngestDoc::new("post");
        doc.set_text(doc.root(), "degrees in the rust language");
        let d = batch.add_document(doc, Some(poster));
        let t = batch.add_tag(
            TagSubjectRef::Frag(FragRef::New { doc: 0, node: LocalNodeId(0) }),
            fan,
            Some("degre"),
        );
        batch.add_tag(TagSubjectRef::Tag(t), fan, None);
        let mut reply = IngestDoc::new("reply");
        reply.set_text(reply.root(), "congratulations");
        let r = batch.add_document(reply, Some(fan));
        batch.add_comment(r, FragRef::New { doc: 0, node: LocalNodeId(0) });
        let _ = d;

        let (live, summary) = b.apply(&prev, &batch);
        assert!(summary.detached, "nothing points at a pre-existing node");
        assert_eq!(summary.new_users, 2);
        assert_eq!(summary.new_documents, 2);
        assert_eq!(summary.first_new_node, prev.graph().num_nodes());
        assert!(!summary.new_components.is_empty());
        assert_eq!(summary.touched_components, summary.new_components);
        assert_matches_cold(&b, &live, "degrees");
    }

    #[test]
    fn attached_batch_touches_the_old_component_and_stays_exact() {
        let (mut b, seeker, prev) = base();
        let old_root = prev.forest().root(TreeId(0));
        let old_comp =
            prev.graph().components().component_of(prev.graph().node_of_frag(old_root).unwrap());

        let mut batch = IngestBatch::new();
        let fan = batch.add_user();
        batch.add_social_edge(UserRef::Existing(seeker), fan, 0.7);
        batch.add_tag(
            TagSubjectRef::Frag(FragRef::Existing(old_root)),
            UserRef::Existing(seeker),
            Some("univers"),
        );
        let mut reply = IngestDoc::new("reply");
        reply.set_text(reply.root(), "universities matter");
        let r = batch.add_document(reply, Some(UserRef::Existing(seeker)));
        batch.add_comment(r, FragRef::Existing(old_root));

        let (live, summary) = b.apply(&prev, &batch);
        assert!(!summary.detached, "old nodes gained edges");
        assert!(
            summary.touched_components.contains(&old_comp),
            "the annotated component must be recomputed"
        );
        assert_matches_cold(&b, &live, "universities");
        // The old document gained tag + comment connections.
        let kws = live.query_keywords("universities");
        let res = live.search(&Query::new(seeker, kws, 3), &SearchConfig::default());
        assert!(!res.hits.is_empty());
    }

    #[test]
    fn batches_compose_across_applies() {
        let (mut b, seeker, prev) = base();
        let mut live = prev;
        for round in 0..3 {
            let mut batch = IngestBatch::new();
            let u = batch.add_user();
            batch.add_social_edge(u, UserRef::Existing(seeker), 0.8);
            let mut doc = IngestDoc::new("post");
            doc.set_text(doc.root(), format!("degrees round {round}"));
            batch.add_document(doc, Some(u));
            let (next, _) = b.apply(&live, &batch);
            live = next;
            assert_matches_cold(&b, &live, "degrees");
        }
        assert_eq!(live.num_users(), 5);
        assert_eq!(live.num_documents(), 4);
    }

    #[test]
    fn merging_two_old_components_keeps_results_exact() {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, u, 1.0);
        for text in ["rust degrees", "java degrees"] {
            let kws = b.analyze(text);
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(u));
        }
        let prev = b.snapshot();
        let comps0 = prev.graph().components().len();

        // A new comment bridging the two previously-separate documents.
        let mut batch = IngestBatch::new();
        let mut bridge = IngestDoc::new("bridge");
        bridge.set_text(bridge.root(), "both languages give degrees");
        let r = batch.add_document(bridge, None);
        batch.add_comment(r, FragRef::Existing(prev.forest().root(TreeId(0))));
        batch.add_comment(r, FragRef::Existing(prev.forest().root(TreeId(1))));

        let (live, summary) = b.apply(&prev, &batch);
        assert!(!summary.detached);
        let comps = live.graph().components();
        assert!(comps.len() > comps0 || comps.iter().any(|c| comps.members(c).is_empty()));
        // One of the two old components merged away and empties out.
        let dead: Vec<CompId> = (0..comps0)
            .map(|c| CompId(c as u32))
            .filter(|&c| comps.members(c).is_empty())
            .collect();
        assert_eq!(dead.len(), 1, "exactly one old component merged away");
        assert!(summary.touched_components.contains(&dead[0]));
        assert_matches_cold(&b, &live, "degrees");
    }

    #[test]
    fn empty_batch_is_a_detached_noop() {
        let (mut b, _, prev) = base();
        let nodes = prev.graph().num_nodes();
        let (live, summary) = b.apply(&prev, &IngestBatch::new());
        assert!(summary.detached);
        assert!(summary.touched_components.is_empty());
        assert_eq!(live.graph().num_nodes(), nodes);
        assert_matches_cold(&b, &live, "degrees");
    }

    #[test]
    #[should_panic(expected = "RDF layer changed since the last snapshot")]
    fn rdf_mutation_between_snapshot_and_apply_is_refused() {
        let (mut b, _, prev) = base();
        b.rdf_mut().insert_str("ex:a", "ex:p", "ex:b");
        b.apply(&prev, &IngestBatch::new());
    }

    #[test]
    fn rdf_mutation_followed_by_fresh_snapshot_applies_fine() {
        let (mut b, _, _) = base();
        b.rdf_mut().insert_str("ex:a", "ex:p", "ex:b");
        let prev = b.snapshot();
        let (live, _) = b.apply(&prev, &IngestBatch::new());
        assert_eq!(live.num_users(), prev.num_users());
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn bad_reference_panics_before_mutation() {
        let (mut b, _, prev) = base();
        let mut batch = IngestBatch::new();
        batch.add_social_edge(UserRef::Existing(UserId(99)), UserRef::Existing(UserId(0)), 0.5);
        b.apply(&prev, &batch);
    }

    #[test]
    fn validation_failure_leaves_the_builder_unchanged() {
        let (mut b, _, prev) = base();
        let users = b.num_users();
        let mut batch = IngestBatch::new();
        let u = batch.add_user();
        batch.add_social_edge(u, UserRef::Existing(UserId(99)), 0.5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.apply(&prev, &batch);
        }));
        assert!(result.is_err());
        assert_eq!(b.num_users(), users, "validation precedes mutation");
        // The builder still works.
        let (live, _) = b.apply(&prev, &IngestBatch::new());
        assert_eq!(live.num_users(), users);
    }

    #[test]
    fn tags_killed_by_the_batch_cascade_are_refused_as_subjects() {
        // u0 posts D; u1 tags D's root (t0); u0 endorses t0 (t1).
        let (mut b, seeker, _) = base();
        let u1 = b.add_user();
        let root = b.doc_root(TreeId(0));
        let kw = b.analyze("degrees")[0];
        let t0 = b.add_tag(TagSubject::Frag(root), u1, Some(kw));
        let t1 = b.add_tag(TagSubject::Tag(t0), UserId(0), None);
        let prev = b.snapshot();
        let tag_on = |t: TagId| {
            let mut batch = IngestBatch::new();
            batch.add_tag(TagSubjectRef::Tag(TagRef::Existing(t)), UserRef::Existing(seeker), None);
            batch
        };
        let mut via_subject = tag_on(t1);
        via_subject.delete_tag(t0);
        let mut via_document = tag_on(t0);
        via_document.delete_document(TreeId(0));
        let mut via_author = tag_on(t0);
        via_author.delete_user(u1);
        for batch in [&via_subject, &via_document, &via_author] {
            let err = b.check(&prev, batch).expect_err("a cascade-killed subject must be refused");
            assert!(err.to_string().contains("is deleted"), "{err}");
        }
        assert_eq!(b.dead_counts(), (0, 0, 0), "check mutates nothing");
        // Subjects the cascades spare are still accepted, and apply.
        let mut spared = tag_on(t0);
        spared.delete_tag(t1);
        b.check(&prev, &spared).expect("t0 outlives the endorsement on it");
        let (live, summary) = b.apply(&prev, &spared);
        assert_eq!((summary.deleted_tags, summary.new_tags), (1, 1));
        assert_eq!(live.num_tags(), 3);
    }
}
