//! The connection relation `con(d, k)` (paper §3.2).
//!
//! `con(d, k)` is the set of `(type, frag, src)` tuples witnessing that
//! document `d` is connected to keyword `k`:
//!
//! * **contains** — a fragment `f` of `d` contains `k`: `(S3:contains, f, d)`
//!   (one tuple per ancestor-or-self `d` of `f`, each with itself as
//!   source);
//! * **tags** (rule T) — a tag on a fragment `f` of `d` whose keyword is `k`
//!   gives `(S3:relatedTo, f, author)`; more generally *any* connection of a
//!   tag on `f` flows to `d` as `S3:relatedTo`, keeping its source;
//! * **endorsements** (rule E) — a keyword-less tag (like/+1/retweet) on `x`
//!   *inherits* `x`'s connections with the endorser as source (they then
//!   flow back to ancestors by the tag rule — the paper's `(S3:relatedTo,
//!   d0.5.1, u5)` example);
//! * **higher-level tags** (R4, rule E′) — a tag on a tag contributes
//!   through the same two rules, chained;
//! * **comments** (rule C) — when a comment `c` on fragment `f` is connected
//!   to `k`, every ancestor `d` of `f` gains `(S3:commentsOn, f, src)` with
//!   the source carried over (the paper's `(S3:commentsOn, d0.3.2, d2)`
//!   example).
//!
//! The rules are mutually recursive; [`ConnectionIndex::build`] runs them
//! to their least fixpoint over a finite tuple domain. The result is
//! **seeker-independent** and is built once per instance; at query time
//! `con(d, k) = ⋃_{k' ∈ Ext(k)} conDirect(d, k')` (see DESIGN.md §3.3/§3.5).
//!
//! # Evaluation: each rule fires once per projection, sources travel as lists
//!
//! A tuple is a *signature* — `(type, frag, kw)` at a document node,
//! `(type, origin_frag, kw)` at a tag — plus a source. What a rule emits
//! depends on only part of the tuple that triggers it:
//!
//! | rule | trigger | emits | ignores |
//! |---|---|---|---|
//! | E  | tuple at an endorsed node | the signature at each endorsement, endorser as source | `src` |
//! | E′ | tuple at an endorsed tag | the signature at each endorsement, endorser as source | `src` |
//! | C  | tuple at a comment root | `(commentsOn, target, src, kw)` at the target's ancestors | `type`, `frag` |
//! | T  | tuple at a tag | `(relatedTo, frag, src, kw)` at the subject's ancestors (or lifted to the subject tag) | `type` |
//!
//! So E and E′ fire when a signature is *first seen* at an item, not once
//! per source; C stops at the commented fragment itself when the tuple it
//! would spread is already there (only C produces `commentsOn` tuples, and
//! it always writes a target's whole ancestor chain at once); T fires per
//! new `(signature, source)`.
//!
//! T and C only carry a source, and E ignores it, so the keyword-less
//! tags on one item that no tag is on all get the same signatures and
//! pass them on the same way: they derive as one **endorsement group**,
//! an item whose source is the sorted list of their authors (the paper's
//! retweets of one tweet). A tag something else is on stays an item of
//! its own, a group of one. The fixpoint therefore carries a *source*
//! that is one graph node or one group, and E fires once per group and
//! first-seen signature: on a tweet with *S* signatures and *E* plain
//! retweets the rules cost ∝ *S* + *E*, where one tuple per retweet and
//! signature cost ∝ *S* × *E*.
//!
//! "First seen" is no side set: each item a rule writes to has one map
//! `signature → (slot, first source)`, whose vacant entry is the test,
//! and one set of `(slot, source)` words for the later sources of its
//! signatures. The work is O(inputs + derived `(signature, source)` pairs
//! × ancestor depth).
//!
//! The rules follow three kinds of edge only: a tag to its subject (E, E′,
//! T) and a comment root to its target (C). So no tuple leaves a
//! *content component* — the trees and tags those edges join — and the
//! build runs the fixpoint one component at a time: seed it, run the
//! rules, clear the working sets, freeze its trees' blocks. Cold builds
//! and the scoped rebuilds of live ingestion share this one loop, and
//! the working sets never hold more than the largest component's
//! signatures and sources, whatever the size of the scope.
//!
//! # Frozen layout
//!
//! One [`Arc`]'d block per document tree: a directory of `(node, keyword)`
//! entries, sorted, over one flat array of `(type, frag, depth, list)`
//! entries in `(node, keyword, frag, type)` order. When a component
//! freezes, the sources of each `(d, signature)` are unioned into one
//! sorted list: a single source sits in its entry, longer lists in the
//! block's arena, each stored once (hash-consed), so the endorsers of a
//! tweet are stored once per block, not once per signature.
//! [`ConnectionIndex::connections`] reads the lists whole, one after the
//! other: readers see one [`Connection`] per tuple, in `(frag, type,
//! src)` order.
//!
//! A component is a union of whole trees, so its blocks are final when
//! its fixpoint ends and are written then, at their exact size; a scoped
//! rebuild replaces the blocks of the touched trees and shares every
//! other block, lists included, with the previous index by refcount. Each
//! entry records `|pos(d, f)|` (the structural depth used by the concrete
//! score), so scores never re-walk the tree.

use crate::ids::{TagId, TagSubject};
use crate::instance::Tombstones;
use s3_doc::{DocNodeId, Forest, TreeId};
use s3_graph::NodeId;
use s3_text::KeywordId;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Connection type (§3.2): how `d` relates to the keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConnType {
    /// `S3:contains`: the keyword occurs in a fragment.
    Contains,
    /// `S3:relatedTo`: a tag relates the fragment to the keyword.
    RelatedTo,
    /// `S3:commentsOn`: a comment on the fragment carries the keyword.
    CommentsOn,
}

/// One `con(d, k)` tuple, stored under its document `d` and keyword `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Connection {
    /// Connection type.
    pub ctype: ConnType,
    /// The fragment of `d` due to which the connection holds.
    pub frag: DocNodeId,
    /// `|pos(d, frag)|`: structural distance from `d` to the fragment.
    pub depth: u8,
    /// The source: a user (tag author) or a document node, as a graph node.
    pub src: NodeId,
}

/// Tag description needed to build the index.
#[derive(Debug, Clone, Copy)]
pub struct TagInput {
    /// What the tag is on.
    pub subject: TagSubject,
    /// The tag author, as a graph node (user).
    pub author_node: NodeId,
    /// The tag keyword; `None` for endorsements (like/+1/retweet).
    pub keyword: Option<KeywordId>,
}

/// What one build covers. A cold build covers everything; live ingestion
/// reruns the rules inside the touched content components only and keeps
/// every other tree's block from `prev`. Connections never cross content
/// components (tags, comments and containment all stay inside one), so
/// when the scope is a union of components this equals a full rebuild — at
/// the cost of the touched components only.
pub(crate) struct Scope<'a> {
    /// The document trees to recompute, ascending. Must be
    /// component-closed: a tree commented on from, or commenting on, an
    /// in-scope tree is in scope.
    pub(crate) docs: Vec<TreeId>,
    /// The tags taking part, ascending: exactly those whose subject lies
    /// in `docs`.
    pub(crate) tags: Vec<TagId>,
    /// Tombstones. Dead documents seed no `contains` connections and dead
    /// tags take no part, so dead entities' entries come out empty —
    /// which makes a cold build the byte-identity reference for live
    /// deletions too. Comment edges of dead documents must already be
    /// gone from `comments` (the builder removes them at retraction).
    pub(crate) dead: &'a Tombstones,
    /// The index every tree outside `docs` keeps its block from; `None`
    /// for a cold build, whose `docs` is every tree.
    pub(crate) prev: Option<&'a ConnectionIndex>,
}

impl<'a> Scope<'a> {
    /// The cold-build scope: every tree and every tag.
    pub(crate) fn all(forest: &Forest, num_tags: usize, dead: &'a Tombstones) -> Self {
        Scope {
            docs: forest.trees().collect(),
            tags: (0..num_tags as u32).map(TagId).collect(),
            dead,
            prev: None,
        }
    }
}

/// Exact work counts of one build: a clock-free measure of what the
/// fixpoint cost against what it produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BuildCounters {
    /// Distinct tuples derived, at documents and at tags, one per source
    /// (a group's list counts once per source, its item once per tag).
    pub(crate) tuples: u64,
    /// `(signature, source)` pairs derived: what the fixpoint holds, a
    /// group's list counting once.
    pub(crate) pairs: u64,
    /// Set-insert attempts made by the seeds and the rules, plus one per
    /// endorsement joining its group.
    pub(crate) rule_firings: u64,
}

/// Multiply-rotate hasher for the fixpoint's working sets. Their keys are
/// dense ids this program assigned (document nodes, tags, keywords, graph
/// nodes), not bytes chosen outside it, so SipHash's collision resistance
/// buys nothing here and costs most of an insert.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upwards; the table indexes by the low bits.
        self.0.rotate_left(26)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// `origin_frag` of a tag tuple that has none (a keyword tag on a tag).
const NO_ORIGIN: u32 = u32::MAX;

/// Where a tuple sits and what it says, minus its source. `item` is a
/// document node id, or `num_nodes + tag id`; `frag` is the fragment at a
/// document and the originating fragment (or [`NO_ORIGIN`]) at a tag — a
/// tag's only fragment is itself (paper footnote 6), so its tuples
/// remember the document fragment they came from instead.
#[derive(Debug, Clone, Copy)]
struct Signature {
    item: u32,
    frag: u32,
    kw: KeywordId,
    ctype: ConnType,
}

/// A tuple's source as the fixpoint carries it: one graph node, or every
/// author of one endorsement group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Source {
    Node(NodeId),
    Group(u32),
}

/// The low 33 bits of a `(slot, source)` word: the source.
const SOURCE_BITS: u64 = (1 << 33) - 1;

impl Source {
    /// One 33-bit word per source.
    fn word(self) -> u64 {
        match self {
            Source::Node(n) => u64::from(n.0),
            Source::Group(g) => 1 << 32 | u64::from(g),
        }
    }

    fn from_word(word: u64) -> Self {
        match word & SOURCE_BITS {
            w if w >> 32 == 1 => Source::Group(w as u32),
            w => Source::Node(NodeId(w as u32)),
        }
    }
}

/// The endorsement groups of one build: per subject item, its keyword-less
/// tags that no live tag is on, derived as one item (their first tag's)
/// whose source is their authors, sorted and deduplicated.
#[derive(Default)]
struct Groups {
    /// Every group's authors, group after group; group `g` ends at `ends[g]`.
    authors: Vec<NodeId>,
    ends: Vec<u32>,
    /// Per group, its number of tags: each of them holds every signature
    /// of the group's item.
    tags: Vec<u32>,
    /// The item each group derives at → the group.
    of_item: IdMap<u32, u32>,
}

impl Groups {
    /// The graph nodes behind a source.
    fn expand<'a>(&'a self, src: &'a Source) -> &'a [NodeId] {
        match *src {
            Source::Node(ref n) => std::slice::from_ref(n),
            Source::Group(g) => {
                let start = if g == 0 { 0 } else { self.ends[g as usize - 1] as usize };
                &self.authors[start..self.ends[g as usize] as usize]
            }
        }
    }

    /// The union of `sources`' nodes, sorted, into `out`.
    fn union(&self, sources: impl Iterator<Item = Source>, out: &mut Vec<NodeId>) {
        out.clear();
        for src in sources {
            out.extend_from_slice(self.expand(&src));
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// A newly derived tuple waiting for the rules it triggers.
#[derive(Debug, Clone, Copy)]
struct Derived {
    sig: Signature,
    src: Source,
    /// No tuple with this signature existed at the item before.
    first: bool,
}

/// The tuples at one item.
#[derive(Default)]
struct ItemSets {
    /// Signature, as `(frag << 32 | kw, type)` → its dense slot and first
    /// source.
    sigs: IdMap<(u64, ConnType), (u32, Source)>,
    /// `slot << 33 | source word` for every later source of a signature.
    later_sources: IdSet<u64>,
}

/// The fixpoint's working sets for one content component, one pair of
/// tables per item that a rule wrote to: the rules dwell on one document
/// and the tags around it, so small per-item tables stay in cache where
/// one table over all tuples misses on every insert. The build clears
/// them between components and keeps their capacity, so their size
/// follows the largest component's `(signature, source)` pairs, not the
/// scope; an endorsement group's item holds its signatures once, whatever
/// the number of its tags.
#[derive(Default)]
struct Derivation {
    sets: IdMap<u32, ItemSets>,
    pending: Vec<Derived>,
    /// The `(signature, source)` pairs derived at document nodes, in
    /// derivation order.
    stored: Vec<Stored>,
    /// Scratch for counting a tag's tuples: per slot its first source,
    /// the later sources' words sorted, and one union.
    firsts: Vec<Source>,
    later: Vec<u64>,
    union: Vec<NodeId>,
    counters: BuildCounters,
}

impl Derivation {
    /// Add a tuple no rule can derive and no other seed repeats — a
    /// `contains` tuple at a document — so it needs no entry to be found
    /// by: its signature is first seen here and never again.
    fn seed(&mut self, sig: Signature, src: Source) {
        self.counters.rule_firings += 1;
        self.counters.pairs += 1;
        self.pending.push(Derived { sig, src, first: true });
    }

    /// Add one `(signature, source)` pair; true when it is new (it then
    /// awaits its rules).
    fn derive(&mut self, sig: Signature, src: Source) -> bool {
        self.counters.rule_firings += 1;
        let set = self.sets.entry(sig.item).or_default();
        let next = set.sigs.len();
        let key = (u64::from(sig.frag) << 32 | u64::from(sig.kw.0), sig.ctype);
        let first = match set.sigs.entry(key) {
            Entry::Vacant(e) => {
                let slot = u32::try_from(next).ok().filter(|&s| s < 1 << 31);
                e.insert((slot.expect("fewer than 2^31 signatures at one item"), src));
                true
            }
            Entry::Occupied(e) => {
                let (slot, first_src) = *e.get();
                let word = u64::from(slot) << 33 | src.word();
                if first_src == src || !set.later_sources.insert(word) {
                    return false;
                }
                false
            }
        };
        self.counters.pairs += 1;
        self.pending.push(Derived { sig, src, first });
        true
    }

    /// Count the tuples at the component's tags (its documents' are
    /// counted as their blocks freeze): a group's item holds each of its
    /// signatures once per tag of the group, any other tag the union of
    /// its sources' nodes per signature.
    fn count_tag_tuples(&mut self, num_nodes: u32, groups: &Groups) {
        let (firsts, later) = (&mut self.firsts, &mut self.later);
        for (&item, set) in self.sets.iter().filter(|(&item, _)| item >= num_nodes) {
            if let Some(&g) = groups.of_item.get(&item) {
                self.counters.tuples += set.sigs.len() as u64 * u64::from(groups.tags[g as usize]);
                continue;
            }
            firsts.clear();
            firsts.resize(set.sigs.len(), Source::Group(0));
            for &(slot, src) in set.sigs.values() {
                firsts[slot as usize] = src;
            }
            later.clear();
            later.extend(set.later_sources.iter().copied());
            later.sort_unstable();
            let mut rest = later.as_slice();
            for (slot, &first) in firsts.iter().enumerate() {
                let (own, after) = rest.split_at(rest.partition_point(|w| w >> 33 == slot as u64));
                rest = after;
                self.counters.tuples += if own.is_empty() {
                    groups.expand(&first).len()
                } else {
                    let sources = own.iter().map(|&w| Source::from_word(w));
                    groups.union(std::iter::once(first).chain(sources), &mut self.union);
                    self.union.len()
                } as u64;
            }
        }
    }
}

/// Per item, the items that endorse it with their sources (rules E and
/// E′): the group of its plain endorsements, then one by one those of its
/// endorsements something is on. A dead tag seeds nothing and inherits
/// nothing, but carries what the tags on it lift, so the tags it is on
/// stay items of their own too.
fn endorsements(
    tags: &[TagInput],
    scope: &Scope<'_>,
    tag_item: impl Fn(TagId) -> u32,
) -> (IdMap<u32, Vec<(u32, Source)>>, Groups) {
    let tagged: IdSet<TagId> = (scope.tags.iter())
        .filter_map(|t| match tags[t.index()].subject {
            TagSubject::Tag(b) => Some(b),
            TagSubject::Frag(_) => None,
        })
        .collect();
    let mut endorsements_on: IdMap<u32, Vec<(u32, Source)>> = IdMap::default();
    let mut groups = Groups::default();
    let mut group_on: IdMap<u32, u32> = IdMap::default();
    let mut members: Vec<(u32, NodeId)> = Vec::new();
    let plain = scope.tags.iter().copied().filter(|&t| tags[t.index()].keyword.is_none());
    for t in plain.filter(|&t| scope.dead.tag_alive(t)) {
        let tag = &tags[t.index()];
        let subject = match tag.subject {
            TagSubject::Frag(f) => f.0,
            TagSubject::Tag(b) => tag_item(b),
        };
        if tagged.contains(&t) {
            let endorsement = (tag_item(t), Source::Node(tag.author_node));
            endorsements_on.entry(subject).or_default().push(endorsement);
            continue;
        }
        let next = group_on.len() as u32;
        let g = *group_on.entry(subject).or_insert_with(|| {
            let endorsement = (tag_item(t), Source::Group(next));
            endorsements_on.entry(subject).or_default().push(endorsement);
            groups.of_item.insert(tag_item(t), next);
            next
        });
        members.push((g, tag.author_node));
    }
    members.sort_unstable();
    for group in members.chunk_by(|a, b| a.0 == b.0) {
        groups.tags.push(group.len() as u32);
        groups.authors.extend(group.chunk_by(|a, b| a.1 == b.1).map(|same| same[0].1));
        groups.ends.push(u32::try_from(groups.authors.len()).expect("fewer than 2^32 tags"));
    }
    (endorsements_on, groups)
}

/// Split a scope into its content components by joining what the rules
/// connect: a tag with its subject's tree or subject tag (rules E, E′ and
/// T), a comment root's tree with its target's tree (rule C). Elements
/// are the positions in `scope.docs`, then those in `scope.tags` offset
/// by `docs.len()`; the result holds `component << 32 | element`,
/// ascending, so each component is one run, its trees first.
fn components(
    forest: &Forest,
    tags: &[TagInput],
    comments: &[(DocNodeId, DocNodeId)],
    scope: &Scope<'_>,
) -> Vec<u64> {
    let num_docs = scope.docs.len();
    let tree_pos = |d: DocNodeId| scope.docs.binary_search(&forest.tree_of(d)).ok();
    let tag_pos = |t: TagId| scope.tags.binary_search(&t).ok().map(|i| num_docs + i);
    // Union-find with path halving; a root is its set's least element.
    let mut parent: Vec<u32> = (0..(num_docs + scope.tags.len()) as u32).collect();
    let find = |parent: &mut [u32], mut x: usize| {
        while parent[x] as usize != x {
            parent[x] = parent[parent[x] as usize];
            x = parent[x] as usize;
        }
        x
    };
    let join = |parent: &mut [u32], a: usize, b: Option<usize>| {
        if let Some(b) = b {
            let (a, b) = (find(parent, a), find(parent, b));
            parent[a.max(b)] = a.min(b) as u32;
        }
    };
    for (i, &t) in scope.tags.iter().enumerate() {
        let subject = match tags[t.index()].subject {
            TagSubject::Frag(f) => tree_pos(f),
            TagSubject::Tag(b) => tag_pos(b),
        };
        join(&mut parent, num_docs + i, subject);
    }
    for &(root, target) in comments {
        if let Some(r) = tree_pos(root) {
            join(&mut parent, r, tree_pos(target));
        }
    }
    let mut keyed: Vec<u64> =
        (0..parent.len()).map(|x| (find(&mut parent, x) as u64) << 32 | x as u64).collect();
    keyed.sort_unstable();
    keyed
}

/// A `(signature, source)` pair at a document, in frozen order: `(node,
/// keyword, frag, type, source)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stored {
    doc: DocNodeId,
    kw: KeywordId,
    frag: DocNodeId,
    ctype: ConnType,
    src: Source,
}

/// One directory entry: the entries of `(node, kw)` end at `end` in the
/// block's flat array and start where the previous directory entry ends.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct DirEntry {
    node: DocNodeId,
    kw: KeywordId,
    end: u32,
}

/// The connections of one `(d, k, type, frag)`: one per source. `list`
/// is the one source's graph node when `single`, else the first word of
/// a list in the block's arena.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Factored {
    frag: DocNodeId,
    list: u32,
    ctype: ConnType,
    depth: u8,
    single: bool,
}

/// An entry's sources, ascending.
fn sources<'a>(lists: &'a [u32], f: &'a Factored) -> &'a [u32] {
    if f.single {
        std::slice::from_ref(&f.list)
    } else {
        list_at(lists, f.list)
    }
}

/// The list whose first word is at `at`.
fn list_at(lists: &[u32], at: u32) -> &[u32] {
    let at = at as usize;
    &lists[at + 1..at + 1 + lists[at] as usize]
}

/// The connections of one document tree, factored by source list.
#[derive(Debug, Default, Serialize, Deserialize)]
struct TreeBlock {
    /// Sorted by `(node, kw)`.
    dir: Vec<DirEntry>,
    /// Per directory entry sorted by `(frag, type)`.
    conns: Vec<Factored>,
    /// The lists of two sources or more, each stored once: its length,
    /// then its graph nodes ascending. A [`Factored`] names a list by its
    /// first word.
    lists: Vec<u32>,
    /// Connections stored, one per source of each entry's list.
    len: usize,
}

/// Hash-consing of one block's source lists while it freezes, into
/// buffers the build reuses from tree to tree: the block then copies out
/// exactly what it keeps, one allocation per array.
#[derive(Default)]
struct Interner {
    /// The block's lists, each its length, then its graph nodes ascending.
    arena: Vec<u32>,
    /// The block's entries.
    conns: Vec<Factored>,
    /// A list's hash → its first word.
    lists: IdMap<u64, u32>,
    /// The hash of the sources of a `(d, signature)` that name a group →
    /// where `seen_runs` holds them, and their union. A group's union is
    /// remembered: its list is as long as the group, and one tweet's
    /// retweets source many signatures.
    runs: IdMap<u64, (u32, (u32, bool))>,
    seen_runs: Vec<Source>,
    union: Vec<NodeId>,
}

/// The hash of a sequence, with the fixpoint's hasher.
fn id_hash<T: Hash>(items: impl Iterator<Item = T>) -> u64 {
    let mut hasher = IdHasher::default();
    items.for_each(|x| x.hash(&mut hasher));
    hasher.finish()
}

impl Interner {
    /// The union of `run`'s sources as a [`Factored`]'s `(list, single)`:
    /// one node inline, or a list added to the arena unless an equal list
    /// is there. A hash that two different lists share only costs the
    /// second one its sharing.
    fn intern(&mut self, run: &[Stored], groups: &Groups) -> (u32, bool) {
        if let [Stored { src: Source::Node(n), .. }] = run {
            return (n.0, true);
        }
        let sources = || run.iter().map(|s| s.src);
        let memo = run.iter().any(|s| matches!(s.src, Source::Group(_)));
        let run_hash = id_hash(sources());
        if let Some(&(start, at)) = self.runs.get(&run_hash).filter(|_| memo) {
            let seen = self.seen_runs.get(start as usize..start as usize + run.len());
            if seen.is_some_and(|seen| seen.iter().copied().eq(sources())) {
                return at;
            }
        }
        groups.union(sources(), &mut self.union);
        let at = if let [n] = self.union[..] {
            (n.0, true)
        } else {
            let hash = id_hash(self.union.iter());
            match self.lists.get(&hash) {
                Some(&at)
                    if list_at(&self.arena, at).iter().eq(self.union.iter().map(|n| &n.0)) =>
                {
                    (at, false)
                }
                hit => {
                    let at =
                        u32::try_from(self.arena.len()).expect("a tree's lists fit in 2^32 words");
                    self.arena
                        .push(u32::try_from(self.union.len()).expect("fewer than 2^32 sources"));
                    self.arena.extend(self.union.iter().map(|n| n.0));
                    if hit.is_none() {
                        self.lists.insert(hash, at);
                    }
                    (at, false)
                }
            }
        };
        if memo {
            if let Entry::Vacant(e) = self.runs.entry(run_hash) {
                e.insert((self.seen_runs.len() as u32, at));
                self.seen_runs.extend(sources());
            }
        }
        at
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.conns.clear();
        self.lists.clear();
        self.runs.clear();
        self.seen_runs.clear();
    }
}

impl TreeBlock {
    fn span(&self, entry: usize) -> &[Factored] {
        let start = if entry == 0 { 0 } else { self.dir[entry - 1].end as usize };
        &self.conns[start..self.dir[entry].end as usize]
    }

    fn entries_of(&self, d: DocNodeId) -> std::ops::Range<usize> {
        let start = self.dir.partition_point(|e| e.node < d);
        start..start + self.dir[start..].partition_point(|e| e.node == d)
    }

    /// The connections of `entries`, list by list.
    fn connections<'a>(&'a self, entries: &'a [Factored]) -> impl Iterator<Item = Connection> + 'a {
        entries.iter().flat_map(|f| {
            let like = Connection { ctype: f.ctype, frag: f.frag, depth: f.depth, src: NodeId(0) };
            sources(&self.lists, f).iter().map(move |&src| Connection { src: NodeId(src), ..like })
        })
    }

    /// The block of one tree's pairs, `own`, sorted in frozen order: each
    /// `(d, signature)`'s sources unioned into one interned list.
    fn freeze(
        forest: &Forest,
        own: &[Stored],
        groups: &Groups,
        interner: &mut Interner,
    ) -> Arc<TreeBlock> {
        interner.clear();
        let entries = own.chunk_by(|a, b| (a.doc, a.kw) == (b.doc, b.kw));
        let mut dir = Vec::with_capacity(entries.clone().count());
        let mut len = 0;
        for entry in entries {
            let d = entry[0].doc;
            for one_frag in entry.chunk_by(|a, b| a.frag == b.frag) {
                let depth = forest
                    .structural_distance(d, one_frag[0].frag)
                    .expect("connection fragments are fragments of d")
                    .min(u8::MAX as u32) as u8;
                for run in one_frag.chunk_by(|a, b| a.ctype == b.ctype) {
                    let (list, single) = interner.intern(run, groups);
                    let (frag, ctype) = (run[0].frag, run[0].ctype);
                    let f = Factored { frag, list, ctype, depth, single };
                    len += sources(&interner.arena, &f).len();
                    interner.conns.push(f);
                }
            }
            let end =
                u32::try_from(interner.conns.len()).expect("a tree holds fewer than 2^32 entries");
            dir.push(DirEntry { node: d, kw: entry[0].kw, end });
        }
        let block =
            TreeBlock { dir, conns: interner.conns.clone(), lists: interner.arena.clone(), len };
        Arc::new(block)
    }
}

/// The frozen `con` index: one block per document tree, `Arc`-shared, so
/// an incremental rebuild keeps untouched trees by bumping a refcount
/// instead of copying them — the live `apply` path is O(touched) in
/// memory traffic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConnectionIndex {
    /// Per document node, its tree.
    tree_of: Vec<TreeId>,
    /// Per tree, its connections; trees without any share one empty block.
    trees: Vec<Arc<TreeBlock>>,
    /// Total number of stored tuples, one per source.
    total: usize,
}

impl ConnectionIndex {
    /// Build the index by running the §3.2 rules to fixpoint.
    ///
    /// `comments` maps a comment document's **root** node to the fragments
    /// it comments on (the `S3:commentsOn` edges).
    pub fn build(
        forest: &Forest,
        tags: &[TagInput],
        comments: &[(DocNodeId, DocNodeId)],
        doc_src_node: impl Fn(DocNodeId) -> NodeId,
    ) -> Self {
        let dead = Tombstones::default();
        let scope = Scope::all(forest, tags.len(), &dead);
        Self::build_scoped(forest, tags, comments, doc_src_node, &scope).0
    }

    /// Run the rules inside `scope` and freeze: in-scope trees get fresh
    /// blocks, every other tree shares its block with `scope.prev`.
    pub(crate) fn build_scoped(
        forest: &Forest,
        tags: &[TagInput],
        comments: &[(DocNodeId, DocNodeId)],
        doc_src_node: impl Fn(DocNodeId) -> NodeId,
        scope: &Scope<'_>,
    ) -> (Self, BuildCounters) {
        let num_nodes = u32::try_from(forest.num_nodes()).expect("document node ids are u32");
        assert!(
            u32::try_from(forest.num_nodes() + tags.len()).is_ok_and(|items| items < NO_ORIGIN),
            "document nodes and tags share one u32 item space"
        );
        let tag_item = |t: TagId| num_nodes + t.0;
        let mut set = Derivation::default();

        // What the rules look up (scoped tags and comments only; rules
        // never leave a component-closed scope).
        let (endorsements_on, groups) = endorsements(tags, scope, tag_item);
        set.counters.rule_firings += groups.tags.iter().map(|&n| u64::from(n)).sum::<u64>();
        let mut comment_targets: IdMap<u32, Vec<DocNodeId>> = IdMap::default();
        for &(root, target) in comments {
            if scope.docs.binary_search(&forest.tree_of(root)).is_ok() {
                comment_targets.entry(root.0).or_default().push(target);
            }
        }

        // The rules, run until nothing is pending. The order tuples are
        // taken in does not matter: the result is the least set closed
        // under the rules.
        let run_rules = |set: &mut Derivation| {
            while let Some(Derived { sig, src, first }) = set.pending.pop() {
                // Rules E and E′: endorsements on the item inherit the
                // signature, with the endorsers as source.
                if first {
                    let endorsers = endorsements_on.get(&sig.item).map_or(&[][..], Vec::as_slice);
                    for &(item, by) in endorsers {
                        set.derive(Signature { item, ..sig }, by);
                    }
                }
                if sig.item < num_nodes {
                    set.stored.push(Stored {
                        doc: DocNodeId(sig.item),
                        kw: sig.kw,
                        frag: DocNodeId(sig.frag),
                        ctype: sig.ctype,
                        src,
                    });
                    // Rule C: if the item is a comment root, its
                    // connections flow to the ancestors of the commented
                    // fragments as S3:commentsOn, source carried over.
                    // Only this rule makes commentsOn tuples and it writes
                    // a target's whole chain at once, so a tuple already
                    // at the target is already at every ancestor.
                    for &f0 in comment_targets.get(&sig.item).map_or(&[][..], Vec::as_slice) {
                        let at = |item: u32| Signature {
                            item,
                            frag: f0.0,
                            kw: sig.kw,
                            ctype: ConnType::CommentsOn,
                        };
                        if set.derive(at(f0.0), src) {
                            for anc in forest.ancestors(f0) {
                                set.derive(at(anc.0), src);
                            }
                        }
                    }
                } else {
                    // Rule T: the tag's connections flow to its subject.
                    match tags[(sig.item - num_nodes) as usize].subject {
                        TagSubject::Frag(f0) => {
                            for d in forest.ancestors_or_self(f0) {
                                // Use the originating fragment when it is
                                // a fragment of d (the paper's d0.5.1
                                // case), else the tagged fragment itself.
                                let origin_in_d = sig.frag != NO_ORIGIN
                                    && forest.is_ancestor_or_self(d, DocNodeId(sig.frag));
                                let frag = if origin_in_d { sig.frag } else { f0.0 };
                                let flowed = Signature {
                                    item: d.0,
                                    frag,
                                    kw: sig.kw,
                                    ctype: ConnType::RelatedTo,
                                };
                                set.derive(flowed, src);
                            }
                        }
                        TagSubject::Tag(b) => {
                            let lifted =
                                Signature { item: tag_item(b), ctype: ConnType::RelatedTo, ..sig };
                            set.derive(lifted, src);
                        }
                    }
                }
            }
        };

        // Out-of-scope trees keep their previous block by Arc-share (a
        // refcount bump, not a copy — the O(touched) memory-traffic
        // contract), and `total` is carried over from `prev` adjusted by
        // the in-scope trees' old and new counts only.
        let empty = Arc::new(TreeBlock::default());
        let mut trees = scope.prev.map_or_else(Vec::new, |p| p.trees.clone());
        trees.resize(forest.num_trees(), Arc::clone(&empty));
        let mut total = scope.prev.map_or(0, |p| p.total);

        // One content component at a time: derive, count and clear the
        // tables, freeze its trees' blocks. No tuple crosses components,
        // so the result is the one-pass fixpoint's, and the working sets
        // never hold more than the largest component's pairs.
        let num_docs = scope.docs.len();
        let components = components(forest, tags, comments, scope);
        let element = |x: &u64| *x as u32 as usize;
        let mut interner = Interner::default();
        let mut kws: Vec<KeywordId> = Vec::new();
        for component in components.chunk_by(|a, b| a >> 32 == b >> 32) {
            let split = component.partition_point(|x| element(x) < num_docs);
            let docs = component[..split].iter().map(|x| scope.docs[element(x)]);
            let component_tags =
                component[split..].iter().map(|x| scope.tags[element(x) - num_docs]);

            // Seed: keyword tags.
            for t in component_tags.filter(|&t| scope.dead.tag_alive(t)) {
                let tag = &tags[t.index()];
                if let Some(kw) = tag.keyword {
                    let frag = match tag.subject {
                        TagSubject::Frag(f) => f.0,
                        TagSubject::Tag(_) => NO_ORIGIN,
                    };
                    let sig = Signature { item: tag_item(t), frag, kw, ctype: ConnType::RelatedTo };
                    set.derive(sig, Source::Node(tag.author_node));
                }
            }
            run_rules(&mut set);

            // Seed: contains — every keyword occurrence, pushed to every
            // ancestor-or-self with itself as source; the rules run tree
            // by tree, while the tables a tree's tuples land in are warm.
            for tree in docs.clone().filter(|&t| scope.dead.tree_alive(t)) {
                for f in forest.tree_range(tree).map(|i| DocNodeId(i as u32)) {
                    kws.clear();
                    kws.extend_from_slice(forest.content(f));
                    kws.sort_unstable();
                    kws.dedup();
                    if kws.is_empty() {
                        continue;
                    }
                    for d in forest.ancestors_or_self(f) {
                        let src = Source::Node(doc_src_node(d));
                        for &kw in &kws {
                            let sig =
                                Signature { item: d.0, frag: f.0, kw, ctype: ConnType::Contains };
                            set.seed(sig, src);
                        }
                    }
                }
                run_rules(&mut set);
            }

            // Freeze: one block per tree of the component, |pos(d, f)|
            // recorded per entry. The tables go first, so the blocks can
            // take the memory they held.
            set.count_tag_tuples(num_nodes, &groups);
            set.sets.clear();
            set.stored.sort_unstable();
            let mut rest = set.stored.as_slice();
            for tree in docs {
                let range = forest.tree_range(tree);
                rest = &rest[rest.partition_point(|s| s.doc.index() < range.start)..];
                let (own, later) =
                    rest.split_at(rest.partition_point(|s| s.doc.index() < range.end));
                rest = later;
                let block = if own.is_empty() {
                    Arc::clone(&empty)
                } else {
                    TreeBlock::freeze(forest, own, &groups, &mut interner)
                };
                set.counters.tuples += block.len as u64;
                total = total - trees[tree.index()].len + block.len;
                trees[tree.index()] = block;
            }
            set.stored.clear();
        }
        let tree_of = (0..num_nodes).map(|i| forest.tree_of(DocNodeId(i))).collect();
        (ConnectionIndex { tree_of, trees, total }, set.counters)
    }

    fn block_of(&self, d: DocNodeId) -> &TreeBlock {
        &self.trees[self.tree_of[d.index()].index()]
    }

    /// `conDirect(d, k)`: connections of `d` for the *exact* keyword `k`,
    /// one `(frag, type)` list after the other, each list's sources
    /// ascending.
    ///
    /// Within one source, its tuples come in `(frag, type)` order, so a
    /// sum kept per source while `k` walks `Ext` in order adds the same
    /// terms in the same order however the sources interleave. The order
    /// across sources is unspecified; a sum across sources, as
    /// [`Self::smax_table_with`] takes, rounds as this order makes it.
    pub fn connections(&self, d: DocNodeId, k: KeywordId) -> impl Iterator<Item = Connection> + '_ {
        let block = self.block_of(d);
        let entries = match block.dir.binary_search_by_key(&(d, k), |e| (e.node, e.kw)) {
            Ok(entry) => block.span(entry),
            Err(_) => &[],
        };
        block.connections(entries)
    }

    /// The keywords `d` is connected to, ascending.
    pub fn keywords_of(&self, d: DocNodeId) -> impl Iterator<Item = KeywordId> + '_ {
        let block = self.block_of(d);
        block.dir[block.entries_of(d)].iter().map(|e| e.kw)
    }

    /// Total number of stored tuples, one per source.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no connection exists.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `Smax(k) = max_d Σ_{(t,f,src) ∈ conDirect(d,k)} η^{|pos(d,f)|}`, for
    /// every keyword: the structural-weight bound used by the S3k threshold
    /// (DESIGN.md §3.4). One pass over the index.
    pub fn smax_table(&self, eta: f64) -> HashMap<KeywordId, f64> {
        self.smax_table_with(|_, depth| eta.powi(depth as i32))
    }

    /// Generic form of [`Self::smax_table`] for arbitrary structural-weight
    /// functions (generic score models).
    pub fn smax_table_with(&self, weight: impl Fn(ConnType, u8) -> f64) -> HashMap<KeywordId, f64> {
        // Every weight a tuple can have, by depth and type, computed once.
        let types = [ConnType::Contains, ConnType::RelatedTo, ConnType::CommentsOn];
        let weights: Vec<[f64; 3]> =
            (0..=u8::MAX).map(|depth| types.map(|t| weight(t, depth))).collect();
        let mut out: HashMap<KeywordId, f64> = HashMap::new();
        for block in &self.trees {
            for (entry, e) in block.dir.iter().enumerate() {
                let connections = block.connections(block.span(entry));
                let s: f64 = connections.map(|c| weights[c.depth as usize][c.ctype as usize]).sum();
                let best = out.entry(e.kw).or_insert(0.0);
                if s > *best {
                    *best = s;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s3_doc::DocBuilder;
    use std::collections::VecDeque;

    /// Reconstruct the Figure 1 scenario:
    /// * d0 with fragments d0.3.2 (under d0.3) and d0.5.1 (under d0.5);
    /// * d2, posted by u3, comments on d0.3.2 and contains "university" in
    ///   its fragment d2.7.5;
    /// * u4 tags d0.5.1 with "university";
    /// * u5 endorses d0 with a keyword-less tag.
    struct Fig1 {
        forest: Forest,
        d0: DocNodeId,
        d0_3_2: DocNodeId,
        d0_5_1: DocNodeId,
        d2: DocNodeId,
        d2_7_5: DocNodeId,
        index: ConnectionIndex,
        university: KeywordId,
        u4_node: NodeId,
        u5_node: NodeId,
    }

    fn fig1() -> Fig1 {
        let university = KeywordId(0);
        let mut forest = Forest::new();
        let mut b0 = DocBuilder::new("article");
        let s3 = b0.child(b0.root(), "sec");
        let s3_2 = b0.child(s3, "p");
        let s5 = b0.child(b0.root(), "sec");
        let s5_1 = b0.child(s5, "p");
        let t0 = forest.add_document(b0);

        let mut b2 = DocBuilder::new("comment");
        let c7 = b2.child(b2.root(), "sec");
        let c7_5 = b2.child(c7, "p");
        b2.set_content(c7_5, vec![university]);
        let t2 = forest.add_document(b2);

        let d0 = forest.root(t0);
        let d0_3_2 = forest.resolve(t0, s3_2);
        let d0_5_1 = forest.resolve(t0, s5_1);
        let d2 = forest.root(t2);
        let d2_7_5 = forest.resolve(t2, c7_5);

        // Graph nodes: we only need stable ids for sources here; document
        // sources are identified by synthetic node ids derived from the doc
        // node, users by fixed ids.
        let u4_node = NodeId(1000);
        let u5_node = NodeId(1001);
        let tags = vec![
            TagInput {
                subject: TagSubject::Frag(d0_5_1),
                author_node: u4_node,
                keyword: Some(university),
            },
            TagInput { subject: TagSubject::Frag(d0), author_node: u5_node, keyword: None },
        ];
        let comments = vec![(d2, d0_3_2)];
        let index = ConnectionIndex::build(&forest, &tags, &comments, |d| NodeId(d.0));
        Fig1 { forest, d0, d0_3_2, d0_5_1, d2, d2_7_5, index, university, u4_node, u5_node }
    }

    #[test]
    fn contains_connection_with_ancestors() {
        // (S3:contains, d2.7.5, d2) ∈ con(d2, "university") — §3.2.
        let f = fig1();
        let conns = f.index.connections(f.d2, f.university).collect::<Vec<_>>();
        assert!(conns.iter().any(|c| c.ctype == ConnType::Contains
            && c.frag == f.d2_7_5
            && c.src == NodeId(f.d2.0)
            && c.depth == 2));
        // The fragment itself has a depth-0 contains connection.
        let own = f.index.connections(f.d2_7_5, f.university).collect::<Vec<_>>();
        assert!(own.iter().any(|c| c.ctype == ConnType::Contains && c.depth == 0));
    }

    #[test]
    fn tag_connection() {
        // u4's tag creates (S3:relatedTo, d0.5.1, u4) ∈ con(d0, "university").
        let f = fig1();
        let conns = f.index.connections(f.d0, f.university).collect::<Vec<_>>();
        assert!(conns.iter().any(|c| c.ctype == ConnType::RelatedTo
            && c.frag == f.d0_5_1
            && c.src == f.u4_node
            && c.depth == 2));
    }

    #[test]
    fn comment_connection_carries_source() {
        // d2 is connected to "university", d2 comments on d0.3.2 ⇒
        // (S3:commentsOn, d0.3.2, d2) ∈ con(d0, "university").
        let f = fig1();
        let conns = f.index.connections(f.d0, f.university).collect::<Vec<_>>();
        assert!(conns.iter().any(|c| c.ctype == ConnType::CommentsOn
            && c.frag == f.d0_3_2
            && c.src == NodeId(f.d2.0)
            && c.depth == 2));
    }

    #[test]
    fn endorsement_inherits_with_endorser_as_source() {
        // u5 endorses d0 ⇒ (S3:relatedTo, d0.5.1, u5) ∈ con(d0, "university")
        // — the paper's exact example.
        let f = fig1();
        let conns = f.index.connections(f.d0, f.university).collect::<Vec<_>>();
        assert!(conns
            .iter()
            .any(|c| c.ctype == ConnType::RelatedTo && c.frag == f.d0_5_1 && c.src == f.u5_node));
    }

    #[test]
    fn intermediate_ancestors_get_connections_too() {
        let f = fig1();
        // d0.3 (parent of d0.3.2) gets the comment connection at depth 1.
        let d0_3 = f.forest.parent(f.d0_3_2).unwrap();
        let conns = f.index.connections(d0_3, f.university).collect::<Vec<_>>();
        assert!(conns.iter().any(|c| c.ctype == ConnType::CommentsOn && c.depth == 1));
        // But d0.5 does not get it (d0.3.2 is not its fragment).
        let d0_5 = f.forest.parent(f.d0_5_1).unwrap();
        assert!(!f.index.connections(d0_5, f.university).any(|c| c.ctype == ConnType::CommentsOn));
    }

    #[test]
    fn higher_level_tags_reach_the_document() {
        // Tag b (keyword) on tag a (on fragment f): the document must gain
        // a relatedTo connection sourced at b's author (requirement R4).
        let kw = KeywordId(9);
        let mut forest = Forest::new();
        let t = forest.add_document(DocBuilder::new("doc"));
        let d = forest.root(t);
        let tags = vec![
            TagInput { subject: TagSubject::Frag(d), author_node: NodeId(500), keyword: None },
            TagInput {
                subject: TagSubject::Tag(TagId(0)),
                author_node: NodeId(501),
                keyword: Some(kw),
            },
        ];
        let index = ConnectionIndex::build(&forest, &tags, &[], |d| NodeId(d.0));
        let conns = index.connections(d, kw).collect::<Vec<_>>();
        assert!(
            conns.iter().any(|c| c.ctype == ConnType::RelatedTo && c.src == NodeId(501)),
            "higher-level tag keyword must reach the base document: {conns:?}"
        );
    }

    #[test]
    fn comment_chains_propagate_transitively() {
        // c2 comments on c1, c1 comments on d; a keyword in c2 must reach d.
        let kw = KeywordId(3);
        let mut forest = Forest::new();
        let td = forest.add_document(DocBuilder::new("doc"));
        let tc1 = forest.add_document(DocBuilder::new("c1"));
        let mut b2 = DocBuilder::new("c2");
        b2.set_content(b2.root(), vec![kw]);
        let tc2 = forest.add_document(b2);
        let (d, c1, c2) = (forest.root(td), forest.root(tc1), forest.root(tc2));
        let comments = vec![(c1, d), (c2, c1)];
        let index = ConnectionIndex::build(&forest, &[], &comments, |x| NodeId(x.0));
        let conns = index.connections(d, kw).collect::<Vec<_>>();
        assert!(
            conns.iter().any(|c| c.ctype == ConnType::CommentsOn && c.src == NodeId(c2.0)),
            "comment chains must carry sources transitively: {conns:?}"
        );
    }

    #[test]
    fn smax_table_is_a_max_of_structural_sums() {
        let f = fig1();
        let eta = 0.5;
        let smax = f.index.smax_table(eta);
        let s = smax[&f.university];
        // d0 has three depth-2 connections (tag, endorsement, comment) →
        // 3·η²; d2 has contains at depths 2/1/0 → η²+η+1 = 1.75 (itself,
        // via ancestors d2.7 and d2.7.5's own entries are on those nodes).
        // The max over all docs must dominate every per-doc sum.
        for idx in 0..f.forest.num_nodes() {
            let d = DocNodeId(idx as u32);
            let sum: f64 =
                f.index.connections(d, f.university).map(|c| eta.powi(c.depth as i32)).sum();
            assert!(s + 1e-12 >= sum, "smax violated at {d}");
        }
        assert!(s > 0.0);
    }

    #[test]
    fn endorsement_fixpoint_terminates_on_cycles() {
        // Two endorsements on the same doc plus a keyword tag: the
        // inherit/push-back cycle must terminate via deduplication.
        let kw = KeywordId(1);
        let mut forest = Forest::new();
        let t = forest.add_document(DocBuilder::new("doc"));
        let d = forest.root(t);
        let tags = vec![
            TagInput { subject: TagSubject::Frag(d), author_node: NodeId(600), keyword: None },
            TagInput { subject: TagSubject::Frag(d), author_node: NodeId(601), keyword: None },
            TagInput { subject: TagSubject::Frag(d), author_node: NodeId(602), keyword: Some(kw) },
        ];
        let index = ConnectionIndex::build(&forest, &tags, &[], |x| NodeId(x.0));
        let conns = index.connections(d, kw).collect::<Vec<_>>();
        // Original tag + both endorsers as sources.
        let srcs: HashSet<NodeId> = conns.iter().map(|c| c.src).collect();
        assert!(srcs.contains(&NodeId(600)));
        assert!(srcs.contains(&NodeId(601)));
        assert!(srcs.contains(&NodeId(602)));
    }

    #[test]
    fn empty_instance() {
        let forest = Forest::new();
        let index = ConnectionIndex::build(&forest, &[], &[], |x| NodeId(x.0));
        assert!(index.is_empty());
    }

    // ---- The differential oracle: the tuple-at-a-time worklist this
    // module used before, kept verbatim (fixpoint, freeze and encoding). ----

    /// The index in the oracle's layout: one keyword map per document node.
    struct Reference {
        per_doc: Vec<Arc<HashMap<KeywordId, Vec<Connection>>>>,
        total: usize,
        /// Distinct tuples derived, at documents and at tags.
        distinct: usize,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct TagConn {
        ctype: ConnType,
        origin_frag: Option<DocNodeId>,
        src: NodeId,
        kw: KeywordId,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct DocConn {
        ctype: ConnType,
        frag: DocNodeId,
        src: NodeId,
        kw: KeywordId,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Item {
        Doc(DocNodeId),
        Tag(TagId),
    }

    #[allow(clippy::too_many_arguments)] // verbatim
    fn reference_build(
        forest: &Forest,
        tags: &[TagInput],
        comments: &[(DocNodeId, DocNodeId)],
        doc_src_node: impl Fn(DocNodeId) -> NodeId,
        doc_in_scope: impl Fn(DocNodeId) -> bool,
        tag_in_scope: impl Fn(TagId) -> bool,
        doc_alive: impl Fn(DocNodeId) -> bool,
        tag_alive: impl Fn(TagId) -> bool,
        prev: Option<&Reference>,
    ) -> Reference {
        let n = forest.num_nodes();
        let mut doc_sets: Vec<HashSet<DocConn>> = vec![HashSet::new(); n];
        let mut tag_sets: Vec<HashSet<TagConn>> = vec![HashSet::new(); tags.len()];

        // Lookup structures for the propagation rules (scoped tags and
        // comments only; rules never leave a component-closed scope).
        let mut endorsements_on_frag: HashMap<DocNodeId, Vec<TagId>> = HashMap::new();
        let mut endorsements_on_tag: HashMap<TagId, Vec<TagId>> = HashMap::new();
        for (i, t) in tags.iter().enumerate() {
            if !tag_in_scope(TagId(i as u32)) || !tag_alive(TagId(i as u32)) {
                continue;
            }
            if t.keyword.is_none() {
                match t.subject {
                    TagSubject::Frag(f) => {
                        endorsements_on_frag.entry(f).or_default().push(TagId(i as u32))
                    }
                    TagSubject::Tag(b) => {
                        endorsements_on_tag.entry(b).or_default().push(TagId(i as u32))
                    }
                }
            }
        }
        let mut comments_of_root: HashMap<DocNodeId, Vec<DocNodeId>> = HashMap::new();
        for &(root, target) in comments {
            if doc_in_scope(root) {
                comments_of_root.entry(root).or_default().push(target);
            }
        }

        let mut queue: VecDeque<(Item, DocConn, Option<TagConn>)> = VecDeque::new();

        // Seed 1: contains — every keyword occurrence, pushed to every
        // ancestor-or-self with itself as source.
        for idx in 0..n {
            let f = DocNodeId(idx as u32);
            if forest.content(f).is_empty() || !doc_in_scope(f) || !doc_alive(f) {
                continue;
            }
            let kws: Vec<KeywordId> = {
                let mut v = forest.content(f).to_vec();
                v.sort_unstable();
                v.dedup();
                v
            };
            for d in forest.ancestors_or_self(f) {
                for &kw in &kws {
                    let conn =
                        DocConn { ctype: ConnType::Contains, frag: f, src: doc_src_node(d), kw };
                    if doc_sets[d.index()].insert(conn) {
                        queue.push_back((Item::Doc(d), conn, None));
                    }
                }
            }
        }

        // Seed 2: keyword tags.
        for (i, t) in tags.iter().enumerate() {
            if !tag_in_scope(TagId(i as u32)) || !tag_alive(TagId(i as u32)) {
                continue;
            }
            if let Some(kw) = t.keyword {
                let origin = match t.subject {
                    TagSubject::Frag(f) => Some(f),
                    TagSubject::Tag(_) => None,
                };
                let conn = TagConn {
                    ctype: ConnType::RelatedTo,
                    origin_frag: origin,
                    src: t.author_node,
                    kw,
                };
                if tag_sets[i].insert(conn) {
                    queue.push_back((
                        Item::Tag(TagId(i as u32)),
                        DocConn {
                            ctype: conn.ctype,
                            frag: DocNodeId(0),
                            src: conn.src,
                            kw: conn.kw,
                        },
                        Some(conn),
                    ));
                }
            }
        }

        // Fixpoint.
        while let Some((item, dconn, tconn)) = queue.pop_front() {
            match item {
                Item::Doc(d) => {
                    // Rule E: endorsements on d inherit its connections,
                    // with the endorser as source.
                    if let Some(endorsers) = endorsements_on_frag.get(&d) {
                        for &a in endorsers {
                            let inherited = TagConn {
                                ctype: dconn.ctype,
                                origin_frag: Some(dconn.frag),
                                src: tags[a.index()].author_node,
                                kw: dconn.kw,
                            };
                            if tag_sets[a.index()].insert(inherited) {
                                queue.push_back((Item::Tag(a), dconn, Some(inherited)));
                            }
                        }
                    }
                    // Rule C: if d is a comment root, its connections flow
                    // to the ancestors of the commented fragments as
                    // S3:commentsOn, source carried over.
                    if let Some(targets) = comments_of_root.get(&d) {
                        for &f0 in targets {
                            for anc in forest.ancestors_or_self(f0) {
                                let conn = DocConn {
                                    ctype: ConnType::CommentsOn,
                                    frag: f0,
                                    src: dconn.src,
                                    kw: dconn.kw,
                                };
                                if doc_sets[anc.index()].insert(conn) {
                                    queue.push_back((Item::Doc(anc), conn, None));
                                }
                            }
                        }
                    }
                }
                Item::Tag(a) => {
                    let tconn = tconn.expect("tag items carry their tag connection");
                    // Rule E': endorsements on the tag inherit.
                    if let Some(endorsers) = endorsements_on_tag.get(&a) {
                        for &b in endorsers {
                            let inherited = TagConn { src: tags[b.index()].author_node, ..tconn };
                            if tag_sets[b.index()].insert(inherited) {
                                queue.push_back((Item::Tag(b), dconn, Some(inherited)));
                            }
                        }
                    }
                    // Rule T: the tag's connections flow to its subject.
                    match tags[a.index()].subject {
                        TagSubject::Frag(f0) => {
                            for d in forest.ancestors_or_self(f0) {
                                // Use the originating fragment when it is a
                                // fragment of d (the paper's d0.5.1 case),
                                // else the tagged fragment itself.
                                let frag = match tconn.origin_frag {
                                    Some(g) if forest.is_ancestor_or_self(d, g) => g,
                                    _ => f0,
                                };
                                let conn = DocConn {
                                    ctype: ConnType::RelatedTo,
                                    frag,
                                    src: tconn.src,
                                    kw: tconn.kw,
                                };
                                if doc_sets[d.index()].insert(conn) {
                                    queue.push_back((Item::Doc(d), conn, None));
                                }
                            }
                        }
                        TagSubject::Tag(b) => {
                            let lifted = TagConn { ctype: ConnType::RelatedTo, ..tconn };
                            if tag_sets[b.index()].insert(lifted) {
                                queue.push_back((Item::Tag(b), dconn, Some(lifted)));
                            }
                        }
                    }
                }
            }
        }

        let distinct = doc_sets.iter().map(HashSet::len).sum::<usize>()
            + tag_sets.iter().map(HashSet::len).sum::<usize>();

        // Freeze: group per (doc, keyword), record |pos(d, f)| per tuple.
        // Out-of-scope documents keep their previous entries by Arc-share
        // (a refcount bump, not a copy — the O(touched) memory-traffic
        // contract), and `total` is carried over from `prev` adjusted by
        // the in-scope documents' old and new counts only.
        let mut per_doc: Vec<Arc<HashMap<KeywordId, Vec<Connection>>>> = Vec::with_capacity(n);
        let mut total = prev.map_or(0, |p| p.total);
        for (idx, set) in doc_sets.into_iter().enumerate() {
            let d = DocNodeId(idx as u32);
            if !doc_in_scope(d) {
                let prev = prev.expect("scoped builds carry the previous index");
                per_doc.push(Arc::clone(&prev.per_doc[idx]));
                continue;
            }
            if let Some(prev) = prev.filter(|p| idx < p.per_doc.len()) {
                total -= prev.per_doc[idx].values().map(Vec::len).sum::<usize>();
            }
            let mut map: HashMap<KeywordId, Vec<Connection>> = HashMap::new();
            for c in set {
                let depth = forest
                    .structural_distance(d, c.frag)
                    .expect("connection fragments are fragments of d")
                    .min(u8::MAX as u32) as u8;
                map.entry(c.kw).or_default().push(Connection {
                    ctype: c.ctype,
                    frag: c.frag,
                    depth,
                    src: c.src,
                });
                total += 1;
            }
            for v in map.values_mut() {
                v.sort_unstable_by_key(|c| (c.frag, c.ctype, c.src));
            }
            per_doc.push(Arc::new(map));
        }
        Reference { per_doc, total, distinct }
    }

    // ---- Random corpora for the differential properties. ----

    const AUTHORS: u32 = 4;
    const KEYWORDS: u32 = 4;

    /// A corpus grown in two phases, like a frozen instance and one ingest
    /// batch on top of it: `base` is the forest/tag/comment prefix the
    /// first phase produced.
    struct Corpus {
        forest: Forest,
        tags: Vec<TagInput>,
        comments: Vec<(DocNodeId, DocNodeId)>,
        base_forest: Forest,
        base_tags: usize,
        base_comments: usize,
    }

    /// One growth phase: trees of depth ≤ 3 with duplicate-prone content,
    /// keyword tags and endorsements on fragments and on tags (R4; any
    /// tag, so subject cycles occur), comments between any two trees (so
    /// chains and cycles occur).
    fn grow(rng: &mut StdRng, c: &mut Corpus) {
        for _ in 0..rng.gen_range(1..=4usize) {
            let mut b = DocBuilder::new("doc");
            let mut nodes = vec![(b.root(), 0u32)];
            for _ in 0..rng.gen_range(0..=5usize) {
                let (parent, depth) = nodes[rng.gen_range(0..nodes.len())];
                if depth < 3 {
                    nodes.push((b.child(parent, "frag"), depth + 1));
                }
            }
            for &(node, _) in &nodes {
                let content =
                    (0..rng.gen_range(0..=2u32)).map(|_| KeywordId(rng.gen_range(0..KEYWORDS)));
                b.set_content(node, content.collect());
            }
            c.forest.add_document(b);
        }
        let num_nodes = c.forest.num_nodes() as u32;
        for _ in 0..rng.gen_range(0..=8usize) {
            let subject = if !c.tags.is_empty() && rng.gen_bool(0.3) {
                TagSubject::Tag(TagId(rng.gen_range(0..c.tags.len() as u32)))
            } else {
                TagSubject::Frag(DocNodeId(rng.gen_range(0..num_nodes)))
            };
            c.tags.push(TagInput {
                subject,
                author_node: NodeId(1000 + rng.gen_range(0..AUTHORS)),
                keyword: rng.gen_bool(0.4).then(|| KeywordId(rng.gen_range(0..KEYWORDS))),
            });
        }
        for _ in 0..rng.gen_range(0..=3usize) {
            let root = c.forest.root(TreeId(rng.gen_range(0..c.forest.num_trees() as u32)));
            c.comments.push((root, DocNodeId(rng.gen_range(0..num_nodes))));
        }
    }

    fn random_corpus(rng: &mut StdRng) -> Corpus {
        let mut c = Corpus {
            forest: Forest::new(),
            tags: Vec::new(),
            comments: Vec::new(),
            base_forest: Forest::new(),
            base_tags: 0,
            base_comments: 0,
        };
        grow(rng, &mut c);
        c.base_forest = c.forest.clone();
        c.base_tags = c.tags.len();
        c.base_comments = c.comments.len();
        grow(rng, &mut c);
        c
    }

    fn random_tombstones(rng: &mut StdRng, trees: usize, tags: usize) -> Tombstones {
        let mut dead = Tombstones::default();
        dead.trees.extend((0..trees as u32).map(TreeId).filter(|_| rng.gen_bool(0.15)));
        dead.tags.extend((0..tags as u32).map(TagId).filter(|_| rng.gen_bool(0.15)));
        dead
    }

    /// The comment edges a builder holding `dead` still has.
    fn live_comments(
        forest: &Forest,
        comments: &[(DocNodeId, DocNodeId)],
        dead: &Tombstones,
    ) -> Vec<(DocNodeId, DocNodeId)> {
        let alive = |d: DocNodeId| dead.tree_alive(forest.tree_of(d));
        comments.iter().copied().filter(|&(root, target)| alive(root) && alive(target)).collect()
    }

    fn src_of(d: DocNodeId) -> NodeId {
        NodeId(d.0)
    }

    fn reference_cold(
        forest: &Forest,
        tags: &[TagInput],
        comments: &[(DocNodeId, DocNodeId)],
        dead: &Tombstones,
    ) -> Reference {
        reference_build(
            forest,
            tags,
            comments,
            src_of,
            |_| true,
            |_| true,
            |d| dead.doc_alive(forest, d),
            |t| dead.tag_alive(t),
            None,
        )
    }

    /// Per-document entries, keywords and `len()` agree with the oracle.
    fn check_same(index: &ConnectionIndex, reference: &Reference) -> TestCaseResult {
        prop_assert_eq!(index.len(), reference.total);
        prop_assert_eq!(index.is_empty(), reference.total == 0);
        for (idx, map) in reference.per_doc.iter().enumerate() {
            let d = DocNodeId(idx as u32);
            let mut kws: Vec<KeywordId> = map.keys().copied().collect();
            kws.sort_unstable();
            prop_assert_eq!(index.keywords_of(d).collect::<Vec<_>>(), kws, "keywords of {}", d);
            for (&kw, conns) in map.iter() {
                prop_assert_eq!(
                    index.connections(d, kw).collect::<Vec<_>>(),
                    conns.clone(),
                    "con({}, {:?})",
                    d,
                    kw
                );
            }
            prop_assert!(index.connections(d, KeywordId(KEYWORDS)).next().is_none());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        /// A cold build equals the oracle's, tombstones included, and the
        /// `tuples` counter is the oracle's distinct-tuple count.
        #[test]
        fn cold_build_equals_the_worklist_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_corpus(&mut rng);
            let dead = random_tombstones(&mut rng, c.forest.num_trees(), c.tags.len());
            let comments = live_comments(&c.forest, &c.comments, &dead);
            let reference = reference_cold(&c.forest, &c.tags, &comments, &dead);
            let scope = Scope::all(&c.forest, c.tags.len(), &dead);
            let (index, counters) =
                ConnectionIndex::build_scoped(&c.forest, &c.tags, &comments, src_of, &scope);
            check_same(&index, &reference)?;
            prop_assert_eq!(counters.tuples as usize, reference.distinct);
            prop_assert!(counters.rule_firings >= counters.pairs);
            if dead.trees.is_empty() && dead.tags.is_empty() {
                let public = ConnectionIndex::build(&c.forest, &c.tags, &comments, src_of);
                check_same(&public, &reference)?;
            }
        }

        /// `Smax` equals, bit for bit, the max over documents of the
        /// oracle's per-`(d, k)` sums, each taken in the oracle's order,
        /// under a type-weighted weight whose sums round differently in
        /// different orders.
        #[test]
        fn smax_is_the_max_of_the_oracle_sums(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_corpus(&mut rng);
            let dead = random_tombstones(&mut rng, c.forest.num_trees(), c.tags.len());
            let comments = live_comments(&c.forest, &c.comments, &dead);
            let reference = reference_cold(&c.forest, &c.tags, &comments, &dead);
            let scope = Scope::all(&c.forest, c.tags.len(), &dead);
            let (index, _) =
                ConnectionIndex::build_scoped(&c.forest, &c.tags, &comments, src_of, &scope);
            let weight = |t: ConnType, depth: u8| [1.0, 0.8, 0.6][t as usize] * 0.7f64.powi(depth.into());
            let mut expected: HashMap<KeywordId, f64> = HashMap::new();
            for (&kw, conns) in reference.per_doc.iter().flat_map(|map| map.iter()) {
                let sum: f64 = conns.iter().map(|c| weight(c.ctype, c.depth)).sum();
                let best = expected.entry(kw).or_insert(0.0);
                *best = best.max(sum);
            }
            let bits = |table: HashMap<KeywordId, f64>| {
                let mut bits: Vec<_> = table.into_iter().map(|(kw, s)| (kw, s.to_bits())).collect();
                bits.sort_unstable();
                bits
            };
            prop_assert_eq!(bits(index.smax_table_with(weight)), bits(expected));
        }

        /// A rebuild scoped to the content components an ingest batch
        /// touched (appended trees/tags/comments, new tombstones) equals
        /// both a cold oracle build of the new state and the oracle's own
        /// scoped rebuild, and shares every untouched tree's block.
        #[test]
        fn scoped_rebuild_equals_a_cold_build(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_corpus(&mut rng);
            let (trees, base_trees) = (c.forest.num_trees(), c.base_forest.num_trees());

            // Before: the first phase, with some tombstones.
            let dead0 = random_tombstones(&mut rng, base_trees, c.base_tags);
            let comments0 = live_comments(&c.base_forest, &c.comments[..c.base_comments], &dead0);
            let tags0 = &c.tags[..c.base_tags];
            let prev_reference = reference_cold(&c.base_forest, tags0, &comments0, &dead0);
            let scope0 = Scope::all(&c.base_forest, c.base_tags, &dead0);
            let (prev, _) =
                ConnectionIndex::build_scoped(&c.base_forest, tags0, &comments0, src_of, &scope0);

            // After: everything, with more tombstones.
            let mut dead1 = random_tombstones(&mut rng, trees, c.tags.len());
            dead1.trees.extend(dead0.trees.iter().copied());
            dead1.tags.extend(dead0.tags.iter().copied());
            let comments1 = live_comments(&c.forest, &c.comments, &dead1);

            // Content components over trees and tags, tombstones ignored:
            // coarser than either state's, hence closed in both.
            let tag_item = |t: TagId| trees + t.index();
            let mut comp: Vec<usize> = (0..trees + c.tags.len()).collect();
            let mut unite = |a: usize, b: usize| {
                let (from, to) = (comp[a], comp[b]);
                comp.iter_mut().filter(|x| **x == from).for_each(|x| *x = to);
            };
            let tree_of = |d: DocNodeId| c.forest.tree_of(d).index();
            for (i, t) in c.tags.iter().enumerate() {
                unite(tag_item(TagId(i as u32)), match t.subject {
                    TagSubject::Frag(f) => tree_of(f),
                    TagSubject::Tag(b) => tag_item(b),
                });
            }
            for &(root, target) in &c.comments {
                unite(tree_of(root), tree_of(target));
            }

            // Touched: what the batch added or killed, plus bystanders.
            let mut touched: HashSet<usize> = HashSet::new();
            touched.extend((base_trees..trees).map(|t| comp[t]));
            touched.extend((c.base_tags..c.tags.len()).map(|t| comp[trees + t]));
            touched.extend(c.comments[c.base_comments..].iter().map(|&(root, _)| comp[tree_of(root)]));
            touched.extend(dead1.trees.difference(&dead0.trees).map(|t| comp[t.index()]));
            touched.extend(dead1.tags.difference(&dead0.tags).map(|&t| comp[tag_item(t)]));
            touched.extend((0..trees).filter(|_| rng.gen_bool(0.2)).map(|t| comp[t]));
            let doc_in_scope = |d: DocNodeId| touched.contains(&comp[tree_of(d)]);
            let tag_in_scope = |t: TagId| touched.contains(&comp[tag_item(t)]);

            let scope = Scope {
                docs: c.forest.trees().filter(|&t| doc_in_scope(c.forest.root(t))).collect(),
                tags: (0..c.tags.len() as u32).map(TagId).filter(|&t| tag_in_scope(t)).collect(),
                dead: &dead1,
                prev: Some(&prev),
            };
            let (index, _) =
                ConnectionIndex::build_scoped(&c.forest, &c.tags, &comments1, src_of, &scope);

            check_same(&index, &reference_cold(&c.forest, &c.tags, &comments1, &dead1))?;
            let scoped_reference = reference_build(
                &c.forest,
                &c.tags,
                &comments1,
                src_of,
                doc_in_scope,
                tag_in_scope,
                |d| dead1.doc_alive(&c.forest, d),
                |t| dead1.tag_alive(t),
                Some(&prev_reference),
            );
            check_same(&index, &scoped_reference)?;
            for t in (0..base_trees).filter(|&t| scope.docs.binary_search(&TreeId(t as u32)).is_err()) {
                prop_assert!(Arc::ptr_eq(&index.trees[t], &prev.trees[t]), "tree {} was copied", t);
            }
        }
    }

    /// The fixpoint's work on one fixed corpus, cold and scoped to the
    /// components its second phase touched. Each rule fires once per
    /// first-seen signature or new tuple, so these counts do not depend
    /// on the order the build visits items in.
    #[test]
    fn build_counters_are_pinned() {
        let mut rng = StdRng::seed_from_u64(6);
        let c = random_corpus(&mut rng);
        let dead = Tombstones::default();
        let scope = Scope::all(&c.forest, c.tags.len(), &dead);
        let (_, cold) =
            ConnectionIndex::build_scoped(&c.forest, &c.tags, &c.comments, src_of, &scope);
        assert_eq!(cold, BuildCounters { tuples: 177, pairs: 185, rule_firings: 255 });

        let tags0 = &c.tags[..c.base_tags];
        let comments0 = &c.comments[..c.base_comments];
        let scope0 = Scope::all(&c.base_forest, c.base_tags, &dead);
        let (prev, _) =
            ConnectionIndex::build_scoped(&c.base_forest, tags0, comments0, src_of, &scope0);
        // Content components over trees, then tags.
        let trees = c.forest.num_trees();
        let mut comp: Vec<usize> = (0..trees + c.tags.len()).collect();
        let mut unite = |a: usize, b: usize| {
            let (from, to) = (comp[a], comp[b]);
            comp.iter_mut().filter(|x| **x == from).for_each(|x| *x = to);
        };
        let tree_of = |d: DocNodeId| c.forest.tree_of(d).index();
        for (i, t) in c.tags.iter().enumerate() {
            unite(
                trees + i,
                match t.subject {
                    TagSubject::Frag(f) => tree_of(f),
                    TagSubject::Tag(b) => trees + b.index(),
                },
            );
        }
        for &(root, target) in &c.comments {
            unite(tree_of(root), tree_of(target));
        }
        let mut touched: HashSet<usize> = HashSet::new();
        touched.extend((c.base_forest.num_trees()..trees).map(|t| comp[t]));
        touched.extend((c.base_tags..c.tags.len()).map(|t| comp[trees + t]));
        touched.extend(c.comments[c.base_comments..].iter().map(|&(root, _)| comp[tree_of(root)]));
        let scope = Scope {
            docs: c.forest.trees().filter(|t| touched.contains(&comp[t.index()])).collect(),
            tags: (0..c.tags.len() as u32)
                .map(TagId)
                .filter(|t| touched.contains(&comp[trees + t.index()]))
                .collect(),
            dead: &dead,
            prev: Some(&prev),
        };
        assert_eq!((scope.docs.len(), trees), (5, 6));
        let (_, scoped) =
            ConnectionIndex::build_scoped(&c.forest, &c.tags, &c.comments, src_of, &scope);
        assert_eq!(scoped, BuildCounters { tuples: 116, pairs: 124, rule_firings: 162 });
    }

    /// The clock-free linearity gate: a retweet cascade — one document, `E`
    /// endorsers, every second one endorsing the previous endorser's tag —
    /// costs a bounded number of insert attempts per tuple it derives.
    /// (Re-firing rule E per source grows ∝ E² here.) Every endorsed tag
    /// has one endorser, so each group is of one and the pairs are the
    /// tuples; the firings count each endorser joining its group too.
    #[test]
    fn a_retweet_cascade_costs_what_it_derives() {
        for (endorsers, tuples, firings) in [(8u32, 118, 154), (64, 902, 1190), (512, 7174, 9478)] {
            let mut forest = Forest::new();
            let mut b = DocBuilder::new("tweet");
            b.set_content(b.root(), vec![KeywordId(0), KeywordId(1)]);
            let text = b.child(b.root(), "text");
            b.set_content(text, vec![KeywordId(1), KeywordId(2)]);
            let tree = forest.add_document(b);
            let d = forest.root(tree);
            let tags: Vec<TagInput> = (0..endorsers)
                .map(|i| TagInput {
                    subject: if i % 2 == 0 {
                        TagSubject::Frag(d)
                    } else {
                        TagSubject::Tag(TagId(i - 1))
                    },
                    author_node: NodeId(1000 + i),
                    keyword: None,
                })
                .collect();
            let dead = Tombstones::default();
            let scope = Scope::all(&forest, tags.len(), &dead);
            let (index, counters) =
                ConnectionIndex::build_scoped(&forest, &tags, &[], src_of, &scope);
            assert!(counters.rule_firings <= 4 * counters.tuples, "E = {endorsers}: {counters:?}");
            assert_eq!(counters, BuildCounters { tuples, pairs: tuples, rule_firings: firings });
            // Every endorser sources every one of the root's four
            // (fragment, keyword) occurrences, next to the contains tuples.
            assert_eq!(index.len(), 4 * (1 + endorsers as usize) + 2, "E = {endorsers}");
            assert_eq!(index.connections(d, KeywordId(0)).count(), 1 + endorsers as usize);
            let reference = reference_cold(&forest, &tags, &[], &dead);
            assert_eq!(counters.tuples as usize, reference.distinct);
            check_same(&index, &reference).expect("the cascade equals the oracle");
        }
    }

    /// The clock-free factoring gate: one tweet with `S` keywords and `E`
    /// plain retweets. The retweets derive as one group, so raising `E`
    /// costs one firing per retweet joining it, whatever `S` is (one tuple
    /// per retweet and signature made it grow ∝ `S`), and the tweet's block
    /// stores the retweeters' list once, not once per signature.
    #[test]
    fn a_retweet_costs_the_same_at_any_signature_count() {
        let build = |keywords: u32, endorsers: u32| {
            let mut forest = Forest::new();
            let mut b = DocBuilder::new("tweet");
            let text = b.child(b.root(), "text");
            // Past `KEYWORDS`, which `check_same` probes as absent.
            b.set_content(text, (0..keywords).map(|k| KeywordId(KEYWORDS + 1 + k)).collect());
            let tree = forest.add_document(b);
            let d = forest.root(tree);
            let tags: Vec<TagInput> = (0..endorsers)
                .map(|i| TagInput {
                    subject: TagSubject::Frag(d),
                    author_node: NodeId(1000 + i),
                    keyword: None,
                })
                .collect();
            let dead = Tombstones::default();
            let scope = Scope::all(&forest, tags.len(), &dead);
            let (index, counters) =
                ConnectionIndex::build_scoped(&forest, &tags, &[], src_of, &scope);
            let reference = reference_cold(&forest, &tags, &[], &dead);
            check_same(&index, &reference).expect("the retweets equal the oracle");
            assert_eq!(counters.tuples as usize, reference.distinct);
            // The block's entries and list words.
            let block = index.block_of(d);
            (counters.rule_firings, block.conns.len() + block.lists.len())
        };
        let few = [2, 16].map(|s| build(s, 8));
        let many = [2, 16].map(|s| build(s, 64));
        assert_eq!(many[0].0 - few[0].0, 56, "S = 2: {few:?} → {many:?}");
        assert_eq!(many[1].0 - few[1].0, 56, "S = 16: {few:?} → {many:?}");
        // The retweeters' list is stored once per tree: 56 more sources.
        assert_eq!(many[0].1 - few[0].1, 56);
        assert_eq!(many[1].1 - few[1].1, 56);
    }
}
