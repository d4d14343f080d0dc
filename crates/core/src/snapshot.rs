//! Durable, versioned snapshots of an [`InstanceBuilder`] — the
//! warm-restart format behind the live engines.
//!
//! # File layout
//!
//! ```text
//! ┌──────────┬─────────┬───────┬──────────────────────────────────────┐
//! │ magic 8B │ ver u16 │ crc32 │ payload = block(builder state)       │
//! └──────────┴─────────┴───────┴──────────────────────────────────────┘
//! ```
//!
//! The **builder block** persists the replayable source of truth: the
//! language + vocabulary, the *unsaturated* RDF store, the document
//! forest, and the raw entity/edge lists plus the `BuildEvent` log that
//! [`crate::instance`]'s `build_graph` replays to number graph nodes.
//! Restoring it yields a builder that accepts further
//! [`crate::IngestBatch`]es exactly as the saved one would — the
//! load-snapshot-then-replay-WAL-tail recovery path.
//!
//! Nothing derived is stored: the saturated RDF store, the social graph
//! and the `con(d,k)` index are pure functions of the builder, so a load
//! is decode + [`InstanceBuilder::snapshot`] (a cold build). The file is
//! therefore a function of the builder alone — the same event log writes
//! the same bytes whatever ingest history produced the live instance.
//!
//! Loading is panic-free: wrong magic, wrong version, any flipped or
//! missing byte, or any structurally inconsistent value yields a
//! [`SnapError`], never a panic and never a silently wrong instance (the
//! payload is covered by a CRC-32, and every decoded index is validated
//! before the cold build sees it).

use crate::ids::{TagId, TagSubject, UserId};
use crate::instance::{BuildEvent, InstanceBuilder, PendingTag, S3Instance, Tombstones};
use s3_doc::{DocNodeId, Forest, TreeId};
use s3_rdf::{TripleStore, UriId};
use s3_snap::{put_block, Codec, SnapError, SnapReader};
use s3_text::{Analyzer, Language, Vocabulary};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"S3KSNAP\0";

/// Version of the snapshot format this build writes and reads. Any change
/// to the payload encoding must bump it; any other version is a hard
/// load error ([`SnapError::Version`]). Version 3 dropped the derived
/// block versions 1–2 carried after the builder block.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Serialize a builder into the snapshot format.
///
/// `instance` must be the builder's latest frozen snapshot (the pair the
/// live engines maintain); the entity counts are asserted to agree. Only
/// the builder is written — the instance is rebuilt from it on load.
pub fn write_snapshot(builder: &InstanceBuilder, instance: &S3Instance) -> Vec<u8> {
    assert_eq!(
        builder.forest.num_nodes(),
        instance.forest().num_nodes(),
        "snapshot requires the builder and instance to be in sync"
    );
    assert_eq!(builder.num_users as usize, instance.num_users(), "user counts out of sync");
    assert_eq!(builder.tags.len(), instance.num_tags(), "tag counts out of sync");

    let mut payload = Vec::new();
    put_block(&mut payload, |out| builder.encode(out));

    let mut bytes = Vec::with_capacity(payload.len() + 14);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&s3_snap::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Decode a snapshot produced by [`write_snapshot`] and cold-build its
/// instance. Never panics on malformed input; every rejection is a
/// descriptive [`SnapError`].
pub fn read_snapshot(bytes: &[u8]) -> Result<(InstanceBuilder, S3Instance), SnapError> {
    if bytes.len() < 14 {
        return Err(SnapError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapError::Version(version));
    }
    let crc = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
    let payload = &bytes[14..];
    if s3_snap::crc32(payload) != crc {
        return Err(SnapError::Checksum);
    }

    let mut r = SnapReader::new(payload);
    let mut builder_block = r.block()?;
    let builder = InstanceBuilder::decode(&mut builder_block)?;
    builder_block.finish()?;
    r.finish()?;

    let instance = builder.snapshot();
    Ok((builder, instance))
}

/// [`write_snapshot`] to a file, atomically: the bytes land in a
/// temporary sibling first, are fsynced, and replace `path` by rename
/// (with a directory fsync), so a crash mid-save never clobbers the
/// previous snapshot with a torn one.
pub fn save_snapshot(
    path: &Path,
    builder: &InstanceBuilder,
    instance: &S3Instance,
) -> Result<(), SnapError> {
    let bytes = write_snapshot(builder, instance);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`read_snapshot`] from a file.
pub fn load_snapshot(path: &Path) -> Result<(InstanceBuilder, S3Instance), SnapError> {
    let bytes = std::fs::read(path)?;
    read_snapshot(&bytes)
}

/// The builder block: the replayable source of truth, field by field —
/// language, vocabulary, unsaturated RDF store, forest, user count, the
/// URI-named users (sorted, so the bytes do not depend on hash-map
/// order), social edges, posters, comments, tags and the event log.
impl Codec for InstanceBuilder {
    /// A byte per scalar and per length prefix (three each in the RDF
    /// store and the forest).
    const MIN_BYTES: usize = 15;

    fn encode(&self, out: &mut Vec<u8>) {
        self.analyzer.language().encode(out);
        self.analyzer.vocabulary().encode(out);
        self.rdf.encode(out);
        self.forest.encode(out);
        self.num_users.encode(out);
        let mut uris: Vec<(UriId, UserId)> =
            self.user_uris.iter().map(|(&u, &id)| (u, id)).collect();
        uris.sort_unstable();
        uris.encode(out);
        self.social_edges.encode(out);
        self.posters.encode(out);
        self.comments.encode(out);
        self.tags.encode(out);
        self.events.encode(out);
    }

    /// Every index is validated against the entity counts, the event log
    /// must replay to those counts, and no live list entry may touch a
    /// tombstoned entity — so the cold build behind a decode never sees
    /// an inconsistent builder.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let language = Language::decode(r)?;
        let vocabulary = Vocabulary::decode(r)?;
        let rdf = TripleStore::decode(r)?;
        let forest = Forest::decode(r)?;
        let num_users = r.u32v()?;
        let num_trees = forest.num_trees();
        let user = |u: UserId| u.0 < num_users;
        let tree = |t: TreeId| t.index() < num_trees;
        let node = |n: DocNodeId| n.index() < forest.num_nodes();

        let uris = Vec::<(UriId, UserId)>::decode(r)?;
        let mut user_uris = HashMap::with_capacity(uris.len());
        for (uri, u) in uris {
            if uri.index() >= rdf.dictionary().len() || !user(u) {
                return Err(SnapError::Value("user-uri entry out of range"));
            }
            if user_uris.insert(uri, u).is_some() {
                return Err(SnapError::Value("duplicate user uri"));
            }
        }

        let social_edges = Vec::<(UserId, UserId, f64)>::decode(r)?;
        for &(from, to, w) in &social_edges {
            if !user(from) || !user(to) {
                return Err(SnapError::Value("social edge user out of range"));
            }
            if !(w > 0.0 && w <= 1.0) {
                return Err(SnapError::Value("social weight outside (0,1]"));
            }
        }

        let posters = Vec::<(TreeId, UserId)>::decode(r)?;
        if posters.iter().any(|&(t, u)| !tree(t) || !user(u)) {
            return Err(SnapError::Value("poster entry out of range"));
        }

        let comments = Vec::<(TreeId, DocNodeId)>::decode(r)?;
        for &(t, target) in &comments {
            if !tree(t) || !node(target) {
                return Err(SnapError::Value("comment entry out of range"));
            }
            if forest.tree_of(target) == t {
                return Err(SnapError::Value("document comments on itself"));
            }
        }

        let tags = Vec::<PendingTag>::decode(r)?;
        for (i, t) in tags.iter().enumerate() {
            match t.subject {
                TagSubject::Frag(f) if !node(f) => {
                    return Err(SnapError::Value("tag fragment out of range"));
                }
                TagSubject::Tag(b) if b.index() >= i => {
                    return Err(SnapError::Value("tag subject must be an earlier tag"));
                }
                _ => {}
            }
            if !user(t.author) {
                return Err(SnapError::Value("tag author out of range"));
            }
            if t.keyword.is_some_and(|k| k.index() >= vocabulary.len()) {
                return Err(SnapError::Value("tag keyword out of range"));
            }
        }

        // Event log: creation events must replay to the entity counts, and
        // tombstone events must kill only already-created, not yet dead
        // entities — replaying the log reconstructs the dead sets.
        let events = Vec::<BuildEvent>::decode(r)?;
        let mut dead = Tombstones::default();
        let (mut ev_users, mut ev_trees, mut ev_tags) = (0u32, 0usize, 0usize);
        for &ev in &events {
            match ev {
                BuildEvent::User => ev_users += 1,
                BuildEvent::Tree => ev_trees += 1,
                BuildEvent::Tag => ev_tags += 1,
                BuildEvent::DeadUser(u) => {
                    if u.0 >= ev_users || !dead.users.insert(u) {
                        return Err(SnapError::Value("invalid user tombstone"));
                    }
                }
                BuildEvent::DeadTree(t) => {
                    if t.index() >= ev_trees || !dead.trees.insert(t) {
                        return Err(SnapError::Value("invalid document tombstone"));
                    }
                }
                BuildEvent::DeadTag(t) => {
                    if t.index() >= ev_tags || !dead.tags.insert(t) {
                        return Err(SnapError::Value("invalid tag tombstone"));
                    }
                }
            }
        }
        if ev_users != num_users || ev_trees != num_trees || ev_tags != tags.len() {
            return Err(SnapError::Value("event log disagrees with entity counts"));
        }

        // Retractions physically unlink edges when they land, so a
        // consistent snapshot never stores a list entry touching a
        // tombstoned entity (live tags only; dead tags legitimately keep
        // their stored shape).
        if social_edges.iter().any(|&(a, b, _)| !dead.user_alive(a) || !dead.user_alive(b)) {
            return Err(SnapError::Value("social edge touches a tombstoned user"));
        }
        if posters.iter().any(|&(t, u)| !dead.tree_alive(t) || !dead.user_alive(u)) {
            return Err(SnapError::Value("poster entry touches a tombstoned entity"));
        }
        if comments
            .iter()
            .any(|&(t, tgt)| !dead.tree_alive(t) || !dead.tree_alive(forest.tree_of(tgt)))
        {
            return Err(SnapError::Value("comment edge touches a tombstoned document"));
        }
        for (i, t) in tags.iter().enumerate() {
            if !dead.tag_alive(TagId(i as u32)) {
                continue;
            }
            let subject_dead = match t.subject {
                TagSubject::Frag(f) => !dead.tree_alive(forest.tree_of(f)),
                TagSubject::Tag(b) => !dead.tag_alive(b),
            };
            if subject_dead || !dead.user_alive(t.author) {
                return Err(SnapError::Value("live tag touches a tombstoned entity"));
            }
        }

        Ok(InstanceBuilder {
            analyzer: Analyzer::from_parts(language, vocabulary),
            rdf,
            forest,
            num_users,
            user_uris,
            social_edges,
            posters,
            comments,
            tags,
            events,
            dead,
            rdf_dirty: std::cell::Cell::new(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_doc::DocBuilder;

    fn sample() -> InstanceBuilder {
        let mut b = InstanceBuilder::new(Language::English);
        let u0 = b.add_user_with_uri("ex:u0");
        let u1 = b.add_user();
        b.add_social_edge(u1, u0, 0.7);
        let kws = b.analyze("universities and degrees");
        let mut doc = DocBuilder::new("post");
        let child = doc.child(doc.root(), "sec");
        doc.set_content(child, kws);
        let t = b.add_document(doc, Some(u0));
        let root = b.doc_root(t);
        let c = b.add_document(DocBuilder::new("reply"), Some(u1));
        b.add_comment_edge(c, root);
        let kw = b.analyzer_mut().vocabulary_mut().intern("univers");
        let a = b.add_tag(TagSubject::Frag(root), u1, Some(kw));
        b.add_tag(TagSubject::Tag(a), u0, None);
        b
    }

    #[test]
    fn round_trip_preserves_counts_and_stats() {
        let b = sample();
        let inst = b.snapshot();
        let bytes = write_snapshot(&b, &inst);
        let (b2, inst2) = read_snapshot(&bytes).expect("round trip");
        assert_eq!(inst.stats(), inst2.stats());
        assert_eq!(b2.num_users(), b.num_users());
        // The loaded pair snapshots to the same bytes again.
        let bytes2 = write_snapshot(&b2, &inst2);
        assert_eq!(bytes, bytes2, "snapshot encoding must be deterministic");
    }

    #[test]
    fn round_trip_preserves_search_results() {
        let b = sample();
        let inst = b.snapshot();
        let bytes = write_snapshot(&b, &inst);
        let (_, inst2) = read_snapshot(&bytes).expect("round trip");
        let q = crate::search::Query::new(
            crate::ids::UserId(1),
            inst.query_keywords("universities"),
            2,
        );
        let cfg = crate::search::SearchConfig::default();
        let r1 = inst.search(&q, &cfg);
        let r2 = inst2.search(&q, &cfg);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "results must be byte-identical");
    }

    #[test]
    fn version2_snapshots_are_rejected() {
        // Version 2 carried a derived block after the builder block; a
        // faithful-looking v2 header in front of today's payload is still a
        // clean typed error, never a fallback decode. The CRC covers the
        // payload only, so only the version check can reject it.
        let b = sample();
        let mut bytes = write_snapshot(&b, &b.snapshot());
        assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), SNAPSHOT_VERSION);
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(read_snapshot(&bytes), Err(SnapError::Version(2))));
    }

    #[test]
    fn wrong_magic_version_and_crc_are_rejected() {
        let b = sample();
        let inst = b.snapshot();
        let bytes = write_snapshot(&b, &inst);

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(read_snapshot(&bad), Err(SnapError::BadMagic)));

        let mut bad = bytes.clone();
        bad[8] = 0xfe;
        assert!(matches!(read_snapshot(&bad), Err(SnapError::Version(_))));

        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(read_snapshot(&bad), Err(SnapError::Checksum)));

        assert!(matches!(read_snapshot(&bytes[..10]), Err(SnapError::Truncated)));
    }

    #[test]
    fn loaded_builder_keeps_ingesting() {
        let b = sample();
        let inst = b.snapshot();
        let bytes = write_snapshot(&b, &inst);
        let (mut b2, inst2) = read_snapshot(&bytes).expect("round trip");
        let mut batch = crate::IngestBatch::new();
        let u = batch.add_user();
        let mut doc = crate::IngestDoc::new("post");
        let root = doc.root();
        doc.set_text(root, "fresh degrees");
        batch.add_document(doc, Some(u));
        let (next, summary) = b2.apply(&inst2, &batch);
        assert_eq!(summary.new_users, 1);
        assert_eq!(next.num_documents(), inst.num_documents() + 1);
    }
}
