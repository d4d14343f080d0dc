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
use s3_snap::{put_block, put_bool, put_f64, put_u32v, put_usize, SnapError, SnapReader};
use s3_text::{Analyzer, KeywordId, Language, Vocabulary};
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
    put_block(&mut payload, |out| write_builder_block(builder, out));

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
    let builder = read_builder_block(&mut builder_block)?;
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

fn write_builder_block(b: &InstanceBuilder, out: &mut Vec<u8>) {
    b.analyzer.language().snap_write(out);
    b.analyzer.vocabulary().snap_write(out);
    b.rdf.snap_write(out);
    b.forest.snap_write(out);
    put_u32v(out, b.num_users);
    let mut uris: Vec<(UriId, UserId)> = b.user_uris.iter().map(|(&u, &id)| (u, id)).collect();
    uris.sort_unstable();
    put_usize(out, uris.len());
    for (uri, user) in uris {
        put_u32v(out, uri.0);
        put_u32v(out, user.0);
    }
    put_usize(out, b.social_edges.len());
    for &(from, to, w) in &b.social_edges {
        put_u32v(out, from.0);
        put_u32v(out, to.0);
        put_f64(out, w);
    }
    put_usize(out, b.posters.len());
    for &(tree, user) in &b.posters {
        put_u32v(out, tree.0);
        put_u32v(out, user.0);
    }
    put_usize(out, b.comments.len());
    for &(tree, target) in &b.comments {
        put_u32v(out, tree.0);
        put_u32v(out, target.0);
    }
    put_usize(out, b.tags.len());
    for t in &b.tags {
        match t.subject {
            TagSubject::Frag(f) => {
                out.push(0);
                put_u32v(out, f.0);
            }
            TagSubject::Tag(tag) => {
                out.push(1);
                put_u32v(out, tag.0);
            }
        }
        put_u32v(out, t.author.0);
        put_bool(out, t.keyword.is_some());
        if let Some(kw) = t.keyword {
            put_u32v(out, kw.0);
        }
    }
    put_usize(out, b.events.len());
    for ev in &b.events {
        match ev {
            BuildEvent::User => out.push(0),
            BuildEvent::Tree => out.push(1),
            BuildEvent::Tag => out.push(2),
            BuildEvent::DeadUser(u) => {
                out.push(3);
                put_u32v(out, u.0);
            }
            BuildEvent::DeadTree(t) => {
                out.push(4);
                put_u32v(out, t.0);
            }
            BuildEvent::DeadTag(t) => {
                out.push(5);
                put_u32v(out, t.0);
            }
        }
    }
}

fn read_builder_block(r: &mut SnapReader<'_>) -> Result<InstanceBuilder, SnapError> {
    let language = Language::snap_read(r)?;
    let vocabulary = Vocabulary::snap_read(r)?;
    let rdf = TripleStore::snap_read(r)?;
    let forest = Forest::snap_read(r)?;
    let num_users = r.u32v()?;
    let num_trees = forest.num_trees();
    let num_kws = vocabulary.len() as u32;
    let num_uris = rdf.dictionary().len() as u32;

    let n = r.seq(2)?;
    let mut user_uris = HashMap::with_capacity(n);
    for _ in 0..n {
        let uri = r.u32v()?;
        let user = r.u32v()?;
        if uri >= num_uris || user >= num_users {
            return Err(SnapError::Value("user-uri entry out of range"));
        }
        if user_uris.insert(UriId(uri), UserId(user)).is_some() {
            return Err(SnapError::Value("duplicate user uri"));
        }
    }

    let n = r.seq(10)?;
    let mut social_edges = Vec::with_capacity(n);
    for _ in 0..n {
        let from = r.u32v()?;
        let to = r.u32v()?;
        let w = r.f64()?;
        if from >= num_users || to >= num_users {
            return Err(SnapError::Value("social edge user out of range"));
        }
        if !(w > 0.0 && w <= 1.0) {
            return Err(SnapError::Value("social weight outside (0,1]"));
        }
        social_edges.push((UserId(from), UserId(to), w));
    }

    let n = r.seq(2)?;
    let mut posters = Vec::with_capacity(n);
    for _ in 0..n {
        let tree = r.u32v()?;
        let user = r.u32v()?;
        if tree as usize >= num_trees || user >= num_users {
            return Err(SnapError::Value("poster entry out of range"));
        }
        posters.push((TreeId(tree), UserId(user)));
    }

    let n = r.seq(2)?;
    let mut comments = Vec::with_capacity(n);
    for _ in 0..n {
        let tree = r.u32v()?;
        let target = r.u32v()?;
        if tree as usize >= num_trees || target as usize >= forest.num_nodes() {
            return Err(SnapError::Value("comment entry out of range"));
        }
        if forest.tree_of(DocNodeId(target)) == TreeId(tree) {
            return Err(SnapError::Value("document comments on itself"));
        }
        comments.push((TreeId(tree), DocNodeId(target)));
    }

    let n = r.seq(4)?;
    let mut tags: Vec<PendingTag> = Vec::with_capacity(n);
    for i in 0..n {
        let subject = match r.u8()? {
            0 => {
                let f = r.u32v()?;
                if f as usize >= forest.num_nodes() {
                    return Err(SnapError::Value("tag fragment out of range"));
                }
                TagSubject::Frag(DocNodeId(f))
            }
            1 => {
                let t = r.u32v()?;
                if t as usize >= i {
                    return Err(SnapError::Value("tag subject must be an earlier tag"));
                }
                TagSubject::Tag(TagId(t))
            }
            _ => return Err(SnapError::Value("tag-subject discriminant")),
        };
        let author = r.u32v()?;
        if author >= num_users {
            return Err(SnapError::Value("tag author out of range"));
        }
        let keyword = if r.bool()? {
            let kw = r.u32v()?;
            if kw >= num_kws {
                return Err(SnapError::Value("tag keyword out of range"));
            }
            Some(KeywordId(kw))
        } else {
            None
        };
        tags.push(PendingTag { subject, author: UserId(author), keyword });
    }

    // Event log: creation events must replay to the entity counts, and
    // tombstone events must kill only already-created, not yet dead
    // entities — replaying the log reconstructs the dead sets.
    let n = r.seq(1)?;
    let mut events = Vec::with_capacity(n);
    let mut dead = Tombstones::default();
    let (mut ev_users, mut ev_trees, mut ev_tags) = (0u32, 0usize, 0usize);
    for _ in 0..n {
        events.push(match r.u8()? {
            0 => {
                ev_users += 1;
                BuildEvent::User
            }
            1 => {
                ev_trees += 1;
                BuildEvent::Tree
            }
            2 => {
                ev_tags += 1;
                BuildEvent::Tag
            }
            3 => {
                let u = r.u32v()?;
                if u >= ev_users || !dead.users.insert(UserId(u)) {
                    return Err(SnapError::Value("invalid user tombstone"));
                }
                BuildEvent::DeadUser(UserId(u))
            }
            4 => {
                let t = r.u32v()?;
                if t as usize >= ev_trees || !dead.trees.insert(TreeId(t)) {
                    return Err(SnapError::Value("invalid document tombstone"));
                }
                BuildEvent::DeadTree(TreeId(t))
            }
            5 => {
                let t = r.u32v()?;
                if t as usize >= ev_tags || !dead.tags.insert(TagId(t)) {
                    return Err(SnapError::Value("invalid tag tombstone"));
                }
                BuildEvent::DeadTag(TagId(t))
            }
            _ => return Err(SnapError::Value("build-event discriminant")),
        });
    }
    if ev_users != num_users || ev_trees != num_trees || ev_tags != tags.len() {
        return Err(SnapError::Value("event log disagrees with entity counts"));
    }

    // Retractions physically unlink edges when they land, so a consistent
    // snapshot never stores a list entry touching a tombstoned entity
    // (live tags only; dead tags legitimately keep their stored shape).
    if social_edges.iter().any(|&(a, b, _)| !dead.user_alive(a) || !dead.user_alive(b)) {
        return Err(SnapError::Value("social edge touches a tombstoned user"));
    }
    if posters.iter().any(|&(t, u)| !dead.tree_alive(t) || !dead.user_alive(u)) {
        return Err(SnapError::Value("poster entry touches a tombstoned entity"));
    }
    if comments.iter().any(|&(t, tgt)| !dead.tree_alive(t) || !dead.tree_alive(forest.tree_of(tgt)))
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
