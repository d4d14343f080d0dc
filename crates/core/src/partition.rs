//! Partitioning an instance's content components across shards.
//!
//! §5.2's content components are the natural shard unit: a registered tree
//! is wholly contained in one component, connections never cross
//! components, and Definition 3.2's vertical-neighbor constraint only
//! relates fragments of one tree — so a partition of the components is a
//! partition of the documents that no scoring or selection rule ever
//! crosses. [`ComponentPartition::balanced`] assigns components to shards
//! with balanced document counts (longest-processing-time greedy); a
//! partitioned search gives each shard one candidate pool and dispatches
//! every discovered component to its owner's pool.
//!
//! Scores are *not* shard-local: proximity propagates over the full
//! network graph, so shards share the frozen [`S3Instance`] (an `Arc`
//! clone, zero copy) and differ only in which documents they admit as
//! candidates. That is what makes scatter-gather exact — see
//! [`crate::search`]'s `run_partitioned_with`.

use crate::instance::S3Instance;
use s3_graph::CompId;

/// An assignment of every content component to one of `num_shards` shards.
#[derive(Debug, Clone)]
pub struct ComponentPartition {
    shard_of: Vec<u32>,
    doc_counts: Vec<usize>,
    comp_counts: Vec<usize>,
}

impl ComponentPartition {
    /// Balanced assignment: components are placed largest-document-count
    /// first onto the currently lightest shard (ties: lowest shard id), the
    /// classic LPT greedy. Deterministic for a given instance.
    ///
    /// `num_shards` is clamped to at least 1; shards may end up empty when
    /// there are fewer non-trivial components than shards.
    pub fn balanced(instance: &S3Instance, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let graph = instance.graph();
        let components = graph.components();
        let mut sized: Vec<(usize, CompId)> =
            components.iter().map(|c| (graph.component_doc_count(c), c)).collect();
        // Largest first; equal sizes keep component-id order.
        sized.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut shard_of = vec![0u32; components.len()];
        let mut doc_counts = vec![0usize; num_shards];
        let mut comp_counts = vec![0usize; num_shards];
        for (docs, comp) in sized {
            let lightest =
                (0..num_shards).min_by_key(|&s| (doc_counts[s], s)).expect("at least one shard");
            shard_of[comp.index()] = lightest as u32;
            doc_counts[lightest] += docs;
            comp_counts[lightest] += 1;
        }
        ComponentPartition { shard_of, doc_counts, comp_counts }
    }

    /// Extend this partition to cover `instance`'s (grown) component set
    /// without moving anything that already had a home: previously-assigned
    /// components keep their shard (a component merged away during
    /// ingestion stays allocated, empty, wherever it was), and each
    /// brand-new component is placed largest-document-count first on the
    /// currently lightest shard — the same LPT greedy as
    /// [`Self::balanced`], applied only to the newcomers. Per-shard
    /// document counts are refreshed from the instance.
    ///
    /// This is live ingestion's routing step: placement is stable across
    /// ingests, so a component's shard never changes until compaction
    /// re-partitions from scratch.
    pub fn extended(&self, instance: &S3Instance) -> Self {
        let graph = instance.graph();
        let components = graph.components();
        let num_shards = self.num_shards();
        assert!(components.len() >= self.shard_of.len(), "components never disappear");

        let mut shard_of = self.shard_of.clone();
        let mut doc_counts = vec![0usize; num_shards];
        let mut comp_counts = vec![0usize; num_shards];
        for (idx, &s) in shard_of.iter().enumerate() {
            doc_counts[s as usize] += graph.component_doc_count(CompId(idx as u32));
            comp_counts[s as usize] += 1;
        }

        let mut sized: Vec<(usize, CompId)> = (self.shard_of.len()..components.len())
            .map(|i| CompId(i as u32))
            .map(|c| (graph.component_doc_count(c), c))
            .collect();
        sized.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        shard_of.resize(components.len(), 0);
        for (docs, comp) in sized {
            let lightest =
                (0..num_shards).min_by_key(|&s| (doc_counts[s], s)).expect("at least one shard");
            shard_of[comp.index()] = lightest as u32;
            doc_counts[lightest] += docs;
            comp_counts[lightest] += 1;
        }
        ComponentPartition { shard_of, doc_counts, comp_counts }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.doc_counts.len()
    }

    /// Number of components covered (the instance's component count).
    pub fn num_components(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning a component.
    pub fn shard_of(&self, comp: CompId) -> usize {
        self.shard_of[comp.index()] as usize
    }

    /// Documents assigned to a shard.
    pub fn doc_count(&self, shard: usize) -> usize {
        self.doc_counts[shard]
    }

    /// Components assigned to a shard.
    pub fn component_count(&self, shard: usize) -> usize {
        self.comp_counts[shard]
    }

    /// The components owned by a shard, in id order.
    pub fn components_of(&self, shard: usize) -> impl Iterator<Item = CompId> + '_ {
        self.shard_of
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| s as usize == shard)
            .map(|(i, _)| CompId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use s3_doc::DocBuilder;
    use s3_text::Language;

    /// Ten single-doc components of varying sizes plus user singletons.
    fn instance() -> S3Instance {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        b.add_user();
        for i in 0..10 {
            let kws = b.analyze(&format!("document number {i}"));
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(u));
        }
        b.build()
    }

    #[test]
    fn balanced_covers_every_document_exactly_once() {
        let inst = instance();
        for shards in [1usize, 2, 3, 4, 16] {
            let p = ComponentPartition::balanced(&inst, shards);
            assert_eq!(p.num_shards(), shards);
            assert_eq!(p.num_components(), inst.graph().components().len());
            let total: usize = (0..shards).map(|s| p.doc_count(s)).sum();
            assert_eq!(total, inst.num_documents());
            let comps: usize = (0..shards).map(|s| p.component_count(s)).sum();
            assert_eq!(comps, p.num_components());
        }
    }

    #[test]
    fn balanced_is_balanced() {
        let inst = instance();
        let p = ComponentPartition::balanced(&inst, 4);
        // 10 single-document components over 4 shards: LPT puts 2 or 3
        // documents on every shard.
        let counts: Vec<usize> = (0..4).map(|s| p.doc_count(s)).collect();
        assert!(counts.iter().all(|&c| c == 2 || c == 3), "unbalanced: {counts:?}");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let inst = instance();
        let p = ComponentPartition::balanced(&inst, 0);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.doc_count(0), inst.num_documents());
    }

    #[test]
    fn deterministic() {
        let inst = instance();
        let a = ComponentPartition::balanced(&inst, 3);
        let b = ComponentPartition::balanced(&inst, 3);
        assert_eq!(a.shard_of, b.shard_of);
    }

    #[test]
    fn components_of_lists_owned_components() {
        let inst = instance();
        let p = ComponentPartition::balanced(&inst, 2);
        for s in 0..2 {
            let owned: Vec<CompId> = p.components_of(s).collect();
            assert_eq!(owned.len(), p.component_count(s));
            assert!(owned.iter().all(|&c| p.shard_of(c) == s));
        }
    }
}
