//! The result cache's store: an exact least-recently-used map.
//!
//! [`Lru`] keeps every entry in one slab (`Vec`) threaded by an intrusive
//! doubly-linked recency list, with a `HashMap` index by key, so `get`
//! and `insert` stay O(1). An insert past capacity evicts the list's tail
//! and reuses its slot; an overwrite refreshes recency and evicts
//! nothing. Both the slab and the index grow with the entries actually
//! held, never up front with `capacity`, so any capacity is cheap to
//! configure. Not thread-safe by itself — the engine wraps the store in a
//! `Mutex`.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map (see the module docs).
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    /// Most recently used entry.
    head: usize,
    /// Least recently used entry: the next eviction victim.
    tail: usize,
    capacity: usize,
    /// Entries displaced by capacity pressure (monotonic; survives `clear`).
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// An empty store holding at most `capacity` entries (`capacity` ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        Lru { map: HashMap::new(), slab: Vec::new(), head: NIL, tail: NIL, capacity, evictions: 0 }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Entries displaced by capacity pressure so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look `key` up, marking it most recently used on success.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.slab[idx].value)
    }

    /// Insert (or overwrite) `key` as the most recently used entry. A new
    /// key in a full store evicts the least recently used entry.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let node = Node { key: key.clone(), value, prev: NIL, next: NIL };
        let idx = if self.map.len() < self.capacity {
            self.slab.push(node);
            self.slab.len() - 1
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.evictions += 1;
            self.slab[victim] = node;
            victim
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drop every entry (keeps allocations and the eviction count).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = Lru::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // refresh a; b is now LRU
        cache.insert("c", 3);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn lru_overwrite_refreshes_without_evicting() {
        let mut cache = Lru::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&"a"), Some(&10));
        // "b" must be the eviction victim after the overwrite refreshed "a".
        cache.insert("c", 3);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&10));
    }

    #[test]
    fn lru_capacity_one_cycles() {
        let mut cache = Lru::new(1);
        for i in 0..10 {
            cache.insert(i, i * 2);
            assert_eq!(cache.len(), 1);
        }
        assert_eq!(cache.get(&3), None);
        assert_eq!(cache.get(&9), Some(&18));
    }

    #[test]
    fn clear_resets_entries_but_keeps_counters() {
        let mut cache = Lru::new(2);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache.insert(k, v);
        }
        let evicted = cache.evictions();
        assert_eq!(evicted, 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&"c"), None);
        cache.insert("z", 9);
        assert_eq!(cache.get(&"z"), Some(&9));
        assert_eq!(cache.evictions(), evicted, "clear is not an eviction");
    }

    #[test]
    fn slot_recycling_bounds_slab_growth() {
        let mut cache = Lru::new(3);
        for i in 0..100 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.slab.len(), 3, "an eviction reuses the victim's slot");
        // A huge capacity allocates nothing up front.
        let huge: Lru<u32, u32> = Lru::new(usize::MAX);
        assert_eq!((huge.slab.capacity(), huge.map.capacity()), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// Random `get`/`insert`/`clear` sequences agree with a naive
        /// model — a `Vec` in recency order, most recent first — on every
        /// returned value, the length and the eviction count.
        #[test]
        fn lru_matches_naive_model(seed in 0u64..1_000_000, capacity in 1usize..=8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cache = Lru::new(capacity);
            let mut model: Vec<(u8, u32)> = Vec::new();
            let mut evictions = 0u64;
            for step in 0..64u32 {
                let key = rng.gen_range(0u8..12);
                match rng.gen_range(0u32..20) {
                    0 => {
                        cache.clear();
                        model.clear();
                    }
                    1..=9 => {
                        let expected = model.iter().position(|&(k, _)| k == key).map(|i| {
                            let entry = model.remove(i);
                            model.insert(0, entry);
                            entry.1
                        });
                        prop_assert_eq!(cache.get(&key).copied(), expected, "get {}", key);
                    }
                    _ => {
                        cache.insert(key, step);
                        if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                            model.remove(i);
                        } else if model.len() == capacity {
                            model.pop();
                            evictions += 1;
                        }
                        model.insert(0, (key, step));
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
                prop_assert_eq!(cache.evictions(), evictions);
            }
        }
    }
}
