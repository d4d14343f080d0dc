//! Word-packed bitset for hot-path membership tracking.
//!
//! The propagation and search inner loops keep per-node / per-component
//! "seen" flags. As `Vec<bool>` those cost one byte per entry — 8× the
//! cache traffic of a packed bitset — and a dense clear is a byte-wise
//! memset. [`BitSet`] packs 64 flags per `u64` word: membership tests on
//! the hot path touch 8× fewer cache lines, and the sparse journal-driven
//! clears (`Propagation::reset`, `SearchScratch::rewind_search`) stay
//! O(touched) bit operations.
//!
//! The type is deliberately minimal — fixed universe size set by
//! [`BitSet::resize`], no set algebra. Most users journal their own
//! membership list and only need `get`/`set`/`clear`/`insert`; the one
//! iteration, [`BitSet::ones`], is what lets the propagation read a
//! step's next border back in ascending id order without sorting it.

/// A fixed-universe set of `usize` keys packed 64 per word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over an empty universe; [`BitSet::resize`] sizes it.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// A cleared set over a universe of `n` keys.
    pub fn with_len(n: usize) -> Self {
        let mut s = BitSet::new();
        s.resize(n);
        s
    }

    /// Universe size (number of addressable keys, not members).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the universe empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow or shrink the universe to `n` keys. Existing memberships below
    /// `n` are preserved; keys beyond the new universe are dropped (tail
    /// bits are re-zeroed so [`BitSet::count_ones`] stays exact).
    pub fn resize(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
        self.len = n;
        // Zero the bits of the last word beyond `n`: a later grow must
        // not resurrect them.
        if let (Some(last), rem) = (self.words.last_mut(), n % 64) {
            if rem != 0 {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Remove every member, keeping the universe size and capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Is `i` a member? Panics when `i` is outside the universe.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for universe {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Add `i` to the set.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range for universe {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Remove `i` from the set.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range for universe {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Add `i`, returning whether it was newly added — the fused
    /// test-and-set of the propagation's first-visit journaling.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for universe {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Number of members (O(words)).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members in ascending order (O(words + members)).
    pub fn ones(&self) -> Ones<'_> {
        Ones { words: self.words.iter().enumerate(), word: 0, base: 0 }
    }
}

/// Iterator over a [`BitSet`]'s members, ascending: takes the words in
/// order and peels the lowest set bit off the current one.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Unreported bits of the current word.
    word: u64,
    /// Key of the current word's bit 0.
    base: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (i, &word) = self.words.next()?;
            (self.word, self.base) = (word, i * 64);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut s = BitSet::with_len(130);
        assert_eq!(s.len(), 130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 8);
        s.clear(64);
        assert!(!s.get(64) && s.get(63) && s.get(65));
        assert_eq!(s.count_ones(), 7);
    }

    #[test]
    fn insert_reports_first_addition_only() {
        let mut s = BitSet::with_len(70);
        assert!(s.insert(69));
        assert!(!s.insert(69));
        assert!(s.get(69));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn clear_all_keeps_universe() {
        let mut s = BitSet::with_len(100);
        for i in 0..100 {
            s.set(i);
        }
        s.clear_all();
        assert_eq!(s.len(), 100);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn resize_preserves_members_and_zeroes_dropped_tail() {
        let mut s = BitSet::with_len(100);
        s.set(3);
        s.set(99);
        s.resize(160);
        assert!(s.get(3) && s.get(99) && !s.get(159));
        // Shrink below 99, then grow back: the dropped bit must not
        // resurrect.
        s.resize(50);
        assert_eq!(s.count_ones(), 1);
        s.resize(100);
        assert!(s.get(3) && !s.get(99));
    }

    #[test]
    fn empty_set_behaves() {
        let s = BitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.ones().next(), None);
    }

    #[test]
    fn ones_ascend_across_word_boundaries() {
        let mut s = BitSet::with_len(200);
        let members = [199usize, 0, 65, 63, 128, 64, 127, 1];
        for &i in &members {
            s.set(i);
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.ones().collect::<Vec<_>>(), sorted);
        s.clear_all();
        assert_eq!(s.ones().next(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_universe_get_panics() {
        let s = BitSet::with_len(10);
        s.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_universe_set_panics() {
        let mut s = BitSet::with_len(0);
        s.set(0);
    }
}
