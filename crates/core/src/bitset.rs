//! A growable bitset used by the reachability matrix `R` and the graph
//! oracle.
//!
//! Unlike `futurerd_dag::reachability::BitSet` (fixed capacity, sized when an
//! oracle is built from a finished dag), the detector's sets grow as the
//! execution unfolds, so this bitset extends itself on demand and treats
//! out-of-range bits as zero.

use serde::{Deserialize, Serialize};

/// A dynamically growing bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynBitSet {
    words: Vec<u64>,
}

impl DynBitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn ensure(&mut self, word: usize) {
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.ensure(i / 64);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Returns bit `i` (false if beyond the current capacity).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .map(|w| (w >> (i % 64)) & 1 == 1)
            .unwrap_or(false)
    }

    /// Ors `other` into `self`, a word at a time. Trailing zero words of
    /// `other` are skipped, so they never grow `self`; this is the one row
    /// operation the closure of `R` makes per arc.
    pub fn union_with(&mut self, other: &DynBitSet) {
        let Some(last_nonzero) = other.words.iter().rposition(|&w| w != 0) else {
            return;
        };
        self.ensure(last_nonzero);
        for (w, &o) in self.words.iter_mut().zip(&other.words[..=last_nonzero]) {
            *w |= o;
        }
    }

    /// Approximate heap usage in bytes (for the memory statistics the paper
    /// discusses when the reachability matrix grows with small base cases).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut b = DynBitSet::new();
        for i in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert!(!b.get(2) && !b.get(129));
    }

    #[test]
    fn out_of_range_reads_are_false() {
        let b = DynBitSet::new();
        assert!(!b.get(0));
        assert!(!b.get(10_000));
    }

    #[test]
    fn union_grows_the_target() {
        let mut a = DynBitSet::new();
        a.set(1);
        let mut b = DynBitSet::new();
        b.set(200);
        a.union_with(&b);
        assert!(a.get(1) && a.get(200));
        assert!(!a.get(2) && !a.get(199));
    }
}
