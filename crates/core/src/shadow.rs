//! The access history ("shadow memory") and the Section 3 protocol.
//!
//! Section 3 of the paper: for each memory location the detector keeps the
//! most recent writer strand (`last-writer`) and the list of reader strands
//! that have read the location since that write (`reader-list`). A read is
//! checked against the last writer; a write against the last writer and the
//! whole reader list, which it then empties. The reader list can grow
//! arbitrarily for programs with futures (unlike the constant bound that
//! suffices for series-parallel programs), but the writer empties it, so
//! each reader is checked against a writer at most twice and the total
//! number of reachability queries stays `O(T1)`. [`AccessHistory::access`]
//! is that protocol; the sequential detector and the sharded engine's
//! partitions both call it and differ only in how they answer queries.
//!
//! FutureRD stores the history "like a two-level direct-mapped cache" at
//! four-byte granularity; this implementation mirrors that with a two-level
//! page table indexed by the granule number: the high bits select a lazily
//! allocated page, the low bits a slot within it.
//!
//! **Layout.** A page holds one packed `u64` per granule: the last writer
//! plus one in the high half and the most recent reader plus one in the low
//! half, with 0 meaning "none". An untouched granule is therefore all
//! zeroes, and a new page is a zero-filled allocation rather than 4096
//! constructed entries. Beside the words each page keeps a zero-filled
//! `u32` spill slot per granule.
//!
//! **Spill arena.** Most granules never have more than one reader per
//! write epoch, and that reader lives in the packed word. When a second,
//! different strand reads, the earlier reader moves to a reader list in an
//! arena shared by all pages, and the granule's spill slot holds that
//! list's index plus one. The list keeps the readers before the most recent
//! one in read order, so "list, then the word's reader" is the paper's
//! reader list. A write checks and clears the list and returns its slot to
//! a free list; the next spill anywhere reuses it with its capacity, so
//! steady-state reads allocate nothing.

use crate::races::AccessKind;
use crate::stats::DetectorStats;
use futurerd_dag::StrandId;

/// log2 of the number of granules per shadow page.
const PAGE_BITS: u32 = 12;
/// Number of granules per shadow page (4096 granules = 16 KiB of traced
/// memory per page at 4-byte granularity).
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// One shadow page: a packed word and a spill slot per granule.
#[derive(Debug)]
struct Page {
    /// `(last writer + 1) << 32 | (last reader + 1)`; 0 halves mean none.
    words: Box<[u64; PAGE_SIZE]>,
    /// 0, or 1 + the arena index of the granule's earlier readers.
    spill: Box<[u32; PAGE_SIZE]>,
}

/// A zero-filled page array (one zeroed allocation, no per-slot writes).
fn zeroed<T: Copy + Default + std::fmt::Debug>() -> Box<[T; PAGE_SIZE]> {
    vec![T::default(); PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE_SIZE elements")
}

/// The two-level shadow-memory table and the Section 3 read/write protocol.
///
/// **Strand limit.** A granule's word stores `strand + 1` in 32 bits, so
/// strand ids must be below [`AccessHistory::STRAND_LIMIT`]
/// (`u32::MAX`): `StrandId(u32::MAX)` would encode as "none". An access by
/// a strand at the limit panics rather than silently losing history.
#[derive(Debug, Default)]
pub struct AccessHistory {
    pages: Vec<Option<Page>>,
    /// Reader lists: each holds a granule's readers before its most recent
    /// one, in read order.
    lists: Vec<Vec<StrandId>>,
    /// Arena indices of lists emptied by a write, ready for reuse.
    free: Vec<u32>,
    stats: DetectorStats,
}

impl AccessHistory {
    /// Strand ids must be strictly below this value (see the type docs).
    pub const STRAND_LIMIT: u32 = u32::MAX;

    /// Creates an empty access history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics about the table (pages allocated, readers recorded, …).
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Number of shadow pages currently allocated.
    pub fn num_pages(&self) -> usize {
        self.stats.shadow_pages as usize
    }

    /// Applies one granule-level access by `strand` (Section 3).
    ///
    /// `races(prior, prior_kind)` is called once for every earlier access
    /// the protocol checks — the last writer first, then (for a write) the
    /// readers in list order — and returns true iff that access races with
    /// this one (is not sequentially before `strand`). A read then joins
    /// the reader list unless `strand` is already its most recent entry; a
    /// write empties the list and becomes the last writer.
    ///
    /// # Panics
    ///
    /// If `strand` is not below [`AccessHistory::STRAND_LIMIT`].
    #[inline]
    pub fn access(
        &mut self,
        granule: u64,
        strand: StrandId,
        kind: AccessKind,
        mut races: impl FnMut(StrandId, AccessKind) -> bool,
    ) {
        assert!(
            strand.0 < Self::STRAND_LIMIT,
            "strand {strand} is at the access history's encoding limit: \
             strand ids must be below AccessHistory::STRAND_LIMIT = u32::MAX"
        );
        let tag = strand.0 + 1;
        let Self {
            pages,
            lists,
            free,
            stats,
        } = self;
        let (page_no, slot) = (
            (granule >> PAGE_BITS) as usize,
            (granule & (PAGE_SIZE as u64 - 1)) as usize,
        );
        if pages.len() <= page_no {
            pages.resize_with(page_no + 1, || None);
        }
        let page = pages[page_no].get_or_insert_with(|| {
            stats.shadow_pages += 1;
            Page {
                words: zeroed(),
                spill: zeroed(),
            }
        });
        let word = page.words[slot];
        let writer = (word >> 32) as u32;
        let reader = word as u32;
        if writer != 0 && races(StrandId(writer - 1), AccessKind::Write) {
            stats.races_found += 1;
        }
        match kind {
            AccessKind::Read => {
                stats.read_checks += 1;
                // A strand appears once per run of consecutive reads: only
                // the most recent reader is compared.
                if reader != tag {
                    if reader != 0 {
                        let spill = &mut page.spill[slot];
                        if *spill == 0 {
                            *spill = match free.pop() {
                                Some(index) => index,
                                None => {
                                    lists.push(Vec::new());
                                    lists.len() as u32 - 1
                                }
                            } + 1;
                        }
                        lists[*spill as usize - 1].push(StrandId(reader - 1));
                    }
                    page.words[slot] = (word & !u64::from(u32::MAX)) | u64::from(tag);
                    stats.readers_recorded += 1;
                }
            }
            AccessKind::Write => {
                stats.write_checks += 1;
                let spill = std::mem::take(&mut page.spill[slot]);
                if spill != 0 {
                    let list = &mut lists[spill as usize - 1];
                    for &prior in list.iter() {
                        if races(prior, AccessKind::Read) {
                            stats.races_found += 1;
                        }
                    }
                    stats.readers_cleared += list.len() as u64;
                    list.clear();
                    free.push(spill - 1);
                }
                if reader != 0 {
                    if races(StrandId(reader - 1), AccessKind::Read) {
                        stats.races_found += 1;
                    }
                    stats.readers_cleared += 1;
                }
                page.words[slot] = u64::from(tag) << 32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::MemAddr;
    use std::collections::{HashMap, HashSet};

    /// The Vec-per-granule protocol the packed table replaced, kept as the
    /// reference model: one `(last writer, reader list)` entry per granule.
    #[derive(Default)]
    struct Reference {
        granules: HashMap<u64, (Option<StrandId>, Vec<StrandId>)>,
        pages: HashSet<u64>,
        stats: DetectorStats,
    }

    impl Reference {
        fn access(
            &mut self,
            granule: u64,
            strand: StrandId,
            kind: AccessKind,
            mut races: impl FnMut(StrandId, AccessKind) -> bool,
        ) {
            if self.pages.insert(granule >> PAGE_BITS) {
                self.stats.shadow_pages += 1;
            }
            let stats = &mut self.stats;
            let (last_writer, readers) = self.granules.entry(granule).or_default();
            if let Some(writer) = *last_writer {
                if races(writer, AccessKind::Write) {
                    stats.races_found += 1;
                }
            }
            match kind {
                AccessKind::Read => {
                    stats.read_checks += 1;
                    if readers.last() != Some(&strand) {
                        readers.push(strand);
                        stats.readers_recorded += 1;
                    }
                }
                AccessKind::Write => {
                    stats.write_checks += 1;
                    for &reader in readers.iter() {
                        if races(reader, AccessKind::Read) {
                            stats.races_found += 1;
                        }
                    }
                    stats.readers_cleared += readers.len() as u64;
                    readers.clear();
                    *last_writer = Some(strand);
                }
            }
        }
    }

    /// One callback: (granule, prior strand, prior kind, current strand).
    type Call = (u64, StrandId, AccessKind, StrandId);

    /// A deterministic "races" answer shared by both models, so they see
    /// the same query results.
    fn answer(granule: u64, prior: StrandId, current: StrandId) -> bool {
        (granule ^ (u64::from(prior.0) * 7) ^ (u64::from(current.0) * 13)).is_multiple_of(3)
    }

    /// Drives both models over `(strand, addr, size, kind)` accesses,
    /// granule by granule, asserts identical callbacks and stats, and
    /// returns the packed table.
    fn assert_same(accesses: &[(u32, u64, usize, AccessKind)]) -> AccessHistory {
        let mut packed = AccessHistory::new();
        let mut reference = Reference::default();
        let (mut got, mut want): (Vec<Call>, Vec<Call>) = (Vec::new(), Vec::new());
        for &(strand, addr, size, kind) in accesses {
            let strand = StrandId(strand);
            for g in MemAddr(addr).granules(size) {
                packed.access(g, strand, kind, |prior, pk| {
                    got.push((g, prior, pk, strand));
                    answer(g, prior, strand)
                });
                reference.access(g, strand, kind, |prior, pk| {
                    want.push((g, prior, pk, strand));
                    answer(g, prior, strand)
                });
            }
        }
        assert_eq!(got, want);
        assert_eq!(packed.stats(), reference.stats);
        packed
    }

    /// A small xorshift generator, so the streams need no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    const PAGE_BYTES: u64 = PAGE_SIZE as u64 * MemAddr::GRANULARITY;

    #[test]
    fn packed_history_matches_the_vec_per_granule_protocol() {
        for seed in 1..=64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            // A few hot addresses around granule and page boundaries, so
            // lists spill, clear and get reused, and 8-byte accesses
            // straddle both kinds of boundary.
            let hot: Vec<u64> = (0..6)
                .map(|_| rng.below(3) * PAGE_BYTES + PAGE_BYTES - 8 + rng.below(12))
                .collect();
            let mut accesses = Vec::new();
            let mut strand = 0u32;
            for _ in 0..400 {
                let kind = if rng.below(4) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let addr = hot[rng.below(hot.len() as u64) as usize];
                let size = [4, 8][rng.below(2) as usize];
                // Usually a recent strand (consecutive same-strand reads),
                // sometimes a new one (a spill).
                if rng.below(3) == 0 {
                    strand += 1;
                }
                let s = strand.saturating_sub(rng.below(3) as u32);
                for _ in 0..=rng.below(2) {
                    accesses.push((s, addr, size, kind));
                }
            }
            let packed = assert_same(&accesses);
            let stats = packed.stats();
            assert!(
                !packed.lists.is_empty() && stats.readers_cleared > 0 && stats.races_found > 0,
                "{stats:?}"
            );
        }
    }

    #[test]
    fn spill_clear_and_reuse_follow_the_reference() {
        use AccessKind::{Read, Write};
        let stats = assert_same(&[
            (1, 0, 4, Read),
            (1, 0, 4, Read),  // consecutive same-strand read: not recorded
            (2, 0, 4, Read),  // spills strand 1 into a list
            (1, 0, 4, Read),  // not consecutive: recorded again
            (3, 0, 4, Write), // checks 1, 2, 1 in order, clears the list
            (4, 40, 4, Read),
            (5, 40, 4, Read), // reuses the freed list
            (6, 40, 4, Write),
            (7, PAGE_BYTES - 4, 8, Read), // straddles a page boundary
            (8, 6, 8, Write),             // straddles two granule boundaries
        ])
        .stats();
        assert_eq!(stats.readers_recorded, 7);
        assert_eq!(stats.readers_cleared, 5);
        assert_eq!(stats.shadow_pages, 2);
    }

    #[test]
    fn a_freed_list_is_reused_not_reallocated() {
        let mut h = AccessHistory::new();
        for round in 0..10 {
            for s in 0..5 {
                h.access(round, StrandId(s), AccessKind::Read, |_, _| false);
            }
            h.access(round, StrandId(9), AccessKind::Write, |_, _| false);
        }
        assert_eq!(h.lists.len(), 1);
        assert_eq!(h.free, vec![0]);
    }

    /// The checks an access makes, as `(prior strand, prior kind)` pairs.
    fn checks(h: &mut AccessHistory, granule: u64, strand: u32, kind: AccessKind) -> Vec<Call> {
        let mut seen = Vec::new();
        h.access(granule, StrandId(strand), kind, |prior, pk| {
            seen.push((granule, prior, pk, StrandId(strand)));
            false
        });
        seen
    }

    #[test]
    fn untouched_locations_are_invisible() {
        let mut h = AccessHistory::new();
        assert!(checks(&mut h, 10, 0, AccessKind::Read).is_empty());
        // Granule 11 shares the page granule 10 allocated but has no
        // history of its own.
        assert!(checks(&mut h, 11, 1, AccessKind::Write).is_empty());
        assert_eq!(h.num_pages(), 1);
    }

    #[test]
    fn writers_and_readers_are_stored_per_granule() {
        use AccessKind::{Read, Write};
        let mut h = AccessHistory::new();
        checks(&mut h, 4, 1, Write);
        checks(&mut h, 4, 2, Read);
        checks(&mut h, 5, 3, Read);
        let s = StrandId;
        assert_eq!(
            checks(&mut h, 4, 9, Write),
            vec![(4, s(1), Write, s(9)), (4, s(2), Read, s(9))]
        );
        assert_eq!(checks(&mut h, 5, 9, Write), vec![(5, s(3), Read, s(9))]);
        assert!(checks(&mut h, 6, 9, Write).is_empty());
    }

    #[test]
    fn page_allocation_is_counted_once() {
        let mut h = AccessHistory::new();
        checks(&mut h, 0, 0, AccessKind::Read);
        checks(&mut h, 1, 0, AccessKind::Read);
        assert_eq!(h.stats().shadow_pages, 1);
        assert_eq!(h.num_pages(), 1);
    }

    #[test]
    fn distant_granules_live_on_distinct_pages() {
        let mut h = AccessHistory::new();
        h.access(0, StrandId(0), AccessKind::Write, |_, _| false);
        h.access(1 << 20, StrandId(1), AccessKind::Write, |_, _| false);
        h.access(1, StrandId(1), AccessKind::Read, |_, _| false);
        assert_eq!(h.num_pages(), 2);
        assert_eq!(h.stats().shadow_pages, 2);
    }

    #[test]
    #[should_panic(expected = "STRAND_LIMIT = u32::MAX")]
    fn a_strand_at_the_encoding_limit_is_refused() {
        let mut h = AccessHistory::new();
        h.access(
            0,
            StrandId(AccessHistory::STRAND_LIMIT),
            AccessKind::Read,
            |_, _| false,
        );
    }

    #[test]
    fn the_strand_below_the_limit_round_trips() {
        let top = StrandId(AccessHistory::STRAND_LIMIT - 1);
        let mut h = AccessHistory::new();
        h.access(0, top, AccessKind::Write, |_, _| false);
        let mut seen = Vec::new();
        h.access(0, StrandId(0), AccessKind::Write, |prior, kind| {
            seen.push((prior, kind));
            false
        });
        assert_eq!(seen, vec![(top, AccessKind::Write)]);
    }
}
