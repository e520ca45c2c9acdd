//! Pass 2 of the parallel detection engine: shard the granule space, give
//! each worker a private shadow-memory partition, and merge the per-worker
//! race reports deterministically.
//!
//! The access-history protocol of Section 3 is *granule-local*: the shadow
//! state of a granule (last writer, reader list) is read and written only by
//! accesses to that granule, and the state updates do not depend on query
//! answers. With reachability frozen into a shared
//! [`ReachIndex`](super::ReachIndex), detection on disjoint granule ranges
//! is therefore embarrassingly parallel — each worker replays exactly the
//! per-granule access sequence the sequential detector saw, gets exactly the
//! answers the sequential detector got, and thus observes exactly the same
//! races.

use super::freeze::{GranuleAccess, IndexCursor};
use super::{DetectExecutor, ReachIndex};
use crate::races::{AccessKind, Race, RaceReport};
use crate::shadow::AccessHistory;
use crate::stats::DetectorStats;
use futurerd_dag::MemAddr;
use std::collections::HashSet;
use std::ops::Range;

/// A worker's private slice of the detection state: a contiguous granule
/// range, its own shadow-memory table, and the races found so far.
///
/// Built from the same two-level [`AccessHistory`] the sequential detector
/// uses; granule indices stay global, so pages outside the partition's range
/// are simply never allocated.
#[derive(Debug)]
pub struct ShadowPartition {
    range: Range<u64>,
    history: AccessHistory,
    /// Granules already known racy (mirrors the first-witness-per-granule
    /// rule of [`RaceReport::record`]).
    racy: HashSet<u64>,
    /// First witness race per granule, with the trace position of the access
    /// that exposed it (the deterministic merge key).
    witnesses: Vec<(u32, Race)>,
    /// Every racing pair observed, including repeats per granule.
    observations: u64,
}

impl ShadowPartition {
    /// Creates an empty partition owning `range` (half-open, in granules).
    pub fn new(range: Range<u64>) -> Self {
        Self {
            range,
            history: AccessHistory::new(),
            racy: HashSet::new(),
            witnesses: Vec::new(),
            observations: 0,
        }
    }

    /// The granule range this partition owns.
    pub fn range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// True iff this partition owns `granule`.
    pub fn owns(&self, granule: u64) -> bool {
        self.range.contains(&granule)
    }

    /// Number of shadow pages this partition allocated.
    pub fn shadow_pages(&self) -> usize {
        self.history.num_pages()
    }

    /// Racing pairs observed so far (including repeats per granule).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Witness races found so far (one per racy granule, in trace order).
    pub fn witnesses(&self) -> &[(u32, Race)] {
        &self.witnesses
    }

    fn found(&mut self, pos: u32, race: Race) {
        self.observations += 1;
        let granule = race.addr.granule();
        if self.racy.insert(granule) {
            self.witnesses.push((pos, race));
        }
    }

    /// Processes one granule-level access through the same Section 3
    /// protocol as the sequential detector ([`AccessHistory::access`]),
    /// answering its checks from the frozen index. Queries go through the
    /// worker's cursor; accesses must arrive in trace order.
    pub(crate) fn apply(
        &mut self,
        index: &ReachIndex,
        cursor: &mut IndexCursor,
        acc: &GranuleAccess,
    ) {
        debug_assert!(self.owns(acc.granule));
        let addr = MemAddr(acc.granule * MemAddr::GRANULARITY);
        let kind = if acc.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Collect the racing pairs first: the history borrow must end before
        // the witness bookkeeping takes `&mut self` again. The history
        // checks in the sequential detector's order, so the first witness
        // per granule is the same race.
        let mut races: Vec<Race> = Vec::new();
        self.history
            .access(acc.granule, acc.strand, kind, |prior, prior_kind| {
                if index.precedes_at_cached(cursor, prior, acc.strand, acc.pos) {
                    return false;
                }
                races.push(Race {
                    addr,
                    prior_strand: prior,
                    prior_kind,
                    current_strand: acc.strand,
                    current_kind: kind,
                });
                true
            });
        for race in races {
            self.found(acc.pos, race);
        }
    }

    /// Runs this partition's whole slice of the access stream.
    pub(crate) fn run(&mut self, index: &ReachIndex, accesses: &[GranuleAccess]) {
        let mut cursor = index.cursor();
        for acc in accesses {
            self.apply(index, &mut cursor, acc);
        }
    }

    /// Access-history counters accumulated so far (the partition's share of
    /// the sequential detector's [`DetectorStats`]).
    pub fn stats(&self) -> DetectorStats {
        self.history.stats()
    }

    /// Extracts the partition's result (range, witnesses, observation
    /// count, access-history counters) — the unit a persistent detection
    /// store caches and merges.
    pub fn into_outcome(self) -> PartitionOutcome {
        PartitionOutcome {
            range: self.range,
            witnesses: self.witnesses,
            observations: self.observations,
            stats: self.history.stats(),
        }
    }
}

/// One partition's detection result: its granule range, the first-witness
/// race per racy granule (tagged with the trace position that exposed it)
/// and the total racing pairs observed.
///
/// Outcomes are the exchange format between the engine and
/// `futurerd-store`: a stored outcome for a granule range stays valid as
/// long as no appended event touches a granule in that range, so incremental
/// re-detection merges cached outcomes with freshly recomputed ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// The granule range the partition owned (half-open).
    pub range: Range<u64>,
    /// First witness race per racy granule, with the trace position of the
    /// access that exposed it.
    pub witnesses: Vec<(u32, Race)>,
    /// Every racing pair observed, including repeats per granule.
    pub observations: u64,
    /// The partition's access-history counters. `read_checks +
    /// write_checks` is the number of granule accesses this partition
    /// processed — the load figure incremental re-balancing steers by.
    pub stats: DetectorStats,
}

/// Runs detection over one granule range of the access stream against a
/// frozen index, sequentially, and returns the partition's outcome.
/// `accesses` is the **full** stream; accesses outside `range` are skipped.
pub fn run_partition(
    index: &ReachIndex,
    range: Range<u64>,
    accesses: &[GranuleAccess],
) -> PartitionOutcome {
    let mut partition = ShadowPartition::new(range);
    let mut cursor = index.cursor();
    for acc in accesses {
        if partition.owns(acc.granule) {
            partition.apply(index, &mut cursor, acc);
        }
    }
    partition.into_outcome()
}

/// Splits the granule space into at most `parts` contiguous ranges of
/// roughly equal access counts (balanced sharding: partition boundaries
/// follow the access histogram, not the raw address span).
pub fn partition_ranges(accesses: &[GranuleAccess], parts: usize) -> Vec<Range<u64>> {
    let parts = parts.max(1);
    if accesses.is_empty() {
        return Vec::new();
    }
    if parts == 1 {
        // No split point needed: one range covering the touched space.
        let lo = accesses.iter().map(|a| a.granule).min().expect("non-empty");
        let hi = accesses.iter().map(|a| a.granule).max().expect("non-empty");
        return std::iter::once(lo..hi + 1).collect();
    }
    // Sort a granule array once instead of hash/tree counting: the split
    // points are the granules at the access-count quantiles.
    let mut granules: Vec<u64> = accesses.iter().map(|a| a.granule).collect();
    granules.sort_unstable();
    let lo = granules[0];
    let hi = granules[granules.len() - 1] + 1;
    let total = granules.len() as u64;
    let target = total.div_ceil(parts as u64);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = lo;
    let mut taken = 0u64; // accesses already assigned to closed ranges
    let mut i = 0usize;
    while i < granules.len() && ranges.len() + 1 < parts {
        // Walk one whole granule run (a boundary cannot split a granule).
        let granule = granules[i];
        let mut j = i;
        while j < granules.len() && granules[j] == granule {
            j += 1;
        }
        if (j as u64 - taken) >= target {
            ranges.push(start..granule + 1);
            start = granule + 1;
            taken = j as u64;
        }
        i = j;
    }
    if start < hi {
        ranges.push(start..hi);
    }
    debug_assert!(ranges.len() <= parts);
    debug_assert_eq!(ranges.first().map(|r| r.start), Some(lo));
    debug_assert_eq!(ranges.last().map(|r| r.end), Some(hi));
    ranges
}

/// Buckets the access stream by partition, preserving trace order within
/// each bucket. Ranges must be sorted and disjoint (as produced by
/// [`partition_ranges`]).
pub fn bucket_accesses(
    accesses: &[GranuleAccess],
    ranges: &[Range<u64>],
) -> Vec<Vec<GranuleAccess>> {
    if ranges.len() <= 1 {
        return if ranges.is_empty() {
            Vec::new()
        } else {
            vec![accesses.to_vec()]
        };
    }
    let ends: Vec<u64> = ranges.iter().map(|r| r.end).collect();
    let mut buckets: Vec<Vec<GranuleAccess>> = ranges.iter().map(|_| Vec::new()).collect();
    for acc in accesses {
        let idx = ends.partition_point(|&end| end <= acc.granule);
        debug_assert!(ranges[idx].contains(&acc.granule));
        buckets[idx].push(*acc);
    }
    buckets
}

/// Merges per-partition results into one [`RaceReport`] byte-identical to
/// what the sequential detector produced: witnesses are replayed into the
/// report sorted by trace position (tie-broken by granule, the order a
/// single wide access reports its granules in), and the observation total is
/// restored afterwards.
///
/// The merge is *range-agnostic*: any set of outcomes whose ranges cover
/// every touched granule exactly once yields the same report, which is why a
/// store can mix cached outcomes (from an earlier partitioning) with freshly
/// recomputed ones.
pub fn merge_outcomes(outcomes: impl IntoIterator<Item = PartitionOutcome>) -> RaceReport {
    merge_outcomes_stats(outcomes).0
}

/// As [`merge_outcomes`], but also sums the per-partition access-history
/// counters into one [`DetectorStats`] — what a multi-threaded detection
/// reports instead of dropping the counters.
///
/// The summed counters equal the sequential detector's on every field
/// except `shadow_pages`: pages are per-partition tables, so a page whose
/// granules straddle a partition boundary is counted once per partition
/// that touched it.
pub fn merge_outcomes_stats(
    outcomes: impl IntoIterator<Item = PartitionOutcome>,
) -> (RaceReport, DetectorStats) {
    let _span = futurerd_obs::Span::enter(futurerd_obs::names::MERGE);
    let mut total = 0u64;
    let mut stats = DetectorStats::default();
    let mut all: Vec<(u32, Race)> = Vec::new();
    for outcome in outcomes {
        total += outcome.observations;
        let s = &outcome.stats;
        stats.read_checks += s.read_checks;
        stats.write_checks += s.write_checks;
        stats.readers_recorded += s.readers_recorded;
        stats.readers_cleared += s.readers_cleared;
        stats.races_found += s.races_found;
        stats.shadow_pages += s.shadow_pages;
        all.extend(outcome.witnesses);
    }
    all.sort_by_key(|&(pos, race)| (pos, race.addr.granule()));
    let mut report = RaceReport::default();
    let mut recorded = 0u64;
    for (_, race) in all {
        report.record(race);
        recorded += 1;
    }
    report.add_observations(total - recorded);
    (report, stats)
}

/// Re-balancing trigger for incremental pass 2: re-partition when the most
/// loaded stored range carries more than this many times its fair share of
/// the (grown) access stream.
pub const REBALANCE_DRIFT_FACTOR: u64 = 2;

/// The result of [`incremental_outcomes`]: the merged-ready outcome set
/// plus how it was assembled.
#[derive(Debug, Clone)]
pub struct IncrementalOutcomes {
    /// One outcome per partition, in granule order (cached ones reused
    /// verbatim, touched ones recomputed).
    pub outcomes: Vec<PartitionOutcome>,
    /// Partitions recomputed because the appended suffix touched their
    /// granules (or because their range changed in a re-balance).
    pub rerun: usize,
    /// Partitions whose cached outcomes were reused verbatim.
    pub reused: usize,
    /// True if the access histogram drifted past
    /// [`REBALANCE_DRIFT_FACTOR`] and the partition ranges were recomputed
    /// from the full stream.
    pub rebalanced: bool,
}

/// Incremental pass 2: given the cached outcomes of a previous detection
/// and the accesses appended since, re-runs only partitions whose granule
/// range the suffix touched and reuses the rest verbatim. Boundary ranges
/// are widened to absorb granules outside the old coverage.
///
/// Long append chains unbalance a partitioning that was computed for a
/// younger trace: appends concentrated on a few granules pile work onto one
/// partition until the P-way speedup collapses. Each call therefore checks
/// the access histogram against the stored ranges — using the per-outcome
/// check counters, so no pass over the full stream is needed — and once the
/// most loaded range exceeds [`REBALANCE_DRIFT_FACTOR`] times its fair
/// share, re-partitions from the full stream ([`partition_ranges`]) and
/// recomputes whatever the new boundaries invalidate. Cached outcomes whose
/// exact range survives a re-balance untouched are still reused: the merge
/// is range-agnostic.
///
/// Re-runs replay their range over the **full** access stream (shadow state
/// must be rebuilt from the beginning), in parallel on `executor`.
pub fn incremental_outcomes(
    index: &ReachIndex,
    accesses: &[GranuleAccess],
    fresh: &[GranuleAccess],
    stored: Vec<PartitionOutcome>,
    parts: usize,
    executor: &impl DetectExecutor,
) -> IncrementalOutcomes {
    let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
    if fresh.is_empty() || stored.is_empty() {
        let reused = stored.len();
        return IncrementalOutcomes {
            outcomes: stored,
            rerun: 0,
            reused,
            rebalanced: false,
        };
    }
    // Widen the boundary ranges so appended granules outside the old
    // coverage belong somewhere (widening implies the range is touched, so
    // it is recomputed below either way).
    let mut ranges: Vec<Range<u64>> = stored.iter().map(|o| o.range.clone()).collect();
    let min_new = fresh.iter().map(|a| a.granule).min().expect("non-empty");
    let max_new = fresh.iter().map(|a| a.granule).max().expect("non-empty");
    if let Some(first) = ranges.first_mut() {
        first.start = first.start.min(min_new);
    }
    if let Some(last) = ranges.last_mut() {
        last.end = last.end.max(max_new + 1);
    }

    // Bin the suffix into the (widened) stored ranges once — the same pass
    // feeds the drift check (per-range load = the accesses the cached
    // detection processed, via its check counters, plus this suffix's
    // share) and the touched test below.
    let bin = |ranges: &[Range<u64>], fresh: &[GranuleAccess]| -> Vec<u64> {
        let ends: Vec<u64> = ranges.iter().map(|r| r.end).collect();
        let mut counts = vec![0u64; ranges.len()];
        let last = counts.len() - 1;
        for acc in fresh {
            let idx = ends.partition_point(|&end| end <= acc.granule);
            counts[idx.min(last)] += 1;
        }
        counts
    };
    let mut fresh_counts = bin(&ranges, fresh);
    let total: u64 = fresh_counts
        .iter()
        .zip(&stored)
        .map(|(f, o)| f + o.stats.read_checks + o.stats.write_checks)
        .sum();
    let max_load = fresh_counts
        .iter()
        .zip(&stored)
        .map(|(f, o)| f + o.stats.read_checks + o.stats.write_checks)
        .max()
        .unwrap_or(0);
    let drifted = parts > 1
        && ranges.len() > 1
        && max_load * (ranges.len() as u64) > REBALANCE_DRIFT_FACTOR * total;

    let (target, rebalanced) = if drifted {
        let fresh_ranges = partition_ranges(accesses, parts);
        let rebalanced = fresh_ranges != ranges;
        if rebalanced {
            // The touched test below is per *target* range: re-bin once.
            fresh_counts = bin(&fresh_ranges, fresh);
        }
        (fresh_ranges, rebalanced)
    } else {
        (ranges, false)
    };

    // A cached outcome survives iff its exact range reappears in the target
    // partitioning and the suffix did not touch it.
    let by_range: std::collections::HashMap<(u64, u64), &PartitionOutcome> = stored
        .iter()
        .map(|o| ((o.range.start, o.range.end), o))
        .collect();
    let mut outcomes: Vec<Option<PartitionOutcome>> = target
        .iter()
        .zip(&fresh_counts)
        .map(|(r, &fresh_in_range)| {
            if fresh_in_range == 0 {
                by_range.get(&(r.start, r.end)).map(|&o| o.clone())
            } else {
                None
            }
        })
        .collect();

    let rerun_ranges: Vec<(usize, Range<u64>)> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| (i, target[i].clone()))
        .collect();
    let rerun = rerun_ranges.len();
    let reused = target.len() - rerun;
    let mut slots: Vec<Option<PartitionOutcome>> = vec![None; rerun];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .zip(&rerun_ranges)
        .map(|(slot, (_, range))| {
            let range = range.clone();
            Box::new(move || {
                let _task = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_PARTITION);
                *slot = Some(run_partition(index, range, accesses))
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    executor.run_batch(tasks);
    for ((i, _), slot) in rerun_ranges.into_iter().zip(slots) {
        outcomes[i] = Some(slot.expect("partition task ran"));
    }
    IncrementalOutcomes {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect(),
        rerun,
        reused,
        rebalanced,
    }
}

/// Merges finished partitions into one report (see [`merge_outcomes`]).
pub(crate) fn merge_reports(partitions: Vec<ShadowPartition>) -> RaceReport {
    merge_outcomes(partitions.into_iter().map(ShadowPartition::into_outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::StrandId;

    fn acc(granule: u64, pos: u32, strand: u32, is_write: bool) -> GranuleAccess {
        GranuleAccess {
            granule,
            pos,
            strand: StrandId(strand),
            is_write,
        }
    }

    #[test]
    fn partitioning_balances_by_access_count() {
        // Granule 10 is hot; the split should isolate it rather than halving
        // the address span.
        let mut accesses = Vec::new();
        for pos in 0..90 {
            accesses.push(acc(10, pos, 0, false));
        }
        for (i, pos) in (90..100).enumerate() {
            accesses.push(acc(100 + i as u64, pos, 0, false));
        }
        let ranges = partition_ranges(&accesses, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], 10..11);
        assert_eq!(ranges[1], 11..110);
    }

    #[test]
    fn partitioning_covers_the_space_contiguously() {
        let accesses: Vec<_> = (0..64u64).map(|g| acc(g, g as u32, 0, false)).collect();
        for parts in [1, 2, 3, 7, 64, 100] {
            let ranges = partition_ranges(&accesses, parts);
            assert!(!ranges.is_empty() && ranges.len() <= parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, 64);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap at {pair:?}");
            }
        }
    }

    #[test]
    fn empty_access_stream_yields_no_partitions() {
        assert!(partition_ranges(&[], 4).is_empty());
    }

    #[test]
    fn buckets_preserve_trace_order() {
        let accesses = vec![
            acc(5, 0, 0, true),
            acc(50, 1, 0, true),
            acc(5, 2, 1, false),
            acc(50, 3, 1, false),
        ];
        let ranges = vec![0..10, 10..60];
        let buckets = bucket_accesses(&accesses, &ranges);
        assert_eq!(buckets[0].iter().map(|a| a.pos).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(buckets[1].iter().map(|a| a.pos).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn partition_tracks_first_witness_per_granule() {
        let mut p = ShadowPartition::new(0..100);
        assert!(p.owns(5) && !p.owns(100));
        let race = Race {
            addr: MemAddr(5 * MemAddr::GRANULARITY),
            prior_strand: StrandId(1),
            prior_kind: AccessKind::Write,
            current_strand: StrandId(2),
            current_kind: AccessKind::Read,
        };
        p.found(7, race);
        p.found(9, race);
        assert_eq!(p.observations(), 2);
        assert_eq!(p.witnesses().len(), 1);
        assert_eq!(p.witnesses()[0].0, 7);
    }

    #[test]
    fn merge_restores_observation_totals() {
        let mut a = ShadowPartition::new(0..10);
        let mut b = ShadowPartition::new(10..20);
        let race_a = Race {
            addr: MemAddr(4),
            prior_strand: StrandId(1),
            prior_kind: AccessKind::Write,
            current_strand: StrandId(2),
            current_kind: AccessKind::Read,
        };
        let race_b = Race {
            addr: MemAddr(15 * MemAddr::GRANULARITY),
            prior_strand: StrandId(3),
            prior_kind: AccessKind::Read,
            current_strand: StrandId(4),
            current_kind: AccessKind::Write,
        };
        b.found(2, race_b);
        a.found(5, race_a);
        a.found(6, race_a);
        let report = merge_reports(vec![a, b]);
        assert_eq!(report.race_count(), 2);
        assert_eq!(report.total_observations(), 3);
        // Sorted by position: the partition-b race comes first.
        assert_eq!(report.witnesses()[0], race_b);
        assert_eq!(report.witnesses()[1], race_a);
    }
}
