//! Race-detector observers: reachability structure + access history.
//!
//! The paper evaluates FutureRD in four configurations (Section 6); each has
//! a direct counterpart here, realized as a distinct observer type so the
//! compiler monomorphizes exactly the work each configuration performs —
//! the library-level analogue of FutureRD's separately compiled binaries:
//!
//! | Paper configuration | Observer |
//! |---|---|
//! | *baseline* — no race detection | [`futurerd_dag::NullObserver`] |
//! | *reachability* — maintain the reachability structure only | [`ReachabilityOnly`] |
//! | *instrumentation* — + memory-access instrumentation, but no access history | [`InstrumentationOnly`] |
//! | *full* — + access history updates and race queries | [`RaceDetector`] |

use crate::races::{AccessKind, Race, RaceReport};
use crate::reachability::{MultiBags, MultiBagsPlus, Reachability};
use crate::shadow::AccessHistory;
use crate::stats::{DetectorStats, ReachStats};
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::{FunctionId, MemAddr, Observer, StrandId};

/// Forwards parallel-construct events to a reachability structure and
/// ignores memory accesses: the paper's *reachability* configuration.
#[derive(Debug, Default)]
pub struct ReachabilityOnly<R> {
    reach: R,
}

impl<R: Reachability> ReachabilityOnly<R> {
    /// Wraps a reachability structure.
    pub fn new(reach: R) -> Self {
        Self { reach }
    }

    /// The wrapped reachability structure.
    pub fn reachability(&self) -> &R {
        &self.reach
    }

    /// Work statistics of the reachability structure.
    pub fn stats(&self) -> ReachStats {
        self.reach.stats()
    }
}

impl ReachabilityOnly<MultiBags> {
    /// MultiBags reachability (structured futures).
    pub fn structured() -> Self {
        Self::new(MultiBags::new())
    }
}

impl ReachabilityOnly<MultiBagsPlus> {
    /// MultiBags+ reachability (general futures).
    pub fn general() -> Self {
        Self::new(MultiBagsPlus::new())
    }
}

impl<R: Reachability> Observer for ReachabilityOnly<R> {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        self.reach.on_program_start(root, first);
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.reach.on_strand_start(strand, function);
    }
    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.reach.on_spawn(ev);
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.reach.on_create_future(ev);
    }
    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        self.reach.on_return(function, last);
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.reach.on_sync(ev);
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.reach.on_get_future(ev);
    }
    fn on_program_end(&mut self, last: StrandId) {
        self.reach.on_program_end(last);
    }
}

/// The *instrumentation* configuration: reachability is maintained and every
/// memory access pays the instrumentation cost (granule decomposition plus a
/// table-independent touch), but the access history is neither maintained
/// nor queried.
#[derive(Debug, Default)]
pub struct InstrumentationOnly<R> {
    reach: R,
    /// Granule-accesses observed (prevents the instrumentation work from
    /// being optimized away and doubles as a statistic).
    pub granules_touched: u64,
}

impl<R: Reachability> InstrumentationOnly<R> {
    /// Wraps a reachability structure.
    pub fn new(reach: R) -> Self {
        Self {
            reach,
            granules_touched: 0,
        }
    }

    /// Work statistics of the reachability structure.
    pub fn stats(&self) -> ReachStats {
        self.reach.stats()
    }
}

impl InstrumentationOnly<MultiBags> {
    /// MultiBags reachability (structured futures).
    pub fn structured() -> Self {
        Self::new(MultiBags::new())
    }
}

impl InstrumentationOnly<MultiBagsPlus> {
    /// MultiBags+ reachability (general futures).
    pub fn general() -> Self {
        Self::new(MultiBagsPlus::new())
    }
}

impl<R: Reachability> Observer for InstrumentationOnly<R> {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        self.reach.on_program_start(root, first);
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.reach.on_strand_start(strand, function);
    }
    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.reach.on_spawn(ev);
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.reach.on_create_future(ev);
    }
    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        self.reach.on_return(function, last);
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.reach.on_sync(ev);
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.reach.on_get_future(ev);
    }
    fn on_read(&mut self, _strand: StrandId, addr: MemAddr, size: usize) {
        self.granules_touched += addr.granules(size).count() as u64;
    }
    fn on_write(&mut self, _strand: StrandId, addr: MemAddr, size: usize) {
        self.granules_touched += addr.granules(size).count() as u64;
    }
    fn on_program_end(&mut self, last: StrandId) {
        self.reach.on_program_end(last);
    }
}

/// The *full* race detector: reachability + access history + race checks.
///
/// On every read of a location it checks the last writer; on every write it
/// checks the last writer and the whole reader list, then empties the list
/// (Section 3). Races are collected in a [`RaceReport`].
#[derive(Debug, Default)]
pub struct RaceDetector<R> {
    reach: R,
    history: AccessHistory,
    report: RaceReport,
}

impl<R: Reachability> RaceDetector<R> {
    /// Wraps a reachability structure with a fresh access history.
    pub fn new(reach: R) -> Self {
        Self {
            reach,
            history: AccessHistory::new(),
            report: RaceReport::default(),
        }
    }

    /// The race report accumulated so far.
    pub fn report(&self) -> &RaceReport {
        &self.report
    }

    /// Consumes the detector and returns the race report.
    pub fn into_report(self) -> RaceReport {
        self.report
    }

    /// Consumes the detector and returns the report plus both statistics
    /// blocks.
    pub fn into_parts(self) -> (RaceReport, ReachStats, DetectorStats) {
        (self.report, self.reach.stats(), self.history.stats())
    }

    /// Work statistics of the reachability structure.
    pub fn reach_stats(&self) -> ReachStats {
        self.reach.stats()
    }

    /// Access-history statistics.
    pub fn history_stats(&self) -> DetectorStats {
        self.history.stats()
    }

    /// The wrapped reachability structure.
    pub fn reachability(&self) -> &R {
        &self.reach
    }

    /// Queries the underlying reachability structure directly: is `strand`
    /// sequentially before the currently executing strand? Useful for tests
    /// and tools that want to inspect reachability without performing a
    /// memory access.
    pub fn strand_precedes_current(&mut self, strand: StrandId) -> bool {
        self.reach.precedes_current(strand)
    }
}

impl RaceDetector<MultiBags> {
    /// A full detector using MultiBags (structured futures).
    pub fn structured() -> Self {
        Self::new(MultiBags::new())
    }
}

impl RaceDetector<MultiBagsPlus> {
    /// A full detector using MultiBags+ (general futures).
    pub fn general() -> Self {
        Self::new(MultiBagsPlus::new())
    }
}

impl<R: Reachability> RaceDetector<R> {
    /// Runs the Section 3 protocol on every granule the access covers,
    /// answering the history's checks with reachability queries.
    fn handle(&mut self, strand: StrandId, addr: MemAddr, size: usize, kind: AccessKind) {
        let Self {
            reach,
            history,
            report,
        } = self;
        for granule in addr.granules(size) {
            history.access(granule, strand, kind, |prior, prior_kind| {
                if reach.precedes_current(prior) {
                    return false;
                }
                report.record(Race {
                    addr: MemAddr(granule * MemAddr::GRANULARITY),
                    prior_strand: prior,
                    prior_kind,
                    current_strand: strand,
                    current_kind: kind,
                });
                true
            });
        }
    }
}

impl<R: Reachability> Observer for RaceDetector<R> {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        self.reach.on_program_start(root, first);
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.reach.on_strand_start(strand, function);
    }
    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.reach.on_spawn(ev);
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.reach.on_create_future(ev);
    }
    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        self.reach.on_return(function, last);
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.reach.on_sync(ev);
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.reach.on_get_future(ev);
    }
    fn on_read(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.handle(strand, addr, size, AccessKind::Read);
    }
    fn on_write(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.handle(strand, addr, size, AccessKind::Write);
    }
    fn on_program_end(&mut self, last: StrandId) {
        self.reach.on_program_end(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::GraphOracle;
    use futurerd_dag::events::ForkInfo;

    /// Emit the events of: root writes x, spawns a child that writes x,
    /// continuation reads x (race with the child's write), sync, read again
    /// (no race).
    fn drive_fork_join_race<R: Reachability>(mut det: RaceDetector<R>) -> RaceReport {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let x = MemAddr(0x1000);
        det.on_program_start(root, StrandId(0));
        det.on_strand_start(StrandId(0), root);
        det.on_write(StrandId(0), x, 4);
        det.on_spawn(&SpawnEvent {
            parent: root,
            child,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        det.on_strand_start(StrandId(1), child);
        det.on_write(StrandId(1), x, 4); // no race: strand 0 precedes
        det.on_return(child, StrandId(1));
        det.on_strand_start(StrandId(2), root);
        det.on_read(StrandId(2), x, 4); // race with strand 1's write
        det.on_sync(&SyncEvent {
            parent: root,
            child,
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        });
        det.on_strand_start(StrandId(3), root);
        det.on_read(StrandId(3), x, 4); // no race after the sync
        det.on_program_end(StrandId(3));
        det.into_report()
    }

    #[test]
    fn fork_join_race_is_found_by_all_detectors() {
        for report in [
            drive_fork_join_race(RaceDetector::structured()),
            drive_fork_join_race(RaceDetector::general()),
            drive_fork_join_race(RaceDetector::new(GraphOracle::new())),
        ] {
            assert_eq!(report.race_count(), 1, "{report}");
            let witness = report.witnesses()[0];
            assert_eq!(witness.prior_strand, StrandId(1));
            assert_eq!(witness.current_strand, StrandId(2));
            assert_eq!(witness.prior_kind, AccessKind::Write);
            assert_eq!(witness.current_kind, AccessKind::Read);
        }
    }

    #[test]
    fn sequential_accesses_never_race() {
        let mut det = RaceDetector::structured();
        det.on_program_start(FunctionId(0), StrandId(0));
        det.on_strand_start(StrandId(0), FunctionId(0));
        let x = MemAddr(0x2000);
        det.on_write(StrandId(0), x, 4);
        det.on_read(StrandId(0), x, 4);
        det.on_write(StrandId(0), x, 4);
        assert!(det.report().is_race_free());
        let (report, reach_stats, det_stats) = det.into_parts();
        assert!(report.is_race_free());
        assert!(reach_stats.queries >= 2);
        assert_eq!(det_stats.write_checks, 2);
        assert_eq!(det_stats.read_checks, 1);
    }

    #[test]
    fn wide_accesses_check_every_granule() {
        let mut det = RaceDetector::structured();
        det.on_program_start(FunctionId(0), StrandId(0));
        det.on_strand_start(StrandId(0), FunctionId(0));
        det.on_write(StrandId(0), MemAddr(0x1000), 16);
        let stats = det.history_stats();
        assert_eq!(stats.write_checks, 4);
    }

    #[test]
    fn reader_list_cleared_by_writer() {
        // Two parallel readers then a parallel writer: the writer races with
        // both readers (2 observations) but the granule is reported once.
        let mut det = RaceDetector::general();
        let root = FunctionId(0);
        let x = MemAddr(0x1000);
        det.on_program_start(root, StrandId(0));
        det.on_strand_start(StrandId(0), root);
        det.on_read(StrandId(0), x, 4);

        // future 1 reads x in parallel, then root writes x.
        det.on_create_future(&CreateFutureEvent {
            parent: root,
            child: FunctionId(1),
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        det.on_strand_start(StrandId(1), FunctionId(1));
        det.on_read(StrandId(1), x, 4);
        det.on_return(FunctionId(1), StrandId(1));
        det.on_strand_start(StrandId(2), root);
        det.on_write(StrandId(2), x, 4);
        let report = det.report();
        assert_eq!(report.race_count(), 1);
        assert_eq!(report.total_observations(), 1);
        let stats = det.history_stats();
        assert_eq!(stats.readers_cleared, 2);
    }

    #[test]
    fn instrumentation_only_counts_granules_without_history() {
        let mut obs = InstrumentationOnly::structured();
        obs.on_program_start(FunctionId(0), StrandId(0));
        obs.on_strand_start(StrandId(0), FunctionId(0));
        obs.on_read(StrandId(0), MemAddr(0x1000), 8);
        obs.on_write(StrandId(0), MemAddr(0x1000), 4);
        assert_eq!(obs.granules_touched, 3);
        assert!(obs.stats().queries == 0);
    }

    #[test]
    fn reachability_only_ignores_memory() {
        let mut obs = ReachabilityOnly::general();
        obs.on_program_start(FunctionId(0), StrandId(0));
        obs.on_strand_start(StrandId(0), FunctionId(0));
        obs.on_read(StrandId(0), MemAddr(0x1000), 4);
        assert_eq!(obs.stats().queries, 0);
        assert_eq!(obs.reachability().name(), "multibags+");
    }
}
