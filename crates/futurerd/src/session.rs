//! Long-lived detection sessions: the paper's on-the-fly detector fed one
//! chunk at a time. The module is private — [`Session`] (re-exported at the
//! crate root) carries the documentation.

use crate::error::Error;
use crate::{summary_from_counts, Algorithm, AnyObserver, Config, Detection, Outcome};
use futurerd_dag::source::EventSource;
use futurerd_dag::trace::{replay_events, PrefixValidator, Trace, TraceEvent};
use futurerd_store::Store;

/// A long-lived, incrementally-fed detection session: one live detector
/// that absorbs an execution's event stream as it grows.
///
/// Open one from a [`Config`] ([`Config::session`], ephemeral) or from a
/// [`Store`] entry ([`Config::open_session`], persistent),
/// [`ingest`](Session::ingest) event chunks as the observed execution
/// grows, and ask for a [`report`](Session::report) at any point.
///
/// MultiBags and MultiBags+ are on-the-fly algorithms (the paper's §4–5):
/// their state absorbs each event in amortized near-constant time and can
/// answer at any point of the stream. A session is exactly that: a prefix
/// validator, the accumulated [`Trace`], and one live observer built from
/// the [`Config`] — for every algorithm and analysis level. Each event is
/// validated and detected on exactly once; a report snapshots the
/// detector's state without consuming it, so later chunks continue where
/// the last report left off.
///
/// The report is **byte-identical** to one-shot sequential replay of the
/// accumulated prefix, for any chunking — the property tests assert this
/// after every chunk, over random chunkings down to single events.
pub struct Session<'s> {
    config: Config,
    validator: PrefixValidator,
    trace: Trace,
    observer: AnyObserver,
    /// Store binding of a persistent session (plus its entry name).
    store: Option<(&'s mut Store, String)>,
    /// Events ingested since the trace was last saved to the store.
    dirty: bool,
    /// Wall time spent inside [`Session::ingest`] while observability
    /// recording was enabled — feeds the `session.ingest.events_per_sec`
    /// gauge. Stays zero (and costs nothing) when recording is off.
    ingest_ns: u64,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("events", &self.validator.position())
            .field("complete", &self.validator.is_complete())
            .field("stored", &self.store.as_ref().map(|(_, name)| name))
            .finish_non_exhaustive()
    }
}

impl Config {
    /// Opens an **ephemeral** detection session for this configuration: all
    /// state lives in memory and dies with the session.
    ///
    /// # Example
    ///
    /// ```
    /// use futurerd::Config;
    ///
    /// let recorded = futurerd::record(|cx| {
    ///     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
    ///     cx.spawn(|cx| cell.set(cx, 1));
    ///     let racy = cell.get(cx);
    ///     cx.sync();
    ///     racy
    /// });
    /// let mut session = Config::structured().session();
    /// for event in recorded.trace.events() {
    ///     session.ingest(std::slice::from_ref(event)).unwrap();
    /// }
    /// let detection = session.report().unwrap();
    /// assert_eq!(detection.race_count(), 1);
    /// ```
    pub fn session(self) -> Session<'static> {
        Session {
            config: self,
            validator: PrefixValidator::new(),
            trace: Trace::new(),
            observer: self.build_observer(),
            store: None,
            dirty: false,
            ingest_ns: 0,
        }
    }

    /// Opens a **persistent** detection session on a [`Store`] entry.
    ///
    /// The stored trace is loaded and replayed into a fresh detector, so
    /// the session resumes at the persisted length. Every
    /// [`Session::report`] that follows an ingest saves the grown trace
    /// back to the entry ([`Store::put_trace`]); a later open resumes from
    /// there. Sessions read and write no `FRDIDX` sidecar — those belong to
    /// [`Store::detect`] (and [`Config::replay_stored`]).
    ///
    /// Every algorithm and analysis level is accepted, exactly as for
    /// [`Config::session`].
    pub fn open_session<'s>(self, store: &'s mut Store, name: &str) -> Result<Session<'s>, Error> {
        let trace = store.load_trace(name)?;
        let mut session = Session {
            store: Some((store, name.to_string())),
            ..self.session()
        };
        session.ingest(trace.events())?;
        session.dirty = false;
        Ok(session)
    }
}

impl Session<'_> {
    /// The configuration this session detects under.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Number of events ingested so far.
    pub fn len(&self) -> usize {
        self.validator.position()
    }

    /// True if no events have been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the stream has reached its `ProgramEnd` — further ingests
    /// will be rejected by validation.
    pub fn is_complete(&self) -> bool {
        self.validator.is_complete()
    }

    /// The accumulated event stream.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// True once the stream has created a future.
    fn saw_future(&self) -> bool {
        self.validator.counts().creates > 0
    }

    /// Ingests the next chunk of the execution's event stream.
    ///
    /// The chunk is validated as the continuation of the canonical
    /// serial-DF prefix seen so far, then fed to the live detector: each
    /// event is validated and detected on exactly once, however many
    /// chunks the stream arrives in.
    ///
    /// On a validation error the chunk's valid prefix is retained, the
    /// offending event and everything after it are dropped, and the session
    /// refuses further ingests (the stream is corrupt at a known
    /// position); reports on the retained prefix remain available.
    pub fn ingest(&mut self, events: &[TraceEvent]) -> Result<(), Error> {
        if events.is_empty() {
            return Ok(());
        }
        let started = futurerd_obs::enabled().then(std::time::Instant::now);
        let before = self.validator.position();
        let result = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::VALIDATE);
            self.validator.extend(events)
        };
        let accepted = &events[..self.validator.position() - before];
        if !accepted.is_empty() {
            self.trace.extend_events(accepted);
            // SP-Bags has no transition for futures: once the stream holds
            // one, reports refuse, so the detector must never see it.
            if !(self.config.algorithm == Algorithm::SpBags && self.saw_future()) {
                let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
                replay_events(accepted, &mut self.observer);
            }
            self.dirty = true;
        }
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.ingest_ns = self.ingest_ns.saturating_add(ns);
            futurerd_obs::counter_add(
                futurerd_obs::names::SESSION_INGEST_EVENTS,
                accepted.len() as u64,
            );
            if self.ingest_ns > 0 {
                let rate = (self.validator.position() as u128).saturating_mul(1_000_000_000)
                    / u128::from(self.ingest_ns);
                futurerd_obs::gauge_set(
                    futurerd_obs::names::SESSION_INGEST_EVENTS_PER_SEC,
                    u64::try_from(rate).unwrap_or(u64::MAX),
                );
            }
        }
        result?;
        Ok(())
    }

    /// Drains an [`EventSource`] into the session: a whole [`Trace`], a
    /// chunk queue, or a live
    /// [`TraceRecorder`](futurerd_runtime::trace::TraceRecorder). Returns
    /// the number of events ingested.
    pub fn ingest_from(&mut self, source: &mut impl EventSource) -> Result<usize, Error> {
        let mut total = 0;
        loop {
            let chunk = source.take_events();
            if chunk.is_empty() {
                return Ok(total);
            }
            total += chunk.len();
            self.ingest(&chunk)?;
        }
    }

    /// Reports on everything ingested so far by snapshotting the live
    /// detector; the session keeps absorbing later chunks. The report is
    /// byte-identical to one-shot [`Config::replay`] of the accumulated
    /// trace. A persistent session first saves its grown trace to the
    /// store.
    ///
    /// Incomplete streams are fine: a report on a prefix reflects the
    /// execution so far. [`Algorithm::SpBags`] returns
    /// [`Error::Unsupported`] once the stream contains a future.
    pub fn report(&mut self) -> Result<Detection<()>, Error> {
        if self.dirty {
            if let Some((store, name)) = &mut self.store {
                store.put_trace(name, &self.trace)?;
            }
            self.dirty = false;
        }
        let saw_future = self.saw_future();
        if self.config.algorithm == Algorithm::SpBags && saw_future {
            return Err(Error::unsupported(
                "SP-Bags cannot consume traces that contain futures",
            ));
        }
        let Outcome {
            mut report,
            reach_stats,
            detector_stats,
        } = self.observer.outcome();
        if self.config.algorithm == Algorithm::SpBagsConservative && saw_future {
            // The conservative fallback folded futures into fork-join
            // constructs: the verdict is approximate by construction.
            if let Some(report) = report.as_mut() {
                report.mark_approximate();
            }
        }
        if futurerd_obs::enabled() {
            if let Some(stats) = &reach_stats {
                stats.export_metrics("reach");
            }
            if let Some(stats) = &detector_stats {
                stats.export_metrics("detector");
            }
        }
        Ok(Detection {
            value: (),
            summary: summary_from_counts(&self.validator.counts()),
            config: self.config,
            report,
            reach_stats,
            detector_stats,
            path: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, Analysis, Cx, ShadowCell};
    use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
    use futurerd_dag::source::ChunkedEvents;
    use futurerd_dag::StrandId;

    fn racy_body(cx: &mut Cx) -> u32 {
        let mut cell = ShadowCell::new(cx, 0u32);
        cx.spawn(|cx| cell.set(cx, 1));
        let v = cell.get(cx);
        cx.sync();
        v
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "futurerd-session-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(dir).expect("store opens")
    }

    /// One-shot sequential replay of `events`, rendered.
    fn one_shot(events: &[TraceEvent], algorithm: ReplayAlgorithm) -> String {
        let mut prefix = Trace::new();
        prefix.extend_events(events);
        replay_detect_unchecked(&prefix, algorithm).to_string()
    }

    /// Every file name in the store's directory, sorted.
    fn store_files(store: &Store) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(store.root())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn chunked_ingest_matches_one_shot_replay() {
        let recorded = record(racy_body);
        let events = recorded.trace.events();
        let one_shot_full = Config::structured().replay(&recorded.trace).unwrap();
        for chunk_size in [1, 3, recorded.trace.len()] {
            let mut session = Config::structured().session();
            for chunk in events.chunks(chunk_size) {
                session.ingest(chunk).unwrap();
                let prefix = &events[..session.len()];
                assert_eq!(
                    session.report().unwrap().report().to_string(),
                    one_shot(prefix, ReplayAlgorithm::MultiBags),
                    "chunk size {chunk_size} at {}",
                    session.len()
                );
            }
            assert!(session.is_complete());
            let detection = session.report().unwrap();
            assert_eq!(detection.summary, one_shot_full.summary);
            assert_eq!(detection.path, None, "sessions have nothing to route");
        }
    }

    #[test]
    fn live_session_never_refreezes_across_appends() {
        // One detector absorbs every append: reporting in between neither
        // consumes it nor replays what it has already seen.
        let recorded = record(racy_body);
        let events = recorded.trace.events();
        let cut = events.len() / 2;
        let mut session = Config::general().session();

        session.ingest(&events[..cut]).unwrap();
        let first = session.report().unwrap();
        assert_eq!(
            first.report().to_string(),
            one_shot(&events[..cut], ReplayAlgorithm::MultiBagsPlus)
        );

        session.ingest(&events[cut..]).unwrap();
        let second = session.report().unwrap();
        let third = session.report().unwrap();
        let full = one_shot(events, ReplayAlgorithm::MultiBagsPlus);
        for d in [&second, &third] {
            assert_eq!(d.report().to_string(), full);
        }
        assert_eq!(second.detector_stats, third.detector_stats);
        assert_eq!(second.race_count(), 1);
    }

    #[test]
    fn ingest_from_drains_chunk_queues_and_recorders() {
        let recorded = record(racy_body);
        let expected = Config::structured().replay(&recorded.trace).unwrap();

        let mut chunks = ChunkedEvents::new();
        for chunk in recorded.trace.events().chunks(2) {
            chunks.push_chunk(chunk.to_vec());
        }
        let mut session = Config::structured().session();
        let n = session.ingest_from(&mut chunks).unwrap();
        assert_eq!(n, recorded.trace.len());
        assert_eq!(
            session.report().unwrap().report().to_string(),
            expected.report().to_string()
        );

        // A whole Trace is a source too.
        let mut trace = record(racy_body).trace;
        let mut session = Config::structured().session();
        session.ingest_from(&mut trace).unwrap();
        assert!(trace.is_empty());
        assert_eq!(session.report().unwrap().race_count(), 1);
    }

    #[test]
    fn invalid_chunks_poison_the_session() {
        let mut session = Config::structured().session();
        let recorded = record(racy_body);
        session.ingest(recorded.trace.events()).unwrap();
        // The stream is complete: anything further violates the invariant.
        let err = session
            .ingest(&[TraceEvent::ProgramEnd { last: StrandId(0) }])
            .unwrap_err();
        assert!(err.is_trace(), "{err}");
        assert!(session
            .ingest(&[TraceEvent::ProgramEnd { last: StrandId(0) }])
            .is_err());
        // The last good state still reports.
        assert_eq!(session.report().unwrap().race_count(), 1);
    }

    #[test]
    fn stored_sessions_resume_warm_and_persist_appends() {
        let recorded = record(racy_body);
        let events = recorded.trace.events();
        let cut = events.len() / 2;
        let mut prefix = Trace::new();
        prefix.extend_events(&events[..cut]);

        let mut store = temp_store("resume");
        store.put_trace("grow", &prefix).unwrap();
        let before = store_files(&store);

        let mut session = Config::structured()
            .open_session(&mut store, "grow")
            .unwrap();
        assert_eq!(session.len(), cut);
        session.ingest(&events[cut..]).unwrap();
        let grown = session.report().unwrap();
        drop(session);

        // A re-opened session resumes at the persisted length, with the
        // detector already fed: the same report, no ingest needed.
        let mut session = Config::structured()
            .open_session(&mut store, "grow")
            .unwrap();
        assert_eq!(session.len(), events.len());
        assert!(session.is_complete(), "appends were persisted");
        let resumed = session.report().unwrap();
        drop(session);

        let full = one_shot(events, ReplayAlgorithm::MultiBags);
        assert_eq!(grown.report().to_string(), full);
        assert_eq!(resumed.report().to_string(), full);
        // Sessions save the trace only: no sidecar, no store traffic.
        assert_eq!(store_files(&store), before);
        assert_eq!(store.stats(), futurerd_store::StoreStats::default());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn threaded_detections_aggregate_detector_stats() {
        let recorded = record(racy_body);
        let sequential = Config::new()
            .algorithm(Algorithm::GraphOracle)
            .replay(&recorded.trace)
            .unwrap();
        let seq_stats = sequential.detector_stats.unwrap();
        for threads in [1, 4] {
            let parallel = Config::structured()
                .threads(threads)
                .replay(&recorded.trace)
                .unwrap();
            let par_stats = parallel
                .detector_stats
                .expect("full detection reports access-history counters");
            assert_eq!(par_stats.read_checks, seq_stats.read_checks, "P={threads}");
            assert_eq!(par_stats.write_checks, seq_stats.write_checks);
            assert_eq!(par_stats.readers_recorded, seq_stats.readers_recorded);
            assert_eq!(par_stats.readers_cleared, seq_stats.readers_cleared);
            assert_eq!(par_stats.races_found, seq_stats.races_found);
            assert_eq!(par_stats.shadow_pages, seq_stats.shadow_pages);
        }
    }

    #[test]
    fn fallback_algorithms_session_and_error_semantics() {
        // The oracle runs in a session like any other algorithm.
        let recorded = record(racy_body);
        let mut session = Config::new().algorithm(Algorithm::GraphOracle).session();
        session.ingest(recorded.trace.events()).unwrap();
        let d = session.report().unwrap();
        assert_eq!(d.race_count(), 1);
        assert!(d.reach_stats.is_some(), "live detectors keep full stats");

        // SP-Bags refuses futures at report time with the unified error,
        // and keeps refusing as the stream grows.
        let futures = record(|cx| {
            let fut = cx.create_future(|_| 1u32);
            cx.get_future(fut)
        });
        let events = futures.trace.events();
        let mut session = Config::new().algorithm(Algorithm::SpBags).session();
        session.ingest(&events[..events.len() - 1]).unwrap();
        assert!(session.report().unwrap_err().is_unsupported());
        session.ingest(&events[events.len() - 1..]).unwrap();
        assert!(session.report().unwrap_err().is_unsupported());
    }

    #[test]
    fn stored_sessions_accept_every_algorithm_and_analysis() {
        let recorded = record(racy_body);
        let mut store = temp_store("any-config");
        store.put_trace("t", &recorded.trace).unwrap();
        let before = store_files(&store);
        for config in [
            Config::new().algorithm(Algorithm::GraphOracle),
            Config::new().algorithm(Algorithm::SpBagsConservative),
            Config::general().analysis(Analysis::Reachability),
        ] {
            let mut session = config.open_session(&mut store, "t").unwrap();
            assert!(session.is_complete(), "{config:?}");
            let stored = session.report().unwrap();
            drop(session);
            let direct = config.replay(&recorded.trace).unwrap();
            assert_eq!(stored.report, direct.report, "{config:?}");
            assert_eq!(stored.reach_stats, direct.reach_stats, "{config:?}");
        }
        assert_eq!(store_files(&store), before, "sessions never write sidecars");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn partial_analysis_replay_stored_is_honored_not_upgraded() {
        let mut store = temp_store("partial");
        store.put_trace("t", &record(racy_body).trace).unwrap();
        let d = Config::general()
            .analysis(Analysis::Reachability)
            .replay_stored(&mut store, "t")
            .unwrap();
        // The requested partial analysis ran: no race report, but
        // reachability stats — previously this silently ran full detection.
        assert!(d.report.is_none());
        assert!(d.reach_stats.unwrap().dsu_ops() > 0);
        // And no sidecar was written for it.
        assert!(!store
            .sidecar_path("t", ReplayAlgorithm::MultiBagsPlus)
            .exists());
        std::fs::remove_dir_all(store.root()).ok();
    }
}
