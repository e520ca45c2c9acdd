//! Session-equivalence properties: `Session::ingest` over **any** chunking
//! of an event stream — including one event at a time — yields, after
//! **every** chunk, a report byte-identical to one-shot sequential replay
//! (`replay_detect_unchecked`) of the prefix ingested so far, for both
//! paper algorithms, over seeded generated programs in both regimes.
//!
//! Also asserts that a store-backed session resumes across reopens at the
//! persisted length with the same report, and never writes a sidecar.

use futurerd::{Algorithm, Analysis, Config, Trace};
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_runtime::trace::record_spec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 6;
const ALGORITHMS: [(Algorithm, ReplayAlgorithm); 2] = [
    (Algorithm::MultiBags, ReplayAlgorithm::MultiBags),
    (Algorithm::MultiBagsPlus, ReplayAlgorithm::MultiBagsPlus),
];

/// Splits `len` into random chunk lengths (1 ≤ chunk ≤ 7, biased small so
/// single-event chunks are common).
fn random_chunking(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut rest = len;
    while rest > 0 {
        let take = rng.gen_range(1usize..8).min(rest);
        sizes.push(take);
        rest -= take;
    }
    sizes
}

fn seeded_traces() -> Vec<(String, Trace)> {
    let mut traces = Vec::new();
    for (tag, config) in [
        ("structured", GenConfig::structured()),
        ("general", GenConfig::general()),
    ] {
        for seed in 0..SEEDS {
            let spec = generate_program(&config, seed);
            let (trace, _) = record_spec(&spec);
            traces.push((format!("{tag} seed {seed}"), trace));
        }
    }
    traces
}

/// The rendered one-shot sequential report of every prefix of `trace`:
/// `reports[n]` covers the first `n` events.
fn prefix_reports(trace: &Trace, algorithm: ReplayAlgorithm) -> Vec<String> {
    (0..=trace.len())
        .map(|n| {
            let mut prefix = Trace::new();
            prefix.extend_events(&trace.events()[..n]);
            replay_detect_unchecked(&prefix, algorithm).to_string()
        })
        .collect()
}

#[test]
fn session_ingest_over_any_chunking_matches_one_shot_replay() {
    let mut rng = StdRng::seed_from_u64(0x5e55_10e5);
    for (tag, trace) in seeded_traces() {
        for (algorithm, replay_algorithm) in ALGORITHMS {
            let config = Config::new().algorithm(algorithm);
            let expected = prefix_reports(&trace, replay_algorithm);
            let one_shot = config.replay(&trace).expect("canonical trace");
            // Three random chunkings plus the all-singletons worst case.
            let mut chunkings: Vec<Vec<usize>> = (0..3)
                .map(|_| random_chunking(&mut rng, trace.len()))
                .collect();
            chunkings.push(vec![1; trace.len()]);
            for (case, chunking) in chunkings.iter().enumerate() {
                let mut session = config.session();
                let mut at = 0;
                for &size in chunking {
                    session
                        .ingest(&trace.events()[at..at + size])
                        .expect("canonical prefix");
                    at += size;
                    let detection = session.report().expect("prefix reports");
                    assert_eq!(
                        detection.report().to_string(),
                        expected[at],
                        "{tag}: {algorithm:?} chunking #{case} diverged after {at} events"
                    );
                }
                assert!(session.is_complete(), "{tag}: chunking consumed the trace");
                let detection = session.report().expect("session reports");
                assert_eq!(detection.summary, one_shot.summary, "{tag}");
                assert_eq!(
                    detection.detector_stats, one_shot.detector_stats,
                    "{tag}: stats must not depend on chunking"
                );
            }
        }
    }
}

#[test]
fn live_sessions_never_pay_a_second_freeze() {
    // A live session never freezes at all: reports at random points are
    // snapshots of one detector, and each equals one-shot replay of its
    // prefix — at any `threads` setting, which sessions ignore.
    let mut rng = StdRng::seed_from_u64(0xf00d_f00d);
    for (tag, trace) in seeded_traces() {
        for (algorithm, replay_algorithm) in ALGORITHMS {
            let expected = prefix_reports(&trace, replay_algorithm);
            let mut session = Config::new().algorithm(algorithm).threads(4).session();
            let mut at = 0;
            for size in random_chunking(&mut rng, trace.len()) {
                session
                    .ingest(&trace.events()[at..at + size])
                    .expect("canonical prefix");
                at += size;
                if rng.gen_range(0u32..3) == 0 {
                    let detection = session.report().expect("prefix reports");
                    assert_eq!(detection.path, None, "{tag}: sessions are unrouted");
                    assert_eq!(
                        detection.report().to_string(),
                        expected[at],
                        "{tag}: {algorithm:?} report at {at} diverged"
                    );
                }
            }
            let last = session.report().expect("final report");
            assert_eq!(
                last.report().to_string(),
                expected[trace.len()],
                "{tag}: {algorithm:?} final report diverged"
            );
        }
    }
}

#[test]
fn every_algorithm_and_analysis_streams_like_one_shot_replay() {
    // One report path serves every configuration: chunked sessions agree
    // with one-shot replay on the report and on both statistics blocks.
    let mut rng = StdRng::seed_from_u64(0xa11_c0f9);
    for (tag, trace) in seeded_traces().into_iter().step_by(3) {
        for algorithm in [
            Algorithm::MultiBags,
            Algorithm::MultiBagsPlus,
            Algorithm::SpBagsConservative,
            Algorithm::GraphOracle,
        ] {
            for analysis in [
                Analysis::Baseline,
                Analysis::Reachability,
                Analysis::Instrumentation,
                Analysis::Full,
            ] {
                let config = Config::new().algorithm(algorithm).analysis(analysis);
                let one_shot = config.replay(&trace).expect("canonical trace");
                let mut session = config.session();
                let mut at = 0;
                for size in random_chunking(&mut rng, trace.len()) {
                    session
                        .ingest(&trace.events()[at..at + size])
                        .expect("canonical prefix");
                    at += size;
                }
                let streamed = session.report().expect("session reports");
                let context = format!("{tag}: {algorithm:?} {analysis:?}");
                assert_eq!(streamed.report, one_shot.report, "{context}");
                assert_eq!(streamed.reach_stats, one_shot.reach_stats, "{context}");
                assert_eq!(
                    streamed.detector_stats, one_shot.detector_stats,
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn stored_sessions_resume_across_reopens() {
    let spec = generate_program(&GenConfig::general(), 11);
    let (trace, _) = record_spec(&spec);
    let expected = prefix_reports(&trace, ReplayAlgorithm::MultiBagsPlus);

    let dir = std::env::temp_dir().join(format!(
        "futurerd-session-equiv-{}-reopen",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = Config::store(&dir).expect("store opens");
    let cut = trace.len() / 3;
    let mut prefix = Trace::new();
    prefix.extend_events(&trace.events()[..cut]);
    store.put_trace("grow", &prefix).expect("stores");

    // Session 1: the stored prefix, then one append.
    let mut session = Config::general()
        .open_session(&mut store, "grow")
        .expect("opens");
    assert_eq!(
        session.report().expect("prefix").report().to_string(),
        expected[cut]
    );
    let mid = 2 * trace.len() / 3;
    session.ingest(&trace.events()[cut..mid]).expect("appends");
    let grown = session.report().expect("grown").report().to_string();
    assert_eq!(grown, expected[mid]);
    drop(session);

    // Session 2 resumes at the persisted length with the same report, then
    // takes the rest.
    let mut session = Config::general()
        .open_session(&mut store, "grow")
        .expect("reopens");
    assert_eq!(session.len(), mid);
    assert_eq!(
        session.report().expect("resumed").report().to_string(),
        grown
    );
    session.ingest(&trace.events()[mid..]).expect("appends");
    let last = session.report().expect("final");
    drop(session);

    assert_eq!(
        last.report().to_string(),
        expected[trace.len()],
        "stored session diverged from one-shot replay"
    );
    assert_eq!(
        store.load_trace("grow").expect("persisted").events(),
        trace.events()
    );
    let sidecar = store.sidecar_path("grow", ReplayAlgorithm::MultiBagsPlus);
    assert!(!sidecar.exists(), "sessions never write sidecars");
    std::fs::remove_dir_all(&dir).ok();
}
