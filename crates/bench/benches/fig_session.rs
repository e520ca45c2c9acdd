//! Session economics: what does a long-lived `futurerd::Session` buy a
//! client watching a *growing* execution?
//!
//! Same large seeded genprog traces as `fig_par_detect`/`fig_store`, fed in
//! `CHUNKS` equal appends with a verdict requested after every append — the
//! `futurerd-trace follow` workload. Per algorithm:
//!
//! * `one_shot`        — a single `Config::replay` of the full trace: the
//!   floor for producing one verdict from scratch;
//! * `session_follow`  — one session, `CHUNKS` ingests, a report after each
//!   (so `CHUNKS` verdicts): one live detector absorbs every event once,
//!   and each report snapshots it;
//! * `replay_each`     — the pre-session client: a fresh one-shot replay of
//!   the growing prefix after every append (`CHUNKS` verdicts, each event
//!   detected on up to `CHUNKS` times). `session_follow` must beat this
//!   decisively — that gap is the point of the session API.
//!
//! Scale the traces with `FUTURERD_SCALE`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use futurerd::{Algorithm, Config};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use std::time::Duration;

const CHUNKS: usize = 8;

fn big_trace(general: bool, seed: u64) -> Trace {
    let scale = std::env::var("FUTURERD_SCALE")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    let cfg = if general {
        GenConfig {
            max_depth: 9 + scale.ilog2(),
            max_actions: 14,
            num_locations: 96 * scale,
            max_accesses: 12,
            general_futures: true,
            w_compute: 10,
            w_get: 2,
            w_create: 2,
            w_spawn: 3,
            w_sync: 1,
        }
    } else {
        GenConfig {
            max_depth: 7 + scale.ilog2(),
            max_actions: 10,
            num_locations: 64 * scale,
            max_accesses: 6,
            ..GenConfig::structured()
        }
    };
    let (trace, _) = record_spec(&generate_program(&cfg, seed));
    trace
}

fn fig_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_session");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let cells = [
        (Algorithm::MultiBags, false, 0xf19u64),
        (Algorithm::MultiBagsPlus, true, 0x2au64),
    ];
    for (algorithm, general, seed) in cells {
        let trace = big_trace(general, seed);
        let config = Config::new().algorithm(algorithm);
        let name = match algorithm {
            Algorithm::MultiBags => "multibags",
            _ => "multibags_plus",
        };
        let chunk_len = trace.len().div_ceil(CHUNKS);
        eprintln!(
            "fig_session: {name} trace, {} events in {CHUNKS} chunks of ≤{chunk_len}",
            trace.len()
        );

        group.bench_with_input(BenchmarkId::new(name, "one_shot"), &trace, |b, trace| {
            b.iter(|| config.replay(trace).expect("canonical").race_count())
        });

        group.bench_with_input(
            BenchmarkId::new(name, format!("session_follow_{CHUNKS}")),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut session = config.session();
                    let mut races = 0;
                    for chunk in trace.events().chunks(chunk_len) {
                        session.ingest(chunk).expect("canonical prefix");
                        races = session.report().expect("prefix reports").race_count();
                    }
                    races
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new(name, format!("replay_each_{CHUNKS}")),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut races = 0;
                    let mut prefix = Trace::new();
                    for chunk in trace.events().chunks(chunk_len) {
                        prefix.extend_events(chunk);
                        // Growing prefixes are not complete traces; a
                        // pre-session client re-runs a fresh session per
                        // verdict (one-shot replay requires completeness).
                        let mut one_shot = config.session();
                        one_shot.ingest(prefix.events()).expect("canonical prefix");
                        races = one_shot.report().expect("reports").race_count();
                    }
                    races
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fig_session);
criterion_main!(benches);
