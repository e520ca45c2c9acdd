//! Offline serving of two recorded genprog traces.
//!
//! The traces have the `fig_par_detect` / `fig_store` shapes: one
//! structured, served under MultiBags (tag `mb`), one general, served under
//! MultiBags+ (tag `mbp`). Each trace's known answer is the racy-granule
//! set of a `GraphOracle` replay (explicit transitive closure), computed
//! once in set-up. End to end, each trace takes six kinds of request:
//! `Config::replay` at one and at two threads, an 8-append `Session`
//! follow with a report after each append, and `Store::detect` cold, warm
//! and incremental after a 5% append. The traced run also times the layers
//! under them one public call at a time.

use crate::{median, ms_since, ratio, Metrics, Outcome, Served};
use futurerd::{Algorithm, Config};
use futurerd_core::parallel::{par_replay_detect, IncrementalFreezer, ReachIndex, RAW_NONE};
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_core::RaceReport;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use futurerd_store::{decode_sidecar, encode_sidecar, DetectionPath, Sidecar, Store};
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::Instant;

/// Appends (and reports) per follow request.
const CHUNKS: usize = 8;
/// The incremental request's sidecar is frozen at this share of the trace.
const PREFIX_PERCENT: usize = 95;

/// The bands a general trace's frozen index must fall in, as measured by
/// [`index_size`].
struct IndexBands {
    /// Encoded bytes of the index: they set the cost of decoding a
    /// sidecar (warm and incremental requests) and the workload's peak
    /// memory.
    bytes: RangeInclusive<usize>,
    /// Reachable entries of the timed closure of `R`: at a given event
    /// count they vary 4.6-fold between draws (36k-165k) and set the cost
    /// of replay and freezing (correlation 0.85 and 0.90 over 30 draws,
    /// where event count, bytes and every `ReachStats` count show none).
    closure_entries: RangeInclusive<usize>,
}

/// ±10% around the default general trace's encoded frozen index
/// (2,871,207 bytes), and the lower of the two clusters the closure
/// entries of in-band draws fall in (about 43% of draws; the default
/// trace's 210,133 lies above every one of 30 draws).
const INDEX_BANDS: IndexBands = IndexBands {
    bytes: 2_584_000..=3_158_300,
    closure_entries: 50_000..=100_000,
};

const REQUESTS: [&str; 6] = [
    "replay_p1",
    "replay_p2",
    "follow8",
    "store_cold",
    "store_warm",
    "store_incremental",
];

/// One trace shape: how to draw it and how to serve it.
struct Shape {
    tag: &'static str,
    algorithm: ReplayAlgorithm,
    /// The genprog seed of the default trace (used when no seed is given).
    default_seed: u64,
    /// A seeded draw is kept only if its event count falls in this band,
    /// ±5% around the default trace, so any seed serves traces of
    /// comparable size.
    events: RangeInclusive<usize>,
    /// Recorded events run at a near-constant multiple of the program's
    /// actions (3.6–3.7× structured, 5.9–6.1× general), so this looser band
    /// on actions rejects most draws before they are recorded.
    actions: RangeInclusive<usize>,
    /// For MultiBags+, the frozen index (the sidecar without its cached
    /// outcomes) must also fall in these bands: at a given event count its
    /// size and its closure still vary severalfold between draws, and they
    /// set the requests' cost.
    index: Option<IndexBands>,
    config: GenConfig,
}

fn shapes() -> [Shape; 2] {
    [
        Shape {
            tag: "mb",
            algorithm: ReplayAlgorithm::MultiBags,
            default_seed: 0xf19,
            events: 30_000..=33_200,
            actions: 7_800..=9_500,
            index: None,
            config: GenConfig {
                max_depth: 7,
                max_actions: 10,
                num_locations: 64,
                max_accesses: 6,
                ..GenConfig::structured()
            },
        },
        Shape {
            tag: "mbp",
            algorithm: ReplayAlgorithm::MultiBagsPlus,
            default_seed: 0x2a,
            events: 23_000..=25_400,
            actions: 3_700..=4_400,
            index: Some(INDEX_BANDS),
            config: GenConfig {
                max_depth: 9,
                max_actions: 14,
                num_locations: 96,
                max_accesses: 12,
                general_futures: true,
                w_compute: 10,
                w_get: 2,
                w_create: 2,
                w_spawn: 3,
                w_sync: 1,
            },
        },
    ]
}

/// SplitMix64: spreads (seed, attempt) pairs over the genprog seed space.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Picks the genprog seed of the shape's trace for the workload `seed`: the
/// default trace's without a seed, else that of the first draw that falls
/// in every band. This is input selection, done once per run before the
/// timed set-ups; its number of rejected draws depends on the seed.
fn select(shape: &Shape, seed: Option<u64>) -> Result<u64, String> {
    let Some(seed) = seed else {
        return Ok(shape.default_seed);
    };
    for attempt in 0..20_000u64 {
        let genprog_seed = mix(mix(seed ^ shape.default_seed) ^ attempt);
        let spec = generate_program(&shape.config, genprog_seed);
        if !shape.actions.contains(&spec.num_actions()) {
            continue;
        }
        let trace = record_spec(&spec).0;
        if !shape.events.contains(&trace.len()) {
            continue;
        }
        if let Some(bands) = &shape.index {
            let (bytes, closure_entries) = index_size(&trace, shape.algorithm)?;
            if !bands.bytes.contains(&bytes) || !bands.closure_entries.contains(&closure_entries) {
                continue;
            }
        }
        return Ok(genprog_seed);
    }
    Err(format!(
        "no {} trace in the bands for seed {seed}",
        shape.tag
    ))
}

/// Size of the trace's frozen index: bytes as the store encodes it, and
/// the reachable entries of its timed closure of `R` (0 for MultiBags).
fn index_size(trace: &Trace, algorithm: ReplayAlgorithm) -> Result<(usize, usize), String> {
    let mut freezer =
        IncrementalFreezer::new(algorithm).ok_or("the algorithm has no frozen form")?;
    freezer.extend(trace.events());
    let freeze = freezer.to_raw();
    let closure_entries = freeze.nsp.as_ref().map_or(0, |nsp| {
        nsp.closure_rows
            .iter()
            .flatten()
            .filter(|&&at| at != RAW_NONE)
            .count()
    });
    let sidecar = Sidecar {
        trace_hash: 0,
        freeze,
        outcomes: None,
    };
    Ok((encode_sidecar(&sidecar).len(), closure_entries))
}

/// The racy granules of a report, sorted.
fn granules(report: &RaceReport) -> Vec<u64> {
    let mut g: Vec<u64> = report.racy_granules().collect();
    g.sort_unstable();
    g
}

struct Entry {
    tag: &'static str,
    algorithm: ReplayAlgorithm,
    trace: Trace,
    /// The known answer: the `GraphOracle`'s racy granules, sorted.
    oracle: Vec<u64>,
    /// Sidecar of the whole trace (decoded by the traced run).
    sidecar: Vec<u8>,
    /// Sidecar frozen at `PREFIX_PERCENT` of the trace, restored before
    /// each incremental request.
    prefix_sidecar: Vec<u8>,
}

impl Entry {
    fn config(&self) -> Config {
        Config::new().algorithm(match self.algorithm {
            ReplayAlgorithm::MultiBags => Algorithm::MultiBags,
            _ => Algorithm::MultiBagsPlus,
        })
    }

    /// Store name of the trace the incremental request grows.
    fn grown(&self) -> String {
        format!("{}_grown", self.tag)
    }
}

pub struct Offline {
    entries: Vec<Entry>,
    store: Store,
}

impl Offline {
    /// The genprog seeds of both traces for the workload `seed` (see
    /// [`select`]); pass them to [`Offline::setup`].
    pub fn select(seed: Option<u64>) -> Result<[u64; 2], String> {
        let [mb, mbp] = shapes();
        Ok([select(&mb, seed)?, select(&mbp, seed)?])
    }

    /// Generates and records both traces from their genprog seeds, computes
    /// their oracle verdicts and populates a fresh store in `dir`.
    pub fn setup(genprog_seeds: [u64; 2], dir: &Path) -> Result<Self, String> {
        let traces = shapes()
            .into_iter()
            .zip(genprog_seeds)
            .map(|(shape, seed)| {
                let trace = record_spec(&generate_program(&shape.config, seed)).0;
                (shape.tag, shape.algorithm, trace)
            })
            .collect();
        Self::build(traces, dir)
    }

    fn build(
        traces: Vec<(&'static str, ReplayAlgorithm, Trace)>,
        dir: &Path,
    ) -> Result<Self, String> {
        std::fs::remove_dir_all(dir).ok();
        let mut store = Store::open(dir).map_err(|e| e.to_string())?;
        let mut entries = Vec::new();
        for (tag, algorithm, trace) in traces {
            trace.validate().map_err(|e| e.to_string())?;
            let oracle = granules(&replay_detect_unchecked(
                &trace,
                ReplayAlgorithm::GraphOracle,
            ));
            let mut entry = Entry {
                tag,
                algorithm,
                trace,
                oracle,
                sidecar: Vec::new(),
                prefix_sidecar: Vec::new(),
            };
            let fail = |e: futurerd_store::StoreError| format!("{tag}: {e}");
            store.put_trace(tag, &entry.trace).map_err(fail)?;
            store.detect(tag, algorithm, 1).map_err(fail)?;
            entry.sidecar = std::fs::read(store.sidecar_path(tag, algorithm))
                .map_err(|e| format!("{tag}: sidecar: {e}"))?;

            let grown = entry.grown();
            let mut prefix = Trace::new();
            prefix.extend_events(&entry.trace.events()[..entry.trace.len() * PREFIX_PERCENT / 100]);
            store.put_trace(&grown, &prefix).map_err(fail)?;
            store.detect(&grown, algorithm, 1).map_err(fail)?;
            entry.prefix_sidecar = std::fs::read(store.sidecar_path(&grown, algorithm))
                .map_err(|e| format!("{grown}: sidecar: {e}"))?;
            store.put_trace(&grown, &entry.trace).map_err(fail)?;
            eprintln!(
                "offline {tag}: {} events, {} racy granules, sidecar {} B",
                entry.trace.len(),
                entry.oracle.len(),
                entry.sidecar.len()
            );
            entries.push(entry);
        }
        Ok(Self { entries, store })
    }

    #[cfg(test)]
    pub fn tiny(dir: &Path) -> Result<Self, String> {
        let record = |config: &GenConfig, seed| record_spec(&generate_program(config, seed)).0;
        Self::build(
            vec![
                (
                    "mb",
                    ReplayAlgorithm::MultiBags,
                    record(&GenConfig::structured(), 7),
                ),
                (
                    "mbp",
                    ReplayAlgorithm::MultiBagsPlus,
                    record(&GenConfig::general(), 7),
                ),
            ],
            dir,
        )
    }

    #[cfg(test)]
    pub fn plant_wrong_oracle(&mut self, e: usize) {
        self.entries[e].oracle.push(u64::MAX);
    }

    /// Breaks the sidecar the incremental request of entry `e` restores, so
    /// the store can no longer serve it incrementally.
    #[cfg(test)]
    pub fn plant_broken_prefix_sidecar(&mut self, e: usize) {
        self.entries[e].prefix_sidecar = b"not a sidecar".to_vec();
    }
}

impl Served for Offline {
    fn inputs(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .flat_map(|e| {
                REQUESTS
                    .iter()
                    .map(|r| (format!("{}.{r}", e.tag), e.trace.len() as u64))
            })
            .collect()
    }

    fn request(&mut self, i: usize) -> Outcome {
        let e = &self.entries[i / REQUESTS.len()];
        let config = e.config();
        let timed_replay = |config: Config| {
            let (ms, d) = timed(|| config.replay(&e.trace));
            (ms, d.ok().and_then(|d| d.report), None)
        };
        let (ms, report, path) = match i % REQUESTS.len() {
            0 => timed_replay(config),
            1 => timed_replay(config.threads(2)),
            2 => {
                let (ms, report) = timed(|| follow(config, &e.trace));
                (ms, report, None)
            }
            kind => {
                // Untimed state handling: a cold request finds no sidecar,
                // a warm one the sidecar the cold request just wrote, an
                // incremental one the sidecar of the first 95%.
                let name = if kind == 5 {
                    e.grown()
                } else {
                    e.tag.to_string()
                };
                let sidecar = self.store.sidecar_path(&name, e.algorithm);
                let staged = match kind {
                    3 => std::fs::remove_file(&sidecar).is_ok(),
                    4 => true,
                    _ => std::fs::write(&sidecar, &e.prefix_sidecar).is_ok(),
                };
                let (ms, d) = timed(|| self.store.detect(&name, e.algorithm, 1));
                // The store falls back to a cold run when a sidecar does not
                // load or match, with the same report; so a request is right
                // only if the store also served it the way it was staged.
                let served_as_staged = |path: &DetectionPath| match kind {
                    3 => *path == DetectionPath::Cold,
                    4 => *path == DetectionPath::WarmCached,
                    _ => matches!(path, DetectionPath::Incremental { .. }),
                };
                match d {
                    Ok(d) if staged && served_as_staged(&d.path) => {
                        (ms, Some(d.report), Some(d.path))
                    }
                    Ok(d) => (ms, None, Some(d.path)),
                    Err(_) => (ms, None, None),
                }
            }
        };
        Outcome {
            ms,
            ok: report.is_some_and(|r| granules(&r) == e.oracle),
            path,
        }
    }
}

/// One session over the growing trace: `CHUNKS` appends with a report after
/// each; returns the last report.
fn follow(config: Config, trace: &Trace) -> Option<RaceReport> {
    let mut session = config.session();
    let mut last = None;
    for chunk in trace.events().chunks(trace.len().div_ceil(CHUNKS)) {
        session.ingest(chunk).ok()?;
        last = session.report().ok()?.report;
    }
    last
}

/// Layer probes, in print order; each times one public call.
const PROBES: [&str; 14] = [
    "trace.encode_ms",
    "trace.decode_ms",
    "trace.validate_ms",
    "replay.seq_ms",
    "parallel.freeze_ms",
    "parallel.detect_p1_ms",
    "parallel.detect_p2_ms",
    "session.replay_ms",
    "session.follow8_ms",
    "store.load_trace_ms",
    "store.sidecar_decode_ms",
    "store.cold_ms",
    "store.warm_ms",
    "store.incremental_ms",
];

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (ms_since(t), out)
}

/// The traced run's view of the offline workload.
pub struct Layers {
    w: Offline,
    /// `ms[entry][probe]`.
    ms: Vec<[Vec<f64>; PROBES.len()]>,
    /// The incremental request's (rerun, reused) partitions, per entry.
    incremental: Vec<Option<(usize, usize)>>,
    paths_repeat: bool,
    attempted: u64,
    failed: u64,
}

impl Layers {
    pub fn new(w: Offline) -> Self {
        let n = w.entries.len();
        Self {
            w,
            ms: (0..n).map(|_| Default::default()).collect(),
            incremental: vec![None; n],
            paths_repeat: true,
            attempted: 0,
            failed: 0,
        }
    }

    fn note(&mut self, e: usize, probe: usize, ms: f64, ok: bool) {
        self.ms[e][probe].push(ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn round(&mut self) {
        for e in 0..self.w.entries.len() {
            let entry = &self.w.entries[e];
            let (trace, algorithm) = (&entry.trace, entry.algorithm);
            let right = |r: &RaceReport| granules(r) == entry.oracle;
            let (encode, bytes) = timed(|| trace.to_bytes());
            let (decode, decoded) = timed(|| Trace::from_bytes(&bytes));
            let (validate, valid) = timed(|| trace.validate());
            let (seq, seq_report) = timed(|| replay_detect_unchecked(trace, algorithm));
            let (freeze, index) = timed(|| ReachIndex::freeze(trace, algorithm));
            let (p1, p1_report) = timed(|| par_replay_detect(trace, algorithm, 1));
            let (p2, p2_report) = timed(|| par_replay_detect(trace, algorithm, 2));
            let (load, loaded) = timed(|| self.w.store.load_trace(entry.tag));
            let (sidecar, decoded_sidecar) = timed(|| decode_sidecar(&entry.sidecar));
            let results = [
                (0, encode, true),
                (
                    1,
                    decode,
                    decoded.is_ok_and(|t| t.events() == trace.events()),
                ),
                (2, validate, valid.is_ok()),
                (3, seq, right(&seq_report)),
                (4, freeze, matches!(index, Ok(Some(_)))),
                (5, p1, p1_report.is_ok_and(|r| right(&r))),
                (6, p2, p2_report.is_ok_and(|r| right(&r))),
                (9, load, loaded.is_ok_and(|t| t.events() == trace.events())),
                (10, sidecar, decoded_sidecar.is_ok()),
            ];
            for (probe, ms, ok) in results {
                self.note(e, probe, ms, ok);
            }
            // The served requests: replay (P=1), follow, cold, warm and
            // incremental, in the end-to-end loop's order.
            let base = e * REQUESTS.len();
            for (request, probe) in [(0, 7), (2, 8), (3, 11), (4, 12), (5, 13)] {
                let o = self.w.request(base + request);
                self.note(e, probe, o.ms, o.ok);
                if let Some(DetectionPath::Incremental { rerun, reused, .. }) = o.path {
                    let first = *self.incremental[e].get_or_insert((rerun, reused));
                    self.paths_repeat &= first == (rerun, reused);
                }
            }
        }
    }

    /// Puts the per-layer metrics of both traces, suffixed with their tags;
    /// returns (attempted, failed) and whether every entry was served
    /// incrementally, with the same partition counts in every round.
    pub fn report(&self, m: &mut Metrics) -> ((u64, u64), bool) {
        let mut complete = true;
        for (e, entry) in self.w.entries.iter().enumerate() {
            let ms = &self.ms[e];
            let tag = entry.tag;
            let med: Vec<f64> = ms.iter().map(|v| median(v)).collect();
            for (name, value) in PROBES.iter().zip(&med) {
                m.put(format!("{name}.{tag}"), *value, "ms");
            }
            m.put(
                format!("trace.bytes.{tag}"),
                entry.trace.to_bytes().len() as f64,
                "bytes",
            );
            m.put(
                format!("store.sidecar_bytes.{tag}"),
                entry.sidecar.len() as f64,
                "bytes",
            );
            m.put(
                format!("parallel.p2_vs_seq.{tag}"),
                ratio(med[6], med[3]),
                "ratio",
            );
            m.put(
                format!("session.vs_seq.{tag}"),
                ratio(med[7], med[3]),
                "ratio",
            );
            // No incremental path seen at all makes the run incorrect; the
            // counts are then reported as 0.
            let (rerun, reused) = self.incremental[e].unwrap_or_else(|| {
                eprintln!("offline {tag}: no request was served incrementally");
                complete = false;
                (0, 0)
            });
            m.put(format!("store.incr_rerun.{tag}"), rerun as f64, "count");
            m.put(format!("store.incr_reused.{tag}"), reused as f64, "count");
        }
        if !self.paths_repeat {
            eprintln!("offline: incremental partition counts differed between rounds");
        }
        ((self.attempted, self.failed), self.paths_repeat && complete)
    }
}
