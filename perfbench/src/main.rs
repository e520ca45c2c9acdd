//! The repository benchmark: online detection of the paper's six programs
//! (Figures 6 and 7) and offline serving of recorded traces, timed end to end
//! and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-structured|fig7-general|offline-serve \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every request's verdict is checked against a known answer computed in
//! set-up: the serial reference checksum and race-freedom for the paper
//! programs, the `GraphOracle` racy-granule set for the recorded traces.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. See `perfbench/README.md` for the metrics and how they map onto
//! the layers.

mod offline;
mod online;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// How many times set-up runs in one invocation; `setup_s` is the median.
/// The first set-up is the one served. The others run in child processes,
/// spread evenly over the measuring loop: the host's speed flips between
/// two modes for seconds at a time, and set-ups all made at the start of a
/// run would time only the mode the run happened to start in. A child's
/// memory leaves the served process's peak alone.
const SETUP_REPEATS: usize = 9;
/// Each input gets at least this many timed requests (so its p90 has ten
/// samples beyond it), even if that overruns `--seconds`.
const MIN_SAMPLES: usize = 100;
/// The measuring loop never runs longer than this, whatever the samples.
const MEASURE_CAP: Duration = Duration::from_secs(120);

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig6Structured,
    Fig7General,
    OfflineServe,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("fig6-structured", Workload::Fig6Structured),
    ("fig7-general", Workload::Fig7General),
    ("offline-serve", Workload::OfflineServe),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    /// Set by an end-to-end run for its child processes: make one set-up
    /// (the store in this directory), print its time in seconds, exit.
    set_up_in: Option<PathBuf>,
    /// The traces' genprog seeds, passed to those children.
    genprog_seeds: Option<[u64; 2]>,
}

const USAGE: &str = "usage: perfbench --workload fig6-structured|fig7-general|offline-serve \
                     [--seed <n>] [--seconds <s>] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut set_up_in = None;
    let mut genprog_seeds = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--set-up-in" => set_up_in = Some(PathBuf::from(value)),
            "--genprog-seeds" => {
                let seeds = value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<u64>, _>>();
                genprog_seeds = Some(
                    seeds
                        .ok()
                        .and_then(|s| <[u64; 2]>::try_from(s).ok())
                        .ok_or(format!("bad --genprog-seeds {value:?}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        set_up_in,
        genprog_seeds,
    })
}

/// One timed request: its wall time, whether its verdict matched the known
/// answer (an `Err` counts as a wrong verdict), and, for store requests, how
/// the store served it.
pub struct Outcome {
    pub ms: f64,
    pub ok: bool,
    pub path: Option<futurerd_store::DetectionPath>,
}

/// A workload's timed inputs, as the end-to-end loop sees them.
pub trait Served {
    /// Name and event count of each input.
    fn inputs(&self) -> Vec<(String, u64)>;
    /// Prepares input `i`'s state (untimed), then times one request on it.
    fn request(&mut self, i: usize) -> Outcome;
}

/// The samples of one input.
struct Series {
    name: String,
    events: u64,
    ms: Vec<f64>,
}

struct Measured {
    series: Vec<Series>,
    attempted: u64,
    failed: u64,
}

/// Closed loop, one request at a time, round-robin over the inputs so any
/// drift of the host hits every input alike. Runs for `seconds`, and on
/// until every input has `min_samples` samples (never past `cap`). Between
/// rounds it calls `pause` `pauses` times, evenly spread over `seconds`.
fn measure(
    w: &mut dyn Served,
    seconds: f64,
    min_samples: usize,
    cap: Duration,
    pauses: usize,
    pause: &mut dyn FnMut(),
) -> Measured {
    let mut series: Vec<Series> = w
        .inputs()
        .into_iter()
        .map(|(name, events)| Series {
            name,
            events,
            ms: Vec::new(),
        })
        .collect();
    let (mut attempted, mut failed) = (0, 0);
    let mut paused = 0;
    let start = Instant::now();
    loop {
        for (i, s) in series.iter_mut().enumerate() {
            let o = w.request(i);
            attempted += 1;
            failed += u64::from(!o.ok);
            s.ms.push(o.ms);
        }
        while paused < pauses
            && start.elapsed().as_secs_f64() >= seconds * (paused + 1) as f64 / (pauses + 1) as f64
        {
            pause();
            paused += 1;
        }
        let elapsed = start.elapsed();
        let rounds = series[0].ms.len();
        if (elapsed.as_secs_f64() >= seconds && rounds >= min_samples) || elapsed >= cap {
            break;
        }
    }
    Measured {
        series,
        attempted,
        failed,
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in [0, 1]; 0 gives the minimum.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric that is not a finite
            // number makes the run incorrect (see `main`).
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set (VmHWM) of this process, in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets VmHWM to the current resident set, so the peak covers only what
/// runs after this call.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A scratch directory for the store, beside the benchmark's executable in
/// the build directory; removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .expect("an executable lives in a directory")
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "arch={} os={} cpus={cpus} profile={profile}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

/// One set-up of the workload, timed: inputs, known answers and (offline,
/// from the traces' genprog seeds) the store in `store`. It ends with one
/// untimed request per input, so lazy state (the shared pool, allocator
/// arenas, page faults of first use) settles before timing starts.
fn set_up(
    args: &Args,
    genprog_seeds: Option<[u64; 2]>,
    store: &Path,
) -> Result<(Box<dyn Served>, f64), String> {
    let t = Instant::now();
    let mut w: Box<dyn Served> = match args.workload {
        Workload::Fig6Structured => Box::new(online::Online::setup(false, args.seed)?),
        Workload::Fig7General => Box::new(online::Online::setup(true, args.seed)?),
        Workload::OfflineServe => Box::new(offline::Offline::setup(
            genprog_seeds.ok_or("offline-serve set-up needs the genprog seeds")?,
            store,
        )?),
    };
    for i in 0..w.inputs().len() {
        w.request(i);
    }
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Runs one set-up in a child process of this executable and returns the
/// time the child measured.
fn set_up_in_child(
    args: &Args,
    genprog_seeds: Option<[u64; 2]>,
    store: &Path,
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child.args(["--workload", args.workload.name()]);
    child.arg("--set-up-in").arg(store);
    if let Some(seed) = args.seed {
        child.args(["--seed", &seed.to_string()]);
    }
    if let Some([a, b]) = genprog_seeds {
        child.args(["--genprog-seeds", &format!("{a},{b}")]);
    }
    let out = child.output().map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The end-to-end run: every user-visible metric of one workload.
fn end_to_end(args: &Args, dir: &WorkDir) -> Result<(bool, u64, u64, Metrics), String> {
    // The traces' input selection (a rejection loop whose number of draws
    // depends on the seed) runs once, before the timed set-ups.
    let t = Instant::now();
    let genprog_seeds = match args.workload {
        Workload::OfflineServe => Some(offline::Offline::select(args.seed)?),
        _ => None,
    };
    if let Some([a, b]) = genprog_seeds {
        eprintln!(
            "input selection: genprog seeds {a:#x}, {b:#x} in {:.2} s",
            t.elapsed().as_secs_f64()
        );
    }
    let (mut served, first) = set_up(args, genprog_seeds, &dir.0.join("served"))?;
    let mut setup_secs = vec![first];
    let mut setup_error = None;
    let peak_reset = reset_peak_rss();
    let m = measure(
        served.as_mut(),
        args.seconds,
        MIN_SAMPLES,
        MEASURE_CAP,
        SETUP_REPEATS - 1,
        &mut || match set_up_in_child(args, genprog_seeds, &dir.0.join("setup")) {
            Ok(secs) => setup_secs.push(secs),
            Err(e) => setup_error = Some(e),
        },
    );
    if let Some(e) = setup_error {
        return Err(e);
    }
    let peak_mb = peak_rss_kib().ok_or("cannot read VmHWM")? as f64 / 1024.0;
    if !peak_reset {
        eprintln!("note: could not reset the peak RSS; peak_rss_mb includes set-up");
    }
    let setup_s = median(&setup_secs);
    let secs: Vec<String> = setup_secs.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("set-ups: {} s, median {setup_s:.3} s", secs.join(" "));

    eprintln!(
        "{:<28} {:>9} {:>8} {:>10} {:>10} {:>10}",
        "input", "events", "samples", "min_ms", "p50_ms", "p90_ms"
    );
    for s in &m.series {
        eprintln!(
            "{:<28} {:>9} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            s.name,
            s.events,
            s.ms.len(),
            percentile(&s.ms, 0.0),
            median(&s.ms),
            percentile(&s.ms, 0.9)
        );
    }
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9].map(|q| {
        format!(
            "p{:.0} {:.3}",
            q * 100.0,
            geomean(m.series.iter().map(|s| percentile(&s.ms, q)))
        )
    });
    eprintln!("geomean over inputs (ms): {}", quantiles.join(", "));
    // The host's speed moves between a quiet, a normal and a slow state
    // (up to 1.8x apart) for seconds to minutes at a time, and the share of
    // a run spent in each varies from run to run. Any percentile jumps
    // between states when that share crosses it: over sets of ten runs the
    // median spread up to 0.33 and the p90 up to 0.40 (quartile distance
    // over median), so they are printed above but not reported. The
    // fastest request held within 0.02-0.17.
    let mut metrics = Metrics::default();
    let best = geomean(m.series.iter().map(|s| percentile(&s.ms, 0.0)));
    let rate = geomean(
        m.series
            .iter()
            .map(|s| s.events as f64 / (percentile(&s.ms, 0.0) / 1e3)),
    );
    metrics.put("verdict_ms_min", best, "ms");
    metrics.put("events_per_s", rate, "1/s");
    metrics.put("peak_rss_mb", peak_mb, "MB");
    metrics.put("setup_s", setup_s, "s");
    metrics.put(
        "verdict_ok_frac",
        1.0 - m.failed as f64 / m.attempted as f64,
        "fraction",
    );
    Ok((m.failed == 0, m.attempted, m.failed, metrics))
}

/// The traced run: every per-layer metric. It measures all layers on this
/// seed's inputs whatever the workload, so each traced run is complete.
fn traced(args: &Args, dir: &WorkDir) -> Result<(bool, u64, u64, Metrics), String> {
    let mut structured = online::Layers::new(online::Online::setup(false, args.seed)?);
    let mut general = online::Layers::new(online::Online::setup(true, args.seed)?);
    let genprog_seeds = offline::Offline::select(args.seed)?;
    let mut serve = offline::Layers::new(offline::Offline::setup(genprog_seeds, &dir.0)?);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 5
        || (start.elapsed().as_secs_f64() < args.seconds && start.elapsed() < MEASURE_CAP)
    {
        structured.round();
        general.round();
        serve.round();
        rounds += 1;
    }
    eprintln!("traced run: {rounds} rounds");
    let mut metrics = Metrics::default();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (tally, ok) in [
        structured.report("mb", &mut metrics),
        general.report("mbp", &mut metrics),
        serve.report(&mut metrics),
    ] {
        attempted += tally.0;
        failed += tally.1;
        correct &= ok;
    }
    Ok((correct && failed == 0, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(store) = &args.set_up_in {
        return match set_up(&args, args.genprog_seeds, store) {
            Ok((_, secs)) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!("host: {}", host_fingerprint());
    let dir = match WorkDir::new(if args.trace { "traced" } else { "e2e" }) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = if args.trace {
        traced(&args, &dir)
    } else {
        end_to_end(&args, &dir)
    };
    match run {
        Ok((correct, attempted, failed, metrics)) => {
            let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
            if !finite {
                eprintln!("perfbench: a metric is not a finite number");
            }
            println!(
                "{}",
                json_line(correct && finite, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn planted_wrong_online_verdict_counts_as_failed() {
        let mut w = online::Online::tiny(false);
        let clean = measure(&mut w, 0.0, 1, MEASURE_CAP, 0, &mut || {});
        assert_eq!(clean.failed, 0);
        w.plant_wrong_checksum(0);
        let planted = measure(&mut w, 0.0, 2, MEASURE_CAP, 0, &mut || {});
        assert_eq!(planted.attempted, 2 * 6);
        assert_eq!(planted.failed, 2, "one wrong input, two rounds");
    }

    #[test]
    fn planted_wrong_offline_verdict_counts_as_failed() {
        let dir = WorkDir::new("test-planted").expect("work dir");
        let mut w = offline::Offline::tiny(&dir.0).expect("small traces set up");
        let clean = measure(&mut w, 0.0, 1, MEASURE_CAP, 0, &mut || {});
        assert_eq!(clean.failed, 0);
        w.plant_wrong_oracle(1);
        let planted = measure(&mut w, 0.0, 1, MEASURE_CAP, 0, &mut || {});
        assert_eq!(planted.failed, 6, "every request on the second trace");
    }

    #[test]
    fn store_request_served_another_way_counts_as_failed() {
        let dir = WorkDir::new("test-path").expect("work dir");
        let mut w = offline::Offline::tiny(&dir.0).expect("small traces set up");
        w.plant_broken_prefix_sidecar(0);
        let planted = measure(&mut w, 0.0, 1, MEASURE_CAP, 0, &mut || {});
        assert_eq!(planted.failed, 1, "the first trace's incremental request");
    }
}
