//! Online detection of the paper's six programs (Figures 6 and 7).
//!
//! End to end, a request is one `run_workload` under a full `RaceDetector`
//! (MultiBags on the structured variants, MultiBags+ on the general ones),
//! and its verdict is right when the checksum equals the serial reference
//! and the report is race-free. The traced run times the paper's four
//! configurations through the public observers and reads the public stats
//! structs, giving each layer's self time and exact work counts.

use crate::{geomean, median, ms_since, ratio, Metrics, Outcome, Served};
use futurerd_core::detector::{InstrumentationOnly, RaceDetector, ReachabilityOnly};
use futurerd_core::reachability::{MultiBags, MultiBagsPlus, Reachability};
use futurerd_core::stats::{DetectorStats, ReachStats};
use futurerd_dag::{NullObserver, Observer};
use futurerd_runtime::ExecutionSummary;
use futurerd_workloads::{
    bst, dedup, heartwall, lcs, mm, reference_checksum, run_workload, sw, FutureMode, WorkloadKind,
    WorkloadParams, WorkloadResult,
};
use std::time::Instant;

/// Input sizes. lcs/sw/mm are the repository's scale-1 table sizes;
/// heartwall, dedup and bst are doubled so that R maintenance is a visible
/// share of their MultiBags+ detection time. Every full detection stays
/// well under 100 ms, so each program gets its 100 samples in a run.
fn sizes(kind: WorkloadKind, seed: u64) -> WorkloadParams {
    let base = WorkloadParams {
        seed,
        ..WorkloadParams::default()
    };
    match kind {
        WorkloadKind::Lcs => WorkloadParams {
            n: 256,
            base: 16,
            ..base
        },
        WorkloadKind::Sw => WorkloadParams {
            n: 64,
            base: 8,
            ..base
        },
        WorkloadKind::Mm => WorkloadParams {
            n: 48,
            base: 8,
            ..base
        },
        WorkloadKind::Heartwall => WorkloadParams {
            heartwall: (10, 32, 64),
            ..base
        },
        WorkloadKind::Dedup => WorkloadParams {
            dedup: (192, 256),
            ..base
        },
        WorkloadKind::Bst => WorkloadParams {
            bst_sizes: (12000, 6000),
            base: 64,
            ..base
        },
    }
}

/// Generates the program's input the way `run_workload` does first, and
/// drops it: the traced run times this share of every online request.
fn generate_input(kind: WorkloadKind, p: &WorkloadParams) {
    match kind {
        WorkloadKind::Lcs => drop(lcs::LcsInput::generate(p.n, p.seed)),
        WorkloadKind::Sw => drop(sw::SwInput::generate(p.n, p.seed)),
        WorkloadKind::Mm => drop(mm::MmInput::generate(p.n, p.seed)),
        WorkloadKind::Heartwall => {
            let (frames, points, dim) = p.heartwall;
            drop(heartwall::HeartwallInput::generate(
                frames, points, dim, p.seed,
            ))
        }
        WorkloadKind::Dedup => drop(dedup::DedupInput::generate(p.dedup.0, p.dedup.1, p.seed)),
        WorkloadKind::Bst => drop(bst::BstInput::generate(
            p.bst_sizes.0,
            p.bst_sizes.1,
            p.seed,
        )),
    }
}

struct Program {
    kind: WorkloadKind,
    params: WorkloadParams,
    /// The known answer: the serial, uninstrumented checksum.
    checksum: u64,
    /// accesses + spawns + creates + syncs + gets.
    events: u64,
}

pub struct Online {
    general: bool,
    programs: Vec<Program>,
}

impl Online {
    /// Generates the six programs' inputs from `seed` (the workloads'
    /// default seed when absent) and their known answers.
    pub fn setup(general: bool, seed: Option<u64>) -> Result<Self, String> {
        let seed = seed.unwrap_or(WorkloadParams::default().seed);
        Ok(Self::with_params(
            general,
            WorkloadKind::ALL.map(|kind| (kind, sizes(kind, seed))),
        ))
    }

    fn with_params(general: bool, programs: [(WorkloadKind, WorkloadParams); 6]) -> Self {
        let mode = if general {
            FutureMode::General
        } else {
            FutureMode::Structured
        };
        let programs = programs
            .into_iter()
            .map(|(kind, params)| {
                let (_, run) = run_workload(kind, mode, &params, NullObserver);
                let s = run.summary;
                Program {
                    kind,
                    params,
                    checksum: reference_checksum(kind, &params),
                    events: s.accesses() + s.spawns + s.creates + s.syncs + s.gets,
                }
            })
            .collect();
        Self { general, programs }
    }

    #[cfg(test)]
    pub fn tiny(general: bool) -> Self {
        Self::with_params(
            general,
            WorkloadKind::ALL.map(|kind| (kind, WorkloadParams::tiny())),
        )
    }

    #[cfg(test)]
    pub fn plant_wrong_checksum(&mut self, i: usize) {
        self.programs[i].checksum ^= 1;
    }

    /// Runs program `i` under configuration `config` (0 baseline,
    /// 1 reachability, 2 instrumentation, 3 full).
    fn run(&self, i: usize, config: usize) -> Run {
        let p = &self.programs[i];
        if self.general {
            run_config(p, FutureMode::General, config, MultiBagsPlus::new())
        } else {
            run_config(p, FutureMode::Structured, config, MultiBags::new())
        }
    }
}

/// One timed run: wall time, verdict, and (full detection only) the work
/// counts read from the public stats structs.
struct Run {
    ms: f64,
    ok: bool,
    counts: Option<Counts>,
}

/// Runs the program under the observer `make` builds and stops the clock at
/// its verdict (the serial checksum, and `verdict` on top). The observer
/// and the result are handed back, to be dropped after the clock stopped:
/// tear-down (of R, of the access history) is outside the timed region in
/// every configuration alike, and the differences between them hold none.
fn to_verdict<O: Observer>(
    p: &Program,
    mode: FutureMode,
    make: impl FnOnce() -> O,
    verdict: impl FnOnce(&O) -> bool,
) -> (f64, bool, O, WorkloadResult) {
    let t = Instant::now();
    let (obs, r) = run_workload(p.kind, mode, &p.params, make());
    let ok = r.checksum == p.checksum && verdict(&obs);
    (ms_since(t), ok, obs, r)
}

/// A run whose observer has no counts to read.
fn uncounted<O>((ms, ok, _, _): (f64, bool, O, WorkloadResult)) -> Run {
    Run {
        ms,
        ok,
        counts: None,
    }
}

fn run_config<R: Reachability>(p: &Program, mode: FutureMode, config: usize, reach: R) -> Run {
    match config {
        0 => uncounted(to_verdict(p, mode, || NullObserver, |_| true)),
        1 => uncounted(to_verdict(
            p,
            mode,
            || ReachabilityOnly::new(reach),
            |_| true,
        )),
        2 => uncounted(to_verdict(
            p,
            mode,
            || InstrumentationOnly::new(reach),
            |_| true,
        )),
        _ => {
            let (ms, ok, det, r) = to_verdict(
                p,
                mode,
                || RaceDetector::new(reach),
                |det| det.report().is_race_free(),
            );
            let counts = Counts::of(&r.summary, det.reach_stats(), det.history_stats());
            Run {
                ms,
                ok,
                counts: Some(counts),
            }
        }
    }
}

impl Served for Online {
    fn inputs(&self) -> Vec<(String, u64)> {
        self.programs
            .iter()
            .map(|p| (p.kind.name().to_string(), p.events))
            .collect()
    }

    fn request(&mut self, i: usize) -> Outcome {
        let run = self.run(i, 3);
        Outcome {
            ms: run.ms,
            ok: run.ok,
            path: None,
        }
    }
}

/// Exact work counts of one full detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    accesses: u64,
    parallel_constructs: u64,
    gets: u64,
    reach: ReachStats,
    history: DetectorStats,
}

impl Counts {
    fn of(s: &ExecutionSummary, reach: ReachStats, history: DetectorStats) -> Self {
        Self {
            accesses: s.accesses(),
            parallel_constructs: s.parallel_constructs(),
            gets: s.gets,
            reach,
            history,
        }
    }
}

/// baseline, reachability, instrumentation, full.
const CONFIGS: usize = 4;

/// Reads one exact count of a full detection.
type Field = fn(&Counts) -> u64;

/// The traced run's view of one online workload: every configuration of
/// every program, timed round after round.
pub struct Layers {
    w: Online,
    /// `ms[program][config]`.
    ms: Vec<[Vec<f64>; CONFIGS]>,
    /// `input_ms[program]`: input generation alone.
    input_ms: Vec<Vec<f64>>,
    counts: Vec<Option<Counts>>,
    counts_repeat: bool,
    attempted: u64,
    failed: u64,
}

impl Layers {
    pub fn new(w: Online) -> Self {
        let n = w.programs.len();
        Self {
            w,
            ms: (0..n).map(|_| Default::default()).collect(),
            input_ms: vec![Vec::new(); n],
            counts: vec![None; n],
            counts_repeat: true,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn round(&mut self) {
        for i in 0..self.w.programs.len() {
            let p = &self.w.programs[i];
            let t = Instant::now();
            generate_input(p.kind, &p.params);
            self.input_ms[i].push(ms_since(t));
            for config in 0..CONFIGS {
                let run = self.w.run(i, config);
                self.attempted += 1;
                self.failed += u64::from(!run.ok);
                self.ms[i][config].push(run.ms);
                if let Some(c) = run.counts {
                    let first = *self.counts[i].get_or_insert(c);
                    self.counts_repeat &= first == c;
                }
            }
        }
    }

    /// Puts this workload's per-layer metrics, suffixed `.{tag}`; returns
    /// (attempted, failed) and whether the exact counts repeated.
    pub fn report(&self, tag: &str, m: &mut Metrics) -> ((u64, u64), bool) {
        let mut sums = [0.0; 4];
        let mut input_sum = 0.0;
        let mut negative = 0;
        let (mut reach_over, mut full_over) = (Vec::new(), Vec::new());
        // Medians of the four configurations, the self times, each of the
        // two paper layers as a share of full detection, input generation
        // (alone, and as a share of full detection), and the full
        // detection's reachability queries and DSU finds.
        eprintln!(
            "{tag}: {:<10} {:>8} {:>8} {:>8} {:>8} | self {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6} | input {:>7} {:>6} | {:>9} {:>9}",
            "program", "base", "reach", "instr", "full", "exec", "maint", "instr", "history",
            "maint%", "hist%", "ms", "%", "queries", "finds"
        );
        for ((p, ms), (input_ms, counts)) in self
            .w
            .programs
            .iter()
            .zip(&self.ms)
            .zip(self.input_ms.iter().zip(&self.counts))
        {
            let med = [0, 1, 2, 3].map(|c| median(&ms[c]));
            // A layer's self time is the median over rounds of the
            // difference between adjacent configurations run back to back
            // in the same round, so both sides of a difference see the same
            // host speed. It is reported as measured: a negative one is
            // noise or a non-monotone row, and is flagged.
            let paired =
                |f: &dyn Fn(usize) -> f64| median(&(0..ms[0].len()).map(f).collect::<Vec<_>>());
            let own = [
                med[0],
                paired(&|r| ms[1][r] - ms[0][r]),
                paired(&|r| ms[2][r] - ms[1][r]),
                paired(&|r| ms[3][r] - ms[2][r]),
            ];
            let input = median(input_ms);
            input_sum += input;
            let flagged = own[1..].iter().filter(|x| **x < 0.0).count();
            negative += flagged;
            let share = |x: f64| 100.0 * ratio(x, med[3]);
            let (queries, finds) = counts.map_or((0, 0), |c| (c.reach.queries, c.reach.finds));
            eprintln!(
                "{tag}: {:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | self {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6.1} {:>6.1} | input {:>7.3} {:>6.1} | {:>9} {:>9}{}",
                p.kind.name(),
                med[0],
                med[1],
                med[2],
                med[3],
                own[0],
                own[1],
                own[2],
                own[3],
                share(own[1]),
                share(own[3]),
                input,
                share(input),
                queries,
                finds,
                if flagged > 0 { "  (negative)" } else { "" }
            );
            for (sum, x) in sums.iter_mut().zip(own) {
                *sum += x;
            }
            reach_over.push(paired(&|r| ms[1][r] / ms[0][r]));
            full_over.push(paired(&|r| ms[3][r] / ms[0][r]));
            m.put(
                format!("{}.reach.maint_ms.{tag}", p.kind.name()),
                own[1],
                "ms",
            );
            m.put(
                format!("{}.shadow.history_ms.{tag}", p.kind.name()),
                own[3],
                "ms",
            );
        }
        m.put(format!("runtime.exec_ms.{tag}"), sums[0], "ms");
        m.put(format!("runtime.instr_ms.{tag}"), sums[2], "ms");
        m.put(format!("runtime.input_ms.{tag}"), input_sum, "ms");
        m.put(format!("reach.maint_ms.{tag}"), sums[1], "ms");
        m.put(format!("shadow.history_ms.{tag}"), sums[3], "ms");
        m.put(format!("selftime.negative.{tag}"), negative as f64, "count");
        m.put(
            format!("paper.reach_overhead.{tag}"),
            geomean(reach_over),
            "ratio",
        );
        m.put(
            format!("paper.full_overhead.{tag}"),
            geomean(full_over),
            "ratio",
        );

        let sum = |f: Field| self.counts.iter().flatten().map(f).sum::<u64>();
        let counts: [(&str, Field); 15] = [
            ("exec.accesses", |c| c.accesses),
            ("exec.parallel_constructs", |c| c.parallel_constructs),
            ("exec.gets", |c| c.gets),
            ("reach.queries", |c| c.reach.queries),
            ("dsu.make_sets", |c| c.reach.make_sets),
            ("dsu.unions", |c| c.reach.unions),
            ("dsu.finds", |c| c.reach.finds),
            ("reach.attached_sets", |c| c.reach.attached_sets),
            ("reach.r_arcs", |c| c.reach.r_arcs),
            ("shadow.read_checks", |c| c.history.read_checks),
            ("shadow.write_checks", |c| c.history.write_checks),
            ("shadow.readers_recorded", |c| c.history.readers_recorded),
            ("shadow.readers_cleared", |c| c.history.readers_cleared),
            ("shadow.pages", |c| c.history.shadow_pages),
            ("races.found", |c| c.history.races_found),
        ];
        for (name, field) in counts {
            m.put(format!("{name}.{tag}"), sum(field) as f64, "count");
        }
        let r_bytes = sum(|c| c.reach.r_bytes);
        let (queries, finds) = (sum(|c| c.reach.queries), sum(|c| c.reach.finds));
        let (attached, gets) = (sum(|c| c.reach.attached_sets), sum(|c| c.gets));
        m.put(format!("reach.r_bytes.{tag}"), r_bytes as f64, "bytes");
        m.put(
            format!("dsu.finds_per_query.{tag}"),
            ratio(finds as f64, queries as f64),
            "ratio",
        );
        m.put(
            format!("reach.attached_per_get.{tag}"),
            ratio(attached as f64, gets as f64),
            "ratio",
        );
        if !self.counts_repeat {
            eprintln!("{tag}: exact counts differed between rounds");
        }
        ((self.attempted, self.failed), self.counts_repeat)
    }
}
