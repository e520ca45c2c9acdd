//! Complexity ablation: micro-benchmarks of the reachability substrates
//! (disjoint sets and the transitive-closure dag `R`) backing Theorems 4.1
//! and 5.1, plus a detection-scaling sweep on `lcs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use futurerd_bench::{bench_params, run_config, Algorithm, Config};
use futurerd_core::reachability::RGraph;
use futurerd_dsu::DisjointSets;
use futurerd_workloads::{FutureMode, WorkloadKind};
use std::time::Duration;

fn dsu_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_dsu");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("union_find_chain", n), &n, |b, &n| {
            b.iter(|| {
                let mut dsu = DisjointSets::with_capacity(n);
                let ids: Vec<_> = (0..n).map(|_| dsu.make_set()).collect();
                for w in ids.windows(2) {
                    dsu.union(w[0], w[1]);
                }
                let mut hits = 0u64;
                for &e in &ids {
                    if dsu.find(e) == dsu.find(ids[0]) {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

fn rgraph_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rgraph");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    for &k in &[64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("closure_chain", k), &k, |b, &k| {
            b.iter(|| {
                let mut g = RGraph::new();
                let nodes: Vec<_> = (0..k).map(|_| g.add_node()).collect();
                for w in nodes.windows(2) {
                    g.add_arc(w[0], w[1]);
                }
                g.reaches(nodes[0], nodes[k - 1])
            })
        });
        // Every arc takes the non-fresh path: each step arcs a new node into
        // the chain's head, which already has successors, as `on_sync` does
        // when both branches are attached.
        group.bench_with_input(BenchmarkId::new("closure_join", k), &k, |b, &k| {
            b.iter(|| {
                let mut g = RGraph::new();
                let mut head = g.add_node();
                let tail = g.add_node();
                g.add_arc(head, tail);
                for _ in 2..k {
                    let newer = g.add_node();
                    g.add_arc(newer, head);
                    head = newer;
                }
                g.reaches(head, tail)
            })
        });
    }
    group.finish();
}

fn detection_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_lcs_full_detection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for &n in &[64usize, 128, 256] {
        let params = bench_params(WorkloadKind::Lcs).with_n(n).with_base(16);
        group.bench_with_input(BenchmarkId::new("multibags", n), &n, |b, _| {
            b.iter(|| {
                run_config(
                    WorkloadKind::Lcs,
                    FutureMode::Structured,
                    Algorithm::MultiBags,
                    Config::Full,
                    &params,
                )
                .1
            })
        });
        group.bench_with_input(BenchmarkId::new("multibags_plus", n), &n, |b, _| {
            b.iter(|| {
                run_config(
                    WorkloadKind::Lcs,
                    FutureMode::General,
                    Algorithm::MultiBagsPlus,
                    Config::Full,
                    &params,
                )
                .1
            })
        });
    }
    group.finish();
}

criterion_group!(benches, dsu_micro, rgraph_micro, detection_scaling);
criterion_main!(benches);
