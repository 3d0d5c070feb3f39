//! Criterion benchmark of end-to-end simulation throughput
//! (instructions simulated per wall-clock second).
//!
//! The `sims_per_second` group times the functional contents model
//! (`functional::run_functional`: one probe per block run) for the
//! LRU, SRRIP and ACIC organizations at 1 M instructions. Scale with
//! `ACIC_BENCH_INSTRUCTIONS`.

use acic_sim::{functional, IcacheOrg, SimConfig, Simulator};
use acic_trace::VecTrace;
use acic_workloads::{AppProfile, SyntheticWorkload};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    let n: u64 = std::env::var("ACIC_BENCH_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut group = c.benchmark_group("sims_per_second");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));
    // Materialized trace: measure the simulator, not the generator.
    let wl = VecTrace::from_source(&SyntheticWorkload::with_instructions(
        AppProfile::web_search(),
        n,
    ));
    for (name, org) in [
        ("functional_lru", IcacheOrg::Lru),
        ("functional_srrip", IcacheOrg::Srrip),
        ("functional_acic", IcacheOrg::acic_default()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(functional::run_functional(&org, &wl)));
        });
    }
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    const N: u64 = 50_000;
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N));
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), N);
    group.bench_function("lru_fdp", |b| {
        let cfg = SimConfig::default();
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.bench_function("acic_fdp", |b| {
        let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.bench_function("opt_oracle", |b| {
        let cfg = SimConfig::default().with_org(IcacheOrg::Opt);
        b.iter(|| black_box(Simulator::run(&cfg, &wl)));
    });
    group.finish();
}

criterion_group!(benches, bench_sim, bench_throughput);
criterion_main!(benches);
