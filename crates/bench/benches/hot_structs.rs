//! Micro-benchmarks for the flat hot-path tables, each paired with
//! its retained legacy implementation so the layout win stays
//! measured, not asserted: the packed-lane CSHR vs. the
//! array-of-structs one, the ring-buffered two-level predictor vs.
//! the `VecDeque` one, and the flat-list MSHR vs. the `HashMap`
//! one. Drive orders are identical within each pair.
//!
//! Run: `cargo bench -p acic-bench --bench hot_structs`
//! (CI runs it under `ACIC_BENCH_QUICK=1` as a smoke pass.)

use acic_core::{
    AcicConfig, Cshr, LegacyCshr, LegacyTwoLevelPredictor, ResolutionBuf, TwoLevelPredictor,
};
use acic_sim::mem::{LegacyMissTracker, MissTracker};
use acic_types::BlockAddr;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Deterministic probe-tag stream shared by both CSHR benches: a
/// steady mix of inserts (opening comparisons) and mostly-missing
/// searches, the shape the functional hot loop produces.
#[inline]
fn cshr_step(i: u64) -> (u16, u16, usize, u16) {
    let victim = (i % 4096) as u16;
    let contender = ((i + 7) % 4096) as u16;
    let set = (i % 64) as usize;
    let probe = (i.wrapping_mul(17) % 4096) as u16;
    (victim, contender, set, probe)
}

fn bench_cshr_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("cshr_probe");
    g.bench_function("flat", |b| {
        let mut cshr = Cshr::new(8, 32, 64);
        let mut buf = ResolutionBuf::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (v, ct, set, probe) = cshr_step(i);
            if i.is_multiple_of(4) {
                black_box(cshr.insert(v, ct, set));
            }
            cshr.search_into(probe, set, &mut buf);
            black_box(buf.len());
        });
    });
    g.bench_function("legacy", |b| {
        let mut cshr = LegacyCshr::new(8, 32, 64);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (v, ct, set, probe) = cshr_step(i);
            if i.is_multiple_of(4) {
                black_box(cshr.insert(v, ct, set));
            }
            black_box(cshr.search(probe, set).len());
        });
    });
    g.finish();
}

fn bench_predictor_train(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictor_train");
    g.bench_function("ring", |b| {
        let mut p = TwoLevelPredictor::new(&AcicConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let tag = (i % 1000) as u16;
            let pred = p.predict(tag);
            // Train sparsely — ticks vastly outnumber trains on the
            // real hot path, which is exactly what the ring's
            // early-exit is built for.
            if i.is_multiple_of(13) {
                p.train(tag, i.is_multiple_of(3), i);
            }
            p.tick(i);
            black_box(pred);
        });
    });
    g.bench_function("legacy", |b| {
        let mut p = LegacyTwoLevelPredictor::new(&AcicConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let tag = (i % 1000) as u16;
            let pred = p.predict(tag);
            if i.is_multiple_of(13) {
                p.train(tag, i.is_multiple_of(3), i);
            }
            p.tick(i);
            black_box(pred);
        });
    });
    g.finish();
}

/// Shared MSHR drive: a rolling set of outstanding blocks with
/// merge-heavy lookups, far more lookups than inserts.
#[inline]
fn mshr_block(i: u64) -> BlockAddr {
    BlockAddr::new(0x4000 + (i % 24))
}

fn bench_mshr_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("mshr_lookup");
    g.bench_function("flat", |b| {
        let mut m = MissTracker::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let now = i;
            if m.lookup(mshr_block(i), now).is_none() && !m.full(now) {
                m.insert(mshr_block(i), now + 200);
            }
            black_box(m.occupancy(now));
        });
    });
    g.bench_function("legacy", |b| {
        let mut m = LegacyMissTracker::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let now = i;
            if m.lookup(mshr_block(i), now).is_none() && !m.full(now) {
                m.insert(mshr_block(i), now + 200);
            }
            black_box(m.occupancy(now));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cshr_probe,
    bench_predictor_train,
    bench_mshr_lookup
);
criterion_main!(benches);
