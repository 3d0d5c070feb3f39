//! Window-parallel execution pins: the worker count must be
//! unobservable in the output.
//!
//! `Engine::run_windowed` fixes every window's interior budget before
//! any window runs, executes every window on a private fresh
//! checkpoint, and reduces outcomes in canonical window order — so
//! running the windows on one worker *is* the serial execution of the
//! windowed schedule, and
//! any other worker count must pool bit-identical `SampledStats` and
//! identical statistics blocks. These tests pin that across
//! organizations (including the oracle-backed ones), multi-tenant
//! interleaves, generator-backed, materialized, and frozen
//! (`PackedTrace`) traces, and worker counts {1, 2, 7}.

use acic_sim::{Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport};
use acic_trace::{PackedTrace, TraceSource, VecTrace};
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};

fn sched() -> SampleSchedule {
    SampleSchedule::Periodic {
        period: 150_000,
        warmup_len: 40_000,
        detailed_len: 15_000,
    }
}

fn cfg(org: IcacheOrg) -> SimConfig {
    SimConfig::default().with_org(org).with_schedule(sched())
}

/// Full bit-identity: every counter the report carries, not just the
/// pooled estimators. `SampledStats` is `PartialEq` over raw `f64`s,
/// so equality there is bit-level, not approximate.
fn assert_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.sampled, b.sampled, "{what}: pooled SampledStats");
    assert_eq!(a.total_instructions, b.total_instructions, "{what}");
    assert_eq!(a.total_cycles, b.total_cycles, "{what}");
    assert_eq!(a.measured_instructions, b.measured_instructions, "{what}");
    assert_eq!(a.measured_cycles, b.measured_cycles, "{what}");
    assert_eq!(a.l1i, b.l1i, "{what}: l1i");
    assert_eq!(a.l1d, b.l1d, "{what}: l1d");
    assert_eq!(a.l2, b.l2, "{what}: l2");
    assert_eq!(a.l3, b.l3, "{what}: l3");
    assert_eq!(a.dram_accesses, b.dram_accesses, "{what}");
    assert_eq!(a.branch, b.branch, "{what}: branch");
    assert_eq!(a.prefetch, b.prefetch, "{what}: prefetch");
    assert_eq!(a.context_switches, b.context_switches, "{what}");
    assert_eq!(a.acic, b.acic, "{what}: acic");
    assert_eq!(a.cshr, b.cshr, "{what}: cshr");
}

fn pin_worker_counts<W: TraceSource + Sync>(cfg: &SimConfig, wl: &W, what: &str) -> SimReport {
    let serial = Engine::run_windowed(cfg, wl, 1);
    assert!(
        serial.sampled.is_some(),
        "{what}: windowed run must be sampled"
    );
    for workers in [2usize, 7] {
        let parallel = Engine::run_windowed(cfg, wl, workers);
        assert_identical(&serial, &parallel, &format!("{what} @ {workers} workers"));
    }
    serial
}

#[test]
fn worker_count_is_unobservable_across_organizations() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 600_000);
    for org in [IcacheOrg::Lru, IcacheOrg::Srrip, IcacheOrg::acic_default()] {
        let label = format!("{org:?}");
        let r = pin_worker_counts(&cfg(org), &wl, &label);
        assert!(r.ipc() > 0.0, "{label}: ipc");
        let s = r.sampled.unwrap();
        assert!(s.windows >= 3, "{label}: windows = {}", s.windows);
        assert!(s.detailed_instructions > 0, "{label}");
    }
}

#[test]
fn oracle_cursor_handoff_is_deterministic() {
    // OPT consults the reuse oracle; every windowed worker walks its
    // own cursor from the first block run in lockstep with its replay.
    // The cursor must stay position-exact for every worker count.
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 500_000);
    let r = pin_worker_counts(&cfg(IcacheOrg::Opt), &wl, "opt");
    assert!(r.l1i.demand_misses > 0, "opt simulated real traffic");
}

#[test]
fn multi_tenant_interleaves_pool_identically() {
    let wl = MultiTenantWorkload::new(5_000)
        .suite_tenants(3, 200_000)
        .build();
    let r = pin_worker_counts(&cfg(IcacheOrg::acic_default()), &wl, "multi-tenant");
    assert!(
        r.context_switches > 0,
        "windowed interiors must observe tenant switches"
    );
}

#[test]
fn replayed_traces_match_generator_backed_runs() {
    // The same stream through all three source kinds: generated on
    // the fly, materialized in memory, and frozen into a packed trace.
    // Window budgets key off positions, not source internals, so all
    // of them — at any worker count — must produce the identical
    // report.
    let generated = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 600_000);
    let materialized = VecTrace::from_source(&generated);
    let packed = PackedTrace::from_source(&materialized);

    let c = cfg(IcacheOrg::acic_default());
    let from_gen = pin_worker_counts(&c, &generated, "generator-backed");
    let from_vec = pin_worker_counts(&c, &materialized, "materialized");
    let from_packed = pin_worker_counts(&c, &packed, "packed");
    assert_identical(&from_gen, &from_vec, "generator vs materialized");
    assert_identical(&from_gen, &from_packed, "generator vs packed");
}

#[test]
fn zero_workers_mean_one() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 400_000);
    let c = cfg(IcacheOrg::Lru);
    let zero = Engine::run_windowed(&c, &wl, 0);
    let one = Engine::run_windowed(&c, &wl, 1);
    assert_identical(&zero, &one, "workers 0 vs 1");
}

#[test]
fn short_traces_fall_back_to_the_serial_engine() {
    // Too short to sample: there are no windows and run_windowed must
    // defer to Engine::run's degenerate-to-full behavior, identically
    // for every worker count.
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 30_000);
    let c = SimConfig::default().with_schedule(SampleSchedule::default_sampled());
    let serial = Engine::run(&c, &wl);
    for workers in [1usize, 4] {
        let windowed = Engine::run_windowed(&c, &wl, workers);
        assert!(windowed.sampled.is_none(), "degenerated to Full");
        assert_eq!(serial.total_cycles, windowed.total_cycles);
        assert_eq!(serial.l1i.demand_misses, windowed.l1i.demand_misses);
    }
}

#[test]
fn full_schedules_fall_back_to_the_serial_engine() {
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 100_000);
    let c = SimConfig::default();
    let serial = Engine::run(&c, &wl);
    let windowed = Engine::run_windowed(&c, &wl, 4);
    assert_eq!(serial.total_cycles, windowed.total_cycles);
    assert_eq!(serial.l1i, windowed.l1i);
    assert!(windowed.sampled.is_none());
}
