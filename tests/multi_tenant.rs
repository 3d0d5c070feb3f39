//! Multi-tenant / ASID integration tests.
//!
//! The load-bearing guarantee of the ASID refactor is that the
//! single-tenant hot path is **unchanged**: a 1-tenant
//! `InterleavedTrace` must produce bit-identical reports and stats to
//! driving the child trace directly, for every execution path. The
//! property tests here pin that down across quanta and budgets for
//! LRU, SRRIP and ACIC, plus the timing simulator; the remaining
//! tests exercise the genuinely multi-tenant semantics (aliasing,
//! flush-on-switch, tagged survival).

use acic_repro::sim::functional::{run_functional, FunctionalReport};
use acic_repro::sim::{BranchSwitchMode, Engine, IcacheOrg, PrefetcherKind, SimConfig};
use acic_repro::trace::{InterleavedTrace, TraceSource, VecTrace};
use acic_repro::workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};
use proptest::prelude::*;

/// The workload and its 1-tenant interleaved twin. The twin borrows
/// the child's *name* so every derived seed matches too.
fn solo_pair(
    profile: AppProfile,
    n: u64,
) -> (SyntheticWorkload, InterleavedTrace<SyntheticWorkload>) {
    let direct = SyntheticWorkload::with_instructions(profile.clone(), n);
    let name = direct.name().to_string();
    let child = SyntheticWorkload::with_instructions(profile, n);
    (
        direct,
        InterleavedTrace::with_name(vec![child], 1_000, name),
    )
}

fn assert_reports_identical(a: &FunctionalReport, b: &FunctionalReport) {
    assert_eq!(a.app, b.app);
    assert_eq!(a.org, b.org);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.l1i, b.l1i, "cache stats must be bit-identical");
    assert_eq!(b.context_switches, 0, "1 tenant never switches");
    match (&a.acic, &b.acic) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.decisions, y.decisions);
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.bypassed, y.bypassed);
            assert_eq!(x.free_admissions, y.free_admissions);
            assert_eq!(x.insert_delta, y.insert_delta);
        }
        _ => panic!("ACIC stats presence must match"),
    }
}

proptest! {
    /// The refactor's no-regression guard: a 1-tenant interleave is
    /// bit-identical to the untagged single-trace path for LRU, SRRIP
    /// and ACIC, whatever the quantum or budget.
    #[test]
    fn one_tenant_interleave_is_bit_identical_functional(
        n in 10_000u64..30_000,
        quantum in 1u64..5_000,
        org_idx in 0usize..3,
    ) {
        let org = [IcacheOrg::Lru, IcacheOrg::Srrip, IcacheOrg::acic_default()][org_idx].clone();
        let direct = SyntheticWorkload::with_instructions(AppProfile::web_search(), n);
        let name = direct.name().to_string();
        let child = SyntheticWorkload::with_instructions(AppProfile::web_search(), n);
        let mt = InterleavedTrace::with_name(vec![child], quantum, name);
        let a = run_functional(&org, &direct);
        let b = run_functional(&org, &mt);
        assert_reports_identical(&a, &b);
    }
}

#[test]
fn one_tenant_interleave_matches_for_every_scenario_org() {
    // The three organizations of the multi_tenant figure, including
    // the flush-on-switch baseline: with one tenant there are no
    // switches, so even LruFlush must match plain behavior.
    for org in [
        IcacheOrg::Lru,
        IcacheOrg::LruFlush,
        IcacheOrg::Srrip,
        IcacheOrg::acic_default(),
    ] {
        let (direct, mt) = solo_pair(AppProfile::tpc_c(), 40_000);
        let a = run_functional(&org, &direct);
        let b = run_functional(&org, &mt);
        assert_eq!(a.l1i, b.l1i, "org {:?}", org);
        assert_eq!(a.accesses, b.accesses, "org {:?}", org);
    }
    // LruFlush and Lru are themselves identical single-tenant.
    let (direct, _) = solo_pair(AppProfile::tpc_c(), 40_000);
    let flush = run_functional(&IcacheOrg::LruFlush, &direct);
    let plain = run_functional(&IcacheOrg::Lru, &direct);
    assert_eq!(flush.l1i.demand_misses, plain.l1i.demand_misses);
}

#[test]
fn one_tenant_interleave_is_identical_in_the_timing_simulator() {
    let cfg = SimConfig::default();
    for org in [IcacheOrg::Lru, IcacheOrg::acic_default()] {
        let (direct, mt) = solo_pair(AppProfile::web_search(), 30_000);
        let a = Engine::run(&cfg.with_org(org.clone()), &direct);
        let b = Engine::run(&cfg.with_org(org.clone()), &mt);
        assert_eq!(a.total_cycles, b.total_cycles, "org {:?}", org);
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
        assert_eq!(a.branch.mispredicts, b.branch.mispredicts);
        assert_eq!(b.context_switches, 0);
    }
}

#[test]
fn tenants_at_identical_virtual_addresses_do_not_alias() {
    // Two tenants running the *same instruction stream*: every PC
    // coincides, so an untagged cache would let tenant 1 free-ride on
    // tenant 0's fills. With ASID tags each must miss on its own.
    let instrs: Vec<_> = SyntheticWorkload::with_instructions(AppProfile::sibench(), 5_000)
        .iter()
        .collect();
    let t0 = VecTrace::with_name(instrs.clone(), "clone-a");
    let t1 = VecTrace::with_name(instrs, "clone-b");
    // One giant quantum: tenant 0 runs fully, then tenant 1.
    let mt = InterleavedTrace::new(vec![t0.clone(), t1], 5_000);
    let solo = run_functional(&IcacheOrg::Lru, &t0);
    let both = run_functional(&IcacheOrg::Lru, &mt);
    assert_eq!(both.context_switches, 1);
    assert!(
        both.l1i.demand_misses >= 2 * solo.l1i.demand_misses,
        "tenant 1 must take its own cold misses ({} vs 2*{})",
        both.l1i.demand_misses,
        solo.l1i.demand_misses
    );
}

#[test]
fn flush_on_switch_misses_at_least_as_much_as_asid_tagged() {
    let build = || {
        MultiTenantWorkload::new(5_000)
            .suite_tenants(3, 30_000)
            .build()
    };
    let flush = run_functional(&IcacheOrg::LruFlush, &build());
    let tagged = run_functional(&IcacheOrg::Lru, &build());
    assert_eq!(flush.context_switches, tagged.context_switches);
    assert!(flush.context_switches > 0, "multi-tenant must switch");
    assert!(
        flush.l1i.demand_misses >= tagged.l1i.demand_misses,
        "flushing every switch cannot beat ASID tags ({} vs {})",
        flush.l1i.demand_misses,
        tagged.l1i.demand_misses
    );
    assert!(
        flush.l1i.flushed_lines > 0,
        "flushes must actually drop lines"
    );
    assert_eq!(tagged.l1i.flushed_lines, 0);
}

#[test]
fn timing_simulator_counts_switches_and_survives_multi_tenant() {
    let wl = MultiTenantWorkload::new(4_000)
        .suite_tenants(2, 12_000)
        .build();
    let expected_switches = {
        // Quanta boundaries where the ASID actually changes.
        let mut prev = None;
        let mut n = 0u64;
        for i in wl.iter() {
            if prev.is_some_and(|p| p != i.asid()) {
                n += 1;
            }
            prev = Some(i.asid());
        }
        n
    };
    for org in [
        IcacheOrg::LruFlush,
        IcacheOrg::Lru,
        IcacheOrg::acic_default(),
    ] {
        let cfg = SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        }
        .with_org(org.clone());
        let r = Engine::run(&cfg, &wl);
        assert_eq!(r.total_instructions, 24_000, "org {:?}", org);
        assert_eq!(r.context_switches, expected_switches, "org {:?}", org);
        assert!(r.ipc() > 0.01, "org {:?}", org);
    }
}

#[test]
fn composed_len_hint_contract_is_exact() {
    // TraceSource contract: composed sources report exact hints when
    // all children do; the simulator's cycle bound and warm-up window
    // depend on it.
    let wl = MultiTenantWorkload::new(1_000)
        .suite_tenants(4, 5_000)
        .build();
    assert_eq!(wl.len_hint(), Some(20_000));
    assert_eq!(wl.iter().count(), 20_000);
    // And reset semantics: a second pass replays the first exactly.
    let a: Vec<_> = wl.iter().collect();
    let b: Vec<_> = wl.iter().collect();
    assert_eq!(a, b);
}

#[test]
fn branch_tag_mode_is_identity_single_tenant_and_runs_multi_tenant() {
    // Single tenant: no switches ever happen and ASID 0 XOR-tags to
    // the raw PC, so Flush and Tag must be bit-identical.
    let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 25_000);
    let flush = Engine::run(&SimConfig::default(), &wl);
    let tag = Engine::run(
        &SimConfig::default().with_branch_switch(BranchSwitchMode::Tag),
        &wl,
    );
    assert_eq!(flush.total_cycles, tag.total_cycles);
    assert_eq!(flush.branch.mispredicts, tag.branch.mispredicts);
    assert_eq!(flush.branch.btb.misses, tag.branch.btb.misses);

    // Multi-tenant: Tag mode keeps predictor state across switches —
    // it must run deterministically, observe the same switch count,
    // and (state surviving) never look up colder BTB state than the
    // flushing configuration.
    let build = || {
        MultiTenantWorkload::new(3_000)
            .suite_tenants(2, 10_000)
            .build()
    };
    let cfg_tag = SimConfig::default().with_branch_switch(BranchSwitchMode::Tag);
    let a = Engine::run(&cfg_tag, &build());
    let b = Engine::run(&cfg_tag, &build());
    assert_eq!(
        a.total_cycles, b.total_cycles,
        "Tag mode must be deterministic"
    );
    let f = Engine::run(&SimConfig::default(), &build());
    assert_eq!(a.context_switches, f.context_switches);
    assert!(a.context_switches > 0);
    assert!(
        a.branch.btb.misses <= f.branch.btb.misses,
        "tagged BTB state survives switches ({} vs {} misses)",
        a.branch.btb.misses,
        f.branch.btb.misses
    );
}

#[test]
fn frozen_multi_tenant_replay_is_bit_identical_in_both_simulators() {
    // The trace-freeze refactor's multi-tenant guarantee: packing an
    // interleaved stream (explicit ASID-switch records, remainder-
    // exact budget split) and replaying it produces bit-identical
    // reports to driving the live interleaver, functional and timing,
    // for an ASID-sensitive organization.
    use acic_repro::workloads::WorkloadSpec;

    // 25_001 over 2 tenants exercises the remainder distribution.
    let n = 25_001u64;
    let spec = WorkloadSpec::MultiTenant {
        profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
        quantum: 3_000,
    };
    let live = spec.generator(n);
    let frozen = spec.materialize(n);
    assert_eq!(frozen.len(), n, "budget split must be remainder-exact");
    assert!(frozen.iter().eq(live.iter()), "stream must round-trip");

    let org = IcacheOrg::acic_default();
    let f_live = run_functional(&org, &live);
    let f_frozen = run_functional(&org, &frozen);
    assert!(f_live.context_switches > 0, "interleave must switch");
    assert_eq!(f_live.context_switches, f_frozen.context_switches);
    assert_eq!(f_live.accesses, f_frozen.accesses);
    assert_eq!(f_live.l1i, f_frozen.l1i, "cache stats bit-identical");
    let (a, b) = (
        f_live.acic.expect("ACIC stats"),
        f_frozen.acic.expect("ACIC stats"),
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.bypassed, b.bypassed);
    assert_eq!(a.insert_delta, b.insert_delta);

    let cfg = SimConfig::default().with_org(org);
    let t_live = Engine::run(&cfg, &live);
    let t_frozen = Engine::run(&cfg, &frozen);
    assert_eq!(format!("{t_live:?}"), format!("{t_frozen:?}"));
}
