//! Property-based dense-vs-event-horizon equivalence.
//!
//! The event-horizon loop (`TimingLoop::EventHorizon`) is a pure
//! scheduling optimization: it must produce the *bit-identical*
//! [`SimReport`] the dense cycle-by-cycle reference loop produces, on
//! every configuration. `tests/engine_equivalence.rs` pins a handful
//! of golden cells; this suite searches the configuration space —
//! random organizations, prefetchers, sample schedules, workload
//! profiles, and single- vs multi-tenant traces — and compares the
//! two loops' full reports via their `Debug` rendering (`SimReport`
//! deliberately has no `PartialEq`; the formatted form covers every
//! field, including nested stats).
//!
//! A windowed leg repeats the comparison through
//! `Engine::run_windowed_with_loop` with 1 and 2 workers: the
//! window-parallel path must also be loop-invariant, and
//! worker-count-invariant under either loop.

use acic_sim::{Engine, IcacheOrg, PrefetcherKind, SampleSchedule, SimConfig, TimingLoop};
use acic_trace::VecTrace;
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};
use proptest::prelude::*;

/// Number of organizations [`org`] cycles through.
const ORGS: usize = 6;

/// Organizations under test: the three headline policies, the
/// flush-on-switch LRU (exercises the ASID path), and the two whose
/// `access` moves blocks (VVC, VC3K) — debug builds re-probe every
/// prefetch-scan memo hit, so these exercise the residency contract
/// the memo rests on.
fn org(idx: usize) -> IcacheOrg {
    let orgs: [IcacheOrg; ORGS] = [
        IcacheOrg::Lru,
        IcacheOrg::LruFlush,
        IcacheOrg::Srrip,
        IcacheOrg::acic_default(),
        IcacheOrg::Vvc,
        IcacheOrg::Vc3k,
    ];
    orgs[idx % orgs.len()].clone()
}

fn prefetcher(idx: usize) -> PrefetcherKind {
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Fdp,
        PrefetcherKind::Entangling,
    ];
    kinds[idx % kinds.len()]
}

/// Short schedules sized for the small proptest traces: a Full run
/// and two Periodic shapes whose windows tile a few-thousand
/// instruction trace several times over.
fn schedule(idx: usize) -> SampleSchedule {
    let schedules = [
        SampleSchedule::Full,
        SampleSchedule::Periodic {
            period: 2_000,
            warmup_len: 600,
            detailed_len: 300,
        },
        SampleSchedule::Periodic {
            period: 1_200,
            warmup_len: 200,
            detailed_len: 500,
        },
    ];
    schedules[idx % schedules.len()]
}

fn profile(idx: usize) -> AppProfile {
    let profiles = [
        AppProfile::web_search(),
        AppProfile::tpc_c(),
        AppProfile::media_streaming(),
        AppProfile::gcc(),
    ];
    profiles[idx % profiles.len()].clone()
}

fn config(org_idx: usize, pf_idx: usize, sched_idx: usize) -> SimConfig {
    SimConfig::default()
        .with_org(org(org_idx))
        .with_prefetcher(prefetcher(pf_idx))
        .with_schedule(schedule(sched_idx))
}

/// Debug-render a report for comparison. `SimReport` has no
/// `PartialEq`; the derived `Debug` covers every field.
fn render(r: &acic_sim::SimReport) -> String {
    format!("{r:?}")
}

proptest! {
    /// Serial engine: dense and event-horizon reports are
    /// bit-identical on random (org, prefetcher, schedule, profile,
    /// length) points.
    #[test]
    fn serial_dense_matches_event_horizon(
        org_idx in 0usize..ORGS,
        pf_idx in 0usize..3,
        sched_idx in 0usize..3,
        prof_idx in 0usize..4,
        instructions in 2_000u64..10_000,
    ) {
        let cfg = config(org_idx, pf_idx, sched_idx);
        let trace = VecTrace::from_source(&SyntheticWorkload::with_instructions(
            profile(prof_idx),
            instructions,
        ));
        let dense = Engine::run_with_loop(&cfg, &trace, TimingLoop::Dense);
        let event = Engine::run_with_loop(&cfg, &trace, TimingLoop::EventHorizon);
        prop_assert_eq!(
            render(&dense),
            render(&event),
            "dense vs event mismatch: org={:?} pf={:?} sched={:?} n={}",
            org(org_idx), prefetcher(pf_idx), schedule(sched_idx), instructions
        );
    }

    /// Multi-tenant traces (context switches, ASID-tagged state):
    /// same bit-identity requirement.
    #[test]
    fn multi_tenant_dense_matches_event_horizon(
        org_idx in 0usize..ORGS,
        pf_idx in 0usize..3,
        quantum in 500u64..2_000,
        per_tenant in 2_000u64..6_000,
    ) {
        let cfg = config(org_idx, pf_idx, 0);
        let wl = MultiTenantWorkload::new(quantum)
            .tenant(AppProfile::web_search(), per_tenant)
            .tenant(AppProfile::tpc_c(), per_tenant)
            .build();
        let trace = VecTrace::from_source(&wl);
        let dense = Engine::run_with_loop(&cfg, &trace, TimingLoop::Dense);
        let event = Engine::run_with_loop(&cfg, &trace, TimingLoop::EventHorizon);
        prop_assert_eq!(
            render(&dense),
            render(&event),
            "multi-tenant mismatch: org={:?} pf={:?} quantum={}",
            org(org_idx), prefetcher(pf_idx), quantum
        );
    }

    /// Windowed sampled runs: the event loop must match dense through
    /// the window-parallel path, and stay worker-count invariant (1
    /// vs 2 workers) under the event loop.
    #[test]
    fn windowed_dense_matches_event_horizon(
        org_idx in 0usize..ORGS,
        pf_idx in 0usize..3,
        prof_idx in 0usize..4,
        instructions in 6_000u64..14_000,
    ) {
        let cfg = config(org_idx, pf_idx, 1);
        let trace = VecTrace::from_source(&SyntheticWorkload::with_instructions(
            profile(prof_idx),
            instructions,
        ));
        let dense = Engine::run_windowed_with_loop(&cfg, &trace, 1, TimingLoop::Dense);
        let event1 = Engine::run_windowed_with_loop(&cfg, &trace, 1, TimingLoop::EventHorizon);
        let event2 = Engine::run_windowed_with_loop(&cfg, &trace, 2, TimingLoop::EventHorizon);
        let dense_s = render(&dense);
        let event1_s = render(&event1);
        prop_assert_eq!(
            dense_s,
            event1_s.clone(),
            "windowed dense vs event mismatch: org={:?} pf={:?} n={}",
            org(org_idx), prefetcher(pf_idx), instructions
        );
        prop_assert_eq!(
            event1_s,
            render(&event2),
            "event loop not worker-count invariant: org={:?} pf={:?} n={}",
            org(org_idx), prefetcher(pf_idx), instructions
        );
    }
}
