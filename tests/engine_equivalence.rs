//! The `Full` schedule must be the pre-engine simulator, bit for bit.
//!
//! The golden table below was captured from the tree *before* the
//! engine refactor (commit 450b279's `Simulator::run` / functional
//! loops) via `cargo run --release --example golden_capture`. Every
//! later change to the hot path must keep these numbers byte-stable:
//! a `Full`-schedule engine run and the functional simulator are
//! required to reproduce the original loops exactly, on LRU, SRRIP,
//! and ACIC, single- and 4-tenant, timing and functional.
//!
//! The trailing `prefetch_filtered` column and the timing-only rows
//! (VVC and VC3K single-tenant, flush-on-switch LRU 4-tenant) were
//! captured later with the same example, from the tree just before
//! the prefetch-scan memo landed. The column pins what the memo
//! computes (the dense-vs-event proptest cannot: both loops share the
//! memo), and the rows cover the organizations whose `access` moves
//! blocks and the one whose context switches flush.

use acic_sim::{functional, IcacheOrg, SampleSchedule, SimConfig, Simulator};
use acic_trace::TraceSource;
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload};

/// Pinned report fields, in `golden_capture`'s order:
/// `[total_instructions, total_cycles, measured_instructions,
/// measured_cycles, l1i_demand_accesses, l1i_demand_misses,
/// l1i_demand_fills, l1i_evictions, branch_mispredicts,
/// prefetch_issued, dram_accesses, context_switches,
/// acic_decisions, prefetch_filtered]`. Functional rows reuse the
/// layout with timing fields zeroed and `accesses` in the
/// `total_cycles` slot.
const GOLDEN: &[(&str, [u64; 14])] = &[
    (
        "1ten/lru/timing",
        [
            200000, 270762, 179995, 204920, 17550, 682, 668, 1380, 1194, 2172, 6832, 0, 0, 1685011,
        ],
    ),
    (
        "1ten/lru/functional",
        [200000, 19538, 0, 0, 19538, 1914, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "1ten/srrip/timing",
        [
            200000, 270881, 179995, 205058, 17550, 722, 708, 1424, 1194, 2202, 6832, 0, 0, 1685667,
        ],
    ),
    (
        "1ten/srrip/functional",
        [200000, 19538, 0, 0, 19538, 1865, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "1ten/acic/timing",
        [
            200000, 270839, 179995, 204997, 17550, 716, 702, 0, 1194, 2281, 6832, 0, 1458, 1689706,
        ],
    ),
    (
        "1ten/acic/functional",
        [200000, 19538, 0, 0, 19538, 1942, 0, 0, 0, 0, 0, 0, 1414, 0],
    ),
    (
        "1ten/vvc/timing",
        [
            200000, 270740, 179995, 204906, 17550, 685, 690, 1406, 1194, 2140, 6832, 0, 0, 1685110,
        ],
    ),
    (
        "1ten/vc3k/timing",
        [
            200000, 270552, 179995, 204729, 17550, 631, 632, 1131, 1194, 1759, 6832, 0, 0, 1684989,
        ],
    ),
    (
        "4ten/lru/timing",
        [
            200000, 489198, 180000, 397436, 17421, 3031, 2991, 4177, 2753, 3555, 11235, 19, 0,
            1349162,
        ],
    ),
    (
        "4ten/lru/functional",
        [200000, 19347, 0, 0, 19347, 4768, 0, 0, 0, 0, 0, 19, 0, 0],
    ),
    (
        "4ten/srrip/timing",
        [
            200000, 489196, 180000, 397410, 17421, 3029, 2990, 4142, 2753, 3489, 11235, 19, 0,
            1352454,
        ],
    ),
    (
        "4ten/srrip/functional",
        [200000, 19347, 0, 0, 19347, 4651, 0, 0, 0, 0, 0, 19, 0, 0],
    ),
    (
        "4ten/acic/timing",
        [
            200000, 489130, 180000, 397368, 17421, 3031, 2992, 0, 2753, 3556, 11235, 19, 4240,
            1349180,
        ],
    ),
    (
        "4ten/acic/functional",
        [200000, 19347, 0, 0, 19347, 4768, 0, 0, 0, 0, 0, 19, 4240, 0],
    ),
    (
        "4ten/lru-flush/timing",
        [
            200000, 489495, 180000, 397733, 17421, 3068, 3029, 6, 2753, 3577, 11235, 19, 0, 1348556,
        ],
    ),
];

fn golden(tag: &str) -> [u64; 14] {
    GOLDEN
        .iter()
        .find(|(t, _)| *t == tag)
        .unwrap_or_else(|| panic!("no golden row {tag}"))
        .1
}

fn orgs() -> Vec<(&'static str, IcacheOrg)> {
    vec![
        ("lru", IcacheOrg::Lru),
        ("srrip", IcacheOrg::Srrip),
        ("acic", IcacheOrg::acic_default()),
    ]
}

/// Organizations pinned by a timing row only (see the module doc).
fn timing_only_orgs(tenants: &str) -> Vec<(&'static str, IcacheOrg)> {
    match tenants {
        "1ten" => vec![("vvc", IcacheOrg::Vvc), ("vc3k", IcacheOrg::Vc3k)],
        _ => vec![("lru-flush", IcacheOrg::LruFlush)],
    }
}

fn single_tenant() -> SyntheticWorkload {
    SyntheticWorkload::with_instructions(AppProfile::web_search(), 200_000)
}

fn four_tenant() -> impl TraceSource {
    MultiTenantWorkload::new(10_000)
        .tenant(AppProfile::web_search(), 50_000)
        .tenant(AppProfile::tpc_c(), 50_000)
        .tenant(AppProfile::media_streaming(), 50_000)
        .tenant(AppProfile::data_serving(), 50_000)
        .build()
}

fn check_timing<W: TraceSource>(tag: &str, wl: &W, org: IcacheOrg) {
    let g = golden(tag);
    let r = Simulator::run(&SimConfig::default().with_org(org), wl);
    let got = [
        r.total_instructions,
        r.total_cycles,
        r.measured_instructions,
        r.measured_cycles,
        r.l1i.demand_accesses,
        r.l1i.demand_misses,
        r.l1i.demand_fills,
        r.l1i.evictions,
        r.branch.mispredicts,
        r.prefetch.issued,
        r.dram_accesses,
        r.context_switches,
        r.acic.map_or(0, |a| a.decisions),
        r.prefetch.filtered,
    ];
    assert_eq!(got, g, "{tag} diverged from the pre-engine simulator");
    assert!(r.sampled.is_none(), "Full runs report no sampled stats");
}

fn check_functional<W: TraceSource>(tag: &str, wl: &W, org: &IcacheOrg) {
    let g = golden(tag);
    let f = functional::run_functional(org, wl);
    let got = [
        f.instructions,
        f.accesses,
        0,
        0,
        f.l1i.demand_accesses,
        f.l1i.demand_misses,
        0,
        0,
        0,
        0,
        0,
        f.context_switches,
        f.acic.map_or(0, |a| a.decisions),
        0,
    ];
    assert_eq!(got, g, "{tag} diverged from the pre-engine functional loop");
}

#[test]
fn full_schedule_matches_pre_engine_goldens_single_tenant() {
    let wl = single_tenant();
    for (name, org) in orgs() {
        check_timing(&format!("1ten/{name}/timing"), &wl, org.clone());
        check_functional(&format!("1ten/{name}/functional"), &wl, &org);
    }
    for (name, org) in timing_only_orgs("1ten") {
        check_timing(&format!("1ten/{name}/timing"), &wl, org);
    }
}

#[test]
fn full_schedule_matches_pre_engine_goldens_four_tenant() {
    let wl = four_tenant();
    for (name, org) in orgs() {
        check_timing(&format!("4ten/{name}/timing"), &wl, org.clone());
        check_functional(&format!("4ten/{name}/functional"), &wl, &org);
    }
    for (name, org) in timing_only_orgs("4ten") {
        check_timing(&format!("4ten/{name}/timing"), &wl, org);
    }
}

#[test]
fn explicit_full_schedule_is_the_default_path() {
    // `schedule: Full` spelled out must be byte-identical to the
    // default config (they are the same variant, but this pins the
    // engine's dispatch, not just the enum).
    let wl = single_tenant();
    let a = Simulator::run(&SimConfig::default(), &wl);
    let b = Simulator::run(
        &SimConfig::default().with_schedule(SampleSchedule::Full),
        &wl,
    );
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
    assert_eq!(a.measured_cycles, b.measured_cycles);
}

/// An all-detailed periodic schedule (no fast-forward, no warmup —
/// every instruction simulated in the cycle loop) sees the exact
/// demand-access sequence of a Full run; with the prefetcher off, the
/// contents evolution is a pure function of that sequence, so demand
/// misses and fills must match Full exactly even though the windowed
/// cycle counts differ (pipeline drains at window boundaries).
#[test]
fn all_detailed_schedule_preserves_miss_counts() {
    use acic_sim::PrefetcherKind;
    let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 60_000);
    for org in [IcacheOrg::Lru, IcacheOrg::Srrip] {
        // warmup_fraction 0 so both runs count every access: the
        // §IV-A exclusion boundary is cycle-based in a Full run but
        // instruction-based in a sampled one, and this test is about
        // the access sequence, not the exclusion bookkeeping.
        let base = SimConfig {
            prefetcher: PrefetcherKind::None,
            warmup_fraction: 0.0,
            ..SimConfig::default()
        }
        .with_org(org);
        let full = Simulator::run(&base, &wl);
        let sampled = Simulator::run(
            &base.with_schedule(SampleSchedule::Periodic {
                period: 10_000,
                warmup_len: 0,
                detailed_len: 10_000,
            }),
            &wl,
        );
        assert_eq!(full.l1i.demand_accesses, sampled.l1i.demand_accesses);
        assert_eq!(full.l1i.demand_misses, sampled.l1i.demand_misses);
        assert_eq!(full.l1i.demand_fills, sampled.l1i.demand_fills);
        assert_eq!(full.total_instructions, sampled.total_instructions);
        assert!(sampled.sampled.is_some());
    }
}
