//! The `Full` schedule must be the pre-engine simulator, bit for bit.
//!
//! The golden table below was captured from the tree *before* the
//! engine refactor (commit 450b279's `Engine::run` / functional
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
//!
//! The single-tenant timing rows' `measured_instructions` (179,995 →
//! 180,000) were re-captured with the same example when the Full
//! schedule's warm snapshot began recording the exact warmup boundary
//! instead of the retire count of the cycle that crosses it. No other
//! field moved.
//!
//! `SAMPLED_GOLDEN` pins the Periodic schedule the same way: reports
//! from `Engine::run` and from `Engine::run_windowed` on one worker,
//! for LRU, ACIC and OPT (the reuse oracle), over a single tenant, four
//! tenants, a length whose final window is cut short by end of trace,
//! and a tight loop whose converged L3 opens the fast-forward gate.
//! It was captured with the same example, from the tree before the
//! serial and windowed period loops became one walker.

use acic_sim::{functional, Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport};
use acic_trace::{BranchClass, Instr, TraceSource, VecTrace};
use acic_types::Addr;
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
            200000, 270762, 180000, 204920, 17550, 682, 668, 1380, 1194, 2172, 6832, 0, 0, 1685011,
        ],
    ),
    (
        "1ten/lru/functional",
        [200000, 19538, 0, 0, 19538, 1914, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "1ten/srrip/timing",
        [
            200000, 270881, 180000, 205058, 17550, 722, 708, 1424, 1194, 2202, 6832, 0, 0, 1685667,
        ],
    ),
    (
        "1ten/srrip/functional",
        [200000, 19538, 0, 0, 19538, 1865, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "1ten/acic/timing",
        [
            200000, 270839, 180000, 204997, 17550, 716, 702, 0, 1194, 2281, 6832, 0, 1458, 1689706,
        ],
    ),
    (
        "1ten/acic/functional",
        [200000, 19538, 0, 0, 19538, 1942, 0, 0, 0, 0, 0, 0, 1414, 0],
    ),
    (
        "1ten/vvc/timing",
        [
            200000, 270740, 180000, 204906, 17550, 685, 690, 1406, 1194, 2140, 6832, 0, 0, 1685110,
        ],
    ),
    (
        "1ten/vc3k/timing",
        [
            200000, 270552, 180000, 204729, 17550, 631, 632, 1131, 1194, 1759, 6832, 0, 0, 1684989,
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
    let r = Engine::run(&SimConfig::default().with_org(org), wl);
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
    let a = Engine::run(&SimConfig::default(), &wl);
    let b = Engine::run(
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
        let full = Engine::run(&base, &wl);
        let sampled = Engine::run(
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

/// Pinned sampled-report fields, in `golden_capture`'s order:
/// `[total_instructions, total_cycles, measured_instructions,
/// measured_cycles, l1i_demand_accesses, l1i_demand_misses,
/// l3_demand_misses, branch_mispredicts, prefetch_issued,
/// dram_accesses, context_switches, acic_decisions, windows,
/// warmup_instructions, fastforward_instructions, ipc_mean bits,
/// mpki_mean bits]`. Tags are `<trace>/<org>/<serial|windowed>`.
#[rustfmt::skip]
const SAMPLED_GOLDEN: &[(&str, [u64; 17])] = &[
    ("1ten/lru/serial", [400000, 383204, 18957, 18161, 3915, 132, 752, 186, 815, 752, 0, 0, 4, 359972, 0, 0x3ff149ce29efca07, 0x400a6086581d5ffa]),
    ("1ten/lru/windowed", [400000, 383204, 18957, 18161, 3915, 132, 752, 187, 815, 752, 0, 0, 4, 1035098, 0, 0x3ff149ce29efca07, 0x400a6086581d5ffa]),
    ("1ten/acic/serial", [400000, 382360, 18957, 18121, 3915, 128, 752, 186, 748, 752, 0, 479, 4, 359972, 0, 0x3ff1595aff1589f2, 0x40099394e097205d]),
    ("1ten/acic/windowed", [400000, 382740, 18957, 18139, 3915, 132, 752, 187, 708, 752, 0, 461, 4, 1035098, 0, 0x3ff152f4001cc45d, 0x400a6040f536c4c0]),
    ("1ten/opt/serial", [400000, 381664, 18957, 18088, 3915, 96, 752, 186, 325, 752, 0, 0, 4, 359972, 0, 0x3ff160a913827c06, 0x40032e8ab614293b]),
    ("1ten/opt/windowed", [400000, 381664, 18957, 18088, 3915, 96, 752, 187, 323, 752, 0, 0, 4, 1035098, 0, 0x3ff160a913827c06, 0x40032e8ab614293b]),
    ("short/lru/serial", [376500, 300506, 17147, 13686, 3317, 102, 627, 156, 691, 627, 0, 0, 4, 342708, 0, 0x3ff4f4c7f9fa8fa6, 0x400560d758fe8fa2]),
    ("short/lru/windowed", [376500, 306004, 15221, 12371, 3317, 102, 627, 156, 691, 627, 0, 0, 4, 1010818, 0, 0x3ff50c61665317f4, 0x400560d758fe8fa2]),
    ("short/acic/serial", [376500, 301604, 17147, 13736, 3317, 102, 627, 156, 638, 627, 0, 403, 4, 342708, 0, 0x3ff4e09645b7c4cb, 0x40056101380d2ad6]),
    ("short/acic/windowed", [376500, 305732, 15221, 12360, 3317, 98, 627, 156, 623, 627, 0, 393, 4, 1010818, 0, 0x3ff511fc401114d2, 0x40043f7f33e0ad06]),
    ("short/opt/serial", [376500, 300155, 17147, 13670, 3317, 72, 627, 156, 306, 627, 0, 0, 4, 342708, 0, 0x3ff5060360e89ed2, 0x3ffd70c38a82217f]),
    ("short/opt/windowed", [376500, 305929, 15221, 12368, 3317, 72, 627, 156, 306, 627, 0, 0, 4, 1010818, 0, 0x3ff515c3426b20e8, 0x3ffd70c38a82217f]),
    ("loop/lru/serial", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 185008, 174992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("loop/lru/windowed", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 620032, 414992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("loop/acic/serial", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 185008, 174992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("loop/acic/windowed", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 620032, 414992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("loop/opt/serial", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 185008, 174992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("loop/opt/windowed", [400000, 75011, 18408, 3452, 2500, 0, 0, 0, 0, 0, 0, 0, 4, 620032, 414992, 0x4015548ad3ccfa5d, 0x0000000000000000]),
    ("4ten/lru/serial", [400000, 548523, 18952, 25989, 3799, 650, 1331, 534, 688, 1331, 4, 0, 4, 359973, 0, 0x3fea0f0ff5e3cb34, 0x40303cdd67c60619]),
    ("4ten/lru/windowed", [400000, 548523, 18952, 25989, 3799, 650, 1331, 534, 688, 1331, 4, 0, 4, 1035043, 0, 0x3fea0f0ff5e3cb34, 0x40303cdd67c60619]),
    ("4ten/acic/serial", [400000, 548523, 18952, 25989, 3799, 650, 1331, 534, 688, 1331, 4, 930, 4, 359973, 0, 0x3fea0f0ff5e3cb34, 0x40303cdd67c60619]),
    ("4ten/acic/windowed", [400000, 548523, 18952, 25989, 3799, 650, 1331, 534, 688, 1331, 4, 930, 4, 1035043, 0, 0x3fea0f0ff5e3cb34, 0x40303cdd67c60619]),
    ("4ten/opt/serial", [400000, 473356, 18965, 22443, 3799, 383, 1331, 534, 367, 1331, 4, 0, 4, 359973, 0, 0x3fee983368766f2c, 0x4023228451cf5897]),
    ("4ten/opt/windowed", [400000, 473356, 18965, 22443, 3799, 383, 1331, 534, 367, 1331, 4, 0, 4, 1035043, 0, 0x3fee983368766f2c, 0x4023228451cf5897]),
];

/// The Periodic schedule of the sampled table: a short period whose
/// unconverged gaps still exceed the engine's full-warming tail, so
/// both warming tiers and the fast-forward path run.
fn sampled_schedule() -> SampleSchedule {
    SampleSchedule::Periodic {
        period: 120_000,
        warmup_len: 30_000,
        detailed_len: 10_000,
    }
}

/// A trace length whose final window is cut short by end of trace:
/// the fourth interior starts 3,850 instructions before the end.
const SHORT_TOTAL: u64 = 376_500;

/// A tight loop (8 KiB of code, a 32 KiB data sweep) whose L3 stops
/// filling after the first period, so the convergence gate opens and
/// later gaps fast-forward.
fn loop_trace() -> VecTrace {
    const BODY: u64 = 2048;
    let base = 0x40_0000;
    let instrs = (0..400_000u64)
        .map(|i| {
            let k = i % BODY;
            let pc = Addr::new(base + k * 4);
            if k == BODY - 1 {
                Instr::branch(pc, Addr::new(base), true, BranchClass::Conditional)
            } else if k % 8 == 3 {
                Instr::load(pc, Addr::new(0x1000_0000 + (i / 8 % 512) * 64))
            } else {
                Instr::alu(pc)
            }
        })
        .collect();
    VecTrace::with_name(instrs, "loop")
}

fn sampled_row(r: &SimReport) -> [u64; 17] {
    let s = r.sampled.expect("periodic runs are sampled");
    [
        r.total_instructions,
        r.total_cycles,
        r.measured_instructions,
        r.measured_cycles,
        r.l1i.demand_accesses,
        r.l1i.demand_misses,
        r.l3.demand_misses,
        r.branch.mispredicts,
        r.prefetch.issued,
        r.dram_accesses,
        r.context_switches,
        r.acic.map_or(0, |a| a.decisions),
        s.windows,
        s.warmup_instructions,
        s.fastforward_instructions,
        s.ipc_mean.to_bits(),
        s.mpki_mean.to_bits(),
    ]
}

fn check_sampled<W: TraceSource + Sync>(trace: &str, wl: &W) {
    for (name, org) in [
        ("lru", IcacheOrg::Lru),
        ("acic", IcacheOrg::acic_default()),
        ("opt", IcacheOrg::Opt),
    ] {
        let cfg = SimConfig::default()
            .with_org(org)
            .with_schedule(sampled_schedule());
        for (mode, r) in [
            ("serial", Engine::run(&cfg, wl)),
            ("windowed", Engine::run_windowed(&cfg, wl, 1)),
        ] {
            let tag = format!("{trace}/{name}/{mode}");
            let g = SAMPLED_GOLDEN
                .iter()
                .find(|(t, _)| *t == tag)
                .unwrap_or_else(|| panic!("no sampled golden row {tag}"))
                .1;
            assert_eq!(
                sampled_row(&r),
                g,
                "{tag} diverged from the pinned schedule"
            );
        }
    }
}

#[test]
fn periodic_schedule_matches_sampled_goldens_single_tenant() {
    check_sampled(
        "1ten",
        &SyntheticWorkload::with_instructions(AppProfile::web_search(), 400_000),
    );
    check_sampled(
        "short",
        &SyntheticWorkload::with_instructions(AppProfile::web_search(), SHORT_TOTAL),
    );
    check_sampled("loop", &loop_trace());
}

#[test]
fn periodic_schedule_matches_sampled_goldens_four_tenant() {
    let wl = MultiTenantWorkload::new(10_000)
        .tenant(AppProfile::web_search(), 100_000)
        .tenant(AppProfile::tpc_c(), 100_000)
        .tenant(AppProfile::media_streaming(), 100_000)
        .tenant(AppProfile::data_serving(), 100_000)
        .build();
    check_sampled("4ten", &wl);
}
