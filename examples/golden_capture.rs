//! Prints the pinned report fields used by `tests/engine_equivalence.rs`
//! (the Full-schedule `GOLDEN` table and the Periodic-schedule
//! `SAMPLED_GOLDEN` table) and the frozen-trace checksums
//! (`PackedTrace::checksum`) and decoded-stream digests used by
//! `tests/packed_trace.rs` (`FROZEN_GOLDEN` and `FROZEN_STREAM_GOLDEN`).
//!
//! Run on a known-good tree to regenerate all four golden tables:
//!
//! ```text
//! cargo run --release --example golden_capture
//! ```

use acic_sim::{functional, Engine, IcacheOrg, SampleSchedule, SimConfig, SimReport};
use acic_trace::{BranchClass, Instr, InstrKind, PackedTrace, TraceSource, VecTrace};
use acic_types::hash::{fnv1a, FNV_OFFSET};
use acic_types::Addr;
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload, WorkloadSpec};

/// Budget of every frozen spec in the checksum and digest tables.
const FROZEN_BUDGET: u64 = 100_000;

/// Every shipped spec shape: the ten datacenter apps, one SPEC app,
/// and the four multi-tenant shapes of the fig-grid benchmark.
fn frozen_specs() -> Vec<WorkloadSpec> {
    let apps = AppProfile::datacenter_suite();
    let mut specs = WorkloadSpec::singles(&apps);
    specs.push(WorkloadSpec::Single(AppProfile::spec_suite()[0].clone()));
    for tenants in [2usize, 4] {
        for quantum in [10_000u64, 50_000] {
            specs.push(WorkloadSpec::MultiTenant {
                profiles: apps[..tenants].to_vec(),
                quantum,
            });
        }
    }
    specs
}

/// FNV-1a over every decoded instruction of `trace`: PC, ASID, kind,
/// and the kind's operands, each at a fixed width. The same digest as
/// `tests/packed_trace.rs`'s `stream_digest`.
fn stream_digest(trace: &PackedTrace) -> u64 {
    trace.iter().fold(FNV_OFFSET, |h, i| {
        let (kind, operand, extra) = match i.kind {
            InstrKind::Alu => (0u8, 0, 0u8),
            InstrKind::LongAlu => (1, 0, 0),
            InstrKind::Load { addr } => (2, addr.raw(), 0),
            InstrKind::Store { addr } => (3, addr.raw(), 0),
            InstrKind::Branch {
                target,
                taken,
                class,
            } => (4, target.raw(), u8::from(taken) | (class as u8) << 1),
        };
        let mut rec = [0u8; 20];
        rec[..8].copy_from_slice(&i.pc().raw().to_le_bytes());
        rec[8..10].copy_from_slice(&i.asid().raw().to_le_bytes());
        rec[10] = kind;
        rec[11..19].copy_from_slice(&operand.to_le_bytes());
        rec[19] = extra;
        fnv1a(h, &rec)
    })
}

/// Prints `FROZEN_GOLDEN` (packed-byte checksums), then
/// `FROZEN_STREAM_GOLDEN` (decoded-stream digests).
fn print_frozen_tables() {
    let frozen: Vec<_> = frozen_specs()
        .into_iter()
        .map(|spec| {
            (
                spec.store_key(FROZEN_BUDGET),
                spec.materialize(FROZEN_BUDGET),
            )
        })
        .collect();
    for (key, trace) in &frozen {
        println!("(\"{key}\", {:#018x}),", trace.checksum());
    }
    for (key, trace) in &frozen {
        println!("(\"{key}\", {:#018x}),", stream_digest(trace));
    }
}

fn orgs() -> Vec<(&'static str, IcacheOrg)> {
    vec![
        ("lru", IcacheOrg::Lru),
        ("srrip", IcacheOrg::Srrip),
        ("acic", IcacheOrg::acic_default()),
    ]
}

/// Organizations pinned by a timing row only: the two whose `access`
/// moves blocks (single tenant) and flush-on-switch LRU (4 tenants).
fn timing_only_orgs(tag: &str) -> Vec<(&'static str, IcacheOrg)> {
    match tag {
        "1ten" => vec![("vvc", IcacheOrg::Vvc), ("vc3k", IcacheOrg::Vc3k)],
        _ => vec![("lru-flush", IcacheOrg::LruFlush)],
    }
}

fn print_timing<W: TraceSource>(tag: &str, name: &str, org: &IcacheOrg, wl: &W) {
    let r = Engine::run(&SimConfig::default().with_org(org.clone()), wl);
    println!(
        "(\"{tag}/{name}/timing\", [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]),",
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
    );
}

fn run_one<W: TraceSource>(tag: &str, wl: &W) {
    for (name, org) in orgs() {
        print_timing(tag, name, &org, wl);
        let f = functional::run_functional(&org, wl);
        println!(
            "(\"{tag}/{name}/functional\", [{}, {}, {}, {}, {}, {}, 0, 0, 0, 0, 0, {}, {}, 0]),",
            f.instructions,
            f.accesses,
            0,
            0,
            f.l1i.demand_accesses,
            f.l1i.demand_misses,
            f.context_switches,
            f.acic.map_or(0, |a| a.decisions),
        );
    }
    for (name, org) in timing_only_orgs(tag) {
        print_timing(tag, name, &org, wl);
    }
}

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

/// One sampled-table row, in `tests/engine_equivalence.rs`'s
/// `SAMPLED_GOLDEN` order.
fn print_sampled(tag: &str, r: &SimReport) {
    let s = r.sampled.expect("periodic runs are sampled");
    println!(
        "(\"{tag}\", [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {:#018x}, {:#018x}]),",
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
    );
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

fn sampled_orgs() -> Vec<(&'static str, IcacheOrg)> {
    vec![
        ("lru", IcacheOrg::Lru),
        ("acic", IcacheOrg::acic_default()),
        ("opt", IcacheOrg::Opt),
    ]
}

fn run_sampled<W: TraceSource + Sync>(tag: &str, wl: &W) {
    for (name, org) in sampled_orgs() {
        let cfg = SimConfig::default()
            .with_org(org)
            .with_schedule(sampled_schedule());
        print_sampled(&format!("{tag}/{name}/serial"), &Engine::run(&cfg, wl));
        print_sampled(
            &format!("{tag}/{name}/windowed"),
            &Engine::run_windowed(&cfg, wl, 1),
        );
    }
}

fn main() {
    let single = SyntheticWorkload::with_instructions(AppProfile::web_search(), 200_000);
    run_one("1ten", &single);
    let multi = MultiTenantWorkload::new(10_000)
        .tenant(AppProfile::web_search(), 50_000)
        .tenant(AppProfile::tpc_c(), 50_000)
        .tenant(AppProfile::media_streaming(), 50_000)
        .tenant(AppProfile::data_serving(), 50_000)
        .build();
    run_one("4ten", &multi);
    print_frozen_tables();
    run_sampled(
        "1ten",
        &SyntheticWorkload::with_instructions(AppProfile::web_search(), 400_000),
    );
    run_sampled(
        "short",
        &SyntheticWorkload::with_instructions(AppProfile::web_search(), SHORT_TOTAL),
    );
    run_sampled("loop", &loop_trace());
    let sampled_multi = MultiTenantWorkload::new(10_000)
        .tenant(AppProfile::web_search(), 100_000)
        .tenant(AppProfile::tpc_c(), 100_000)
        .tenant(AppProfile::media_streaming(), 100_000)
        .tenant(AppProfile::data_serving(), 100_000)
        .build();
    run_sampled("4ten", &sampled_multi);
}
