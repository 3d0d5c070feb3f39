//! Prints the pinned report fields used by `tests/engine_equivalence.rs`
//! and the frozen-trace checksums used by `tests/packed_trace.rs`.
//!
//! Run on a known-good tree to regenerate both golden tables:
//!
//! ```text
//! cargo run --release --example golden_capture
//! ```

use acic_sim::{functional, IcacheOrg, SimConfig, Simulator};
use acic_trace::{PackedTrace, TraceSource};
use acic_workloads::{AppProfile, MultiTenantWorkload, SyntheticWorkload, WorkloadSpec};

/// Budget of every frozen spec in the checksum table.
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

fn print_frozen_checksums() {
    for spec in frozen_specs() {
        let bytes = spec.materialize(FROZEN_BUDGET).to_bytes();
        let sum = PackedTrace::container_checksum(&bytes).expect("full header");
        println!("(\"{}\", {sum:#018x}),", spec.store_key(FROZEN_BUDGET));
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
    let r = Simulator::run(&SimConfig::default().with_org(org.clone()), wl);
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
    print_frozen_checksums();
}
