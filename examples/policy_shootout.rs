//! Policy shootout: run every i-cache organization the paper compares
//! (Figure 10's legend) on one application and rank them.
//!
//! Run: `cargo run --release --example policy_shootout [app-name]`

use acic_sim::{Engine, IcacheOrg, SimConfig};
use acic_workloads::{AppProfile, SyntheticWorkload};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "data-caching".to_string());
    let profile = AppProfile::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown app {name:?}; using data-caching");
        AppProfile::data_caching()
    });
    let workload = SyntheticWorkload::with_instructions(profile, 1_000_000);

    let cfg = SimConfig::default();
    let baseline = Engine::run(&cfg, &workload);
    println!(
        "{}: baseline LRU+FDP MPKI {:.2}, IPC {:.3}\n",
        workload.profile().name,
        baseline.l1i_mpki(),
        baseline.ipc()
    );

    let mut results = Vec::new();
    for org in IcacheOrg::figure10_set() {
        let report = Engine::run(&cfg.with_org(org.clone()), &workload);
        results.push((
            org.label(),
            report.speedup_over(&baseline),
            report.mpki_reduction_over(&baseline),
        ));
    }
    results.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!(
        "{:<24} {:>8} {:>14}",
        "organization", "speedup", "MPKI reduction"
    );
    for (label, speedup, reduction) in results {
        println!("{label:<24} {speedup:>8.4} {:>13.1}%", reduction * 100.0);
    }
}
