//! Quickstart: simulate one datacenter workload under the baseline
//! LRU i-cache and under ACIC, and compare.
//!
//! Run: `cargo run --release --example quickstart`

use acic_sim::{Engine, IcacheOrg, SimConfig};
use acic_workloads::{AppProfile, SyntheticWorkload};

fn main() {
    // 1. Pick a workload profile (the paper's media-streaming-like
    //    application) and generate a deterministic 1M-instruction
    //    synthetic trace.
    let workload = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 1_000_000);
    println!(
        "workload: {} ({} code blocks, {} request types)",
        workload.profile().name,
        workload.program().code_blocks(),
        workload.program().types.len(),
    );

    // 2. Simulate the Table-II core with the LRU baseline (FDP
    //    prefetching on, as in the paper's baseline platform).
    let baseline_cfg = SimConfig::default();
    let baseline = Engine::run(&baseline_cfg, &workload);
    println!(
        "baseline LRU : {:>8} cycles, IPC {:.3}, L1i MPKI {:.2}",
        baseline.measured_cycles,
        baseline.ipc(),
        baseline.l1i_mpki()
    );

    // 3. Same core, but the L1i is ACIC: a 16-entry i-Filter plus the
    //    two-level admission predictor and CSHR (Table I parameters).
    let acic_cfg = baseline_cfg.with_org(IcacheOrg::acic_default());
    let acic = Engine::run(&acic_cfg, &workload);
    let stats = acic.acic.expect("ACIC organization reports its stats");
    println!(
        "ACIC         : {:>8} cycles, IPC {:.3}, L1i MPKI {:.2}",
        acic.measured_cycles,
        acic.ipc(),
        acic.l1i_mpki()
    );

    // 4. The headline numbers.
    println!(
        "speedup {:.4}, MPKI reduction {:.1}%, i-Filter victims admitted {:.0}%",
        acic.speedup_over(&baseline),
        acic.mpki_reduction_over(&baseline) * 100.0,
        stats.admit_fraction() * 100.0,
    );

    // 5. And the theoretical ceiling: Belady's OPT via the two-pass
    //    reuse oracle.
    let opt = Engine::run(&baseline_cfg.with_org(IcacheOrg::Opt), &workload);
    println!(
        "OPT ceiling  : speedup {:.4}, MPKI reduction {:.1}%",
        opt.speedup_over(&baseline),
        opt.mpki_reduction_over(&baseline) * 100.0,
    );
}
