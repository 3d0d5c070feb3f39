//! Cross-crate integration tests: whole-simulator behavior that no
//! single crate can check alone.

use acic_repro::sim::{Engine, IcacheOrg, PrefetcherKind, SimConfig};
use acic_repro::workloads::{AppProfile, SyntheticWorkload};

const N: u64 = 80_000;

fn workload(profile: AppProfile) -> SyntheticWorkload {
    SyntheticWorkload::with_instructions(profile, N)
}

#[test]
fn simulation_is_deterministic_across_processes_and_runs() {
    let wl = workload(AppProfile::data_caching());
    let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
    let a = Engine::run(&cfg, &wl);
    let b = Engine::run(&cfg, &wl);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
    assert_eq!(a.branch.mispredicts, b.branch.mispredicts);
    assert_eq!(a.acic.unwrap().decisions, b.acic.unwrap().decisions);
}

#[test]
fn every_figure10_org_completes_on_every_app_class() {
    // One filtering app, one churny app, one SPEC app.
    for profile in [
        AppProfile::media_streaming(),
        AppProfile::tpc_c(),
        AppProfile::x264(),
    ] {
        let wl = workload(profile);
        for org in IcacheOrg::figure10_set() {
            let r = Engine::run(&SimConfig::default().with_org(org.clone()), &wl);
            assert_eq!(r.total_instructions, N, "{} under {}", r.app, org.label());
            assert!(r.ipc() > 0.0, "{} under {}", r.app, org.label());
        }
    }
}

#[test]
fn opt_replacement_never_misses_more_than_lru() {
    for profile in [AppProfile::media_streaming(), AppProfile::wikipedia()] {
        let wl = workload(profile);
        let cfg = SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        };
        let lru = Engine::run(&cfg, &wl);
        let opt = Engine::run(&cfg.with_org(IcacheOrg::Opt), &wl);
        assert!(
            opt.l1i.demand_misses <= lru.l1i.demand_misses,
            "{}: OPT {} > LRU {}",
            lru.app,
            opt.l1i.demand_misses,
            lru.l1i.demand_misses
        );
    }
}

#[test]
fn larger_cache_never_misses_more_under_lru() {
    let wl = workload(AppProfile::web_search());
    let cfg = SimConfig {
        prefetcher: PrefetcherKind::None,
        ..SimConfig::default()
    };
    let base = Engine::run(&cfg, &wl);
    let bigger = Engine::run(&cfg.with_org(IcacheOrg::Larger36k), &wl);
    // 36 KB/9-way strictly contains the 32 KB/8-way contents under
    // LRU (same sets, one extra way), so misses cannot increase.
    assert!(bigger.l1i.demand_misses <= base.l1i.demand_misses);
}

#[test]
fn prefetching_helps_the_front_end() {
    let wl = workload(AppProfile::web_serving());
    let none = Engine::run(
        &SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        },
        &wl,
    );
    let fdp = Engine::run(&SimConfig::default(), &wl);
    assert!(fdp.l1i.demand_misses < none.l1i.demand_misses);
    assert!(fdp.measured_cycles <= none.measured_cycles);
}

#[test]
fn acic_sits_between_baseline_and_opt_on_filtering_apps() {
    // The paper's headline relationship, on an app with learnable
    // admission structure.
    let wl = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 400_000);
    let cfg = SimConfig::default();
    let lru = Engine::run(&cfg, &wl);
    let acic = Engine::run(&cfg.with_org(IcacheOrg::acic_default()), &wl);
    let opt = Engine::run(&cfg.with_org(IcacheOrg::Opt), &wl);
    assert!(
        acic.l1i_mpki() < lru.l1i_mpki(),
        "ACIC {:.3} vs LRU {:.3}",
        acic.l1i_mpki(),
        lru.l1i_mpki()
    );
    assert!(
        opt.l1i_mpki() <= acic.l1i_mpki(),
        "OPT {:.3} vs ACIC {:.3}",
        opt.l1i_mpki(),
        acic.l1i_mpki()
    );
}

#[test]
fn warmup_window_is_excluded_from_measurements() {
    let wl = workload(AppProfile::sibench());
    let r = Engine::run(&SimConfig::default(), &wl);
    assert!(r.measured_instructions < r.total_instructions);
    assert!(r.measured_cycles < r.total_cycles);
    // Roughly 10% excluded.
    let excluded = r.total_instructions - r.measured_instructions;
    let expected = (N as f64 * 0.10) as u64;
    assert!(
        excluded.abs_diff(expected) <= expected / 2 + 64,
        "excluded {excluded} vs expected ~{expected}"
    );
}

#[test]
fn oracle_attachment_does_not_change_timing() {
    // The oracle is instrumentation: attaching it must not perturb
    // the simulated machine.
    let wl = workload(AppProfile::finagle_http());
    let plain = Engine::run(&SimConfig::default(), &wl);
    let oracled = Engine::run(
        &SimConfig {
            attach_oracle: true,
            ..SimConfig::default()
        },
        &wl,
    );
    assert_eq!(plain.total_cycles, oracled.total_cycles);
    assert_eq!(plain.l1i.demand_misses, oracled.l1i.demand_misses);
}

#[test]
fn entangling_prefetcher_runs_and_reduces_misses() {
    let wl = workload(AppProfile::neo4j_analytics());
    let none = Engine::run(
        &SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        },
        &wl,
    );
    let ent = Engine::run(
        &SimConfig {
            prefetcher: PrefetcherKind::Entangling,
            ..SimConfig::default()
        },
        &wl,
    );
    assert!(ent.l1i.demand_misses <= none.l1i.demand_misses);
}

#[test]
fn energy_model_shows_leakage_tracking_runtime() {
    use acic_repro::energy::EnergyModel;
    let wl = workload(AppProfile::data_serving());
    let base = Engine::run(&SimConfig::default(), &wl);
    let model = EnergyModel::default();
    let e = model.evaluate(&base);
    assert!(e.total_j() > 0.0);
    // Leakage at ~2 W over total_cycles/4 GHz seconds.
    let expected_leak = 1.9 * base.total_cycles as f64 / 4.0e9;
    assert!((e.leakage_j - expected_leak).abs() / expected_leak < 0.05);
}
