//! Replay fallback matrix (the `--traces <dir>` degradation paths).
//!
//! A replay directory with one healthy, one corrupt, one wrong-budget
//! and one missing container must regenerate exactly the three broken
//! specs — observable through [`acic_bench::trace_store::Provenance`]
//! — and produce a grid bit-identical to an all-generated run, because
//! the generator is ground truth and packed replay round-trips it
//! exactly. A healthy directory replays every spec, multi-tenant
//! included, as the very container that was recorded, with a report
//! bit-identical to the generator's.

use acic_bench::trace_store::{freeze_with, Provenance, TraceStoreMode};
use acic_sim::{IcacheOrg, SimConfig, Simulator};
use acic_workloads::{AppProfile, WorkloadSpec};
use std::path::PathBuf;

const BUDGET: u64 = 2_000;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("acic-replayfb-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Single(AppProfile::web_search()),
        WorkloadSpec::Single(AppProfile::sibench()),
        WorkloadSpec::Single(AppProfile::tpc_c()),
        WorkloadSpec::Single(AppProfile::finagle_http()),
    ]
}

fn container(dir: &std::path::Path, spec: &WorkloadSpec, budget: u64) -> PathBuf {
    dir.join(format!("{}.acictrace", spec.store_key(budget)))
}

#[test]
fn broken_containers_regenerate_exactly_and_bit_identically() {
    let dir = scratch("matrix");
    let record = TraceStoreMode::Record(dir.clone());
    let replay = TraceStoreMode::Replay(dir.clone());
    let specs = specs();

    // Record containers for specs 0..3; leave spec 3 missing.
    for spec in &specs[..3] {
        freeze_with(&record, spec, BUDGET).unwrap();
    }
    // Corrupt spec 1's container: truncate to half.
    let corrupt = container(&dir, &specs[1], BUDGET);
    let bytes = std::fs::read(&corrupt).unwrap();
    std::fs::write(&corrupt, &bytes[..bytes.len() / 2]).unwrap();
    // Wrong budget for spec 2: record a valid container at a smaller
    // budget and move it under the requested-budget key.
    freeze_with(&record, &specs[2], BUDGET - 1).unwrap();
    std::fs::rename(
        container(&dir, &specs[2], BUDGET - 1),
        container(&dir, &specs[2], BUDGET),
    )
    .unwrap();

    let expected = [
        Provenance::Replayed,
        Provenance::RegeneratedCorrupt,
        Provenance::RegeneratedBudget,
        Provenance::RegeneratedMissing,
    ];
    let configs = [
        SimConfig::default(),
        SimConfig::default().with_org(IcacheOrg::acic_default()),
    ];
    for (spec, want) in specs.iter().zip(expected) {
        let frozen = freeze_with(&replay, spec, BUDGET).unwrap();
        assert_eq!(
            frozen.provenance,
            want,
            "wrong fallback decision for '{}'",
            spec.label()
        );
        assert_eq!(frozen.trace.len(), BUDGET);
        // Grid row: every config's report must match the all-generated
        // run bit-for-bit regardless of how the trace was obtained.
        for cfg in &configs {
            let generated = Simulator::run(cfg, &spec.generator(BUDGET));
            let replayed = Simulator::run(cfg, frozen.trace.as_ref());
            assert_eq!(
                format!("{replayed:?}"),
                format!("{generated:?}"),
                "replay-path grid cell diverged for '{}'",
                spec.label()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_directory_replays_every_spec() {
    let dir = scratch("healthy");
    let record = TraceStoreMode::Record(dir.clone());
    let replay = TraceStoreMode::Replay(dir.clone());
    let mut specs = specs();
    // A composed multi-tenant container round-trips like a single app.
    specs.push(WorkloadSpec::MultiTenant {
        profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
        quantum: BUDGET / 8,
    });
    let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
    for spec in &specs {
        let recorded = freeze_with(&record, spec, BUDGET).unwrap();
        let frozen = freeze_with(&replay, spec, BUDGET).unwrap();
        assert_eq!(frozen.provenance, Provenance::Replayed);
        assert!(
            frozen.trace.as_ref() == recorded.trace.as_ref(),
            "container round-trip diverged for '{}'",
            spec.label()
        );
        let generated = Simulator::run(&cfg, &spec.generator(BUDGET));
        let replayed = Simulator::run(&cfg, frozen.trace.as_ref());
        assert_eq!(
            format!("{replayed:?}"),
            format!("{generated:?}"),
            "replayed report diverged from generated for '{}'",
            spec.label()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
