//! The container loader's fallback matrix.
//!
//! [`acic_bench::trace_store::load_container`] is the one loader a
//! supervised child decodes its handoff trace through. Over one
//! healthy, one truncated, one wrong-budget and one missing container
//! it must regenerate exactly the three broken specs — observable
//! through [`acic_bench::trace_store::Provenance`] — and every report
//! must be bit-identical to the generator's, because the generator is
//! ground truth and packed replay round-trips it exactly. A healthy
//! container decodes to the very trace that was written, multi-tenant
//! included.

use acic_bench::trace_store::{load_container, Provenance};
use acic_sim::{Engine, IcacheOrg, SimConfig};
use acic_workloads::{AppProfile, WorkloadSpec};
use std::path::{Path, PathBuf};

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

fn container(dir: &Path, spec: &WorkloadSpec) -> PathBuf {
    dir.join(format!("{}.acictrace", spec.store_key(BUDGET)))
}

/// Writes `spec` frozen at `budget` as a container at `path`.
fn write(path: &Path, spec: &WorkloadSpec, budget: u64) {
    std::fs::write(path, spec.materialize(budget).to_bytes()).unwrap();
}

#[test]
fn broken_containers_regenerate_exactly_and_bit_identically() {
    let dir = scratch("matrix");
    let specs = specs();

    // Spec 0: healthy.
    write(&container(&dir, &specs[0]), &specs[0], BUDGET);
    // Spec 1: truncated to half.
    let truncated = container(&dir, &specs[1]);
    write(&truncated, &specs[1], BUDGET);
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    // Spec 2: a valid container at a smaller budget.
    write(&container(&dir, &specs[2]), &specs[2], BUDGET - 1);
    // Spec 3: missing.

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
        let frozen = load_container(&container(&dir, spec), spec, BUDGET);
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
            let generated = Engine::run(cfg, &spec.generator(BUDGET));
            let loaded = Engine::run(cfg, frozen.trace.as_ref());
            assert_eq!(
                format!("{loaded:?}"),
                format!("{generated:?}"),
                "loaded grid cell diverged for '{}'",
                spec.label()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_containers_load_every_spec() {
    let dir = scratch("healthy");
    let mut specs = specs();
    // A composed multi-tenant container round-trips like a single app.
    specs.push(WorkloadSpec::MultiTenant {
        profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
        quantum: BUDGET / 8,
    });
    let cfg = SimConfig::default().with_org(IcacheOrg::acic_default());
    for spec in &specs {
        let written = spec.materialize(BUDGET);
        let path = container(&dir, spec);
        std::fs::write(&path, written.to_bytes()).unwrap();
        let frozen = load_container(&path, spec, BUDGET);
        assert_eq!(frozen.provenance, Provenance::Replayed);
        assert!(
            frozen.trace.as_ref() == &written,
            "container round-trip diverged for '{}'",
            spec.label()
        );
        let generated = Engine::run(&cfg, &spec.generator(BUDGET));
        let loaded = Engine::run(&cfg, frozen.trace.as_ref());
        assert_eq!(
            format!("{loaded:?}"),
            format!("{generated:?}"),
            "loaded report diverged from generated for '{}'",
            spec.label()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
