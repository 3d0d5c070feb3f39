//! The benchmark measures the stable surface only: it must not call
//! the twins and knobs that ROADMAP item 4 deletes, nor set the
//! diagnostic switches that change what a run does.

use std::path::Path;

const FORBIDDEN: [&str; 9] = [
    "Legacy",
    "run_unbatched",
    "run_naive_boxed",
    "run_grid_regenerating",
    "TimingLoop::Dense",
    "AnyPolicy::Boxed",
    "ACIC_DENSE_LOOP",
    "ACIC_PHASE_TIMES",
    "ACIC_ENGINE_DEBUG",
];

/// Every file the benchmark runs: the driver's sources and the wrapper.
fn benchmark_sources() -> Vec<std::path::PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(root.join("src"))
        .expect("read src/")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.push(root.join("run.py"));
    files.push(root.join("Cargo.toml"));
    files
}

#[test]
fn sources_name_no_deleted_surface() {
    let files = benchmark_sources();
    assert!(files.len() >= 4, "found the benchmark sources: {files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        for name in FORBIDDEN {
            assert!(
                !text.contains(name),
                "{} names {name}, which the benchmark must not use",
                file.display()
            );
        }
    }
}
