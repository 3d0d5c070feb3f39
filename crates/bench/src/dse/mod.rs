//! Adaptive design-space exploration: CI-pruned, multi-fidelity
//! sweeps (DESIGN.md §10).
//!
//! An exhaustive full-detail sweep of a cache-geometry design space
//! pays the full per-cell budget for every configuration — including
//! the overwhelming majority that any coarse look would already rule
//! out. This module spends fidelity where it matters instead:
//!
//! 1. **Declare** a space ([`space`]): configurations × workload
//!    specs, built in (smoke / pinned / geometry) or parsed from a
//!    small JSON axes file.
//! 2. **Climb** a fidelity ladder ([`ladder`]): every rung simulates
//!    a *prefix* of the one frozen full-budget trace per spec under a
//!    coarse sampled schedule, so early rungs cost milliseconds per
//!    cell and no rung ever regenerates a workload.
//! 3. **Prune** between rungs ([`frontier`]): a configuration whose
//!    95% confidence interval is strictly dominated by a rival's on
//!    every (spec × objective) coordinate is retired — overlap never
//!    prunes, so survivors are a superset of the true Pareto frontier.
//! 4. **Refine** survivors ([`scheduler`]): settled configurations
//!    (every CI half-width under the precision target) skip
//!    intermediate rungs; the final rung re-simulates every survivor
//!    at full budget and figure-grade fidelity, and every finished
//!    cell is journaled (`acic-results/v2`, rung-keyed) so a killed
//!    sweep resumes with zero recomputed finished cells.
//!
//! Surfaced as `experiments --dse` (space file via `--dse-space`,
//! JSON-lines provenance report via `--dse-report`, CI round trip via
//! `--dse-smoke`). The adaptive frontier is always a superset of the
//! exhaustive Pareto frontier (`tests/dse.rs`), so pruning trades wall
//! time, never answers.

pub mod frontier;
pub mod ladder;
pub mod scheduler;
pub mod space;

pub use frontier::{
    dominates, objective_coords, pareto_frontier, prune_round, report_dominates, Interval,
};
pub use ladder::{coarse_schedule, Ladder, Rung, MIN_RUNG_BUDGET};
pub use scheduler::{midpoints, run_dse, ConfigOutcome, DseOptions, DseRun, RungStats};
pub use space::{geometry_space, parse_space, pinned_space, smoke_space, DseConfig, DseSpace};

use crate::result_store::ResultStore;
use acic_sim::SampleSchedule;
use std::sync::Arc;

/// The CI round trip behind `experiments --dse-smoke`: sweeps the
/// tiny built-in space over a two-rung ladder against a fresh store,
/// tears the journal mid-file, and resumes. The resumed sweep must
/// recompute only the torn cells, reproduce the reference frontier
/// bit for bit, and a third run must replay everything without
/// simulating a single cell.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn dse_smoke() -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("acic-dse-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = smoke_space();
    let mut opts = DseOptions {
        ladder: Ladder::new(120_000, 2, SampleSchedule::Full),
        store: None,
        cell_timeout: None,
        ..DseOptions::default()
    };
    let reference = run_dse(&space, &opts)?;

    opts.store = Some(Arc::new(
        ResultStore::open(&dir).map_err(|e| e.to_string())?,
    ));
    let first = run_dse(&space, &opts)?;
    if first.replayed != 0 || first.computed == 0 {
        return Err(format!(
            "fresh store: expected 0 replayed / all computed, got {} / {}",
            first.replayed, first.computed
        ));
    }

    // Tear the journal at 60% — mid-line, after several entries. A
    // kill while journaling would at worst lose whole tail lines;
    // this is strictly harsher.
    let journal = opts
        .store
        .as_ref()
        .expect("store attached")
        .journal_path()
        .to_path_buf();
    let bytes = std::fs::read(&journal).map_err(|e| e.to_string())?;
    std::fs::write(&journal, &bytes[..bytes.len() * 3 / 5]).map_err(|e| e.to_string())?;

    opts.store = Some(Arc::new(
        ResultStore::open(&dir).map_err(|e| e.to_string())?,
    ));
    let resumed = run_dse(&space, &opts)?;
    if resumed.computed == 0 || resumed.computed == first.computed {
        return Err(format!(
            "torn journal: expected a partial recompute, got {} of {}",
            resumed.computed, first.computed
        ));
    }
    if format!("{:?}", resumed.outcomes) != format!("{:?}", reference.outcomes) {
        return Err("resumed sweep diverged from the uninterrupted reference".into());
    }

    opts.store = Some(Arc::new(
        ResultStore::open(&dir).map_err(|e| e.to_string())?,
    ));
    let third = run_dse(&space, &opts)?;
    if third.computed != 0 || third.replayed != first.computed {
        return Err(format!(
            "healed store: expected {} replayed / 0 computed, got {} / {}",
            first.computed, third.replayed, third.computed
        ));
    }
    if format!("{:?}", third.outcomes) != format!("{:?}", reference.outcomes) {
        return Err("replayed sweep diverged from the uninterrupted reference".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "dse-smoke: {} cells over {} rungs; torn journal kept {} cells, resume recomputed {}, \
         final replay reproduced the frontier bit for bit\n",
        first.computed,
        reference.rungs.len(),
        first.computed - resumed.computed,
        resumed.computed
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn dse_smoke_round_trips() {
        let summary = super::dse_smoke().expect("smoke passes");
        assert!(summary.contains("dse-smoke:"));
    }
}
