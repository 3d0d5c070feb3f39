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
//!    cell is journaled (`acic-results/v4`, rung-keyed) so a killed
//!    sweep resumes with zero recomputed finished cells.
//!
//! Surfaced as `experiments --dse` (space file via `--dse-space`,
//! JSON-lines provenance report via `--dse-report`). The adaptive
//! frontier is always a superset of the exhaustive Pareto frontier
//! (`tests/dse.rs`), so pruning trades wall time, never answers.

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
