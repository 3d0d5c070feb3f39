//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§II, §IV).
//!
//! Each function in [`figures`] prints the same rows/series the paper
//! reports; the `experiments` binary runs them all (`--only <name>`
//! runs one). A figure only builds grids, so every simulated cell goes
//! through [`Runner::run_grid`] and the one cell executor. The
//! instruction budget defaults to 1 M instructions per application
//! (the paper uses 500 M–1 B) and scales through the
//! `ACIC_EXP_INSTRUCTIONS` environment variable. At that default the
//! whole campaign's stdout is pinned by `tests/golden/campaign.txt`.
//!
//! The library ships no self-tests: the container-loader, resume,
//! window-parallel, DSE and supervision round trips are integration
//! tests (`crates/bench/tests`, `tests/window_parallel.rs`).
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate Figure 10's speedup table at 4 M instructions/app
//! // (the same rows as `experiments --only fig10_speedup`):
//! let runner = acic_bench::Runner {
//!     instructions: 4_000_000,
//!     ..acic_bench::Runner::new()
//! };
//! println!("{}", acic_bench::figures::fig10_speedup(&runner));
//! ```

pub mod dse;
pub mod fault;
pub mod figures;
pub mod json;
pub mod result_store;
pub mod runner;
pub mod supervise;
pub mod trace_store;

pub use runner::{instruction_budget, Runner, WorkloadSpec};
