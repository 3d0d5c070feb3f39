//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§II, §IV).
//!
//! Each `benches/figNN_*.rs` target (all `harness = false`) prints the
//! same rows/series the paper reports; `cargo bench --workspace` runs
//! them all. The instruction budget defaults to 1 M instructions per
//! application (the paper uses 500 M–1 B) and scales through the
//! `ACIC_EXP_INSTRUCTIONS` environment variable.
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate Figure 10's speedup table at 4 M instructions/app:
//! // ACIC_EXP_INSTRUCTIONS=4000000 cargo bench -p acic-bench --bench fig10_speedup
//! println!("{}", acic_bench::figures::fig10_speedup());
//! ```

pub mod dse;
pub mod fault;
pub mod figures;
pub mod json;
pub mod result_store;
pub mod runner;
pub mod supervise;
pub mod trace_store;
pub mod window_smoke;

pub use runner::{instruction_budget, run_config, run_pair, run_spec, Runner, WorkloadSpec};
