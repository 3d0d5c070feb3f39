//! Trace-driven cycle-level CPU simulator (the paper's Tejas
//! substitute).
//!
//! The model follows Table II: a 6-wide decoupled front end with a
//! 24-entry Fetch Target Queue, TAGE + an 8192-entry BTB, a 60-entry
//! decode queue, a 352-entry ROB retiring 6/cycle, and a
//! L1i/L1d/L2/L3/DRAM hierarchy with MSHR-limited outstanding misses.
//! It is trace driven: wrong-path instructions are not simulated;
//! mispredictions stall the branch-prediction unit until the branch
//! resolves in the backend (the standard trace-driven approximation).
//!
//! The L1i contents are pluggable ([`IcacheOrg`]) so every
//! organization the paper compares — replacement policies, bypass
//! policies, victim caches, and ACIC — runs under identical timing.
//!
//! # Examples
//!
//! ```
//! use acic_sim::{Engine, IcacheOrg, PrefetcherKind, SimConfig};
//! use acic_workloads::{AppProfile, SyntheticWorkload};
//!
//! let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 50_000);
//! let cfg = SimConfig {
//!     icache_org: IcacheOrg::Lru,
//!     prefetcher: PrefetcherKind::Fdp,
//!     ..SimConfig::default()
//! };
//! let report = Engine::run(&cfg, &wl);
//! assert!(report.ipc() > 0.0);
//! assert!(report.l1i_mpki() >= 0.0);
//! ```

pub mod backend;
pub mod branch;
pub mod config;
pub mod engine;
pub mod frontend;
pub mod functional;
pub mod icache;
pub mod mem;
pub mod prefetch;
pub mod report;

pub use branch::btb::Btb;
pub use config::{BranchSwitchMode, PrefetcherKind, SampleSchedule, SimConfig};
pub use engine::{Engine, TimingLoop};
pub use frontend::FrontEnd;
pub use functional::{run_functional, FunctionalReport};
pub use icache::IcacheOrg;
pub use report::{mean_ci95, BranchStats, PrefetchStats, SampledStats, SimReport};
