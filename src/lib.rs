//! Umbrella crate for the ACIC (HPCA 2023) reproduction.
//!
//! Re-exports every workspace crate so examples and integration tests
//! can reach the whole system through one dependency:
//!
//! * [`types`] — addresses, counters, histories, LRU stamps, hashing.
//! * [`trace`] — instruction traces, stack distances, the Belady
//!   oracle.
//! * [`workloads`] — the synthetic datacenter/SPEC workload generator.
//! * [`cache`] — caches, replacement/bypass policies, victim caches.
//! * [`core`] — ACIC itself: i-Filter, HRT/PT predictor, CSHR.
//! * [`sim`] — the trace-driven cycle-level CPU simulator.
//! * [`energy`] — storage and chip-energy accounting.
//! * [`bench`](mod@bench) — the experiment harness behind every figure/table.
//!
//! See README.md for a tour and DESIGN.md for the system inventory.

pub use acic_bench as bench;
pub use acic_cache as cache;
pub use acic_core as core;
pub use acic_energy as energy;
pub use acic_sim as sim;
pub use acic_trace as trace;
pub use acic_types as types;
pub use acic_workloads as workloads;
