//! Synthetic workloads standing in for the paper's full-system traces.
//!
//! The paper records QEMU traces of 10 datacenter applications
//! (CloudSuite, OLTPBench, Renaissance — Table III) and 5 SPEC2017
//! integer benchmarks. Those traces are not redistributable, so this
//! crate builds the closest synthetic equivalent: each application is
//! a seeded, randomly generated *program* — a layered call graph of
//! hot (library/dispatch), warm (per-request) and cold (error/init)
//! functions whose bodies are sequences of basic-block segments with
//! loops, biased branches, calls and returns. A deterministic walker
//! executes request after request, yielding the instruction stream.
//!
//! What the substitution preserves (see DESIGN.md):
//!
//! * **Burstiness** — linear walks and loops give ~85% distance-0
//!   block reuse plus a short-term temporal bucket (Figure 1a's left
//!   side).
//! * **The post-burst gap** — a warm function's blocks return only
//!   when a later request re-selects it, placing reuse distances in
//!   the hundreds-to-thousands of blocks; per-profile working-set
//!   sizes put that mass just beyond the 512-block i-cache for the
//!   apps the paper calls out (web search, Neo4J, data caching, media
//!   streaming) and far beyond it for TPC-C/Wikipedia.
//! * **Learnable structure** — functions have stable per-block
//!   behavior across requests, which is exactly the signal ACIC's
//!   two-level predictor keys on.
//!
//! # Examples
//!
//! ```
//! use acic_trace::TraceSource;
//! use acic_workloads::{AppProfile, SyntheticWorkload};
//!
//! let wl = SyntheticWorkload::with_instructions(AppProfile::media_streaming(), 10_000);
//! assert_eq!(wl.iter().count(), 10_000);
//! // Deterministic: a second pass yields the identical stream.
//! let a: Vec<_> = wl.iter().take(100).collect();
//! let b: Vec<_> = wl.iter().take(100).collect();
//! assert_eq!(a, b);
//! ```

pub mod multi_tenant;
pub mod profile;
pub mod program;
pub mod spec;
pub mod walker;

pub use multi_tenant::MultiTenantWorkload;
pub use profile::AppProfile;
pub use program::{Program, Terminator};
pub use spec::{ladder_budgets, split_budget, GeneratedWorkload, WorkloadSpec};
pub use walker::Walker;

use acic_trace::{PackedTrace, PackedTraceBuilder, TraceSource};

/// Short names used as figure columns.
pub fn short_name(app: &str) -> String {
    app.replace("-analytics", "").replace("-http", "")
}

/// A generated program plus a fixed instruction budget, usable as a
/// [`TraceSource`].
#[derive(Debug)]
pub struct SyntheticWorkload {
    profile: AppProfile,
    program: Program,
    instructions: u64,
}

impl SyntheticWorkload {
    /// Generates the program for `profile` with its default
    /// instruction budget (4 M; override with
    /// [`SyntheticWorkload::with_instructions`]).
    pub fn new(profile: AppProfile) -> Self {
        Self::with_instructions(profile, 4_000_000)
    }

    /// Generates the program with an explicit instruction budget.
    pub fn with_instructions(profile: AppProfile, instructions: u64) -> Self {
        let program = Program::generate(&profile);
        SyntheticWorkload {
            profile,
            program,
            instructions,
        }
    }

    /// The application profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// The generated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The instruction budget per pass.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// A fresh walk over the program: the un-truncated stream.
    pub(crate) fn walker(&self) -> Walker<'_> {
        Walker::new(&self.program, &self.profile)
    }

    /// Freezes one pass into a [`PackedTrace`] by pushing the walker
    /// straight into the encoder — the same instructions and name as
    /// `PackedTrace::from_source(self)`, without pulling them one at a
    /// time through an iterator.
    pub(crate) fn freeze(&self) -> PackedTrace {
        let mut builder = PackedTraceBuilder::new(self.name());
        self.walker().fill(self.instructions, |i| builder.push(i));
        builder.finish()
    }
}

impl TraceSource for SyntheticWorkload {
    type Iter<'a> = core::iter::Take<Walker<'a>>;

    fn iter(&self) -> Self::Iter<'_> {
        self.walker().take(self.instructions as usize)
    }

    fn name(&self) -> &str {
        &self.profile.name
    }

    fn len_hint(&self) -> Option<u64> {
        // The walker is infinite and truncated by `take`, so the
        // budget is exact — no counting pass needed.
        Some(self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::TraceSource;

    #[test]
    fn all_datacenter_profiles_generate_and_run() {
        for profile in AppProfile::datacenter_suite() {
            let wl = SyntheticWorkload::with_instructions(profile, 2_000);
            assert_eq!(wl.iter().count(), 2_000, "{}", wl.name());
        }
    }

    #[test]
    fn all_spec_profiles_generate_and_run() {
        for profile in AppProfile::spec_suite() {
            let wl = SyntheticWorkload::with_instructions(profile, 2_000);
            assert_eq!(wl.iter().count(), 2_000, "{}", wl.name());
        }
    }

    #[test]
    fn pcs_stay_inside_the_code_footprint() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 20_000);
        let (lo, hi) = wl.program().code_range();
        for i in wl.iter() {
            let pc = i.pc();
            assert!(pc >= lo && pc < hi, "pc {pc} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = SyntheticWorkload::with_instructions(AppProfile::tpc_c(), 5_000);
        let b = SyntheticWorkload::with_instructions(AppProfile::tpc_c(), 5_000);
        assert!(a.iter().eq(b.iter()));
    }
}
