//! Functional (contents-only) simulation fast path.
//!
//! Most of the paper's figures need miss counts, admission statistics
//! and predictor behavior — not cycle-accurate timing. This module
//! runs an L1i organization over a trace with none of the pipeline
//! machinery: no front end, no backend, no memory-hierarchy timing.
//!
//! The hot loop is **run-batched**: [`BlockRuns`] groups consecutive
//! same-block instructions into a single i-cache access, so a run of
//! 16 straight-line instructions costs one filter+cache+CSHR probe
//! instead of sixteen. This matches the hardware (one fetch-group
//! access per block transition) and the access-index convention used
//! by the oracle and the timing simulator — for the same trace, the
//! functional and timing paths see the identical access sequence.
//!
//! The per-access step itself (oracle-cursor advance, context build,
//! access + fill-on-miss) is `engine::contents_step`, shared with the
//! [`Engine`](crate::Engine)'s warmup phase — the functional loop and
//! the sampled engine's functional warming are the same code.
//!
//! The naive one-probe-per-instruction loop that batching replaces
//! survives only as a test oracle in this module's `tests`, where
//! `batched_and_unbatched_agree_on_lru_misses` pins the two loops to
//! the same LRU miss count.
//!
//! # Examples
//!
//! ```
//! use acic_sim::functional::run_functional;
//! use acic_sim::IcacheOrg;
//! use acic_workloads::{AppProfile, SyntheticWorkload};
//!
//! let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 50_000);
//! let r = run_functional(&IcacheOrg::acic_default(), &wl);
//! assert_eq!(r.instructions, 50_000);
//! assert!(r.l1i_mpki() > 0.0);
//! ```

use crate::icache::IcacheOrg;
use acic_cache::CacheStats;
use acic_core::{AcicIcache, AcicStats};
use acic_trace::{BlockRuns, TraceSource};
use acic_types::Asid;

/// Result of a functional (contents-only) simulation.
#[derive(Clone, Debug)]
pub struct FunctionalReport {
    /// Workload name.
    pub app: String,
    /// Organization label.
    pub org: String,
    /// Instructions consumed.
    pub instructions: u64,
    /// Block-level accesses performed: one per block run (the
    /// per-instruction oracle in this module's `tests` counts one per
    /// instruction).
    pub accesses: u64,
    /// Context switches crossed (0 for single-tenant traces).
    pub context_switches: u64,
    /// L1i contents statistics.
    pub l1i: CacheStats,
    /// ACIC admission statistics, when the organization is ACIC.
    pub acic: Option<AcicStats>,
}

impl FunctionalReport {
    /// L1i demand misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1i.demand_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

fn finish(
    app: &str,
    org_label: &str,
    contents: Box<dyn acic_cache::IcacheContents>,
    instructions: u64,
    accesses: u64,
    context_switches: u64,
) -> FunctionalReport {
    let acic = contents
        .as_any()
        .downcast_ref::<AcicIcache>()
        .map(|a| *a.acic_stats());
    FunctionalReport {
        app: app.to_string(),
        org: org_label.to_string(),
        instructions,
        accesses,
        context_switches,
        l1i: contents.stats(),
        acic,
    }
}

/// Runs `org` over `workload` with run-batched accesses: one
/// filter+cache+CSHR probe per block run. Misses fill immediately
/// (infinite MSHRs, zero latency — contents semantics only).
pub fn run_functional<W: TraceSource>(org: &IcacheOrg, workload: &W) -> FunctionalReport {
    let oracle = org
        .needs_oracle()
        .then(|| crate::engine::reuse_oracle(workload).0);
    let mut cursor = oracle.as_ref().map(|o| o.cursor());
    let mut contents = org.build(workload.seed());
    let wants_tick = contents.wants_tick();
    let mut instructions = 0u64;
    let mut accesses = 0u64;
    let mut cur_asid = Asid::HOST;
    let mut context_switches = 0u64;
    for run in BlockRuns::new(workload.iter()) {
        accesses += 1;
        instructions += run.len as u64;
        if run.asid != cur_asid {
            cur_asid = run.asid;
            context_switches += 1;
            contents.on_context_switch(run.asid);
        }
        crate::engine::contents_step(
            contents.as_mut(),
            &mut cursor,
            run.tagged(),
            accesses,
            false,
        );
        // Use the access index as the clock for organizations with
        // delayed predictor-update pipelines.
        if wants_tick {
            contents.tick(accesses);
        }
    }
    finish(
        workload.name(),
        org.label(),
        contents,
        instructions,
        accesses,
        context_switches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_cache::AccessCtx;
    use acic_trace::NO_NEXT_USE;
    use acic_workloads::{AppProfile, SyntheticWorkload};

    fn wl(n: u64) -> SyntheticWorkload {
        SyntheticWorkload::with_instructions(AppProfile::sibench(), n)
    }

    /// Reference baseline: probes the organization once per *instruction*
    /// instead of once per block run.
    ///
    /// This is the naive loop the run-batched path replaces, kept as a
    /// test oracle rather than a description. Not suitable for figure
    /// generation: per-instruction re-references inflate access counts and
    /// perturb reuse-trained policies.
    fn run_unbatched<W: TraceSource>(org: &IcacheOrg, workload: &W) -> FunctionalReport {
        let oracle = org
            .needs_oracle()
            .then(|| crate::engine::reuse_oracle(workload).0);
        let mut cursor = oracle.as_ref().map(|o| o.cursor());
        let mut contents = org.build(workload.seed());
        let wants_tick = contents.wants_tick();
        let mut instructions = 0u64;
        let mut last_block = None;
        let mut cur_asid = Asid::HOST;
        let mut context_switches = 0u64;
        // The oracle is indexed one position per BlockRun, and runs end
        // at a block change, a taken branch (even to the same block), OR
        // a context switch — mirror all three boundaries or the cursor
        // desyncs.
        let mut prev_ended_run = true;
        for instr in workload.iter() {
            instructions += 1;
            let tagged = instr.tagged_block();
            if instr.asid() != cur_asid {
                cur_asid = instr.asid();
                context_switches += 1;
                contents.on_context_switch(instr.asid());
            }
            let starts_run = prev_ended_run || last_block != Some(tagged);
            let next_use = match cursor.as_mut() {
                Some(c) => {
                    if starts_run {
                        c.advance(tagged.oracle_key());
                    }
                    c.next_use_of(tagged.oracle_key())
                }
                None => NO_NEXT_USE,
            };
            last_block = Some(tagged);
            prev_ended_run = instr.is_taken_branch();
            let mut ctx = AccessCtx::demand_tagged(tagged, instructions).with_next_use(next_use);
            if let Some(c) = cursor.as_ref() {
                ctx = ctx.with_oracle(c);
            }
            if !contents.access(&ctx).hit {
                contents.fill(&ctx);
            }
            if wants_tick {
                contents.tick(instructions);
            }
        }
        finish(
            workload.name(),
            org.label(),
            contents,
            instructions,
            instructions,
            context_switches,
        )
    }

    #[test]
    fn batched_counts_runs_not_instructions() {
        let w = wl(20_000);
        let r = run_functional(&IcacheOrg::Lru, &w);
        assert_eq!(r.instructions, 20_000);
        assert!(r.accesses < r.instructions, "runs must batch instructions");
        assert_eq!(r.l1i.demand_accesses, r.accesses);
    }

    #[test]
    fn batched_and_unbatched_agree_on_lru_misses() {
        // For pure-recency LRU, extra same-block touches change
        // neither residency nor relative recency order, so the miss
        // count is probe-granularity invariant.
        let w = wl(20_000);
        let a = run_functional(&IcacheOrg::Lru, &w);
        let b = run_unbatched(&IcacheOrg::Lru, &w);
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
        assert!(b.accesses > a.accesses);
    }

    #[test]
    fn functional_is_deterministic() {
        let w = wl(10_000);
        let a = run_functional(&IcacheOrg::acic_default(), &w);
        let b = run_functional(&IcacheOrg::acic_default(), &w);
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
        assert_eq!(
            a.acic.expect("acic stats").decisions,
            b.acic.expect("acic stats").decisions
        );
    }

    #[test]
    fn oracle_orgs_run_functionally() {
        let w = wl(15_000);
        let opt = run_functional(&IcacheOrg::Opt, &w);
        let lru = run_functional(&IcacheOrg::Lru, &w);
        assert!(
            opt.l1i.demand_misses <= lru.l1i.demand_misses,
            "OPT {} vs LRU {}",
            opt.l1i.demand_misses,
            lru.l1i.demand_misses
        );
    }

    #[test]
    fn acic_functional_reports_admissions() {
        let w = SyntheticWorkload::with_instructions(AppProfile::web_search(), 60_000);
        let r = run_functional(&IcacheOrg::acic_default(), &w);
        let acic = r.acic.expect("ACIC stats");
        assert!(acic.decisions > 0);
    }
}
