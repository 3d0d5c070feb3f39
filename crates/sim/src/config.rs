//! Simulation parameters (Table II) and organization selection.

use crate::icache::IcacheOrg;

/// Which instruction prefetcher runs in front of the L1i.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No instruction prefetching.
    None,
    /// Fetch-directed prefetching from the FTQ (the paper's baseline
    /// prefetcher, \[31\]).
    #[default]
    Fdp,
    /// The entangling prefetcher (§IV-H4, \[76\]).
    Entangling,
}

/// What the branch-prediction structures (BTB, TAGE, ITP) do when the
/// fetch stream crosses a context switch.
///
/// Single-tenant traces never switch, so either mode leaves them
/// bit-identical to the pre-ASID behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BranchSwitchMode {
    /// Flush all prediction state on every switch (hardware with
    /// untagged predictors — each tenant retrains from cold).
    #[default]
    Flush,
    /// Keep state and tag lookup keys with the ASID (predictor
    /// entries from different tenants coexist; no retrain cost, some
    /// capacity pressure).
    Tag,
}

/// How the engine distributes simulation fidelity over the trace
/// (SMARTS-style systematic sampling).
///
/// [`SampleSchedule::Full`] runs the whole trace at detailed fidelity
/// and reproduces the pre-sampling simulator bit for bit. A
/// [`SampleSchedule::Periodic`] schedule divides the trace into
/// periods of `period` instructions, each simulated as three phases:
///
/// ```text
/// |-- fast-forward --------------|-- warmup ----|-- detailed --|
///    period - warmup - detailed     warmup_len     detailed_len
/// ```
///
/// Fast-forward advances the trace without touching any simulator
/// state; warmup lets caches, predictors, and ACIC's admission
/// machinery learn with statistics gated off; detailed runs the full
/// cycle loop with statistics on. Reports from a periodic schedule
/// extrapolate the detailed windows to the whole trace
/// ([`crate::report::SampledStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SampleSchedule {
    /// Detailed simulation of every instruction (today's behavior).
    #[default]
    Full,
    /// Systematic sampling: one warmup+detailed window per `period`
    /// instructions.
    Periodic {
        /// Instructions per sampling period.
        period: u64,
        /// Functional-warming instructions before each detailed
        /// window.
        warmup_len: u64,
        /// Detailed-simulation instructions per window.
        detailed_len: u64,
    },
}

impl SampleSchedule {
    /// The documented default sampled schedule: 700 k-instruction
    /// periods with a 185 k warmup reheat and a 22 k detailed window.
    /// The ~493 k gap per period is *adaptive* fast-forward: the
    /// engine warms it functionally until the memory hierarchy
    /// converges (L3 warm-fill rate below
    /// [`crate::engine::L3_CONVERGED_FILLS_PER_MI`]) and only then
    /// starts skipping, so the deep L2/L3 state never goes stale
    /// while it still matters. On a 20 M-instruction detailed ACIC
    /// cell this holds MPKI and IPC within 2% of full detail at a
    /// ≥10× wall-clock win (asserted by `tests/sampled_sim.rs`).
    /// Wider periods are faster
    /// but under-sample phase-varying traces; the `sampling_error`
    /// figure sweeps the trade-off.
    pub fn default_sampled() -> SampleSchedule {
        SampleSchedule::Periodic {
            period: 700_000,
            warmup_len: 185_000,
            detailed_len: 22_000,
        }
    }

    /// Whether this schedule samples (i.e. is not `Full`).
    pub fn is_sampled(&self) -> bool {
        !matches!(self, SampleSchedule::Full)
    }

    /// Validates the schedule's arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `detailed_len` is zero or `warmup_len +
    /// detailed_len` exceeds `period` (the period must fit both).
    pub fn validate(&self) {
        if let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = self
        {
            assert!(*detailed_len > 0, "detailed_len must be positive");
            assert!(
                warmup_len.saturating_add(*detailed_len) <= *period,
                "warmup_len + detailed_len ({} + {}) exceeds period ({})",
                warmup_len,
                detailed_len,
                period
            );
        }
    }
}

/// Core and hierarchy parameters, defaulting to Table II.
///
/// # Examples
///
/// ```
/// use acic_sim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.fetch_width, 6);
/// assert_eq!(cfg.rob_entries, 352);
/// assert_eq!(cfg.ftq_entries, 24);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched per cycle (Table II: 6-wide).
    pub fetch_width: u32,
    /// Fetch Target Queue entries (Table II: 24).
    pub ftq_entries: usize,
    /// Decode queue entries (Table II: 60).
    pub decode_queue_entries: usize,
    /// Instructions decoded/dispatched per cycle (Table II: 6-wide).
    pub decode_width: u32,
    /// Reorder buffer entries (Table II: 352).
    pub rob_entries: usize,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Front-end refill penalty after a resolved misprediction.
    pub redirect_penalty: u64,
    /// Bubble charged when a taken branch misses in the BTB.
    pub btb_miss_penalty: u64,
    /// L1i hit latency in cycles (pipelined; Table II: 4).
    pub l1i_hit_latency: u64,
    /// L1d hit latency in cycles (Table II: 5).
    pub l1d_hit_latency: u64,
    /// L2 hit latency (Table II: 15).
    pub l2_latency: u64,
    /// L3 hit latency (Table II: 35).
    pub l3_latency: u64,
    /// DRAM access latency (Table II: one DDR4-3200 channel).
    pub dram_latency: u64,
    /// Minimum spacing between DRAM accesses (bandwidth model).
    pub dram_gap: u64,
    /// L1i MSHRs (Table II: 16).
    pub l1i_mshrs: usize,
    /// L1d MSHRs (Table II: 16).
    pub l1d_mshrs: usize,
    /// Prefetches issued per cycle by FDP.
    pub prefetch_width: u32,
    /// Instruction prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Branch-state behavior at context switches.
    pub branch_switch: BranchSwitchMode,
    /// L1i organization under test.
    pub icache_org: IcacheOrg,
    /// Fraction of the trace used for warm-up (stats excluded;
    /// §IV-A: first 10%).
    pub warmup_fraction: f64,
    /// Attach the reuse oracle even when the organization does not
    /// require it (enables ACIC's Figure-12a accuracy accounting).
    pub attach_oracle: bool,
    /// Enable unbounded-CSHR instrumentation (Figure 6; ACIC only).
    pub unbounded_cshr: bool,
    /// Fidelity schedule driving the engine's phase machine.
    /// [`SampleSchedule::Full`] (the default) reproduces the
    /// unsampled simulator bit for bit.
    pub schedule: SampleSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 6,
            ftq_entries: 24,
            decode_queue_entries: 60,
            decode_width: 6,
            rob_entries: 352,
            retire_width: 6,
            redirect_penalty: 4,
            btb_miss_penalty: 2,
            l1i_hit_latency: 4,
            l1d_hit_latency: 5,
            l2_latency: 15,
            l3_latency: 35,
            dram_latency: 220,
            dram_gap: 8,
            l1i_mshrs: 16,
            l1d_mshrs: 16,
            prefetch_width: 2,
            prefetcher: PrefetcherKind::Fdp,
            branch_switch: BranchSwitchMode::Flush,
            icache_org: IcacheOrg::Lru,
            warmup_fraction: 0.10,
            attach_oracle: false,
            unbounded_cshr: false,
            schedule: SampleSchedule::Full,
        }
    }
}

impl SimConfig {
    /// Convenience: the same configuration with a different L1i
    /// organization.
    pub fn with_org(&self, org: IcacheOrg) -> SimConfig {
        SimConfig {
            icache_org: org,
            ..self.clone()
        }
    }

    /// Convenience: the same configuration with a different
    /// prefetcher.
    pub fn with_prefetcher(&self, prefetcher: PrefetcherKind) -> SimConfig {
        SimConfig {
            prefetcher,
            ..self.clone()
        }
    }

    /// Convenience: the same configuration with a different
    /// context-switch behavior for branch-prediction state.
    pub fn with_branch_switch(&self, branch_switch: BranchSwitchMode) -> SimConfig {
        SimConfig {
            branch_switch,
            ..self.clone()
        }
    }

    /// Convenience: the same configuration with a different fidelity
    /// schedule.
    pub fn with_schedule(&self, schedule: SampleSchedule) -> SimConfig {
        SimConfig {
            schedule,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_two() {
        let c = SimConfig::default();
        assert_eq!(c.decode_queue_entries, 60);
        assert_eq!(c.l1i_hit_latency, 4);
        assert_eq!(c.l1d_hit_latency, 5);
        assert_eq!(c.l2_latency, 15);
        assert_eq!(c.l3_latency, 35);
        assert_eq!(c.l1i_mshrs, 16);
        assert_eq!(c.warmup_fraction, 0.10);
    }

    #[test]
    fn with_org_preserves_other_fields() {
        let c = SimConfig::default().with_org(IcacheOrg::Opt);
        assert_eq!(c.icache_org, IcacheOrg::Opt);
        assert_eq!(c.rob_entries, 352);
    }

    #[test]
    fn default_schedule_is_full() {
        assert_eq!(SimConfig::default().schedule, SampleSchedule::Full);
        assert!(!SampleSchedule::Full.is_sampled());
        assert!(SampleSchedule::default_sampled().is_sampled());
        SampleSchedule::default_sampled().validate();
        SampleSchedule::Full.validate();
    }

    #[test]
    fn with_schedule_preserves_other_fields() {
        let c = SimConfig::default().with_schedule(SampleSchedule::default_sampled());
        assert!(c.schedule.is_sampled());
        assert_eq!(c.rob_entries, 352);
    }

    #[test]
    #[should_panic(expected = "exceeds period")]
    fn overfull_period_rejected() {
        SampleSchedule::Periodic {
            period: 100,
            warmup_len: 80,
            detailed_len: 30,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "detailed_len must be positive")]
    fn zero_detailed_rejected() {
        SampleSchedule::Periodic {
            period: 100,
            warmup_len: 10,
            detailed_len: 0,
        }
        .validate();
    }
}
