//! Multi-tenant workload composition: heterogeneous application
//! profiles interleaved under one master seed.
//!
//! A datacenter core time-slices many services; modeling that takes
//! more than one synthetic program. [`MultiTenantWorkload`] builds N
//! [`SyntheticWorkload`] tenants — each from its own [`AppProfile`],
//! each reseeded from a single master seed so two tenants running the
//! *same* profile still get distinct programs — and interleaves them
//! with [`InterleavedTrace`] under a fixed context-switch quantum.
//! All tenants emit PCs in the same virtual-address range (every
//! process links its hot code low), which is exactly the aliasing an
//! ASID-tagged i-cache exists to disambiguate.

use crate::profile::AppProfile;
use crate::SyntheticWorkload;
use acic_trace::interleave::{tenant_asid, timeslices};
use acic_trace::{InterleavedTrace, PackedTrace, PackedTraceBuilder, TraceSource};
use acic_types::hash::mix2;

/// Builder for an interleaved multi-tenant workload.
///
/// # Examples
///
/// ```
/// use acic_trace::TraceSource;
/// use acic_workloads::{AppProfile, MultiTenantWorkload};
///
/// let mt = MultiTenantWorkload::new(5_000)
///     .tenant(AppProfile::web_search(), 20_000)
///     .tenant(AppProfile::tpc_c(), 20_000)
///     .build();
/// assert_eq!(mt.len_hint(), Some(40_000));
/// assert_eq!(mt.tenant_count(), 2);
/// ```
#[derive(Debug)]
pub struct MultiTenantWorkload {
    quantum: u64,
    seed: u64,
    tenants: Vec<(AppProfile, u64)>,
}

impl MultiTenantWorkload {
    /// Starts a builder with `quantum` instructions per timeslice and
    /// the default master seed.
    pub fn new(quantum: u64) -> Self {
        MultiTenantWorkload {
            quantum,
            seed: 0x5eed_ac1c,
            tenants: Vec::new(),
        }
    }

    /// Overrides the master seed (every tenant's program derives from
    /// it deterministically).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a tenant running `profile` for `instructions`
    /// instructions in total (spread across its timeslices).
    pub fn tenant(mut self, profile: AppProfile, instructions: u64) -> Self {
        self.tenants.push((profile, instructions));
        self
    }

    /// Adds the first `count` datacenter-suite profiles as tenants,
    /// `instructions` each — the standard heterogeneous mix of the
    /// multi-tenant scenario figure.
    pub fn suite_tenants(mut self, count: usize, instructions: u64) -> Self {
        for profile in AppProfile::datacenter_suite().into_iter().take(count) {
            self.tenants.push((profile, instructions));
        }
        self
    }

    /// Generates every tenant program and composes the interleaved
    /// trace. Tenant `i`'s profile seed is perturbed by
    /// `mix2(master, i)`, so duplicate profiles become distinct
    /// programs while the whole workload stays a pure function of the
    /// builder inputs.
    ///
    /// # Panics
    ///
    /// Panics if no tenants were added or the quantum is zero
    /// (delegated to [`InterleavedTrace`]).
    pub fn build(self) -> InterleavedTrace<SyntheticWorkload> {
        let children: Vec<SyntheticWorkload> = self
            .tenants
            .into_iter()
            .enumerate()
            .map(|(i, (mut profile, instructions))| {
                profile.seed = mix2(profile.seed, mix2(self.seed, i as u64));
                profile.name = format!("{}#{}", profile.name, i);
                SyntheticWorkload::with_instructions(profile, instructions)
            })
            .collect();
        InterleavedTrace::new(children, self.quantum)
    }
}

/// Freezes an interleave of synthetic tenants one timeslice at a time:
/// each `(tenant, count)` slice of [`timeslices`] pushes that tenant's
/// walker straight into the encoder, stamped with its ASID. The result
/// equals `PackedTrace::from_source(mt)` byte for byte — the schedule
/// and the stamp are the interleaver's own.
pub(crate) fn freeze(mt: &InterleavedTrace<SyntheticWorkload>) -> PackedTrace {
    let mut walkers: Vec<_> = mt.tenants().iter().map(SyntheticWorkload::walker).collect();
    let lens = mt.tenants().iter().map(|t| t.instructions()).collect();
    let mut builder = PackedTraceBuilder::new(mt.name());
    for (tenant, count) in timeslices(lens, mt.quantum()) {
        let asid = tenant_asid(tenant);
        walkers[tenant].fill(count, |i| builder.push(i.with_asid(asid)));
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::TraceSource;

    #[test]
    fn duplicate_profiles_get_distinct_programs() {
        let mt = MultiTenantWorkload::new(1_000)
            .tenant(AppProfile::web_search(), 5_000)
            .tenant(AppProfile::web_search(), 5_000)
            .build();
        let a: Vec<_> = mt.tenants()[0].iter().take(200).collect();
        let b: Vec<_> = mt.tenants()[1].iter().take(200).collect();
        assert_ne!(a, b, "same profile must reseed per tenant");
    }

    #[test]
    fn deterministic_under_one_seed() {
        let build = || {
            MultiTenantWorkload::new(500)
                .seed(42)
                .tenant(AppProfile::web_search(), 3_000)
                .tenant(AppProfile::media_streaming(), 3_000)
                .build()
        };
        let a: Vec<_> = build().iter().collect();
        let b: Vec<_> = build().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_master_seeds_differ() {
        let stream = |seed| {
            MultiTenantWorkload::new(500)
                .seed(seed)
                .tenant(AppProfile::web_search(), 3_000)
                .build()
                .iter()
                .collect::<Vec<_>>()
        };
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn tenant_address_spaces_overlap() {
        // The whole point: different tenants reuse the same VA range,
        // so an untagged cache would alias them.
        let mt = MultiTenantWorkload::new(2_000)
            .suite_tenants(2, 10_000)
            .build();
        let mut min_max = [(u64::MAX, 0u64); 2];
        for i in mt.iter() {
            let (lo, hi) = &mut min_max[i.asid().raw() as usize];
            *lo = (*lo).min(i.pc().raw());
            *hi = (*hi).max(i.pc().raw());
        }
        let (lo0, hi0) = min_max[0];
        let (lo1, hi1) = min_max[1];
        assert!(lo0 < hi1 && lo1 < hi0, "VA ranges must overlap");
    }

    #[test]
    fn len_hint_is_total_budget() {
        let mt = MultiTenantWorkload::new(100)
            .suite_tenants(3, 2_000)
            .build();
        assert_eq!(mt.len_hint(), Some(6_000));
        assert_eq!(mt.iter().count(), 6_000);
    }
}
