//! Workload *specifications*: the declarative identity of one
//! experiment cell's instruction stream.
//!
//! A [`WorkloadSpec`] names what runs — one application, or a
//! quantum-scheduled multi-tenant interleave — without generating
//! anything. The experiment harness keys its scheduling on specs:
//! every distinct spec is frozen **exactly once** into a
//! [`PackedTrace`] ([`WorkloadSpec::materialize`], which pushes the
//! walker straight into the encoder) and every
//! configuration row then replays the shared frozen trace, instead of
//! paying the Markov-walker generation cost once per (config × spec)
//! grid cell. The frozen trace carries the same name as the generator
//! would, so [`acic_trace::TraceSource::seed`]-derived simulator
//! state is bit-identical between generator-backed and packed-replay
//! runs.

use crate::multi_tenant::MultiTenantWorkload;
use crate::profile::AppProfile;
use crate::SyntheticWorkload;
use acic_trace::{PackedTrace, TraceSource};

/// One cell's workload in an experiment grid: a single application,
/// or a quantum-scheduled multi-tenant interleave.
///
/// The grid instruction budget is the *total* per cell either way —
/// a multi-tenant cell splits it across its tenants (evenly, with the
/// remainder spread over the first tenants) so cells stay
/// cycle-comparable and the composed trace length equals the budget
/// exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// One application, the whole budget.
    Single(AppProfile),
    /// `profiles` interleaved with `quantum` instructions per
    /// timeslice.
    MultiTenant {
        /// Tenant profiles (PCs overlap across tenants by design).
        profiles: Vec<AppProfile>,
        /// Context-switch quantum in instructions.
        quantum: u64,
    },
}

/// Splits a total instruction budget across `tenants`, distributing
/// the division remainder one instruction at a time over the first
/// tenants — the per-tenant budgets always sum to `total` exactly
/// (plain `total / tenants` silently dropped up to `tenants - 1`
/// instructions per cell).
pub fn split_budget(total: u64, tenants: usize) -> Vec<u64> {
    let n = tenants.max(1) as u64;
    let base = total / n;
    let rem = total % n;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

/// Instruction budgets for a multi-fidelity ladder over a full
/// per-cell budget: one budget per rung, ascending, ending at `full`.
///
/// Each rung `r` (of `rungs`) gets `full >> ((rungs - 1 - r) * 4)`
/// floored at `min` — a ×16 step per rung, so a 3-rung ladder over a
/// 20M budget is 78k / 1.25M / 20M. The coarse rungs are *prefixes*
/// of the full-budget trace (see `acic_trace::Truncated`), never
/// fresh generations at the smaller budget: multi-tenant interleaving
/// schedules depend on the total budget, so a re-generation at budget
/// `b < full` would be a different trace and rung statistics would
/// not converge toward the full-budget answer.
pub fn ladder_budgets(full: u64, rungs: usize, min: u64) -> Vec<u64> {
    let rungs = rungs.max(1);
    (0..rungs)
        .map(|r| {
            let shift = ((rungs - 1 - r) * 4).min(63) as u32;
            (full >> shift).clamp(min.min(full), full)
        })
        .collect()
}

impl WorkloadSpec {
    /// Wraps a list of applications as single-tenant specs.
    pub fn singles(apps: &[AppProfile]) -> Vec<WorkloadSpec> {
        apps.iter().cloned().map(WorkloadSpec::Single).collect()
    }

    /// Short label for figure columns.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Single(p) => crate::short_name(&p.name),
            WorkloadSpec::MultiTenant { profiles, quantum } => {
                format!("{}ten/q{}k", profiles.len(), quantum / 1000)
            }
        }
    }

    /// Readable identity of (spec, budget) that prefixes result-journal
    /// keys: alphanumerics, `.`, `_` and `-` only, unique per distinct
    /// spec shape and instruction budget.
    pub fn store_key(&self, instructions: u64) -> String {
        let body = match self {
            WorkloadSpec::Single(p) => p.name.clone(),
            WorkloadSpec::MultiTenant { profiles, quantum } => format!(
                "mt{}q{}-{}",
                profiles.len(),
                quantum,
                profiles
                    .iter()
                    .map(|p| p.name.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
        };
        let sanitized: String = body
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{sanitized}-{instructions}")
    }

    /// Opens this spec as a live generator with a total budget of
    /// `instructions` — the un-frozen path ([`WorkloadSpec::materialize`]
    /// encodes exactly this stream).
    pub fn generator(&self, instructions: u64) -> GeneratedWorkload {
        match self {
            WorkloadSpec::Single(profile) => GeneratedWorkload::Single(Box::new(
                SyntheticWorkload::with_instructions(profile.clone(), instructions),
            )),
            WorkloadSpec::MultiTenant { profiles, quantum } => {
                let budgets = split_budget(instructions, profiles.len());
                let mut builder = MultiTenantWorkload::new(*quantum);
                for (p, b) in profiles.iter().zip(budgets) {
                    builder = builder.tenant(p.clone(), b);
                }
                GeneratedWorkload::MultiTenant(builder.build())
            }
        }
    }

    /// Freezes this spec into an immutable [`PackedTrace`]: one
    /// generation pass, then any number of zero-copy replays.
    ///
    /// The generation pass pushes the walker straight into the
    /// encoder, with no iterator in between: a single app's walker
    /// fills the whole budget, and a multi-tenant spec's walkers fill
    /// one interleave timeslice at a time. The frozen trace is
    /// bit-identical to the generator stream (same instructions, same
    /// ASID boundaries, same name and therefore the same derived
    /// seeds), and its length equals the requested budget exactly —
    /// asserted here, which is what pins the multi-tenant remainder
    /// distribution of [`split_budget`].
    pub fn materialize(&self, instructions: u64) -> PackedTrace {
        let packed = match self.generator(instructions) {
            GeneratedWorkload::Single(wl) => wl.freeze(),
            GeneratedWorkload::MultiTenant(wl) => crate::multi_tenant::freeze(&wl),
        };
        assert_eq!(
            packed.len(),
            instructions,
            "composed trace length must equal the requested budget for {:?}",
            self.label()
        );
        packed
    }
}

impl From<AppProfile> for WorkloadSpec {
    fn from(p: AppProfile) -> Self {
        WorkloadSpec::Single(p)
    }
}

/// A spec opened as a live generator (the un-frozen trace source).
#[derive(Debug)]
pub enum GeneratedWorkload {
    /// Single-tenant synthetic program (boxed: the generated
    /// program is hundreds of bytes of profile + call-graph tables,
    /// far larger than the interleaver variant).
    Single(Box<SyntheticWorkload>),
    /// Quantum-interleaved multi-tenant composition.
    MultiTenant(acic_trace::InterleavedTrace<SyntheticWorkload>),
}

impl TraceSource for GeneratedWorkload {
    type Iter<'a> = GeneratedIter<'a>;

    fn iter(&self) -> Self::Iter<'_> {
        match self {
            GeneratedWorkload::Single(w) => GeneratedIter::Single(w.iter()),
            GeneratedWorkload::MultiTenant(w) => GeneratedIter::MultiTenant(w.iter()),
        }
    }

    fn name(&self) -> &str {
        match self {
            GeneratedWorkload::Single(w) => w.name(),
            GeneratedWorkload::MultiTenant(w) => w.name(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            GeneratedWorkload::Single(w) => w.len_hint(),
            GeneratedWorkload::MultiTenant(w) => w.len_hint(),
        }
    }
}

/// One pass over a [`GeneratedWorkload`].
#[derive(Debug)]
pub enum GeneratedIter<'a> {
    /// Single-tenant walker pass.
    Single(<SyntheticWorkload as TraceSource>::Iter<'a>),
    /// Interleaved multi-tenant pass.
    MultiTenant(<acic_trace::InterleavedTrace<SyntheticWorkload> as TraceSource>::Iter<'a>),
}

impl Iterator for GeneratedIter<'_> {
    type Item = acic_trace::Instr;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            GeneratedIter::Single(it) => it.next(),
            GeneratedIter::MultiTenant(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_budget_distributes_the_remainder() {
        assert_eq!(split_budget(10, 3), vec![4, 3, 3]);
        assert_eq!(split_budget(9, 3), vec![3, 3, 3]);
        assert_eq!(split_budget(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split_budget(0, 2), vec![0, 0]);
        assert_eq!(split_budget(7, 1), vec![7]);
        for (total, tenants) in [(1_000_003u64, 4usize), (17, 5), (100, 7)] {
            let parts = split_budget(total, tenants);
            assert_eq!(parts.iter().sum::<u64>(), total);
            assert!(parts.iter().max().unwrap() - parts.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn materialize_single_matches_generator_bit_for_bit() {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let packed = spec.materialize(5_000);
        let gen = spec.generator(5_000);
        assert_eq!(packed.len(), 5_000);
        assert_eq!(packed.name(), gen.name());
        assert_eq!(packed.seed(), gen.seed());
        assert!(packed.iter().eq(gen.iter()));
    }

    #[test]
    fn materialize_multi_tenant_hits_the_budget_exactly() {
        // 10_001 over 3 tenants: the old `/` split would compose
        // 9_999 instructions; the remainder distribution restores the
        // missing two.
        let spec = WorkloadSpec::MultiTenant {
            profiles: vec![
                AppProfile::web_search(),
                AppProfile::tpc_c(),
                AppProfile::media_streaming(),
            ],
            quantum: 500,
        };
        let packed = spec.materialize(10_001);
        assert_eq!(packed.len(), 10_001);
        assert_eq!(packed.iter().count(), 10_001);
        let gen = spec.generator(10_001);
        assert!(packed.iter().eq(gen.iter()), "frozen == generated");
    }

    #[test]
    fn pushed_freeze_is_the_pulled_freeze_byte_for_byte() {
        // Quanta that end mid-segment make a tenant resume inside a
        // segment it started in an earlier timeslice.
        for spec in [
            WorkloadSpec::Single(AppProfile::tpc_c()),
            WorkloadSpec::MultiTenant {
                profiles: vec![AppProfile::web_search(), AppProfile::web_search()],
                quantum: 777,
            },
            WorkloadSpec::MultiTenant {
                profiles: AppProfile::datacenter_suite()[..3].to_vec(),
                quantum: 5_000,
            },
        ] {
            assert_eq!(
                spec.materialize(20_011),
                PackedTrace::from_source(&spec.generator(20_011)),
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn store_keys_are_filesystem_safe_and_distinct() {
        let a = WorkloadSpec::Single(AppProfile::web_search()).store_key(1_000);
        let b = WorkloadSpec::Single(AppProfile::web_search()).store_key(2_000);
        let mt = WorkloadSpec::MultiTenant {
            profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
            quantum: 10_000,
        }
        .store_key(1_000);
        assert_ne!(a, b);
        assert_ne!(a, mt);
        for key in [&a, &b, &mt] {
            assert!(
                key.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'),
                "unsafe char in {key}"
            );
        }
    }

    #[test]
    fn ladder_budgets_ascend_to_full() {
        assert_eq!(
            ladder_budgets(20_000_000, 3, 30_000),
            vec![78_125, 1_250_000, 20_000_000]
        );
        assert_eq!(
            ladder_budgets(1_000_000, 2, 50_000),
            vec![62_500, 1_000_000]
        );
        // The floor kicks in for tiny full budgets...
        assert_eq!(
            ladder_budgets(100_000, 3, 30_000),
            vec![30_000, 30_000, 100_000]
        );
        // ...but never raises a rung above `full`.
        assert_eq!(ladder_budgets(10_000, 2, 50_000), vec![10_000, 10_000]);
        assert_eq!(ladder_budgets(5_000, 1, 1), vec![5_000]);
        for (full, budgets) in [
            (20_000_000, ladder_budgets(20_000_000, 4, 1_000)),
            (123_457, ladder_budgets(123_457, 3, 10)),
            (42, ladder_budgets(42, 5, 1)),
        ] {
            assert!(budgets.windows(2).all(|w| w[0] <= w[1]), "{budgets:?}");
            assert_eq!(*budgets.last().unwrap(), full);
        }
    }

    #[test]
    fn single_tenant_generation_is_prefix_stable() {
        // A single-tenant generator at a smaller budget is exactly a
        // prefix of the same app at a larger budget — this is what
        // lets the DSE ladder's coarse rungs reuse the one frozen
        // full-budget trace via a `Truncated` view. (Multi-tenant
        // specs are NOT prefix-stable: `split_budget` depends on the
        // total, which is why rungs truncate instead of regenerate.)
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let small: Vec<_> = spec.generator(2_000).iter().collect();
        let big = spec.generator(8_000);
        let prefix: Vec<_> = big.iter().take(2_000).collect();
        assert_eq!(small, prefix);
        // And the frozen trace's truncated view matches both.
        let packed = spec.materialize(8_000);
        let truncated = acic_trace::Truncated::new(&packed, 2_000);
        assert!(truncated.iter().eq(small.iter().copied()));
        assert_eq!(truncated.seed(), packed.seed());
    }

    #[test]
    fn labels_match_the_figure_column_convention() {
        let s = WorkloadSpec::Single(AppProfile::web_search());
        assert_eq!(s.label(), "web-search");
        let mt = WorkloadSpec::MultiTenant {
            profiles: vec![AppProfile::web_search(), AppProfile::tpc_c()],
            quantum: 10_000,
        };
        assert_eq!(mt.label(), "2ten/q10k");
    }
}
