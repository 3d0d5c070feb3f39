//! Multi-tenant trace composition: quantum-scheduled interleaving of
//! N child traces with explicit context-switch boundaries.
//!
//! A datacenter core does not run one process to completion; the OS
//! round-robins many address spaces, and every switch exposes the
//! i-cache to a different instruction footprint at *overlapping*
//! virtual addresses. [`InterleavedTrace`] models exactly that: it
//! round-robins its children in fixed instruction quanta, stamping
//! each child's instructions with a per-tenant [`Asid`] (tenant `i`
//! gets ASID `i`). A context switch is the point where consecutive
//! instructions carry different ASIDs — [`crate::BlockRuns`] never
//! merges across one, so every downstream consumer sees the boundary
//! without any side channel.
//!
//! The rotation rule lives in one private schedule. The interleaver's
//! iterator pulls through it one instruction at a time, and
//! [`timeslices`] turns it into `(tenant, count)` slices for sources
//! of known length, so a consumer that can take a whole slice at once
//! (the multi-tenant freeze path) composes the identical stream.
//!
//! **Single-tenant degeneracy.** With one child, quantum expiry
//! re-selects the same tenant and tenant 0's stamp is [`Asid::HOST`],
//! so the emitted stream is *bit-identical* to the child's own — the
//! no-regression guarantee the equivalence property tests pin down.
//!
//! # Contract
//!
//! As a composed [`TraceSource`], the interleaver honors the trait's
//! reset and `len_hint` contract strictly:
//!
//! * **Reset**: `iter()` re-opens every child from its beginning and
//!   replays the identical schedule — two passes yield byte-identical
//!   streams (required by the two-pass OPT oracle).
//! * **`len_hint`**: exactly the sum of the children's hints when
//!   every child reports one; `None` if any child cannot answer. A
//!   composed hint is never an estimate.

use crate::instr::Instr;
use crate::source::TraceSource;
use acic_types::Asid;

/// A quantum-scheduled, round-robin interleaving of child traces.
///
/// # Examples
///
/// ```
/// use acic_trace::{Instr, InterleavedTrace, TraceSource, VecTrace};
/// use acic_types::{Addr, Asid};
///
/// let a = VecTrace::with_name(vec![Instr::alu(Addr::new(0)); 4], "a");
/// let b = VecTrace::with_name(vec![Instr::alu(Addr::new(64)); 4], "b");
/// let mt = InterleavedTrace::new(vec![a, b], 2);
/// let asids: Vec<u16> = mt.iter().map(|i| i.asid().raw()).collect();
/// assert_eq!(asids, vec![0, 0, 1, 1, 0, 0, 1, 1]);
/// assert_eq!(mt.len_hint(), Some(8)); // exact: both children know
/// ```
#[derive(Debug)]
pub struct InterleavedTrace<S> {
    tenants: Vec<S>,
    quantum: u64,
    name: String,
}

impl<S: TraceSource> InterleavedTrace<S> {
    /// Interleaves `tenants` with `quantum` instructions per
    /// timeslice. Tenant `i` is stamped with ASID `i`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, `quantum` is zero, or there are
    /// more tenants than ASIDs.
    pub fn new(tenants: Vec<S>, quantum: u64) -> Self {
        let name = format!(
            "mt{}q{}[{}]",
            tenants.len(),
            quantum,
            tenants
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        Self::with_name(tenants, quantum, name)
    }

    /// Like [`InterleavedTrace::new`] but with an explicit name.
    ///
    /// The name feeds [`TraceSource::seed`]; the 1-tenant equivalence
    /// tests use this to give the interleaved wrapper the child's
    /// name so both paths derive identical component seeds.
    pub fn with_name(tenants: Vec<S>, quantum: u64, name: impl Into<String>) -> Self {
        assert!(!tenants.is_empty(), "interleaver needs at least one tenant");
        assert!(quantum > 0, "switch quantum must be positive");
        assert!(
            tenants.len() <= u16::MAX as usize + 1,
            "more tenants than ASIDs"
        );
        InterleavedTrace {
            tenants,
            quantum,
            name: name.into(),
        }
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Instructions per timeslice.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// The child sources.
    pub fn tenants(&self) -> &[S] {
        &self.tenants
    }
}

/// The stamp of tenant `tenant`'s instructions: ASID `tenant`
/// (tenant 0 is [`Asid::HOST`]).
#[inline]
pub fn tenant_asid(tenant: usize) -> Asid {
    Asid::new(tenant as u16)
}

/// The round-robin rotation rule of every interleave, defined once.
///
/// Tenant 0 gets the first grant. Each grant lets one tenant run up to
/// a quantum of instructions; the next grant goes to the next live
/// tenant after it (the same tenant again when it is the only
/// survivor). A tenant that runs dry before using up its grant is
/// retired and never granted again. [`InterleavedIter`] pulls through
/// it one instruction at a time; [`timeslices`] follows it a whole
/// grant at a time, so both compose the same stream.
#[derive(Debug)]
struct QuantumSchedule {
    live: Vec<bool>,
    /// The tenant holding the latest grant.
    current: usize,
}

impl QuantumSchedule {
    /// A schedule over `tenants` tenants, all live.
    fn new(tenants: usize) -> Self {
        // Start "just before" tenant 0 so the first rotation lands on
        // it.
        QuantumSchedule {
            live: vec![true; tenants],
            current: tenants.saturating_sub(1),
        }
    }

    /// The tenant that runs the next quantum, or `None` once every
    /// tenant is retired.
    fn next_grant(&mut self) -> Option<usize> {
        let n = self.live.len();
        let idx = (1..=n)
            .map(|step| (self.current + step) % n)
            .find(|&idx| self.live[idx])?;
        self.current = idx;
        Some(idx)
    }

    /// Retires `tenant`: it ran dry inside its grant.
    fn retire(&mut self, tenant: usize) {
        self.live[tenant] = false;
    }
}

/// The `(tenant, count)` timeslices of an interleave whose tenant
/// lengths `lens` are known: the interleaver's rotation, each grant
/// cut to what its tenant has left. Empty slices are skipped, so the
/// counts sum to the total length, and running each slice's tenant for
/// `count` instructions stamped with [`tenant_asid`] composes exactly
/// [`InterleavedIter`]'s stream. Frozen multi-tenant workloads are
/// encoded this way, one slice at a time.
///
/// # Panics
///
/// Panics if `quantum` is zero.
///
/// ```
/// use acic_trace::interleave::timeslices;
///
/// let slices: Vec<_> = timeslices(vec![2, 6], 4).collect();
/// assert_eq!(slices, vec![(0, 2), (1, 4), (1, 2)]);
/// ```
pub fn timeslices(lens: Vec<u64>, quantum: u64) -> impl Iterator<Item = (usize, u64)> {
    assert!(quantum > 0, "switch quantum must be positive");
    let mut schedule = QuantumSchedule::new(lens.len());
    let mut left = lens;
    std::iter::from_fn(move || loop {
        let tenant = schedule.next_grant()?;
        let count = left[tenant].min(quantum);
        left[tenant] -= count;
        if count < quantum {
            schedule.retire(tenant);
        }
        if count > 0 {
            return Some((tenant, count));
        }
    })
}

/// One pass over an [`InterleavedTrace`].
#[derive(Debug)]
pub struct InterleavedIter<'a, S: TraceSource + 'a> {
    children: Vec<S::Iter<'a>>,
    schedule: QuantumSchedule,
    current: usize,
    left_in_quantum: u64,
    quantum: u64,
}

impl<'a, S: TraceSource + 'a> Iterator for InterleavedIter<'a, S> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        loop {
            if self.left_in_quantum == 0 {
                self.current = self.schedule.next_grant()?;
                self.left_in_quantum = self.quantum;
            }
            match self.children[self.current].next() {
                Some(i) => {
                    self.left_in_quantum -= 1;
                    return Some(i.with_asid(tenant_asid(self.current)));
                }
                // Exhausted mid-quantum: retire this tenant and let
                // the schedule rotate onward.
                None => {
                    self.schedule.retire(self.current);
                    self.left_in_quantum = 0;
                }
            }
        }
    }
}

impl<S: TraceSource> TraceSource for InterleavedTrace<S> {
    type Iter<'a>
        = InterleavedIter<'a, S>
    where
        S: 'a;

    fn iter(&self) -> Self::Iter<'_> {
        InterleavedIter {
            children: self.tenants.iter().map(|t| t.iter()).collect(),
            schedule: QuantumSchedule::new(self.tenants.len()),
            current: 0,
            left_in_quantum: 0,
            quantum: self.quantum,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len_hint(&self) -> Option<u64> {
        // Exact-or-nothing: the sum of child hints when all children
        // know their length, never a guess (see the module contract).
        self.tenants
            .iter()
            .try_fold(0u64, |acc, t| t.len_hint().map(|n| acc + n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecTrace;
    use acic_types::Addr;

    fn trace(name: &str, n: u64, base: u64) -> VecTrace {
        VecTrace::with_name(
            (0..n)
                .map(|i| Instr::alu(Addr::new(base + i * 4)))
                .collect(),
            name,
        )
    }

    #[test]
    fn round_robin_respects_quantum() {
        let mt = InterleavedTrace::new(vec![trace("a", 6, 0), trace("b", 6, 0)], 3);
        let asids: Vec<u16> = mt.iter().map(|i| i.asid().raw()).collect();
        assert_eq!(asids, vec![0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn exhausted_tenant_cedes_remaining_time() {
        // Tenant a has 2 instructions, b has 6: once a drains, b runs
        // uninterrupted.
        let mt = InterleavedTrace::new(vec![trace("a", 2, 0), trace("b", 6, 0)], 4);
        let asids: Vec<u16> = mt.iter().map(|i| i.asid().raw()).collect();
        assert_eq!(asids, vec![0, 0, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn single_tenant_stream_is_bit_identical() {
        let child = trace("solo", 37, 0x400);
        let mt = InterleavedTrace::new(vec![trace("solo", 37, 0x400)], 5);
        let a: Vec<Instr> = child.iter().collect();
        let b: Vec<Instr> = mt.iter().collect();
        assert_eq!(a, b, "1-tenant interleave must be the identity");
    }

    #[test]
    fn reset_replays_identical_schedule() {
        let mt = InterleavedTrace::new(vec![trace("a", 10, 0), trace("b", 7, 64)], 3);
        let a: Vec<Instr> = mt.iter().collect();
        let b: Vec<Instr> = mt.iter().collect();
        assert_eq!(a, b, "iter() must re-open from the start");
        assert_eq!(a.len() as u64, mt.len_hint().unwrap());
    }

    #[test]
    fn len_hint_is_exact_sum_or_none() {
        let mt = InterleavedTrace::new(vec![trace("a", 10, 0), trace("b", 7, 0)], 2);
        assert_eq!(mt.len_hint(), Some(17));
        assert_eq!(mt.iter().count() as u64, 17);

        // A source that cannot answer poisons the composed hint.
        struct NoHint;
        impl TraceSource for NoHint {
            type Iter<'a> = core::iter::Empty<Instr>;
            fn iter(&self) -> Self::Iter<'_> {
                core::iter::empty()
            }
            fn name(&self) -> &str {
                "nohint"
            }
        }
        #[derive(Debug)]
        enum Either {
            Vec(VecTrace),
            No(NoHint),
        }
        impl core::fmt::Debug for NoHint {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                f.write_str("NoHint")
            }
        }
        impl TraceSource for Either {
            type Iter<'a> = Box<dyn Iterator<Item = Instr> + 'a>;
            fn iter(&self) -> Self::Iter<'_> {
                match self {
                    Either::Vec(v) => Box::new(v.iter()),
                    Either::No(n) => Box::new(n.iter()),
                }
            }
            fn name(&self) -> &str {
                match self {
                    Either::Vec(v) => v.name(),
                    Either::No(n) => n.name(),
                }
            }
            fn len_hint(&self) -> Option<u64> {
                match self {
                    Either::Vec(v) => v.len_hint(),
                    Either::No(n) => n.len_hint(),
                }
            }
        }
        let mixed =
            InterleavedTrace::new(vec![Either::Vec(trace("a", 3, 0)), Either::No(NoHint)], 2);
        assert_eq!(mixed.len_hint(), None, "no child hint => no hint");
    }

    #[test]
    fn switch_count_matches_quantum_schedule() {
        let mt = InterleavedTrace::new(vec![trace("a", 9, 0), trace("b", 9, 0)], 3);
        let mut switches = 0;
        let mut prev = None;
        for i in mt.iter() {
            if prev.is_some_and(|p| p != i.asid()) {
                switches += 1;
            }
            prev = Some(i.asid());
        }
        // 18 instructions in 6 quanta of 3 => 5 boundaries.
        assert_eq!(switches, 5);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = InterleavedTrace::new(vec![trace("a", 1, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "tenant")]
    fn empty_tenant_list_rejected() {
        let _ = InterleavedTrace::new(Vec::<VecTrace>::new(), 4);
    }

    #[test]
    fn timeslices_emit_the_iterator_stream() {
        // Uneven, empty and exact-multiple tenants: the grant-at-a-time
        // schedule must compose the per-instruction stream exactly.
        for (lens, quantum) in [
            (vec![6, 6], 3),
            (vec![2, 6], 4),
            (vec![0, 5, 0, 9], 2),
            (vec![8, 4, 12], 4),
            (vec![37], 5),
            (vec![0, 0], 1),
        ] {
            let mt = InterleavedTrace::new(
                lens.iter()
                    .enumerate()
                    .map(|(t, &n)| trace("t", n, t as u64 * 0x1000))
                    .collect(),
                quantum,
            );
            let mut cursors: Vec<_> = mt.tenants().iter().map(|t| t.iter()).collect();
            let mut composed = Vec::new();
            for (tenant, count) in timeslices(lens.clone(), quantum) {
                assert!(count > 0 && count <= quantum);
                composed.extend(
                    cursors[tenant]
                        .by_ref()
                        .take(count as usize)
                        .map(|i| i.with_asid(tenant_asid(tenant))),
                );
            }
            let pulled: Vec<Instr> = mt.iter().collect();
            assert_eq!(composed, pulled, "{lens:?} q{quantum}");
        }
    }

    #[test]
    fn default_name_encodes_shape() {
        let mt = InterleavedTrace::new(vec![trace("a", 1, 0), trace("b", 1, 0)], 7);
        assert_eq!(mt.name(), "mt2q7[a+b]");
    }
}
