//! Trace sources: resettable, deterministic instruction streams.
//!
//! Belady's OPT and the paper's oracle analyses need *two passes* over
//! the same trace (one to learn the future, one to simulate), so a
//! trace source must be re-openable from the start and byte-for-byte
//! deterministic. Synthetic workloads satisfy this by construction
//! (they are seeded); [`VecTrace`] provides an in-memory source for
//! tests and examples.

use crate::instr::Instr;

/// A deterministic, re-openable stream of instructions.
///
/// Implementations must yield the identical sequence on every call to
/// [`TraceSource::iter`]; the OPT oracle relies on this.
///
/// # Reset semantics
///
/// There is no separate `reset` method: **calling `iter()` again is
/// the reset operation.** Each call opens an independent pass from the
/// very first instruction; passes must not share mutable state, and a
/// later pass must be byte-identical to an earlier one regardless of
/// how far the earlier one was driven. Composed sources (e.g.
/// [`crate::InterleavedTrace`]) must reset *every* child and replay
/// the identical composition schedule — partial resets desynchronize
/// the oracle pre-pass from the simulation pass.
pub trait TraceSource {
    /// Iterator type over instructions.
    type Iter<'a>: Iterator<Item = Instr>
    where
        Self: 'a;

    /// Opens a fresh pass over the trace from the beginning.
    fn iter(&self) -> Self::Iter<'_>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "trace"
    }

    /// Exact instruction count, when the source knows it without
    /// walking the trace.
    ///
    /// Simulators use this to size warm-up windows and cycle bounds
    /// without a counting pre-pass; sources that would have to
    /// materialize the stream to answer should return `None` (the
    /// simulator then falls back to counting).
    ///
    /// The hint is a contract, not an estimate: when `Some(n)` is
    /// returned, `iter()` must yield exactly `n` instructions.
    /// Composed sources must propagate exactness — report the
    /// combined count when **all** children report one, and `None`
    /// as soon as any child cannot answer.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Skips up to `n` instructions on an open pass, returning how
    /// many were actually skipped (fewer only when the trace ends
    /// first).
    ///
    /// This is the sampled engine's FastForward path: the default
    /// implementation advances the iterator via [`skip_instrs`],
    /// which exact-sized, slice-backed sources (e.g. [`VecTrace`])
    /// satisfy in O(1) — no per-instruction decode work. Generated
    /// sources fall back to generate-and-discard; an implementation
    /// with a cheaper state jump may override.
    fn skip(iter: &mut Self::Iter<'_>, n: u64) -> u64 {
        skip_instrs(iter, n)
    }

    /// Deterministic seed derived from the trace's name.
    ///
    /// Every simulation path (timing and functional) seeds stochastic
    /// organization components from this one value, so the same
    /// workload produces the same behavior everywhere — keep all
    /// callers on this method rather than hand-rolling the hash.
    fn seed(&self) -> u64 {
        acic_types::hash::mix64(
            self.name()
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64)),
        )
    }
}

/// Advances `iter` past up to `n` items, returning the exact number
/// consumed.
///
/// Exact-sized iterators (`size_hint` with equal bounds, e.g. slice
/// iterators) are skipped with a single [`Iterator::nth`] call —
/// O(1) for slices; everything else walks item by item so the count
/// stays exact even when the iterator ends mid-skip.
pub fn skip_instrs<I: Iterator>(iter: &mut I, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let (lo, hi) = iter.size_hint();
    if hi == Some(lo) {
        let k = n.min(lo as u64);
        if k > 0 {
            iter.nth(k as usize - 1);
        }
        return k;
    }
    let mut skipped = 0;
    while skipped < n && iter.next().is_some() {
        skipped += 1;
    }
    skipped
}

/// A prefix view of another source: the first `limit` instructions.
///
/// The multi-fidelity DSE ladder simulates cheap low-budget rungs
/// against the *same* frozen trace the expensive rungs use — the
/// prefix must be byte-identical to the full trace's opening, not a
/// fresh generation at the smaller budget (multi-tenant interleaving
/// schedules differ per total budget). `Truncated` provides exactly
/// that view without copying: it borrows the inner source, clamps
/// iteration and [`TraceSource::skip`] to the limit, and keeps the
/// inner source's name — and therefore, by the seed contract, its
/// [`TraceSource::seed`].
///
/// # Examples
///
/// ```
/// use acic_trace::{Instr, TraceSource, Truncated, VecTrace};
/// use acic_types::Addr;
///
/// let full: VecTrace = (0..10).map(|i| Instr::alu(Addr::new(i * 4))).collect();
/// let prefix = Truncated::new(&full, 4);
/// assert_eq!(prefix.iter().count(), 4);
/// assert_eq!(prefix.len_hint(), Some(4));
/// assert_eq!(prefix.seed(), full.seed());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Truncated<'s, S> {
    inner: &'s S,
    limit: u64,
}

impl<'s, S: TraceSource> Truncated<'s, S> {
    /// Wraps `inner`, exposing at most its first `limit` instructions.
    pub fn new(inner: &'s S, limit: u64) -> Self {
        Truncated { inner, limit }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &'s S {
        self.inner
    }

    /// The instruction cap (the view may be shorter if the inner
    /// source is).
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// Iterator over a [`Truncated`] prefix.
#[derive(Clone, Debug)]
pub struct TruncatedIter<'a, S: TraceSource + 'a> {
    inner: S::Iter<'a>,
    remaining: u64,
}

impl<'a, S: TraceSource> Iterator for TruncatedIter<'a, S> {
    type Item = Instr;

    #[inline(always)]
    fn next(&mut self) -> Option<Instr> {
        if self.remaining == 0 {
            return None;
        }
        let i = self.inner.next()?;
        self.remaining -= 1;
        Some(i)
    }

    /// Fast-forwards via the inner source's own [`TraceSource::skip`]
    /// (O(1) on slice- and packed-backed sources), clamped to the
    /// prefix. [`skip_instrs`] reaches this through `nth` whenever the
    /// view is exact-sized, so sampled simulation over a prefix keeps
    /// the underlying trace's fast-forward cost.
    #[inline]
    fn nth(&mut self, n: usize) -> Option<Instr> {
        let k = (n as u64).min(self.remaining);
        let done = S::skip(&mut self.inner, k);
        self.remaining -= done;
        if done < k {
            self.remaining = 0;
            return None;
        }
        self.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        let cap = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (lo.min(cap), Some(hi.map_or(cap, |h| h.min(cap))))
    }
}

impl<'a, S: TraceSource> TraceSource for Truncated<'a, S> {
    type Iter<'b>
        = TruncatedIter<'b, S>
    where
        Self: 'b;

    fn iter(&self) -> Self::Iter<'_> {
        TruncatedIter {
            inner: self.inner.iter(),
            remaining: self.limit,
        }
    }

    /// Delegates to the inner source: a prefix is the *same workload*
    /// (same seed, same reports label), just cut short.
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint().map(|n| n.min(self.limit))
    }
}

/// An in-memory trace, mainly for tests and examples.
///
/// # Examples
///
/// ```
/// use acic_trace::{Instr, TraceSource, VecTrace};
/// use acic_types::Addr;
///
/// let t = VecTrace::new(vec![Instr::alu(Addr::new(0)), Instr::alu(Addr::new(4))]);
/// assert_eq!(t.iter().count(), 2);
/// assert_eq!(t.iter().count(), 2); // re-openable
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecTrace {
    instrs: Vec<Instr>,
    name: String,
}

impl VecTrace {
    /// Creates a trace from a vector of instructions.
    pub fn new(instrs: Vec<Instr>) -> Self {
        VecTrace {
            instrs,
            name: "vec-trace".to_string(),
        }
    }

    /// Creates a named trace.
    pub fn with_name(instrs: Vec<Instr>, name: impl Into<String>) -> Self {
        VecTrace {
            instrs,
            name: name.into(),
        }
    }

    /// Materializes another source into memory (keeping its name).
    ///
    /// Generated sources (the synthetic workloads) pay the generator
    /// cost on every pass; materializing once turns repeat
    /// simulations over the same trace into cheap slice iteration.
    pub fn from_source<S: TraceSource>(source: &S) -> Self {
        VecTrace {
            instrs: source.iter().collect(),
            name: source.name().to_string(),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl TraceSource for VecTrace {
    type Iter<'a> = core::iter::Copied<core::slice::Iter<'a, Instr>>;

    fn iter(&self) -> Self::Iter<'_> {
        self.instrs.iter().copied()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.instrs.len() as u64)
    }
}

impl FromIterator<Instr> for VecTrace {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        VecTrace::new(iter.into_iter().collect())
    }
}

impl Extend<Instr> for VecTrace {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::Addr;

    #[test]
    fn vec_trace_is_reopenable_and_identical() {
        let t: VecTrace = (0..10).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = t.iter().collect();
        assert_eq!(a, b);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn named_trace() {
        let t = VecTrace::with_name(vec![], "web-search");
        assert_eq!(t.name(), "web-search");
        assert!(t.is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut t = VecTrace::new(vec![Instr::alu(Addr::new(0))]);
        t.extend([Instr::alu(Addr::new(4))]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn skip_lands_exactly_where_a_walk_would() {
        let t: VecTrace = (0..100).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let mut fast = t.iter();
        assert_eq!(VecTrace::skip(&mut fast, 37), 37);
        let mut slow = t.iter();
        for _ in 0..37 {
            slow.next();
        }
        assert_eq!(fast.next(), slow.next());
    }

    #[test]
    fn skip_past_end_reports_shortfall() {
        let t: VecTrace = (0..10).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let mut it = t.iter();
        assert_eq!(VecTrace::skip(&mut it, 25), 10);
        assert_eq!(it.next(), None);
        // Unsized iterators count exactly too.
        let mut gen = (0..10u64).map(|i| Instr::alu(Addr::new(i * 4))).fuse();
        assert_eq!(skip_instrs(&mut gen.by_ref().filter(|_| true), 25), 10);
    }

    #[test]
    fn truncated_is_a_byte_identical_prefix() {
        let full: VecTrace = (0..100).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let pre = Truncated::new(&full, 37);
        let got: Vec<_> = pre.iter().collect();
        let want: Vec<_> = full.iter().take(37).collect();
        assert_eq!(got, want);
        assert_eq!(pre.len_hint(), Some(37));
        // Re-openable: a second pass is identical.
        assert_eq!(pre.iter().collect::<Vec<_>>(), got);
    }

    #[test]
    fn truncated_keeps_name_and_seed() {
        let full = VecTrace::with_name(
            (0..8).map(|i| Instr::alu(Addr::new(i * 4))).collect(),
            "web-search",
        );
        let pre = Truncated::new(&full, 3);
        assert_eq!(pre.name(), "web-search");
        assert_eq!(pre.seed(), full.seed());
        assert_eq!(pre.limit(), 3);
    }

    #[test]
    fn truncated_longer_than_inner_yields_inner() {
        let full: VecTrace = (0..5).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let pre = Truncated::new(&full, 100);
        assert_eq!(pre.iter().count(), 5);
        assert_eq!(pre.len_hint(), Some(5));
    }

    #[test]
    fn truncated_skip_clamps_to_prefix() {
        let full: VecTrace = (0..50).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let pre = Truncated::new(&full, 20);
        let mut it = pre.iter();
        // Skip inside the prefix lands where a walk would.
        assert_eq!(
            <Truncated<'_, VecTrace> as TraceSource>::skip(&mut it, 7),
            7
        );
        assert_eq!(it.next(), Some(Instr::alu(Addr::new(7 * 4))));
        // Skip past the prefix end stops at the boundary.
        let mut it = pre.iter();
        assert_eq!(
            <Truncated<'_, VecTrace> as TraceSource>::skip(&mut it, 35),
            20
        );
        assert_eq!(it.next(), None);
    }

    #[test]
    fn truncated_size_hint_is_exact_for_exact_inners() {
        let full: VecTrace = (0..10).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let pre = Truncated::new(&full, 4);
        let mut it = pre.iter();
        assert_eq!(it.size_hint(), (4, Some(4)));
        it.next();
        assert_eq!(it.size_hint(), (3, Some(3)));
    }

    #[test]
    fn skip_zero_is_a_no_op() {
        let t: VecTrace = (0..3).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let mut it = t.iter();
        assert_eq!(VecTrace::skip(&mut it, 0), 0);
        assert_eq!(it.count(), 3);
    }
}
