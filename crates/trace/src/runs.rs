//! Grouping instructions into i-cache block accesses.
//!
//! Consecutive instructions that fall in the same 64 B block are
//! serviced by a single i-cache access; the i-cache (and i-Filter) see
//! a new access exactly when the fetch stream moves to a different
//! block. [`BlockRuns`] performs that grouping. Both the functional
//! oracle pre-pass and the timing simulator consume the *same* run
//! sequence, which is what makes the two-pass Belady OPT exact.

use crate::instr::Instr;
use acic_types::{Asid, BlockAddr, TaggedBlock};

/// A maximal run of consecutive instructions within one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRun {
    /// The instruction block being fetched.
    pub block: BlockAddr,
    /// Address space of every instruction in the run (runs never
    /// cross a context switch).
    pub asid: Asid,
    /// Number of instructions in the run.
    pub len: u32,
    /// Whether the run ends with a taken branch (ends the fetch group
    /// even mid-block).
    pub ends_in_taken_branch: bool,
}

impl BlockRun {
    /// The ASID-tagged identity of the run's block.
    #[inline]
    pub fn tagged(&self) -> TaggedBlock {
        self.block.with_asid(self.asid)
    }

    /// Flat oracle key of the run's identity (equals `block` for the
    /// host space).
    #[inline]
    pub fn oracle_key(&self) -> BlockAddr {
        self.tagged().oracle_key()
    }
}

/// Iterator adapter turning an instruction stream into [`BlockRun`]s.
///
/// A run ends when the next instruction's block differs from the
/// current block, after a taken branch (even to the same block —
/// the front end redirects and re-accesses), or at a context switch
/// (the next instruction carries a different ASID — a new address
/// space means a new fetch even if the virtual block coincides).
///
/// # Examples
///
/// ```
/// use acic_trace::{BlockRuns, BranchClass, Instr};
/// use acic_types::Addr;
///
/// // 3 instrs in block 0, then a taken branch back to block 0:
/// let instrs = vec![
///     Instr::alu(Addr::new(0)),
///     Instr::alu(Addr::new(4)),
///     Instr::branch(Addr::new(8), Addr::new(0), true, BranchClass::Direct),
///     Instr::alu(Addr::new(0)),
/// ];
/// let runs: Vec<_> = BlockRuns::new(instrs.into_iter()).collect();
/// assert_eq!(runs.len(), 2); // the taken branch splits the runs
/// assert!(runs[0].ends_in_taken_branch);
/// ```
#[derive(Debug)]
pub struct BlockRuns<I> {
    inner: I,
    pending: Option<Instr>,
}

impl<I: Iterator<Item = Instr>> BlockRuns<I> {
    /// Wraps an instruction iterator.
    pub fn new(inner: I) -> Self {
        BlockRuns {
            inner,
            pending: None,
        }
    }
}

impl<I: Iterator<Item = Instr>> Iterator for BlockRuns<I> {
    type Item = BlockRun;

    fn next(&mut self) -> Option<BlockRun> {
        let first = self.pending.take().or_else(|| self.inner.next())?;
        let block = first.pc().block();
        let asid = first.asid();
        let mut len = 1u32;
        let mut ends_taken = first.is_taken_branch();
        if !ends_taken {
            loop {
                match self.inner.next() {
                    None => break,
                    Some(i) => {
                        if i.pc().block() != block || i.asid() != asid {
                            self.pending = Some(i);
                            break;
                        }
                        len += 1;
                        if i.is_taken_branch() {
                            ends_taken = true;
                            break;
                        }
                    }
                }
            }
        }
        Some(BlockRun {
            block,
            asid,
            len,
            ends_in_taken_branch: ends_taken,
        })
    }
}

/// A block run together with its instructions — the fetch-group unit
/// the timing simulator's front end consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunInstrs {
    /// The instruction block being fetched.
    pub block: BlockAddr,
    /// Address space of every instruction in the run.
    pub asid: Asid,
    /// The instructions of the run, in order.
    pub instrs: Vec<Instr>,
}

impl RunInstrs {
    /// An empty placeholder run for use as a reusable
    /// [`GroupedRuns::next_into`] scratch buffer. The field values are
    /// meaningless until the first `next_into` overwrites them.
    pub fn scratch() -> Self {
        RunInstrs {
            block: BlockAddr::new(0),
            asid: Asid::HOST,
            instrs: Vec::new(),
        }
    }

    /// The ASID-tagged identity of the run's block.
    #[inline]
    pub fn tagged(&self) -> TaggedBlock {
        self.block.with_asid(self.asid)
    }
}

/// Like [`BlockRuns`] but carrying the instructions of each run.
///
/// Run boundaries are guaranteed identical to [`BlockRuns`]' (same
/// grouping rule), so the oracle pre-pass over `BlockRuns` indexes the
/// timing pass over `GroupedRuns` one-to-one.
#[derive(Debug)]
pub struct GroupedRuns<I> {
    inner: I,
    pending: Option<Instr>,
}

impl<I: Iterator<Item = Instr>> GroupedRuns<I> {
    /// Wraps an instruction iterator.
    pub fn new(inner: I) -> Self {
        GroupedRuns {
            inner,
            pending: None,
        }
    }

    /// Allocation-free variant of [`Iterator::next`]: writes the next
    /// run into `out`, reusing its `instrs` buffer, and returns
    /// whether a run was produced. Run boundaries are identical to
    /// `next()`'s — warmup-phase loops use this to avoid a `Vec`
    /// allocation per run.
    pub fn next_into(&mut self, out: &mut RunInstrs) -> bool {
        let Some(first) = self.pending.take().or_else(|| self.inner.next()) else {
            return false;
        };
        out.block = first.pc().block();
        out.asid = first.asid();
        out.instrs.clear();
        out.instrs.push(first);
        if !first.is_taken_branch() {
            loop {
                match self.inner.next() {
                    None => break,
                    Some(i) => {
                        if i.pc().block() != out.block || i.asid() != out.asid {
                            self.pending = Some(i);
                            break;
                        }
                        let taken = i.is_taken_branch();
                        out.instrs.push(i);
                        if taken {
                            break;
                        }
                    }
                }
            }
        }
        true
    }

    /// Streams instructions to `f` without materializing runs,
    /// flagging each instruction that begins a new fetch run (the
    /// boundary rule is identical to [`Iterator::next`]'s). Delivers
    /// at least `n` instructions, then keeps going to the end of the
    /// current run so the stream always stops on a true run boundary
    /// — the next `next()`/`next_into()` call starts a genuine run
    /// and per-run bookkeeping (e.g. an oracle cursor advanced once
    /// per run-start flag) stays exact across the hand-off. Returns
    /// the number delivered (fewer than `n` only at trace end).
    ///
    /// This is the warming-tier fast path: no `Vec` per run, no
    /// materialized `RunInstrs` — one callback per instruction.
    pub fn stream_instrs<F>(&mut self, n: u64, mut f: F) -> u64
    where
        F: FnMut(Instr, bool),
    {
        let mut delivered = 0u64;
        let mut prev: Option<Instr> = None;
        while let Some(i) = self.pending.take().or_else(|| self.inner.next()) {
            // `pending` only ever holds an instruction that started a
            // new run, and a drained `pending` means the previous run
            // ended at a taken branch or the stream start — so the
            // first instruction is always a true run start, and later
            // boundaries derive from the previous instruction.
            let start = match prev {
                None => true,
                Some(p) => {
                    p.is_taken_branch() || p.pc().block() != i.pc().block() || p.asid() != i.asid()
                }
            };
            if delivered >= n && start {
                self.pending = Some(i);
                break;
            }
            f(i, start);
            prev = Some(i);
            delivered += 1;
        }
        delivered
    }

    /// FastForward support: drops up to `n` instructions from the
    /// stream — including a buffered lookahead instruction — without
    /// grouping them into runs, delegating the bulk skip to `skip`
    /// (pass [`TraceSource::skip`][crate::TraceSource::skip] of the
    /// source that produced `I`). Returns the number of instructions
    /// actually dropped; the next [`Iterator::next`] call resumes run
    /// grouping at the new position.
    pub fn skip_instrs_with<F>(&mut self, n: u64, skip: F) -> u64
    where
        F: FnOnce(&mut I, u64) -> u64,
    {
        if n == 0 {
            return 0;
        }
        let mut dropped = 0;
        if self.pending.take().is_some() {
            dropped = 1;
        }
        dropped + skip(&mut self.inner, n - dropped)
    }
}

impl<I: Iterator<Item = Instr>> Iterator for GroupedRuns<I> {
    type Item = RunInstrs;

    fn next(&mut self) -> Option<RunInstrs> {
        let first = self.pending.take().or_else(|| self.inner.next())?;
        let block = first.pc().block();
        let asid = first.asid();
        let mut instrs = vec![first];
        if !first.is_taken_branch() {
            loop {
                match self.inner.next() {
                    None => break,
                    Some(i) => {
                        if i.pc().block() != block || i.asid() != asid {
                            self.pending = Some(i);
                            break;
                        }
                        let taken = i.is_taken_branch();
                        instrs.push(i);
                        if taken {
                            break;
                        }
                    }
                }
            }
        }
        Some(RunInstrs {
            block,
            asid,
            instrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BranchClass;
    use acic_types::Addr;

    fn seq_alu(n: u64, base: u64) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::alu(Addr::new(base + i * 4)))
            .collect()
    }

    #[test]
    fn sequential_code_groups_into_blocks() {
        let runs: Vec<_> = BlockRuns::new(seq_alu(48, 0).into_iter()).collect();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len == 16));
        assert_eq!(runs[0].block, BlockAddr::new(0));
        assert_eq!(runs[2].block, BlockAddr::new(2));
    }

    #[test]
    fn not_taken_branch_does_not_split_run() {
        let mut instrs = seq_alu(2, 0);
        instrs.push(Instr::branch(
            Addr::new(8),
            Addr::new(0x100),
            false,
            BranchClass::Conditional,
        ));
        instrs.push(Instr::alu(Addr::new(12)));
        let runs: Vec<_> = BlockRuns::new(instrs.into_iter()).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 4);
        assert!(!runs[0].ends_in_taken_branch);
    }

    #[test]
    fn taken_branch_to_same_block_still_splits() {
        let instrs = vec![
            Instr::branch(Addr::new(0), Addr::new(16), true, BranchClass::Direct),
            Instr::alu(Addr::new(16)),
        ];
        let runs: Vec<_> = BlockRuns::new(instrs.into_iter()).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].block, runs[1].block);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        assert_eq!(BlockRuns::new(core::iter::empty()).count(), 0);
    }

    #[test]
    fn run_lengths_sum_to_instruction_count() {
        let mut instrs = seq_alu(37, 0);
        instrs.push(Instr::branch(
            Addr::new(37 * 4),
            Addr::new(0),
            true,
            BranchClass::Direct,
        ));
        instrs.extend(seq_alu(5, 0));
        let total: u32 = BlockRuns::new(instrs.iter().copied()).map(|r| r.len).sum();
        assert_eq!(total as usize, instrs.len());
    }

    #[test]
    fn context_switch_splits_runs_even_within_one_block() {
        use acic_types::Asid;
        // Two tenants executing the *same* virtual block back to back:
        // the ASID change must split the run — the fetch belongs to a
        // different address space.
        let instrs = vec![
            Instr::alu(Addr::new(0)),
            Instr::alu(Addr::new(4)),
            Instr::alu(Addr::new(8)).with_asid(Asid::new(1)),
            Instr::alu(Addr::new(12)).with_asid(Asid::new(1)),
        ];
        let runs: Vec<_> = BlockRuns::new(instrs.into_iter()).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].block, runs[1].block);
        assert_eq!(runs[0].asid, Asid::HOST);
        assert_eq!(runs[1].asid, Asid::new(1));
        assert_ne!(runs[0].tagged(), runs[1].tagged());
        assert_ne!(runs[0].oracle_key(), runs[1].oracle_key());
        assert_eq!(runs[0].oracle_key(), runs[0].block, "host key is bare");
    }
}

#[cfg(test)]
mod grouped_tests {
    use super::*;
    use crate::instr::BranchClass;
    use acic_types::Addr;

    #[test]
    fn stream_instrs_boundaries_match_block_runs() {
        let mut instrs = Vec::new();
        let mut x: u64 = 11;
        for i in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            if x.is_multiple_of(5) {
                instrs.push(Instr::branch(
                    Addr::new(i * 4),
                    Addr::new((x >> 17) % 1024 * 4),
                    x.is_multiple_of(3),
                    BranchClass::Conditional,
                ));
            } else {
                instrs.push(Instr::alu(Addr::new(i * 4)));
            }
        }
        let expect: Vec<BlockRun> = BlockRuns::new(instrs.iter().copied()).collect();
        // Stream in two chunks with an odd split: boundaries must
        // still match, and the hand-off must land on a run boundary.
        let mut runs = GroupedRuns::new(instrs.iter().copied());
        let mut starts = 0u64;
        let mut seen = 0u64;
        let first = runs.stream_instrs(137, |_, s| {
            if s {
                starts += 1;
            }
        });
        seen += first;
        assert!(first >= 137, "overshoots to the end of the run");
        seen += runs.stream_instrs(u64::MAX, |_, s| {
            if s {
                starts += 1;
            }
        });
        assert_eq!(seen as usize, instrs.len());
        assert_eq!(starts as usize, expect.len(), "one start per run");
    }

    #[test]
    fn next_into_matches_next() {
        let mut x: u64 = 3;
        let mut instrs = Vec::new();
        for i in 0..300u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            if x.is_multiple_of(7) {
                instrs.push(Instr::branch(
                    Addr::new(i * 4),
                    Addr::new((x >> 20) % 2048 * 4),
                    x.is_multiple_of(2),
                    BranchClass::Conditional,
                ));
            } else {
                instrs.push(Instr::alu(Addr::new(i * 4)));
            }
        }
        let by_next: Vec<RunInstrs> = GroupedRuns::new(instrs.iter().copied()).collect();
        let mut by_into = Vec::new();
        let mut it = GroupedRuns::new(instrs.iter().copied());
        let mut scratch = RunInstrs {
            block: acic_types::BlockAddr::new(0),
            asid: acic_types::Asid::HOST,
            instrs: Vec::new(),
        };
        while it.next_into(&mut scratch) {
            by_into.push(scratch.clone());
        }
        assert_eq!(by_next, by_into);
    }

    #[test]
    fn skip_instrs_drops_pending_and_resumes_grouping() {
        let instrs: Vec<Instr> = (0..40).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let mut runs = GroupedRuns::new(instrs.iter().copied());
        // Consume one run (16 instrs) — this buffers instruction 16 as
        // the pending lookahead.
        assert_eq!(runs.next().unwrap().instrs.len(), 16);
        // Skip 10 (the pending one + 9 more): resume at instr 26.
        assert_eq!(runs.skip_instrs_with(10, crate::source::skip_instrs), 10);
        let resumed = runs.next().unwrap();
        assert_eq!(resumed.instrs[0].pc(), Addr::new(26 * 4));
        // Remaining instructions all accounted for.
        let rest: usize = core::iter::once(resumed.instrs.len())
            .chain(runs.map(|r| r.instrs.len()))
            .sum();
        assert_eq!(rest, 40 - 16 - 10);
    }

    #[test]
    fn grouped_runs_match_block_runs_boundaries() {
        // Pseudo-random instruction stream with branches.
        let mut x: u64 = 77;
        let mut pc = 0u64;
        let mut instrs = Vec::new();
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(5) {
                let target = (x >> 13) % 4096 * 4;
                let taken = x.is_multiple_of(2);
                instrs.push(Instr::branch(
                    Addr::new(pc),
                    Addr::new(target),
                    taken,
                    BranchClass::Conditional,
                ));
                pc = if taken { target } else { pc + 4 };
            } else {
                instrs.push(Instr::alu(Addr::new(pc)));
                pc += 4;
            }
        }
        let simple: Vec<_> = BlockRuns::new(instrs.iter().copied()).collect();
        let grouped: Vec<_> = GroupedRuns::new(instrs.iter().copied()).collect();
        assert_eq!(simple.len(), grouped.len());
        for (s, g) in simple.iter().zip(&grouped) {
            assert_eq!(s.block, g.block);
            assert_eq!(s.len as usize, g.instrs.len());
        }
        let total: usize = grouped.iter().map(|g| g.instrs.len()).sum();
        assert_eq!(total, instrs.len());
    }
}
