//! The decoupled front end: branch-prediction unit (BPU) running
//! ahead of fetch, the Fetch Target Queue, and fetch-state tracking.
//!
//! Trace-driven semantics: the BPU consumes fetch-block runs from the
//! trace, predicts every branch, and pushes runs into the FTQ. A
//! mispredicted branch stalls the BPU until the backend resolves that
//! branch (plus a redirect penalty) — the wrong path itself is not
//! simulated. BTB misses on taken branches charge a short
//! decode-redirect bubble.
//!
//! The fetch path is zero-copy. The BPU's feed decodes each run
//! straight into the FTQ's [`InstrArena`], and the instruction never
//! moves again: an FTQ entry is a position range of the arena, the
//! backend's decode queue and ROB are windows of it
//! ([`crate::backend`]), and dispatch reads each instruction from it
//! once. Arena positions start at 0 with the front end and advance by
//! one per instruction entering the BPU, so an instruction's position
//! *is* its global index.

use crate::branch::btb::Btb;
use crate::branch::tage::Tage;
use crate::config::{BranchSwitchMode, SimConfig};
use crate::report::BranchStats;
use acic_trace::{BlockRun, BranchClass, Instr, InstrKind};
use acic_types::{Addr, Asid, BlockAddr, Cycle, TaggedBlock, ASID_IDENT_SHIFT};

/// One fetch-target (block run) in the FTQ. The run's instructions
/// live in the owning [`Ftq`]'s instruction arena; the entry carries
/// only their `[start, start + len)` position range, which is also
/// their global index range.
#[derive(Clone, Copy, Debug)]
pub struct FtqEntry {
    /// The instruction block to fetch.
    pub block: BlockAddr,
    /// Address space of the run.
    pub asid: Asid,
    /// Arena position (= global index) of the run's first instruction
    /// (read it back with [`InstrArena::get`]).
    pub start: u64,
    /// Number of instructions in the run.
    pub len: u32,
    /// Whether the demand i-cache access has been performed.
    pub accessed: bool,
    /// Cycle at which the block's bytes are available.
    pub ready_at: Cycle,
    /// Whether the block must be filled into the L1i when ready.
    pub needs_fill: bool,
    /// The block's next-use position captured at access time (for
    /// OPT's fill decision).
    pub next_use: u64,
    /// Whether a prefetcher may act on this entry: false when the BPU
    /// reached this run only via a BTB miss or a misprediction — a
    /// real fetch-directed prefetcher cannot see past an unpredicted
    /// redirect.
    pub prefetchable: bool,
}

impl FtqEntry {
    /// The ASID-tagged identity of the entry's block.
    #[inline]
    pub fn tagged(&self) -> TaggedBlock {
        self.block.with_asid(self.asid)
    }
}

impl Default for FtqEntry {
    fn default() -> Self {
        FtqEntry {
            block: BlockAddr::new(0),
            asid: Asid::HOST,
            start: 0,
            len: 0,
            accessed: false,
            ready_at: 0,
            needs_fill: false,
            next_use: acic_trace::NO_NEXT_USE,
            prefetchable: true,
        }
    }
}

/// Ring-buffer instruction arena: the one home of every instruction
/// between the trace decoder and dispatch.
///
/// Positions are *absolute* (monotonically increasing `u64`, starting
/// at 0), so a position stays valid across wraps and growth and equals
/// the instruction's global index. The ring reclaims space only when
/// the backend dispatches (`release_to`), so an instruction outlives
/// its FTQ entry while it waits in the decode queue. Capacity is a
/// power of two and doubles on the cold overflow path, preserving
/// every live position — steady-state pushes are allocation-free.
#[derive(Debug)]
pub struct InstrArena {
    buf: Vec<Instr>,
    mask: u64,
    /// Absolute position of the oldest live instruction.
    head: u64,
    /// Absolute position one past the newest live instruction.
    tail: u64,
}

/// Initial arena capacity: 24 FTQ entries × at most 16 instructions
/// per 64 B fetch block plus a 60-entry decode queue leave headroom;
/// odd configs grow lazily.
const ARENA_INITIAL: usize = 1024;

impl InstrArena {
    pub(crate) fn new() -> Self {
        InstrArena {
            buf: vec![Instr::alu(Addr::new(0)); ARENA_INITIAL],
            mask: ARENA_INITIAL as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    /// Appends one instruction at position [`InstrArena::tail`].
    #[inline]
    pub fn push(&mut self, instr: Instr) {
        if self.tail - self.head == self.buf.len() as u64 {
            self.grow();
        }
        self.buf[(self.tail & self.mask) as usize] = instr;
        self.tail += 1;
    }

    /// Cold path: doubles capacity, re-laying the live range so
    /// absolute positions keep resolving.
    #[cold]
    fn grow(&mut self) {
        let cap = self.buf.len() * 2;
        let mut buf = vec![Instr::alu(Addr::new(0)); cap];
        let mask = cap as u64 - 1;
        for pos in self.head..self.tail {
            buf[(pos & mask) as usize] = self.buf[(pos & self.mask) as usize];
        }
        self.buf = buf;
        self.mask = mask;
    }

    /// The instruction at absolute position `pos` (must be live).
    #[inline]
    pub fn get(&self, pos: u64) -> Instr {
        debug_assert!(self.head <= pos && pos < self.tail);
        self.buf[(pos & self.mask) as usize]
    }

    /// Position one past the newest instruction: the global index the
    /// next pushed instruction receives.
    #[inline]
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Reclaims everything before `pos` (FIFO release at dispatch).
    #[inline]
    pub(crate) fn release_to(&mut self, pos: u64) {
        debug_assert!(self.head <= pos && pos <= self.tail);
        self.head = pos;
    }
}

/// What a prefetch scan did with one candidate (see
/// [`Ftq::fdp_scan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScanVerdict {
    /// Filtered — resident, in flight, or in another address space —
    /// under the scan's stamp.
    Filtered,
    /// Issued to the hierarchy.
    Issued,
    /// The scan ends here (prefetch width reached or MSHRs full).
    Stop,
}

/// The Fetch Target Queue: a fixed-capacity entry ring plus the
/// instruction arena its entries index into — pushes and pops are
/// allocation-free once the arena has warmed.
///
/// It also memoises fetch-directed prefetching's scan: a prefix of
/// the candidates behind the head whose prefetchable entries all
/// filtered under the current scan stamp, with the count of those
/// entries, so a rescan under an unchanged stamp adds the count in
/// O(1) and probes only from the prefix end.
#[derive(Debug)]
pub struct Ftq {
    entries: Vec<FtqEntry>,
    head: usize,
    len: usize,
    arena: InstrArena,
    /// Scan stamp the memo prefix holds under.
    memo_stamp: u64,
    /// Candidates in the memo prefix: queue positions `1..=memo_len`.
    memo_len: usize,
    /// Prefetchable entries in the memo prefix (each filtered under
    /// `memo_stamp`).
    memo_filtered: u64,
}

impl Ftq {
    /// Builds an empty FTQ with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Ftq {
            entries: vec![FtqEntry::default(); capacity.max(1)],
            head: 0,
            len: 0,
            arena: InstrArena::new(),
            memo_stamp: 0,
            memo_len: 0,
            memo_filtered: 0,
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, i: usize) -> usize {
        (self.head + i) % self.entries.len()
    }

    /// The entry at queue position `i` (0 = oldest).
    pub fn get(&self, i: usize) -> &FtqEntry {
        assert!(i < self.len, "FTQ index {i} out of {}", self.len);
        &self.entries[self.slot(i)]
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&FtqEntry> {
        (self.len > 0).then(|| &self.entries[self.head])
    }

    /// The oldest entry, mutably (fetch records its access state).
    pub fn front_mut(&mut self) -> Option<&mut FtqEntry> {
        (self.len > 0).then(|| &mut self.entries[self.head])
    }

    /// Pops the oldest entry. Its instructions stay in the arena until
    /// the backend dispatches them.
    pub fn pop_front(&mut self) -> Option<FtqEntry> {
        if self.len == 0 {
            return None;
        }
        if self.memo_len > 0 {
            // The first memoised candidate becomes the head, which is
            // the demand access and no candidate.
            self.memo_len -= 1;
            self.memo_filtered -= self.entries[self.slot(1)].prefetchable as u64;
        }
        let e = self.entries[self.head];
        self.head = (self.head + 1) % self.entries.len();
        self.len -= 1;
        if self.len == 0 {
            // Nothing live: rebase the entry ring (cheap tidy; arena
            // positions are absolute and need no rebase).
            self.head = 0;
        }
        Some(e)
    }

    /// Pushes an entry for the run occupying the newest `entry.len`
    /// arena positions (`entry.start` onward).
    ///
    /// # Panics
    ///
    /// Panics when the ring is full — the BPU checks capacity before
    /// producing.
    pub fn push(&mut self, entry: FtqEntry) {
        assert!(self.len < self.entries.len(), "FTQ overflow");
        debug_assert_eq!(
            entry.start + entry.len as u64,
            self.arena.tail,
            "an entry covers the newest run in the arena"
        );
        let slot = self.slot(self.len);
        self.entries[slot] = entry;
        self.len += 1;
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        (0..self.len).map(|i| &self.entries[self.slot(i)])
    }

    /// Fetch-directed prefetching's scan under `stamp`: the
    /// prefetchable entries behind the head (the head is the demand
    /// access), oldest first.
    ///
    /// The memo prefix counts as filtered without a visit: its count
    /// is returned. Every later candidate goes to `visit` until it
    /// answers [`ScanVerdict::Stop`], and the prefix grows over every
    /// candidate up to the first one that did not filter. A new stamp
    /// empties the prefix.
    pub(crate) fn fdp_scan<F>(&mut self, stamp: u64, mut visit: F) -> u64
    where
        F: FnMut(TaggedBlock) -> ScanVerdict,
    {
        if stamp != self.memo_stamp {
            self.memo_stamp = stamp;
            self.memo_len = 0;
            self.memo_filtered = 0;
        }
        let memoised = self.memo_filtered;
        let mut extending = true;
        for i in 1 + self.memo_len..self.len {
            let e = &self.entries[self.slot(i)];
            if e.prefetchable {
                match visit(e.tagged()) {
                    ScanVerdict::Filtered => {}
                    ScanVerdict::Issued => extending = false,
                    ScanVerdict::Stop => break,
                }
            }
            if extending {
                self.memo_len += 1;
                self.memo_filtered += e.prefetchable as u64;
            }
        }
        memoised
    }

    /// The prefetchable entries of the memo prefix when it holds under
    /// `stamp` (empty otherwise): what [`Ftq::fdp_scan`] counts as
    /// filtered without a visit. Debug builds re-probe them.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn memo_prefix(&self, stamp: u64) -> impl Iterator<Item = &FtqEntry> {
        let len = if stamp == self.memo_stamp {
            self.memo_len
        } else {
            0
        };
        (1..=len)
            .map(|i| &self.entries[self.slot(i)])
            .filter(|e| e.prefetchable)
    }

    /// The instruction arena (resolve an entry's `start..start+len`).
    pub fn arena(&self) -> &InstrArena {
        &self.arena
    }

    /// The instruction arena, mutably (dispatch releases from it).
    pub fn arena_mut(&mut self) -> &mut InstrArena {
        &mut self.arena
    }
}

impl core::ops::Index<usize> for Ftq {
    type Output = FtqEntry;

    fn index(&self, i: usize) -> &FtqEntry {
        self.get(i)
    }
}

/// Why the BPU is not producing fetch targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BpuState {
    /// Producing normally (possibly delayed until a cycle).
    Running {
        /// Next cycle the BPU may process a run (BTB bubbles push
        /// this out).
        available_at: Cycle,
    },
    /// Waiting for the branch with this global index to resolve.
    WaitingOnBranch {
        /// Global instruction index of the mispredicted branch.
        index: u64,
    },
}

/// Entries in the indirect-target predictor (ITTAGE-flavored:
/// path-history-tagged targets, with the BTB as fallback).
const ITP_ENTRIES: usize = 16384;

#[derive(Clone, Copy, Debug, Default)]
struct ItpEntry {
    tag: u16,
    target: u64,
    valid: bool,
}

/// The decoupled front end.
pub struct FrontEnd {
    /// The Fetch Target Queue.
    pub ftq: Ftq,
    capacity: usize,
    tage: Tage,
    btb: Btb,
    /// Indirect-target predictor: indexed and tagged by branch PC
    /// hashed with recent taken-branch path history, so per-request
    /// dispatch sequences become predictable after their first hop.
    itp: Vec<ItpEntry>,
    path_history: u64,
    /// Address space currently feeding the BPU.
    cur_asid: Asid,
    /// What prediction structures do when the stream switches spaces.
    switch_mode: BranchSwitchMode,
    state: BpuState,
    redirect_penalty: u64,
    btb_miss_penalty: u64,
    stats: BranchStats,
    trace_done: bool,
}

impl FrontEnd {
    /// Builds the front end from the simulation config.
    pub fn new(cfg: &SimConfig) -> Self {
        FrontEnd {
            ftq: Ftq::new(cfg.ftq_entries),
            capacity: cfg.ftq_entries,
            tage: Tage::new(),
            btb: Btb::new(8192, 4),
            itp: vec![ItpEntry::default(); ITP_ENTRIES],
            path_history: 0,
            cur_asid: Asid::HOST,
            switch_mode: cfg.branch_switch,
            state: BpuState::Running { available_at: 0 },
            redirect_penalty: cfg.redirect_penalty,
            btb_miss_penalty: cfg.btb_miss_penalty,
            stats: BranchStats::default(),
            trace_done: false,
        }
    }

    /// Accumulated branch statistics.
    pub fn stats(&self) -> BranchStats {
        let mut s = self.stats;
        s.tage = self.tage.stats();
        s.btb = self.btb.stats();
        s
    }

    /// Whether the trace has been fully consumed and the FTQ drained.
    pub fn drained(&self) -> bool {
        self.trace_done && self.ftq.is_empty()
    }

    /// Whether the front end has consumed the whole trace.
    pub fn trace_done(&self) -> bool {
        self.trace_done
    }

    /// Global index of the next instruction the BPU will assign (its
    /// arena position).
    pub fn instructions_entered(&self) -> u64 {
        self.ftq.arena.tail()
    }

    /// The lookup key for branch structures: the raw PC in
    /// [`BranchSwitchMode::Flush`] mode (state never survives a
    /// switch, so keys need no disambiguation), the PC XOR-tagged
    /// with the ASID in [`BranchSwitchMode::Tag`] mode. ASID 0 maps
    /// to the raw PC either way, keeping single-tenant runs
    /// bit-identical.
    fn pc_key(&self, pc: Addr) -> Addr {
        match self.switch_mode {
            BranchSwitchMode::Flush => pc,
            BranchSwitchMode::Tag => {
                Addr::new(pc.raw() ^ ((self.cur_asid.raw() as u64) << ASID_IDENT_SHIFT))
            }
        }
    }

    /// Crosses a context switch: in flush mode every prediction
    /// structure is cleared (untagged hardware); in tag mode the
    /// state survives and future lookups are keyed by the new ASID.
    fn on_context_switch(&mut self, next: Asid) {
        self.cur_asid = next;
        if self.switch_mode == BranchSwitchMode::Flush {
            self.tage.flush();
            self.btb.flush();
            self.itp.fill(ItpEntry::default());
            self.path_history = 0;
        }
    }

    /// Gates statistics recording across the front end's prediction
    /// structures (warmup phase of a sampled simulation): TAGE and
    /// the BTB keep training, but their accuracy counters hold still.
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.tage.set_stats_enabled(enabled);
        self.btb.set_stats_enabled(enabled);
    }

    /// Re-opens the fetch stream after a detailed window exhausted
    /// its instruction budget: the feeding closure returned `None`
    /// without the trace being over, so the engine clears the
    /// end-of-trace latch before the next window.
    pub fn resume_stream(&mut self) {
        self.trace_done = false;
    }

    /// Bulk-warmup training of every prediction structure, one
    /// instruction at a time — TAGE direction state plus the BTB and
    /// indirect-target predictor (the front end's large, slowest
    /// tables: a wide code footprint needs on the order of a million
    /// instructions to cover 8192 BTB entries). Handles context
    /// switches per the configured switch mode. Call between
    /// [`FrontEnd::set_stats_enabled`]`(false)`/`(true)` so warmup
    /// traffic stays uncounted.
    pub fn warm_branches(&mut self, instr: &Instr) {
        let InstrKind::Branch {
            target,
            taken,
            class,
        } = instr.kind
        else {
            return;
        };
        if instr.asid() != self.cur_asid {
            self.on_context_switch(instr.asid());
        }
        let key = self.pc_key(instr.pc());
        match class {
            BranchClass::Conditional => {
                self.tage.predict_and_train(key, taken);
                if taken && self.btb.lookup(key) != Some(target) {
                    self.btb.update(key, target);
                }
            }
            BranchClass::Direct | BranchClass::Call => {
                if self.btb.lookup(key) != Some(target) {
                    self.btb.update(key, target);
                }
            }
            BranchClass::Return => {}
            BranchClass::Indirect => {
                self.itp_update(key, target);
                self.btb.update(key, target);
                self.push_path_history(target);
            }
        }
    }

    /// Global index of the mispredicted branch the BPU is stalled on,
    /// if any: the one branch whose resolution dispatch reports.
    pub fn awaited_branch(&self) -> Option<u64> {
        match self.state {
            BpuState::WaitingOnBranch { index } => Some(index),
            BpuState::Running { .. } => None,
        }
    }

    /// The backend resolved the [awaited branch][FrontEnd::awaited_branch]
    /// at `done`: the BPU restarts after the redirect penalty.
    pub fn on_branch_resolved(&mut self, done: Cycle) {
        debug_assert!(
            self.awaited_branch().is_some(),
            "a resolution with no branch awaited"
        );
        self.state = BpuState::Running {
            available_at: done + self.redirect_penalty,
        };
    }

    fn itp_slot(&self, pc: acic_types::Addr) -> (usize, u16) {
        use acic_types::hash::{fold, mix2};
        let h = mix2(pc.raw(), self.path_history);
        (fold(h, 14) as usize, fold(h ^ 0x17a6e, 10) as u16)
    }

    fn itp_predict(&self, pc: acic_types::Addr) -> Option<acic_types::Addr> {
        let (slot, tag) = self.itp_slot(pc);
        let e = self.itp[slot];
        (e.valid && e.tag == tag).then(|| acic_types::Addr::new(e.target))
    }

    fn itp_update(&mut self, pc: acic_types::Addr, target: acic_types::Addr) {
        let (slot, tag) = self.itp_slot(pc);
        self.itp[slot] = ItpEntry {
            tag,
            target: target.raw(),
            valid: true,
        };
    }

    fn push_path_history(&mut self, target: acic_types::Addr) {
        // The single most recent indirect target: together with the
        // site PC it identifies the request type without dragging in
        // stale targets from the previous request (an ITTAGE with
        // geometric history lengths would find this length itself).
        self.path_history = acic_types::hash::fold(target.raw() >> 2, 16);
    }

    /// Earliest cycle at which [`FrontEnd::bpu_cycle`] can produce a
    /// fetch target, or `None` when it cannot until some other event
    /// unblocks it (a mispredict resolution, an FTQ pop, or a window
    /// reopening the trace). The event-horizon loop folds this into
    /// its skip computation; the blocked cases all unblock through
    /// dense-cycle events the loop already schedules.
    pub fn bpu_horizon(&self) -> Option<Cycle> {
        match self.state {
            BpuState::Running { available_at }
                if self.ftq.len() < self.capacity && !self.trace_done =>
            {
                Some(available_at)
            }
            _ => None,
        }
    }

    /// Runs the BPU for one cycle: asks `feed` for at most one
    /// fetch-block run, which it writes straight into the FTQ's arena
    /// (the hot path allocates and copies nothing), predicts over the
    /// run in place, and pushes its FTQ entry. `feed` returning `None`
    /// means the stream is over (trace end or window budget); the
    /// front end latches `trace_done` and the caller disambiguates
    /// which.
    pub fn bpu_cycle<F>(&mut self, now: Cycle, feed: F)
    where
        F: FnOnce(&mut InstrArena) -> Option<BlockRun>,
    {
        let BpuState::Running { available_at } = self.state else {
            return;
        };
        if now < available_at || self.ftq.len() >= self.capacity || self.trace_done {
            return;
        }
        let start = self.ftq.arena.tail();
        let Some(run) = feed(&mut self.ftq.arena) else {
            self.trace_done = true;
            return;
        };
        let end = start + run.len as u64;
        debug_assert_eq!(self.ftq.arena.tail(), end, "the feed wrote its run");
        if run.asid != self.cur_asid {
            self.on_context_switch(run.asid);
        }

        let mut bubble = 0u64;
        let mut mispredicted_at: Option<u64> = None;

        for index in start..end {
            let instr = self.ftq.arena.get(index);
            let InstrKind::Branch {
                target,
                taken,
                class,
            } = instr.kind
            else {
                continue;
            };
            match class {
                BranchClass::Conditional => {
                    let correct = self.tage.predict_and_train(self.pc_key(instr.pc()), taken);
                    if !correct {
                        self.stats.mispredicts += 1;
                        mispredicted_at = Some(index);
                        break;
                    }
                    if taken {
                        // Need the target from the BTB.
                        match self.btb.lookup(self.pc_key(instr.pc())) {
                            Some(t) if t == target => {}
                            _ => {
                                bubble += self.btb_miss_penalty;
                                let key = self.pc_key(instr.pc());
                                self.btb.update(key, target);
                            }
                        }
                    }
                }
                BranchClass::Direct | BranchClass::Call => {
                    match self.btb.lookup(self.pc_key(instr.pc())) {
                        Some(t) if t == target => {}
                        _ => {
                            bubble += self.btb_miss_penalty;
                            let key = self.pc_key(instr.pc());
                            self.btb.update(key, target);
                        }
                    }
                }
                BranchClass::Return => {
                    // Idealized return address stack: always correct.
                }
                BranchClass::Indirect => {
                    let key = self.pc_key(instr.pc());
                    let predicted = self.itp_predict(key).or_else(|| self.btb.lookup(key));
                    match predicted {
                        Some(t) if t == target => {}
                        Some(_) => {
                            // Wrong target: full misprediction.
                            self.btb.record_wrong_target();
                            self.stats.mispredicts += 1;
                            mispredicted_at = Some(index);
                        }
                        None => {
                            // Cold indirect: no target to fetch from.
                            self.stats.mispredicts += 1;
                            mispredicted_at = Some(index);
                        }
                    }
                    self.itp_update(key, target);
                    self.btb.update(key, target);
                    // Push the resolved target into the path history
                    // even on a misprediction (the front end learns the
                    // true path once the branch resolves) — otherwise a
                    // single wrong dispatch would leave every later
                    // site keyed on stale history.
                    self.push_path_history(target);
                    if mispredicted_at.is_some() {
                        break;
                    }
                }
            }
        }

        self.ftq.push(FtqEntry {
            block: run.block,
            asid: run.asid,
            start,
            len: run.len,
            prefetchable: bubble == 0 && mispredicted_at.is_none(),
            ..FtqEntry::default()
        });

        self.state = match mispredicted_at {
            Some(index) => BpuState::WaitingOnBranch { index },
            None => BpuState::Running {
                available_at: now + 1 + bubble,
            },
        };
    }
}

impl core::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("ftq_len", &self.ftq.len())
            .field("state", &self.state)
            .field("next_index", &self.instructions_entered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::Addr;
    use proptest::prelude::*;

    /// Drives one BPU cycle fed with `run` as one fetch run (`None` =
    /// stream over).
    fn cycle(fe: &mut FrontEnd, now: Cycle, run: Option<Vec<Instr>>) {
        fe.bpu_cycle(now, |arena| {
            let instrs = run?;
            for &i in &instrs {
                arena.push(i);
            }
            Some(BlockRun {
                block: instrs[0].pc().block(),
                asid: instrs[0].asid(),
                len: instrs.len() as u32,
                ends_in_taken_branch: instrs.last().is_some_and(|i| i.is_taken_branch()),
            })
        });
    }

    /// Writes `instrs` into the FTQ's arena and pushes `entry` for them.
    fn push_run(ftq: &mut Ftq, entry: FtqEntry, instrs: &[Instr]) {
        let start = ftq.arena.tail();
        for &i in instrs {
            ftq.arena.push(i);
        }
        ftq.push(FtqEntry {
            start,
            len: instrs.len() as u32,
            ..entry
        });
    }

    #[test]
    fn pushes_runs_until_full() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        for now in 0..30u64 {
            cycle(&mut fe, now, Some(vec![Instr::alu(Addr::new(now * 64))]));
        }
        assert_eq!(fe.ftq.len(), cfg.ftq_entries);
    }

    #[test]
    fn mispredict_stalls_until_resolution() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        // An indirect branch with no BTB entry: guaranteed mispredict.
        let br = Instr::branch(Addr::new(0), Addr::new(0x100), true, BranchClass::Indirect);
        cycle(&mut fe, 0, Some(vec![br]));
        assert_eq!(fe.ftq.len(), 1);
        assert_eq!(fe.bpu_horizon(), None, "stalled BPU reports no horizon");
        assert_eq!(fe.awaited_branch(), Some(0), "waits on global index 0");
        // Stalled: further cycles do nothing.
        cycle(&mut fe, 1, Some(vec![Instr::alu(Addr::new(64))]));
        assert_eq!(fe.ftq.len(), 1);
        // Resolve the branch at cycle 10.
        fe.on_branch_resolved(10);
        assert_eq!(fe.awaited_branch(), None);
        assert_eq!(fe.bpu_horizon(), Some(10 + cfg.redirect_penalty));
        cycle(
            &mut fe,
            10 + cfg.redirect_penalty,
            Some(vec![Instr::alu(Addr::new(64))]),
        );
        assert_eq!(fe.ftq.len(), 2);
    }

    #[test]
    fn trace_end_marks_done() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(&mut fe, 0, None);
        assert!(fe.trace_done());
        assert!(fe.drained());
        assert_eq!(fe.bpu_horizon(), None);
    }

    #[test]
    fn indirect_with_stable_target_learns() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        let br = Instr::branch(Addr::new(0), Addr::new(0x100), true, BranchClass::Indirect);
        // First encounter mispredicts; resolve it.
        cycle(&mut fe, 0, Some(vec![br]));
        fe.on_branch_resolved(5);
        // Second encounter: BTB now has the target; no stall.
        let before = fe.stats().mispredicts;
        cycle(&mut fe, 20, Some(vec![br]));
        assert_eq!(fe.stats().mispredicts, before);
        assert_eq!(fe.ftq.len(), 2);
    }

    #[test]
    fn warm_branches_warms_predictors_without_stats() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        let br = Instr::branch(Addr::new(0), Addr::new(0x100), true, BranchClass::Indirect);
        fe.set_stats_enabled(false);
        fe.warm_branches(&br);
        fe.set_stats_enabled(true);
        let s = fe.stats();
        assert_eq!(s.mispredicts, 0);
        assert_eq!(s.btb.lookups, 0, "warmup lookups are uncounted");
        // The trained target now predicts: no mispredict, no stall.
        cycle(&mut fe, 0, Some(vec![br]));
        assert_eq!(fe.stats().mispredicts, 0);
        cycle(&mut fe, 1, Some(vec![Instr::alu(Addr::new(64))]));
        assert_eq!(fe.ftq.len(), 2, "BPU not stalled");
    }

    #[test]
    fn resume_stream_reopens_after_window_budget() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(&mut fe, 0, None);
        assert!(fe.trace_done());
        fe.resume_stream();
        assert!(!fe.trace_done());
        cycle(&mut fe, 1, Some(vec![Instr::alu(Addr::new(0))]));
        assert_eq!(fe.ftq.len(), 1);
    }

    #[test]
    fn global_indices_are_contiguous() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(
            &mut fe,
            0,
            Some(vec![Instr::alu(Addr::new(0)), Instr::alu(Addr::new(4))]),
        );
        cycle(&mut fe, 1, Some(vec![Instr::alu(Addr::new(64))]));
        assert_eq!(fe.ftq[0].start, 0);
        assert_eq!(fe.ftq[1].start, 2);
        assert_eq!(fe.instructions_entered(), 3);
    }

    #[test]
    fn ftq_entries_resolve_their_instructions_through_the_arena() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(
            &mut fe,
            0,
            Some(vec![Instr::alu(Addr::new(0)), Instr::alu(Addr::new(4))]),
        );
        cycle(&mut fe, 1, Some(vec![Instr::alu(Addr::new(64))]));
        let e0 = fe.ftq[0];
        assert_eq!(e0.len, 2);
        assert_eq!(fe.ftq.arena().get(e0.start).pc(), Addr::new(0));
        assert_eq!(fe.ftq.arena().get(e0.start + 1).pc(), Addr::new(4));
        let e1 = fe.ftq[1];
        assert_eq!(fe.ftq.arena().get(e1.start).pc(), Addr::new(64));
        // Popping keeps later entries valid, and the popped run's
        // instructions stay readable until dispatch releases them.
        fe.ftq.pop_front();
        assert_eq!(fe.ftq.arena().get(fe.ftq[0].start).pc(), Addr::new(64));
        assert_eq!(fe.ftq.arena().get(e0.start + 1).pc(), Addr::new(4));
        fe.ftq.arena_mut().release_to(e1.start);
        assert_eq!(fe.ftq.arena().get(e1.start).pc(), Addr::new(64));
    }

    #[test]
    fn arena_grows_without_invalidating_positions() {
        let mut ftq = Ftq::new(256);
        // Push far more instructions than ARENA_INITIAL while holding
        // entries live so the arena must grow.
        let runs: Vec<Vec<Instr>> = (0..128u64)
            .map(|r| {
                (0..16u64)
                    .map(|k| Instr::alu(Addr::new(r * 64 + k * 4)))
                    .collect()
            })
            .collect();
        for instrs in &runs {
            push_run(&mut ftq, FtqEntry::default(), instrs);
        }
        for (r, instrs) in runs.iter().enumerate() {
            let e = ftq[r];
            for (k, want) in instrs.iter().enumerate() {
                assert_eq!(ftq.arena().get(e.start + k as u64).pc(), want.pc());
            }
        }
    }

    #[test]
    fn ftq_ring_wraps_across_many_push_pop_cycles() {
        let mut ftq = Ftq::new(4);
        let mut popped = 0u64;
        let mut pushed = 0u64;
        for round in 0..50u64 {
            while ftq.len() < 4 {
                push_run(
                    &mut ftq,
                    FtqEntry::default(),
                    &[Instr::alu(Addr::new(pushed * 4))],
                );
                pushed += 1;
            }
            let take = 1 + (round % 3) as usize;
            for _ in 0..take.min(ftq.len()) {
                let e = ftq.pop_front().unwrap();
                assert_eq!(e.start, popped);
                popped += 1;
                ftq.arena_mut().release_to(popped);
            }
        }
        // FIFO order held across every wrap.
        assert!(popped > 50);
    }

    #[test]
    fn fdp_candidates_skip_the_head_and_unpredicted_runs() {
        let mut ftq = Ftq::new(4);
        // Wrap the ring so the live range straddles the slot array's
        // end: the head sits in the last slot.
        for _ in 0..4 {
            push_run(&mut ftq, FtqEntry::default(), &[]);
        }
        for _ in 0..3 {
            ftq.pop_front();
        }
        for b in 1..4u64 {
            push_run(
                &mut ftq,
                FtqEntry {
                    block: BlockAddr::new(b),
                    prefetchable: b != 2,
                    ..FtqEntry::default()
                },
                &[],
            );
        }
        let mut blocks = Vec::new();
        ftq.fdp_scan(1, |b| {
            blocks.push(b.block.raw());
            ScanVerdict::Issued
        });
        assert_eq!(blocks, vec![1, 3], "head and unpredicted run excluded");
    }

    #[test]
    fn fdp_memo_prefix_counts_without_revisiting() {
        let mut ftq = Ftq::new(8);
        for b in 0..5u64 {
            push_run(
                &mut ftq,
                FtqEntry {
                    block: BlockAddr::new(b),
                    prefetchable: b != 2,
                    ..FtqEntry::default()
                },
                &[Instr::alu(Addr::new(b * 64))],
            );
        }
        // Blocks 1 and 3 filter, 4 issues: the prefix stops before 4.
        let verdict = |b: TaggedBlock| {
            if b.block.raw() == 4 {
                ScanVerdict::Issued
            } else {
                ScanVerdict::Filtered
            }
        };
        assert_eq!(ftq.fdp_scan(7, verdict), 0);
        let prefix: Vec<u64> = ftq.memo_prefix(7).map(|e| e.block.raw()).collect();
        assert_eq!(prefix, vec![1, 3]);
        // A rescan under the same stamp counts both and visits only 4.
        let mut visited = Vec::new();
        let memo = ftq.fdp_scan(7, |b| {
            visited.push(b.block.raw());
            verdict(b)
        });
        assert_eq!((memo, visited), (2, vec![4]));
        // Popping hands the first candidate to the head; a new stamp
        // empties the prefix.
        ftq.pop_front();
        assert_eq!(ftq.memo_prefix(7).map(|e| e.block.raw()).next(), Some(3));
        assert_eq!(ftq.memo_prefix(8).count(), 0);
        assert_eq!(ftq.fdp_scan(8, verdict), 0);
    }

    #[test]
    fn decode_queue_is_a_window_of_the_arena() {
        use crate::backend::Backend;
        use crate::mem::MemoryHierarchy;
        use acic_trace::GroupedRuns;
        // A deep FTQ lets the BPU run far enough ahead to outgrow the
        // arena's initial ring, and the trace wraps it several times.
        let cfg = SimConfig {
            ftq_entries: 160,
            ..SimConfig::default()
        };
        let mut fe = FrontEnd::new(&cfg);
        let mut be = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::new(&cfg);
        let branch_at = 1000u64;
        let pc = |i: u64| Addr::new(0x4000 + 4 * i);
        let trace: Vec<Instr> = (0..6000u64)
            .map(|i| match i {
                // A cold indirect branch: a certain misprediction.
                _ if i == branch_at => Instr::branch(pc(i), pc(i + 1), true, BranchClass::Indirect),
                _ if i % 7 == 3 => Instr::load(pc(i), Addr::new(0x9000_0000 + 64 * i)),
                _ => Instr::alu(pc(i)),
            })
            .collect();
        let mut runs = GroupedRuns::new(trace.iter().copied());
        let mut dispatched = Vec::new();
        let mut resolutions = 0;
        let mut popped_while_queued = 0;
        let mut now = 0;
        while !(fe.drained() && be.drained()) {
            now += 1;
            assert!(now < 1_000_000, "pipeline wedged");
            be.retire(now);
            // The decode queue's instructions, read where they sit.
            let first = be.dq_tail() - (cfg.decode_queue_entries - be.dq_space()) as u64;
            let queued: Vec<Addr> = (first..be.dq_tail())
                .map(|p| fe.ftq.arena().get(p).pc())
                .collect();
            let awaited = fe.awaited_branch();
            if let Some(done) = be.dispatch(now, &mut mem, fe.ftq.arena_mut(), awaited) {
                assert_eq!(awaited, Some(branch_at), "only the awaited branch resolves");
                fe.on_branch_resolved(done);
                resolutions += 1;
            }
            let still_queued = cfg.decode_queue_entries - be.dq_space();
            dispatched.extend_from_slice(&queued[..queued.len() - still_queued]);
            // Dispatch released what it read, and only that.
            assert_eq!(fe.ftq.arena().head, be.dq_tail() - still_queued as u64);
            if let Some(head) = fe.ftq.front() {
                let end = head.start + head.len as u64;
                let n = (end - be.dq_tail()).min(be.dq_space() as u64).min(6);
                be.deliver(n as usize);
                if be.dq_tail() == end {
                    let e = fe.ftq.pop_front().expect("a head");
                    // The popped run still waits in the decode queue,
                    // readable in the arena until dispatch.
                    let last = e.start + e.len as u64 - 1;
                    assert_eq!(fe.ftq.arena().get(last).pc(), pc(last));
                    popped_while_queued += 1;
                }
            }
            fe.bpu_cycle(now, |arena| runs.next_run_with(|i| arena.push(i)));
        }
        let want: Vec<Addr> = trace.iter().map(|i| i.pc()).collect();
        assert_eq!(dispatched, want, "dispatch order is trace order");
        assert_eq!(resolutions, 1);
        assert_eq!(be.retired, trace.len() as u64);
        assert!(popped_while_queued > 0);
        assert!(
            fe.ftq.arena().buf.len() > ARENA_INITIAL,
            "the arena grew while wrapping"
        );
    }

    /// Whether the memo test's filter passes `block` under `stamp`: a
    /// deterministic verdict per (block, stamp), like the engine's
    /// filter under one scan key.
    fn filters(block: TaggedBlock, stamp: u64) -> bool {
        !acic_types::hash::mix2(block.block.raw(), stamp).is_multiple_of(3)
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push { block: u64, prefetchable: bool },
        Pop,
        Bump,
        Scan { room: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u64..12, any::<bool>(), 0u64..4).prop_map(|(kind, block, prefetchable, room)| {
            match kind {
                0..=2 => Op::Push {
                    block,
                    prefetchable,
                },
                3 | 4 => Op::Pop,
                5 => Op::Bump,
                _ => Op::Scan { room },
            }
        })
    }

    /// One scan's outcome: filtered count, issues, width break.
    type Outcome = (u64, u64, bool);

    /// The engine's scan body, judging with [`filters`]: stop at the
    /// width, count a memo hit, probe, stop on `room` exhausted, or
    /// issue.
    fn engine_visit<'a>(
        out: &'a mut Outcome,
        width: u64,
        room: u64,
        stamp: u64,
    ) -> impl FnMut(TaggedBlock, bool) -> ScanVerdict + 'a {
        move |block, memo_hit| {
            if out.1 >= width {
                out.2 = true;
                return ScanVerdict::Stop;
            }
            if memo_hit {
                assert!(filters(block, stamp), "stale memo for {block:?}");
                out.0 += 1;
                return ScanVerdict::Filtered;
            }
            if filters(block, stamp) {
                out.0 += 1;
                return ScanVerdict::Filtered;
            }
            if out.1 >= room {
                out.0 += 1;
                return ScanVerdict::Stop;
            }
            out.1 += 1;
            ScanVerdict::Issued
        }
    }

    /// The scan the prefix replaces: every candidate behind the head,
    /// with a per-entry stamp (`stamps`, parallel to `queue`) as the
    /// only memo.
    fn brute_scan(
        queue: &[FtqEntry],
        stamps: &mut [u64],
        width: u64,
        room: u64,
        stamp: u64,
    ) -> Outcome {
        let mut out = (0, 0, false);
        {
            let mut visit = engine_visit(&mut out, width, room, stamp);
            for (e, s) in queue.iter().zip(stamps.iter_mut()).skip(1) {
                if !e.prefetchable {
                    continue;
                }
                match visit(e.tagged(), *s == stamp) {
                    ScanVerdict::Filtered => *s = stamp,
                    ScanVerdict::Issued => {}
                    ScanVerdict::Stop => break,
                }
            }
        }
        out
    }

    proptest! {
        #[test]
        fn fdp_memo_prefix_matches_a_brute_force_recount(
            width in 0u64..3,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let mut ftq = Ftq::new(6);
            let mut queue: Vec<FtqEntry> = Vec::new();
            let mut stamps: Vec<u64> = Vec::new();
            let mut stamp = 1u64;
            for op in ops {
                match op {
                    Op::Push { block, prefetchable } => {
                        if ftq.len() < 6 {
                            let e = FtqEntry {
                                block: BlockAddr::new(block),
                                prefetchable,
                                ..FtqEntry::default()
                            };
                            push_run(&mut ftq, e, &[Instr::alu(Addr::new(block * 64))]);
                            queue.push(*ftq.get(ftq.len() - 1));
                            stamps.push(0);
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(
                            ftq.pop_front().map(|e| e.start),
                            (!queue.is_empty()).then(|| {
                                stamps.remove(0);
                                queue.remove(0).start
                            })
                        );
                    }
                    Op::Bump => stamp += 1,
                    Op::Scan { room } => {
                        let mut got = (0, 0, false);
                        let memo = {
                            let mut visit = engine_visit(&mut got, width, room, stamp);
                            ftq.fdp_scan(stamp, |b| visit(b, false))
                        };
                        got.0 += memo;
                        prop_assert_eq!(got, brute_scan(&queue, &mut stamps, width, room, stamp));
                    }
                }
                // The prefix is a run of the oracle's memo hits.
                let prefix: Vec<u64> = ftq.memo_prefix(stamp).map(|e| e.start).collect();
                let hits: Vec<u64> = queue
                    .iter()
                    .zip(&stamps)
                    .skip(1)
                    .filter(|(e, &s)| e.prefetchable && s == stamp)
                    .map(|(e, _)| e.start)
                    .take(prefix.len())
                    .collect();
                prop_assert_eq!(&prefix, &hits);
                for e in ftq.memo_prefix(stamp) {
                    prop_assert!(filters(e.tagged(), stamp));
                }
            }
        }
    }
}
