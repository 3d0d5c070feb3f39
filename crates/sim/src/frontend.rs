//! The decoupled front end: branch-prediction unit (BPU) running
//! ahead of fetch, the Fetch Target Queue, and fetch-state tracking.
//!
//! Trace-driven semantics: the BPU consumes fetch-block runs from the
//! trace, predicts every branch, and pushes runs into the FTQ. A
//! mispredicted branch stalls the BPU until the backend resolves that
//! branch (plus a redirect penalty) — the wrong path itself is not
//! simulated. BTB misses on taken branches charge a short
//! decode-redirect bubble.

use crate::branch::btb::Btb;
use crate::branch::tage::Tage;
use crate::config::{BranchSwitchMode, SimConfig};
use crate::report::BranchStats;
use acic_trace::{BranchClass, Instr, InstrKind, RunInstrs};
use acic_types::{Addr, Asid, BlockAddr, Cycle, ASID_IDENT_SHIFT};

/// One fetch-target (block run) in the FTQ. The run's instructions
/// live in the owning [`Ftq`]'s instruction arena; the entry carries
/// only their `[start, start + len)` position range.
#[derive(Clone, Copy, Debug)]
pub struct FtqEntry {
    /// The instruction block to fetch.
    pub block: BlockAddr,
    /// Address space of the run.
    pub asid: Asid,
    /// Arena position of the run's first instruction (read it back
    /// with [`InstrArena::get`]).
    pub start: u64,
    /// Number of instructions in the run.
    pub len: u32,
    /// Global index of the first instruction.
    pub first_index: u64,
    /// Whether the demand i-cache access has been performed.
    pub accessed: bool,
    /// Cycle at which the block's bytes are available.
    pub ready_at: Cycle,
    /// Whether the block must be filled into the L1i when ready.
    pub needs_fill: bool,
    /// The block's next-use position captured at access time (for
    /// OPT's fill decision).
    pub next_use: u64,
    /// Instructions already delivered to decode.
    pub delivered: usize,
    /// Whether a prefetcher may act on this entry: false when the BPU
    /// reached this run only via a BTB miss or a misprediction — a
    /// real fetch-directed prefetcher cannot see past an unpredicted
    /// redirect.
    pub prefetchable: bool,
    /// The engine's prefetch-scan stamp under which this entry last
    /// filtered (ASID mismatch, resident, or in flight); 0 on push. A
    /// match with the current scan's stamp means the verdict still
    /// holds and the entry counts as filtered without probing.
    pub pf_stamp: u64,
}

impl Default for FtqEntry {
    fn default() -> Self {
        FtqEntry {
            block: BlockAddr::new(0),
            asid: Asid::HOST,
            start: 0,
            len: 0,
            first_index: 0,
            accessed: false,
            ready_at: 0,
            needs_fill: false,
            next_use: acic_trace::NO_NEXT_USE,
            delivered: 0,
            prefetchable: true,
            pf_stamp: 0,
        }
    }
}

/// Ring-buffer instruction arena backing the FTQ entries.
///
/// Positions are *absolute* (monotonically increasing `u64`), so an
/// entry's `start` stays valid across wraps and growth; the ring only
/// reclaims space when the FTQ pops an entry (`release_to`). Capacity
/// is a power of two and doubles on the cold overflow path, preserving
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
/// per 64 B fetch block leaves headroom; odd configs grow lazily.
const ARENA_INITIAL: usize = 1024;

impl InstrArena {
    fn new() -> Self {
        InstrArena {
            buf: vec![Instr::alu(Addr::new(0)); ARENA_INITIAL],
            mask: ARENA_INITIAL as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    /// Copies a run's instructions into the ring, returning the
    /// absolute position of the first one.
    fn push_run(&mut self, instrs: &[Instr]) -> u64 {
        let needed = self.tail - self.head + instrs.len() as u64;
        if needed > self.buf.len() as u64 {
            self.grow(needed);
        }
        let start = self.tail;
        for (k, i) in instrs.iter().enumerate() {
            self.buf[((start + k as u64) & self.mask) as usize] = *i;
        }
        self.tail = start + instrs.len() as u64;
        start
    }

    /// Cold path: doubles capacity until `needed` fits, re-laying the
    /// live range so absolute positions keep resolving.
    fn grow(&mut self, needed: u64) {
        let mut cap = self.buf.len() * 2;
        while (cap as u64) < needed {
            cap *= 2;
        }
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

    /// Reclaims everything before `pos` (FIFO release on entry pop).
    fn release_to(&mut self, pos: u64) {
        debug_assert!(self.head <= pos && pos <= self.tail);
        self.head = pos;
    }
}

/// The Fetch Target Queue: a fixed-capacity entry ring plus the
/// instruction arena its entries index into. Replaces the former
/// `VecDeque<FtqEntry>`-of-`Vec<Instr>` shape — pushes and pops are
/// allocation-free once the arena has warmed.
#[derive(Debug)]
pub struct Ftq {
    entries: Vec<FtqEntry>,
    head: usize,
    len: usize,
    arena: InstrArena,
}

impl Ftq {
    /// Builds an empty FTQ with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Ftq {
            entries: vec![FtqEntry::default(); capacity.max(1)],
            head: 0,
            len: 0,
            arena: InstrArena::new(),
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

    /// The oldest entry, mutably, alongside the arena its instruction
    /// range resolves in (split borrow: fetch delivery mutates the
    /// entry while reading instructions).
    pub fn front_mut_with_arena(&mut self) -> Option<(&mut FtqEntry, &InstrArena)> {
        (self.len > 0).then(|| (&mut self.entries[self.head], &self.arena))
    }

    /// Pops the oldest entry, releasing its arena range.
    pub fn pop_front(&mut self) -> Option<FtqEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.entries[self.head];
        self.arena.release_to(e.start + e.len as u64);
        self.head = (self.head + 1) % self.entries.len();
        self.len -= 1;
        if self.len == 0 {
            // Nothing live: rebase the entry ring (cheap tidy; arena
            // positions are absolute and need no rebase).
            self.head = 0;
        }
        Some(e)
    }

    /// Pushes an entry whose instructions are copied into the arena.
    ///
    /// # Panics
    ///
    /// Panics when the ring is full — the BPU checks capacity before
    /// producing.
    pub fn push(&mut self, mut entry: FtqEntry, instrs: &[Instr]) {
        assert!(self.len < self.entries.len(), "FTQ overflow");
        entry.start = self.arena.push_run(instrs);
        entry.len = instrs.len() as u32;
        entry.pf_stamp = 0;
        let slot = self.slot(self.len);
        self.entries[slot] = entry;
        self.len += 1;
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        (0..self.len).map(|i| &self.entries[self.slot(i)])
    }

    /// Fetch-directed prefetching's candidates: the prefetchable
    /// entries behind the head (the head is the demand access), oldest
    /// first.
    pub fn fdp_candidates_mut(&mut self) -> impl Iterator<Item = &mut FtqEntry> {
        let (wrapped, from_head) = self.entries.split_at_mut(self.head);
        from_head
            .iter_mut()
            .chain(wrapped)
            .take(self.len)
            .skip(1)
            .filter(|e| e.prefetchable)
    }

    /// The instruction arena (resolve an entry's `start..start+len`).
    pub fn arena(&self) -> &InstrArena {
        &self.arena
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
    next_index: u64,
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
            next_index: 0,
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

    /// Global index of the next instruction the BPU will assign.
    pub fn instructions_entered(&self) -> u64 {
        self.next_index
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
    /// instructions to cover 8192 BTB entries). Equivalent to
    /// [`FrontEnd::train_run`] without run grouping; handles context
    /// switches per the configured switch mode.
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

    /// Warmup-phase training: runs the prediction structures over one
    /// fetch run with no timing — no FTQ entry, no stall modeling, no
    /// global indices. Context switches still flush or re-key state
    /// per the configured switch mode. Call between
    /// [`FrontEnd::set_stats_enabled`]`(false)`/`(true)` so warmup
    /// traffic stays uncounted.
    pub fn train_run(&mut self, run: &RunInstrs) {
        for instr in run.instrs.iter() {
            self.warm_branches(instr);
        }
    }

    /// The backend resolved the branch with global `index` at `done`;
    /// unstall the BPU if it was the one being waited on.
    pub fn on_branch_resolved(&mut self, index: u64, done: Cycle) {
        if self.state == (BpuState::WaitingOnBranch { index }) {
            self.state = BpuState::Running {
                available_at: done + self.redirect_penalty,
            };
        }
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
    /// fetch-block run (written into `scratch`, whose buffer is reused
    /// across calls — the hot path allocates nothing) and pushes it
    /// into the FTQ. `feed` returning `false` means the stream is over
    /// (trace end or window budget); the front end latches
    /// `trace_done` and the caller disambiguates which.
    pub fn bpu_cycle<F>(&mut self, now: Cycle, scratch: &mut RunInstrs, mut feed: F)
    where
        F: FnMut(&mut RunInstrs) -> bool,
    {
        let BpuState::Running { available_at } = self.state else {
            return;
        };
        if now < available_at || self.ftq.len() >= self.capacity || self.trace_done {
            return;
        }
        if !feed(scratch) {
            self.trace_done = true;
            return;
        }
        let run = scratch;
        if run.asid != self.cur_asid {
            self.on_context_switch(run.asid);
        }

        let first_index = self.next_index;
        self.next_index += run.instrs.len() as u64;
        let mut bubble = 0u64;
        let mut mispredicted_at: Option<u64> = None;

        for (k, instr) in run.instrs.iter().enumerate() {
            let InstrKind::Branch {
                target,
                taken,
                class,
            } = instr.kind
            else {
                continue;
            };
            let index = first_index + k as u64;
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

        self.ftq.push(
            FtqEntry {
                block: run.block,
                asid: run.asid,
                first_index,
                prefetchable: bubble == 0 && mispredicted_at.is_none(),
                ..FtqEntry::default()
            },
            &run.instrs,
        );

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
            .field("next_index", &self.next_index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::Addr;

    fn run_of(instrs: Vec<Instr>) -> RunInstrs {
        RunInstrs {
            block: instrs[0].pc().block(),
            asid: instrs[0].asid(),
            instrs,
        }
    }

    /// Drives one BPU cycle fed with `run` (`None` = stream over).
    fn cycle(fe: &mut FrontEnd, now: Cycle, run: Option<RunInstrs>) {
        let mut scratch = RunInstrs::scratch();
        fe.bpu_cycle(now, &mut scratch, |out| match &run {
            Some(r) => {
                *out = r.clone();
                true
            }
            None => false,
        });
    }

    #[test]
    fn pushes_runs_until_full() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        for now in 0..30u64 {
            cycle(
                &mut fe,
                now,
                Some(run_of(vec![Instr::alu(Addr::new(now * 64))])),
            );
        }
        assert_eq!(fe.ftq.len(), cfg.ftq_entries);
    }

    #[test]
    fn mispredict_stalls_until_resolution() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        // An indirect branch with no BTB entry: guaranteed mispredict.
        let br = Instr::branch(Addr::new(0), Addr::new(0x100), true, BranchClass::Indirect);
        cycle(&mut fe, 0, Some(run_of(vec![br])));
        assert_eq!(fe.ftq.len(), 1);
        assert_eq!(fe.bpu_horizon(), None, "stalled BPU reports no horizon");
        // Stalled: further cycles do nothing.
        cycle(&mut fe, 1, Some(run_of(vec![Instr::alu(Addr::new(64))])));
        assert_eq!(fe.ftq.len(), 1);
        // Resolve the branch (global index 0) at cycle 10.
        fe.on_branch_resolved(0, 10);
        assert_eq!(fe.bpu_horizon(), Some(10 + cfg.redirect_penalty));
        cycle(
            &mut fe,
            10 + cfg.redirect_penalty,
            Some(run_of(vec![Instr::alu(Addr::new(64))])),
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
        cycle(&mut fe, 0, Some(run_of(vec![br])));
        fe.on_branch_resolved(0, 5);
        // Second encounter: BTB now has the target; no stall.
        let before = fe.stats().mispredicts;
        cycle(&mut fe, 20, Some(run_of(vec![br])));
        assert_eq!(fe.stats().mispredicts, before);
        assert_eq!(fe.ftq.len(), 2);
    }

    #[test]
    fn train_run_warms_predictors_without_stats() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        let br = Instr::branch(Addr::new(0), Addr::new(0x100), true, BranchClass::Indirect);
        fe.set_stats_enabled(false);
        fe.train_run(&run_of(vec![br]));
        fe.set_stats_enabled(true);
        let s = fe.stats();
        assert_eq!(s.mispredicts, 0);
        assert_eq!(s.btb.lookups, 0, "warmup lookups are uncounted");
        // The trained target now predicts: no mispredict, no stall.
        cycle(&mut fe, 0, Some(run_of(vec![br])));
        assert_eq!(fe.stats().mispredicts, 0);
        cycle(&mut fe, 1, Some(run_of(vec![Instr::alu(Addr::new(64))])));
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
        cycle(&mut fe, 1, Some(run_of(vec![Instr::alu(Addr::new(0))])));
        assert_eq!(fe.ftq.len(), 1);
    }

    #[test]
    fn global_indices_are_contiguous() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(
            &mut fe,
            0,
            Some(run_of(vec![
                Instr::alu(Addr::new(0)),
                Instr::alu(Addr::new(4)),
            ])),
        );
        cycle(&mut fe, 1, Some(run_of(vec![Instr::alu(Addr::new(64))])));
        assert_eq!(fe.ftq[0].first_index, 0);
        assert_eq!(fe.ftq[1].first_index, 2);
        assert_eq!(fe.instructions_entered(), 3);
    }

    #[test]
    fn ftq_entries_resolve_their_instructions_through_the_arena() {
        let cfg = SimConfig::default();
        let mut fe = FrontEnd::new(&cfg);
        cycle(
            &mut fe,
            0,
            Some(run_of(vec![
                Instr::alu(Addr::new(0)),
                Instr::alu(Addr::new(4)),
            ])),
        );
        cycle(&mut fe, 1, Some(run_of(vec![Instr::alu(Addr::new(64))])));
        let e0 = fe.ftq[0];
        assert_eq!(e0.len, 2);
        assert_eq!(fe.ftq.arena().get(e0.start).pc(), Addr::new(0));
        assert_eq!(fe.ftq.arena().get(e0.start + 1).pc(), Addr::new(4));
        let e1 = fe.ftq[1];
        assert_eq!(fe.ftq.arena().get(e1.start).pc(), Addr::new(64));
        // Popping releases the arena range and keeps later entries valid.
        fe.ftq.pop_front();
        assert_eq!(fe.ftq.arena().get(fe.ftq[0].start).pc(), Addr::new(64));
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
            ftq.push(FtqEntry::default(), instrs);
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
                ftq.push(
                    FtqEntry {
                        first_index: pushed,
                        ..FtqEntry::default()
                    },
                    &[Instr::alu(Addr::new(pushed * 4))],
                );
                pushed += 1;
            }
            let take = 1 + (round % 3) as usize;
            for _ in 0..take.min(ftq.len()) {
                let e = ftq.pop_front().unwrap();
                assert_eq!(e.first_index, popped);
                popped += 1;
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
            ftq.push(FtqEntry::default(), &[]);
        }
        for _ in 0..3 {
            ftq.pop_front();
        }
        for b in 1..4u64 {
            ftq.push(
                FtqEntry {
                    block: BlockAddr::new(b),
                    prefetchable: b != 2,
                    ..FtqEntry::default()
                },
                &[],
            );
        }
        let blocks: Vec<u64> = ftq.fdp_candidates_mut().map(|e| e.block.raw()).collect();
        assert_eq!(blocks, vec![1, 3], "head and unpredicted run excluded");
    }
}
