//! The backend: decode queue, ROB, execution latencies and in-order
//! retirement.
//!
//! Deliberately simple (DESIGN.md §6): instructions dispatch in order
//! into the ROB, complete after a latency (loads consult the memory
//! hierarchy), and retire in order. This converts front-end stalls
//! and cache misses into cycles without modeling a full scheduler.
//!
//! Nothing here holds an instruction. The front end's [`InstrArena`]
//! does, at positions equal to global indices, and every in-flight
//! instruction occupies one contiguous window of them: positions
//! `[retired, dq_head)` are in the ROB and `[dq_head, dq_tail)` in the
//! decode queue. Fetch delivers by moving `dq_tail`, dispatch reads
//! each instruction from the arena once and releases it there, and the
//! ROB keeps only completion cycles, in a ring indexed by position.

use crate::config::SimConfig;
use crate::frontend::InstrArena;
use crate::mem::MemoryHierarchy;
use acic_trace::InstrKind;
use acic_types::Cycle;

/// Decode queue + ROB + retirement.
pub struct Backend {
    /// Arena position of the oldest decode-queue instruction; the ROB
    /// holds `[retired, dq_head)`.
    dq_head: u64,
    /// Arena position one past the newest decode-queue instruction:
    /// the next position fetch delivers.
    dq_tail: u64,
    /// Decode queue capacity (Table II: 60 entries).
    dq_capacity: u64,
    /// Completion cycle of each ROB entry, at `position & rob_mask`.
    rob: Vec<Cycle>,
    rob_mask: u64,
    rob_capacity: u64,
    dispatch_width: u32,
    retire_width: u32,
    long_alu_latency: u64,
    /// Retired instruction count — also the arena position of the ROB
    /// head, since every instruction the front end admits retires in
    /// order.
    pub retired: u64,
}

impl Backend {
    /// Builds the backend from the simulation config.
    pub fn new(cfg: &SimConfig) -> Self {
        let rob_slots = cfg.rob_entries.max(1).next_power_of_two();
        Backend {
            dq_head: 0,
            dq_tail: 0,
            dq_capacity: cfg.decode_queue_entries as u64,
            rob: vec![0; rob_slots],
            rob_mask: rob_slots as u64 - 1,
            rob_capacity: cfg.rob_entries as u64,
            dispatch_width: cfg.decode_width,
            retire_width: cfg.retire_width,
            long_alu_latency: 4,
            retired: 0,
        }
    }

    /// Free slots in the decode queue.
    pub fn dq_space(&self) -> usize {
        (self.dq_capacity - (self.dq_tail - self.dq_head)) as usize
    }

    /// Arena position fetch delivers next (one past the decode queue's
    /// newest instruction).
    pub fn dq_tail(&self) -> u64 {
        self.dq_tail
    }

    /// Fetch moved the next `n` arena positions into the decode queue.
    pub fn deliver(&mut self, n: usize) {
        self.dq_tail += n as u64;
        debug_assert!(self.dq_tail - self.dq_head <= self.dq_capacity);
    }

    /// Whether every structure is empty (pipeline drained).
    pub fn drained(&self) -> bool {
        self.retired == self.dq_tail
    }

    /// Completion cycle of the oldest ROB entry, or `None` when the
    /// ROB is empty. Retirement is in order, so no retire can happen
    /// before this cycle (an already-due head means the next cycle
    /// retires more — the width limit, not latency, is the stall).
    pub fn next_retire_at(&self) -> Option<Cycle> {
        (self.retired < self.dq_head).then(|| self.rob[(self.retired & self.rob_mask) as usize])
    }

    /// Whether dispatch can move anything this cycle: the decode queue
    /// holds an instruction and the ROB has a free slot.
    pub fn can_dispatch(&self) -> bool {
        self.dq_head < self.dq_tail && self.dq_head - self.retired < self.rob_capacity
    }

    /// Retires completed instructions in order.
    pub fn retire(&mut self, now: Cycle) {
        let end = self.dq_head.min(self.retired + self.retire_width as u64);
        while self.retired < end && self.rob[(self.retired & self.rob_mask) as usize] <= now {
            self.retired += 1;
        }
    }

    /// Dispatches from the decode queue into the ROB, computing
    /// completion times, reading each instruction from `arena` and
    /// releasing it there. Returns the completion cycle of the branch
    /// at global index `awaited` (the one the stalled BPU waits on) if
    /// it dispatched.
    pub fn dispatch(
        &mut self,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        arena: &mut InstrArena,
        awaited: Option<u64>,
    ) -> Option<Cycle> {
        let end = self
            .dq_tail
            .min(self.dq_head + self.dispatch_width as u64)
            .min(self.retired + self.rob_capacity);
        let mut resolved = None;
        while self.dq_head < end {
            let pos = self.dq_head;
            let instr = arena.get(pos);
            let done = match instr.kind {
                InstrKind::Alu => now + 1,
                InstrKind::LongAlu => now + self.long_alu_latency,
                InstrKind::Load { addr } => mem.access_data(addr, instr.asid(), now, false),
                InstrKind::Store { addr } => mem.access_data(addr, instr.asid(), now, true),
                InstrKind::Branch { .. } => {
                    if awaited == Some(pos) {
                        resolved = Some(now + 1);
                    }
                    now + 1
                }
            };
            self.rob[(pos & self.rob_mask) as usize] = done;
            self.dq_head += 1;
        }
        arena.release_to(self.dq_head);
        resolved
    }
}

impl core::fmt::Debug for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Backend")
            .field("dq", &(self.dq_tail - self.dq_head))
            .field("rob", &(self.dq_head - self.retired))
            .field("retired", &self.retired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::Instr;
    use acic_types::Addr;

    fn backend() -> (Backend, MemoryHierarchy, InstrArena) {
        let cfg = SimConfig::default();
        (
            Backend::new(&cfg),
            MemoryHierarchy::new(&cfg),
            InstrArena::new(),
        )
    }

    /// Fetch's part: writes `instrs` into the arena and delivers them
    /// into the decode queue.
    fn deliver(b: &mut Backend, arena: &mut InstrArena, instrs: impl IntoIterator<Item = Instr>) {
        let mut n = 0;
        for i in instrs {
            arena.push(i);
            n += 1;
        }
        b.deliver(n);
    }

    fn alus(n: u64) -> impl Iterator<Item = Instr> {
        (0..n).map(|i| Instr::alu(Addr::new(i * 4)))
    }

    #[test]
    fn dispatch_and_retire_width_limits() {
        let (mut b, mut m, mut a) = backend();
        deliver(&mut b, &mut a, alus(20));
        b.dispatch(0, &mut m, &mut a, None);
        assert_eq!(b.dq_tail - b.dq_head, 14, "6-wide dispatch");
        b.retire(1);
        assert_eq!(b.retired, 6, "6-wide retire");
    }

    #[test]
    fn in_order_retirement_blocks_on_slow_head() {
        let (mut b, mut m, mut a) = backend();
        // A cold load followed by fast ALUs: nothing retires until the
        // load completes.
        deliver(
            &mut b,
            &mut a,
            core::iter::once(Instr::load(Addr::new(0), Addr::new(0x9999_0000))).chain(alus(3)),
        );
        b.dispatch(0, &mut m, &mut a, None);
        b.retire(10);
        assert_eq!(b.retired, 0, "head load still outstanding");
        b.retire(10_000);
        assert_eq!(b.retired, 4);
        assert!(b.drained());
    }

    #[test]
    fn branches_report_resolution() {
        let (mut b, mut m, mut a) = backend();
        // Global index 42 is the branch's arena position.
        deliver(&mut b, &mut a, alus(42));
        let branch = Instr::branch(
            Addr::new(0),
            Addr::new(64),
            true,
            acic_trace::BranchClass::Direct,
        );
        deliver(&mut b, &mut a, [branch, branch]);
        let mut now = 0;
        while b.dq_head < 42 {
            assert_eq!(b.dispatch(now, &mut m, &mut a, Some(42)), None);
            b.retire(now);
            now += 1;
        }
        // Only the awaited branch reports; the branch after it does not.
        assert_eq!(b.dispatch(5, &mut m, &mut a, Some(42)), Some(6));
        assert_eq!(b.dq_head, 44);
        deliver(&mut b, &mut a, [branch]);
        assert_eq!(b.dispatch(7, &mut m, &mut a, None), None);
    }

    #[test]
    fn rob_capacity_limits_dispatch() {
        let cfg = SimConfig {
            rob_entries: 8,
            ..SimConfig::default()
        };
        let mut b = Backend::new(&cfg);
        let mut m = MemoryHierarchy::new(&cfg);
        let mut a = InstrArena::new();
        deliver(&mut b, &mut a, alus(20));
        b.dispatch(0, &mut m, &mut a, None);
        b.dispatch(0, &mut m, &mut a, None);
        assert_eq!(b.dq_head - b.retired, 8);
        assert!(!b.can_dispatch(), "a full ROB blocks dispatch");
    }
}
