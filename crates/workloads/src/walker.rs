//! The deterministic program walker: executes requests against a
//! generated [`Program`], emitting the dynamic instruction stream.

use crate::profile::AppProfile;
use crate::program::{Program, Terminator, HEAP_BASE, STACK_BASE};
use acic_trace::{BranchClass, Instr};
use acic_types::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One activation record on the walker's call stack.
#[derive(Debug)]
struct Frame {
    fn_id: usize,
    seg: usize,
    /// Per-segment consecutive loop-iteration counters.
    loop_iters: Vec<u32>,
    /// Per-segment trip count chosen at loop entry (0 = not chosen).
    loop_trip: Vec<u32>,
    return_pc: Addr,
}

/// The dynamic instruction stream of a program.
///
/// The walker repeatedly executes *requests*: each request walks the
/// dispatcher, whose call sites fan out into zipf-selected warm
/// functions, which in turn call hot library functions and (rarely)
/// cold paths. All randomness comes from a seeded PRNG, so the stream
/// is identical on every pass — the property the two-pass Belady
/// oracle relies on.
///
/// One segment step emits into a sink. [`Walker::fill`] pushes a
/// counted stretch of the stream straight into a consumer (the freeze
/// path: a `PackedTraceBuilder`); the [`Iterator`] impl is a thin
/// adapter that steps into a buffer and pops it. Both run the same
/// step, so they yield the same stream, and a `fill` may stop
/// mid-segment: the rest of the segment waits in the buffer for the
/// next `fill` or `next`.
#[derive(Debug)]
pub struct Walker<'a> {
    program: &'a Program,
    profile: &'a AppProfile,
    rng: StdRng,
    /// `1 / (1 - min(heap_skew, 0.99))`: the heap-block power law's
    /// exponent.
    heap_exponent: f64,
    /// Instructions stepped but not yet handed out.
    buf: VecDeque<Instr>,
    stack: Vec<Frame>,
    /// Request type currently being served.
    current_type: usize,
    /// Next position within the type's warm-function sequence.
    warm_site: usize,
}

impl<'a> Walker<'a> {
    /// Starts a fresh walk (always from the same initial state).
    pub fn new(program: &'a Program, profile: &'a AppProfile) -> Self {
        Walker {
            program,
            profile,
            rng: StdRng::seed_from_u64(profile.seed ^ 0x57a1_c3d4_e5f6_0718),
            heap_exponent: 1.0 / (1.0 - profile.heap_skew.min(0.99)),
            buf: VecDeque::with_capacity(32),
            stack: Vec::with_capacity(4),
            current_type: 0,
            warm_site: 0,
        }
    }

    fn push_frame(&mut self, fn_id: usize, return_pc: Addr) {
        let segs = self.program.functions[fn_id].segments.len();
        self.stack.push(Frame {
            fn_id,
            seg: 0,
            loop_iters: vec![0; segs],
            loop_trip: vec![0; segs],
            return_pc,
        });
    }

    fn data_addr(&mut self, fn_id: usize) -> Addr {
        if self.rng.gen_bool(0.6) {
            // Stack frame: 4 blocks private to the function.
            let frame_base = STACK_BASE + fn_id as u64 * 256;
            Addr::new(frame_base + self.rng.gen_range(0..32u64) * 8)
        } else {
            // Heap: zipf-ish power-law over the footprint.
            let u: f64 = self.rng.gen_range(0.0..1.0f64);
            let block = (self.profile.heap_blocks as f64 * u.powf(self.heap_exponent)) as u64;
            let block = block.min(self.profile.heap_blocks - 1);
            Addr::new(HEAP_BASE + block * 64 + self.rng.gen_range(0..8u64) * 8)
        }
    }

    fn emit_body<F: FnMut(Instr)>(&mut self, fn_id: usize, start: Addr, count: u32, emit: &mut F) {
        for k in 0..count {
            let pc = start + k as u64 * 4;
            let draw: f64 = self.rng.gen_range(0.0..1.0);
            let p = self.profile;
            let instr = if draw < p.load_frac {
                let addr = self.data_addr(fn_id);
                Instr::load(pc, addr)
            } else if draw < p.load_frac + p.store_frac {
                let addr = self.data_addr(fn_id);
                Instr::store(pc, addr)
            } else if draw < p.load_frac + p.store_frac + p.long_alu_frac {
                Instr::long_alu(pc)
            } else {
                Instr::alu(pc)
            };
            emit(instr);
        }
    }

    /// Pushes the next `n` instructions of the stream into `out`.
    ///
    /// Buffered instructions go first; then whole segments are stepped
    /// straight into `out`, and whatever the last segment emits past
    /// `n` is buffered for the next call.
    pub fn fill<F: FnMut(Instr)>(&mut self, n: u64, mut out: F) {
        let buffered = (self.buf.len() as u64).min(n);
        self.buf.drain(..buffered as usize).for_each(&mut out);
        let mut left = n - buffered;
        let mut carry = std::mem::take(&mut self.buf);
        while left > 0 {
            self.step(&mut |i| {
                if left > 0 {
                    left -= 1;
                    out(i);
                } else {
                    carry.push_back(i);
                }
            });
        }
        self.buf = carry;
    }

    /// Executes one segment of the top frame, emitting its body and
    /// terminator branch into `emit`.
    fn step<F: FnMut(Instr)>(&mut self, emit: &mut F) {
        if self.stack.is_empty() {
            // New request: pick a request type and enter the
            // dispatcher. Its return jumps back to its own entry,
            // modeling the server event loop.
            let u: f64 = self.rng.gen_range(0.0..1.0);
            self.current_type = self.program.sample_type(u);
            self.warm_site = 0;
            let entry = self.program.functions[self.program.dispatcher].base;
            self.push_frame(self.program.dispatcher, entry);
        }
        let frame = self.stack.last().expect("frame pushed above");
        let (fn_id, seg_idx) = (frame.fn_id, frame.seg);
        // Borrowed from the program, not from `self`, so the segment's
        // terminator needs no clone while the walker state mutates.
        let program = self.program;
        let func = &program.functions[fn_id];
        let seg = &func.segments[seg_idx];
        let (start, body) = (seg.start, seg.body_instrs);
        self.emit_body(fn_id, start, body, emit);
        let branch_pc = start + body as u64 * 4;

        match seg.term {
            Terminator::FallThrough => {
                self.stack.last_mut().expect("frame").seg += 1;
            }
            Terminator::LoopBack {
                to,
                taken_prob: _,
                max_iters,
            } => {
                // Real loops mostly run their nominal trip count;
                // occasionally (10%) a data-dependent entry deviates.
                let deviate = self.rng.gen_bool(0.1);
                let target = func.segments[to].start;
                let frame = self.stack.last_mut().expect("frame");
                if frame.loop_trip[seg_idx] == 0 {
                    let mut trip = max_iters;
                    if deviate {
                        trip = (trip + 1).min(24);
                    }
                    frame.loop_trip[seg_idx] = trip;
                }
                let iters = &mut frame.loop_iters[seg_idx];
                let taken = *iters + 1 < frame.loop_trip[seg_idx];
                emit(Instr::branch(
                    branch_pc,
                    target,
                    taken,
                    BranchClass::Conditional,
                ));
                if taken {
                    frame.loop_iters[seg_idx] += 1;
                    frame.seg = to;
                } else {
                    frame.loop_iters[seg_idx] = 0;
                    frame.loop_trip[seg_idx] = 0;
                    frame.seg = seg_idx + 1;
                }
            }
            Terminator::Skip { over, taken_prob } => {
                let target_idx = seg_idx + 1 + over;
                let target = func.segments[target_idx].start;
                let taken = self.rng.gen_bool(taken_prob);
                emit(Instr::branch(
                    branch_pc,
                    target,
                    taken,
                    BranchClass::Conditional,
                ));
                let frame = self.stack.last_mut().expect("frame");
                frame.seg = if taken { target_idx } else { seg_idx + 1 };
            }
            Terminator::Call { ref callees, cold } => {
                let (callee, class) = if callees.is_empty() {
                    // Dynamic warm dispatch (virtual call): the
                    // request type dictates the callee sequence.
                    let seq = &program.types[self.current_type];
                    let callee = seq[self.warm_site % seq.len()];
                    self.warm_site += 1;
                    (callee, BranchClass::Indirect)
                } else if callees.len() == 1 {
                    (callees[0], BranchClass::Call)
                } else if cold {
                    // Cold paths scatter (error codes differ).
                    let i = self.rng.gen_range(0..callees.len());
                    (callees[i], BranchClass::Indirect)
                } else {
                    // Virtual dispatch is stable per request type.
                    let h = acic_types::hash::mix2(branch_pc.raw(), self.current_type as u64);
                    (
                        callees[(h % callees.len() as u64) as usize],
                        BranchClass::Indirect,
                    )
                };
                let target = program.functions[callee].base;
                emit(Instr::branch(branch_pc, target, true, class));
                let return_pc = branch_pc + 4;
                self.stack.last_mut().expect("frame").seg = seg_idx + 1;
                self.push_frame(callee, return_pc);
            }
            Terminator::Ret => {
                let frame = self.stack.pop().expect("frame");
                emit(Instr::branch(
                    branch_pc,
                    frame.return_pc,
                    true,
                    BranchClass::Return,
                ));
            }
        }
    }
}

impl Iterator for Walker<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.buf.is_empty() {
            let mut buf = std::mem::take(&mut self.buf);
            while buf.is_empty() {
                self.step(&mut |i| buf.push_back(i));
            }
            self.buf = buf;
        }
        self.buf.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProfile;

    fn take(profile: &AppProfile, n: usize) -> Vec<Instr> {
        let program = Program::generate(profile);
        Walker::new(&program, profile).take(n).collect::<Vec<_>>()
    }

    #[test]
    fn stream_is_infinite_and_deterministic() {
        let p = AppProfile::sibench();
        let a = take(&p, 50_000);
        let b = take(&p, 50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_in_any_chunks_is_the_iterator_stream() {
        // Chunks that stop mid-segment leave the segment's tail
        // buffered; interleaving `fill` with `next` must not reorder it.
        let p = AppProfile::web_search();
        let program = Program::generate(&p);
        let pulled = take(&p, 30_000);
        let mut w = Walker::new(&program, &p);
        let mut pushed = Vec::new();
        for (k, chunk) in [1u64, 7, 0, 500, 3, 4096, 13].iter().cycle().enumerate() {
            if pushed.len() >= pulled.len() {
                break;
            }
            if k % 3 == 2 {
                pushed.extend(w.next());
            }
            let n = (*chunk).min((pulled.len() - pushed.len()) as u64);
            w.fill(n, |i| pushed.push(i));
        }
        assert_eq!(pushed.len(), pulled.len());
        assert!(pushed == pulled, "fill diverged from the iterator");
    }

    #[test]
    fn call_stack_depth_is_bounded() {
        let p = AppProfile::web_serving();
        let program = Program::generate(&p);
        let mut w = Walker::new(&program, &p);
        for _ in 0..100_000 {
            w.next();
            assert!(w.stack.len() <= 3, "stack depth {}", w.stack.len());
        }
    }

    #[test]
    fn branch_fraction_is_realistic() {
        let p = AppProfile::media_streaming();
        let instrs = take(&p, 100_000);
        let branches = instrs.iter().filter(|i| i.is_branch()).count();
        let frac = branches as f64 / instrs.len() as f64;
        assert!(
            (0.05..0.35).contains(&frac),
            "branch fraction {frac} out of range"
        );
    }

    #[test]
    fn memory_fraction_tracks_profile() {
        let p = AppProfile::data_caching();
        let instrs = take(&p, 100_000);
        let mems = instrs.iter().filter(|i| i.is_mem()).count();
        let frac = mems as f64 / instrs.len() as f64;
        let expected = p.load_frac + p.store_frac;
        assert!(
            (frac - expected).abs() < 0.08,
            "mem fraction {frac} vs profile {expected}"
        );
    }

    #[test]
    fn taken_branches_target_segment_starts() {
        let p = AppProfile::finagle_http();
        let program = Program::generate(&p);
        let starts: std::collections::HashSet<u64> = program
            .functions
            .iter()
            .flat_map(|f| f.segments.iter().map(|s| s.start.raw()))
            .collect();
        for i in take(&p, 50_000) {
            if i.is_taken_branch() {
                let t = i.branch_target().unwrap().raw();
                assert!(starts.contains(&t), "target {t:#x} is not a segment start");
            }
        }
    }

    #[test]
    fn hot_code_dominates_execution() {
        // Hot + dispatcher instructions should be a large share even
        // though hot code is a tiny part of the footprint.
        let p = AppProfile::tpc_c();
        let program = Program::generate(&p);
        let hot_hi = program.functions[program.warm[0]].base.raw();
        let instrs = take(&p, 100_000);
        let hot_count = instrs.iter().filter(|i| i.pc().raw() < hot_hi).count();
        let frac = hot_count as f64 / instrs.len() as f64;
        assert!(frac > 0.10, "hot fraction {frac}");
    }
}
