//! The phase-scheduled simulation engine.
//!
//! One engine owns all simulator state — contents model, decoupled
//! front end, backend, memory hierarchy, prefetcher — and drives it
//! over the trace at the fidelity the [`SampleSchedule`] dictates,
//! SMARTS-style, in three kinds of segment (one `WindowCheckpoint`
//! method each, called directly by the schedule walk):
//!
//! * Fast-forward (`fast_forward`) advances the trace without
//!   touching any simulator state. Exact-sized sources skip in O(1)
//!   ([`TraceSource::skip`] — `VecTrace` by slice `nth`, frozen
//!   `PackedTrace`s by their skip index); generated sources
//!   produce-and-discard, which is why grid experiments freeze each
//!   spec once and replay the packed form.
//!   When a reuse oracle is attached the engine walks runs instead so
//!   the oracle cursor stays in lockstep with the access sequence.
//!   Fast-forwarding is **convergence-gated**: until the warmup
//!   traffic stops installing new L3 lines
//!   ([`L3_CONVERGED_FILLS_PER_MI`]), the gap is warmed instead of
//!   skipped — skipping while the multi-megabyte hierarchy is still
//!   filling is precisely when staleness bites.
//! * Warmup (`warmup_segment`) is functional warming with statistics
//!   gated off, two-tiered: the streamed bulk warms the deep, slow state
//!   (L1d/L2/L3 contents through a shadow-filtered walk, TAGE, BTB,
//!   ITP), and the last [`WARM_TAIL`] instructions additionally run
//!   the real L1i organization (tags, policies, ACIC's
//!   i-Filter/CSHR/predictor pipeline). Everything learns; no
//!   counter moves. The prefetcher and MSHRs are timing mechanisms
//!   and stay idle.
//! * Detailed (`detailed_window`) is the full cycle loop with
//!   statistics on. Bounded windows measure only their steady-state
//!   interior for IPC and the whole window for MPKI (see
//!   `WindowSample`). The loop moves each instruction once: the BPU
//!   feed decodes runs straight into the FTQ's arena, the decode queue
//!   and ROB are windows of it, and dispatch reads from it
//!   ([`crate::frontend`], [`crate::backend`]). Per executed cycle the
//!   FDP scan costs O(1) for its memoised prefix and probes only past
//!   it (`Ftq::fdp_scan`).
//!
//! A [`SampleSchedule::Full`] run is a single unbounded detailed
//! phase and reproduces the pre-sampling simulator bit for bit
//! (pinned by `tests/engine_equivalence.rs`). A periodic schedule
//! functionally warms the §IV-A cold-start fraction, then repeats
//! (fast-forward|warm) → warmup → detailed each period — the first
//! period halved so windows sit at period midpoints, an unbiased
//! systematic sample — and extrapolates the windows to the whole
//! trace ([`SampledStats`]).
//!
//! The engine reads no environment: a report depends only on the
//! [`SimConfig`] and the trace. [`Engine::run`] always uses
//! [`TimingLoop::EventHorizon`]; tests select the dense reference
//! loop through [`Engine::run_with_loop`].
//!
//! # Examples
//!
//! ```
//! use acic_sim::{Engine, SampleSchedule, SimConfig};
//! use acic_workloads::{AppProfile, SyntheticWorkload};
//!
//! let wl = SyntheticWorkload::with_instructions(AppProfile::sibench(), 400_000);
//! let cfg = SimConfig::default().with_schedule(SampleSchedule::Periodic {
//!     period: 100_000,
//!     warmup_len: 20_000,
//!     detailed_len: 10_000,
//! });
//! let r = Engine::run(&cfg, &wl);
//! let s = r.sampled.expect("periodic schedules extrapolate");
//! assert_eq!(s.windows, 4);
//! assert!(r.ipc() > 0.0);
//! ```

use crate::backend::Backend;
use crate::config::{PrefetcherKind, SampleSchedule, SimConfig};
use crate::frontend::{FrontEnd, ScanVerdict};
use crate::mem::{MemoryHierarchy, MissTracker};
use crate::prefetch::{Entangling, Prefetcher};
use crate::report::{mean_ci95, PrefetchStats, SampledStats, SimReport};
use acic_cache::{AccessCtx, CacheStats, IcacheContents};
use acic_core::AcicIcache;
use acic_trace::{
    BlockRuns, GroupedRuns, Instr, InstrKind, OracleCursor, ReuseOracle, TraceSource, NO_NEXT_USE,
};
use acic_types::{Addr, Asid, Cycle, TaggedBlock};

mod window;

/// Instructions at the end of each warmup segment that receive full
/// warming — the real L1i organization (tags, policies, ACIC's
/// i-Filter/CSHR/predictor pipeline) with run grouping and ITP path
/// history — on top of the bulk tier's streamed warming. Everything
/// unique to this tier has a short state memory (a 32 KB L1i, the
/// CSHR's 256 comparisons) and converges well within the span, so
/// the expensive per-run machinery only runs on a small slice of
/// each warmup segment.
pub const WARM_TAIL: u64 = 100_000;

/// Adaptive fast-forward gate: a period's fast-forward gap is warmed
/// functionally (never skipped) until the warmup traffic installs
/// fewer than this many new L3 lines per million instructions.
/// Below the threshold the deep hierarchy has converged — its
/// contents barely change per period — and skipping the gap trades
/// no accuracy the warmup could recover anyway.
pub const L3_CONVERGED_FILLS_PER_MI: u64 = 500;

/// Minimum detailed-window ramp exclusion (instructions). See
/// `WindowCheckpoint::detailed_window`.
const RAMP_FLOOR: u64 = 5_000;

/// Cycle-loop scheduling strategy for detailed windows.
///
/// Both strategies execute the *same* per-cycle body and produce
/// bit-identical [`SimReport`]s (pinned by `tests/engine_equivalence.rs`
/// and the dense-vs-event property suite); they differ only in how the
/// clock advances between cycles where something happens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimingLoop {
    /// Skip-ahead scheduling: after each executed cycle, jump `now` to
    /// the earliest cycle at which *any* pipeline structure can change
    /// — FTQ readiness, MSHR completions, pending prefetch fills, BPU
    /// availability, backend retire slots, contents-model tick work —
    /// and batch the skipped ticks. The default.
    #[default]
    EventHorizon,
    /// The reference cycle-by-cycle loop, retained as the
    /// equivalence-tested twin and reached only from tests: the
    /// dense-vs-event suite (`tests/timing_loop_equivalence.rs`)
    /// selects it through [`Engine::run_with_loop`] for serial runs
    /// and [`Engine::run_windowed_with_loop`] for window-parallel
    /// ones, which walk the same periods.
    Dense,
}

/// Prefetches issued to the hierarchy and awaiting their fill cycle,
/// with the earliest due time tracked incrementally so the event
/// horizon reads it in O(1) and the per-cycle drain can prove itself a
/// no-op without scanning. Fill order is insertion order — identical
/// to the dense loop's historical `retain` walk.
#[derive(Debug, Default)]
struct PendingPrefetches {
    slots: Vec<(Cycle, TaggedBlock)>,
    /// Minimum ready cycle over `slots`; meaningless when empty.
    earliest: Cycle,
}

impl PendingPrefetches {
    fn push(&mut self, ready: Cycle, block: TaggedBlock) {
        if self.slots.is_empty() || ready < self.earliest {
            self.earliest = ready;
        }
        self.slots.push((ready, block));
    }

    /// Earliest fill cycle among outstanding prefetches.
    fn earliest(&self) -> Option<Cycle> {
        (!self.slots.is_empty()).then_some(self.earliest)
    }

    /// Moves every entry due at `now` into `due` (insertion order),
    /// compacting the rest in place. O(1) when nothing is due.
    fn drain_due(&mut self, now: Cycle, due: &mut Vec<TaggedBlock>) {
        if self.slots.is_empty() || self.earliest > now {
            return;
        }
        self.slots.retain(|&(ready, block)| {
            if ready <= now {
                due.push(block);
                false
            } else {
                true
            }
        });
        self.earliest = self.slots.iter().map(|&(r, _)| r).min().unwrap_or(0);
    }
}

/// One measured detailed window.
///
/// IPC derives from the steady-state interior (`instructions`,
/// `cycles`); MPKI derives from the whole window (`full_instructions`,
/// `full_demand_misses`) — the window edges run at unrepresentative
/// IPC, but their miss counts are real traffic whose start/drain
/// biases largely cancel, and the wider span more than halves the
/// miss-count noise of a small window.
#[derive(Clone, Copy, Debug, Default)]
struct WindowSample {
    instructions: u64,
    cycles: Cycle,
    full_instructions: u64,
    full_demand_misses: u64,
}

/// A measurement snapshot inside a detailed window.
#[derive(Clone, Copy, Debug)]
struct Snapshot {
    retired: u64,
    cycles: Cycle,
}

/// One functional contents access: oracle-cursor advance, context
/// build, access + fill-on-miss. Shared verbatim between the
/// functional simulator's hot loop and the engine's warmup phase so
/// the two cannot drift. Returns whether the access hit. The caller
/// owns context-switch notification and `tick`.
pub(crate) fn contents_step(
    contents: &mut dyn IcacheContents,
    cursor: &mut Option<OracleCursor<'_>>,
    tagged: TaggedBlock,
    access_index: u64,
    quiet: bool,
) -> bool {
    let next_use = match cursor.as_mut() {
        Some(c) => {
            c.advance(tagged.oracle_key());
            c.next_use_of(tagged.oracle_key())
        }
        None => NO_NEXT_USE,
    };
    let mut ctx = AccessCtx::demand_tagged(tagged, access_index).with_next_use(next_use);
    if quiet {
        ctx = ctx.quiet();
    }
    if let Some(c) = cursor.as_ref() {
        ctx = ctx.with_oracle(c);
    }
    let hit = contents.access(&ctx).hit;
    if !hit {
        contents.fill(&ctx);
    }
    hit
}

/// Whether the prefetch candidate `block` is filtered at `now`: it is
/// resident, already in flight, or in an address space the core has
/// not switched to yet (no active translations; a flush-on-switch
/// cache would flush it at the switch).
fn prefetch_filtered(
    block: TaggedBlock,
    fetch_asid: Asid,
    contents: &dyn IcacheContents,
    l1i_mshr: &mut MissTracker,
    now: Cycle,
) -> bool {
    block.asid != fetch_asid
        || contents.contains_block(block)
        || l1i_mshr.lookup(block, now).is_some()
}

/// All mutable simulator state for one scheduled execution — caches,
/// front end, predictors, MSHRs, and the phase cursors — as one
/// explicit, cheaply constructible struct.
///
/// Under the serial [`Engine::run`] schedule a single checkpoint is
/// persistent across phases: caches and predictors warm monotonically
/// over the whole run, exactly like the hardware they model; only
/// statistics are phase-gated. The window-parallel mode
/// ([`Engine::run_windowed`]) instead constructs one fresh checkpoint
/// per sampled window ([`WindowCheckpoint::fresh`] is allocation-cheap
/// — tag arrays and predictor tables, no trace-sized state), walks the
/// same periods up to that window, and discards it after the detailed
/// interior is measured.
pub(crate) struct WindowCheckpoint<'o> {
    contents: Box<dyn IcacheContents>,
    cursor: Option<OracleCursor<'o>>,
    frontend: FrontEnd,
    backend: Backend,
    mem: MemoryHierarchy,
    l1i_mshr: MissTracker,
    prefetcher: Prefetcher,
    prefetch_stats: PrefetchStats,
    pending_prefetches: PendingPrefetches,
    candidates: Vec<TaggedBlock>,
    /// Bumped whenever `contains_block` answers may have changed:
    /// every fill, context switch, and non-plain-hit access, and on
    /// entry to each detailed window (the contract on
    /// [`IcacheContents::access`]).
    residency_epoch: u64,
    /// Key of the last prefetch scan — (residency epoch, L1i-MSHR
    /// version, fetch ASID) — and the stamp issued for it. The FTQ's
    /// memo prefix filtered under this exact key, so it holds while
    /// the stamp does.
    scan_key: (u64, u64, Asid),
    scan_stamp: u64,
    /// Scratch for the pending-prefetch drain (reused every cycle; the
    /// loop never allocates for it in steady state).
    due_scratch: Vec<TaggedBlock>,
    timing_loop: TimingLoop,
    fetch_asid: Asid,
    context_switches: u64,
    access_index: u64,
    now: Cycle,
    wants_tick: bool,
    max_cycles: Cycle,
    /// Instructions consumed from the trace by any phase.
    consumed: u64,
    /// Latched when the trace itself (not a window budget) ran out.
    trace_over: bool,
    /// Instructions spent fast-forwarding / warming (for the report).
    fastforwarded: u64,
    warmed: u64,
    /// Bulk-warmup miss filter: a plain LRU tag store with the L1i's
    /// geometry that stands in for the real organization during the
    /// cheap warming tier, deciding which instruction blocks the
    /// L2/L3 would have seen. Probed quiet; never reported.
    shadow_l1i: acic_cache::SetAssocCache,
    /// Full-schedule warm-up bookkeeping (§IV-A first-10% exclusion).
    warmup_instrs: u64,
    warm_snapshot: Option<(Cycle, u64, CacheStats)>,
}

impl<'o> WindowCheckpoint<'o> {
    /// Builds a cold checkpoint: every cache, predictor, and queue in
    /// its power-on state, phase cursors at zero. Construction cost is
    /// bounded by the architectural table sizes (tag arrays, TAGE/BTB
    /// tables — tens of kilobytes), never by the trace, which is what
    /// makes one-checkpoint-per-window execution affordable.
    ///
    /// The oracle cursor starts detached; callers that simulate
    /// oracle-dependent organizations attach one afterwards
    /// (`state.cursor = Some(...)`).
    pub(crate) fn fresh(
        cfg: &SimConfig,
        seed: u64,
        total_instructions: u64,
        timing_loop: TimingLoop,
    ) -> WindowCheckpoint<'o> {
        let mut contents = cfg.icache_org.build(seed);
        if cfg.unbounded_cshr {
            if let crate::icache::IcacheOrg::Acic(acic_cfg) = &cfg.icache_org {
                contents = Box::new(AcicIcache::new(*acic_cfg).with_unbounded_instrumentation());
            }
        }
        let wants_tick = contents.wants_tick();
        WindowCheckpoint {
            contents,
            cursor: None,
            frontend: FrontEnd::new(cfg),
            backend: Backend::new(cfg),
            mem: MemoryHierarchy::new(cfg),
            l1i_mshr: MissTracker::new(cfg.l1i_mshrs),
            prefetcher: match cfg.prefetcher {
                PrefetcherKind::None => Prefetcher::None,
                PrefetcherKind::Fdp => Prefetcher::Fdp,
                PrefetcherKind::Entangling => Prefetcher::Entangling(Entangling::new()),
            },
            prefetch_stats: PrefetchStats::default(),
            pending_prefetches: PendingPrefetches::default(),
            candidates: Vec::new(),
            residency_epoch: 0,
            scan_key: (0, 0, Asid::HOST),
            scan_stamp: 0,
            due_scratch: Vec::new(),
            timing_loop,
            fetch_asid: Asid::HOST,
            context_switches: 0,
            access_index: 0,
            now: 0,
            wants_tick,
            max_cycles: 400 * total_instructions + 1_000_000,
            consumed: 0,
            trace_over: false,
            fastforwarded: 0,
            warmed: 0,
            shadow_l1i: {
                let geom = acic_cache::CacheGeometry::l1i_32k();
                acic_cache::SetAssocCache::new(
                    geom,
                    acic_cache::policy::PolicyKind::Lru.build(geom),
                )
            },
            warmup_instrs: (total_instructions as f64 * cfg.warmup_fraction) as u64,
            warm_snapshot: None,
        }
    }
}

impl WindowCheckpoint<'_> {
    /// Runs one detailed window: the cycle loop, feeding the BPU at
    /// most `budget` instructions (run-granular, so the window may
    /// overshoot by a partial run), then draining the pipeline. A
    /// `u64::MAX` budget with a fresh engine is exactly the unsampled
    /// simulator (and returns no sample).
    ///
    /// Bounded windows measure only their steady-state interior: the
    /// first `budget / 10` retired instructions (pipeline and
    /// prefetch-stream ramp after an empty-queue start) and the
    /// end-of-window drain (the pipeline emptying with the BPU
    /// already out of budget) are simulated but excluded from the
    /// returned sample — both run at structurally unrepresentative
    /// IPC and would bias the extrapolation low.
    fn detailed_window<I: Iterator<Item = Instr>>(
        &mut self,
        runs: &mut GroupedRuns<I>,
        budget: u64,
        cfg: &SimConfig,
    ) -> Option<WindowSample> {
        let WindowCheckpoint {
            contents,
            cursor,
            frontend,
            backend,
            mem,
            l1i_mshr,
            prefetcher,
            prefetch_stats,
            pending_prefetches,
            candidates,
            residency_epoch,
            scan_key,
            scan_stamp,
            due_scratch,
            timing_loop,
            fetch_asid,
            context_switches,
            access_index,
            now,
            wants_tick,
            max_cycles,
            consumed,
            trace_over,
            warmup_instrs,
            warm_snapshot,
            ..
        } = self;
        let mut fed = 0u64;
        let mut budget_hit = false;
        let sampling = budget != u64::MAX;
        // Proportional ramp with a floor: the post-handoff artifact
        // (prefetch-stream restart, L1i content settling) spans a
        // roughly constant number of instructions, so tiny windows
        // must not scale the exclusion down past it.
        let ramp = (budget / 10).max(RAMP_FLOOR.min(budget / 2));
        let retired0 = backend.retired;
        let entry_misses = contents.stats().demand_misses;
        let entry = Snapshot {
            retired: backend.retired,
            cycles: *now,
        };
        let mut measure_start: Option<Snapshot> = None;
        let mut measure_end: Option<Snapshot> = None;
        // Warmup moved blocks behind the scan memo's back.
        *residency_epoch += 1;

        loop {
            *now += 1;
            assert!(
                *now < *max_cycles,
                "simulation exceeded cycle bound (deadlock?)"
            );

            // Backend: retire, then dispatch (which reports the
            // awaited mispredict's resolution).
            backend.retire(*now);
            let awaited = frontend.awaited_branch();
            if let Some(done) = backend.dispatch(*now, mem, frontend.ftq.arena_mut(), awaited) {
                frontend.on_branch_resolved(done);
            }

            // Fetch: service the FTQ head.
            let mut pop_head = false;
            if let Some(head) = frontend.ftq.front_mut() {
                if !head.accessed {
                    head.accessed = true;
                    *access_index += 1;
                    let tagged = head.block.with_asid(head.asid);
                    // The fetch stream crossed into another address
                    // space: tell the contents model (flush-on-switch
                    // organizations gut themselves here).
                    if head.asid != *fetch_asid {
                        *fetch_asid = head.asid;
                        *context_switches += 1;
                        contents.on_context_switch(head.asid);
                        *residency_epoch += 1;
                    }
                    let next_use = match cursor.as_mut() {
                        Some(c) => {
                            c.advance(tagged.oracle_key());
                            c.next_use_of(tagged.oracle_key())
                        }
                        None => NO_NEXT_USE,
                    };
                    head.next_use = next_use;
                    let outcome = {
                        let mut ctx =
                            AccessCtx::demand_tagged(tagged, *access_index).with_next_use(next_use);
                        if let Some(c) = cursor.as_ref() {
                            ctx = ctx.with_oracle(c);
                        }
                        contents.access(&ctx)
                    };
                    prefetcher.on_demand_fetch(tagged, *now);
                    if !outcome.hit || outcome.extra_latency != 0 {
                        *residency_epoch += 1;
                    }
                    if outcome.hit {
                        head.ready_at = *now + outcome.extra_latency as u64;
                    } else {
                        head.needs_fill = true;
                        head.ready_at = match l1i_mshr.lookup(tagged, *now) {
                            // A prefetch already has the block in flight.
                            Some(ready) => ready,
                            None => {
                                let start = if l1i_mshr.full(*now) {
                                    l1i_mshr
                                        .earliest_ready()
                                        .expect("full tracker has entries")
                                        .max(*now)
                                } else {
                                    *now
                                };
                                let ready = mem.fetch_instr_block(tagged, start);
                                l1i_mshr.insert(tagged, ready);
                                prefetcher.on_demand_miss(tagged, *now, ready - *now);
                                ready
                            }
                        };
                    }
                }
                if *now >= head.ready_at {
                    if head.needs_fill {
                        head.needs_fill = false;
                        let mut ctx = AccessCtx::demand_tagged(
                            head.block.with_asid(head.asid),
                            *access_index,
                        )
                        .with_next_use(head.next_use);
                        if let Some(c) = cursor.as_ref() {
                            ctx = ctx.with_oracle(c);
                        }
                        contents.fill(&ctx);
                        *residency_epoch += 1;
                    }
                    // Deliver instructions into the decode queue: the
                    // queue is a window of the FTQ's arena, so this
                    // moves its tail and copies nothing.
                    let end = head.start + head.len as u64;
                    let remaining = (end - backend.dq_tail()) as usize;
                    let n = remaining
                        .min(backend.dq_space())
                        .min(cfg.fetch_width as usize);
                    backend.deliver(n);
                    pop_head = n == remaining;
                }
            }
            if pop_head {
                frontend.ftq.pop_front();
            }

            // BPU: run ahead of fetch, within the window's budget.
            frontend.bpu_cycle(*now, |arena| {
                if fed >= budget {
                    budget_hit = true;
                    return None;
                }
                let run = runs.next_run_with(|i| arena.push(i));
                match run {
                    Some(r) => {
                        fed += r.len as u64;
                        *consumed += r.len as u64;
                    }
                    None => *trace_over = true,
                }
                run
            });
            if sampling {
                if measure_start.is_none() && backend.retired >= retired0 + ramp {
                    measure_start = Some(Snapshot {
                        retired: backend.retired,
                        cycles: *now,
                    });
                }
                if budget_hit && measure_end.is_none() {
                    measure_end = Some(Snapshot {
                        retired: backend.retired,
                        cycles: *now,
                    });
                }
            }

            // Prefetch: gather candidates, filter, issue, fill. The
            // scan's outcome doubles as the event horizon's prefetch
            // term: candidate sets and filter verdicts are functions
            // of FTQ contents, L1i contents, the fetch ASID, and MSHR
            // occupancy — all frozen across a skipped span — so the
            // skip logic below can replay this cycle's result for
            // every skipped cycle instead of re-scanning.
            //
            // FDP's candidates are the FTQ entries, scanned in place
            // with a memo: the FTQ counts in O(1) its prefix of
            // candidates that filtered under the current (residency
            // epoch, MSHR version, fetch ASID) key. Past the prefix no
            // verdict is kept: a candidate there filtered only after
            // an earlier one issued, and an issue moves the MSHR
            // version, so no later scan runs under this stamp.
            // Entangling's drained candidates are fresh every cycle and
            // carry no memo.
            let fdp = matches!(prefetcher, Prefetcher::Fdp);
            if fdp {
                let key = (*residency_epoch, l1i_mshr.version_at(*now), *fetch_asid);
                if key != *scan_key {
                    *scan_key = key;
                    *scan_stamp += 1;
                }
                // The memo contract, re-probed where it is cheap to.
                #[cfg(debug_assertions)]
                for e in frontend.ftq.memo_prefix(*scan_stamp) {
                    debug_assert!(
                        prefetch_filtered(
                            e.tagged(),
                            *fetch_asid,
                            contents.as_ref(),
                            l1i_mshr,
                            *now
                        ),
                        "stale prefetch-filter memo prefix at {:?}",
                        e.tagged()
                    );
                }
            }
            let stamp = *scan_stamp;
            let mut issued = 0;
            let mut cycle_filtered = 0u64;
            let mut width_break = false;
            let mut scan = |block: TaggedBlock| {
                if issued >= cfg.prefetch_width {
                    // Unexamined candidates remain; if the set
                    // persists, the next cycle may issue from them.
                    width_break = true;
                    return ScanVerdict::Stop;
                }
                if prefetch_filtered(block, *fetch_asid, contents.as_ref(), l1i_mshr, *now) {
                    cycle_filtered += 1;
                    return ScanVerdict::Filtered;
                }
                if l1i_mshr.full(*now) {
                    cycle_filtered += 1;
                    return ScanVerdict::Stop;
                }
                let ready = mem.fetch_instr_block(block, *now);
                l1i_mshr.insert(block, ready);
                pending_prefetches.push(ready, block);
                prefetch_stats.issued += 1;
                issued += 1;
                ScanVerdict::Issued
            };
            let memoised = if fdp {
                frontend.ftq.fdp_scan(stamp, &mut scan)
            } else {
                candidates.clear();
                prefetcher.drain_candidates(candidates);
                for &block in candidates.iter() {
                    if scan(block) == ScanVerdict::Stop {
                        break;
                    }
                }
                0
            };
            cycle_filtered += memoised;
            prefetch_stats.filtered += cycle_filtered;
            due_scratch.clear();
            pending_prefetches.drain_due(*now, due_scratch);
            for &block in due_scratch.iter() {
                let future = cursor
                    .as_ref()
                    .map_or(NO_NEXT_USE, |c| c.future_use_of(block.oracle_key()));
                let mut ctx = AccessCtx::prefetch(block.block, *access_index)
                    .with_asid(block.asid)
                    .with_next_use(future);
                if let Some(c) = cursor.as_ref() {
                    ctx = ctx.with_oracle(c);
                }
                contents.fill(&ctx);
                *residency_epoch += 1;
            }

            if *wants_tick {
                contents.tick(*now);
            }

            // Warm-up snapshot (Full-schedule §IV-A accounting). The
            // measured window starts at exactly `warmup_instrs`, not at
            // this cycle's retire count (retirement is several wide and
            // would overshoot by a timing-dependent amount), so every
            // config measures the same instructions of one trace.
            if warm_snapshot.is_none() && backend.retired >= *warmup_instrs {
                *warm_snapshot = Some((*now, *warmup_instrs, contents.stats()));
            }

            if frontend.drained() && backend.drained() {
                break;
            }

            // Event horizon: having just executed a real cycle, find
            // the earliest future cycle at which *anything* can change
            // and jump the clock to just before it. Every term below is
            // an upper bound on idleness — a horizon that is too early
            // merely re-executes a no-op cycle (the dense loop's
            // steady state), while every state change is provably at or
            // after one of the terms, so the jump is cycle-exact.
            if *timing_loop == TimingLoop::EventHorizon {
                let floor = *now + 1;
                // All-quiet fallback: the deadlock bound. Jumping there
                // trips the cycle assert exactly like the dense loop
                // spinning its wheels would, only sooner.
                let mut horizon = *max_cycles;
                let event = |h: &mut Cycle, c: Cycle| *h = (*h).min(c.max(floor));
                // (a) In-order retirement: nothing leaves the ROB
                // before its head completes.
                if let Some(done) = backend.next_retire_at() {
                    event(&mut horizon, done);
                }
                // (b) Dispatch drains the decode queue any cycle the
                // ROB has room.
                if backend.can_dispatch() {
                    event(&mut horizon, floor);
                }
                // (c) The FTQ head: first touch is immediate; an
                // accessed head waits for its (MSHR-tracked) fill at
                // `ready_at`; a ready head delivers whenever the
                // decode queue has space. Every live L1i-MSHR entry's
                // completion is either this head's `ready_at` or a
                // pending-prefetch due time (d), so MSHR occupancy is
                // frozen across the skipped span.
                if let Some(head) = frontend.ftq.front() {
                    if !head.accessed {
                        event(&mut horizon, floor);
                    } else if *now < head.ready_at {
                        event(&mut horizon, head.ready_at);
                    } else if backend.dq_space() > 0 {
                        event(&mut horizon, floor);
                    }
                }
                // (d) Outstanding prefetches fill at their due cycle.
                if let Some(ready) = pending_prefetches.earliest() {
                    event(&mut horizon, ready);
                }
                // (e) The BPU produces a run the cycle it is available,
                // unless stalled, starved, or blocked on a full FTQ —
                // all conditions only a dense cycle can clear.
                if let Some(at) = frontend.bpu_horizon() {
                    event(&mut horizon, at);
                }
                // (f) Contents-model tick work (ACIC's delayed HRT-PT
                // updates). Ticks before this are pure no-ops and are
                // batched below.
                if *wants_tick {
                    if let Some(due) = contents.next_tick_due() {
                        event(&mut horizon, due);
                    }
                }
                // (g) Prefetch, from this cycle's scan. FDP candidate
                // sets derive from the (frozen) FTQ and persist, so
                // every skipped cycle re-filters the same set with the
                // same verdicts, adding the blocks issued above (MSHR-
                // tracked from now on). Two cases force the next cycle
                // dense instead: a width-limit break left unexamined
                // candidates that may issue, and a prefetch fill *after*
                // the scan (the drain below it) may have evicted a
                // candidate that scanned as resident, making it
                // issuable. Drain-style prefetchers (Entangling)
                // consumed their candidates this cycle; the span's sets
                // are empty either way.
                if fdp && cfg.prefetch_width > 0 && (width_break || !due_scratch.is_empty()) {
                    event(&mut horizon, floor);
                }

                if horizon > floor {
                    let skipped = horizon - floor;
                    if fdp {
                        prefetch_stats.filtered += (cycle_filtered + issued as u64) * skipped;
                    }
                    if *wants_tick {
                        // One batched tick replaces the span's no-op
                        // ticks: nothing is due before `horizon`, so
                        // only the model's internal clock advances —
                        // exactly as the dense ticks would have left it
                        // entering the next live cycle.
                        contents.tick(horizon - 1);
                    }
                    *now = horizon - 1;
                }
            }
        }

        if !sampling {
            return None;
        }
        // The trace (or a tiny budget) may have ended before either
        // snapshot landed; fall back to the widest valid interval.
        let end = measure_end.unwrap_or(Snapshot {
            retired: backend.retired,
            cycles: *now,
        });
        let start = measure_start
            .filter(|s| s.retired <= end.retired && s.cycles <= end.cycles)
            .unwrap_or(entry);
        (end.retired > start.retired && end.cycles > start.cycles).then(|| WindowSample {
            instructions: end.retired - start.retired,
            cycles: end.cycles - start.cycles,
            full_instructions: backend.retired - entry.retired,
            full_demand_misses: contents.stats().demand_misses - entry_misses,
        })
    }

    /// Runs the warmup phase over `budget` instructions: functional
    /// warming with statistics gated, two-tiered by state memory
    /// depth.
    ///
    /// The **bulk** of the segment warms only the deep state — the
    /// L1d/L2/L3 data contents, whose multi-megabyte capacity takes
    /// millions of instructions to converge — at a few nanoseconds
    /// per instruction. The final [`WARM_TAIL`] instructions
    /// additionally run the full functional L1i loop (tags, policies,
    /// ACIC's i-Filter/CSHR/predictor) and train the branch
    /// predictors; all of that state has a short memory and is fully
    /// warm within the tail. Time advances one cycle per tail block
    /// access so delayed-update pipelines (ACIC's HRT-PT) keep
    /// draining.
    fn warmup_segment<I: Iterator<Item = Instr>>(
        &mut self,
        runs: &mut GroupedRuns<I>,
        budget: u64,
    ) {
        self.frontend.set_stats_enabled(false);
        let bulk_budget = budget.saturating_sub(WARM_TAIL);

        // Bulk tier: stream instructions with no run materialization.
        // The shadow LRU store decides which instruction blocks the
        // unified levels would have seen; loads and stores warm the
        // data hierarchy directly.
        if bulk_budget > 0 {
            let WindowCheckpoint {
                cursor,
                mem,
                shadow_l1i,
                frontend,
                ..
            } = self;
            // Data warms run through a small FIFO: the host-prefetch
            // hint fires at enqueue and the simulated walk at dequeue
            // a few memory operations later, giving the hint real
            // latency to cover. Data-warm order is preserved (FIFO);
            // only the interleaving with instruction-side warms
            // shifts by a few operations — an equally valid warming
            // order, and deterministic.
            const DATA_LAG: usize = 4;
            let mut data_fifo: [(Addr, Asid); DATA_LAG] = [(Addr::new(0), Asid::HOST); DATA_LAG];
            let mut head = 0usize;
            let mut queued = 0usize;
            let streamed = runs.stream_instrs(bulk_budget, |instr, run_start| {
                if run_start {
                    let tagged = instr.tagged_block();
                    if let Some(c) = cursor.as_mut() {
                        // No real L1i probe here, but the oracle
                        // cursor still advances one position per run.
                        c.advance(tagged.oracle_key());
                    }
                    if !shadow_l1i.warm_touch(tagged) {
                        mem.warm_instr_block(tagged);
                    }
                }
                match instr.kind {
                    InstrKind::Load { addr } | InstrKind::Store { addr } => {
                        mem.hint_data(addr, instr.asid());
                        if queued == DATA_LAG {
                            let (a, s) = data_fifo[head];
                            mem.warm_data(a, s);
                        } else {
                            queued += 1;
                        }
                        data_fifo[head] = (addr, instr.asid());
                        head = (head + 1) % DATA_LAG;
                    }
                    InstrKind::Branch { .. } => frontend.warm_branches(&instr),
                    _ => {}
                }
            });
            // Drain the lagged warms (oldest first).
            let start = (head + DATA_LAG - queued) % DATA_LAG;
            for k in 0..queued {
                let (a, s) = data_fifo[(start + k) % DATA_LAG];
                mem.warm_data(a, s);
            }
            self.consumed += streamed;
            self.warmed += streamed;
            if streamed < bulk_budget {
                self.trace_over = true;
                self.frontend.set_stats_enabled(true);
                return;
            }
        }

        // Tail tier: full functional warming of the real L1i
        // organization plus branch-predictor training, streamed the
        // same way as the bulk (no run materialization).
        let tail_budget = budget - bulk_budget;
        if tail_budget > 0 {
            let WindowCheckpoint {
                contents,
                cursor,
                mem,
                frontend,
                fetch_asid,
                access_index,
                now,
                wants_tick,
                ..
            } = self;
            let streamed = runs.stream_instrs(tail_budget, |instr, run_start| {
                if run_start {
                    let tagged = instr.tagged_block();
                    if instr.asid() != *fetch_asid {
                        // Uncounted: context_switches reports
                        // detailed-window traffic only, like every
                        // other statistic.
                        *fetch_asid = instr.asid();
                        contents.on_context_switch(instr.asid());
                    }
                    *access_index += 1;
                    let hit = contents_step(contents.as_mut(), cursor, tagged, *access_index, true);
                    if !hit {
                        mem.warm_instr_block(tagged);
                    }
                    // One cycle per block access so delayed-update
                    // pipelines (ACIC's HRT-PT) keep draining.
                    *now += 1;
                    if *wants_tick {
                        contents.tick(*now);
                    }
                }
                match instr.kind {
                    InstrKind::Load { addr } | InstrKind::Store { addr } => {
                        mem.warm_data(addr, instr.asid());
                    }
                    InstrKind::Branch { .. } => frontend.warm_branches(&instr),
                    _ => {}
                }
            });
            self.consumed += streamed;
            self.warmed += streamed;
            if streamed < tail_budget {
                self.trace_over = true;
            }
        }
        self.frontend.set_stats_enabled(true);
    }

    /// Fast-forwards `budget` instructions. Without an oracle this
    /// delegates to the source's [`TraceSource::skip`] fast path;
    /// with one it walks runs so the cursor stays in sync with the
    /// block-access sequence.
    fn fast_forward<I: Iterator<Item = Instr>>(
        &mut self,
        runs: &mut GroupedRuns<I>,
        budget: u64,
        skip: impl FnOnce(&mut I, u64) -> u64,
    ) {
        if budget == 0 {
            return;
        }
        if self.cursor.is_some() {
            let mut done = 0u64;
            while done < budget {
                let Some(run) = runs.next_run_with(|_| {}) else {
                    self.trace_over = true;
                    break;
                };
                let len = run.len as u64;
                done += len;
                self.consumed += len;
                self.fastforwarded += len;
                if let Some(c) = self.cursor.as_mut() {
                    c.advance(run.oracle_key());
                }
            }
        } else {
            let skipped = runs.skip_instrs_with(budget, skip);
            self.consumed += skipped;
            self.fastforwarded += skipped;
            if skipped < budget {
                self.trace_over = true;
            }
        }
    }

    /// Walks a periodic schedule from instruction 0 and returns the
    /// samples of its detailed interiors, in window order. The
    /// cold-start span (§IV-A's excluded first 10%) is warmed
    /// functionally, never measured — mirroring the Full schedule's
    /// measured region. Each period then fast-forwards or warms its
    /// gap, warms, and does with window `k`'s interior what
    /// `interior(k)` says; `None` ends the walk before that period.
    ///
    /// Fast-forwarding is convergence-gated: a gap is skipped only
    /// once the previous period's warm traffic installed fewer than
    /// [`L3_CONVERGED_FILLS_PER_MI`] new L3 lines. The gate is
    /// re-evaluated every period, hysteresis-free: a phase change that
    /// reheats the L3 flips it back.
    fn walk_periods<I: Iterator<Item = Instr>>(
        &mut self,
        runs: &mut GroupedRuns<I>,
        periods: &Periods,
        cfg: &SimConfig,
        skip: impl Fn(&mut I, u64) -> u64 + Copy,
        mut interior: impl FnMut(usize) -> Option<Interior>,
    ) -> Vec<WindowSample> {
        let mut samples = Vec::new();
        self.warmup_segment(runs, periods.initial_warmup);
        let mut converged = false;
        let mut last_l3_fills = self.mem.warm_l3_fills;
        let mut last_warmed = self.warmed;
        for k in 0.. {
            if self.trace_over || self.consumed >= periods.total {
                break;
            }
            let Some(fate) = interior(k) else {
                break;
            };
            let (ff, warmup) = periods.gap_and_warmup(k, periods.total - self.consumed);
            if converged && ff > 0 {
                self.fast_forward(runs, ff, skip);
                if self.trace_over {
                    break;
                }
                self.warmup_segment(runs, warmup);
            } else {
                self.warmup_segment(runs, ff + warmup);
            }
            if self.trace_over {
                break;
            }
            match fate {
                Interior::Detail(budget) => {
                    samples.extend(self.detailed_window(runs, budget, cfg));
                    if !self.trace_over {
                        self.frontend.resume_stream();
                    }
                }
                Interior::Warm => {
                    let len = periods.detailed_len.min(periods.total - self.consumed);
                    self.warmup_segment(runs, len);
                }
            }
            let fills = self.mem.warm_l3_fills - last_l3_fills;
            let warmed = self.warmed - last_warmed;
            last_l3_fills = self.mem.warm_l3_fills;
            last_warmed = self.warmed;
            converged = warmed > 0 && fills * 1_000_000 < warmed * L3_CONVERGED_FILLS_PER_MI;
        }
        samples
    }
}

/// What [`WindowCheckpoint::walk_periods`] does with one window's
/// interior.
#[derive(Clone, Copy, Debug)]
enum Interior {
    /// Simulate and measure it in the cycle loop, feeding at most this
    /// many instructions.
    Detail(u64),
    /// Warm it functionally, unmeasured: a window before the one a
    /// window-parallel worker measures.
    Warm,
}

/// A [`SampleSchedule::Periodic`] laid over one trace: the one
/// definition of where the sampled engine warms, skips and measures,
/// read by the serial walk and by every window-parallel worker alike.
#[derive(Clone, Copy, Debug)]
struct Periods {
    /// Trace length: the population the pooled estimators
    /// extrapolate to.
    total: u64,
    /// The cold-start span, warmed and never measured.
    initial_warmup: u64,
    period: u64,
    warmup_len: u64,
    detailed_len: u64,
}

impl Periods {
    /// `cfg`'s periodic schedule over a `total`-instruction trace, or
    /// `None` when the run is full detail: a [`SampleSchedule::Full`]
    /// schedule, or a trace that cannot fit the initial warmup plus one
    /// warmup+detailed window (sampling a trace that small would
    /// measure nothing).
    fn of(cfg: &SimConfig, total: u64) -> Option<Periods> {
        let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = cfg.schedule
        else {
            return None;
        };
        let initial_warmup = (total as f64 * cfg.warmup_fraction) as u64;
        (total > initial_warmup + warmup_len + detailed_len).then_some(Periods {
            total,
            initial_warmup,
            period,
            warmup_len,
            detailed_len,
        })
    }

    /// Fast-forward gap and warmup length of period `k` with
    /// `remaining` instructions left. The first period is halved so
    /// windows land at period midpoints — an unbiased systematic
    /// sample of the measured range rather than its right edges (IPC
    /// trends along the trace would otherwise skew the extrapolation).
    /// The gap never skips so far that the trace tail cannot fit a
    /// final warmup+detailed window.
    fn gap_and_warmup(&self, k: usize, remaining: u64) -> (u64, u64) {
        let ff_len = self.period - self.warmup_len - self.detailed_len;
        let (ff, warmup) = if k == 0 {
            (ff_len / 2, self.warmup_len / 2)
        } else {
            (ff_len, self.warmup_len)
        };
        (
            ff.min(remaining.saturating_sub(warmup + self.detailed_len)),
            warmup,
        )
    }

    /// Every window's interior budget, in canonical order, with the
    /// windows laid at the schedule's idealized positions (a real walk
    /// ends its segments on whole block runs, a few instructions
    /// later): an interior that would cross end-of-trace is cut to it.
    /// Never empty, since [`Periods::of`] admits only traces that fit
    /// one window.
    fn interiors(&self) -> Vec<u64> {
        let mut budgets = Vec::new();
        let mut pos = self.initial_warmup;
        while pos < self.total {
            let (ff, warmup) = self.gap_and_warmup(budgets.len(), self.total - pos);
            let start = pos + ff + warmup;
            if start >= self.total {
                break;
            }
            let len = self.detailed_len.min(self.total - start);
            budgets.push(len);
            pos = start + len;
        }
        budgets
    }
}

/// The engine's trace pre-pass: the reuse oracle when `cfg`'s
/// organization needs it (OPT, OPT-bypass) or
/// [`SimConfig::attach_oracle`] asks for it, and the trace's length.
fn prepass<W: TraceSource>(cfg: &SimConfig, workload: &W) -> (Option<ReuseOracle>, u64) {
    cfg.schedule.validate();
    if cfg.icache_org.needs_oracle() || cfg.attach_oracle {
        let (oracle, total) = reuse_oracle(workload);
        (Some(oracle), total)
    } else {
        // No oracle: take the source's exact length when it knows it
        // (synthetic workloads and in-memory traces do), and only fall
        // back to a counting pass for sources that cannot answer
        // without walking.
        let total = workload
            .len_hint()
            .unwrap_or_else(|| workload.iter().count() as u64);
        (None, total)
    }
}

/// The reuse oracle over `workload`'s block-run sequence, and the
/// trace's length, from one walk. Oracle keys are flattened tagged
/// identities, so tenants' overlapping VAs stay distinct futures.
pub(crate) fn reuse_oracle<W: TraceSource>(workload: &W) -> (ReuseOracle, u64) {
    let mut total = 0u64;
    let seq: Vec<_> = BlockRuns::new(workload.iter())
        .map(|r| {
            total += r.len as u64;
            r.oracle_key()
        })
        .collect();
    (ReuseOracle::from_sequence(&seq), total)
}

/// The phase-scheduled simulation engine: one state machine serving
/// full-detail runs (bit-identical to the pre-sampling simulator) and
/// SMARTS-style sampled runs from the same code path.
#[derive(Debug)]
pub struct Engine;

impl Engine {
    /// Runs `workload` under `cfg` and returns the report.
    ///
    /// Performs a functional pre-pass when the organization needs the
    /// reuse oracle (OPT, OPT-bypass) or when
    /// [`SimConfig::attach_oracle`] requests instrumentation.
    ///
    /// Traces shorter than one warmup+detailed window are simulated
    /// in full regardless of the schedule (sampling a trace that
    /// small would measure nothing).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is inconsistent
    /// ([`SampleSchedule::validate`]) or the simulation exceeds a
    /// generous cycle bound (indicates a pipeline deadlock — a bug,
    /// not a workload property).
    pub fn run<W: TraceSource>(cfg: &SimConfig, workload: &W) -> SimReport {
        Self::run_with_loop(cfg, workload, TimingLoop::EventHorizon)
    }

    /// [`Engine::run`] with an explicit [`TimingLoop`] selection —
    /// the entry point the dense-vs-event equivalence suites drive.
    pub fn run_with_loop<W: TraceSource>(
        cfg: &SimConfig,
        workload: &W,
        timing_loop: TimingLoop,
    ) -> SimReport {
        let (oracle, total) = prepass(cfg, workload);
        let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), total, timing_loop);
        state.cursor = oracle.as_ref().map(|o| o.cursor());
        let mut runs = GroupedRuns::new(workload.iter());
        let windows = match Periods::of(cfg, total) {
            None => {
                state.detailed_window(&mut runs, u64::MAX, cfg);
                None
            }
            Some(p) => Some(state.walk_periods(&mut runs, &p, cfg, W::skip, |_| {
                Some(Interior::Detail(p.detailed_len))
            })),
        };
        Self::assemble_report(cfg, workload.name(), state, windows.as_deref())
    }

    /// Assembles the report of a finished serial run: `windows` holds
    /// a periodic walk's samples, `None` marks a full-detail run.
    fn assemble_report(
        cfg: &SimConfig,
        app: &str,
        state: WindowCheckpoint<'_>,
        windows: Option<&[WindowSample]>,
    ) -> SimReport {
        let acic = state
            .contents
            .as_any()
            .downcast_ref::<AcicIcache>()
            .map(|a| *a.acic_stats());
        let cshr = state
            .contents
            .as_any()
            .downcast_ref::<AcicIcache>()
            .map(|a| a.cshr_stats());
        let cshr_lifetimes = state
            .contents
            .as_any()
            .downcast_ref::<AcicIcache>()
            .and_then(|a| a.unbounded_cshr())
            .map(|u| u.fractions_with_unresolved());

        let mut report = SimReport {
            app: app.to_string(),
            org: cfg.icache_org.label().to_string(),
            total_instructions: state.backend.retired,
            total_cycles: state.now,
            measured_instructions: state.backend.retired,
            measured_cycles: state.now,
            l1i: state.contents.stats(),
            l1d: state.mem.l1d_stats(),
            l2: state.mem.l2_stats(),
            l3: state.mem.l3_stats(),
            dram_accesses: state.mem.dram_accesses,
            branch: state.frontend.stats(),
            prefetch: state.prefetch_stats,
            context_switches: state.context_switches,
            acic,
            cshr,
            cshr_lifetimes,
            sampled: None,
            window_ipc: Vec::new(),
            window_mpki: Vec::new(),
        };

        match windows {
            None => {
                let (warm_cycle, warm_retired, warm_l1i) =
                    state.warm_snapshot.unwrap_or((0, 0, CacheStats::default()));
                report.measured_instructions = state.backend.retired - warm_retired;
                report.measured_cycles = state.now - warm_cycle;
                report.l1i = report.l1i.delta_from(&warm_l1i);
            }
            Some(windows) => {
                // The trace really ran start to finish; report the
                // population size, with cycles extrapolated.
                let total = state.consumed;
                let pooled = pool_windows(windows, total, state.warmed, state.fastforwarded);
                report.total_instructions = total;
                report.total_cycles = pooled.0.round() as u64;
                report.measured_instructions = pooled.1;
                report.measured_cycles = pooled.2;
                report.sampled = Some(pooled.3);
                report.window_ipc = pooled.4;
                report.window_mpki = pooled.5;
            }
        }
        report
    }
}

/// Pools detailed-window samples into the SMARTS estimators.
///
/// Shared verbatim between the serial schedule's report assembly and
/// the window-parallel reducer ([`window`]) so the two extrapolations
/// cannot drift: given the same window samples in the same canonical
/// order and the same population size, both modes produce bit-identical
/// pooled statistics. Returns
/// `(est_total_cycles, detailed_instructions, detailed_cycles, stats,
/// ipc_samples, mpki_samples)` — the trailing per-window sample
/// vectors (canonical window order, dead windows excluded) feed
/// [`SimReport::window_ipc`]/[`SimReport::window_mpki`] for paired
/// cross-configuration comparisons.
fn pool_windows(
    windows: &[WindowSample],
    total: u64,
    warmed: u64,
    fastforwarded: u64,
) -> (f64, u64, Cycle, SampledStats, Vec<f64>, Vec<f64>) {
    let detailed_instructions: u64 = windows.iter().map(|w| w.instructions).sum();
    let detailed_cycles: Cycle = windows.iter().map(|w| w.cycles).sum();
    let full_instructions: u64 = windows.iter().map(|w| w.full_instructions).sum();
    let detailed_misses: u64 = windows.iter().map(|w| w.full_demand_misses).sum();
    let ipc_samples: Vec<f64> = windows
        .iter()
        .filter(|w| w.cycles > 0)
        .map(|w| w.instructions as f64 / w.cycles as f64)
        .collect();
    let mpki_samples: Vec<f64> = windows
        .iter()
        .filter(|w| w.full_instructions > 0)
        .map(|w| w.full_demand_misses as f64 * 1000.0 / w.full_instructions as f64)
        .collect();
    let (ipc_mean, ipc_ci95) = mean_ci95(&ipc_samples);
    let (mpki_mean, mpki_ci95) = mean_ci95(&mpki_samples);
    let ipc_hat = if detailed_cycles > 0 {
        detailed_instructions as f64 / detailed_cycles as f64
    } else {
        0.0
    };
    let mpki_hat = if full_instructions > 0 {
        detailed_misses as f64 * 1000.0 / full_instructions as f64
    } else {
        0.0
    };
    let est_total_cycles = if ipc_hat > 0.0 {
        total as f64 / ipc_hat
    } else {
        0.0
    };
    let stats = SampledStats {
        windows: windows.len() as u64,
        detailed_instructions,
        warmup_instructions: warmed,
        fastforward_instructions: fastforwarded,
        ipc_mean,
        ipc_ci95,
        mpki_mean,
        mpki_ci95,
        est_total_cycles,
        est_total_misses: mpki_hat * total as f64 / 1000.0,
    };
    (
        est_total_cycles,
        detailed_instructions,
        detailed_cycles,
        stats,
        ipc_samples,
        mpki_samples,
    )
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    fn w(instructions: u64, cycles: Cycle, full: u64, misses: u64) -> WindowSample {
        WindowSample {
            instructions,
            cycles,
            full_instructions: full,
            full_demand_misses: misses,
        }
    }

    #[test]
    fn zero_instruction_interiors_are_excluded_not_nan() {
        // A window whose interior retired nothing (trace ended inside
        // the ramp, or a pathological schedule) contributes no IPC or
        // MPKI sample — it must not poison the pooled estimators with
        // 0/0.
        let windows = [w(100, 50, 110, 3), w(0, 0, 0, 0), w(100, 40, 105, 2)];
        let (est, detailed, cycles, stats, ipc_s, mpki_s) = pool_windows(&windows, 10_000, 0, 0);
        // Dead windows are excluded from the sample vectors too.
        assert_eq!(ipc_s.len(), 2);
        assert_eq!(mpki_s.len(), 2);
        assert!(!est.is_nan());
        assert_eq!(detailed, 200);
        assert_eq!(cycles, 90);
        assert!(!stats.ipc_mean.is_nan() && !stats.ipc_ci95.is_nan());
        assert!(!stats.mpki_mean.is_nan() && !stats.mpki_ci95.is_nan());
        // Two live samples pooled: (2.0 + 2.5) / 2.
        assert!((stats.ipc_mean - 2.25).abs() < 1e-12);
        // The dead window still counts toward `windows` (schedule
        // shape), so interval accessors stay honest about sample
        // counts.
        assert_eq!(stats.windows, 3);
    }

    #[test]
    fn all_dead_windows_pool_to_zero_not_nan() {
        let windows = [w(0, 0, 0, 0), w(0, 0, 0, 0)];
        let (est, _, _, stats, ipc_s, _) = pool_windows(&windows, 1_000, 0, 0);
        assert!(ipc_s.is_empty());
        assert_eq!(est, 0.0);
        assert_eq!(stats.ipc_mean, 0.0);
        assert_eq!(stats.est_total_misses, 0.0);
        assert!(!stats.mpki_ci95.is_nan());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::icache::IcacheOrg;
    use acic_trace::VecTrace;
    use acic_workloads::{AppProfile, SyntheticWorkload};

    fn small_workload(n: u64) -> SyntheticWorkload {
        SyntheticWorkload::with_instructions(AppProfile::sibench(), n)
    }

    fn periods(
        total: u64,
        period: u64,
        warmup_len: u64,
        detailed_len: u64,
        frac: f64,
    ) -> Option<Periods> {
        let cfg = SimConfig {
            warmup_fraction: frac,
            ..SimConfig::default()
        }
        .with_schedule(SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        });
        Periods::of(&cfg, total)
    }

    #[test]
    fn full_schedule_has_no_plan() {
        assert!(Periods::of(&SimConfig::default(), 10_000_000).is_none());
    }

    #[test]
    fn degenerate_trace_has_no_plan() {
        // 20k instructions cannot fit 2k initial warmup + 185k warmup
        // + 22k detailed: the run degenerates to Full.
        assert!(periods(20_000, 700_000, 185_000, 22_000, 0.10).is_none());
    }

    #[test]
    fn default_schedule_windows_land_at_period_midpoints() {
        // 20M instructions, default 700k/185k/22k schedule, 10% initial
        // warmup: first interior at 2M + 493k/2 + 185k/2 = 2,339,000,
        // then one window per 700k period until the tail cannot fit a
        // warmup+detailed pair.
        let p = periods(20_000_000, 700_000, 185_000, 22_000, 0.10).expect("plannable");
        assert_eq!(p.total, 20_000_000);
        assert_eq!(p.initial_warmup, 2_000_000);
        assert_eq!(p.gap_and_warmup(0, 18_000_000), (246_500, 92_500));
        assert_eq!(p.gap_and_warmup(1, 17_000_000), (493_000, 185_000));
        let budgets = p.interiors();
        assert_eq!(budgets.len(), 26);
        assert!(budgets.iter().all(|&b| b == 22_000));
    }

    #[test]
    fn plan_is_monotonic_and_in_bounds() {
        for &(total, period, warm, det, frac) in &[
            (20_000_000u64, 700_000u64, 185_000u64, 22_000u64, 0.10f64),
            (1_000_000, 100_000, 20_000, 10_000, 0.10),
            (5_000_000, 250_000, 60_000, 15_000, 0.0),
        ] {
            let p = periods(total, period, warm, det, frac).expect("plannable");
            let budgets = p.interiors();
            assert!(!budgets.is_empty());
            assert!(budgets.iter().all(|&b| b > 0 && b <= det));
            let measured: u64 = budgets.iter().sum();
            assert!(p.initial_warmup + measured <= total);
        }
    }

    #[test]
    fn final_window_truncates_at_end_of_trace() {
        // With 80k instructions and a 100k/20k/10k schedule the second
        // window's fast-forward clamps to zero and its interior hits
        // end-of-trace at 5k of its 10k budget.
        let p = periods(80_000, 100_000, 20_000, 10_000, 0.0).expect("plannable");
        assert_eq!(p.interiors(), vec![10_000, 5_000]);
    }

    #[test]
    fn fast_forward_clamp_matches_serial_tail_rule() {
        // Near the tail, remaining - warmup - detailed drops below the
        // full gap: the gap shrinks so a final window still fits.
        let p = periods(1_050_000, 100_000, 20_000, 10_000, 0.0).expect("plannable");
        assert_eq!(p.gap_and_warmup(3, 50_000), (20_000, 20_000));
        assert_eq!(p.gap_and_warmup(3, 20_000), (0, 20_000));
        // Every interior fits wholly inside the trace; the clamp never
        // plans an empty window.
        assert!(p.interiors().iter().all(|&b| b > 0));
    }

    #[test]
    fn runs_to_completion_and_counts_instructions() {
        let wl = small_workload(20_000);
        let r = Engine::run(&SimConfig::default(), &wl);
        assert_eq!(r.total_instructions, 20_000);
        assert!(r.total_cycles > 0);
        assert!(r.ipc() > 0.05 && r.ipc() < 6.0, "ipc = {}", r.ipc());
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = small_workload(10_000);
        let a = Engine::run(&SimConfig::default(), &wl);
        let b = Engine::run(&SimConfig::default(), &wl);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
    }

    #[test]
    fn tiny_trace_with_single_block() {
        // A degenerate workload: straight-line code in one block.
        let instrs: Vec<Instr> = (0..16).map(|i| Instr::alu(Addr::new(i * 4))).collect();
        let trace = VecTrace::with_name(instrs, "tiny");
        let r = Engine::run(&SimConfig::default(), &trace);
        assert_eq!(r.total_instructions, 16);
        assert_eq!(
            r.l1i.demand_misses + r.l1i.demand_hits(),
            r.l1i.demand_accesses
        );
    }

    #[test]
    fn opt_never_misses_more_than_lru() {
        let wl = small_workload(60_000);
        let base = SimConfig {
            prefetcher: PrefetcherKind::None,
            ..SimConfig::default()
        };
        let lru = Engine::run(&base, &wl);
        let opt = Engine::run(&base.with_org(IcacheOrg::Opt), &wl);
        assert!(
            opt.l1i.demand_misses <= lru.l1i.demand_misses,
            "OPT {} vs LRU {}",
            opt.l1i.demand_misses,
            lru.l1i.demand_misses
        );
    }

    #[test]
    fn prefetching_reduces_misses() {
        let wl = small_workload(60_000);
        let none = Engine::run(
            &SimConfig {
                prefetcher: PrefetcherKind::None,
                ..SimConfig::default()
            },
            &wl,
        );
        let fdp = Engine::run(&SimConfig::default(), &wl);
        assert!(
            fdp.l1i.demand_misses < none.l1i.demand_misses,
            "FDP {} vs none {}",
            fdp.l1i.demand_misses,
            none.l1i.demand_misses
        );
    }

    #[test]
    fn acic_reports_admission_stats() {
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 120_000);
        let r = Engine::run(
            &SimConfig::default().with_org(IcacheOrg::acic_default()),
            &wl,
        );
        let acic = r.acic.expect("ACIC stats present");
        assert!(acic.decisions > 0);
        let cshr = r.cshr.expect("CSHR stats present");
        assert!(cshr.inserted > 0);
    }

    #[test]
    fn warmup_excluded_from_measured_window() {
        let wl = small_workload(20_000);
        let r = Engine::run(&SimConfig::default(), &wl);
        assert_eq!(r.measured_instructions, 18_000);
        // The window starts at exactly instruction ⌊total·fraction⌋
        // whatever the config's retire timing, so reports of one trace
        // compare (`SimReport::speedup_over`) under every organization
        // and prefetcher.
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 200_000);
        for prefetcher in [PrefetcherKind::Fdp, PrefetcherKind::Entangling] {
            for org in [
                IcacheOrg::Lru,
                IcacheOrg::acic_default(),
                IcacheOrg::Opt,
                IcacheOrg::Larger36k,
            ] {
                let cfg = SimConfig::default()
                    .with_prefetcher(prefetcher)
                    .with_org(org.clone());
                let r = Engine::run(&cfg, &wl);
                assert_eq!(r.total_instructions, 200_000);
                assert_eq!(
                    r.measured_instructions,
                    180_000,
                    "{} under {prefetcher:?}",
                    org.label()
                );
            }
        }
    }
}
