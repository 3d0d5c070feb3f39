//! Window-parallel sampled execution: fan the detailed windows of one
//! trace across cores.
//!
//! The serial [`Engine::run`] schedule threads one persistent
//! [`WindowCheckpoint`] through every phase, so windows inherit warm
//! caches from the whole prefix. That coupling is what serializes a
//! long cell onto one core. This module breaks it with redundant
//! functional warming: each window runs on a *private* fresh
//! checkpoint that makes the serial engine's own period walk
//! ([`WindowCheckpoint::walk_periods`]) up to its interior — same
//! initial warmup, same gated fast-forward-or-warm gaps, same
//! per-window warmup — with every *prior* interior warmed instead of
//! measured, and stops after its own. Windows are independent by
//! construction, so any number of workers — including one — executes
//! the identical per-window computation, and the reducer pools samples
//! in canonical window order. Pooled `SampledStats` are therefore
//! **bit-identical across worker counts**; fidelity against the
//! full-detail reference is a separate contract, enforced at the same
//! 2% IPC gate as the serial sampler (see `tests/sampled_sim.rs`).
//!
//! Replaying the whole prefix is the measured sweet spot, because L3
//! content accrues over all of it. A constant warm reach starved
//! interiors of blocks the serial reference hit (37% pooled-IPC error
//! at a 2M reach on the 20M web-search cell, still 4.5% at 6M);
//! warming the whole prefix unconditionally overshot (+2.6%), because
//! demand-only warming leaves the caches cleaner than the serial
//! sampler's prefetching interiors and skipped gaps. Per-window cost
//! therefore grows with window position, so the pool hands windows out
//! longest-first (LPT) to keep tail windows from straggling.
//!
//! The window count and every interior's budget — a final interior cut
//! short by end of trace included — come from the schedule's idealized
//! positions ([`Periods::interiors`]), fixed before any window runs.

use super::{prepass, Engine, Interior, Periods, TimingLoop, WindowCheckpoint, WindowSample};
use crate::config::SimConfig;
use crate::report::{BranchStats, PrefetchStats, SimReport};
use acic_cache::CacheStats;
use acic_core::{AcicIcache, AcicStats, CshrStats};
use acic_trace::{GroupedRuns, ReuseOracle, TraceSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Everything one window's worker hands back to the reducer: the
/// measured sample plus every additive statistic the report carries.
/// Plain counters only — `Send` across the worker channel, merged in
/// canonical window order.
struct WindowOutcome {
    sample: Option<WindowSample>,
    l1i: CacheStats,
    l1d: CacheStats,
    l2: CacheStats,
    l3: CacheStats,
    dram_accesses: u64,
    branch: BranchStats,
    prefetch: PrefetchStats,
    context_switches: u64,
    warmed: u64,
    fastforwarded: u64,
    acic: Option<AcicStats>,
    cshr: Option<CshrStats>,
}

/// Distills one window's finished checkpoint into a [`WindowOutcome`].
fn finish_window(state: WindowCheckpoint<'_>, sample: Option<WindowSample>) -> WindowOutcome {
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
    WindowOutcome {
        sample,
        l1i: state.contents.stats(),
        l1d: state.mem.l1d_stats(),
        l2: state.mem.l2_stats(),
        l3: state.mem.l3_stats(),
        dram_accesses: state.mem.dram_accesses,
        branch: state.frontend.stats(),
        prefetch: state.prefetch_stats,
        context_switches: state.context_switches,
        warmed: state.warmed,
        fastforwarded: state.fastforwarded,
        acic,
        cshr,
    }
}

/// Runs window `window` of `periods`, measuring `budget` interior
/// instructions, on a private fresh checkpoint that walks every
/// earlier period with its interior warmed. This function is the unit
/// of determinism: it depends only on its arguments, never on which
/// worker runs it or what ran before it.
///
/// The convergence gate sees warm traffic where the serial engine saw
/// detailed traffic for prior interiors, a deliberate approximation:
/// gate decisions shift serial-vs-windowed fidelity, never worker-count
/// determinism, because the replay is identical for every worker.
fn run_window<W: TraceSource>(
    cfg: &SimConfig,
    workload: &W,
    periods: &Periods,
    window: usize,
    budget: u64,
    oracle: Option<&ReuseOracle>,
    timing_loop: TimingLoop,
) -> WindowOutcome {
    let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), periods.total, timing_loop);
    state.cursor = oracle.map(|o| o.cursor());
    let mut runs = GroupedRuns::new(workload.iter());
    let samples = state.walk_periods(&mut runs, periods, cfg, W::skip, |k| match k.cmp(&window) {
        std::cmp::Ordering::Less => Some(Interior::Warm),
        std::cmp::Ordering::Equal => Some(Interior::Detail(budget)),
        std::cmp::Ordering::Greater => None,
    });
    finish_window(state, samples.first().copied())
}

/// Pools per-window outcomes — in canonical window order — into one
/// [`SimReport`], using the same [`super::pool_windows`] estimators as
/// the serial schedule. The reduction is a fold over an index-ordered
/// slice of pure counters, so it is deterministic regardless of which
/// worker produced which outcome when.
fn reduce(cfg: &SimConfig, app: &str, total: u64, outcomes: &[WindowOutcome]) -> SimReport {
    let windows: Vec<WindowSample> = outcomes.iter().filter_map(|o| o.sample).collect();
    let mut l1i = CacheStats::default();
    let mut l1d = CacheStats::default();
    let mut l2 = CacheStats::default();
    let mut l3 = CacheStats::default();
    let mut branch = BranchStats::default();
    let mut prefetch = PrefetchStats::default();
    let mut dram_accesses = 0u64;
    let mut context_switches = 0u64;
    let mut warmed = 0u64;
    let mut fastforwarded = 0u64;
    let mut acic: Option<AcicStats> = None;
    let mut cshr: Option<CshrStats> = None;
    for o in outcomes {
        l1i.merge(&o.l1i);
        l1d.merge(&o.l1d);
        l2.merge(&o.l2);
        l3.merge(&o.l3);
        branch.merge(&o.branch);
        prefetch.merge(&o.prefetch);
        dram_accesses += o.dram_accesses;
        context_switches += o.context_switches;
        warmed += o.warmed;
        fastforwarded += o.fastforwarded;
        if let Some(a) = &o.acic {
            acic.get_or_insert_with(AcicStats::default).merge(a);
        }
        if let Some(c) = &o.cshr {
            cshr.get_or_insert_with(CshrStats::default).merge(c);
        }
    }
    let (est_total_cycles, detailed_instructions, detailed_cycles, stats, window_ipc, window_mpki) =
        super::pool_windows(&windows, total, warmed, fastforwarded);
    SimReport {
        app: app.to_string(),
        org: cfg.icache_org.label().to_string(),
        total_instructions: total,
        total_cycles: est_total_cycles.round() as u64,
        measured_instructions: detailed_instructions,
        measured_cycles: detailed_cycles,
        l1i,
        l1d,
        l2,
        l3,
        dram_accesses,
        branch,
        prefetch,
        context_switches,
        acic,
        cshr,
        // Lifetime instrumentation needs one unbounded CSHR observing
        // the whole trace; per-window instances cannot pool it. The
        // field is None in windowed mode for every worker count.
        cshr_lifetimes: None,
        sampled: Some(stats),
        window_ipc,
        window_mpki,
    }
}

impl Engine {
    /// Runs `workload` under `cfg` with the window-parallel schedule,
    /// fanning detailed windows across `workers` threads (0 and 1 both
    /// mean in-order execution on the calling thread — of the *same*
    /// per-window computation, which is what makes worker count
    /// unobservable in the output).
    ///
    /// Full schedules and traces too short to sample fall back to
    /// [`Engine::run`] (they have no windows to parallelize and the
    /// serial engine is already exact there).
    ///
    /// # Determinism
    ///
    /// The returned report is bit-identical for every `workers` value:
    /// the window budgets are fixed before any window runs, each
    /// window's computation depends only on its index and budget
    /// (fresh checkpoint, private trace pass), and the reducer folds
    /// outcomes in canonical window order.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is inconsistent
    /// ([`SampleSchedule::validate`](crate::SampleSchedule::validate))
    /// or a worker thread panics.
    pub fn run_windowed<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
    ) -> SimReport {
        Self::run_windowed_with_loop(cfg, workload, workers, TimingLoop::EventHorizon)
    }

    /// [`Engine::run_windowed`] with an explicit [`TimingLoop`]
    /// selection — the windowed leg of the dense-vs-event equivalence
    /// suites.
    pub fn run_windowed_with_loop<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
        timing_loop: TimingLoop,
    ) -> SimReport {
        let (oracle, total) = prepass(cfg, workload);
        let Some(periods) = Periods::of(cfg, total) else {
            return Engine::run_with_loop(cfg, workload, timing_loop);
        };
        let budgets = periods.interiors();
        let n = budgets.len();
        let run_one = |k: usize| {
            run_window(
                cfg,
                workload,
                &periods,
                k,
                budgets[k],
                oracle.as_ref(),
                timing_loop,
            )
        };
        let outcomes: Vec<WindowOutcome> = if workers <= 1 {
            (0..n).map(run_one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<WindowOutcome>> = (0..n).map(|_| None).collect();
            let (tx, rx) = mpsc::channel::<(usize, WindowOutcome)>();
            let run_one = &run_one;
            std::thread::scope(|scope| {
                for _ in 0..workers.min(n) {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        // Hand out windows longest-first (cost grows
                        // with window position under full-prefix
                        // replay): classic LPT keeps the deep tail
                        // windows from straggling. Execution order is
                        // unobservable — outcomes land in index slots.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let i = n - 1 - k;
                        if tx.send((i, run_one(i))).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, out) in rx {
                    slots[i] = Some(out);
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every window delivered exactly once"))
                .collect()
        };
        reduce(cfg, workload.name(), total, &outcomes)
    }
}
