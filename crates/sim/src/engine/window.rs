//! Window-parallel sampled execution: fan the detailed windows of one
//! trace across cores.
//!
//! The serial [`Engine::run`] schedule threads one persistent
//! [`WindowCheckpoint`] through every phase, so windows inherit warm
//! caches from the whole prefix. That coupling is what serializes a
//! 100M-instruction cell onto one core. This module breaks it with the
//! classic time-parallel recipe — redundant functional warming: a
//! [`WindowPlan`] derives every detailed window's position from the
//! [`SampleSchedule`] up front (the same midpoint/clamp arithmetic as
//! the serial cursor walk), then each window runs on a *private* fresh
//! checkpoint that **replays the serial schedule's phase structure up
//! to its own interior** — same initial warmup, same gated
//! fast-forward-or-warm gaps, same per-window warmup, with every
//! *prior* interior demoted from detailed to functional warmup
//! ([`WarmPolicy::MirrorSerial`]). Windows are independent by
//! construction, so any number of workers — including one — executes
//! the identical per-window computation, and the reducer pools samples
//! in canonical window order. Pooled `SampledStats` are therefore
//! **bit-identical across worker counts**; fidelity against the
//! full-detail reference is a separate contract, enforced at the same
//! 2% IPC gate as the serial sampler (see `tests/sampled_sim.rs`).
//!
//! Mirroring the serial phase structure is not an accident of caution
//! — it is the measured sweet spot between two failure modes, both
//! driven by L3 content, which accrues over the *entire* prefix.
//! Truncating the warm reach to a constant starves interiors of
//! resident blocks the serial reference would have hit: on the 20M
//! web-search cell a 2M reach costs 37% pooled-IPC error and even 6M
//! still costs 4.5% (the required reach scales with trace length, so
//! no constant passes the gate). Warming the whole prefix
//! *unconditionally* overshoots the other way (+2.6% IPC on the same
//! cell): demand-only functional warming leaves the caches cleaner
//! than real detailed execution, whose prefetch traffic and skipped
//! fast-forward gaps the serial sampler faithfully carries. Replaying
//! the serial structure reproduces serial state evolution — including
//! its convergence-gated skips — so the windowed estimate lands where
//! the serial one does. Per-window replay cost is the initial warmup
//! plus one warmup+interior per prior period (converged gaps skip in
//! O(1)); cost grows with window position, so the pool hands windows
//! out longest-first (LPT) to keep tail windows from straggling.
//! Callers who want constant per-window cost can plan a bounded reach
//! explicitly via [`WindowPlan::with_warm_reach`] and run it through
//! [`Engine::run_windowed_with`], trading fidelity for wall clock.
//!
//! Organizations that need the reuse oracle (OPT, OPT-bypass,
//! accuracy-instrumented ACIC) get a cursor pre-seeked to their
//! window's first block access ([`ReuseOracle::cursor_at`]): the
//! planner's pre-pass records, for every window, the index of the
//! block run containing `warm_start`, so workers resume oracle queries
//! mid-sequence without replaying the prefix.

use super::{Engine, Phase, TimingLoop, WindowCheckpoint, WindowSample};
use crate::config::{SampleSchedule, SimConfig};
use crate::report::{BranchStats, PrefetchStats, SimReport};
use acic_cache::CacheStats;
use acic_core::{AcicIcache, AcicStats, CshrStats};
use acic_trace::{BlockRuns, GroupedRuns, ReuseOracle, TraceSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One planned detailed window: where its warmup starts, where the
/// measured interior starts, and how long the interior is. All
/// positions are instruction indices from the start of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedWindow {
    /// Canonical window number (reduction order).
    pub index: usize,
    /// First instruction of functional warming: 0 in default
    /// full-prefix plans, `detailed_start - warmup - reach` (clamped
    /// at 0) in bounded-reach plans.
    pub warm_start: u64,
    /// First instruction of the detailed interior.
    pub detailed_start: u64,
    /// Interior length (truncated at end-of-trace).
    pub detailed_len: u64,
}

/// How each window's private checkpoint reaches warmth before its
/// detailed interior. Part of the plan — fixed before any window runs
/// — so the per-window computation never depends on execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmPolicy {
    /// Replay the serial schedule's phase structure from instruction 0
    /// up to the window, demoting prior detailed interiors to
    /// functional warmup. Reproduces serial state evolution (the
    /// fidelity default; see the module docs for the measurements).
    MirrorSerial,
    /// Skip straight to the window's `warm_start` and warm only the
    /// bounded reach. Constant per-window cost, measured fidelity loss
    /// that grows with trace length — for throughput screening.
    BoundedReach,
}

/// The full window schedule for one trace: every window's bounds,
/// derived once, identically for any worker count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPlan {
    /// Population size the pooled estimators extrapolate to.
    pub total_instructions: u64,
    /// Windows in canonical (trace) order.
    pub windows: Vec<PlannedWindow>,
    /// Warm policy every window applies.
    pub warm: WarmPolicy,
}

impl WindowPlan {
    /// Derives the window schedule for a `total`-instruction trace
    /// under [`WarmPolicy::MirrorSerial`] — the fidelity-preserving
    /// default (see the module docs for why both truncated reaches and
    /// unconditional full-prefix warming fail the 2% gate).
    ///
    /// The detailed-interior positions mirror the serial cursor walk:
    /// an initial warm-up region of `total * warmup_fraction` is never
    /// measured, the first period is halved so windows land at period
    /// midpoints, and the per-period fast-forward is clamped so a
    /// final warmup+detailed window still fits before end-of-trace
    /// (`ff = min(ff_len, remaining - warmup - detailed)`). A final
    /// interior that would cross end-of-trace is truncated to it.
    ///
    /// Returns `None` for [`SampleSchedule::Full`] and for traces too
    /// short to fit the initial warmup plus one warmup+detailed window
    /// — exactly the cases the serial engine degenerates to full
    /// detail, so callers fall back to [`Engine::run`].
    pub fn for_trace(
        total: u64,
        schedule: SampleSchedule,
        warmup_fraction: f64,
    ) -> Option<WindowPlan> {
        Self::with_warm_reach(total, schedule, warmup_fraction, None)
    }

    /// [`WindowPlan::for_trace`] with an explicit warm-reach policy.
    ///
    /// `Some(reach)` plans [`WarmPolicy::BoundedReach`]: a window's
    /// warmup starts `warmup_len + reach` before its interior
    /// (half-warmup for the first window, like the serial schedule),
    /// clamped at instruction 0 via saturating arithmetic, and the
    /// skipped prefix goes through the source's O(1) skip path.
    /// Per-window cost becomes independent of trace position, at a
    /// measured fidelity cost that grows with trace length — for
    /// throughput screening, not publication-grade numbers. `None`
    /// plans [`WarmPolicy::MirrorSerial`], the only policy that holds
    /// the 2% fidelity gate on long traces.
    pub fn with_warm_reach(
        total: u64,
        schedule: SampleSchedule,
        warmup_fraction: f64,
        reach: Option<u64>,
    ) -> Option<WindowPlan> {
        let SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        } = schedule
        else {
            return None;
        };
        let initial_warmup = (total as f64 * warmup_fraction) as u64;
        if total <= initial_warmup + warmup_len + detailed_len {
            return None;
        }
        let ff_len = period - warmup_len - detailed_len;
        let mut windows = Vec::new();
        let mut pos = initial_warmup;
        let mut first = true;
        while pos < total {
            let remaining = total - pos;
            let (ff_want, warm_want) = if first {
                first = false;
                (ff_len / 2, warmup_len / 2)
            } else {
                (ff_len, warmup_len)
            };
            let ff = ff_want.min(remaining.saturating_sub(warm_want + detailed_len));
            let detailed_start = pos + ff + warm_want;
            if detailed_start >= total {
                break;
            }
            let warm_start = match reach {
                None => 0,
                Some(r) => detailed_start.saturating_sub(warm_want.saturating_add(r)),
            };
            windows.push(PlannedWindow {
                index: windows.len(),
                warm_start,
                detailed_start,
                detailed_len: detailed_len.min(total - detailed_start),
            });
            pos = detailed_start + detailed_len.min(total - detailed_start);
        }
        if windows.is_empty() {
            return None;
        }
        Some(WindowPlan {
            total_instructions: total,
            windows,
            warm: match reach {
                None => WarmPolicy::MirrorSerial,
                Some(_) => WarmPolicy::BoundedReach,
            },
        })
    }
}

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

/// Runs one planned window under [`WarmPolicy::MirrorSerial`]: a
/// private fresh checkpoint replays the serial schedule's phase
/// structure from instruction 0 — initial warmup, then per period the
/// same convergence-gated fast-forward-or-warm and warmup segments as
/// [`Engine::run`] — with every interior before this window's demoted
/// from detailed to functional warmup, and this window's run at
/// detailed fidelity. This function is the unit of determinism: it
/// depends only on `(cfg, workload, window, oracle)`, never on which
/// worker runs it or what ran before it.
///
/// The convergence gate sees warm traffic where the serial engine saw
/// detailed traffic for prior interiors (22k instructions against a
/// ~700k-instruction period), a deliberate approximation: gate
/// decisions shift serial-vs-windowed fidelity, never worker-count
/// determinism, because the replay is identical for every worker.
fn run_window_mirror<W: TraceSource>(
    cfg: &SimConfig,
    workload: &W,
    w: &PlannedWindow,
    total: u64,
    oracle: Option<&ReuseOracle>,
    timing_loop: TimingLoop,
) -> WindowOutcome {
    let SampleSchedule::Periodic {
        period,
        warmup_len,
        detailed_len,
    } = cfg.schedule
    else {
        unreachable!("mirror windows exist only for periodic schedules");
    };
    let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), total, timing_loop);
    state.cursor = oracle.map(|o| o.cursor());
    let mut runs = GroupedRuns::new(workload.iter());
    let initial_warmup = (total as f64 * cfg.warmup_fraction) as u64;
    state.segment(Phase::Warmup, &mut runs, initial_warmup, cfg, W::skip);
    let ff_len = period - warmup_len - detailed_len;
    let mut first_period = true;
    let mut converged = false;
    let mut last_l3_fills = state.mem.warm_l3_fills;
    let mut last_warmed = state.warmed;
    let mut sample = None;
    let mut window_index = 0usize;
    while !state.trace_over && state.consumed < total {
        let remaining = total - state.consumed;
        let (ff_want, warmup) = if first_period {
            first_period = false;
            (ff_len / 2, warmup_len / 2)
        } else {
            (ff_len, warmup_len)
        };
        let ff = ff_want.min(remaining.saturating_sub(warmup + detailed_len));
        if converged && ff > 0 {
            state.segment(Phase::FastForward, &mut runs, ff, cfg, W::skip);
            if state.trace_over {
                break;
            }
            state.segment(Phase::Warmup, &mut runs, warmup, cfg, W::skip);
        } else {
            state.segment(Phase::Warmup, &mut runs, ff + warmup, cfg, W::skip);
        }
        if state.trace_over {
            break;
        }
        if window_index == w.index {
            // Warmup segments consume whole block runs, so the walk
            // lands at or a few instructions past the plan's idealized
            // arithmetic — never before it, and never a period away
            // (that would mean this replay measures the wrong window).
            debug_assert!(
                state.consumed >= w.detailed_start && state.consumed - w.detailed_start < period,
                "replay drifted from the plan: consumed {} vs planned start {}",
                state.consumed,
                w.detailed_start
            );
            sample = state.segment(Phase::Detailed, &mut runs, w.detailed_len, cfg, W::skip);
            break;
        }
        // A prior window's interior: warmed, not measured — deep state
        // keeps evolving as in the serial walk.
        state.segment(
            Phase::Warmup,
            &mut runs,
            detailed_len.min(total - state.consumed),
            cfg,
            W::skip,
        );
        window_index += 1;
        let fills = state.mem.warm_l3_fills - last_l3_fills;
        let warmed = state.warmed - last_warmed;
        last_l3_fills = state.mem.warm_l3_fills;
        last_warmed = state.warmed;
        converged = warmed > 0 && fills * 1_000_000 < warmed * super::L3_CONVERGED_FILLS_PER_MI;
    }
    finish_window(state, sample)
}

/// Runs one planned window under [`WarmPolicy::BoundedReach`]: skip
/// straight to `warm_start` via the source's zero-copy O(1) skip path,
/// warm the bounded reach, measure the interior. Deterministic for the
/// same reason as [`run_window_mirror`].
fn run_window_bounded<W: TraceSource>(
    cfg: &SimConfig,
    workload: &W,
    w: &PlannedWindow,
    total: u64,
    oracle: Option<&ReuseOracle>,
    cursor_starts: Option<&[u64]>,
    timing_loop: TimingLoop,
) -> WindowOutcome {
    let mut state = WindowCheckpoint::fresh(cfg, workload.seed(), total, timing_loop);
    if let (Some(o), Some(starts)) = (oracle, cursor_starts) {
        state.cursor = Some(o.cursor_at(starts[w.index]));
    }
    let mut runs = GroupedRuns::new(workload.iter());
    let skipped = runs.skip_instrs_with(w.warm_start, W::skip);
    state.consumed += skipped;
    state.fastforwarded += skipped;
    if skipped < w.warm_start {
        state.trace_over = true;
    }
    if !state.trace_over {
        state.segment(
            Phase::Warmup,
            &mut runs,
            w.detailed_start - w.warm_start,
            cfg,
            W::skip,
        );
    }
    let sample = if state.trace_over {
        None
    } else {
        state.segment(Phase::Detailed, &mut runs, w.detailed_len, cfg, W::skip)
    };
    finish_window(state, sample)
}

/// Pools per-window outcomes — in canonical window order — into one
/// [`SimReport`], using the same [`super::pool_windows`] estimators as
/// the serial schedule. The reduction is a fold over an index-ordered
/// slice of pure counters, so it is deterministic regardless of which
/// worker produced which outcome when.
fn reduce(cfg: &SimConfig, app: &str, plan: &WindowPlan, outcomes: &[WindowOutcome]) -> SimReport {
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
        super::pool_windows(&windows, plan.total_instructions, warmed, fastforwarded);
    SimReport {
        app: app.to_string(),
        org: cfg.icache_org.label().to_string(),
        total_instructions: plan.total_instructions,
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
    /// the plan is derived before any window runs, each window's
    /// computation depends only on the plan entry (fresh checkpoint,
    /// private trace pass, pre-seeked oracle cursor), and the reducer
    /// folds outcomes in canonical window order.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is inconsistent
    /// ([`SampleSchedule::validate`]) or a worker thread panics.
    pub fn run_windowed<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
    ) -> SimReport {
        Self::run_windowed_inner(cfg, workload, workers, None, TimingLoop::EventHorizon)
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
        Self::run_windowed_inner(cfg, workload, workers, None, timing_loop)
    }

    /// [`Engine::run_windowed`] with a caller-supplied [`WindowPlan`]
    /// — e.g. a bounded-reach plan from
    /// [`WindowPlan::with_warm_reach`]. The plan's
    /// `total_instructions` must match the workload's actual length
    /// (the pooled estimators extrapolate to it).
    ///
    /// The worker-count determinism guarantee is unchanged: it holds
    /// for *any* fixed plan, because each window still runs on a
    /// private fresh checkpoint and the reducer folds in canonical
    /// window order.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent schedule, a plan/trace length
    /// mismatch, or a worker thread panic.
    pub fn run_windowed_with<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
        plan: &WindowPlan,
    ) -> SimReport {
        Self::run_windowed_inner(cfg, workload, workers, Some(plan), TimingLoop::EventHorizon)
    }

    fn run_windowed_inner<W: TraceSource + Sync>(
        cfg: &SimConfig,
        workload: &W,
        workers: usize,
        custom_plan: Option<&WindowPlan>,
        timing_loop: TimingLoop,
    ) -> SimReport {
        cfg.schedule.validate();
        let needs_oracle = cfg.icache_org.needs_oracle() || cfg.attach_oracle;
        // Oracle organizations walk the trace here anyway; record run
        // lengths so window warm-starts map to cursor positions below.
        let (oracle, run_lens, total) = if needs_oracle {
            let mut seq = Vec::new();
            let mut lens: Vec<u32> = Vec::new();
            let mut total = 0u64;
            for r in BlockRuns::new(workload.iter()) {
                seq.push(r.oracle_key());
                lens.push(r.len);
                total += r.len as u64;
            }
            (Some(ReuseOracle::from_sequence(&seq)), lens, total)
        } else {
            let total = workload
                .len_hint()
                .unwrap_or_else(|| workload.iter().count() as u64);
            (None, Vec::new(), total)
        };

        let plan: WindowPlan = match custom_plan {
            Some(p) => {
                assert_eq!(
                    p.total_instructions, total,
                    "window plan must cover the workload's actual length"
                );
                p.clone()
            }
            None => match WindowPlan::for_trace(total, cfg.schedule, cfg.warmup_fraction) {
                Some(p) => p,
                None => return Engine::run_with_loop(cfg, workload, timing_loop),
            },
        };

        // Bounded-reach windows skip their prefix, so a pre-seeked
        // oracle cursor needs, for each window, the index of the block
        // run containing its warm start. Warm starts are nondecreasing,
        // so one pass suffices; a mid-run warm start is exact because
        // the truncated remainder of that run still groups as a single
        // run after the skip, so cursor advances stay one-per-run from
        // there on. (Mirror windows replay from instruction 0 and need
        // no seeking.)
        let cursor_starts: Option<Vec<u64>> = oracle
            .as_ref()
            .filter(|_| plan.warm == WarmPolicy::BoundedReach)
            .map(|_| {
                let mut starts = vec![0u64; plan.windows.len()];
                let mut widx = 0usize;
                let mut cum = 0u64;
                for (ridx, &len) in run_lens.iter().enumerate() {
                    cum += len as u64;
                    while widx < plan.windows.len() && plan.windows[widx].warm_start < cum {
                        starts[widx] = ridx as u64;
                        widx += 1;
                    }
                    if widx == plan.windows.len() {
                        break;
                    }
                }
                starts
            });

        let n = plan.windows.len();
        let run_one = |w: &PlannedWindow| match plan.warm {
            WarmPolicy::MirrorSerial => {
                run_window_mirror(cfg, workload, w, total, oracle.as_ref(), timing_loop)
            }
            WarmPolicy::BoundedReach => run_window_bounded(
                cfg,
                workload,
                w,
                total,
                oracle.as_ref(),
                cursor_starts.as_deref(),
                timing_loop,
            ),
        };
        let outcomes: Vec<WindowOutcome> = if workers <= 1 {
            plan.windows.iter().map(run_one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<WindowOutcome>> = (0..n).map(|_| None).collect();
            let (tx, rx) = mpsc::channel::<(usize, WindowOutcome)>();
            let run_one = &run_one;
            let plan_ref = &plan;
            std::thread::scope(|scope| {
                for _ in 0..workers.min(n) {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        // Hand out windows longest-first (cost grows
                        // with detailed_start under full-prefix
                        // warming): classic LPT keeps the deep tail
                        // windows from straggling. Execution order is
                        // unobservable — outcomes land in index slots.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let i = n - 1 - k;
                        let out = run_one(&plan_ref.windows[i]);
                        if tx.send((i, out)).is_err() {
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
        reduce(cfg, workload.name(), &plan, &outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic(period: u64, warmup_len: u64, detailed_len: u64) -> SampleSchedule {
        SampleSchedule::Periodic {
            period,
            warmup_len,
            detailed_len,
        }
    }

    #[test]
    fn full_schedule_has_no_plan() {
        assert_eq!(
            WindowPlan::for_trace(10_000_000, SampleSchedule::Full, 0.10),
            None
        );
    }

    #[test]
    fn degenerate_trace_has_no_plan() {
        // 20k instructions cannot fit 2k initial warmup + 185k warmup
        // + 22k detailed: the serial engine degenerates to Full, so
        // the planner must refuse too.
        assert_eq!(
            WindowPlan::for_trace(20_000, periodic(700_000, 185_000, 22_000), 0.10),
            None
        );
    }

    #[test]
    fn default_schedule_windows_land_at_period_midpoints() {
        // 20M instructions, default 700k/185k/22k schedule, 10% initial
        // warmup: first interior at 2M + 493k/2 + 185k/2 = 2,339,000,
        // then one window per 700k period until the tail cannot fit a
        // warmup+detailed pair.
        let plan = WindowPlan::for_trace(20_000_000, periodic(700_000, 185_000, 22_000), 0.10)
            .expect("plannable");
        assert_eq!(plan.total_instructions, 20_000_000);
        assert_eq!(plan.windows.len(), 26);
        assert_eq!(plan.windows[0].detailed_start, 2_339_000);
        assert_eq!(plan.windows[1].detailed_start, 3_039_000);
        assert_eq!(plan.windows[25].detailed_start, 19_839_000);
        for w in &plan.windows {
            assert_eq!(w.detailed_len, 22_000);
            assert!(w.detailed_start + w.detailed_len <= 20_000_000);
            assert_eq!(w.warm_start, 0, "default plans warm the full prefix");
        }
    }

    #[test]
    fn plan_is_monotonic_and_in_bounds() {
        for &(total, period, warm, det, frac) in &[
            (20_000_000u64, 700_000u64, 185_000u64, 22_000u64, 0.10f64),
            (1_000_000, 100_000, 20_000, 10_000, 0.10),
            (5_000_000, 250_000, 60_000, 15_000, 0.0),
        ] {
            let plan =
                WindowPlan::for_trace(total, periodic(period, warm, det), frac).expect("plannable");
            let mut prev_end = 0u64;
            for w in &plan.windows {
                assert!(w.warm_start <= w.detailed_start, "warmup precedes interior");
                assert!(w.detailed_start >= prev_end, "interiors are disjoint");
                assert!(w.detailed_len > 0);
                assert!(w.detailed_start + w.detailed_len <= total);
                prev_end = w.detailed_start + w.detailed_len;
            }
            assert_eq!(
                plan.windows.last().unwrap().index,
                plan.windows.len() - 1,
                "indices are canonical"
            );
        }
    }

    #[test]
    fn warm_start_clamps_at_instruction_zero() {
        // Bounded reach, no initial warmup region, early first
        // interior: a 2M reach would start before instruction 0 and
        // must clamp (saturate), not wrap.
        let plan = WindowPlan::with_warm_reach(
            1_000_000,
            periodic(100_000, 20_000, 10_000),
            0.0,
            Some(2_000_000),
        )
        .expect("plannable");
        assert_eq!(plan.windows[0].detailed_start, 45_000);
        assert_eq!(plan.windows[0].warm_start, 0);
    }

    #[test]
    fn bounded_reach_positions_warm_starts_behind_interiors() {
        // Deep in the trace the reach no longer clamps: each warmup
        // starts exactly `warmup_len + reach` before its interior.
        let plan = WindowPlan::with_warm_reach(
            1_000_000,
            periodic(100_000, 20_000, 10_000),
            0.0,
            Some(50_000),
        )
        .expect("plannable");
        let w = &plan.windows[3];
        assert_eq!(w.warm_start, w.detailed_start - 20_000 - 50_000);
        // An unbounded reach over the same schedule differs only in
        // warm starts.
        let full =
            WindowPlan::for_trace(1_000_000, periodic(100_000, 20_000, 10_000), 0.0).unwrap();
        assert_eq!(full.windows.len(), plan.windows.len());
        for (a, b) in full.windows.iter().zip(&plan.windows) {
            assert_eq!(a.detailed_start, b.detailed_start);
            assert_eq!(a.detailed_len, b.detailed_len);
            assert_eq!(a.warm_start, 0);
        }
    }

    #[test]
    fn final_window_truncates_at_end_of_trace() {
        // With 80k instructions and a 100k/20k/10k schedule the second
        // window's fast-forward clamps to zero and its interior hits
        // end-of-trace at 5k of its 10k budget.
        let plan = WindowPlan::for_trace(80_000, periodic(100_000, 20_000, 10_000), 0.0)
            .expect("plannable");
        let last = plan.windows.last().unwrap();
        assert_eq!(last.detailed_start, 75_000);
        assert_eq!(last.detailed_len, 5_000);
        assert_eq!(last.detailed_start + last.detailed_len, 80_000);
    }

    #[test]
    fn fast_forward_clamp_matches_serial_tail_rule() {
        // remaining - warmup - detailed < ff_len near the tail: the
        // planner shortens the skip so a final window still fits —
        // the same `ff = min(ff_len, remaining - warmup - detailed)`
        // clamp as the serial cursor walk.
        let plan = WindowPlan::for_trace(1_050_000, periodic(100_000, 20_000, 10_000), 0.0)
            .expect("plannable");
        let last = plan.windows.last().unwrap();
        assert!(last.detailed_start + last.detailed_len <= 1_050_000);
        // Every interior fits wholly inside the trace; the clamp never
        // plans an empty window.
        assert!(plan.windows.iter().all(|w| w.detailed_len > 0));
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::icache::IcacheOrg;

    #[test]
    #[ignore = "diagnostic"]
    fn windowed_vs_serial_debug() {
        use acic_workloads::{AppProfile, SyntheticWorkload};
        let wl = SyntheticWorkload::with_instructions(AppProfile::web_search(), 5_000_000);
        for org in [IcacheOrg::Lru, IcacheOrg::acic_default()] {
            let cfg = SimConfig::default()
                .with_org(org.clone())
                .with_schedule(SampleSchedule::default_sampled());
            eprintln!("=== serial {org:?} ===");
            let s = Engine::run(&cfg, &wl);
            eprintln!("=== windowed {org:?} ===");
            let w = Engine::run_windowed(&cfg, &wl, 1);
            eprintln!(
                "{org:?}: serial ipc {:.4} windowed ipc {:.4}",
                s.ipc(),
                w.ipc()
            );
            eprintln!(
                "serial l2 {:?} l3 {:?} dram {}",
                s.l2.demand_misses, s.l3.demand_misses, s.dram_accesses
            );
            eprintln!(
                "windowed l2 {:?} l3 {:?} dram {}",
                w.l2.demand_misses, w.l3.demand_misses, w.dram_accesses
            );
        }
    }
}
