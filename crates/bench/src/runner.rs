//! Shared experiment plumbing: instruction budgets, spec-keyed frozen
//! traces, fault-isolated parallel simulation fan-out, resumable
//! grids, and markdown rendering.
//!
//! Every experiment path acquires instructions the same way now: a
//! [`WorkloadSpec`] is frozen **once** into an immutable
//! [`PackedTrace`] (via [`crate::trace_store::freeze`]), and every
//! configuration row, thread, and repeat replays the shared `Arc`
//! zero-copy. The cell executor freezes lazily through a per-run
//! `TraceSet`: only the specs of cells the store did not replay,
//! each at most once. A C-config × A-spec grid therefore pays A
//! generation passes instead of C × A — the generation cost that used
//! to dominate figure wall time after the simulators got fast.
//! Replay is bit-identical to generation (same stream, same
//! name-derived seeds), pinned by
//! `frozen_grid_matches_generator_backed_runs` below.
//!
//! **Fault isolation.** Cells run on [`run_cells`], a scoped pool:
//! each cell is wrapped in `catch_unwind`, so one panicking cell
//! becomes one [`CellError`] instead of tearing down the whole sweep.
//! An armed per-cell deadline ([`Runner::cell_timeout`]) cannot kill a
//! wedged thread, so a cell that overruns it ends the run: the failure
//! summary names the cell and the process exits 1, with every finished
//! cell already journaled. Hard deadlines, retries and crash reports
//! are the supervised tier's ([`crate::supervise`]).
//! [`Runner::try_run_grid`] surfaces the per-cell outcomes
//! as a structured [`GridError`]; [`Runner::run_grid`] keeps the
//! infallible signature for figure code and panics with that
//! structured report (which the `experiments` keep-going loop then
//! catches per figure).
//!
//! **Resume.** When a [`crate::result_store::ResultStore`] is
//! attached ([`Runner::store`]), every finished cell is journaled as
//! soon as it completes and an interrupted sweep replays finished
//! cells from disk, simulating only the rest.
//!
//! **One executor.** Figure grids ([`Runner::try_run_grid`]) and the
//! DSE ladder (`dse::run_dse`) hand their [`Cell`]s to the same
//! `execute`, which alone owns store replay, supervised vs in-process
//! dispatch, scripted faults and journaling, and runs every cell
//! through [`Cell::run`]. Its settings arrive as values — the store,
//! the supervisor ([`crate::supervise::SuperviseCtx`]), the watchdog —
//! that `experiments` builds once and passes down; [`Runner::new`]
//! reads no environment and attaches no store, no supervisor and no
//! deadline. Only the worker count comes from a knob read here
//! (`ACIC_BENCH_THREADS`, [`bench_threads`]).

use crate::cell::{Cell, Exec};
use crate::result_store::ResultStore;
use crate::supervise::SuperviseCtx;
use acic_sim::{IcacheOrg, PrefetcherKind, SimConfig, SimReport};
use acic_trace::PackedTrace;
use acic_workloads::AppProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

pub use acic_workloads::{short_name, split_budget, WorkloadSpec};

static THREADS_WARNING: Once = Once::new();
static OVERSUBSCRIPTION_WARNING: Once = Once::new();

pub(crate) fn warn_ignored(once: &'static Once, var: &str, raw: &str) {
    once.call_once(|| {
        eprintln!("[warning: {var}={raw:?} is not a valid value; override ignored]");
    });
}

/// Instructions simulated per cell unless a caller sets its own (the
/// paper runs 500 M–1 B; shapes stabilize well below that).
pub const DEFAULT_INSTRUCTIONS: u64 = 1_000_000;

/// Resolves the grid worker count from an `ACIC_BENCH_THREADS`-style
/// override and the machine's available parallelism: a parseable
/// positive override wins (clamped to ≥ 1 by construction — zero and
/// garbage fall back), otherwise `available`. Pure so the policy is
/// testable without touching the process environment.
pub fn bench_threads_from(var: Option<&str>, available: usize) -> usize {
    var.and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(available)
        .max(1)
}

/// Grid worker count: `ACIC_BENCH_THREADS` (clamped to ≥ 1) or the
/// machine's available parallelism. An override that parses to
/// nothing usable warns once on stderr and is ignored.
pub fn bench_threads() -> usize {
    let raw = std::env::var("ACIC_BENCH_THREADS").ok();
    if let Some(r) = raw.as_deref() {
        if r.parse::<usize>().ok().filter(|&n| n >= 1).is_none() {
            warn_ignored(&THREADS_WARNING, "ACIC_BENCH_THREADS", r);
        }
    }
    bench_threads_from(
        raw.as_deref(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
    )
}

/// Composes the grid worker count and the per-cell window worker
/// count out of **one** thread budget (`ACIC_BENCH_THREADS` /
/// available parallelism), so grid × window parallelism never
/// oversubscribes the machine: with windowed execution off
/// (`window_threads <= 1` adds no concurrency per cell) the whole
/// budget goes to grid cells; otherwise each cell spends
/// `window_threads` threads, so only `budget / window_threads` cells
/// run at once (at least one). Returns `(grid_workers,
/// oversubscribed)`, the flag set when a single cell alone exceeds
/// the budget — the one composition that cannot be satisfied without
/// oversubscribing. Pure for testability.
pub fn split_thread_budget(budget: usize, window_threads: usize) -> (usize, bool) {
    if window_threads <= 1 {
        (budget.max(1), false)
    } else {
        ((budget / window_threads).max(1), window_threads > budget)
    }
}

/// Why one grid cell failed while the rest of the sweep went on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The cell's simulation panicked; the payload message.
    Panicked(String),
    /// The cell's workload could not be frozen (a panic during
    /// materialization, or a failed handoff-file write).
    Freeze(String),
    /// Under `--supervise`: every attempt of the cell's child process
    /// failed; the final attempt's exit evidence and the attempt
    /// count (full history in the crash report).
    ChildFailed {
        /// The last attempt's [`crate::supervise::policy::ChildOutcome`],
        /// rendered.
        outcome: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellError::Freeze(msg) => write!(f, "workload freeze failed: {msg}"),
            CellError::ChildFailed { outcome, attempts } => {
                write!(f, "child failed after {attempts} attempt(s): {outcome}")
            }
        }
    }
}

impl std::error::Error for CellError {}

/// One failed cell inside a [`GridError`], located by its labels.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Config row index and the organization's display label.
    pub config: String,
    /// The workload spec's display label.
    pub spec: String,
    /// What went wrong.
    pub error: CellError,
}

/// The structured end-of-grid failure report: every cell that failed,
/// plus how much of the sweep still completed. `Display` renders the
/// human-readable summary the `experiments` binary prints, grouping
/// identical errors (an 870-cell sweep where one config panics
/// everywhere prints one group with exemplars, not 870 lines).
#[derive(Debug)]
pub struct GridError {
    /// Cells that produced a report.
    pub completed: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Every failed cell with its location and cause.
    pub failures: Vec<CellFailure>,
    /// Where per-cell crash reports were written, when the grid ran
    /// under `--supervise`.
    pub crash_dir: Option<std::path::PathBuf>,
}

/// How many failed-cell exemplars a [`GridError`] summary prints per
/// distinct error before eliding the rest.
const FAILURE_EXEMPLARS: usize = 10;

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "grid failed: {} of {} cells completed, {} failed",
            self.completed,
            self.total,
            self.failures.len()
        )?;
        // Group identical errors, preserving first-seen order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: std::collections::HashMap<String, Vec<&CellFailure>> =
            std::collections::HashMap::new();
        for fail in &self.failures {
            let rendered = fail.error.to_string();
            if !groups.contains_key(&rendered) {
                order.push(rendered.clone());
            }
            groups.entry(rendered).or_default().push(fail);
        }
        for rendered in &order {
            let group = &groups[rendered];
            if group.len() == 1 {
                let fail = group[0];
                writeln!(f, "  [{} x {}]: {}", fail.config, fail.spec, rendered)?;
            } else {
                writeln!(
                    f,
                    "  {} cells failed identically: {}",
                    group.len(),
                    rendered
                )?;
                for fail in group.iter().take(FAILURE_EXEMPLARS) {
                    writeln!(f, "    [{} x {}]", fail.config, fail.spec)?;
                }
                if group.len() > FAILURE_EXEMPLARS {
                    writeln!(
                        f,
                        "    ... and {} more cells with this error",
                        group.len() - FAILURE_EXEMPLARS
                    )?;
                }
            }
        }
        if let Some(dir) = &self.crash_dir {
            writeln!(f, "  crash reports: {}", dir.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for GridError {}

/// A successful grid sweep plus its provenance counters.
pub struct GridRun {
    /// Reports in `configs x specs` order.
    pub grid: Vec<Vec<SimReport>>,
    /// Cells served from the attached result store.
    pub replayed: u64,
    /// Cells actually simulated this run.
    pub computed: u64,
}

/// A panic payload's message (`&str` or `String` payloads).
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Prints the run's failure summary on stderr and exits 1: the one
/// place that writes the `==== failure summary ====` report, for the
/// figures `experiments` saw fail and for a cell past its in-process
/// deadline. Each failure is a name (a figure, or a cell's label) and
/// its message.
pub fn exit_with_failure_summary(kind: &str, failures: &[(String, String)]) -> ! {
    eprintln!("==== failure summary ====");
    eprintln!("{} {kind}(s) failed:", failures.len());
    for (name, msg) in failures {
        eprintln!("--- {name} ---");
        for line in msg.trim_end().lines() {
            eprintln!("  {line}");
        }
    }
    std::process::exit(1);
}

/// Fault-isolated parallel map over `0..work` on a scoped pool of
/// `threads` workers. An atomic cursor hands out the cells, so long
/// cells (OPT, oracle pre-passes) never serialize behind a static
/// chunk. Each cell runs under `catch_unwind`: a panic fails that cell
/// alone ([`CellError::Panicked`]) and every other cell still runs.
/// Results come back in input order.
///
/// With a `deadline` (a limit and each cell's label) the calling
/// thread watches when each running cell started. A thread cannot be
/// killed and a scope cannot join a wedged one, so a cell past the
/// limit ends the process through [`exit_with_failure_summary`],
/// naming the cell; the cells that finished are already journaled.
///
/// # Panics
///
/// Panics once the scope has joined if a worker thread died anyway: an
/// unwind that escapes `catch_unwind`, such as a panic payload whose
/// `Drop` panics. The figure then fails loudly and is not retried.
pub fn run_cells<T: Send>(
    work: usize,
    threads: usize,
    deadline: Option<(Duration, &dyn Fn(usize) -> String)>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, CellError>> {
    let (cursor, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let caller = std::thread::current();
    // Per worker: the cell it is running and when that cell started.
    let running: Vec<Mutex<Option<(usize, Instant)>>> = (0..threads.max(1).min(work))
        .map(|_| Mutex::new(None))
        .collect();
    let mut slots: Vec<Option<Result<T, CellError>>> = (0..work).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = running
            .iter()
            .map(|current| {
                let (cursor, finished, caller, f) = (&cursor, &finished, &caller, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= work {
                            return done;
                        }
                        *current.lock().expect("watch slot") = Some((i, Instant::now()));
                        let res = catch_unwind(AssertUnwindSafe(|| f(i)))
                            .map_err(|p| CellError::Panicked(panic_message(&*p)));
                        *current.lock().expect("watch slot") = None;
                        done.push((i, res));
                        finished.fetch_add(1, Ordering::Release);
                        caller.unpark();
                    }
                })
            })
            .collect();
        if let Some((limit, label)) = deadline {
            while finished.load(Ordering::Acquire) < work
                && workers.iter().any(|w| !w.is_finished())
            {
                for (w, current) in workers.iter().zip(&running) {
                    let overdue = match *current.lock().expect("watch slot") {
                        Some((i, at)) if !w.is_finished() && at.elapsed() > limit => Some(i),
                        _ => None,
                    };
                    if let Some(i) = overdue {
                        let why = format!("exceeded the {}s cell watchdog", limit.as_secs());
                        exit_with_failure_summary("cell", &[(label(i), why)]);
                    }
                }
                std::thread::park_timeout(Duration::from_millis(100));
            }
        }
        let mut lost = 0;
        for w in workers {
            match w.join() {
                Ok(done) => {
                    for (i, res) in done {
                        slots[i] = Some(res);
                    }
                }
                Err(_) => lost += 1,
            }
        }
        assert!(
            lost == 0,
            "{lost} cell worker thread(s) died outside catch_unwind"
        );
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell ran"))
        .collect()
}

/// Freezes every spec in `specs` exactly once (structurally equal
/// specs share one frozen trace) and returns the per-spec outcomes,
/// in input order — a freeze failure (a panic during materialization)
/// fails only the cells that need that spec.
/// Freezing fans out across the [`bench_threads`] pool; the cell
/// executor freezes through the same `TraceSet` on its batch's
/// thread count instead.
pub fn try_freeze_specs(
    specs: &[WorkloadSpec],
    instructions: u64,
) -> Vec<Result<Arc<PackedTrace>, String>> {
    let set = TraceSet::new(specs, instructions);
    set.freeze(0..specs.len(), bench_threads(), None);
    (0..specs.len())
        .map(|a| set.held(a).map(|held| held.trace().clone()))
        .collect()
}

/// A frozen spec as a [`TraceSet`] keeps it.
#[derive(Clone)]
enum Held {
    /// The trace itself, for cells simulated in this process.
    Trace(Arc<PackedTrace>),
    /// A supervised parent's handoff file, which the cell's children
    /// decode; the parent keeps only the path.
    Handoff(std::path::PathBuf),
}

impl Held {
    fn trace(&self) -> &Arc<PackedTrace> {
        match self {
            Held::Trace(trace) => trace,
            Held::Handoff(path) => unreachable!("handoff {} held in process", path.display()),
        }
    }

    fn handoff(&self) -> &std::path::Path {
        match self {
            Held::Handoff(path) => path,
            Held::Trace(_) => unreachable!("in-process trace held by a supervised parent"),
        }
    }
}

/// One run's traces: its specs, the budget they freeze at, and a
/// per-spec cache the cell executor fills lazily. Structurally equal
/// specs share a slot, a spec freezes at most once per set, and only
/// when a batch has a cell left to compute over it. A supervised
/// parent caches the path of the handoff file it wrote, not the
/// trace, and dropping the set deletes those files. A figure grid
/// builds one set per call; the DSE ladder builds one for all rungs.
pub(crate) struct TraceSet {
    /// Distinct specs, first-occurrence order.
    specs: Vec<WorkloadSpec>,
    /// Each input spec's index into `specs`.
    slot_of: Vec<usize>,
    budget: u64,
    held: Mutex<Vec<Option<Result<Held, String>>>>,
    freezes: AtomicUsize,
}

impl TraceSet {
    pub(crate) fn new(specs: &[WorkloadSpec], budget: u64) -> Self {
        let mut distinct: Vec<WorkloadSpec> = Vec::new();
        let slot_of = specs
            .iter()
            .map(|s| match distinct.iter().position(|t| t == s) {
                Some(u) => u,
                None => {
                    distinct.push(s.clone());
                    distinct.len() - 1
                }
            })
            .collect();
        TraceSet {
            held: Mutex::new(vec![None; distinct.len()]),
            specs: distinct,
            slot_of,
            budget,
            freezes: AtomicUsize::new(0),
        }
    }

    #[cfg(test)]
    fn spec(&self, a: usize) -> &WorkloadSpec {
        &self.specs[self.slot_of[a]]
    }

    /// Distinct specs frozen so far (failed freezes included).
    #[cfg(test)]
    pub(crate) fn freezes(&self) -> usize {
        self.freezes.load(Ordering::Relaxed)
    }

    /// Freezes the not-yet-frozen specs among `specs` (input indices)
    /// on `threads` pool workers. Under a supervised `parent` each
    /// worker writes its trace as a handoff file and drops it.
    fn freeze(
        &self,
        specs: impl IntoIterator<Item = usize>,
        threads: usize,
        parent: Option<&SuperviseCtx>,
    ) {
        let mut held = self.held.lock().expect("trace set lock");
        let mut slots: Vec<usize> = specs.into_iter().map(|a| self.slot_of[a]).collect();
        slots.sort_unstable();
        slots.dedup();
        slots.retain(|&u| held[u].is_none());
        if slots.is_empty() {
            return;
        }
        self.freezes.fetch_add(slots.len(), Ordering::Relaxed);
        let budget = self.budget;
        let frozen = run_cells(slots.len(), threads, None, |t| {
            let spec = &self.specs[slots[t]];
            let Ok(trace) = crate::trace_store::freeze(spec, budget);
            match parent {
                Some(ctx) => ctx.write_handoff(spec, budget, &trace).map(Held::Handoff),
                None => Ok(Held::Trace(trace)),
            }
        });
        for (u, res) in slots.into_iter().zip(frozen) {
            held[u] = Some(match res {
                Ok(inner) => inner,
                Err(CellError::Panicked(msg)) => Err(msg),
                Err(e) => Err(e.to_string()),
            });
        }
    }

    /// Spec `a`'s frozen trace or handoff path, or why its freeze
    /// failed.
    ///
    /// # Panics
    ///
    /// Panics when `a` was never frozen.
    fn held(&self, a: usize) -> Result<Held, String> {
        self.held.lock().expect("trace set lock")[self.slot_of[a]]
            .clone()
            .expect("spec frozen before use")
    }
}

impl Drop for TraceSet {
    fn drop(&mut self) {
        let held = self.held.get_mut().unwrap_or_else(|e| e.into_inner());
        for path in held.iter().filter_map(|h| match h {
            Some(Ok(Held::Handoff(path))) => Some(path),
            _ => None,
        }) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Deliberate failure injection for crash-safety tests: the CLI and
/// integration tests pin a single cell to panic, abort, stall, be
/// SIGKILLed, or exit with a bad status via the `ACIC_*_CELL` knobs
/// (`"<config>:<spec>"`, with an optional parameter suffix;
/// scripting and attempt-gating live in
/// [`crate::fault::scripted_cell_fault`]). No-ops unless a matching
/// variable is set.
pub(crate) fn injected_cell_failure(c: usize, a: usize) {
    use crate::fault::CellFault;
    match crate::fault::scripted_cell_fault(c, a) {
        None => {}
        Some(CellFault::Panic) => panic!("injected test panic in cell ({c},{a})"),
        Some(CellFault::Abort) => {
            eprintln!("[injected abort in cell ({c},{a})]");
            std::process::abort();
        }
        Some(CellFault::Stall(delay)) => std::thread::sleep(delay),
        Some(CellFault::Kill) => {
            eprintln!("[injected kill in cell ({c},{a})]");
            crate::supervise::kill_self();
        }
        Some(CellFault::Exit(code)) => {
            eprintln!("[injected exit {code} in cell ({c},{a})]");
            std::process::exit(code);
        }
    }
}

/// One batch of cells for [`execute`], with the run settings it
/// executes under.
pub(crate) struct Batch<'a> {
    /// The cells, in result order.
    pub cells: Vec<Cell>,
    /// `(config, spec)` per cell: the spec index picks the cell's
    /// trace, and the pair is what scripted faults aim at.
    pub coords: Vec<(usize, usize)>,
    /// Display label per cell (crash reports).
    pub labels: Vec<String>,
    /// The run's traces, indexed by each cell's spec.
    pub traces: &'a TraceSet,
    /// Worker threads, for freezing and for cells.
    pub threads: usize,
    /// Replay finished cells from, and journal new ones into, here.
    pub store: Option<&'a Arc<ResultStore>>,
    /// The supervised parent's context; `None` runs in process.
    pub supervise: Option<&'a SuperviseCtx>,
    /// The per-cell deadline: the hard per-child deadline when
    /// supervised; in process, a cell past it ends the run
    /// ([`run_cells`]).
    pub cell_timeout: Option<Duration>,
}

/// What [`execute`] made of a batch.
pub(crate) struct Executed {
    /// One outcome per cell, in batch order.
    pub slots: Vec<Result<SimReport, CellError>>,
    /// Cells served from the store.
    pub replayed: u64,
    /// Cells simulated (or attempted) this run.
    pub computed: u64,
    /// Where crash reports went, when the batch ran supervised.
    pub crash_dir: Option<std::path::PathBuf>,
}

/// The one cell executor behind figure grids and the DSE ladder.
///
/// In order: store hits replay, the specs of the cells left to
/// compute freeze (each at most once per [`TraceSet`], on the batch's
/// threads), and those cells run either one child process per cell
/// under a hard deadline ([`crate::supervise::run_one`], as a
/// supervised parent, which hands each child its cell and its spec's
/// trace file) or through [`Cell::run`] on the [`run_cells`] pool,
/// where a cell past the deadline ends the run. Each finished cell is
/// journaled as it completes.
pub(crate) fn execute(batch: Batch<'_>) -> Executed {
    let n = batch.cells.len();
    let traces = batch.traces;
    let keys: Vec<String> = batch.cells.iter().map(Cell::key).collect();
    let mut slots: Vec<Option<Result<SimReport, CellError>>> = vec![None; n];
    let mut replayed = 0u64;
    for (slot, key) in slots.iter_mut().zip(&keys) {
        if let Some(report) = batch.store.and_then(|s| s.get(key)) {
            *slot = Some(Ok(report));
            replayed += 1;
        }
    }
    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let parent = batch.supervise;
    traces.freeze(
        pending.iter().map(|&i| batch.coords[i].1),
        batch.threads,
        parent,
    );
    let mut todo: Vec<(usize, Held)> = Vec::with_capacity(pending.len());
    for i in pending {
        match traces.held(batch.coords[i].1) {
            Ok(held) => todo.push((i, held)),
            Err(e) => slots[i] = Some(Err(CellError::Freeze(e))),
        }
    }
    let computed = todo.len() as u64;
    let crash_dir = parent.map(|ctx| ctx.crash_dir.clone());
    let journal = |i: usize, report: &SimReport| {
        let Some(store) = batch.store else { return };
        let put = match batch.cells[i].rung() {
            Some(r) => store.put_rung(&keys[i], r, report),
            None => store.put(&keys[i], report),
        };
        if let Err(e) = put {
            eprintln!(
                "[results: failed to journal cell {} ({e}); kept in memory]",
                keys[i]
            );
        }
    };
    let results: Vec<Result<SimReport, CellError>> = if let Some(ctx) = parent {
        // The parent only journals what each child reported, so the
        // journal stays byte-identical to the in-process path.
        run_cells(todo.len(), batch.threads, None, |t| {
            let (i, held) = &todo[t];
            let report = crate::supervise::run_one(
                ctx,
                &batch.cells[*i],
                batch.coords[*i],
                &keys[*i],
                &batch.labels[*i],
                held.handoff(),
                batch.cell_timeout,
            )?;
            journal(*i, &report);
            Ok(report)
        })
        .into_iter()
        .map(|r| r.and_then(|inner| inner))
        .collect()
    } else {
        let label = |t: usize| batch.labels[todo[t].0].clone();
        let deadline = batch
            .cell_timeout
            .map(|limit| (limit, &label as &dyn Fn(usize) -> String));
        run_cells(todo.len(), batch.threads, deadline, |t| {
            let (i, held) = &todo[t];
            let (c, a) = batch.coords[*i];
            injected_cell_failure(c, a);
            let report = batch.cells[*i].run(held.trace());
            journal(*i, &report);
            report
        })
    };
    for (&(i, _), res) in todo.iter().zip(results) {
        slots[i] = Some(res);
    }
    Executed {
        slots: slots
            .into_iter()
            .map(|s| s.expect("every cell resolved"))
            .collect(),
        replayed,
        computed,
        crash_dir,
    }
}

/// A parallel fan-out over (organization x application) grids.
#[derive(Clone)]
pub struct Runner {
    /// Simulation length per application.
    pub instructions: u64,
    /// Baseline configuration (LRU + the chosen prefetcher).
    pub baseline: SimConfig,
    /// Resumable cell store; finished cells are journaled as they
    /// complete and replayed on the next run (`experiments
    /// --results`).
    pub store: Option<Arc<ResultStore>>,
    /// Per-cell deadline: the hard per-child deadline when supervised;
    /// in process, a cell past it ends the run with a failure summary
    /// ([`run_cells`]). `experiments` sets it from
    /// `ACIC_CELL_TIMEOUT_SECS`; [`Runner::new`] leaves it off.
    pub cell_timeout: Option<Duration>,
    /// Window-parallel workers per cell: `0` runs the serial engine
    /// ([`acic_sim::Engine::run`]), `>= 1` fans each sampled cell's
    /// detailed windows across this many workers
    /// ([`acic_sim::Engine::run_windowed`]),
    /// with grid parallelism divided down so grid × window threads
    /// stay within the one [`bench_threads`] budget
    /// ([`split_thread_budget`]). No shipped figure sets it.
    pub window_threads: usize,
    /// Process supervision: runs every to-be-computed cell in its own
    /// `--run-cell` child with hard timeouts, retries and crash
    /// reports. `None` keeps the in-process path, which stays the
    /// bit-identity reference.
    pub supervise: Option<Arc<SuperviseCtx>>,
}

impl Runner {
    /// Creates a runner with the standard LRU+FDP baseline at
    /// [`DEFAULT_INSTRUCTIONS`], no store, no supervisor and no
    /// deadline. It reads no environment.
    pub fn new() -> Self {
        Runner {
            instructions: DEFAULT_INSTRUCTIONS,
            baseline: SimConfig::default(),
            store: None,
            cell_timeout: None,
            window_threads: 0,
            supervise: None,
        }
    }

    /// This runner over a different prefetcher baseline (Figures
    /// 20/21 use the entangling prefetcher).
    pub fn with_prefetcher(&self, prefetcher: PrefetcherKind) -> Self {
        Runner {
            baseline: self.baseline.with_prefetcher(prefetcher),
            ..self.clone()
        }
    }

    /// Runs every (config, workload spec) pair in parallel, returning
    /// results in `configs x specs` order.
    ///
    /// Scheduling is spec-keyed: each distinct spec is frozen into a
    /// [`PackedTrace`] exactly once (in parallel), then the
    /// config × spec cells replay the shared `Arc`s under
    /// work-stealing (an atomic cursor over the cell list) so long
    /// cells (OPT, oracle pre-passes) don't serialize behind static
    /// chunking. Thread count follows available parallelism,
    /// overridable via `ACIC_BENCH_THREADS` (clamped to ≥ 1 — handy
    /// for pinning CI or sharing a box). Results are identical to a
    /// serial generator-backed loop regardless of thread
    /// interleaving: packed replay is bit-identical to generation,
    /// each cell's workload seed derives only from its spec (profiles
    /// and quantum), and the simulator's internal seeds derive only
    /// from the workload name — never from cell order, thread
    /// identity, or wall-clock time (asserted by
    /// `frozen_grid_matches_generator_backed_runs`).
    ///
    /// # Panics
    ///
    /// Panics with the structured [`GridError`] report when any cell
    /// fails; callers with a failure path use [`Runner::try_run_grid`].
    pub fn run_grid(&self, configs: &[SimConfig], specs: &[WorkloadSpec]) -> Vec<Vec<SimReport>> {
        match self.try_run_grid(configs, specs) {
            Ok(run) => run.grid,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Runner::run_grid`] with per-cell fault isolation surfaced:
    /// the grid's cells go through the one cell executor, a failing
    /// cell becomes one entry in the returned [`GridError`] while
    /// every other cell still completes (and is journaled when a
    /// store is attached). An in-process cell past
    /// [`Runner::cell_timeout`] ends the run instead ([`run_cells`]).
    ///
    /// # Errors
    ///
    /// Returns the structured failure report when at least one cell
    /// failed; completed cells are still journaled to the store, so a
    /// rerun resumes rather than restarts.
    pub fn try_run_grid(
        &self,
        configs: &[SimConfig],
        specs: &[WorkloadSpec],
    ) -> Result<GridRun, GridError> {
        let (n_cfg, n_spec) = (configs.len(), specs.len());
        let n = n_cfg * n_spec;
        if n == 0 {
            return Ok(GridRun {
                grid: vec![Vec::new(); n_cfg],
                replayed: 0,
                computed: 0,
            });
        }
        let coords: Vec<(usize, usize)> = (0..n).map(|i| (i / n_spec, i % n_spec)).collect();
        let labels: Vec<String> = coords
            .iter()
            .map(|&(c, a)| {
                format!(
                    "config {c} '{}' x spec '{}'",
                    configs[c].icache_org.label(),
                    specs[a].label()
                )
            })
            .collect();
        let window_threads = self.window_threads;
        let exec = if window_threads >= 1 {
            Exec::Windowed {
                threads: window_threads,
            }
        } else {
            Exec::Serial
        };
        let cells: Vec<Cell> = coords
            .iter()
            .map(|&(c, a)| Cell {
                spec: specs[a].clone(),
                config: configs[c].clone(),
                budget: self.instructions,
                exec,
            })
            .collect();
        let budget = bench_threads();
        let (threads, oversubscribed) = split_thread_budget(budget, window_threads);
        if oversubscribed {
            OVERSUBSCRIPTION_WARNING.call_once(|| {
                eprintln!(
                    "[warning: window-threads {window_threads} exceeds the thread budget \
                     {budget}; a single cell already oversubscribes the machine]"
                );
            });
        }
        let traces = TraceSet::new(specs, self.instructions);
        let run = execute(Batch {
            cells,
            coords: coords.clone(),
            labels,
            traces: &traces,
            threads,
            store: self.store.as_ref(),
            supervise: self.supervise.as_deref(),
            cell_timeout: self.cell_timeout,
        });
        if self.store.is_some() {
            eprintln!(
                "[results: {} replayed, {} computed]",
                run.replayed, run.computed
            );
        }
        let mut failures = Vec::new();
        let mut reports = Vec::with_capacity(n);
        for (slot, &(c, a)) in run.slots.into_iter().zip(&coords) {
            match slot {
                Ok(r) => reports.push(r),
                Err(error) => failures.push(CellFailure {
                    config: format!("config {c} '{}'", configs[c].icache_org.label()),
                    spec: format!("spec '{}'", specs[a].label()),
                    error,
                }),
            }
        }
        if !failures.is_empty() {
            return Err(GridError {
                completed: n - failures.len(),
                total: n,
                failures,
                crash_dir: run.crash_dir,
            });
        }
        let mut flat = reports.into_iter();
        Ok(GridRun {
            grid: (0..n_cfg)
                .map(|_| flat.by_ref().take(n_spec).collect())
                .collect(),
            replayed: run.replayed,
            computed: run.computed,
        })
    }

    /// Convenience: baseline plus a list of organizations over
    /// single-tenant applications, all under the runner's prefetcher.
    /// Returns `(baseline_row, org_rows)`.
    pub fn run_orgs(
        &self,
        orgs: &[IcacheOrg],
        apps: &[AppProfile],
    ) -> (Vec<SimReport>, Vec<Vec<SimReport>>) {
        let mut configs = vec![self.baseline.clone()];
        configs.extend(orgs.iter().map(|o| self.baseline.with_org(o.clone())));
        let mut grid = self.run_grid(&configs, &WorkloadSpec::singles(apps));
        let baseline = grid.remove(0);
        (baseline, grid)
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a markdown table.
pub fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_sim::{Engine, SampleSchedule};

    #[test]
    fn thread_override_policy() {
        assert_eq!(bench_threads_from(None, 8), 8, "no override: available");
        assert_eq!(bench_threads_from(Some("3"), 8), 3, "override wins");
        assert_eq!(bench_threads_from(Some("0"), 8), 8, "zero rejected");
        assert_eq!(bench_threads_from(Some("lots"), 8), 8, "garbage rejected");
        assert_eq!(bench_threads_from(Some("16"), 8), 16, "may exceed cores");
        assert_eq!(bench_threads_from(None, 0), 1, "clamped to >= 1");
    }

    #[test]
    fn thread_budget_splits_between_grid_and_windows() {
        // Windowed off (or one worker per cell): the whole budget
        // goes to grid cells.
        assert_eq!(split_thread_budget(8, 0), (8, false));
        assert_eq!(split_thread_budget(8, 1), (8, false));
        // Grid × window must stay within the one budget.
        assert_eq!(split_thread_budget(8, 4), (2, false));
        assert_eq!(split_thread_budget(8, 3), (2, false), "rounds down");
        assert_eq!(split_thread_budget(4, 4), (1, false), "exact fit");
        // One cell alone exceeds the budget: run it anyway (grid
        // serializes to 1) but flag the oversubscription.
        assert_eq!(split_thread_budget(2, 4), (1, true));
        assert_eq!(split_thread_budget(0, 0), (1, false), "clamped to >= 1");
    }

    #[test]
    fn run_cells_isolates_a_panicking_cell() {
        let results = run_cells(5, 2, None, |i| {
            if i == 2 {
                panic!("cell 2 exploded");
            }
            i * 10
        });
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(
                    r.as_ref().unwrap_err(),
                    &CellError::Panicked("cell 2 exploded".into())
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10, "other cells completed");
            }
        }
    }

    #[test]
    fn grid_failure_report_is_structured() {
        let e = GridError {
            completed: 3,
            total: 4,
            failures: vec![CellFailure {
                config: "config 1 'ACIC'".into(),
                spec: "spec 'sibench'".into(),
                error: CellError::Panicked("boom".into()),
            }],
            crash_dir: None,
        };
        let text = e.to_string();
        assert!(text.contains("3 of 4 cells completed"));
        assert!(text.contains("config 1 'ACIC'"));
        assert!(text.contains("panicked: boom"));
    }

    #[test]
    fn grid_failure_report_groups_identical_errors() {
        // One config panicking across a wide sweep: the summary must
        // group the identical errors, print 10 exemplars, and say how
        // many were elided — not emit one line per cell.
        let mut failures: Vec<CellFailure> = (0..25)
            .map(|a| CellFailure {
                config: "config 1 'ACIC'".into(),
                spec: format!("spec 's{a}'"),
                error: CellError::Panicked("boom".into()),
            })
            .collect();
        failures.push(CellFailure {
            config: "config 0 'LRU'".into(),
            spec: "spec 'x264'".into(),
            error: CellError::Freeze("no trace".into()),
        });
        let e = GridError {
            completed: 870 - 26,
            total: 870,
            failures,
            crash_dir: Some(std::path::PathBuf::from("crash-reports")),
        };
        let text = e.to_string();
        assert!(text.contains("844 of 870 cells completed, 26 failed"));
        assert!(text.contains("25 cells failed identically: panicked: boom"));
        assert!(text.contains("... and 15 more cells with this error"));
        assert_eq!(
            text.matches("[config 1 'ACIC'").count(),
            10,
            "exactly the first 10 exemplars are listed"
        );
        // The singleton keeps the compact one-line form.
        assert!(text.contains("[config 0 'LRU' x spec 'x264']: workload freeze failed: no trace"));
        assert!(text.contains("crash reports: crash-reports"));
    }

    /// A panic payload whose `Drop` re-panics: `catch_unwind` catches
    /// the original panic, but dropping the payload inside `map_err`
    /// panics *again* outside any catch, killing the worker thread
    /// without aborting the process.
    struct GrenadePayload;
    impl Drop for GrenadePayload {
        // The original unwind was already caught when the payload is
        // dropped, so this second panic escapes `catch_unwind` and
        // unwinds the worker thread itself (a panic-in-panic would
        // abort instead; this one doesn't, by construction).
        fn drop(&mut self) {
            panic!("payload drop panicked");
        }
    }

    #[test]
    fn run_cells_panics_after_a_worker_dies_and_runs_every_other_cell() {
        // Cell 1 kills its worker thread; the other worker drains the
        // queue, and the pool panics once the scope has joined instead
        // of returning a partial result or hanging.
        let ran: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_cells(ran.len(), 2, None, |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                if i == 1 {
                    std::panic::panic_any(GrenadePayload);
                }
                i
            })
        }));
        assert!(outcome.is_err(), "a dead worker fails the pool");
        for (i, n) in ran.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "cell {i} ran once");
        }
        assert!(start.elapsed() < Duration::from_secs(10), "bounded time");
    }

    #[test]
    fn grid_with_store_resumes_without_recomputing() {
        let dir = std::env::temp_dir().join(format!("acic-runner-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut runner = Runner {
            instructions: 3_000,
            baseline: SimConfig::default(),
            store: Some(Arc::new(ResultStore::open(&dir).unwrap())),
            cell_timeout: None,
            window_threads: 0,
            supervise: None,
        };
        let configs = vec![
            SimConfig::default(),
            SimConfig::default().with_org(IcacheOrg::Srrip),
        ];
        let specs = vec![
            WorkloadSpec::Single(AppProfile::sibench()),
            WorkloadSpec::Single(AppProfile::x264()),
        ];
        let first = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!((first.replayed, first.computed), (0, 4));
        // A fresh store handle over the same directory: everything
        // replays from the journal, nothing is recomputed, and the
        // grid is bit-identical.
        runner.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let second = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!((second.replayed, second.computed), (4, 0));
        assert_eq!(
            format!("{:?}", first.grid),
            format!("{:?}", second.grid),
            "replayed grid bit-identical to computed grid"
        );
        // Tear the journal mid-line at 60%: the torn and later lines
        // are dropped on reopen, so the rerun recomputes some cells
        // but not all, and the grid is still bit-identical.
        let journal = runner.store.as_ref().unwrap().journal_path().to_path_buf();
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() * 3 / 5]).unwrap();
        runner.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let resumed = runner.try_run_grid(&configs, &specs).unwrap();
        assert!(
            (1..4).contains(&resumed.computed),
            "a mid-line tear costs a partial recompute, got {} of 4",
            resumed.computed
        );
        assert_eq!(resumed.replayed + resumed.computed, 4);
        assert_eq!(format!("{:?}", resumed.grid), format!("{:?}", first.grid));
        // The rerun healed the journal: a fresh handle replays all.
        runner.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let healed = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!((healed.replayed, healed.computed), (4, 0));
        assert_eq!(format!("{:?}", healed.grid), format!("{:?}", first.grid));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_runner_produces_sampled_reports() {
        let runner = Runner {
            instructions: 400_000,
            baseline: SimConfig::default().with_schedule(SampleSchedule::Periodic {
                period: 100_000,
                warmup_len: 30_000,
                detailed_len: 10_000,
            }),
            store: None,
            cell_timeout: None,
            window_threads: 0,
            supervise: None,
        };
        let apps = vec![AppProfile::sibench()];
        let grid = runner.run_grid(
            std::slice::from_ref(&runner.baseline),
            &WorkloadSpec::singles(&apps),
        );
        assert!(grid[0][0].sampled.is_some(), "schedule threads through");
    }

    #[test]
    fn windowed_grid_matches_direct_windowed_runs() {
        // A runner with window_threads >= 1 must produce, cell for
        // cell, exactly what Engine::run_windowed produces on the
        // same frozen trace — the runner adds scheduling and
        // journaling, never simulation semantics.
        let sched = SampleSchedule::Periodic {
            period: 100_000,
            warmup_len: 30_000,
            detailed_len: 10_000,
        };
        let runner = Runner {
            instructions: 400_000,
            baseline: SimConfig::default().with_schedule(sched),
            store: None,
            cell_timeout: None,
            window_threads: 2,
            supervise: None,
        };
        let configs = vec![
            runner.baseline.clone(),
            runner.baseline.with_org(IcacheOrg::acic_default()),
        ];
        let specs = vec![WorkloadSpec::Single(AppProfile::sibench())];
        let grid = runner.run_grid(&configs, &specs);
        let trace = crate::trace_store::freeze(&specs[0], runner.instructions).unwrap();
        for (c, cfg) in configs.iter().enumerate() {
            let direct = Engine::run_windowed(cfg, trace.as_ref(), 1);
            assert_eq!(grid[c][0].sampled, direct.sampled, "pooled stats");
            assert_eq!(grid[c][0].total_cycles, direct.total_cycles);
            assert_eq!(grid[c][0].l1i.demand_misses, direct.l1i.demand_misses);
            assert!(grid[c][0].sampled.is_some(), "windowed cells are sampled");
        }
    }

    #[test]
    fn windowed_journal_replays_across_worker_counts_but_not_modes() {
        // The windowed cell key excludes the worker count (reports
        // are bit-identical across counts) but includes the mode, so
        // a serial sweep never replays a windowed journal entry.
        let dir = std::env::temp_dir().join(format!("acic-runner-wstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sched = SampleSchedule::Periodic {
            period: 100_000,
            warmup_len: 30_000,
            detailed_len: 10_000,
        };
        let mut runner = Runner {
            instructions: 400_000,
            baseline: SimConfig::default().with_schedule(sched),
            store: Some(Arc::new(ResultStore::open(&dir).unwrap())),
            cell_timeout: None,
            window_threads: 2,
            supervise: None,
        };
        let configs = vec![runner.baseline.clone()];
        let specs = vec![WorkloadSpec::Single(AppProfile::sibench())];
        let first = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!((first.replayed, first.computed), (0, 1));
        runner.window_threads = 4;
        let second = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!(
            (second.replayed, second.computed),
            (1, 0),
            "worker count does not invalidate the journal"
        );
        runner.window_threads = 0;
        let serial = runner.try_run_grid(&configs, &specs).unwrap();
        assert_eq!(
            (serial.replayed, serial.computed),
            (0, 1),
            "serial mode never replays windowed cells"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_runs_in_config_by_app_order() {
        let runner = Runner {
            instructions: 5_000,
            baseline: SimConfig::default(),
            store: None,
            cell_timeout: None,
            window_threads: 0,
            supervise: None,
        };
        let apps = vec![AppProfile::sibench(), AppProfile::x264()];
        let configs = vec![
            SimConfig::default(),
            SimConfig::default().with_org(IcacheOrg::Larger36k),
        ];
        let grid = runner.run_grid(&configs, &WorkloadSpec::singles(&apps));
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].len(), 2);
        assert_eq!(grid[0][0].app, "sibench");
        assert_eq!(grid[0][1].app, "x264");
        assert_eq!(grid[1][0].org, "36KB L1i");
    }

    #[test]
    fn freeze_specs_shares_structurally_equal_specs() {
        let a = WorkloadSpec::Single(AppProfile::sibench());
        let specs = vec![a.clone(), WorkloadSpec::Single(AppProfile::x264()), a];
        let traces: Vec<_> = try_freeze_specs(&specs, 1_000)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(traces.len(), 3);
        assert!(
            Arc::ptr_eq(&traces[0], &traces[2]),
            "equal specs share one frozen arena"
        );
        assert!(!Arc::ptr_eq(&traces[0], &traces[1]));
    }

    /// One in-process grid batch over `set` through [`execute`]:
    /// `configs x specs` cells run as `exec`.
    fn run_batch(
        set: &TraceSet,
        configs: &[SimConfig],
        store: Option<&Arc<ResultStore>>,
        exec: Exec,
    ) -> Executed {
        let n_spec = set.slot_of.len();
        let coords: Vec<(usize, usize)> = (0..configs.len() * n_spec)
            .map(|i| (i / n_spec, i % n_spec))
            .collect();
        let cells: Vec<Cell> = coords
            .iter()
            .map(|&(c, a)| Cell {
                spec: set.spec(a).clone(),
                config: configs[c].clone(),
                budget: set.budget,
                exec,
            })
            .collect();
        let labels = cells.iter().map(Cell::key).collect();
        execute(Batch {
            cells,
            coords,
            labels,
            traces: set,
            threads: 2,
            store,
            supervise: None,
            cell_timeout: None,
        })
    }

    fn two_configs() -> Vec<SimConfig> {
        vec![
            SimConfig::default(),
            SimConfig::default().with_org(IcacheOrg::Srrip),
        ]
    }

    fn three_specs() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Single(AppProfile::sibench()),
            WorkloadSpec::Single(AppProfile::x264()),
            WorkloadSpec::Single(AppProfile::web_search()),
        ]
    }

    fn fresh_store(tag: &str) -> (std::path::PathBuf, Arc<ResultStore>) {
        let dir = std::env::temp_dir().join(format!("acic-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        (dir, store)
    }

    #[test]
    fn a_fully_replayed_batch_freezes_no_spec() {
        let (dir, store) = fresh_store("allhit");
        let (configs, specs) = (two_configs(), three_specs());
        let first = TraceSet::new(&specs, 2_000);
        let cold = run_batch(&first, &configs, Some(&store), Exec::Serial);
        assert_eq!((cold.replayed, cold.computed), (0, 6));
        assert_eq!(first.freezes(), 3);
        let second = TraceSet::new(&specs, 2_000);
        let warm = run_batch(&second, &configs, Some(&store), Exec::Serial);
        assert_eq!((warm.replayed, warm.computed), (6, 0));
        assert_eq!(second.freezes(), 0, "every key replayed: nothing to freeze");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_half_replayed_batch_freezes_only_the_todo_specs() {
        let (dir, store) = fresh_store("halfhit");
        let (configs, specs) = (two_configs(), three_specs());
        // Journal every cell over the first spec and the LRU cell over
        // the second: only the second and third specs have cells left.
        run_batch(
            &TraceSet::new(&specs[..2], 2_000),
            &configs[..1],
            Some(&store),
            Exec::Serial,
        );
        run_batch(
            &TraceSet::new(&specs[..1], 2_000),
            &configs,
            Some(&store),
            Exec::Serial,
        );
        let set = TraceSet::new(&specs, 2_000);
        let run = run_batch(&set, &configs, Some(&store), Exec::Serial);
        assert_eq!((run.replayed, run.computed), (3, 3));
        assert_eq!(
            set.freezes(),
            2,
            "the fully replayed first spec never froze"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_ladder_trace_set_freezes_each_spec_once_across_rungs() {
        // Three rungs of growing prefixes over one full-budget set, as
        // `dse::run_dse` climbs its ladder: each distinct spec (the
        // repeated one included) freezes once, on the first rung.
        let mut specs = three_specs();
        specs.push(specs[0].clone());
        let set = TraceSet::new(&specs, 4_000);
        for (r, prefix) in [1_000u64, 2_000, 4_000].into_iter().enumerate() {
            let rung = Exec::Rung {
                rung: r as u32,
                prefix,
            };
            let run = run_batch(&set, &two_configs(), None, rung);
            assert_eq!(run.computed, 8);
            assert!(run.slots.iter().all(Result::is_ok));
            assert_eq!(set.freezes(), 3, "after rung {r}");
        }
    }

    /// Runs one spec under `cfg` straight off the generator — the
    /// pre-freeze path, kept as the reference packed replay is pinned
    /// against.
    fn run_spec_generated(cfg: &SimConfig, spec: &WorkloadSpec, instructions: u64) -> SimReport {
        Engine::run(cfg, &spec.generator(instructions))
    }

    /// The acceptance pin: a frozen, spec-deduplicated grid is
    /// bit-identical to serial generator-backed runs — across
    /// configs, single- and multi-tenant specs, and repeats.
    #[test]
    fn frozen_grid_matches_generator_backed_runs() {
        let runner = Runner {
            instructions: 4_000,
            baseline: SimConfig::default(),
            store: None,
            cell_timeout: None,
            window_threads: 0,
            supervise: None,
        };
        let specs = vec![
            WorkloadSpec::Single(AppProfile::sibench()),
            WorkloadSpec::MultiTenant {
                profiles: vec![AppProfile::sibench(), AppProfile::x264()],
                quantum: 500,
            },
        ];
        let configs = vec![
            SimConfig::default(),
            SimConfig::default().with_org(IcacheOrg::Srrip),
        ];
        let parallel_a = runner.run_grid(&configs, &specs);
        let parallel_b = runner.run_grid(&configs, &specs);
        for (c, cfg) in configs.iter().enumerate() {
            for (a, spec) in specs.iter().enumerate() {
                let serial = run_spec_generated(cfg, spec, runner.instructions);
                for r in [&parallel_a[c][a], &parallel_b[c][a]] {
                    assert_eq!(r.total_cycles, serial.total_cycles);
                    assert_eq!(r.total_instructions, serial.total_instructions);
                    assert_eq!(r.l1i.demand_misses, serial.l1i.demand_misses);
                    assert_eq!(r.branch.mispredicts, serial.branch.mispredicts);
                    assert_eq!(r.context_switches, serial.context_switches);
                    assert_eq!(r.app, serial.app);
                }
            }
        }
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a".into(), "b".into()], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
