//! Runs every experiment in sequence (the data behind EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments              # all
//! cargo run --release -p acic-bench --bin experiments --list      # names only
//! cargo run --release -p acic-bench --bin experiments --only fig13_admit_rate
//! cargo run --release -p acic-bench --bin experiments --smoke     # tiny grid, all figures
//! cargo run --release -p acic-bench --bin experiments fig1        # substring filter
//! ```
//!
//! `--only` matches one figure by exact name (and fails loudly on a
//! typo, unlike the substring filter, of which at most one is
//! accepted — a second positional is a usage error); `--list` prints the runnable
//! names without simulating anything; `--smoke` runs every registered
//! figure on a tiny grid (50 k instructions per cell, honoring an
//! explicit `ACIC_EXP_INSTRUCTIONS` if smaller) so the figure wiring
//! is exercisable in seconds — CI runs exactly this.
//!
//! The flags are parsed once into one [`acic_bench::Runner`] — budget,
//! `--results` store, `--supervise`/`--run-cell` role, watchdog —
//! that every figure receives, and `--dse` builds its `DseOptions`
//! from the same values. Only the trace-store mode
//! (`--record-traces`/`--traces`) and the `--profile-cell` target
//! stay process-wide settings (DESIGN.md §9 says why).
//!
//! `--profile-cell <figure>:<cell-substring>` runs the named figure
//! until the first grid cell whose label (`config <c> '<org>' x spec
//! '<spec>'`) contains the substring — the figure's earlier grids and
//! non-grid work run normally on the way — then re-simulates exactly
//! that cell 50 times, prints one best/mean instructions-per-second
//! line, and exits: the shape `perf record` / flamegraph tooling
//! wants, instead of a whole sweep where the interesting cell is a
//! sliver of the profile. It cannot be combined
//! with `--only` (it selects its own figure) or `--supervise` (the
//! profiler must see the simulation in this process).
//!
//! Record/replay and resume:
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments -- --record-traces traces/ fig11
//! cargo run --release -p acic-bench --bin experiments -- --traces traces/ fig11
//! cargo run --release -p acic-bench --bin experiments -- --results results/ fig11
//! ```
//!
//! `--record-traces <dir>` writes every workload the run freezes into
//! `<dir>/<spec>-<budget>.acictrace` containers — a run freezes only
//! the specs of cells it computes, so cells replayed from `--results`
//! record nothing (record into a fresh `--results` to capture every
//! spec);
//! `--traces <dir>` replays those containers instead of re-running
//! the generator (specs whose container is missing or unusable fall
//! back to generation with a note) — drop in externally recorded
//! traces under the right key and they become first-class workloads.
//! The two flags are mutually exclusive.
//!
//! `--results <dir>` journals every finished grid cell into
//! `<dir>/results.jsonl`; an interrupted (or repeated) run replays
//! finished cells from the journal and simulates only the rest, with
//! output bit-identical to an uninterrupted run.
//!
//! Adaptive design-space exploration (DESIGN.md §10):
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments -- --dse
//! cargo run --release -p acic-bench --bin experiments -- --dse --dse-space space.json \
//!     --dse-report dse.jsonl --results results/
//! ```
//!
//! `--dse` runs no figures (so `--only`, `--profile-cell` and a
//! figure filter are usage errors with it) and sweeps a design space through the
//! CI-pruned fidelity ladder: the built-in ~870-cell cache-geometry
//! space by default, or the axes file given with `--dse-space`
//! (`--dse --smoke` sweeps the tiny built-in smoke space over a
//! two-rung ladder instead). `--dse-report <file>` writes the
//! JSON-lines provenance report (per config: pruned-at, refined-to,
//! final confidence intervals); `--results <dir>` makes the sweep
//! resumable per cell.
//!
//! Failure handling: figures run in keep-going mode — a panicking
//! figure (including a grid with failing cells, reported through the
//! structured [`acic_bench::runner::GridError`]) is recorded, every
//! other selected figure still runs, and the process exits non-zero
//! after printing a failure summary. `--fail-fast` stops at the first
//! failure instead; `--keep-going` is accepted for symmetry (it is
//! the default). `ACIC_CELL_TIMEOUT_SECS=<secs>` arms a soft per-cell
//! watchdog that fails wedged cells instead of hanging the sweep.
//!
//! Process supervision (DESIGN.md §9):
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments -- --supervise fig11_mpki
//! cargo run --release -p acic-bench --bin experiments -- --supervise \
//!     --crash-reports crash-reports/ --results results/ fig11_mpki
//! ```
//!
//! `--supervise` runs every grid/DSE cell in its own child process
//! (the binary self-execs with the hidden `--run-cell <journal-key>`
//! / `--run-cell-out <dir>` flags, plus `--run-cell-trace <file>`,
//! the cell's trace as the parent froze it, which the child decodes
//! instead of regenerating): with it, the per-cell watchdog
//! becomes a *hard* timeout (the wedged child is SIGKILLed), an
//! `abort()`/OOM/signal death costs one attempt of one cell instead
//! of the campaign, and dead children are retried — transient
//! failures (timeout, signal, spawn failure) up to
//! `ACIC_SUPERVISE_RETRIES` attempts, deterministic ones (panic,
//! `abort()`, non-zero exit) once to confirm — with capped
//! exponential backoff (base `ACIC_SUPERVISE_BACKOFF_MS`) and
//! deterministic seeded jitter. Every retried or failed cell leaves a
//! crash report (exit evidence, stderr tail, retry history) under
//! `--crash-reports <dir>` (default: `<results>/crash-reports`, or
//! `./crash-reports`). Output and `--results` journals are
//! byte-identical to the in-process path; where spawning is
//! unavailable the run degrades to in-process with one warning.
//!
//! Exit codes: `0` — success; `1` — one or more figures/cells failed;
//! `2` — usage error. A `--run-cell` child additionally uses `3` —
//! target cell not found in the selected figures, `4` — the child
//! could not journal its result, and `101` — the cell panicked.

use acic_bench::result_store::ResultStore;
use acic_bench::supervise::{ChildTarget, Role, SuperviseCtx};
use acic_bench::Runner;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

type Experiment = (&'static str, fn(&Runner) -> String);

fn all_experiments() -> Vec<Experiment> {
    vec![
        ("table1_storage", acic_bench::figures::table1_storage),
        ("table2_config", acic_bench::figures::table2_config),
        ("table3_mpki", acic_bench::figures::table3_mpki),
        ("table4_schemes", acic_bench::figures::table4_schemes),
        ("fig01a_reuse_hist", acic_bench::figures::fig01a_reuse_hist),
        ("fig01b_markov", acic_bench::figures::fig01b_markov),
        (
            "fig03a_ifilter_gap",
            acic_bench::figures::fig03a_ifilter_gap,
        ),
        (
            "fig03b_insert_delta",
            acic_bench::figures::fig03b_insert_delta,
        ),
        (
            "fig06_cshr_lifetime",
            acic_bench::figures::fig06_cshr_lifetime,
        ),
        ("fig10_speedup", acic_bench::figures::fig10_speedup),
        ("fig11_mpki", acic_bench::figures::fig11_mpki),
        ("fig12a_accuracy", acic_bench::figures::fig12a_accuracy),
        ("fig12b_random", acic_bench::figures::fig12b_random),
        ("fig13_admit_rate", acic_bench::figures::fig13_admit_rate),
        (
            "fig14_update_latency",
            acic_bench::figures::fig14_update_latency,
        ),
        ("fig15_sensitivity", acic_bench::figures::fig15_sensitivity),
        (
            "fig16_over_ifilter",
            acic_bench::figures::fig16_over_ifilter,
        ),
        ("fig17_ablation", acic_bench::figures::fig17_ablation),
        ("fig18_19_spec", acic_bench::figures::fig18_19_spec),
        (
            "fig20_21_entangling",
            acic_bench::figures::fig20_21_entangling,
        ),
        ("multi_tenant", acic_bench::figures::multi_tenant),
        ("sampling_error", acic_bench::figures::sampling_error),
        ("energy_summary", acic_bench::figures::energy_summary),
    ]
}

/// Instructions per cell in `--smoke` mode: small enough that the
/// whole figure suite runs in seconds, honoring an explicitly smaller
/// `ACIC_EXP_INSTRUCTIONS`.
const SMOKE_INSTRUCTIONS: u64 = 50_000;

/// Extracts `--flag <value>` from the argument list, returning the
/// value and removing both tokens. A flag with no value — at the end
/// of the line, or followed by another `--` option — is an error (it
/// must never leak through to the figure-name substring filter).
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.remove(pos);
    match args.get(pos) {
        None => Err(format!("{flag} requires a value")),
        Some(next) if next.starts_with("--") => Err(format!(
            "{flag} requires a value, but the next argument is the option '{next}'"
        )),
        Some(_) => Ok(Some(args.remove(pos))),
    }
}

/// Removes a boolean `--switch`, reporting whether it was present.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Parsed command line (see the module docs for flag semantics).
#[derive(Debug, Default, PartialEq)]
struct Cli {
    list: bool,
    dse: bool,
    smoke: bool,
    fail_fast: bool,
    supervise: bool,
    record: Option<String>,
    replay: Option<String>,
    results: Option<String>,
    only: Option<String>,
    dse_space: Option<String>,
    dse_report: Option<String>,
    crash_reports: Option<String>,
    run_cell: Option<String>,
    run_cell_out: Option<String>,
    run_cell_trace: Option<String>,
    /// `--profile-cell <figure>:<cell-substring>`: run one figure
    /// until the first grid cell whose label contains the substring,
    /// then re-simulate that cell in a tight loop for profilers.
    profile_cell: Option<(String, String)>,
    filter: String,
}

fn parse_cli(mut args: Vec<String>) -> Result<Cli, String> {
    let record = take_flag_value(&mut args, "--record-traces")?;
    let replay = take_flag_value(&mut args, "--traces")?;
    let results = take_flag_value(&mut args, "--results")?;
    let only = take_flag_value(&mut args, "--only")?;
    let dse_space = take_flag_value(&mut args, "--dse-space")?;
    let dse_report = take_flag_value(&mut args, "--dse-report")?;
    let crash_reports = take_flag_value(&mut args, "--crash-reports")?;
    let run_cell = take_flag_value(&mut args, "--run-cell")?;
    let run_cell_out = take_flag_value(&mut args, "--run-cell-out")?;
    let run_cell_trace = take_flag_value(&mut args, "--run-cell-trace")?;
    let profile_cell = match take_flag_value(&mut args, "--profile-cell")? {
        None => None,
        Some(raw) => match raw.split_once(':') {
            Some((fig, cell)) if !fig.is_empty() && !cell.is_empty() => {
                Some((fig.to_string(), cell.to_string()))
            }
            _ => {
                return Err(format!(
                    "--profile-cell requires '<figure>:<cell-substring>', got '{raw}'"
                ))
            }
        },
    };
    if record.is_some() && replay.is_some() {
        return Err("--record-traces and --traces are mutually exclusive".into());
    }
    let dse = take_switch(&mut args, "--dse");
    if (dse_space.is_some() || dse_report.is_some()) && !dse {
        return Err("--dse-space/--dse-report only make sense with --dse".into());
    }
    let supervise = take_switch(&mut args, "--supervise");
    if crash_reports.is_some() && !supervise {
        return Err("--crash-reports only makes sense with --supervise".into());
    }
    if profile_cell.is_some() && (supervise || only.is_some()) {
        return Err(
            "--profile-cell selects its own figure and runs in-process; \
             it cannot be combined with --only or --supervise"
                .into(),
        );
    }
    if run_cell.is_some() != run_cell_out.is_some() {
        return Err("--run-cell and --run-cell-out must be given together".into());
    }
    if run_cell_trace.is_some() && run_cell.is_none() {
        return Err("--run-cell-trace only makes sense with --run-cell".into());
    }
    let cli = Cli {
        list: take_switch(&mut args, "--list"),
        dse,
        smoke: take_switch(&mut args, "--smoke"),
        fail_fast: take_switch(&mut args, "--fail-fast"),
        supervise,
        record,
        replay,
        results,
        only,
        dse_space,
        dse_report,
        crash_reports,
        run_cell,
        run_cell_out,
        run_cell_trace,
        profile_cell,
        filter: String::new(),
    };
    // --keep-going is the default; accept and discard it.
    take_switch(&mut args, "--keep-going");
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option '{unknown}'"));
    }
    if let [_, extra, ..] = args.as_slice() {
        return Err(format!(
            "unexpected argument '{extra}': give at most one figure-name filter"
        ));
    }
    let filter = args.pop().unwrap_or_default();
    if cli.dse && (cli.only.is_some() || cli.profile_cell.is_some() || !filter.is_empty()) {
        return Err("--dse sweeps a design space and runs no figures; \
                    it cannot be combined with --only, --profile-cell or a figure filter"
            .into());
    }
    Ok(Cli { filter, ..cli })
}

/// The `--dse` path: resolve the space (axes file, or the built-in
/// geometry sweep — the tiny smoke space under `--smoke`), sweep it
/// through the fidelity ladder, optionally write the JSON-lines
/// provenance report, and render a human summary.
fn run_dse_cli(cli: &Cli, runner: &Runner) -> Result<String, String> {
    use acic_bench::dse;
    use acic_sim::SampleSchedule;

    let space = match &cli.dse_space {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read space file '{path}': {e}"))?;
            dse::parse_space(&text)?
        }
        None if cli.smoke => dse::smoke_space(),
        None => dse::geometry_space(),
    };
    let ladder = if cli.smoke {
        dse::Ladder::new(120_000, 2, SampleSchedule::Full)
    } else {
        dse::Ladder::new(runner.instructions, 3, SampleSchedule::default_sampled())
    };
    let opts = dse::DseOptions {
        ladder,
        store: runner.store.clone(),
        cell_timeout: runner.cell_timeout,
        supervise: runner.supervise.clone(),
        ..dse::DseOptions::default()
    };
    eprintln!(
        "[dse: space '{}', {} configs x {} specs, {} rungs to {} instructions/cell]",
        space.name,
        space.configs.len(),
        space.specs.len(),
        opts.ladder.rungs.len(),
        opts.ladder.full_budget()
    );
    let start = std::time::Instant::now();
    let run = dse::run_dse(&space, &opts)?;
    let wall = start.elapsed().as_secs_f64();
    if let Some(path) = &cli.dse_report {
        std::fs::write(path, run.jsonl())
            .map_err(|e| format!("cannot write report '{path}': {e}"))?;
        eprintln!("[dse: provenance report written to {path}]");
    }

    let mut out = String::new();
    for s in &run.rungs {
        out.push_str(&format!(
            "rung {}: budget {}, {} configs ({} cells replayed, {} computed), \
             pruned {}, settled {}, alive {}\n",
            s.rung, s.budget, s.active, s.replayed, s.computed, s.pruned, s.settled, s.alive_after
        ));
    }
    let survivors = run.survivors();
    let frontier = run.final_frontier();
    out.push_str(&format!(
        "survivors: {} of {} configs ({} on the final frontier) in {wall:.1}s\n",
        survivors.len(),
        run.outcomes.len(),
        frontier.len()
    ));
    for &i in &frontier {
        let o = &run.outcomes[i];
        let per_spec: Vec<String> = o
            .reports
            .iter()
            .map(|r| format!("{}: ipc {:.3}, mpki {:.2}", r.app, r.ipc(), r.l1i_mpki()))
            .collect();
        out.push_str(&format!("  {} — {}\n", o.label, per_spec.join("; ")));
    }
    Ok(out)
}

/// Builds the one [`Runner`] every figure (and the DSE sweep) runs
/// under: the budget (capped under `--smoke`), the `--results` store,
/// and the supervision role — `--run-cell` makes this process a
/// child, `--supervise` a parent. Exits 2 when the store cannot open.
fn runner_from(cli: &Cli, raw_args: &[String]) -> Runner {
    let store = cli.results.as_ref().map(|dir| {
        eprintln!("[resumable results in {dir}]");
        ResultStore::open(Path::new(dir))
            .map(Arc::new)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
    });
    let supervise = if let (Some(key), Some(out_dir)) = (&cli.run_cell, &cli.run_cell_out) {
        // Child mode: this process runs exactly one cell and journals
        // it to the private per-attempt store. The cell executor
        // detects the target by journal key and exits through
        // `run_child_cell`; falling out the bottom means the key
        // matched nothing (exit 3).
        Some(Role::Child(ChildTarget {
            key: key.clone(),
            out_dir: out_dir.into(),
            trace: cli.run_cell_trace.as_ref().map(Into::into),
        }))
    } else if cli.supervise {
        let crash_dir = cli
            .crash_reports
            .clone()
            .or_else(|| cli.results.as_ref().map(|r| format!("{r}/crash-reports")))
            .unwrap_or_else(|| "crash-reports".into());
        match SuperviseCtx::new(Path::new(&crash_dir), raw_args) {
            Ok(ctx) => {
                eprintln!(
                    "[supervise: one child process per cell, crash reports in {}]",
                    ctx.crash_dir.display()
                );
                Some(Role::Parent(Arc::new(ctx)))
            }
            Err(e) => {
                eprintln!("[warning: supervision unavailable ({e}); running in-process]");
                None
            }
        }
    } else {
        None
    };
    let mut runner = Runner {
        store,
        supervise,
        ..Runner::new()
    };
    if cli.smoke && !cli.dse {
        runner.instructions = runner.instructions.min(SMOKE_INSTRUCTIONS);
        eprintln!(
            "[smoke: every figure at {} instructions/cell]",
            runner.instructions
        );
    }
    runner
}

fn main() {
    // The supervisor re-execs this argv (minus supervision flags) for
    // each child, so keep the raw form around.
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(raw_args.clone()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let all = all_experiments();

    if cli.list {
        for (name, _) in &all {
            println!("{name}");
        }
        return;
    }

    // Failed cells and figures are reported structurally at the end
    // of the run; keep each panic to one stderr line instead of the
    // default multi-line hook output.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let loc = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        eprintln!("[panic{loc}] {}", msg.trim_end());
    }));

    match (&cli.record, &cli.replay) {
        (Some(dir), None) => {
            eprintln!("[recording frozen traces into {dir}]");
            acic_bench::trace_store::configure(acic_bench::trace_store::TraceStoreMode::Record(
                dir.into(),
            ))
            .expect("trace store configured before first use");
        }
        (None, Some(dir)) => {
            eprintln!("[replaying recorded traces from {dir}]");
            acic_bench::trace_store::configure(acic_bench::trace_store::TraceStoreMode::Replay(
                dir.into(),
            ))
            .expect("trace store configured before first use");
        }
        _ => {}
    }

    let runner = runner_from(&cli, &raw_args);
    let is_child = matches!(runner.supervise, Some(Role::Child(_)));

    if cli.dse {
        match run_dse_cli(&cli, &runner) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("dse failed: {e}");
                std::process::exit(1);
            }
        }
        if is_child {
            // A --run-cell child that got here swept the whole ladder
            // without meeting its target key.
            eprintln!("run-cell target not found in the DSE sweep");
            std::process::exit(3);
        }
        return;
    }

    let selected: Vec<Experiment> = if let Some((fig, cell)) = &cli.profile_cell {
        // Arm the runner-side interception before the figure runs:
        // the first grid cell whose label contains `cell` re-simulates
        // in a tight loop and the process exits from inside it.
        acic_bench::runner::set_profile_cell(cell.clone());
        eprintln!("[profile-cell: figure '{fig}', first cell whose label contains '{cell}']");
        match all.iter().find(|(name, _)| name == fig) {
            Some(&exp) => vec![exp],
            None => {
                eprintln!("unknown figure '{fig}' in --profile-cell; runnable figures:");
                for (name, _) in &all {
                    eprintln!("  {name}");
                }
                std::process::exit(2);
            }
        }
    } else if let Some(wanted) = &cli.only {
        match all.iter().find(|(name, _)| name == wanted) {
            Some(&exp) => vec![exp],
            None => {
                eprintln!("unknown figure '{wanted}'; runnable figures:");
                for (name, _) in &all {
                    eprintln!("  {name}");
                }
                std::process::exit(2);
            }
        }
    } else {
        // Positional substring filter (empty = everything).
        all.into_iter()
            .filter(|(name, _)| cli.filter.is_empty() || name.contains(&cli.filter))
            .collect()
    };

    // Keep-going figure loop: one failing figure must not cost the
    // rest of the sweep (its grid cells already journaled to
    // --results are kept either way).
    let mut failures: Vec<(&'static str, String)> = Vec::new();
    for (name, f) in selected {
        let start = std::time::Instant::now();
        println!("==== {name} ====");
        match catch_unwind(AssertUnwindSafe(|| f(&runner))) {
            Ok(text) => {
                println!("{text}");
                eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f32());
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                eprintln!(
                    "[{name} FAILED after {:.1}s]",
                    start.elapsed().as_secs_f32()
                );
                failures.push((name, msg));
                if cli.fail_fast {
                    break;
                }
            }
        }
    }
    if is_child {
        // A --run-cell child exits through `run_child_cell` the moment
        // its grid reaches the target; completing the figure loop
        // means the key matched no cell of the selected figures.
        eprintln!("run-cell target not found in the selected figures");
        std::process::exit(3);
    }
    if !failures.is_empty() {
        eprintln!("==== failure summary ====");
        eprintln!("{} figure(s) failed:", failures.len());
        for (name, msg) in &failures {
            eprintln!("--- {name} ---");
            for line in msg.trim_end().lines() {
                eprintln!("  {line}");
            }
        }
        std::process::exit(1);
    }
    if cli.profile_cell.is_some() {
        // `run_profile_cell` exits the process on a match; completing
        // the figure loop means no cell label contained the substring.
        eprintln!("profile-cell target matched no cell of the selected figure");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_values_are_extracted_and_removed() {
        let cli = parse_cli(argv(&["--record-traces", "td", "fig1"])).unwrap();
        assert_eq!(cli.record.as_deref(), Some("td"));
        assert_eq!(cli.filter, "fig1");
    }

    #[test]
    fn trailing_flag_without_value_is_an_error_not_a_filter() {
        let err = parse_cli(argv(&["--record-traces"])).unwrap_err();
        assert!(err.contains("--record-traces requires a value"), "{err}");
        let err = parse_cli(argv(&["fig1", "--results"])).unwrap_err();
        assert!(err.contains("--results requires a value"), "{err}");
    }

    #[test]
    fn flag_consuming_another_option_is_an_error() {
        // Historically `--record-traces --smoke` silently recorded
        // into a directory literally named `--smoke`.
        let err = parse_cli(argv(&["--record-traces", "--smoke"])).unwrap_err();
        assert!(err.contains("the option '--smoke'"), "{err}");
    }

    #[test]
    fn record_and_replay_are_mutually_exclusive() {
        let err = parse_cli(argv(&["--record-traces", "a", "--traces", "b"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn a_second_positional_is_an_error_not_dropped() {
        // `experiments fig10 fig11` used to run only the figures
        // matching `fig10`.
        let err = parse_cli(argv(&["fig10", "fig11"])).unwrap_err();
        assert!(err.contains("unexpected argument 'fig11'"), "{err}");
        let err = parse_cli(argv(&["--smoke", "table", "--results", "rd", "fig1"])).unwrap_err();
        assert!(err.contains("unexpected argument 'fig1'"), "{err}");
    }

    #[test]
    fn unknown_options_are_rejected_not_ignored() {
        let err = parse_cli(argv(&["--keep-gonig"])).unwrap_err();
        assert!(err.contains("unknown option '--keep-gonig'"), "{err}");
    }

    #[test]
    fn switches_and_filters_parse_together() {
        let cli = parse_cli(argv(&[
            "--smoke",
            "--fail-fast",
            "--keep-going",
            "--results",
            "rd",
            "table",
        ]))
        .unwrap();
        assert!(cli.smoke && cli.fail_fast);
        assert_eq!(cli.results.as_deref(), Some("rd"));
        assert_eq!(cli.filter, "table");
        assert!(!cli.list);
    }

    #[test]
    fn dse_flags_parse() {
        let cli = parse_cli(argv(&[
            "--dse",
            "--dse-space",
            "space.json",
            "--dse-report",
            "out.jsonl",
        ]))
        .unwrap();
        assert!(cli.dse);
        assert_eq!(cli.dse_space.as_deref(), Some("space.json"));
        assert_eq!(cli.dse_report.as_deref(), Some("out.jsonl"));

        let cli = parse_cli(argv(&["--dse", "--smoke"])).unwrap();
        assert!(cli.dse && cli.smoke && cli.dse_space.is_none());

        let err = parse_cli(argv(&["--dse-space", "s.json"])).unwrap_err();
        assert!(err.contains("only make sense with --dse"), "{err}");
        let err = parse_cli(argv(&["--dse-report", "r.jsonl"])).unwrap_err();
        assert!(err.contains("only make sense with --dse"), "{err}");
        let err = parse_cli(argv(&["--dse", "--dse-space"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn dse_rejects_figure_selectors() {
        // `--dse` runs no figures, so a figure selector next to it
        // would be dropped without a word.
        for args in [
            &["--dse", "--smoke", "--only", "fig10_speedup"][..],
            &["--dse", "--smoke", "fig10"],
            &["--dse", "--smoke", "--profile-cell", "table3_mpki:lru"],
        ] {
            let err = parse_cli(argv(args)).unwrap_err();
            assert!(err.contains("cannot be combined"), "{args:?}: {err}");
        }
    }

    #[test]
    fn supervise_flags_parse() {
        let cli = parse_cli(argv(&["--supervise", "--crash-reports", "cr", "fig11"])).unwrap();
        assert!(cli.supervise);
        assert_eq!(cli.crash_reports.as_deref(), Some("cr"));
        assert_eq!(cli.filter, "fig11");

        let err = parse_cli(argv(&["--crash-reports", "cr"])).unwrap_err();
        assert!(err.contains("only makes sense with --supervise"), "{err}");
        let err = parse_cli(argv(&["--supervise", "--crash-reports"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn run_cell_flags_must_pair_up() {
        let cli = parse_cli(argv(&["--run-cell", "k", "--run-cell-out", "d"])).unwrap();
        assert_eq!(cli.run_cell.as_deref(), Some("k"));
        assert_eq!(cli.run_cell_out.as_deref(), Some("d"));

        let err = parse_cli(argv(&["--run-cell", "k"])).unwrap_err();
        assert!(err.contains("must be given together"), "{err}");
        let err = parse_cli(argv(&["--run-cell-out", "d"])).unwrap_err();
        assert!(err.contains("must be given together"), "{err}");

        let cli = parse_cli(argv(&[
            "--run-cell",
            "k",
            "--run-cell-out",
            "d",
            "--run-cell-trace",
            "t.acictrace",
        ]))
        .unwrap();
        assert_eq!(cli.run_cell_trace.as_deref(), Some("t.acictrace"));
        let err = parse_cli(argv(&["--run-cell-trace", "t.acictrace"])).unwrap_err();
        assert!(err.contains("only makes sense with --run-cell"), "{err}");
    }

    #[test]
    fn profile_cell_parses_figure_and_substring() {
        let cli = parse_cli(argv(&["--profile-cell", "fig11_mpki:ACIC"])).unwrap();
        assert_eq!(cli.profile_cell, Some(("fig11_mpki".into(), "ACIC".into())));

        let err = parse_cli(argv(&["--profile-cell", "fig11_mpki"])).unwrap_err();
        assert!(err.contains("<figure>:<cell-substring>"), "{err}");
        let err = parse_cli(argv(&["--profile-cell", ":ACIC"])).unwrap_err();
        assert!(err.contains("<figure>:<cell-substring>"), "{err}");
        let err = parse_cli(argv(&["--profile-cell", "fig11_mpki:"])).unwrap_err();
        assert!(err.contains("<figure>:<cell-substring>"), "{err}");
        let err = parse_cli(argv(&["--profile-cell"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");

        let err = parse_cli(argv(&["--profile-cell", "f:c", "--only", "fig11_mpki"])).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
        let err = parse_cli(argv(&["--profile-cell", "f:c", "--supervise"])).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn only_takes_an_exact_name() {
        let cli = parse_cli(argv(&["--only", "fig11_mpki"])).unwrap();
        assert_eq!(cli.only.as_deref(), Some("fig11_mpki"));
        assert!(parse_cli(argv(&["--only"])).is_err());
    }

    #[test]
    fn every_registered_name_is_unique() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
