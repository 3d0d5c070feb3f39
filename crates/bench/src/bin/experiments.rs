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
//! The flags and the `ACIC_EXP_INSTRUCTIONS` / `ACIC_CELL_TIMEOUT_SECS`
//! knobs are read once, here, into one [`acic_bench::Runner`] —
//! budget, `--results` store, `--supervise` context, per-cell deadline
//! — that every figure receives, and `--dse` builds its `DseOptions`
//! from the same values; no setting lives in a process global. The
//! library reads `ACIC_BENCH_THREADS` and the test knob
//! `ACIC_FAULT_CELL` (see `fault::ScriptedFault`). A knob set to
//! something unusable warns once on stderr and is ignored.
//!
//! Resume:
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments -- --results results/ fig11
//! ```
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
//! `--dse` runs no figures (so `--only` and a figure filter are
//! usage errors with it) and sweeps a design space through the
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
//! failure instead. `ACIC_CELL_TIMEOUT_SECS=<secs>` arms a per-cell
//! deadline. In process a wedged thread cannot be killed, so a cell
//! past it ends the run at once: the failure summary names the cell
//! and the process exits 1. Every cell finished before it is already
//! journaled under `--results`, so a rerun resumes from there.
//!
//! Process supervision (DESIGN.md §9):
//!
//! ```text
//! cargo run --release -p acic-bench --bin experiments -- --supervise fig11_mpki
//! cargo run --release -p acic-bench --bin experiments -- --supervise \
//!     --crash-reports crash-reports/ --results results/ fig11_mpki
//! ```
//!
//! `--supervise` runs every grid/DSE cell in a worker process: the
//! binary self-execs one `experiments --run-cell` worker per pool slot
//! (a hidden switch that takes no other argument) and writes cells to
//! the worker's stdin, one line each — a cell's canonical encoding
//! and the scripted fault that attempt meets (`null` unless
//! `ACIC_FAULT_CELL` aims at the cell). The worker freezes each
//! cell's spec unless it already holds that trace (the parent hands a
//! slot the cells of one spec in a row), runs the cell, no figure
//! code, and answers with one journal line on stdout.
//! With supervision the per-cell deadline
//! is per cell attempt (the wedged worker is SIGKILLed and the cell
//! retried), an `abort()`/OOM/signal death costs one attempt of one
//! cell instead of the campaign, and failed cells are retried in a
//! respawned worker on fixed budgets with no knobs: transient failures
//! (timeout, signal, spawn failure) get three attempts in all,
//! deterministic ones (panic, `abort()`, non-zero exit) one retry to
//! confirm, and every retry waits a fixed 200 ms. Every retried or
//! failed cell leaves a crash report (exit evidence, stderr tail,
//! retry history, and the first failed attempt's message, which
//! `experiments --run-cell` replays with no environment) under
//! `--crash-reports <dir>` (default: `<results>/crash-reports`, or
//! `./crash-reports`). Output and `--results` journals are
//! byte-identical to the in-process path. A `--supervise` that cannot
//! start (no current executable, or a crash dir that cannot be
//! created) is a usage error: the run exits 2 before any figure.
//!
//! Exit codes: `0` — success; `1` — one or more figures/cells failed;
//! `2` — usage error, or a `--results` store or `--supervise` that
//! cannot start. A `--run-cell` worker exits `0` once stdin
//! closes after its last answer, `2` on a message it cannot decode
//! (or no message at all), `4` when it cannot write a result, and
//! `101` when a cell panicked.

use acic_bench::result_store::ResultStore;
use acic_bench::runner::{
    exit_with_failure_summary, panic_message, positive, read_knob, DEFAULT_INSTRUCTIONS,
};
use acic_bench::supervise::SuperviseCtx;
use acic_bench::Runner;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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
    results: Option<String>,
    only: Option<String>,
    dse_space: Option<String>,
    dse_report: Option<String>,
    crash_reports: Option<String>,
    run_cell: bool,
    filter: String,
}

fn parse_cli(mut args: Vec<String>) -> Result<Cli, String> {
    if args.iter().any(|a| a == "--run-cell") {
        // A supervised worker reads its cells from stdin.
        return match args.as_slice() {
            [_] => Ok(Cli {
                run_cell: true,
                ..Cli::default()
            }),
            _ => Err("--run-cell reads its cells from stdin and takes no other argument".into()),
        };
    }
    let results = take_flag_value(&mut args, "--results")?;
    let only = take_flag_value(&mut args, "--only")?;
    let dse_space = take_flag_value(&mut args, "--dse-space")?;
    let dse_report = take_flag_value(&mut args, "--dse-report")?;
    let crash_reports = take_flag_value(&mut args, "--crash-reports")?;
    let dse = take_switch(&mut args, "--dse");
    if (dse_space.is_some() || dse_report.is_some()) && !dse {
        return Err("--dse-space/--dse-report only make sense with --dse".into());
    }
    let supervise = take_switch(&mut args, "--supervise");
    if crash_reports.is_some() && !supervise {
        return Err("--crash-reports only makes sense with --supervise".into());
    }
    let cli = Cli {
        list: take_switch(&mut args, "--list"),
        dse,
        smoke: take_switch(&mut args, "--smoke"),
        fail_fast: take_switch(&mut args, "--fail-fast"),
        supervise,
        results,
        only,
        dse_space,
        dse_report,
        crash_reports,
        run_cell: false,
        filter: String::new(),
    };
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option '{unknown}'"));
    }
    if let [_, extra, ..] = args.as_slice() {
        return Err(format!(
            "unexpected argument '{extra}': give at most one figure-name filter"
        ));
    }
    let filter = args.pop().unwrap_or_default();
    if cli.dse && (cli.only.is_some() || !filter.is_empty()) {
        return Err("--dse sweeps a design space and runs no figures; \
                    it cannot be combined with --only or a figure filter"
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
/// under: the budget (capped under `--smoke`), the per-cell deadline,
/// the `--results` store, and, under `--supervise`, the supervisor's
/// context. Exits 2 when the store cannot open or supervision cannot
/// start.
fn runner_from(cli: &Cli) -> Runner {
    let supervise = if cli.supervise {
        let crash_dir = cli
            .crash_reports
            .clone()
            .or_else(|| cli.results.as_ref().map(|r| format!("{r}/crash-reports")))
            .unwrap_or_else(|| "crash-reports".into());
        match SuperviseCtx::new(Path::new(&crash_dir)) {
            Ok(ctx) => {
                eprintln!(
                    "[supervise: one worker process per pool slot, crash reports in {}]",
                    ctx.crash_dir.display()
                );
                Some(Arc::new(ctx))
            }
            Err(e) => {
                eprintln!("cannot supervise: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let store = cli.results.as_deref().map(|dir| {
        eprintln!("[resumable results in {dir}]");
        ResultStore::open(Path::new(dir))
            .map(Arc::new)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
    });
    // A zero timeout is valid: it leaves the deadline off.
    let timeout = read_knob("ACIC_CELL_TIMEOUT_SECS", |r| r.parse::<u64>().ok());
    let mut runner = Runner {
        instructions: read_knob("ACIC_EXP_INSTRUCTIONS", positive).unwrap_or(DEFAULT_INSTRUCTIONS),
        cell_timeout: timeout.filter(|&s| s > 0).map(Duration::from_secs),
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
    let cli = match parse_cli(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // Failed cells and figures are reported structurally at the end
    // of the run; keep each panic to one stderr line instead of the
    // default multi-line hook output.
    std::panic::set_hook(Box::new(|info| {
        let msg = panic_message(info.payload());
        let loc = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        eprintln!("[panic{loc}] {}", msg.trim_end());
    }));

    if cli.run_cell {
        acic_bench::supervise::run_worker();
    }

    let all = all_experiments();
    if cli.list {
        for (name, _) in &all {
            println!("{name}");
        }
        return;
    }

    let selected: Vec<Experiment> = if let Some(wanted) = &cli.only {
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

    let runner = runner_from(&cli);

    if cli.dse {
        match run_dse_cli(&cli, &runner) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("dse failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Keep-going figure loop: one failing figure must not cost the
    // rest of the sweep (its grid cells already journaled to
    // --results are kept either way).
    let mut failures: Vec<(String, String)> = Vec::new();
    for (name, f) in selected {
        let start = std::time::Instant::now();
        println!("==== {name} ====");
        match catch_unwind(AssertUnwindSafe(|| f(&runner))) {
            Ok(text) => {
                println!("{text}");
                eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f32());
            }
            Err(payload) => {
                eprintln!(
                    "[{name} FAILED after {:.1}s]",
                    start.elapsed().as_secs_f32()
                );
                failures.push((name.to_string(), panic_message(&*payload)));
                if cli.fail_fast {
                    break;
                }
            }
        }
    }
    if !failures.is_empty() {
        exit_with_failure_summary("figure", &failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_bench::runner::bench_threads;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn knobs_parse_or_fall_back() {
        // The one test in this binary that touches the environment.
        let vars = [
            "ACIC_EXP_INSTRUCTIONS",
            "ACIC_CELL_TIMEOUT_SECS",
            "ACIC_BENCH_THREADS",
        ];
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let secs = |s| Some(Duration::from_secs(s));
        // Knob values -> (instructions, deadline, grid workers).
        let cases = [
            ([None, None, None], (DEFAULT_INSTRUCTIONS, None, cores)),
            (
                [Some("20000"), Some("30"), Some("16")],
                (20_000, secs(30), 16),
            ),
            (
                [Some("0"), Some("0"), Some("0")],
                (DEFAULT_INSTRUCTIONS, None, cores),
            ),
            (
                [Some("lots"), Some("soon"), Some("-1")],
                (DEFAULT_INSTRUCTIONS, None, cores),
            ),
        ];
        for (values, want) in cases {
            for (var, value) in vars.into_iter().zip(values) {
                match value {
                    Some(v) => std::env::set_var(var, v),
                    None => std::env::remove_var(var),
                }
            }
            let runner = runner_from(&Cli::default());
            let got = (runner.instructions, runner.cell_timeout, bench_threads());
            assert_eq!(got, want, "{values:?}");
        }
        for var in vars {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn flag_values_are_extracted_and_removed() {
        let cli = parse_cli(argv(&["--results", "rd", "fig1"])).unwrap();
        assert_eq!(cli.results.as_deref(), Some("rd"));
        assert_eq!(cli.filter, "fig1");
    }

    #[test]
    fn trailing_flag_without_value_is_an_error_not_a_filter() {
        let err = parse_cli(argv(&["fig1", "--results"])).unwrap_err();
        assert!(err.contains("--results requires a value"), "{err}");
    }

    #[test]
    fn flag_consuming_another_option_is_an_error() {
        // `--results --smoke` must not journal into a directory
        // literally named `--smoke`.
        let err = parse_cli(argv(&["--results", "--smoke"])).unwrap_err();
        assert!(err.contains("the option '--smoke'"), "{err}");
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
        // Retired flags are unknown options too.
        for flag in [
            "--record-traces",
            "--traces",
            "--profile-cell",
            "--keep-going",
        ] {
            let err = parse_cli(argv(&[flag, "x"])).unwrap_err();
            assert!(err.contains(&format!("unknown option '{flag}'")), "{err}");
        }
    }

    #[test]
    fn switches_and_filters_parse_together() {
        let cli = parse_cli(argv(&[
            "--smoke",
            "--fail-fast",
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
    fn run_cell_stands_alone() {
        let cli = parse_cli(argv(&["--run-cell"])).unwrap();
        assert_eq!(
            cli,
            Cli {
                run_cell: true,
                ..Cli::default()
            }
        );
        for args in [
            &["--run-cell", "k"][..],
            &["--only", "table3_mpki", "--run-cell"],
            &["--run-cell", "--results", "d"],
            &["--supervise", "--run-cell"],
        ] {
            let err = parse_cli(argv(args)).unwrap_err();
            assert!(err.contains("takes no other argument"), "{args:?}: {err}");
        }
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
