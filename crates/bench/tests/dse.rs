//! End-to-end properties of the adaptive design-space exploration:
//!
//! 1. **Pruning correctness** — on the pinned space (LRU, SRRIP, and
//!    four ACIC points over two SPEC apps), the DSE survivor set is a
//!    superset of the true Pareto frontier computed by an exhaustive
//!    full-detail sweep (interval pruning never produces a false
//!    prune), the surviving configurations' final reports are
//!    bit-identical to the exhaustive reference (the final rung
//!    re-simulates at full fidelity), and the two frontier sets agree
//!    exactly.
//! 2. **Kill and resume** — a `--dse` sweep aborted mid-rung resumes
//!    from its `--results` journal with zero recomputed finished
//!    cells and reproduces the uninterrupted run's provenance report
//!    line for line; a journal torn mid-line costs a partial, not
//!    total, recompute.
//! 3. **Supervision** — a `--dse --supervise` sweep (rung cells in
//!    one worker process per pool slot) is bit-identical to the
//!    in-process sweep: provenance report, result journal and summary.

use acic_bench::dse::{midpoints, pareto_frontier, pinned_space, run_dse, DseOptions, Ladder};
use acic_bench::Runner;
use acic_sim::{SampleSchedule, SimConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("acic-dse-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn dse_frontier_is_a_superset_of_the_exhaustive_pareto_frontier() {
    let space = pinned_space();
    // The pinned space spans the three scheme families the paper
    // compares, so a false prune of any of them would be caught here.
    let labels: Vec<&str> = space.configs.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains(&"lru") && labels.contains(&"srrip"));
    assert!(labels.iter().filter(|l| l.starts_with("acic")).count() >= 4);

    let budget = 60_000;
    let opts = DseOptions {
        ladder: Ladder::new(budget, 2, SampleSchedule::Full),
        store: None,
        threads: 2,
        ..DseOptions::default()
    };
    let run = run_dse(&space, &opts).expect("sweep completes");

    // Exhaustive full-detail reference over every configuration.
    let runner = Runner {
        instructions: budget,
        baseline: SimConfig::default(),
        store: None,
        cell_timeout: None,
        window_threads: 0,
        supervise: None,
    };
    let configs: Vec<SimConfig> = space
        .configs
        .iter()
        .map(|c| c.cfg.with_schedule(SampleSchedule::Full))
        .collect();
    let grid = runner.run_grid(&configs, &space.specs);
    let points: Vec<Vec<f64>> = grid.iter().map(|reps| midpoints(reps)).collect();
    let true_frontier: BTreeSet<usize> = pareto_frontier(&points)
        .into_iter()
        .enumerate()
        .filter(|&(_, keep)| keep)
        .map(|(i, _)| i)
        .collect();
    assert!(!true_frontier.is_empty());

    // (a) No false prunes: every true-frontier configuration survived.
    for &i in &true_frontier {
        assert!(
            run.outcomes[i].alive,
            "config '{}' is on the true Pareto frontier but was pruned{}",
            run.outcomes[i].label,
            run.outcomes[i]
                .pruned_by
                .as_ref()
                .map(|by| format!(" (by '{by}')"))
                .unwrap_or_default()
        );
    }

    // (b) Identical ranking: survivors' final-rung reports are
    // bit-identical to the exhaustive full-detail reference, so any
    // ranking derived from them agrees by construction.
    for &i in &run.survivors() {
        assert_eq!(
            format!("{:?}", run.outcomes[i].reports),
            format!("{:?}", grid[i]),
            "config '{}' final-rung reports differ from the exhaustive reference",
            run.outcomes[i].label
        );
    }

    // (c) The frontier over the survivors equals the true frontier
    // exactly (no false prunes + bit-identical points).
    let survivors = run.survivors();
    let survivor_points: Vec<Vec<f64>> = survivors
        .iter()
        .map(|&i| midpoints(&run.outcomes[i].reports))
        .collect();
    let dse_frontier: BTreeSet<usize> = survivors
        .iter()
        .zip(pareto_frontier(&survivor_points))
        .filter(|&(_, keep)| keep)
        .map(|(&i, _)| i)
        .collect();
    assert_eq!(dse_frontier, true_frontier, "frontier sets must agree");
}

const BUDGET: &str = "2000";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for var in [
        "ACIC_EXP_INSTRUCTIONS",
        "ACIC_BENCH_THREADS",
        "ACIC_CELL_TIMEOUT_SECS",
        "ACIC_FAULT_CELL",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("ACIC_EXP_INSTRUCTIONS", BUDGET);
    cmd
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The provenance report without its header line (the header carries
/// this run's replayed/computed counters, which legitimately differ
/// between an uninterrupted run and a resumed one).
fn report_body(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().skip(1).collect::<Vec<_>>().join("\n")
}

#[test]
fn killed_dse_sweep_resumes_with_zero_recomputed_finished_cells() {
    let dir = scratch("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let results = dir.join("results");
    let results_arg = results.to_str().unwrap().to_string();
    let ref_report = dir.join("reference.jsonl");
    let res_report = dir.join("resumed.jsonl");

    // Reference: one uninterrupted run without a store.
    let reference = experiments()
        .args([
            "--dse",
            "--smoke",
            "--dse-report",
            ref_report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(reference.status.success(), "stderr: {}", stderr(&reference));

    // Killed run: one worker journals configs 0 and 1 of rung 0, then
    // the process dies hard (abort, not a clean panic) in config 2.
    let killed = experiments()
        .env("ACIC_FAULT_CELL", "abort:2:0")
        .env("ACIC_BENCH_THREADS", "1")
        .args(["--dse", "--smoke", "--results", &results_arg])
        .output()
        .unwrap();
    assert!(!killed.status.success(), "the abort must kill the run");
    assert!(results.join("results.jsonl").exists(), "journal survives");

    // Resume: rung 0 replays the two finished cells and recomputes
    // only the rest; the provenance report matches the uninterrupted
    // reference line for line.
    let resumed = experiments()
        .env("ACIC_BENCH_THREADS", "1")
        .args([
            "--dse",
            "--smoke",
            "--results",
            &results_arg,
            "--dse-report",
            res_report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    let so = stdout(&resumed);
    assert!(
        so.contains("(2 cells replayed, 2 computed)"),
        "rung 0 must replay exactly the cells finished before the kill:\n{so}"
    );
    assert_eq!(
        report_body(&res_report),
        report_body(&ref_report),
        "resumed provenance must match the uninterrupted reference"
    );

    // A third run replays everything — zero recomputed finished cells.
    let replayed = experiments()
        .args(["--dse", "--smoke", "--results", &results_arg])
        .output()
        .unwrap();
    assert!(replayed.status.success(), "stderr: {}", stderr(&replayed));
    let so = stdout(&replayed);
    let (cells, computed) = rung_counts(&so);
    assert_eq!(
        computed, 0,
        "every rung must be served from the journal:\n{so}"
    );

    // Tear the journal mid-line at 60%: the torn and later lines are
    // dropped on reopen, so the rerun recomputes some cells but not
    // all, and still reproduces the reference provenance.
    let journal = results.join("results.jsonl");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() * 3 / 5]).unwrap();
    let torn_report = dir.join("torn.jsonl");
    let torn = experiments()
        .args([
            "--dse",
            "--smoke",
            "--results",
            &results_arg,
            "--dse-report",
            torn_report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(torn.status.success(), "stderr: {}", stderr(&torn));
    let so = stdout(&torn);
    let (replayed, computed) = rung_counts(&so);
    assert!(
        computed > 0 && computed < cells,
        "a mid-line tear costs a partial recompute, got {computed} of {cells}:\n{so}"
    );
    assert_eq!(replayed + computed, cells, "{so}");
    assert_eq!(
        report_body(&torn_report),
        report_body(&ref_report),
        "torn-journal rerun must match the uninterrupted reference"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Sums the `(N cells replayed, M computed)` counters over every
/// `rung` line of a `--dse` summary.
fn rung_counts(summary: &str) -> (u64, u64) {
    let mut totals = (0, 0);
    for line in summary.lines().filter(|l| l.starts_with("rung ")) {
        let counts = line
            .split_once('(')
            .and_then(|(_, rest)| rest.split_once(')'))
            .map(|(inner, _)| inner)
            .unwrap_or_else(|| panic!("rung line without counters: {line}"));
        let (rep, comp) = counts
            .split_once(" cells replayed, ")
            .unwrap_or_else(|| panic!("unexpected counters: {line}"));
        totals.0 += rep.parse::<u64>().unwrap();
        totals.1 += comp.trim_end_matches(" computed").parse::<u64>().unwrap();
    }
    totals
}

#[test]
fn supervised_dse_sweep_is_bit_identical_to_in_process() {
    let dir = scratch("supervise");
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |tag: &str, supervise: bool| {
        let results = dir.join(format!("results-{tag}"));
        let report = dir.join(format!("{tag}.jsonl"));
        let mut cmd = experiments();
        cmd.args(["--dse", "--smoke", "--results"])
            .arg(&results)
            .arg("--dse-report")
            .arg(&report);
        if supervise {
            cmd.arg("--supervise");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{tag} stderr: {}", stderr(&out));
        (out, results, report)
    };
    let (sup, sup_results, sup_report) = sweep("supervised", true);
    let (inp, inp_results, inp_report) = sweep("in-process", false);
    assert!(
        stderr(&sup).contains("[supervise: one worker process per pool slot"),
        "the sweep ran supervised: {}",
        stderr(&sup)
    );

    assert_eq!(
        report_body(&sup_report),
        report_body(&inp_report),
        "provenance report bodies"
    );
    assert_eq!(
        std::fs::read(sup_results.join("results.jsonl")).unwrap(),
        std::fs::read(inp_results.join("results.jsonl")).unwrap(),
        "result journals byte-identical"
    );
    // The summary's only run-dependent part is its `in <t>s` suffix.
    let summary = |out: &Output| -> String {
        stdout(out)
            .lines()
            .map(|l| match l.split_once(" in ") {
                Some((head, _)) if l.starts_with("survivors: ") => head,
                _ => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(summary(&sup), summary(&inp), "stdout");
    // Healthy children leave no crash reports (the crash directory
    // defaults to `<results>/crash-reports`).
    let crash_reports: Vec<_> = std::fs::read_dir(sup_results.join("crash-reports"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
        .collect();
    assert!(crash_reports.is_empty(), "{crash_reports:?}");

    std::fs::remove_dir_all(&dir).ok();
}
