//! End-to-end checks of the `experiments` binary: argument
//! hardening, keep-going figure isolation, and the kill-and-resume
//! result-store round trip — all at a tiny instruction budget so the
//! debug binary stays fast.

use std::path::PathBuf;
use std::process::{Command, Output};

const BUDGET: &str = "2000";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Isolate from ambient configuration: the harness reads these.
    for var in [
        "ACIC_EXP_INSTRUCTIONS",
        "ACIC_BENCH_THREADS",
        "ACIC_CELL_TIMEOUT_SECS",
        "ACIC_PANIC_CELL",
        "ACIC_ABORT_CELL",
        "ACIC_STALL_CELL",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("ACIC_EXP_INSTRUCTIONS", BUDGET);
    cmd
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("acic-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error_not_a_filter() {
    let out = experiments().arg("--results").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--results requires a value"));

    // A typo, and the retired flags (the self-test modes are now
    // integration tests; trace record/replay, the profiling loop and
    // the no-op keep-going switch are gone): none may fall through to
    // the figure filter.
    let retired_self_tests =
        ["trace", "results", "window", "dse", "supervise"].map(|mode| format!("--{mode}-smoke"));
    let flags = [
        "--keep-gonig",
        "--bench-delta",
        "--record-traces",
        "--traces",
        "--profile-cell",
        "--keep-going",
    ]
    .map(String::from);
    for flag in flags.iter().chain(&retired_self_tests) {
        let out = experiments().arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr(&out).contains("unknown option"), "{flag}");
    }

    // A second figure filter is rejected, not silently dropped.
    let out = experiments().args(["fig10", "fig11"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unexpected argument 'fig11'"));

    // `--dse` runs no figures: a figure selector next to it is a
    // usage error, not silently dropped while the sweep runs.
    for selector in [&["--only", "fig10_speedup"][..], &["fig10"]] {
        let out = experiments()
            .args(["--dse", "--smoke"])
            .args(selector)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{selector:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("cannot be combined"), "{selector:?}");
        assert!(stdout(&out).is_empty(), "{selector:?}: nothing swept");
    }
}

#[test]
fn keep_going_completes_every_other_figure_and_summarizes_failures() {
    // Cell (config 0, app 5) panics in every grid large enough to
    // have it; table1_storage does no simulation and must still
    // print, and every selected figure header must appear (the run
    // keeps going past failures).
    let out = experiments()
        .env("ACIC_PANIC_CELL", "0:5")
        .arg("table")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let so = stdout(&out);
    for name in [
        "table1_storage",
        "table2_config",
        "table3_mpki",
        "table4_schemes",
    ] {
        assert!(so.contains(&format!("==== {name} ====")), "missing {name}");
    }
    assert!(so.contains("i-Filter"), "table1's body must still print");
    let se = stderr(&out);
    assert!(se.contains("==== failure summary ===="));
    assert!(se.contains("[table3_mpki FAILED"), "stderr: {se}");
    assert!(
        se.contains("grid failed:"),
        "the structured grid report names the failed cells: {se}"
    );
    assert!(se.contains("injected test panic in cell (0,5)"));
}

#[test]
fn fail_fast_stops_at_the_first_failing_figure() {
    let out = experiments()
        .env("ACIC_PANIC_CELL", "0:5")
        .args(["--fail-fast", "table"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // table3_mpki always fails under this injection, so the loop can
    // never reach table4.
    assert!(!stdout(&out).contains("==== table4_schemes ===="));
    assert!(stderr(&out).contains("==== failure summary ===="));
}

#[test]
fn killed_sweep_resumes_bit_identically_from_the_result_store() {
    let results = scratch("resume");
    let results_arg = results.to_str().unwrap();

    // Reference: one uninterrupted run without a store.
    let reference = experiments()
        .args(["--only", "table3_mpki"])
        .output()
        .unwrap();
    assert!(reference.status.success(), "stderr: {}", stderr(&reference));

    // Killed run: one worker finishes cells 0..=4 into the journal,
    // then the process dies hard (abort, not a clean panic) in cell 5.
    let killed = experiments()
        .env("ACIC_ABORT_CELL", "0:5")
        .env("ACIC_BENCH_THREADS", "1")
        .args(["--results", results_arg, "--only", "table3_mpki"])
        .output()
        .unwrap();
    assert!(!killed.status.success(), "the abort must kill the run");
    assert!(results.join("results.jsonl").exists(), "journal survives");

    // Resume: only the unfinished cells recompute, and stdout is
    // bit-identical to the uninterrupted reference run.
    let resumed = experiments()
        .env("ACIC_BENCH_THREADS", "1")
        .args(["--results", results_arg, "--only", "table3_mpki"])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("[results: 5 replayed, 5 computed]"),
        "stderr: {}",
        stderr(&resumed)
    );
    assert_eq!(
        stdout(&resumed),
        stdout(&reference),
        "resume must be bit-identical"
    );

    // A third run replays everything.
    let replayed = experiments()
        .args(["--results", results_arg, "--only", "table3_mpki"])
        .output()
        .unwrap();
    assert!(replayed.status.success());
    assert!(stderr(&replayed).contains("[results: 10 replayed, 0 computed]"));
    assert_eq!(stdout(&replayed), stdout(&reference));

    // The sampling study and Figure 6 journal their cells like every
    // other grid: at smoke budget, a rerun against the same store
    // replays them all and prints the same rows.
    for (figure, cells) in [("sampling_error", 20), ("fig06_cshr_lifetime", 1)] {
        let run = || {
            let out = experiments()
                .args(["--smoke", "--results", results_arg, "--only", figure])
                .output()
                .unwrap();
            assert!(out.status.success(), "{figure}: {}", stderr(&out));
            out
        };
        let (first, second) = (run(), run());
        let replayed = format!("[results: {cells} replayed, 0 computed]");
        assert!(stderr(&second).contains(&replayed), "{}", stderr(&second));
        assert_eq!(stdout(&second), stdout(&first), "{figure}");
    }

    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn list_names_every_figure_without_simulating() {
    let out = experiments().arg("--list").output().unwrap();
    assert!(out.status.success());
    let so = stdout(&out);
    for name in ["table3_mpki", "fig11_mpki", "energy_summary"] {
        assert!(so.lines().any(|l| l == name), "missing {name}");
    }
}

#[test]
fn a_stalled_cell_is_failed_by_the_watchdog_not_hung_forever() {
    let start = std::time::Instant::now();
    let out = experiments()
        .env("ACIC_STALL_CELL", "0:5:30000")
        .env("ACIC_BENCH_THREADS", "1")
        .env("ACIC_CELL_TIMEOUT_SECS", "1")
        .args(["--only", "table3_mpki"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(25),
        "the watchdog must fire long before the 30s stall ends"
    );
    let se = stderr(&out);
    assert!(se.contains("==== failure summary ===="), "stderr: {se}");
    assert!(se.contains("cell watchdog"), "stderr: {se}");
}
