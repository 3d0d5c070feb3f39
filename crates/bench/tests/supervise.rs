//! End-to-end checks of `--supervise`: one worker process per pool
//! slot and its stdin protocol, hard timeouts, fixed-budget retries,
//! crash forensics, and bit-identity with the in-process reference
//! path — all on the small
//! `table3_mpki` grid (1 config x 10 specs) at a tiny instruction
//! budget so the debug binary stays fast.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BUDGET: &str = "2000";
const FIGURE: &str = "table3_mpki";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Isolate from ambient configuration: the harness reads these
    // (its workers read none).
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

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("acic-supervise-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The single `.txt` crash report under `dir`.
fn crash_report(dir: &Path) -> String {
    let mut reports: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("crash dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    assert_eq!(
        reports.len(),
        1,
        "want exactly one crash report: {reports:?}"
    );
    std::fs::read_to_string(reports.pop().unwrap()).unwrap()
}

/// The in-process reference output, computed once per scenario that
/// compares against it.
fn reference_stdout() -> String {
    let out = experiments().args(["--only", FIGURE]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    stdout(&out)
}

#[test]
fn healthy_supervised_run_is_bit_identical_to_in_process() {
    let dir = scratch("healthy");
    let ref_rs = dir.join("ref-results");
    let sup_rs = dir.join("sup-results");
    let sup_cr = dir.join("crash");

    let reference = experiments()
        .args(["--only", FIGURE, "--results", ref_rs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(reference.status.success(), "stderr: {}", stderr(&reference));

    let supervised = experiments()
        .args([
            "--only",
            FIGURE,
            "--results",
            sup_rs.to_str().unwrap(),
            "--supervise",
            "--crash-reports",
            sup_cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        supervised.status.success(),
        "stderr: {}",
        stderr(&supervised)
    );
    assert_eq!(
        stdout(&supervised),
        stdout(&reference),
        "supervised stdout must be bit-identical"
    );
    assert_eq!(
        std::fs::read(sup_rs.join("results.jsonl")).unwrap(),
        std::fs::read(ref_rs.join("results.jsonl")).unwrap(),
        "supervised journal must be byte-identical"
    );
    let left = entries_under(&sup_cr);
    assert!(
        left.is_empty(),
        "a healthy run leaves its crash dir empty: {left:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_supervised_run_without_results_matches_in_process_and_leaves_nothing() {
    // Two figures, no `--results`: every worker gets its cells on
    // stdin and runs no figure code, so nothing is journaled anywhere,
    // and no process writes a file under the crash dir.
    let dir = scratch("no-results");
    let cr = dir.join("crash");
    let reference = experiments().arg("fig12").output().unwrap();
    assert!(reference.status.success(), "stderr: {}", stderr(&reference));
    assert!(stdout(&reference).contains("==== fig12a_accuracy ===="));
    assert!(stdout(&reference).contains("==== fig12b_random ===="));

    let supervised = experiments()
        .args(["fig12", "--supervise", "--crash-reports"])
        .arg(&cr)
        .output()
        .unwrap();
    let se = stderr(&supervised);
    assert!(supervised.status.success(), "stderr: {se}");
    assert_eq!(
        stdout(&supervised),
        stdout(&reference),
        "supervised stdout must be bit-identical"
    );
    let left = entries_under(&cr);
    assert!(
        left.is_empty(),
        "nothing may be left under the crash dir: {left:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every entry (file or directory) directly under `dir`.
fn entries_under(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("crash dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect()
}

/// Runs `cmd` (an `experiments()` command) as a `--run-cell` worker
/// with `input` on stdin.
fn run_cell(cmd: &mut Command, input: &str) -> Output {
    let mut child = cmd
        .arg("--run-cell")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn one_worker_answers_each_message_in_turn_and_stops_at_a_bad_one() {
    use acic_bench::cell::{Cell, Exec};
    use acic_bench::json::Json;
    use acic_bench::result_store::{report_from_json, ResultStore};
    use acic_bench::supervise::message;
    use acic_sim::SimConfig;
    use acic_workloads::{AppProfile, WorkloadSpec};

    let dir = scratch("worker");
    let cell = |app: AppProfile| Cell {
        spec: WorkloadSpec::Single(app),
        config: SimConfig::default(),
        budget: BUDGET.parse().unwrap(),
        exec: Exec::Serial,
    };
    // Two of the figure's cells: web-search is spec 4, sibench spec 7.
    let (a, b) = (cell(AppProfile::web_search()), cell(AppProfile::sibench()));
    let (msg_a, msg_b) = (message(&a, None), message(&b, None));

    let out = experiments()
        .args([
            "--only",
            FIGURE,
            "--results",
            dir.join("ref").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let reference = ResultStore::open(&dir.join("ref")).unwrap();
    let want = |c: &Cell| {
        let report = reference
            .get(&c.key())
            .expect("the reference run journaled the cell");
        format!("{report:?}")
    };
    let answer = |line: &str| -> (String, String) {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| panic!("the worker printed no journal line ({e}): {line}"));
        let key = doc.get("key").and_then(Json::str_val).unwrap().to_string();
        let report = report_from_json(doc.get("report").unwrap()).unwrap();
        (key, format!("{report:?}"))
    };

    // Spec A, spec B, then spec A again: three answers, in order, each
    // the in-process journal's report for its cell.
    let out = run_cell(&mut experiments(), &format!("{msg_a}\n{msg_b}\n{msg_a}\n"));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let printed = stdout(&out);
    let lines: Vec<&str> = printed.lines().collect();
    assert_eq!(lines.len(), 3, "one line per message: {printed}");
    for (line, c) in lines.iter().zip([&a, &b, &a]) {
        assert_eq!(
            answer(line),
            (c.key(), want(c)),
            "the worker's report must match the in-process run"
        );
    }

    // A garbage second line: the first message is answered, then the
    // worker exits 2 without answering anything else.
    let out = run_cell(
        &mut experiments(),
        &format!("{msg_b}\nnot a message\n{msg_a}\n"),
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let printed = stdout(&out);
    let lines: Vec<&str> = printed.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "only the first message is answered: {printed}"
    );
    assert_eq!(answer(lines[0]), (b.key(), want(&b)));
    assert!(
        stderr(&out).contains("bad message"),
        "stderr: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sigkilled_child_is_retried_as_transient_and_the_campaign_recovers() {
    let dir = scratch("kill");
    let cr = dir.join("crash");
    let out = experiments()
        .env("ACIC_FAULT_CELL", "kill-once:0:1") // first attempt only
        .args([
            "--only",
            FIGURE,
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), reference_stdout(), "campaign bit-identical");
    let report = crash_report(&cr);
    assert!(report.contains("killed by signal 9"), "report:\n{report}");
    assert!(report.contains("[transient]"), "report:\n{report}");
    assert!(report.contains("retrying in"), "report:\n{report}");
    assert!(report.contains("retrying in 200ms"), "report:\n{report}");
    assert!(
        report.contains("disposition: recovered"),
        "report:\n{report}"
    );
    // The report keeps the failed attempt's message, fault included.
    let message = report
        .lines()
        .find_map(|l| l.strip_prefix("message: "))
        .unwrap_or_else(|| panic!("no message in the report:\n{report}"));
    assert!(
        message.ends_with(",\"fault\":\"kill\"}"),
        "report:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_aborting_cell_costs_one_cell_not_the_campaign() {
    let dir = scratch("abort");
    let cr = dir.join("crash");
    let out = experiments()
        .env("ACIC_FAULT_CELL", "abort:0:1") // every attempt
        .args([
            "--only",
            FIGURE,
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let se = stderr(&out);
    assert!(
        se.contains("9 of 10 cells completed"),
        "the other nine cells must survive the abort: {se}"
    );
    assert!(se.contains("crash reports:"), "stderr: {se}");
    let report = crash_report(&cr);
    // abort() raises SIGABRT: deterministic, retried once to confirm.
    assert!(report.contains("SIGABRT"), "report:\n{report}");
    assert!(report.contains("[deterministic]"), "report:\n{report}");
    assert!(report.contains("attempt 2"), "report:\n{report}");
    assert!(!report.contains("attempt 3"), "report:\n{report}");
    assert!(
        report.contains("disposition: failed (deterministic)"),
        "report:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stalled_child_is_hard_killed_at_the_deadline() {
    let dir = scratch("stall");
    let cr = dir.join("crash");
    let start = Instant::now();
    let out = experiments()
        .env("ACIC_FAULT_CELL", "stall-once:0:1:30000")
        .env("ACIC_CELL_TIMEOUT_SECS", "2")
        .args([
            "--only",
            FIGURE,
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        start.elapsed() < Duration::from_secs(25),
        "the hard kill must fire long before the 30s stall ends"
    );
    assert_eq!(stdout(&out), reference_stdout(), "campaign bit-identical");
    let report = crash_report(&cr);
    assert!(
        report.contains("hard timeout after 2s"),
        "report:\n{report}"
    );
    assert!(
        report.contains("disposition: recovered"),
        "report:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deterministically_panicking_cell_fails_loudly_with_forensics() {
    let dir = scratch("panic");
    let cr = dir.join("crash");
    let out = experiments()
        .env("ACIC_FAULT_CELL", "panic:0:1") // every attempt
        .args([
            "--only",
            FIGURE,
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let se = stderr(&out);
    assert!(se.contains("9 of 10 cells completed"), "stderr: {se}");
    assert!(
        se.contains("child failed after 2 attempt(s)"),
        "stderr: {se}"
    );
    let report = crash_report(&cr);
    // A Rust panic exits 101; the stderr tail carries the message.
    assert!(
        report.contains("exited with status 101"),
        "report:\n{report}"
    );
    assert!(report.contains("stderr tail:"), "report:\n{report}");
    assert!(report.contains("injected test panic"), "report:\n{report}");
    // The report carries the worker's stdin message, scripted fault
    // included: piping it back into `experiments --run-cell`
    // reproduces the failure with no fault knob set.
    let message = report
        .lines()
        .find_map(|l| l.strip_prefix("message: "))
        .unwrap_or_else(|| panic!("no message in the report:\n{report}"));
    assert!(
        report.contains("experiments --run-cell"),
        "report:\n{report}"
    );
    let replay = run_cell(&mut experiments(), message);
    assert_eq!(
        replay.status.code(),
        Some(101),
        "stderr: {}",
        stderr(&replay)
    );
    assert!(stderr(&replay).contains("injected test panic"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_supervised_sweep_resumes_without_recomputing_finished_cells() {
    let dir = scratch("resume");
    let rs = dir.join("results");
    let cr = dir.join("crash");

    // First supervised run: one cell panics deterministically, the
    // other nine complete and are journaled.
    let failed = experiments()
        .env("ACIC_FAULT_CELL", "panic:0:1")
        .args([
            "--only",
            FIGURE,
            "--results",
            rs.to_str().unwrap(),
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(failed.status.code(), Some(1), "stderr: {}", stderr(&failed));
    assert!(rs.join("results.jsonl").exists(), "journal survives");

    // Clean rerun: exactly the one failed cell recomputes.
    let resumed = experiments()
        .args([
            "--only",
            FIGURE,
            "--results",
            rs.to_str().unwrap(),
            "--supervise",
            "--crash-reports",
            cr.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("[results: 9 replayed, 1 computed]"),
        "stderr: {}",
        stderr(&resumed)
    );
    assert_eq!(
        stdout(&resumed),
        reference_stdout(),
        "resumed supervised sweep must match the in-process reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}
