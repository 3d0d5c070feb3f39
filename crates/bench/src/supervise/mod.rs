//! Process-supervised cell execution: hard isolation, retry with
//! backoff, and crash forensics.
//!
//! The in-process grid runner (`runner.rs`) isolates cells with
//! `catch_unwind` and a *soft* watchdog: a wedged worker is written
//! off but leaks, and an `abort()` or OOM kill in any cell tears down
//! the whole campaign. Under `--supervise` the parent instead
//! self-execs **one child process per cell**: the child re-runs the
//! same binary with the hidden `--run-cell <journal-key>` /
//! `--run-cell-out <dir>` flags, locates its one cell by journal key,
//! simulates it, and reports the result through a private
//! `acic-results/v2` store that the parent re-reads after the child
//! exits. That buys:
//!
//! * **Hard timeouts** — a stalled child is SIGKILLed at the
//!   `ACIC_CELL_TIMEOUT_SECS` deadline; nothing leaks.
//! * **Blast-radius one** — `abort()`, OOM, or any signal death kills
//!   one attempt of one cell, never the campaign.
//! * **Retries with taxonomy** — the pure [`policy`] module classifies
//!   each dead child transient vs deterministic from its exit
//!   evidence and schedules capped exponential backoff with
//!   deterministic seeded jitter.
//! * **Forensics** — every retried or failed cell leaves a crash
//!   report (exit status / signal, captured stderr tail, full retry
//!   history) under `crash-reports/`, referenced from the `GridError`
//!   summary.
//!
//! The in-process path stays the default and the bit-identity
//! reference: a supervised run must produce byte-identical journals
//! and figure output (children journal through the same bit-exact
//! report round-trip, and the parent's whole-file `BTreeMap` rewrite
//! makes journal bytes independent of completion order). Where
//! spawning is unavailable the supervisor degrades to in-process
//! execution with a single warning.

pub mod policy;

use crate::result_store::ResultStore;
use crate::runner::CellError;
use acic_sim::SimReport;
use policy::{classify, ChildOutcome, Decision, RetryPolicy};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How much child stderr the supervisor retains per attempt for the
/// crash report.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// How often the parent polls a running child between hard-deadline
/// checks.
const CHILD_POLL: Duration = Duration::from_millis(15);

/// The supervised parent's execution context: how to re-exec
/// ourselves for one cell and where crash artifacts go.
#[derive(Debug)]
pub struct SuperviseCtx {
    /// The `experiments` binary to self-exec.
    exe: PathBuf,
    /// Original argv (minus supervision flags) so the child replays
    /// the same figure/DSE selection and reaches the same cells.
    args: Vec<String>,
    /// Where crash reports for failed/retried cells are written.
    pub crash_dir: PathBuf,
    /// Scratch space for per-attempt child journals.
    work_dir: PathBuf,
    /// The retry/backoff schedule.
    pub policy: RetryPolicy,
}

/// The one cell a `--run-cell` child process is responsible for.
#[derive(Debug, Clone)]
pub struct ChildTarget {
    /// The journal key identifying the cell.
    pub key: String,
    /// The private store directory the child must report through.
    pub out_dir: PathBuf,
}

static SUPERVISOR: OnceLock<Arc<SuperviseCtx>> = OnceLock::new();
static CHILD: OnceLock<ChildTarget> = OnceLock::new();

/// Installs the process-wide supervisor used by default-constructed
/// runners, mirroring `result_store::configure`. Fails (so the caller
/// can warn once and fall back to in-process execution) when the
/// current executable cannot be resolved or the crash directory
/// cannot be created.
pub fn configure(crash_dir: &Path, argv: &[String]) -> Result<Arc<SuperviseCtx>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot resolve the current executable for self-exec: {e}"))?;
    std::fs::create_dir_all(crash_dir).map_err(|e| {
        format!(
            "cannot create crash-report dir {}: {e}",
            crash_dir.display()
        )
    })?;
    let work_dir = crash_dir.join(".attempts");
    std::fs::create_dir_all(&work_dir).map_err(|e| {
        format!(
            "cannot create attempt scratch dir {}: {e}",
            work_dir.display()
        )
    })?;
    let ctx = Arc::new(SuperviseCtx {
        exe,
        args: child_args(argv),
        crash_dir: crash_dir.to_path_buf(),
        work_dir,
        policy: RetryPolicy::from_env(),
    });
    let _ = SUPERVISOR.set(Arc::clone(&ctx));
    Ok(ctx)
}

/// The process-wide supervisor, if one was configured. Always `None`
/// inside a `--run-cell` child: children never recurse into
/// supervision.
pub fn active() -> Option<Arc<SuperviseCtx>> {
    if CHILD.get().is_some() {
        return None;
    }
    SUPERVISOR.get().cloned()
}

/// Marks this process as a supervised child responsible for exactly
/// one cell.
pub fn set_child_target(key: String, out_dir: PathBuf) {
    let _ = CHILD.set(ChildTarget { key, out_dir });
}

/// The cell this child process must run, when in `--run-cell` mode.
pub fn child_target() -> Option<&'static ChildTarget> {
    CHILD.get()
}

/// Strips supervision flags from an argv so the child does not
/// recurse into spawning grandchildren. Pure for testability.
pub fn child_args(argv: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--supervise" | "--supervise-smoke" => {}
            "--crash-reports" | "--run-cell" | "--run-cell-out" => {
                let _ = it.next();
            }
            _ => out.push(a.clone()),
        }
    }
    out
}

/// Flattens a journal key into something safe for a file name.
fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One attempt's worth of forensic evidence.
struct AttemptRecord {
    outcome: String,
    class: Option<String>,
    backoff: Option<Duration>,
    stderr_tail: String,
}

/// Runs one cell to completion under process supervision: spawn a
/// `--run-cell` child, enforce the hard timeout, classify any death,
/// and retry per the policy. Returns the child's journaled report on
/// success; writes a crash report and returns
/// [`CellError::ChildFailed`] when the attempt budget is spent.
pub fn run_one(
    ctx: &SuperviseCtx,
    key: &str,
    label: &str,
    timeout: Option<Duration>,
) -> Result<SimReport, CellError> {
    let mut history: Vec<AttemptRecord> = Vec::new();
    let mut attempt: u32 = 1;
    loop {
        let out_dir = ctx
            .work_dir
            .join(format!("{}-a{attempt}", sanitize_key(key)));
        let _ = std::fs::remove_dir_all(&out_dir);
        let (outcome, stderr_tail) = spawn_and_wait(ctx, key, &out_dir, attempt - 1, timeout);
        let report = if outcome == ChildOutcome::Exited(0) {
            ResultStore::open(&out_dir).ok().and_then(|s| s.get(key))
        } else {
            None
        };
        let _ = std::fs::remove_dir_all(&out_dir);
        if let Some(report) = report {
            if !history.is_empty() {
                history.push(AttemptRecord {
                    outcome: "succeeded".into(),
                    class: None,
                    backoff: None,
                    stderr_tail: String::new(),
                });
                write_crash_report(ctx, key, label, &history, "recovered");
            }
            return Ok(report);
        }
        // A clean exit that never journaled the cell is its own
        // (deterministic) failure mode.
        let outcome = if outcome == ChildOutcome::Exited(0) {
            ChildOutcome::NoReport
        } else {
            outcome
        };
        let decision = ctx.policy.decide(key, &outcome, attempt);
        let backoff = match &decision {
            Decision::Retry(d) => Some(*d),
            Decision::GiveUp(_) => None,
        };
        history.push(AttemptRecord {
            outcome: outcome.to_string(),
            class: Some(classify(&outcome).to_string()),
            backoff,
            stderr_tail,
        });
        match decision {
            Decision::Retry(delay) => {
                std::thread::sleep(delay);
                attempt += 1;
            }
            Decision::GiveUp(class) => {
                write_crash_report(ctx, key, label, &history, &format!("failed ({class})"));
                return Err(CellError::ChildFailed {
                    outcome: outcome.to_string(),
                    attempts: attempt,
                });
            }
        }
    }
}

/// Spawns one `--run-cell` child and waits for it, SIGKILLing at the
/// hard deadline. Returns the outcome plus the retained stderr tail.
fn spawn_and_wait(
    ctx: &SuperviseCtx,
    key: &str,
    out_dir: &Path,
    attempt_idx: u32,
    timeout: Option<Duration>,
) -> (ChildOutcome, String) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        return (ChildOutcome::SpawnFailed(e.to_string()), String::new());
    }
    let mut cmd = Command::new(&ctx.exe);
    cmd.args(&ctx.args)
        .arg("--run-cell")
        .arg(key)
        .arg("--run-cell-out")
        .arg(out_dir)
        .env("ACIC_SUPERVISE_ATTEMPT", attempt_idx.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return (ChildOutcome::SpawnFailed(e.to_string()), String::new()),
    };
    let drain = child
        .stderr
        .take()
        .map(|s| std::thread::spawn(move || stderr_tail(s)));
    let deadline = timeout.map(|t| Instant::now() + t);
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                std::thread::sleep(CHILD_POLL);
            }
            Err(_) => {
                let _ = child.kill();
                break child.wait().ok();
            }
        }
    };
    let tail = drain.and_then(|t| t.join().ok()).unwrap_or_default();
    let outcome = match status {
        None => ChildOutcome::TimedOut(timeout.unwrap_or_default()),
        Some(st) => match st.code() {
            Some(code) => ChildOutcome::Exited(code),
            None => ChildOutcome::Signaled(death_signal(&st)),
        },
    };
    (outcome, tail)
}

#[cfg(unix)]
fn death_signal(st: &std::process::ExitStatus) -> i32 {
    use std::os::unix::process::ExitStatusExt;
    st.signal().unwrap_or(-1)
}

#[cfg(not(unix))]
fn death_signal(_st: &std::process::ExitStatus) -> i32 {
    -1
}

/// Reads a child's piped stderr to the end, retaining only the last
/// [`STDERR_TAIL_BYTES`] so a log-spewing child cannot balloon the
/// parent.
fn stderr_tail(mut pipe: impl std::io::Read) -> String {
    let mut tail: Vec<u8> = Vec::with_capacity(STDERR_TAIL_BYTES);
    let mut buf = [0u8; 4096];
    loop {
        match pipe.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                tail.extend_from_slice(&buf[..n]);
                if tail.len() > STDERR_TAIL_BYTES {
                    let cut = tail.len() - STDERR_TAIL_BYTES;
                    tail.drain(..cut);
                }
            }
        }
    }
    String::from_utf8_lossy(&tail).into_owned()
}

/// Writes the per-cell crash artifact: identity, full retry history
/// with per-attempt exit evidence and stderr tails, and the final
/// disposition.
fn write_crash_report(
    ctx: &SuperviseCtx,
    key: &str,
    label: &str,
    history: &[AttemptRecord],
    disposition: &str,
) {
    let mut out = String::new();
    out.push_str(&format!("cell: {label}\n"));
    out.push_str(&format!("key: {key}\n"));
    out.push_str(&format!("attempts: {}\n", history.len()));
    for (i, rec) in history.iter().enumerate() {
        match (&rec.class, rec.backoff) {
            (Some(class), Some(delay)) => out.push_str(&format!(
                "attempt {}: {} [{}]; retrying in {}ms\n",
                i + 1,
                rec.outcome,
                class,
                delay.as_millis()
            )),
            (Some(class), None) => {
                out.push_str(&format!("attempt {}: {} [{}]\n", i + 1, rec.outcome, class))
            }
            (None, _) => out.push_str(&format!("attempt {}: {}\n", i + 1, rec.outcome)),
        }
        if !rec.stderr_tail.is_empty() {
            out.push_str("  stderr tail:\n");
            for line in rec.stderr_tail.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    out.push_str(&format!("disposition: {disposition}\n"));
    let path = ctx.crash_dir.join(format!("{}.txt", sanitize_key(key)));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!(
            "[warning: could not write crash report {}: {e}]",
            path.display()
        );
    }
}

/// Runs the closure as this child process's one cell: journal the
/// report into the private per-attempt store and exit. Never returns.
/// Exit taxonomy (observed by the parent): 0 = journaled OK, 101 =
/// cell panicked, 4 = journal write failed; `abort()`/signals
/// propagate as signal deaths.
pub fn run_child_cell(target: &ChildTarget, rung: Option<u32>, f: impl FnOnce() -> SimReport) -> ! {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(report) => {
            let journaled = ResultStore::open(&target.out_dir)
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    match rung {
                        Some(r) => s.put_rung(&target.key, r, &report),
                        None => s.put(&target.key, &report),
                    }
                    .map_err(|e| e.to_string())
                });
            match journaled {
                Ok(()) => std::process::exit(0),
                Err(e) => {
                    eprintln!(
                        "[supervise child: failed to journal cell {}: {e}]",
                        target.key
                    );
                    std::process::exit(4)
                }
            }
        }
        // The process panic hook already printed the panic message to
        // stderr; exit like an uncaught panic would so the parent
        // classifies it deterministic.
        Err(_) => std::process::exit(101),
    }
}

/// Kills the current process with SIGKILL (no unwinding, no exit
/// status) — the scripted `ACIC_KILL_CELL` fault, standing in for the
/// OOM killer. Falls back to `abort()` where no shell is available.
pub(crate) fn kill_self() -> ! {
    #[cfg(unix)]
    {
        let pid = std::process::id();
        let _ = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -9 {pid}"))
            .status();
        // SIGKILL delivery is asynchronous; give it a moment before
        // falling back.
        std::thread::sleep(Duration::from_secs(5));
    }
    std::process::abort();
}

/// A scratch directory namespaced by pid, removed by the caller.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("acic-{tag}-{}", std::process::id()))
}

/// Spawns one `experiments` child for the smoke, with a hermetic
/// fault environment, returning (exit code, stdout, stderr).
fn run_experiments(
    exe: &Path,
    args: &[&str],
    envs: &[(&str, String)],
) -> Result<(i32, String, String), String> {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for var in crate::fault::CELL_FAULT_VARS {
        cmd.env_remove(var);
    }
    for var in [
        "ACIC_CELL_TIMEOUT_SECS",
        "ACIC_SUPERVISE_RETRIES",
        "ACIC_SUPERVISE_BACKOFF_MS",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    Ok((
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// End-to-end smoke for `--supervise-smoke`: drives the supervisor
/// through the scripted hostile matrix (healthy, child-kill, stall,
/// deterministic panic) and checks bit-identity, retry journaling,
/// and hard-kill latency. Returns a human-readable summary or the
/// first failed check.
pub fn supervise_smoke() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = scratch_dir("supervise-smoke");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let budget = ("ACIC_EXP_INSTRUCTIONS", "2000".to_string());
    let figure = "table3_mpki";
    let journal = |dir: &Path| -> Result<Vec<u8>, String> {
        std::fs::read(dir.join("results.jsonl"))
            .map_err(|e| format!("journal {}: {e}", dir.display()))
    };
    let crash_report = |dir: &Path| -> Result<String, String> {
        let mut reports = Vec::new();
        for ent in
            std::fs::read_dir(dir).map_err(|e| format!("crash dir {}: {e}", dir.display()))?
        {
            let path = ent.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "txt") {
                reports.push(std::fs::read_to_string(&path).map_err(|e| e.to_string())?);
            }
        }
        if reports.len() != 1 {
            return Err(format!(
                "expected exactly 1 crash report in {}, found {}",
                dir.display(),
                reports.len()
            ));
        }
        Ok(reports.pop().unwrap())
    };
    let mut lines = Vec::new();

    // 1. In-process reference run.
    let ref_rs = scratch.join("ref-results");
    let (code, ref_out, err) = run_experiments(
        &exe,
        &["--only", figure, "--results", ref_rs.to_str().unwrap()],
        std::slice::from_ref(&budget),
    )?;
    if code != 0 {
        return Err(format!("reference run exited {code}: {}", err.trim()));
    }
    let ref_journal = journal(&ref_rs)?;
    lines.push(format!(
        "reference: in-process run ok, journal {} bytes",
        ref_journal.len()
    ));

    // 2. Supervised healthy run: byte-identical output and journal,
    //    no crash reports.
    let sup_rs = scratch.join("sup-results");
    let sup_cr = scratch.join("sup-crash");
    let (code, sup_out, err) = run_experiments(
        &exe,
        &[
            "--only",
            figure,
            "--results",
            sup_rs.to_str().unwrap(),
            "--supervise",
            "--crash-reports",
            sup_cr.to_str().unwrap(),
        ],
        std::slice::from_ref(&budget),
    )?;
    if code != 0 {
        return Err(format!(
            "supervised healthy run exited {code}: {}",
            err.trim()
        ));
    }
    if sup_out != ref_out {
        return Err("supervised stdout differs from in-process reference".into());
    }
    if journal(&sup_rs)? != ref_journal {
        return Err("supervised journal differs from in-process reference".into());
    }
    let stray = std::fs::read_dir(&sup_cr)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
                .count()
        })
        .unwrap_or(0);
    if stray != 0 {
        return Err(format!("healthy supervised run left {stray} crash reports"));
    }
    lines.push(
        "supervised healthy: exit 0, stdout and journal byte-identical, no crash reports".into(),
    );

    // 3. Transient child kill on one cell's first attempt: campaign
    //    still completes bit-identically, retry is journaled.
    let kill_cr = scratch.join("kill-crash");
    let (code, kill_out, err) = run_experiments(
        &exe,
        &[
            "--only",
            figure,
            "--supervise",
            "--crash-reports",
            kill_cr.to_str().unwrap(),
        ],
        &[
            budget.clone(),
            ("ACIC_KILL_CELL", "0:1".into()),
            ("ACIC_FAULT_ATTEMPTS", "1".into()),
        ],
    )?;
    if code != 0 {
        return Err(format!("child-kill run exited {code}: {}", err.trim()));
    }
    if kill_out != ref_out {
        return Err("child-kill run stdout differs from reference".into());
    }
    let report = crash_report(&kill_cr)?;
    if !report.contains("transient") || !report.contains("recovered") {
        return Err(format!(
            "kill crash report lacks transient/recovered evidence:\n{report}"
        ));
    }
    lines.push("child-kill: SIGKILLed attempt retried transient, campaign bit-identical, crash report journaled".into());

    // 4. Stall past the hard timeout: SIGKILLed at the deadline, the
    //    retry (fault disarmed after attempt 0) completes the campaign
    //    far faster than the scripted 30s stall.
    let stall_cr = scratch.join("stall-crash");
    let stall_start = Instant::now();
    let (code, stall_out, err) = run_experiments(
        &exe,
        &[
            "--only",
            figure,
            "--supervise",
            "--crash-reports",
            stall_cr.to_str().unwrap(),
        ],
        &[
            budget.clone(),
            ("ACIC_STALL_CELL", "0:1:30000".into()),
            ("ACIC_FAULT_ATTEMPTS", "1".into()),
            ("ACIC_CELL_TIMEOUT_SECS", "2".into()),
        ],
    )?;
    let stall_wall = stall_start.elapsed();
    if code != 0 {
        return Err(format!("stall run exited {code}: {}", err.trim()));
    }
    if stall_out != ref_out {
        return Err("stall run stdout differs from reference".into());
    }
    if stall_wall > Duration::from_secs(25) {
        return Err(format!(
            "stall run took {stall_wall:?}; hard kill did not engage"
        ));
    }
    let report = crash_report(&stall_cr)?;
    if !report.contains("hard timeout") {
        return Err(format!(
            "stall crash report lacks hard-timeout evidence:\n{report}"
        ));
    }
    lines.push(format!(
        "stall: 30s wedge hard-killed at 2s deadline, campaign done in {:.1}s",
        stall_wall.as_secs_f64()
    ));

    // 5. Deterministic panic: retried once to confirm, then the cell
    //    fails loudly (exit 1) while the other nine complete.
    let panic_cr = scratch.join("panic-crash");
    let (code, _out, err) = run_experiments(
        &exe,
        &[
            "--only",
            figure,
            "--supervise",
            "--crash-reports",
            panic_cr.to_str().unwrap(),
        ],
        &[budget.clone(), ("ACIC_PANIC_CELL", "0:1".into())],
    )?;
    if code != 1 {
        return Err(format!(
            "deterministic-panic run exited {code}, want 1: {}",
            err.trim()
        ));
    }
    if !err.contains("9 of 10 cells completed") {
        return Err(format!(
            "panic run summary missing 9-of-10 evidence:\n{}",
            err.trim()
        ));
    }
    let report = crash_report(&panic_cr)?;
    if !report.contains("attempt 2") || !report.contains("deterministic") {
        return Err(format!(
            "panic crash report lacks retry-to-confirm evidence:\n{report}"
        ));
    }
    lines.push(
        "deterministic panic: retried once to confirm, failed loudly, 9 healthy cells completed"
            .into(),
    );

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn child_args_strips_supervision_flags() {
        let got = child_args(&argv(&[
            "--only",
            "fig7_ipc",
            "--supervise",
            "--crash-reports",
            "cr",
            "--results",
            "rs",
            "--run-cell",
            "k",
            "--run-cell-out",
            "d",
            "--supervise-smoke",
        ]));
        assert_eq!(got, argv(&["--only", "fig7_ipc", "--results", "rs"]));
    }

    #[test]
    fn sanitized_keys_are_filesystem_safe() {
        let s = sanitize_key("spec/a b:c-1.2*x");
        assert!(s
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_'));
        assert_eq!(sanitize_key("abc-1.2"), "abc-1.2");
    }

    #[test]
    fn stderr_tail_keeps_only_the_last_bytes() {
        let big = "x".repeat(3 * STDERR_TAIL_BYTES);
        let tail = stderr_tail(big.as_bytes());
        assert_eq!(tail.len(), STDERR_TAIL_BYTES);
    }
}
