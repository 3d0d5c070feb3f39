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
//! exits.
//!
//! The child does not regenerate its workload: the parent freezes
//! each spec it has cells to compute over once, writes it as a
//! `.acictrace` handoff file in its scratch dir
//! (`<crash-dir>/.attempts/<store-key>-<checksum>.acictrace`, atomic
//! write) and drops the trace, keeping only the path, which every
//! child of that spec gets as the hidden `--run-cell-trace <path>`.
//! The child decodes it through the one validated container loader
//! (`trace_store::load_container`), which regenerates the trace with
//! a stderr note when the file is missing, torn, corrupt or at the
//! wrong budget — so a bad handoff costs time, never a result. A
//! handoff file lives exactly as long as the run's trace set: one
//! figure grid, or the whole DSE ladder; dropping the set deletes it.
//! That buys:
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
//! A child replays the parent's argv, so it runs the selection's
//! figure code up to its own cell, but replays every earlier grid or
//! rung from the parent's `--results` journal (without `--results`,
//! `experiments` gives the parent a private one for the run).
//!
//! Supervision is a value, not a process global: `experiments` turns
//! `--supervise` into [`Role::Parent`] and `--run-cell` into
//! [`Role::Child`], and passes it down in the `supervise` slot of its
//! one `Runner` and `DseOptions`. The single cell executor behind
//! both (`runner::execute`) is the only caller of [`run_one`] and
//! [`run_child_cell`].
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
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much child stderr the supervisor retains per attempt for the
/// crash report.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// How often the parent polls a running child between hard-deadline
/// checks: short next to a child's life (a 1M-instruction cell lives
/// about 0.2 s), so a finished child is reaped within a millisecond.
const CHILD_POLL: Duration = Duration::from_millis(1);

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
    /// Scratch space for per-attempt child journals and the handoff
    /// traces children decode.
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
    /// The parent's handoff trace for the cell's spec
    /// (`--run-cell-trace`): decoded instead of regenerated, and
    /// regenerated anyway when missing or invalid.
    pub trace: Option<PathBuf>,
}

/// This process's part in process supervision: the value the
/// `experiments` binary builds once from its flags and hands to every
/// [`crate::Runner`] and [`crate::dse::DseOptions`] it creates (their
/// `supervise` slot; `None` runs cells in-process).
#[derive(Debug, Clone)]
pub enum Role {
    /// `--supervise`: every to-be-computed cell runs in its own
    /// `--run-cell` child ([`run_one`]).
    Parent(Arc<SuperviseCtx>),
    /// `--run-cell`: this process runs exactly the target cell and
    /// exits ([`run_child_cell`]); it never supervises.
    Child(ChildTarget),
}

impl SuperviseCtx {
    /// The supervised parent's context. Fails (so the caller can warn
    /// once and fall back to in-process execution) when the current
    /// executable cannot be resolved or the crash directory cannot be
    /// created.
    pub fn new(crash_dir: &Path, argv: &[String]) -> Result<SuperviseCtx, String> {
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
        Ok(SuperviseCtx {
            exe,
            args: child_args(argv),
            crash_dir: crash_dir.to_path_buf(),
            work_dir,
            policy: RetryPolicy::from_env(),
        })
    }

    /// Writes `trace`, frozen from `spec` at `budget`, as the handoff
    /// file its cells' children decode, and returns the path. The
    /// name joins `spec.store_key(budget)` and the container checksum,
    /// so it identifies the content; the write is atomic, so a child
    /// never sees a torn file.
    pub(crate) fn write_handoff(
        &self,
        spec: &acic_workloads::WorkloadSpec,
        budget: u64,
        trace: &acic_trace::PackedTrace,
    ) -> Result<PathBuf, String> {
        let bytes = trace.to_bytes();
        let sum = acic_trace::PackedTrace::container_checksum(&bytes)
            .expect("a serialized container holds its checksum");
        let path = self
            .work_dir
            .join(format!("{}-{sum:016x}.acictrace", spec.store_key(budget)));
        crate::fault::write_atomic(&path, &bytes)
            .map_err(|e| format!("cannot write handoff trace {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Strips supervision flags from an argv so the child does not
/// recurse into spawning grandchildren. Pure for testability.
pub fn child_args(argv: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--supervise" => {}
            "--crash-reports" | "--run-cell" | "--run-cell-out" | "--run-cell-trace" => {
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
/// `--run-cell` child (handing it `trace`, the cell's handoff file,
/// as `--run-cell-trace`), enforce the hard timeout, classify any
/// death, and retry per the policy. Returns the child's journaled
/// report on success; writes a crash report and returns
/// [`CellError::ChildFailed`] when the attempt budget is spent.
pub fn run_one(
    ctx: &SuperviseCtx,
    key: &str,
    label: &str,
    trace: Option<&Path>,
    timeout: Option<Duration>,
) -> Result<SimReport, CellError> {
    let mut history: Vec<AttemptRecord> = Vec::new();
    let mut attempt: u32 = 1;
    loop {
        let out_dir = ctx
            .work_dir
            .join(format!("{}-a{attempt}", sanitize_key(key)));
        let _ = std::fs::remove_dir_all(&out_dir);
        let (outcome, stderr_tail) =
            spawn_and_wait(ctx, key, &out_dir, trace, attempt - 1, timeout);
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
    trace: Option<&Path>,
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
        .arg(out_dir);
    if let Some(path) = trace {
        cmd.arg("--run-cell-trace").arg(path);
    }
    cmd.env("ACIC_SUPERVISE_ATTEMPT", attempt_idx.to_string())
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
            "--run-cell-trace",
            "t.acictrace",
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
