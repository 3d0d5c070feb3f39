//! Process-supervised cell execution: hard isolation, retry with
//! backoff, and crash forensics.
//!
//! The in-process cell pool (`runner::run_cells`) isolates panics
//! with `catch_unwind`, but a wedged cell can only end the run at its
//! deadline, and an `abort()` or OOM kill in any cell tears down the
//! whole campaign. Under `--supervise` the parent instead
//! self-execs **one child process per cell** as `experiments
//! --run-cell` and writes one message to the child's stdin
//! ([`message`]): the cell's canonical encoding ([`crate::cell`]), its
//! `(config, spec)` coordinates (which scripted faults aim at) and the
//! path of its spec's handoff trace. The child ([`run_child`]) decodes
//! the message, loads the trace, runs the cell and prints one
//! CRC-checked journal line on stdout; the parent accepts the line
//! only when it decodes and carries the key the parent expects. The
//! child runs no figure code and opens no result store.
//!
//! The child does not regenerate its workload: the parent freezes
//! each spec it has cells to compute over once, writes it as a
//! `.acictrace` handoff file in its scratch dir
//! (`<crash-dir>/.attempts/<store-key>-<checksum>.acictrace`, atomic
//! write) and drops the trace, keeping only the path. The child
//! decodes it through the one validated container loader
//! (`trace_store::load_container`), which regenerates the trace from
//! the decoded spec with a stderr note when the file is missing, torn,
//! corrupt or at the wrong budget — so a bad handoff costs time, never
//! a result. A handoff file lives exactly as long as the run's trace
//! set: one figure grid, or the whole DSE ladder; dropping the set
//! deletes it. That buys:
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
//!   history, and the child's stdin message, so one command replays
//!   the cell) under `crash-reports/`, referenced from the `GridError`
//!   summary.
//!
//! Child exit codes: `0` — the journal line is on stdout; `2` — the
//! message could not be read or decoded; `4` — the line could not be
//! written; `101` — the cell panicked. `abort()` and signals surface
//! as signal deaths.
//!
//! Supervision is a value, not a process global: `experiments` turns
//! `--supervise` into one [`SuperviseCtx`] and passes it down in the
//! `supervise` slot of its one `Runner` and `DseOptions`. The single
//! cell executor behind both (`runner::execute`) is the only caller of
//! [`run_one`].
//!
//! The in-process path stays the default and the bit-identity
//! reference: a supervised run must produce byte-identical journals
//! and figure output (children report through the same bit-exact
//! journal-line codec, and the parent's whole-file `BTreeMap` rewrite
//! makes journal bytes independent of completion order). Where
//! spawning is unavailable the supervisor degrades to in-process
//! execution with a single warning.

pub mod policy;

use crate::cell::Cell;
use crate::json::Json;
use crate::result_store::{decode_entry, encode_entry, esc, ju, s_arr, s_str, s_u64};
use crate::runner::CellError;
use acic_sim::SimReport;
use policy::{classify, ChildOutcome, Decision, RetryPolicy};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How much child stderr the supervisor retains per attempt for the
/// crash report.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// How much child stdout the supervisor reads: far more than one
/// journal line, even a sampled report with hundreds of windows.
const STDOUT_BYTES: usize = 16 << 20;

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
    /// Where crash reports for failed/retried cells are written.
    pub crash_dir: PathBuf,
    /// Scratch space for the handoff traces children decode.
    work_dir: PathBuf,
    /// The retry/backoff schedule.
    pub policy: RetryPolicy,
}

impl SuperviseCtx {
    /// The supervised parent's context. Fails (so the caller can warn
    /// once and fall back to in-process execution) when the current
    /// executable cannot be resolved or the crash directory cannot be
    /// created.
    pub fn new(crash_dir: &Path) -> Result<SuperviseCtx, String> {
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

/// The one message a supervised parent writes to a `--run-cell`
/// child's stdin: `{"cell":C,"coords":[c,a],"trace":P}` — the cell's
/// canonical encoding, its `(config, spec)` fault coordinates and its
/// handoff-trace path.
pub fn message(cell: &Cell, (c, a): (usize, usize), trace: &Path) -> String {
    format!(
        "{{\"cell\":{},\"coords\":[{},{}],\"trace\":{}}}",
        cell.encode(),
        ju(c as u64),
        ju(a as u64),
        esc(&trace.to_string_lossy())
    )
}

/// Decodes [`message`]'s output.
///
/// # Errors
///
/// Names the first malformed part.
fn decode_message(text: &str) -> Result<(Cell, (usize, usize), PathBuf), String> {
    let doc = Json::parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let cell = Cell::decode(doc.get("cell").ok_or("missing cell")?)?;
    let coords = s_arr(doc.get("coords"), 2, "coords")?;
    let coord = |j: &Json| {
        s_u64(Some(j), "coords")
            .and_then(|v| usize::try_from(v).map_err(|_| "coords: out of range".to_string()))
    };
    let coords = (coord(&coords[0])?, coord(&coords[1])?);
    let trace = PathBuf::from(s_str(doc.get("trace"), "trace")?);
    Ok((cell, coords, trace))
}

/// The `experiments --run-cell` child: reads one [`message`] from
/// stdin, loads the handoff trace (regenerating it from the decoded
/// spec when the file is bad), runs the cell and prints its journal
/// line on stdout. Never returns; exits with the codes in the module
/// docs.
pub fn run_child() -> ! {
    let mut text = String::new();
    let decoded = std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("cannot read stdin: {e}"))
        .and_then(|_| decode_message(&text));
    let (cell, (c, a), trace) = match decoded {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[run-cell: bad message: {e}]");
            std::process::exit(2)
        }
    };
    let report = std::panic::catch_unwind(|| {
        let frozen = crate::trace_store::load_container(&trace, &cell.spec, cell.budget);
        crate::runner::injected_cell_failure(c, a);
        cell.run(&frozen.trace)
    });
    // The panic hook already printed the message to stderr; exit like
    // an uncaught panic so the parent classifies it deterministic.
    let Ok(report) = report else {
        std::process::exit(101)
    };
    let line = encode_entry(&cell.key(), cell.rung(), &report);
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
        eprintln!("[run-cell: cannot write the report: {e}]");
        std::process::exit(4)
    }
    std::process::exit(0)
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

/// The report a child printed, when its stdout holds exactly one
/// intact journal line for `key`.
fn reported(stdout: &str, key: &str) -> Option<SimReport> {
    let mut lines = stdout.lines();
    let line = lines.next()?;
    if lines.next().is_some() {
        return None;
    }
    decode_entry(line)
        .ok()
        .filter(|(k, _)| k == key)
        .map(|(_, entry)| entry.report)
}

/// Runs one cell to completion under process supervision: spawn a
/// `--run-cell` child, hand it `cell`, its `coords` and `trace` (its
/// spec's handoff file) on stdin, enforce the hard timeout, classify
/// any death, and retry per the policy. Returns the child's report on
/// success; writes a crash report and returns
/// [`CellError::ChildFailed`] when the attempt budget is spent.
pub fn run_one(
    ctx: &SuperviseCtx,
    cell: &Cell,
    coords: (usize, usize),
    key: &str,
    label: &str,
    trace: &Path,
    timeout: Option<Duration>,
) -> Result<SimReport, CellError> {
    let message = message(cell, coords, trace);
    let mut history: Vec<AttemptRecord> = Vec::new();
    let mut attempt: u32 = 1;
    loop {
        let (outcome, stdout, stderr_tail) = spawn_and_wait(ctx, &message, attempt - 1, timeout);
        let report = if outcome == ChildOutcome::Exited(0) {
            reported(&stdout, key)
        } else {
            None
        };
        if let Some(report) = report {
            if !history.is_empty() {
                history.push(AttemptRecord {
                    outcome: "succeeded".into(),
                    class: None,
                    backoff: None,
                    stderr_tail: String::new(),
                });
                write_crash_report(ctx, key, label, &message, &history, "recovered");
            }
            return Ok(report);
        }
        // A clean exit that never reported the cell is its own
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
                write_crash_report(
                    ctx,
                    key,
                    label,
                    &message,
                    &history,
                    &format!("failed ({class})"),
                );
                return Err(CellError::ChildFailed {
                    outcome: outcome.to_string(),
                    attempts: attempt,
                });
            }
        }
    }
}

/// Spawns one `--run-cell` child, writes `message` to its stdin and
/// waits for it, SIGKILLing at the hard deadline. Returns the outcome
/// plus what the child printed on stdout and the retained stderr tail.
fn spawn_and_wait(
    ctx: &SuperviseCtx,
    message: &str,
    attempt_idx: u32,
    timeout: Option<Duration>,
) -> (ChildOutcome, String, String) {
    let mut child = match Command::new(&ctx.exe)
        .arg("--run-cell")
        .env("ACIC_SUPERVISE_ATTEMPT", attempt_idx.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            return (
                ChildOutcome::SpawnFailed(e.to_string()),
                String::new(),
                String::new(),
            )
        }
    };
    // A child that dies before reading shows in its exit status; the
    // write error itself adds nothing.
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(message.as_bytes());
    }
    let out = child
        .stdout
        .take()
        .map(|p| std::thread::spawn(move || tail(p, STDOUT_BYTES)));
    let err = child
        .stderr
        .take()
        .map(|p| std::thread::spawn(move || tail(p, STDERR_TAIL_BYTES)));
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
    let joined = |t: Option<std::thread::JoinHandle<String>>| {
        t.and_then(|t| t.join().ok()).unwrap_or_default()
    };
    let (stdout, stderr) = (joined(out), joined(err));
    let outcome = match status {
        None => ChildOutcome::TimedOut(timeout.unwrap_or_default()),
        Some(st) => match st.code() {
            Some(code) => ChildOutcome::Exited(code),
            None => ChildOutcome::Signaled(death_signal(&st)),
        },
    };
    (outcome, stdout, stderr)
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

/// Reads a child's pipe to the end, retaining only the last `cap`
/// bytes so a log-spewing child cannot balloon the parent.
fn tail(mut pipe: impl Read, cap: usize) -> String {
    let mut tail: Vec<u8> = Vec::with_capacity(cap.min(64 * 1024));
    let mut buf = [0u8; 4096];
    loop {
        match pipe.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                tail.extend_from_slice(&buf[..n]);
                if tail.len() > cap {
                    let cut = tail.len() - cap;
                    tail.drain(..cut);
                }
            }
        }
    }
    String::from_utf8_lossy(&tail).into_owned()
}

/// Writes the per-cell crash artifact: identity, the child's stdin
/// message (and the command that replays it), full retry history with
/// per-attempt exit evidence and stderr tails, and the final
/// disposition.
fn write_crash_report(
    ctx: &SuperviseCtx,
    key: &str,
    label: &str,
    message: &str,
    history: &[AttemptRecord],
    disposition: &str,
) {
    let path = ctx.crash_dir.join(format!("{}.txt", sanitize_key(key)));
    let mut out = String::new();
    out.push_str(&format!("cell: {label}\n"));
    out.push_str(&format!("key: {key}\n"));
    out.push_str(&format!("message: {message}\n"));
    out.push_str(&format!(
        "reproduce: sed -n 's/^message: //p' {} | experiments --run-cell\n",
        path.display()
    ));
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
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!(
            "[warning: could not write crash report {}: {e}]",
            path.display()
        );
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

    use crate::cell::Exec;
    use acic_sim::SimConfig;
    use acic_workloads::{AppProfile, WorkloadSpec};

    fn sample_cell() -> Cell {
        Cell {
            spec: WorkloadSpec::Single(AppProfile::web_search()),
            config: SimConfig::default(),
            budget: 2_000,
            exec: Exec::Rung {
                rung: 1,
                prefix: 1_000,
            },
        }
    }

    #[test]
    fn messages_round_trip() {
        let cell = sample_cell();
        let trace = Path::new("/tmp/dir with \"quotes\"/t.acictrace");
        let text = message(&cell, (3, 7), trace);
        let (back, coords, path) = decode_message(&text).unwrap();
        assert_eq!((back, coords, path.as_path()), (cell, (3, 7), trace));
        assert!(decode_message("{\"cell\":{}}").is_err());
    }

    #[test]
    fn only_one_journal_line_with_the_expected_key_is_a_report() {
        let cell = sample_cell();
        let key = cell.key();
        let line = encode_entry(&key, cell.rung(), &SimReport::default());
        assert!(reported(&format!("{line}\n"), &key).is_some());
        assert!(reported(&line, "another-key").is_none(), "wrong key");
        assert!(reported(&format!("{line}\n{line}\n"), &key).is_none());
        assert!(reported("", &key).is_none());
        let torn = &line[..line.len() - 10];
        assert!(reported(torn, &key).is_none(), "torn line");
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
    fn tail_keeps_only_the_last_bytes() {
        let big = format!("{}y", "x".repeat(3 * STDERR_TAIL_BYTES));
        let kept = tail(big.as_bytes(), STDERR_TAIL_BYTES);
        assert_eq!(kept.len(), STDERR_TAIL_BYTES);
        assert!(kept.ends_with('y'));
    }
}
