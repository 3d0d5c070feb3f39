//! Process-supervised cell execution: hard isolation, fixed-budget
//! retries, and crash forensics.
//!
//! The in-process cell pool (`runner::run_cells`) isolates panics
//! with `catch_unwind`, but a wedged cell can only end the run at its
//! deadline, and an `abort()` or OOM kill in any cell tears down the
//! whole campaign. Under `--supervise` the parent instead runs its
//! cells in **one long-lived worker process per pool slot** of that
//! same pool (`runner::Batch::threads` slots), each a self-exec of
//! `experiments --run-cell` driven by `supervise_cell`.
//!
//! **Worker protocol.** The parent writes one [`message`] per line to
//! a worker's stdin: `{"cell":C,"fault":F}`, the cell's canonical
//! encoding ([`crate::cell`]) and the [`CellFault`] the parent
//! scripted for this attempt (`null` in a healthy run). The worker
//! ([`run_worker`]) reads messages until EOF. For each one it freezes
//! the cell's spec in memory (`trace_store::freeze`) unless it already
//! holds that trace, fires the fault if any, runs the cell, and
//! answers with one CRC-checked journal line on stdout. The parent
//! accepts a line only when it decodes and carries the key the parent
//! expects. A worker reads no environment, runs no figure code, opens
//! no result store and writes no file; neither does the parent write
//! anything but the journal and crash reports. A one-message stdin —
//! what a crash report's `reproduce:` line pipes in — runs that one
//! cell and exits.
//!
//! **Spec affinity.** A worker keeps the last trace it froze, and the
//! pool (`runner::run_cells`, the one both tiers share) hands each
//! slot, in order of preference, the next unstarted cell of the spec
//! it last ran, else the first cell of a spec no slot holds, else any
//! unstarted cell (`runner::pick`). A C-config × A-spec grid on two
//! slots therefore costs about A freezes and two spawns; a worker
//! respawned after a failure freezes whichever spec its slot picks
//! next. Workers live for one batch (one figure grid, or one DSE
//! rung) and are shut down by closing their stdin.
//!
//! **What a failure costs.** Supervision stays per cell attempt. The
//! parent waits for each reply under that cell's hard deadline,
//! counted from when the message was sent. A worker death, a deadline
//! kill or a bad reply charges only the in-flight cell's attempt; the
//! worker is killed (losing its trace), and the slot respawns it for
//! the retry and its later cells. That buys:
//!
//! * **Hard timeouts** — a stalled worker is SIGKILLed at the
//!   `ACIC_CELL_TIMEOUT_SECS` deadline; nothing leaks.
//! * **Blast-radius one** — `abort()`, OOM, or any signal death kills
//!   one attempt of one cell, never the campaign.
//! * **Retries with taxonomy** — the pure [`policy`] module classifies
//!   each failed attempt transient vs deterministic from its exit
//!   evidence and decides whether to retry: fixed budgets (three
//!   attempts for transient failures, two for deterministic ones), a
//!   fixed 200 ms delay before each retry, and no knobs.
//! * **Forensics** — every retried or failed cell leaves a crash
//!   report (exit status / signal, the stderr tail of each attempt,
//!   full retry history, and the first attempt's message, so one
//!   command replays the failure) under `crash-reports/`, referenced
//!   from the `GridError` summary. A worker prints a cell-start marker on
//!   stderr before each cell, and a report keeps only what followed
//!   the failing cell's marker.
//!
//! Worker exit codes: `0` — stdin closed after every message was
//! answered; `2` — a message could not be read or decoded, or stdin
//! held none; `4` — a line could not be written; `101` — a cell
//! panicked. `abort()` and signals surface as signal deaths.
//!
//! Supervision is a value, not a process global: `experiments` turns
//! `--supervise` into one [`SuperviseCtx`] and passes it down in the
//! `supervise` slot of its one `Runner` and `DseOptions`. The single
//! cell executor behind both (`runner::execute`) is the only caller of
//! `supervise_cell`.
//!
//! The in-process path stays the default and the bit-identity
//! reference: a supervised run must produce byte-identical journals
//! and figure output (workers report through the same bit-exact
//! journal-line codec, a worker's trace is the same deterministic
//! freeze, and the parent's whole-file `BTreeMap` rewrite makes
//! journal bytes independent of completion order).

pub mod policy;

use crate::cell::{canon_struct, Canon, Cell};
use crate::fault::CellFault;
use crate::json::Json;
use crate::result_store::{decode_entry, encode_entry};
use crate::runner::CellError;
use acic_sim::SimReport;
use policy::{classify, decide, ChildOutcome, Decision};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How much worker stderr the supervisor retains for a crash report.
const STDERR_TAIL_BYTES: usize = 8 * 1024;

/// The longest reply line the supervisor reads: far more than one
/// journal line, even a sampled report with hundreds of windows.
const STDOUT_BYTES: u64 = 16 << 20;

/// How often the parent polls a worker whose stdout closed, between
/// hard-deadline checks: a dying worker is reaped within a
/// millisecond.
const CHILD_POLL: Duration = Duration::from_millis(1);

/// The line a worker prints on stderr before each cell, followed by
/// the cell's key and `]`. A crash report's stderr tail starts after
/// the last one.
const CELL_START: &str = "[run-cell: running ";

/// The supervised parent's execution context: how to re-exec
/// ourselves as a worker and where crash artifacts go.
#[derive(Debug)]
pub struct SuperviseCtx {
    /// The `experiments` binary to self-exec.
    exe: PathBuf,
    /// Where crash reports for failed/retried cells are written.
    pub crash_dir: PathBuf,
}

impl SuperviseCtx {
    /// The supervised parent's context. Fails, naming the cause, when
    /// the current executable cannot be resolved or the crash directory
    /// cannot be created.
    pub fn new(crash_dir: &Path) -> Result<SuperviseCtx, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve the current executable for self-exec: {e}"))?;
        std::fs::create_dir_all(crash_dir).map_err(|e| {
            format!(
                "cannot create crash-report dir {}: {e}",
                crash_dir.display()
            )
        })?;
        Ok(SuperviseCtx {
            exe,
            crash_dir: crash_dir.to_path_buf(),
        })
    }
}

/// One message on a `--run-cell` worker's stdin: the cell and the
/// scripted fault it meets, if any.
#[derive(Debug, PartialEq)]
struct Message {
    cell: Cell,
    fault: Option<CellFault>,
}

canon_struct!(Message { cell, fault });

/// One line of a supervised parent's input to a `--run-cell` worker:
/// `{"cell":C,"fault":F}` — the cell's canonical encoding
/// ([`crate::cell`]) and the scripted fault the worker fires before
/// running it (`null` for none).
pub fn message(cell: &Cell, fault: Option<CellFault>) -> String {
    Message {
        cell: cell.clone(),
        fault,
    }
    .enc()
}

/// Decodes [`message`]'s output.
///
/// # Errors
///
/// Names the first malformed part.
fn decode_message(text: &str) -> Result<Message, String> {
    let doc = Json::parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    Message::dec(Some(&doc), "message")
}

/// The `experiments --run-cell` worker: answers each [`message`] line
/// on stdin with the cell's journal line on stdout, freezing a cell's
/// spec only when the trace it holds is another spec's. Never
/// returns; exits with the codes in the module docs.
pub fn run_worker() -> ! {
    let mut held: Option<(Cell, std::sync::Arc<acic_trace::PackedTrace>)> = None;
    let mut answered = 0u64;
    for line in std::io::stdin().lock().lines() {
        let decoded = line
            .map_err(|e| format!("cannot read stdin: {e}"))
            .and_then(|text| decode_message(&text));
        let Message { cell, fault } = match decoded {
            Ok(m) => m,
            Err(e) => {
                eprintln!("[run-cell: bad message: {e}]");
                std::process::exit(2)
            }
        };
        let key = cell.key();
        eprintln!("{CELL_START}{key}]");
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if held
                .as_ref()
                .is_none_or(|(h, _)| h.spec != cell.spec || h.budget != cell.budget)
            {
                // Drop the old trace before freezing the next one.
                held = None;
                let Ok(trace) = crate::trace_store::freeze(&cell.spec, cell.budget);
                held = Some((cell.clone(), trace));
            }
            if let Some(f) = fault {
                f.fire(&key);
            }
            cell.run(&held.as_ref().expect("trace frozen above").1)
        }));
        // The panic hook already printed the message to stderr; exit like
        // an uncaught panic so the parent classifies it deterministic.
        let Ok(report) = report else {
            std::process::exit(101)
        };
        let line = encode_entry(&key, cell.rung(), &report);
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            eprintln!("[run-cell: cannot write the report: {e}]");
            std::process::exit(4)
        }
        answered += 1;
    }
    if answered == 0 {
        eprintln!("[run-cell: bad message: stdin held none]");
        std::process::exit(2)
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
    delay: Option<Duration>,
    stderr_tail: String,
}

/// The report in a worker's reply line, when it is one intact journal
/// line for `key`.
fn reported(line: &str, key: &str) -> Option<SimReport> {
    decode_entry(line.strip_suffix('\n')?)
        .ok()
        .filter(|(k, _)| k == key)
        .map(|(_, entry)| entry.report)
}

/// Runs one cell to completion under supervision, with journal key
/// `key` and display `label`: every attempt on the slot's `worker`
/// (spawned when the slot has none; a failed attempt kills it), under
/// the hard timeout and the retry policy, with the fault `fault` gives
/// for that attempt in its message. Returns the report on success;
/// writes a crash report, which keeps the first (failed) attempt's
/// message, and returns [`CellError::ChildFailed`] when the attempt
/// budget is spent.
pub(crate) fn supervise_cell(
    ctx: &SuperviseCtx,
    worker: &mut Option<Worker>,
    cell: &Cell,
    fault: &dyn Fn(u32) -> Option<CellFault>,
    key: &str,
    label: &str,
    timeout: Option<Duration>,
) -> Result<SimReport, CellError> {
    let mut history: Vec<AttemptRecord> = Vec::new();
    let mut attempt: u32 = 1;
    loop {
        let answer = match worker {
            Some(w) => Ok(w),
            None => Worker::spawn(ctx).map(|w| worker.insert(w)),
        }
        .and_then(|w| w.ask(&message(cell, fault(attempt)), key, timeout));
        let outcome = match answer {
            Ok(report) => {
                if !history.is_empty() {
                    history.push(AttemptRecord {
                        outcome: "succeeded".into(),
                        class: None,
                        delay: None,
                        stderr_tail: String::new(),
                    });
                    let first = message(cell, fault(1));
                    write_crash_report(ctx, key, label, &first, &history, "recovered");
                }
                return Ok(report);
            }
            Err(outcome) => outcome,
        };
        let stderr_tail = worker.take().map(Worker::stderr_tail).unwrap_or_default();
        let decision = decide(&outcome, attempt);
        let delay = match &decision {
            Decision::Retry(d) => Some(*d),
            Decision::GiveUp(_) => None,
        };
        history.push(AttemptRecord {
            outcome: outcome.to_string(),
            class: Some(classify(&outcome).to_string()),
            delay,
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
                    &message(cell, fault(1)),
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

/// One running `--run-cell` worker, with a thread per output pipe:
/// one forwards each stdout line as a reply, one keeps the stderr
/// tail. Dropping it closes its stdin and waits for it to exit.
pub(crate) struct Worker {
    child: Child,
    replies: Receiver<String>,
    stderr: Option<JoinHandle<String>>,
}

impl Worker {
    /// Spawns a worker.
    fn spawn(ctx: &SuperviseCtx) -> Result<Worker, ChildOutcome> {
        let mut child = Command::new(&ctx.exe)
            .arg("--run-cell")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| ChildOutcome::SpawnFailed(e.to_string()))?;
        let (tx, replies) = mpsc::channel();
        if let Some(stdout) = child.stdout.take() {
            std::thread::spawn(move || {
                let mut stdout = BufReader::new(stdout);
                loop {
                    let mut line = Vec::new();
                    match (&mut stdout)
                        .take(STDOUT_BYTES)
                        .read_until(b'\n', &mut line)
                    {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            let line = String::from_utf8_lossy(&line).into_owned();
                            if tx.send(line).is_err() {
                                break;
                            }
                        }
                    }
                }
            });
        }
        let stderr = child
            .stderr
            .take()
            .map(|p| std::thread::spawn(move || tail(p, STDERR_TAIL_BYTES)));
        Ok(Worker {
            child,
            replies,
            stderr,
        })
    }

    /// Sends `message` and waits for the reply until `timeout` after
    /// sending. Returns the report when the reply is the journal line
    /// for `key`; otherwise kills the worker and returns how the
    /// attempt failed.
    fn ask(
        &mut self,
        message: &str,
        key: &str,
        timeout: Option<Duration>,
    ) -> Result<SimReport, ChildOutcome> {
        let deadline = timeout.map(|t| Instant::now() + t);
        // A worker that died before reading shows in its exit status;
        // the write error itself adds nothing.
        if let Some(stdin) = &mut self.child.stdin {
            let _ = stdin.write_all(format!("{message}\n").as_bytes());
        }
        let reply = match deadline {
            Some(d) => self
                .replies
                .recv_timeout(d.saturating_duration_since(Instant::now())),
            None => self
                .replies
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
        };
        let timed_out = ChildOutcome::TimedOut(timeout.unwrap_or_default());
        let outcome = match reply {
            Ok(line) => match reported(&line, key) {
                Some(report) => return Ok(report),
                None => ChildOutcome::NoReport,
            },
            Err(RecvTimeoutError::Timeout) => timed_out,
            // Stdout closed: the worker is exiting; its status is the
            // evidence.
            Err(RecvTimeoutError::Disconnected) => match self.reap(deadline) {
                None => timed_out,
                Some(st) => match st.code() {
                    Some(0) => ChildOutcome::NoReport,
                    Some(code) => ChildOutcome::Exited(code),
                    None => ChildOutcome::Signaled(death_signal(&st)),
                },
            },
        };
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err(outcome)
    }

    /// Waits for the worker to exit, up to `deadline`.
    fn reap(&mut self, deadline: Option<Instant>) -> Option<ExitStatus> {
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) => return Some(st),
                Ok(None) if deadline.is_some_and(|d| Instant::now() >= d) => return None,
                Ok(None) => std::thread::sleep(CHILD_POLL),
                Err(_) => return self.child.wait().ok(),
            }
        }
    }

    /// What a dead worker wrote on stderr since its last cell-start
    /// marker: the failing attempt's output alone.
    fn stderr_tail(mut self) -> String {
        let tail = self
            .stderr
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default();
        last_cell_output(&tail).to_string()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// The part of a worker's stderr `tail` after its last cell-start
/// marker line; all of it when the marker fell out of the tail.
fn last_cell_output(tail: &str) -> &str {
    match tail.rfind(CELL_START) {
        Some(at) => tail[at..].split_once('\n').map_or("", |(_, rest)| rest),
        None => tail,
    }
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

/// Writes the per-cell crash artifact: identity, the first failed
/// attempt's message (and the command that replays it), full retry
/// history with
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
        match (&rec.class, rec.delay) {
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
/// status) — the scripted [`CellFault::Kill`], standing in for the
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
        let stall = CellFault::Stall(30_000);
        let faults = [
            None,
            Some(CellFault::Panic),
            Some(CellFault::Abort),
            Some(stall),
            Some(CellFault::Kill),
        ];
        for fault in faults {
            let text = message(&cell, fault);
            assert!(!text.contains('\n'), "one message is one line");
            let back = decode_message(&text).unwrap();
            let want = Message {
                cell: cell.clone(),
                fault,
            };
            assert_eq!(back, want);
        }
        assert!(message(&cell, None).ends_with(",\"fault\":null}"));
        assert!(message(&cell, Some(stall)).ends_with(",\"fault\":{\"stall\":\"30000\"}}"));
        assert!(decode_message("{\"cell\":{}}").is_err());
        let no_fault = message(&cell, None).replace(",\"fault\":null", "");
        assert!(
            decode_message(&no_fault).is_err(),
            "the fault member is required"
        );
        let bad = message(&cell, None).replace("null", "\"boom\"");
        assert!(
            decode_message(&bad).is_err(),
            "an unknown fault is an error"
        );
    }

    #[test]
    fn only_one_whole_journal_line_with_the_expected_key_is_a_report() {
        let cell = sample_cell();
        let key = cell.key();
        let line = encode_entry(&key, cell.rung(), &SimReport::default());
        assert!(reported(&format!("{line}\n"), &key).is_some());
        assert!(reported(&format!("{line}\n"), "another-key").is_none());
        assert!(reported(&line, &key).is_none(), "cut before its newline");
        assert!(reported("\n", &key).is_none());
        let torn = &line[..line.len() - 10];
        assert!(reported(&format!("{torn}\n"), &key).is_none(), "torn line");
    }

    #[test]
    fn a_stderr_tail_keeps_only_the_last_cell_output() {
        let tail =
            format!("{CELL_START}k1]\nnoise of the first cell\n{CELL_START}k2]\n[panic] boom\n");
        assert_eq!(last_cell_output(&tail), "[panic] boom\n");
        assert_eq!(last_cell_output(&format!("{CELL_START}k1]\n")), "");
        assert_eq!(
            last_cell_output("the marker fell out of the tail\n"),
            "the marker fell out of the tail\n"
        );
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
