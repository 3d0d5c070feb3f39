//! The pure retry policy of the process supervisor.
//!
//! Everything here is a function of its arguments — no sleeping, no
//! clock reads, no environment access — so the policy is unit-tested
//! (and property-tested in `tests/retry_policy.rs`) without spawning
//! a single worker. The supervisor proper (`super::supervise_cell`)
//! only *executes* the decisions made here.
//!
//! **Classification.** A failed attempt is classified by the evidence
//! its worker's exit leaves behind ([`classify`]):
//!
//! * *Transient* — the failure is plausibly environmental and worth
//!   retrying up to a cap: the supervisor's own hard-timeout kill, an
//!   external signal death (the OOM killer sends SIGKILL), or a
//!   failed spawn (fork pressure).
//! * *Deterministic* — the program itself failed: a non-zero exit
//!   status (a Rust panic exits 101), a SIGABRT (`abort()` is
//!   program-initiated, not environmental), or a clean exit that never
//!   reported its cell (a protocol violation). Deterministic
//!   failures are retried **once** to confirm — a panic that
//!   reproduces is real; one that doesn't was transient after all.
//!
//! **Budgets and delay.** Both are fixed, with no knob: a transient
//! failure gets [`TRANSIENT_ATTEMPTS`] attempts in all, a
//! deterministic one [`DETERMINISTIC_ATTEMPTS`], and every retry
//! waits [`RETRY_DELAY`]. At most one worker per pool slot retries on
//! one host, so there is no crowd of clients for backoff or jitter to
//! spread out.

use std::time::Duration;

/// `SIGABRT` — the signal `abort()` raises; program-initiated, hence
/// classified deterministic unlike other signal deaths.
pub const SIGABRT: i32 = 6;

/// How a supervised cell attempt ended, as observed by the parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChildOutcome {
    /// Exited with this status (`0` with a reported cell is success
    /// and never reaches the policy).
    Exited(i32),
    /// Killed by this signal (not by the supervisor).
    Signaled(i32),
    /// Exceeded the hard timeout; the supervisor SIGKILLed it.
    TimedOut(Duration),
    /// The worker process could not be spawned.
    SpawnFailed(String),
    /// Exited `0` without printing the one journal line for its cell
    /// on stdout, or answered with another line (and was killed) — a
    /// protocol violation.
    NoReport,
}

impl std::fmt::Display for ChildOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChildOutcome::Exited(code) => write!(f, "exited with status {code}"),
            ChildOutcome::Signaled(sig) if *sig == SIGABRT => {
                write!(f, "killed by signal {sig} (SIGABRT)")
            }
            ChildOutcome::Signaled(sig) => write!(f, "killed by signal {sig}"),
            ChildOutcome::TimedOut(limit) => {
                write!(f, "hard timeout after {}s (SIGKILLed)", limit.as_secs())
            }
            ChildOutcome::SpawnFailed(e) => write!(f, "spawn failed: {e}"),
            ChildOutcome::NoReport => write!(f, "did not report its cell"),
        }
    }
}

/// Whether a failure is worth the full retry budget or only the
/// single confirmation retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Plausibly environmental; [`TRANSIENT_ATTEMPTS`] attempts in
    /// all.
    Transient,
    /// The program itself failed; retried once to confirm
    /// ([`DETERMINISTIC_ATTEMPTS`]).
    Deterministic,
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureClass::Transient => write!(f, "transient"),
            FailureClass::Deterministic => write!(f, "deterministic"),
        }
    }
}

/// Classifies a failed attempt by its exit evidence (see the module
/// docs for the rationale per arm).
pub fn classify(outcome: &ChildOutcome) -> FailureClass {
    match outcome {
        ChildOutcome::TimedOut(_) | ChildOutcome::SpawnFailed(_) => FailureClass::Transient,
        ChildOutcome::Signaled(sig) if *sig == SIGABRT => FailureClass::Deterministic,
        ChildOutcome::Signaled(_) => FailureClass::Transient,
        ChildOutcome::Exited(_) | ChildOutcome::NoReport => FailureClass::Deterministic,
    }
}

/// What the supervisor should do after a failed attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Sleep this long, then run the next attempt.
    Retry(Duration),
    /// The attempt budget for this failure class is spent.
    GiveUp(FailureClass),
}

/// Total attempts for a transient failure: the first and two retries.
pub const TRANSIENT_ATTEMPTS: u32 = 3;

/// Total attempts for a deterministic failure: the first and one
/// retry to confirm it.
pub const DETERMINISTIC_ATTEMPTS: u32 = 2;

/// The pause before every retry.
pub const RETRY_DELAY: Duration = Duration::from_millis(200);

/// The verdict after attempt `attempts_made` (≥ 1) failed with
/// `outcome`: retry after [`RETRY_DELAY`] while the class's attempt
/// budget lasts, give up after.
pub fn decide(outcome: &ChildOutcome, attempts_made: u32) -> Decision {
    let class = classify(outcome);
    let budget = match class {
        FailureClass::Transient => TRANSIENT_ATTEMPTS,
        FailureClass::Deterministic => DETERMINISTIC_ATTEMPTS,
    };
    if attempts_made < budget {
        Decision::Retry(RETRY_DELAY)
    } else {
        Decision::GiveUp(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        use ChildOutcome::*;
        use FailureClass::*;
        let cases: Vec<(ChildOutcome, FailureClass)> = vec![
            (Exited(101), Deterministic), // rust panic
            (Exited(1), Deterministic),
            (Signaled(SIGABRT), Deterministic), // abort()
            (Signaled(9), Transient),           // OOM killer
            (Signaled(15), Transient),
            (TimedOut(Duration::from_secs(2)), Transient),
            (SpawnFailed("fork: EAGAIN".into()), Transient),
            (NoReport, Deterministic),
        ];
        for (outcome, want) in cases {
            assert_eq!(classify(&outcome), want, "{outcome}");
        }
    }

    #[test]
    fn deterministic_failures_retry_once_to_confirm() {
        let panic = ChildOutcome::Exited(101);
        assert_eq!(decide(&panic, 1), Decision::Retry(RETRY_DELAY));
        assert_eq!(
            decide(&panic, 2),
            Decision::GiveUp(FailureClass::Deterministic)
        );
    }

    #[test]
    fn transient_failures_use_the_full_budget() {
        let killed = ChildOutcome::Signaled(9);
        assert_eq!(decide(&killed, 1), Decision::Retry(RETRY_DELAY));
        assert_eq!(decide(&killed, 2), Decision::Retry(RETRY_DELAY));
        assert_eq!(
            decide(&killed, 3),
            Decision::GiveUp(FailureClass::Transient)
        );
    }
}
