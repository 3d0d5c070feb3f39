//! The pure, clock-injected retry policy of the process supervisor.
//!
//! Everything here is a function of its arguments — no sleeping, no
//! clock reads, no environment access — so the policy is fully
//! unit-testable (and property-tested in `tests/retry_policy.rs`)
//! without spawning a single worker. The supervisor proper
//! (`super::supervise_cell`) only *executes* the decisions made here.
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
//! **Backoff.** Delays grow as a capped exponential with
//! deterministic seeded jitter: attempt `n`'s delay is
//! `min(base · 2^(n-1) · (1 + j/1000), cap)` with `j ∈ [0, 250)`
//! derived from `(seed, cell key, n)` via SplitMix64. The jitter
//! fraction is strictly below 25% while the raw delay doubles, so the
//! sequence is monotone non-decreasing for every key and seed (the
//! property suite proves it over random inputs), and equal seeds
//! replay equal schedules — a failing supervision run reproduces
//! exactly.

use acic_types::hash::{fnv1a, mix64, FNV_OFFSET};
use std::sync::Once;
use std::time::Duration;

static RETRIES_WARNING: Once = Once::new();
static BACKOFF_WARNING: Once = Once::new();

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
    /// Plausibly environmental; retried up to
    /// [`RetryPolicy::transient_attempts`].
    Transient,
    /// The program itself failed; retried once to confirm
    /// ([`RetryPolicy::deterministic_attempts`]).
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

/// The supervisor's retry schedule — pure data, no clocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed for transient failures (≥ 1).
    pub transient_attempts: u32,
    /// Total attempts for deterministic failures: 2 = "retry once to
    /// confirm".
    pub deterministic_attempts: u32,
    /// First retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub cap: Duration,
    /// Jitter seed; equal seeds replay equal schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            transient_attempts: 3,
            deterministic_attempts: 2,
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
            seed: 0xac1c_5003,
        }
    }
}

/// Resolves a policy from `ACIC_SUPERVISE_RETRIES` /
/// `ACIC_SUPERVISE_BACKOFF_MS`-style overrides (transient attempt
/// budget, base delay). Garbage and zero fall back to the defaults.
/// Also returns each ignored override as `(variable, value)`. Pure
/// for testability.
pub fn retry_policy_from<'a>(
    retries: Option<&'a str>,
    backoff_ms: Option<&'a str>,
) -> (RetryPolicy, Vec<(&'static str, &'a str)>) {
    let mut p = RetryPolicy::default();
    let mut ignored = Vec::new();
    if let Some(raw) = retries {
        match raw.parse::<u32>().ok().filter(|&n| n >= 1) {
            Some(n) => p.transient_attempts = n,
            None => ignored.push(("ACIC_SUPERVISE_RETRIES", raw)),
        }
    }
    if let Some(raw) = backoff_ms {
        match raw.parse::<u64>() {
            Ok(ms) => p.base = Duration::from_millis(ms),
            Err(_) => ignored.push(("ACIC_SUPERVISE_BACKOFF_MS", raw)),
        }
    }
    (p, ignored)
}

impl RetryPolicy {
    /// The policy the process environment asks for. An override that
    /// parses to nothing usable warns once on stderr and is ignored.
    pub fn from_env() -> RetryPolicy {
        let retries = std::env::var("ACIC_SUPERVISE_RETRIES").ok();
        let backoff = std::env::var("ACIC_SUPERVISE_BACKOFF_MS").ok();
        let (policy, ignored) = retry_policy_from(retries.as_deref(), backoff.as_deref());
        for (var, raw) in ignored {
            let once = match var {
                "ACIC_SUPERVISE_RETRIES" => &RETRIES_WARNING,
                _ => &BACKOFF_WARNING,
            };
            crate::runner::warn_ignored(once, var, raw);
        }
        policy
    }

    /// Total attempts permitted for a failure class.
    pub fn attempt_cap(&self, class: FailureClass) -> u32 {
        match class {
            FailureClass::Transient => self.transient_attempts.max(1),
            FailureClass::Deterministic => self.deterministic_attempts.max(1),
        }
    }

    /// The delay before attempt `attempts_made + 1` of `key`
    /// (`attempts_made ≥ 1`): capped exponential with deterministic
    /// seeded jitter, monotone non-decreasing in `attempts_made`.
    pub fn backoff(&self, key: &str, attempts_made: u32) -> Duration {
        let exp = attempts_made.saturating_sub(1).min(20);
        let raw = self.base.as_nanos() << exp;
        let h = mix64(
            self.seed
                ^ fnv1a(FNV_OFFSET, key.as_bytes())
                ^ u64::from(attempts_made).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Jitter in [0, 25%): strictly under the doubling step, which
        // is what makes the schedule monotone.
        let jitter_milli = u128::from(h % 250);
        let delayed = raw + raw * jitter_milli / 1000;
        Duration::from_nanos(delayed.min(self.cap.as_nanos()).min(u128::from(u64::MAX)) as u64)
    }

    /// The verdict after attempt `attempts_made` of `key` failed with
    /// `outcome`: retry (with the backoff delay) while the class's
    /// attempt budget lasts, give up after.
    pub fn decide(&self, key: &str, outcome: &ChildOutcome, attempts_made: u32) -> Decision {
        let class = classify(outcome);
        if attempts_made < self.attempt_cap(class) {
            Decision::Retry(self.backoff(key, attempts_made))
        } else {
            Decision::GiveUp(class)
        }
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
        let p = RetryPolicy::default();
        let panic = ChildOutcome::Exited(101);
        assert!(matches!(p.decide("k", &panic, 1), Decision::Retry(_)));
        assert_eq!(
            p.decide("k", &panic, 2),
            Decision::GiveUp(FailureClass::Deterministic)
        );
    }

    #[test]
    fn transient_failures_use_the_full_budget() {
        let p = RetryPolicy::default();
        let killed = ChildOutcome::Signaled(9);
        assert!(matches!(p.decide("k", &killed, 1), Decision::Retry(_)));
        assert!(matches!(p.decide("k", &killed, 2), Decision::Retry(_)));
        assert_eq!(
            p.decide("k", &killed, 3),
            Decision::GiveUp(FailureClass::Transient)
        );
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff("cell", 1), p.backoff("cell", 1), "replayable");
        // Far attempts pin at the cap exactly.
        assert_eq!(p.backoff("cell", 30), p.cap);
        // The first delay is at least base and under base + 25%.
        let d = p.backoff("cell", 1);
        assert!(d >= p.base && d < p.base + p.base / 4 + Duration::from_nanos(1));
    }

    #[test]
    fn env_overrides_parse_with_fallbacks() {
        let (p, ignored) = retry_policy_from(Some("5"), Some("50"));
        assert_eq!(p.transient_attempts, 5);
        assert_eq!(p.base, Duration::from_millis(50));
        assert!(ignored.is_empty(), "{ignored:?}");
        assert_eq!(
            retry_policy_from(None, None),
            (RetryPolicy::default(), vec![])
        );
        let (d, ignored) = retry_policy_from(Some("0"), Some("soon"));
        assert_eq!(d, RetryPolicy::default(), "zero and garbage rejected");
        assert_eq!(
            ignored,
            [
                ("ACIC_SUPERVISE_RETRIES", "0"),
                ("ACIC_SUPERVISE_BACKOFF_MS", "soon")
            ],
            "each rejected override is named for the warning"
        );
    }
}
