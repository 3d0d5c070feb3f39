//! Property suite for the supervisor's pure retry policy
//! ([`acic_bench::supervise::policy`]).
//!
//! The policy is a function of its arguments — no clocks, no sleeps,
//! no environment — so every property here runs without spawning a
//! child or waiting a millisecond. Pinned invariants: the
//! transient/deterministic classification drives the attempt budget
//! exactly as documented (three attempts for transient failures, one
//! confirmation retry for deterministic ones), and every retry waits
//! the one fixed delay.

use acic_bench::supervise::policy::{
    classify, decide, ChildOutcome, Decision, FailureClass, DETERMINISTIC_ATTEMPTS, RETRY_DELAY,
    SIGABRT, TRANSIENT_ATTEMPTS,
};
use proptest::prelude::*;
use std::time::Duration;

/// An outcome from a small discriminant + payload, covering every arm
/// of the taxonomy.
fn outcome(kind: u8, payload: i32) -> ChildOutcome {
    match kind % 5 {
        0 => ChildOutcome::Exited(payload),
        1 => ChildOutcome::Signaled(payload),
        2 => ChildOutcome::TimedOut(Duration::from_secs(payload.unsigned_abs() as u64)),
        3 => ChildOutcome::SpawnFailed(format!("errno {payload}")),
        _ => ChildOutcome::NoReport,
    }
}

proptest! {
    /// The classification matrix: exactly the supervisor-kill,
    /// external-signal, and spawn-failure arms are transient; every
    /// exit status, SIGABRT, and the no-report protocol violation are
    /// deterministic.
    #[test]
    fn classification_matrix_over_exit_evidence(kind in any::<u8>(), payload in any::<i32>()) {
        let o = outcome(kind, payload);
        let want = match &o {
            ChildOutcome::TimedOut(_) | ChildOutcome::SpawnFailed(_) => FailureClass::Transient,
            ChildOutcome::Signaled(sig) if *sig == SIGABRT => FailureClass::Deterministic,
            ChildOutcome::Signaled(_) => FailureClass::Transient,
            ChildOutcome::Exited(_) | ChildOutcome::NoReport => FailureClass::Deterministic,
        };
        prop_assert_eq!(classify(&o), want, "{}", o);
    }

    /// `decide` spends exactly the class's attempt budget for every
    /// outcome shape and attempt count: a retry after [`RETRY_DELAY`]
    /// strictly below the budget, a give-up carrying the class at and
    /// beyond it.
    #[test]
    fn decide_spends_exactly_the_class_budget(kind in any::<u8>(), payload in any::<i32>()) {
        let o = outcome(kind, payload);
        let class = classify(&o);
        let budget = match class {
            FailureClass::Transient => TRANSIENT_ATTEMPTS,
            FailureClass::Deterministic => DETERMINISTIC_ATTEMPTS,
        };
        for attempts_made in 1..=budget + 2 {
            match decide(&o, attempts_made) {
                Decision::Retry(delay) => {
                    prop_assert!(attempts_made < budget, "retried at or past the budget ({o})");
                    prop_assert_eq!(delay, RETRY_DELAY);
                }
                Decision::GiveUp(got) => {
                    prop_assert!(attempts_made >= budget, "gave up under the budget ({o})");
                    prop_assert_eq!(got, class);
                }
            }
        }
    }
}
