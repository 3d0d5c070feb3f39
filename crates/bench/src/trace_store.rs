//! Frozen workload traces. [`freeze`] is the single entry point every
//! experiment path uses to turn a spec into a shared
//! [`Arc<PackedTrace>`], generated in memory: by the in-process cell
//! executor, and by each supervised worker for the cells it is handed
//! (`crate::supervise`). Packed replay is bit-identical to the
//! generator, so where a trace is frozen changes wall-clock only,
//! never results.

use acic_trace::PackedTrace;
use acic_workloads::WorkloadSpec;
use std::convert::Infallible;
use std::sync::Arc;

/// Freezes one spec at the given budget, in memory. This is the only
/// way experiment code should materialize a workload.
///
/// # Errors
///
/// Never: the error type is [`Infallible`].
pub fn freeze(spec: &WorkloadSpec, instructions: u64) -> Result<Arc<PackedTrace>, Infallible> {
    Ok(Arc::new(spec.materialize(instructions)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::TraceSource;
    use acic_workloads::AppProfile;

    #[test]
    fn freezing_is_deterministic() {
        let spec = WorkloadSpec::Single(AppProfile::sibench());
        let a = freeze(&spec, 2_000).unwrap();
        let b = freeze(&spec, 2_000).unwrap();
        assert_eq!(a.len(), 2_000);
        assert!(a.iter().eq(b.iter()), "freezing is deterministic");
    }
}
