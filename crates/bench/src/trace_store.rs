//! Frozen workload traces. [`freeze`] is the single entry point every
//! experiment path uses to turn a spec into a shared
//! [`Arc<PackedTrace>`], generated in memory. [`load_container`] is
//! the one validated `.acictrace` loader, through which a supervised
//! child decodes the trace its parent handed it (`crate::supervise`).
//! It never trusts a container it cannot fully validate: a bad file
//! falls back to regeneration with a loud note on stderr — safe
//! because packed replay is bit-identical to the generator, so a
//! fallback changes wall-clock only, never results.

use acic_trace::PackedTrace;
use acic_workloads::WorkloadSpec;
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;

/// Where a loaded trace's bytes actually came from — how the loader's
/// fall-back-to-generation decisions become observable (and
/// assertable) instead of disappearing into stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Decoded from a valid on-disk container.
    Replayed,
    /// Regenerated: no container at the path.
    RegeneratedMissing,
    /// Regenerated: the container failed to read or validate
    /// (IO error, bad magic, truncation, checksum mismatch, ...).
    RegeneratedCorrupt,
    /// Regenerated: the container is valid but frozen at a different
    /// instruction budget than the experiment asked for.
    RegeneratedBudget,
}

/// A loaded trace plus where its bytes came from.
#[derive(Clone, Debug)]
pub struct Frozen {
    /// The shared immutable trace.
    pub trace: Arc<PackedTrace>,
    /// How the bytes were obtained.
    pub provenance: Provenance,
}

/// Freezes one spec at the given budget, in memory. This is the only
/// way experiment code should materialize a workload.
///
/// # Errors
///
/// Never: the error type is [`Infallible`].
pub fn freeze(spec: &WorkloadSpec, instructions: u64) -> Result<Arc<PackedTrace>, Infallible> {
    Ok(Arc::new(spec.materialize(instructions)))
}

/// The one container loader, used by a `--run-cell` child decoding
/// its parent's handoff file: decodes the `.acictrace` at `path` and
/// checks its checksum and its budget against `instructions`. A
/// missing, unreadable, corrupt or wrong-budget file is regenerated
/// from `spec` with a note on stderr and the matching [`Provenance`]
/// — never an error, because the generator is ground truth and
/// regeneration is bit-identical to a healthy decode.
pub fn load_container(path: &Path, spec: &WorkloadSpec, instructions: u64) -> Frozen {
    let loaded = if path.exists() {
        crate::fault::read(path)
            .map_err(|e| format!("unreadable container ({e})"))
            .and_then(|b| {
                PackedTrace::from_bytes(&b).map_err(|e| format!("invalid container ({e})"))
            })
            .map_err(|why| (why, Provenance::RegeneratedCorrupt))
            .and_then(|trace| match trace.len() {
                n if n == instructions => Ok(trace),
                n => Err((
                    format!("budget mismatch ({n} recorded vs {instructions} requested)"),
                    Provenance::RegeneratedBudget,
                )),
            })
    } else {
        Err(("no container".to_string(), Provenance::RegeneratedMissing))
    };
    match loaded {
        Ok(trace) => Frozen {
            trace: Arc::new(trace),
            provenance: Provenance::Replayed,
        },
        Err((why, provenance)) => {
            eprintln!(
                "[traces: {why} for '{}' ({}), regenerating]",
                spec.label(),
                path.display()
            );
            Frozen {
                trace: Arc::new(spec.materialize(instructions)),
                provenance,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::TraceSource;
    use acic_workloads::AppProfile;

    // The loader's fallback matrix lives in `tests/replay_fallback.rs`.

    #[test]
    fn freezing_is_deterministic() {
        let spec = WorkloadSpec::Single(AppProfile::sibench());
        let a = freeze(&spec, 2_000).unwrap();
        let b = freeze(&spec, 2_000).unwrap();
        assert_eq!(a.len(), 2_000);
        assert!(a.iter().eq(b.iter()), "freezing is deterministic");
    }
}
