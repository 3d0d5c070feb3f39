//! On-disk record/replay store for frozen workload traces.
//!
//! `experiments --record-traces <dir>` writes every workload spec the
//! run freezes as a `.acictrace` container named by
//! [`WorkloadSpec::store_key`] (cells replayed from `--results` freeze
//! nothing, so they record nothing);
//! `experiments --traces <dir>` replays those containers instead of
//! re-running the Markov walker — which also makes *externally*
//! recorded traces a first-class scenario: any valid container dropped
//! into the directory under the right key is picked up verbatim.
//!
//! The store is process-global (configured once from the CLI before
//! any simulation starts) because freezing happens deep inside the
//! grid scheduler, several layers below anything that could thread a
//! handle through. [`freeze`] is the single entry point every
//! experiment path uses to turn a spec into a shared
//! [`Arc<PackedTrace>`]; [`freeze_with`] is the explicit-mode variant
//! tests and tools use to exercise record/replay without touching the
//! process-global singleton, and it additionally reports the
//! [`Provenance`] of each trace.
//!
//! **Failure model.** Replay never trusts a container it cannot fully
//! validate: a missing, corrupt (checksum/format), unreadable, or
//! wrong-budget file falls back to regeneration with a loud note on
//! stderr — safe because the generator is ground truth and packed
//! replay is bit-identical to it, so a fallback changes wall-clock
//! only, never results. One loader, [`load_container`], implements
//! that for every container read: `--traces` replay and a supervised
//! child decoding the trace its parent handed it
//! (`crate::supervise`). Recording routes every container write
//! through [`crate::fault::write_atomic`] (sibling tmp + fsync +
//! rename), so a killed `--record-traces` run never leaves a torn
//! `.acictrace` at a final path.

use acic_trace::PackedTrace;
use acic_workloads::WorkloadSpec;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// How [`freeze`] interacts with the filesystem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TraceStoreMode {
    /// Generate in memory only (the default).
    #[default]
    Off,
    /// Generate, then persist each frozen spec into the directory.
    Record(PathBuf),
    /// Replay containers from the directory; fall back to generation
    /// (with a note on stderr) for specs whose container is missing
    /// or unusable.
    Replay(PathBuf),
}

/// Why a [`freeze_with`] call failed. Only the *record* path can fail
/// — replay degrades to regeneration instead (see the module docs).
#[derive(Debug)]
pub enum TraceStoreError {
    /// Creating the record directory failed.
    CreateDir {
        /// Directory we tried to create.
        dir: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
    /// Writing a container failed.
    Write {
        /// Container path we tried to write.
        path: PathBuf,
        /// Underlying filesystem error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStoreError::CreateDir { dir, source } => {
                write!(f, "--record-traces: create {}: {source}", dir.display())
            }
            TraceStoreError::Write { path, source } => {
                write!(f, "--record-traces: write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStoreError::CreateDir { source, .. } | TraceStoreError::Write { source, .. } => {
                Some(source)
            }
        }
    }
}

/// Where a frozen trace's bytes actually came from — how replay's
/// fall-back-to-generation decisions become observable (and
/// assertable) instead of disappearing into stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Generated in memory (mode [`TraceStoreMode::Off`]).
    Generated,
    /// Generated and persisted (mode [`TraceStoreMode::Record`]).
    Recorded,
    /// Decoded from a valid on-disk container.
    Replayed,
    /// Regenerated: no container under the spec's key.
    RegeneratedMissing,
    /// Regenerated: the container failed to read or validate
    /// (IO error, bad magic, truncation, checksum mismatch, ...).
    RegeneratedCorrupt,
    /// Regenerated: the container is valid but frozen at a different
    /// instruction budget than the experiment asked for.
    RegeneratedBudget,
}

/// A frozen trace plus where its bytes came from.
#[derive(Clone, Debug)]
pub struct Frozen {
    /// The shared immutable trace.
    pub trace: Arc<PackedTrace>,
    /// How the bytes were obtained.
    pub provenance: Provenance,
}

static MODE: OnceLock<TraceStoreMode> = OnceLock::new();

/// Configures the global store. Call at most once, before any
/// simulation; later calls (and configuration after first use) are
/// rejected so mid-run mode flips cannot mix provenances.
///
/// # Errors
///
/// Returns the already-active mode when the store was configured (or
/// defaulted by first use) before.
pub fn configure(mode: TraceStoreMode) -> Result<(), TraceStoreMode> {
    MODE.set(mode).map_err(|_| current().clone())
}

/// The active mode (defaults to [`TraceStoreMode::Off`] on first use).
pub fn current() -> &'static TraceStoreMode {
    MODE.get_or_init(TraceStoreMode::default)
}

fn container_path(dir: &Path, spec: &WorkloadSpec, instructions: u64) -> PathBuf {
    dir.join(format!("{}.acictrace", spec.store_key(instructions)))
}

/// Freezes one spec at the given budget, honoring the global store
/// mode. This is the only way experiment code should materialize a
/// workload: it keeps every path — in-memory grids, recording runs,
/// and replays of traces we didn't synthesize — behaviorally
/// identical.
///
/// # Errors
///
/// Fails only in [`TraceStoreMode::Record`], when the container (or
/// its directory) cannot be written; replay problems degrade to
/// regeneration instead (see [`freeze_with`]).
pub fn freeze(spec: &WorkloadSpec, instructions: u64) -> Result<Arc<PackedTrace>, TraceStoreError> {
    freeze_with(current(), spec, instructions).map(|f| f.trace)
}

/// [`freeze`] with an explicit mode instead of the process-global
/// one, reporting the trace's [`Provenance`]. Replay handles a
/// missing, corrupt, unreadable, or wrong-budget container by
/// regenerating from the spec — loudly on stderr, and visibly in the
/// returned provenance — because the generator is ground truth and
/// regeneration is bit-identical to a healthy replay.
///
/// # Errors
///
/// Fails only in [`TraceStoreMode::Record`], when the container (or
/// its directory) cannot be written.
pub fn freeze_with(
    mode: &TraceStoreMode,
    spec: &WorkloadSpec,
    instructions: u64,
) -> Result<Frozen, TraceStoreError> {
    match mode {
        TraceStoreMode::Off => Ok(Frozen {
            trace: Arc::new(spec.materialize(instructions)),
            provenance: Provenance::Generated,
        }),
        TraceStoreMode::Record(dir) => {
            let trace = spec.materialize(instructions);
            std::fs::create_dir_all(dir).map_err(|source| TraceStoreError::CreateDir {
                dir: dir.clone(),
                source,
            })?;
            let path = container_path(dir, spec, instructions);
            crate::fault::write_atomic(&path, &trace.to_bytes()).map_err(|source| {
                TraceStoreError::Write {
                    path: path.clone(),
                    source,
                }
            })?;
            Ok(Frozen {
                trace: Arc::new(trace),
                provenance: Provenance::Recorded,
            })
        }
        TraceStoreMode::Replay(dir) => Ok(load_container(
            &container_path(dir, spec, instructions),
            spec,
            instructions,
        )),
    }
}

/// The one container loader, shared by `--traces` replay and a
/// `--run-cell` child decoding its parent's handoff file: decodes the
/// `.acictrace` at `path` and checks its checksum and its budget
/// against `instructions`. A missing, unreadable, corrupt or
/// wrong-budget file is regenerated from `spec` with a note on stderr
/// and the matching [`Provenance`] — never an error, because the
/// generator is ground truth and regeneration is bit-identical to a
/// healthy decode.
pub fn load_container(path: &Path, spec: &WorkloadSpec, instructions: u64) -> Frozen {
    let regenerate = |why: &str, provenance: Provenance| {
        eprintln!(
            "[traces: {why} for '{}' ({}), regenerating]",
            spec.label(),
            path.display()
        );
        Frozen {
            trace: Arc::new(spec.materialize(instructions)),
            provenance,
        }
    };
    if !path.exists() {
        return regenerate("no container", Provenance::RegeneratedMissing);
    }
    let bytes = match crate::fault::read(path) {
        Ok(b) => b,
        Err(e) => {
            return regenerate(
                &format!("unreadable container ({e})"),
                Provenance::RegeneratedCorrupt,
            )
        }
    };
    let trace = match PackedTrace::from_bytes(&bytes) {
        Ok(t) => t,
        Err(e) => {
            return regenerate(
                &format!("invalid container ({e})"),
                Provenance::RegeneratedCorrupt,
            )
        }
    };
    if trace.len() != instructions {
        return regenerate(
            &format!(
                "budget mismatch ({} recorded vs {instructions} requested)",
                trace.len()
            ),
            Provenance::RegeneratedBudget,
        );
    }
    Frozen {
        trace: Arc::new(trace),
        provenance: Provenance::Replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_trace::TraceSource;
    use acic_workloads::AppProfile;

    // The global mode is a process-wide singleton; tests here must
    // not configure it (other tests share the process). The
    // record/replay file cycle runs through `freeze_with`, which
    // takes the mode explicitly; the fallback matrix lives in
    // `tests/replay_fallback.rs`.

    #[test]
    fn default_mode_freezes_in_memory() {
        let spec = WorkloadSpec::Single(AppProfile::sibench());
        let a = freeze(&spec, 2_000).unwrap();
        let b = freeze(&spec, 2_000).unwrap();
        assert_eq!(a.len(), 2_000);
        assert!(a.iter().eq(b.iter()), "freezing is deterministic");
    }

    #[test]
    fn container_paths_embed_key_and_extension() {
        let spec = WorkloadSpec::Single(AppProfile::web_search());
        let p = container_path(Path::new("/tmp/td"), &spec, 1_000);
        assert_eq!(p, PathBuf::from("/tmp/td/web-search-1000.acictrace"));
    }

    #[test]
    fn record_then_replay_reports_provenance() {
        let dir = std::env::temp_dir().join(format!("acic-ts-prov-{}", std::process::id()));
        let spec = WorkloadSpec::Single(AppProfile::sibench());
        let rec = freeze_with(&TraceStoreMode::Record(dir.clone()), &spec, 1_500).unwrap();
        assert_eq!(rec.provenance, Provenance::Recorded);
        let rep = freeze_with(&TraceStoreMode::Replay(dir.clone()), &spec, 1_500).unwrap();
        assert_eq!(rep.provenance, Provenance::Replayed);
        assert!(rec.trace.iter().eq(rep.trace.iter()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_write_failure_is_a_typed_error() {
        // A directory path that collides with an existing *file*
        // cannot be created.
        let blocker = std::env::temp_dir().join(format!("acic-ts-block-{}", std::process::id()));
        std::fs::write(&blocker, b"in the way").unwrap();
        let spec = WorkloadSpec::Single(AppProfile::sibench());
        let err = freeze_with(&TraceStoreMode::Record(blocker.clone()), &spec, 1_000)
            .expect_err("recording into a file must fail");
        assert!(matches!(err, TraceStoreError::CreateDir { .. }));
        assert!(err.to_string().contains("--record-traces"));
        std::fs::remove_file(&blocker).ok();
    }
}
