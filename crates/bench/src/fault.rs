//! Deterministic IO fault injection for the on-disk stores.
//!
//! What `acic-bench` persists — the resumable result journal
//! ([`crate::result_store`]) — goes through the two façades in this
//! module, [`read`] and [`write_atomic`]. In
//! normal operation they are a thin veneer over `std::fs` that adds
//! the crash-safe write discipline (sibling temporary, fsync, atomic
//! rename, directory fsync). Under a [`FaultPlan`] installed with
//! [`with_faults`], each IO operation may instead fail or corrupt in
//! one of the ways real storage fails:
//!
//! * [`Fault::WriteEio`] / [`Fault::WriteEnospc`] — the write path
//!   errors before (EIO) or during (ENOSPC, leaving a stray partial
//!   temporary) the payload reaching disk.
//! * [`Fault::TornRename`] — the temporary is fully written but the
//!   process "dies" before the rename: the destination keeps its old
//!   content (or stays absent) and the caller sees an error.
//! * [`Fault::TruncateTmp`] — the worst-case non-atomic tear: a
//!   truncated prefix of the payload becomes visible at the final
//!   path. Readers must detect this via their checksums.
//! * [`Fault::BitFlipWrite`] — *silent* media corruption: one bit of
//!   the payload flips and the write still reports success. The read
//!   side must reject the corrupt bytes loudly.
//! * [`Fault::ReadEio`] / [`Fault::BitFlipRead`] — the read path
//!   errors, or returns the file's bytes with one bit flipped.
//!
//! Plans are deterministic: [`FaultPlan::seeded`] derives every
//! decision from (seed, operation index) via SplitMix64, so a failing
//! property case replays exactly; [`FaultPlan::script`] pins specific
//! faults to specific operations. The injector is thread-local —
//! concurrent tests cannot perturb each other — and the fault-facing
//! proptests in `tests/fault_injection.rs` assert the store-layer
//! invariant: **loud failure or bit-identical success, never silent
//! corruption**.
//!
//! It also scripts hostile *cells* (`ScriptedFault`) for the
//! crash-safety tests, and reads no environment: `runner::execute`
//! parses `ACIC_FAULT_CELL` and fires each resolved fault in process or
//! sends it in the worker's message, so a crash report replays alone.

use crate::cell::Canon;
use crate::json::Json;
use acic_types::hash::mix64;
use std::cell::RefCell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One injected IO misbehavior (see the module docs for the model
/// each variant implements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Write fails before anything reaches disk.
    WriteEio,
    /// Write fails mid-payload (disk full); a partial temporary file
    /// is left behind, the destination is untouched.
    WriteEnospc,
    /// The process dies after writing the temporary but before the
    /// rename: destination unchanged, stray temporary left behind.
    TornRename,
    /// A truncated prefix (`keep_num / 256` of the payload) is
    /// renamed into the destination — a non-atomic tear made visible.
    TruncateTmp(u8),
    /// One bit of the payload (index taken modulo the payload length)
    /// flips and the write still reports success — silent corruption
    /// the *read* side must catch.
    BitFlipWrite(u32),
    /// Read fails with EIO.
    ReadEio,
    /// Read succeeds but one bit of the returned buffer is flipped.
    BitFlipRead(u32),
}

/// A deterministic schedule of [`Fault`]s over the sequence of IO
/// operations performed while the plan is installed.
#[derive(Clone, Debug)]
pub enum FaultPlan {
    /// Every IO operation faults independently with probability
    /// `density_pct`%; the fault kind and its parameters derive from
    /// `(seed, op_index)` alone.
    Seeded {
        /// Master seed; equal seeds replay equal fault sequences.
        seed: u64,
        /// Per-operation fault probability in percent (0–100).
        density_pct: u8,
    },
    /// Explicit per-operation faults: operation `i` suffers
    /// `faults[i]` (`None`, or past the end, means healthy).
    Script(Vec<Option<Fault>>),
}

impl FaultPlan {
    /// A seeded random plan (see [`FaultPlan::Seeded`]).
    pub fn seeded(seed: u64, density_pct: u8) -> FaultPlan {
        FaultPlan::Seeded { seed, density_pct }
    }

    /// A scripted plan (see [`FaultPlan::Script`]).
    pub fn script(faults: Vec<Option<Fault>>) -> FaultPlan {
        FaultPlan::Script(faults)
    }

    /// The fault (if any) for the `op`-th IO operation.
    fn decide(&self, op: u64) -> Option<Fault> {
        match self {
            FaultPlan::Script(faults) => faults.get(op as usize).copied().flatten(),
            FaultPlan::Seeded { seed, density_pct } => {
                let h = mix64(seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                if (h % 100) >= u64::from(*density_pct) {
                    return None;
                }
                let pick = (h >> 8) % 7;
                let param = (h >> 16) as u32;
                Some(match pick {
                    0 => Fault::WriteEio,
                    1 => Fault::WriteEnospc,
                    2 => Fault::TornRename,
                    3 => Fault::TruncateTmp((h >> 24) as u8),
                    4 => Fault::BitFlipWrite(param),
                    5 => Fault::ReadEio,
                    _ => Fault::BitFlipRead(param),
                })
            }
        }
    }
}

struct Injector {
    plan: FaultPlan,
    next_op: u64,
    injected: u64,
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// Runs `f` with `plan` governing every [`read`]/[`write_atomic`]
/// call **on this thread**, returning `f`'s result and the number of
/// faults actually injected. The previous injector (usually none) is
/// restored afterwards, panic or not.
pub fn with_faults<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> (R, u64) {
    struct Restore(Option<Injector>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INJECTOR.with(|i| *i.borrow_mut() = self.0.take());
        }
    }
    let prior = INJECTOR.with(|i| {
        i.borrow_mut().replace(Injector {
            plan,
            next_op: 0,
            injected: 0,
        })
    });
    let restore = Restore(prior);
    let out = f();
    let injected = INJECTOR.with(|i| i.borrow().as_ref().map_or(0, |inj| inj.injected));
    drop(restore);
    (out, injected)
}

/// Consumes the next per-operation fault decision, if an injector is
/// installed on this thread.
fn take_fault() -> Option<Fault> {
    INJECTOR.with(|i| {
        let mut slot = i.borrow_mut();
        let inj = slot.as_mut()?;
        let fault = inj.plan.decide(inj.next_op);
        inj.next_op += 1;
        if fault.is_some() {
            inj.injected += 1;
        }
        fault
    })
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

fn flip_bit(bytes: &mut [u8], bit: u32) {
    if !bytes.is_empty() {
        let i = bit as usize % (bytes.len() * 8);
        bytes[i / 8] ^= 1 << (i % 8);
    }
}

/// The sibling temporary a [`write_atomic`] of `path` stages into.
/// Readers must treat `.tmp` files as garbage: a crashed (or
/// fault-injected) writer can leave one behind at any time.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads a whole file, honoring an installed fault plan.
///
/// # Errors
///
/// Propagates real filesystem errors and injected [`Fault::ReadEio`];
/// an injected [`Fault::BitFlipRead`] returns corrupted bytes
/// *successfully* — callers must validate what they read.
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    match take_fault() {
        Some(Fault::ReadEio) => Err(injected(io::ErrorKind::Other, "read EIO")),
        Some(Fault::BitFlipRead(bit)) => {
            let mut bytes = std::fs::read(path)?;
            flip_bit(&mut bytes, bit);
            Ok(bytes)
        }
        _ => std::fs::read(path),
    }
}

fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

fn rename_and_sync_dir(tmp: &Path, path: &Path) -> io::Result<()> {
    std::fs::rename(tmp, path)?;
    // Make the rename itself durable: fsync the containing directory
    // so a crash immediately after cannot resurrect the old entry.
    // Directories cannot be fsynced on every platform; best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` crash-safely: staged into a sibling
/// [`tmp_path`], fsynced, atomically renamed over the destination,
/// directory fsynced. After a crash at any step the destination holds
/// either its previous content or the complete new content — never a
/// tear (outside an injected [`Fault::TruncateTmp`], which exists to
/// prove readers catch exactly that).
///
/// # Errors
///
/// Propagates real filesystem errors and injected write faults. On
/// error the destination is unchanged except under the two injected
/// tear/corruption faults documented on [`Fault`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    match take_fault() {
        Some(Fault::WriteEio) => Err(injected(io::ErrorKind::Other, "write EIO")),
        Some(Fault::WriteEnospc) => {
            // Half the payload lands in the temporary, then the disk
            // fills: destination untouched, stray .tmp left behind.
            let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
            Err(injected(io::ErrorKind::Other, "write ENOSPC"))
        }
        Some(Fault::TornRename) => {
            durable_write(&tmp, bytes)?;
            Err(injected(io::ErrorKind::Interrupted, "crash before rename"))
        }
        Some(Fault::TruncateTmp(keep_num)) => {
            let keep = bytes.len() * keep_num as usize / 256;
            durable_write(&tmp, &bytes[..keep])?;
            rename_and_sync_dir(&tmp, path)?;
            Err(injected(
                io::ErrorKind::Interrupted,
                "torn write reached the destination",
            ))
        }
        Some(Fault::BitFlipWrite(bit)) => {
            let mut corrupt = bytes.to_vec();
            flip_bit(&mut corrupt, bit);
            durable_write(&tmp, &corrupt)?;
            rename_and_sync_dir(&tmp, path)
        }
        _ => {
            durable_write(&tmp, bytes)?;
            rename_and_sync_dir(&tmp, path)
        }
    }
}

/// One injected *process-level* cell misbehavior — the hostile matrix
/// the supervision tier ([`crate::supervise`]) is tested against.
/// Unlike the IO [`Fault`]s above, these don't corrupt storage: they
/// make the cell's own execution hostile (panic, `abort()`, a stall
/// past the watchdog, self-SIGKILL).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellFault {
    /// The cell panics (caught in-process by `catch_unwind`; kills a
    /// supervised worker with the panic exit status).
    Panic,
    /// The cell calls `abort()` — un-catchable in-process, a SIGABRT
    /// death under supervision.
    Abort,
    /// The cell sleeps this many milliseconds (in-process deadline /
    /// hard-timeout food).
    Stall(u64),
    /// The cell SIGKILLs its own process — the OOM-killer stand-in.
    Kill,
}

impl CellFault {
    /// Misbehaves as scripted, in the cell `cell` names: panics,
    /// aborts, sleeps, or SIGKILLs this process.
    pub(crate) fn fire(self, cell: &str) {
        match self {
            CellFault::Panic => panic!("injected test panic in cell {cell}"),
            CellFault::Abort => {
                eprintln!("[injected abort in cell {cell}]");
                std::process::abort();
            }
            CellFault::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
            CellFault::Kill => {
                eprintln!("[injected kill in cell {cell}]");
                crate::supervise::kill_self();
            }
        }
    }
}

/// `"panic"`, `"abort"`, `"kill"`, or `{"stall":"<millis>"}`.
impl Canon for CellFault {
    fn enc(&self) -> String {
        match self {
            CellFault::Panic => "\"panic\"".into(),
            CellFault::Abort => "\"abort\"".into(),
            CellFault::Kill => "\"kill\"".into(),
            CellFault::Stall(ms) => format!("{{\"stall\":{}}}", ms.enc()),
        }
    }
    fn dec(j: Option<&Json>, what: &str) -> Result<Self, String> {
        match j.and_then(Json::str_val) {
            Some("panic") => Ok(CellFault::Panic),
            Some("abort") => Ok(CellFault::Abort),
            Some("kill") => Ok(CellFault::Kill),
            Some(other) => Err(format!("{what}: unknown fault {other:?}")),
            None => u64::dec(j.and_then(|j| j.get("stall")), "stall").map(CellFault::Stall),
        }
    }
}

/// A scripted cell fault, parsed from an `ACIC_FAULT_CELL` value
/// `"<kind>:<config>:<spec>[:<millis>]"`: `kind` is `panic`, `abort`,
/// `stall` or `kill`, and it fires in the cell at `(config, spec)` of
/// each batch; a stall sleeps `millis` (60 s unless given). A `-once`
/// suffix on the kind (`kill-once`) fires on a cell's first attempt
/// only, a *transient* failure; without it every attempt fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ScriptedFault {
    fault: CellFault,
    cell: (usize, usize),
    once: bool,
}

impl ScriptedFault {
    /// Parses a knob value; `None` for anything outside the grammar.
    pub(crate) fn parse(raw: &str) -> Option<ScriptedFault> {
        let mut parts = raw.split(':');
        let kind = parts.next()?;
        let (kind, once) = kind
            .strip_suffix("-once")
            .map_or((kind, false), |k| (k, true));
        let cell = (parts.next()?.parse().ok()?, parts.next()?.parse().ok()?);
        let millis = parts.next().map(str::parse::<u64>).transpose().ok()?;
        if parts.next().is_some() {
            return None;
        }
        let fault = match (kind, millis) {
            ("panic", None) => CellFault::Panic,
            ("abort", None) => CellFault::Abort,
            ("kill", None) => CellFault::Kill,
            ("stall", ms) => CellFault::Stall(ms.unwrap_or(60_000)),
            _ => return None,
        };
        Some(ScriptedFault { fault, cell, once })
    }

    /// The fault cell `cell` (its `(config, spec)` in the batch) meets
    /// on attempt `attempt`, counted from 1; an in-process cell runs
    /// once, as attempt 1.
    pub(crate) fn at(&self, cell: (usize, usize), attempt: u32) -> Option<CellFault> {
        (cell == self.cell && (attempt == 1 || !self.once)).then_some(self.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("acic-fault-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn healthy_write_then_read_round_trips() {
        let path = tdir("rt").join("a.bin");
        write_atomic(&path, b"hello fault layer").unwrap();
        assert_eq!(read(&path).unwrap(), b"hello fault layer");
        assert!(!tmp_path(&path).exists(), "temporary cleaned by rename");
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let plan = FaultPlan::seeded(42, 50);
        let a: Vec<_> = (0..64).map(|op| plan.decide(op)).collect();
        let b: Vec<_> = (0..64).map(|op| plan.decide(op)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "50% density injects");
        assert!(a.iter().any(Option::is_none), "50% density also passes");
        assert!(
            (0..64).all(|op| FaultPlan::seeded(42, 0).decide(op).is_none()),
            "zero density never faults"
        );
    }

    #[test]
    fn torn_rename_leaves_old_content() {
        let path = tdir("torn").join("j.bin");
        write_atomic(&path, b"old").unwrap();
        let (res, injected) = with_faults(FaultPlan::script(vec![Some(Fault::TornRename)]), || {
            write_atomic(&path, b"new")
        });
        assert!(res.is_err());
        assert_eq!(injected, 1);
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "rename never ran");
        assert_eq!(std::fs::read(tmp_path(&path)).unwrap(), b"new", "stray tmp");
    }

    #[test]
    fn bit_flip_write_reports_success_with_corrupt_bytes() {
        let path = tdir("flip").join("j.bin");
        let (res, _) = with_faults(
            FaultPlan::script(vec![Some(Fault::BitFlipWrite(13))]),
            || write_atomic(&path, b"payload"),
        );
        assert!(res.is_ok(), "silent corruption reports success");
        assert_ne!(std::fs::read(&path).unwrap(), b"payload");
    }

    #[test]
    fn the_fault_grammar_resolves_per_cell_and_attempt() {
        use CellFault::*;
        // (knob, cell, attempt, the fault that cell meets)
        let table = [
            ("panic:0:5", (0, 5), 1, Some(Panic)),
            ("abort:0:5", (0, 5), 2, Some(Abort)),
            ("kill:2:0", (2, 0), 3, Some(Kill)),
            ("stall:0:1:30000", (0, 1), 1, Some(Stall(30_000))),
            ("stall:0:1", (0, 1), 1, Some(Stall(60_000))),
            ("panic:0:5", (0, 4), 1, None),
            ("panic:0:5", (1, 5), 1, None),
            ("kill-once:0:1", (0, 1), 1, Some(Kill)),
            ("kill-once:0:1", (0, 1), 2, None),
            ("stall-once:0:1:5", (0, 1), 1, Some(Stall(5))),
            ("stall-once:0:1:5", (0, 1), 2, None),
        ];
        for (raw, cell, attempt, want) in table {
            let script = ScriptedFault::parse(raw).unwrap_or_else(|| panic!("{raw} parses"));
            assert_eq!(
                script.at(cell, attempt),
                want,
                "{raw} at {cell:?}, attempt {attempt}"
            );
        }
        for garbage in [
            "",
            "garbage",
            "0:5",
            "panic",
            "panic:0",
            "panic:0:x",
            "panic:0:5:9",
            "kill:0:5:9",
            "stall:0:5:soon",
            "stall:0:5:1:2",
            "boom:0:5",
            "panic-twice:0:5",
            "PANIC:0:5",
        ] {
            assert_eq!(
                ScriptedFault::parse(garbage),
                None,
                "{garbage:?} never matches"
            );
        }
    }

    #[test]
    fn injector_is_scoped_and_restored_on_panic() {
        let path = tdir("scope").join("x.bin");
        let caught = std::panic::catch_unwind(|| {
            with_faults(FaultPlan::script(vec![Some(Fault::WriteEio)]), || {
                panic!("boom")
            })
        });
        assert!(caught.is_err());
        // The injector from the panicked scope must not leak here.
        write_atomic(&path, b"fine").unwrap();
        assert_eq!(read(&path).unwrap(), b"fine");
    }
}
