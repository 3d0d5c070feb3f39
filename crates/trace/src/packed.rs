//! The frozen trace format: immutable, compact, shareable, replayable.
//!
//! Every grid experiment replays the same workloads many times — once
//! per configuration row, plus oracle pre-passes — and until this
//! module existed each replay re-ran the Markov walker or re-read
//! 24-byte [`Instr`] records. [`PackedTrace`] freezes a workload once
//! into a delta/run-length byte stream (about 1.2 B per instruction on
//! the shipped workload shapes, against `Instr`'s 24) that every
//! consumer then shares read-only: the cursor borrows the arena
//! (`&[u8]`), so N threads replaying one `Arc<PackedTrace>` touch one
//! copy of the bytes.
//!
//! # Encoding
//!
//! The stream is a sequence of records decoded against four words of
//! cursor state — the *expected* next PC (the fall-through/taken-path
//! successor of the previous instruction), the current ASID, and two
//! data-address bases:
//!
//! * **`AluRun`** — N sequential 1-cycle ALU instructions at the
//!   expected PC. One or two bytes for a whole fetch run; the walker's
//!   long straight-line bursts (the ~85% distance-0 mass of Figure 1a)
//!   collapse into these.
//! * **`Alu`/`LongAlu`/`Load`/`Store`/`Branch`** — one header byte
//!   (kind, PC-sequential flag, for branches taken + class, for
//!   loads/stores the data base and an equal-to-base flag, for all but
//!   branches a folded run) plus zigzag-varint deltas for whatever the
//!   header cannot imply: the PC (vs the expected PC), the data address
//!   (vs whichever data base is closer, named by a header bit), the
//!   branch target (vs the PC).
//! * **`AsidSwitch`** — an *explicit* context-switch record. ASIDs are
//!   never carried per instruction; a switch record updates the cursor
//!   ASID and every following instruction is stamped with it. This is
//!   what keeps [`crate::BlockRuns`]/[`crate::GroupedRuns`] semantics
//!   bit-for-bit: a run can only break at an ASID change if the change
//!   is visible in the stream, and here it is a first-class record at
//!   exactly the original boundary.
//!
//! Header bits, low to high (bits 0–2 are always the opcode):
//!
//! * `Alu`/`LongAlu`: 3 PC delta follows, 4–7 folded run (0–15).
//! * `Load`/`Store`: 3 PC delta follows, 4 equal to the chosen base,
//!   5 base 1 chosen, 6–7 folded run (0–3).
//! * `Branch`: 3 PC delta follows, 4 taken, 5–7 class.
//! * `AluRun`: 3–7 run length (1–31; 0: a varint length follows).
//! * `AsidSwitch`: 3–7 unused; the ASID follows as a varint.
//!
//! # Folded runs
//!
//! Loads and stores cut the walker's fetch bursts into runs of only a
//! few ALUs, and a standalone `AluRun` byte per run would cost as much
//! as the record after it. So a run of up to 3 ALUs before a load or
//! store, or up to 15 before an `Alu`/`LongAlu`, rides in that record's
//! free header bits instead: the folded ALUs sit at the expected PC,
//! and the record's own PC is coded against the PC after them. Longer
//! runs, runs before a branch or an `AsidSwitch`, and runs cut by a
//! skip-index entry stay standalone `AluRun` records. The cursor
//! decodes a folded record first and holds it while it yields the run.
//!
//! # Data-address bases
//!
//! Loads and stores dominate the payload when every data address is a
//! delta from the previous one: a walker alternating between the stack
//! (`0x7fff_…`) and the heap (`0x5555_…`) pays a ~46-bit delta on
//! every switch. So each load/store is coded against the closer of two
//! bases (smaller zigzag delta; a tie goes to base 0). Afterwards base
//! 0 becomes the address, and base 1 takes the old base 0 only when
//! base 1 was chosen or when the access left base 0's region (zigzag
//! delta ≥ 2^24, a jump of 8 MiB or more); otherwise base 1 is
//! unchanged. One base thus follows each of two regions without
//! knowing either, and a jump within the heap keeps the stack's base.
//!
//! # Skip index
//!
//! Every [`SKIP_STRIDE`] instructions the encoder flushes any pending
//! run (so no run, folded or not, spans an entry) and snapshots
//! `(byte offset, expected PC, both data bases, ASID)`.
//! [`TraceSource::skip`] jumps to the nearest snapshot at or before the
//! target and decodes at most one stride forward — O(1) by
//! construction (stride-bounded, independent of trace length), which
//! is what makes SMARTS-style fast-forward over frozen traces free.
//! Generated sources must produce-and-discard the same gap.
//!
//! # Examples
//!
//! ```
//! use acic_trace::{Instr, PackedTrace, TraceSource, VecTrace};
//! use acic_types::Addr;
//!
//! let v: VecTrace = (0..100).map(|i| Instr::alu(Addr::new(i * 4))).collect();
//! let p = PackedTrace::from_source(&v);
//! assert_eq!(p.len(), 100);
//! assert!(p.iter().eq(v.iter())); // bit-identical replay
//! assert!(p.payload_bytes() < 100); // straight-line code packs into runs
//! ```

use crate::instr::{BranchClass, Instr, InstrKind};
use crate::source::TraceSource;
use acic_types::hash::{fnv1a, FNV_OFFSET};
use acic_types::{Addr, Asid};

/// Instructions per skip-index snapshot. Every entry starts at a
/// record boundary (pending runs are flushed), so a skip decodes at
/// most this many instructions after the index jump.
pub const SKIP_STRIDE: u64 = 4096;

// Record opcodes (low 3 bits of the header byte).
const OP_ALU: u8 = 0;
const OP_LONG_ALU: u8 = 1;
const OP_LOAD: u8 = 2;
const OP_STORE: u8 = 3;
const OP_BRANCH: u8 = 4;
const OP_ALU_RUN: u8 = 5;
const OP_ASID: u8 = 6;
const OP_MASK: u8 = 0b111;

/// Header flag: an explicit zigzag-varint PC delta follows (the PC is
/// not the expected fall-through/taken-path successor).
const FLAG_PC: u8 = 0x08;
/// Load/store header flag: the data address equals the chosen base
/// (no delta follows).
const FLAG_DATA_SAME: u8 = 0x10;
/// Load/store header flag: the data address is coded against base 1
/// (clear: base 0).
const FLAG_DATA_BASE1: u8 = 0x20;
/// Zigzag data deltas from here up (jumps of 8 MiB or more) leave base
/// 0's region; such a jump moves base 0 into base 1.
const FAR_DATA_DELTA: u64 = 1 << 24;
/// Branch header flag: the branch was taken.
const FLAG_TAKEN: u8 = 0x10;
/// Branch class lives in bits 5..8 of the header byte.
const CLASS_SHIFT: u8 = 5;

/// `AluRun` header: run length in bits 3..8 (1..=31); 0 means a
/// varint length follows.
const RUN_SHIFT: u8 = 3;
const RUN_INLINE_MAX: u64 = 31;

/// Where each opcode's header keeps its folded run: the header bits
/// from this position up count the 0..=(0xff >> shift) sequential ALUs
/// that precede the record. 8 (branches, `AluRun`, `AsidSwitch`):
/// nothing folds.
const FOLD_SHIFT: [u32; 8] = [4, 4, 6, 6, 8, 8, 8, 8];

#[inline]
fn class_code(c: BranchClass) -> u8 {
    match c {
        BranchClass::Conditional => 0,
        BranchClass::Direct => 1,
        BranchClass::Call => 2,
        BranchClass::Return => 3,
        BranchClass::Indirect => 4,
    }
}

#[inline]
fn code_class(c: u8) -> BranchClass {
    match c {
        0 => BranchClass::Conditional,
        1 => BranchClass::Direct,
        2 => BranchClass::Call,
        3 => BranchClass::Return,
        _ => BranchClass::Indirect,
    }
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Wrapping difference of two addresses as a signed delta (round-trips
/// through [`zigzag`] for any pair of `u64`s).
#[inline]
fn delta(new: u64, old: u64) -> i64 {
    new.wrapping_sub(old) as i64
}

/// The two delta bases for load/store addresses (see the module doc):
/// base 0 is the last data address, base 1 the one before the last
/// far jump or base-1 access.
///
/// Both steps are branch-free: which base an access takes is close to
/// random, and a branch on it mispredicts often enough to cost the
/// encoder several percent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DataBases([u64; 2]);

impl DataBases {
    /// Whether `addr` is coded against base 1, and its zigzag delta
    /// from the chosen base. A tie goes to base 0.
    #[inline]
    fn choose(&self, addr: u64) -> (bool, u64) {
        let z0 = zigzag(delta(addr, self.0[0]));
        let z1 = zigzag(delta(addr, self.0[1]));
        (z1 < z0, z0.min(z1))
    }

    /// The address at zigzag delta `z` from the chosen base; updates
    /// both bases for the access. Encoder and decoder both step
    /// through here, so they cannot disagree on the rule.
    #[inline]
    fn advance(&mut self, base1: bool, z: u64) -> u64 {
        let addr = self.0[base1 as usize].wrapping_add(unzigzag(z) as u64);
        let moved = base1 | (z >= FAR_DATA_DELTA);
        self.0 = [addr, self.0[moved as usize ^ 1]];
        addr
    }
}

/// One skip-index snapshot: full decoder state at an
/// instruction-count multiple of [`SKIP_STRIDE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IndexEntry {
    /// Byte offset of the next record in the payload.
    byte_pos: u64,
    /// Expected PC of the next instruction.
    expect_pc: u64,
    /// Delta bases for the next load/store.
    data: DataBases,
    /// Current address space.
    asid: u16,
}

/// An immutable, compact, replayable instruction trace.
///
/// Built once ([`PackedTrace::from_source`] or [`PackedTraceBuilder`];
/// the fields are private, so every arena the cursor decodes came from
/// the builder) and then shared read-only — clone an `Arc<PackedTrace>`
/// per consumer; the cursor borrows the byte arena directly. Replay is bit-identical to the encoded source: the same
/// `Instr` values, the same ASID boundaries, the same
/// [`TraceSource::seed`] (the name is preserved).
#[derive(Clone, Debug, PartialEq)]
pub struct PackedTrace {
    bytes: Vec<u8>,
    index: Vec<IndexEntry>,
    len: u64,
    name: String,
}

/// Streaming encoder for [`PackedTrace`].
///
/// Feed instructions in trace order via [`PackedTraceBuilder::push`];
/// [`PackedTraceBuilder::finish`] seals the arena. Sequential ALU
/// instructions are accumulated into runs, which fold into the next
/// record's header when they fit and become `AluRun` records otherwise;
/// ASID changes emit explicit switch records; skip-index snapshots are
/// taken every [`SKIP_STRIDE`] instructions at record boundaries.
///
/// `push` is a sink a producer can drive directly: the workload
/// generator's freeze path (`WorkloadSpec::materialize` in
/// `acic-workloads`) steps its walker straight into `push`, a whole
/// segment or timeslice at a time, instead of pulling instructions one
/// at a time through an iterator as [`PackedTrace::from_source`] does.
/// Both feed the same instructions in the same order, so both seal the
/// same bytes.
#[derive(Debug)]
pub struct PackedTraceBuilder {
    bytes: Vec<u8>,
    index: Vec<IndexEntry>,
    count: u64,
    expect_pc: u64,
    data: DataBases,
    asid: u16,
    pending_run: u64,
    name: String,
}

impl PackedTraceBuilder {
    /// Starts an empty trace with the given report name (the name
    /// feeds [`TraceSource::seed`], so replay seeds match the source).
    pub fn new(name: impl Into<String>) -> Self {
        PackedTraceBuilder {
            bytes: Vec::new(),
            index: Vec::new(),
            count: 0,
            expect_pc: 0,
            data: DataBases::default(),
            asid: 0,
            pending_run: 0,
            name: name.into(),
        }
    }

    fn flush_run(&mut self) {
        if self.pending_run == 0 {
            return;
        }
        let n = self.pending_run;
        self.pending_run = 0;
        if n <= RUN_INLINE_MAX {
            self.bytes.push(OP_ALU_RUN | ((n as u8) << RUN_SHIFT));
        } else {
            self.bytes.push(OP_ALU_RUN);
            write_varint(&mut self.bytes, n);
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: Instr) {
        if self.count.is_multiple_of(SKIP_STRIDE) {
            // Snapshot full decoder state at a record boundary; any
            // pending run must not straddle the entry.
            self.flush_run();
            self.index.push(IndexEntry {
                byte_pos: self.bytes.len() as u64,
                expect_pc: self.expect_pc,
                data: self.data,
                asid: self.asid,
            });
        }
        let asid = instr.asid().raw();
        if asid != self.asid {
            self.flush_run();
            self.bytes.push(OP_ASID);
            write_varint(&mut self.bytes, asid as u64);
            self.asid = asid;
        }
        let pc = instr.pc().raw();
        let seq = pc == self.expect_pc;
        if seq && matches!(instr.kind, InstrKind::Alu) {
            self.pending_run += 1;
            self.expect_pc = pc + 4;
            self.count += 1;
            return;
        }
        let (op, data) = match instr.kind {
            InstrKind::Alu => (OP_ALU, None),
            InstrKind::LongAlu => (OP_LONG_ALU, None),
            InstrKind::Load { addr } => (OP_LOAD, Some(self.data.choose(addr.raw()))),
            InstrKind::Store { addr } => (OP_STORE, Some(self.data.choose(addr.raw()))),
            InstrKind::Branch { taken, class, .. } => {
                let mut h = OP_BRANCH | (class_code(class) << CLASS_SHIFT);
                if taken {
                    h |= FLAG_TAKEN;
                }
                (h, None)
            }
        };
        let shift = FOLD_SHIFT[(op & OP_MASK) as usize];
        let fold = if self.pending_run <= 0xff >> shift {
            std::mem::take(&mut self.pending_run)
        } else {
            self.flush_run();
            0
        };
        let mut header = op | (fold << shift) as u8;
        if !seq {
            header |= FLAG_PC;
        }
        if let Some((base1, z)) = data {
            if base1 {
                header |= FLAG_DATA_BASE1;
            }
            if z == 0 {
                header |= FLAG_DATA_SAME;
            }
        }
        self.bytes.push(header);
        if !seq {
            write_varint(&mut self.bytes, zigzag(delta(pc, self.expect_pc)));
        }
        if let Some((base1, z)) = data {
            if z != 0 {
                write_varint(&mut self.bytes, z);
            }
            self.data.advance(base1, z);
        }
        if let InstrKind::Branch { target, .. } = instr.kind {
            write_varint(&mut self.bytes, zigzag(delta(target.raw(), pc)));
        }
        self.expect_pc = instr.next_pc().raw();
        self.count += 1;
    }

    /// Seals the trace.
    pub fn finish(mut self) -> PackedTrace {
        self.flush_run();
        self.bytes.shrink_to_fit();
        self.index.shrink_to_fit();
        PackedTrace {
            bytes: self.bytes,
            index: self.index,
            len: self.count,
            name: self.name,
        }
    }
}

impl Extend<Instr> for PackedTraceBuilder {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        for i in iter {
            self.push(i);
        }
    }
}

impl PackedTrace {
    /// Freezes an instruction stream under the given name.
    pub fn from_instrs(name: impl Into<String>, instrs: impl IntoIterator<Item = Instr>) -> Self {
        let mut b = PackedTraceBuilder::new(name);
        b.extend(instrs);
        b.finish()
    }

    /// Freezes another source (one full generation/decode pass),
    /// keeping its name so replay derives identical component seeds.
    pub fn from_source<S: TraceSource>(source: &S) -> Self {
        Self::from_instrs(source.name().to_string(), source.iter())
    }

    /// Number of instructions.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded record stream in bytes (excluding the skip
    /// index and name).
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Average encoded bytes per instruction (0 for an empty trace).
    pub fn bytes_per_instr(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.bytes.len() as f64 / self.len as f64
        }
    }

    /// FNV-1a over the instruction count, the payload and every
    /// skip-index snapshot (each field little-endian, 8 bytes wide).
    /// Equal traces hash equal; a change to the packed format shows
    /// up here even when the decoded stream stays the same.
    pub fn checksum(&self) -> u64 {
        let h = fnv1a(fnv1a(FNV_OFFSET, &self.len.to_le_bytes()), &self.bytes);
        self.index.iter().fold(h, |h, e| {
            let [d0, d1] = e.data.0;
            [e.byte_pos, e.expect_pc, d0, d1, e.asid.into()]
                .iter()
                .fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
        })
    }
}

/// Zero-copy decoding cursor over a [`PackedTrace`].
///
/// Borrows the arena; yields exactly the encoded `Instr` sequence.
/// [`TraceSource::skip`] on a `PackedTrace` jumps through the skip
/// index instead of decoding the gap.
#[derive(Clone, Debug)]
pub struct PackedCursor<'a> {
    trace: &'a PackedTrace,
    /// Byte position of the next record.
    pos: usize,
    /// Instructions already yielded.
    done: u64,
    expect_pc: u64,
    data: DataBases,
    asid: u16,
    /// Remaining ALUs of the current run, standalone or folded.
    run_left: u64,
    /// PC of the run's next ALU.
    run_pc: u64,
    /// The decoded record a folded run precedes, yielded after the run.
    held: Option<Instr>,
}

impl<'a> PackedCursor<'a> {
    fn new(trace: &'a PackedTrace) -> Self {
        PackedCursor {
            trace,
            pos: 0,
            done: 0,
            expect_pc: 0,
            data: DataBases::default(),
            asid: 0,
            run_left: 0,
            run_pc: 0,
            held: None,
        }
    }

    #[inline]
    fn stamp(&self, i: Instr) -> Instr {
        if self.asid == 0 {
            i
        } else {
            i.with_asid(Asid::new(self.asid))
        }
    }

    /// Decodes the next instruction (`None` at end of trace).
    #[inline]
    fn decode_next(&mut self) -> Option<Instr> {
        loop {
            if self.run_left > 0 {
                self.run_left -= 1;
                self.done += 1;
                let i = Instr::alu(Addr::new(self.run_pc));
                self.run_pc += 4;
                return Some(self.stamp(i));
            }
            if let Some(i) = self.held.take() {
                self.done += 1;
                return Some(i);
            }
            if self.done == self.trace.len {
                return None;
            }
            self.decode_record();
        }
    }

    /// Starts a run of `n` ALUs at the expected PC.
    #[inline]
    fn start_run(&mut self, n: u64) {
        self.run_pc = self.expect_pc;
        self.run_left = n;
        self.expect_pc += 4 * n;
    }

    /// Decodes one record into cursor state: an `AsidSwitch` sets the
    /// ASID, an `AluRun` starts a run, and an instruction record is
    /// held behind the run folded into its header.
    #[inline]
    fn decode_record(&mut self) {
        let bytes: &'a [u8] = &self.trace.bytes;
        let header = bytes[self.pos];
        self.pos += 1;
        let op = header & OP_MASK;
        match op {
            OP_ASID => {
                self.asid = read_varint(bytes, &mut self.pos) as u16;
                return;
            }
            OP_ALU_RUN => {
                let inline = (header >> RUN_SHIFT) as u64;
                let n = if inline == 0 {
                    read_varint(bytes, &mut self.pos)
                } else {
                    inline
                };
                self.start_run(n);
                return;
            }
            _ => {}
        }
        self.start_run(u64::from(header) >> FOLD_SHIFT[op as usize]);
        let pc = if header & FLAG_PC != 0 {
            let d = unzigzag(read_varint(bytes, &mut self.pos));
            self.expect_pc.wrapping_add(d as u64)
        } else {
            self.expect_pc
        };
        let instr = match op {
            OP_ALU => Instr::alu(Addr::new(pc)),
            OP_LONG_ALU => Instr::long_alu(Addr::new(pc)),
            OP_LOAD | OP_STORE => {
                let z = if header & FLAG_DATA_SAME != 0 {
                    0
                } else {
                    read_varint(bytes, &mut self.pos)
                };
                let addr = self.data.advance(header & FLAG_DATA_BASE1 != 0, z);
                if op == OP_LOAD {
                    Instr::load(Addr::new(pc), Addr::new(addr))
                } else {
                    Instr::store(Addr::new(pc), Addr::new(addr))
                }
            }
            _ => {
                let d = unzigzag(read_varint(bytes, &mut self.pos));
                let target = pc.wrapping_add(d as u64);
                Instr::branch(
                    Addr::new(pc),
                    Addr::new(target),
                    header & FLAG_TAKEN != 0,
                    code_class(header >> CLASS_SHIFT),
                )
            }
        };
        self.expect_pc = instr.next_pc().raw();
        self.held = Some(self.stamp(instr));
    }

    /// Advances past up to `n` instructions via the skip index,
    /// returning how many were skipped (fewer only at trace end).
    ///
    /// Jumps to the last index snapshot at or before the target and
    /// decode-discards the remainder — at most [`SKIP_STRIDE`]
    /// instructions of work regardless of `n` or trace length.
    pub fn skip_fast(&mut self, n: u64) -> u64 {
        let target = (self.done + n).min(self.trace.len);
        let skipped = target - self.done;
        // A target at the trace end can land one stride bucket past
        // the last snapshot (len a multiple of the stride): clamp to
        // the last entry so the tail decode stays stride-bounded.
        let entry_no =
            ((target / SKIP_STRIDE) as usize).min(self.trace.index.len().saturating_sub(1));
        if let Some(e) = self.trace.index.get(entry_no) {
            let entry_instr = entry_no as u64 * SKIP_STRIDE;
            if entry_instr > self.done {
                self.pos = e.byte_pos as usize;
                self.done = entry_instr;
                self.expect_pc = e.expect_pc;
                self.data = e.data;
                self.asid = e.asid;
                self.run_left = 0;
                self.held = None;
            }
        }
        while self.done < target {
            // Consume whole pending runs without materializing them;
            // a held record is the instruction right after its run.
            if self.run_left > 0 {
                let take = self.run_left.min(target - self.done);
                self.run_left -= take;
                self.done += take;
                self.run_pc += 4 * take;
            } else if self.held.take().is_some() {
                self.done += 1;
            } else {
                self.decode_record();
            }
        }
        skipped
    }
}

impl Iterator for PackedCursor<'_> {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        self.decode_next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.trace.len - self.done) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PackedCursor<'_> {}

impl TraceSource for PackedTrace {
    type Iter<'a> = PackedCursor<'a>;

    fn iter(&self) -> Self::Iter<'_> {
        PackedCursor::new(self)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.len)
    }

    fn skip(iter: &mut Self::Iter<'_>, n: u64) -> u64 {
        iter.skip_fast(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecTrace;
    use proptest::prelude::*;

    /// Deterministic pseudo-random instruction mix with branches,
    /// loads, stores and ASID switches.
    fn mixed_instrs(n: u64, seed: u64, switch_every: u64) -> Vec<Instr> {
        let mut x = seed | 1;
        let mut pc = 0x1000u64;
        let mut out = Vec::new();
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let asid = i
                .checked_div(switch_every)
                .map_or(Asid::HOST, |q| Asid::new((q % 3) as u16));
            let r = x >> 59;
            let instr = match r {
                0 | 1 => {
                    let addr = (x >> 13) % (1 << 20);
                    if r == 0 {
                        Instr::load(Addr::new(pc), Addr::new(addr))
                    } else {
                        Instr::store(Addr::new(pc), Addr::new(addr))
                    }
                }
                2 => Instr::long_alu(Addr::new(pc)),
                3 | 4 => {
                    let target = (x >> 21) % (1 << 18) * 4;
                    let taken = x & 2 != 0;
                    let class = code_class(((x >> 33) % 5) as u8);
                    Instr::branch(Addr::new(pc), Addr::new(target), taken, class)
                }
                _ => Instr::alu(Addr::new(pc)),
            };
            pc = instr.next_pc().raw();
            out.push(instr.with_asid(asid));
        }
        out
    }

    #[test]
    fn round_trips_a_mixed_stream_bit_for_bit() {
        let instrs = mixed_instrs(20_000, 7, 997);
        let p = PackedTrace::from_instrs("mixed", instrs.clone());
        assert_eq!(p.len(), 20_000);
        let decoded: Vec<Instr> = p.iter().collect();
        assert_eq!(decoded, instrs);
        // Re-openable: a second pass is identical.
        let again: Vec<Instr> = p.iter().collect();
        assert_eq!(again, instrs);
    }

    #[test]
    fn straight_line_code_packs_below_one_byte_per_instr() {
        let instrs: Vec<Instr> = (0..100_000u64)
            .map(|i| Instr::alu(Addr::new(i * 4)))
            .collect();
        let p = PackedTrace::from_instrs("line", instrs);
        assert!(
            p.bytes_per_instr() < 0.1,
            "runs should collapse: {} B/instr",
            p.bytes_per_instr()
        );
    }

    #[test]
    fn mixed_stream_stays_compact() {
        let instrs = mixed_instrs(50_000, 3, 0);
        let p = PackedTrace::from_instrs("mixed", instrs);
        assert!(
            p.bytes_per_instr() < 6.0,
            "{} B/instr exceeds the format's budget",
            p.bytes_per_instr()
        );
    }

    #[test]
    fn skip_lands_exactly_where_a_walk_would() {
        let instrs = mixed_instrs(3 * SKIP_STRIDE + 123, 11, 513);
        let p = PackedTrace::from_instrs("skippy", instrs);
        for &n in &[
            0u64,
            1,
            17,
            SKIP_STRIDE - 1,
            SKIP_STRIDE,
            SKIP_STRIDE + 1,
            2 * SKIP_STRIDE + 7,
        ] {
            let mut fast = p.iter();
            assert_eq!(PackedTrace::skip(&mut fast, n), n);
            let mut slow = p.iter();
            for _ in 0..n {
                slow.next();
            }
            assert_eq!(fast.next(), slow.next(), "diverged after skip({n})");
            // And the rest of the stream matches too.
            assert!(fast.eq(slow), "tail diverged after skip({n})");
        }
    }

    #[test]
    fn skip_past_end_reports_shortfall() {
        let p = PackedTrace::from_instrs("short", mixed_instrs(100, 5, 0));
        let mut it = p.iter();
        assert_eq!(PackedTrace::skip(&mut it, 250), 100);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn chained_skips_accumulate() {
        let instrs = mixed_instrs(2 * SKIP_STRIDE + 50, 23, 0);
        let p = PackedTrace::from_instrs("chain", instrs.clone());
        let mut it = p.iter();
        assert_eq!(PackedTrace::skip(&mut it, 100), 100);
        assert_eq!(it.next(), Some(instrs[100]));
        assert_eq!(PackedTrace::skip(&mut it, SKIP_STRIDE), SKIP_STRIDE);
        assert_eq!(it.next(), Some(instrs[101 + SKIP_STRIDE as usize]));
    }

    #[test]
    fn asid_switches_are_explicit_and_preserved() {
        let instrs = mixed_instrs(6_000, 9, 100);
        let p = PackedTrace::from_instrs("mt", instrs.clone());
        let decoded: Vec<Instr> = p.iter().collect();
        assert_eq!(decoded, instrs);
        // The run grouping downstream sees identical boundaries.
        let a: Vec<_> = crate::BlockRuns::new(instrs.iter().copied()).collect();
        let b: Vec<_> = crate::BlockRuns::new(p.iter()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn vec_trace_round_trip_preserves_name_and_seed() {
        let v = VecTrace::with_name(mixed_instrs(1_000, 2, 0), "web-search");
        let p = PackedTrace::from_source(&v);
        assert_eq!(p.name(), "web-search");
        assert_eq!(p.seed(), v.seed());
        assert!(p.iter().eq(v.iter()));
    }

    #[test]
    fn empty_trace_is_fine() {
        let p = PackedTrace::from_instrs("empty", Vec::new());
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
        let mut it = p.iter();
        assert_eq!(PackedTrace::skip(&mut it, 5), 0);
    }

    #[test]
    fn data_base_choice_is_visible_in_the_header() {
        const STACK: u64 = 0x7fff_ffff_e000;
        const HEAP: u64 = 0x5555_5555_8000;
        // Each load's record, all at sequential PCs (no PC delta).
        let records = |addrs: &[u64]| {
            let mut b = PackedTraceBuilder::new("hdr");
            let mut out = Vec::new();
            for (pc, &a) in (0..).step_by(4).zip(addrs) {
                let at = b.bytes.len();
                b.push(Instr::load(Addr::new(pc), Addr::new(a)));
                out.push(b.bytes[at..].to_vec());
            }
            out
        };
        // Both bases start at 0: a tie goes to base 0.
        assert_eq!(records(&[0]), [vec![OP_LOAD | FLAG_DATA_SAME]]);
        assert_eq!(records(&[5]), [vec![OP_LOAD, 10]]);
        // Stack, heap (a far jump: the stack moves to base 1), stack
        // again: equal to base 1, so no delta follows.
        let r = records(&[STACK, HEAP, STACK, STACK + 8, HEAP + 16]);
        assert_eq!(r[2], [OP_LOAD | FLAG_DATA_BASE1 | FLAG_DATA_SAME]);
        assert_eq!(r[3], [OP_LOAD, 16]);
        assert_eq!(r[4], [OP_LOAD | FLAG_DATA_BASE1, 32]);
    }

    #[test]
    fn a_far_delta_starts_where_the_region_ends() {
        // Zigzag 2^24 - 1 (delta -8 MiB) stays in base 0's region and
        // leaves base 1 alone; zigzag 2^24 (delta +8 MiB) moves base 0
        // into base 1.
        let mut near = DataBases([1 << 30, 7]);
        let (base1, z) = near.choose((1 << 30) - (1 << 23));
        assert_eq!((base1, z), (false, FAR_DATA_DELTA - 1));
        near.advance(base1, z);
        assert_eq!(near, DataBases([(1 << 30) - (1 << 23), 7]));
        let mut far = DataBases([1 << 30, 7]);
        let (base1, z) = far.choose((1 << 30) + (1 << 23));
        assert_eq!((base1, z), (false, FAR_DATA_DELTA));
        far.advance(base1, z);
        assert_eq!(far, DataBases([(1 << 30) + (1 << 23), 1 << 30]));
    }

    #[test]
    fn a_same_region_jump_keeps_the_other_base() {
        const STACK: u64 = 0x7fff_ffff_e000;
        const HEAP: u64 = 0x5555_5555_8000;
        // Heap jumps with zigzag deltas from 2^14 up to just under
        // 2^24 (8 KiB to 8 MiB) stay in the heap's region, so the
        // stack keeps base 1 and comes back as a bare header.
        for jump in [8192, 1 << 16, (1 << 23) - 1] {
            let mut bases = DataBases::default();
            for addr in [STACK, HEAP, HEAP + jump] {
                let (base1, z) = bases.choose(addr);
                bases.advance(base1, z);
            }
            assert_eq!(bases, DataBases([HEAP + jump, STACK]), "jump {jump}");
            assert_eq!(bases.choose(STACK), (true, 0), "jump {jump}");
        }
    }

    /// The sealed payload of `instrs`, after checking that it decodes
    /// back to `instrs`.
    fn payload(instrs: &[Instr]) -> Vec<u8> {
        let p = PackedTrace::from_instrs("fold", instrs.iter().copied());
        assert!(p.iter().eq(instrs.iter().copied()));
        p.bytes
    }

    /// `n` sequential ALUs from `pc`.
    fn alus(pc: u64, n: u64) -> impl Iterator<Item = Instr> {
        (0..n).map(move |k| Instr::alu(Addr::new(pc + 4 * k)))
    }

    /// The payload of `n` sequential ALUs from PC 0 followed by `last`.
    fn after_alus(n: u64, last: Instr) -> Vec<u8> {
        payload(&alus(0, n).chain([last]).collect::<Vec<_>>())
    }

    #[test]
    fn up_to_three_alus_fold_into_a_load_or_store() {
        let load = |n: u64| Instr::load(Addr::new(4 * n), Addr::new(0));
        let store = |n: u64| Instr::store(Addr::new(4 * n), Addr::new(0));
        assert_eq!(after_alus(1, load(1)), [OP_LOAD | FLAG_DATA_SAME | 1 << 6]);
        assert_eq!(after_alus(3, load(3)), [OP_LOAD | FLAG_DATA_SAME | 3 << 6]);
        assert_eq!(
            after_alus(3, store(3)),
            [OP_STORE | FLAG_DATA_SAME | 3 << 6]
        );
        assert_eq!(
            after_alus(4, load(4)),
            [OP_ALU_RUN | 4 << RUN_SHIFT, OP_LOAD | FLAG_DATA_SAME]
        );
    }

    #[test]
    fn up_to_fifteen_alus_fold_into_an_alu_or_long_alu() {
        let long = |n: u64| Instr::long_alu(Addr::new(4 * n));
        assert_eq!(after_alus(15, long(15)), [OP_LONG_ALU | 15 << 4]);
        assert_eq!(
            after_alus(16, long(16)),
            [OP_ALU_RUN | 16 << RUN_SHIFT, OP_LONG_ALU]
        );
        // A plain ALU is a record of its own only off the expected PC;
        // its PC delta is coded against the PC after the folded run.
        let jump = Instr::alu(Addr::new(0x1000));
        let pc_delta = |expect: i64| {
            let mut v = Vec::new();
            write_varint(&mut v, zigzag(0x1000 - expect));
            v
        };
        assert_eq!(
            after_alus(15, jump),
            [vec![OP_ALU | FLAG_PC | 15 << 4], pc_delta(60)].concat()
        );
        assert_eq!(
            after_alus(16, jump),
            [
                vec![OP_ALU_RUN | 16 << RUN_SHIFT, OP_ALU | FLAG_PC],
                pc_delta(64)
            ]
            .concat()
        );
    }

    #[test]
    fn a_branch_never_takes_a_fold() {
        let branch = Instr::branch(Addr::new(4), Addr::new(0), true, BranchClass::Direct);
        assert_eq!(
            payload(&[Instr::alu(Addr::new(0)), branch]),
            [
                OP_ALU_RUN | 1 << RUN_SHIFT,
                OP_BRANCH | FLAG_TAKEN | 1 << CLASS_SHIFT,
                zigzag(-4) as u8
            ]
        );
    }

    #[test]
    fn no_fold_spans_a_skip_index_entry_or_an_asid_switch() {
        // Two ALUs around the first entry before a load: the one
        // before the entry stands alone, the one after it folds.
        let at = |k: u64| Addr::new(4 * k);
        let before = SKIP_STRIDE - 1;
        let mut instrs: Vec<Instr> = (0..before).map(|k| Instr::load(at(k), at(0))).collect();
        instrs.extend(alus(4 * before, 2));
        instrs.push(Instr::load(at(before + 2), at(0)));
        let p = PackedTrace::from_instrs("entry", instrs.clone());
        assert!(p.iter().eq(instrs.iter().copied()));
        let entry = p.index[1].byte_pos as usize;
        assert_eq!(
            p.bytes[entry - 1..],
            [
                OP_ALU_RUN | 1 << RUN_SHIFT,
                OP_LOAD | FLAG_DATA_SAME | 1 << 6
            ]
        );
        // An ALU run before an ASID switch stands alone.
        let switched = Instr::load(at(1), Addr::new(0)).with_asid(Asid::new(1));
        assert_eq!(
            payload(&[Instr::alu(at(0)), switched]),
            [
                OP_ALU_RUN | 1 << RUN_SHIFT,
                OP_ASID,
                1,
                OP_LOAD | FLAG_DATA_SAME
            ]
        );
    }

    #[test]
    fn skip_lands_inside_a_folded_run_and_on_its_held_record() {
        // Load, three folded ALUs, load, a 15-ALU fold into a long ALU,
        // and a trailing standalone run.
        let at = |k: u64| Addr::new(4 * k);
        let mut instrs = vec![Instr::load(at(0), Addr::new(8))];
        instrs.extend(alus(4, 3));
        instrs.push(Instr::load(at(4), Addr::new(16)));
        instrs.extend(alus(4 * 5, 15));
        instrs.push(Instr::long_alu(at(20)));
        instrs.extend(alus(4 * 21, 2));
        let p = PackedTrace::from_instrs("held", instrs.clone());
        assert_eq!(p.payload_bytes(), 6);
        // From a fresh cursor, and from one that holds the first folded
        // record with one ALU of its run skipped, every target resumes
        // exactly where a walk would.
        for pre in [0, 2] {
            for n in 0..=instrs.len() as u64 - pre {
                let mut it = p.iter();
                assert_eq!(PackedTrace::skip(&mut it, pre), pre);
                assert_eq!(PackedTrace::skip(&mut it, n), n);
                let from = (pre + n) as usize;
                assert!(it.eq(instrs[from..].iter().copied()), "skip({pre}+{n})");
            }
        }
        // The same block repeated over several strides: a cursor in a
        // folded run or on its held record skips through the index.
        let block = instrs.len() as u64;
        let reps = 3 * SKIP_STRIDE / block;
        let long: Vec<Instr> = (0..reps * block)
            .map(|k| {
                let i = instrs[(k % block) as usize];
                let pc = Addr::new(i.pc().raw() + k / block * 4 * block);
                match i.kind {
                    InstrKind::Load { addr } => Instr::load(pc, addr),
                    InstrKind::LongAlu => Instr::long_alu(pc),
                    _ => Instr::alu(pc),
                }
            })
            .collect();
        let p = PackedTrace::from_instrs("held-long", long.clone());
        for pre in 0..block {
            let mut it = p.iter();
            it.by_ref().take(pre as usize).for_each(drop);
            assert_eq!(PackedTrace::skip(&mut it, SKIP_STRIDE + 1), SKIP_STRIDE + 1);
            let from = (pre + SKIP_STRIDE + 1) as usize;
            assert!(it.eq(long[from..].iter().copied()), "walk({pre}) then skip");
        }
    }

    /// Data addresses built to stress base selection: two far regions
    /// visited in turn, addresses next to 0 and `u64::MAX` (wrapping
    /// deltas), deltas at the 2^24 zigzag boundary, repeats of either
    /// base, and arbitrary words.
    fn adversarial_addrs(ops: &[(u8, u64)]) -> Vec<u64> {
        let (mut last, mut before) = (0u64, 0u64);
        let mut out = Vec::with_capacity(ops.len());
        for &(shape, w) in ops {
            let addr = match shape % 6 {
                0 => 0x7fff_ffff_0000 + (w % 4096) * 8,
                1 => 0x5555_5555_0000 + (w % 4096) * 8,
                2 if w & 1 == 0 => w % 64,
                2 => u64::MAX - w % 64,
                3 => {
                    const EDGE: i64 = 1 << 23;
                    let d =
                        [EDGE - 1, EDGE, EDGE + 1, 1 - EDGE, -EDGE, -1 - EDGE][(w % 6) as usize];
                    last.wrapping_add(d as u64)
                }
                4 if w & 1 == 0 => last,
                4 => before,
                _ => w,
            };
            (before, last) = (last, addr);
            out.push(addr);
        }
        out
    }

    proptest! {
        #[test]
        fn adversarial_data_addresses_round_trip_and_skip_exactly(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..2500),
        ) {
            // Up to 7 ALU instructions after each access spread the
            // accesses over several skip-index strides.
            let mut instrs = Vec::new();
            let mut pc = 0x40_0000u64;
            for (&(_, w), addr) in ops.iter().zip(adversarial_addrs(&ops)) {
                let at = Addr::new(pc);
                instrs.push(if w >> 63 == 0 {
                    Instr::load(at, Addr::new(addr))
                } else {
                    Instr::store(at, Addr::new(addr))
                });
                pc += 4;
                for _ in 0..(w >> 60) & 7 {
                    instrs.push(Instr::alu(Addr::new(pc)));
                    pc += 4;
                }
            }
            let p = PackedTrace::from_instrs("adversarial", instrs.clone());
            prop_assert!(p.iter().eq(instrs.iter().copied()));
            for entry in 0..p.index.len() as u64 {
                for target in [entry * SKIP_STRIDE, entry * SKIP_STRIDE + 1 + ops[0].1 % 97] {
                    let target = target.min(p.len());
                    let mut fast = p.iter();
                    prop_assert_eq!(PackedTrace::skip(&mut fast, target), target);
                    prop_assert!(
                        fast.eq(instrs[target as usize..].iter().copied()),
                        "skip({}) diverged from the walk", target
                    );
                }
            }
        }
    }

    #[test]
    fn skip_to_end_is_stride_bounded_when_len_is_a_stride_multiple() {
        // Regression: len = k*SKIP_STRIDE has no snapshot at the end
        // bucket; the skip must clamp to the last entry instead of
        // decoding the whole trace from the cursor position.
        let instrs = mixed_instrs(2 * SKIP_STRIDE, 47, 0);
        let p = PackedTrace::from_instrs("edge", instrs.clone());
        let mut it = p.iter();
        assert_eq!(PackedTrace::skip(&mut it, 2 * SKIP_STRIDE), 2 * SKIP_STRIDE);
        assert_eq!(it.next(), None);
        // And to one-before-end.
        let mut it = p.iter();
        assert_eq!(
            PackedTrace::skip(&mut it, 2 * SKIP_STRIDE - 1),
            2 * SKIP_STRIDE - 1
        );
        assert_eq!(it.next(), Some(instrs[instrs.len() - 1]));
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 4096, -4096, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut pos)), v);
            assert_eq!(pos, buf.len());
        }
    }
}
