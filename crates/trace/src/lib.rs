//! Instruction traces and the offline analyses the paper builds on.
//!
//! The paper drives a cycle-level simulator with full-system
//! instruction traces and motivates ACIC with reuse-distance analyses
//! (Figures 1a, 1b, 3b) and an oracle that knows each block's next use
//! (OPT replacement, OPT bypass, and the bypass-accuracy studies). This
//! crate provides all of that machinery:
//!
//! * [`Instr`] / [`InstrKind`] — the trace record.
//! * [`TraceSource`] — a resettable, deterministic stream of
//!   instructions (synthetic workloads implement this).
//! * [`PackedTrace`] — the frozen form of any source: an in-memory
//!   delta/RLE byte arena with a skip index, replayed zero-copy and
//!   bit-identically by any number of consumers.
//! * [`BlockRuns`] — groups consecutive same-block instructions into
//!   i-cache accesses, the granularity every cache model operates on.
//! * [`StackDistanceAnalyzer`] — exact LRU stack distances over block
//!   accesses (the paper's definition of reuse distance, footnote 1).
//! * [`ReuseBucket`] / [`MarkovChain`] — the bucketed histogram and
//!   transition matrix of Figure 1.
//! * [`ReuseOracle`] — a two-pass oracle giving, at any point in the
//!   trace, the next-use position and forward stack distance of any
//!   block; this powers Belady's OPT, OPT-bypass, and Figures 3b/12a.
//!
//! # Examples
//!
//! ```
//! use acic_trace::{BlockRuns, Instr, TraceSource, VecTrace};
//! use acic_types::Addr;
//!
//! let instrs: Vec<Instr> = (0..32).map(|i| Instr::alu(Addr::new(i * 4))).collect();
//! let trace = VecTrace::new(instrs);
//! let runs: Vec<_> = BlockRuns::new(trace.iter()).collect();
//! assert_eq!(runs.len(), 2); // 32 four-byte instructions span two 64 B blocks
//! assert_eq!(runs[0].len, 16);
//! ```

pub mod instr;
pub mod interleave;
pub mod markov;
pub mod oracle;
pub mod packed;
pub mod runs;
pub mod source;
pub mod stack_distance;

pub use instr::{BranchClass, Instr, InstrKind};
pub use interleave::{InterleavedIter, InterleavedTrace};
pub use markov::{MarkovChain, ReuseBucket};
pub use oracle::{OracleCursor, ReuseOracle, NO_NEXT_USE};
pub use packed::{PackedCursor, PackedTrace, PackedTraceBuilder, SKIP_STRIDE};
pub use runs::{BlockRun, BlockRuns, GroupedRuns};
pub use source::{skip_instrs, TraceSource, Truncated, TruncatedIter, VecTrace};
pub use stack_distance::{ReuseHistogram, StackDistanceAnalyzer};
