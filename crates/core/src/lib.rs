//! ACIC — the Admission-Controlled Instruction Cache (HPCA 2023).
//!
//! This crate implements the paper's contribution:
//!
//! * [`IFilter`] — a 16-entry fully-associative buffer that absorbs
//!   the spatial / short-term-temporal *burst* of accesses to an
//!   instruction block (§II).
//! * [`TwoLevelPredictor`] — the HRT + PT admission predictor (§III-A):
//!   a 1024-entry History Register Table of 4-bit comparison histories
//!   indexed by a hash of the block's partial tag, and a 16-entry
//!   Pattern Table of 5-bit saturating counters indexed by the history
//!   pattern, with optional pipelined (2-cycle + update-queue) training
//!   (§III-C2).
//! * [`Cshr`] — Comparison Status Holding Registers (§III-B): a
//!   256-entry, 8-set x 32-way structure of (i-Filter victim,
//!   i-cache contender) partial-tag pairs whose resolution — which
//!   block gets fetched again first — trains the predictor.
//! * [`AcicIcache`] — the composed organization implementing
//!   [`acic_cache::IcacheContents`], including the ablation variants of
//!   Figure 17 (no filter, filter-only, global-history predictor,
//!   bimodal predictor) and the oracle-instrumented accuracy
//!   accounting of Figure 12a.
//!
//! # Examples
//!
//! ```
//! use acic_cache::{AccessCtx, IcacheContents};
//! use acic_core::{AcicConfig, AcicIcache};
//! use acic_types::BlockAddr;
//!
//! let mut icache = AcicIcache::new(AcicConfig::default());
//! let ctx = AccessCtx::demand(BlockAddr::new(7), 0);
//! assert!(!icache.access(&ctx).hit);
//! icache.fill(&ctx); // lands in the i-Filter first
//! assert!(icache.access(&AccessCtx::demand(BlockAddr::new(7), 1)).hit);
//! ```

pub mod acic;
pub mod config;
pub mod cshr;
pub mod filter;
pub mod filtered;
pub mod predictor;

pub use acic::{AcicIcache, AcicStats};
pub use config::{AcicConfig, PredictorKind, UpdateMode};
pub use cshr::{Cshr, CshrStats, Resolution, ResolutionBuf, UnboundedCshr};
pub use filter::IFilter;
pub use filtered::FilteredIcache;
pub use predictor::{AdmissionPredictor, TwoLevelPredictor};

/// Computes the `tag_bits`-bit partial tag of a block identity
/// (§III-C1: CSHR stores 12-bit partial tags, and the HRT is indexed
/// by hashing the partial tag).
///
/// The hash covers the ASID-tagged identity, so admission learning is
/// per-tenant: two tenants' overlapping virtual addresses train
/// separate HRT histories. For the host space (ASID 0) the tag equals
/// the pre-ASID value bit for bit.
#[inline]
pub fn partial_tag(block: acic_types::TaggedBlock, tag_bits: u32) -> u16 {
    acic_types::hash::fold(acic_types::hash::mix64(block.ident()), tag_bits) as u16
}
