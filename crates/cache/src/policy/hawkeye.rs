//! Hawkeye / Harmony — Belady-trained replacement (Jain & Lin, ISCA
//! 2016/2018), with the paper's parameters: 64-entry occupancy
//! vectors, an 8K-entry predictor of 3-bit counters, 3-bit RRIP
//! (Table IV).
//!
//! Hawkeye reconstructs what Belady's OPT *would have done* on sampled
//! sets (OPTgen) and trains a predictor: signatures whose accesses OPT
//! would have kept are cache-friendly, others cache-averse. Harmony is
//! the prefetch-aware variant: prefetch and demand accesses train
//! separate signatures so prefetched-but-dead blocks don't pollute the
//! demand signature.
//!
//! Adaptation note: as with SHiP and GHRP, the fetch stream has no
//! load PC, so signatures are hashes of the block address (plus a
//! prefetch bit in Harmony mode).
//!
//! # Hot-path layout
//!
//! The OPTgen sampler used to live in a `HashMap<usize, SampledSet>`
//! keyed by set index, each set holding a `VecDeque` occupancy vector
//! and a `HashMap` of last-access times. All three are flat now:
//! sampled sets sit in a dense `Vec` indexed by `set / stride`, the
//! occupancy vector is a fixed ring, and last-access times live in a
//! small open-addressed table ([`BlockTimeMap`]) with exact-key
//! semantics — behaviorally identical to the map it replaces. The
//! map/deque sampler survives only as a test oracle in this module's
//! `tests`, where equivalence proptests pin the sampler and
//! [`BlockTimeMap`] to their map-backed references.

use crate::ctx::AccessCtx;
use crate::geometry::CacheGeometry;
use crate::policy::ReplacementPolicy;
use acic_types::hash::{fold, mix64};
use acic_types::{SatCounter, TaggedBlock};

/// Occupancy-vector window length (Table IV: 64 entries).
const WINDOW: usize = 64;
/// Predictor entries (8K, Table IV).
const PREDICTOR_ENTRIES: usize = 8192;
/// RRIP width (3-bit, Table IV).
const RRPV_BITS: u32 = 3;
const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;

/// Sentinel for an empty [`BlockTimeMap`] slot (unreachable by real
/// identities; see the tag store's encoding argument).
const EMPTY_IDENT: u64 = u64::MAX;

/// Open-addressed (block -> last access time, signature) table with
/// exact-key semantics — a drop-in for the sampler's former
/// `HashMap<TaggedBlock, (u64, u16)>`. Sized so the sampler's trim
/// bound (`4 * WINDOW` entries plus the one being inserted) keeps the
/// load factor near 25%; deletion happens only through wholesale
/// [`BlockTimeMap::trim`] rebuilds, so probing never meets tombstones.
#[derive(Debug, Clone)]
pub struct BlockTimeMap {
    ids: Vec<u64>,
    asids: Vec<u16>,
    times: Vec<u64>,
    sigs: Vec<u16>,
    mask: usize,
    len: usize,
}

impl BlockTimeMap {
    /// Slot count: next power of two comfortably above the sampler's
    /// maximum occupancy (`4 * WINDOW + 1`).
    const SLOTS: usize = 1024;

    /// The sampler trims at `4 * WINDOW` entries and the insert guard
    /// fires at half the table; tie the two at compile time so a
    /// larger `WINDOW` cannot silently turn into a runtime panic.
    const _SLOTS_COVER_TRIM_BOUND: () = assert!(4 * WINDOW < Self::SLOTS / 2);

    /// Creates an empty map.
    pub fn new() -> Self {
        BlockTimeMap {
            ids: vec![EMPTY_IDENT; Self::SLOTS],
            asids: vec![0; Self::SLOTS],
            times: vec![0; Self::SLOTS],
            sigs: vec![0; Self::SLOTS],
            mask: Self::SLOTS - 1,
            len: 0,
        }
    }

    #[inline]
    fn probe(&self, id: u64, asid: u16) -> (usize, bool) {
        let mut slot = mix64(id) as usize & self.mask;
        loop {
            if self.ids[slot] == EMPTY_IDENT {
                return (slot, false);
            }
            if self.ids[slot] == id && self.asids[slot] == asid {
                return (slot, true);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Last access time and signature recorded for `block`.
    #[inline]
    pub fn get(&self, block: TaggedBlock) -> Option<(u64, u16)> {
        let (slot, found) = self.probe(block.ident(), block.asid.raw());
        found.then(|| (self.times[slot], self.sigs[slot]))
    }

    /// Records `block`'s access time and signature.
    ///
    /// # Panics
    ///
    /// Panics if the caller exceeds the sampler's trim bound (the
    /// sampler trims at `4 * WINDOW` entries, far below capacity).
    pub fn insert(&mut self, block: TaggedBlock, time: u64, sig: u16) {
        let id = block.ident();
        let asid = block.asid.raw();
        let (slot, found) = self.probe(id, asid);
        if !found {
            assert!(self.len < Self::SLOTS / 2, "BlockTimeMap over-filled");
            self.ids[slot] = id;
            self.asids[slot] = asid;
            self.len += 1;
        }
        self.times[slot] = time;
        self.sigs[slot] = sig;
    }

    /// Number of blocks tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every entry with time below `cutoff` (the sampler's lazy
    /// staleness trim), rebuilding the table in place: survivors
    /// (bounded by the trim threshold, far fewer than the slot count)
    /// move through a small scratch buffer and the existing lanes are
    /// reused — no slot-array reallocation.
    pub fn trim(&mut self, cutoff: u64) {
        let mut survivors: Vec<(u64, u16, u64, u16)> = Vec::with_capacity(self.len);
        for i in 0..self.ids.len() {
            if self.ids[i] != EMPTY_IDENT && self.times[i] >= cutoff {
                survivors.push((self.ids[i], self.asids[i], self.times[i], self.sigs[i]));
            }
        }
        self.ids.fill(EMPTY_IDENT);
        self.len = survivors.len();
        for &(id, asid, time, sig) in &survivors {
            let (slot, _) = self.probe(id, asid);
            self.ids[slot] = id;
            self.asids[slot] = asid;
            self.times[slot] = time;
            self.sigs[slot] = sig;
        }
    }
}

impl Default for BlockTimeMap {
    fn default() -> Self {
        BlockTimeMap::new()
    }
}

/// One sampled set's OPTgen state, all-flat: a fixed ring for the
/// occupancy vector and a [`BlockTimeMap`] for last-access times.
#[derive(Debug, Clone)]
pub struct SampledSet {
    /// Occupancy ring; logical index 0 is the oldest quantum.
    occ: [u8; WINDOW + 1],
    occ_start: usize,
    occ_len: usize,
    /// Set-local logical time of the next access.
    time: u64,
    /// Block identity -> (last access time, signature used at that
    /// access). Keyed by tagged identity so tenants' overlapping VAs
    /// never merge OPTgen generations.
    last: BlockTimeMap,
}

impl Default for SampledSet {
    fn default() -> Self {
        SampledSet::new()
    }
}

impl SampledSet {
    /// Creates an empty sampled set.
    pub fn new() -> Self {
        SampledSet {
            occ: [0; WINDOW + 1],
            occ_start: 0,
            occ_len: 0,
            time: 0,
            last: BlockTimeMap::new(),
        }
    }

    #[inline]
    fn occ_idx(&self, logical: usize) -> usize {
        (self.occ_start + logical) % (WINDOW + 1)
    }

    /// Occupancy-vector length (test hook).
    pub fn occ_len(&self) -> usize {
        self.occ_len
    }

    /// Tracked-block count (test hook).
    pub fn last_len(&self) -> usize {
        self.last.len()
    }

    /// Runs one OPTgen access for `block` with signature `sig`;
    /// returns the (signature, cache-friendly) training outcome, if
    /// this access closed a reuse interval inside the window.
    pub fn optgen_step(&mut self, block: TaggedBlock, sig: u16, ways: u8) -> Option<(u16, bool)> {
        let now = self.time;
        self.time += 1;

        let mut train: Option<(u16, bool)> = None;
        if let Some((t_prev, prev_sig)) = self.last.get(block) {
            let window_start = now.saturating_sub(self.occ_len as u64);
            if t_prev >= window_start {
                let start = (t_prev - window_start) as usize;
                let fits = (start..self.occ_len).all(|i| self.occ[self.occ_idx(i)] < ways);
                if fits {
                    for i in start..self.occ_len {
                        self.occ[self.occ_idx(i)] += 1;
                    }
                }
                train = Some((prev_sig, fits));
            }
        }
        self.last.insert(block, now, sig);
        // push_back(0)
        let tail = self.occ_idx(self.occ_len);
        self.occ[tail] = 0;
        self.occ_len += 1;
        if self.occ_len > WINDOW {
            // pop_front
            self.occ_start = (self.occ_start + 1) % (WINDOW + 1);
            self.occ_len -= 1;
            // Lazily trim stale block entries to bound memory.
            if self.last.len() > 4 * WINDOW {
                let cutoff = now.saturating_sub(WINDOW as u64);
                self.last.trim(cutoff);
            }
        }
        train
    }
}

/// Per-line replacement metadata.
#[derive(Clone, Copy, Debug, Default)]
struct LineMeta {
    rrpv: u8,
    signature: u16,
    friendly: bool,
}

/// Hawkeye (or Harmony when `prefetch_aware`) replacement policy.
#[derive(Debug)]
pub struct HawkeyePolicy {
    ways: usize,
    sample_mask: usize,
    prefetch_aware: bool,
    lines: Vec<LineMeta>,
    predictor: Vec<SatCounter>,
    /// Dense sampler array: sampled set `s` (where
    /// `s % sample_mask == 0`) lives at index `s / sample_mask`.
    sampled: Vec<SampledSet>,
}

impl HawkeyePolicy {
    /// Creates Hawkeye state; `prefetch_aware` selects Harmony.
    pub fn new(geom: CacheGeometry, prefetch_aware: bool) -> Self {
        // Sample roughly one in eight sets (at least one).
        let stride = (geom.sets() / 8).max(1);
        let sampled_sets = (geom.sets().saturating_sub(1)) / stride + 1;
        HawkeyePolicy {
            ways: geom.ways(),
            sample_mask: stride,
            prefetch_aware,
            lines: vec![LineMeta::default(); geom.lines()],
            predictor: vec![SatCounter::new(3, 4); PREDICTOR_ENTRIES],
            sampled: vec![SampledSet::new(); sampled_sets],
        }
    }

    fn signature(&self, block: TaggedBlock, is_prefetch: bool) -> u16 {
        let hashed = if self.prefetch_aware && is_prefetch {
            mix64(block.ident()) ^ 0x5bd1_e995
        } else {
            mix64(block.ident())
        };
        fold(hashed, 13) as u16
    }

    #[inline]
    fn is_sampled(&self, set: usize) -> bool {
        set.is_multiple_of(self.sample_mask)
    }

    fn predict_friendly(&self, sig: u16) -> bool {
        self.predictor[sig as usize % PREDICTOR_ENTRIES].is_high()
    }

    fn train(&mut self, sig: u16, friendly: bool) {
        self.predictor[sig as usize % PREDICTOR_ENTRIES].update(friendly);
    }

    /// Runs OPTgen for one access to a sampled set; trains the
    /// predictor with what OPT would have done.
    fn optgen_access(&mut self, set: usize, ctx: &AccessCtx<'_>) {
        let ways = self.ways as u8;
        let sig = self.signature(ctx.tagged(), ctx.is_prefetch);
        let entry = &mut self.sampled[set / self.sample_mask];
        if let Some((sig, friendly)) = entry.optgen_step(ctx.tagged(), sig, ways) {
            self.train(sig, friendly);
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for HawkeyePolicy {
    fn name(&self) -> &'static str {
        if self.prefetch_aware {
            "harmony"
        } else {
            "hawkeye"
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        if self.is_sampled(set) {
            self.optgen_access(set, ctx);
        }
        let sig = self.signature(ctx.tagged(), ctx.is_prefetch);
        let friendly = self.predict_friendly(sig);
        let i = self.idx(set, way);
        self.lines[i].signature = sig;
        self.lines[i].friendly = friendly;
        // Hits always promote: a line being used is not dead, whatever
        // the predictor thought at fill time.
        self.lines[i].rrpv = 0;
    }

    fn on_miss(&mut self, set: usize, ctx: &AccessCtx<'_>) {
        if self.is_sampled(set) {
            self.optgen_access(set, ctx);
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx<'_>) {
        let sig = self.signature(ctx.tagged(), ctx.is_prefetch);
        let friendly = self.predict_friendly(sig);
        let i = self.idx(set, way);
        if friendly {
            // Age other friendly lines so older friendly blocks become
            // eviction candidates before newer ones.
            let base = self.idx(set, 0);
            for w in 0..self.ways {
                let l = &mut self.lines[base + w];
                if w != way && l.friendly && l.rrpv < RRPV_MAX - 1 {
                    l.rrpv += 1;
                }
            }
        }
        self.lines[i] = LineMeta {
            rrpv: if friendly { 0 } else { RRPV_MAX },
            signature: sig,
            friendly,
        };
    }

    fn on_evict(&mut self, set: usize, way: usize, _block: TaggedBlock, _ctx: &AccessCtx<'_>) {
        // Detrain: evicting a cache-friendly line means the predictor
        // overpromised — OPT would not have kept it around.
        let i = self.idx(set, way);
        if self.lines[i].friendly {
            let sig = self.lines[i].signature;
            self.train(sig, false);
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.lines[i] = LineMeta {
            rrpv: RRPV_MAX,
            ..LineMeta::default()
        };
    }

    fn victim_way(&mut self, set: usize, blocks: &[TaggedBlock], ctx: &AccessCtx<'_>) -> usize {
        self.peek_victim(set, blocks, ctx)
    }

    fn peek_victim(&self, set: usize, _blocks: &[TaggedBlock], _ctx: &AccessCtx<'_>) -> usize {
        let base = set * self.ways;
        // Prefer a cache-averse line (RRPV max), else the oldest
        // friendly line (highest RRPV).
        self.lines[base..base + self.ways]
            .iter()
            .enumerate()
            .max_by_key(|&(i, l)| (l.rrpv, usize::MAX - i))
            .map(|(i, _)| i)
            .expect("at least one way")
    }

    fn wants_victim_blocks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use acic_types::{Asid, BlockAddr};
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn optgen_trains_friendly_on_short_reuse() {
        let geom = CacheGeometry::from_sets_ways(1, 4);
        let mut p = HawkeyePolicy::new(geom, false);
        // Repeated accesses to the same block in a sampled set: OPT
        // would always hit -> signature becomes friendly.
        for i in 0..20 {
            p.on_miss(0, &ctx(8, i));
        }
        let sig = p.signature(tb(8), false);
        assert!(p.predictor[sig as usize % PREDICTOR_ENTRIES].value() >= 4);
    }

    #[test]
    fn optgen_trains_averse_on_overflow() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = HawkeyePolicy::new(geom, false);
        // Stream many distinct blocks then revisit: occupancy full ->
        // averse. Blocks all map to set 0 (1 set).
        for round in 0..6u64 {
            for b in 0..8u64 {
                p.on_miss(0, &ctx(b, round * 8 + b));
            }
        }
        let sig = p.signature(tb(3), false);
        assert!(
            p.predictor[sig as usize % PREDICTOR_ENTRIES].value() < 4,
            "streaming signature should be averse"
        );
    }

    #[test]
    fn averse_fills_are_evicted_first() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = HawkeyePolicy::new(geom, false);
        // Make block 5's signature averse manually.
        let sig5 = p.signature(tb(5), false);
        p.predictor[sig5 as usize % PREDICTOR_ENTRIES].set(0);
        let mut c = SetAssocCache::new(geom, p);
        c.fill(&ctx(1, 0));
        c.fill(&ctx(5, 1));
        let evicted = c.fill(&ctx(9, 2));
        assert_eq!(evicted, Some(tb(5)));
    }

    #[test]
    fn harmony_separates_prefetch_signatures() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let p = HawkeyePolicy::new(geom, true);
        let b = tb(77);
        assert_ne!(p.signature(b, false), p.signature(b, true));
        let p = HawkeyePolicy::new(geom, false);
        assert_eq!(p.signature(b, false), p.signature(b, true));
    }

    #[test]
    fn occupancy_window_is_bounded() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut p = HawkeyePolicy::new(geom, false);
        for i in 0..1000u64 {
            p.on_miss(0, &ctx(i % 100, i));
        }
        let s = &p.sampled[0];
        assert!(s.occ_len() <= WINDOW);
        assert!(s.last_len() <= 4 * WINDOW + 1);
    }

    #[test]
    fn sampler_matches_legacy_on_a_dense_sequence() {
        // Deterministic spot-check of the proptest pin: the flat
        // sampler must emit the exact training sequence of the
        // map/deque one.
        let mut flat = SampledSet::new();
        let mut legacy = LegacySampledSet::default();
        let mut seq = 0u64;
        for i in 0..2000u64 {
            seq = seq.wrapping_mul(6364136223846793005).wrapping_add(i);
            let b = tb(seq % 90);
            let sig = (seq % 512) as u16;
            assert_eq!(
                flat.optgen_step(b, sig, 2),
                legacy.optgen_step(b, sig, 2),
                "step {i}"
            );
        }
    }

    #[test]
    fn block_time_map_trim_drops_stale_entries() {
        let mut m = BlockTimeMap::new();
        for t in 0..10u64 {
            m.insert(tb(t), t, t as u16);
        }
        m.trim(5);
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(tb(9)), Some((9, 9)));
        assert_eq!(m.get(tb(1)), None);
    }

    /// The original map/deque-backed sampled set, retained as the
    /// behavioral reference for [`SampledSet`] (equivalence-pinned by
    /// `flat_hawkeye_sampler_matches_legacy`).
    #[derive(Debug, Default)]
    struct LegacySampledSet {
        occupancy: VecDeque<u8>,
        time: u64,
        last: HashMap<TaggedBlock, (u64, u16)>,
    }

    impl LegacySampledSet {
        /// Runs one OPTgen access (same contract as
        /// [`SampledSet::optgen_step`]).
        fn optgen_step(&mut self, block: TaggedBlock, sig: u16, ways: u8) -> Option<(u16, bool)> {
            let now = self.time;
            self.time += 1;

            let mut train: Option<(u16, bool)> = None;
            if let Some(&(t_prev, prev_sig)) = self.last.get(&block) {
                let window_start = now.saturating_sub(self.occupancy.len() as u64);
                if t_prev >= window_start {
                    let start = (t_prev - window_start) as usize;
                    let fits = self.occupancy.iter().skip(start).all(|&o| o < ways);
                    if fits {
                        for o in self.occupancy.iter_mut().skip(start) {
                            *o += 1;
                        }
                    }
                    train = Some((prev_sig, fits));
                }
            }
            self.last.insert(block, (now, sig));
            self.occupancy.push_back(0);
            if self.occupancy.len() > WINDOW {
                self.occupancy.pop_front();
                if self.last.len() > 4 * WINDOW {
                    let cutoff = now.saturating_sub(WINDOW as u64);
                    self.last.retain(|_, &mut (t, _)| t >= cutoff);
                }
            }
            train
        }
    }

    proptest! {
        #[test]
        fn flat_hawkeye_sampler_matches_legacy(
            ways in 1u8..=8,
            ops in proptest::collection::vec((0u64..96, 0u16..3, 0u16..512), 1..600),
        ) {
            let mut flat = SampledSet::default();
            let mut legacy = LegacySampledSet::default();
            for (i, &(block, asid, sig)) in ops.iter().enumerate() {
                let b = BlockAddr::new(block).with_asid(Asid::new(asid));
                prop_assert_eq!(
                    flat.optgen_step(b, sig, ways),
                    legacy.optgen_step(b, sig, ways),
                    "optgen step {} diverged", i
                );
            }
        }

        #[test]
        fn block_time_map_matches_hashmap(
            ops in proptest::collection::vec((0u64..64, 0u64..1000, 0u16..512, any::<bool>()), 1..300),
            cutoff in 0u64..1000,
        ) {
            let mut flat = BlockTimeMap::new();
            let mut reference: HashMap<TaggedBlock, (u64, u16)> = HashMap::new();
            for &(block, time, sig, trim) in &ops {
                let b = TaggedBlock::untagged(BlockAddr::new(block));
                flat.insert(b, time, sig);
                reference.insert(b, (time, sig));
                if trim {
                    flat.trim(cutoff);
                    reference.retain(|_, &mut (t, _)| t >= cutoff);
                }
                prop_assert_eq!(flat.len(), reference.len());
                prop_assert_eq!(flat.get(b), reference.get(&b).copied());
            }
            for (&b, &v) in &reference {
                prop_assert_eq!(flat.get(b), Some(v));
            }
        }
    }
}
