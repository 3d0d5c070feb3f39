//! The memory hierarchy below the L1i: L1d, unified L2, unified L3,
//! and a bandwidth-limited DRAM channel (Table II).
//!
//! Contents are modeled exactly (LRU set-associative tag stores);
//! timing is modeled as additive hit latencies plus a DRAM channel
//! with a minimum inter-access gap. Outstanding misses are merged and
//! bounded through [`MissTracker`] (the MSHR model).

use crate::config::SimConfig;
use acic_cache::policy::PolicyKind;
use acic_cache::{AccessCtx, CacheGeometry, CacheStats, SetAssocCache};
use acic_types::{Addr, Asid, Cycle, TaggedBlock};

/// MSHR model: merges requests to the same block and bounds the
/// number outstanding.
///
/// The tracker holds at most a few dozen entries, so it is a flat list
/// of live `(ident, asid, ready)` entries scanned linearly. Expiry is
/// batched: while the current cycle stays below the earliest
/// outstanding ready time, cleanup is a single compare; once something
/// has completed, one `retain` drops every finished entry. A version
/// counter moves whenever the live set changes
/// ([`MissTracker::version_at`]). The retired `HashMap` implementation
/// survives only as a test oracle in this module's `tests`, pinned to
/// the flat list by an equivalence proptest.
///
/// # Examples
///
/// ```
/// use acic_sim::mem::MissTracker;
/// use acic_types::BlockAddr;
///
/// let mut m = MissTracker::new(2);
/// m.insert(BlockAddr::new(1), 100);
/// assert_eq!(m.lookup(BlockAddr::new(1), 50), Some(100));
/// assert!(!m.full(50));
/// m.insert(BlockAddr::new(2), 120);
/// assert!(m.full(50));
/// assert!(!m.full(110)); // entry 1 completed
/// ```
#[derive(Debug)]
pub struct MissTracker {
    capacity: usize,
    /// Outstanding `(ident, asid, ready)` entries, insertion order.
    entries: Vec<(u64, u16, Cycle)>,
    /// Lower bound on the earliest expiry among entries — while `now`
    /// stays below it, cleanup is a no-op compare.
    earliest_expiry: Cycle,
    /// Bumped by every insert and every expiry.
    version: u64,
}

impl MissTracker {
    /// Creates a tracker with `capacity` MSHRs.
    pub fn new(capacity: usize) -> Self {
        MissTracker {
            capacity,
            entries: Vec::with_capacity(capacity),
            earliest_expiry: Cycle::MAX,
            version: 0,
        }
    }

    #[inline]
    fn cleanup(&mut self, now: Cycle) {
        if now < self.earliest_expiry {
            return;
        }
        self.entries.retain(|&(_, _, ready)| ready > now);
        self.earliest_expiry = self.earliest_ready().unwrap_or(Cycle::MAX);
        self.version += 1;
    }

    #[inline]
    fn position(&self, t: TaggedBlock) -> Option<usize> {
        let (id, asid) = (t.ident(), t.asid.raw());
        self.entries
            .iter()
            .position(|&(i, a, _)| i == id && a == asid)
    }

    /// The live-set version at `now`: expires finished entries, then
    /// returns a counter that moved if any entry was inserted or
    /// removed since an earlier call. Equal versions mean every
    /// [`MissTracker::lookup`] answers the same.
    #[inline]
    pub fn version_at(&mut self, now: Cycle) -> u64 {
        self.cleanup(now);
        self.version
    }

    /// Ready time of an already-outstanding request for `block`.
    #[inline]
    pub fn lookup(&mut self, block: impl Into<TaggedBlock>, now: Cycle) -> Option<Cycle> {
        self.cleanup(now);
        let ready = self.entries[self.position(block.into())?].2;
        (ready > now).then_some(ready)
    }

    /// Whether all MSHRs are busy at `now`.
    #[inline]
    pub fn full(&mut self, now: Cycle) -> bool {
        self.cleanup(now);
        self.entries.len() >= self.capacity
    }

    /// Earliest completion among tracked requests (as of the last
    /// cleanup, every one of them is still outstanding).
    pub fn earliest_ready(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.2).min()
    }

    /// Registers an outstanding request: refreshes a tracked block's
    /// ready time in place, else appends — even past capacity (the
    /// timing model schedules such a request behind
    /// [`MissTracker::earliest_ready`] instead of retrying).
    pub fn insert(&mut self, block: impl Into<TaggedBlock>, ready: Cycle) {
        let t = block.into();
        match self.position(t) {
            Some(i) => self.entries[i].2 = ready,
            None => self.entries.push((t.ident(), t.asid.raw(), ready)),
        }
        self.earliest_expiry = self.earliest_expiry.min(ready);
        self.version += 1;
    }

    /// Outstanding request count at `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.cleanup(now);
        self.entries.len()
    }
}

/// The shared hierarchy below L1i.
pub struct MemoryHierarchy {
    l1d: SetAssocCache,
    l1d_mshr: MissTracker,
    l2: SetAssocCache,
    l3: SetAssocCache,
    dram_next_free: Cycle,
    /// Total DRAM accesses (for the energy model).
    pub dram_accesses: u64,
    /// Lines newly installed into the L3 by warmup-phase traffic.
    /// Never reported: the sampled engine reads the rate of change to
    /// decide when the hierarchy has converged and fast-forwarding
    /// becomes safe.
    pub warm_l3_fills: u64,
    seq: u64,
    l1d_hit_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    dram_latency: u64,
    dram_gap: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from the simulation config.
    pub fn new(cfg: &SimConfig) -> Self {
        let l1d_geom = CacheGeometry::l1d_48k();
        let l2_geom = CacheGeometry::l2_512k();
        let l3_geom = CacheGeometry::l3_2m();
        MemoryHierarchy {
            l1d: SetAssocCache::new(l1d_geom, PolicyKind::Lru.build(l1d_geom)),
            l1d_mshr: MissTracker::new(cfg.l1d_mshrs),
            l2: SetAssocCache::new(l2_geom, PolicyKind::Lru.build(l2_geom)),
            l3: SetAssocCache::new(l3_geom, PolicyKind::Lru.build(l3_geom)),
            dram_next_free: 0,
            dram_accesses: 0,
            warm_l3_fills: 0,
            seq: 0,
            l1d_hit_latency: cfg.l1d_hit_latency,
            l2_latency: cfg.l2_latency,
            l3_latency: cfg.l3_latency,
            dram_latency: cfg.dram_latency,
            dram_gap: cfg.dram_gap,
        }
    }

    fn next_ctx(&mut self, block: TaggedBlock) -> AccessCtx<'static> {
        self.seq += 1;
        AccessCtx::demand_tagged(block, self.seq)
    }

    /// Walks L2 -> L3 -> DRAM for `block`, updating contents, and
    /// returns the added latency beyond the L1 (excluding L1 hit
    /// latency). The unified levels are ASID-tagged too: two tenants'
    /// overlapping VAs occupy distinct L2/L3 lines.
    fn below_l1(&mut self, block: TaggedBlock, now: Cycle) -> u64 {
        let ctx = self.next_ctx(block);
        if self.l2.access(&ctx) {
            return self.l2_latency;
        }
        let ctx3 = self.next_ctx(block);
        if self.l3.access(&ctx3) {
            self.l2.fill(&ctx);
            return self.l2_latency + self.l3_latency;
        }
        // DRAM: single channel with a minimum gap.
        self.dram_accesses += 1;
        let request_at = now + self.l2_latency + self.l3_latency;
        let start = request_at.max(self.dram_next_free);
        self.dram_next_free = start + self.dram_gap;
        self.l3.fill(&ctx3);
        self.l2.fill(&ctx);
        (start - now) + self.dram_latency
    }

    /// Fetches an instruction block that missed the L1i; returns the
    /// absolute cycle at which it arrives.
    pub fn fetch_instr_block(&mut self, block: impl Into<TaggedBlock>, now: Cycle) -> Cycle {
        let block = block.into();
        now + self.below_l1(block, now)
    }

    /// Warmup-phase walk of the unified levels: updates L2/L3
    /// contents (tags, LRU state) like a real miss, but with
    /// statistics gated, no DRAM timing or bandwidth accounting, and
    /// fused probe-or-fill scans ([`SetAssocCache::warm_touch`]).
    #[inline]
    fn warm_below_l1(&mut self, block: TaggedBlock) {
        if !self.l2.warm_touch(block) && !self.l3.warm_touch(block) {
            self.warm_l3_fills += 1;
        }
    }

    /// Warmup-phase instruction fetch: warms L2/L3 contents for an
    /// L1i miss without timing or statistics.
    pub fn warm_instr_block(&mut self, block: impl Into<TaggedBlock>) {
        let block = block.into();
        self.warm_below_l1(block);
    }

    /// Warmup-phase data access: warms L1d/L2/L3 contents without
    /// MSHR or latency modeling; statistics stay gated.
    #[inline]
    pub fn warm_data(&mut self, addr: Addr, asid: Asid) {
        let block = addr.block().with_asid(asid);
        if !self.l1d.warm_touch(block) {
            self.warm_below_l1(block);
        }
    }

    /// Host-side prefetch of every tag/stamp array line the warm walk
    /// for `addr` could touch. Bulk warming issues this a few memory
    /// operations ahead of the matching [`MemoryHierarchy::warm_data`]
    /// so the simulated arrays' host-memory latency overlaps useful
    /// work instead of serializing the walk.
    #[inline]
    pub fn hint_data(&self, addr: Addr, asid: Asid) {
        let block = addr.block().with_asid(asid);
        self.l1d.prefetch_set(block);
        self.l2.prefetch_set(block);
        self.l3.prefetch_set(block);
    }

    /// Performs a data access (load or store) and returns its
    /// completion cycle. Stores complete in one cycle through the
    /// store buffer but still allocate (write-allocate policy).
    pub fn access_data(&mut self, addr: Addr, asid: Asid, now: Cycle, is_store: bool) -> Cycle {
        let block = addr.block().with_asid(asid);
        let ctx = self.next_ctx(block);
        // An in-flight miss wins over a tag hit: the line's tag is
        // installed at allocation but the data arrives at `ready`.
        let done = if let Some(ready) = self.l1d_mshr.lookup(block, now) {
            self.l1d.access(&ctx);
            ready
        } else if self.l1d.access(&ctx) {
            now + self.l1d_hit_latency
        } else {
            let start = if self.l1d_mshr.full(now) {
                self.l1d_mshr
                    .earliest_ready()
                    .expect("full tracker has entries")
                    .max(now)
            } else {
                now
            };
            let ready = start + self.l1d_hit_latency + self.below_l1(block, start);
            self.l1d_mshr.insert(block, ready);
            self.l1d.fill(&ctx);
            ready
        };
        if is_store {
            now + 1
        } else {
            done
        }
    }

    /// L1d statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        *self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        *self.l2.stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        *self.l3.stats()
    }
}

impl core::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("dram_accesses", &self.dram_accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::default())
    }

    #[test]
    fn cold_instr_fetch_goes_to_dram() {
        let mut h = hierarchy();
        let ready = h.fetch_instr_block(BlockAddr::new(0x9000), 100);
        assert!(ready >= 100 + 15 + 35 + 220, "ready = {ready}");
        assert_eq!(h.dram_accesses, 1);
    }

    #[test]
    fn second_fetch_hits_l2() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x9000);
        h.fetch_instr_block(b, 0);
        let ready = h.fetch_instr_block(b, 1000);
        assert_eq!(ready, 1000 + 15);
        assert_eq!(h.dram_accesses, 1);
    }

    #[test]
    fn load_hit_latency() {
        let mut h = hierarchy();
        let a = Addr::new(0x5000_0000);
        let first = h.access_data(a, Asid::HOST, 0, false);
        assert!(first > 5, "cold load should miss");
        let second = h.access_data(a, Asid::HOST, 1000, false);
        assert_eq!(second, 1000 + 5);
    }

    #[test]
    fn store_completes_quickly_even_on_miss() {
        let mut h = hierarchy();
        let done = h.access_data(Addr::new(0x6000_0000), Asid::HOST, 10, true);
        assert_eq!(done, 11);
    }

    #[test]
    fn loads_to_same_block_merge() {
        let mut h = hierarchy();
        let a = Addr::new(0x7000_0000);
        let first = h.access_data(a, Asid::HOST, 0, false);
        let merged = h.access_data(a + 8, Asid::HOST, 1, false);
        assert_eq!(merged, first, "second load merges with the MSHR");
        assert_eq!(h.dram_accesses, 1);
    }

    #[test]
    fn dram_gap_serializes_back_to_back_misses() {
        let mut h = hierarchy();
        let r1 = h.fetch_instr_block(BlockAddr::new(0x10_0000), 0);
        let r2 = h.fetch_instr_block(BlockAddr::new(0x20_0000), 0);
        assert!(r2 >= r1.min(r2), "both complete");
        assert!(r2 > r1 || r1 > r2, "gap separates them");
    }

    #[test]
    fn warming_fills_contents_without_counting() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x9000);
        h.warm_instr_block(b);
        h.warm_data(Addr::new(0x5000_0000), Asid::HOST);
        assert_eq!(h.dram_accesses, 0, "warmup pays no DRAM accounting");
        assert_eq!(h.l2_stats(), CacheStats::default());
        assert_eq!(h.l3_stats(), CacheStats::default());
        assert_eq!(h.l1d_stats(), CacheStats::default());
        // But the contents are warm: a timed fetch now hits L2.
        let ready = h.fetch_instr_block(b, 1000);
        assert_eq!(ready, 1000 + 15);
        let done = h.access_data(Addr::new(0x5000_0000), Asid::HOST, 1000, false);
        assert_eq!(done, 1000 + 5, "L1d warmed");
    }

    #[test]
    fn mshr_capacity_delays_when_full() {
        let cfg = SimConfig {
            l1d_mshrs: 1,
            ..SimConfig::default()
        };
        let mut h = MemoryHierarchy::new(&cfg);
        let d1 = h.access_data(Addr::new(0x1_0000_0000), Asid::HOST, 0, false);
        let d2 = h.access_data(Addr::new(0x2_0000_0000), Asid::HOST, 0, false);
        assert!(d2 > d1, "second miss waits for a free MSHR");
    }

    /// The retired `HashMap`-backed MSHR model, kept as the behavioral
    /// reference for [`MissTracker`] (equivalence-pinned by
    /// `flat_mshr_matches_legacy`).
    #[derive(Debug)]
    struct LegacyMissTracker {
        capacity: usize,
        in_flight: HashMap<TaggedBlock, Cycle>,
    }

    impl LegacyMissTracker {
        /// Creates a tracker with `capacity` MSHRs.
        fn new(capacity: usize) -> Self {
            LegacyMissTracker {
                capacity,
                in_flight: HashMap::new(),
            }
        }

        fn cleanup(&mut self, now: Cycle) {
            self.in_flight.retain(|_, &mut ready| ready > now);
        }

        /// Ready time of an already-outstanding request for `block`.
        fn lookup(&mut self, block: impl Into<TaggedBlock>, now: Cycle) -> Option<Cycle> {
            self.cleanup(now);
            self.in_flight.get(&block.into()).copied()
        }

        /// Whether all MSHRs are busy at `now`.
        fn full(&mut self, now: Cycle) -> bool {
            self.cleanup(now);
            self.in_flight.len() >= self.capacity
        }

        /// Earliest completion among outstanding requests.
        fn earliest_ready(&self) -> Option<Cycle> {
            self.in_flight.values().copied().min()
        }

        /// Registers an outstanding request.
        fn insert(&mut self, block: impl Into<TaggedBlock>, ready: Cycle) {
            self.in_flight.insert(block.into(), ready);
        }

        /// Outstanding request count at `now`.
        fn occupancy(&mut self, now: Cycle) -> usize {
            self.cleanup(now);
            self.in_flight.len()
        }
    }

    proptest! {
        #[test]
        fn flat_mshr_matches_legacy(
            capacity in 1usize..=16,
            ops in proptest::collection::vec((0u64..32, 0u16..3, 0u64..30, 1u64..400), 1..300),
        ) {
            let mut flat = MissTracker::new(capacity);
            let mut legacy = LegacyMissTracker::new(capacity);
            let mut now = 0u64;
            for &(block, asid, advance, latency) in &ops {
                now += advance;
                let b = BlockAddr::new(0x100 + block).with_asid(Asid::new(asid));
                prop_assert_eq!(flat.lookup(b, now), legacy.lookup(b, now));
                let was_full = legacy.full(now);
                prop_assert_eq!(flat.full(now), was_full);
                // The engine's demand-miss and data paths: with every MSHR
                // busy, the request starts when the earliest one frees and
                // is inserted anyway (over capacity).
                let start = if was_full {
                    let earliest = legacy.earliest_ready().expect("full tracker has entries");
                    prop_assert_eq!(flat.earliest_ready(), Some(earliest));
                    earliest.max(now)
                } else {
                    now
                };
                flat.insert(b, start + latency);
                legacy.insert(b, start + latency);
                prop_assert_eq!(flat.occupancy(now), legacy.occupancy(now));
                prop_assert_eq!(flat.earliest_ready(), legacy.earliest_ready());
                prop_assert_eq!(flat.lookup(b, now), Some(start + latency));
            }
        }
    }
}
