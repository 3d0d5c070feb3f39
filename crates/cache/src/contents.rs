//! The "what lives in the L1i" abstraction.
//!
//! The timing simulator drives every i-cache organization through
//! [`IcacheContents`]: a plain policy-driven cache, a cache with a
//! victim cache bolted on, the virtual victim cache, or ACIC's
//! i-Filter organization (implemented in `acic-core`). Timing
//! (latencies, MSHRs, prefetch scheduling) stays in `acic-sim`; these
//! types only answer hit/miss and track contents.

use crate::bypass::AdmissionPolicy;
use crate::cache::SetAssocCache;
use crate::ctx::AccessCtx;
use crate::stats::CacheStats;
use crate::victim::VictimCache;
use acic_types::{Asid, TaggedBlock};

/// Result of a contents access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was found somewhere in the organization.
    pub hit: bool,
    /// Extra cycles beyond the normal hit latency (e.g. a virtual
    /// victim cache hit needs an extra probe-and-swap).
    pub extra_latency: u32,
}

impl AccessOutcome {
    /// A plain hit.
    pub fn hit() -> Self {
        AccessOutcome {
            hit: true,
            extra_latency: 0,
        }
    }

    /// A hit that costs `extra` additional cycles.
    pub fn slow_hit(extra: u32) -> Self {
        AccessOutcome {
            hit: true,
            extra_latency: extra,
        }
    }

    /// A miss.
    pub fn miss() -> Self {
        AccessOutcome {
            hit: false,
            extra_latency: 0,
        }
    }
}

/// An L1i contents organization.
///
/// Every implementation honors the stats-gated access mode: when
/// `ctx.stats_enabled` is false (warmup phase of a sampled
/// simulation), the access mutates state exactly as usual — tags
/// fill, policies and predictors train — but no [`CacheStats`] or
/// organization-level counters move.
pub trait IcacheContents {
    /// Handles one access (demand fetch or prefetch probe, per
    /// `ctx.is_prefetch`).
    ///
    /// Residency contract: an access that returns a plain hit
    /// ([`AccessOutcome::hit`]: `hit && extra_latency == 0`) may train
    /// policies and predictors but never changes what
    /// [`IcacheContents::contains_block`] answers for any block.
    /// Organizations that move blocks on an access (victim swaps,
    /// virtual hits) do so only on paths that return a miss or a
    /// [`AccessOutcome::slow_hit`]. The timing engine's prefetch-scan
    /// memo relies on this.
    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome;

    /// Installs a block that arrived from the next level.
    fn fill(&mut self, ctx: &AccessCtx<'_>);

    /// Whether the tagged block is resident anywhere (prefetch
    /// filtering; no state change).
    fn contains_block(&self, block: TaggedBlock) -> bool;

    /// The fetch stream switched to address space `next`.
    ///
    /// ASID-tagged organizations need no action — their tags already
    /// disambiguate tenants — so the default is a no-op. The no-ASID
    /// baseline ([`PlainIcache::with_flush_on_switch`]) invalidates
    /// its whole tag store here, modeling a VA-tagged cache that
    /// cannot tell tenants apart.
    fn on_context_switch(&mut self, _next: Asid) {}

    /// Aggregated statistics.
    fn stats(&self) -> CacheStats;

    /// Report label.
    fn label(&self) -> String;

    /// Advances internal pipelines to `now` (organizations with
    /// multi-cycle predictor-update paths override this; default
    /// no-op). A tick never changes what
    /// [`IcacheContents::contains_block`] answers (the residency
    /// contract of [`IcacheContents::access`]).
    fn tick(&mut self, _now: acic_types::Cycle) {}

    /// Whether [`IcacheContents::tick`] does anything. Hot loops skip
    /// the per-access virtual call when it doesn't; organizations
    /// overriding `tick` must override this too.
    fn wants_tick(&self) -> bool {
        false
    }

    /// Earliest cycle at which [`IcacheContents::tick`] performs
    /// state-changing work, or `None` when every tick until the next
    /// access/fill/train is a pure no-op. The event-horizon timing
    /// loop uses this to batch ticks across skipped cycle spans;
    /// organizations whose tick can act before the reported cycle
    /// would break that loop's cycle-exactness, so overriders must be
    /// conservative (too early is safe, too late is not).
    fn next_tick_due(&self) -> Option<acic_types::Cycle> {
        None
    }

    /// Concrete-type escape hatch for end-of-run introspection
    /// (e.g. reading ACIC's admission statistics).
    fn as_any(&self) -> &dyn core::any::Any;
}

/// A plain set-associative i-cache, optionally with a direct fill
/// bypass policy (DSB, OBM).
///
/// # Examples
///
/// ```
/// use acic_cache::{AccessCtx, CacheGeometry, IcacheContents, PlainIcache, PolicyKind};
/// use acic_types::BlockAddr;
///
/// let mut icache = PlainIcache::new(CacheGeometry::l1i_32k(), PolicyKind::Lru);
/// let ctx = AccessCtx::demand(BlockAddr::new(1), 0);
/// assert!(!icache.access(&ctx).hit);
/// icache.fill(&ctx);
/// assert!(icache.access(&AccessCtx::demand(BlockAddr::new(1), 1)).hit);
/// ```
pub struct PlainIcache {
    cache: SetAssocCache,
    bypass: Option<Box<dyn AdmissionPolicy>>,
    flush_on_switch: bool,
}

impl PlainIcache {
    /// Creates a cache with the given replacement policy and no
    /// bypassing.
    pub fn new(geom: crate::geometry::CacheGeometry, kind: crate::policy::PolicyKind) -> Self {
        PlainIcache {
            cache: SetAssocCache::new(geom, kind.build(geom)),
            bypass: None,
            flush_on_switch: false,
        }
    }

    /// Adds a direct fill-bypass policy (DSB / OBM style).
    pub fn with_bypass(mut self, bypass: Box<dyn AdmissionPolicy>) -> Self {
        self.bypass = Some(bypass);
        self
    }

    /// Makes the cache invalidate everything on a context switch —
    /// the no-ASID baseline organization. (ASID-tagged caches keep
    /// their contents; this models hardware whose tags carry no
    /// address-space bits.)
    pub fn with_flush_on_switch(mut self) -> Self {
        self.flush_on_switch = true;
        self
    }

    /// The underlying cache (for tests and invariant checks).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

impl IcacheContents for PlainIcache {
    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome {
        if !ctx.is_prefetch {
            if let Some(b) = self.bypass.as_mut() {
                b.on_demand_access(ctx.tagged(), ctx);
            }
        }
        if self.cache.access(ctx) {
            AccessOutcome::hit()
        } else {
            AccessOutcome::miss()
        }
    }

    fn fill(&mut self, ctx: &AccessCtx<'_>) {
        if let Some(bypass) = self.bypass.as_mut() {
            let contender = self.cache.contender(ctx);
            if contender.is_some() && !bypass.should_admit(ctx.tagged(), contender, ctx) {
                // Count the bypass on the cache's books.
                return;
            }
            let evicted = self.cache.fill(ctx);
            bypass.on_fill(ctx.tagged(), evicted, ctx);
        } else {
            self.cache.fill(ctx);
        }
    }

    fn contains_block(&self, block: TaggedBlock) -> bool {
        self.cache.contains(block)
    }

    fn on_context_switch(&mut self, _next: Asid) {
        if self.flush_on_switch {
            self.cache.flush();
        }
    }

    fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }

    fn label(&self) -> String {
        let base = match &self.bypass {
            Some(b) => format!("{}+{}", self.cache.policy_name(), b.name()),
            None => self.cache.policy_name().to_string(),
        };
        if self.flush_on_switch {
            format!("{base}-flush")
        } else {
            base
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

/// An i-cache with a traditional victim cache beside it (Jouppi 1990;
/// the paper's VC3K comparison point).
pub struct VictimCachedIcache {
    cache: SetAssocCache,
    victim: VictimCache,
    stats: CacheStats,
    /// Extra cycles charged for a hit that is satisfied from the
    /// victim cache (swap back into the main array).
    swap_latency: u32,
}

impl VictimCachedIcache {
    /// Creates the organization; `victim_entries` = 48 reproduces the
    /// paper's 3 KB victim cache.
    pub fn new(
        geom: crate::geometry::CacheGeometry,
        kind: crate::policy::PolicyKind,
        victim_entries: usize,
    ) -> Self {
        VictimCachedIcache {
            cache: SetAssocCache::new(geom, kind.build(geom)),
            victim: VictimCache::new(victim_entries),
            stats: CacheStats::default(),
            swap_latency: 1,
        }
    }

    /// The victim cache (for tests).
    pub fn victim_cache(&self) -> &VictimCache {
        &self.victim
    }
}

impl IcacheContents for VictimCachedIcache {
    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome {
        let main_hit = self.cache.access(ctx);
        let outcome = if main_hit {
            AccessOutcome::hit()
        } else if self.victim.probe_and_remove(ctx.block) {
            // Swap into the main cache; the displaced block drops into
            // the victim cache.
            if let Some(evicted) = self.cache.fill(ctx) {
                if let Some(dropped) = self.victim.insert(evicted) {
                    let _ = dropped; // fell out of the hierarchy
                }
            }
            AccessOutcome::slow_hit(self.swap_latency)
        } else {
            AccessOutcome::miss()
        };
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.record_prefetch(outcome.hit);
            } else {
                self.stats.record_demand(outcome.hit);
            }
        }
        outcome
    }

    fn fill(&mut self, ctx: &AccessCtx<'_>) {
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.prefetch_fills += 1;
            } else {
                self.stats.demand_fills += 1;
            }
        }
        if let Some(evicted) = self.cache.fill(ctx) {
            if ctx.stats_enabled {
                self.stats.evictions += 1;
            }
            let _ = self.victim.insert(evicted);
        }
    }

    fn contains_block(&self, block: TaggedBlock) -> bool {
        self.cache.contains(block) || self.victim.contains(block)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!(
            "{}+vc{}",
            self.cache.policy_name(),
            self.victim.capacity() * 64 / 1024
        )
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::policy::PolicyKind;
    use acic_types::BlockAddr;

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn plain_counts_demand_misses() {
        let mut i = PlainIcache::new(CacheGeometry::from_sets_ways(2, 2), PolicyKind::Lru);
        assert!(!i.access(&ctx(1, 0)).hit);
        i.fill(&ctx(1, 0));
        assert!(i.access(&ctx(1, 1)).hit);
        assert_eq!(i.stats().demand_misses, 1);
    }

    #[test]
    fn victim_cache_recovers_evictions() {
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut i = VictimCachedIcache::new(geom, PolicyKind::Lru, 4);
        i.fill(&ctx(1, 0));
        i.fill(&ctx(2, 1));
        i.fill(&ctx(3, 2)); // evicts 1 into the victim cache
        assert!(i.contains_block(tb(1)));
        let out = i.access(&ctx(1, 3));
        assert!(out.hit);
        assert_eq!(out.extra_latency, 1);
        // Block 1 swapped back into the main array.
        assert!(i.cache.contains(BlockAddr::new(1)));
    }

    #[test]
    fn bypass_policy_can_reject_fills() {
        use crate::bypass::NeverAdmit;
        let geom = CacheGeometry::from_sets_ways(1, 2);
        let mut i = PlainIcache::new(geom, PolicyKind::Lru).with_bypass(Box::new(NeverAdmit));
        i.fill(&ctx(1, 0));
        i.fill(&ctx(2, 1));
        // Set now full; further fills are rejected.
        i.fill(&ctx(3, 2));
        assert!(!i.contains_block(tb(3)));
        assert!(i.contains_block(tb(1)));
    }
}
