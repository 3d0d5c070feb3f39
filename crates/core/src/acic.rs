//! The composed ACIC organization (Figure 2 + Figure 4's datapath).
//!
//! Demand fetches probe the i-Filter and i-cache concurrently and
//! search the CSHR to resolve outstanding comparisons. Misses fill
//! the i-Filter only; when the filter overflows, the two-level
//! predictor decides whether the victim displaces the LRU *contender*
//! of its i-cache set or is thrown away, and a new CSHR comparison is
//! opened either way so the predictor keeps learning.

use crate::config::AcicConfig;
use crate::cshr::{Cshr, CshrStats, ResolutionBuf, UnboundedCshr};
use crate::filter::IFilter;
use crate::partial_tag;
use crate::predictor::AdmissionPredictor;
use acic_cache::policy::PolicyKind;
use acic_cache::{AccessCtx, AccessOutcome, CacheStats, IcacheContents, SetAssocCache};
use acic_types::stats::Ratio;
use acic_types::{Cycle, TaggedBlock};

/// Cumulative reuse-distance bounds of Figure 12a: `[0, bound)`,
/// with the first entry meaning "all decisions".
pub const ACCURACY_BOUNDS: [u64; 6] = [u64::MAX, 2048, 1024, 512, 256, 128];

/// Figure 3b bucket labels for the (incoming - outgoing)
/// forward-reuse-distance histogram.
pub const INSERT_DELTA_LABELS: [&str; 11] = [
    "-InF", "-10000", "-1000", "-100", "-10", "0", "10", "100", "1000", "10000", "InF",
];

/// Buckets a signed forward-distance delta for Figure 3b.
pub fn insert_delta_bucket(delta: i128) -> usize {
    match delta {
        d if d <= -10_000 => 0,
        d if d <= -1_000 => 1,
        d if d <= -100 => 2,
        d if d <= -10 => 3,
        d if d < 0 => 4,
        0 => 5,
        d if d < 10 => 6,
        d if d < 100 => 7,
        d if d < 1_000 => 8,
        d if d < 10_000 => 9,
        _ => 10,
    }
}

/// ACIC-specific statistics (Figures 12a, 13, and CSHR health).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcicStats {
    /// i-Filter victims subjected to an admission decision.
    pub decisions: u64,
    /// Victims admitted into the i-cache.
    pub admitted: u64,
    /// Victims thrown away.
    pub bypassed: u64,
    /// Fills that used an invalid way (no contender, no decision).
    pub free_admissions: u64,
    /// Decision correctness vs the oracle, per [`ACCURACY_BOUNDS`]
    /// range (only populated when the driver attaches an oracle).
    pub accuracy: [Ratio; ACCURACY_BOUNDS.len()],
    /// Fraction of decisions where the oracle would admit (only
    /// populated when the driver attaches an oracle).
    pub oracle_admits: Ratio,
    /// Figure 3b histogram: (incoming - contender) forward reuse
    /// distance at each decision, bucketed per
    /// [`INSERT_DELTA_LABELS`].
    pub insert_delta: [u64; 11],
}

impl AcicStats {
    /// Fraction of decided victims that were admitted (Figure 13).
    pub fn admit_fraction(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.admitted as f64 / self.decisions as f64
        }
    }

    /// Adds another instance's counters into this one. Every field is
    /// a sum or a [`Ratio`], so merging per-window statistics in any
    /// grouping yields the same totals as one sequential run.
    pub fn merge(&mut self, other: &AcicStats) {
        self.decisions += other.decisions;
        self.admitted += other.admitted;
        self.bypassed += other.bypassed;
        self.free_admissions += other.free_admissions;
        for (mine, theirs) in self.accuracy.iter_mut().zip(other.accuracy.iter()) {
            mine.merge(*theirs);
        }
        self.oracle_admits.merge(other.oracle_admits);
        for (mine, theirs) in self.insert_delta.iter_mut().zip(other.insert_delta.iter()) {
            *mine += *theirs;
        }
    }
}

/// The admission-controlled instruction cache.
///
/// Implements [`IcacheContents`] so the timing simulator can drive it
/// interchangeably with the other organizations.
///
/// # Examples
///
/// ```
/// use acic_cache::{AccessCtx, IcacheContents};
/// use acic_core::{AcicConfig, AcicIcache};
/// use acic_types::BlockAddr;
///
/// let mut acic = AcicIcache::new(AcicConfig::default());
/// let a = BlockAddr::new(100);
/// acic.fill(&AccessCtx::demand(a, 0));
/// assert!(acic.access(&AccessCtx::demand(a, 1)).hit); // i-Filter hit
/// ```
pub struct AcicIcache {
    cfg: AcicConfig,
    filter: Option<IFilter>,
    cache: SetAssocCache,
    predictor: AdmissionPredictor,
    cshr: Cshr,
    /// Reused CSHR search buffer — the access path never allocates.
    resolutions: ResolutionBuf,
    /// Figure-6 instrumentation, gated behind
    /// [`AcicIcache::with_unbounded_instrumentation`]: boxed so a
    /// default run carries one cold pointer instead of three inline
    /// `HashMap` headers in the middle of the hot fields.
    unbounded: Option<Box<UnboundedCshr>>,
    now: Cycle,
    stats: CacheStats,
    acic_stats: AcicStats,
}

impl AcicIcache {
    /// Builds the organization from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`AcicConfig::validate`]).
    pub fn new(cfg: AcicConfig) -> Self {
        cfg.validate();
        let filter = (cfg.filter_entries > 0).then(|| IFilter::new(cfg.filter_entries));
        AcicIcache {
            filter,
            cache: SetAssocCache::new(cfg.icache, PolicyKind::Lru.build(cfg.icache)),
            predictor: AdmissionPredictor::new(&cfg),
            cshr: Cshr::new(cfg.cshr_sets, cfg.cshr_ways(), cfg.icache.sets()),
            resolutions: ResolutionBuf::new(),
            unbounded: None,
            now: 0,
            stats: CacheStats::default(),
            acic_stats: AcicStats::default(),
            cfg,
        }
    }

    /// Enables the unbounded-CSHR instrumentation used by Figure 6.
    /// This is the only way its bookkeeping maps come into existence —
    /// default runs pay nothing for them.
    pub fn with_unbounded_instrumentation(mut self) -> Self {
        self.unbounded = Some(Box::new(UnboundedCshr::new()));
        self
    }

    /// ACIC-specific statistics.
    pub fn acic_stats(&self) -> &AcicStats {
        &self.acic_stats
    }

    /// CSHR statistics.
    pub fn cshr_stats(&self) -> CshrStats {
        self.cshr.stats()
    }

    /// Unbounded-CSHR instrumentation results, if enabled.
    pub fn unbounded_cshr(&self) -> Option<&UnboundedCshr> {
        self.unbounded.as_deref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AcicConfig {
        &self.cfg
    }

    /// The i-Filter, if configured (for tests and invariant checks).
    pub fn filter(&self) -> Option<&IFilter> {
        self.filter.as_ref()
    }

    /// The backing i-cache (for tests and invariant checks).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    fn ptag(&self, block: TaggedBlock) -> u16 {
        partial_tag(block, self.cfg.cshr_tag_bits)
    }

    /// Runs the admission decision for `incoming` (an i-Filter victim,
    /// or the missed block itself in the no-filter ablation).
    fn decide_and_place(&mut self, incoming: TaggedBlock, ctx: &AccessCtx<'_>) {
        let ictx = AccessCtx {
            block: incoming.block,
            asid: incoming.asid,
            ..*ctx
        };
        let Some(contender) = self.cache.contender(&ictx) else {
            // Invalid way available: admission is free (no comparison).
            self.cache.fill(&ictx);
            if ctx.stats_enabled {
                self.acic_stats.free_admissions += 1;
            }
            return;
        };
        let vtag = self.ptag(incoming);
        let admit = self.predictor.predict(vtag);
        if ctx.stats_enabled {
            self.acic_stats.decisions += 1;
        }

        // Oracle instrumentation (Figure 12a): was the decision right?
        // The oracle is keyed by flattened tagged identity.
        if let Some(cur) = ctx.oracle.filter(|_| ctx.stats_enabled) {
            let oracle_admit =
                cur.next_use_of(incoming.oracle_key()) <= cur.next_use_of(contender.oracle_key());
            self.acic_stats.oracle_admits.record(oracle_admit);
            let correct = admit == oracle_admit;
            let dv = cur
                .forward_distance_of(incoming.oracle_key())
                .unwrap_or(u64::MAX);
            let dc = cur
                .forward_distance_of(contender.oracle_key())
                .unwrap_or(u64::MAX);
            let delta = dv as i128 - dc as i128;
            self.acic_stats.insert_delta[insert_delta_bucket(delta)] += 1;
            let min_dist = dv.min(dc);
            for (i, &bound) in ACCURACY_BOUNDS.iter().enumerate() {
                if min_dist < bound {
                    self.acic_stats.accuracy[i].record(correct);
                }
            }
        }

        if admit {
            if ctx.stats_enabled {
                self.acic_stats.admitted += 1;
            }
            if let Some(evicted) = self.cache.fill(&ictx) {
                debug_assert_eq!(evicted, contender, "LRU contender must be the victim");
            }
        } else if ctx.stats_enabled {
            self.acic_stats.bypassed += 1;
            self.stats.bypasses += 1;
        }

        // Open the comparison regardless of the decision (Figure 5).
        let set = self.cfg.icache.set_of_tagged(incoming);
        if let Some(forced) = self.cshr.insert(vtag, self.ptag(contender), set) {
            self.predictor
                .train(forced.victim_ptag, forced.victim_won, self.now);
        }
        if let Some(u) = self.unbounded.as_mut() {
            u.insert(incoming.oracle_key(), contender.oracle_key());
        }
    }
}

impl IcacheContents for AcicIcache {
    fn access(&mut self, ctx: &AccessCtx<'_>) -> AccessOutcome {
        if !ctx.is_prefetch {
            // Fetch requests search the CSHR (§III-B) and resolve
            // outstanding comparisons into the reused buffer.
            let set = self.cfg.icache.set_of_tagged(ctx.tagged());
            self.cshr
                .search_into(self.ptag(ctx.tagged()), set, &mut self.resolutions);
            for &r in self.resolutions.as_slice() {
                self.predictor.train(r.victim_ptag, r.victim_won, self.now);
            }
            if let Some(u) = self.unbounded.as_mut() {
                u.on_fetch(ctx.tagged().oracle_key());
            }
        }
        let filter_hit = self.filter.as_mut().is_some_and(|f| f.access(ctx.tagged()));
        let hit = filter_hit || self.cache.access(ctx);
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.record_prefetch(hit);
            } else {
                self.stats.record_demand(hit);
            }
        }
        if hit {
            AccessOutcome::hit()
        } else {
            AccessOutcome::miss()
        }
    }

    fn fill(&mut self, ctx: &AccessCtx<'_>) {
        if self.contains_block(ctx.tagged()) {
            return; // a prefetch raced the demand miss
        }
        if ctx.stats_enabled {
            if ctx.is_prefetch {
                self.stats.prefetch_fills += 1;
            } else {
                self.stats.demand_fills += 1;
            }
        }
        match self.filter.as_mut() {
            Some(filter) => {
                if let Some(victim) = filter.insert(ctx.tagged()) {
                    self.decide_and_place(victim, ctx);
                }
            }
            None => {
                // No-filter ablation: admission control applies to the
                // missed block directly.
                self.decide_and_place(ctx.tagged(), ctx);
            }
        }
    }

    fn contains_block(&self, block: TaggedBlock) -> bool {
        self.filter.as_ref().is_some_and(|f| f.contains(block)) || self.cache.contains(block)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        match (&self.filter, self.predictor.label()) {
            (Some(_), label) => format!("acic({label})"),
            (None, label) => format!("acic(no-filter,{label})"),
        }
    }

    fn tick(&mut self, now: Cycle) {
        self.now = now;
        self.predictor.tick(now);
    }

    fn wants_tick(&self) -> bool {
        true
    }

    fn next_tick_due(&self) -> Option<Cycle> {
        // Ticks before the predictor's earliest pending update only
        // advance `self.now`, which nothing reads between accesses —
        // the event loop may batch them.
        self.predictor.next_due()
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;
    use acic_types::BlockAddr;

    fn ctx(b: u64, i: u64) -> AccessCtx<'static> {
        AccessCtx::demand(BlockAddr::new(b), i)
    }

    #[test]
    fn insert_delta_bucket_boundary_values() {
        // Each (delta, bucket) pair sits exactly on a bucket edge of
        // the Figure 3b histogram.
        let cases: [(i128, usize); 16] = [
            (i128::MIN, 0),
            (-10_001, 0),
            (-10_000, 0),
            (-9_999, 1),
            (-1_000, 1),
            (-999, 2),
            (-100, 2),
            (-99, 3),
            (-10, 3),
            (-9, 4),
            (-1, 4),
            (0, 5),
            (1, 6),
            (9, 6),
            (10_000, 10),
            (i128::MAX, 10),
        ];
        for (delta, bucket) in cases {
            assert_eq!(
                insert_delta_bucket(delta),
                bucket,
                "delta {delta} must land in bucket {bucket}"
            );
        }
    }

    #[test]
    fn insert_delta_buckets_cover_and_partition() {
        // Every delta lands in exactly one of the 11 labeled buckets,
        // and bucket index is monotone in delta.
        let mut prev = 0usize;
        for delta in [
            -20_000i128,
            -10_000,
            -5_000,
            -1_000,
            -500,
            -100,
            -50,
            -10,
            -5,
            0,
            5,
            9,
            50,
            99,
            500,
            999,
            5_000,
            9_999,
            10_000,
            20_000,
        ] {
            let b = insert_delta_bucket(delta);
            assert!(b < INSERT_DELTA_LABELS.len());
            assert!(b >= prev, "bucket must not decrease at delta {delta}");
            prev = b;
        }
    }

    fn tiny_cfg() -> AcicConfig {
        AcicConfig {
            icache: acic_cache::CacheGeometry::from_sets_ways(4, 2),
            filter_entries: 2,
            ..AcicConfig::default()
        }
    }

    #[test]
    fn fills_go_to_filter_first() {
        let mut a = AcicIcache::new(tiny_cfg());
        a.fill(&ctx(1, 0));
        assert!(a.filter().unwrap().contains(BlockAddr::new(1)));
        assert!(!a.cache().contains(BlockAddr::new(1)));
    }

    #[test]
    fn filter_overflow_triggers_decision() {
        let mut a = AcicIcache::new(tiny_cfg());
        a.fill(&ctx(1, 0));
        a.fill(&ctx(2, 1));
        a.fill(&ctx(3, 2)); // evicts 1 from the filter
                            // With invalid ways in the cache, admission is free.
        assert_eq!(a.acic_stats().free_admissions, 1);
        assert!(a.cache().contains(BlockAddr::new(1)));
    }

    #[test]
    fn block_never_in_both_filter_and_cache() {
        let mut a = AcicIcache::new(tiny_cfg());
        for i in 0..64u64 {
            let b = i % 7;
            let c = ctx(b, i);
            if !a.access(&c).hit {
                a.fill(&c);
            }
            if let Some(f) = a.filter() {
                for blk in f.resident_blocks() {
                    assert!(!a.cache().contains(blk), "block {blk} duplicated");
                }
            }
        }
    }

    #[test]
    fn cshr_trains_predictor_on_resolution() {
        let mut a = AcicIcache::new(AcicConfig {
            predictor: PredictorKind::TwoLevel,
            update_mode: crate::UpdateMode::Instant,
            ..tiny_cfg()
        });
        // Fill cache set 0 completely so decisions are real.
        for i in 0..16u64 {
            let c = ctx(i, i);
            if !a.access(&c).hit {
                a.fill(&c);
            }
        }
        assert!(a.cshr_stats().inserted > 0, "decisions open comparisons");
    }

    #[test]
    fn never_admit_bypasses_everything() {
        let mut a = AcicIcache::new(AcicConfig {
            predictor: PredictorKind::NeverAdmit,
            ..tiny_cfg()
        });
        // Warm the cache (free admissions use invalid ways), then
        // stream more blocks: every decided victim is bypassed.
        for i in 0..200u64 {
            let c = ctx(i, i);
            a.access(&c);
            a.fill(&c);
        }
        assert!(a.acic_stats().decisions > 0);
        assert_eq!(a.acic_stats().admitted, 0);
        assert_eq!(a.acic_stats().bypassed, a.acic_stats().decisions);
    }

    #[test]
    fn no_filter_ablation_decides_on_misses() {
        let mut a = AcicIcache::new(AcicConfig {
            filter_entries: 0,
            ..tiny_cfg()
        });
        for i in 0..32u64 {
            let c = ctx(i, i);
            a.access(&c);
            a.fill(&c);
        }
        assert!(a.filter().is_none());
        assert!(a.acic_stats().decisions > 0);
        assert!(a.label().contains("no-filter"));
    }

    #[test]
    fn quiet_accesses_learn_without_counting_admissions() {
        let mut a = AcicIcache::new(tiny_cfg());
        for i in 0..200u64 {
            let c = ctx(i % 23, i).quiet();
            if !a.access(&c).hit {
                a.fill(&c);
            }
        }
        // Warmup-mode traffic trains the machinery (comparisons open,
        // blocks place) without moving a single reported counter.
        assert!(a.cshr_stats().inserted > 0, "CSHR keeps learning");
        assert!(!a.cache().resident_blocks().is_empty(), "cache warmed");
        assert_eq!(a.stats(), CacheStats::default());
        let s = *a.acic_stats();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.admitted + s.bypassed + s.free_admissions, 0);
    }

    #[test]
    fn admit_fraction_bounded() {
        let mut a = AcicIcache::new(tiny_cfg());
        for i in 0..500u64 {
            let b = i % 23;
            let c = ctx(b, i);
            if !a.access(&c).hit {
                a.fill(&c);
            }
        }
        let f = a.acic_stats().admit_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn duplicate_fill_is_ignored() {
        let mut a = AcicIcache::new(tiny_cfg());
        a.fill(&ctx(1, 0));
        a.fill(&ctx(1, 1));
        assert_eq!(a.filter().unwrap().len(), 1);
    }

    #[test]
    fn prefetch_fills_counted_separately() {
        let mut a = AcicIcache::new(tiny_cfg());
        let p = AccessCtx::prefetch(BlockAddr::new(9), 0);
        a.access(&p);
        a.fill(&p);
        assert_eq!(a.stats().prefetch_fills, 1);
        assert_eq!(a.stats().demand_fills, 0);
    }
}
