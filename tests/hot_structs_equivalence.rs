//! Equivalence proptests pinning every flat hot-path table to its
//! retained legacy implementation (ISSUE-4 tentpole: the layout
//! reworks must be behaviorally invisible).
//!
//! * packed-lane [`Cshr`] vs. array-of-structs [`LegacyCshr`] over
//!   randomized insert/search sequences;
//! * ring-buffered [`TwoLevelPredictor`] vs. `VecDeque`-queued
//!   [`LegacyTwoLevelPredictor`] over randomized train/tick/flush
//!   sequences in both update modes;
//! * flat-list [`MissTracker`] vs. `HashMap`-backed
//!   [`LegacyMissTracker`] over randomized insert/lookup/full
//!   sequences with a monotone clock, inserting the way the engine
//!   does: a request that finds every MSHR busy starts at
//!   `earliest_ready` and is inserted past capacity, and a request
//!   for a block already in flight refreshes its entry;
//! * flat-ring/open-addressed Hawkeye [`SampledSet`] vs. the
//!   map/deque [`LegacySampledSet`] over randomized OPTgen access
//!   sequences, plus [`BlockTimeMap`] vs. `HashMap` directly.

use acic_repro::cache::policy::hawkeye::{BlockTimeMap, LegacySampledSet, SampledSet};
use acic_repro::core::{AcicConfig, Cshr, LegacyCshr, LegacyTwoLevelPredictor, TwoLevelPredictor};
use acic_repro::core::{ResolutionBuf, UpdateMode};
use acic_repro::sim::mem::{LegacyMissTracker, MissTracker};
use acic_repro::types::{Asid, BlockAddr, TaggedBlock};
use proptest::prelude::*;
use std::collections::HashMap;

/// One CSHR operation: open a comparison or probe a tag.
#[derive(Clone, Debug)]
enum CshrOp {
    Insert {
        victim: u16,
        contender: u16,
        set: usize,
    },
    Search {
        probe: u16,
        set: usize,
    },
}

fn cshr_op() -> impl Strategy<Value = CshrOp> {
    prop_oneof![
        (0u16..64, 0u16..64, 0usize..64).prop_map(|(victim, contender, set)| CshrOp::Insert {
            victim,
            contender,
            set
        }),
        (0u16..64, 0usize..64).prop_map(|(probe, set)| CshrOp::Search { probe, set }),
    ]
}

proptest! {
    #[test]
    fn flat_cshr_matches_legacy(
        sets in prop_oneof![Just(1usize), Just(2), Just(8)],
        ways in 1usize..=32,
        ops in proptest::collection::vec(cshr_op(), 1..300),
    ) {
        let mut flat = Cshr::new(sets, ways, 64);
        let mut legacy = LegacyCshr::new(sets, ways, 64);
        let mut buf = ResolutionBuf::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                CshrOp::Insert { victim, contender, set } => {
                    prop_assert_eq!(
                        flat.insert(victim, contender, set),
                        legacy.insert(victim, contender, set),
                        "insert {} diverged", i
                    );
                }
                CshrOp::Search { probe, set } => {
                    flat.search_into(probe, set, &mut buf);
                    let legacy_out = legacy.search(probe, set);
                    prop_assert_eq!(buf.as_slice(), legacy_out.as_slice(),
                        "search {} diverged", i);
                }
            }
        }
        prop_assert_eq!(flat.stats(), legacy.stats());
        prop_assert_eq!(flat.occupancy(), legacy.occupancy());
    }

    #[test]
    fn ring_predictor_matches_legacy(
        pipelined in any::<bool>(),
        queue_slots in 1usize..=12,
        ops in proptest::collection::vec((0u16..40, any::<bool>(), 0u64..4, any::<bool>()), 1..400),
    ) {
        let cfg = AcicConfig {
            update_mode: if pipelined { UpdateMode::Pipelined } else { UpdateMode::Instant },
            pt_queue_slots: queue_slots,
            ..AcicConfig::default()
        };
        let mut ring = TwoLevelPredictor::new(&cfg);
        let mut legacy = LegacyTwoLevelPredictor::new(&cfg);
        let mut now = 0u64;
        for &(ptag, won, advance, tick) in &ops {
            // A bursty clock: several trains can share a cycle, and
            // ticks fire irregularly (exercises both the HRT
            // write-port conflict and the ring's earliest-due gate).
            now += advance;
            ring.train(ptag, won, now);
            legacy.train(ptag, won, now);
            if tick {
                ring.tick(now);
                legacy.tick(now);
            }
            prop_assert_eq!(ring.predict(ptag), legacy.predict(ptag));
        }
        prop_assert_eq!(ring.dropped_updates, legacy.dropped_updates);
        ring.flush();
        legacy.flush();
        for pattern in 0..16 {
            prop_assert_eq!(ring.pt_value(pattern), legacy.pt_value(pattern),
                "pattern {} diverged after flush", pattern);
        }
    }

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
