//! The admission predictors (§III-A, Figure 4) and their update
//! pipeline (§III-C2, Figure 8).
//!
//! The paper's predictor is two-level, borrowed from Yeh & Patt branch
//! prediction: a History Register Table (HRT) of per-tag comparison
//! histories and a Pattern Table (PT) of saturating counters indexed
//! by the history pattern. Training outcomes arrive from CSHR
//! resolutions; in the realistic [`UpdateMode::Pipelined`] mode they
//! spend 2 cycles (HRT indexing, then PT update through a bounded
//! per-entry queue) before becoming visible, so predictions can read
//! slightly stale state — Figure 14 shows this costs almost nothing,
//! which this implementation reproduces.
//!
//! # Hot-path layout
//!
//! [`TwoLevelPredictor::tick`] runs once per simulated cycle (timing)
//! or block access (functional). The PT update queues are therefore
//! flat fixed-capacity ring buffers carved out of one contiguous
//! allocation (`queue_slots` slots per PT entry) instead of per-entry
//! `VecDeque`s, and the predictor tracks the total number of pending
//! updates plus the earliest due cycle — the overwhelmingly common
//! "nothing is due" tick is a two-compare early exit that never walks
//! the queues. The `VecDeque` implementation survives only as a test
//! oracle in this module's `tests`, pinned to the ring by an
//! equivalence proptest.

use crate::config::{AcicConfig, PredictorKind, UpdateMode};
use acic_types::hash::{mix64, SplitMix64};
use acic_types::{Cycle, HistoryReg, SatCounter};

/// Latency of a pipelined predictor update in cycles (§III-C2: "at
/// least 2 cycles are spent in updating HRT and PT").
const UPDATE_LATENCY: Cycle = 2;

/// A pending PT update flowing through one entry's update queue.
#[derive(Clone, Copy, Debug)]
struct PendingUpdate {
    apply_at: Cycle,
    increment: bool,
}

impl PendingUpdate {
    const EMPTY: PendingUpdate = PendingUpdate {
        apply_at: 0,
        increment: false,
    };
}

/// The paper's two-level HRT + PT admission predictor, with the PT
/// update queues packed into one flat ring-buffer arena.
#[derive(Debug)]
pub struct TwoLevelPredictor {
    hrt: Vec<HistoryReg>,
    pt: Vec<SatCounter>,
    /// Ring-buffer arena: `queue_slots` contiguous slots per PT entry.
    ring: Vec<PendingUpdate>,
    /// Per-entry ring head index (slot of the oldest pending update).
    head: Vec<u8>,
    /// Per-entry ring occupancy.
    qlen: Vec<u8>,
    /// Pending updates across all queues — lets `tick` exit without
    /// touching the arena when the pipeline is drained.
    pending_total: u32,
    /// Earliest `apply_at` among all queue heads (`Cycle::MAX` when
    /// drained); a tick before this cycle cannot apply anything.
    earliest_apply: Cycle,
    queue_slots: usize,
    mode: UpdateMode,
    /// Last cycle each HRT entry was written (enforces the paper's
    /// "update each HRT entry for only one request per cycle").
    hrt_last_write: Vec<Cycle>,
    /// Updates dropped due to queue overflow or HRT write conflicts.
    pub dropped_updates: u64,
}

impl TwoLevelPredictor {
    /// Builds the predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pt_queue_slots` exceeds the ring occupancy counter's
    /// range (255 — the paper uses 10).
    pub fn new(cfg: &AcicConfig) -> Self {
        assert!(
            cfg.pt_queue_slots <= u8::MAX as usize,
            "pt_queue_slots {} exceeds ring counter range",
            cfg.pt_queue_slots
        );
        TwoLevelPredictor {
            hrt: vec![HistoryReg::new(cfg.history_bits); cfg.hrt_entries],
            pt: vec![SatCounter::new_weakly_high(cfg.pt_counter_bits); cfg.pt_entries()],
            ring: vec![PendingUpdate::EMPTY; cfg.pt_entries() * cfg.pt_queue_slots],
            head: vec![0; cfg.pt_entries()],
            qlen: vec![0; cfg.pt_entries()],
            pending_total: 0,
            earliest_apply: Cycle::MAX,
            queue_slots: cfg.pt_queue_slots,
            mode: cfg.update_mode,
            hrt_last_write: vec![Cycle::MAX; cfg.hrt_entries],
            dropped_updates: 0,
        }
    }

    fn hrt_index(&self, ptag: u16) -> usize {
        (mix64(ptag as u64) as usize) & (self.hrt.len() - 1)
    }

    /// Predicts whether the i-Filter victim with partial tag `ptag`
    /// should be admitted.
    pub fn predict(&self, ptag: u16) -> bool {
        let pattern = self.hrt[self.hrt_index(ptag)].value() as usize;
        self.pt[pattern].is_high()
    }

    /// Trains with a resolved comparison: `victim_won` is true when
    /// the i-Filter victim was re-accessed before its contender.
    pub fn train(&mut self, ptag: u16, victim_won: bool, now: Cycle) {
        let idx = self.hrt_index(ptag);
        match self.mode {
            UpdateMode::Instant => {
                let pattern = self.hrt[idx].value() as usize;
                self.pt[pattern].update(victim_won);
                self.hrt[idx].push(victim_won);
            }
            UpdateMode::Pipelined => {
                // Only one HRT write per entry per cycle; extra
                // requests this cycle are ignored (§III-C2).
                if self.hrt_last_write[idx] == now {
                    self.dropped_updates += 1;
                    return;
                }
                self.hrt_last_write[idx] = now;
                // The *current* history value indexes the PT update
                // (read in cycle 1, PT written in cycle 2 at the
                // earliest, later if queued behind other updates).
                let pattern = self.hrt[idx].value() as usize;
                if self.qlen[pattern] as usize >= self.queue_slots {
                    self.dropped_updates += 1;
                } else {
                    let slot = (self.head[pattern] as usize + self.qlen[pattern] as usize)
                        % self.queue_slots;
                    let apply_at = now + UPDATE_LATENCY;
                    self.ring[pattern * self.queue_slots + slot] = PendingUpdate {
                        apply_at,
                        increment: victim_won,
                    };
                    self.qlen[pattern] += 1;
                    self.pending_total += 1;
                    self.earliest_apply = self.earliest_apply.min(apply_at);
                }
                // The history register itself is updated right after
                // its value is handed to the PT updater.
                self.hrt[idx].push(victim_won);
            }
        }
    }

    /// Advances the update pipeline: each PT entry's queue head is
    /// applied once its latency has elapsed (one pop per entry per
    /// cycle, as in Figure 8). When nothing can be due — the usual
    /// case on both simulation hot loops — this returns after two
    /// compares without touching the queues.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if self.pending_total == 0 || now < self.earliest_apply {
            return;
        }
        self.tick_slow(now);
    }

    fn tick_slow(&mut self, now: Cycle) {
        let mut next_earliest = Cycle::MAX;
        for pattern in 0..self.pt.len() {
            if self.qlen[pattern] == 0 {
                continue;
            }
            let base = pattern * self.queue_slots;
            let h = self.head[pattern] as usize;
            let upd = self.ring[base + h];
            if upd.apply_at <= now {
                self.pt[pattern].update(upd.increment);
                self.head[pattern] = ((h + 1) % self.queue_slots) as u8;
                self.qlen[pattern] -= 1;
                self.pending_total -= 1;
                if self.qlen[pattern] > 0 {
                    let nh = self.head[pattern] as usize;
                    next_earliest = next_earliest.min(self.ring[base + nh].apply_at);
                }
            } else {
                next_earliest = next_earliest.min(upd.apply_at);
            }
        }
        self.earliest_apply = next_earliest;
    }

    /// Earliest cycle at which a [`TwoLevelPredictor::tick`] can apply
    /// a pending update, or `None` when the pipeline is drained (every
    /// tick is then a no-op). `tick_slow` can leave this at or before
    /// the current cycle when a queue held more than one due update —
    /// the one-pop-per-entry-per-cycle limit means the next cycle's
    /// tick still has work to do.
    pub fn next_due(&self) -> Option<Cycle> {
        (self.pending_total > 0).then_some(self.earliest_apply)
    }

    /// Drains all pending updates (end-of-simulation bookkeeping).
    pub fn flush(&mut self) {
        for pattern in 0..self.pt.len() {
            let base = pattern * self.queue_slots;
            while self.qlen[pattern] > 0 {
                let h = self.head[pattern] as usize;
                let upd = self.ring[base + h];
                self.pt[pattern].update(upd.increment);
                self.head[pattern] = ((h + 1) % self.queue_slots) as u8;
                self.qlen[pattern] -= 1;
                self.pending_total -= 1;
            }
        }
        self.earliest_apply = Cycle::MAX;
    }

    /// PT counter value for a pattern (test hook).
    pub fn pt_value(&self, pattern: usize) -> u16 {
        self.pt[pattern].value()
    }

    /// History value currently associated with `ptag` (test hook).
    pub fn history_of(&self, ptag: u16) -> u32 {
        self.hrt[self.hrt_index(ptag)].value()
    }
}

/// Runtime-selectable admission predictor (Figure 17 ablations).
#[derive(Debug)]
pub enum AdmissionPredictor {
    /// The paper's two-level predictor.
    TwoLevel(TwoLevelPredictor),
    /// A single global history register indexing the PT.
    GlobalHistory {
        /// Shared history register.
        history: HistoryReg,
        /// Pattern table.
        pt: Vec<SatCounter>,
    },
    /// Per-tag bimodal counters, no history.
    Bimodal {
        /// Counter table indexed by hashed partial tag.
        table: Vec<SatCounter>,
    },
    /// Admit with fixed probability.
    Random {
        /// Deterministic PRNG.
        rng: SplitMix64,
        /// Probability numerator.
        num: u64,
        /// Probability denominator.
        denom: u64,
    },
    /// Always admit (i-Filter-only arm).
    Always,
    /// Never admit.
    Never,
}

impl AdmissionPredictor {
    /// Builds the predictor selected by the configuration.
    pub fn new(cfg: &AcicConfig) -> Self {
        match cfg.predictor {
            PredictorKind::TwoLevel => AdmissionPredictor::TwoLevel(TwoLevelPredictor::new(cfg)),
            PredictorKind::GlobalHistory => AdmissionPredictor::GlobalHistory {
                history: HistoryReg::new(cfg.history_bits),
                pt: vec![SatCounter::new_weakly_high(cfg.pt_counter_bits); cfg.pt_entries()],
            },
            PredictorKind::Bimodal => AdmissionPredictor::Bimodal {
                table: vec![SatCounter::new_weakly_high(cfg.pt_counter_bits); cfg.hrt_entries],
            },
            PredictorKind::Random { seed, num, denom } => AdmissionPredictor::Random {
                rng: SplitMix64::new(seed),
                num,
                denom,
            },
            PredictorKind::AlwaysAdmit => AdmissionPredictor::Always,
            PredictorKind::NeverAdmit => AdmissionPredictor::Never,
        }
    }

    /// Predicts admission for a victim's partial tag.
    pub fn predict(&mut self, ptag: u16) -> bool {
        match self {
            AdmissionPredictor::TwoLevel(p) => p.predict(ptag),
            AdmissionPredictor::GlobalHistory { history, pt } => {
                pt[history.value() as usize].is_high()
            }
            AdmissionPredictor::Bimodal { table } => {
                let idx = (mix64(ptag as u64) as usize) & (table.len() - 1);
                table[idx].is_high()
            }
            AdmissionPredictor::Random { rng, num, denom } => rng.chance(*num, *denom),
            AdmissionPredictor::Always => true,
            AdmissionPredictor::Never => false,
        }
    }

    /// Trains with a resolved comparison outcome.
    pub fn train(&mut self, ptag: u16, victim_won: bool, now: Cycle) {
        match self {
            AdmissionPredictor::TwoLevel(p) => p.train(ptag, victim_won, now),
            AdmissionPredictor::GlobalHistory { history, pt } => {
                pt[history.value() as usize].update(victim_won);
                history.push(victim_won);
            }
            AdmissionPredictor::Bimodal { table } => {
                let idx = (mix64(ptag as u64) as usize) & (table.len() - 1);
                table[idx].update(victim_won);
            }
            AdmissionPredictor::Random { .. }
            | AdmissionPredictor::Always
            | AdmissionPredictor::Never => {}
        }
    }

    /// Advances pipelined updates.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if let AdmissionPredictor::TwoLevel(p) = self {
            p.tick(now);
        }
    }

    /// Earliest cycle at which [`AdmissionPredictor::tick`] can do
    /// state-changing work, or `None` when every tick is a no-op (the
    /// non-pipelined ablation predictors never tick).
    pub fn next_due(&self) -> Option<Cycle> {
        match self {
            AdmissionPredictor::TwoLevel(p) => p.next_due(),
            _ => None,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPredictor::TwoLevel(_) => "two-level",
            AdmissionPredictor::GlobalHistory { .. } => "global-history",
            AdmissionPredictor::Bimodal { .. } => "bimodal",
            AdmissionPredictor::Random { .. } => "random",
            AdmissionPredictor::Always => "always",
            AdmissionPredictor::Never => "never",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn instant_cfg() -> AcicConfig {
        AcicConfig {
            update_mode: UpdateMode::Instant,
            ..AcicConfig::default()
        }
    }

    #[test]
    fn learns_consistent_winner() {
        let mut p = TwoLevelPredictor::new(&instant_cfg());
        let ptag = 0x123;
        for _ in 0..40 {
            p.train(ptag, false, 0);
        }
        assert!(!p.predict(ptag), "consistent losses should predict bypass");
        for _ in 0..80 {
            p.train(ptag, true, 0);
        }
        assert!(p.predict(ptag), "consistent wins should predict admit");
    }

    #[test]
    fn history_pattern_distinguishes_alternation() {
        // A tag that strictly alternates win/lose: with 4-bit history,
        // the PT learns pattern 0101 -> lose next, 1010 -> win next.
        let mut p = TwoLevelPredictor::new(&instant_cfg());
        let ptag = 0x456;
        let mut outcome = true;
        for _ in 0..200 {
            p.train(ptag, outcome, 0);
            outcome = !outcome;
        }
        // After training, the prediction should match the alternation:
        // history ...0101 (last = 1? depends) — check both phases agree
        // with the next outcome for 20 further steps.
        let mut correct = 0;
        for _ in 0..20 {
            if p.predict(ptag) == outcome {
                correct += 1;
            }
            p.train(ptag, outcome, 0);
            outcome = !outcome;
        }
        assert!(
            correct >= 18,
            "two-level should track alternation: {correct}/20"
        );
    }

    #[test]
    fn pipelined_updates_are_delayed() {
        let cfg = AcicConfig::default(); // pipelined
        let mut p = TwoLevelPredictor::new(&cfg);
        let ptag = 0x789;
        let pattern = p.history_of(ptag) as usize;
        let before = p.pt_value(pattern);
        p.train(ptag, false, 10);
        // Not yet applied.
        assert_eq!(p.pt_value(pattern), before);
        p.tick(11);
        assert_eq!(p.pt_value(pattern), before, "needs 2 cycles");
        p.tick(12);
        assert_eq!(p.pt_value(pattern), before - 1);
    }

    #[test]
    fn queue_overflow_drops_updates() {
        let cfg = AcicConfig {
            pt_queue_slots: 2,
            ..AcicConfig::default()
        };
        let mut p = TwoLevelPredictor::new(&cfg);
        // Different tags, same history pattern (all zeros) -> same
        // queue; three updates in distinct cycles without ticking.
        p.train(1, true, 0);
        p.train(2, true, 1);
        p.train(3, true, 2);
        assert_eq!(p.dropped_updates, 1);
    }

    #[test]
    fn ring_wraps_across_many_trains_and_ticks() {
        // Force the ring head around its capacity several times: one
        // update per cycle with a tick each cycle keeps occupancy low
        // while the head index wraps repeatedly.
        let cfg = AcicConfig {
            pt_queue_slots: 3,
            ..AcicConfig::default()
        };
        let mut p = TwoLevelPredictor::new(&cfg);
        let mut legacy = LegacyTwoLevelPredictor::new(&cfg);
        for now in 0..200u64 {
            let tag = (now % 17) as u16;
            let won = now % 3 == 0;
            p.train(tag, won, now);
            legacy.train(tag, won, now);
            p.tick(now);
            legacy.tick(now);
        }
        p.flush();
        legacy.flush();
        for pattern in 0..16 {
            assert_eq!(p.pt_value(pattern), legacy.pt_value(pattern));
        }
        assert_eq!(p.dropped_updates, legacy.dropped_updates);
    }

    #[test]
    fn hrt_single_write_per_cycle() {
        let mut p = TwoLevelPredictor::new(&AcicConfig::default());
        // Same tag trained twice in the same cycle: second ignored.
        p.train(7, true, 5);
        p.train(7, true, 5);
        assert_eq!(p.dropped_updates, 1);
    }

    #[test]
    fn flush_applies_everything() {
        let mut p = TwoLevelPredictor::new(&AcicConfig::default());
        let pattern = p.history_of(42) as usize;
        let before = p.pt_value(pattern);
        p.train(42, true, 0);
        p.flush();
        assert_eq!(p.pt_value(pattern), before + 1);
    }

    #[test]
    fn instant_equals_pipelined_after_drain() {
        // The same training sequence (one update per cycle, ticking
        // every cycle) must leave both modes in the same PT state.
        let mut inst = TwoLevelPredictor::new(&instant_cfg());
        let mut pipe = TwoLevelPredictor::new(&AcicConfig::default());
        let mut rng = SplitMix64::new(3);
        for now in 0..500u64 {
            let ptag = (rng.next_below(50)) as u16;
            let outcome = rng.chance(1, 2);
            inst.train(ptag, outcome, now);
            pipe.train(ptag, outcome, now);
            pipe.tick(now);
        }
        pipe.flush();
        for pattern in 0..16 {
            assert_eq!(
                inst.pt_value(pattern),
                pipe.pt_value(pattern),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn ablation_predictors_respond() {
        let cfg = AcicConfig {
            predictor: PredictorKind::Bimodal,
            ..AcicConfig::default()
        };
        let mut p = AdmissionPredictor::new(&cfg);
        for _ in 0..40 {
            p.train(9, false, 0);
        }
        assert!(!p.predict(9));

        let cfg = AcicConfig {
            predictor: PredictorKind::GlobalHistory,
            ..AcicConfig::default()
        };
        let mut p = AdmissionPredictor::new(&cfg);
        for _ in 0..40 {
            p.train(9, false, 0);
        }
        assert!(!p.predict(123), "global history is tag-independent");
    }

    #[test]
    fn random_predictor_rate() {
        let cfg = AcicConfig {
            predictor: PredictorKind::Random {
                seed: 1,
                num: 3,
                denom: 5,
            },
            ..AcicConfig::default()
        };
        let mut p = AdmissionPredictor::new(&cfg);
        let admitted = (0..10_000).filter(|_| p.predict(0)).count();
        assert!((5700..=6300).contains(&admitted), "admitted = {admitted}");
    }

    /// The original `VecDeque`-queued two-level predictor, retained as the
    /// behavioral reference for the ring-buffered [`TwoLevelPredictor`]
    /// (equivalence-pinned by `ring_predictor_matches_legacy`).
    #[derive(Debug)]
    struct LegacyTwoLevelPredictor {
        hrt: Vec<HistoryReg>,
        pt: Vec<SatCounter>,
        queues: Vec<VecDeque<PendingUpdate>>,
        queue_slots: usize,
        mode: UpdateMode,
        hrt_last_write: Vec<Cycle>,
        /// Updates dropped due to queue overflow or HRT write conflicts.
        dropped_updates: u64,
    }

    impl LegacyTwoLevelPredictor {
        /// Builds the reference predictor from a configuration.
        fn new(cfg: &AcicConfig) -> Self {
            LegacyTwoLevelPredictor {
                hrt: vec![HistoryReg::new(cfg.history_bits); cfg.hrt_entries],
                pt: vec![SatCounter::new_weakly_high(cfg.pt_counter_bits); cfg.pt_entries()],
                queues: vec![VecDeque::new(); cfg.pt_entries()],
                queue_slots: cfg.pt_queue_slots,
                mode: cfg.update_mode,
                hrt_last_write: vec![Cycle::MAX; cfg.hrt_entries],
                dropped_updates: 0,
            }
        }

        fn hrt_index(&self, ptag: u16) -> usize {
            (mix64(ptag as u64) as usize) & (self.hrt.len() - 1)
        }

        /// Predicts admission for `ptag` (same contract as
        /// [`TwoLevelPredictor::predict`]).
        fn predict(&self, ptag: u16) -> bool {
            let pattern = self.hrt[self.hrt_index(ptag)].value() as usize;
            self.pt[pattern].is_high()
        }

        /// Trains with a resolved comparison (same contract as
        /// [`TwoLevelPredictor::train`]).
        fn train(&mut self, ptag: u16, victim_won: bool, now: Cycle) {
            let idx = self.hrt_index(ptag);
            match self.mode {
                UpdateMode::Instant => {
                    let pattern = self.hrt[idx].value() as usize;
                    self.pt[pattern].update(victim_won);
                    self.hrt[idx].push(victim_won);
                }
                UpdateMode::Pipelined => {
                    if self.hrt_last_write[idx] == now {
                        self.dropped_updates += 1;
                        return;
                    }
                    self.hrt_last_write[idx] = now;
                    let pattern = self.hrt[idx].value() as usize;
                    if self.queues[pattern].len() >= self.queue_slots {
                        self.dropped_updates += 1;
                    } else {
                        self.queues[pattern].push_back(PendingUpdate {
                            apply_at: now + UPDATE_LATENCY,
                            increment: victim_won,
                        });
                    }
                    self.hrt[idx].push(victim_won);
                }
            }
        }

        /// Advances the update pipeline (same contract as
        /// [`TwoLevelPredictor::tick`]).
        fn tick(&mut self, now: Cycle) {
            if self.mode == UpdateMode::Instant {
                return;
            }
            for (pattern, queue) in self.queues.iter_mut().enumerate() {
                if let Some(head) = queue.front() {
                    if head.apply_at <= now {
                        let upd = queue.pop_front().expect("head exists");
                        self.pt[pattern].update(upd.increment);
                    }
                }
            }
        }

        /// Drains all pending updates (same contract as
        /// [`TwoLevelPredictor::flush`]).
        fn flush(&mut self) {
            for (pattern, queue) in self.queues.iter_mut().enumerate() {
                while let Some(upd) = queue.pop_front() {
                    self.pt[pattern].update(upd.increment);
                }
            }
        }

        /// PT counter value for a pattern (test hook).
        fn pt_value(&self, pattern: usize) -> u16 {
            self.pt[pattern].value()
        }
    }

    proptest! {
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
    }
}
