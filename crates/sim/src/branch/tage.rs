//! TAGE — tagged geometric-history-length branch direction predictor
//! (Seznec & Michaud, JILP 2006), the paper's Table II predictor.
//!
//! A compact four-table implementation: a bimodal base plus four
//! tagged tables with geometric history lengths and incrementally
//! folded history registers. Predictions and updates happen together
//! (trace-driven "perfect update timing").

use acic_types::hash::mix64;
use acic_types::{Addr, SatCounter};

/// Geometric history lengths of the tagged tables.
const HIST_LENS: [u32; 4] = [5, 15, 44, 130];
/// log2(entries) of each tagged table.
const TABLE_BITS: u32 = 10;
/// Tag width.
const TAG_BITS: u32 = 9;
/// log2(entries) of the bimodal base table.
const BIMODAL_BITS: u32 = 12;
/// Global history buffer length (>= max history length).
const GHIST_LEN: usize = 256;

/// An incrementally folded history register (classic TAGE trick:
/// fold an `orig_len`-bit history into `comp_len` bits in O(1) per
/// update).
#[derive(Clone, Debug)]
struct Folded {
    value: u32,
    orig_len: u32,
    comp_len: u32,
}

impl Folded {
    fn new(orig_len: u32, comp_len: u32) -> Self {
        Folded {
            value: 0,
            orig_len,
            comp_len,
        }
    }

    fn update(&mut self, new_bit: bool, dropped_bit: bool) {
        let mask = (1u32 << self.comp_len) - 1;
        self.value = ((self.value << 1) | new_bit as u32)
            ^ ((self.value >> (self.comp_len - 1)) & 1)
            ^ ((dropped_bit as u32) << (self.orig_len % self.comp_len));
        self.value &= mask;
    }
}

#[derive(Clone, Copy, Debug)]
struct TageEntry {
    tag: u16,
    ctr: SatCounter,
    useful: SatCounter,
}

impl Default for TageEntry {
    fn default() -> Self {
        TageEntry {
            tag: 0,
            ctr: SatCounter::new(3, 4),
            useful: SatCounter::new(2, 0),
        }
    }
}

#[derive(Clone, Debug)]
struct TageTable {
    entries: Vec<TageEntry>,
    folded_idx: Folded,
    folded_tag: Folded,
}

/// Branch-direction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TageStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
}

impl TageStats {
    /// Adds another instance's counters into this one.
    pub fn merge(&mut self, other: &TageStats) {
        self.predictions += other.predictions;
        self.mispredictions += other.mispredictions;
    }

    /// Prediction accuracy (1.0 when nothing was predicted).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use acic_sim::branch::tage::Tage;
/// use acic_types::Addr;
///
/// let mut tage = Tage::new();
/// let pc = Addr::new(0x400);
/// // A strongly biased branch becomes predictable quickly.
/// for _ in 0..64 {
///     tage.predict_and_train(pc, true);
/// }
/// assert!(tage.stats().accuracy() > 0.9);
/// ```
#[derive(Debug)]
pub struct Tage {
    bimodal: Vec<SatCounter>,
    tables: Vec<TageTable>,
    ghist: Vec<bool>, // ring buffer, newest at head
    head: usize,
    stats: TageStats,
    stats_enabled: bool,
    alloc_tick: u64,
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

impl Tage {
    /// Creates the predictor with Table II-scale state.
    pub fn new() -> Self {
        Tage {
            bimodal: vec![SatCounter::new(2, 1); 1 << BIMODAL_BITS],
            tables: HIST_LENS
                .iter()
                .map(|&len| TageTable {
                    entries: vec![TageEntry::default(); 1 << TABLE_BITS],
                    folded_idx: Folded::new(len, TABLE_BITS),
                    folded_tag: Folded::new(len, TAG_BITS),
                })
                .collect(),
            ghist: vec![false; GHIST_LEN],
            head: 0,
            stats: TageStats::default(),
            stats_enabled: true,
            alloc_tick: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TageStats {
        self.stats
    }

    /// Gates statistics recording (warmup phase of a sampled
    /// simulation): predictions still train every table, but the
    /// accuracy counters hold still.
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.stats_enabled = enabled;
    }

    /// Drops all learned state (tables, histories) while keeping the
    /// accumulated statistics — a context switch with untagged
    /// predictor hardware.
    pub fn flush(&mut self) {
        let stats = self.stats;
        let stats_enabled = self.stats_enabled;
        *self = Tage::new();
        self.stats = stats;
        self.stats_enabled = stats_enabled;
    }

    fn index(&self, t: usize, pc: Addr) -> usize {
        let pch = (mix64(pc.raw()) >> 2) as u32;
        ((pch ^ self.tables[t].folded_idx.value) & ((1 << TABLE_BITS) - 1)) as usize
    }

    fn tag(&self, t: usize, pc: Addr) -> u16 {
        let pch = (mix64(pc.raw() ^ 0x7ab1) >> 3) as u32;
        ((pch ^ self.tables[t].folded_tag.value) & ((1 << TAG_BITS) - 1)) as u16
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        (pc.raw() >> 2) as usize & ((1 << BIMODAL_BITS) - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`,
    /// trains with the actual outcome, and returns whether the
    /// prediction was correct.
    pub fn predict_and_train(&mut self, pc: Addr, taken: bool) -> bool {
        // Find provider (longest history with matching tag) and
        // alternate prediction.
        let mut provider: Option<usize> = None;
        let mut alt: Option<usize> = None;
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, pc);
            if self.tables[t].entries[idx].tag == self.tag(t, pc) {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        let bi = self.bimodal_index(pc);
        let alt_pred = match alt {
            Some(t) => {
                let idx = self.index(t, pc);
                self.tables[t].entries[idx].ctr.is_high()
            }
            None => self.bimodal[bi].is_high(),
        };
        let pred = match provider {
            Some(t) => {
                let idx = self.index(t, pc);
                self.tables[t].entries[idx].ctr.is_high()
            }
            None => alt_pred,
        };
        let correct = pred == taken;
        if self.stats_enabled {
            self.stats.predictions += 1;
            if !correct {
                self.stats.mispredictions += 1;
            }
        }

        // Update provider (or bimodal).
        match provider {
            Some(t) => {
                let idx = self.index(t, pc);
                let entry = &mut self.tables[t].entries[idx];
                entry.ctr.update(taken);
                if pred != alt_pred {
                    entry.useful.update(correct);
                }
            }
            None => self.bimodal[bi].update(taken),
        }

        // Allocate a longer entry on misprediction.
        if !correct {
            let start = provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..self.tables.len() {
                let idx = self.index(t, pc);
                let tag = self.tag(t, pc);
                let entry = &mut self.tables[t].entries[idx];
                if entry.useful.is_min() {
                    *entry = TageEntry {
                        tag,
                        ctr: SatCounter::new(3, if taken { 4 } else { 3 }),
                        useful: SatCounter::new(2, 0),
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay usefulness so future allocations succeed.
                for t in start..self.tables.len() {
                    let idx = self.index(t, pc);
                    self.tables[t].entries[idx].useful.decrement();
                }
            }
            self.alloc_tick += 1;
        }

        self.push_history(taken);
        correct
    }

    /// Advances the global history by one outcome bit.
    fn push_history(&mut self, taken: bool) {
        // Dropped bits per table are the bits falling off each
        // geometric window: with the newest bit at `head`, a window of
        // length L spans [head-L+1, head], so the bit dropped when a
        // new one arrives sits at head-(L-1).
        for (t, &len) in HIST_LENS.iter().enumerate() {
            let dropped = self.ghist[(self.head + GHIST_LEN - (len as usize - 1)) % GHIST_LEN];
            self.tables[t].folded_idx.update(taken, dropped);
            self.tables[t].folded_tag.update(taken, dropped);
        }
        self.head = (self.head + 1) % GHIST_LEN;
        self.ghist[self.head] = taken;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branches_are_easy() {
        let mut t = Tage::new();
        for i in 0..2000u64 {
            t.predict_and_train(Addr::new(0x100 + (i % 8) * 4), true);
        }
        assert!(t.stats().accuracy() > 0.95, "{:?}", t.stats());
    }

    #[test]
    fn alternating_pattern_is_learned() {
        let mut t = Tage::new();
        let pc = Addr::new(0x200);
        let mut correct_late = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            let ok = t.predict_and_train(pc, taken);
            if i >= 1000 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late > 900, "late accuracy {correct_late}/1000");
    }

    #[test]
    fn long_period_pattern_uses_long_history() {
        // Period-20 pattern: bimodal can't learn it; tagged tables
        // with >=15-bit history can.
        let mut t = Tage::new();
        let pc = Addr::new(0x300);
        let mut correct_late = 0;
        for i in 0..6000u64 {
            let taken = (i % 20) < 3;
            let ok = t.predict_and_train(pc, taken);
            if i >= 4000 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late > 1700, "late accuracy {correct_late}/2000");
    }

    #[test]
    fn random_branches_are_hard() {
        let mut t = Tage::new();
        let mut x: u64 = 42;
        let mut wrong = 0;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !t.predict_and_train(Addr::new(0x400), (x >> 62) & 1 == 1) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / 4000.0;
        assert!(rate > 0.3, "random stream mispredict rate {rate}");
    }

    #[test]
    fn folded_history_stays_in_range() {
        let mut f = Folded::new(130, 10);
        let mut x: u64 = 3;
        for _ in 0..10_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            f.update(x & 1 == 1, (x >> 1) & 1 == 1);
            assert!(f.value < (1 << 10));
        }
    }
}
