//! Instruction prefetchers: fetch-directed prefetching (FDP, \[31\])
//! and the entangling prefetcher (\[76\]).
//!
//! Both produce *candidate blocks*; the simulator filters them against
//! the L1i contents and MSHR budget, issues them down the hierarchy,
//! and fills them on arrival (into the i-Filter for ACIC, matching
//! Figure 9's timeline). FDP's candidates are the FTQ entries
//! themselves, which the engine scans in place
//! (`Ftq::fdp_scan`); entangling queues its own.

use acic_types::hash::{fold, mix64};
use acic_types::{Cycle, TaggedBlock};
use std::collections::VecDeque;

/// Entangled-table capacity (§IV-H4: 4K entries).
const ENTANGLED_ENTRIES: usize = 4096;
/// Destinations per entangled entry.
const DSTS_PER_ENTRY: usize = 2;
/// Fetch-history window used to find entangling sources.
const HISTORY_LEN: usize = 64;

/// A prefetcher producing candidate blocks.
#[derive(Debug)]
pub enum Prefetcher {
    /// No prefetching.
    None,
    /// Fetch-directed: prefetch blocks already sitting in the FTQ.
    Fdp,
    /// Entangling: learn (source, destination) pairs timed to hide
    /// the miss latency.
    Entangling(Entangling),
}

impl Prefetcher {
    /// Moves the queued candidate blocks into `out` (entangling's
    /// triggered destinations; FDP queues none — its candidates stay
    /// in the FTQ).
    pub fn drain_candidates(&mut self, out: &mut Vec<TaggedBlock>) {
        if let Prefetcher::Entangling(e) = self {
            e.drain_pending(out);
        }
    }

    /// Observes a demand fetch (hit or miss) of `block` at `now`.
    pub fn on_demand_fetch(&mut self, block: TaggedBlock, now: Cycle) {
        if let Prefetcher::Entangling(e) = self {
            e.on_demand_fetch(block, now);
        }
    }

    /// Observes a demand miss of `block` issued at `now` with total
    /// `latency` cycles to fill.
    pub fn on_demand_miss(&mut self, block: TaggedBlock, now: Cycle, latency: u64) {
        if let Prefetcher::Entangling(e) = self {
            e.on_demand_miss(block, now, latency);
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct EntangledEntry {
    tag: u32,
    valid: bool,
    dsts: [Option<TaggedBlock>; DSTS_PER_ENTRY],
    next_slot: usize,
}

/// The entangling instruction prefetcher.
///
/// On a demand miss, the block fetched roughly `latency` cycles
/// earlier becomes the *source* entangled with the missing
/// *destination*; later fetches of the source prefetch its
/// destinations just in time.
#[derive(Debug)]
pub struct Entangling {
    history: VecDeque<(Cycle, TaggedBlock)>,
    table: Vec<EntangledEntry>,
    pending: Vec<TaggedBlock>,
    /// Entanglings recorded (stats).
    pub entangled: u64,
}

impl Default for Entangling {
    fn default() -> Self {
        Self::new()
    }
}

impl Entangling {
    /// Creates an empty entangled table.
    pub fn new() -> Self {
        Entangling {
            history: VecDeque::with_capacity(HISTORY_LEN),
            table: vec![EntangledEntry::default(); ENTANGLED_ENTRIES],
            pending: Vec::new(),
            entangled: 0,
        }
    }

    fn slot_of(block: TaggedBlock) -> (usize, u32) {
        // Tagged identity: tenants entangle separately (identical to
        // the raw block address for the host space).
        let h = mix64(block.ident());
        (fold(h, 12) as usize, (fold(h ^ 0xe47a, 16)) as u32)
    }

    fn on_demand_fetch(&mut self, block: TaggedBlock, now: Cycle) {
        // Trigger prefetches for destinations entangled with `block`.
        let (slot, tag) = Self::slot_of(block);
        let e = &self.table[slot];
        if e.valid && e.tag == tag {
            for dst in e.dsts.into_iter().flatten() {
                self.pending.push(dst);
            }
        }
        self.history.push_back((now, block));
        if self.history.len() > HISTORY_LEN {
            self.history.pop_front();
        }
    }

    fn on_demand_miss(&mut self, block: TaggedBlock, now: Cycle, latency: u64) {
        // Source: the most recent fetch at least `latency` cycles old,
        // so that a prefetch issued there would have completed by now.
        let cutoff = now.saturating_sub(latency);
        let src = self
            .history
            .iter()
            .rev()
            .find(|&&(t, _)| t <= cutoff)
            .or_else(|| self.history.front())
            .map(|&(_, b)| b);
        let Some(src) = src else { return };
        if src == block {
            return;
        }
        let (slot, tag) = Self::slot_of(src);
        let e = &mut self.table[slot];
        if !e.valid || e.tag != tag {
            *e = EntangledEntry {
                tag,
                valid: true,
                dsts: [None; DSTS_PER_ENTRY],
                next_slot: 0,
            };
        }
        if e.dsts.contains(&Some(block)) {
            return;
        }
        e.dsts[e.next_slot] = Some(block);
        e.next_slot = (e.next_slot + 1) % DSTS_PER_ENTRY;
        self.entangled += 1;
    }

    fn drain_pending(&mut self, out: &mut Vec<TaggedBlock>) {
        out.append(&mut self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_types::BlockAddr;

    fn tb(b: u64) -> TaggedBlock {
        TaggedBlock::untagged(BlockAddr::new(b))
    }

    #[test]
    fn entangling_learns_miss_pairs() {
        let mut e = Entangling::new();
        let src = tb(10);
        let dst = tb(99);
        // src fetched at cycle 0; dst misses at cycle 100 with a
        // 50-cycle fill: src qualifies as the entangling source.
        e.on_demand_fetch(src, 0);
        e.on_demand_miss(dst, 100, 50);
        assert_eq!(e.entangled, 1);
        // Next time src is fetched, dst is prefetched.
        e.on_demand_fetch(src, 200);
        let mut out = Vec::new();
        e.drain_pending(&mut out);
        assert_eq!(out, vec![dst]);
    }

    #[test]
    fn no_self_entangling() {
        let mut e = Entangling::new();
        let b = tb(5);
        e.on_demand_fetch(b, 0);
        e.on_demand_miss(b, 100, 50);
        assert_eq!(e.entangled, 0);
    }

    #[test]
    fn destinations_rotate() {
        let mut e = Entangling::new();
        let src = tb(1);
        e.on_demand_fetch(src, 0);
        for (i, d) in [20u64, 21, 22].iter().enumerate() {
            e.on_demand_miss(tb(*d), 100 + i as u64, 50);
        }
        e.on_demand_fetch(src, 500);
        let mut out = Vec::new();
        e.drain_pending(&mut out);
        assert_eq!(out.len(), 2, "table holds two destinations");
    }
}
