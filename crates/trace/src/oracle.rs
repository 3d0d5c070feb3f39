//! The future-knowledge oracle behind OPT, OPT-bypass, and the
//! accuracy studies.
//!
//! Because the demand-fetch block sequence is timing-independent in a
//! trace-driven front end (no wrong-path fetch), Belady's OPT can be
//! computed exactly with two passes: a pre-pass that records, for every
//! access position, when the same block is accessed next (and at what
//! forward stack distance), then the timing pass consults those
//! answers. [`ReuseOracle`] is the pre-pass product; [`OracleCursor`]
//! tracks the current position during the timing pass and answers
//! "when is block B used next?" for any block whose most recent access
//! has been observed.

use acic_types::BlockAddr;
use std::collections::HashMap;

/// Sentinel next-use position for "never used again".
///
/// Using `u64::MAX` lets OPT pick a victim with a simple max-compare.
pub const NO_NEXT_USE: u64 = u64::MAX;

/// Precomputed future-reuse information for a block-access sequence.
///
/// # Examples
///
/// ```
/// use acic_trace::{ReuseOracle, NO_NEXT_USE};
/// use acic_types::BlockAddr;
///
/// let seq: Vec<BlockAddr> = [1u64, 2, 1, 3].iter().map(|&b| BlockAddr::new(b)).collect();
/// let oracle = ReuseOracle::from_sequence(&seq);
/// let mut cur = oracle.cursor();
/// cur.advance(BlockAddr::new(1)); // position 0
/// assert_eq!(cur.next_use_of(BlockAddr::new(1)), 2);
/// cur.advance(BlockAddr::new(2)); // position 1
/// assert_eq!(cur.next_use_of(BlockAddr::new(2)), NO_NEXT_USE);
/// ```
#[derive(Clone, Debug)]
pub struct ReuseOracle {
    /// For access position `i`: the position of the next access to the
    /// same block, or `u32::MAX`.
    next_use: Vec<u32>,
    /// For access position `i`: the stack distance that the *next*
    /// access to this block will observe, or `u32::MAX` if none.
    forward_distance: Vec<u32>,
    /// Sorted access positions per block (for queries about blocks
    /// that entered the cache without a demand access, e.g.
    /// prefetches).
    occurrences: HashMap<BlockAddr, Vec<u32>>,
}

impl ReuseOracle {
    /// Builds the oracle from the block-access sequence (one entry per
    /// [`crate::BlockRun`]).
    ///
    /// # Panics
    ///
    /// Panics if the sequence has `u32::MAX` or more accesses.
    pub fn from_sequence(seq: &[BlockAddr]) -> Self {
        assert!(
            (seq.len() as u64) < u32::MAX as u64,
            "sequence too long for u32 positions"
        );
        let n = seq.len();
        let mut next_use = vec![u32::MAX; n];
        let mut seen: HashMap<BlockAddr, u32> = HashMap::new();
        for i in (0..n).rev() {
            if let Some(&nx) = seen.get(&seq[i]) {
                next_use[i] = nx;
            }
            seen.insert(seq[i], i as u32);
        }
        let mut occurrences: HashMap<BlockAddr, Vec<u32>> = HashMap::new();
        for (i, &b) in seq.iter().enumerate() {
            occurrences.entry(b).or_default().push(i as u32);
        }
        // Forward stack distance at position i = backward stack
        // distance observed at position next_use[i].
        let backward = crate::stack_distance::StackDistanceAnalyzer::analyze(seq);
        let mut forward_distance = vec![u32::MAX; n];
        for (i, &nx) in next_use.iter().enumerate() {
            if nx != u32::MAX {
                if let Some(d) = backward[nx as usize] {
                    forward_distance[i] = d.min(u32::MAX as u64 - 1) as u32;
                }
            }
        }
        ReuseOracle {
            next_use,
            forward_distance,
            occurrences,
        }
    }

    /// First access to `block` at or after position `pos`, or
    /// [`NO_NEXT_USE`]. Works for blocks never observed by a cursor
    /// (e.g. prefetched blocks).
    pub fn next_use_from(&self, block: BlockAddr, pos: u64) -> u64 {
        match self.occurrences.get(&block) {
            None => NO_NEXT_USE,
            Some(list) => {
                let i = list.partition_point(|&p| (p as u64) < pos);
                list.get(i).map_or(NO_NEXT_USE, |&p| p as u64)
            }
        }
    }

    /// Number of accesses covered.
    pub fn len(&self) -> usize {
        self.next_use.len()
    }

    /// Whether the oracle covers zero accesses.
    pub fn is_empty(&self) -> bool {
        self.next_use.is_empty()
    }

    /// Next-use position for the access at `pos`, or [`NO_NEXT_USE`].
    pub fn next_use_at(&self, pos: usize) -> u64 {
        match self.next_use[pos] {
            u32::MAX => NO_NEXT_USE,
            v => v as u64,
        }
    }

    /// Forward stack distance for the access at `pos` (the distance the
    /// next access to the same block will see), or `None`.
    pub fn forward_distance_at(&self, pos: usize) -> Option<u64> {
        match self.forward_distance[pos] {
            u32::MAX => None,
            v => Some(v as u64),
        }
    }

    /// Creates a cursor for walking the sequence during simulation.
    pub fn cursor(&self) -> OracleCursor<'_> {
        OracleCursor {
            oracle: self,
            pos: 0,
            last_access: HashMap::new(),
        }
    }
}

/// Tracks the simulation's position in the access sequence and answers
/// future-reuse queries for blocks by their most recent access.
#[derive(Clone, Debug)]
pub struct OracleCursor<'a> {
    oracle: &'a ReuseOracle,
    pos: u64,
    last_access: HashMap<BlockAddr, u32>,
}

impl<'a> OracleCursor<'a> {
    /// Registers the next demand access (must be called once per block
    /// run, in order) and returns its position index.
    ///
    /// # Panics
    ///
    /// Panics if advanced past the end of the oracle's sequence.
    pub fn advance(&mut self, block: BlockAddr) -> u64 {
        let pos = self.pos;
        assert!(
            (pos as usize) < self.oracle.len(),
            "cursor advanced past oracle end"
        );
        self.last_access.insert(block, pos as u32);
        self.pos += 1;
        pos
    }

    /// Next-use position of `block` (based on its most recent access),
    /// or [`NO_NEXT_USE`] if it has no future access or was never seen.
    pub fn next_use_of(&self, block: BlockAddr) -> u64 {
        match self.last_access.get(&block) {
            None => NO_NEXT_USE,
            Some(&p) => self.oracle.next_use_at(p as usize),
        }
    }

    /// Forward stack distance of `block` from its most recent access,
    /// or `None` if it is never re-accessed (or never seen).
    pub fn forward_distance_of(&self, block: BlockAddr) -> Option<u64> {
        self.last_access
            .get(&block)
            .and_then(|&p| self.oracle.forward_distance_at(p as usize))
    }

    /// Next use of `block` at or after the cursor's position, even if
    /// the block was never observed through [`OracleCursor::advance`]
    /// (needed when a prefetch fills a block the demand stream has
    /// not reached yet).
    pub fn future_use_of(&self, block: BlockAddr) -> u64 {
        match self.last_access.get(&block) {
            Some(&p) => self.oracle.next_use_at(p as usize),
            None => self.oracle.next_use_from(block, self.pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(v: &[u64]) -> Vec<BlockAddr> {
        v.iter().map(|&b| BlockAddr::new(b)).collect()
    }

    #[test]
    fn next_use_chains_are_increasing() {
        let seq = blocks(&[1, 2, 1, 2, 1]);
        let oracle = ReuseOracle::from_sequence(&seq);
        for i in 0..seq.len() {
            let nx = oracle.next_use_at(i);
            if nx != NO_NEXT_USE {
                assert!(nx > i as u64);
                assert_eq!(seq[nx as usize], seq[i]);
            }
        }
    }

    #[test]
    fn last_accesses_have_no_next_use() {
        let seq = blocks(&[1, 2, 3]);
        let oracle = ReuseOracle::from_sequence(&seq);
        for i in 0..3 {
            assert_eq!(oracle.next_use_at(i), NO_NEXT_USE);
        }
    }

    #[test]
    fn forward_distance_matches_backward_at_next_use() {
        // seq: 1 2 3 1 -> access 0 (block 1) has forward distance 2.
        let seq = blocks(&[1, 2, 3, 1]);
        let oracle = ReuseOracle::from_sequence(&seq);
        assert_eq!(oracle.forward_distance_at(0), Some(2));
        assert_eq!(oracle.forward_distance_at(1), None);
    }

    #[test]
    fn cursor_tracks_most_recent_access() {
        let seq = blocks(&[1, 2, 1, 1]);
        let oracle = ReuseOracle::from_sequence(&seq);
        let mut cur = oracle.cursor();
        cur.advance(BlockAddr::new(1));
        assert_eq!(cur.next_use_of(BlockAddr::new(1)), 2);
        cur.advance(BlockAddr::new(2));
        cur.advance(BlockAddr::new(1));
        // Now block 1's most recent access is position 2; next use is 3.
        assert_eq!(cur.next_use_of(BlockAddr::new(1)), 3);
        assert_eq!(cur.next_use_of(BlockAddr::new(99)), NO_NEXT_USE);
    }

    #[test]
    #[should_panic(expected = "past oracle end")]
    fn cursor_overrun_panics() {
        let oracle = ReuseOracle::from_sequence(&blocks(&[1]));
        let mut cur = oracle.cursor();
        cur.advance(BlockAddr::new(1));
        cur.advance(BlockAddr::new(1));
    }

    #[test]
    fn empty_sequence() {
        let oracle = ReuseOracle::from_sequence(&[]);
        assert!(oracle.is_empty());
    }
}

#[cfg(test)]
mod future_use_tests {
    use super::*;

    fn blocks(v: &[u64]) -> Vec<BlockAddr> {
        v.iter().map(|&b| BlockAddr::new(b)).collect()
    }

    #[test]
    fn next_use_from_binary_searches_occurrences() {
        let seq = blocks(&[1, 2, 1, 3, 1]);
        let oracle = ReuseOracle::from_sequence(&seq);
        assert_eq!(oracle.next_use_from(BlockAddr::new(1), 0), 0);
        assert_eq!(oracle.next_use_from(BlockAddr::new(1), 1), 2);
        assert_eq!(oracle.next_use_from(BlockAddr::new(1), 3), 4);
        assert_eq!(oracle.next_use_from(BlockAddr::new(1), 5), NO_NEXT_USE);
        assert_eq!(oracle.next_use_from(BlockAddr::new(9), 0), NO_NEXT_USE);
    }

    #[test]
    fn future_use_covers_unobserved_blocks() {
        let seq = blocks(&[1, 2, 3]);
        let oracle = ReuseOracle::from_sequence(&seq);
        let mut cur = oracle.cursor();
        cur.advance(BlockAddr::new(1));
        // Block 3 was never advanced through the cursor (imagine a
        // prefetch): future_use_of still answers from occurrences.
        assert_eq!(cur.future_use_of(BlockAddr::new(3)), 2);
        // Observed blocks use the chain.
        assert_eq!(cur.future_use_of(BlockAddr::new(1)), NO_NEXT_USE);
    }
}
