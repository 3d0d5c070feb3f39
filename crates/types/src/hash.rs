//! Deterministic hashing helpers.
//!
//! Every indexed structure in the reproduction (HRT, CSHR partial tags,
//! GHRP/SHiP/Hawkeye signature tables, TAGE indices) needs a cheap,
//! deterministic, well-mixed hash. We use the SplitMix64 finalizer,
//! which is a strong 64-bit mixer, plus folding helpers to reduce a
//! hash to an n-bit index or partial tag.
//!
//! [`fnv1a`] is the byte-stream hash behind the result journal's line
//! checksums and keys, and behind `PackedTrace::checksum`.
//!
//! [`SplitMix64`] additionally serves as a tiny deterministic PRNG for
//! components that need sampling decisions (DSB's probabilistic bypass,
//! OBM's pair sampling) without pulling a full RNG dependency into the
//! simulator.

/// Mixes a 64-bit value through the SplitMix64 finalizer.
///
/// # Examples
///
/// ```
/// use acic_types::hash::mix64;
///
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42)); // deterministic
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Combines two 64-bit values into one hash.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Folds a 64-bit hash down to `bits` bits by XOR-ing all the
/// `bits`-wide slices of the value together.
///
/// This is the classic folded-history technique used by TAGE and is
/// also how we form the paper's 12-bit CSHR partial tags from full
/// block addresses.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 63.
///
/// # Examples
///
/// ```
/// use acic_types::hash::fold;
///
/// let h = 0xdead_beef_1234_5678u64;
/// assert!(fold(h, 12) < (1 << 12));
/// ```
#[inline]
pub fn fold(hash: u64, bits: u32) -> u64 {
    assert!(bits > 0 && bits < 64, "bits must be in 1..=63");
    let mask = (1u64 << bits) - 1;
    let mut out = 0u64;
    let mut rest = hash;
    while rest != 0 {
        out ^= rest & mask;
        rest >>= bits;
    }
    out
}

/// FNV-1a initial state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continued from `h`; seed with
/// [`FNV_OFFSET`].
///
/// # Examples
///
/// ```
/// use acic_types::hash::{fnv1a, FNV_OFFSET};
///
/// // Hashing in pieces continues the same stream.
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"), fnv1a(FNV_OFFSET, b"abc"));
/// ```
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A small deterministic PRNG (SplitMix64 stream).
///
/// Not cryptographic; used for sampling decisions inside policies so
/// simulations stay reproducible without threading an external RNG
/// through every component.
///
/// # Examples
///
/// ```
/// use acic_types::hash::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        mix64(self.state)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift range reduction; bias is negligible for the
        // small bounds used by policies.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `num / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is 0.
    #[inline]
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.next_below(denom) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, b);
        // Low bits should differ too (important for masking).
        assert_ne!(a & 0xfff, b & 0xfff);
    }

    #[test]
    fn fold_stays_in_range() {
        for bits in 1..20 {
            for x in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
                assert!(fold(mix64(x), bits) < (1u64 << bits));
            }
        }
    }

    #[test]
    fn fold_uses_high_bits() {
        // Two values differing only in the top bits must (for this
        // mixer-free call) fold to different values.
        let a = 0x8000_0000_0000_0000u64;
        let b = 0u64;
        assert_ne!(fold(a, 12), fold(b, 12));
    }

    #[test]
    fn splitmix_next_below_bounds() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn splitmix_chance_rate_is_plausible() {
        let mut rng = SplitMix64::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(1, 4)).count();
        // 25% +/- 3% over 10k draws.
        assert!((2200..=2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn mix2_depends_on_both_inputs() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix2(1, 2), mix2(1, 3));
    }

    #[test]
    fn mix64_matches_splitmix64_reference_vectors() {
        // Known-answer vectors for the SplitMix64 finalizer. These pin
        // the exact bit pattern: simulation seeds, CSHR partial tags
        // and predictor indices all flow through mix64, so silently
        // changing it would silently change every experiment.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
        assert_eq!(mix64(2), 0x975835de1c9756ce);
        assert_eq!(mix64(0x0123_4567_89ab_cdef), 0x157a3807a48faa9d);
        assert_eq!(mix64(u64::MAX), 0xe4d971771b652c20);
    }

    #[test]
    fn fold_is_deterministic_and_boundary_safe() {
        for bits in [1u32, 2, 12, 32, 63] {
            for x in [0u64, 1, 0xdead_beef, u64::MAX, 1u64 << 63] {
                let a = fold(x, bits);
                let b = fold(x, bits);
                assert_eq!(a, b, "fold must be pure (x={x:#x}, bits={bits})");
                if bits < 64 {
                    assert!(a < (1u64 << bits));
                }
            }
        }
        // bits = 63 keeps the top bit's contribution.
        assert_ne!(fold(1u64 << 63, 63), 0);
    }

    #[test]
    fn fold_xors_all_slices() {
        // 12-bit fold of three stacked slices must equal their XOR.
        let x = (0xabcu64 << 24) | (0x123u64 << 12) | 0x456u64;
        assert_eq!(fold(x, 12), 0xabc ^ 0x123 ^ 0x456);
    }
}
