//! SplitMix64: a tiny, fast, high-quality 64-bit mixing function.
//!
//! Load levels must be random-accessible: the simulator and the analytic
//! model both query `ℓ_i(k)` for arbitrary interval indices `k`, in
//! arbitrary order, and must see the *same* load function.
//! A stateful RNG would force sequential generation; instead each level is
//! produced by hashing `(seed, k)` through SplitMix64, which is stateless
//! and O(1) per query.

/// Stateless SplitMix64 hashing, as associated functions.
///
/// `SplitMix64::mix(x)` is the finalizer of Vigna's splitmix64; it is a
/// bijection on `u64` with excellent avalanche behaviour, which is all a
/// discrete uniform load draw needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64;

impl SplitMix64 {
    /// The stateless mixing finalizer: a bijection on `u64`.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Hash a `(seed, index)` pair to a uniform `u64` — the random-access
    /// primitive behind [`crate::LoadSpec::DiscreteRandom`].
    #[inline]
    pub fn hash2(seed: u64, index: u64) -> u64 {
        Self::mix(seed ^ Self::mix(index))
    }

    /// `hash2` reduced to `0..bound`.
    #[inline]
    pub fn hash2_below(seed: u64, index: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((Self::hash2(seed, index) as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_injective_on_a_sample() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(SplitMix64::mix).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn hash2_random_access_matches_itself() {
        for k in [0u64, 1, 17, 1_000_000, u64::MAX] {
            assert_eq!(SplitMix64::hash2(7, k), SplitMix64::hash2(7, k));
        }
    }

    #[test]
    fn hash2_below_is_roughly_uniform() {
        let mut counts = [0usize; 6];
        for k in 0..60_000u64 {
            counts[SplitMix64::hash2_below(99, k, 6) as usize] += 1;
        }
        for &c in &counts {
            // each bucket should hold ~10_000 ± a generous margin
            assert!(
                (8_500..11_500).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }
}
