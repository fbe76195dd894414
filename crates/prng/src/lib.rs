//! # ickp-prng — deterministic pseudo-randomness without dependencies
//!
//! The synthetic benchmark and the randomized test suites need
//! reproducible random streams, and this repository must build with **no
//! network access** (see README "Install & test"), so it cannot depend on
//! the `rand` crate family. This crate provides the small slice of that
//! API the workspace actually uses, built on xoshiro256\*\* seeded via
//! splitmix64 — the standard small-state generator pairing.
//!
//! Not cryptographic; strictly for workload generation and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic xoshiro256\*\* generator.
///
/// Two generators constructed with the same seed produce identical
/// streams on every platform (the implementation is pure integer
/// arithmetic, no platform entropy).
///
/// # Example
///
/// ```
/// use ickp_prng::Prng;
///
/// let mut a = Prng::seed_from_u64(7);
/// let mut b = Prng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed (splitmix64-expanded, so
    /// similar seeds still yield unrelated streams).
    pub fn seed_from_u64(seed: u64) -> Prng {
        let mut sm = seed;
        Prng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random `i32`.
    pub fn next_i32(&mut self) -> i32 {
        self.next_u32() as i32
    }

    /// A uniformly random `i64`.
    pub fn next_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// A uniformly random boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or `num > den`.
    pub fn ratio(&mut self, num: u32, den: u32) -> bool {
        assert!(den > 0, "ratio denominator must be positive");
        assert!(num <= den, "ratio numerator {num} exceeds denominator {den}");
        self.below(den as u64) < num as u64
    }

    /// A uniformly random integer in `[0, bound)` (Lemire rejection, so
    /// the distribution is exactly uniform).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniformly random `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A uniformly random integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// A uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be unrelated, {same} collisions");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Prng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn ratio_extremes() {
        let mut r = Prng::seed_from_u64(4);
        for _ in 0..50 {
            assert!(r.ratio(10, 10));
            assert!(!r.ratio(0, 10));
        }
    }

    #[test]
    fn ratio_is_roughly_proportional() {
        let mut r = Prng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.ratio(25, 100)).count();
        assert!((2_000..3_000).contains(&hits), "25% of 10k ≈ 2500, got {hits}");
    }

    #[test]
    fn range_hits_both_ends_eventually() {
        let mut r = Prng::seed_from_u64(7);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_i64(-2, 3) {
                -2 => lo_seen = true,
                2 => hi_seen = true,
                v => assert!((-2..3).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn choose_picks_members() {
        let mut r = Prng::seed_from_u64(8);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
