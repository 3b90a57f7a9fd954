//! A small deterministic PRNG (SplitMix64) for seed-derived inputs.
//!
//! The benchmark must produce byte-identical inputs for a given `--seed` on
//! every machine and toolchain, so it carries its own generator instead of
//! depending on a library whose stream could change between versions.

/// SplitMix64 (Steele, Lea and Flood, 2014): one 64-bit state word, full
/// period, good enough mixing for shuffles and name choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (any value, zero included).
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, printed by the benchmark as the fingerprint of its
/// generated inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        let mut x: Vec<u32> = (0..11).collect();
        let mut y = x.clone();
        Rng::new(3).shuffle(&mut x);
        Rng::new(3).shuffle(&mut y);
        assert_eq!(x, y);
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..11).collect::<Vec<_>>());
    }
}
