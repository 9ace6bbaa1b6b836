//! The seeded generator behind pair order and concrete vectors. The
//! program under test never sees the seed, only the inputs made from it.

/// SplitMix64: tiny, well mixed, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `1..=max` (`max >= 1`). The modulo bias is below 2^-32
    /// for the 32-bit input words drawn here.
    pub fn in_1_to(&mut self, max: u64) -> u64 {
        1 + self.next_u64() % max
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn range_and_shuffle_stay_in_bounds() {
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| (1..=5).contains(&r.in_1_to(5))));
        assert_eq!(r.in_1_to(1), 1);
        let mut items: Vec<u32> = (0..18).collect();
        r.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
