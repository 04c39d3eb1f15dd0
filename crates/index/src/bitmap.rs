//! Growable bitmaps.
//!
//! The table-level index keeps one bitmap per table over block ids
//! ("the i-th bit indicates whether block i contains transactions of
//! that table", §IV-B); the layered index's first level keeps small
//! bucket bitmaps per block. Both use [`Bitmap`].

/// A growable bitset over `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Bitmap with bits `[0, n)` preallocated (all zero).
    pub fn with_capacity(n: usize) -> Self {
        Bitmap {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Builds a bitmap from set-bit positions.
    pub fn from_bits<I: IntoIterator<Item = usize>>(bits: I) -> Self {
        let mut b = Bitmap::new();
        for i in bits {
            b.set(i);
        }
        b
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Tests bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self & other`, truncated to the shorter operand.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let n = self.words.len().min(other.words.len());
        Bitmap {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
        }
    }

    /// `self | other`.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let n = self.words.len().max(other.words.len());
        let w = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        Bitmap {
            words: (0..n)
                .map(|i| w(&self.words, i) | w(&other.words, i))
                .collect(),
        }
    }

    /// In-place OR.
    pub fn or_assign(&mut self, other: &Bitmap) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// True if `self & other` has any set bit (without materializing).
    pub fn intersects(&self, other: &Bitmap) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Position of the first bit at or after `from` that is `set`.
    fn next_bit(&self, from: usize, set: bool) -> Option<usize> {
        let mut mask = !0u64 << (from % 64);
        for (wi, &w) in self.words.iter().enumerate().skip(from / 64) {
            let hits = if set { w } else { !w } & mask;
            if hits != 0 {
                return Some(wi * 64 + hits.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// The maximal runs of consecutive set bits as inclusive
    /// `(first, last)` pairs, ascending — a word at a time, so a dense
    /// mask costs its words, not its bits.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let first = self.next_bit(from, true)?;
            from = self.next_bit(first, false).unwrap_or(self.words.len() * 64);
            Some((first, from - 1))
        })
    }

    /// Sets all bits in `[lo, hi]` (inclusive). Used to build the
    /// time-window block mask from the block-level index.
    /// Whole words at a time: the edge words are masked, the words
    /// between set to `!0`; `lo > hi` sets nothing.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        if lo > hi {
            return;
        }
        let (first, last) = (lo / 64, hi / 64);
        if self.words.len() <= last {
            self.words.resize(last + 1, 0);
        }
        let head = !0u64 << (lo % 64);
        let tail = !0u64 >> (63 - hi % 64);
        if first == last {
            self.words[first] |= head & tail;
            return;
        }
        self.words[first] |= head;
        self.words[first + 1..last].fill(!0);
        self.words[last] |= tail;
    }

    /// Serialized size in bytes (word-granular).
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }

    /// The raw words, low bit = bit 0 (checkpoint serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from raw words (checkpoint deserialization).
    pub fn from_words(words: Vec<u64>) -> Self {
        Bitmap { words }
    }

    /// ORs `other`'s bits into `self` with every position shifted up by
    /// `shift` — merges a base-relative tail bitmap into an
    /// absolute-block view.
    pub fn or_assign_shifted(&mut self, other: &Bitmap, shift: usize) {
        for i in other.iter_ones() {
            self.set(i + shift);
        }
    }
}

impl FromIterator<usize> for Bitmap {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Bitmap::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get() {
        let mut b = Bitmap::new();
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(1000);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(1000));
        assert!(!b.get(1) && !b.get(999) && !b.get(100_000));
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn and_or() {
        let a = Bitmap::from_bits([1, 3, 5, 200]);
        let b = Bitmap::from_bits([3, 5, 7]);
        assert_eq!(a.and(&b), Bitmap::from_bits([3, 5]));
        let or = a.or(&b);
        assert_eq!(or.count_ones(), 5);
        assert!(or.get(200));
        assert!(a.intersects(&b));
        assert!(!Bitmap::from_bits([2]).intersects(&Bitmap::from_bits([3])));
    }

    #[test]
    fn iter_ones_order() {
        let b = Bitmap::from_bits([5, 1, 64, 63, 500]);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![1, 5, 63, 64, 500]);
    }

    #[test]
    fn set_range_inclusive() {
        let mut b = Bitmap::new();
        b.set_range(10, 15);
        assert_eq!(
            b.iter_ones().collect::<Vec<_>>(),
            vec![10, 11, 12, 13, 14, 15]
        );
    }

    /// Word-at-a-time ranges set exactly the bits a bit-by-bit loop
    /// sets, at word edges, on one bit, on an empty range and on a
    /// range that grows the bitmap past its words.
    #[test]
    fn set_range_matches_bit_by_bit() {
        let edges = [0usize, 1, 62, 63, 64, 65, 127, 128, 129, 200];
        for seed in [
            Bitmap::new(),
            Bitmap::from_bits([5, 70]),
            Bitmap::with_capacity(64),
        ] {
            for &lo in &edges {
                for &hi in &edges {
                    let mut want = seed.clone();
                    for i in lo..=hi {
                        want.set(i);
                    }
                    let mut got = seed.clone();
                    got.set_range(lo, hi);
                    assert_eq!(
                        got.iter_ones().collect::<Vec<_>>(),
                        want.iter_ones().collect::<Vec<_>>(),
                        "[{lo}, {hi}]"
                    );
                    assert_eq!(got.words().len(), want.words().len(), "[{lo}, {hi}]");
                }
            }
        }
        let mut b = Bitmap::new();
        b.set_range(9, 8);
        assert!(b.words().is_empty());
    }

    #[test]
    fn runs_cross_word_boundaries() {
        let mut b = Bitmap::from_bits([0, 2, 3]);
        b.set_range(60, 130);
        b.set(191);
        let runs: Vec<_> = b.runs().collect();
        assert_eq!(runs, vec![(0, 0), (2, 3), (60, 130), (191, 191)]);
        assert_eq!(Bitmap::new().runs().count(), 0);
    }

    #[test]
    fn empty_checks() {
        assert!(Bitmap::new().is_empty());
        assert!(Bitmap::with_capacity(100).is_empty());
        assert!(!Bitmap::from_bits([0]).is_empty());
    }

    proptest! {
        #[test]
        fn matches_hashset_model(bits in proptest::collection::hash_set(0usize..2000, 0..100),
                                 other in proptest::collection::hash_set(0usize..2000, 0..100)) {
            let a = Bitmap::from_bits(bits.iter().copied());
            let b = Bitmap::from_bits(other.iter().copied());
            let and: std::collections::HashSet<usize> = bits.intersection(&other).copied().collect();
            let or: std::collections::HashSet<usize> = bits.union(&other).copied().collect();
            prop_assert_eq!(a.and(&b).iter_ones().collect::<std::collections::HashSet<_>>(), and.clone());
            prop_assert_eq!(a.or(&b).iter_ones().collect::<std::collections::HashSet<_>>(), or);
            prop_assert_eq!(a.intersects(&b), !and.is_empty());
            prop_assert_eq!(a.count_ones(), bits.len());
            let runs: Vec<(usize, usize)> = a.runs().collect();
            let covered: Vec<usize> = runs.iter().flat_map(|&(f, l)| f..=l).collect();
            prop_assert_eq!(covered, a.iter_ones().collect::<Vec<_>>());
            prop_assert!(runs.windows(2).all(|w| w[0].1 + 1 < w[1].0), "runs must be maximal");
        }
    }
}
