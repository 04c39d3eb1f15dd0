//! Log-bucket latency histogram.
//!
//! Values are unsigned integers (nanoseconds everywhere in this
//! harness). Each power-of-two octave is split into 64 equal
//! sub-buckets, so a bucket is at most 1/64 of its lower edge wide and
//! the mean of its samples, which is what a quantile reports, is within
//! 1.6 % of every one of them (the issue asks for ≤ 2 %). Values below 128 get a bucket each.
//! Histograms merge by adding counts, which is what lets every
//! interleaved round pool into one estimate.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it: p50 needs 20 samples, p99 needs 1 000. The caller
//! sees `None` otherwise and must not substitute a smaller percentile.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are exact; octaves from here up get `SUB` buckets.
const EXACT: u64 = 2 * SUB;
const FIRST_OCTAVE: u32 = SUB_BITS + 1;
const BUCKETS: usize = EXACT as usize + (64 - FIRST_OCTAVE as usize) * SUB as usize;

/// A mergeable log-bucket histogram over `u64` samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    /// Sum of the samples in each bucket, so a quantile can report the
    /// mean of its bucket instead of a fixed point of it.
    sums: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // FIRST_OCTAVE..=63
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    EXACT as usize + ((e - FIRST_OCTAVE) as usize) * SUB as usize + sub as usize
}

/// Inclusive lower edge and exclusive upper edge of bucket `b`.
#[cfg(test)]
fn bucket_edges(b: usize) -> (u64, u64) {
    if b < EXACT as usize {
        return (b as u64, b as u64 + 1);
    }
    let e = FIRST_OCTAVE + ((b - EXACT as usize) / SUB as usize) as u32;
    let sub = ((b - EXACT as usize) % SUB as usize) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (1u64 << e) + sub * width;
    (lo, lo.saturating_add(width))
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(v);
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a = a.saturating_add(*b);
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q < 1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let rank = (q * self.n as f64).ceil().max(1.0) as u64;
        if self.n < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The mean of the bucket the rank falls in: within the
                // bucket's width of every sample there, and two runs
                // that differ at all do not read the same.
                return Some(self.sums[b] / c);
            }
        }
        Some(self.max)
    }

    /// Median, under the sample-count rule.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile, under the sample-count rule.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// Median of a small slice of measurements (segment throughputs,
/// set-up times): the mean of the two middle values when even.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn reference(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    #[test]
    fn edges_invert_bucket_of() {
        for v in [0u64, 1, 127, 128, 129, 1000, 123_456_789, u64::MAX / 3] {
            let (lo, hi) = bucket_edges(bucket_of(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi})");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_within_two_percent_of_sorted_reference() {
        let mut rng = Rng::new(7);
        // Log-uniform over 100 ns .. 1 s: every octave the harness meets.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let e = 7 + rng.below(23);
                (1u64 << e) + rng.below(1 << e)
            })
            .collect();
        let mut h = Hist::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = reference(&samples, q) as f64;
            let got = h.quantile(q).unwrap() as f64;
            assert!(
                (got - want).abs() / want <= 0.02,
                "q={q}: got {got}, reference {want}"
            );
        }
        assert_eq!(h.max(), *samples.last().unwrap());
        assert_eq!(h.count(), 50_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut rng = Rng::new(11);
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..4000 {
            let v = 500 + rng.below(2_000_000);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.p50(), all.p50());
        assert_eq!(a.p99(), all.p99());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 0..19 {
            h.record(1000 + v);
        }
        assert_eq!(h.p50(), None, "19 samples: 9 beyond the median");
        h.record(2000);
        assert!(h.p50().is_some(), "20 samples: 10 beyond the median");
        assert_eq!(h.p99(), None);
        for v in 0..980 {
            h.record(3000 + v);
        }
        assert_eq!(h.count(), 1000);
        assert!(h.p99().is_some(), "1000 samples: 10 beyond p99");
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
