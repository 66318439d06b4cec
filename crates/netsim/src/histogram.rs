//! Fixed-bucket log-scale histograms — the one-way delay distribution
//! behind every reported delay percentile.
//!
//! A [`Histogram`] records unsigned 64-bit samples (nanoseconds, or any
//! other non-negative magnitude) into a fixed layout of
//! [`BUCKET_COUNT`] buckets: values below 8 get exact buckets, larger
//! values land in a log-scale bucket keyed by the exponent plus two
//! mantissa bits, so relative bucket width never exceeds 25%. The layout
//! is a pure function of the value — no per-instance configuration — so
//! the buckets depend only on the multiset of samples, never on their
//! arrival order, and two histograms always merge bucket-for-bucket.

/// Number of buckets in the fixed layout. Index 0..8 hold exact values
/// 0..8; the rest cover `8..=u64::MAX` in 4 sub-buckets per power of
/// two (61 exponents × 4 = 244, of which the top indices are unused
/// headroom).
pub const BUCKET_COUNT: usize = 256;

/// Bucket index for a sample. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    // Exponent of the most significant bit (>= 3 here) plus the next two
    // mantissa bits: 4 sub-buckets per octave.
    let e = 63 - v.leading_zeros() as usize;
    let frac = ((v >> (e - 2)) & 3) as usize;
    8 + (e - 3) * 4 + frac
}

/// Inclusive `(lower, upper)` value bounds of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 8 {
        return (idx as u64, idx as u64);
    }
    let e = 3 + (idx - 8) / 4;
    let frac = ((idx - 8) % 4) as u64;
    let width = 1u64 << (e - 2);
    let lower = (4 + frac) << (e - 2);
    (lower, lower.saturating_add(width - 1))
}

/// A mergeable fixed-layout log-scale histogram of `u64` samples.
///
/// `Default` is the empty histogram and allocates nothing; the bucket
/// array is built on the first recorded sample, so carrying one inside
/// every [`crate::stats::FlowStats`] costs nothing for flows that never
/// deliver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; empty until the first sample, then `BUCKET_COUNT`
    /// long.
    counts: Vec<u64>,
    /// Total samples recorded (or merged in).
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` copies of one sample in O(1) — the weighted form the
    /// fluid population path uses to credit a whole represented batch at
    /// once. Equivalent to calling [`Histogram::record`] `n` times.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
        self.counts[bucket_index(v)] += n;
        self.total += n;
    }

    /// Records a non-negative duration given in seconds, at nanosecond
    /// resolution (negative or non-finite inputs count as zero).
    pub fn record_secs(&mut self, secs: f64) {
        self.record_secs_n(secs, 1);
    }

    /// Weighted form of [`Histogram::record_secs`]: `n` copies of the
    /// same duration in O(1).
    pub fn record_secs_n(&mut self, secs: f64, n: u64) {
        let ns = if secs.is_finite() && secs > 0.0 {
            (secs * 1e9).round() as u64
        } else {
            0
        };
        self.record_n(ns, n);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Folds another histogram into this one. Buckets are a fixed pure
    /// function of the value, so merging is elementwise addition —
    /// associative and commutative: however samples were split across
    /// histograms, merging them back equals recording them all in one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in [0, 1]; 0 when empty). The true sample is never larger —
    /// the log layout bounds the overshoot at 25%.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// Inclusive `(lower, upper)` value bounds of the bucket holding the
    /// `q`-quantile sample; `(0, 0)` when empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.total == 0 {
            return (0, 0);
        }
        // Nearest-rank: the smallest bucket whose cumulative count
        // reaches rank = ceil(q * total), clamped into [1, total].
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx);
            }
        }
        bucket_bounds(BUCKET_COUNT - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8 {
            h.record(v);
        }
        for v in 0..8u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn bounds_contain_their_values_and_stay_tight() {
        for v in [
            8u64,
            9,
            100,
            1_000,
            65_535,
            1_000_000,
            123_456_789,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            // Log layout: bucket width never exceeds 25% of its lower bound.
            assert!(hi - lo <= lo / 4 + 1, "bucket [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn bucket_index_is_monotone_across_boundaries() {
        let mut last = 0;
        for e in 3..63u32 {
            for v in [(1u64 << e) - 1, 1u64 << e, (1u64 << e) + 1] {
                let idx = bucket_index(v);
                assert!(idx >= last, "index regressed at {v}");
                last = idx;
            }
        }
    }

    #[test]
    fn quantiles_bound_the_true_sample() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (0..1000).map(|i| i * i).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: true {truth} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_upper(0.99), 0);
        assert_eq!(h.quantile_bounds(0.5), (0, 0));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 77, 1024, 5_000_000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 77, 900_000_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (mut weighted, mut looped) = (Histogram::new(), Histogram::new());
        weighted.record_n(1234, 5);
        weighted.record_secs_n(0.002, 3);
        weighted.record_n(9, 0); // zero weight is a no-op
        for _ in 0..5 {
            looped.record(1234);
        }
        for _ in 0..3 {
            looped.record_secs(0.002);
        }
        assert_eq!(weighted, looped);
    }

    #[test]
    fn record_secs_converts_at_nanosecond_resolution() {
        let mut h = Histogram::new();
        h.record_secs(0.001); // 1 ms
        let (lo, hi) = h.quantile_bounds(1.0);
        assert!(lo <= 1_000_000 && 1_000_000 <= hi);
        // Negative and non-finite inputs degrade to zero, not a panic.
        h.record_secs(-1.0);
        h.record_secs(f64::NAN);
        assert_eq!(h.total(), 3);
    }
}
