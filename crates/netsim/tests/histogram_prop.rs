//! Property tests for the [`nn_netsim::Histogram`] telemetry primitive.
//!
//! The histogram's whole value to the experiment matrix is invariance:
//! the same sample multiset must produce the same buckets no matter how
//! recording was split into parts, in what order samples arrived, or in
//! what shape partial histograms were merged back together. These
//! properties pin that contract against arbitrary sample sets and
//! splits, plus the quantile bounds against a sorted reference.

use nn_netsim::Histogram;
use proptest::prelude::*;

/// Raw draws for a sample set spanning the exact range (<8), the
/// sub-bucketed log range, and the full u64 domain including the top
/// bucket: each `(mode, raw)` pair becomes one sample via [`widen`].
fn raw_samples() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4, any::<u64>()), 1..200)
}

fn widen(draws: &[(u64, u64)]) -> Vec<u64> {
    draws
        .iter()
        .map(|&(mode, raw)| match mode {
            0 => raw % 16,
            1 => 8 + raw % 100_000,
            2 => raw,
            _ => u64::MAX,
        })
        .collect()
}

fn record_all(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Merging is associative and commutative: any split of a sample set
    /// into three parts, merged in either grouping and either order,
    /// equals recording everything into one histogram.
    #[test]
    fn merge_is_associative_and_commutative(
        draws in raw_samples(),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        let values = widen(&draws);
        let (mut lo, mut hi) = (cut_a % (values.len() + 1), cut_b % (values.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let (a, b, c) = (
            record_all(&values[..lo]),
            record_all(&values[lo..hi]),
            record_all(&values[hi..]),
        );
        let reference = record_all(&values);

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        // c ∪ b ∪ a (reversed order)
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);

        prop_assert_eq!(&left, &reference);
        prop_assert_eq!(&right, &reference);
        prop_assert_eq!(&rev, &reference);
    }

    /// Every quantile's bucket bounds bracket the exact nearest-rank
    /// sample from a sorted reference, and the bucket never overshoots
    /// the true value by more than the documented 25% relative width.
    #[test]
    fn quantile_bounds_bracket_the_sorted_reference(
        draws in raw_samples(),
        q_mils in 0u64..1001,
    ) {
        let values = widen(&draws);
        let q = q_mils as f64 / 1000.0;
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let (lo, hi) = h.quantile_bounds(q);
        prop_assert!(
            lo <= truth && truth <= hi,
            "q={}: true sample {} outside bucket [{}, {}]", q, truth, lo, hi
        );
        prop_assert!(
            hi - lo <= lo / 4 + 1,
            "bucket [{}, {}] wider than 25% of its lower bound", lo, hi
        );
    }

    /// The bucket state is a pure function of the sample multiset: any
    /// permutation of recording order, and any split into `k`
    /// interleaved parts merged back, yields an equal histogram.
    #[test]
    fn encoding_is_invariant_over_order_and_sharding(
        draws in raw_samples(),
        shards in 1usize..8,
        seed in any::<u64>(),
    ) {
        let values = widen(&draws);
        let reference = record_all(&values);

        // Deterministic pseudo-shuffle of the recording order.
        let mut shuffled = values.clone();
        let n = shuffled.len();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        prop_assert_eq!(&record_all(&shuffled), &reference);

        // Strided sharding, like the matrix planner: shard i records
        // samples i, i+k, i+2k, …, then everything merges back.
        let mut merged = Histogram::new();
        for s in 0..shards {
            let part: Vec<u64> = values.iter().skip(s).step_by(shards).copied().collect();
            merged.merge(&record_all(&part));
        }
        prop_assert_eq!(merged, reference);
    }
}
