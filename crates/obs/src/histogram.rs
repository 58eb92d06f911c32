//! Histograms: one atomic type whose precision is fixed when it is
//! created, with rank-exact quantiles, plus a windowed time-series.
//!
//! A [`Histogram`] with `b` sub-bucket bits counts the values below
//! `2^b` exactly and splits every octave `[2^k, 2^(k+1))` above them into
//! `2^b` equal sub-buckets, so a bucket is at most `2^-b` of its lower
//! bound wide. Two precisions are in use:
//!
//! * [`LOG2_BITS`] (0 bits): 65 buckets, bucket 0 holding 0 and bucket
//!   `i` holding `[2^(i-1), 2^i)` — orders of magnitude, for sizes and
//!   counts, in 520 bytes of buckets;
//! * [`TAIL_BITS`] (7 bits): 7,424 buckets, 128 per octave, so a
//!   reported quantile is less than 0.8 % above the true value — for
//!   latencies, whose p50 and p999 one power of two would blur together.
//!
//! `observe` is three relaxed `fetch_add`s, a `fetch_max` and a
//! leading-zeros count: no locks, no allocation, safe to share across
//! worker threads via the histogram's internal `Arc`.
//!
//! Quantiles are computed on a frozen [`HistogramSnapshot`] by exact rank
//! selection: `quantile(q)` walks the cumulative counts to the smallest
//! bucket whose running total reaches `ceil(q·count)` and reports that
//! bucket's inclusive upper bound, capped at the exact maximum. The rank
//! is exact; only the reported value is quantized. Snapshots of one
//! precision merge losslessly (bucket-wise addition), so per-thread
//! recorders can be combined before quantile extraction.
//!
//! [`WindowedSeries`] buckets observations into fixed-width windows of
//! (virtual) time, one tail-precision histogram per non-empty window, so
//! a tail spike shows up in *its* window's p99 instead of being averaged
//! away over the whole run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket bits of a log2 histogram (sizes, counts).
pub const LOG2_BITS: u32 = 0;

/// Sub-bucket bits of a tail histogram (latencies).
pub const TAIL_BITS: u32 = 7;

/// Number of buckets at `sub_bits` of precision: the `2^sub_bits` exact
/// values, then one `2^sub_bits`-wide group per octave `sub_bits..=63`.
pub fn bucket_count(sub_bits: u32) -> usize {
    (65 - sub_bits as usize) << sub_bits
}

/// Index of the bucket holding `value` at `sub_bits` of precision.
#[inline]
pub fn bucket_index(sub_bits: u32, value: u64) -> usize {
    if value < 1 << sub_bits {
        value as usize
    } else {
        // Octave `msb` is group `msb - sub_bits`: its value's top
        // `sub_bits + 1` bits, which run `2^sub_bits..2^(sub_bits + 1)`,
        // added to the group shifted by `sub_bits`.
        let group = 63 - value.leading_zeros() - sub_bits;
        ((group as usize) << sub_bits) + (value >> group) as usize
    }
}

/// Inclusive `(lowest, highest)` value held by bucket `index` at
/// `sub_bits` of precision.
pub fn bucket_bounds(sub_bits: u32, index: usize) -> (u64, u64) {
    let i = index as u64;
    let exact = 1u64 << sub_bits;
    if i < exact {
        (i, i)
    } else {
        let group = (i >> sub_bits) - 1;
        let top = exact + (i & (exact - 1));
        // Exclusive upper bound in u128 so the top octave (values near
        // u64::MAX) cannot overflow.
        let hi_excl = u128::from(top + 1) << group;
        let hi = (hi_excl - 1).min(u128::from(u64::MAX)) as u64;
        (top << group, hi)
    }
}

/// Atomic histogram of `u64` observations at a precision fixed when it
/// is created ([`LOG2_BITS`] or [`TAIL_BITS`]). Clones share it.
#[derive(Clone)]
pub struct Histogram(Arc<Inner>);

struct Inner {
    sub_bits: u32,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("sub_bits", &self.0.sub_bits)
            .field("count", &self.0.count.load(Ordering::Relaxed))
            .field("sum", &self.0.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram with `sub_bits` of precision
    /// ([`bucket_count`] buckets).
    pub fn new(sub_bits: u32) -> Histogram {
        Histogram(Arc::new(Inner {
            sub_bits,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..bucket_count(sub_bits))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }))
    }

    /// The precision this histogram was created with.
    pub fn sub_bits(&self) -> u32 {
        self.0.sub_bits
    }

    /// Records one observation: three relaxed `fetch_add`s plus a relaxed
    /// `fetch_max`, no locks, no allocation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
        inner.buckets[bucket_index(inner.sub_bits, value)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Freezes the current state. Under concurrent `observe` the fields
    /// are read independently, so `count`, `sum` and the bucket totals
    /// may differ by the few observations in flight; once writers
    /// quiesce they agree exactly.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let buckets = (inner.buckets.iter().enumerate())
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            sub_bits: inner.sub_bits,
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state: sparse `(bucket index, count)` pairs in
/// ascending index order, plus exact count/sum/max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The precision of the histogram it was taken from.
    pub sub_bits: u32,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The rank-exact quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the smallest bucket whose cumulative count reaches
    /// `ceil(q·count)` (at least 1). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_bounds(self.sub_bits, idx as usize);
                // Never report past the true maximum: the top bucket's
                // upper bound quantizes up, but `max` is exact.
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lossless merge: bucket-wise addition. Associative and commutative;
    /// `merge(a, b).count == a.count + b.count` and no bucket count is
    /// lost (the proptests in `tests/obs_props.rs` pin this).
    ///
    /// # Panics
    /// If the two snapshots have different precisions.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge histograms of different precisions"
        );
        let mut buckets: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *buckets.entry(idx).or_insert(0) += n;
        }
        HistogramSnapshot {
            sub_bits: self.sub_bits,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets: buckets.into_iter().collect(),
        }
    }
}

/// Fixed-width windowed time-series of tail histograms.
///
/// `observe(at, value)` files the observation under window
/// `at / width`; only non-empty windows are materialized. Windows merge
/// position-wise across series of the same width, so per-thread series
/// combine before reporting. Not thread-shared itself (each worker owns
/// one and the results are merged) — the per-window histograms are
/// atomic [`Histogram`]s at [`TAIL_BITS`].
#[derive(Debug)]
pub struct WindowedSeries {
    width: u64,
    windows: BTreeMap<u64, Histogram>,
}

impl WindowedSeries {
    /// A series with the given window width (same unit as `observe`'s
    /// `at`; typically virtual nanoseconds). Width 0 is clamped to 1.
    pub fn new(width: u64) -> WindowedSeries {
        WindowedSeries {
            width: width.max(1),
            windows: BTreeMap::new(),
        }
    }

    pub fn width(&self) -> u64 {
        self.width
    }

    fn window(&mut self, w: u64) -> &Histogram {
        self.windows
            .entry(w)
            .or_insert_with(|| Histogram::new(TAIL_BITS))
    }

    /// Records `value` at time `at`.
    pub fn observe(&mut self, at: u64, value: u64) {
        let w = at / self.width;
        self.window(w).observe(value);
    }

    /// Merges another series of the same width into this one.
    ///
    /// # Panics
    /// If the widths differ — merging misaligned windows would smear
    /// exactly the spikes the series exists to localize.
    pub fn merge_from(&mut self, other: &WindowedSeries) {
        assert_eq!(
            self.width, other.width,
            "cannot merge windowed series of different widths"
        );
        for (&w, hist) in &other.windows {
            let snap = hist.snapshot();
            // Replay the sparse buckets; count, sum and max stay exact.
            let dst = &self.window(w).0;
            dst.count.fetch_add(snap.count, Ordering::Relaxed);
            dst.sum.fetch_add(snap.sum, Ordering::Relaxed);
            dst.max.fetch_max(snap.max, Ordering::Relaxed);
            for (idx, n) in snap.buckets {
                dst.buckets[idx as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// `(window start time, snapshot)` for every non-empty window, in
    /// time order.
    pub fn snapshot(&self) -> Vec<(u64, HistogramSnapshot)> {
        self.windows
            .iter()
            .map(|(&w, h)| (w * self.width, h.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_brackets_every_magnitude() {
        for &v in &[
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            157_000,
            1 << 33,
            u64::MAX - 1,
            u64::MAX,
        ] {
            for sub_bits in [LOG2_BITS, TAIL_BITS] {
                let i = bucket_index(sub_bits, v);
                let (lo, hi) = bucket_bounds(sub_bits, i);
                assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            }
        }
        assert_eq!(bucket_count(TAIL_BITS), 7424);
        assert_eq!(bucket_index(TAIL_BITS, u64::MAX), 7423);
    }

    #[test]
    fn log2_buckets_are_the_powers_of_two() {
        assert_eq!(bucket_count(LOG2_BITS), 65);
        assert_eq!(bucket_index(LOG2_BITS, 0), 0);
        assert_eq!(bucket_index(LOG2_BITS, 1), 1);
        assert_eq!(bucket_index(LOG2_BITS, 2), 2);
        assert_eq!(bucket_index(LOG2_BITS, 3), 2);
        assert_eq!(bucket_index(LOG2_BITS, 4), 3);
        assert_eq!(bucket_index(LOG2_BITS, u64::MAX), 64);
        assert_eq!(bucket_bounds(LOG2_BITS, 0), (0, 0));
        for i in 1..65 {
            let hi = if i == 64 { u64::MAX } else { (1 << i) - 1 };
            assert_eq!(bucket_bounds(LOG2_BITS, i), (1 << (i - 1), hi));
            assert_eq!(bucket_index(LOG2_BITS, hi), i);
        }
    }

    #[test]
    fn buckets_partition_the_line() {
        // Consecutive buckets tile u64 with no gaps or overlaps.
        for sub_bits in [LOG2_BITS, TAIL_BITS] {
            let mut expect_lo = 0u64;
            let n = bucket_count(sub_bits);
            for i in 0..n {
                let (lo, hi) = bucket_bounds(sub_bits, i);
                assert_eq!(lo, expect_lo, "bucket {i} does not start where {} ended", i);
                assert!(hi >= lo);
                if i + 1 < n {
                    expect_lo = hi + 1;
                } else {
                    assert_eq!(hi, u64::MAX);
                }
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Above the exact range, bucket width / lower bound <= 2^-7.
        for &v in &[129u64, 1000, 157_000, 1_000_000, 1 << 40] {
            let (lo, hi) = bucket_bounds(TAIL_BITS, bucket_index(TAIL_BITS, v));
            assert!(((hi - lo) as f64) / (lo as f64) <= 1.0 / 128.0 + 1e-12);
        }
    }

    #[test]
    fn log2_histogram_counts_and_sums() {
        let h = Histogram::new(LOG2_BITS);
        for v in [0u64, 1, 3, 4, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1008);
        assert_eq!(snap.max, 1000);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, snap.count);
        // 3 shares the [2, 4) bucket's upper bound; 1000 caps at the max.
        assert_eq!(snap.quantile(0.5), Some(3));
        assert_eq!(snap.quantile(1.0), Some(1000));
    }

    #[test]
    fn quantiles_are_rank_exact() {
        let h = Histogram::new(TAIL_BITS);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // Values <= 127 are exact; above that quantization is <= 0.8%.
        let p50 = s.quantile(0.50).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        let p999 = s.quantile(0.999).unwrap();
        assert!((499..=504).contains(&p50), "p50={p50}");
        assert!((989..=998).contains(&p99), "p99={p99}");
        assert!((999..=1000).contains(&p999), "p999={p999}");
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(s.quantile(1.0), Some(1000));
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn merge_preserves_counts_and_quantiles() {
        let a = Histogram::new(TAIL_BITS);
        let b = Histogram::new(TAIL_BITS);
        for v in 0..500u64 {
            a.observe(v);
        }
        for v in 500..1000u64 {
            b.observe(v * 1000);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 1000);
        assert_eq!(m.max, 999_000);
        let total: u64 = m.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 1000);
        assert!(m.quantile(0.25).unwrap() < 500);
        assert!(m.quantile(0.75).unwrap() >= 500_000);
    }

    #[test]
    fn windowed_series_localizes_spikes() {
        let mut w = WindowedSeries::new(100);
        for t in 0..300u64 {
            // One slow window in the middle.
            let v = if (100..200).contains(&t) { 10_000 } else { 10 };
            w.observe(t, v);
        }
        let snaps = w.snapshot();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].0, 0);
        assert_eq!(snaps[1].0, 100);
        assert!(snaps[0].1.quantile(0.99).unwrap() <= 10);
        assert!(snaps[1].1.quantile(0.99).unwrap() >= 9_000);
        assert!(snaps[2].1.quantile(0.99).unwrap() <= 10);

        let mut other = WindowedSeries::new(100);
        other.observe(150, 20_000);
        w.merge_from(&other);
        let merged = w.snapshot();
        assert_eq!(merged[1].1.count, 101);
        assert_eq!(merged[1].1.max, 20_000);
    }
}
