//! Atomic metrics: counters, gauges, log2-bucket histograms, and a named
//! registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s around
//! atomics — components own a clone and update it with single atomic ops
//! on the hot path, no locks, no formatting. Names enter the picture only
//! in the [`Registry`], which maps name → handle for export; components
//! may create handles *unregistered* (e.g. an E-stack pool's busy gauge)
//! and have the runtime adopt them later via the `register_*` methods, so
//! metric plumbing never dictates construction order.
//!
//! The registry's interior maps are guarded by mutexes that are taken
//! only at registration and snapshot time — never per call — and every
//! acquisition is tallied via [`tally::note_global_lock`] so the lockfree
//! suite can prove the steady call path avoids them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::latency::{TailHistogram, TailSnapshot};
use crate::tally;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` (for
/// `i >= 1`) holds values in `[2^(i-1), 2^i)`, up to bucket 64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotone event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (occupancy, depth, state).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Log2-bucket histogram of `u64` observations (latencies in ns, depths).
///
/// `observe` is three relaxed `fetch_add`s; bucket selection is a
/// leading-zeros count, no floating point, no search.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.0.count.load(Ordering::Relaxed))
            .field("sum", &self.0.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Index of the log2 bucket holding `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index` (the largest value it holds).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy. Under concurrent `observe` the fields are read
    /// independently, so `count`/`sum`/bucket totals may differ by the few
    /// observations in flight; once writers quiesce they agree exactly.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = inner.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each non-empty log2 bucket,
    /// in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// One named metric's frozen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
    /// HDR-style tail histogram ([`crate::latency::TailHistogram`]).
    Tail(TailSnapshot),
}

/// A named metric captured by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

/// Point-in-time view of a whole registry, name-sorted (counters, then
/// gauges, then histograms, then tail histograms).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Convenience: the value of a counter metric, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: the value of a gauge metric, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a histogram metric's snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Convenience: a tail-histogram metric's snapshot, if present.
    pub fn tail(&self, name: &str) -> Option<&TailSnapshot> {
        match self.get(name)? {
            MetricValue::Tail(t) => Some(t),
            _ => None,
        }
    }
}

/// Name → handle table for export. One per runtime (not per process), so
/// parallel tests each observe only their own runtime's activity.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    tails: Mutex<BTreeMap<String, TailHistogram>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name`. Registration-time only — keep
    /// the returned handle and update it lock-free thereafter.
    pub fn counter(&self, name: &str) -> Counter {
        tally::note_global_lock();
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        tally::note_global_lock();
        self.gauges
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        tally::note_global_lock();
        self.histograms
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Gets or creates the tail histogram `name`.
    pub fn tail(&self, name: &str) -> TailHistogram {
        tally::note_global_lock();
        self.tails
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adopts an externally-owned gauge under `name`.
    pub fn register_gauge(&self, name: &str, gauge: Gauge) {
        tally::note_global_lock();
        self.gauges
            .lock()
            .expect("metrics registry poisoned")
            .insert(name.to_string(), gauge);
    }

    /// Freezes every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        tally::note_global_lock();
        let counters: Vec<(String, Counter)> = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        tally::note_global_lock();
        let gauges: Vec<(String, Gauge)> = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        tally::note_global_lock();
        let histograms: Vec<(String, Histogram)> = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        tally::note_global_lock();
        let tails: Vec<(String, TailHistogram)> = self
            .tails
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();

        let mut metrics = Vec::new();
        for (name, c) in counters {
            metrics.push(MetricSnapshot {
                name,
                value: MetricValue::Counter(c.get()),
            });
        }
        for (name, g) in gauges {
            metrics.push(MetricSnapshot {
                name,
                value: MetricValue::Gauge(g.get()),
            });
        }
        for (name, h) in histograms {
            metrics.push(MetricSnapshot {
                name,
                value: MetricValue::Histogram(h.snapshot()),
            });
        }
        for (name, t) in tails {
            metrics.push(MetricSnapshot {
                name,
                value: MetricValue::Tail(t.snapshot()),
            });
        }
        Snapshot { metrics }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 4, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1008);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, snap.count);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let reg = Registry::new();
        let a = reg.counter("calls");
        let b = reg.counter("calls");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("calls"), Some(3));
    }

    #[test]
    fn registry_adopts_external_handles() {
        let reg = Registry::new();
        let busy = Gauge::new();
        busy.set(4);
        reg.register_gauge("estack_busy", busy.clone());
        assert_eq!(reg.snapshot().gauge("estack_busy"), Some(4));
        busy.dec();
        assert_eq!(reg.snapshot().gauge("estack_busy"), Some(3));
    }
}
