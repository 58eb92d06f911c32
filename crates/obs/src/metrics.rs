//! Atomic metrics: counters, gauges, histograms, and a named registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s around
//! atomics — components own a clone and update it with single atomic ops
//! on the hot path, no locks, no formatting. Names enter the picture only
//! in the [`Registry`], which maps name → handle for export; a component
//! may create a handle *unregistered* (a resilient client's breaker-state
//! gauge) and have the registry adopt it later
//! ([`Registry::register_gauge`]), so metric plumbing never dictates
//! construction order. Occupancy that a structure already counts is not
//! mirrored in a gauge: a metrics sweep reads it from the structure and
//! sets its gauge family ([`Registry::set_gauges`]).
//!
//! The registry's interior maps are guarded by mutexes that are taken
//! only at registration and snapshot time — never per call — and every
//! acquisition is tallied via [`tally::note_global_lock`] so the lockfree
//! suite can prove the steady call path avoids them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::tally;

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

/// Instantaneous level (occupancy, depth, state), set whole by its one
/// writer: a metrics sweep, or the component that owns the state.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One named metric's frozen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// A named metric captured by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

/// Point-in-time view of a whole registry, name-sorted (counters, then
/// gauges, then histograms).
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
}

/// Name → handle table for export. One per runtime (not per process), so
/// parallel tests each observe only their own runtime's activity.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
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

    /// The sum of every counter whose name starts with `prefix`: each
    /// registered counter once, however many handles share it.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        tally::note_global_lock();
        let counters = self.counters.lock().expect("metrics registry poisoned");
        counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, c)| c.get())
            .sum()
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

    /// Gets or creates the histogram `name`, created with `sub_bits` of
    /// precision ([`crate::histogram::LOG2_BITS`] or
    /// [`crate::histogram::TAIL_BITS`]). Every caller of one name must
    /// ask for the same precision.
    pub fn histogram(&self, name: &str, sub_bits: u32) -> Histogram {
        tally::note_global_lock();
        let h = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(sub_bits))
            .clone();
        debug_assert_eq!(h.sub_bits(), sub_bits, "{name} asked at two precisions");
        h
    }

    /// Adopts an externally-owned gauge under `name`.
    pub fn register_gauge(&self, name: &str, gauge: Gauge) {
        tally::note_global_lock();
        self.gauges
            .lock()
            .expect("metrics registry poisoned")
            .insert(name.to_string(), gauge);
    }

    /// Sets swept gauge families from a sweep's `(name, value)` readings:
    /// each named gauge to the sum of its readings, and every other gauge
    /// whose name starts with one of `families`, and whose structure is
    /// gone, to 0.
    pub fn set_gauges(&self, families: &[&str], readings: Vec<(String, i64)>) {
        let mut sums = BTreeMap::new();
        for (name, value) in readings {
            *sums.entry(name).or_default() += value;
        }
        tally::note_global_lock();
        let mut gauges = self.gauges.lock().expect("metrics registry poisoned");
        for (name, gauge) in gauges.iter() {
            if families.iter().any(|family| name.starts_with(family)) {
                gauge.set(sums.remove(name).unwrap_or(0));
            }
        }
        for (name, value) in sums {
            gauges.entry(name).or_default().set(value);
        }
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
    fn registry_get_or_create_shares_handles() {
        let reg = Registry::new();
        let a = reg.counter("calls");
        let b = reg.counter("calls");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("calls"), Some(3));
    }

    #[test]
    fn counter_sum_counts_each_shared_counter_once() {
        let reg = Registry::new();
        let (a, b) = (reg.counter("hits:A"), reg.counter("hits:A"));
        a.inc();
        b.inc();
        reg.counter("hits:B").add(5);
        reg.counter("misses:A").add(7);
        assert_eq!(reg.counter_sum("hits:"), 7);
    }

    #[test]
    fn registry_adopts_external_handles() {
        let reg = Registry::new();
        let state = Gauge::new();
        state.set(4);
        reg.register_gauge("breaker_state", state.clone());
        assert_eq!(reg.snapshot().gauge("breaker_state"), Some(4));
        state.set(3);
        assert_eq!(reg.snapshot().gauge("breaker_state"), Some(3));
    }

    #[test]
    fn a_swept_gauge_family_zeroes_what_the_sweep_no_longer_reads() {
        let reg = Registry::new();
        reg.gauge("other").set(9);
        let read = |pairs: &[(&str, i64)]| pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        reg.set_gauges(&["busy:"], read(&[("busy:A", 2), ("busy:B", 1)]));
        let snap = reg.snapshot();
        assert_eq!(
            (snap.gauge("busy:A"), snap.gauge("busy:B")),
            (Some(2), Some(1))
        );
        // A structure gone since the last sweep reads 0; two readings of
        // one name (two bindings of an interface) sum.
        reg.set_gauges(&["busy:"], read(&[("busy:B", 1), ("busy:B", 2)]));
        let snap = reg.snapshot();
        assert_eq!(
            (snap.gauge("busy:A"), snap.gauge("busy:B")),
            (Some(0), Some(3))
        );
        assert_eq!(snap.gauge("other"), Some(9), "other families untouched");
    }
}
