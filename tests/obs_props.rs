//! Property tests for the observability plane (`crates/obs`).
//!
//! Two invariants the rest of the repo leans on:
//!
//! 1. The flight recorder's seqlock protocol never yields a *torn* span —
//!    a reader racing an interleaved writer either sees a span exactly as
//!    one `push` wrote it, or skips the slot; it never stitches words from
//!    two different writes together (`obs::flight` module docs point
//!    here).
//! 2. A histogram's per-bucket counts always sum to its observation
//!    count, and every observation lands in the bucket that
//!    `bucket_index` names — at 0 sub-bucket bits, the log2 bucket.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use obs::flight::{FlightRing, SpanRecord};
use obs::histogram::{bucket_bounds, bucket_index, Histogram, LOG2_BITS, TAIL_BITS};
use obs::TraceId;
use proptest::prelude::*;

/// Builds the span `push` number `i` writes, with all four words derived
/// from `i` so any cross-write mixture is detectable.
fn correlated_span(i: u64) -> SpanRecord {
    SpanRecord {
        trace: TraceId::from_raw(i + 1), // raw 0 means "never written"
        phase: (i % 997) as u16,
        start_ns: i.wrapping_mul(3),
        dur_ns: i ^ 0x5a5a,
    }
}

/// A span is untorn iff its words are the correlated image of one index.
fn assert_untorn(span: &SpanRecord) -> Result<(), TestCaseError> {
    let i = span.trace.raw() - 1;
    let expect = correlated_span(i);
    prop_assert_eq!(span.phase, expect.phase, "phase word from another write");
    prop_assert_eq!(span.start_ns, expect.start_ns, "start word torn");
    prop_assert_eq!(span.dur_ns, expect.dur_ns, "duration word torn");
    Ok(())
}

proptest! {
    /// Interleaved recorder writes never tear a span: while one thread
    /// pushes a stream of correlated spans into a (deliberately tiny,
    /// constantly wrapping) ring, concurrent readers only ever observe
    /// spans whose four words belong to a single write.
    #[test]
    fn interleaved_writes_never_tear_a_span(
        capacity in 1usize..12,
        writes in 64u64..512,
        readers in 1usize..4,
    ) {
        let ring = Arc::new(FlightRing::new(capacity));
        let done = Arc::new(AtomicBool::new(false));
        let mut torn = Vec::new();
        std::thread::scope(|s| {
            let reader_handles: Vec<_> = (0..readers)
                .map(|_| {
                    let ring = Arc::clone(&ring);
                    let done = Arc::clone(&done);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        while !done.load(Ordering::Relaxed) {
                            seen.extend(ring.read_all());
                        }
                        seen.extend(ring.read_all());
                        seen
                    })
                })
                .collect();
            for i in 0..writes {
                ring.push(correlated_span(i));
            }
            done.store(true, Ordering::Relaxed);
            for h in reader_handles {
                for span in h.join().expect("reader panicked") {
                    if let Err(e) = assert_untorn(&span) {
                        torn.push(e);
                    }
                }
            }
        });
        if let Some(e) = torn.into_iter().next() {
            return Err(e);
        }
        // Quiesced ring: the last `capacity` writes are all readable.
        let settled = ring.read_all();
        prop_assert_eq!(settled.len(), capacity.min(writes as usize));
        prop_assert_eq!(ring.pushed(), writes);
    }

    /// Log2 histogram bucket counts sum to the observation count, the sum
    /// field is the exact total, and each value is counted by the bucket
    /// whose bounds contain it.
    #[test]
    fn histogram_buckets_sum_to_observation_count(
        values in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let h = Histogram::new(LOG2_BITS);
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, values.len() as u64,
            "every observation is in exactly one bucket");
        let expected_sum = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(snap.sum, expected_sum);

        // Recompute the expected bucket occupancy independently, from
        // the log2 bucket (the value's bit length) rather than the
        // histogram's own index function.
        let mut expect = std::collections::BTreeMap::new();
        for &v in &values {
            let log2 = 64 - v.leading_zeros();
            *expect.entry(log2).or_insert(0u64) += 1;
        }
        let got: std::collections::BTreeMap<u32, u64> = snap.buckets.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }

    /// At 0 sub-bucket bits `bucket_index` sends every value to a bucket
    /// whose bounds hold it: value ≤ upper(bucket) and (for non-first
    /// buckets) value > upper of the bucket below, which is `2^i - 1`.
    #[test]
    fn bucket_bounds_bracket_every_value(v in any::<u64>()) {
        let i = bucket_index(LOG2_BITS, v);
        let upper = |i: usize| bucket_bounds(LOG2_BITS, i).1;
        prop_assert!(v <= upper(i));
        if i > 0 {
            prop_assert!(v > upper(i - 1));
            prop_assert_eq!(upper(i - 1), (1u64 << (i - 1)) - 1);
        }
    }

    /// Merging tail snapshots is associative (and, with the commutativity
    /// the bucket-wise sum gives for free, order-independent): the
    /// per-thread recorders of the tail benchmark can be combined in any
    /// grouping and report the same quantiles.
    #[test]
    fn tail_merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..120),
        b in proptest::collection::vec(any::<u64>(), 0..120),
        c in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let snap = |values: &[u64]| {
            let h = Histogram::new(TAIL_BITS);
            for &v in values {
                h.observe(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        let left = sa.merge(&sb).merge(&sc);
        let right = sa.merge(&sb.merge(&sc));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left, sc.merge(&sb).merge(&sa), "order-independent");
    }

    /// Quantiles are monotone in the query: q1 ≤ q2 implies
    /// quantile(q1) ≤ quantile(q2), with the extremes pinned — the top
    /// quantile is the exact maximum, and every quantile brackets at
    /// least one observed value from below (≤ 1/128 relative error).
    #[test]
    fn tail_quantiles_are_monotone(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        q1_millis in 0u32..=1000,
        q2_millis in 0u32..=1000,
    ) {
        let h = Histogram::new(TAIL_BITS);
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        let (q1, q2) = (f64::from(q1_millis) / 1e3, f64::from(q2_millis) / 1e3);
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = snap.quantile(lo_q).expect("non-empty");
        let hi = snap.quantile(hi_q).expect("non-empty");
        prop_assert!(lo <= hi, "quantile({lo_q})={lo} > quantile({hi_q})={hi}");
        prop_assert_eq!(snap.quantile(1.0), Some(*values.iter().max().unwrap()),
            "the top quantile is the exact max");
        // Every reported quantile is a reachable bucket bound: some
        // observed value lands in its bucket.
        let idx = bucket_index(TAIL_BITS, lo);
        prop_assert!(values.iter().any(|&v| bucket_index(TAIL_BITS, v.min(snap.max)) == idx),
            "quantile names an occupied bucket");
    }

    /// Merging never loses an observation: count, sum, max, and the
    /// per-bucket occupancy of a merge all equal what one histogram fed
    /// the concatenated stream would report — and every value sits in
    /// the bucket whose bounds bracket it.
    #[test]
    fn tail_merge_loses_no_value(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let ha = Histogram::new(TAIL_BITS);
        for &v in &a {
            ha.observe(v);
            let (lo, hi) = bucket_bounds(TAIL_BITS, bucket_index(TAIL_BITS, v));
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
        let hb = Histogram::new(TAIL_BITS);
        for &v in &b {
            hb.observe(v);
        }
        let merged = ha.snapshot().merge(&hb.snapshot());

        let all = Histogram::new(TAIL_BITS);
        for &v in a.iter().chain(b.iter()) {
            all.observe(v);
        }
        prop_assert_eq!(merged, all.snapshot(),
            "merge == histogram of the concatenated stream");
    }
}
