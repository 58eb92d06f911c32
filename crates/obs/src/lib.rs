//! Observability plane for the LRPC reproduction.
//!
//! The paper's whole argument is observational — Table 4 decomposes the
//! 157 µs Null LRPC, Table 5 itemizes the 48 µs of overhead, Figure 2
//! plots throughput scaling. This crate is the measurement substrate those
//! numbers flow through at run time:
//!
//! * [`tally`] — thread-local lock-acquisition accounting (the Section 3.4
//!   "zero global locks on the call path" proof obligation);
//! * [`trace`] — per-call [`TraceId`]s;
//! * [`flight`] — a lock-free, per-thread ring-buffer **flight recorder**
//!   of per-phase spans (virtual-time start + duration), bounded and
//!   overwrite-oldest, from which the paper's tables can be regenerated
//!   after the fact;
//! * [`metrics`] — an atomic counter/gauge/histogram registry;
//! * [`histogram`] — the one histogram type, its precision fixed at
//!   creation (log2 buckets for sizes and counts, 128 sub-buckets per
//!   octave for latencies), with rank-exact p50/p99/p999 and lossless
//!   merge, and a windowed time-series for localizing tail spikes;
//! * [`export`] — JSON encoders for metrics snapshots and recorded spans.
//!
//! The crate sits *below* the simulator (`firefly` depends on `obs`, not
//! the other way around), so spans carry raw nanosecond counts and `u16`
//! phase codes; the layers that know what a phase *means* supply the
//! labels at export time.
//!
//! Overhead contract: recording charges **zero virtual time** (spans are
//! emitted at existing charge sites, they do not add charges), and a
//! steady-state recorded call acquires **zero process-global locks** (the
//! per-thread ring is registered once per thread; every subsequent write
//! is plain atomic stores). `tests/lockfree.rs` at the workspace root
//! proves both.

#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod tally;
pub mod trace;

pub use export::{metrics_to_json, spans_to_json};
pub use flight::{FlightRing, SpanRecord};
pub use histogram::{Histogram, HistogramSnapshot, WindowedSeries};
pub use metrics::{Counter, Gauge, MetricSnapshot, MetricValue, Registry, Snapshot};
pub use tally::{LockScope, LockTally};
pub use trace::TraceId;
