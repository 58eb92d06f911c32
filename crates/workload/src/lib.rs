//! Workload models for the LRPC reproduction.
//!
//! The paper's Section 2 argues from measurements of three operating
//! systems that cross-domain, small-argument calls are the common case.
//! The original traces (a five-hour Taos session, a four-day NFS trace,
//! Williamson's instrumented V kernel) are long gone; this crate provides
//! statistical models matched to every aggregate the paper publishes, so
//! the measurement sections can be regenerated:
//!
//! * [`activity`] — cross-domain vs cross-machine operation mixes
//!   (Table 1);
//! * [`sizes`] — the per-call argument/result byte distribution
//!   (Figure 1);
//! * [`corpus`] — a synthetic 28-service / 366-procedure interface corpus
//!   with the Section 2.2 static properties, plus the call-popularity
//!   model (75 % of calls to three procedures);
//! * [`site`] — site-scale open-loop traffic plans (hundreds of
//!   interfaces, tens of thousands of bindings, seeded exponential
//!   arrivals mixing serial/batch/bulk calls) for the tail benchmark.

#![forbid(unsafe_code)]

pub mod activity;
pub mod corpus;
pub mod site;
pub mod sizes;
pub mod trace;

pub use activity::{count_ops, ActivityModel, Op, PercentBasis};
pub use corpus::{generate_corpus, measure, CorpusStats, PopularityModel};
pub use site::{generate_site, Arrival, CallKind, SitePlan, SiteSpec};
pub use sizes::{Histogram, SizeBin, SizeDistribution, FIGURE_1_MAX_BYTES, FIGURE_1_TOTAL_CALLS};
pub use trace::{CallEvent, CallTrace, TraceModel};
