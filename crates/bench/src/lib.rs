//! Experiment harness for the LRPC reproduction.
//!
//! One function per table and figure of the paper, each running the
//! functional reproduction and comparing measured values against the
//! published ones; `bench --tables [NAME]` prints every report of
//! [`experiments::REPORTS`], or the named ones. The `bench` binary also
//! runs the gated suites of [`suite::SUITES`] and persists their
//! trajectories under one schema.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod batch;
pub mod bulk;
pub mod common;
pub mod experiments;
pub mod host_parallel;
pub mod json;
pub mod phases;
pub mod rr;
pub mod stubs;
pub mod suite;
pub mod tail;
