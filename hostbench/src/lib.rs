//! Host-time benchmark of the LRPC call path.
//!
//! Four closed-loop workloads drive the public API (`lrpc::Binding` and
//! the `msgrpc` Taos baseline) from at most two host threads; an untraced
//! run reports end-to-end figures, a traced run a per-layer breakdown. See
//! `README.md` in this directory for the metrics and how to run it.

mod alloc;
mod probe;
pub mod run;
mod stats;
pub mod workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::fmt::Write as _;

use run::Report;

/// Renders a report: one line per figure, then the result as one JSON
/// object on the last line.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for m in report.metrics.iter().chain(&report.info) {
        let _ = writeln!(out, "{:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        let _ = writeln!(out, "problem: {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    out
}
