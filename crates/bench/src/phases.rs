//! Flight-recorder replay: Table-4/5 phase breakdowns from recorded
//! spans.
//!
//! Where [`crate::experiments::table5`] reads the per-call [`Meter`]'s
//! segment list, this module reconstructs the same breakdown from the
//! *flight recorder* — the lock-free per-thread span rings of
//! [`obs::flight`] — and diffs it against [`CostModel`]'s predictions.
//! Agreement proves the observability plane end to end: every charged
//! phase of a Null call must appear in the recorded flight, sum to the
//! model's 157 µs, and cost nothing on the virtual clock.
//!
//! [`Meter`]: firefly::meter::Meter

use std::collections::BTreeMap;

use firefly::cost::CostModel;
use firefly::meter::Phase;
use firefly::time::Nanos;
use obs::SpanRecord;

use crate::common::LrpcEnv;
use crate::json::Json;
use crate::suite::{Gate, Opts, SuiteRun, Table};

/// Maximum relative drift between the flight-reconstructed Table-5 total
/// and [`CostModel::lrpc_null_serial`] before `--check` fails.
pub const MAX_TOTAL_DRIFT: f64 = 0.01;

/// Maximum relative virtual-time overhead the enabled recorder may add to
/// a Null call before `--check` fails. The recorder is designed to add
/// *zero* virtual time; the 5 % gate catches anything that starts
/// charging the clock.
pub const MAX_RECORDER_OVERHEAD: f64 = 0.05;

/// Table 5's rows in the paper's order: the operation, whether it sits in
/// the "LRPC Overhead" column rather than "Minimum", and the phases whose
/// time it sums. [`crate::experiments::table5`] (from a call's `Meter`)
/// and [`table5_from_breakdown`] (from its flight spans) both read it.
pub const TABLE5_ROWS: [(&str, bool, &[Phase]); 5] = [
    ("Modula2+ procedure call", false, &[Phase::ProcedureCall]),
    ("Two kernel traps", false, &[Phase::Trap]),
    ("Two context switches", false, &[Phase::ContextSwitch]),
    (
        "Stubs",
        true,
        &[Phase::ClientStub, Phase::ServerStub, Phase::QueueOp],
    ),
    ("Kernel transfer", true, &[Phase::KernelTransfer]),
];

/// Per-phase totals of one recorded call.
#[derive(Clone, Debug)]
pub struct PhaseBreakdown {
    /// `(phase, total)` for every phase with non-zero recorded time, in
    /// phase-code order.
    pub totals: Vec<(Phase, Nanos)>,
    /// Sum of every recorded span.
    pub total: Nanos,
    /// Number of spans aggregated.
    pub span_count: usize,
}

/// Aggregates one call's flight spans phase by phase.
pub fn aggregate(spans: &[SpanRecord]) -> PhaseBreakdown {
    let mut by_phase: BTreeMap<u16, Nanos> = BTreeMap::new();
    for s in spans {
        *by_phase.entry(s.phase).or_insert(Nanos::ZERO) += Nanos::from_nanos(s.dur_ns);
    }
    let totals: Vec<(Phase, Nanos)> = by_phase
        .into_iter()
        .map(|(code, dur)| (Phase::from_code(code), dur))
        .collect();
    let total = totals.iter().map(|&(_, d)| d).sum();
    PhaseBreakdown {
        totals,
        total,
        span_count: spans.len(),
    }
}

/// One Table-5 row reconstructed from a flight: the measured time next to
/// the cost model's prediction.
#[derive(Clone, Debug)]
pub struct FlightRow {
    /// Table-5 operation name.
    pub operation: String,
    /// Time reconstructed from the recorded spans.
    pub measured: Nanos,
    /// The cost model's prediction for this category.
    pub predicted: Nanos,
}

/// Table 5 as reproduced from a flight recording of one Null call.
#[derive(Clone, Debug)]
pub struct FlightTable5 {
    /// The category rows (minimum rows first, then the overhead rows).
    pub rows: Vec<FlightRow>,
    /// Total of every recorded span.
    pub measured_total: Nanos,
    /// [`CostModel::lrpc_null_serial`].
    pub predicted_total: Nanos,
    /// `|measured - predicted| / predicted`.
    pub total_drift: f64,
    /// Virtual elapsed time of the recorded call.
    pub elapsed_recorded: Nanos,
    /// Virtual elapsed time of an identical call with the recorder off.
    pub elapsed_baseline: Nanos,
    /// Relative virtual-time overhead the recorder added
    /// (`(recorded - baseline) / baseline`; zero by design).
    pub recorder_overhead: f64,
    /// Spans the recorded call emitted.
    pub span_count: usize,
}

fn relative_drift(measured: Nanos, predicted: Nanos) -> f64 {
    let m = measured.as_nanos() as f64;
    let p = predicted.as_nanos() as f64;
    if p == 0.0 {
        if m == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (m - p).abs() / p
    }
}

/// Folds a phase breakdown into the paper's Table-5 categories, diffed
/// against `cost`'s per-category predictions.
pub fn table5_from_breakdown(breakdown: &PhaseBreakdown, cost: &CostModel) -> Vec<FlightRow> {
    let total_for = |phase: Phase| -> Nanos {
        breakdown
            .totals
            .iter()
            .filter(|&&(p, _)| p == phase)
            .map(|&(_, d)| d)
            .sum()
    };
    // The cost model's prediction for each row of `TABLE5_ROWS`.
    let predicted = [
        cost.hw.procedure_call,
        cost.hw.kernel_trap * 2,
        cost.hw.context_switch * 2,
        cost.stub_overhead(),
        cost.kernel_transfer_overhead(),
    ];
    let other = breakdown
        .totals
        .iter()
        .filter(|&&(p, _)| !TABLE5_ROWS.iter().any(|r| r.2.contains(&p)))
        .map(|&(_, d)| d)
        .sum();
    TABLE5_ROWS
        .iter()
        .zip(predicted)
        .map(|(&(operation, _, phases), predicted)| FlightRow {
            operation: operation.into(),
            measured: phases.iter().map(|&p| total_for(p)).sum(),
            predicted,
        })
        .chain([FlightRow {
            operation: "Other".into(),
            measured: other,
            predicted: Nanos::ZERO,
        }])
        .collect()
}

/// Runs the flight-recorded Null experiment: a steady-state serial Null
/// call with the recorder off (the baseline), then an identical call with
/// the recorder on, whose spans — isolated by the call's [`TraceId`] —
/// are folded into Table-5 layout and diffed against the cost model.
///
/// Toggles the process-wide flight recorder; callers running under a
/// parallel test harness must serialize recorder toggles themselves.
///
/// [`TraceId`]: firefly::meter::TraceId
pub fn run_null_flight() -> FlightTable5 {
    let cost = CostModel::cvax_firefly();
    let env = LrpcEnv::new(1, false);
    // Two warmups reach steady state (TLB residency, E-stack association,
    // lazy metric registration); the third call is the recorder-off
    // baseline.
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    let baseline = env.binding.call(0, &env.thread, "Null", &[]).unwrap();

    obs::flight::enable();
    let recorded = env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    let spans = obs::flight::spans_for(recorded.trace);
    obs::flight::disable();

    let breakdown = aggregate(&spans);
    let rows = table5_from_breakdown(&breakdown, &cost);
    let predicted_total = cost.lrpc_null_serial();
    let overhead = (recorded.elapsed.as_nanos() as f64 - baseline.elapsed.as_nanos() as f64)
        / baseline.elapsed.as_nanos().max(1) as f64;
    FlightTable5 {
        rows,
        measured_total: breakdown.total,
        predicted_total,
        total_drift: relative_drift(breakdown.total, predicted_total),
        elapsed_recorded: recorded.elapsed,
        elapsed_baseline: baseline.elapsed,
        recorder_overhead: overhead.max(0.0),
        span_count: breakdown.span_count,
    }
}

/// The `phases` suite: the flight-reconstructed Table 5 with its drift
/// and recorder-overhead gates.
pub fn suite(_: &Opts, _: &[Json]) -> SuiteRun {
    let t = run_null_flight();
    let overhead = t.recorder_overhead;
    let rows = t.rows.iter().map(|r| {
        let (measured, predicted) = (r.measured.as_micros_f64(), r.predicted.as_micros_f64());
        vec![
            r.operation.as_str().into(),
            measured.into(),
            predicted.into(),
        ]
    });
    SuiteRun {
        text: format!(
            "Table 5 from the flight recording of a serial Null call: {:.1}us measured vs \
             {:.1}us predicted (drift {:.2}%)\n",
            t.measured_total.as_micros_f64(),
            t.predicted_total.as_micros_f64(),
            t.total_drift * 100.0,
        ),
        metrics: vec![
            ("flight_total_us", t.measured_total.as_micros_f64().into()),
            ("model_total_us", t.predicted_total.as_micros_f64().into()),
            ("flight_spans", t.span_count.into()),
        ],
        tables: vec![Table {
            name: "table5",
            columns: &["operation", "flight_us", "model_us"],
            rows: rows.collect(),
        }],
        gates: vec![
            Gate::new("total_drift", t.total_drift, "<=", MAX_TOTAL_DRIFT),
            Gate::new("recorder_overhead", overhead, "<=", MAX_RECORDER_OVERHEAD),
        ],
        ..SuiteRun::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::meter::TraceId;

    use crate::common::flight_lock;

    #[test]
    fn flight_reproduces_table5_within_one_percent() {
        let _serial = flight_lock();
        let t = run_null_flight();
        assert!(t.span_count > 0, "the call emitted no flight spans");
        assert!(
            t.total_drift <= MAX_TOTAL_DRIFT,
            "flight total {} vs model {} (drift {:.3}%)",
            t.measured_total,
            t.predicted_total,
            t.total_drift * 100.0
        );
        // Category agreement, not just the total: minimum rows carry no
        // overhead and vice versa.
        for row in &t.rows {
            assert!(
                relative_drift(row.measured, row.predicted) <= MAX_TOTAL_DRIFT,
                "{}: measured {} vs predicted {}",
                row.operation,
                row.measured,
                row.predicted
            );
        }
    }

    #[test]
    fn recorder_adds_no_virtual_time() {
        let _serial = flight_lock();
        let t = run_null_flight();
        assert_eq!(
            t.elapsed_recorded, t.elapsed_baseline,
            "the flight recorder must not charge the virtual clock"
        );
        assert_eq!(t.recorder_overhead, 0.0);
    }

    #[test]
    fn aggregate_sums_by_phase() {
        let spans = vec![
            SpanRecord {
                trace: TraceId::from_raw(7),
                phase: Phase::Trap.code(),
                start_ns: 0,
                dur_ns: 18_000,
            },
            SpanRecord {
                trace: TraceId::from_raw(7),
                phase: Phase::Trap.code(),
                start_ns: 100_000,
                dur_ns: 18_000,
            },
            SpanRecord {
                trace: TraceId::from_raw(7),
                phase: Phase::ContextSwitch.code(),
                start_ns: 20_000,
                dur_ns: 33_000,
            },
        ];
        let b = aggregate(&spans);
        assert_eq!(b.span_count, 3);
        assert_eq!(b.total, Nanos::from_nanos(69_000));
        assert_eq!(
            b.totals,
            vec![
                (Phase::Trap, Nanos::from_nanos(36_000)),
                (Phase::ContextSwitch, Nanos::from_nanos(33_000)),
            ]
        );
    }
}
