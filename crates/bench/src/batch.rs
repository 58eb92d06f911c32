//! Batched-call benchmark: the submission/completion ring's doorbell
//! amortization, swept over batch size.
//!
//! A serial LRPC pays two kernel traps (call and return) plus two kernel
//! transfers and two context switches on *every* call. The call ring
//! moves exactly those crossing phases onto a batch-shared meter: the
//! client enqueues N descriptors, rings one doorbell (one trap), the
//! server drains the whole ring per wakeup, and one return trap carries
//! all N completions back. Per-call work — stub interpretation, argument
//! copies, dispatch — is untouched and charges bit-identically to the
//! serial path; what each call gains is its share of the crossing, at the
//! price of three lock-free ring-descriptor operations (enqueue, drain,
//! reap).
//!
//! Two things are measured per batch size:
//!
//! * **Virtual ns/call**: the simulated cost model's time for one
//!   steady-state batch, divided by its size. This is the honest Table-5
//!   quantity the gate pins: at batch 16 the ring must beat a batch of 1
//!   by at least [`MIN_SPEEDUP`]× (it lands near 4× on the C-VAX model).
//! * **Host calls/sec**: wall-clock throughput of the same batches on the
//!   host, reported for trend-watching but not gated — the host runs a
//!   simulator, so its clock does not measure trap amortization.
//!
//! Every sweep point also re-asserts the batching contract: exactly one
//! `Phase::Trap` charge per doorbell/return trap on the shared meter,
//! zero amortized phases on any per-call meter, and per-call copy logs
//! and phase charges bit-identical to a steady-state serial call.

use firefly::cost::CostModel;
use firefly::meter::Phase;
use firefly::time::Nanos;
use idl::wire::Value;
use lrpc::{CallOutcome, Handler, Reply, ServerCtx, TestRuntime};

use crate::common::{best_ns_per_call, LrpcEnv};
use crate::json::Json;
use crate::suite::{Gate, Opts, SuiteRun, Table};

/// Default timed batch rounds per sweep point.
pub const DEFAULT_ITERS: usize = 200;

/// Virtual-throughput floor the gate enforces at [`GATE_BATCH`].
pub const MIN_SPEEDUP: f64 = 2.0;

/// Batch size at which the speedup gate applies.
pub const GATE_BATCH: usize = 16;

/// The batch-size sweep; 64 fills the submission ring exactly.
pub const BATCHES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The crossing phases the ring amortizes onto the batch-shared meter.
const AMORTIZED: [Phase; 4] = [
    Phase::Trap,
    Phase::KernelTransfer,
    Phase::ContextSwitch,
    Phase::ProcessorExchange,
];

const BATCH_IDL: &str = r#"
    interface BatchBench {
        [astacks = 64] procedure Add(a: int32, b: int32) -> int32;
    }
"#;

/// One batch-size point of the sweep.
#[derive(Clone, Debug)]
pub struct BatchPoint {
    /// Calls per doorbell.
    pub batch: usize,
    /// Virtual ns one call costs inside a steady-state batch of this size.
    pub virtual_ns_per_call: u64,
    /// Virtual throughput gain over the batch-of-1 baseline.
    pub speedup: f64,
    /// Host ns per call across the timed rounds (best round).
    pub host_ns_per_call: f64,
    /// Host calls per second (best round).
    pub calls_per_sec: f64,
    /// Doorbell traps one steady-state batch rang.
    pub doorbells: u64,
    /// Kernel traps one steady-state batch paid in total.
    pub traps: u64,
}

/// The full batch-size sweep.
#[derive(Clone, Debug)]
pub struct BatchBenchReport {
    /// Virtual ns of one steady-state *serial* call, for reference: the
    /// pre-ring cost every batched call is amortizing away from.
    pub serial_virtual_ns: u64,
    /// Per-batch-size measurements.
    pub points: Vec<BatchPoint>,
}

impl BatchBenchReport {
    /// The acceptance gates: at [`GATE_BATCH`] calls per doorbell the ring
    /// must deliver at least [`MIN_SPEEDUP`]× the virtual throughput of a
    /// batch of 1. (The per-call phase/copy identity and the
    /// one-trap-per-doorbell accounting are asserted inside [`run`].)
    pub fn gates(&self) -> Vec<Gate> {
        self.points
            .iter()
            .filter(|p| p.batch >= GATE_BATCH)
            .map(|p| {
                let name = format!("speedup batch {}", p.batch);
                Gate::new(name, p.speedup, ">=", MIN_SPEEDUP)
            })
            .collect()
    }
}

fn env() -> LrpcEnv {
    LrpcEnv::bind(
        TestRuntime::new().domain_caching(false).build(),
        BATCH_IDL,
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
        }) as Handler],
    )
}

fn requests(n: usize) -> Vec<(usize, Vec<Value>)> {
    // Every call is the same Add so each per-call meter and copy log can
    // be compared against the one steady-state serial call directly.
    (0..n)
        .map(|_| (0usize, vec![Value::Int32(0), Value::Int32(7)]))
        .collect()
}

/// Pins the contract one steady-state batch must honor against one
/// steady-state serial call.
fn assert_contract(hw: &CostModel, serial: &CallOutcome, out: &lrpc::BatchOutcome, batch: usize) {
    assert_eq!(
        out.degraded, 0,
        "batch {batch}: steady state must not degrade"
    );
    assert_eq!(out.doorbells, 1, "batch {batch}: one doorbell per flush");
    assert_eq!(out.traps, 2, "batch {batch}: doorbell trap + return trap");
    assert_eq!(
        out.batch_meter.total_for(Phase::Trap),
        hw.hw.kernel_trap * out.traps,
        "batch {batch}: the shared meter must charge exactly one \
         Phase::Trap per trap"
    );
    for (i, r) in out.results.iter().enumerate() {
        let o = r
            .as_ref()
            .unwrap_or_else(|e| panic!("batch {batch} call {i}: {e}"));
        assert_eq!(o.ret, serial.ret, "batch {batch} call {i}: result differs");
        assert_eq!(
            format!("{:?}", o.copies),
            format!("{:?}", serial.copies),
            "batch {batch} call {i}: per-call copy log differs from serial"
        );
        for phase in Phase::ALL {
            if AMORTIZED.contains(&phase) {
                assert_eq!(
                    o.meter.total_for(phase),
                    Nanos::ZERO,
                    "batch {batch} call {i}: charged amortized phase {phase:?}"
                );
            } else {
                assert_eq!(
                    o.meter.total_for(phase),
                    serial.meter.total_for(phase),
                    "batch {batch} call {i}: phase {phase:?} diverged from serial"
                );
            }
        }
    }
}

/// Runs the batch-size sweep.
///
/// Panics if any sweep point breaks the batching contract: more than one
/// trap per doorbell plus one per return, any amortized phase charged on
/// a per-call meter, or any per-call phase/copy divergence from a
/// steady-state serial call.
pub fn run(iters: usize) -> BatchBenchReport {
    let hw = CostModel::cvax_firefly();

    // The serial baseline, steady state (second call: E-stack allocated,
    // TLB warm).
    let serial_env = env();
    let serial_args = [Value::Int32(0), Value::Int32(7)];
    serial_env
        .binding
        .call(0, &serial_env.thread, "Add", &serial_args)
        .expect("serial warm-up");
    let serial = serial_env
        .binding
        .call(0, &serial_env.thread, "Add", &serial_args)
        .expect("serial measured");
    let serial_virtual_ns = serial.elapsed.as_nanos();

    let mut points = Vec::new();
    let mut baseline_ns = 0u64;
    for batch in BATCHES {
        // A fresh environment per point keeps every measurement at the
        // same steady state: warm once (allocates the batch's E-stacks
        // and warms its A-stack pages), then measure.
        let e = env();
        e.binding
            .call_batch(0, &e.thread, requests(batch))
            .expect("batch warm-up");
        let out = e
            .binding
            .call_batch(0, &e.thread, requests(batch))
            .expect("batch measured");
        assert_contract(&hw, &serial, &out, batch);
        let virtual_ns_per_call = out.elapsed.as_nanos() / batch as u64;
        if batch == 1 {
            baseline_ns = virtual_ns_per_call;
        }

        // Host wall clock: best of 5 rounds of `iters` batches.
        let [best] = best_ns_per_call(iters, |_| {
            e.binding
                .call_batch(0, &e.thread, requests(batch))
                .expect("timed batch");
        });
        let best = best / batch as f64;

        points.push(BatchPoint {
            batch,
            virtual_ns_per_call,
            speedup: baseline_ns as f64 / virtual_ns_per_call as f64,
            host_ns_per_call: best,
            calls_per_sec: 1e9 / best,
            doorbells: out.doorbells,
            traps: out.traps,
        });
    }
    BatchBenchReport {
        serial_virtual_ns,
        points,
    }
}

/// The `batch` suite: [`run`] at [`DEFAULT_ITERS`], one row per batch
/// size.
pub fn suite(_: &Opts, _: &[Json]) -> SuiteRun {
    let r = run(DEFAULT_ITERS);
    let rows = r.points.iter().map(|p| {
        vec![
            p.batch.into(),
            p.virtual_ns_per_call.into(),
            p.speedup.into(),
            p.host_ns_per_call.into(),
            p.calls_per_sec.into(),
            p.doorbells.into(),
            p.traps.into(),
        ]
    });
    let points = Table {
        name: "points",
        columns: &[
            "batch",
            "virtual_ns_per_call",
            "speedup",
            "host_ns_per_call",
            "calls_per_sec",
            "doorbells",
            "traps",
        ],
        rows: rows.collect(),
    };
    let positive = points.positive(&["batch", "virtual_ns_per_call", "speedup", "calls_per_sec"]);
    SuiteRun {
        text: "Call-ring doorbell batching: per-call cost by batch size\n".into(),
        metrics: vec![("serial_virtual_ns", r.serial_virtual_ns.into())],
        tables: vec![points],
        gates: [r.gates(), positive].concat(),
        ..SuiteRun::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_honors_the_contract_and_the_gate() {
        // A tiny run exercises the contract assertions inside `run` on
        // every sweep point; the virtual-time gate is deterministic, so
        // it must already hold here.
        let r = run(1);
        assert_eq!(r.points.len(), BATCHES.len());
        let gates = r.gates();
        assert!(
            gates.iter().all(Gate::pass),
            "virtual gate failed: {gates:?}"
        );
        // Amortization is monotone in this sweep: bigger batches never
        // cost more per call.
        for w in r.points.windows(2) {
            assert!(w[1].virtual_ns_per_call <= w[0].virtual_ns_per_call);
        }
        // And the batch-of-1 ring call costs more than a serial call
        // (ring ops are not free) — the win is amortization, not magic.
        assert!(r.points[0].virtual_ns_per_call >= r.serial_virtual_ns);
    }
}
