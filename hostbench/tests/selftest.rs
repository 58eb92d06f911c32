//! Self-test of the benchmark: every workload emits exactly the metrics
//! `BENCHMARK.json` names, in its order and with its units; no call fails;
//! and the traced layer attribution leaves a non-negative remainder.
//!
//! Run with `cargo test --release` from this directory: the runs are real
//! (short) measurement windows.

use std::time::Duration;

use hostbench::run::{run, Config, Report};
use hostbench::workload::Workload;
use idl::wire::Value;
use lrpc::{AStackPolicy, Handler, Reply, ServerCtx, TestRuntime};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let from = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn short_run(workload: Workload, trace: bool) -> Report {
    run(&Config {
        workload,
        seed: 7,
        window: Duration::from_millis(700),
        trace,
    })
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .chain(&report.info)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_workload_reports_every_named_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = short_run(workload, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert!(report.correct, "{what}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{what}");
            assert_eq!(value(&report, "fail_ratio"), 0.0, "{what}");

            let expected = declared(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, expected, "{what}");
            if trace {
                let rest = value(&report, "lrpc.unattributed_ns");
                assert!(rest >= 0.0, "{what}: unattributed {rest} ns");
                assert!(!report.spans.is_empty(), "{what}: no spans kept");
            } else {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{what}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn null_serial_keeps_the_table4_latency() {
    let report = short_run(Workload::NullSerial, false);
    assert_eq!(value(&report, "virt_call_ns"), 157_000.0);
    assert!(value(&report, "taos_p50_ns") > 0.0);
}

/// A batch holding more calls of one procedure than the procedure has
/// A-stacks finds the class empty mid-batch: `lrpc.astack_stalls` counts
/// it. Under the default `Wait(1 s)` policy each such flush waits out the
/// whole second; `Fail` makes the batch flush at once, so this test stays
/// fast while exercising the same exhaustion.
#[test]
fn oversized_batch_shows_as_astack_stalls() {
    let rt = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(AStackPolicy::Fail)
        .build();
    let server = rt.kernel().create_domain("server");
    rt.export(
        &server,
        "interface Small { procedure Null(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .expect("export");
    let client = rt.kernel().create_domain("client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Small").expect("import");
    let requests = (0..6).map(|_| (0, Vec::new())).collect();
    let out = binding.call_batch(0, &thread, requests).expect("batch");
    assert!(out.results.iter().all(Result::is_ok));
    assert!(binding.state().astacks.total_stall_events() >= 1);
    assert!(out.doorbells >= 2, "the batch flushed to free A-stacks");
}
