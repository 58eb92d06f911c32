//! Chaos engineering on the LRPC plane: seeded faults, real recovery.
//!
//! ```text
//! cargo run --example chaos [seed]
//! ```
//!
//! Installs a deterministic [`firefly::fault::FaultPlan`] under a running
//! LRPC machine, replays a Taos-like workload trace through a
//! [`lrpc::ResilientClient`] (deadline + retry + circuit breaker), and
//! prints the injected-fault log next to the client-observed error log.
//! Run it twice with the same seed: both logs — and the plan digest —
//! reproduce bit-for-bit. That is the property the chaos test suite
//! (`tests/chaos.rs`) asserts mechanically.

use std::sync::Arc;
use std::time::Duration;

use firefly::fault::{FaultConfig, FaultPlan};
use idl::wire::Value;
use lrpc::{
    AStackPolicy, Handler, RecoveryConfig, Reply, ResilientClient, RetryPolicy, ServerCtx,
    TestRuntime,
};
use workload::trace::TraceModel;

const IDL: &str = r#"
    interface Store {
        [astacks = 8] [idempotent = 1] procedure Get(k: int32) -> int32;
        [astacks = 8] procedure Put(k: int32) -> int32;
        [astacks = 8] [idempotent = 1] procedure Stat() -> int32;
    }
"#;

fn handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(k) = args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(k.wrapping_add(1))))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(k) = args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(k.wrapping_mul(2))))
        }) as Handler,
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(7)))) as Handler,
    ]
}

fn run(seed: u64) -> (u64, usize, usize, Vec<String>) {
    let rt = TestRuntime::new()
        .cpus(2)
        .domain_caching(false)
        .astack_policy(AStackPolicy::Fail)
        .import_timeout(Duration::from_millis(50))
        .build();
    let server = rt.kernel().create_domain("store");
    rt.export(&server, IDL, handlers()).expect("export");

    // The fault schedule: every 9th dispatch panics inside the server
    // procedure, every 13th call presents a forged Binding Object, and
    // each dispatch pays 5 µs of injected scheduling delay.
    let plan = FaultPlan::new(FaultConfig {
        server_panic_every: 9,
        forge_binding_every: 13,
        dispatch_delay_us: 5,
        ..FaultConfig::with_seed(seed)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));

    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Store",
        RecoveryConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            jitter_seed: seed,
            ..RecoveryConfig::default()
        },
    )
    .expect("import");

    let trace = TraceModel::taos().generate(seed, 200);
    let (mut ok, mut err) = (0usize, 0usize);
    for ev in &trace.events {
        let (proc, args) = match ev.proc_rank % 3 {
            0 => ("Get", vec![Value::Int32(ev.bytes as i32)]),
            1 => ("Put", vec![Value::Int32(ev.bytes as i32)]),
            _ => ("Stat", vec![]),
        };
        match client.call(proc, &args) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }

    println!("injected faults ({}):", plan.event_count());
    for e in plan.events().iter().take(8) {
        println!("  {e}");
    }
    if plan.event_count() > 8 {
        println!("  ... {} more", plan.event_count() - 8);
    }
    (plan.digest(), ok, err, client.error_log())
}

fn main() {
    // Panics injected into server procedures are caught by the clerk and
    // surfaced as ServerFault; silence the default hook's backtraces.
    std::panic::set_hook(Box::new(|_| {}));
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    println!("=== chaos run, seed {seed} ===");
    let (d1, ok, err, errors) = run(seed);
    println!("calls: {ok} ok, {err} failed");
    println!("client-observed errors ({}):", errors.len());
    for e in errors.iter().take(6) {
        println!("  {e}");
    }
    if errors.len() > 6 {
        println!("  ... {} more", errors.len() - 6);
    }
    println!("fault digest: {d1:#018x}");

    println!("\n=== same seed, fresh machine ===");
    let (d2, ok2, err2, errors2) = run(seed);
    println!("calls: {ok2} ok, {err2} failed");
    println!("fault digest: {d2:#018x}");
    assert_eq!(d1, d2, "same seed, same schedule");
    assert_eq!(errors, errors2, "same seed, same observed errors");
    println!("\nbit-reproducible: digests and error logs match.");
}
