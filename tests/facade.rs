//! The ways to boot a runtime, and the client's one route into a server:
//! `Binding::call`, from the client stub through the kernel to the server
//! procedure, with kernel diagnostics, binding statistics and the
//! runtime's metrics watching.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use idl::stubvm::StubError;
use idl::wire::{Value, WireError};
use kernel::kernel::Kernel;
use lrpc::{CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};

#[test]
fn the_quickstart_boot_builds_consistent_components() {
    // The README's boot sequence: the four-CPU C-VAX Firefly, its kernel
    // and a default runtime, all sharing one machine.
    let machine = Machine::cvax_firefly();
    let kernel = Kernel::new(Arc::clone(&machine));
    let rt = LrpcRuntime::new(Arc::clone(&kernel));
    assert_eq!(machine.num_cpus(), 4);
    assert_eq!(machine.cost().name, "C-VAX Firefly");
    assert!(Arc::ptr_eq(rt.kernel(), &kernel));
    assert!(Arc::ptr_eq(kernel.machine(), &machine));
    assert!(rt.config().domain_caching);
}

#[test]
fn the_serial_test_runtime_has_one_cpu_and_no_caching() {
    // The configuration behind the paper's serial measurements and the
    // other tests in this file.
    let rt = TestRuntime::new().domain_caching(false).build();
    let machine = rt.kernel().machine();
    assert_eq!(machine.num_cpus(), 1);
    assert_eq!(machine.cost().name, "C-VAX Firefly");
    assert!(!rt.config().domain_caching);
}

#[test]
fn an_explicit_machine_overrides_the_cpu_count() {
    // The five-CPU MicroVAX II Firefly, handed to the builder whole: its
    // CPU count wins over `cpus`, and caching stays at its default.
    let microvax = Machine::new(5, CostModel::microvax_ii_firefly());
    let rt = TestRuntime::new()
        .cpus(2)
        .machine(Arc::clone(&microvax))
        .build();
    assert!(Arc::ptr_eq(rt.kernel().machine(), &microvax));
    assert_eq!(rt.kernel().machine().num_cpus(), 5);
    assert_eq!(rt.kernel().machine().cost().name, "MicroVAX II Firefly");
    assert!(rt.config().domain_caching);
}

#[test]
fn calls_kernel_diagnostics_and_binding_stats_end_to_end() {
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("kv");
    let store = Arc::new(parking_lot::Mutex::new(std::collections::HashMap::new()));
    let put_store = Arc::clone(&store);
    let get_store = store;
    rt.export(
        &server,
        r#"interface Kv {
                procedure Put(key: int32, value: int32) -> bool;
                procedure Get(key: int32) -> int32;
            }"#,
        vec![
            Box::new(move |_: &ServerCtx, args: &[Value]| {
                let (Value::Int32(k), Value::Int32(v)) = (&args[0], &args[1]) else {
                    unreachable!()
                };
                let replaced = put_store.lock().insert(*k, *v).is_some();
                Ok(Reply::value(Value::Bool(replaced)))
            }) as Handler,
            Box::new(move |_: &ServerCtx, args: &[Value]| {
                let Value::Int32(k) = args[0] else {
                    unreachable!()
                };
                let v = get_store.lock().get(&k).copied().unwrap_or(-1);
                Ok(Reply::value(Value::Int32(v)))
            }) as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&client);
    let kv = rt.import(&client, "Kv").unwrap();

    let put = kv
        .call(0, &thread, "Put", &[Value::Int32(7), Value::Int32(42)])
        .unwrap();
    assert_eq!(put.ret, Some(Value::Bool(false)));
    let got = kv.call(0, &thread, "Get", &[Value::Int32(7)]).unwrap();
    assert_eq!(got.ret, Some(Value::Int32(42)));
    let missing = kv.call(0, &thread, "Get", &[Value::Int32(8)]).unwrap();
    assert_eq!(missing.ret, Some(Value::Int32(-1)));

    // Kernel diagnostics see the whole picture.
    let snap = rt.kernel().snapshot();
    assert!(snap.domains.iter().any(|d| d.name == "kv"));
    assert!(snap.domains.iter().any(|d| d.name == "app"));
    assert_eq!(snap.threads_in_calls, 0, "all calls returned");
    assert!(snap.allocated_bytes > 0);
    assert!(snap.to_string().contains("kv"));

    // Binding statistics accumulated.
    assert_eq!(kv.state().stats.calls(), 3);
    assert_eq!(kv.state().stats.failures(), 0);
}

#[test]
fn stub_plan_cache_and_stub_histogram_are_observable() {
    // The stub compiler runs once per interface: the first import misses
    // the plan cache and compiles, further imports of the same interface
    // hit. Metered calls feed the per-interface stub-phase histogram.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("echo");
    rt.export(
        &server,
        "interface Echo { procedure Id(x: int32) -> int32; }",
        vec![
            Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::value(args[0].clone()))) as Handler,
        ],
    )
    .unwrap();
    let c1 = rt.kernel().create_domain("app1");
    let c2 = rt.kernel().create_domain("app2");
    let b1 = rt.import(&c1, "Echo").unwrap();
    let _b2 = rt.import(&c2, "Echo").unwrap();

    let thread = rt.kernel().spawn_thread(&c1);
    let out = b1.call_indexed(0, &thread, 0, &[Value::Int32(9)]).unwrap();
    assert_eq!(out.ret, Some(Value::Int32(9)));

    let snap = rt.collect_metrics();
    assert_eq!(
        snap.counter("stub_plan_cache_miss"),
        Some(1),
        "first import compiles the interface's copy plans"
    );
    assert_eq!(
        snap.counter("stub_plan_cache_hit"),
        Some(1),
        "second import of the same interface reuses them"
    );
    let stub = snap
        .histogram("lrpc_stub_ns:Echo")
        .expect("stub-phase histogram attached at import");
    assert_eq!(stub.count, 1, "one metered call observed");
    assert!(stub.sum > 0, "the stub phase charged virtual time");
}

#[test]
fn serial_null_takes_157_us() {
    // One C-VAX CPU with domain caching off: the paper's serial Null.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface N { procedure Null(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "N").unwrap();
    binding.call(0, &thread, "Null", &[]).unwrap();
    let out = binding.call(0, &thread, "Null", &[]).unwrap();
    assert_eq!(out.elapsed, firefly::Nanos::from_micros(157));
}

#[test]
fn the_client_stub_rejects_bad_arguments_before_the_server_runs() {
    // The stubs check every argument against its declared type on every
    // call; a bad one fails the call before the server procedure runs,
    // counts one failure and returns its A-stack.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("svc");
    let runs = Arc::new(AtomicUsize::new(0));
    let counting = || {
        let runs = Arc::clone(&runs);
        Box::new(move |_: &ServerCtx, _: &[Value]| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(Reply::value(Value::Int32(0)))
        }) as Handler
    };
    rt.export(
        &server,
        r#"interface Svc {
                procedure Add(a: int32, b: int32) -> int32;
                procedure Store(data: in var bytes[16]) -> int32;
            }"#,
        vec![counting(), counting()],
    )
    .unwrap();
    let client = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Svc").unwrap();

    let err = binding
        .call(0, &thread, "Add", &[Value::Bool(true), Value::Int32(2)])
        .unwrap_err();
    assert!(
        matches!(
            err,
            CallError::Stub(StubError::Wire(WireError::TypeMismatch { .. }))
        ),
        "bool for int32: {err}"
    );
    for args in [vec![Value::Int32(1)], vec![Value::Int32(1); 3]] {
        let err = binding.call(0, &thread, "Add", &args).unwrap_err();
        assert!(
            matches!(
                err,
                CallError::Stub(StubError::ArgCount { expected: 2, got }) if got == args.len()
            ),
            "{} arguments: {err}",
            args.len()
        );
    }
    let err = binding
        .call(0, &thread, "Store", &[Value::Var(vec![1; 17])])
        .unwrap_err();
    assert!(
        matches!(
            err,
            CallError::Stub(StubError::Wire(WireError::TooLong { len: 17, max: 16 }))
        ),
        "over-long var bytes: {err}"
    );

    assert_eq!(runs.load(Ordering::SeqCst), 0, "no server procedure ran");
    assert_eq!(binding.state().stats.failures(), 4);
    let astacks = &binding.state().astacks;
    let free: usize = (0..astacks.classes().len())
        .map(|c| astacks.free_count(c))
        .sum();
    assert_eq!(free, astacks.total_count(), "every A-stack is free again");
    assert_eq!(rt.kernel().snapshot().threads_in_calls, 0);
}
