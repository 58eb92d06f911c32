//! End-to-end tests of the LRPC call path against the paper's numbers.

use std::sync::Arc;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::error::MemFault;
use firefly::fault::{FaultConfig, FaultPlan};
use firefly::meter::Phase;
use firefly::time::Nanos;
use firefly::tlb::TlbMode;
use firefly::vm::Protection;
use idl::wire::Value;
use kernel::thread::Thread;
use kernel::Domain;
use lrpc::{AStackPolicy, Binding, CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};

/// The Table 4 benchmark interface.
const BENCH_IDL: &str = r#"
    interface Bench {
        procedure Null();
        procedure Add(a: int32, b: int32) -> int32;
        procedure BigIn(data: in bytes[200] noninterpreted);
        procedure BigInOut(data: inout bytes[200] noninterpreted);
    }
"#;

fn bench_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                return Err(CallError::ServerFault("bad arg types".into()));
            };
            Ok(Reply::value(Value::Int32(a + b)))
        }),
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            // Echo the buffer back through the inout parameter.
            Ok(Reply::none().with_out(0, args[0].clone()))
        }),
    ]
}

struct Env {
    rt: Arc<LrpcRuntime>,
    client: Arc<Domain>,
    server: Arc<Domain>,
    thread: Arc<Thread>,
    binding: Binding,
}

fn setup_with(builder: TestRuntime) -> Env {
    let rt = builder.build();
    let server = rt.kernel().create_domain("bench-server");
    rt.export(&server, BENCH_IDL, bench_handlers())
        .expect("export");
    let client = rt.kernel().create_domain("bench-client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Bench").expect("import");
    Env {
        rt,
        client,
        server,
        thread,
        binding,
    }
}

fn setup_serial() -> Env {
    setup_with(TestRuntime::new().domain_caching(false))
}

/// Steady-state latency of a call (one warmup, then measure).
fn steady_latency(env: &Env, proc: &str, args: &[Value]) -> Nanos {
    env.binding
        .call(0, &env.thread, proc, args)
        .expect("warmup");
    env.binding
        .call(0, &env.thread, proc, args)
        .expect("measured")
        .elapsed
}

#[test]
fn null_call_takes_157_microseconds() {
    let env = setup_serial();
    assert_eq!(steady_latency(&env, "Null", &[]), Nanos::from_micros(157));
}

#[test]
fn table_4_serial_latencies() {
    let env = setup_serial();
    let add = steady_latency(&env, "Add", &[Value::Int32(2), Value::Int32(3)]);
    let big_in = steady_latency(&env, "BigIn", &[Value::Bytes(vec![7; 200])]);
    let big_in_out = steady_latency(&env, "BigInOut", &[Value::Bytes(vec![7; 200])]);
    assert_eq!(add.as_micros_f64().round() as u64, 164, "Add: {add}");
    assert_eq!(
        big_in.as_micros_f64().round() as u64,
        192,
        "BigIn: {big_in}"
    );
    assert_eq!(
        big_in_out.as_micros_f64().round() as u64,
        227,
        "BigInOut: {big_in_out}"
    );
}

#[test]
fn table_5_breakdown_matches_the_paper() {
    let env = setup_serial();
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    let outcome = env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    let m = &outcome.meter;
    assert_eq!(m.total_for(Phase::ProcedureCall), Nanos::from_micros(7));
    assert_eq!(m.total_for(Phase::Trap), Nanos::from_micros(36));
    assert_eq!(m.total_for(Phase::ContextSwitch), Nanos::from_micros(66));
    let stubs = m.total_for(Phase::ClientStub)
        + m.total_for(Phase::ServerStub)
        + m.total_for(Phase::QueueOp);
    assert_eq!(stubs, Nanos::from_micros(21));
    assert_eq!(m.total_for(Phase::KernelTransfer), Nanos::from_micros(27));
    assert_eq!(m.total(), Nanos::from_micros(157));
}

#[test]
fn server_work_and_dispatch_delays_tile_the_call_on_its_meter() {
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("worker");
    rt.export(
        &server,
        "interface Work { procedure Work(); }",
        vec![Box::new(|ctx: &ServerCtx, _: &[Value]| {
            ctx.charge(Nanos::from_micros(5));
            Ok(Reply::none())
        }) as Handler],
    )
    .expect("export");
    let client = rt.kernel().create_domain("client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Work").expect("import");
    binding.call(0, &thread, "Work", &[]).expect("warmup");

    // The Null call's 157 us plus 5 us of server procedure.
    let out = binding.call(0, &thread, "Work", &[]).expect("call");
    assert_eq!(out.elapsed, Nanos::from_micros(162));
    assert_eq!(out.meter.total(), out.elapsed);
    assert_eq!(
        out.meter.total_for(Phase::ServerProcedure),
        Nanos::from_micros(5)
    );

    // An injected dispatch delay is dispatch time on the same meter.
    rt.set_fault_plan(Some(FaultPlan::new(FaultConfig {
        dispatch_delay_us: 5,
        ..FaultConfig::default()
    })));
    let out = binding.call(0, &thread, "Work", &[]).expect("delayed call");
    assert_eq!(out.meter.total_for(Phase::Dispatch), Nanos::from_micros(5));
    assert_eq!(out.meter.total(), out.elapsed);
}

#[test]
fn null_call_incurs_about_43_tlb_misses() {
    let env = setup_serial();
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    let outcome = env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    assert_eq!(
        outcome.meter.tlb_misses(),
        43,
        "the paper estimates 43 misses per Null call"
    );
}

#[test]
fn results_and_out_parameters_roundtrip() {
    let env = setup_serial();
    let add = env
        .binding
        .call(0, &env.thread, "Add", &[Value::Int32(19), Value::Int32(23)])
        .unwrap();
    assert_eq!(add.ret, Some(Value::Int32(42)));

    let payload = vec![0xA5u8; 200];
    let echo = env
        .binding
        .call(0, &env.thread, "BigInOut", &[Value::Bytes(payload.clone())])
        .unwrap();
    assert_eq!(echo.outs, vec![(0, Value::Bytes(payload))]);
}

#[test]
fn idle_processor_optimization_cuts_null_to_125_microseconds() {
    let env = setup_with(TestRuntime::new().cpus(2).domain_caching(true));
    // Park CPU 1 idling in the server's context (the scheduler would do
    // this after noticing idle misses).
    env.rt
        .kernel()
        .machine()
        .cpu(1)
        .set_idle_in(Some(env.server.ctx().id()));

    // Warmup (also re-parks the CPUs via the exchange dance).
    let w = env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    assert!(
        w.exchanged_on_call,
        "an idle CPU in the server context must be claimed"
    );
    assert!(
        w.exchanged_on_return,
        "the original CPU idles in the client context"
    );

    let start_cpu = w.end_cpu;
    let outcome = env
        .binding
        .call(start_cpu, &env.thread, "Null", &[])
        .unwrap();
    assert!(outcome.exchanged_on_call && outcome.exchanged_on_return);
    assert_eq!(
        outcome.elapsed,
        Nanos::from_micros(125),
        "Table 4 LRPC/MP Null"
    );
    assert_eq!(outcome.meter.total_for(Phase::ContextSwitch), Nanos::ZERO);
}

#[test]
fn forged_binding_object_is_rejected_by_the_kernel() {
    let env = setup_serial();
    let forged = env.binding.forged();
    let err = forged.call(0, &env.thread, "Null", &[]).unwrap_err();
    assert!(matches!(err, CallError::InvalidBinding(_)), "got {err}");
    // The real binding still works, and the A-stack taken by the failed
    // call was released by the unwind path.
    for _ in 0..10 {
        env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    }
}

#[test]
fn bad_procedure_identifier_is_rejected() {
    let env = setup_serial();
    let stats = &env.binding.state().stats;
    let err = env
        .binding
        .call_indexed(0, &env.thread, 99, &[])
        .unwrap_err();
    assert!(matches!(err, CallError::BadProcedure { index: 99 }));
    assert_eq!(stats.failures(), 1);
    // An unmetered call counts its failure too, once.
    let err = env
        .binding
        .call_unmetered(0, &env.thread, 99, &[])
        .unwrap_err();
    assert!(matches!(err, CallError::BadProcedure { index: 99 }));
    assert_eq!(stats.failures(), 2);
}

#[test]
fn failed_call_degraded_from_a_full_ring_counts_one_failure() {
    let env = setup_serial();
    env.rt.set_fault_plan(Some(FaultPlan::new(FaultConfig {
        ring_full_every: 1,
        ..FaultConfig::default()
    })));
    let out = env
        .binding
        .call_batch(0, &env.thread, vec![(0, vec![]), (99, vec![]), (0, vec![])])
        .expect("batch");
    assert_eq!(out.degraded, 3, "every call found the ring full");
    assert!(out.results[0].is_ok() && out.results[2].is_ok());
    assert!(matches!(
        out.results[1],
        Err(CallError::BadProcedure { index: 99 })
    ));
    assert_eq!(env.binding.state().stats.failures(), 1);
}

#[test]
fn batched_calls_failed_after_the_thread_dies_count_one_failure_each() {
    // One A-stack per procedure: the second `Kill` finds its class empty
    // and flushes the first, whose handler terminates the client domain.
    // The thread dies on the way back, so the second `Kill` and both
    // `Null`s fail without ever being enqueued.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("killer");
    let client = rt.kernel().create_domain("doomed");
    let victim = Arc::clone(&client);
    rt.export(
        &server,
        "interface Doom {
            [astacks = 1] procedure Kill();
            [astacks = 1] procedure Null();
        }",
        vec![
            Box::new(move |ctx: &ServerCtx, _: &[Value]| {
                ctx.rt.terminate_domain(&victim);
                Ok(Reply::none())
            }) as Handler,
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        ],
    )
    .expect("export");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Doom").expect("import");
    let (kill, null) = (0, 1);
    let out = binding
        .call_batch(
            0,
            &thread,
            vec![
                (kill, vec![]),
                (kill, vec![]),
                (null, vec![]),
                (null, vec![]),
            ],
        )
        .expect("batch");
    assert!(out.results.iter().all(Result::is_err), "{:?}", out.results);
    assert_eq!(binding.state().stats.failures(), 4);
}

#[test]
fn calls_behind_a_server_termination_in_one_flush_are_not_served() {
    // One flush of four calls; the second terminates the server domain.
    // The server drained the whole window before serving, yet the two
    // calls behind the termination never run in the dead domain: every
    // call raises call-failed (Section 5.3) and the ring is left empty.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("short-lived");
    let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let (count, doomed) = (Arc::clone(&served), Arc::clone(&server));
    rt.export(
        &server,
        "interface Stop {
            [astacks = 4] procedure Count();
            [astacks = 4] procedure Stop();
        }",
        vec![
            Box::new(move |_: &ServerCtx, _: &[Value]| {
                count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(Reply::none())
            }) as Handler,
            Box::new(move |ctx: &ServerCtx, _: &[Value]| {
                ctx.rt.terminate_domain(&doomed);
                Ok(Reply::none())
            }),
        ],
    )
    .expect("export");
    let client = rt.kernel().create_domain("caller");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Stop").expect("import");
    let out = binding
        .call_batch(
            0,
            &thread,
            vec![(0, vec![]), (1, vec![]), (0, vec![]), (0, vec![])],
        )
        .expect("batch");
    assert_eq!(out.doorbells, 1, "one flush");
    assert!(
        out.results
            .iter()
            .all(|r| matches!(r, Err(CallError::CallFailed))),
        "{:?}",
        out.results
    );
    assert_eq!(served.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(binding.state().stats.failures(), 4);
    let ring = binding.state().ring.as_ref().expect("local ring");
    assert_eq!(ring.occupancy_now(), 0, "ring slot leaked");
}

#[test]
fn server_termination_revokes_binding_and_raises_call_failed() {
    let env = setup_serial();
    env.binding.call(0, &env.thread, "Null", &[]).unwrap();
    env.rt.terminate_domain(&env.server);
    let err = env.binding.call(0, &env.thread, "Null", &[]).unwrap_err();
    // The Binding Object was revoked; depending on timing the kernel sees
    // either the revoked flag or the already-removed handle.
    assert!(
        matches!(
            err,
            CallError::BindingRevoked | CallError::InvalidBinding(_)
        ),
        "got {err}"
    );
    // The interface is gone from the name server too.
    let other = env.rt.kernel().create_domain("late-client");
    let import_err = env
        .rt
        .clone()
        .import(&other, "Bench")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(import_err, CallError::ImportTimeout { .. }));
}

#[test]
fn server_fault_propagates_and_resources_are_released() {
    let rt = TestRuntime::new().build();
    let server = rt.kernel().create_domain("faulty");
    rt.export(
        &server,
        "interface Faulty { procedure Boom(); }",
        vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Err(CallError::ServerFault("deliberate".into())))
                as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Faulty").unwrap();
    for _ in 0..12 {
        // More iterations than A-stacks: leaks would exhaust the queue.
        let err = binding.call(0, &thread, "Boom", &[]).unwrap_err();
        assert!(matches!(err, CallError::ServerFault(_)));
        assert_eq!(thread.call_depth(), 0, "linkage must be unwound");
    }
}

#[test]
fn nested_calls_cross_three_domains() {
    let rt = TestRuntime::new().build();

    // C calls B; B's handler calls A.
    let domain_a = rt.kernel().create_domain("A");
    rt.export(
        &domain_a,
        "interface Inner { procedure Twice(x: int32) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(x) = args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(2 * x)))
        }) as Handler],
    )
    .unwrap();

    let domain_b = rt.kernel().create_domain("B");
    let inner_binding = std::sync::Mutex::new(None::<Binding>);
    let rt2 = Arc::clone(&rt);
    let domain_b2 = Arc::clone(&domain_b);
    rt.export(
        &domain_b,
        "interface Outer { procedure TwicePlusOne(x: int32) -> int32; }",
        vec![Box::new(move |ctx: &ServerCtx, args: &[Value]| {
            let mut guard = inner_binding.lock().unwrap();
            if guard.is_none() {
                *guard = Some(rt2.import(&domain_b2, "Inner").expect("nested import"));
            }
            let b = guard.as_ref().expect("bound");
            let out = b.call_indexed(ctx.cpu_id, ctx.thread, 0, args)?;
            let Some(Value::Int32(doubled)) = out.ret else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(doubled + 1)))
        }) as Handler],
    )
    .unwrap();

    let client = rt.kernel().create_domain("C");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Outer").unwrap();
    let out = binding
        .call(0, &thread, "TwicePlusOne", &[Value::Int32(20)])
        .unwrap();
    assert_eq!(out.ret, Some(Value::Int32(41)));
    assert_eq!(thread.call_depth(), 0);
    assert_eq!(thread.current_domain(), client.id());
}

#[test]
fn copy_ops_match_table_3() {
    // Mutable (interpreted) 200-byte in parameter: LRPC copies A on call,
    // E on the server side (defensive copy), nothing else.
    let rt = TestRuntime::new().build();
    let server = rt.kernel().create_domain("copysrv");
    rt.export(
        &server,
        r#"interface Copies {
            procedure Mutable(data: in var bytes[200]);
            procedure Immutable(data: in bytes[200] noninterpreted);
            procedure Returns() -> int32;
        }"#,
        vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(1)))) as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Copies").unwrap();

    let mutable = binding
        .call(0, &thread, "Mutable", &[Value::Var(vec![1; 200])])
        .unwrap();
    assert_eq!(
        mutable.copies.letters_string(),
        "AE",
        "interpreted data needs the E copy"
    );

    let immutable = binding
        .call(0, &thread, "Immutable", &[Value::Bytes(vec![1; 200])])
        .unwrap();
    assert_eq!(
        immutable.copies.letters_string(),
        "A",
        "noninterpreted data is copied once"
    );

    let returns = binding.call(0, &thread, "Returns", &[]).unwrap();
    assert_eq!(
        returns.copies.letters_string(),
        "F",
        "returns copy A-stack to destination"
    );
}

#[test]
fn concurrent_clients_do_not_interfere() {
    let env = Arc::new(setup_with(TestRuntime::new().cpus(4).domain_caching(false)));
    let mut handles = Vec::new();
    for cpu in 0..4 {
        let env = Arc::clone(&env);
        handles.push(std::thread::spawn(move || {
            let thread = env.rt.kernel().spawn_thread(&env.client);
            for i in 0..200 {
                let out = env
                    .binding
                    .call_indexed(cpu, &thread, 1, &[Value::Int32(i), Value::Int32(1)])
                    .expect("concurrent call");
                assert_eq!(out.ret, Some(Value::Int32(i + 1)));
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics");
    }
}

#[test]
fn astack_exhaustion_fails_cleanly_with_fail_policy() {
    // A procedure with a single A-stack: hold it hostage via a handler
    // that recursively calls back in. Simpler: claim the linkage slot
    // directly to simulate a concurrent call in flight.
    let rt = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(lrpc::AStackPolicy::Fail)
        .build();
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface One { [astacks = 1] procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "One").unwrap();

    // Drain the only A-stack.
    let held = binding
        .state()
        .astacks
        .acquire(0, lrpc::AStackPolicy::Fail, rt.kernel(), &client, &server)
        .unwrap();
    let err = binding.call(0, &thread, "P", &[]).unwrap_err();
    assert!(matches!(err, CallError::NoAStacks));
    binding.state().astacks.release(held);
    binding.call(0, &thread, "P", &[]).unwrap();
}

#[test]
fn refused_call_keeps_its_tlb_accounting() {
    // A call refused for want of an A-stack has already touched its
    // client-stub pages; the next call finds them resident until a
    // context switch invalidates them. Pins the TLB misses of a refused
    // and then a successful Null call, first on a cold binding and then
    // in steady state, so a change that merges a stage's page touches
    // into one run must keep every touch, in order, on both paths.
    for (mode, expected) in [
        (TlbMode::InvalidateOnSwitch, [(8, 36), (8, 35)]),
        (TlbMode::Tagged, [(8, 35), (0, 0)]),
    ] {
        let machine = Machine::with_tlb_mode(1, CostModel::cvax_firefly(), mode);
        let env = setup_with(
            TestRuntime::new()
                .machine(machine)
                .domain_caching(false)
                .astack_policy(AStackPolicy::Fail),
        );
        let astacks = &env.binding.state().astacks;
        let class = astacks.class_of_proc(0);
        let cpu = env.rt.kernel().machine().cpu(0);
        let mut misses = Vec::new();
        for round in 0..2 {
            let mut held = Vec::new();
            while let Ok(idx) = astacks.acquire(
                class,
                AStackPolicy::Fail,
                env.rt.kernel(),
                &env.client,
                &env.server,
            ) {
                held.push(idx);
            }
            let before = cpu.tlb_misses();
            let err = env.binding.call(0, &env.thread, "Null", &[]).unwrap_err();
            assert!(matches!(err, CallError::NoAStacks), "{mode:?}: {err}");
            let refused = cpu.tlb_misses() - before;
            for idx in held {
                astacks.release(idx);
            }
            let before = cpu.tlb_misses();
            env.binding.call(0, &env.thread, "Null", &[]).unwrap();
            misses.push((refused, cpu.tlb_misses() - before));
            if round == 0 {
                // Steady state from here on.
                env.binding.call(0, &env.thread, "Null", &[]).unwrap();
            }
        }
        assert_eq!(misses, expected, "{mode:?}: (refused, next) misses");
    }
}

#[test]
fn grow_policy_allocates_overflow_astacks() {
    let rt = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(lrpc::AStackPolicy::Grow)
        .build();
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface One { [astacks = 1] procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "One").unwrap();
    let _held = binding
        .state()
        .astacks
        .acquire(0, lrpc::AStackPolicy::Fail, rt.kernel(), &client, &server)
        .unwrap();
    // The call grows an overflow A-stack and pays the slower validation.
    let out = binding.call(0, &thread, "P", &[]).unwrap();
    assert!(out.meter.total_for(Phase::Validation) > Nanos::ZERO);
    assert_eq!(binding.state().astacks.total_count(), 2);
}

#[test]
fn captured_thread_recovery_delivers_call_aborted() {
    let rt = TestRuntime::new().cpus(2).domain_caching(false).build();
    let server = rt.kernel().create_domain("capturer");
    let gate = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
    let gate2 = Arc::clone(&gate);
    rt.export(
        &server,
        "interface Cap { procedure Hold(); }",
        vec![Box::new(move |_: &ServerCtx, _: &[Value]| {
            // "It is therefore possible for one domain to 'capture'
            // another's thread and hold it indefinitely."
            let (lock, cv) = &*gate2;
            let mut released = lock.lock();
            while !*released {
                cv.wait(&mut released);
            }
            Ok(Reply::none())
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("victim");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Cap").unwrap();

    let captured = Arc::clone(&thread);
    let call = {
        let rt = Arc::clone(&rt);
        let _ = &rt;
        std::thread::spawn(move || binding.call(0, &captured, "Hold", &[]))
    };
    // Wait until the thread is captured inside the server.
    while thread.current_domain() != server.id() {
        std::thread::yield_now();
    }

    // The client gives up and gets a replacement thread.
    let replacement = rt.abandon_captured(&thread).expect("thread is mid-call");
    assert_eq!(replacement.home_domain(), client.id());
    assert_eq!(replacement.call_depth(), 0);

    // Release the server; the captured thread is destroyed on release and
    // the outstanding call reports call-aborted.
    {
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
    }
    let result = call.join().unwrap();
    assert!(
        matches!(result, Err(CallError::CallAborted)),
        "got {result:?}"
    );
    assert_eq!(thread.status(), kernel::ThreadStatus::Destroyed);
}

#[test]
fn termination_with_multiple_outstanding_calls_mixes_failed_and_aborted() {
    // Section 5.3, both exceptions at once: two clients are captured
    // inside the same server when its domain terminates. The client that
    // had already abandoned its thread sees call-aborted; the one still
    // waiting sees call-failed. Neither hangs, and the A-stack/linkage
    // pairs of both bindings come back.
    let rt = TestRuntime::new().cpus(4).domain_caching(false).build();
    let server = rt.kernel().create_domain("doomed");
    let gate = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
    let gate2 = Arc::clone(&gate);
    rt.export(
        &server,
        "interface Cap2 { [astacks = 4] procedure Hold(); }",
        vec![Box::new(move |_: &ServerCtx, _: &[Value]| {
            let (lock, cv) = &*gate2;
            let mut released = lock.lock();
            while !*released {
                cv.wait(&mut released);
            }
            Ok(Reply::none())
        }) as Handler],
    )
    .unwrap();

    let ca = rt.kernel().create_domain("patient");
    let cb = rt.kernel().create_domain("impatient");
    let ta = rt.kernel().spawn_thread(&ca);
    let tb = rt.kernel().spawn_thread(&cb);
    let ba = Arc::new(rt.import(&ca, "Cap2").unwrap());
    let bb = Arc::new(rt.import(&cb, "Cap2").unwrap());

    let call_a = {
        let (b, t) = (Arc::clone(&ba), Arc::clone(&ta));
        std::thread::spawn(move || b.call(0, &t, "Hold", &[]))
    };
    let call_b = {
        let (b, t) = (Arc::clone(&bb), Arc::clone(&tb));
        std::thread::spawn(move || b.call(1, &t, "Hold", &[]))
    };
    while ta.current_domain() != server.id() || tb.current_domain() != server.id() {
        std::thread::yield_now();
    }

    // B gives up first (call-aborted path), then the domain dies under A
    // (call-failed path), then the handlers finally return.
    let replacement = rt.abandon_captured(&tb).expect("tb is captured");
    assert_eq!(replacement.home_domain(), cb.id());
    rt.terminate_domain(&server);
    {
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
    }

    let ra = call_a.join().unwrap();
    let rb = call_b.join().unwrap();
    assert!(matches!(ra, Err(CallError::CallFailed)), "got {ra:?}");
    assert!(matches!(rb, Err(CallError::CallAborted)), "got {rb:?}");
    assert_eq!(tb.status(), kernel::ThreadStatus::Destroyed);
    assert_eq!(ta.call_depth(), 0);

    for binding in [&ba, &bb] {
        let astacks = &binding.state().astacks;
        assert_eq!(astacks.free_count(0), 4, "every A-stack back on its queue");
        let mut i = 0;
        while let Some(slot) = astacks.linkage(i) {
            assert!(!slot.is_in_use(), "linkage record {i} left claimed");
            i += 1;
        }
    }
    assert_eq!(rt.kernel().snapshot().threads_in_calls, 0);
}

/// Large variable parameters, statically demoted to out-of-band slots.
const OOB_IDL: &str = r#"
    interface Oob {
        procedure Send(data: in var bytes[65536] noninterpreted);
        procedure Bump(data: inout var bytes[65536] noninterpreted);
    }
"#;

/// A runtime serving [`OOB_IDL`]: `Bump` returns each byte plus one.
fn oob_setup() -> (Arc<Domain>, Arc<Thread>, Binding) {
    let rt = TestRuntime::new().build();
    let server = rt.kernel().create_domain("oob-server");
    let handlers: Vec<Handler> = vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            let bumped = data.iter().map(|b| b.wrapping_add(1)).collect();
            Ok(Reply::none().with_out(0, Value::Var(bumped)))
        }),
    ];
    rt.export(&server, OOB_IDL, handlers).expect("export");
    let client = rt.kernel().create_domain("oob-client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Oob").expect("import");
    (client, thread, binding)
}

#[test]
fn out_of_band_results_cross_the_leased_chunk() {
    // Results travel the way arguments do: the server encodes them into
    // the call's arena chunk, and the client decodes them out of it.
    let (_client, thread, binding) = oob_setup();
    let out = binding
        .call(0, &thread, "Bump", &[Value::Var(vec![0x10; 3000])])
        .unwrap();
    assert_eq!(out.outs, vec![(0, Value::Var(vec![0x11; 3000]))]);
    let region = binding.state().bulk.as_ref().expect("an arena").region();
    // Chunk 0: the segment's `[len | 0]` header, the value's length
    // prefix, then the returned bytes.
    let header = [3004u32.to_le_bytes(), [0; 4], 3000u32.to_le_bytes()].concat();
    assert_eq!(region.read_vec(0, 12).unwrap(), header);
    assert_eq!(region.read_vec(12, 4).unwrap(), vec![0x11; 4]);
}

#[test]
fn a_client_unmapped_from_the_arena_cannot_move_out_of_band_data() {
    // Every out-of-band byte crosses a region checked against the
    // accessing domain's mapping table, the client's included.
    let (client, thread, binding) = oob_setup();
    let arena = binding.state().bulk.as_ref().expect("an arena");
    client.ctx().unmap(arena.region().id());
    for proc in ["Send", "Bump"] {
        let err = binding
            .call(0, &thread, proc, &[Value::Var(vec![7; 3000])])
            .unwrap_err();
        assert!(
            matches!(err, CallError::Mem(MemFault::NotMapped { .. })),
            "{proc}: {err}"
        );
    }
    assert_eq!(arena.free_count(), arena.chunk_count(), "chunks returned");
}

#[test]
fn mapping_changes_after_warm_calls_take_effect_at_once() {
    // Each domain answers repeated protection checks from a cache, so
    // these changes land after successful calls have warmed it: every
    // unmap and remap must still decide the very next call.
    let (client, thread, binding) = oob_setup();
    let state = binding.state();
    let arena = state.bulk.as_ref().expect("an arena");
    let calls = |expect_ok: bool| {
        for proc in ["Send", "Bump"] {
            for _ in 0..2 {
                let out = binding.call(0, &thread, proc, &[Value::Var(vec![7; 3000])]);
                match out {
                    Ok(_) if expect_ok => {}
                    Err(CallError::Mem(MemFault::NotMapped { .. })) if !expect_ok => {}
                    other => panic!("{proc}: {other:?}"),
                }
            }
        }
    };
    calls(true);
    client.ctx().unmap(arena.region().id());
    calls(false);
    client.ctx().map(arena.region().id(), Protection::ReadWrite);
    calls(true);
    let bumped = binding
        .call(0, &thread, "Bump", &[Value::Var(vec![7; 3000])])
        .unwrap();
    assert_eq!(bumped.outs, vec![(0, Value::Var(vec![8; 3000]))]);

    // The server loses its A-stacks: the call fails as it does on a
    // binding that never warmed a cache.
    let astacks = |binding: &Binding| binding.state().astacks.primary_region().id();
    let unmap_astacks = |binding: &Binding| {
        binding.state().server.ctx().unmap(astacks(binding));
    };
    let send = |binding: &Binding, thread: &Arc<Thread>| {
        let err = binding
            .call(0, thread, "Send", &[Value::Var(vec![7; 3000])])
            .unwrap_err();
        format!("{err:?}")
    };
    unmap_astacks(&binding);
    let warm = send(&binding, &thread);
    let (_cold_client, cold_thread, cold) = oob_setup();
    unmap_astacks(&cold);
    assert_eq!(warm, send(&cold, &cold_thread));
    assert!(warm.contains("NotMapped"), "{warm}");

    assert_eq!(arena.free_count(), arena.chunk_count(), "chunks returned");
    for class in 0..state.astacks.classes().len() {
        let free = state.astacks.free_count(class);
        assert_eq!(free, state.astacks.class_count(class), "A-stacks returned");
    }
}

#[test]
fn large_out_of_band_calls_keep_their_tlb_counts() {
    // A 64 KB Echo puts 129 argument and 129 result pages on the server
    // side, more than the 256 entries one context can hold. Pins the
    // CPU's steady-state (hits, misses) per call, the out-of-band pages
    // included, while the call's meter counts the 43 misses of the touch
    // plan and the A-stack alone.
    let rt = TestRuntime::new().domain_caching(false).build();
    let server = rt.kernel().create_domain("bulk-server");
    let handlers: Vec<Handler> = vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
    ];
    let idl = "interface Bulk {
        procedure Send(data: in var bytes[65536] noninterpreted);
        procedure Echo(data: inout var bytes[65536] noninterpreted);
    }";
    rt.export(&server, idl, handlers).expect("export");
    let client = rt.kernel().create_domain("bulk-client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Bulk").expect("import");
    let cpu = rt.kernel().machine().cpu(0);
    let mut counts = Vec::new();
    for (proc, len) in [
        ("Echo", 65536),
        ("Send", 65536),
        ("Echo", 2048),
        ("Send", 64),
    ] {
        let args = [Value::Var(vec![9; len])];
        for _ in 0..3 {
            binding.call(0, &thread, proc, &args).expect("warm call");
        }
        let (hits, misses) = (cpu.tlb_hits(), cpu.tlb_misses());
        let out = binding
            .call(0, &thread, proc, &args)
            .expect("measured call");
        assert_eq!(out.meter.tlb_misses(), 43, "{proc} {len}: metered misses");
        counts.push((cpu.tlb_hits() - hits, cpu.tlb_misses() - misses));
    }
    assert_eq!(counts, [(263, 301), (3, 301), (15, 53), (3, 45)]);
}

#[test]
fn an_out_of_band_argument_that_cannot_encode_leases_nothing() {
    // Sizing the arguments finds the error first: the call leases no
    // chunk and observes no bulk bytes, and the push raises the error the
    // stub's encoder gives.
    let (_client, thread, binding) = oob_setup();
    let stats = &binding.state().stats;
    let observed = || stats.bulk_bytes().map_or(0, |h| h.count());
    let err = binding
        .call(0, &thread, "Send", &[Value::Var(vec![1; 65537])])
        .unwrap_err();
    assert!(
        matches!(
            err,
            CallError::Stub(idl::stubvm::StubError::Wire(
                idl::wire::WireError::TooLong {
                    len: 65537,
                    max: 65536
                }
            ))
        ),
        "{err}"
    );
    assert_eq!(observed(), 0);
    let arena = binding.state().bulk.as_ref().expect("an arena");
    assert_eq!(arena.free_count(), arena.chunk_count());
    assert_eq!(stats.bulk_fallbacks(), 0);
}
