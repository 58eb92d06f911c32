//! Chaos suite: workload traces replayed under seeded fault schedules.
//!
//! The fault plan (see `firefly::fault`) decides *what* goes wrong; these
//! tests check that the machinery of Section 5.3 absorbs it. Every
//! schedule is seeded and deterministic, so each scenario asserts two
//! things: the *robustness invariants* (no A-stack or E-stack leaks, no
//! orphaned linkage records, captured threads released or destroyed,
//! revoked bindings rejected) and *bit-reproducibility* (the same seed
//! yields the same fault-event log and the same client-observed error
//! sequence, run after run).

use std::sync::Arc;
use std::time::Duration;

use firefly::fault::{FaultConfig, FaultKind, FaultPlan};
use idl::wire::Value;
use kernel::Domain;
use lrpc::{
    AStackPolicy, Binding, BreakerConfig, BreakerState, CallError, Handler, LrpcRuntime,
    RecoveryConfig, Reply, ResilientClient, RetryPolicy, ServerCtx, TestRuntime,
};
use workload::trace::{CallTrace, TraceModel};

/// The interface every chaos server exports. `Get` and `Stat` are
/// declared idempotent, so only they are eligible for retry.
const CHAOS_IDL: &str = r#"
    interface Chaos {
        [astacks = 8] [idempotent = 1] procedure Get(x: int32) -> int32;
        [astacks = 8] procedure Put(x: int32) -> int32;
        [astacks = 8] [idempotent = 1] procedure Stat() -> int32;
    }
"#;

fn chaos_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(x) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(x.wrapping_add(1))))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(x) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(x.wrapping_mul(2))))
        }) as Handler,
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(7)))) as Handler,
    ]
}

fn make_runtime(builder: TestRuntime) -> (Arc<LrpcRuntime>, Arc<Domain>) {
    let rt = builder.cpus(2).build();
    let server = rt.kernel().create_domain("chaos-server");
    rt.export(&server, CHAOS_IDL, chaos_handlers())
        .expect("export");
    (rt, server)
}

fn chaos_runtime() -> TestRuntime {
    TestRuntime::new()
        .domain_caching(false)
        .astack_policy(AStackPolicy::Fail)
        .import_timeout(Duration::from_millis(50))
}

/// Maps one trace event onto the chaos interface.
fn event_call(rank: usize, bytes: u32) -> (&'static str, Vec<Value>) {
    match rank % 3 {
        0 => ("Get", vec![Value::Int32(bytes as i32)]),
        1 => ("Put", vec![Value::Int32(bytes as i32)]),
        _ => ("Stat", vec![]),
    }
}

/// Replays a trace through a resilient client; returns (ok, err) counts.
fn replay(client: &ResilientClient, trace: &CallTrace) -> (u32, u32) {
    let (mut ok, mut err) = (0, 0);
    for ev in &trace.events {
        let (proc, args) = event_call(ev.proc_rank, ev.bytes);
        match client.call(proc, &args) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    (ok, err)
}

/// The leak invariants: every A-stack back on its free queue, every
/// linkage record released, no E-stack still marked in-call, no thread
/// still inside an LRPC.
fn assert_no_leaks(rt: &Arc<LrpcRuntime>, server: &Arc<Domain>, binding: &Binding) {
    let astacks = &binding.state().astacks;
    let free: usize = (0..astacks.classes().len())
        .map(|c| astacks.free_count(c))
        .sum();
    assert_eq!(
        free,
        astacks.total_count(),
        "every A-stack must be back on its queue"
    );
    let mut i = 0;
    while let Some(slot) = astacks.linkage(i) {
        assert!(!slot.is_in_use(), "linkage record {i} left claimed");
        i += 1;
    }
    let pool = rt.estack_pool(server);
    assert_eq!(
        pool.busy_count(),
        0,
        "no E-stack may stay associated with an in-progress call"
    );
    // The exported gauge is read from the pool by the metrics sweep; if
    // it ever disagrees with the pool's own count, the leak detector the
    // dashboard sees is lying.
    let busy = rt
        .collect_metrics()
        .gauge(&format!("lrpc_estacks_busy:{}", server.name()));
    assert_eq!(
        busy,
        Some(pool.busy_count() as i64),
        "the lrpc_estacks_busy gauge must track the pool exactly"
    );
    assert_eq!(busy, Some(0), "gauge reports an E-stack leak");
    assert_eq!(
        rt.kernel().snapshot().threads_in_calls,
        0,
        "no thread may remain inside an LRPC"
    );
}

#[test]
fn quiescent_plan_is_observationally_invisible() {
    // An installed plan with all-zero knobs must inject nothing and
    // charge nothing: the virtual clock advances exactly as it does with
    // no plan at all (the bench crate's Null-call decomposition relies on
    // this).
    let run = |plan: Option<Arc<FaultPlan>>| {
        let (rt, _server) = make_runtime(chaos_runtime());
        rt.set_fault_plan(plan);
        let client = rt.kernel().create_domain("quiet");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "Chaos").unwrap();
        for i in 0..50 {
            binding
                .call(0, &thread, "Get", &[Value::Int32(i)])
                .expect("quiescent call");
        }
        rt.kernel().machine().cpu(0).now()
    };
    let quiet_plan = FaultPlan::new(FaultConfig::with_seed(0xC4A05));
    let with_plan = run(Some(Arc::clone(&quiet_plan)));
    let without = run(None);
    assert_eq!(with_plan, without, "zero knobs must charge zero time");
    assert_eq!(quiet_plan.event_count(), 0, "zero knobs never inject");
}

/// One full seeded chaos run; everything observable is returned so runs
/// can be compared bit-for-bit.
struct RunRecord {
    digest: u64,
    events: Vec<String>,
    errors: Vec<String>,
    ok: u32,
    err: u32,
    vtime: firefly::time::Nanos,
}

fn seeded_run(seed: u64) -> RunRecord {
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        server_panic_every: 7,
        forge_binding_every: 11,
        dispatch_delay_us: 5,
        ..FaultConfig::with_seed(seed)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));
    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Chaos",
        RecoveryConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                trip_after: 3,
                cooldown_rejects: 2,
            },
            jitter_seed: seed,
            ..RecoveryConfig::default()
        },
    )
    .unwrap();
    let trace = TraceModel::taos().generate(9, 300);
    let (ok, err) = replay(&client, &trace);
    let events = plan.events().iter().map(|e| e.to_string()).collect();
    assert_no_leaks(&rt, &server, &client.binding());
    RunRecord {
        digest: plan.digest(),
        events,
        errors: client.error_log(),
        ok,
        err,
        vtime: rt.kernel().machine().cpu(0).now(),
    }
}

#[test]
fn same_seed_reproduces_faults_and_errors_bit_for_bit() {
    let a = seeded_run(1234);
    let b = seeded_run(1234);
    assert_eq!(a.events, b.events, "fault event logs must match");
    assert_eq!(a.digest, b.digest, "fault digests must match");
    assert_eq!(
        a.errors, b.errors,
        "client-observed error sequences must match"
    );
    assert_eq!((a.ok, a.err), (b.ok, b.err), "outcome counts must match");
    assert_eq!(
        a.vtime, b.vtime,
        "virtual clocks must agree to the nanosecond"
    );
    assert!(a.err > 0, "the schedule injected visible failures");

    // The every-Nth knobs are counter-based, so the *schedule* is the
    // same under any seed; the seed flows into the retry jitter, which a
    // different seed perturbs down to the virtual clock.
    let c = seeded_run(99);
    assert_eq!(a.events, c.events, "counter-based schedules are seed-free");
    assert_ne!(a.vtime, c.vtime, "a different seed draws different jitter");
}

#[test]
fn panic_faults_surface_as_server_faults_and_leak_nothing() {
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        server_panic_every: 5,
        ..FaultConfig::with_seed(1)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "Chaos").unwrap();
    let (mut ok, mut faults) = (0, 0);
    for i in 0..20 {
        match binding.call(0, &thread, "Put", &[Value::Int32(i)]) {
            Ok(out) => {
                assert_eq!(out.ret, Some(Value::Int32(i * 2)));
                ok += 1;
            }
            Err(CallError::ServerFault(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected fault: {msg}");
                faults += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((ok, faults), (16, 4), "every 5th dispatch panicked");
    assert_eq!(
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::ServerPanic)
            .count(),
        4
    );
    assert_no_leaks(&rt, &server, &binding);
}

#[test]
fn mid_call_termination_fails_every_client_without_leaks() {
    // The tentpole scenario: the server's domain dies from *inside* its
    // Nth dispatch while other clients are mid-call. Every client must
    // observe a clean failure (never a hang), and afterwards nothing may
    // leak.
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        terminate_server_after: 40,
        ..FaultConfig::with_seed(3)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));

    let clients: Vec<_> = (0..4)
        .map(|i| rt.kernel().create_domain(format!("app-{i}")))
        .collect();
    let bindings: Vec<_> = clients
        .iter()
        .map(|c| Arc::new(rt.import(c, "Chaos").unwrap()))
        .collect();

    std::thread::scope(|s| {
        for (client, binding) in clients.iter().zip(&bindings) {
            let rt = Arc::clone(&rt);
            let binding = Arc::clone(binding);
            s.spawn(move || {
                let thread = rt.kernel().spawn_thread(client);
                let (mut ok, mut failed) = (0u32, 0u32);
                for i in 0..50 {
                    match binding.call_indexed(0, &thread, 0, &[Value::Int32(i)]) {
                        Ok(_) => ok += 1,
                        // Stub faults happen when termination unmaps the
                        // pairwise A-stack region under a stub that
                        // already passed validation — still a clean,
                        // resource-releasing failure.
                        Err(
                            CallError::CallFailed
                            | CallError::CallAborted
                            | CallError::BindingRevoked
                            | CallError::InvalidBinding(_)
                            | CallError::DomainDead
                            | CallError::Stub(_),
                        ) => failed += 1,
                        Err(other) => panic!("unexpected error under termination: {other}"),
                    }
                }
                assert_eq!(ok + failed, 50, "every call completed, none hung");
                assert!(failed > 0, "termination was observed");
                assert_eq!(thread.call_depth(), 0);
            });
        }
    });

    assert_eq!(
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::ServerTerminated)
            .count(),
        1,
        "the domain is terminated exactly once"
    );
    for binding in &bindings {
        assert_no_leaks(&rt, &server, binding);
        // Revocation sticks: no further calls cross the boundary.
        let thread = rt.kernel().spawn_thread(&clients[0]);
        assert!(matches!(
            binding.call_indexed(0, &thread, 0, &[Value::Int32(0)]),
            Err(CallError::BindingRevoked | CallError::InvalidBinding(_))
        ));
    }
}

#[test]
fn hung_server_calls_abort_on_deadline_and_drain_cleanly() {
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        server_hang_every: 5,
        ..FaultConfig::with_seed(8)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));
    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Chaos",
        RecoveryConfig {
            deadline: Some(Duration::from_millis(100)),
            retry: RetryPolicy::none(),
            // Hangs abort in bursts; keep the breaker out of the way so
            // the test isolates the watchdog.
            breaker: BreakerConfig {
                trip_after: u32::MAX,
                cooldown_rejects: 0,
            },
            ..RecoveryConfig::default()
        },
    )
    .unwrap();

    let (mut ok, mut aborted) = (0, 0);
    for i in 0..10 {
        match client.call("Put", &[Value::Int32(i)]) {
            Ok(out) => {
                assert_eq!(out.ret, Some(Value::Int32(i * 2)));
                ok += 1;
            }
            Err(CallError::CallAborted) => aborted += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((ok, aborted), (8, 2), "dispatches 5 and 10 hung");
    assert_eq!(client.aborted_calls(), 2);

    // Release the hung servers; the captured (abandoned) threads are
    // destroyed on release and the stuck workers come home.
    plan.release_hangs();
    assert_eq!(client.drain(), 2, "both abandoned workers joined");
    assert_no_leaks(&rt, &server, &client.binding());

    // The replacement thread keeps working.
    let out = client.call("Put", &[Value::Int32(21)]).unwrap();
    assert_eq!(out.ret, Some(Value::Int32(42)));
}

#[test]
fn forged_binding_objects_are_rejected_by_the_kernel() {
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        forge_binding_every: 3,
        ..FaultConfig::with_seed(5)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "Chaos").unwrap();
    let (mut ok, mut rejected) = (0, 0);
    for i in 1..=9 {
        match binding.call(0, &thread, "Stat", &[]) {
            Ok(_) => ok += 1,
            Err(CallError::InvalidBinding(_)) => {
                assert_eq!(i % 3, 0, "only every 3rd call presents a forgery");
                rejected += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((ok, rejected), (6, 3));
    assert_eq!(
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::BindingForged)
            .count(),
        3
    );
    // The genuine Binding Object was never corrupted.
    binding.call(0, &thread, "Stat", &[]).unwrap();
    assert_no_leaks(&rt, &server, &binding);
}

#[test]
fn astack_exhaustion_respects_the_configured_policy() {
    // Under Fail, the injected exhaustion surfaces as NoAStacks and the
    // stolen stacks all return to the queue.
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        astack_exhaust: true,
        ..FaultConfig::with_seed(6)
    });
    rt.set_fault_plan(Some(plan));
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "Chaos").unwrap();
    for _ in 0..5 {
        assert!(matches!(
            binding.call(0, &thread, "Stat", &[]),
            Err(CallError::NoAStacks)
        ));
    }
    assert_no_leaks(&rt, &server, &binding);

    // Under Grow, the same injection drives the overflow-allocation path
    // instead: calls succeed on freshly grown A-stacks.
    let (rt, server) = make_runtime(chaos_runtime().astack_policy(AStackPolicy::Grow));
    let plan = FaultPlan::new(FaultConfig {
        astack_exhaust: true,
        ..FaultConfig::with_seed(6)
    });
    rt.set_fault_plan(Some(plan));
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "Chaos").unwrap();
    let before = binding.state().astacks.total_count();
    for _ in 0..3 {
        binding.call(0, &thread, "Stat", &[]).expect("grown call");
    }
    assert!(
        binding.state().astacks.total_count() > before,
        "exhaustion under Grow allocates overflow A-stacks"
    );
    assert_no_leaks(&rt, &server, &binding);
}

#[test]
fn bulk_arena_exhaustion_falls_back_to_per_call_segments_without_leaks() {
    // The injected exhaustion makes every large call miss the bind-time
    // bulk arena and take the slow path: map a fresh pairwise OOB
    // segment, pay `OOB_SEGMENT_COST`, and tear it down on return. Calls
    // must *succeed* throughout (degraded, never broken), and the
    // region table must end exactly where it started — a fallback that
    // leaked its per-call segment would grow it monotonically.
    let (rt, _chaos_server) = make_runtime(chaos_runtime());
    let bulk_server = rt.kernel().create_domain("bulk-chaos-server");
    rt.export(
        &bulk_server,
        "interface BulkChaos {\n\
         procedure BigIn(data: in var bytes[65536] noninterpreted);\n\
         }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            assert_eq!(data.len(), 8 * 1024, "the payload crossed intact");
            Ok(Reply::none())
        }) as Handler],
    )
    .unwrap();
    let plan = FaultPlan::new(FaultConfig {
        bulk_exhaust: true,
        ..FaultConfig::with_seed(9)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "BulkChaos").unwrap();
    let payload = vec![0x5au8; 8 * 1024];

    // Warm up once so lazily pooled resources (the E-stack) exist before
    // the region table is sampled.
    binding
        .call(0, &thread, "BigIn", &[Value::Var(payload.clone())])
        .expect("warmup");

    let regions_before = rt.kernel().machine().mem().region_count();
    for i in 0..12 {
        binding
            .call(0, &thread, "BigIn", &[Value::Var(payload.clone())])
            .unwrap_or_else(|e| panic!("fallback call {i} must still succeed: {e}"));
    }
    let regions_after = rt.kernel().machine().mem().region_count();

    assert_eq!(
        regions_before, regions_after,
        "every per-call OOB segment was unmapped and freed"
    );
    assert_eq!(
        binding.state().stats.bulk_fallbacks(),
        13,
        "every call (warmup included) took the per-call fallback"
    );
    assert_eq!(
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::BulkArenaExhausted)
            .count(),
        13,
        "each fallback traces back to an injected exhaustion event"
    );
    assert_no_leaks(&rt, &bulk_server, &binding);

    // Lifting the fault returns calls to the arena: the fallback counter
    // stops moving.
    rt.set_fault_plan(None);
    binding
        .call(0, &thread, "BigIn", &[Value::Var(payload)])
        .expect("arena call after recovery");
    assert_eq!(binding.state().stats.bulk_fallbacks(), 13);
    assert_no_leaks(&rt, &bulk_server, &binding);
}

#[test]
fn packet_faults_on_the_remote_path_are_deterministic() {
    let run = || {
        let client_machine = chaos_runtime().cpus(2).build();
        let server_machine = chaos_runtime().build();
        let net = msgrpc::Internet::new();
        net.attach("a", Arc::clone(&client_machine));
        net.attach("b", Arc::clone(&server_machine));
        let sd = server_machine.kernel().create_domain("svc");
        server_machine
            .export(&sd, CHAOS_IDL, chaos_handlers())
            .unwrap();
        client_machine.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);

        let plan = FaultPlan::new(FaultConfig {
            packet_loss: 0.3,
            packet_dup: 0.1,
            packet_delay_prob: 0.2,
            packet_delay_us: 100,
            ..FaultConfig::with_seed(0xBEEF)
        });
        net.set_fault_plan(Some(Arc::clone(&plan)));

        let app = client_machine.kernel().create_domain("app");
        let thread = client_machine.kernel().spawn_thread(&app);
        let binding = client_machine.import_remote(&app, "Chaos").unwrap();
        let mut outcomes = Vec::new();
        for i in 0..100 {
            match binding.call_indexed(0, &thread, 0, &[Value::Int32(i)]) {
                Ok(out) => outcomes.push(format!("ok:{:?}", out.ret)),
                Err(e) => outcomes.push(format!("err:{e}")),
            }
        }
        (plan.digest(), outcomes, plan.events())
    };
    let (d1, o1, e1) = run();
    let (d2, o2, _) = run();
    assert_eq!(d1, d2, "packet schedules must be bit-reproducible");
    assert_eq!(o1, o2, "client-observed outcomes must match");
    assert!(
        o1.iter().any(|o| o.starts_with("err:network failure")),
        "some packets were lost for good"
    );
    assert!(
        o1.iter().any(|o| o.starts_with("ok:")),
        "most packets got through"
    );
    assert!(e1
        .iter()
        .any(|e| matches!(e.kind, FaultKind::PacketRetransmitted { .. })));
    assert!(e1.iter().any(|e| e.kind == FaultKind::PacketLost));
}

#[test]
fn circuit_breaker_trips_and_recovers_through_reimport() {
    let (rt, server) = make_runtime(chaos_runtime());
    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Chaos",
        RecoveryConfig {
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_rejects: 2,
            },
            ..RecoveryConfig::default()
        },
    )
    .unwrap();
    client.call("Stat", &[]).expect("healthy call");
    assert_eq!(client.breaker_state(), BreakerState::Closed);

    // The server dies; consecutive revocation failures trip the breaker.
    // (Depending on how far teardown has progressed the kernel reports
    // either a revoked or an already-destroyed Binding Object; both
    // count.)
    rt.terminate_domain(&server);
    for _ in 0..2 {
        assert!(matches!(
            client.call("Stat", &[]),
            Err(CallError::BindingRevoked | CallError::InvalidBinding(_))
        ));
    }
    assert_eq!(client.breaker_state(), BreakerState::Open);
    // While open, calls are rejected without touching the binding.
    for _ in 0..2 {
        assert!(matches!(
            client.call("Stat", &[]),
            Err(CallError::CircuitOpen)
        ));
    }

    // The server restarts under a fresh domain and re-exports; the
    // half-open probe re-imports through the name server and recovers.
    let reborn = rt.kernel().create_domain("chaos-server-2");
    rt.export(&reborn, CHAOS_IDL, chaos_handlers()).unwrap();
    let out = client.call("Stat", &[]).expect("half-open probe");
    assert_eq!(out.ret, Some(Value::Int32(7)));
    assert_eq!(client.breaker_state(), BreakerState::Closed);
    assert_no_leaks(&rt, &reborn, &client.binding());
}

#[test]
fn client_degrades_to_the_remote_transport_when_local_server_dies() {
    let (rt, server) = make_runtime(chaos_runtime());
    let backup_machine = chaos_runtime().build();
    let net = msgrpc::Internet::new();
    net.attach("local", Arc::clone(&rt));
    net.attach("backup", Arc::clone(&backup_machine));
    let bd = backup_machine.kernel().create_domain("chaos-backup");
    backup_machine
        .export(&bd, CHAOS_IDL, chaos_handlers())
        .unwrap();
    rt.set_remote_transport(Arc::clone(&net) as Arc<dyn lrpc::RemoteTransport>);

    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Chaos",
        RecoveryConfig {
            retry: RetryPolicy::none(),
            fallback_remote: true,
            ..RecoveryConfig::default()
        },
    )
    .unwrap();
    client.call("Get", &[Value::Int32(1)]).expect("local call");
    assert!(!client.is_degraded());

    // Local server dies; the very next call falls through to the
    // conventional-RPC path of Section 5.1 and still succeeds.
    rt.terminate_domain(&server);
    let out = client.call("Get", &[Value::Int32(20)]).expect("degraded");
    assert_eq!(out.ret, Some(Value::Int32(21)));
    assert!(client.is_degraded());
    assert!(
        client
            .error_log()
            .iter()
            .any(|e| e.contains("revoked") || e.contains("invalid binding")),
        "the failure that triggered degradation is logged: {:?}",
        client.error_log()
    );
    // Degraded calls keep flowing.
    let out = client.call("Stat", &[]).expect("degraded follow-up");
    assert_eq!(out.ret, Some(Value::Int32(7)));
    assert_eq!(rt.kernel().snapshot().threads_in_calls, 0);
}

#[test]
fn idempotent_retry_recovers_from_transient_server_faults() {
    let (rt, server) = make_runtime(chaos_runtime());
    let plan = FaultPlan::new(FaultConfig {
        server_panic_every: 2,
        ..FaultConfig::with_seed(2)
    });
    rt.set_fault_plan(Some(plan));
    let app = rt.kernel().create_domain("app");
    let client = ResilientClient::import(
        &rt,
        &app,
        "Chaos",
        RecoveryConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            jitter_seed: 77,
            ..RecoveryConfig::default()
        },
    )
    .unwrap();

    // Every 2nd dispatch panics. `Get` is idempotent: each faulted
    // attempt is retried (the retry's dispatch is odd, so it succeeds) —
    // the caller never sees the fault.
    for i in 0..10 {
        let out = client.call("Get", &[Value::Int32(i)]).expect("retried");
        assert_eq!(out.ret, Some(Value::Int32(i + 1)));
    }
    // `Put` is not idempotent: the same fault schedule surfaces.
    let mut faults = 0;
    for i in 0..10 {
        if let Err(e) = client.call("Put", &[Value::Int32(i)]) {
            assert!(matches!(e, CallError::ServerFault(_)), "got {e}");
            faults += 1;
        }
    }
    assert!(faults > 0, "non-idempotent calls must not be retried");
    let log = client.error_log();
    assert!(
        log.iter()
            .all(|l| !l.starts_with("Put:") || l.contains("server fault")),
        "every Put failure is the injected server fault: {log:?}"
    );
    assert!(
        log.iter().any(|l| l.starts_with("Get:")),
        "Get faults were observed (then retried): {log:?}"
    );
    assert_no_leaks(&rt, &server, &client.binding());
}
