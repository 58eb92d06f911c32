//! The uncommon cases (Section 5), end-to-end: large out-of-band
//! arguments, complex marshaled types, conformance attacks, multiple
//! clients, and E-stack behaviour under churn.

use std::sync::Arc;

use idl::wire::{TreeVal, Value};
use lrpc::{CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};

fn runtime(n_cpus: usize) -> Arc<LrpcRuntime> {
    TestRuntime::new()
        .cpus(n_cpus)
        .domain_caching(false)
        .build()
}

#[test]
fn oversized_arguments_travel_out_of_band() {
    // "In cases where the arguments are too large to fit into the A-stack,
    // the stubs transfer data in a large out-of-band memory segment.
    // Handling unexpectedly large parameters is complicated and relatively
    // expensive, but infrequent."
    let rt = runtime(1);
    let server = rt.kernel().create_domain("blob-server");
    rt.export(
        &server,
        "interface Blob { procedure Sum(data: in var bytes[8192]) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(
                data.iter().map(|&b| b as i32).sum(),
            )))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Blob").unwrap();

    // The 8 KiB maximum exceeds the Ethernet-sized A-stack, so the slot is
    // an out-of-band descriptor.
    let proc = &binding.interface().procs[0];
    assert!(proc.layout.uses_out_of_band);

    let payload = vec![1u8; 5000];
    let out = binding
        .call(0, &thread, "Sum", &[Value::Var(payload)])
        .unwrap();
    assert_eq!(out.ret, Some(Value::Int32(5000)));

    // The out-of-band path is "relatively expensive": it runs on the
    // marshaling cost scale. A small inline call is far cheaper.
    let small = binding
        .call(0, &thread, "Sum", &[Value::Var(vec![1u8; 4])])
        .unwrap();
    assert_eq!(small.ret, Some(Value::Int32(4)));
    assert!(
        out.elapsed > small.elapsed,
        "{} vs {}",
        out.elapsed,
        small.elapsed
    );
}

#[test]
fn recursive_types_marshal_through_the_library_path() {
    // "Calls having complex or heavyweight parameters — linked lists or
    // data that must be made known to the garbage collector — are handled
    // with Modula2+ marshaling code."
    let rt = runtime(1);
    let server = rt.kernel().create_domain("tree-server");
    rt.export(
        &server,
        "interface Trees { procedure CountNodes(t: tree) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Tree(t) = &args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(t.node_count() as i32)))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Trees").unwrap();

    // The compile-time shift: this procedure got Modula2+ stubs.
    assert_eq!(
        binding.interface().procs[0].lang,
        idl::StubLang::Modula2Plus
    );

    let tree = TreeVal::Node(
        Box::new(TreeVal::Node(
            Box::new(TreeVal::Leaf),
            1,
            Box::new(TreeVal::Leaf),
        )),
        2,
        Box::new(TreeVal::Node(
            Box::new(TreeVal::Leaf),
            3,
            Box::new(TreeVal::Node(
                Box::new(TreeVal::Leaf),
                4,
                Box::new(TreeVal::Leaf),
            )),
        )),
    );
    let out = binding
        .call(0, &thread, "CountNodes", &[Value::Tree(tree)])
        .unwrap();
    assert_eq!(out.ret, Some(Value::Int32(4)));
    // Marshaling time shows up in the meter.
    assert!(out.meter.total_for(firefly::meter::Phase::Marshal) > firefly::Nanos::ZERO);
}

#[test]
fn cardinal_conformance_attack_is_stopped_at_the_server_copy() {
    // "A client could crash a server by passing it an unwanted negative
    // value. To protect itself, the server must check type-sensitive
    // values for conformancy before using them."
    let rt = runtime(1);
    let server = rt.kernel().create_domain("picky");
    rt.export(
        &server,
        "interface Picky { procedure Take(n: cardinal) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            // The handler would crash on a negative value; the checked
            // copy must have stopped it before we get here.
            let Value::Cardinal(n) = args[0] else {
                unreachable!()
            };
            assert!(n >= 0, "the stub let a non-conforming CARDINAL through");
            Ok(Reply::value(Value::Int32(n as i32)))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("attacker");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Picky").unwrap();

    let err = binding
        .call(0, &thread, "Take", &[Value::Cardinal(-1)])
        .unwrap_err();
    assert!(matches!(err, CallError::Stub(_)), "got {err}");
    // The attack leaves the binding usable and the linkage unwound.
    assert_eq!(thread.call_depth(), 0);
    let ok = binding
        .call(0, &thread, "Take", &[Value::Cardinal(5)])
        .unwrap();
    assert_eq!(ok.ret, Some(Value::Int32(5)));
}

#[test]
fn each_client_gets_its_own_pairwise_astacks() {
    let rt = runtime(1);
    let server = rt.kernel().create_domain("shared");
    rt.export(
        &server,
        "interface S { procedure P() -> int32; }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(1)))) as Handler],
    )
    .unwrap();

    let alice = rt.kernel().create_domain("alice");
    let bob = rt.kernel().create_domain("bob");
    let ba = rt.import(&alice, "S").unwrap();
    let bb = rt.import(&bob, "S").unwrap();

    // Distinct pairwise channels: Alice cannot touch Bob's A-stacks.
    let alice_region = ba.state().astacks.primary_region();
    let bob_region = bb.state().astacks.primary_region();
    assert_ne!(alice_region.id(), bob_region.id());
    assert!(bob.ctx().check(alice_region.id(), false, false).is_err());
    assert!(alice.ctx().check(bob_region.id(), false, false).is_err());

    // Both work, interleaved.
    let ta = rt.kernel().spawn_thread(&alice);
    let tb = rt.kernel().spawn_thread(&bob);
    for _ in 0..5 {
        assert_eq!(
            ba.call(0, &ta, "P", &[]).unwrap().ret,
            Some(Value::Int32(1))
        );
        assert_eq!(
            bb.call(0, &tb, "P", &[]).unwrap().ret,
            Some(Value::Int32(1))
        );
    }
}

#[test]
fn lifo_astacks_keep_the_estack_association_warm() {
    // A-stacks are LIFO managed precisely so the A-stack/E-stack
    // association keeps getting reused.
    let rt = runtime(1);
    let server = rt.kernel().create_domain("warm");
    rt.export(
        &server,
        "interface W { procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "W").unwrap();
    for _ in 0..100 {
        binding.call(0, &thread, "P", &[]).unwrap();
    }
    let stats = rt.estack_pool(&server).stats();
    assert_eq!(stats.allocations, 1, "one E-stack serves all serial calls");
    assert_eq!(stats.lazy_hits, 99);
    assert_eq!(stats.reclamations, 0);
}

#[test]
fn import_of_unexported_interface_times_out() {
    let rt = TestRuntime::new()
        .machine(firefly::cpu::Machine::cvax_uniprocessor())
        .import_timeout(std::time::Duration::from_millis(20))
        .build();
    let client = rt.kernel().create_domain("c");
    let err = rt.import(&client, "Ghost").map(|_| ()).unwrap_err();
    assert!(matches!(err, CallError::ImportTimeout { .. }));
}

#[test]
fn late_export_wakes_a_waiting_importer() {
    // "The importer waits while the kernel notifies the server's waiting
    // clerk."
    let rt = TestRuntime::new().cpus(2).build();
    let client = rt.kernel().create_domain("early-bird");
    let importer = {
        let rt = Arc::clone(&rt);
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            rt.import(&client, "LateSvc")
                .map(|b| b.interface().name.clone())
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    let server = rt.kernel().create_domain("late-server");
    rt.export(
        &server,
        "interface LateSvc { procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    assert_eq!(importer.join().unwrap().unwrap(), "LateSvc");
}

#[test]
fn runtime_prodding_turns_misses_into_exchanges() {
    let rt = TestRuntime::new().cpus(4).build();
    let server = rt.kernel().create_domain("hot");
    rt.export(
        &server,
        "interface H { procedure P(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "H").unwrap();

    // A few calls with no idle CPU parked anywhere: all misses.
    for _ in 0..4 {
        let out = binding.call(0, &thread, "P", &[]).unwrap();
        assert!(!out.exchanged_on_call);
    }
    assert!(server.idle_misses() >= 4);

    // Two CPUs go idle; the runtime prods them toward the busy domains.
    rt.kernel()
        .machine()
        .cpu(2)
        .set_idle_in(Some(firefly::vm::ContextId::KERNEL));
    rt.kernel()
        .machine()
        .cpu(3)
        .set_idle_in(Some(firefly::vm::ContextId::KERNEL));
    let assigned = rt.rebalance_idle_processors();
    assert!(
        assigned >= 1,
        "at least one idle CPU parked in a hot domain"
    );

    // Now calls exchange instead of switching.
    let out = binding.call(0, &thread, "P", &[]).unwrap();
    assert!(
        out.exchanged_on_call,
        "the prodded CPU is claimed at call time"
    );
    let hits = binding.state().stats.cache_hits().expect("local binding");
    assert!(hits.get() >= 1, "the exchange counts as a domain-cache hit");
}

#[test]
fn estacks_are_primed_and_the_user_sp_tracks_the_call() {
    // "The kernel primes E-stacks with the initial call frame expected by
    // the server's procedure" and "updates the thread's user stack pointer
    // to run off of the new E-stack".
    let rt = runtime(1);
    let server = rt.kernel().create_domain("s");
    rt.export(
        &server,
        "interface E { procedure P(); }",
        vec![Box::new(|ctx: &ServerCtx, _: &[Value]| {
            // While the procedure runs, the thread's SP points into an
            // E-stack, not at the caller's stack (0 for a fresh thread).
            assert_ne!(ctx.thread.user_sp(), 0, "SP must run off the E-stack");
            Ok(Reply::none())
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "E").unwrap();
    assert_eq!(thread.user_sp(), 0);
    binding.call(0, &thread, "P", &[]).unwrap();
    assert_eq!(thread.user_sp(), 0, "the caller's SP is restored on return");

    // The primed call frame is in the E-stack region. The pool keys
    // associations by the A-stack's global identity.
    let aref = binding.state().astacks.lookup(0).unwrap();
    let key = (aref.region.id().0 << 24) | aref.index as u64;
    let pool = rt.estack_pool(&server);
    let (estack, fresh) = pool.get_for_call(rt.kernel(), key);
    assert!(!fresh, "the call's association persists");
    let header = estack.read_vec(0, 16).unwrap();
    assert_eq!(&header[8..], &0xF1FE_F1FE_CA11_F4A3u64.to_le_bytes());
}

#[test]
fn globally_shared_astacks_trade_safety_not_performance() {
    // Section 3.5's Firefly caveat, as an ablation: global mapping has
    // identical latency but a third party can read the channel.
    use lrpc::AStackMapping;
    let mk = |mapping: AStackMapping| {
        let rt = TestRuntime::new()
            .domain_caching(false)
            .astack_mapping(mapping)
            .build();
        let server = rt.kernel().create_domain("s");
        rt.export(
            &server,
            "interface G { procedure P(); }",
            vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
        )
        .unwrap();
        // The snoop exists before binding, so the global mode maps the
        // A-stacks into it.
        let snoop = rt.kernel().create_domain("snoop");
        let client = rt.kernel().create_domain("c");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "G").unwrap();
        binding.call(0, &thread, "P", &[]).unwrap();
        let elapsed = binding.call(0, &thread, "P", &[]).unwrap().elapsed;
        let readable = snoop
            .ctx()
            .check(binding.state().astacks.primary_region().id(), false, false)
            .is_ok();
        (elapsed, readable)
    };
    let (pairwise_time, pairwise_readable) = mk(AStackMapping::Pairwise);
    let (global_time, global_readable) = mk(AStackMapping::GloballyShared);
    assert_eq!(pairwise_time, global_time, "identical performance");
    assert!(!pairwise_readable, "pairwise: third parties fault");
    assert!(global_readable, "globally shared: the channel is exposed");
}

#[test]
fn panicking_server_procedure_is_isolated() {
    // Failure isolation: a crashing server procedure surfaces as a
    // call-level exception in the client, never as a client crash, and
    // every call resource unwinds.
    let rt = runtime(1);
    let server = rt.kernel().create_domain("buggy");
    rt.export(
        &server,
        "interface B { procedure Crash(); procedure Fine() -> int32; }",
        vec![
            Box::new(|_: &ServerCtx, _: &[Value]| -> Result<Reply, CallError> {
                panic!("server bug: index out of range")
            }) as Handler,
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(1)))) as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "B").unwrap();

    for _ in 0..8 {
        let err = binding.call(0, &thread, "Crash", &[]).unwrap_err();
        let CallError::ServerFault(msg) = err else {
            panic!("expected ServerFault")
        };
        assert!(msg.contains("server bug"), "{msg}");
        assert_eq!(thread.call_depth(), 0, "linkage unwound after the fault");
    }
    // The server as a whole remains usable (the paper's Taos would only
    // terminate the domain on an *unhandled* exception escalation).
    let ok = binding.call(0, &thread, "Fine", &[]).unwrap();
    assert_eq!(ok.ret, Some(Value::Int32(1)));
}

#[test]
fn oob_segments_are_mapped_and_reclaimed_per_call() {
    // The out-of-band segment is a real pairwise-mapped region that lives
    // exactly as long as the call.
    let rt = runtime(1);
    let server = rt.kernel().create_domain("blob");
    rt.export(
        &server,
        "interface O { procedure Len(data: in var bytes[8192]) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(v) = &args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(v.len() as i32)))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "O").unwrap();

    // Warm up once so the E-stack (which persists by design) exists.
    binding
        .call(0, &thread, "Len", &[Value::Var(vec![3u8; 4000])])
        .unwrap();
    let before = rt.kernel().machine().mem().region_count();
    for _ in 0..5 {
        let out = binding
            .call(0, &thread, "Len", &[Value::Var(vec![3u8; 4000])])
            .unwrap();
        assert_eq!(out.ret, Some(Value::Int32(4000)));
        assert_eq!(
            rt.kernel().machine().mem().region_count(),
            before,
            "the per-call out-of-band segment is freed on return"
        );
    }
    // Inline calls never allocate a segment.
    let small = binding
        .call(0, &thread, "Len", &[Value::Var(vec![3u8; 8])])
        .unwrap();
    assert_eq!(small.ret, Some(Value::Int32(8)));
    assert_eq!(rt.kernel().machine().mem().region_count(), before);
}

#[test]
fn out_of_band_results_get_a_transport_of_their_own() {
    // A procedure with out-of-band results but no out-of-band arguments
    // leases an arena chunk for its results; results that outgrow the
    // chunk (an unbounded type past its estimate) take a per-call segment,
    // charged like the arguments' fallback and reclaimed on return.
    let rt = runtime(1);
    let server = rt.kernel().create_domain("blob");
    rt.export(
        &server,
        "interface R { procedure Make(n: int32) -> gc; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(n) = args[0] else {
                unreachable!()
            };
            Ok(Reply::value(Value::Gc(vec![0x5a; n as usize])))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "R").unwrap();
    let arena = binding
        .state()
        .bulk
        .as_ref()
        .expect("results need an arena");
    let regions = || rt.kernel().machine().mem().region_count();

    let small = binding
        .call(0, &thread, "Make", &[Value::Int32(100)])
        .unwrap();
    assert_eq!(small.ret, Some(Value::Gc(vec![0x5a; 100])));
    assert_eq!(
        small.meter.total_for(firefly::meter::Phase::OobSegment),
        firefly::Nanos::ZERO
    );
    let before = regions();

    let big = 2 * arena.chunk_size();
    let out = binding
        .call(0, &thread, "Make", &[Value::Int32(big as i32)])
        .unwrap();
    assert_eq!(out.ret, Some(Value::Gc(vec![0x5a; big])));
    assert_eq!(
        out.meter.total_for(firefly::meter::Phase::OobSegment),
        lrpc::OOB_SEGMENT_COST
    );
    assert_eq!(binding.state().stats.bulk_fallbacks(), 1);
    assert_eq!(regions(), before, "the per-call segment is freed on return");
    assert_eq!(
        arena.free_count(),
        arena.chunk_count(),
        "every chunk returned"
    );
}

#[test]
fn more_out_of_band_segments_than_the_table_keeps_inline_round_trip() {
    // Five out-of-band values each way: the fifth spills the segment
    // table past its inline entries on both sides of both directions.
    let rt = runtime(1);
    let server = rt.kernel().create_domain("five");
    rt.export(
        &server,
        "interface F { procedure Five(a: inout gc, b: inout gc, c: inout gc, \
         d: inout gc, e: inout gc); }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let mut reply = Reply::none();
            for (i, arg) in args.iter().enumerate() {
                let Value::Gc(data) = arg else { unreachable!() };
                let bumped = data.iter().map(|b| b + 1).collect();
                reply = reply.with_out(i, Value::Gc(bumped));
            }
            Ok(reply)
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("c");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "F").unwrap();
    let args: Vec<Value> = (0..5u8)
        .map(|i| Value::Gc(vec![i; 100 + i as usize]))
        .collect();
    for _ in 0..2 {
        let out = binding.call(0, &thread, "Five", &args).unwrap();
        let want: Vec<(usize, Value)> = (0..5u8)
            .map(|i| (i as usize, Value::Gc(vec![i + 1; 100 + i as usize])))
            .collect();
        assert_eq!(out.outs, want);
    }
    let arena = binding.state().bulk.as_ref().expect("an arena");
    assert_eq!(arena.free_count(), arena.chunk_count());
    assert_eq!(binding.state().stats.bulk_fallbacks(), 0);
}
