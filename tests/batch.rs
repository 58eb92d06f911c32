//! Batched call plane: chaos degradation, the serial/batch differential,
//! and the batch metrics surface.
//!
//! The submission/completion ring amortizes the per-call trap, but it
//! must change *nothing else*: a `call_batch` of N mixed procedures has
//! to produce byte-identical results and identical per-call virtual
//! phase charges to N serial `call`s — minus exactly the amortized
//! crossing phases (traps, kernel transfers, context switches), which
//! move to the batch-shared meter. And under ring faults (submission
//! ring presented as full, doorbells lost in the kernel) batched callers
//! must degrade gracefully to single-call traps without leaking ring
//! slots, A-stacks or E-stacks.

use std::sync::Arc;
use std::time::Duration;

use firefly::fault::{FaultConfig, FaultKind, FaultPlan};
use firefly::meter::Phase;
use firefly::time::Nanos;
use idl::wire::Value;
use kernel::Domain;
use lrpc::{
    AStackPolicy, BatchOutcome, Binding, CallOutcome, Handler, LrpcRuntime, Reply, ServerCtx,
    TestRuntime,
};
use proptest::prelude::*;
use replay::{kind, Session};

const BATCH_IDL: &str = r#"
    interface Batch {
        [astacks = 8] procedure Add(a: int32, b: int32) -> int32;
        [astacks = 8] procedure Read(h: int32, buf: out bytes[8]) -> int32;
        [astacks = 8] procedure Store(data: in var bytes[64] noninterpreted) -> int32;
        [astacks = 8] procedure Echo(data: inout var bytes[4096]) -> int32;
    }
"#;

fn batch_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(h) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(h)).with_out(1, Value::Bytes(vec![h as u8; 8])))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(v) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(v.len() as i32)))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(v) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(v.len() as i32)).with_out(0, Value::Var(v.clone())))
        }) as Handler,
    ]
}

fn make_env() -> (
    Arc<LrpcRuntime>,
    Arc<Domain>,
    Binding,
    Arc<kernel::thread::Thread>,
) {
    make_env_with(AStackPolicy::Fail)
}

fn make_env_with(
    astack_policy: AStackPolicy,
) -> (
    Arc<LrpcRuntime>,
    Arc<Domain>,
    Binding,
    Arc<kernel::thread::Thread>,
) {
    make_env_in(astack_policy, Session::live())
}

/// [`make_env_with`] under a record/replay session.
fn make_env_in(
    astack_policy: AStackPolicy,
    session: Arc<Session>,
) -> (
    Arc<LrpcRuntime>,
    Arc<Domain>,
    Binding,
    Arc<kernel::thread::Thread>,
) {
    let rt = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(astack_policy)
        .import_timeout(Duration::from_millis(50))
        .session(session)
        .build();
    let server = rt.kernel().create_domain("batch-server");
    rt.export(&server, BATCH_IDL, batch_handlers())
        .expect("export");
    let app = rt.kernel().create_domain("app");
    let thread = rt.kernel().spawn_thread(&app);
    let binding = rt.import(&app, "Batch").unwrap();
    (rt, server, binding, thread)
}

/// One request in both the serial and batched shape. `Echo` payloads
/// (64 B to 4 KB) are demoted out of band through the bulk arena; the
/// others stay on the A-stack.
fn request(choice: u8, x: i32) -> (usize, Vec<Value>) {
    match choice % 4 {
        0 => (0, vec![Value::Int32(x), Value::Int32(100)]),
        1 => (1, vec![Value::Int32(x & 0x7f), Value::Bytes(vec![0; 8])]),
        2 => (
            2,
            vec![Value::Var(vec![
                x as u8;
                (x.unsigned_abs() as usize % 64).max(1)
            ])],
        ),
        _ => (
            3,
            vec![Value::Var(vec![x as u8; 64 << (x.unsigned_abs() % 7)])],
        ),
    }
}

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
    assert_eq!(pool.busy_count(), 0, "E-stack left associated with a call");
    let snap = rt.collect_metrics();
    let busy = snap.gauge(&format!("lrpc_estacks_busy:{}", server.name()));
    assert_eq!(busy, Some(0), "gauge reports an E-stack leak");
    assert_eq!(
        rt.kernel().snapshot().threads_in_calls,
        0,
        "no thread may remain inside an LRPC"
    );
    let ring = binding
        .state()
        .ring
        .as_ref()
        .expect("local binding has a ring");
    assert_eq!(ring.occupancy_now(), 0, "ring slot leaked");
    let occupancy = format!("lrpc_ring_occupancy:{}", binding.state().interface.name);
    assert_eq!(snap.gauge(&occupancy), Some(0), "gauge reports a ring leak");
}

#[test]
fn batched_callers_degrade_gracefully_under_ring_faults() {
    let (rt, server, binding, thread) = make_env();
    let plan = FaultPlan::new(FaultConfig {
        ring_full_every: 3,
        doorbell_lost_every: 2,
        ..FaultConfig::with_seed(0xD00B)
    });
    rt.set_fault_plan(Some(Arc::clone(&plan)));

    let doorbells_before = rt
        .collect_metrics()
        .counter("lrpc_doorbells_total")
        .unwrap_or(0);

    let requests: Vec<(usize, Vec<Value>)> = (0..18).map(|i| request(i as u8, i)).collect();
    let expected: Vec<(usize, Vec<Value>)> = requests.clone();
    let out = binding.call_batch(0, &thread, requests).unwrap();

    // Every call still succeeds — degraded, never broken — and results
    // are exactly what the serial path would produce.
    assert_eq!(out.results.len(), 18);
    for (i, (r, (proc, args))) in out.results.iter().zip(&expected).enumerate() {
        let o = r
            .as_ref()
            .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        let expect = match proc {
            0 => {
                let Value::Int32(x) = args[0] else {
                    unreachable!()
                };
                x + 100
            }
            1 => {
                let Value::Int32(h) = args[0] else {
                    unreachable!()
                };
                h
            }
            _ => {
                let Value::Var(v) = &args[0] else {
                    unreachable!()
                };
                v.len() as i32
            }
        };
        assert_eq!(o.ret, Some(Value::Int32(expect)), "call {i}");
    }

    // Every 3rd enqueue found the ring "full" and degraded to a serial
    // single-call trap.
    assert_eq!(out.degraded, 6, "every 3rd call degraded");
    assert_eq!(
        plan.events()
            .iter()
            .filter(|e| e.kind == FaultKind::RingFull)
            .count(),
        6
    );
    // Lost doorbells were re-rung (extra trap), never dropped.
    let lost = plan
        .events()
        .iter()
        .filter(|e| e.kind == FaultKind::DoorbellLost)
        .count();
    assert!(lost > 0, "the schedule lost at least one doorbell");
    // Each flush pays its doorbell traps (two when one was lost) plus one
    // return trap: doorbells < traps <= 2 * doorbells.
    assert!(
        out.traps > out.doorbells && out.traps <= 2 * out.doorbells,
        "trap/doorbell accounting off: {} traps, {} doorbells",
        out.traps,
        out.doorbells
    );
    // Amortization still wins over 2 traps per call, even with the
    // degraded calls' serial trap pairs added back in.
    assert!(
        out.traps + 2 * out.degraded < 2 * 18,
        "batching under faults must still trap less than serial"
    );

    // The exported counter tracked the trapped doorbells exactly.
    let doorbells_after = rt
        .collect_metrics()
        .counter("lrpc_doorbells_total")
        .unwrap();
    assert_eq!(doorbells_after - doorbells_before, out.doorbells);

    assert_no_leaks(&rt, &server, &binding);

    // With the plan lifted, batching returns to one doorbell per flush.
    rt.set_fault_plan(None);
    let clean = binding
        .call_batch(0, &thread, (0..6).map(|i| request(0, i)).collect())
        .unwrap();
    assert_eq!(clean.degraded, 0);
    assert_eq!(clean.doorbells, 1);
    assert_eq!(clean.traps, 2);
    assert_no_leaks(&rt, &server, &binding);
}

#[test]
fn batch_holding_its_own_astacks_flushes_instead_of_waiting() {
    // 20 Adds over 8 A-stacks: the ninth enqueue finds the class empty
    // while the batch's own pending calls hold every stack. Waiting would
    // block on those stacks until the timeout; the batch flushes instead.
    let (rt, server, binding, thread) = make_env_with(AStackPolicy::Wait(Duration::from_secs(10)));
    let started = std::time::Instant::now();
    let out = binding
        .call_batch(0, &thread, (0..20).map(|i| request(0, i)).collect())
        .unwrap();
    let wall = started.elapsed();
    assert!(
        wall < Duration::from_secs(2),
        "the batch waited on its own A-stacks ({wall:?})"
    );
    for (i, r) in out.results.iter().enumerate() {
        let o = r
            .as_ref()
            .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        assert_eq!(o.ret, Some(Value::Int32(i as i32 + 100)), "call {i}");
    }
    assert!(
        out.doorbells >= 2,
        "freeing its own stacks takes a flush, got {} doorbells",
        out.doorbells
    );
    assert_no_leaks(&rt, &server, &binding);
}

#[test]
fn batch_metrics_reach_the_json_export() {
    let (rt, _server, binding, thread) = make_env();
    binding
        .call_batch(0, &thread, (0..4).map(|i| request(0, i)).collect())
        .unwrap();
    let snap = rt.collect_metrics();
    assert!(
        snap.counter("lrpc_doorbells_total").unwrap() >= 1,
        "doorbell counter must count the batch's trap"
    );
    assert!(
        snap.get("lrpc_ring_occupancy:Batch").is_some(),
        "per-interface occupancy gauge registered"
    );
    let sizes = snap
        .histogram("lrpc_batch_size:Batch")
        .expect("per-interface batch-size histogram registered");
    assert_eq!((sizes.count, sizes.sum), (1, 4), "one batch of four calls");
    let json = obs::metrics_to_json(&snap);
    assert!(json.contains("\"lrpc_doorbells_total\":"), "{json}");
    assert!(json.contains("\"lrpc_ring_occupancy:Batch\":"), "{json}");
    assert!(
        json.contains("\"lrpc_batch_size:Batch\":{\"count\":1,\"sum\":4,"),
        "{json}"
    );
}

// ---------------------------------------------------------------------
// The serial/batch differential.
// ---------------------------------------------------------------------

/// The crossing phases a batch amortizes onto its shared meter; every
/// other phase must charge identically per call.
const AMORTIZED: [Phase; 4] = [
    Phase::Trap,
    Phase::KernelTransfer,
    Phase::ContextSwitch,
    Phase::ProcessorExchange,
];

fn outcome_key(o: &CallOutcome) -> (Option<Value>, Vec<(usize, Value)>, String) {
    (o.ret.clone(), o.outs.clone(), format!("{:?}", o.copies))
}

/// `requests` made serially in a fresh environment, warmed first so
/// lazily allocated resources (E-stacks, TLB entries, bulk chunks) exist.
fn serial_outcomes(requests: &[(usize, Vec<Value>)]) -> Vec<CallOutcome> {
    let (_rt, _server, binding, thread) = make_env();
    for (proc, args) in requests {
        binding
            .call_indexed(0, &thread, *proc, args)
            .expect("serial warm-up");
    }
    requests
        .iter()
        .map(|(proc, args)| binding.call_indexed(0, &thread, *proc, args).unwrap())
        .collect()
}

/// Runs `requests` serially in one fresh environment and batched in
/// another, both warmed first, and compares.
fn differential(requests: &[(usize, Vec<Value>)]) {
    let serial = serial_outcomes(requests);
    let (_rt_b, _server_b, binding_b, thread_b) = make_env();
    binding_b
        .call_batch(0, &thread_b, requests.to_vec())
        .expect("batch warm-up");
    let batch = binding_b
        .call_batch(0, &thread_b, requests.to_vec())
        .unwrap();
    assert_eq!(batch.degraded, 0);
    assert_matches_serial(&serial, &batch);
}

/// A batch's results and per-call phase charges equal the serial calls',
/// minus the amortized crossing phases.
fn assert_matches_serial(serial: &[CallOutcome], batch: &BatchOutcome) {
    assert_eq!(batch.results.len(), serial.len());
    for (i, (s, b)) in serial.iter().zip(&batch.results).enumerate() {
        let b = b
            .as_ref()
            .unwrap_or_else(|e| panic!("batched call {i}: {e}"));
        // Byte-identical results: return value, out-params, copy log.
        assert_eq!(outcome_key(s), outcome_key(b), "call {i} results differ");
        // Identical per-call phase charges, minus the amortized traps.
        for phase in Phase::ALL {
            if AMORTIZED.contains(&phase) {
                assert_eq!(
                    b.meter.total_for(phase),
                    Nanos::ZERO,
                    "call {i}: batched call charged amortized phase {phase:?}"
                );
            } else {
                assert_eq!(
                    s.meter.total_for(phase),
                    b.meter.total_for(phase),
                    "call {i}: phase {phase:?} diverged between serial and batch"
                );
            }
        }
    }
    // The serial side really paid per-call traps the batch amortized.
    let serial_traps: Nanos = serial
        .iter()
        .map(|o| o.meter.total_for(Phase::Trap))
        .fold(Nanos::ZERO, |a, b| a + b);
    assert!(serial_traps > batch.batch_meter.total_for(Phase::Trap) || serial.len() <= 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A `call_batch` of N mixed procedures produces byte-identical
    /// results and identical per-call virtual phase charges to N serial
    /// `call`s — minus the amortized crossing phases.
    #[test]
    fn batch_of_mixed_procedures_is_differentially_identical(
        shape in proptest::collection::vec((0u8..4, -100i32..100), 1..8)
    ) {
        let requests: Vec<(usize, Vec<Value>)> =
            shape.iter().map(|&(c, x)| request(c, x)).collect();
        differential(&requests);
    }
}

#[test]
fn fixed_differential_with_every_procedure() {
    // A deterministic instance of the property (fast path for CI).
    let requests: Vec<(usize, Vec<Value>)> = (0..6).map(|i| request(i as u8, i)).collect();
    differential(&requests);
}

#[test]
fn flush_window_straddling_the_ring_end_matches_serial_calls() {
    // Seven calls a batch over eight A-stacks a procedure: every batch is
    // one flush. Nine flushes fill slots 0..=62 of the 64-slot ring, so
    // the tenth window spans slot 63 and wraps to slots 0..=5.
    let requests: Vec<(usize, Vec<Value>)> = (0..7).map(|i| request(i as u8, i)).collect();
    let serial = serial_outcomes(&requests);
    let session = Session::recorder();
    let (rt, server, binding, thread) = make_env_in(AStackPolicy::Fail, Arc::clone(&session));
    for flush in 1..=10 {
        let out = binding.call_batch(0, &thread, requests.clone()).unwrap();
        assert_eq!((out.doorbells, out.degraded), (1, 0), "batch {flush}");
        // The first batch warms the lazily allocated resources.
        if flush > 1 {
            assert_matches_serial(&serial, &out);
        }
    }
    let ring = binding.state().ring.as_ref().expect("local ring");
    assert_eq!(ring.occupancy_now(), 0);
    assert_no_leaks(&rt, &server, &binding);

    // The recorded slots confirm the last window wrapped.
    let log = session.finish();
    let slots = |k: u16| -> Vec<u64> {
        log.streams["ring:Batch"]
            .iter()
            .filter(|e| e.kind == k)
            .map(|e| e.payload >> 32)
            .collect()
    };
    for k in [kind::RING_ENQUEUE, kind::RING_DRAIN] {
        let slots = slots(k);
        assert_eq!(slots.len(), 70);
        assert_eq!(slots[63..], [63, 0, 1, 2, 3, 4, 5], "event kind {k}");
    }
}

#[test]
fn warmed_batch_tlb_hits_and_misses_are_pinned() {
    // A flush moves its descriptors in one pass per direction, but each
    // pass touches every descriptor's page once per descriptor, exactly
    // as one access per descriptor would. Touching each ring page once
    // per pass instead leaves the misses alone and drops hits, which the
    // replay corpus reports only as a metrics-digest mismatch.
    //
    // Out-of-band results cross the arena too. The four `Echo` calls
    // (payloads 512, 64, 1,024 and 128 bytes) each lease a chunk, and a
    // segment is an 8-byte header, a 4-byte length and the payload, so one
    // pass over the four segments touches 2 + 1 + 3 + 1 = 7 pages. The
    // server's result place hits the 7 pages its argument read has just
    // missed (+7 hits); the client's result fetch, after the switch back,
    // misses all 7 (+7 misses). The LIFO chunk stack hands this batch its
    // chunks in the reverse order of the warm-up batch before it, whose
    // fetch left the first page of each chunk resident, so this batch's
    // push hits 4 of its 7 pages that it used to miss (+4 hits, -4
    // misses). Net: (555, 75) became (566, 78).
    let (rt, _server, binding, thread) = make_env();
    let requests: Vec<(usize, Vec<Value>)> = (0..16).map(|i| request(i as u8, i)).collect();
    for _ in 0..2 {
        binding
            .call_batch(0, &thread, requests.clone())
            .expect("warm-up");
    }
    let cpu = rt.kernel().machine().cpu(0);
    let (hits, misses) = (cpu.tlb_hits(), cpu.tlb_misses());
    let out = binding.call_batch(0, &thread, requests).unwrap();
    assert_eq!((out.doorbells, out.degraded), (1, 0));
    assert!(out.results.iter().all(Result::is_ok));
    assert_eq!(
        (cpu.tlb_hits() - hits, cpu.tlb_misses() - misses),
        (566, 78),
        "TLB (hits, misses) of a warmed 16-call batch"
    );
}
