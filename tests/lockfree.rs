//! The Null call path acquires zero process-global locks.
//!
//! Section 3.4: "LRPC minimizes the use of shared data structures on the
//! critical domain transfer path." The runtime instruments every lock
//! acquisition (`firefly::meter`): process-global locks (kernel domain and
//! thread tables, the name server, the physical-memory region table, the
//! runtime's binding-time maps, the flight-recorder ring registry) are
//! counted separately from sharded or per-queue locks (handle-table
//! shards, per-class A-stack wait queues, per-server E-stack pools).
//! These tests pin down the steady-state contract: a warmed-up Null call
//! crosses domains without touching a single global lock — on the metered
//! entry, on the unmetered entry, and with the flight recorder capturing
//! every phase.
//!
//! Tallies use [`LockTally::scope`], the RAII guard that isolates this
//! thread's counters for the scope's lifetime and restores them on drop,
//! so parallel tests cannot bleed acquisitions into each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bench::phases;
use firefly::cost::CostModel;
use firefly::fault::{FaultConfig, FaultPlan};
use firefly::meter::LockTally;
use idl::wire::Value;
use lrpc::{Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};

/// Serializes the tests that toggle the process-global flight recorder
/// with each other and with the tests that count one call's locks or
/// allocations (within this test binary; other binaries are separate
/// processes). While the recorder is on, every call records spans, and a
/// thread's first span registers its ring: one process-global lock and
/// one allocation, which a call measured meanwhile on a fresh test
/// thread would count.
fn flight_toggle() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so one taken over from a panicked test
    // needs no repair.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Heap-allocation tally.
//
// The compiled copy plans promise a *zero-allocation* fast path for
// fixed-argument calls, so this binary routes the global allocator
// through a per-thread counter. Thread-locality keeps parallel tests
// from bleeding allocations into each other, exactly like `LockTally`.
// ---------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on this thread.
fn note_alloc(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn thread_allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn thread_allocated_bytes() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

fn null_env(domain_caching: bool) -> (Arc<LrpcRuntime>, Arc<kernel::Domain>, lrpc::Binding) {
    let rt = TestRuntime::new()
        .cpus(2)
        .domain_caching(domain_caching)
        .build();
    let server = rt.kernel().create_domain("null-server");
    rt.export(
        &server,
        "interface N { procedure Null(); }",
        vec![Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("null-client");
    let binding = rt.import(&client, "N").unwrap();
    (rt, client, binding)
}

#[test]
fn steady_state_null_call_takes_zero_global_locks() {
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);
    // Warm up: the first call may allocate an E-stack through the pool.
    binding.call_unmetered(0, &thread, 0, &[]).expect("warmup");

    let scope = LockTally::scope();
    binding
        .call_unmetered(0, &thread, 0, &[])
        .expect("measured");
    assert_eq!(
        scope.global(),
        0,
        "a steady-state Null call must not acquire any process-global lock"
    );
    assert!(
        scope.sharded() > 0,
        "the call does use sharded locks (handle shard, E-stack pool)"
    );
}

#[test]
fn metered_null_call_takes_zero_global_locks_too() {
    // Metering (per-phase virtual-time accounting) rides the same path
    // and must not smuggle a global lock back in.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);
    binding.call_indexed(0, &thread, 0, &[]).expect("warmup");

    let scope = LockTally::scope();
    binding.call_indexed(0, &thread, 0, &[]).expect("measured");
    assert_eq!(scope.global(), 0);
}

#[test]
fn recorder_enabled_null_call_takes_zero_global_locks() {
    // The flight recorder's only lock is the ring *registry*, taken once
    // per thread when its ring is created. The warmup call (recorder
    // already on) pays that registration, so the measured call writes
    // spans through the thread-local seqlock ring alone.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);

    obs::flight::enable();
    binding.call_indexed(0, &thread, 0, &[]).expect("warmup");

    let scope = LockTally::scope();
    let out = binding.call_indexed(0, &thread, 0, &[]).expect("measured");
    let globals = scope.global();
    drop(scope);
    obs::flight::disable();

    assert_eq!(
        globals, 0,
        "recording a call's phases must not add a process-global lock"
    );
    assert!(
        !obs::flight::spans_for(out.trace).is_empty(),
        "the measured call really was recorded (zero locks is not vacuous)"
    );
}

#[test]
fn flight_breakdown_reproduces_table5_within_one_percent() {
    // Acceptance gate: rebuild Table 5 purely from the spans a recorded
    // Null call left in the flight rings, and check the total against the
    // cost model's closed-form prediction. The simulator charges exact
    // virtual costs, so the drift is zero — well inside the 1% gate.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);
    binding.call_indexed(0, &thread, 0, &[]).expect("warmup");

    obs::flight::enable();
    let out = binding.call_indexed(0, &thread, 0, &[]).expect("recorded");
    let spans = obs::flight::spans_for(out.trace);
    obs::flight::disable();

    let cost = CostModel::cvax_firefly();
    let breakdown = phases::aggregate(&spans);
    let rows = phases::table5_from_breakdown(&breakdown, &cost);
    let measured: f64 = rows.iter().map(|r| r.measured.as_nanos() as f64).sum();
    let predicted = cost.lrpc_null_serial().as_nanos() as f64;
    let drift = (measured - predicted).abs() / predicted;
    assert!(
        drift <= phases::MAX_TOTAL_DRIFT,
        "flight-reconstructed Table 5 total {measured}ns drifts {:.3}% from \
         the cost model's {predicted}ns (gate {:.0}%)",
        drift * 100.0,
        phases::MAX_TOTAL_DRIFT * 100.0
    );
    // The breakdown accounts for the whole call, not just most of it.
    assert_eq!(
        breakdown.total, out.elapsed,
        "summed span durations must equal the call's elapsed virtual time"
    );
}

#[test]
fn domain_caching_path_is_also_global_lock_free() {
    // With domain caching on, the call may additionally probe (and claim)
    // an idle processor; that probe is a single atomic exchange, not a
    // lock.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(true);
    let thread = rt.kernel().spawn_thread(&client);
    let server_ctx = binding.state().server.ctx().id();
    rt.kernel().machine().cpu(1).set_idle_in(Some(server_ctx));
    binding.call_unmetered(0, &thread, 0, &[]).expect("warmup");

    let scope = LockTally::scope();
    binding
        .call_unmetered(0, &thread, 0, &[])
        .expect("measured");
    assert_eq!(scope.global(), 0);
}

#[test]
fn exchanged_multi_cpu_call_takes_zero_global_locks_and_allocations() {
    // The multi-CPU steady state the tail benchmark leans on: both domain
    // transfers ride the idle-processor exchange (Section 3.4) instead of
    // a context switch. The claim itself is a per-CPU atomic exchange and
    // the TLB stays warm on both processors, so the whole call must still
    // be free of process-global locks *and* heap allocations.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(true);
    let thread = rt.kernel().spawn_thread(&client);
    let server_ctx = binding.state().server.ctx().id();
    rt.kernel().machine().cpu(1).set_idle_in(Some(server_ctx));
    let mut warm = binding.call_unmetered(0, &thread, 0, &[]).expect("warmup");
    for _ in 0..7 {
        warm = binding
            .call_unmetered(warm.end_cpu, &thread, 0, &[])
            .expect("warmup");
    }

    let scope = LockTally::scope();
    let before = thread_allocations();
    let out = binding
        .call_unmetered(warm.end_cpu, &thread, 0, &[])
        .expect("measured");
    let allocated = thread_allocations() - before;
    assert!(
        out.exchanged_on_call && out.exchanged_on_return,
        "the measurement requires both transfers to hit the cached processor"
    );
    assert_eq!(
        scope.global(),
        0,
        "an exchanged multi-CPU call must not acquire any process-global lock"
    );
    assert_eq!(
        allocated, 0,
        "an exchanged multi-CPU call must not allocate ({allocated} allocations)"
    );
}

#[test]
fn steady_state_null_call_makes_zero_heap_allocations() {
    // The compiled copy plan executes the whole stub cycle with borrowed
    // slices and stack scratch: once the E-stack association and linkage
    // stack are warm, an unmetered Null call must not touch the heap at
    // all (and still without a single process-global lock).
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);
    for _ in 0..8 {
        binding.call_unmetered(0, &thread, 0, &[]).expect("warmup");
    }

    let scope = LockTally::scope();
    let before = thread_allocations();
    binding
        .call_unmetered(0, &thread, 0, &[])
        .expect("measured");
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "a steady-state Null call must not allocate ({allocated} allocations)"
    );
    assert_eq!(scope.global(), 0);
}

#[test]
fn null_call_with_a_fault_plan_installed_makes_zero_heap_allocations() {
    // An installed plan that injects nothing still takes every call
    // through the fault sites, the server dispatch among them; naming
    // a site must not touch the heap per call.
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    rt.set_fault_plan(Some(FaultPlan::new(FaultConfig::default())));
    let thread = rt.kernel().spawn_thread(&client);
    for _ in 0..8 {
        binding.call_unmetered(0, &thread, 0, &[]).expect("warmup");
    }

    let before = thread_allocations();
    binding
        .call_unmetered(0, &thread, 0, &[])
        .expect("measured");
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "a Null call under a fault plan must not allocate ({allocated} allocations)"
    );
}

#[test]
fn steady_state_null_batch_allocates_no_more_than_serial_calls() {
    // A ring batch reads its drained and reaped descriptors into stack
    // buffers, names its fault sites once per ring and sizes its pending
    // list up front, so sixteen Null calls batched allocate no more than
    // the same sixteen made one by one (each metered call's outcome
    // carries its own meter and copy log either way).
    let _serial = flight_toggle();
    let (rt, client, binding) = null_env(false);
    let thread = rt.kernel().spawn_thread(&client);
    let requests = || -> Vec<(usize, Vec<Value>)> { (0..16).map(|_| (0, Vec::new())).collect() };
    for _ in 0..4 {
        binding.call_batch(0, &thread, requests()).expect("warmup");
        binding.call_indexed(0, &thread, 0, &[]).expect("warmup");
    }

    let before = thread_allocations();
    for _ in 0..16 {
        binding.call_indexed(0, &thread, 0, &[]).expect("serial");
    }
    let serial = thread_allocations() - before;

    let batch = requests();
    let before = thread_allocations();
    let out = binding.call_batch(0, &thread, batch).expect("batch");
    let batched = thread_allocations() - before;
    assert!(out.results.iter().all(Result::is_ok));
    assert!(
        batched <= serial,
        "a 16-call Null batch made {batched} allocations, 16 serial calls {serial}"
    );
}

#[test]
fn steady_state_fixed_arg_call_makes_zero_heap_allocations() {
    // Same contract with real argument traffic: two int32 in-params and
    // an int32 result ride the fused copy plan, the inline ArgVec and
    // stack scratch buffers end to end.
    let _serial = flight_toggle();
    let rt = TestRuntime::new().cpus(2).build();
    let server = rt.kernel().create_domain("add-server");
    rt.export(
        &server,
        "interface A { procedure Add(a: int32, b: int32) -> int32; }",
        vec![Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                unreachable!()
            };
            Ok(Reply::value(Value::Int32(a + b)))
        }) as Handler],
    )
    .unwrap();
    let client = rt.kernel().create_domain("add-client");
    let binding = rt.import(&client, "A").unwrap();
    let thread = rt.kernel().spawn_thread(&client);
    let args = [Value::Int32(40), Value::Int32(2)];
    for _ in 0..8 {
        binding
            .call_unmetered(0, &thread, 0, &args)
            .expect("warmup");
    }

    let scope = LockTally::scope();
    let before = thread_allocations();
    let out = binding
        .call_unmetered(0, &thread, 0, &args)
        .expect("measured");
    let allocated = thread_allocations() - before;
    assert_eq!(out.ret, Some(Value::Int32(42)));
    assert_eq!(
        allocated, 0,
        "a steady-state fixed-argument call must not allocate ({allocated} allocations)"
    );
    assert_eq!(scope.global(), 0);
}

/// A runtime whose `BigIn` and `BigInOut` (an echo) move their `var
/// bytes` parameter out of band, a binding to it and a client thread.
fn bulk_env() -> (Arc<LrpcRuntime>, lrpc::Binding, Arc<kernel::thread::Thread>) {
    let rt = TestRuntime::new().cpus(2).build();
    let server = rt.kernel().create_domain("bulk-server");
    rt.export(
        &server,
        "interface Bulk {\n\
         procedure BigIn(data: in var bytes[65536] noninterpreted);\n\
         procedure BigInOut(data: inout var bytes[65536] noninterpreted);\n\
         }",
        vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
            Box::new(|_: &ServerCtx, args: &[Value]| {
                let Value::Var(data) = &args[0] else {
                    unreachable!("stubs decoded the declared types")
                };
                Ok(Reply::none().with_out(0, Value::Var(data.clone())))
            }) as Handler,
        ],
    )
    .unwrap();
    let client = rt.kernel().create_domain("bulk-client");
    let binding = rt.import(&client, "Bulk").unwrap();
    let thread = rt.kernel().spawn_thread(&client);
    (rt, binding, thread)
}

#[test]
fn steady_state_large_calls_allocate_zero_per_call_oob_regions() {
    // The bulk-arena acceptance gate: once the binding's pairwise bulk
    // region exists, large variable-size arguments ride arena chunks, so
    // a steady-state burst of BigIn/BigInOut calls must create *no*
    // per-call OOB segments — the physical-memory region table stays
    // exactly as large as it was before the burst, and the binding
    // records zero arena-exhaustion fallbacks.
    //
    // `region_count()` takes the global region-table lock, so both
    // samples happen outside any `LockTally::scope`.
    let (rt, binding, thread) = bulk_env();
    let payload = vec![0xa5u8; 8 * 1024];

    // Warm up both procedures so every pooled resource exists.
    for proc_idx in [0usize, 1] {
        binding
            .call_indexed(0, &thread, proc_idx, &[Value::Var(payload.clone())])
            .expect("warmup");
    }

    let regions_before = rt.kernel().machine().mem().region_count();
    for round in 0..16 {
        for proc_idx in [0usize, 1] {
            binding
                .call_indexed(0, &thread, proc_idx, &[Value::Var(payload.clone())])
                .unwrap_or_else(|e| panic!("round {round} proc {proc_idx}: {e}"));
        }
    }
    let regions_after = rt.kernel().machine().mem().region_count();

    assert_eq!(
        regions_before, regions_after,
        "steady-state large calls must not map per-call OOB segments \
         ({regions_before} regions before the burst, {regions_after} after)"
    );
    assert_eq!(
        binding.state().stats.bulk_fallbacks(),
        0,
        "no call fell back to a per-call OOB segment"
    );
    let bulk_observations = binding
        .state()
        .stats
        .bulk_bytes()
        .map(|h| h.count())
        .unwrap_or(0);
    assert!(
        bulk_observations > 0,
        "the burst really moved bulk payloads through the arena \
         (zero fallbacks is not vacuous)"
    );
}

#[test]
fn steady_state_large_calls_copy_only_the_values_they_decode() {
    // Out-of-band values are encoded straight into the call's arena chunk
    // and decoded straight out of it, so the payload-sized buffers a
    // steady-state call allocates are the values it produces: BigIn's
    // decoded argument, and for BigInOut also the handler's reply value
    // and the client's decoded result. The lease itself allocates
    // nothing: the chunk is borrowed and the segment table is inline.
    // The count is pinned exactly: beyond those values, BigIn allocates
    // the interpreter's argument vector, and BigInOut that vector and the
    // reply's and the outcome's `outs` vectors.
    let _recorder = flight_toggle();
    let (_rt, binding, thread) = bulk_env();
    let payload = 8 * 1024;
    let args = [Value::Var(vec![0xa5u8; payload])];
    for proc_idx in [0usize, 1] {
        binding
            .call_unmetered(0, &thread, proc_idx, &args)
            .expect("warmup");
    }
    for (proc_idx, name, bound, count) in [(0usize, "BigIn", 1.5, 2), (1, "BigInOut", 3.5, 6)] {
        let (before, allocs) = (thread_allocated_bytes(), thread_allocations());
        let out = binding
            .call_unmetered(0, &thread, proc_idx, &args)
            .expect("steady-state call");
        drop(out);
        let bytes = thread_allocated_bytes() - before;
        assert!(
            (bytes as f64) < bound * payload as f64,
            "{name} allocated {bytes} bytes for a {payload}-byte payload (bound {bound}x)"
        );
        let allocs = thread_allocations() - allocs;
        assert_eq!(allocs, count, "{name}'s allocations per call");
    }
}

#[test]
fn binding_setup_does_take_global_locks() {
    // Sanity check on the instrumentation itself: export/import are the
    // *bind-time* slow path and hit the kernel tables and name server, so
    // the counters must see them. A counter that never moves would make
    // the zero assertions above vacuous.
    let scope = LockTally::scope();
    let (_rt, _client, _binding) = null_env(false);
    assert!(
        scope.global() > 0,
        "bind-time setup goes through the global tables"
    );
}
