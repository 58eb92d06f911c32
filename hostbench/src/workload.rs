//! The four closed-loop workloads: their inputs (drawn from the seed), the
//! systems they run against, and one checked client operation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::meter::{LockTally, Meter, Phase};
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::thread::Thread;
use kernel::Domain;
use lrpc::{Binding, CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::{MsgHandler, MsgRpcCost, MsgRpcSystem, MsgServer};

use crate::alloc::{counting, AllocCount};

/// The Table-4 procedures. Every procedure gets 16 A-stacks so that a full
/// 16-call batch of one procedure fits without waiting (see the A-stack
/// stall note in the README).
const BENCH_IDL: &str = "interface Bench {
    [astacks = 16] procedure Null();
    [astacks = 16] procedure Add(a: int32, b: int32) -> int32;
    [astacks = 16] procedure BigIn(data: in bytes[200] noninterpreted);
    [astacks = 16] procedure BigInOut(data: inout bytes[200] noninterpreted);
}";

/// Large variable-size payloads, one procedure per direction.
const BULK_IDL: &str = "interface Bulk {
    procedure Send(data: in var bytes[65536] noninterpreted);
    procedure Echo(data: inout var bytes[65536] noninterpreted);
}";

/// Virtual C-VAX latency of a Null LRPC without domain caching (Table 4).
pub const NULL_VIRT_NS: u64 = 157_000;

/// Payload sizes of `bulk_echo`, log-uniform over this range.
const BULK_MIN: usize = 64;
/// Largest `bulk_echo` payload: the declared bound of the parameter.
const BULK_MAX: usize = 65536;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back Null calls on a 1-CPU Firefly, caching off.
    NullSerial,
    /// 16-call ring batches drawn from Null/Add/BigIn/BigInOut.
    Batch16Mix,
    /// Serial 64 B..64 KB send and echo calls through the bulk arena.
    BulkEcho,
    /// Two host threads on two simulated CPUs sharing one binding.
    Null2Cpu,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::NullSerial,
        Workload::Batch16Mix,
        Workload::BulkEcho,
        Workload::Null2Cpu,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NullSerial => "null_serial",
            Workload::Batch16Mix => "batch16_mix",
            Workload::BulkEcho => "bulk_echo",
            Workload::Null2Cpu => "null_2cpu",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calling host threads, one simulated CPU each.
    pub fn threads(self) -> usize {
        match self {
            Workload::Null2Cpu => 2,
            _ => 1,
        }
    }

    /// True if one client operation is a `call_batch` of several calls.
    pub fn batched(self) -> bool {
        self == Workload::Batch16Mix
    }

    fn idl(self) -> &'static str {
        match self {
            Workload::BulkEcho => BULK_IDL,
            _ => BENCH_IDL,
        }
    }

    fn interface(self) -> &'static str {
        match self {
            Workload::BulkEcho => "Bulk",
            _ => "Bench",
        }
    }
}

/// What a correct reply looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// No return value and no out parameters.
    Nothing,
    /// Return value `Int32(v)`.
    Sum(i32),
    /// Out parameter 0 equal to this value.
    Echo(Value),
}

impl Expect {
    /// True if a reply matches.
    pub fn holds(&self, ret: &Option<Value>, outs: &[(usize, Value)]) -> bool {
        match self {
            Expect::Nothing => ret.is_none() && outs.is_empty(),
            Expect::Sum(v) => *ret == Some(Value::Int32(*v)) && outs.is_empty(),
            Expect::Echo(v) => ret.is_none() && matches!(outs, [(0, out)] if out == v),
        }
    }

    /// The reply the server procedure produces for this call.
    pub fn reply(&self) -> Reply {
        match self {
            Expect::Nothing => Reply::none(),
            Expect::Sum(v) => Reply::value(Value::Int32(*v)),
            Expect::Echo(v) => Reply::none().with_out(0, v.clone()),
        }
    }
}

/// One call of an operation.
#[derive(Clone, Debug)]
pub struct Call {
    /// Procedure index.
    pub proc: usize,
    /// Arguments.
    pub args: Vec<Value>,
    /// The correct reply.
    pub expect: Expect,
    /// Payload bytes moved: in plus out.
    pub payload: u64,
}

/// splitmix64: a small, seedable generator, so the inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1B0C_A11D_A7A5)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

fn table4_call(rng: &mut Rng, proc: usize) -> Call {
    match proc {
        0 => Call {
            proc,
            args: vec![],
            expect: Expect::Nothing,
            payload: 0,
        },
        1 => {
            // Small operands: the server adds with plain `+`.
            let a = rng.below(1 << 20) as i32 - (1 << 19);
            let b = rng.below(1 << 20) as i32 - (1 << 19);
            Call {
                proc,
                args: vec![Value::Int32(a), Value::Int32(b)],
                expect: Expect::Sum(a + b),
                payload: 12,
            }
        }
        2 => Call {
            proc,
            args: vec![Value::Bytes(rng.bytes(200))],
            expect: Expect::Nothing,
            payload: 200,
        },
        _ => {
            let data = Value::Bytes(rng.bytes(200));
            Call {
                proc,
                args: vec![data.clone()],
                expect: Expect::Echo(data),
                payload: 400,
            }
        }
    }
}

/// Distinct operations generated per run; the loop cycles through them.
const OP_POOL: usize = 256;

/// The operations of one run, each a list of calls (one call, or the 16
/// calls of a batch), generated from `seed` alone.
pub fn inputs(w: Workload, seed: u64) -> Vec<Vec<Call>> {
    let mut rng = Rng::new(seed);
    let n = OP_POOL;
    match w {
        Workload::NullSerial | Workload::Null2Cpu => vec![vec![table4_call(&mut rng, 0)]],
        Workload::Batch16Mix => (0..n)
            .map(|_| {
                (0..16)
                    .map(|_| {
                        let proc = rng.below(4) as usize;
                        table4_call(&mut rng, proc)
                    })
                    .collect()
            })
            .collect(),
        Workload::BulkEcho => {
            // Stratified log-uniform sizes: one draw per 1/n-quantile of
            // the log range, so every seed has the same size profile and
            // only the order and the bytes change. Alternate directions
            // give each direction half of every stratum pair.
            let span = (BULK_MAX as f64 / BULK_MIN as f64).ln();
            let mut ops: Vec<Vec<Call>> = (0..n)
                .map(|i| {
                    let u = (i as f64 + rng.unit()) / n as f64;
                    let len = ((BULK_MIN as f64) * (u * span).exp()).round() as usize;
                    let len = len.clamp(BULK_MIN, BULK_MAX);
                    let data = Value::Var(rng.bytes(len));
                    let len = len as u64;
                    if i % 2 == 0 {
                        vec![Call {
                            proc: 0,
                            args: vec![data],
                            expect: Expect::Nothing,
                            payload: len,
                        }]
                    } else {
                        vec![Call {
                            proc: 1,
                            args: vec![data.clone()],
                            expect: Expect::Echo(data),
                            payload: 2 * len,
                        }]
                    }
                })
                .collect();
            for i in (1..ops.len()).rev() {
                ops.swap(i, rng.below(i as u64 + 1) as usize);
            }
            ops
        }
    }
}

fn lrpc_handlers(w: Workload) -> Vec<Handler> {
    match w {
        Workload::BulkEcho => vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
            Box::new(
                |_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone())),
            ),
        ],
        _ => vec![
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
            Box::new(|_: &ServerCtx, args: &[Value]| add(args)),
            Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
            Box::new(
                |_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone())),
            ),
        ],
    }
}

fn msg_handlers(w: Workload) -> Vec<MsgHandler> {
    match w {
        Workload::BulkEcho => vec![
            Box::new(|_: &[Value]| Ok(Reply::none())),
            Box::new(|args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
        ],
        _ => vec![
            Box::new(|_: &[Value]| Ok(Reply::none())),
            Box::new(add),
            Box::new(|_: &[Value]| Ok(Reply::none())),
            Box::new(|args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
        ],
    }
}

fn add(args: &[Value]) -> Result<Reply, CallError> {
    match args {
        [Value::Int32(a), Value::Int32(b)] => Ok(Reply::value(Value::Int32(a + b))),
        _ => Err(CallError::ServerFault("Add: bad argument types".into())),
    }
}

/// The LRPC system under test: one server, one client, one binding, one
/// kernel thread per calling host thread.
pub struct LrpcSide {
    /// The runtime.
    pub rt: Arc<LrpcRuntime>,
    /// The client's binding to the workload's interface.
    pub binding: Binding,
    /// One client thread per simulated CPU.
    pub threads: Vec<Arc<Thread>>,
}

/// The Taos SRC-RPC baseline of the same operations.
pub struct TaosSide {
    /// The message-RPC system.
    pub system: Arc<MsgRpcSystem>,
    /// The client domain.
    pub client: Arc<Domain>,
    /// The exported server.
    pub server: Arc<MsgServer>,
    /// One client thread per simulated CPU.
    pub threads: Vec<Arc<Thread>>,
}

/// Both systems, built and exported for one workload.
pub struct Env {
    /// The LRPC side.
    pub lrpc: LrpcSide,
    /// The Taos baseline.
    pub taos: TaosSide,
}

/// Builds both systems for `w`: runtime, export, import (plans, A-stacks,
/// bulk arena, ring) and the baseline's export.
pub fn build(w: Workload) -> Result<Env, CallError> {
    let cpus = w.threads();
    let rt = TestRuntime::new()
        .machine(Machine::new(cpus, CostModel::cvax_firefly()))
        .domain_caching(false)
        .build();
    let server = rt.kernel().create_domain("bench-server");
    rt.export(&server, w.idl(), lrpc_handlers(w))?;
    let client = rt.kernel().create_domain("bench-client");
    let binding = rt.import(&client, w.interface())?;
    let threads = (0..cpus)
        .map(|_| rt.kernel().spawn_thread(&client))
        .collect();
    let lrpc = LrpcSide {
        rt,
        binding,
        threads,
    };

    let cost = MsgRpcCost::src_rpc_taos();
    let kernel = Kernel::new(Machine::new(cpus, CostModel::with_hw(cost.hw)));
    let system = MsgRpcSystem::new(kernel, cost);
    let sdom = system.kernel().create_domain("taos-server");
    let server = system.export(&sdom, w.idl(), msg_handlers(w), 2)?;
    let client = system.kernel().create_domain("taos-client");
    let threads = (0..cpus)
        .map(|_| system.kernel().spawn_thread(&client))
        .collect();
    let taos = TaosSide {
        system,
        client,
        server,
        threads,
    };
    Ok(Env { lrpc, taos })
}

/// What one client operation did.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpResult {
    /// Host wall time of the blocking API call(s), ns.
    pub host_ns: u64,
    /// Calls that failed, returned a wrong result, or (when the whole
    /// operation overran [`OP_LIMIT`]) stalled.
    pub failed: u64,
    /// Virtual ns the operation took on its calling thread.
    pub virt_ns: u64,
    /// Doorbells that trapped (batches only).
    pub doorbells: u64,
    /// Kernel traps paid (batches only).
    pub traps: u64,
    /// Calls whose virtual latency broke the Table-4 Null invariant.
    pub virt_mismatch: u64,
}

/// What a traced operation additionally records.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTrace {
    /// Virtual ns per [`Phase`], indexed by [`Phase::code`].
    pub phases: [u64; Phase::ALL.len()],
    /// Allocations made inside the API call.
    pub allocs: AllocCount,
    /// Process-global lock acquisitions inside the API call.
    pub global_locks: u64,
    /// Sharded lock acquisitions inside the API call.
    pub sharded_locks: u64,
}

impl OpTrace {
    /// Adds another record into this one.
    pub fn add(&mut self, o: &OpTrace) {
        for (a, b) in self.phases.iter_mut().zip(&o.phases) {
            *a += b;
        }
        self.allocs.allocs += o.allocs.allocs;
        self.allocs.bytes += o.allocs.bytes;
        self.global_locks += o.global_locks;
        self.sharded_locks += o.sharded_locks;
    }
}

fn add_phases(meter: &Meter, phases: &mut [u64; Phase::ALL.len()]) {
    for (phase, ns) in meter.breakdown() {
        phases[phase.code() as usize] += ns.as_nanos();
    }
}

/// Times `call` on this thread; with `trace`, also counts its allocations
/// and lock acquisitions.
fn timed<R>(trace: Option<&mut OpTrace>, call: impl FnOnce() -> R) -> (R, u64) {
    match trace {
        None => {
            let t0 = Instant::now();
            let r = call();
            (r, t0.elapsed().as_nanos() as u64)
        }
        Some(t) => {
            let tally = LockTally::begin();
            let t0 = Instant::now();
            let (r, allocs) = counting(call);
            let ns = t0.elapsed().as_nanos() as u64;
            t.global_locks += tally.global_delta();
            t.sharded_locks += tally.sharded_delta();
            t.allocs.allocs += allocs.allocs;
            t.allocs.bytes += allocs.bytes;
            (r, ns)
        }
    }
}

fn limit(r: &mut OpResult, calls: usize) {
    if r.host_ns > OP_LIMIT.as_nanos() as u64 {
        r.failed = calls as u64;
    }
}

/// Runs one LRPC operation on `cpu`, timing only the blocking API call,
/// then checks every result.
///
/// `requests` carries a batch's owned arguments, built by the caller
/// before the timed window; serial operations pass `None`.
pub fn lrpc_op(
    w: Workload,
    side: &LrpcSide,
    cpu: usize,
    op: &[Call],
    requests: Option<Vec<(usize, Vec<Value>)>>,
    mut trace: Option<&mut OpTrace>,
) -> OpResult {
    let thread = &side.threads[cpu];
    let mut r = OpResult::default();
    match requests {
        Some(requests) => {
            let (out, ns) = timed(trace.as_deref_mut(), || {
                side.binding.call_batch(cpu, thread, requests)
            });
            r.host_ns = ns;
            match out {
                Ok(out) => {
                    r.virt_ns = out.elapsed.as_nanos();
                    r.doorbells = out.doorbells;
                    r.traps = out.traps;
                    for (call, res) in op.iter().zip(&out.results) {
                        match res {
                            Ok(o) if call.expect.holds(&o.ret, &o.outs) => {}
                            _ => r.failed += 1,
                        }
                    }
                    r.failed += op.len().saturating_sub(out.results.len()) as u64;
                    if let Some(t) = trace {
                        add_phases(&out.batch_meter, &mut t.phases);
                        for o in out.results.iter().flatten() {
                            add_phases(&o.meter, &mut t.phases);
                        }
                    }
                }
                Err(_) => r.failed = op.len() as u64,
            }
        }
        None => {
            for call in op {
                let (out, ns) = timed(trace.as_deref_mut(), || {
                    side.binding
                        .call_indexed(cpu, thread, call.proc, &call.args)
                });
                r.host_ns += ns;
                match out {
                    Ok(o) => {
                        let virt = o.elapsed.as_nanos();
                        r.virt_ns += virt;
                        if !call.expect.holds(&o.ret, &o.outs) {
                            r.failed += 1;
                        }
                        if w == Workload::NullSerial && virt != NULL_VIRT_NS {
                            r.virt_mismatch += 1;
                        }
                        if let Some(t) = trace.as_deref_mut() {
                            add_phases(&o.meter, &mut t.phases);
                        }
                    }
                    Err(_) => r.failed += 1,
                }
            }
        }
    }
    limit(&mut r, op.len());
    r
}

/// Runs the same operation through the Taos baseline, serially (message
/// RPC has no batching), timing only the API calls, and checks every
/// result.
pub fn taos_op(side: &TaosSide, cpu: usize, op: &[Call]) -> OpResult {
    let thread = &side.threads[cpu];
    let mut r = OpResult::default();
    for call in op {
        let (out, ns) = timed(None, || {
            side.system.call_indexed(
                &side.client,
                thread,
                &side.server,
                cpu,
                call.proc,
                &call.args,
                true,
            )
        });
        r.host_ns += ns;
        match out {
            Ok(o) if call.expect.holds(&o.ret, &o.outs) => r.virt_ns += o.elapsed.as_nanos(),
            _ => r.failed += 1,
        }
    }
    limit(&mut r, op.len());
    r
}

/// A batch's owned request list.
pub fn requests(op: &[Call]) -> Vec<(usize, Vec<Value>)> {
    op.iter().map(|c| (c.proc, c.args.clone())).collect()
}

/// An operation slower than this counts as failed: a stall (such as an
/// A-stack wait that times out) shows up in `failed` instead of only in
/// the tail.
const OP_LIMIT: Duration = Duration::from_millis(200);
