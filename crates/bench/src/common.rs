//! Shared experiment scaffolding: benchmark environments and helpers.

use std::sync::Arc;
use std::time::Instant;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::time::Nanos;
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::thread::Thread;
use kernel::Domain;
use lrpc::{Binding, CallError, CallOutcome, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use msgrpc::{MsgHandler, MsgRpcCost, MsgRpcSystem, MsgServer};

/// The four Table 4 test procedures.
pub const BENCH_IDL: &str = r#"
    interface Bench {
        procedure Null();
        procedure Add(a: int32, b: int32) -> int32;
        procedure BigIn(data: in bytes[200] noninterpreted);
        procedure BigInOut(data: inout bytes[200] noninterpreted);
    }
"#;

/// The names and argument builders of the four tests.
pub fn four_tests() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        ("Null", vec![]),
        ("Add", vec![Value::Int32(2), Value::Int32(3)]),
        ("BigIn", vec![Value::Bytes(vec![0xAB; 200])]),
        ("BigInOut", vec![Value::Bytes(vec![0xAB; 200])]),
    ]
}

/// Handlers for [`BENCH_IDL`].
pub fn lrpc_bench_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                return Err(CallError::ServerFault("bad types".into()));
            };
            Ok(Reply::value(Value::Int32(a + b)))
        }),
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
    ]
}

/// Message-RPC handlers for [`BENCH_IDL`].
pub fn msg_bench_handlers() -> Vec<MsgHandler> {
    vec![
        Box::new(|_: &[Value]| Ok(Reply::none())),
        Box::new(|args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                return Err(CallError::ServerFault("bad types".into()));
            };
            Ok(Reply::value(Value::Int32(a + b)))
        }),
        Box::new(|_: &[Value]| Ok(Reply::none())),
        Box::new(|args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
    ]
}

/// A ready-to-call LRPC environment.
pub struct LrpcEnv {
    /// The runtime.
    pub rt: Arc<LrpcRuntime>,
    /// Client domain.
    pub client: Arc<Domain>,
    /// Server domain.
    pub server: Arc<Domain>,
    /// Calling thread.
    pub thread: Arc<Thread>,
    /// The bench binding.
    pub binding: Binding,
}

impl LrpcEnv {
    /// The [`BENCH_IDL`] environment on an `n_cpus` C-VAX Firefly.
    pub fn new(n_cpus: usize, domain_caching: bool) -> LrpcEnv {
        let rt = TestRuntime::new()
            .cpus(n_cpus)
            .domain_caching(domain_caching)
            .build();
        LrpcEnv::bind(rt, BENCH_IDL, lrpc_bench_handlers())
    }

    /// Boots one server and one client on `rt`, in this order: the server
    /// domain exports `idl` with `handlers`, then the client domain gets
    /// its calling thread and imports the interface.
    pub fn bind(rt: Arc<LrpcRuntime>, idl: &str, handlers: Vec<Handler>) -> LrpcEnv {
        let server = rt.kernel().create_domain("bench-server");
        let clerk = rt.export(&server, idl, handlers).expect("export");
        let client = rt.kernel().create_domain("bench-client");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, &clerk.interface().name).expect("import");
        LrpcEnv {
            rt,
            client,
            server,
            thread,
            binding,
        }
    }

    /// Steady-state metered call (one warmup first).
    pub fn steady_call(&self, proc: &str, args: &[Value]) -> CallOutcome {
        self.binding
            .call(0, &self.thread, proc, args)
            .expect("warmup");
        self.binding
            .call(0, &self.thread, proc, args)
            .expect("measured")
    }

    /// Steady-state latency.
    pub fn steady_latency(&self, proc: &str, args: &[Value]) -> Nanos {
        self.steady_call(proc, args).elapsed
    }

    /// Steady-state latency with the idle-processor optimization hitting
    /// on both transfers (requires `n_cpus >= 2` and `domain_caching`).
    pub fn steady_latency_mp(&self, proc: &str, args: &[Value]) -> Nanos {
        self.rt
            .kernel()
            .machine()
            .cpu(1)
            .set_idle_in(Some(self.server.ctx().id()));
        let w = self
            .binding
            .call(0, &self.thread, proc, args)
            .expect("warmup");
        let out = self
            .binding
            .call(w.end_cpu, &self.thread, proc, args)
            .expect("measured");
        assert!(
            out.exchanged_on_call && out.exchanged_on_return,
            "MP measurement requires both exchanges to hit"
        );
        out.elapsed
    }
}

/// A ready-to-call message-RPC environment.
pub struct MsgEnv {
    /// The system.
    pub system: Arc<MsgRpcSystem>,
    /// Client domain.
    pub client: Arc<Domain>,
    /// Calling thread.
    pub thread: Arc<Thread>,
    /// The bench server.
    pub server: Arc<MsgServer>,
}

impl MsgEnv {
    /// The [`BENCH_IDL`] environment for one Table 2 system model, served
    /// by two receiver threads.
    pub fn new(cost: MsgRpcCost) -> MsgEnv {
        MsgEnv::bind(cost, BENCH_IDL, msg_bench_handlers(), 2)
    }

    /// Boots a one-CPU machine with `cost`'s hardware, then one server
    /// and one client, in this order: the server domain exports `idl`
    /// with `handlers` on `receivers` threads, then the client domain gets
    /// its calling thread.
    pub fn bind(
        cost: MsgRpcCost,
        idl: &str,
        handlers: Vec<MsgHandler>,
        receivers: usize,
    ) -> MsgEnv {
        let machine = Machine::new(1, CostModel::with_hw(cost.hw));
        let system = MsgRpcSystem::new(Kernel::new(machine), cost);
        let server_domain = system.kernel().create_domain("msg-server");
        let server = system
            .export(&server_domain, idl, handlers, receivers)
            .expect("export");
        let client = system.kernel().create_domain("msg-client");
        let thread = system.kernel().spawn_thread(&client);
        MsgEnv {
            system,
            client,
            thread,
            server,
        }
    }

    /// Steady-state metered call.
    pub fn steady_call(&self, proc: &str, args: &[Value]) -> msgrpc::MsgCallOutcome {
        self.system
            .call(&self.client, &self.thread, &self.server, 0, proc, args)
            .expect("warmup");
        self.system
            .call(&self.client, &self.thread, &self.server, 0, proc, args)
            .expect("measured")
    }

    /// Steady-state latency.
    pub fn steady_latency(&self, proc: &str, args: &[Value]) -> Nanos {
        self.steady_call(proc, args).elapsed
    }
}

/// Times `iters` calls of `f(leg)` for each of `N` legs, alternating the
/// legs across five rounds so frequency scaling and scheduler noise land
/// on all of them alike; returns each leg's best (minimum) host ns per
/// call.
pub fn best_ns_per_call<const N: usize>(iters: usize, mut f: impl FnMut(usize)) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..5 {
        for (leg, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..iters {
                f(leg);
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
    best
}

/// Serializes users of the process-wide flight recorder. Anything that
/// toggles [`obs::flight`] or captures spans by trace-id watermark (the
/// phase experiments, the record/replay drivers, their tests) holds this
/// lock for the whole toggle-run-snapshot window, so parallel tests can
/// neither interleave captures nor steal trace ids inside another
/// capture's watermark range.
pub fn flight_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Formats a simple aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}
