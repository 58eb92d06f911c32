//! The conventional message-passing RPC engine.
//!
//! Implements the execution path the paper's Section 2.3 dissects: stub
//! marshaling, message buffer management, access validation, message
//! transfer (with the per-variant copy chain), rendezvous scheduling
//! between the client's and server's concrete threads, context switches,
//! and receiver-side dispatch. Every copy is a real `memcpy` tagged with
//! its Table 3 letter; every step charges its calibrated share of the
//! system's overhead model.

use std::sync::Arc;
use std::time::Duration;

use firefly::cpu::{Cpu, Machine};
use firefly::meter::{Meter, Phase};
use firefly::time::Nanos;
use idl::copyops::{CopyLog, CopyOp};
use idl::stubgen::{compile, CompiledInterface, CompiledProc};
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::nameserver::NameServer;
use kernel::thread::{Thread, ThreadStatus};
use kernel::Domain;
use lrpc::binding::resolve_proc;
use lrpc::{CallError, Reply};
use parking_lot::Mutex;

use crate::marshal;
use crate::message::{Message, Port};
use crate::model::{CopyVariant, MsgRpcCost};
use crate::receiver::ReceiverPool;

/// Name of SRC RPC's single global transfer lock, for lock attribution.
pub const GLOBAL_RPC_LOCK: &str = "src-global-lock";

/// A server procedure body in the message-RPC world (no thread migration:
/// the server's own concrete thread runs it).
pub type MsgHandler = Box<dyn Fn(&[Value]) -> Result<Reply, CallError> + Send + Sync>;

/// One exported message-RPC service.
pub struct MsgServer {
    domain: Arc<Domain>,
    interface: Arc<CompiledInterface>,
    handlers: Vec<MsgHandler>,
    port: Port,
    /// Concrete threads fixed in the server domain, managed with the
    /// self-dispatching discipline (a receiver always remains parked).
    receivers: ReceiverPool,
}

impl MsgServer {
    /// The served interface.
    pub fn interface(&self) -> &Arc<CompiledInterface> {
        &self.interface
    }

    /// The server domain.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// The request port.
    pub fn port(&self) -> &Port {
        &self.port
    }

    /// The concrete-thread pool.
    pub fn receivers(&self) -> &ReceiverPool {
        &self.receivers
    }
}

/// What a completed message RPC reports.
#[derive(Debug)]
pub struct MsgCallOutcome {
    /// Return value.
    pub ret: Option<Value>,
    /// Out-parameter values.
    pub outs: Vec<(usize, Value)>,
    /// Virtual round-trip time on the calling thread.
    pub elapsed: Nanos,
    /// Phase breakdown.
    pub meter: Meter,
    /// Copy operations performed (Table 3).
    pub copies: CopyLog,
}

/// A message-passing RPC system (one cost model + copy variant).
pub struct MsgRpcSystem {
    kernel: Arc<Kernel>,
    cost: MsgRpcCost,
    names: NameServer<Arc<MsgServer>>,
    /// SRC RPC's single lock, "mapped into all domains so that message
    /// buffers can be acquired and released without kernel involvement".
    global_lock: Mutex<()>,
}

impl MsgRpcSystem {
    /// Creates a system over the given kernel with the given cost model.
    pub fn new(kernel: Arc<Kernel>, cost: MsgRpcCost) -> Arc<MsgRpcSystem> {
        Arc::new(MsgRpcSystem {
            kernel,
            cost,
            names: NameServer::new(),
            global_lock: Mutex::new(()),
        })
    }

    /// The kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The cost model.
    pub fn cost(&self) -> &MsgRpcCost {
        &self.cost
    }

    /// Exports an interface from `domain` with `n_threads` concrete server
    /// threads.
    pub fn export(
        &self,
        domain: &Arc<Domain>,
        idl_src: &str,
        handlers: Vec<MsgHandler>,
        n_threads: usize,
    ) -> Result<Arc<MsgServer>, CallError> {
        let def = idl::parse(idl_src)
            .map_err(|e| CallError::ServerFault(format!("interface parse error: {e}")))?;
        let interface = Arc::new(compile(&def));
        if interface.procs.len() != handlers.len() {
            return Err(CallError::ServerFault(format!(
                "{} procedures but {} handlers",
                interface.procs.len(),
                handlers.len()
            )));
        }
        let server = Arc::new(MsgServer {
            domain: Arc::clone(domain),
            interface,
            handlers,
            port: Port::new(16),
            receivers: ReceiverPool::new(Arc::clone(&self.kernel), Arc::clone(domain), n_threads),
        });
        self.names.register(def.name, Arc::clone(&server));
        Ok(server)
    }

    /// Binds to an exported service by name.
    pub fn bind(&self, name: &str) -> Result<Arc<MsgServer>, CallError> {
        self.names
            .import_wait(name, Duration::from_secs(2))
            .ok_or_else(|| CallError::ImportTimeout {
                name: name.to_string(),
            })
    }

    /// Makes a message-based RPC.
    pub fn call(
        &self,
        client: &Arc<Domain>,
        thread: &Arc<Thread>,
        server: &Arc<MsgServer>,
        cpu_id: usize,
        proc: &str,
        args: &[Value],
    ) -> Result<MsgCallOutcome, CallError> {
        let index = resolve_proc(&server.interface, proc)?;
        self.call_indexed(client, thread, server, cpu_id, index, args, true)
    }

    /// Makes a message-based RPC by procedure index, optionally metered.
    #[expect(clippy::too_many_arguments)]
    pub fn call_indexed(
        &self,
        client: &Arc<Domain>,
        thread: &Arc<Thread>,
        server: &Arc<MsgServer>,
        cpu_id: usize,
        proc_index: usize,
        args: &[Value],
        metered: bool,
    ) -> Result<MsgCallOutcome, CallError> {
        let machine: &Arc<Machine> = self.kernel.machine();
        let cost = self.cost;
        let cpu = machine.cpu(cpu_id);
        let mut meter = if metered {
            Meter::enabled()
        } else {
            Meter::disabled()
        };
        // Every message RPC is a flight-recordable unit too: stamp a fresh
        // trace id so its spans can be isolated in the recorder.
        meter.set_trace(firefly::meter::TraceId::next());
        let mut copies = CopyLog::new();
        let start = cpu.now();

        let proc: &CompiledProc = server
            .interface
            .procs
            .get(proc_index)
            .ok_or(CallError::BadProcedure { index: proc_index })?;
        if !server.domain.is_active() {
            return Err(CallError::DomainDead);
        }

        // Start in the client's context.
        cpu.switch_context(client.ctx().id(), machine.cost(), &mut meter);

        // The formal call into the client stub.
        charge(
            cpu,
            &mut meter,
            Phase::ProcedureCall,
            cost.hw.procedure_call,
        );

        // Client stub: marshal every argument into the message (copy A) —
        // unless a register window covers the whole payload (Karger-style
        // register passing), in which case the values travel in registers
        // with no message copies at all.
        let stubs_call = frac(cost.stubs, 60);
        charge(cpu, &mut meter, Phase::Marshal, stubs_call);
        let payload = marshal::marshal_args(proc, args)?;
        let n_in = proc.def.params.iter().filter(|p| p.dir.is_in()).count() as u64;
        let in_registers = cost.register_window.is_some_and(|w| payload.len() <= w);
        if in_registers {
            // One register load per four payload bytes.
            let regs = payload.len().div_ceil(4) as u64;
            charge(cpu, &mut meter, Phase::ArgCopy, cost.per_register_op * regs);
        } else {
            charge(cpu, &mut meter, Phase::Marshal, cost.per_marshal_op * n_in);
            charge(
                cpu,
                &mut meter,
                Phase::Marshal,
                cost.per_byte_in * payload.len() as u64,
            );
            if n_in > 0 {
                copies.record(CopyOp::A, payload.len());
            }
        }
        let mut msg = Message::call(proc_index, payload);

        // Message buffer management — under the global lock for the
        // shared-buffer variant.
        let shared = cost.variant == CopyVariant::SharedBuffers;
        let lock_guard = if shared {
            Some(self.global_lock.lock())
        } else {
            None
        };
        let lock_label = if shared { Some(GLOBAL_RPC_LOCK) } else { None };
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::BufferManagement,
            frac(cost.buffer_mgmt, 50),
            lock_label,
        );

        // Kernel trap, access validation, transfer.
        self.kernel.trap(cpu, &mut meter);
        charge(
            cpu,
            &mut meter,
            Phase::Validation,
            frac(cost.validation, 50),
        );
        match cost.variant {
            CopyVariant::FullCopy if !msg.is_empty() && !in_registers => {
                // Client message → kernel buffer → server message.
                msg = msg.copy_hop();
                copies.record(CopyOp::B, msg.len());
                msg = msg.copy_hop();
                copies.record(CopyOp::C, msg.len());
            }
            CopyVariant::Restricted if !msg.is_empty() && !in_registers => {
                // One copy through the specially mapped region.
                msg = msg.copy_hop();
                copies.record(CopyOp::D, msg.len());
            }
            CopyVariant::FullCopy | CopyVariant::Restricted => {}
            CopyVariant::SharedBuffers => {
                // Globally shared buffers: no transfer copy at all.
            }
        }
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::MessageTransfer,
            frac(cost.transfer, 60),
            lock_label,
        );

        // Enqueue on the server's port.
        if !server.port.enqueue(msg, Duration::from_secs(2)) {
            return Err(CallError::ServerFault(
                "server port full (flow control)".into(),
            ));
        }

        // Rendezvous: block the client's concrete thread, select one of the
        // server's. For the shared-buffer variant, the portion of
        // scheduling work under the global lock is whatever the model's
        // `global_lock_held` leaves after buffer, transfer and dispatch.
        let sched_locked_total = if shared {
            cost.global_lock_held
                .saturating_sub(cost.buffer_mgmt + cost.transfer + frac(cost.dispatch, 70))
                .min(cost.scheduling)
        } else {
            Nanos::ZERO
        };
        let sched_half = frac(cost.scheduling, 50);
        let call_locked = sched_half.min(sched_locked_total);
        thread.set_status(ThreadStatus::Blocked);
        charge_maybe_locked(cpu, &mut meter, Phase::Scheduling, call_locked, lock_label);
        charge(cpu, &mut meter, Phase::Scheduling, sched_half - call_locked);
        // A receiver self-dispatches; if it was the last, it must first
        // create a successor (extra dispatch-path work LRPC never does).
        let (server_thread, _action) = server.receivers.begin_dispatch();

        // Context switch into the server domain.
        cpu.switch_context(server.domain.ctx().id(), machine.cost(), &mut meter);

        // Receiver: dequeue, interpret, dispatch.
        let delivered = server
            .port
            .dequeue(Duration::from_secs(2))
            .ok_or_else(|| CallError::ServerFault("request message lost".into()))?;
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::Dispatch,
            frac(cost.dispatch, 70),
            lock_label,
        );
        drop(lock_guard);

        // Server stub: unmarshal into the server's stack (copy E), run.
        // Register-passed arguments are already where the procedure needs
        // them.
        charge(cpu, &mut meter, Phase::Marshal, frac(cost.stubs, 20));
        let vals = marshal::unmarshal_args(proc, &delivered.payload);
        if !delivered.is_empty() && !in_registers {
            copies.record(CopyOp::E, delivered.len());
        }
        let vals = match vals {
            Ok(v) => v,
            Err(e) => {
                // Unwind: the client thread resumes with the error.
                self.return_to_client(client, thread, server, &server_thread, cpu, &mut meter);
                return Err(e);
            }
        };
        // Run the handler on the server's concrete thread; a panicking
        // procedure is failure-isolated into a fault the client observes.
        let handler = &server.handlers[proc_index];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&vals)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "server procedure panicked".to_string());
                Err(CallError::ServerFault(format!(
                    "unhandled exception: {msg}"
                )))
            });
        let reply = match result {
            Ok(r) => r,
            Err(e) => {
                self.return_to_client(client, thread, server, &server_thread, cpu, &mut meter);
                return Err(e);
            }
        };

        // Server stub: the server places results directly into the reply
        // message.
        let n_out = proc.def.params.iter().filter(|p| p.dir.is_out()).count() as u64
            + u64::from(proc.def.ret.is_some());
        let reply_payload = marshal::marshal_reply(proc, reply.ret.as_ref(), &reply.outs)?;
        let out_in_registers = cost
            .register_window
            .is_some_and(|w| reply_payload.len() <= w);
        if out_in_registers {
            let regs = reply_payload.len().div_ceil(4) as u64;
            charge(cpu, &mut meter, Phase::ArgCopy, cost.per_register_op * regs);
        } else {
            charge(cpu, &mut meter, Phase::Marshal, cost.per_marshal_op * n_out);
            charge(
                cpu,
                &mut meter,
                Phase::Marshal,
                cost.per_byte_out * reply_payload.len() as u64,
            );
        }
        let mut reply_msg = Message::reply(proc_index, reply_payload);

        // Return transfer (second trap, reply copies, buffer release,
        // second half of validation/scheduling/dispatch).
        let lock_guard = if shared {
            Some(self.global_lock.lock())
        } else {
            None
        };
        self.kernel.trap(cpu, &mut meter);
        charge(
            cpu,
            &mut meter,
            Phase::Validation,
            frac(cost.validation, 50),
        );
        match cost.variant {
            CopyVariant::FullCopy if !reply_msg.is_empty() && !out_in_registers => {
                reply_msg = reply_msg.copy_hop();
                copies.record(CopyOp::B, reply_msg.len());
                reply_msg = reply_msg.copy_hop();
                copies.record(CopyOp::C, reply_msg.len());
            }
            CopyVariant::Restricted if !reply_msg.is_empty() && !out_in_registers => {
                reply_msg = reply_msg.copy_hop();
                copies.record(CopyOp::B, reply_msg.len());
            }
            CopyVariant::FullCopy | CopyVariant::Restricted => {}
            CopyVariant::SharedBuffers => {}
        }
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::MessageTransfer,
            frac(cost.transfer, 40),
            lock_label,
        );
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::BufferManagement,
            frac(cost.buffer_mgmt, 50),
            lock_label,
        );
        let return_half = cost.scheduling - sched_half;
        let return_locked = (sched_locked_total - call_locked).min(return_half);
        charge_maybe_locked(
            cpu,
            &mut meter,
            Phase::Scheduling,
            return_locked,
            lock_label,
        );
        charge(
            cpu,
            &mut meter,
            Phase::Scheduling,
            return_half - return_locked,
        );
        drop(lock_guard);

        // Back to the client.
        self.return_to_client(client, thread, server, &server_thread, cpu, &mut meter);
        charge(cpu, &mut meter, Phase::Dispatch, frac(cost.dispatch, 30));

        // Client stub: unmarshal results into their destination (copy F).
        charge(cpu, &mut meter, Phase::Marshal, frac(cost.stubs, 20));
        let (ret, outs) = marshal::unmarshal_reply(proc, &reply_msg.payload)?;
        if !reply_msg.is_empty() && !out_in_registers {
            copies.record(CopyOp::F, reply_msg.len());
        }

        Ok(MsgCallOutcome {
            ret,
            outs,
            elapsed: cpu.now() - start,
            meter,
            copies,
        })
    }

    fn return_to_client(
        &self,
        client: &Arc<Domain>,
        client_thread: &Arc<Thread>,
        server: &Arc<MsgServer>,
        server_thread: &Arc<Thread>,
        cpu: &Cpu,
        meter: &mut Meter,
    ) {
        cpu.switch_context(client.ctx().id(), self.kernel.machine().cost(), meter);
        server.receivers.end_dispatch(server_thread);
        client_thread.set_status(ThreadStatus::Running);
    }
}

fn charge(cpu: &Cpu, meter: &mut Meter, phase: Phase, amount: Nanos) {
    cpu.charge(amount);
    meter.record_span(phase, amount, cpu.now());
}

fn charge_maybe_locked(
    cpu: &Cpu,
    meter: &mut Meter,
    phase: Phase,
    amount: Nanos,
    lock: Option<&'static str>,
) {
    cpu.charge(amount);
    meter.record_locked_span(phase, amount, lock, cpu.now());
}

/// `pct` percent of `total`.
fn frac(total: Nanos, pct: u64) -> Nanos {
    Nanos::from_nanos(total.as_nanos() * pct / 100)
}
