//! The LRPC call and return path (Section 3.2).
//!
//! "A client makes an LRPC by calling into its stub procedure which is
//! responsible for initiating the domain transfer. ... At call time, the
//! stub takes an A-stack off the queue, pushes the procedure's arguments
//! onto the A-stack, puts the address of the A-stack, the Binding Object
//! and a procedure identifier into registers, and traps to the kernel."
//!
//! The kernel then, in the context of the client's thread: verifies the
//! Binding and procedure identifier; verifies the A-stack and locates the
//! corresponding linkage; ensures no other thread is using that
//! A-stack/linkage pair; records the caller's return address; pushes the
//! linkage onto the thread's linkage stack; finds an execution stack in the
//! server's domain; switches the virtual-memory context (or exchanges
//! processors with one idling in the server's context, Section 3.4); and
//! performs an upcall into the server's stub.
//!
//! Every step here is *functional* — real validation, real byte copies
//! through the pairwise-shared A-stack, real linkage-stack manipulation —
//! and each step also charges its calibrated cost to the executing
//! simulated CPU, so the virtual clock reproduces the paper's latencies.
//!
//! # Stages
//!
//! The per-call steps are stages over one in-flight call value
//! (`InFlight`), whose `Drop` releases whatever the call still holds:
//!
//! * **client push** (`begin`, `push`): procedure-call and client-stub
//!   charges, A-stack acquire, argument push (copy A), and the
//!   out-of-band transport of oversized arguments;
//! * **kernel claim** (`claim`): procedure range check, A-stack validation
//!   (charging the overflow path), linkage-slot claim and record;
//! * **E-stack association** (`associate_estack`);
//! * **server serve** (`serve`): stub entry, out-of-band rebuild, argument
//!   read (copy E), the ring's liveness re-check, dispatch, stub return,
//!   result place;
//! * **client fetch** (`fetch`): stub return, result fetch (copy F),
//!   resource release, statistics and the [`CallOutcome`].
//!
//! Two front-ends run them, each on the `Binding` it serves: the serial
//! `lrpc_call` below and the ring's batch of [`crate::ring`]. A front-end
//! decides only which meter the crossing phases (traps, kernel transfers,
//! context switches) land on, where the stages sit around its crossing,
//! which fault sites it probes, and whether the serve stage re-checks
//! domain liveness. The serial path associates the E-stack before it
//! transfers into the server, probes `call:astacks` and `call:binding`,
//! and may exchange processors; the ring associates per drained call
//! after its one switch, probes `batch:binding`, and never exchanges.
//! Only the ring re-checks liveness before dispatch, because an earlier
//! call of its batch may have terminated the server. A serial call must
//! not: a termination racing its dispatch surfaces as call-failed on
//! return (Section 5.3).

use std::cell::{Cell, RefCell};
use std::mem;
use std::sync::Arc;

use firefly::cpu::Cpu;
use firefly::error::MemFault;
use firefly::fault::FaultPlan;
use firefly::mem::{PageId, Region};
use firefly::meter::{Meter, Phase, TraceId};
use firefly::time::Nanos;
use firefly::vm::VmContext;
use idl::copyops::{CopyLog, CopyOp};
use idl::plan::ArgVec;
use idl::stubvm::{needs_server_copy, Frame, OobStore, StubError, StubVm};
use idl::wire::Value;
use kernel::objects::RawHandle;
use kernel::thread::{Linkage, ReturnPath, Thread};
use kernel::Domain;

use crate::astack::{AStackPolicy, AStackRef, LinkageSlot};
use crate::binding::{Binding, BindingState, BindingStats, ServerCtx};
use crate::error::CallError;
use crate::runtime::LrpcRuntime;

/// Extra validation time for an A-stack outside the primary contiguous
/// region (Section 5.2: "A-stacks in this space ... will take slightly
/// more time to validate during a call").
const OVERFLOW_VALIDATION_COST: Nanos = Nanos::from_micros(3);

/// One-time cost of allocating a fresh E-stack out of the server domain
/// (the lazy-association slow path).
const ESTACK_ALLOC_COST: Nanos = Nanos::from_micros(10);

/// Cost of mapping and unmapping a per-call out-of-band segment
/// ("Handling unexpectedly large parameters is complicated and relatively
/// expensive, but infrequent", Section 5.2). Steady-state large calls
/// avoid it entirely by leasing a chunk of the binding's bind-time
/// [`crate::bulk::BulkArena`]; only the fallback path (payload over the
/// chunk size, or arena exhausted) still pays it.
pub const OOB_SEGMENT_COST: Nanos = Nanos::from_micros(20);

/// Name of the per-class A-stack queue lock, for lock-time attribution.
/// The queue operation (acquire or requeue) is a lock-free pop or push,
/// whose virtual-time charge still models the paper's locked queue.
pub const ASTACK_QUEUE_LOCK: &str = "astack-queue";

/// Everything a completed call reports.
#[derive(Debug)]
pub struct CallOutcome {
    /// The procedure's return value, if declared.
    pub ret: Option<Value>,
    /// Out/inout parameter results as `(param_index, value)`.
    pub outs: Vec<(usize, Value)>,
    /// Virtual time the call took on the calling thread.
    pub elapsed: Nanos,
    /// Phase-by-phase time breakdown (enabled calls only).
    pub meter: Meter,
    /// The copy operations performed (Table 3).
    pub copies: CopyLog,
    /// True if the call-direction transfer used a processor exchange.
    pub exchanged_on_call: bool,
    /// True if the return-direction transfer used a processor exchange.
    pub exchanged_on_return: bool,
    /// The CPU the thread ended on (differs from the start CPU after an
    /// odd number of exchanges).
    pub end_cpu: usize,
    /// The call's identity in the flight recorder: every span this call
    /// emitted carries this id, so `obs::flight::spans_for(outcome.trace)`
    /// isolates exactly this call's phases.
    pub trace: TraceId,
}

/// A stub-VM frame backed by a slice of a (pairwise-shared) A-stack
/// region, with protection checks and TLB page touches.
struct AStackFrame<'a> {
    cpu: &'a Cpu,
    ctx: &'a VmContext,
    region: &'a Region,
    base: usize,
    len: usize,
    misses: Cell<u64>,
}

impl AStackFrame<'_> {
    /// Range and protection check, then the TLB touch of the accessed
    /// pages.
    fn access(&self, offset: usize, len: usize, write: bool) -> Result<(), StubError> {
        if offset + len > self.len {
            return Err(StubError::Frame(MemFault::OutOfRange {
                region: self.region.id(),
                offset: self.base + offset,
                len,
            }));
        }
        self.ctx
            .check(self.region.id(), write, false)
            .map_err(StubError::Frame)?;
        let n = self.cpu.touch_pages(
            self.region.pages_for(self.base + offset, len.max(1)),
            &mut Meter::disabled(),
        );
        self.misses.set(self.misses.get() + n);
        Ok(())
    }
}

impl Frame for AStackFrame<'_> {
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), StubError> {
        self.access(offset, data.len(), true)?;
        self.region
            .write_raw(self.base + offset, data)
            .map_err(StubError::Frame)
    }

    fn read_into(&self, offset: usize, out: &mut [u8]) -> Result<(), StubError> {
        self.access(offset, out.len(), false)?;
        self.region
            .read_raw(self.base + offset, out)
            .map_err(StubError::Frame)
    }
}

/// Runs one stub half against `aref`'s frame under `ctx`, then books the
/// TLB misses its page touches took on `meter`.
fn on_frame<R>(
    cpu: &Cpu,
    ctx: &VmContext,
    aref: &AStackRef,
    meter: &mut Meter,
    half: impl FnOnce(&mut AStackFrame<'_>, &mut Meter) -> R,
) -> R {
    let mut frame = AStackFrame {
        cpu,
        ctx,
        region: &aref.region,
        base: aref.offset,
        len: aref.size,
        misses: Cell::new(0),
    };
    let r = half(&mut frame, meter);
    meter.add_tlb_misses(frame.misses.get());
    r
}

/// Touches a stage's working-set pages and then, if the call holds one,
/// the first page of its A-stack, as one TLB run (one lock take).
fn touch_stage(cpu: &Cpu, set: &[PageId], astack: Option<&AStackRef>, meter: &mut Meter) {
    let astack_page = astack.map(|a| a.region.pages_for(a.offset, 1));
    cpu.touch_pages(
        set.iter().copied().chain(astack_page.into_iter().flatten()),
        meter,
    );
}

/// Where one call's in-direction out-of-band segments travel: a chunk of
/// the binding's bind-time bulk arena (steady state) or a freshly mapped
/// per-call segment (fallback). Either way the bytes cross domains through
/// a pairwise-shared region under the server's protection checks.
struct OobTransport {
    region: Arc<Region>,
    base: usize,
    /// The leased arena chunk; `None` for a per-call segment.
    chunk: Option<usize>,
}

/// One LRPC in flight: what its stages hand each other, and every
/// resource it holds. Dropping it releases whatever it still holds.
pub(crate) struct InFlight<'a> {
    rt: &'a Arc<LrpcRuntime>,
    state: &'a Arc<BindingState>,
    thread: &'a Arc<Thread>,
    proc_index: usize,
    start: Nanos,
    trace: TraceId,
    /// The call's own meter; enabled iff the call is metered.
    meter: Meter,
    copies: CopyLog,
    astack: Option<AStackRef>,
    /// In-direction segments from the push; the server's place appends
    /// the out-direction ones.
    oob: OobStore,
    transport: Option<OobTransport>,
    slot: Option<Arc<LinkageSlot>>,
    estack_key: Option<u64>,
    /// True while the serial front-end's linkage is on the thread.
    linkage_pushed: bool,
    exchanged_on_call: bool,
    exchanged_on_return: bool,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<'a> InFlight<'a> {
    /// Opens the client push: the formal procedure call into the client
    /// stub — the only procedure call a simple LRPC needs on the client
    /// side.
    pub(crate) fn begin(
        rt: &'a Arc<LrpcRuntime>,
        state: &'a Arc<BindingState>,
        thread: &'a Arc<Thread>,
        cpu: &Cpu,
        proc_index: usize,
        metered: bool,
    ) -> InFlight<'a> {
        let mut meter = if metered {
            Meter::enabled()
        } else {
            Meter::disabled()
        };
        // Every call — metered or not — carries a TraceId, so the flight
        // recorder (when enabled) captures phase spans even from throughput
        // loops that skip per-call segment metering. One relaxed fetch_add.
        let trace = TraceId::next();
        meter.set_trace(trace);
        let start = cpu.now();
        let cost = rt.kernel().machine().cost();
        meter.charge(cpu, Phase::ProcedureCall, cost.hw.procedure_call);
        InFlight {
            rt,
            state,
            thread,
            proc_index,
            start,
            trace,
            meter,
            copies: CopyLog::new(),
            astack: None,
            oob: OobStore::new(),
            transport: None,
            slot: None,
            estack_key: None,
            linkage_pushed: false,
            exchanged_on_call: false,
            exchanged_on_return: false,
        }
    }

    /// The procedure called.
    pub(crate) fn proc_index(&self) -> usize {
        self.proc_index
    }

    /// The held A-stack's index (`usize::MAX` before the push).
    pub(crate) fn astack_index(&self) -> usize {
        self.astack.as_ref().map_or(usize::MAX, |a| a.index)
    }

    /// Client push: loads the client's context (charged to `crossing`, or
    /// to the call's own meter), enters the client stub, acquires an
    /// A-stack, pushes the arguments onto it (copy A of Table 3) and moves
    /// oversized ones through the out-of-band transport.
    ///
    /// `steal` probes the `call:astacks` fault site; `holding` says the
    /// caller already holds A-stacks of its own (see [`acquire_policy`]).
    pub(crate) fn push(
        &mut self,
        cpu: &Cpu,
        args: &[Value],
        crossing: Option<&mut Meter>,
        fault: Option<&FaultPlan>,
        steal: bool,
        holding: bool,
    ) -> Result<(), CallError> {
        let (rt, state) = (self.rt, self.state);
        let cost = rt.kernel().machine().cost();
        let proc = state
            .interface
            .procs
            .get(self.proc_index)
            .ok_or(CallError::BadProcedure {
                index: self.proc_index,
            })?;
        // The copy plan compiled for this procedure at export: offsets,
        // checks and cost totals all hoisted out of the call. A half that
        // could not be specialized is `None` and runs the interpreter.
        let plan = &state.plans.procs[self.proc_index];
        let client_ctx = state.client.ctx();

        // First call on this CPU: the client's context must be loaded.
        cpu.switch_context(client_ctx.id(), cost, crossing.unwrap_or(&mut self.meter));
        self.meter
            .charge(cpu, Phase::ClientStub, cost.client_stub_call);

        let class = state.astacks.class_of_proc(self.proc_index);
        // Fault injection: drain the class's free list so this acquire faces
        // genuine exhaustion and takes the real Section 5.2 path (fail, or
        // overflow growth under `Grow`). The stolen stacks go straight back
        // afterwards, so nothing leaks across calls.
        let mut stolen = Vec::new();
        if steal && fault.is_some_and(|plan| plan.exhaust_astacks("call:astacks")) {
            while let Ok(idx) = state.astacks.acquire(
                class,
                AStackPolicy::Fail,
                rt.kernel(),
                &state.client,
                &state.server,
            ) {
                stolen.push(idx);
            }
        }
        let policy = acquire_policy(rt.config().astack_policy, holding || !stolen.is_empty());
        let acquired =
            state
                .astacks
                .acquire(class, policy, rt.kernel(), &state.client, &state.server);
        for idx in stolen {
            state.astacks.release(idx);
        }
        self.astack = acquired
            .as_ref()
            .ok()
            .and_then(|&idx| state.astacks.lookup(idx));
        // The stub's pages, then the A-stack its queue management and
        // register setup touch; a refused call touches the stub's alone.
        touch_stage(
            cpu,
            state.touch.client_call(),
            self.astack.as_ref(),
            &mut self.meter,
        );
        acquired?;
        self.meter.charge_locked(
            cpu,
            Phase::QueueOp,
            cost.astack_queue_op,
            Some(ASTACK_QUEUE_LOCK),
        );
        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        on_frame(cpu, client_ctx, aref, &mut self.meter, |frame, meter| {
            let mut vm = StubVm::new(cost, cpu, meter);
            match &plan.push {
                Some(p) => p.execute(proc, args, frame, &mut vm),
                None => vm.client_push_args(proc, args, frame, &mut self.oob),
            }
        })?;
        if self.meter.is_enabled() {
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_in() {
                    self.copies.record(CopyOp::A, slot.size);
                }
            }
        }

        // Oversized/complex values travel in a real out-of-band memory
        // segment, pairwise-mapped like the A-stacks, rather than in host
        // memory: write the marshaled segments into it and reread them on
        // the server side under the server's protection context. Steady
        // state leases a chunk of the bind-time bulk arena (no map/unmap);
        // the per-call segment survives as the fallback for payloads over
        // the chunk size or an exhausted arena.
        if self.oob.is_empty() {
            return Ok(());
        }
        let total: usize = self.oob.iter().map(|s| s.len() + 8).sum();
        state.stats.observe_bulk_bytes(total as u64);
        // Fault injection: present the arena as exhausted, so this call
        // exercises the real per-call fallback path.
        let exhausted = fault.is_some_and(|plan| plan.exhaust_bulk("call:bulk"));
        let leased = state
            .bulk
            .as_ref()
            .filter(|_| !exhausted)
            .and_then(|arena| Some((arena, arena.acquire(total)?)));
        let t = self.transport.insert(match leased {
            Some((arena, chunk)) => OobTransport {
                region: Arc::clone(arena.region()),
                base: chunk.offset,
                chunk: Some(chunk.index),
            },
            None => {
                state.stats.note_bulk_fallback();
                self.meter.charge(cpu, Phase::OobSegment, OOB_SEGMENT_COST);
                OobTransport {
                    region: rt.kernel().map_pairwise(
                        "oob-segment",
                        &state.client,
                        &state.server,
                        total.max(8),
                    ),
                    base: 0,
                    chunk: None,
                }
            }
        });
        let mut off = t.base;
        for seg in &self.oob {
            let mut hdr = [0u8; 8];
            hdr[..4].copy_from_slice(&(seg.len() as u32).to_le_bytes());
            t.region.write_raw(off, &hdr)?;
            t.region.write_raw(off + 8, seg)?;
            cpu.touch_pages(
                t.region.pages_for(off, seg.len() + 8),
                &mut Meter::disabled(),
            );
            off += seg.len() + 8;
        }
        Ok(())
    }

    /// Kernel claim against the validated binding `kstate`: the procedure
    /// range check, A-stack validation (charging the slower overflow path),
    /// and the claim of the A-stack's linkage slot, which records the
    /// caller's return linkage. Returns that linkage; the front-end decides
    /// whether it goes on the thread's linkage stack.
    pub(crate) fn claim(
        &mut self,
        cpu: &Cpu,
        kstate: &BindingState,
        handle: RawHandle,
        return_sp: u64,
    ) -> Result<Linkage, CallError> {
        if self.proc_index >= kstate.interface.procs.len() {
            return Err(CallError::BadProcedure {
                index: self.proc_index,
            });
        }
        // Verify the A-stack and locate the corresponding linkage.
        let index = self.astack_index();
        let overflow = kstate
            .astacks
            .check(index, kstate.astacks.class_of_proc(self.proc_index))?;
        if overflow {
            self.meter
                .charge(cpu, Phase::Validation, OVERFLOW_VALIDATION_COST);
        }
        let slot = kstate.astacks.linkage(index).ok_or(CallError::BadAStack)?;
        // Ensure no other thread is using the A-stack/linkage pair.
        if !slot.try_claim() {
            return Err(CallError::AStackBusy);
        }
        // Record the caller's return address and stack pointer.
        let linkage = Linkage {
            caller_domain: kstate.client.id(),
            callee_domain: kstate.server.id(),
            binding: handle,
            astack_index: index,
            proc_index: self.proc_index,
            return_sp,
            valid: true,
        };
        slot.set_record(linkage);
        self.slot = Some(slot);
        Ok(linkage)
    }

    /// E-stack association: finds an execution stack in the server's
    /// domain (lazily, charging a fresh allocation) and points the thread's
    /// user stack pointer at it. The association key is the A-stack's
    /// global identity (region + index), so distinct bindings never
    /// collide.
    pub(crate) fn associate_estack(&mut self, cpu: &Cpu) -> Result<(), CallError> {
        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        let key = (aref.region.id().0 << 24) | aref.index as u64;
        let (estack, fresh) = self.state.estack_pool.get_for_call(self.rt.kernel(), key);
        self.estack_key = Some(key);
        if fresh {
            self.meter.charge(cpu, Phase::Other, ESTACK_ALLOC_COST);
        }
        self.thread.set_user_sp(estack.id().0 << 32);
        // The kernel primes the E-stack with the initial call frame expected
        // by the server's procedure, "enabling the server stub to branch to
        // the first instruction of the procedure".
        let mut frame_header = [0u8; 16];
        frame_header[..4].copy_from_slice(&(self.proc_index as u32).to_le_bytes());
        frame_header[4..8].copy_from_slice(&(aref.index as u32).to_le_bytes());
        frame_header[8..].copy_from_slice(&0xF1FE_F1FE_CA11_F4A3u64.to_le_bytes());
        estack.write_raw(0, &frame_header)?;
        Ok(())
    }

    /// Server serve, on the migrated thread in the server's context: the
    /// upcall into the server stub, the out-of-band rebuild, the argument
    /// read (copy E), the server procedure itself, and the result place.
    /// `exchanged` says the transfer in was a processor exchange.
    /// `recheck_liveness` re-checks both domains just before dispatch: a
    /// batch's earlier calls may have terminated the server since the
    /// crossing's kernel check. A serial call must not re-check: a
    /// termination racing its dispatch surfaces as call-failed on return.
    pub(crate) fn serve(
        &mut self,
        cpu: &Cpu,
        exchanged: bool,
        recheck_liveness: bool,
    ) -> Result<(), CallError> {
        let (rt, state) = (self.rt, self.state);
        let cost = rt.kernel().machine().cost();
        let server_ctx = state.server.ctx();
        let proc = &state.interface.procs[self.proc_index];
        let plan = &state.plans.procs[self.proc_index];
        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;

        self.meter
            .charge(cpu, Phase::ServerStub, cost.server_stub_entry);
        touch_stage(cpu, state.touch.server_side(), Some(aref), &mut self.meter);
        self.exchanged_on_call = exchanged;
        if exchanged && plan.in_bytes > 0 {
            // The arguments were written into the other processor's cache.
            self.meter.charge(
                cpu,
                Phase::ArgCopy,
                cost.remote_access_per_byte * plan.in_bytes as u64,
            );
        }

        // Rebuild the out-of-band store from the shared segment, with the
        // server's protection context enforced.
        let mut server_oob = OobStore::new();
        if let Some(t) = &self.transport {
            server_ctx.check(t.region.id(), false, false)?;
            let mut off = t.base;
            for _ in 0..self.oob.len() {
                let mut hdr = [0u8; 8];
                t.region.read_raw(off, &mut hdr)?;
                let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
                server_oob.push(t.region.read_vec(off + 8, len)?);
                cpu.touch_pages(t.region.pages_for(off, len + 8), &mut Meter::disabled());
                off += len + 8;
            }
        }

        let sargs = on_frame(cpu, server_ctx, aref, &mut self.meter, |frame, meter| {
            let mut vm = StubVm::new(cost, cpu, meter);
            match &plan.read {
                Some(rp) => {
                    let mut out = ArgVec::new();
                    rp.execute(frame, &mut vm, &mut out).map(|()| out)
                }
                None => vm
                    .server_read_args(proc, frame, &server_oob)
                    .map(ArgVec::from_vec),
            }
        })?;
        if self.meter.is_enabled() {
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_in() && needs_server_copy(p, proc.def.inplace) {
                    self.copies.record(CopyOp::E, slot.size);
                }
            }
        }

        if recheck_liveness && (!state.server.is_active() || !state.client.is_active()) {
            return Err(CallError::DomainDead);
        }
        // Run the server procedure on the client's (migrated) thread.
        let sctx = ServerCtx {
            rt,
            thread: self.thread,
            domain: &state.server,
            cpu_id: cpu.id(),
            meter: RefCell::new(&mut self.meter),
        };
        let reply = state
            .clerk
            .dispatch(self.proc_index, &sctx, sargs.as_slice())?;

        // ---- Server stub, return half ---------------------------------
        self.meter
            .charge(cpu, Phase::ServerStub, cost.server_stub_return);
        on_frame(
            cpu,
            server_ctx,
            aref,
            &mut self.meter,
            |frame, meter| match &plan.place {
                Some(p) => p.execute(reply.ret.as_ref(), &reply.outs, frame),
                None => StubVm::new(cost, cpu, meter).server_place_results(
                    proc,
                    reply.ret.as_ref(),
                    &reply.outs,
                    frame,
                    &mut self.oob,
                ),
            },
        )?;
        Ok(())
    }

    /// Kernel return for this call: releases its linkage slot and ends its
    /// E-stack's call (the A-stack/E-stack association is kept for reuse).
    pub(crate) fn kernel_return(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.release();
        }
        if let Some(key) = self.estack_key.take() {
            self.state.estack_pool.end_call(key);
        }
    }

    /// Client fetch, back in the client's context: the client stub's
    /// return half copies the results from the A-stack straight into their
    /// final destination (copy F of Table 3), then the call's resources go
    /// back. `exchanged` says the transfer back was a processor exchange.
    pub(crate) fn fetch(mut self, cpu: &Cpu, exchanged: bool) -> Result<CallOutcome, CallError> {
        let state = self.state;
        let cost = self.rt.kernel().machine().cost();
        let proc = &state.interface.procs[self.proc_index];
        let plan = &state.plans.procs[self.proc_index];

        self.meter
            .charge(cpu, Phase::ClientStub, cost.client_stub_return);
        touch_stage(
            cpu,
            state.touch.client_return(),
            self.astack.as_ref(),
            &mut self.meter,
        );
        self.exchanged_on_return = exchanged;
        if exchanged && plan.out_bytes > 0 {
            self.meter.charge(
                cpu,
                Phase::ArgCopy,
                cost.remote_access_per_byte * plan.out_bytes as u64,
            );
        }
        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        let (ret, outs) = on_frame(
            cpu,
            state.client.ctx(),
            aref,
            &mut self.meter,
            |frame, meter| {
                let mut vm = StubVm::new(cost, cpu, meter);
                match &plan.fetch {
                    Some(p) => p.execute(frame, &mut vm),
                    None => vm.client_fetch_results(proc, frame, &self.oob),
                }
            },
        )?;
        if self.meter.is_enabled() {
            if let Some(slot) = &proc.layout.ret {
                self.copies.record(CopyOp::F, slot.size);
            }
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_out() {
                    self.copies.record(CopyOp::F, slot.size);
                }
            }
        }

        // Return the bulk-arena chunk or reclaim the per-call segment, and
        // requeue the A-stack (LIFO).
        self.release();
        self.meter.charge_locked(
            cpu,
            Phase::QueueOp,
            cost.astack_queue_op,
            Some(ASTACK_QUEUE_LOCK),
        );
        if self.meter.is_enabled() {
            // Virtual time the four stub halves cost this call, for the
            // per-interface `lrpc_stub_ns` histogram.
            state.stats.observe_stub_ns(
                self.meter.total_for(Phase::ClientStub)
                    + self.meter.total_for(Phase::ServerStub)
                    + self.meter.total_for(Phase::ArgCopy)
                    + self.meter.total_for(Phase::Marshal),
            );
        }
        Ok(self.finish(cpu, ret, outs))
    }

    /// Completes the call: elapsed time, call count, latency histograms.
    fn finish(mut self, cpu: &Cpu, ret: Option<Value>, outs: Vec<(usize, Value)>) -> CallOutcome {
        let elapsed = cpu.now() - self.start;
        let stats = &self.state.stats;
        stats.note_call();
        stats.observe_latency(elapsed);
        stats.observe_tail_latency(elapsed);
        CallOutcome {
            ret,
            outs,
            elapsed,
            meter: mem::take(&mut self.meter),
            copies: mem::take(&mut self.copies),
            exchanged_on_call: self.exchanged_on_call,
            exchanged_on_return: self.exchanged_on_return,
            end_cpu: cpu.id(),
            trace: self.trace,
        }
    }

    /// Releases whatever the call still holds, newest first.
    fn release(&mut self) {
        if mem::take(&mut self.linkage_pushed) {
            let _ = self.thread.pop_linkage();
        }
        self.kernel_return();
        if let Some(t) = self.transport.take() {
            match (t.chunk, &self.state.bulk) {
                (Some(chunk), Some(arena)) => arena.release(chunk),
                (Some(_), None) => {}
                (None, _) => {
                    self.state.client.ctx().unmap(t.region.id());
                    self.state.server.ctx().unmap(t.region.id());
                    self.rt.kernel().machine().mem().free(t.region.id());
                }
            }
        }
        if let Some(a) = self.astack.take() {
            self.state.astacks.release(a.index);
        }
    }
}

/// The exhaustion policy for an A-stack acquire. A caller already holding
/// A-stacks (stolen by fault injection, or pending in its own batch) must
/// not wait: waiting would block on stacks this very call is holding
/// hostage, so `Wait` fails at once. Growing still works while exhausted.
fn acquire_policy(configured: AStackPolicy, holding: bool) -> AStackPolicy {
    match configured {
        AStackPolicy::Wait(_) if holding => AStackPolicy::Fail,
        policy => policy,
    }
}

/// The kernel's entry half of a crossing, after the trap: the transfer
/// charge and working set, then verification of the Binding Object and
/// that both domains are alive. Fault injection at `forge_site` presents a
/// forged Binding Object (wrong nonce), so the kernel's own validation —
/// not a shortcut — rejects it. Returns the validated binding and the
/// handle presented.
pub(crate) fn kernel_entry(
    rt: &LrpcRuntime,
    cpu: &Cpu,
    meter: &mut Meter,
    state: &BindingState,
    fault: Option<&FaultPlan>,
    forge_site: &str,
    handle: RawHandle,
) -> Result<(Arc<BindingState>, RawHandle), CallError> {
    let cost = rt.kernel().machine().cost();
    meter.charge(cpu, Phase::KernelTransfer, cost.kernel_transfer_call);
    cpu.touch_pages(state.touch.kernel_call().iter().copied(), meter);
    let handle = match fault {
        Some(plan) if plan.forge_binding(forge_site) => RawHandle {
            id: handle.id,
            nonce: handle.nonce ^ 0xDEAD_BEEF,
        },
        _ => handle,
    };
    let kstate = rt.validate_binding(handle)?;
    if !kstate.server.is_active() || !kstate.client.is_active() {
        return Err(CallError::DomainDead);
    }
    Ok((kstate, handle))
}

/// The return trap and the kernel's return transfer. "Unlike the call ...
/// this information, contained at the top of the linkage stack referenced
/// by the thread's control block, is implicit in the return. There is no
/// need to verify the returning thread's right to transfer back."
pub(crate) fn kernel_exit(rt: &LrpcRuntime, cpu: &Cpu, meter: &mut Meter, state: &BindingState) {
    rt.kernel().trap(cpu, meter);
    let cost = rt.kernel().machine().cost();
    meter.charge(cpu, Phase::KernelTransfer, cost.kernel_transfer_return);
    cpu.touch_pages(state.touch.kernel_return().iter().copied(), meter);
}

/// Pops the crossing's linkage and restores the caller's saved stack
/// pointer. A domain involved in the crossing that terminated while the
/// thread was out raises call-failed; an abandoned thread is destroyed
/// (call-aborted).
pub(crate) fn pop_linkage(
    rt: &LrpcRuntime,
    thread: &Thread,
    caller: &Domain,
) -> Result<(), CallError> {
    match thread.pop_linkage() {
        ReturnPath::Return { to, call_failed } => {
            thread.set_user_sp(to.return_sp);
            if call_failed || to.caller_domain != caller.id() {
                return Err(CallError::CallFailed);
            }
            Ok(())
        }
        ReturnPath::DestroyThread => {
            let aborted = thread.is_abandoned();
            rt.kernel().reap_thread(thread.id());
            Err(if aborted {
                CallError::CallAborted
            } else {
                CallError::CallFailed
            })
        }
    }
}

/// Transfers the calling thread from `from`'s context into `to`'s: with
/// domain caching on, it exchanges processors with one idling in `to`'s
/// context (Section 3.4) — the thread continues there, and the idling
/// thread keeps idling on the original processor — else it switches this
/// CPU's context. Returns the CPU the thread continues on and whether it
/// exchanged.
fn transfer<'c>(
    rt: &'c LrpcRuntime,
    cpu: &'c Cpu,
    from: &Domain,
    to: &Domain,
    stats: &BindingStats,
    meter: &mut Meter,
) -> (&'c Cpu, bool) {
    let machine = rt.kernel().machine();
    if rt.config().domain_caching {
        if let Some(idle) = machine.claim_idle_cpu_in(to.ctx().id()) {
            let target = machine.cpu(idle);
            target.advance_to(cpu.now());
            cpu.set_idle_in(Some(from.ctx().id()));
            meter.charge(
                target,
                Phase::ProcessorExchange,
                machine.cost().processor_exchange,
            );
            stats.note_cache_hit();
            return (target, true);
        }
        to.note_idle_miss();
        stats.note_cache_miss();
    }
    cpu.switch_context(to.ctx().id(), machine.cost(), meter);
    (cpu, false)
}

/// The serial LRPC: one call, one trap pair, the crossing phases on the
/// call's own meter. Returns the outcome or the raised exception, which
/// it counts as the binding's failure.
pub(crate) fn lrpc_call(
    binding: &Binding,
    cpu_start: usize,
    thread: &Arc<Thread>,
    proc_index: usize,
    args: &[Value],
    metered: bool,
) -> Result<CallOutcome, CallError> {
    let (rt, client_state) = (binding.runtime(), binding.state());
    let cross = || {
        let cpu = rt.kernel().machine().cpu(cpu_start);
        let mut call = InFlight::begin(rt, client_state, thread, cpu, proc_index, metered);

        // "Deciding whether a call is cross-domain or cross-machine is made
        // at the earliest possible moment — the first instruction of the
        // stub."
        if client_state.remote {
            let transport = rt.remote_transport().ok_or(CallError::NoRemoteTransport)?;
            client_state.stats.note_remote();
            let (ret, outs) = transport.call(
                &client_state.interface.name,
                proc_index,
                args,
                cpu,
                &mut call.meter,
            )?;
            return Ok(call.finish(cpu, ret, outs));
        }

        let fault = rt.fault_plan();
        call.push(cpu, args, None, fault.as_deref(), true, false)?;
        rt.kernel().trap(cpu, &mut call.meter);
        let (state, handle) = kernel_entry(
            rt,
            cpu,
            &mut call.meter,
            client_state,
            fault.as_deref(),
            "call:binding",
            binding.handle(),
        )?;
        let linkage = call.claim(cpu, &state, handle, thread.user_sp())?;
        thread.push_linkage(linkage);
        call.linkage_pushed = true;
        call.associate_estack(cpu)?;

        let (cpu, exchanged) = transfer(
            rt,
            cpu,
            &state.client,
            &state.server,
            &state.stats,
            &mut call.meter,
        );
        call.serve(cpu, exchanged, false)?;

        kernel_exit(rt, cpu, &mut call.meter, &state);
        call.kernel_return();
        call.linkage_pushed = false;
        pop_linkage(rt, thread, &state.client)?;

        let (cpu, exchanged) = transfer(
            rt,
            cpu,
            &state.server,
            &state.client,
            &state.stats,
            &mut call.meter,
        );
        call.fetch(cpu, exchanged)
    };
    let out = cross();
    if out.is_err() {
        client_state.stats.note_failure();
    }
    out
}
