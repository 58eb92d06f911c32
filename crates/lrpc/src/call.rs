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
//!   charges, A-stack acquire, the out-of-band transport's lease, argument
//!   push (copy A), oversized arguments straight into the transport;
//! * **kernel claim** (`claim`): procedure range check, A-stack validation
//!   (charging the overflow path), linkage-slot claim and record;
//! * **E-stack association** (`associate_estack`);
//! * **server serve** (`serve`): stub entry, argument read (copy E), out of
//!   band ones decoded straight out of the transport by the server's own
//!   segment table, the ring's liveness re-check, dispatch, stub return,
//!   result place, out-of-band ones straight into the transport;
//! * **client fetch** (`fetch`): stub return, result fetch (copy F), out of
//!   band ones decoded straight out of the transport, resource release,
//!   statistics and the [`CallOutcome`].
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
use idl::layout::{Slot, SlotKind, OOB_DESCRIPTOR_SIZE};
use idl::plan::ArgVec;
use idl::stubgen::CompiledProc;
use idl::stubvm::{needs_server_copy, Frame, OobSegments, StubError, StubVm};
use idl::types::Ty;
use idl::wire::{decode_as, encode_into, encoded_len, Value, WireError};
use kernel::objects::RawHandle;
use kernel::thread::{Linkage, ReturnPath, Thread};
use kernel::Domain;

use crate::astack::{AStackPolicy, AStackRef, LinkageSlot};
use crate::binding::{Binding, BindingState, BindingStats, Reply, ServerCtx};
use crate::bulk::BulkArena;
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

/// Where one call's out-of-band segments travel: a chunk of the binding's
/// bulk arena, or a per-call segment, checked against the accessing
/// domain's mapping table. The sender encodes each segment straight into it
/// behind a `[len | 0]` header; the receiver rebuilds its own table from
/// the headers and decodes each segment where it lies. Arguments go in from
/// the base, then results. Without a lease, a transport only sizes what is
/// appended, so a stub that cannot encode a value fails where it would.
#[derive(Default)]
struct OobTransport<'a> {
    lease: Option<Lease<'a>>,
    /// The span the call holds: `len` bytes from `base`.
    base: usize,
    len: usize,
    /// This side's segment table: each payload's offset and length.
    segs: SegTable,
}

/// What a transport holds for the call.
enum Lease<'a> {
    /// A chunk, by index, of the binding's arena (which outlives the call).
    Chunk(&'a BulkArena, usize),
    /// A per-call segment, unmapped and freed on release.
    Segment(Arc<Region>),
}

impl Lease<'_> {
    fn region(&self) -> &Region {
        match self {
            Lease::Chunk(arena, _) => arena.region(),
            Lease::Segment(region) => region,
        }
    }
}

/// A segment table kept inline up to `INLINE_SEGS` entries, so a call with
/// no more segments allocates none; past that, every entry is in `spill`.
#[derive(Default)]
struct SegTable {
    inline: [(usize, usize); INLINE_SEGS],
    spill: Vec<(usize, usize)>,
    len: usize,
}

const INLINE_SEGS: usize = 4;

impl SegTable {
    fn push(&mut self, seg: (usize, usize)) {
        match self.inline.get_mut(self.len) {
            Some(entry) => *entry = seg,
            None => {
                if self.len == INLINE_SEGS {
                    self.spill.extend_from_slice(&self.inline);
                }
                self.spill.push(seg);
            }
        }
        self.len += 1;
    }
}

impl std::ops::Deref for SegTable {
    type Target = [(usize, usize)];
    fn deref(&self) -> &Self::Target {
        self.inline.get(..self.len).unwrap_or(&self.spill)
    }
}

impl<'a> OobTransport<'a> {
    /// Readies the transport for the `need` bytes the `sender` puts in from
    /// its base (`None`: a value that cannot encode, which the stub then
    /// raises without a transport). One too small, or none, gives way to a
    /// new lease: an arena chunk, else (or if `exhausted`) a per-call
    /// segment, for which this returns true.
    fn ready(
        &mut self,
        rt: &LrpcRuntime,
        state: &'a BindingState,
        need: Option<usize>,
        exhausted: bool,
        sender: &VmContext,
    ) -> Result<bool, MemFault> {
        self.segs = SegTable::default();
        if need == Some(0) {
            return Ok(false);
        }
        let fits = self.lease.is_some() && need.is_some_and(|n| n <= self.len);
        if !fits {
            self.release(rt, state);
            let Some(need) = need else {
                return Ok(false);
            };
            let arena = state.bulk.as_deref().filter(|_| !exhausted);
            self.lease = Some(match arena.and_then(|a| Some((a, a.acquire(need)?))) {
                Some((arena, c)) => {
                    (self.base, self.len) = (c.offset, c.size);
                    Lease::Chunk(arena, c.index)
                }
                None => {
                    state.stats.note_bulk_fallback();
                    self.len = need.max(8);
                    let (client, server) = (&state.client, &state.server);
                    let seg = rt
                        .kernel()
                        .map_pairwise("oob-segment", client, server, self.len);
                    Lease::Segment(seg)
                }
            });
        }
        let lease = self.lease.as_ref().expect("a leased transport");
        sender.check(lease.region().id(), true, false)?;
        Ok(!fits && matches!(lease, Lease::Segment(_)))
    }

    /// Returns the arena chunk or unmaps and frees the per-call segment.
    fn release(&mut self, rt: &LrpcRuntime, state: &BindingState) {
        match mem::take(self).lease {
            None => {}
            Some(Lease::Chunk(arena, chunk)) => arena.release(chunk),
            Some(Lease::Segment(region)) => {
                state.client.ctx().unmap(region.id());
                state.server.ctx().unmap(region.id());
                rt.kernel().machine().mem().free(region.id());
            }
        }
    }

    /// The receiver's half: `ctx`'s read check, then the table of the first
    /// `count` segments from their headers, and their pages touched.
    fn receive(&mut self, cpu: &Cpu, ctx: &VmContext, count: usize) -> Result<(), MemFault> {
        self.segs = SegTable::default();
        let Some(region) = self.lease.as_ref().map(Lease::region) else {
            return Ok(());
        };
        ctx.check(region.id(), false, false)?;
        let mut off = self.base;
        for _ in 0..count {
            let mut hdr = [0u8; 4];
            region.read_raw(off, &mut hdr)?;
            let len = u32::from_le_bytes(hdr) as usize;
            off += OOB_DESCRIPTOR_SIZE;
            if off + len > self.base + self.len {
                let region = region.id();
                return Err(MemFault::OutOfRange {
                    region,
                    offset: off,
                    len,
                });
            }
            self.segs.push((off, len));
            off += len;
        }
        self.touch(cpu);
        Ok(())
    }

    /// The sender's last step: the per-call segment's charge if it
    /// `fell_back` to one, then the pages of the segments it put in.
    fn sent(&self, cpu: &Cpu, meter: &mut Meter, fell_back: bool) {
        if fell_back {
            meter.charge(cpu, Phase::OobSegment, OOB_SEGMENT_COST);
        }
        self.touch(cpu);
    }

    /// Touches the pages of every segment in the table, headers included.
    fn touch(&self, cpu: &Cpu) {
        let Some(region) = self.lease.as_ref().map(Lease::region) else {
            return;
        };
        for &(off, len) in self.segs.iter() {
            let seg = region.pages_for(off - OOB_DESCRIPTOR_SIZE, len + OOB_DESCRIPTOR_SIZE);
            cpu.touch_pages(seg, &mut Meter::disabled());
        }
    }
}

impl OobSegments for OobTransport<'_> {
    fn append(&mut self, value: &Value, ty: &Ty) -> Result<(u32, usize), StubError> {
        let id = self.segs.len() as u32;
        let Some(region) = self.lease.as_ref().map(Lease::region) else {
            return Ok((id, encoded_len(value, ty)?));
        };
        let hdr = self.segs.last().map_or(self.base, |&(off, len)| off + len);
        let len = region.write_with(hdr, self.base + self.len - hdr, |b| {
            let seg = b
                .get_mut(OOB_DESCRIPTOR_SIZE..)
                .ok_or(WireError::Truncated)?;
            let len = encode_into(value, ty, seg)?;
            b[..OOB_DESCRIPTOR_SIZE].copy_from_slice(&(len as u64).to_le_bytes());
            Ok::<_, WireError>(len)
        })??;
        self.segs.push((hdr + OOB_DESCRIPTOR_SIZE, len));
        Ok((id, len))
    }

    fn check(&self, id: u32, len: u32) -> Result<(), StubError> {
        match self.segs.get(id as usize) {
            None => Err(StubError::OutOfBandMissing { id }),
            Some(&(_, seg)) if seg < len as usize => Err(WireError::Truncated.into()),
            Some(_) => Ok(()),
        }
    }

    fn decode(&self, id: u32, len: u32, ty: &Ty, checked: bool) -> Result<Value, StubError> {
        self.check(id, len)?;
        let region = self.lease.as_ref().map(Lease::region);
        let region = region.expect("only a lease holds segments");
        let read = |seg: &[u8]| decode_as(seg, ty, checked);
        Ok(region
            .read_with(self.segs[id as usize].0, len as usize, read)??
            .0)
    }
}

/// Bytes `vals` need in a transport: each encoding behind its header.
fn segments_need<'v>(vals: impl Iterator<Item = (&'v Value, &'v Ty)>) -> Result<usize, WireError> {
    vals.map(|(v, ty)| Ok(encoded_len(v, ty)? + OOB_DESCRIPTOR_SIZE))
        .sum()
}

/// Bytes a reply's out-of-band results need, or `None` when placing them
/// must fail (a declared result missing, a value that cannot encode).
fn results_need(proc: &CompiledProc, reply: &Reply) -> Option<usize> {
    let oob = |slot: &Slot| slot.kind == SlotKind::OutOfBand;
    let ret = match (&proc.def.ret, &proc.layout.ret) {
        (Some(ty), Some(slot)) if oob(slot) => Some((reply.ret.as_ref()?, ty)),
        _ => None,
    };
    let outs = reply.outs.iter().filter_map(|(i, v)| {
        let (p, slot) = (&proc.def.params[*i], &proc.layout.params[*i]);
        (p.dir.is_out() && oob(slot)).then_some((v, &p.ty))
    });
    segments_need(ret.into_iter().chain(outs)).ok()
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
    transport: OobTransport<'a>,
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
            transport: OobTransport::default(),
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

        // Oversized/complex values travel in a pairwise-mapped out-of-band
        // transport: size them, lease it (a bulk-arena chunk, or a per-call
        // segment for payloads over the chunk size or an exhausted arena),
        // and encode them straight into it. Arguments that cannot encode
        // lease nothing: the push below raises their error.
        let mut fell_back = false;
        if plan.push.is_none() && args.len() == proc.def.params.len() {
            let ins = proc.oob_slots(false);
            let ins = ins.filter_map(|(slot, ty)| Some((&args[slot.param_index?], ty)));
            if let Ok(need @ 1..) = segments_need(ins) {
                state.stats.observe_bulk_bytes(need as u64);
                // Fault injection: present the arena as exhausted, so this
                // call exercises the real per-call fallback path.
                let exhausted = fault.is_some_and(|plan| plan.exhaust_bulk("call:bulk"));
                let t = &mut self.transport;
                fell_back = t.ready(rt, state, Some(need), exhausted, client_ctx)?;
            }
        }
        on_frame(cpu, client_ctx, aref, &mut self.meter, |frame, meter| {
            let mut vm = StubVm::new(cost, cpu, meter);
            match &plan.push {
                Some(p) => p.execute(proc, args, frame, &mut vm),
                None => vm.client_push_args(proc, args, frame, &mut self.transport),
            }
        })?;
        if self.meter.is_enabled() {
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_in() {
                    self.copies.record(CopyOp::A, slot.size);
                }
            }
        }
        if plan.push.is_none() {
            self.transport.sent(cpu, &mut self.meter, fell_back);
        }
        Ok(())
    }

    /// Kernel claim against the validated binding `kstate`: the procedure
    /// range check, A-stack validation (charging the slower overflow path),
    /// and the claim of the A-stack's linkage slot. Returns the caller's
    /// return linkage; the front-end decides whether it goes on the
    /// thread's linkage stack, the one place it is kept.
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
        // The caller's return address and stack pointer.
        let linkage = Linkage {
            caller_domain: kstate.client.id(),
            callee_domain: kstate.server.id(),
            binding: handle,
            astack_index: index,
            proc_index: self.proc_index,
            return_sp,
            valid: true,
        };
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

        // The arguments' out-of-band segments, under the server's
        // protection context: its own table, rebuilt from the headers in
        // the shared transport, then decoded straight out of it.
        if self.transport.lease.is_some() {
            self.transport
                .receive(cpu, server_ctx, proc.oob_slots(false).count())?;
        }
        let sargs = on_frame(cpu, server_ctx, aref, &mut self.meter, |frame, meter| {
            let mut vm = StubVm::new(cost, cpu, meter);
            match &plan.read {
                Some(rp) => {
                    let mut out = ArgVec::new();
                    rp.execute(frame, &mut vm, &mut out).map(|()| out)
                }
                None => vm
                    .server_read_args(proc, frame, &self.transport)
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
        let fell_back = match &plan.place {
            Some(_) => false,
            None => {
                let need = results_need(proc, &reply);
                self.transport.ready(rt, state, need, false, server_ctx)?
            }
        };
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
                    &mut self.transport,
                ),
            },
        )?;
        if plan.place.is_none() {
            self.transport.sent(cpu, &mut self.meter, fell_back);
        }
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
        // The results' out-of-band segments, under the client's protection
        // context, the way the server received the arguments'.
        if plan.fetch.is_none() {
            let count = proc.oob_slots(true).count();
            if count > 0 {
                self.transport.receive(cpu, state.client.ctx(), count)?;
            }
        }
        let (ret, outs) = on_frame(
            cpu,
            state.client.ctx(),
            aref,
            &mut self.meter,
            |frame, meter| {
                let mut vm = StubVm::new(cost, cpu, meter);
                match &plan.fetch {
                    Some(p) => p.execute(frame, &mut vm),
                    None => vm.client_fetch_results(proc, frame, &self.transport),
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
            // per-interface `lrpc_stub_ns` histogram, in one pass.
            let stub = [
                Phase::ClientStub,
                Phase::ServerStub,
                Phase::ArgCopy,
                Phase::Marshal,
            ];
            let segs = self.meter.segments().iter();
            let stub_ns = segs.filter(|s| stub.contains(&s.phase)).map(|s| s.dur);
            state.stats.observe_stub_ns(stub_ns.sum());
        }
        Ok(self.finish(cpu, ret, outs))
    }

    /// Completes the call: elapsed time, call count, latency histogram.
    fn finish(mut self, cpu: &Cpu, ret: Option<Value>, outs: Vec<(usize, Value)>) -> CallOutcome {
        let elapsed = cpu.now() - self.start;
        let stats = &self.state.stats;
        stats.note_call();
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
        if self.transport.lease.is_some() {
            self.transport.release(self.rt, self.state);
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
