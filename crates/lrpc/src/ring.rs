//! Pairwise submission/completion call rings: doorbell-batched LRPC.
//!
//! The paper's call path pays two kernel traps per call. For workloads
//! that issue many small calls, the trap (and the two context switches
//! around the server visit) dominates. This module amortizes them
//! io_uring style: a lock-free SPSC **submission ring** on a
//! pairwise-shared region where the client enqueues many call
//! descriptors, a **doorbell** rung once per flush (one trap, which the
//! server answers before the flush returns, so a ring never finds an
//! earlier one pending), and a paired **completion ring** the server
//! posts results into.
//!
//! The per-call work runs the serial path's own stages from
//! [`crate::call`], charged to each call's own meter: the client push at
//! enqueue, the kernel claim once the doorbell's crossing has validated
//! the Binding Object, E-stack association and the server serve per
//! drained call after the one switch into the server, and the client
//! fetch per reaped completion. Only the per-crossing costs (traps, kernel
//! transfer, context switches) move onto the batch meter, paid once per
//! doorbell instead of once per call. Three ring-descriptor queue
//! operations per call (enqueue, drain, completion reap) are the price
//! of admission, also on the batch meter. The ring probes the
//! `batch:binding`, `ring-full:*` and `doorbell:*` fault sites, never
//! exchanges processors, and flushes rather than waits when a class of
//! A-stacks runs dry while the batch itself holds some.
//!
//! The descriptors themselves move once per pass, not once per call. The
//! client writes a flush's whole submission window just before the
//! doorbell and publishes the tail behind it; after its one switch the
//! server reads the window in one pass, and after serving it posts every
//! completion in one; back in the client, one pass reaps them. Each pass
//! makes one protection check, one region access (two when the window
//! wraps past the ring's end) and one TLB run that still touches each
//! descriptor's page once per descriptor, so hits and misses are those of
//! per-descriptor accesses. The three virtual `QueueOp` charges per call
//! stay where the per-call stages put them.
//!
//! Ring decisions (enqueue slot, doorbell outcome, drain order) flow
//! through the binding's `ring:{interface}` record/replay stream, so a
//! recorded batched run replays bit-identically.

use std::mem;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use firefly::cost::CostModel;
use firefly::cpu::Cpu;
use firefly::fault::FaultPlan;
use firefly::mem::Region;
use firefly::meter::{Meter, Phase, TraceId};
use firefly::time::Nanos;
use firefly::vm::VmContext;
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::thread::{Thread, ThreadStatus};
use kernel::Domain;

use crate::binding::Binding;
use crate::call::{kernel_entry, kernel_exit, pop_linkage, CallOutcome, InFlight};
use crate::error::CallError;

/// Submission (and completion) slots per ring. Batches larger than this
/// simply flush mid-way — the ring is a window, not a limit.
pub const RING_SLOTS: u32 = 64;

/// The deepest ring, and so the widest window a pass stages on the stack
/// (4 KB of descriptors): the adaptive controller's default ceiling
/// (`AdaptConfig::max_ring_slots`). Deeper requests are clamped to it.
const MAX_SLOTS: usize = 256;

/// Bytes per descriptor: four little-endian u32s, `[proc | astack | seq |
/// magic]` for a submission and `[status | 0 | seq | magic]` for a
/// completion.
const DESC_BYTES: usize = 16;

/// One descriptor's bytes.
type Desc = [u8; DESC_BYTES];

/// Magic stamped into submission descriptors.
const DESC_MAGIC: u32 = 0xBE11_CA11;

/// Magic stamped into completion descriptors.
const COMP_MAGIC: u32 = 0xD04E_F14E;

/// Packs four words into a descriptor.
fn desc(words: [u32; 4]) -> Desc {
    let mut d = [0u8; DESC_BYTES];
    for (bytes, w) in d.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    d
}

/// Word `i` of a descriptor.
fn word(d: &Desc, i: usize) -> u32 {
    u32::from_le_bytes([d[4 * i], d[4 * i + 1], d[4 * i + 2], d[4 * i + 3]])
}

/// A pairwise submission/completion ring for one binding.
///
/// Single-producer (the client thread filling a batch), single-consumer
/// (the server drain per doorbell). `head`/`tail` index the submission
/// half; the completion half is slot-addressed — completion `i` answers
/// submission slot `i`, matched by sequence number.
pub struct CallRing {
    name: String,
    region: Arc<Region>,
    slots: u32,
    /// Next submission slot the server will drain.
    head: AtomicU32,
    /// Next submission slot the client will fill.
    tail: AtomicU32,
    /// `lrpc_doorbells_total` — doorbells that actually trapped.
    doorbells_total: obs::Counter,
    /// The fault plan's `doorbell:{interface}` and `ring-full:{interface}`
    /// site names, built once so a batch allocates nothing for them.
    doorbell_site: String,
    ring_full_site: String,
    /// Record/replay stream for ring decisions (`ring:{interface}`);
    /// `None` in live mode.
    rr: Option<replay::Handle>,
}

impl CallRing {
    /// Maps a ring of `slots` slots pairwise into both domains and takes
    /// the doorbell counter from `metrics`. Called by the runtime at import time,
    /// at [`RING_SLOTS`] or at the depth the adaptive sizing controller
    /// recommends; the depth is clamped to 1..=256 slots. Under a
    /// recording or replaying `session`, enqueue slots, doorbell outcomes
    /// and drain order flow through the `ring:{name}` stream.
    pub fn with_slots(
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
        name: &str,
        metrics: &obs::Registry,
        slots: u32,
        session: &Arc<replay::Session>,
    ) -> CallRing {
        let slots = slots.clamp(1, MAX_SLOTS as u32);
        let region = kernel.map_pairwise(
            format!("call-ring:{name}"),
            client,
            server,
            slots as usize * 2 * DESC_BYTES,
        );
        CallRing {
            name: name.to_string(),
            region,
            slots,
            head: AtomicU32::new(0),
            tail: AtomicU32::new(0),
            doorbells_total: metrics.counter("lrpc_doorbells_total"),
            doorbell_site: format!("doorbell:{name}"),
            ring_full_site: format!("ring-full:{name}"),
            rr: (!session.is_live()).then(|| session.stream(&format!("ring:{name}"))),
        }
    }

    fn emit(&self, kind: u16, payload: u64) {
        if let Some(h) = &self.rr {
            h.emit(kind, payload);
        }
    }

    /// The ring's interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submission capacity.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Descriptors published and not yet drained. A flush publishes its
    /// whole window at once, so between flushes this is 0.
    /// [`LrpcRuntime::collect_metrics`](crate::LrpcRuntime::collect_metrics)
    /// exports it, summed over an interface's rings, as
    /// `lrpc_ring_occupancy:{interface}`.
    pub fn occupancy_now(&self) -> u32 {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// True when nothing is enqueued.
    pub fn is_empty(&self) -> bool {
        self.occupancy_now() == 0
    }

    /// Drops every enqueued descriptor (crossing-level abort).
    pub(crate) fn reset(&self) {
        let tail = self.tail.load(Ordering::Acquire);
        self.head.store(tail, Ordering::Release);
    }

    /// Byte offset of `slot` in the half that starts at slot `half` (0 for
    /// submissions, `slots` for completions).
    fn offset(&self, half: u32, slot: u32) -> usize {
        (half + slot) as usize * DESC_BYTES
    }

    /// One TLB run over a window: each descriptor's page once per
    /// descriptor, in slot order.
    fn touch(&self, cpu: &Cpu, half: u32, first: u32, n: usize) {
        let pages = (0..n as u32).flat_map(|i| {
            self.region
                .pages_for(self.offset(half, (first + i) % self.slots), DESC_BYTES)
        });
        cpu.touch_pages(pages, &mut Meter::disabled());
    }

    /// Writes `descs` to the slots from `first` on in one pass: one
    /// protection check, one region write per contiguous run, one TLB run.
    fn write_pass(
        &self,
        cpu: &Cpu,
        ctx: &VmContext,
        half: u32,
        first: u32,
        descs: &[Desc],
    ) -> Result<(), CallError> {
        ctx.check(self.region.id(), true, false)
            .map_err(CallError::Mem)?;
        // The run up to the ring's end, then what wraps to slot 0.
        let (run, wrapped) = descs.split_at(descs.len().min((self.slots - first) as usize));
        self.region
            .write_raw(self.offset(half, first), run.as_flattened())
            .map_err(CallError::Mem)?;
        if !wrapped.is_empty() {
            self.region
                .write_raw(self.offset(half, 0), wrapped.as_flattened())
                .map_err(CallError::Mem)?;
        }
        self.touch(cpu, half, first, descs.len());
        Ok(())
    }

    /// Reads the slots from `first` on into `descs` in one pass: one
    /// protection check, one region read per contiguous run, one TLB run.
    fn read_pass(
        &self,
        cpu: &Cpu,
        ctx: &VmContext,
        half: u32,
        first: u32,
        descs: &mut [Desc],
    ) -> Result<(), CallError> {
        ctx.check(self.region.id(), false, false)
            .map_err(CallError::Mem)?;
        let n = descs.len();
        let (run, wrapped) = descs.split_at_mut(n.min((self.slots - first) as usize));
        self.region
            .read_raw(self.offset(half, first), run.as_flattened_mut())
            .map_err(CallError::Mem)?;
        if !wrapped.is_empty() {
            self.region
                .read_raw(self.offset(half, 0), wrapped.as_flattened_mut())
                .map_err(CallError::Mem)?;
        }
        self.touch(cpu, half, first, n);
        Ok(())
    }

    /// Client side: writes a flush's submission descriptors in one pass,
    /// then publishes the tail behind them. Returns the window's first
    /// slot; descriptor `i` sits in slot `(first + i) % slots`.
    fn submit(&self, cpu: &Cpu, ctx: &VmContext, descs: &[Desc]) -> Result<u32, CallError> {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        if tail.wrapping_sub(head) as usize + descs.len() > self.slots as usize {
            // The batch flushes before its window outgrows the free slots;
            // hitting this is a batching bug, surfaced as failed calls
            // rather than a panic.
            return Err(CallError::CallFailed);
        }
        let first = tail % self.slots;
        self.write_pass(cpu, ctx, 0, first, descs)?;
        self.tail
            .store(tail.wrapping_add(descs.len() as u32), Ordering::Release);
        for (i, d) in descs.iter().enumerate() {
            let slot = (first + i as u32) % self.slots;
            self.emit(
                replay::kind::RING_ENQUEUE,
                (u64::from(slot) << 32) | u64::from(word(d, 0)),
            );
        }
        Ok(first)
    }

    /// Server side: reads the whole published window into `buf` in one
    /// pass and consumes it. Returns the window, which starts at slot
    /// `head % slots`.
    fn drain<'b>(
        &self,
        cpu: &Cpu,
        ctx: &VmContext,
        buf: &'b mut [Desc; MAX_SLOTS],
    ) -> Result<&'b [Desc], CallError> {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        let first = head % self.slots;
        let window = &mut buf[..tail.wrapping_sub(head) as usize];
        self.read_pass(cpu, ctx, 0, first, window)?;
        self.head.store(tail, Ordering::Release);
        for (i, d) in window.iter().enumerate() {
            if word(d, 3) == DESC_MAGIC {
                let slot = (first + i as u32) % self.slots;
                self.emit(
                    replay::kind::RING_DRAIN,
                    (u64::from(slot) << 32) | u64::from(word(d, 0)),
                );
            }
        }
        Ok(window)
    }

    /// Server side: posts the completions of the window from slot `first`
    /// on, in one pass.
    fn post(
        &self,
        cpu: &Cpu,
        ctx: &VmContext,
        first: u32,
        descs: &[Desc],
    ) -> Result<(), CallError> {
        self.write_pass(cpu, ctx, self.slots, first, descs)
    }

    /// Client side: reads back the completions of the window from slot
    /// `first` on, in one pass.
    fn reap(
        &self,
        cpu: &Cpu,
        ctx: &VmContext,
        first: u32,
        descs: &mut [Desc],
    ) -> Result<(), CallError> {
        self.read_pass(cpu, ctx, self.slots, first, descs)
    }
}

/// What a whole batch reports.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, in request order. Each carries the same
    /// per-call meter/copy-log a serial call would, minus the amortized
    /// crossing phases.
    pub results: Vec<Result<CallOutcome, CallError>>,
    /// The crossing costs shared by the batch: traps, kernel transfers,
    /// context switches and ring-descriptor queue ops.
    pub batch_meter: Meter,
    /// Doorbells that actually trapped (lost doorbells count twice).
    pub doorbells: u64,
    /// Kernel traps paid by the whole batch.
    pub traps: u64,
    /// Calls that degraded to the serial single-call trap path (ring
    /// presented as full by fault injection, or no ring on the binding).
    pub degraded: u64,
    /// Virtual time the batch took on the calling thread.
    pub elapsed: Nanos,
    /// The CPU the thread ended on.
    pub end_cpu: usize,
}

/// One batch in progress on one binding: its crossing meter, the calls
/// enqueued since the last flush, and every request's result so far.
struct Batch<'a> {
    binding: &'a Binding,
    ring: &'a CallRing,
    cpu: &'a Cpu,
    thread: &'a Arc<Thread>,
    cost: &'a CostModel,
    fault: Option<Arc<FaultPlan>>,
    /// The crossing costs shared by the batch.
    meter: Meter,
    /// Calls enqueued since the last flush. A flush empties the ring, so
    /// this never holds more than a ring's worth; each flush takes the
    /// vector out and puts it back empty, so its capacity is allocated once.
    pending: Vec<PendingCall<'a>>,
    /// Per-request results, in request order: a placeholder until the
    /// request settles.
    results: Vec<Result<CallOutcome, CallError>>,
    doorbells: u64,
    traps: u64,
    degraded: u64,
    /// The thread died on a flush's return crossing: nothing more is
    /// enqueued, reaped or served.
    thread_dead: bool,
    /// The next enqueued call's sequence number.
    seq: u32,
    /// The calling CPU's clock when the batch began.
    start: Nanos,
}

/// One enqueued-but-not-completed call: its in-flight stages, plus its
/// place in the request vector. Its ring slot follows from its place in
/// the flush's window.
struct PendingCall<'a> {
    /// Position in the request (and results) vector.
    index: usize,
    seq: u32,
    call: InFlight<'a>,
    error: Option<CallError>,
}

impl PendingCall<'_> {
    /// The submission descriptor this call enqueues.
    fn submission(&self) -> Desc {
        desc([
            self.call.proc_index() as u32,
            self.call.astack_index() as u32,
            self.seq,
            DESC_MAGIC,
        ])
    }
}

impl<'a> Batch<'a> {
    fn new(
        binding: &'a Binding,
        ring: &'a CallRing,
        cpu_id: usize,
        thread: &'a Arc<Thread>,
        n: usize,
    ) -> Batch<'a> {
        let rt = binding.runtime();
        let machine = rt.kernel().machine();
        let cpu = machine.cpu(cpu_id);
        let mut meter = Meter::enabled();
        meter.set_trace(TraceId::next());
        Batch {
            binding,
            ring,
            cpu,
            thread,
            cost: machine.cost(),
            start: cpu.now(),
            fault: rt.fault_plan(),
            meter,
            results: (0..n).map(|_| Err(CallError::CallFailed)).collect(),
            pending: Vec::with_capacity(n.min(ring.slots() as usize)),
            doorbells: 0,
            traps: 0,
            degraded: 0,
            thread_dead: false,
            seq: 0,
        }
    }

    /// Submits request `index`: flushes first when the window fills the
    /// ring, enqueues the call, and flushes to recycle A-stacks when the
    /// batch itself holds its class's last ones.
    fn submit(&mut self, index: usize, proc_index: usize, args: &[Value]) {
        // Fault injection: the submission ring is presented as full and
        // this call degrades gracefully to a single-call trap. The real
        // full condition flushes and retries — no degradation needed.
        let full_injected = !self.thread_dead
            && matches!(&self.fault, Some(p) if p.ring_full(&self.ring.ring_full_site));
        let window_full =
            self.ring.occupancy_now() as usize + self.pending.len() >= self.ring.slots() as usize;
        if full_injected || window_full {
            self.flush();
        }
        if self.thread_dead {
            self.settle(index, Err(CallError::CallFailed));
            return;
        }
        if full_injected {
            self.degraded += 1;
            self.results[index] =
                self.binding
                    .call_indexed(self.cpu.id(), self.thread, proc_index, args);
            return;
        }
        let enqueued = match self.enqueue(index, proc_index, args) {
            Err(CallError::NoAStacks) if !self.pending.is_empty() => {
                // The batch itself is holding the class's A-stacks: flush
                // to release them, then retry under the configured policy.
                self.flush();
                if self.thread_dead {
                    Err(CallError::CallFailed)
                } else {
                    self.enqueue(index, proc_index, args)
                }
            }
            other => other,
        };
        if let Err(e) = enqueued {
            self.settle(index, Err(e));
        }
    }

    /// Client half of one batched call: the client push, with the
    /// client-context load on the batch meter, then the ring-descriptor
    /// enqueue's queue op. The descriptor itself is written with the rest
    /// of the window at the flush. While earlier calls of the batch hold
    /// A-stacks, the push does not wait for one.
    fn enqueue(
        &mut self,
        index: usize,
        proc_index: usize,
        args: &[Value],
    ) -> Result<(), CallError> {
        let (binding, cpu) = (self.binding, self.cpu);
        let mut call = InFlight::begin(
            binding.runtime(),
            binding.state(),
            self.thread,
            cpu,
            proc_index,
            true,
        );
        call.push(
            cpu,
            args,
            Some(&mut self.meter),
            self.fault.as_deref(),
            false,
            !self.pending.is_empty(),
        )?;
        // The descriptor replaces the serial path's register setup + trap:
        // one ring-descriptor queue op on the batch meter.
        self.meter
            .charge(cpu, Phase::QueueOp, self.cost.ring_descriptor_op);
        self.pending.push(PendingCall {
            index,
            seq: self.seq,
            call,
            error: None,
        });
        self.seq = self.seq.wrapping_add(1);
        Ok(())
    }

    /// Writes the window, rings the doorbell and performs one full
    /// crossing: kernel validation, per-call claims, context switch, the
    /// server's one-pass drain, serve of every pending call, the one-pass
    /// completion post, and the return crossing with the one-pass reap and
    /// per-call result fetch.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = mem::take(&mut self.pending);
        let (cpu, cost, ring) = (self.cpu, self.cost, self.ring);
        let state = self.binding.state();
        let client_ctx = state.client.ctx();
        let server_ctx = state.server.ctx();
        let n = pending.len();
        // Each pass stages its window here in turn.
        let mut buf = [[0u8; DESC_BYTES]; MAX_SLOTS];

        // ---- Submission: the whole window in one write --------------------
        for (d, pc) in buf.iter_mut().zip(&pending) {
            *d = pc.submission();
        }
        let first = match ring.submit(cpu, client_ctx, &buf[..n]) {
            Ok(first) => first,
            Err(e) => return self.abort(pending, &e),
        };

        // ---- Doorbell -----------------------------------------------------
        // One trap per flush — the whole point. A lost doorbell (fault
        // injection) must be rung again: two traps, still fewer than N.
        let lost = matches!(&self.fault, Some(plan) if plan.lose_doorbell(&ring.doorbell_site));
        let rings = if lost { 2 } else { 1 };
        ring.emit(replay::kind::RING_DOORBELL, rings);
        let rt = self.binding.runtime();
        for _ in 0..rings {
            rt.kernel().trap(cpu, &mut self.meter);
            self.traps += 1;
            self.doorbells += 1;
            ring.doorbells_total.inc();
        }

        // ---- Kernel, call crossing (once per batch) -----------------------
        let (vstate, handle) = match kernel_entry(
            rt,
            cpu,
            &mut self.meter,
            state,
            self.fault.as_deref(),
            "batch:binding",
            self.binding.handle(),
        ) {
            Ok(v) => v,
            Err(e) => return self.abort(pending, &e),
        };

        // Per-call claims. The linkage stack gets ONE entry per crossing — the
        // batch migrates the thread once.
        let return_sp = self.thread.user_sp();
        let mut linkage_pushed = false;
        for pc in pending.iter_mut() {
            match pc.call.claim(cpu, &vstate, handle, return_sp) {
                Ok(linkage) if !linkage_pushed => {
                    self.thread.push_linkage(linkage);
                    linkage_pushed = true;
                }
                Ok(_) => {}
                Err(e) => pc.error = Some(e),
            }
        }

        // ---- Transfer into the server domain (once per batch) -------------
        cpu.switch_context(server_ctx.id(), cost, &mut self.meter);

        // ---- Server drain: the whole window in one read, then every call --
        // A window that is not exactly this flush's serves nothing.
        let window = ring
            .drain(cpu, server_ctx, &mut buf)
            .ok()
            .filter(|w| w.len() == n);
        for (i, pc) in pending.iter_mut().enumerate() {
            self.meter
                .charge(cpu, Phase::QueueOp, cost.ring_descriptor_op);
            // An earlier call of the window may have terminated the server
            // (Section 5.3). The calls behind it are not served: the dead
            // domain drains nothing more, so they fail as call-failed.
            let matched =
                window.is_some_and(|w| w[i] == pc.submission()) && state.server.is_active();
            if !matched && pc.error.is_none() {
                pc.error = Some(CallError::CallFailed);
            }
            if pc.error.is_none() {
                // The E-stack is associated per drained call, after the switch.
                let served = pc
                    .call
                    .associate_estack(cpu)
                    .and_then(|()| pc.call.serve(cpu, false, true));
                pc.error = served.err();
            }
        }

        // ---- Completions: every status in one write -----------------------
        for (d, pc) in buf.iter_mut().zip(&pending) {
            *d = desc([u32::from(pc.error.is_some()), 0, pc.seq, COMP_MAGIC]);
        }
        let _ = ring.post(cpu, server_ctx, first, &buf[..n]);

        // ---- Kernel, return crossing (once per batch) ---------------------
        kernel_exit(rt, cpu, &mut self.meter, state);
        self.traps += 1;
        for pc in pending.iter_mut() {
            pc.call.kernel_return();
        }
        if linkage_pushed {
            if let Err(e) = pop_linkage(rt, self.thread, &vstate.client) {
                self.thread_dead = self.thread.status() == ThreadStatus::Destroyed;
                for pc in pending.iter_mut() {
                    pc.error.get_or_insert_with(|| e.clone());
                }
            }
        }

        // ---- Transfer back, reap every completion in one read -------------
        let reaped = !self.thread_dead && {
            cpu.switch_context(client_ctx.id(), cost, &mut self.meter);
            ring.reap(cpu, client_ctx, first, &mut buf[..n]).is_ok()
        };
        for (i, mut pc) in pending.drain(..).enumerate() {
            if !self.thread_dead {
                self.meter
                    .charge(cpu, Phase::QueueOp, cost.ring_descriptor_op);
                let c = &buf[i];
                if !(reaped && word(c, 3) == COMP_MAGIC && word(c, 2) == pc.seq) {
                    pc.error.get_or_insert(CallError::CallFailed);
                }
            }
            let result = match pc.error {
                Some(e) => Err(e),
                None => pc.call.fetch(cpu, false),
            };
            self.settle(pc.index, result);
        }
        if self.thread_dead {
            ring.reset();
        }
        self.pending = pending;
    }

    /// Aborts a flush at the crossing level (submission, binding
    /// validation or domain liveness failed): every pending call fails
    /// with the crossing's error, its resources drain, and the ring is
    /// reset.
    fn abort(&mut self, mut pending: Vec<PendingCall<'a>>, e: &CallError) {
        self.ring.reset();
        for pc in pending.drain(..) {
            self.settle(pc.index, Err(e.clone()));
        }
        self.pending = pending;
    }

    /// Records request `index`'s result, counting a failure. Every request
    /// the ring handles is settled here exactly once; calls degraded to the
    /// serial path count their own failures.
    fn settle(&mut self, index: usize, result: Result<CallOutcome, CallError>) {
        if result.is_err() {
            self.binding.state().stats.note_failure();
        }
        self.results[index] = result;
    }
}

impl Binding {
    /// Makes a closed batch of calls through the submission/completion
    /// ring: every request is enqueued (the ring flushes as it fills),
    /// the doorbell rings once per flush, and the server drains the whole
    /// batch per wakeup. Requests are `(procedure index, arguments)`.
    /// Calls the `ring_full` fault knob rejects degrade to serial calls,
    /// and so does every call of a remote binding, which has no ring.
    pub fn call_batch(
        &self,
        cpu_id: usize,
        thread: &Arc<Thread>,
        requests: Vec<(usize, Vec<Value>)>,
    ) -> Result<BatchOutcome, CallError> {
        let n = requests.len();
        self.state().stats.observe_batch_size(n as u64);
        let Some(ring) = &self.state().ring else {
            // Serial calls, one trap pair each. A remote call branches off
            // before any transfer, so the thread stays on `cpu_id`.
            let cpu = self.runtime().kernel().machine().cpu(cpu_id);
            let start = cpu.now();
            let results = requests
                .iter()
                .map(|(proc_index, args)| self.call_indexed(cpu_id, thread, *proc_index, args))
                .collect();
            return Ok(BatchOutcome {
                results,
                batch_meter: Meter::disabled(),
                doorbells: 0,
                traps: 0,
                degraded: n as u64,
                elapsed: cpu.now() - start,
                end_cpu: cpu_id,
            });
        };
        let mut batch = Batch::new(self, ring, cpu_id, thread, n);
        for (index, (proc_index, args)) in requests.iter().enumerate() {
            batch.submit(index, *proc_index, args);
        }
        batch.flush();
        Ok(BatchOutcome {
            results: batch.results,
            batch_meter: batch.meter,
            doorbells: batch.doorbells,
            traps: batch.traps,
            degraded: batch.degraded,
            elapsed: batch.cpu.now() - batch.start,
            end_cpu: batch.cpu.id(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TestRuntime;
    use crate::{Handler, LrpcRuntime, Reply, ServerCtx};
    use firefly::cpu::Machine;

    fn env() -> (Arc<LrpcRuntime>, Arc<Thread>, Binding) {
        let rt = TestRuntime::new()
            .machine(Machine::cvax_firefly())
            .domain_caching(false)
            .build();
        let server = rt.kernel().create_domain("svc");
        rt.export(
            &server,
            r#"interface Svc {
                [astacks = 8]
                procedure Add(a: int32, b: int32) -> int32;
                procedure Neg(a: int32) -> int32;
            }"#,
            vec![
                Box::new(|_: &ServerCtx, args: &[Value]| {
                    let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                        unreachable!()
                    };
                    Ok(Reply::value(Value::Int32(a + b)))
                }) as Handler,
                Box::new(|_: &ServerCtx, args: &[Value]| {
                    let Value::Int32(a) = &args[0] else {
                        unreachable!()
                    };
                    Ok(Reply::value(Value::Int32(-a)))
                }) as Handler,
            ],
        )
        .unwrap();
        let client = rt.kernel().create_domain("app");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "Svc").unwrap();
        (rt, thread, binding)
    }

    #[test]
    fn batched_mixed_procedures_match_serial_results() {
        let (_rt, thread, binding) = env();
        let add = binding.proc_index("Add").unwrap();
        let neg = binding.proc_index("Neg").unwrap();
        let requests: Vec<(usize, Vec<Value>)> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    (add, vec![Value::Int32(i), Value::Int32(100)])
                } else {
                    (neg, vec![Value::Int32(i)])
                }
            })
            .collect();
        let out = binding.call_batch(0, &thread, requests).unwrap();
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.degraded, 0);
        for (i, r) in out.results.iter().enumerate() {
            let o = r.as_ref().expect("batched call failed");
            let expect = if i % 2 == 0 {
                i as i32 + 100
            } else {
                -(i as i32)
            };
            assert_eq!(o.ret, Some(Value::Int32(expect)), "call {i}");
        }
    }

    #[test]
    fn one_trap_pair_per_doorbell() {
        let (rt, thread, binding) = env();
        let add = binding.proc_index("Add").unwrap();
        let requests: Vec<(usize, Vec<Value>)> = (0..5)
            .map(|i| (add, vec![Value::Int32(i), Value::Int32(1)]))
            .collect();
        let out = binding.call_batch(0, &thread, requests).unwrap();
        // One doorbell trap in, one return trap out — for five calls.
        assert_eq!(out.doorbells, 1);
        assert_eq!(out.traps, 2);
        let trap_cost = rt.kernel().machine().cost().hw.kernel_trap;
        assert_eq!(
            out.batch_meter.total_for(Phase::Trap),
            trap_cost * out.traps,
            "exactly one Phase::Trap charge per doorbell trap"
        );
        // The per-call meters carry no trap/crossing charges at all.
        for r in &out.results {
            let m = &r.as_ref().unwrap().meter;
            assert_eq!(m.total_for(Phase::Trap), Nanos::ZERO);
            assert_eq!(m.total_for(Phase::KernelTransfer), Nanos::ZERO);
            assert_eq!(m.total_for(Phase::ContextSwitch), Nanos::ZERO);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (_rt, thread, binding) = env();
        let out = binding.call_batch(0, &thread, Vec::new()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.doorbells, 0);
        assert_eq!(out.traps, 0);
    }

    #[test]
    fn oversized_batch_flushes_and_reuses_the_ring() {
        let (_rt, thread, binding) = env();
        let add = binding.proc_index("Add").unwrap();
        // Only 8 A-stacks: the batch must flush every 8 calls to recycle
        // them, well before the 64-slot ring fills.
        let requests: Vec<(usize, Vec<Value>)> = (0..20)
            .map(|i| (add, vec![Value::Int32(i), Value::Int32(0)]))
            .collect();
        let out = binding.call_batch(0, &thread, requests).unwrap();
        assert_eq!(out.results.len(), 20);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().ret, Some(Value::Int32(i as i32)));
        }
        // 20 calls over 8 A-stacks flush three times, one doorbell each.
        assert_eq!(out.doorbells, 3);
    }
}
