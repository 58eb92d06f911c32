//! The traced per-layer replay.
//!
//! In its replay slices a traced run replays the workload's operations
//! layer call by layer call on the same binding, thread and CPU, in the
//! order the LRPC call path makes them, timing each public entry point as
//! a span:
//! `firefly` context switches, TLB page touches, protection checks and
//! region copies; `kernel` trap, Binding Object validation and linkage
//! push/pop; `lrpc` A-stack, E-stack and bulk-arena operations; the four
//! compiled `idl` plan halves; and the two `obs` histograms each
//! completion feeds. Every span records its layer, the layer span that
//! enclosed it, and its start and end; spans are kept in memory and
//! written out when the run ends.
//!
//! The replay leaves the binding as it found it (every acquire is
//! released, every linkage popped), so the next real call sees the same
//! state. It charges the simulated CPU's virtual clock, which no reported
//! per-call virtual figure reads across operations.
//!
//! What the replay cannot reach from outside the crates (ring descriptors,
//! the call's own meter and copy log, dispatch into the server procedure)
//! is left in `lrpc.unattributed_ns`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use firefly::cpu::Cpu;
use firefly::error::MemFault;
use firefly::mem::Region;
use firefly::meter::Meter;
use firefly::vm::VmContext;
use idl::plan::ArgVec;
use idl::stubvm::{Frame, OobStore, StubError, StubVm};
use kernel::thread::Linkage;
use lrpc::{AStackPolicy, LinkageSlot};

use crate::workload::{Call, LrpcSide};

/// One instrumented layer entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Cpu::switch_context` and `Cpu::touch_pages`.
    SwitchTouch,
    /// `VmContext::check`.
    VmCheck,
    /// `Region::write_raw` / `read_raw` / `read_vec`.
    RegionCopy,
    /// `Kernel::trap`.
    Trap,
    /// `LrpcRuntime::validate_binding`.
    Validate,
    /// `Thread::push_linkage` / `pop_linkage` and the stack-pointer swap.
    Linkage,
    /// `AStackSet` acquire/validate/release and the linkage-slot claim.
    AStack,
    /// `EStackPool::get_for_call` / `end_call`.
    EStack,
    /// `BulkArena::acquire` / `release`.
    Bulk,
    /// Client call half of the procedure's plan (or interpreter).
    Push,
    /// Server entry half.
    Read,
    /// Server return half.
    Place,
    /// Client return half.
    Fetch,
    /// `TailHistogram::observe`.
    TailObserve,
    /// `Histogram::observe`.
    HistObserve,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 15] = [
        Layer::SwitchTouch,
        Layer::VmCheck,
        Layer::RegionCopy,
        Layer::Trap,
        Layer::Validate,
        Layer::Linkage,
        Layer::AStack,
        Layer::EStack,
        Layer::Bulk,
        Layer::Push,
        Layer::Read,
        Layer::Place,
        Layer::Fetch,
        Layer::TailObserve,
        Layer::HistObserve,
    ];

    /// The span name, `<crate>.<entry point>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SwitchTouch => "firefly.switch_touch",
            Layer::VmCheck => "firefly.vm_check",
            Layer::RegionCopy => "firefly.region_copy",
            Layer::Trap => "kernel.trap",
            Layer::Validate => "kernel.validate",
            Layer::Linkage => "kernel.linkage",
            Layer::AStack => "lrpc.astack",
            Layer::EStack => "lrpc.estack",
            Layer::Bulk => "lrpc.bulk",
            Layer::Push => "idl.push",
            Layer::Read => "idl.read",
            Layer::Place => "idl.place",
            Layer::Fetch => "idl.fetch",
            Layer::TailObserve => "obs.tail_observe",
            Layer::HistObserve => "obs.hist_observe",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

const N: usize = Layer::ALL.len();

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The replayed operation the span belongs to.
    pub op: u64,
    /// The layer entry point timed.
    pub layer: Layer,
    /// The enclosing layer span, if any.
    pub parent: Option<Layer>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Clock cost measured before tracing: what one empty span reads as its
/// own duration, and what it adds to the span around it.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Median duration an empty span records.
    pub empty_ns: f64,
    /// Mean time one empty span adds to its enclosing interval.
    pub footprint_ns: f64,
}

#[derive(Default)]
struct Inner {
    open: Vec<Layer>,
    op: u64,
    total: [u64; N],
    count: [u64; N],
    /// Per layer: summed durations and count of its direct children.
    child_total: [u64; N],
    child_count: [u64; N],
    copy_bytes: u64,
    calls: u64,
    compiled_halves: u64,
    spans: Vec<Span>,
}

/// Per-thread span recorder and per-layer accumulator.
pub struct Tracer {
    epoch: Instant,
    keep: usize,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that keeps the first `keep` spans for the span file.
    pub fn new(keep: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            keep,
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(keep),
                ..Inner::default()
            }),
        }
    }

    /// Times `f` as one span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let parent = {
            let mut i = self.inner.borrow_mut();
            let p = i.open.last().copied();
            i.open.push(layer);
            p
        };
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let mut i = self.inner.borrow_mut();
        i.open.pop();
        let dur = (t1 - t0).as_nanos() as u64;
        i.total[layer.idx()] += dur;
        i.count[layer.idx()] += 1;
        if let Some(p) = parent {
            i.child_total[p.idx()] += dur;
            i.child_count[p.idx()] += 1;
        }
        if i.spans.len() < self.keep {
            let op = i.op;
            let start_ns = (t0 - self.epoch).as_nanos() as u64;
            i.spans.push(Span {
                op,
                layer,
                parent,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
        r
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.borrow_mut().copy_bytes += bytes as u64;
    }

    /// Measures the clock cost of an empty span.
    pub fn calibrate() -> Calibration {
        let t = Tracer::new(0);
        let mut empty = Vec::with_capacity(2001);
        for _ in 0..2001 {
            let a = Instant::now();
            let b = Instant::now();
            empty.push((b - a).as_nanos() as f64);
        }
        let reps = 20_000u32;
        let outer = Instant::now();
        for _ in 0..reps {
            t.span(Layer::Validate, || ());
        }
        let footprint = outer.elapsed().as_nanos() as f64 / f64::from(reps);
        Calibration {
            empty_ns: crate::stats::median(&empty),
            footprint_ns: footprint,
        }
    }

    /// Adds another thread's accumulators (its spans are not kept).
    pub fn merge(&self, other: &Tracer) {
        let o = other.inner.borrow();
        let mut i = self.inner.borrow_mut();
        for k in 0..N {
            i.total[k] += o.total[k];
            i.count[k] += o.count[k];
            i.child_total[k] += o.child_total[k];
            i.child_count[k] += o.child_count[k];
        }
        i.copy_bytes += o.copy_bytes;
        i.calls += o.calls;
        i.compiled_halves += o.compiled_halves;
    }

    /// Calls replayed so far.
    pub fn calls(&self) -> u64 {
        self.inner.borrow().calls
    }

    /// Self time of `layer` per replayed call, ns: its span durations
    /// minus the clock cost of each span and the time its child spans
    /// cover, clamped at 0.
    pub fn self_ns_per_call(&self, layer: Layer, cal: Calibration) -> f64 {
        let i = self.inner.borrow();
        if i.calls == 0 {
            return 0.0;
        }
        let k = layer.idx();
        let own = i.total[k] as f64 - i.count[k] as f64 * cal.empty_ns;
        let children =
            i.child_total[k] as f64 + i.child_count[k] as f64 * (cal.footprint_ns - cal.empty_ns);
        ((own - children) / i.calls as f64).max(0.0)
    }

    /// Bytes the region-copy spans moved.
    pub fn copy_bytes(&self) -> u64 {
        self.inner.borrow().copy_bytes
    }

    /// Share of the replayed calls' plan halves that ran compiled.
    pub fn compiled_frac(&self) -> f64 {
        let i = self.inner.borrow();
        if i.calls == 0 {
            0.0
        } else {
            i.compiled_halves as f64 / (4 * i.calls) as f64
        }
    }

    /// Writes the kept spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let i = self.inner.borrow();
        let mut out = String::new();
        for s in &i.spans {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.name(),
                parent,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// An A-stack frame that times its protection check, page touch and byte
/// copy as child spans, mirroring the runtime's own frame.
struct ProbeFrame<'a> {
    tr: &'a Tracer,
    cpu: &'a Cpu,
    ctx: &'a VmContext,
    region: &'a Region,
    base: usize,
    len: usize,
}

impl ProbeFrame<'_> {
    fn access(&self, offset: usize, len: usize, write: bool) -> Result<(), StubError> {
        if offset + len > self.len {
            return Err(StubError::Frame(MemFault::OutOfRange {
                region: self.region.id(),
                offset: self.base + offset,
                len,
            }));
        }
        self.tr
            .span(Layer::VmCheck, || {
                self.ctx.check(self.region.id(), write, false)
            })
            .map_err(StubError::Frame)?;
        self.tr.span(Layer::SwitchTouch, || {
            self.cpu.touch_pages(
                self.region.pages_for(self.base + offset, len.max(1)),
                &mut Meter::disabled(),
            )
        });
        Ok(())
    }
}

impl Frame for ProbeFrame<'_> {
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), StubError> {
        self.access(offset, data.len(), true)?;
        self.tr.note_copy(data.len());
        self.tr
            .span(Layer::RegionCopy, || {
                self.region.write_raw(self.base + offset, data)
            })
            .map_err(StubError::Frame)
    }

    fn read_into(&self, offset: usize, out: &mut [u8]) -> Result<(), StubError> {
        self.access(offset, out.len(), false)?;
        self.tr.note_copy(out.len());
        self.tr
            .span(Layer::RegionCopy, || {
                self.region.read_raw(self.base + offset, out)
            })
            .map_err(StubError::Frame)
    }
}

/// One replayed call between its client half and its return half.
struct Pending<'c> {
    call: &'c Call,
    class: usize,
    astack: usize,
    region: Arc<Region>,
    offset: usize,
    size: usize,
    oob: OobStore,
    chunk: Option<(usize, usize)>,
    slot: Option<Arc<LinkageSlot>>,
    estack_key: u64,
}

/// Replays operations on one calling thread's CPU.
pub struct Replayer<'a> {
    side: &'a LrpcSide,
    cpu_id: usize,
}

impl<'a> Replayer<'a> {
    /// A replayer for the thread calling on `cpu_id`.
    pub fn new(side: &'a LrpcSide, cpu_id: usize) -> Replayer<'a> {
        Replayer { side, cpu_id }
    }

    fn cpu(&self) -> &Cpu {
        self.side.rt.kernel().machine().cpu(self.cpu_id)
    }

    /// Replays one operation: each call crossing on its own, or (batched)
    /// all calls crossing together, as one ring flush does.
    ///
    /// `observe_ns` is the value fed to the latency histograms: the real
    /// call's virtual latency.
    pub fn replay(
        &self,
        tr: &Tracer,
        op_id: u64,
        op: &[Call],
        batched: bool,
        observe_ns: u64,
    ) -> Result<(), String> {
        tr.inner.borrow_mut().op = op_id;
        if batched {
            let mut pending = Vec::with_capacity(op.len());
            for call in op {
                pending.push(self.client_half(tr, call)?);
            }
            self.crossing(tr, &mut pending)?;
            for p in pending {
                self.return_half(tr, p, observe_ns)?;
            }
        } else {
            for call in op {
                let mut pending = vec![self.client_half(tr, call)?];
                self.crossing(tr, &mut pending)?;
                let p = pending.pop().expect("one pending call");
                self.return_half(tr, p, observe_ns)?;
            }
        }
        Ok(())
    }

    fn client_half<'c>(&self, tr: &Tracer, call: &'c Call) -> Result<Pending<'c>, String> {
        let state = self.side.binding.state();
        let rt = &self.side.rt;
        let cpu = self.cpu();
        let cost = *rt.kernel().machine().cost();
        let client_ctx = state.client.ctx();
        let mut scratch = Meter::disabled();
        {
            let mut i = tr.inner.borrow_mut();
            i.calls += 1;
            let plan = &state.plans.procs[call.proc];
            i.compiled_halves += [
                plan.push.is_some(),
                plan.read.is_some(),
                plan.place.is_some(),
                plan.fetch.is_some(),
            ]
            .iter()
            .filter(|&&b| b)
            .count() as u64;
        }

        tr.span(Layer::SwitchTouch, || {
            cpu.switch_context(client_ctx.id(), &cost, &mut scratch);
            cpu.touch_pages(state.touch.client_call().iter().copied(), &mut scratch);
        });
        let class = state.astacks.class_of_proc(call.proc);
        let astack = tr
            .span(Layer::AStack, || {
                state.astacks.acquire(
                    class,
                    AStackPolicy::Fail,
                    rt.kernel(),
                    &state.client,
                    &state.server,
                )
            })
            .map_err(|e| format!("replay A-stack acquire: {e}"))?;
        let aref = state
            .astacks
            .lookup(astack)
            .ok_or("replay A-stack lookup")?;
        tr.span(Layer::SwitchTouch, || {
            cpu.touch_pages(aref.region.pages_for(aref.offset, 1), &mut scratch)
        });

        let proc = &state.interface.procs[call.proc];
        let plan = &state.plans.procs[call.proc];
        let mut oob = OobStore::new();
        {
            let mut frame = ProbeFrame {
                tr,
                cpu,
                ctx: client_ctx,
                region: &aref.region,
                base: aref.offset,
                len: aref.size,
            };
            let mut vm = StubVm::new(&cost, cpu, &mut scratch);
            tr.span(Layer::Push, || match &plan.push {
                Some(p) => p.execute(proc, &call.args, &mut frame, &mut vm),
                None => vm.client_push_args(proc, &call.args, &mut frame, &mut oob),
            })
            .map_err(|e| format!("replay push: {e}"))?;
        }

        let mut chunk = None;
        if !oob.is_empty() {
            let total: usize = oob.iter().map(|s| s.len() + 8).sum();
            if let Some(arena) = &state.bulk {
                if let Some(c) = tr.span(Layer::Bulk, || arena.acquire(total)) {
                    chunk = Some((c.index, c.offset));
                    let region = arena.region();
                    let mut off = c.offset;
                    for seg in &oob {
                        let mut hdr = [0u8; 8];
                        hdr[..4].copy_from_slice(&(seg.len() as u32).to_le_bytes());
                        tr.note_copy(seg.len() + 8);
                        tr.span(Layer::RegionCopy, || {
                            region.write_raw(off, &hdr)?;
                            region.write_raw(off + 8, seg)
                        })
                        .map_err(|e| format!("replay bulk write: {e}"))?;
                        tr.span(Layer::SwitchTouch, || {
                            cpu.touch_pages(region.pages_for(off, seg.len() + 8), &mut scratch)
                        });
                        off += seg.len() + 8;
                    }
                }
            }
        }
        Ok(Pending {
            call,
            class,
            astack,
            region: Arc::clone(&aref.region),
            offset: aref.offset,
            size: aref.size,
            oob,
            chunk,
            slot: None,
            estack_key: 0,
        })
    }

    fn crossing(&self, tr: &Tracer, pending: &mut [Pending<'_>]) -> Result<(), String> {
        let side = self.side;
        let state = side.binding.state();
        let rt = &side.rt;
        let thread = &side.threads[self.cpu_id];
        let cpu = self.cpu();
        let cost = *rt.kernel().machine().cost();
        let server_ctx = state.server.ctx();
        let client_ctx = state.client.ctx();
        let mut scratch = Meter::disabled();

        tr.span(Layer::Trap, || rt.kernel().trap(cpu, &mut scratch));
        tr.span(Layer::SwitchTouch, || {
            cpu.touch_pages(state.touch.kernel_call().iter().copied(), &mut scratch)
        });
        let handle = side.binding.handle();
        tr.span(Layer::Validate, || rt.validate_binding(handle))
            .map_err(|e| format!("replay validate: {e}"))?;
        let return_sp = thread.user_sp();
        let mut first: Option<Linkage> = None;
        for p in pending.iter_mut() {
            let slot = tr
                .span(Layer::AStack, || {
                    state.astacks.validate(p.astack, p.class).ok()?;
                    let slot = state.astacks.linkage(p.astack)?;
                    slot.try_claim().then_some(slot)
                })
                .ok_or("replay linkage claim")?;
            let linkage = Linkage {
                caller_domain: state.client.id(),
                callee_domain: state.server.id(),
                binding: handle,
                astack_index: p.astack,
                proc_index: p.call.proc,
                return_sp,
                valid: true,
            };
            slot.set_record(linkage);
            p.slot = Some(slot);
            first.get_or_insert(linkage);
        }
        if let Some(linkage) = first {
            tr.span(Layer::Linkage, || thread.push_linkage(linkage));
        }
        for p in pending.iter_mut() {
            let key = (p.region.id().0 << 24) | p.astack as u64;
            p.estack_key = key;
            let (estack, _) = tr.span(Layer::EStack, || {
                state.estack_pool.get_for_call(rt.kernel(), key)
            });
            tr.span(Layer::Linkage, || thread.set_user_sp(estack.id().0 << 32));
            let mut header = [0u8; 16];
            header[..4].copy_from_slice(&(p.call.proc as u32).to_le_bytes());
            header[4..8].copy_from_slice(&(p.astack as u32).to_le_bytes());
            tr.note_copy(header.len());
            tr.span(Layer::RegionCopy, || estack.write_raw(0, &header))
                .map_err(|e| format!("replay E-stack write: {e}"))?;
        }
        tr.span(Layer::SwitchTouch, || {
            cpu.switch_context(server_ctx.id(), &cost, &mut scratch)
        });

        for p in pending.iter_mut() {
            self.server_half(tr, p)?;
        }

        tr.span(Layer::Trap, || rt.kernel().trap(cpu, &mut scratch));
        tr.span(Layer::SwitchTouch, || {
            cpu.touch_pages(state.touch.kernel_return().iter().copied(), &mut scratch)
        });
        for p in pending.iter_mut() {
            if let Some(slot) = p.slot.take() {
                tr.span(Layer::AStack, || slot.release());
            }
            tr.span(Layer::EStack, || state.estack_pool.end_call(p.estack_key));
        }
        if first.is_some() {
            tr.span(Layer::Linkage, || {
                thread.pop_linkage();
                thread.set_user_sp(return_sp);
            });
        }
        tr.span(Layer::SwitchTouch, || {
            cpu.switch_context(client_ctx.id(), &cost, &mut scratch)
        });
        Ok(())
    }

    fn server_half(&self, tr: &Tracer, p: &mut Pending<'_>) -> Result<(), String> {
        let state = self.side.binding.state();
        let cpu = self.cpu();
        let cost = *self.side.rt.kernel().machine().cost();
        let server_ctx = state.server.ctx();
        let mut scratch = Meter::disabled();
        tr.span(Layer::SwitchTouch, || {
            cpu.touch_pages(state.touch.server_side().iter().copied(), &mut scratch);
            cpu.touch_pages(p.region.pages_for(p.offset, 1), &mut scratch);
        });

        // The out-of-band rebuild, under the server's protection context.
        let mut server_oob = OobStore::new();
        match (p.chunk, &state.bulk) {
            (Some((_, base)), Some(arena)) => {
                let region = arena.region();
                tr.span(Layer::VmCheck, || {
                    server_ctx.check(region.id(), false, false)
                })
                .map_err(|e| format!("replay bulk check: {e}"))?;
                let mut off = base;
                for _ in 0..p.oob.len() {
                    let seg = tr
                        .span(Layer::RegionCopy, || {
                            let hdr = region.read_vec(off, 8)?;
                            let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
                            region.read_vec(off + 8, len)
                        })
                        .map_err(|e| format!("replay bulk read: {e}"))?;
                    tr.note_copy(seg.len() + 8);
                    tr.span(Layer::SwitchTouch, || {
                        cpu.touch_pages(region.pages_for(off, seg.len() + 8), &mut scratch)
                    });
                    off += seg.len() + 8;
                    server_oob.push(seg);
                }
            }
            _ => server_oob.clone_from(&p.oob),
        }

        let proc = &state.interface.procs[p.call.proc];
        let plan = &state.plans.procs[p.call.proc];
        {
            let frame = ProbeFrame {
                tr,
                cpu,
                ctx: server_ctx,
                region: &p.region,
                base: p.offset,
                len: p.size,
            };
            let mut vm = StubVm::new(&cost, cpu, &mut scratch);
            tr.span(Layer::Read, || match &plan.read {
                Some(rp) => {
                    let mut out = ArgVec::new();
                    rp.execute(&frame, &mut vm, &mut out).map(|()| out.len())
                }
                None => vm
                    .server_read_args(proc, &frame, &server_oob)
                    .map(|v| v.len()),
            })
            .map_err(|e| format!("replay read: {e}"))?;
        }

        let reply = p.call.expect.reply();
        let mut frame = ProbeFrame {
            tr,
            cpu,
            ctx: server_ctx,
            region: &p.region,
            base: p.offset,
            len: p.size,
        };
        tr.span(Layer::Place, || match &plan.place {
            Some(pp) => pp.execute(reply.ret.as_ref(), &reply.outs, &mut frame),
            None => StubVm::new(&cost, cpu, &mut scratch).server_place_results(
                proc,
                reply.ret.as_ref(),
                &reply.outs,
                &mut frame,
                &mut p.oob,
            ),
        })
        .map_err(|e| format!("replay place: {e}"))?;
        Ok(())
    }

    fn return_half(&self, tr: &Tracer, p: Pending<'_>, observe_ns: u64) -> Result<(), String> {
        let state = self.side.binding.state();
        let cpu = self.cpu();
        let cost = *self.side.rt.kernel().machine().cost();
        let client_ctx = state.client.ctx();
        let mut scratch = Meter::disabled();
        tr.span(Layer::SwitchTouch, || {
            cpu.touch_pages(state.touch.client_return().iter().copied(), &mut scratch);
            cpu.touch_pages(p.region.pages_for(p.offset, 1), &mut scratch);
        });
        let proc = &state.interface.procs[p.call.proc];
        let plan = &state.plans.procs[p.call.proc];
        let frame = ProbeFrame {
            tr,
            cpu,
            ctx: client_ctx,
            region: &p.region,
            base: p.offset,
            len: p.size,
        };
        let (ret, outs) = {
            let mut vm = StubVm::new(&cost, cpu, &mut scratch);
            tr.span(Layer::Fetch, || match &plan.fetch {
                Some(fp) => fp.execute(&frame, &mut vm),
                None => vm.client_fetch_results(proc, &frame, &p.oob),
            })
            .map_err(|e| format!("replay fetch: {e}"))?
        };
        if !p.call.expect.holds(&ret, &outs) {
            return Err(format!(
                "replayed call to procedure {} returned a wrong result",
                p.call.proc
            ));
        }
        if let (Some((index, _)), Some(arena)) = (p.chunk, &state.bulk) {
            tr.span(Layer::Bulk, || arena.release(index));
        }
        tr.span(Layer::AStack, || state.astacks.release(p.astack));
        if let Some(t) = state.stats.tail_latency() {
            tr.span(Layer::TailObserve, || t.observe(observe_ns));
        }
        if let Some(h) = state.stats.latency() {
            tr.span(Layer::HistObserve, || h.observe(observe_ns));
        }
        Ok(())
    }
}
