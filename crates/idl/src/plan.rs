//! Bind-time stub specialization: compiled copy plans.
//!
//! Section 3.3: the LRPC stub generator wins its 4× over Modula2+ stubs by
//! emitting maximally specialized code — "mainly move and trap
//! instructions" — with every run-time decision already made. The stub VM
//! in [`crate::stubvm`] reproduces the *cost model* of those stubs but
//! still interprets each slot: per-parameter dispatch on slot kind,
//! per-parameter bounds arithmetic, and a fresh heap vector for every
//! frame read.
//!
//! This module is the missing compile step. [`InterfacePlans::compile`]
//! lowers each [`CompiledProc`]'s frame layout into a [`ProcPlan`] of four
//! stub halves whose offsets, sizes, conformance-check decisions and cost
//! totals are all computed once, at binding time:
//!
//! * adjacent fixed-size scalar slots are coalesced into single bulk moves
//!   ([`PushStep::Run`]) when their encodings tile the frame gap-free;
//! * byte-array arguments move directly between the [`Value`] buffer and
//!   the frame with no intermediate copy;
//! * the per-operation/per-byte virtual-time charges are summed at compile
//!   time and issued as one fused [`StubVm::charge_bulk`], which by cost
//!   linearity equals the interpreter's charge sequence to the nanosecond
//!   (Table 5 and the §3.3 ratio are preserved bit-for-bit);
//! * anything the plan cannot specialize — out-of-band slots, complex or
//!   variable types, oversized records — leaves that half as `None` and
//!   the caller falls back to the interpreter, exactly the paper's
//!   "Modula2+ code for more complicated, but less frequently traveled
//!   execution paths".
//!
//! Plan execution reads frames through the borrowed
//! [`Frame::read_into`] accessor into fixed stack scratch, so the
//! fixed-argument fast path performs zero heap allocations; server
//! arguments land in an [`ArgVec`] with inline capacity for
//! [`ARGVEC_INLINE`] values.

use core::mem::MaybeUninit;

use crate::layout::SlotKind;
use crate::stubgen::{CompiledInterface, CompiledProc, StubLang};
use crate::stubvm::{needs_server_copy, FetchedResults, Frame, StubError, StubVm};
use crate::types::Ty;
use crate::wire::{decode_as, encode_into, Value, WireError};

/// Stack scratch size for scalar encodes/decodes. Fixed values larger than
/// this (big records) are left to the interpreter.
pub const SCRATCH_BYTES: usize = 64;

/// Inline capacity of [`ArgVec`]: server argument vectors up to this many
/// values live entirely on the stack.
pub const ARGVEC_INLINE: usize = 8;

fn mismatch(ty: &Ty) -> WireError {
    WireError::TypeMismatch {
        expected: ty.to_string(),
    }
}

/// How a value moves between a [`Value`] and a frame slot.
enum Class {
    /// Scalar (or small record): encoded length `len`, staged through
    /// stack scratch.
    Scalar(usize),
    /// `bytes[n]`: moved directly between the value's buffer and the
    /// frame, no staging copy.
    Bytes(usize),
    /// `var bytes[max]` in an inline slot: a 4-byte length prefix plus the
    /// payload, moved directly with the bounds check hoisted to the plan
    /// (the only run-time decision left is the payload length itself).
    Var(usize),
}

/// Classifies a type for plan compilation; `None` means this half must
/// fall back to the interpreter.
fn classify(ty: &Ty) -> Option<Class> {
    match ty {
        Ty::ByteArray(n) => Some(Class::Bytes(*n)),
        Ty::VarBytes(max) => Some(Class::Var(*max)),
        _ => match ty.fixed_size() {
            Some(len) if len <= SCRATCH_BYTES => Some(Class::Scalar(len)),
            _ => None,
        },
    }
}

/// Writes one fixed-size value into its frame slot: byte arrays go
/// directly from the value's buffer, everything else stages through stack
/// scratch.
fn write_fixed(
    frame: &mut dyn Frame,
    offset: usize,
    value: &Value,
    ty: &Ty,
) -> Result<(), StubError> {
    if let (Value::Bytes(b), Ty::ByteArray(n)) = (value, ty) {
        if b.len() != *n {
            return Err(StubError::Wire(mismatch(ty)));
        }
        return frame.write(offset, b);
    }
    if let Ty::VarBytes(_) = ty {
        return write_var(frame, offset, value, ty);
    }
    let mut scratch = [0u8; SCRATCH_BYTES];
    let len = encode_into(value, ty, &mut scratch)?;
    frame.write(offset, &scratch[..len])
}

/// Writes a `var bytes` value: 4-byte little-endian length prefix, then the
/// payload straight from the value's buffer. The two writes leave the frame
/// byte-identical to the interpreter's single contiguous `encode_vec` write
/// (the slot tail past `4 + len` is untouched in both).
fn write_var(
    frame: &mut dyn Frame,
    offset: usize,
    value: &Value,
    ty: &Ty,
) -> Result<(), StubError> {
    let (Value::Var(b), Ty::VarBytes(max)) = (value, ty) else {
        return Err(StubError::Wire(mismatch(ty)));
    };
    if b.len() > *max {
        return Err(StubError::Wire(WireError::TooLong {
            len: b.len(),
            max: *max,
        }));
    }
    frame.write(offset, &(b.len() as u32).to_le_bytes())?;
    frame.write(offset + 4, b)
}

/// Reads one fixed-size value from a frame slot. Reads the full reserved
/// `size` (so TLB page touches match the interpreter), then decodes the
/// encoded prefix.
fn read_fixed(
    frame: &dyn Frame,
    offset: usize,
    size: usize,
    ty: &Ty,
    checked: bool,
) -> Result<Value, StubError> {
    if let Ty::ByteArray(n) = ty {
        // One allocation: the value's own buffer. Oversized (aligned)
        // slots are read in full and trimmed to the array length.
        let mut buf = vec![0; size];
        frame.read_into(offset, &mut buf)?;
        buf.truncate(*n);
        return Ok(Value::Bytes(buf));
    }
    if let Ty::VarBytes(_) = ty {
        // Variable slots read the full reserved size like the interpreter
        // (TLB touches match); the decoder consumes the length-prefixed
        // payload and ignores the slot tail.
        let buf = frame.read(offset, size)?;
        return Ok(decode_as(&buf, ty, checked)?.0);
    }
    let mut scratch = [0u8; SCRATCH_BYTES];
    frame.read_into(offset, &mut scratch[..size])?;
    Ok(decode_as(&scratch[..size], ty, checked)?.0)
}

/// A server-argument vector with inline stack capacity.
///
/// Up to [`ARGVEC_INLINE`] values are stored in place; longer argument
/// lists (or interpreter-produced vectors adopted via [`ArgVec::from_vec`])
/// spill to the heap. The common fixed-argument procedures of the paper's
/// benchmarks (0–2 parameters) never allocate.
pub struct ArgVec {
    inline: [MaybeUninit<Value>; ARGVEC_INLINE],
    inline_len: usize,
    spill: Vec<Value>,
    spilled: bool,
}

impl ArgVec {
    /// An empty, non-allocating vector.
    pub fn new() -> ArgVec {
        ArgVec {
            inline: [const { MaybeUninit::uninit() }; ARGVEC_INLINE],
            inline_len: 0,
            spill: Vec::new(),
            spilled: false,
        }
    }

    /// Adopts an interpreter-produced vector (no copy).
    pub fn from_vec(vals: Vec<Value>) -> ArgVec {
        ArgVec {
            inline: [const { MaybeUninit::uninit() }; ARGVEC_INLINE],
            inline_len: 0,
            spill: vals,
            spilled: true,
        }
    }

    /// Appends a value, spilling to the heap past the inline capacity.
    pub fn push(&mut self, v: Value) {
        if !self.spilled {
            if self.inline_len < ARGVEC_INLINE {
                self.inline[self.inline_len].write(v);
                self.inline_len += 1;
                return;
            }
            self.spill.reserve(ARGVEC_INLINE + 1);
            for slot in &mut self.inline[..self.inline_len] {
                // SAFETY: the first `inline_len` slots are initialized;
                // each is moved out exactly once and `inline_len` is reset
                // below so neither `as_slice` nor `Drop` revisits them.
                self.spill.push(unsafe { slot.assume_init_read() });
            }
            self.inline_len = 0;
            self.spilled = true;
        }
        self.spill.push(v);
    }

    /// The values as a contiguous slice.
    pub fn as_slice(&self) -> &[Value] {
        if self.spilled {
            &self.spill
        } else {
            // SAFETY: the first `inline_len` inline slots are initialized,
            // and `MaybeUninit<Value>` has the same layout as `Value`.
            unsafe {
                core::slice::from_raw_parts(self.inline.as_ptr().cast::<Value>(), self.inline_len)
            }
        }
    }

    /// Number of values held.
    pub fn len(&self) -> usize {
        if self.spilled {
            self.spill.len()
        } else {
            self.inline_len
        }
    }

    /// True if no values are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ArgVec {
    fn default() -> ArgVec {
        ArgVec::new()
    }
}

impl Drop for ArgVec {
    fn drop(&mut self) {
        if !self.spilled {
            for slot in &mut self.inline[..self.inline_len] {
                // SAFETY: the first `inline_len` slots are initialized and
                // dropped exactly once here.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

/// One move in a compiled client-push plan.
#[derive(Clone, Debug)]
pub enum PushStep {
    /// A coalesced run of `count` scalar parameters starting at parameter
    /// index `first`, whose encodings tile `[offset, offset + len)` with
    /// no gaps: encoded into stack scratch, written with one bulk move.
    Run {
        /// First parameter index of the run.
        first: usize,
        /// Number of consecutive parameters fused.
        count: usize,
        /// Frame offset of the run.
        offset: usize,
        /// Total encoded length of the run.
        len: usize,
    },
    /// A `bytes[len]` argument moved directly from the value's buffer.
    Bytes {
        /// Parameter index.
        param: usize,
        /// Frame offset.
        offset: usize,
        /// Array length.
        len: usize,
    },
    /// A `var bytes[max]` argument in an inline slot: length prefix plus
    /// payload moved directly from the value's buffer. Its data-op charge
    /// depends on the run-time payload length, so it is issued per step
    /// rather than folded into the plan's fused charge.
    Var {
        /// Parameter index.
        param: usize,
        /// Frame offset.
        offset: usize,
        /// Declared maximum payload length.
        max: usize,
    },
}

/// Compiled client call half: push every in-direction argument.
#[derive(Clone, Debug)]
pub struct PushPlan {
    steps: Vec<PushStep>,
    ops: u64,
    bytes: u64,
    lang: StubLang,
}

impl PushPlan {
    /// Executes the plan: one fused charge, then the coalesced moves.
    pub fn execute(
        &self,
        proc: &CompiledProc,
        args: &[Value],
        frame: &mut dyn Frame,
        vm: &mut StubVm,
    ) -> Result<(), StubError> {
        if args.len() != proc.def.params.len() {
            return Err(StubError::ArgCount {
                expected: proc.def.params.len(),
                got: args.len(),
            });
        }
        vm.charge_bulk(self.lang, self.ops, self.bytes);
        for step in &self.steps {
            match step {
                PushStep::Run {
                    first,
                    count,
                    offset,
                    len,
                } => {
                    let mut scratch = [0u8; SCRATCH_BYTES];
                    let mut pos = 0;
                    let run = args[*first..*first + *count]
                        .iter()
                        .zip(&proc.def.params[*first..*first + *count]);
                    for (arg, param) in run {
                        pos += encode_into(arg, &param.ty, &mut scratch[pos..])?;
                    }
                    debug_assert_eq!(pos, *len);
                    frame.write(*offset, &scratch[..*len])?;
                }
                PushStep::Bytes { param, offset, len } => match &args[*param] {
                    Value::Bytes(b) if b.len() == *len => frame.write(*offset, b)?,
                    _ => {
                        return Err(StubError::Wire(mismatch(&proc.def.params[*param].ty)));
                    }
                },
                PushStep::Var { param, offset, max } => match &args[*param] {
                    Value::Var(b) if b.len() <= *max => {
                        // Run-time-length charge: one data op over the
                        // 4-byte prefix plus the payload, exactly the
                        // interpreter's charge for the encoded value.
                        vm.charge_bulk(self.lang, 1, 4 + b.len() as u64);
                        frame.write(*offset, &(b.len() as u32).to_le_bytes())?;
                        frame.write(*offset + 4, b)?;
                    }
                    Value::Var(b) => {
                        return Err(StubError::Wire(WireError::TooLong {
                            len: b.len(),
                            max: *max,
                        }));
                    }
                    _ => {
                        return Err(StubError::Wire(mismatch(&proc.def.params[*param].ty)));
                    }
                },
            }
        }
        Ok(())
    }

    /// The compiled move steps (listed by the `stubgen` tool).
    pub fn steps(&self) -> &[PushStep] {
        &self.steps
    }
}

/// One action in a compiled server-read plan, in parameter order.
#[derive(Clone, Debug)]
enum ReadAction {
    /// Out-only parameter: prime a zero placeholder.
    Zero(Ty),
    /// In/inout parameter: read the slot and decode (checked when the
    /// Section 3.5 rules require a server-side copy).
    Read {
        offset: usize,
        size: usize,
        ty: Ty,
        checked: bool,
    },
}

/// Compiled server entry half: read every parameter off the A-stack.
#[derive(Clone, Debug)]
pub struct ReadPlan {
    actions: Vec<ReadAction>,
    ops: u64,
    bytes: u64,
    lang: StubLang,
}

impl ReadPlan {
    /// Executes the plan into `out` (one value per parameter).
    pub fn execute(
        &self,
        frame: &dyn Frame,
        vm: &mut StubVm,
        out: &mut ArgVec,
    ) -> Result<(), StubError> {
        vm.charge_bulk(self.lang, self.ops, self.bytes);
        for action in &self.actions {
            match action {
                ReadAction::Zero(ty) => out.push(Value::zero_of(ty)),
                ReadAction::Read {
                    offset,
                    size,
                    ty,
                    checked,
                } => out.push(read_fixed(frame, *offset, *size, ty, *checked)?),
            }
        }
        Ok(())
    }
}

/// A compiled inline result slot.
#[derive(Clone, Debug)]
struct PlaceSlot {
    offset: usize,
    ty: Ty,
}

/// Compiled server return half: place the return value and out parameters.
/// Inline placement is free (the server writes results directly into the
/// A-stack/reply), so this plan only moves bytes.
#[derive(Clone, Debug)]
pub struct PlacePlan {
    ret: Option<PlaceSlot>,
    params: Vec<Option<PlaceSlot>>,
}

impl PlacePlan {
    /// Executes the plan.
    ///
    /// # Panics
    ///
    /// Panics if an `outs` entry indexes past the procedure's parameters,
    /// matching the interpreter.
    pub fn execute(
        &self,
        ret: Option<&Value>,
        outs: &[(usize, Value)],
        frame: &mut dyn Frame,
    ) -> Result<(), StubError> {
        if let Some(slot) = &self.ret {
            let v = ret.ok_or(StubError::MissingResult)?;
            write_fixed(frame, slot.offset, v, &slot.ty)?;
        }
        for (i, v) in outs {
            if let Some(slot) = &self.params[*i] {
                write_fixed(frame, slot.offset, v, &slot.ty)?;
            }
        }
        Ok(())
    }
}

/// A compiled fetch slot (`param: None` is the return value).
#[derive(Clone, Debug)]
struct FetchSlot {
    param: Option<usize>,
    offset: usize,
    size: usize,
    ty: Ty,
}

/// Compiled client return half: fetch the return value and out parameters
/// "from the A-stack into their final destination".
#[derive(Clone, Debug)]
pub struct FetchPlan {
    slots: Vec<FetchSlot>,
    ops: u64,
    bytes: u64,
    lang: StubLang,
}

impl FetchPlan {
    /// Executes the plan: one fused charge, then the reads.
    pub fn execute(&self, frame: &dyn Frame, vm: &mut StubVm) -> Result<FetchedResults, StubError> {
        vm.charge_bulk(self.lang, self.ops, self.bytes);
        let mut ret = None;
        let mut outs = Vec::new();
        for slot in &self.slots {
            let v = read_fixed(frame, slot.offset, slot.size, &slot.ty, false)?;
            match slot.param {
                None => ret = Some(v),
                Some(i) => outs.push((i, v)),
            }
        }
        Ok((ret, outs))
    }
}

/// All four compiled halves of one procedure, plus the per-call byte
/// totals the runtime needs. A `None` half falls back to the interpreter.
#[derive(Clone, Debug)]
pub struct ProcPlan {
    /// Client call half.
    pub push: Option<PushPlan>,
    /// Server entry half.
    pub read: Option<ReadPlan>,
    /// Server return half.
    pub place: Option<PlacePlan>,
    /// Client return half.
    pub fetch: Option<FetchPlan>,
    /// Total inline slot bytes travelling in (precomputed so the call path
    /// does not re-derive it per call).
    pub in_bytes: usize,
    /// Total inline slot bytes travelling out (including the return slot).
    pub out_bytes: usize,
}

impl ProcPlan {
    /// Compiles one procedure's stub halves.
    pub fn compile(proc: &CompiledProc) -> ProcPlan {
        let in_bytes = proc
            .layout
            .params
            .iter()
            .zip(&proc.def.params)
            .filter(|(_, p)| p.dir.is_in())
            .map(|(s, _)| s.size)
            .sum();
        let out_bytes = proc
            .layout
            .params
            .iter()
            .zip(&proc.def.params)
            .filter(|(_, p)| p.dir.is_out())
            .map(|(s, _)| s.size)
            .sum::<usize>()
            + proc.layout.ret.as_ref().map_or(0, |s| s.size);
        ProcPlan {
            push: compile_push(proc),
            read: compile_read(proc),
            place: compile_place(proc),
            fetch: compile_fetch(proc),
            in_bytes,
            out_bytes,
        }
    }

    /// True when every half compiled (no interpreter fallback).
    pub fn fully_compiled(&self) -> bool {
        self.push.is_some() && self.read.is_some() && self.place.is_some() && self.fetch.is_some()
    }

    /// A one-line summary of what compiled, for diagnostics.
    pub fn describe(&self) -> String {
        let half = |b: bool| if b { "plan" } else { "interp" };
        let moves = self.push.as_ref().map_or(0, |p| p.steps.len());
        format!(
            "push={} ({moves} moves), read={}, place={}, fetch={}, in={}B, out={}B",
            half(self.push.is_some()),
            half(self.read.is_some()),
            half(self.place.is_some()),
            half(self.fetch.is_some()),
            self.in_bytes,
            self.out_bytes,
        )
    }
}

fn compile_push(proc: &CompiledProc) -> Option<PushPlan> {
    struct Run {
        first: usize,
        count: usize,
        offset: usize,
        len: usize,
    }
    let mut steps = Vec::new();
    let mut run: Option<Run> = None;
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let flush = |run: &mut Option<Run>, steps: &mut Vec<PushStep>| {
        if let Some(r) = run.take() {
            steps.push(PushStep::Run {
                first: r.first,
                count: r.count,
                offset: r.offset,
                len: r.len,
            });
        }
    };
    for (i, param) in proc.def.params.iter().enumerate() {
        if !param.dir.is_in() {
            continue;
        }
        let slot = &proc.layout.params[i];
        if slot.kind != SlotKind::Inline {
            return None;
        }
        match classify(&param.ty)? {
            Class::Bytes(len) => {
                flush(&mut run, &mut steps);
                steps.push(PushStep::Bytes {
                    param: i,
                    offset: slot.offset,
                    len,
                });
                ops += 1;
                bytes += len as u64;
            }
            Class::Var(max) => {
                // Charged at run time (payload length varies per call), so
                // nothing is folded into the plan's fused charge.
                flush(&mut run, &mut steps);
                steps.push(PushStep::Var {
                    param: i,
                    offset: slot.offset,
                    max,
                });
            }
            Class::Scalar(len) => {
                ops += 1;
                bytes += len as u64;
                match &mut run {
                    // Fuse only consecutive parameters whose encodings tile
                    // the frame with no padding gap — the bulk write is
                    // then byte-identical to the per-slot writes.
                    Some(r)
                        if r.first + r.count == i
                            && r.offset + r.len == slot.offset
                            && r.len + len <= SCRATCH_BYTES =>
                    {
                        r.count += 1;
                        r.len += len;
                    }
                    _ => {
                        flush(&mut run, &mut steps);
                        run = Some(Run {
                            first: i,
                            count: 1,
                            offset: slot.offset,
                            len,
                        });
                    }
                }
            }
        }
    }
    flush(&mut run, &mut steps);
    Some(PushPlan {
        steps,
        ops,
        bytes,
        lang: proc.lang,
    })
}

fn compile_read(proc: &CompiledProc) -> Option<ReadPlan> {
    let mut actions = Vec::new();
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for (i, param) in proc.def.params.iter().enumerate() {
        if !param.dir.is_in() {
            actions.push(ReadAction::Zero(param.ty.clone()));
            continue;
        }
        let slot = &proc.layout.params[i];
        if slot.kind != SlotKind::Inline {
            return None;
        }
        classify(&param.ty)?;
        let checked = needs_server_copy(param, proc.def.inplace);
        if checked {
            // Only the Section 3.5 server-side copies are charged; plain
            // reads use the value directly off the shared A-stack.
            ops += 1;
            bytes += slot.size as u64;
        }
        actions.push(ReadAction::Read {
            offset: slot.offset,
            size: slot.size,
            ty: param.ty.clone(),
            checked,
        });
    }
    Some(ReadPlan {
        actions,
        ops,
        bytes,
        lang: proc.lang,
    })
}

fn compile_place(proc: &CompiledProc) -> Option<PlacePlan> {
    let ret = match (&proc.def.ret, &proc.layout.ret) {
        (Some(ret_ty), Some(slot)) => {
            if slot.kind != SlotKind::Inline {
                return None;
            }
            classify(ret_ty)?;
            Some(PlaceSlot {
                offset: slot.offset,
                ty: ret_ty.clone(),
            })
        }
        _ => None,
    };
    let mut params = Vec::with_capacity(proc.def.params.len());
    for (i, param) in proc.def.params.iter().enumerate() {
        if param.dir.is_out() {
            let slot = &proc.layout.params[i];
            if slot.kind != SlotKind::Inline {
                return None;
            }
            classify(&param.ty)?;
            params.push(Some(PlaceSlot {
                offset: slot.offset,
                ty: param.ty.clone(),
            }));
        } else {
            params.push(None);
        }
    }
    Some(PlacePlan { ret, params })
}

fn compile_fetch(proc: &CompiledProc) -> Option<FetchPlan> {
    let mut slots = Vec::new();
    let mut ops = 0u64;
    let mut bytes = 0u64;
    if let (Some(ret_ty), Some(slot)) = (&proc.def.ret, &proc.layout.ret) {
        if slot.kind != SlotKind::Inline {
            return None;
        }
        classify(ret_ty)?;
        slots.push(FetchSlot {
            param: None,
            offset: slot.offset,
            size: slot.size,
            ty: ret_ty.clone(),
        });
        ops += 1;
        bytes += slot.size as u64;
    }
    for (i, param) in proc.def.params.iter().enumerate() {
        if !param.dir.is_out() {
            continue;
        }
        let slot = &proc.layout.params[i];
        if slot.kind != SlotKind::Inline {
            return None;
        }
        classify(&param.ty)?;
        slots.push(FetchSlot {
            param: Some(i),
            offset: slot.offset,
            size: slot.size,
            ty: param.ty.clone(),
        });
        ops += 1;
        bytes += slot.size as u64;
    }
    Some(FetchPlan {
        slots,
        ops,
        bytes,
        lang: proc.lang,
    })
}

/// Every procedure's compiled plan for one interface, index-aligned with
/// [`CompiledInterface::procs`]. Compiled once per export and shared by
/// every binding of it.
#[derive(Clone, Debug)]
pub struct InterfacePlans {
    /// One plan per procedure.
    pub procs: Vec<ProcPlan>,
}

impl InterfacePlans {
    /// Compiles plans for every procedure of `iface`.
    pub fn compile(iface: &CompiledInterface) -> InterfacePlans {
        InterfacePlans {
            procs: iface.procs.iter().map(ProcPlan::compile).collect(),
        }
    }

    /// Number of procedures whose four halves all compiled.
    pub fn fully_compiled_count(&self) -> usize {
        self.procs.iter().filter(|p| p.fully_compiled()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::stubgen::compile;
    use crate::stubvm::{LocalFrame, OobStore};
    use firefly::cpu::Machine;
    use firefly::meter::Meter;

    fn compiled(src: &str) -> CompiledInterface {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn add_pushes_coalesce_into_one_bulk_move() {
        let iface = compiled(
            "interface B { procedure Add(a: int32, b: int32) -> int32; \
             procedure Read(h: int32, buf: out bytes[64]) -> int32; }",
        );
        let plan = ProcPlan::compile(&iface.procs[0]);
        let push = plan.push.as_ref().expect("fixed args compile");
        assert_eq!(push.steps.len(), 1, "two adjacent int32 slots fuse");
        match &push.steps[0] {
            PushStep::Run {
                first,
                count,
                offset,
                len,
            } => {
                assert_eq!((*first, *count, *offset, *len), (0, 2, 0, 8));
            }
            other => panic!("expected a run, got {other:?}"),
        }
        assert!(plan.fully_compiled());
        assert_eq!(plan.in_bytes, 8);
        assert_eq!(plan.out_bytes, 4);

        // Out parameters travel only out: the handle is the one move in.
        let read = ProcPlan::compile(&iface.procs[1]);
        assert_eq!(read.push.unwrap().steps.len(), 1);
        assert_eq!(read.in_bytes, 4);
        assert_eq!(read.out_bytes, 64 + 4);
    }

    #[test]
    fn padding_gaps_break_runs() {
        // bool encodes 1 byte into a 4-byte slot: the padding gap before
        // the next slot must prevent fusion (bulk writes stay
        // byte-identical to per-slot writes).
        let iface = compiled("interface B { procedure P(a: bool, b: int32); }");
        let plan = ProcPlan::compile(&iface.procs[0]);
        assert_eq!(plan.push.unwrap().steps.len(), 2);
    }

    #[test]
    fn byte_arrays_move_directly() {
        let iface = compiled("interface B { procedure BigIn(data: in bytes[200]); }");
        let plan = ProcPlan::compile(&iface.procs[0]);
        let push = plan.push.unwrap();
        assert!(matches!(
            push.steps[0],
            PushStep::Bytes {
                param: 0,
                offset: 0,
                len: 200
            }
        ));
    }

    #[test]
    fn complex_and_out_of_band_types_fall_back_to_the_interpreter() {
        // Complex types and OOB-demoted slots stay interpreted; inline
        // variable byte arrays now compile.
        let iface = compiled(
            "interface B { procedure Walk(t: tree); procedure Send(pkt: var bytes[4096]); }",
        );
        assert_eq!(iface.procs[0].lang, StubLang::Modula2Plus);
        assert_eq!(iface.procs[1].lang, StubLang::Assembly);
        let walk = ProcPlan::compile(&iface.procs[0]);
        assert!(walk.push.is_none() && walk.read.is_none());
        let send = ProcPlan::compile(&iface.procs[1]);
        assert!(
            send.push.is_none(),
            "out-of-band slots are interpreter-only"
        );
        let plans = InterfacePlans::compile(&iface);
        assert_eq!(plans.fully_compiled_count(), 0);
    }

    #[test]
    fn inline_variable_bytes_compile() {
        let iface = compiled("interface B { procedure Log(m: var bytes[256]); }");
        let plan = ProcPlan::compile(&iface.procs[0]);
        assert!(plan.fully_compiled(), "inline var bytes lower to a plan");
        let push = plan.push.as_ref().unwrap();
        assert!(matches!(
            push.steps[0],
            PushStep::Var {
                param: 0,
                offset: 0,
                max: 256
            }
        ));
    }

    /// Runs the full four-half cycle through either the interpreter or the
    /// compiled plan and returns (frame bytes, ret, outs, virtual ns).
    #[expect(clippy::type_complexity)]
    fn cycle(
        iface: &CompiledInterface,
        args: &[Value],
        ret: Option<Value>,
        outs: &[(usize, Value)],
        use_plan: bool,
    ) -> (Vec<u8>, Option<Value>, Vec<(usize, Value)>, u64) {
        let proc = &iface.procs[0];
        let machine = Machine::cvax_uniprocessor();
        let mut meter = Meter::enabled();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        let plan = ProcPlan::compile(proc);
        if use_plan {
            plan.push
                .as_ref()
                .unwrap()
                .execute(proc, args, &mut frame, &mut vm)
                .unwrap();
            let mut sargs = ArgVec::new();
            plan.read
                .as_ref()
                .unwrap()
                .execute(&frame, &mut vm, &mut sargs)
                .unwrap();
            plan.place
                .as_ref()
                .unwrap()
                .execute(ret.as_ref(), outs, &mut frame)
                .unwrap();
            let (r, o) = plan
                .fetch
                .as_ref()
                .unwrap()
                .execute(&frame, &mut vm)
                .unwrap();
            (
                frame.bytes().to_vec(),
                r,
                o,
                machine.cpu(0).now().as_nanos(),
            )
        } else {
            vm.client_push_args(proc, args, &mut frame, &mut oob)
                .unwrap();
            vm.server_read_args(proc, &frame, &oob).unwrap();
            vm.server_place_results(proc, ret.as_ref(), outs, &mut frame, &mut oob)
                .unwrap();
            let (r, o) = vm.client_fetch_results(proc, &frame, &oob).unwrap();
            (
                frame.bytes().to_vec(),
                r,
                o,
                machine.cpu(0).now().as_nanos(),
            )
        }
    }

    #[test]
    fn plan_cycle_matches_interpreter_bytes_values_and_virtual_time() {
        let iface = compiled("interface B { procedure Add(a: int32, b: int32) -> int32; }");
        let args = [Value::Int32(2), Value::Int32(3)];
        let interp = cycle(&iface, &args, Some(Value::Int32(5)), &[], false);
        let plan = cycle(&iface, &args, Some(Value::Int32(5)), &[], true);
        assert_eq!(interp, plan);

        // Null moves and charges nothing, on either path.
        let null = compiled("interface B { procedure Null(); }");
        assert!(ProcPlan::compile(&null.procs[0])
            .push
            .unwrap()
            .steps
            .is_empty());
        let plan = cycle(&null, &[], None, &[], true);
        assert_eq!(plan, cycle(&null, &[], None, &[], false));
        assert_eq!(plan.3, 0);
    }

    #[test]
    fn var_bytes_plan_cycle_matches_interpreter_at_every_length() {
        // The defensive-copy (checked) path: interpreted variable data.
        let iface = compiled("interface B { procedure Log(m: var bytes[256]); }");
        for len in [0usize, 1, 37, 256] {
            let args = [Value::Var(vec![0xAB; len])];
            let interp = cycle(&iface, &args, None, &[], false);
            let plan = cycle(&iface, &args, None, &[], true);
            assert_eq!(interp, plan, "len={len}");
        }
    }

    #[test]
    fn inout_var_bytes_plan_cycle_matches_interpreter() {
        let iface = compiled("interface B { procedure Echo(m: inout var bytes[128]); }");
        assert!(ProcPlan::compile(&iface.procs[0]).fully_compiled());
        let args = [Value::Var(vec![7; 99])];
        let outs = [(0usize, Value::Var(vec![9; 42]))];
        let interp = cycle(&iface, &args, None, &outs, false);
        let plan = cycle(&iface, &args, None, &outs, true);
        assert_eq!(interp, plan);
    }

    #[test]
    fn inplace_var_bytes_skip_the_checked_copy_charge() {
        // `[inplace]` waives the Section 3.3 defensive copy: the compiled
        // read half charges nothing, same as the interpreter's shared view.
        let guarded = compiled("interface B { procedure Log(m: var bytes[256]); }");
        let shared = compiled("interface B { [inplace = 1] procedure Log(m: var bytes[256]); }");
        let args = [Value::Var(vec![1; 200])];
        let g = cycle(&guarded, &args, None, &[], true);
        let s = cycle(&shared, &args, None, &[], true);
        assert!(
            s.3 < g.3,
            "shared view must be cheaper than copy-on-guard: {} vs {}",
            s.3,
            g.3
        );
        let s_interp = cycle(&shared, &args, None, &[], false);
        assert_eq!(s, s_interp, "inplace plan still matches its interpreter");
    }

    #[test]
    fn by_ref_var_bytes_still_take_the_checked_copy() {
        // `ref` forces the rebuild copy even under `[inplace]`.
        let iface = compiled("interface B { [inplace = 1] procedure P(m: in ref var bytes[64]); }");
        let args = [Value::Var(vec![3; 50])];
        let interp = cycle(&iface, &args, None, &[], false);
        let plan = cycle(&iface, &args, None, &[], true);
        assert_eq!(interp, plan);
        assert!(plan.3 > 0, "the rebuild copy is charged");
    }

    #[test]
    fn mixed_fixed_and_complex_procs_fall_back_entirely() {
        // A complex sibling parameter puts the whole procedure on the
        // Modula2+ marshaling path; its halves all stay interpreted.
        let iface = compiled("interface B { procedure P(n: int32, t: tree); }");
        let proc = &iface.procs[0];
        assert_eq!(proc.lang, StubLang::Modula2Plus);
        let plan = ProcPlan::compile(proc);
        assert!(!plan.fully_compiled());
        assert!(plan.push.is_none());
    }

    #[test]
    fn plan_read_rejects_nonconforming_cardinal() {
        let iface = compiled("interface B { procedure P(n: cardinal); }");
        let proc = &iface.procs[0];
        let machine = Machine::cvax_uniprocessor();
        let mut meter = Meter::enabled();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        let plan = ProcPlan::compile(proc);
        plan.push
            .as_ref()
            .unwrap()
            .execute(proc, &[Value::Cardinal(-5)], &mut frame, &mut vm)
            .unwrap();
        let mut sargs = ArgVec::new();
        let err = plan
            .read
            .as_ref()
            .unwrap()
            .execute(&frame, &mut vm, &mut sargs)
            .unwrap_err();
        assert!(matches!(
            err,
            StubError::Wire(WireError::Conformance { .. })
        ));
    }

    #[test]
    fn argvec_stays_inline_then_spills() {
        let mut v = ArgVec::new();
        for i in 0..ARGVEC_INLINE {
            v.push(Value::Int32(i as i32));
        }
        assert_eq!(v.len(), ARGVEC_INLINE);
        assert_eq!(v.as_slice()[0], Value::Int32(0));
        v.push(Value::Int32(99));
        assert_eq!(v.len(), ARGVEC_INLINE + 1);
        assert_eq!(v.as_slice()[ARGVEC_INLINE], Value::Int32(99));
        // Values with heap payloads drop cleanly from the inline store.
        let mut w = ArgVec::new();
        w.push(Value::Bytes(vec![1, 2, 3]));
        drop(w);
        let adopted = ArgVec::from_vec(vec![Value::Bool(true)]);
        assert_eq!(adopted.as_slice(), &[Value::Bool(true)]);
    }

    #[test]
    fn wrong_arg_count_is_rejected_before_any_charge() {
        let iface = compiled("interface B { procedure P(a: int32); }");
        let proc = &iface.procs[0];
        let machine = Machine::cvax_uniprocessor();
        let mut meter = Meter::enabled();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        let plan = ProcPlan::compile(proc);
        let err = plan
            .push
            .as_ref()
            .unwrap()
            .execute(proc, &[], &mut frame, &mut vm)
            .unwrap_err();
        assert!(matches!(err, StubError::ArgCount { .. }));
        assert_eq!(machine.cpu(0).now().as_nanos(), 0);
    }
}
