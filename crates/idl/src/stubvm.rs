//! The stub interpreter.
//!
//! LRPC stubs "consist mainly of move and trap instructions"; the
//! interpreter performs the moves of each stub half by walking the
//! procedure's frame layout slot by slot, charging the calibrated
//! per-operation and per-byte costs to the executing CPU. Control steps
//! (traps, A-stack queue operations, the branch into the procedure) are
//! performed by the LRPC runtime itself — their cost is part of the fixed
//! stub/kernel overhead constants.
//!
//! The copy plans of [`crate::plan`] make the same moves with every
//! decision taken at bind time and charge exactly the same; the
//! interpreter is their reference and runs the halves they do not cover.
//!
//! Modula2+ marshaling stubs run the same logical operations at 4× the
//! per-operation cost (the paper measures "a factor of four performance
//! improvement over Modula2+ stubs created by the SRC RPC stub
//! generator").

use firefly::cost::CostModel;
use firefly::cpu::Cpu;
use firefly::error::MemFault;
use firefly::meter::{Meter, Phase};

use crate::layout::SlotKind;
use crate::stubgen::{CompiledProc, StubLang};
use crate::types::Ty;
use crate::wire::{decode, decode_as, decode_checked, encode_vec, Value, WireError};

/// Cost multiplier of the Modula2+ marshaling path relative to assembly
/// stubs (Section 3.3).
pub const MODULA2_SLOWDOWN: u64 = 4;

/// An error raised by stub execution.
#[derive(Clone, Debug)]
pub enum StubError {
    /// Encoding/decoding or conformance failure.
    Wire(WireError),
    /// The underlying frame (A-stack) access faulted.
    Frame(MemFault),
    /// Wrong number of arguments supplied to the client stub.
    ArgCount {
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// An out-of-band descriptor referenced a missing segment.
    OutOfBandMissing {
        /// The dangling segment id.
        id: u32,
    },
    /// The server procedure did not produce a declared result.
    MissingResult,
}

impl core::fmt::Display for StubError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StubError::Wire(e) => write!(f, "wire error: {e}"),
            StubError::Frame(e) => write!(f, "frame fault: {e}"),
            StubError::ArgCount { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            StubError::OutOfBandMissing { id } => {
                write!(f, "out-of-band segment {id} missing")
            }
            StubError::MissingResult => write!(f, "server produced no result"),
        }
    }
}

impl std::error::Error for StubError {}

impl From<WireError> for StubError {
    fn from(e: WireError) -> StubError {
        StubError::Wire(e)
    }
}

impl From<MemFault> for StubError {
    fn from(e: MemFault) -> StubError {
        StubError::Frame(e)
    }
}

/// Byte-level access to one call's A-stack frame.
///
/// The LRPC runtime implements this over a pairwise-shared memory region;
/// tests and the message-RPC baseline use [`LocalFrame`].
pub trait Frame {
    /// Writes `data` at `offset` within the frame.
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), StubError>;
    /// Reads `out.len()` bytes at `offset` into `out` — the borrowed,
    /// zero-allocation accessor compiled copy plans are built on.
    fn read_into(&self, offset: usize, out: &mut [u8]) -> Result<(), StubError>;
    /// Reads `len` bytes at `offset` into a fresh vector (allocating
    /// convenience for the interpreter and for variable-size slots).
    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, StubError> {
        let mut buf = vec![0; len];
        self.read_into(offset, &mut buf)?;
        Ok(buf)
    }
}

/// A plain in-memory frame.
#[derive(Clone, Debug)]
pub struct LocalFrame {
    bytes: Vec<u8>,
}

impl LocalFrame {
    /// A zeroed frame of `len` bytes.
    pub fn new(len: usize) -> LocalFrame {
        LocalFrame {
            bytes: vec![0; len],
        }
    }

    /// The raw frame contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Frame for LocalFrame {
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), StubError> {
        let end = offset
            .checked_add(data.len())
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StubError::Frame(MemFault::OutOfRange {
                region: firefly::mem::RegionId(0),
                offset,
                len: data.len(),
            }))?;
        self.bytes[offset..end].copy_from_slice(data);
        Ok(())
    }

    fn read_into(&self, offset: usize, out: &mut [u8]) -> Result<(), StubError> {
        let end = offset
            .checked_add(out.len())
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StubError::Frame(MemFault::OutOfRange {
                region: firefly::mem::RegionId(0),
                offset,
                len: out.len(),
            }))?;
        out.copy_from_slice(&self.bytes[offset..end]);
        Ok(())
    }
}

/// Where one call's out-of-band segments live: host vectors ([`OobStore`])
/// or, in the LRPC runtime, the call's pairwise-shared transport. The
/// sender appends a segment and writes its `[id | len]` descriptor into the
/// frame; the receiver checks the descriptor and decodes the segment.
pub trait OobSegments {
    /// Appends `value`, encoded as `ty`, as the next segment; returns the
    /// segment's id and encoded length.
    fn append(&mut self, value: &Value, ty: &Ty) -> Result<(u32, usize), StubError>;
    /// Checks that segment `id` exists ([`StubError::OutOfBandMissing`])
    /// and holds `len` bytes ([`WireError::Truncated`]).
    fn check(&self, id: u32, len: u32) -> Result<(), StubError>;
    /// Decodes a `ty` from the first `len` bytes of the checked segment
    /// `id`, folding in the conformance checks when `checked`.
    fn decode(&self, id: u32, len: u32, ty: &Ty, checked: bool) -> Result<Value, StubError>;
}

/// Out-of-band segments accompanying one call, in host memory.
pub type OobStore = Vec<Vec<u8>>;

impl OobSegments for OobStore {
    fn append(&mut self, value: &Value, ty: &Ty) -> Result<(u32, usize), StubError> {
        let encoded = encode_vec(value, ty)?;
        let len = encoded.len();
        self.push(encoded);
        Ok((self.len() as u32 - 1, len))
    }

    fn check(&self, id: u32, len: u32) -> Result<(), StubError> {
        match self.get(id as usize) {
            None => Err(StubError::OutOfBandMissing { id }),
            Some(seg) if seg.len() < len as usize => Err(WireError::Truncated.into()),
            Some(_) => Ok(()),
        }
    }

    fn decode(&self, id: u32, len: u32, ty: &Ty, checked: bool) -> Result<Value, StubError> {
        self.check(id, len)?;
        Ok(decode_as(&self[id as usize][..len as usize], ty, checked)?.0)
    }
}

/// Fetched results: the return value plus `(param_index, value)` pairs for
/// out-direction parameters.
pub type FetchedResults = (Option<Value>, Vec<(usize, Value)>);

/// True if the server stub must copy this parameter off the shared A-stack
/// before use: conformance-checked types (the check is folded into the
/// copy), interpreted variable data (the client could change it mid-call),
/// and by-reference referents (the reference must be rebuilt on the private
/// E-stack).
///
/// `inplace` is the procedure's `[inplace]` attribute: a server that opts
/// into a shared view of interpreted variable data waives the defensive
/// copy (and with it the mid-call-mutation guarantee) — conformance checks
/// and reference rebuilds still apply regardless. The interpreter and the
/// compiled read plans both apply this rule.
pub fn needs_server_copy(param: &crate::ast::Param, inplace: bool) -> bool {
    param.ty.needs_conformance_check()
        || (!inplace && !param.noninterpreted && param.ty.fixed_size().is_none())
        || param.by_ref
}

/// The stub interpreter, bound to one CPU and meter.
pub struct StubVm<'a> {
    cost: &'a CostModel,
    cpu: &'a Cpu,
    meter: &'a mut Meter,
}

impl<'a> StubVm<'a> {
    /// Creates a VM charging to `cpu` under `cost`, recording into `meter`.
    pub fn new(cost: &'a CostModel, cpu: &'a Cpu, meter: &'a mut Meter) -> StubVm<'a> {
        StubVm { cost, cpu, meter }
    }

    /// Charges `ops` data operations moving `bytes` bytes as one span:
    /// `(per_arg_op * ops + per_byte_copy * bytes) * mult`, `mult` being
    /// [`MODULA2_SLOWDOWN`] for Modula2+ stubs. The interpreter charges each
    /// operation as `charge_bulk(lang, 1, bytes)`; by cost linearity a plan's
    /// one fused charge per half equals that sequence to the nanosecond.
    pub fn charge_bulk(&mut self, lang: StubLang, ops: u64, bytes: u64) {
        if ops == 0 && bytes == 0 {
            return;
        }
        let (mult, phase) = match lang {
            StubLang::Assembly => (1, Phase::ArgCopy),
            StubLang::Modula2Plus => (MODULA2_SLOWDOWN, Phase::Marshal),
        };
        let cost = (self.cost.per_arg_op * ops + self.cost.per_byte_copy * bytes) * mult;
        self.meter.charge(self.cpu, phase, cost);
    }

    /// Marshals `value` into a new out-of-band segment, always on the
    /// Modula2+ path, and writes its `[id | len]` descriptor at `offset`.
    fn marshal_oob(
        &mut self,
        frame: &mut dyn Frame,
        offset: usize,
        value: &Value,
        ty: &Ty,
        oob: &mut dyn OobSegments,
    ) -> Result<(), StubError> {
        let (id, len) = oob.append(value, ty)?;
        self.charge_bulk(StubLang::Modula2Plus, 1, len as u64);
        let mut d = [0u8; 8];
        d[..4].copy_from_slice(&id.to_le_bytes());
        d[4..].copy_from_slice(&(len as u32).to_le_bytes());
        frame.write(offset, &d)
    }

    /// Decodes the out-of-band segment whose descriptor is at `offset`,
    /// its unmarshaling charged on the Modula2+ path.
    fn unmarshal_oob(
        &mut self,
        frame: &dyn Frame,
        offset: usize,
        oob: &dyn OobSegments,
        ty: &Ty,
        checked: bool,
    ) -> Result<Value, StubError> {
        let mut d = [0u8; 8];
        frame.read_into(offset, &mut d)?;
        let id = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
        let len = u32::from_le_bytes([d[4], d[5], d[6], d[7]]);
        oob.check(id, len)?;
        self.charge_bulk(StubLang::Modula2Plus, 1, u64::from(len));
        oob.decode(id, len, ty, checked)
    }

    /// Client call half: pushes every in-direction argument onto the frame
    /// (inline slots) or into out-of-band segments, charging stub costs.
    pub fn client_push_args(
        &mut self,
        proc: &CompiledProc,
        args: &[Value],
        frame: &mut dyn Frame,
        oob: &mut dyn OobSegments,
    ) -> Result<(), StubError> {
        if args.len() != proc.def.params.len() {
            return Err(StubError::ArgCount {
                expected: proc.def.params.len(),
                got: args.len(),
            });
        }
        for (i, param) in proc.def.params.iter().enumerate() {
            if !param.dir.is_in() {
                continue;
            }
            let slot = &proc.layout.params[i];
            match slot.kind {
                SlotKind::Inline => {
                    let encoded = encode_vec(&args[i], &param.ty)?;
                    self.charge_bulk(proc.lang, 1, encoded.len() as u64);
                    frame.write(slot.offset, &encoded)?;
                }
                SlotKind::OutOfBand => {
                    self.marshal_oob(frame, slot.offset, &args[i], &param.ty, oob)?;
                }
            }
        }
        Ok(())
    }

    /// Server entry half: reads every parameter out of the frame, applying
    /// the Section 3.5 rules — conformance checks folded into the copy,
    /// defensive copies for interpreted variable data, reference rebuild
    /// for by-ref parameters, unmarshaling for out-of-band values.
    ///
    /// Out-direction parameters get zero placeholders.
    pub fn server_read_args(
        &mut self,
        proc: &CompiledProc,
        frame: &dyn Frame,
        oob: &dyn OobSegments,
    ) -> Result<Vec<Value>, StubError> {
        let mut vals = Vec::with_capacity(proc.def.params.len());
        for (i, param) in proc.def.params.iter().enumerate() {
            if !param.dir.is_in() {
                vals.push(Value::zero_of(&param.ty));
                continue;
            }
            let slot = &proc.layout.params[i];
            let value = match slot.kind {
                SlotKind::Inline => {
                    let raw = frame.read(slot.offset, slot.size)?;
                    if needs_server_copy(param, proc.def.inplace) {
                        // Defensive copy / checked copy / reference rebuild:
                        // one more pass over the bytes.
                        self.charge_bulk(proc.lang, 1, slot.size.min(raw.len()) as u64);
                        let (v, _) = decode_checked(&raw, &param.ty)?;
                        v
                    } else {
                        // The server uses the value directly off the shared
                        // A-stack ("the server procedure can directly
                        // access the parameters as though it had been
                        // called directly").
                        let (v, _) = decode(&raw, &param.ty)?;
                        v
                    }
                }
                SlotKind::OutOfBand => {
                    self.unmarshal_oob(frame, slot.offset, oob, &param.ty, true)?
                }
            };
            vals.push(value);
        }
        Ok(vals)
    }

    /// Server return half: places the return value and every out-direction
    /// parameter into the frame.
    ///
    /// Inline placement is *free*: the server procedure writes its results
    /// directly into the A-stack, which doubles as the reply message ("the
    /// server places the results directly into the reply message",
    /// Section 3.5) — only out-of-band results pay marshaling.
    pub fn server_place_results(
        &mut self,
        proc: &CompiledProc,
        ret: Option<&Value>,
        outs: &[(usize, Value)],
        frame: &mut dyn Frame,
        oob: &mut dyn OobSegments,
    ) -> Result<(), StubError> {
        if let Some(ret_ty) = &proc.def.ret {
            let ret_slot = proc.layout.ret.as_ref().expect("layout has a ret slot");
            let v = ret.ok_or(StubError::MissingResult)?;
            self.place(frame, ret_slot, v, ret_ty, oob)?;
        }
        for (i, v) in outs {
            let param = &proc.def.params[*i];
            if param.dir.is_out() {
                self.place(frame, &proc.layout.params[*i], v, &param.ty, oob)?;
            }
        }
        Ok(())
    }

    /// Places one result: inline into its slot, uncharged, or into a new
    /// out-of-band segment.
    fn place(
        &mut self,
        frame: &mut dyn Frame,
        slot: &crate::layout::Slot,
        v: &Value,
        ty: &Ty,
        oob: &mut dyn OobSegments,
    ) -> Result<(), StubError> {
        match slot.kind {
            SlotKind::Inline => frame.write(slot.offset, &encode_vec(v, ty)?),
            SlotKind::OutOfBand => self.marshal_oob(frame, slot.offset, v, ty, oob),
        }
    }

    /// Client return half: copies returned values "from the A-stack into
    /// their final destination" (Section 3.5) — there is no intermediate
    /// copy.
    pub fn client_fetch_results(
        &mut self,
        proc: &CompiledProc,
        frame: &dyn Frame,
        oob: &dyn OobSegments,
    ) -> Result<FetchedResults, StubError> {
        let ret = match (&proc.def.ret, &proc.layout.ret) {
            (Some(ret_ty), Some(slot)) => Some(self.fetch_slot(proc, frame, oob, slot, ret_ty)?),
            _ => None,
        };
        let mut outs = Vec::new();
        for (i, param) in proc.def.params.iter().enumerate() {
            if param.dir.is_out() {
                let slot = &proc.layout.params[i];
                outs.push((i, self.fetch_slot(proc, frame, oob, slot, &param.ty)?));
            }
        }
        Ok((ret, outs))
    }

    fn fetch_slot(
        &mut self,
        proc: &CompiledProc,
        frame: &dyn Frame,
        oob: &dyn OobSegments,
        slot: &crate::layout::Slot,
        ty: &Ty,
    ) -> Result<Value, StubError> {
        match slot.kind {
            SlotKind::Inline => {
                let raw = frame.read(slot.offset, slot.size)?;
                self.charge_bulk(proc.lang, 1, slot.size as u64);
                let (v, _) = decode(&raw, ty)?;
                Ok(v)
            }
            SlotKind::OutOfBand => self.unmarshal_oob(frame, slot.offset, oob, ty, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::stubgen::compile;
    use firefly::cpu::Machine;

    fn vm_env() -> (std::sync::Arc<Machine>, Meter) {
        (Machine::cvax_uniprocessor(), Meter::enabled())
    }

    fn compile_one(src: &str) -> crate::stubgen::CompiledInterface {
        compile(&parse(src).unwrap())
    }

    /// Which in-parameters the server entry half copies off the shared
    /// A-stack (Section 3.5), per procedure and parameter.
    #[test]
    fn server_copy_rule_table() {
        let iface = compile_one(
            "interface B { \
             procedure Interp(d: var bytes[64]); \
             procedure Immut(d: var bytes[64] noninterpreted); \
             [inplace = 1] procedure Shared(d: var bytes[64]); \
             procedure Card(n: cardinal); \
             procedure Ref(h: int32, d: in ref bytes[100]); \
             [inplace = 1] procedure SharedChecked(n: cardinal, d: in ref bytes[32]); \
             procedure Fixed(a: int32, d: bytes[200]); }",
        );
        let table: &[(&str, &[bool])] = &[
            // Interpreted variable data: the client could change it mid-call.
            ("Interp", &[true]),
            // `noninterpreted` and `[inplace]` waive the defensive copy.
            ("Immut", &[false]),
            ("Shared", &[false]),
            // Conformance checks and reference rebuilds are not waivable.
            ("Card", &[true]),
            ("Ref", &[false, true]),
            ("SharedChecked", &[true, true]),
            // Fixed-size values are used in place.
            ("Fixed", &[false, false]),
        ];
        for (name, expected) in table {
            let proc = iface.proc_by_name(name).unwrap();
            let got: Vec<bool> = proc
                .def
                .params
                .iter()
                .map(|p| needs_server_copy(p, proc.def.inplace))
                .collect();
            assert_eq!(&got, expected, "{name}");
        }
    }

    #[test]
    fn add_arguments_roundtrip_through_the_frame() {
        let iface = compile_one("interface B { procedure Add(a: int32, b: int32) -> int32; }");
        let proc = &iface.procs[0];
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();

        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        vm.client_push_args(
            proc,
            &[Value::Int32(3), Value::Int32(4)],
            &mut frame,
            &mut oob,
        )
        .unwrap();
        let args = vm.server_read_args(proc, &frame, &oob).unwrap();
        assert_eq!(args, vec![Value::Int32(3), Value::Int32(4)]);

        vm.server_place_results(proc, Some(&Value::Int32(7)), &[], &mut frame, &mut oob)
            .unwrap();
        let (ret, outs) = vm.client_fetch_results(proc, &frame, &oob).unwrap();
        assert_eq!(ret, Some(Value::Int32(7)));
        assert!(outs.is_empty());
    }

    #[test]
    fn data_op_costs_are_charged() {
        let iface = compile_one("interface B { procedure BigIn(data: bytes[200]); }");
        let proc = &iface.procs[0];
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        vm.client_push_args(proc, &[Value::Bytes(vec![5; 200])], &mut frame, &mut oob)
            .unwrap();
        let expected = machine.cost().per_arg_op + machine.cost().per_byte_copy * 200;
        assert_eq!(machine.cpu(0).now(), expected);
        assert_eq!(meter.total_for(Phase::ArgCopy), expected);
    }

    #[test]
    fn modula2_stubs_cost_four_times_more() {
        let fast = compile_one("interface B { procedure P(d: bytes[100]); }");
        let (machine, mut meter) = vm_env();
        {
            let mut frame = LocalFrame::new(fast.procs[0].layout.astack_size);
            let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
            vm.client_push_args(
                &fast.procs[0],
                &[Value::Bytes(vec![0; 100])],
                &mut frame,
                &mut OobStore::new(),
            )
            .unwrap();
        }
        let fast_cost = machine.cpu(0).now();

        // The same bytes through a complex-typed interface (gc blob).
        let slow = compile_one("interface B { procedure P(d: gc); }");
        machine.cpu(0).reset_clock();
        {
            let mut frame = LocalFrame::new(slow.procs[0].layout.astack_size);
            let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
            vm.client_push_args(
                &slow.procs[0],
                &[Value::Gc(vec![0; 100])],
                &mut frame,
                &mut OobStore::new(),
            )
            .unwrap();
        }
        let slow_cost = machine.cpu(0).now();
        let ratio = slow_cost.as_nanos() as f64 / fast_cost.as_nanos() as f64;
        assert!(
            (3.5..=4.5).contains(&ratio),
            "marshaling path must be about 4x: {ratio:.2}"
        );
    }

    #[test]
    fn nonconforming_cardinal_is_rejected_by_the_server_copy() {
        let iface = compile_one("interface B { procedure P(n: cardinal); }");
        let proc = &iface.procs[0];
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        vm.client_push_args(proc, &[Value::Cardinal(-5)], &mut frame, &mut oob)
            .unwrap();
        let err = vm.server_read_args(proc, &frame, &oob).unwrap_err();
        assert!(matches!(
            err,
            StubError::Wire(WireError::Conformance { .. })
        ));
    }

    #[test]
    fn out_of_band_values_travel_through_segments() {
        let iface = compile_one("interface B { procedure Send(pkt: var bytes[4096]); }");
        let proc = &iface.procs[0];
        assert!(proc.layout.uses_out_of_band);
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        let payload = vec![0xCD; 3000];
        vm.client_push_args(proc, &[Value::Var(payload.clone())], &mut frame, &mut oob)
            .unwrap();
        assert_eq!(oob.len(), 1);
        let args = vm.server_read_args(proc, &frame, &oob).unwrap();
        assert_eq!(args, vec![Value::Var(payload)]);
    }

    #[test]
    fn missing_oob_segment_is_detected() {
        let iface = compile_one("interface B { procedure Send(pkt: var bytes[4096]); }");
        let proc = &iface.procs[0];
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        vm.client_push_args(proc, &[Value::Var(vec![1; 2000])], &mut frame, &mut oob)
            .unwrap();
        let empty = OobStore::new();
        assert!(matches!(
            vm.server_read_args(proc, &frame, &empty),
            Err(StubError::OutOfBandMissing { id: 0 })
        ));
        // A segment shorter than its descriptor says is truncated.
        oob[0].pop();
        assert!(matches!(
            vm.server_read_args(proc, &frame, &oob),
            Err(StubError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn inout_parameters_return_updated_values() {
        let iface = compile_one("interface B { procedure Inc(x: inout int32); }");
        let proc = &iface.procs[0];
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut oob = OobStore::new();
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        vm.client_push_args(proc, &[Value::Int32(41)], &mut frame, &mut oob)
            .unwrap();
        let args = vm.server_read_args(proc, &frame, &oob).unwrap();
        assert_eq!(args[0], Value::Int32(41));
        vm.server_place_results(proc, None, &[(0, Value::Int32(42))], &mut frame, &mut oob)
            .unwrap();
        let (ret, outs) = vm.client_fetch_results(proc, &frame, &oob).unwrap();
        assert_eq!(ret, None);
        assert_eq!(outs, vec![(0, Value::Int32(42))]);
    }

    #[test]
    fn wrong_arg_count_is_rejected() {
        let iface = compile_one("interface B { procedure P(a: int32); }");
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(16);
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        assert!(matches!(
            vm.client_push_args(&iface.procs[0], &[], &mut frame, &mut OobStore::new()),
            Err(StubError::ArgCount {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn missing_declared_result_is_an_error() {
        let iface = compile_one("interface B { procedure F() -> int32; }");
        let (machine, mut meter) = vm_env();
        let mut frame = LocalFrame::new(16);
        let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
        assert!(matches!(
            vm.server_place_results(&iface.procs[0], None, &[], &mut frame, &mut OobStore::new()),
            Err(StubError::MissingResult)
        ));
    }
}
