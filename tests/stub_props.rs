//! Differential property tests for the stub compiler (`idl::plan`).
//!
//! The compiled copy plans exist purely as a host-speed optimization: for
//! any procedure they can specialize, executing the plan must be
//! *indistinguishable* from running the stub interpreter — the same frame
//! bytes, the same decoded values, the same virtual-time charges in the
//! same phases. These properties drive arbitrary fixed-type interfaces
//! through both paths and compare everything observable.

use firefly::cpu::Machine;
use firefly::meter::{Meter, Phase};
use idl::ast::{Dir, InterfaceDef, Param, ProcDef};
use idl::plan::{ArgVec, ProcPlan};
use idl::stubgen::{compile, CompiledProc};
use idl::stubvm::{LocalFrame, OobStore, StubVm};
use idl::types::{ComplexKind, Ty};
use idl::wire::Value;
use proptest::prelude::*;

/// Strategy: a fixed-size type plus two conforming values (one pushed by
/// the client, one produced by the server for out/inout directions).
fn fixed_ty_and_values() -> impl Strategy<Value = (Ty, Value, Value)> {
    prop_oneof![
        (any::<bool>(), any::<bool>()).prop_map(|(a, b)| (
            Ty::Bool,
            Value::Bool(a),
            Value::Bool(b)
        )),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| (Ty::Byte, Value::Byte(a), Value::Byte(b))),
        (any::<i16>(), any::<i16>()).prop_map(|(a, b)| (
            Ty::Int16,
            Value::Int16(a),
            Value::Int16(b)
        )),
        (any::<i32>(), any::<i32>()).prop_map(|(a, b)| (
            Ty::Int32,
            Value::Int32(a),
            Value::Int32(b)
        )),
        (0i64..=i32::MAX as i64, 0i64..=i32::MAX as i64).prop_map(|(a, b)| (
            Ty::Cardinal,
            Value::Cardinal(a),
            Value::Cardinal(b)
        )),
        (1usize..64, any::<u8>(), any::<u8>()).prop_map(|(n, a, b)| {
            (
                Ty::ByteArray(n),
                Value::Bytes(vec![a; n]),
                Value::Bytes(vec![b; n]),
            )
        }),
    ]
}

/// A procedure over fixed-size types only, together with conforming
/// client arguments, a server return value and server out-values.
#[expect(clippy::type_complexity)]
fn fixed_proc_and_values(
) -> impl Strategy<Value = (ProcDef, Vec<Value>, Option<Value>, Vec<(usize, Value)>)> {
    let params = proptest::collection::vec(
        (
            fixed_ty_and_values(),
            prop_oneof![Just(Dir::In), Just(Dir::Out), Just(Dir::InOut)],
            any::<bool>(),
            any::<bool>(),
        ),
        0..5,
    );
    let ret = proptest::option::of(fixed_ty_and_values());
    (params, ret).prop_map(|(specs, ret)| {
        let mut args = Vec::new();
        let mut outs = Vec::new();
        let params: Vec<Param> = specs
            .into_iter()
            .enumerate()
            .map(|(i, ((ty, in_v, out_v), dir, noninterpreted, by_ref))| {
                args.push(if dir.is_in() {
                    in_v
                } else {
                    Value::zero_of(&ty)
                });
                if dir.is_out() {
                    outs.push((i, out_v));
                }
                Param {
                    name: format!("p{i}"),
                    ty,
                    dir,
                    noninterpreted,
                    by_ref,
                }
            })
            .collect();
        let (ret_ty, ret_v) = match ret {
            Some((ty, _, v)) => (Some(ty), Some(v)),
            None => (None, None),
        };
        (ProcDef::new("P", params, ret_ty), args, ret_v, outs)
    })
}

/// Everything observable from one four-half stub cycle.
#[derive(Debug, PartialEq)]
struct CycleResult {
    frame: Vec<u8>,
    sargs: Vec<Value>,
    ret: Option<Value>,
    outs: Vec<(usize, Value)>,
    virtual_ns: u64,
    arg_copy_ns: u64,
    marshal_ns: u64,
}

/// Runs push → read → place → fetch through the interpreter or the
/// compiled plan on a fresh machine, capturing frame bytes, values and
/// the virtual-time charges.
fn cycle(
    proc: &CompiledProc,
    plan: &ProcPlan,
    args: &[Value],
    ret: Option<&Value>,
    outs: &[(usize, Value)],
    use_plan: bool,
) -> CycleResult {
    let machine = Machine::cvax_uniprocessor();
    let mut meter = Meter::enabled();
    let mut frame = LocalFrame::new(proc.layout.astack_size);
    let mut oob = OobStore::new();
    let mut vm = StubVm::new(machine.cost(), machine.cpu(0), &mut meter);
    let (sargs, r, o) = if use_plan {
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
            .execute(ret, outs, &mut frame)
            .unwrap();
        let (r, o) = plan
            .fetch
            .as_ref()
            .unwrap()
            .execute(&frame, &mut vm)
            .unwrap();
        (sargs.as_slice().to_vec(), r, o)
    } else {
        vm.client_push_args(proc, args, &mut frame, &mut oob)
            .unwrap();
        let sargs = vm.server_read_args(proc, &frame, &oob).unwrap();
        vm.server_place_results(proc, ret, outs, &mut frame, &mut oob)
            .unwrap();
        let (r, o) = vm.client_fetch_results(proc, &frame, &oob).unwrap();
        (sargs, r, o)
    };
    CycleResult {
        frame: frame.bytes().to_vec(),
        sargs,
        ret: r,
        outs: o,
        virtual_ns: machine.cpu(0).now().as_nanos(),
        arg_copy_ns: meter.total_for(Phase::ArgCopy).as_nanos(),
        marshal_ns: meter.total_for(Phase::Marshal).as_nanos(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every procedure the compiler can fully specialize, the plan is
    /// observationally identical to the interpreter: byte-identical frame
    /// contents, identical decoded values, and bit-identical virtual-time
    /// charges phase by phase.
    #[test]
    fn compiled_plans_match_the_interpreter_exactly(
        (proc, args, ret, outs) in fixed_proc_and_values()
    ) {
        let iface = InterfaceDef::new("I", vec![proc]);
        let compiled = compile(&iface);
        let cproc = &compiled.procs[0];
        let plan = ProcPlan::compile(cproc);
        if !plan.fully_compiled() {
            // OOB-demoted or by-construction-unspecializable signature:
            // nothing to compare (covered by the fallback property below).
            return Ok(());
        }
        let interp = cycle(cproc, &plan, &args, ret.as_ref(), &outs, false);
        let planned = cycle(cproc, &plan, &args, ret.as_ref(), &outs, true);
        prop_assert_eq!(interp, planned);
    }

    /// Fixed-size parameter lists always compile: the fast path is not
    /// silently lost for the workloads it was built for.
    #[test]
    fn inline_fixed_procs_always_fully_compile(
        (proc, _, _, _) in fixed_proc_and_values()
    ) {
        let all_inline = proc
            .params
            .iter()
            .all(|p| !matches!(p.ty, Ty::ByteArray(n) if n > idl::layout::ETHERNET_PACKET_SIZE));
        let iface = InterfaceDef::new("I", vec![proc]);
        let compiled = compile(&iface);
        let plan = ProcPlan::compile(&compiled.procs[0]);
        if all_inline
            && compiled.procs[0]
                .layout
                .params
                .iter()
                .all(|s| s.kind == idl::layout::SlotKind::Inline)
        {
            prop_assert!(plan.fully_compiled(),
                "fixed inline procedure must compile: {}", plan.describe());
        }
    }

    /// Complex (pointer-rich) parameters anywhere in the signature put the
    /// whole procedure back on the interpreter. (Inline variable-size
    /// parameters compile now — covered by the differential property
    /// below.)
    #[test]
    fn complex_types_force_interpreter_fallback(
        (mut proc, _, _, _) in fixed_proc_and_values(),
        odd in prop_oneof![
            Just(Ty::Complex(ComplexKind::LinkedList)),
            Just(Ty::Complex(ComplexKind::Tree)),
            Just(Ty::Complex(ComplexKind::GarbageCollected)),
        ],
    ) {
        proc.params.push(Param {
            name: "odd".into(),
            ty: odd,
            dir: Dir::In,
            noninterpreted: false,
            by_ref: false,
        });
        let iface = InterfaceDef::new("I", vec![proc]);
        let compiled = compile(&iface);
        let plan = ProcPlan::compile(&compiled.procs[0]);
        prop_assert!(plan.push.is_none());
        prop_assert!(plan.read.is_none());
        prop_assert!(!plan.fully_compiled());
    }

    /// Inline variable-size (and by-ref) parameters lower to length-
    /// prefixed plan steps that stay observationally identical to the
    /// interpreter: byte-identical frame contents, identical decoded
    /// values, bit-identical per-phase virtual charges — at every payload
    /// length, in every direction, with and without `ref`.
    #[test]
    fn var_bytes_plans_match_the_interpreter_exactly(
        (mut proc, mut args, ret, mut outs) in fixed_proc_and_values(),
        max in 1usize..256,
        fill in any::<u8>(),
        dir in prop_oneof![Just(Dir::In), Just(Dir::Out), Just(Dir::InOut)],
        by_ref in any::<bool>(),
        len_seed in any::<u64>(),
    ) {
        let idx = proc.params.len();
        let in_len = (len_seed % (max as u64 + 1)) as usize;
        let out_len = ((len_seed >> 32) % (max as u64 + 1)) as usize;
        proc.params.push(Param {
            name: "v".into(),
            ty: Ty::VarBytes(max),
            dir,
            noninterpreted: false,
            by_ref,
        });
        args.push(if dir.is_in() {
            Value::Var(vec![fill; in_len])
        } else {
            Value::zero_of(&Ty::VarBytes(max))
        });
        if dir.is_out() {
            outs.push((idx, Value::Var(vec![fill.wrapping_add(1); out_len])));
        }
        let iface = InterfaceDef::new("I", vec![proc]);
        let compiled = compile(&iface);
        let cproc = &compiled.procs[0];
        let plan = ProcPlan::compile(cproc);
        prop_assert!(plan.fully_compiled(),
            "inline var bytes must compile: {}", plan.describe());
        let interp = cycle(cproc, &plan, &args, ret.as_ref(), &outs, false);
        let planned = cycle(cproc, &plan, &args, ret.as_ref(), &outs, true);
        prop_assert_eq!(interp, planned);
    }
}
