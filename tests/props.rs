//! Property-based tests over the core data structures and invariants.

use idl::ast::{Dir, Param, ProcDef};
use idl::layout::{layout, SlotKind};
use idl::stubgen::compile;
use idl::types::{ComplexKind, Ty};
use idl::wire::{decode, encode_vec, TreeVal, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Wire encoding properties.
// ---------------------------------------------------------------------

/// Strategy for a (type, conforming value) pair.
fn ty_and_value() -> impl Strategy<Value = (Ty, Value)> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(|b| (Ty::Bool, Value::Bool(b))),
        any::<u8>().prop_map(|b| (Ty::Byte, Value::Byte(b))),
        any::<i16>().prop_map(|v| (Ty::Int16, Value::Int16(v))),
        any::<i32>().prop_map(|v| (Ty::Int32, Value::Int32(v))),
        (0i64..=u32::MAX as i64).prop_map(|v| (Ty::Cardinal, Value::Cardinal(v))),
        proptest::collection::vec(any::<u8>(), 1..64)
            .prop_map(|b| (Ty::ByteArray(b.len()), Value::Bytes(b))),
        (proptest::collection::vec(any::<u8>(), 0..32), 32usize..64)
            .prop_map(|(b, max)| (Ty::VarBytes(max), Value::Var(b))),
        proptest::collection::vec(any::<i32>(), 0..16)
            .prop_map(|items| (Ty::Complex(ComplexKind::LinkedList), Value::List(items))),
    ];
    // One level of record nesting over the leaves.
    let record = proptest::collection::vec(leaf.clone(), 1..4).prop_map(|fields| {
        let tys = fields
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (format!("f{i}"), t.clone()))
            .collect();
        let vals = fields.into_iter().map(|(_, v)| v).collect();
        (Ty::Record(tys), Value::Record(vals))
    });
    prop_oneof![leaf, record]
}

fn arbitrary_tree() -> impl Strategy<Value = TreeVal> {
    let leaf = Just(TreeVal::Leaf).boxed();
    leaf.prop_recursive(6, 32, 2, |inner| {
        (inner.clone(), any::<i32>(), inner)
            .prop_map(|(l, v, r)| TreeVal::Node(Box::new(l), v, Box::new(r)))
            .boxed()
    })
}

proptest! {
    #[test]
    fn wire_roundtrip_is_identity((ty, value) in ty_and_value()) {
        let bytes = encode_vec(&value, &ty).expect("conforming value encodes");
        let (back, used) = decode(&bytes, &ty).expect("own encoding decodes");
        prop_assert_eq!(back, value);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn tree_marshaling_roundtrips(tree in arbitrary_tree()) {
        let ty = Ty::Complex(ComplexKind::Tree);
        let value = Value::Tree(tree);
        let bytes = encode_vec(&value, &ty).expect("tree encodes");
        let (back, _) = decode(&bytes, &ty).expect("tree decodes");
        prop_assert_eq!(back, value);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256),
                                      (ty, _) in ty_and_value()) {
        // Must return Ok or Err, never panic or overflow.
        let _ = decode(&bytes, &ty);
    }

    #[test]
    fn fixed_size_matches_encoding_length((ty, value) in ty_and_value()) {
        if let Some(n) = ty.fixed_size() {
            let bytes = encode_vec(&value, &ty).expect("encodes");
            prop_assert_eq!(bytes.len(), n, "fixed-size types encode to exactly their size");
        }
    }
}

// ---------------------------------------------------------------------
// Layout properties.
// ---------------------------------------------------------------------

fn arbitrary_param(i: usize) -> impl Strategy<Value = Param> {
    let ty = prop_oneof![
        Just(Ty::Bool),
        Just(Ty::Byte),
        Just(Ty::Int16),
        Just(Ty::Int32),
        Just(Ty::Cardinal),
        (1usize..512).prop_map(Ty::ByteArray),
        (1usize..4096).prop_map(Ty::VarBytes),
        Just(Ty::Complex(ComplexKind::LinkedList)),
        Just(Ty::Complex(ComplexKind::Tree)),
    ];
    let dir = prop_oneof![Just(Dir::In), Just(Dir::Out), Just(Dir::InOut)];
    (ty, dir, any::<bool>(), any::<bool>()).prop_map(move |(ty, dir, noninterpreted, by_ref)| {
        Param {
            name: format!("p{i}"),
            ty,
            dir,
            noninterpreted,
            by_ref,
        }
    })
}

fn arbitrary_proc() -> impl Strategy<Value = ProcDef> {
    let params = proptest::collection::vec(any::<u8>(), 0..6).prop_flat_map(|seeds| {
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, _)| arbitrary_param(i))
            .collect::<Vec<_>>()
    });
    let ret = proptest::option::of(prop_oneof![
        Just(Ty::Int32),
        Just(Ty::Bool),
        (1usize..256).prop_map(Ty::ByteArray),
    ]);
    (params, ret).prop_map(|(params, ret)| ProcDef::new("P", params, ret))
}

proptest! {
    #[test]
    fn layout_slots_never_overlap(proc in arbitrary_proc()) {
        let l = layout(&proc);
        let mut slots: Vec<_> = l.params.iter().collect();
        if let Some(r) = &l.ret {
            slots.push(r);
        }
        slots.sort_by_key(|s| s.offset);
        for w in slots.windows(2) {
            prop_assert!(w[0].offset + w[0].size <= w[1].offset, "slots overlap");
        }
        for s in &slots {
            prop_assert!(s.offset + s.size <= l.frame_size);
        }
    }

    #[test]
    fn layout_frame_fits_the_astack(proc in arbitrary_proc()) {
        let l = layout(&proc);
        prop_assert!(l.frame_size <= l.astack_size,
            "frame {} must fit the A-stack {}", l.frame_size, l.astack_size);
    }

    #[test]
    fn fixed_procedures_get_exact_astacks(proc in arbitrary_proc()) {
        let l = layout(&proc);
        if proc.all_fixed_size() {
            prop_assert!(l.fixed);
            // Exact sizing: no Ethernet default padding.
            prop_assert!(l.astack_size <= l.frame_size.max(4));
        }
    }

    #[test]
    fn complex_params_are_always_out_of_band(proc in arbitrary_proc()) {
        let l = layout(&proc);
        for (slot, param) in l.params.iter().zip(&proc.params) {
            if param.ty.is_complex() {
                prop_assert_eq!(slot.kind, SlotKind::OutOfBand);
            }
        }
    }

    #[test]
    fn compile_never_panics_and_indexes_align(proc in arbitrary_proc()) {
        let iface = idl::ast::InterfaceDef::new("I", vec![proc]);
        let compiled = compile(&iface);
        prop_assert_eq!(compiled.procs.len(), 1);
        prop_assert_eq!(compiled.procs[0].pd.entry, 0);
        prop_assert_eq!(compiled.pdl()[0].astack_size, compiled.procs[0].layout.astack_size);
    }
}

// ---------------------------------------------------------------------
// Contention-engine properties.
// ---------------------------------------------------------------------

use firefly::contention::{simulate_throughput, CallProfile, ResourceId, Seg};
use firefly::time::Nanos;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throughput_never_exceeds_the_latency_bound(
        compute_us in 10u64..500,
        hold_us in 1u64..200,
        cpus in 1usize..6,
    ) {
        let profile = CallProfile::new(vec![
            Seg::Compute(Nanos::from_micros(compute_us)),
            Seg::Use { res: ResourceId(0), hold: Nanos::from_micros(hold_us) },
        ]);
        let latency = profile.uncontended_latency();
        let report = simulate_throughput(&vec![profile; cpus], 1, Nanos::from_secs(1));
        let per_cpu_bound = 1_000_000_000 / latency.as_nanos();
        // No CPU completes more calls than its own latency allows.
        for &calls in &report.per_cpu_calls {
            prop_assert!(calls <= per_cpu_bound + 1);
        }
        // Aggregate throughput never exceeds the resource's service rate.
        let resource_bound = 1_000_000_000 / Nanos::from_micros(hold_us).as_nanos();
        prop_assert!(report.total_calls() <= resource_bound + cpus as u64);
    }

    #[test]
    fn adding_cpus_never_reduces_throughput(
        compute_us in 10u64..300,
        hold_us in 1u64..100,
    ) {
        let profile = CallProfile::new(vec![
            Seg::Compute(Nanos::from_micros(compute_us)),
            Seg::Use { res: ResourceId(0), hold: Nanos::from_micros(hold_us) },
        ]);
        let mut last = 0;
        for n in 1..=4 {
            let total =
                simulate_throughput(&vec![profile.clone(); n], 1, Nanos::from_secs(1)).total_calls();
            prop_assert!(total + 2 >= last, "throughput regressed: {last} -> {total} at {n} CPUs");
            last = total;
        }
    }

    #[test]
    fn busy_time_equals_holds_times_calls(
        hold_us in 1u64..50,
        cpus in 1usize..4,
    ) {
        let profile = CallProfile::new(vec![
            Seg::Use { res: ResourceId(0), hold: Nanos::from_micros(hold_us) },
            Seg::Compute(Nanos::from_micros(100)),
        ]);
        let report = simulate_throughput(&vec![profile; cpus], 1, Nanos::from_millis(50));
        // Busy time counts every started hold; completed calls can lag by
        // at most one in-flight call per CPU.
        let holds = report.resource_busy[0].as_nanos() / Nanos::from_micros(hold_us).as_nanos();
        prop_assert!(holds >= report.total_calls());
        prop_assert!(holds <= report.total_calls() + cpus as u64);
    }
}
