//! Host wall-clock benchmark of the stub phase: interpreter vs compiled
//! copy plans.
//!
//! The bind-time stub compiler (`idl::plan`) exists to make the simulator
//! *run* faster without changing what it *simulates*. This module measures
//! exactly that trade: for each Table-4 size class it times the per-call
//! stub-path work — the four stub halves plus the per-call scaffolding the
//! old interpreter path performed in stub context (byte-total iterator
//! sums, the stub-side touch-set page vectors rebuilt on every call, the
//! unconditional copy-log records) — once through the stub interpreter and
//! once through the compiled plan, and checks that the charged virtual
//! time is bit-identical between the two.
//!
//! The TLB charge for touching those pages is identical on both paths
//! (kernel simulation, not stub work) and stays out of the cycle; what the
//! plans removed is *building* the page sets per call, so the interpreted
//! leg materializes them the way `TouchPlan` used to while the compiled
//! leg walks the bind-time slices.
//!
//! The third column of the comparison is the Modula2+ marshaling path,
//! whose virtual cost is pinned at 4× the assembly stubs by the §3.3
//! experiment (`experiments::stubs`); cost linearity makes that ratio
//! independent of whether the assembly side runs interpreted or compiled.

use std::hint::black_box;
use std::sync::Arc;

use firefly::cpu::Machine;
use firefly::mem::{PageId, Region, PAGE_SIZE};
use firefly::meter::Meter;
use idl::plan::{ArgVec, ProcPlan};
use idl::stubgen::{compile, CompiledProc};
use idl::stubvm::{LocalFrame, OobStore, StubVm};
use idl::wire::Value;
// The stub-context touch sets of the binding's `TouchPlan` page budget:
// the sets referenced while executing stub code. The kernel-phase sets
// (kernel call/return) are dispatch work, not stub work, and are excluded
// from both legs.
use lrpc::touch::{CLIENT_CALL_PAGES, CLIENT_RETURN_PAGES, SERVER_SIDE_PAGES};

use crate::common::{best_ns_per_call, BENCH_IDL};
use crate::experiments;
use crate::json::Json;
use crate::suite::{Gate, Opts, SuiteRun, Table};

/// Default cycles per measurement leg.
pub const DEFAULT_ITERS: usize = 50_000;

/// Host-speedup floor the gate enforces on `Null`, `BigIn` and `BigInOut`.
pub const MIN_SPEEDUP: f64 = 2.0;

/// One size class, both ways.
#[derive(Clone, Debug)]
pub struct StubCycle {
    /// Procedure name (`Null`, `Add`, `BigIn`, `BigInOut`).
    pub name: &'static str,
    /// Host ns per interpreted stub cycle.
    pub interpreted_ns: f64,
    /// Host ns per compiled-plan stub cycle.
    pub compiled_ns: f64,
    /// interpreted / compiled.
    pub speedup: f64,
    /// Virtual ns one cycle charges (identical on both paths).
    pub virtual_ns: u64,
}

/// The full three-way stub comparison.
#[derive(Clone, Debug)]
pub struct StubBenchReport {
    /// Per-class host measurements.
    pub classes: Vec<StubCycle>,
    /// §3.3 assembly-stub virtual time (µs, 100-byte argument).
    pub assembly_us: f64,
    /// §3.3 Modula2+ marshaling virtual time (µs, same bytes).
    pub modula2_us: f64,
    /// Modula2+ / assembly — the paper's "factor of four".
    pub ratio: f64,
}

impl StubBenchReport {
    /// The acceptance gates: the host fast path at least [`MIN_SPEEDUP`]×
    /// quicker on `Null`, `BigIn` and `BigInOut`, and the §3.3 ratio
    /// still the paper's ~4× (virtual-cost identity is asserted inside
    /// [`run`]).
    pub fn gates(&self) -> Vec<Gate> {
        let mut gates: Vec<Gate> = self
            .classes
            .iter()
            .filter(|c| matches!(c.name, "Null" | "BigIn" | "BigInOut"))
            .map(|c| Gate::new(format!("speedup {}", c.name), c.speedup, ">=", MIN_SPEEDUP))
            .collect();
        gates.push(Gate::new("ratio", self.ratio, ">=", 3.5));
        gates.push(Gate::new("ratio", self.ratio, "<=", 4.5));
        gates
    }
}

/// The four Table-4 workloads: `(name, args, ret, outs)`.
#[expect(clippy::type_complexity)]
fn workloads() -> Vec<(&'static str, Vec<Value>, Option<Value>, Vec<(usize, Value)>)> {
    vec![
        ("Null", vec![], None, vec![]),
        (
            "Add",
            vec![Value::Int32(2), Value::Int32(3)],
            Some(Value::Int32(5)),
            vec![],
        ),
        ("BigIn", vec![Value::Bytes(vec![0xAB; 200])], None, vec![]),
        (
            "BigInOut",
            vec![Value::Bytes(vec![0xAB; 200])],
            None,
            vec![(0, Value::Bytes(vec![0xCD; 200]))],
        ),
    ]
}

/// One size class: its compiled procedure and plan, and one call's
/// arguments and results.
struct Class<'a> {
    proc: &'a CompiledProc,
    plan: ProcPlan,
    args: Vec<Value>,
    ret: Option<Value>,
    outs: Vec<(usize, Value)>,
}

/// The per-binding working-set pages the stub halves reference, mirroring
/// the binding's `TouchPlan`: the regions the page IDs come from, plus the
/// bind-time slices the compiled path walks instead of rebuilding them.
struct BenchRt {
    machine: Arc<Machine>,
    astack: Arc<Region>,
    client_rt: Arc<Region>,
    server_rt: Arc<Region>,
    client_call: Vec<PageId>,
    server_side: Vec<PageId>,
    client_return: Vec<PageId>,
}

impl BenchRt {
    fn new(machine: Arc<Machine>) -> BenchRt {
        let astack = machine.mem().alloc("stub-bench-astack", 4096);
        let client_rt = machine.mem().alloc(
            "stub-bench-client-rt",
            (CLIENT_CALL_PAGES + CLIENT_RETURN_PAGES) * PAGE_SIZE,
        );
        let server_rt = machine
            .mem()
            .alloc("stub-bench-server-rt", SERVER_SIDE_PAGES * PAGE_SIZE);
        let client_call = Self::pages(&client_rt, 0, CLIENT_CALL_PAGES);
        let server_side = Self::pages(&server_rt, 0, SERVER_SIDE_PAGES);
        let client_return = Self::pages(&client_rt, CLIENT_CALL_PAGES, CLIENT_RETURN_PAGES);
        BenchRt {
            machine,
            astack,
            client_rt,
            server_rt,
            client_call,
            server_side,
            client_return,
        }
    }

    /// Builds one touch set the way the pre-plan `TouchPlan` did on every
    /// call (the compiled path does this once, at bind time).
    fn pages(region: &Region, first: usize, count: usize) -> Vec<PageId> {
        (first..first + count)
            .map(|p| PageId::of(region.id(), p * PAGE_SIZE))
            .collect()
    }
}

/// One interpreted stub cycle: the four interpreter halves plus the
/// per-call scaffolding the pre-plan call path executed every call —
/// byte-total sums over the layout, stub-context touch sets rebuilt as
/// fresh page vectors, and unconditional copy-log records.
fn interpreted_cycle(c: &Class, frame: &mut LocalFrame, meter: &mut Meter, rt: &BenchRt) {
    let (proc, args, ret, outs) = (c.proc, &c.args[..], c.ret.as_ref(), &c.outs[..]);
    let (cost, cpu) = (rt.machine.cost(), rt.machine.cpu(0));
    let in_bytes: usize = proc
        .layout
        .params
        .iter()
        .zip(&proc.def.params)
        .filter(|(_, p)| p.dir.is_in())
        .map(|(s, _)| s.size)
        .sum();
    let out_bytes: usize = proc
        .layout
        .params
        .iter()
        .zip(&proc.def.params)
        .filter(|(_, p)| p.dir.is_out())
        .map(|(s, _)| s.size)
        .sum::<usize>()
        + proc.layout.ret.as_ref().map_or(0, |s| s.size);
    black_box((in_bytes, out_bytes));

    let mut copies = idl::copyops::CopyLog::new();
    let mut oob = OobStore::new();
    let machine_cost = cpu.now(); // anchor so charges stay ordered
    black_box(machine_cost);

    // Client-call touch set and the A-stack page, materialized the way the
    // pre-plan path did on every call. Walking the pages happens inside
    // `touch_pages` on both paths and stays out of the cycle; the build is
    // what the plans removed.
    black_box(BenchRt::pages(&rt.client_rt, 0, CLIENT_CALL_PAGES));
    black_box(rt.astack.pages_for(0, 1).collect::<Vec<PageId>>());

    {
        let mut vm = StubVm::new(cost, cpu, meter);
        vm.client_push_args(proc, args, frame, &mut oob).unwrap();
    }
    for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
        if p.dir.is_in() {
            copies.record(idl::copyops::CopyOp::A, slot.size);
        }
    }

    // Server-side touch set and the A-stack page again.
    black_box(BenchRt::pages(&rt.server_rt, 0, SERVER_SIDE_PAGES));
    black_box(rt.astack.pages_for(0, 1).collect::<Vec<PageId>>());

    {
        let mut vm = StubVm::new(cost, cpu, meter);
        let sargs = vm.server_read_args(proc, frame, &oob).unwrap();
        black_box(&sargs);
    }
    for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
        if p.dir.is_in() && idl::stubvm::needs_server_copy(p, proc.def.inplace) {
            copies.record(idl::copyops::CopyOp::E, slot.size);
        }
    }
    {
        let mut vm = StubVm::new(cost, cpu, meter);
        vm.server_place_results(proc, ret, outs, frame, &mut oob)
            .unwrap();
        let _ = &mut vm;
    }

    // Client-return touch set and the A-stack page on the way back.
    black_box(BenchRt::pages(
        &rt.client_rt,
        CLIENT_CALL_PAGES,
        CLIENT_RETURN_PAGES,
    ));
    black_box(rt.astack.pages_for(0, 1).collect::<Vec<PageId>>());

    {
        let mut vm = StubVm::new(cost, cpu, meter);
        let fetched = vm.client_fetch_results(proc, frame, &oob).unwrap();
        black_box(&fetched);
    }
    if proc.layout.ret.is_some() {
        copies.record(
            idl::copyops::CopyOp::F,
            proc.layout.ret.as_ref().map_or(0, |s| s.size),
        );
    }
    for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
        if p.dir.is_out() {
            copies.record(idl::copyops::CopyOp::F, slot.size);
        }
    }
    black_box(&copies);
}

/// One compiled stub cycle: exactly what the steady-state call path now
/// does — hoisted byte totals, bind-time touch sets walked as borrowed
/// slices, the A-stack page streamed from the region iterator, fused bulk
/// moves, no copy log on the unmetered path.
fn compiled_cycle(c: &Class, frame: &mut LocalFrame, meter: &mut Meter, rt: &BenchRt) {
    let (proc, plan, args, ret, outs) = (c.proc, &c.plan, &c.args[..], c.ret.as_ref(), &c.outs[..]);
    let (cost, cpu) = (rt.machine.cost(), rt.machine.cpu(0));
    black_box((plan.in_bytes, plan.out_bytes));

    black_box(rt.client_call.as_slice());
    drop(black_box(rt.astack.pages_for(0, 1)));
    {
        let mut vm = StubVm::new(cost, cpu, meter);
        plan.push
            .as_ref()
            .unwrap()
            .execute(proc, args, frame, &mut vm)
            .unwrap();
    }

    black_box(rt.server_side.as_slice());
    drop(black_box(rt.astack.pages_for(0, 1)));
    {
        let mut vm = StubVm::new(cost, cpu, meter);
        let mut sargs = ArgVec::new();
        plan.read
            .as_ref()
            .unwrap()
            .execute(frame, &mut vm, &mut sargs)
            .unwrap();
        black_box(sargs.as_slice());
    }
    plan.place
        .as_ref()
        .unwrap()
        .execute(ret, outs, frame)
        .unwrap();

    black_box(rt.client_return.as_slice());
    drop(black_box(rt.astack.pages_for(0, 1)));
    {
        let mut vm = StubVm::new(cost, cpu, meter);
        let fetched = plan
            .fetch
            .as_ref()
            .unwrap()
            .execute(frame, &mut vm)
            .unwrap();
        black_box(&fetched);
    }
}

/// Runs the full three-way comparison.
///
/// Panics if the compiled plan and the interpreter ever disagree on the
/// charged virtual time — the comparison is only meaningful while the
/// fast path is observationally identical.
pub fn run(iters: usize) -> StubBenchReport {
    let iface = compile(&idl::parse(BENCH_IDL).expect("bench idl"));
    let rt = BenchRt::new(Machine::cvax_uniprocessor());
    let cpu = rt.machine.cpu(0);

    let mut classes = Vec::new();
    for (name, args, ret, outs) in workloads() {
        let proc = iface.proc_by_name(name).expect("bench proc");
        let plan = ProcPlan::compile(proc);
        assert!(
            plan.fully_compiled(),
            "every Table-4 class must compile: {}",
            plan.describe()
        );
        let c = Class {
            proc,
            plan,
            args,
            ret,
            outs,
        };
        let mut frame = LocalFrame::new(proc.layout.astack_size);
        let mut meter = Meter::disabled();
        // Leg 0 runs the interpreter, leg 1 the compiled plan.
        let mut cycle = |leg: usize| {
            if leg == 0 {
                interpreted_cycle(&c, &mut frame, &mut meter, &rt)
            } else {
                compiled_cycle(&c, &mut frame, &mut meter, &rt)
            }
        };

        // Warm up, then pin down virtual-cost identity: one cycle on each
        // path from the same clock must charge the same nanoseconds.
        cycle(0);
        cpu.reset_clock();
        cycle(0);
        let interp_virtual = cpu.now().as_nanos();
        cpu.reset_clock();
        cycle(1);
        let plan_virtual = cpu.now().as_nanos();
        assert_eq!(
            interp_virtual, plan_virtual,
            "{name}: compiled plan must charge the interpreter's exact virtual time"
        );

        let [interpreted_ns, compiled_ns] = best_ns_per_call(iters, cycle);
        cpu.reset_clock();
        classes.push(StubCycle {
            name,
            interpreted_ns,
            compiled_ns,
            speedup: interpreted_ns / compiled_ns,
            virtual_ns: interp_virtual,
        });
    }

    let s = experiments::stubs();
    StubBenchReport {
        classes,
        assembly_us: s.assembly_us,
        modula2_us: s.modula2_us,
        ratio: s.ratio,
    }
}

/// The `stubs` suite: [`run`] at [`DEFAULT_ITERS`], one row per class.
pub fn suite(_: &Opts, _: &[Json]) -> SuiteRun {
    let r = run(DEFAULT_ITERS);
    let rows = r.classes.iter().map(|c| {
        let host = [c.interpreted_ns, c.compiled_ns, c.speedup].map(Json::from);
        [
            vec![c.name.into()],
            host.to_vec(),
            vec![c.virtual_ns.into()],
        ]
        .concat()
    });
    let classes = Table {
        name: "classes",
        columns: &[
            "name",
            "interpreted_ns",
            "compiled_ns",
            "speedup",
            "virtual_ns",
        ],
        rows: rows.collect(),
    };
    let positive = classes.positive(&["interpreted_ns", "compiled_ns", "speedup"]);
    SuiteRun {
        text: "Stub phase: interpreter vs compiled copy plans (host wall-clock ns per \
               stub cycle), and the Section 3.3 Modula2+/assembly ratio (virtual time)\n"
            .into(),
        metrics: vec![
            ("assembly_us", r.assembly_us.into()),
            ("modula2_us", r.modula2_us.into()),
            ("ratio", r.ratio.into()),
        ],
        tables: vec![classes],
        gates: [r.gates(), positive].concat(),
        ..SuiteRun::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_classes_compile_and_charge_identically() {
        // A tiny run exercises the virtual-identity assertions inside.
        let r = run(16);
        assert_eq!(r.classes.len(), 4);
        for c in &r.classes {
            assert!(c.interpreted_ns > 0.0 && c.compiled_ns > 0.0);
        }
        assert!((3.5..=4.5).contains(&r.ratio));
    }
}
