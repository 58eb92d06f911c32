//! Property tests for the hardware substrate.

use std::collections::{HashMap, HashSet, VecDeque};

use firefly::contention::{simulate_throughput, CallProfile, ResourceId, Seg};
use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::error::MemFault;
use firefly::mem::{PageId, RegionId, PAGE_SIZE};
use firefly::meter::{Meter, Phase};
use firefly::time::Nanos;
use firefly::tlb::{Tlb, TlbMode};
use firefly::vm::{ContextId, Protection, VmContext};
use proptest::prelude::*;

proptest! {
    // ------------------------------------------------------------------
    // Nanos arithmetic laws.
    // ------------------------------------------------------------------

    #[test]
    fn nanos_addition_is_commutative_and_associative(a in 0u64..1u64<<40,
                                                     b in 0u64..1u64<<40,
                                                     c in 0u64..1u64<<40) {
        let (a, b, c) = (Nanos::from_nanos(a), Nanos::from_nanos(b), Nanos::from_nanos(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn nanos_subtraction_saturates_and_roundtrips(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let (na, nb) = (Nanos::from_nanos(a), Nanos::from_nanos(b));
        if a >= b {
            prop_assert_eq!((na - nb) + nb, na);
        } else {
            prop_assert_eq!(na - nb, Nanos::ZERO);
        }
    }

    #[test]
    fn micros_conversion_roundtrips(us in 0u64..1u64<<30) {
        prop_assert_eq!(Nanos::from_micros(us).as_nanos(), us * 1000);
        let back = Nanos::from_micros_f64(Nanos::from_micros(us).as_micros_f64());
        prop_assert_eq!(back, Nanos::from_micros(us));
    }

    // ------------------------------------------------------------------
    // Page identity.
    // ------------------------------------------------------------------

    #[test]
    fn page_ids_are_injective_within_bounds(r1 in 1u64..1000, r2 in 1u64..1000,
                                            o1 in 0usize..512*1024, o2 in 0usize..512*1024) {
        let p1 = PageId::of(RegionId(r1), o1);
        let p2 = PageId::of(RegionId(r2), o2);
        let same = r1 == r2 && o1 / PAGE_SIZE == o2 / PAGE_SIZE;
        prop_assert_eq!(p1 == p2, same);
    }

    // ------------------------------------------------------------------
    // TLB invariants.
    // ------------------------------------------------------------------

    #[test]
    fn tlb_hits_plus_misses_equals_touches(pages in proptest::collection::vec(0u64..64, 1..200),
                                           capacity in 1usize..64) {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, capacity);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.hits() + tlb.misses(), pages.len() as u64);
        prop_assert!(tlb.resident_count() <= capacity);
    }

    #[test]
    fn tlb_second_touch_hits_if_capacity_allows(pages in proptest::collection::vec(0u64..16, 1..16)) {
        // Working set fits: re-touching the same sequence produces no new
        // misses.
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 64);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        let misses_before = tlb.misses();
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.misses(), misses_before, "warm touches must all hit");
    }

    #[test]
    fn invalidation_forces_full_remiss(pages in proptest::collection::hash_set(0u64..32, 1..32)) {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 64);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        tlb.on_context_switch();
        let before = tlb.misses();
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.misses() - before, pages.len() as u64);
    }

    // ------------------------------------------------------------------
    // Contention conservation.
    // ------------------------------------------------------------------

    #[test]
    fn per_cpu_calls_are_within_one_of_each_other_for_identical_profiles(
        compute_us in 50u64..400,
        cpus in 2usize..5,
    ) {
        // Identical pure-compute profiles must finish in lockstep.
        let profile = CallProfile::new(vec![Seg::Compute(Nanos::from_micros(compute_us))]);
        let report = simulate_throughput(&vec![profile; cpus], 0, Nanos::from_millis(100));
        let min = report.per_cpu_calls.iter().min().copied().unwrap_or(0);
        let max = report.per_cpu_calls.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "{:?}", report.per_cpu_calls);
    }

    #[test]
    fn fair_fifo_resource_sharing(hold_us in 5u64..100, cpus in 2usize..5) {
        // A pure-contention profile shares the resource round-robin; no
        // CPU can starve under virtual-time FIFO.
        let profile = CallProfile::new(vec![Seg::Use {
            res: ResourceId(0),
            hold: Nanos::from_micros(hold_us),
        }]);
        let report = simulate_throughput(&vec![profile; cpus], 1, Nanos::from_millis(50));
        let min = report.per_cpu_calls.iter().min().copied().unwrap_or(0);
        let max = report.per_cpu_calls.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "{:?}", report.per_cpu_calls);
    }
}

// ----------------------------------------------------------------------
// The library TLB against the FIFO-set reference model.
// ----------------------------------------------------------------------

/// The TLB as a `HashSet` of resident entries plus a `VecDeque` of their
/// FIFO order: the plain statement of the replacement policy. The
/// library's stamp-table TLB must agree with it touch for touch, whether
/// it is handed single pages, runs of pages, or whole page sequences
/// through `Cpu::touch_pages`.
struct ReferenceTlb {
    mode: TlbMode,
    capacity: usize,
    resident: HashSet<(ContextId, PageId)>,
    order: VecDeque<(ContextId, PageId)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl ReferenceTlb {
    fn new(mode: TlbMode, capacity: usize) -> ReferenceTlb {
        ReferenceTlb {
            mode,
            capacity: capacity.max(1),
            resident: HashSet::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn touch(&mut self, ctx: ContextId, page: PageId) -> bool {
        let key = (ctx, page);
        if self.resident.contains(&key) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        if self.resident.len() >= self.capacity {
            if let Some(victim) = self.order.pop_front() {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(key);
        self.order.push_back(key);
        true
    }

    /// Touches each page in turn; returns the misses.
    fn touch_all(&mut self, ctx: ContextId, pages: impl IntoIterator<Item = PageId>) -> u64 {
        pages.into_iter().filter(|&p| self.touch(ctx, p)).count() as u64
    }

    fn on_context_switch(&mut self) {
        if self.mode == TlbMode::InvalidateOnSwitch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.resident.clear();
        self.order.clear();
        self.invalidations += 1;
    }
}

/// Page `page` of region `region`.
fn page_of(region: u64, page: u64) -> PageId {
    PageId::of(RegionId(region), page as usize * PAGE_SIZE)
}

#[derive(Clone, Copy, Debug)]
enum TlbOp {
    Touch(ContextId, PageId),
    /// `Tlb::touch_run` from the page for the given number of pages.
    Run(ContextId, PageId, usize),
    Switch,
    Flush,
}

/// One random TLB workload: a capacity (small, eviction-heavy ones as
/// often as any), a mode and a step sequence. Touches draw from up to
/// four contexts and three regions of about two thirds of the capacity
/// each, so both hits and evictions are common. A quarter of them are
/// runs of up to three times the capacity, so a run's first misses often
/// evict pages further on in it. `gap` sets how many steps fall between
/// switches or flushes on average, from every few steps to hardly ever.
fn tlb_workload() -> impl Strategy<Value = (usize, TlbMode, Vec<TlbOp>)> {
    (
        prop_oneof![1usize..=8, 1usize..=256],
        any::<bool>(),
        1u64..=4,
        prop_oneof![Just(4u32), Just(40), Just(400)],
    )
        .prop_flat_map(|(capacity, tagged, contexts, gap)| {
            let pages = (capacity * 2 / 3).max(1) as u64;
            let op = (
                (0..gap, 0..contexts, 1u64..=3, 0..pages),
                (0u32..4, 1..=3 * capacity),
            )
                .prop_map(move |((kind, ctx, region, page), (run, len))| {
                    let (ctx, page) = (ContextId(ctx), page_of(region, page));
                    match (kind, run) {
                        (0, _) => TlbOp::Switch,
                        (1, _) => TlbOp::Flush,
                        (_, 0) => TlbOp::Run(ctx, page, len),
                        _ => TlbOp::Touch(ctx, page),
                    }
                });
            let mode = if tagged {
                TlbMode::Tagged
            } else {
                TlbMode::InvalidateOnSwitch
            };
            (
                Just(capacity),
                Just(mode),
                proptest::collection::vec(op, 1..1500),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tlb_agrees_with_the_fifo_set_reference((capacity, mode, ops) in tlb_workload()) {
        let mut tlb = Tlb::new(mode, capacity);
        let mut reference = ReferenceTlb::new(mode, capacity);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                TlbOp::Touch(ctx, page) => prop_assert_eq!(
                    tlb.touch(ctx, page),
                    reference.touch(ctx, page),
                    "step {}: {:?} hit or miss differs (capacity {}, {:?})",
                    step, op, capacity, mode
                ),
                TlbOp::Run(ctx, first, len) => prop_assert_eq!(
                    tlb.touch_run(ctx, first, len),
                    reference.touch_all(ctx, (0..len as u64).map(|i| PageId(first.0 + i))),
                    "step {}: {:?} misses differ (capacity {}, {:?})",
                    step, op, capacity, mode
                ),
                TlbOp::Switch => {
                    tlb.on_context_switch();
                    reference.on_context_switch();
                }
                TlbOp::Flush => {
                    tlb.flush();
                    reference.flush();
                }
            }
            prop_assert_eq!(
                (tlb.hits(), tlb.misses(), tlb.invalidations(), tlb.resident_count()),
                (reference.hits, reference.misses, reference.invalidations, reference.resident.len()),
                "step {}: (hits, misses, invalidations, resident) differ after {:?}",
                step, op
            );
        }
    }
}

// ----------------------------------------------------------------------
// Page sequences through `Cpu::touch_pages` against the same reference.
// ----------------------------------------------------------------------

/// One `touch_pages` call's worth of pages, or a context switch.
#[derive(Clone, Debug)]
enum CpuOp {
    Pages(Vec<PageId>),
    Switch(ContextId),
}

/// Last page number a region's page field holds.
const TOP_PAGE: u64 = u32::MAX as u64;

/// A page sequence: one to three pieces, each either consecutive pages of
/// region 1–3 (up to 600, so more than the CPU's 256 entries, each page
/// repeated one to three times in a row) or pages that cross from the
/// last pages of region 0 to the first of region 1, whose page ids are
/// consecutive numbers. (Only region 0's last pages are touched, so no
/// stamp table spans a whole region's page numbers.)
fn page_sequence() -> impl Strategy<Value = Vec<PageId>> {
    let piece = (
        (0u32..5, 1u64..=3, 0u64..400),
        (
            prop_oneof![1u64..=8, 1u64..=600],
            prop_oneof![Just(1usize), 1usize..=3],
        ),
    )
        .prop_map(|((kind, region, start), (len, repeat))| {
            if kind == 0 {
                let tail = len.min(300);
                let head = (start % 300) + 1;
                let top = (TOP_PAGE + 1 - tail..=TOP_PAGE).map(|p| page_of(0, p));
                return top.chain((0..head).map(|p| page_of(1, p))).collect();
            }
            (start..start + len)
                .flat_map(|p| std::iter::repeat_n(page_of(region, p), repeat))
                .collect::<Vec<_>>()
        });
    proptest::collection::vec(piece, 1..=3).prop_map(|pieces| pieces.concat())
}

fn cpu_workload() -> impl Strategy<Value = (TlbMode, Vec<CpuOp>)> {
    let op = (0u32..4, 1u64..=3, page_sequence()).prop_map(|(kind, ctx, pages)| match kind {
        0 => CpuOp::Switch(ContextId(ctx)),
        _ => CpuOp::Pages(pages),
    });
    let mode = any::<bool>().prop_map(|tagged| {
        if tagged {
            TlbMode::Tagged
        } else {
            TlbMode::InvalidateOnSwitch
        }
    });
    (mode, proptest::collection::vec(op, 1..40))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_sequences_agree_with_the_fifo_set_reference((mode, ops) in cpu_workload()) {
        let machine = Machine::with_tlb_mode(1, CostModel::cvax_firefly(), mode);
        let cpu = machine.cpu(0);
        let mut reference = ReferenceTlb::new(mode, 256);
        for (step, op) in ops.iter().enumerate() {
            match op {
                CpuOp::Pages(pages) => {
                    let mut meter = Meter::enabled();
                    let misses = cpu.touch_pages(pages.iter().copied(), &mut meter);
                    let expected = reference.touch_all(cpu.current_context(), pages.iter().copied());
                    prop_assert_eq!(misses, expected, "step {}: misses differ ({:?})", step, mode);
                    prop_assert_eq!(meter.tlb_misses(), expected);
                }
                &CpuOp::Switch(ctx) => {
                    if ctx != cpu.current_context() {
                        reference.on_context_switch();
                    }
                    cpu.switch_context(ctx, machine.cost(), &mut Meter::disabled());
                }
            }
            prop_assert_eq!(
                (cpu.tlb_hits(), cpu.tlb_misses()),
                (reference.hits, reference.misses),
                "step {}: (hits, misses) differ ({:?})",
                step, mode
            );
        }
    }
}

// ----------------------------------------------------------------------
// Protection checks against a plain map.
// ----------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum VmOp {
    Map(RegionId, Protection),
    Unmap(RegionId),
    UnmapAll,
    Check(RegionId, bool),
}

/// Random table changes and checks over a dozen region ids, so ids that
/// share a cache slot meet often and most checks hit a warm slot.
fn vm_ops() -> impl Strategy<Value = Vec<VmOp>> {
    let op = (0u32..32, 0u64..12, any::<bool>()).prop_map(|(kind, id, flag)| {
        let region = RegionId(id);
        match kind {
            0..=3 => {
                let prot = if flag {
                    Protection::ReadWrite
                } else {
                    Protection::Read
                };
                VmOp::Map(region, prot)
            }
            4..=7 => VmOp::Unmap(region),
            8 => VmOp::UnmapAll,
            _ => VmOp::Check(region, flag),
        }
    });
    proptest::collection::vec(op, 1..400)
}

proptest! {
    #[test]
    fn protection_checks_agree_with_a_plain_map(ops in vm_ops()) {
        let ctx = VmContext::new(ContextId(5));
        let mut reference: HashMap<RegionId, Protection> = HashMap::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                VmOp::Map(region, prot) => {
                    ctx.map(region, prot);
                    reference.insert(region, prot);
                }
                VmOp::Unmap(region) => {
                    ctx.unmap(region);
                    reference.remove(&region);
                }
                VmOp::UnmapAll => {
                    ctx.unmap_all();
                    reference.clear();
                }
                VmOp::Check(region, write) => {
                    let expected = match reference.get(&region) {
                        None => Err(MemFault::NotMapped { ctx: ctx.id(), region }),
                        Some(p) if write && !p.allows_write() => {
                            Err(MemFault::ProtectionViolation { ctx: ctx.id(), region, write })
                        }
                        Some(_) => Ok(()),
                    };
                    prop_assert_eq!(
                        ctx.check(region, write, false),
                        expected,
                        "step {}: {:?}",
                        step,
                        op
                    );
                    prop_assert_eq!(ctx.protection(region), reference.get(&region).copied());
                }
            }
        }
        prop_assert_eq!(ctx.mapped_count(), reference.len());
    }
}

// ----------------------------------------------------------------------
// Non-proptest integration checks of the machine.
// ----------------------------------------------------------------------

#[test]
fn charged_time_equals_metered_time_on_a_scripted_sequence() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let cpu = machine.cpu(0);
    let cost = machine.cost();
    let server = machine.create_context();
    let mut meter = Meter::enabled();
    let start = cpu.now();
    for (phase, amount) in [
        (Phase::ProcedureCall, cost.hw.procedure_call),
        (Phase::Trap, cost.hw.kernel_trap),
        (Phase::KernelTransfer, cost.kernel_transfer_call),
        (Phase::Trap, cost.hw.kernel_trap),
    ] {
        meter.charge(cpu, phase, amount);
    }
    meter.charge_locked(cpu, Phase::QueueOp, cost.astack_queue_op, Some("queue"));
    cpu.switch_context(server.id(), cost, &mut meter);
    assert_eq!(cpu.now() - start, meter.total());
    assert_eq!(
        meter.total(),
        cost.hw.procedure_call
            + cost.hw.kernel_trap * 2
            + cost.kernel_transfer_call
            + cost.astack_queue_op
            + cost.hw.context_switch
    );
    assert_eq!(meter.total_locked("queue"), cost.astack_queue_op);
    assert_eq!(
        meter.total_for(Phase::ContextSwitch),
        cost.hw.context_switch
    );
}

#[test]
fn context_ids_are_never_reused() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let mut seen = std::collections::HashSet::new();
    for _ in 0..100 {
        let ctx = machine.create_context();
        assert!(seen.insert(ctx.id()), "context id reuse");
        machine.destroy_context(ctx.id());
    }
}

#[test]
fn kernel_context_survives_destruction_attempts() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    machine.destroy_context(ContextId::KERNEL);
    assert!(machine.context(ContextId::KERNEL).is_some());
}

#[test]
fn concurrent_idle_claims_hand_out_each_cpu_once() {
    // The idle-processor probe must be atomic: when many callers race for
    // the CPUs idling in a context, each CPU is claimed exactly once.
    let machine = Machine::new(8, CostModel::cvax_firefly());
    let ctx = machine.create_context();
    for i in 2..8 {
        machine.cpu(i).set_idle_in(Some(ctx.id()));
    }
    let claimed = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                while let Some(id) = machine.claim_idle_cpu_in(ctx.id()) {
                    claimed.lock().unwrap().push(id);
                }
            });
        }
    });
    let mut got = claimed.into_inner().unwrap();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![2, 3, 4, 5, 6, 7],
        "each idle CPU claimed exactly once"
    );
    assert_eq!(machine.claim_idle_cpu_in(ctx.id()), None);
}
