//! Simulated processors and the machine that hosts them.
//!
//! Each [`Cpu`] carries a virtual clock (nanoseconds since power-on), a TLB
//! and the id of the virtual-memory context currently loaded in its mapping
//! registers. A CPU may also be *idling in a domain's context* — the state
//! the idle-processor optimization of Section 3.4 looks for: "When a call
//! is made, the kernel checks for a processor idling in the context of the
//! server domain."
//!
//! The [`Machine`] owns the CPUs, the physical memory, the VM contexts and
//! the cost model, and provides the protection-checked, TLB-touching memory
//! access path used by all higher layers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::mem::{PageId, PhysMem};
use crate::meter::{Meter, Phase};
use crate::time::Nanos;
use crate::tlb::{Tlb, TlbMode};
use crate::vm::{ContextId, VmContext};

/// One simulated processor.
pub struct Cpu {
    id: usize,
    vclock: AtomicU64,
    tlb: Mutex<Tlb>,
    current_ctx: AtomicU64,
    /// Context id the CPU spins idle in (waiting to be claimed by a call
    /// into that domain), or [`NO_IDLE_CTX`] when not idling. Kept as a
    /// bare atomic so the idle-processor probe on the call fast path is a
    /// single compare-exchange, never a lock.
    idle_in: AtomicU64,
    /// Record/replay stream for this CPU's virtual-clock advances
    /// (`clock:cpu{id}`). Empty in live mode, so the steady path pays one
    /// `OnceLock::get` (a plain load) and nothing else.
    rr: OnceLock<replay::Handle>,
}

/// Sentinel for "not idling". Context ids are allocated from a counter
/// starting at 0, so `u64::MAX` can never collide with a real context.
const NO_IDLE_CTX: u64 = u64::MAX;

/// The length of the run of pages `first..=last` of one region.
fn run_len(first: PageId, last: PageId) -> usize {
    (last.0 - first.0) as usize + 1
}

impl Cpu {
    fn new(id: usize, tlb_mode: TlbMode) -> Cpu {
        Cpu {
            id,
            vclock: AtomicU64::new(0),
            tlb: Mutex::new(Tlb::new(tlb_mode, 256)),
            current_ctx: AtomicU64::new(ContextId::KERNEL.0),
            idle_in: AtomicU64::new(NO_IDLE_CTX),
            rr: OnceLock::new(),
        }
    }

    /// The CPU's index within the machine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current virtual time on this CPU.
    pub fn now(&self) -> Nanos {
        Nanos::from_nanos(self.vclock.load(Ordering::Acquire))
    }

    /// Advances the virtual clock by `dur`. Outside this crate the clock
    /// advances through [`Meter::charge`], which also records the span.
    pub(crate) fn charge(&self, dur: Nanos) {
        self.vclock.fetch_add(dur.as_nanos(), Ordering::AcqRel);
        if let Some(h) = self.rr.get() {
            h.emit(replay::kind::CLOCK_CHARGE, dur.as_nanos());
        }
    }

    /// Advances the virtual clock to at least `t` (used when a thread
    /// migrates to this CPU or waits for a resource freed at `t`).
    pub fn advance_to(&self, t: Nanos) {
        self.vclock.fetch_max(t.as_nanos(), Ordering::AcqRel);
        if let Some(h) = self.rr.get() {
            h.emit(replay::kind::CLOCK_ADVANCE, t.as_nanos());
        }
    }

    /// Resets the clock to zero (between experiments).
    pub fn reset_clock(&self) {
        self.vclock.store(0, Ordering::Release);
    }

    /// The context currently loaded in the mapping registers.
    pub fn current_context(&self) -> ContextId {
        ContextId(self.current_ctx.load(Ordering::Acquire))
    }

    /// Loads `ctx` into the mapping registers, charging one context-switch
    /// cost and invalidating the TLB (unless tagged).
    ///
    /// A switch to the already-loaded context is free — the kernel checks
    /// before reloading.
    pub fn switch_context(&self, ctx: ContextId, cost: &CostModel, meter: &mut Meter) {
        if self.current_context() == ctx {
            return;
        }
        meter.charge(self, Phase::ContextSwitch, cost.hw.context_switch);
        self.tlb.lock().on_context_switch();
        self.current_ctx.store(ctx.0, Ordering::Release);
    }

    /// Touches pages through the TLB in the current context, in order;
    /// returns the number of misses and reports them to the meter. Each
    /// run of consecutive pages of one region goes to the TLB as one
    /// [`Tlb::touch_run`]; a page repeated right after itself is a hit.
    pub fn touch_pages(&self, pages: impl IntoIterator<Item = PageId>, meter: &mut Meter) -> u64 {
        let ctx = self.current_context();
        let mut pages = pages.into_iter();
        let mut tlb = self.tlb.lock();
        let mut misses = 0;
        if let Some(mut first) = pages.next() {
            let (mut last, mut repeats) = (first, 0);
            for p in pages {
                if p == last {
                    repeats += 1;
                } else if p.follows(last) {
                    last = p;
                } else {
                    misses += tlb.touch_run(ctx, first, run_len(first, last));
                    (first, last) = (p, p);
                }
            }
            misses += tlb.touch_run(ctx, first, run_len(first, last));
            tlb.repeat_hits(repeats);
        }
        drop(tlb);
        meter.add_tlb_misses(misses);
        misses
    }

    /// Marks the CPU as idling in `ctx` (or not idling, with `None`).
    pub fn set_idle_in(&self, ctx: Option<ContextId>) {
        match ctx {
            Some(c) => {
                self.idle_in.store(c.0, Ordering::SeqCst);
                self.current_ctx.store(c.0, Ordering::Release);
            }
            None => self.idle_in.store(NO_IDLE_CTX, Ordering::SeqCst),
        }
    }

    /// The context the CPU is idling in, if any.
    pub fn idle_in(&self) -> Option<ContextId> {
        match self.idle_in.load(Ordering::SeqCst) {
            NO_IDLE_CTX => None,
            ctx => Some(ContextId(ctx)),
        }
    }

    /// Atomically claims this CPU if it is idling in `ctx`; on success the
    /// CPU stops idling and `true` is returned. Lock-free: a single
    /// compare-exchange, so concurrent callers race for the claim and
    /// exactly one wins.
    pub fn try_claim_idle(&self, ctx: ContextId) -> bool {
        self.idle_in
            .compare_exchange(ctx.0, NO_IDLE_CTX, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }

    /// Lifetime TLB miss count for this CPU.
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.lock().misses()
    }

    /// Lifetime TLB hit count for this CPU.
    pub fn tlb_hits(&self) -> u64 {
        self.tlb.lock().hits()
    }
}

impl core::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cpu")
            .field("id", &self.id)
            .field("now", &self.now())
            .field("ctx", &self.current_context())
            .finish()
    }
}

/// The simulated multiprocessor.
pub struct Machine {
    cost: CostModel,
    tlb_mode: TlbMode,
    cpus: Vec<Cpu>,
    mem: PhysMem,
    next_ctx: AtomicU64,
    contexts: Mutex<HashMap<ContextId, Arc<VmContext>>>,
    /// Record/replay session attached to this machine (never set in live
    /// mode; see [`Machine::attach_replay`]).
    rr_session: OnceLock<Arc<replay::Session>>,
    /// Stream for idle-CPU claim outcomes (`sched:idle-claim`).
    rr_claim: OnceLock<replay::Handle>,
}

impl Machine {
    /// Builds a machine with `n_cpus` processors, an untagged
    /// (invalidate-on-switch) TLB and the given cost model.
    pub fn new(n_cpus: usize, cost: CostModel) -> Arc<Machine> {
        Machine::with_tlb_mode(n_cpus, cost, TlbMode::InvalidateOnSwitch)
    }

    /// Builds a machine with an explicit TLB mode (the tagged mode is used
    /// by the Section 3.4 ablation).
    pub fn with_tlb_mode(n_cpus: usize, cost: CostModel, tlb_mode: TlbMode) -> Arc<Machine> {
        let n = n_cpus.max(1);
        let kernel_ctx = Arc::new(VmContext::new(ContextId::KERNEL));
        let mut contexts = HashMap::new();
        contexts.insert(ContextId::KERNEL, kernel_ctx);
        Arc::new(Machine {
            cost,
            tlb_mode,
            cpus: (0..n).map(|i| Cpu::new(i, tlb_mode)).collect(),
            mem: PhysMem::new(),
            next_ctx: AtomicU64::new(1),
            contexts: Mutex::new(contexts),
            rr_session: OnceLock::new(),
            rr_claim: OnceLock::new(),
        })
    }

    /// Attaches a record/replay session: every CPU's clock advances and
    /// every idle-claim outcome flow through the session's streams from
    /// now on. A live session is not attached at all (the `OnceLock`s
    /// stay empty and the hot path stays untouched); a second attach is
    /// ignored.
    pub fn attach_replay(&self, session: &Arc<replay::Session>) {
        if session.is_live() || self.rr_session.get().is_some() {
            return;
        }
        let _ = self.rr_session.set(Arc::clone(session));
        for cpu in &self.cpus {
            let _ = cpu.rr.set(session.stream(&format!("clock:cpu{}", cpu.id)));
        }
        let _ = self.rr_claim.set(session.stream("sched:idle-claim"));
    }

    /// The attached record/replay session, if any.
    pub fn replay_session(&self) -> Option<&Arc<replay::Session>> {
        self.rr_session.get()
    }

    /// A convenient single-CPU C-VAX Firefly.
    pub fn cvax_uniprocessor() -> Arc<Machine> {
        Machine::new(1, CostModel::cvax_firefly())
    }

    /// The four-CPU C-VAX Firefly used throughout the paper's Section 4.
    pub fn cvax_firefly() -> Arc<Machine> {
        Machine::new(4, CostModel::cvax_firefly())
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The TLB mode the machine was built with.
    pub fn tlb_mode(&self) -> TlbMode {
        self.tlb_mode
    }

    /// Number of processors.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// One processor by index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_cpus()`; CPU indices come from the machine
    /// itself, so an out-of-range index is a caller bug.
    pub fn cpu(&self, i: usize) -> &Cpu {
        &self.cpus[i]
    }

    /// All processors.
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// The physical memory.
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// Creates a fresh, empty VM context (one per protection domain).
    pub fn create_context(&self) -> Arc<VmContext> {
        let id = ContextId(self.next_ctx.fetch_add(1, Ordering::Relaxed));
        let ctx = Arc::new(VmContext::new(id));
        crate::meter::note_global_lock();
        self.contexts.lock().insert(id, Arc::clone(&ctx));
        ctx
    }

    /// Looks up a context by id.
    pub fn context(&self, id: ContextId) -> Option<Arc<VmContext>> {
        crate::meter::note_global_lock();
        self.contexts.lock().get(&id).cloned()
    }

    /// Destroys a context (domain termination).
    pub fn destroy_context(&self, id: ContextId) {
        if id != ContextId::KERNEL {
            crate::meter::note_global_lock();
            self.contexts.lock().remove(&id);
        }
    }

    /// Finds and claims a CPU idling in `ctx`, if any (the idle-processor
    /// optimization's probe). Returns the claimed CPU's index.
    ///
    /// Candidates are tried most-recently-idled first (a LIFO idle queue):
    /// the processor that went idle last has the warmest cache/TLB in
    /// `ctx`, and claiming it forfeits the least idle headroom — the
    /// longer-idle processors stay available for fresh dispatches.
    pub fn claim_idle_cpu_in(&self, ctx: ContextId) -> Option<usize> {
        // The probe sits on the steady-state call path, which promises
        // zero heap allocations — so no candidate Vec. Scan for the
        // warmest still-idle candidate (ties toward the lowest CPU id,
        // matching the stable sort this replaces) and retry on a lost
        // race; the loop is bounded because every lost claim means some
        // other caller consumed that processor.
        let mut claimed = None;
        for _ in 0..self.cpus.len() {
            let Some(best) = self
                .cpus
                .iter()
                .filter(|c| c.idle_in() == Some(ctx))
                .max_by_key(|c| (c.now(), std::cmp::Reverse(c.id())))
            else {
                break;
            };
            if best.try_claim_idle(ctx) {
                claimed = Some(best.id());
                break;
            }
        }
        if let Some(h) = self.rr_claim.get() {
            h.emit(
                replay::kind::IDLE_CLAIM,
                claimed.map_or(0, |i| i as u64 + 1),
            );
        }
        claimed
    }

    /// The latest virtual time across all CPUs — the wall-clock span of a
    /// multiprocessor run (each CPU's clock only ever moves forward).
    pub fn max_now(&self) -> Nanos {
        self.cpus
            .iter()
            .map(Cpu::now)
            .max()
            .unwrap_or(Nanos::from_nanos(0))
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("cost", &self.cost.name)
            .field("cpus", &self.cpus.len())
            .field("regions", &self.mem.region_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MemFault;
    use crate::vm::Protection;

    #[test]
    fn clock_charges_accumulate() {
        let m = Machine::cvax_uniprocessor();
        let cpu = m.cpu(0);
        cpu.charge(Nanos::from_micros(18));
        cpu.charge(Nanos::from_micros(33));
        assert_eq!(cpu.now(), Nanos::from_micros(51));
        cpu.advance_to(Nanos::from_micros(40));
        assert_eq!(
            cpu.now(),
            Nanos::from_micros(51),
            "advance_to never goes backwards"
        );
        cpu.advance_to(Nanos::from_micros(60));
        assert_eq!(cpu.now(), Nanos::from_micros(60));
    }

    #[test]
    fn context_switch_charges_and_invalidates() {
        let m = Machine::cvax_uniprocessor();
        let cpu = m.cpu(0);
        let ctx = m.create_context();
        let mut meter = Meter::enabled();
        cpu.switch_context(ctx.id(), m.cost(), &mut meter);
        assert_eq!(cpu.now(), m.cost().hw.context_switch);
        assert_eq!(
            meter.total_for(Phase::ContextSwitch),
            m.cost().hw.context_switch
        );
        // Switching to the same context is free.
        cpu.switch_context(ctx.id(), m.cost(), &mut meter);
        assert_eq!(cpu.now(), m.cost().hw.context_switch);
    }

    #[test]
    fn checked_memory_access_respects_protection() {
        let m = Machine::cvax_uniprocessor();
        let client = m.create_context();
        let third_party = m.create_context();
        let region = m.mem().alloc("astack", 256);
        client.map(region.id(), Protection::ReadWrite);

        client
            .check(region.id(), true, false)
            .expect("client may write its A-stack");
        let err = third_party.check(region.id(), false, false).unwrap_err();
        assert!(matches!(err, MemFault::NotMapped { .. }));
        // The kernel may access anything.
        third_party
            .check(region.id(), false, true)
            .expect("kernel mode bypasses protection");
    }

    #[test]
    fn memory_access_counts_tlb_misses() {
        let m = Machine::cvax_uniprocessor();
        let cpu = m.cpu(0);
        let region = m.mem().alloc("buf", crate::mem::PAGE_SIZE * 4);
        let mut meter = Meter::enabled();
        let len = crate::mem::PAGE_SIZE * 2;
        cpu.touch_pages(region.pages_for(0, len), &mut meter);
        assert_eq!(meter.tlb_misses(), 2);
        // A second access to the same pages hits.
        cpu.touch_pages(region.pages_for(0, len), &mut meter);
        assert_eq!(meter.tlb_misses(), 2);
    }

    #[test]
    fn idle_claim_is_atomic_and_single_shot() {
        let m = Machine::cvax_firefly();
        let ctx = m.create_context();
        m.cpu(2).set_idle_in(Some(ctx.id()));
        assert_eq!(m.claim_idle_cpu_in(ctx.id()), Some(2));
        assert_eq!(
            m.claim_idle_cpu_in(ctx.id()),
            None,
            "a claimed CPU is no longer idle"
        );
    }

    #[test]
    fn concurrent_idle_claims_find_one_winner_each() {
        let m = Machine::cvax_firefly();
        let ctx = m.create_context();
        m.cpu(1).set_idle_in(Some(ctx.id()));
        m.cpu(3).set_idle_in(Some(ctx.id()));
        let claims: Vec<Option<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| m.claim_idle_cpu_in(ctx.id())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut won: Vec<usize> = claims.into_iter().flatten().collect();
        won.sort_unstable();
        assert_eq!(won, vec![1, 3], "each idle CPU is claimed exactly once");
        assert_eq!(m.cpu(1).idle_in(), None);
        assert_eq!(m.cpu(3).idle_in(), None);
    }

    #[test]
    fn concurrent_charges_do_not_lose_time() {
        let m = Machine::cvax_firefly();
        let cpu = m.cpu(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        cpu.charge(Nanos::from_nanos(7));
                    }
                });
            }
        });
        assert_eq!(cpu.now(), Nanos::from_nanos(4 * 1000 * 7));
    }
}
