//! Argument stacks (A-stacks) and their linkage records.
//!
//! At bind time the kernel "pair-wise allocates in the client and server
//! domains a number of A-stacks equal to the number of simultaneous calls
//! allowed. These A-stacks are mapped read-write and shared by both
//! domains" (Section 3.1). This module implements the bind-time allocation
//! and the call-time disciplines the paper describes:
//!
//! * procedures with equal A-stack sizes share a *class* of A-stacks
//!   ("Procedures in the same interface having A-stacks of similar size can
//!   share A-stacks");
//! * the primary A-stacks of an interface live contiguously in one region
//!   so call-time validation is "a simple range check" (Section 5.2);
//! * each class's free list is a LIFO queue private to the binding
//!   ("Each A-stack queue is guarded by its own lock", Section 3.4) —
//!   implemented here as a *lock-free* Treiber stack, so the paper's
//!   per-queue critical section shrinks to one compare-exchange and
//!   concurrent calls through different bindings (or different classes)
//!   never serialize at all;
//! * every A-stack has a kernel-private linkage slot, locatable from the
//!   A-stack by arithmetic, whose `in_use` flag enforces that "no other
//!   thread is currently using that A-stack/linkage pair";
//! * when the pre-allocated A-stacks run out the client can wait or
//!   allocate more; late allocations land in non-contiguous *overflow*
//!   regions that "take slightly more time to validate" (Section 5.2).
//!   Overflow indices are managed by a small mutex-guarded side list that
//!   the fast path never touches while no overflow exists;
//! * blocked waiters (the `Wait` exhaustion policy) park on a Condvar
//!   behind a FIFO ticket queue, so releases wake clients in arrival
//!   order — a starved caller cannot be overtaken indefinitely.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use firefly::mem::Region;
use kernel::kernel::Kernel;
use kernel::thread::Linkage;
use kernel::Domain;
use parking_lot::{Condvar, Mutex};

use crate::error::CallError;
use crate::index_stack::IndexStack;

/// How A-stack regions are mapped at bind time.
///
/// Section 3.5: "While our implementation demonstrates the performance of
/// this design, the Firefly operating system does not yet support
/// pair-wise shared memory. Our current implementation places A-stacks in
/// globally shared virtual memory. Since mapping is done at bind time, an
/// implementation using pair-wise shared memory would have identical
/// performance, but greater safety."
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AStackMapping {
    /// Mapped read-write into exactly the client and server (the design).
    #[default]
    Pairwise,
    /// Mapped into every existing domain, as the paper's actual Firefly
    /// implementation did — identical performance, weaker safety.
    GloballyShared,
}

/// How `acquire` behaves when every A-stack of a class is in use
/// (Section 5.2: "the client can either wait for one to become available
/// ... or allocate more").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AStackPolicy {
    /// Fail immediately with [`CallError::NoAStacks`].
    Fail,
    /// Block until one is released or the timeout expires.
    Wait(Duration),
    /// Allocate an additional (overflow) A-stack.
    Grow,
}

/// One size class of A-stacks within a binding.
#[derive(Clone, Debug)]
pub struct AStackClass {
    /// Bytes per A-stack.
    pub size: usize,
    /// Primary (contiguous) A-stacks allocated at bind time.
    pub primary_count: usize,
    /// Global index of the first primary A-stack of this class.
    pub base_index: usize,
    /// Byte offset of that A-stack within the primary region.
    pub base_offset: usize,
}

/// Where one A-stack lives.
#[derive(Clone)]
pub struct AStackRef {
    /// Global index within the binding.
    pub index: usize,
    /// Size class.
    pub class: usize,
    /// Backing region (primary, or a private overflow region).
    pub region: Arc<Region>,
    /// Byte offset of the A-stack within the region.
    pub offset: usize,
    /// Bytes available.
    pub size: usize,
    /// True if this is an overflow A-stack (slower validation).
    pub overflow: bool,
}

/// The kernel-private record paired with each A-stack.
pub struct LinkageSlot {
    in_use: AtomicBool,
    record: Mutex<Option<Linkage>>,
}

impl LinkageSlot {
    fn new() -> LinkageSlot {
        LinkageSlot {
            in_use: AtomicBool::new(false),
            record: Mutex::new(None),
        }
    }

    /// Atomically claims the slot; fails if another thread holds it.
    pub fn try_claim(&self) -> bool {
        self.in_use
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Stores the caller's return linkage.
    pub fn set_record(&self, l: Linkage) {
        *self.record.lock() = Some(l);
    }

    /// Releases the slot at return time.
    pub fn release(&self) {
        *self.record.lock() = None;
        self.in_use.store(false, Ordering::Release);
    }

    /// True while a call is using the pair.
    pub fn is_in_use(&self) -> bool {
        self.in_use.load(Ordering::Acquire)
    }
}

/// FIFO queue of clients blocked on an exhausted class.
struct WaitQueue {
    /// Tickets of blocked waiters, front = longest waiting. The mutex also
    /// serializes the check-then-wait against release's notify, which is
    /// what makes the wakeup protocol lossless.
    state: Mutex<WaitState>,
    available: Condvar,
    /// Mirror of `state.queue.len()` readable without the lock, so an
    /// uncontended release never touches the wait mutex.
    waiting: AtomicUsize,
}

#[derive(Default)]
struct WaitState {
    next_ticket: u64,
    queue: VecDeque<u64>,
}

struct ClassQueue {
    /// Free primary A-stacks of the class: a lock-free Treiber LIFO.
    free: IndexStack,
    /// Free overflow indices of this class — the slow path; gated by
    /// `has_overflow` so the fast path takes no lock while the binding has
    /// never grown.
    overflow_free: Mutex<Vec<usize>>,
    has_overflow: AtomicBool,
    waiters: WaitQueue,
    /// A-stacks of this class currently held by in-flight calls.
    in_use: AtomicU64,
    /// High-water mark of `in_use` — the adaptive sizing controller's
    /// occupancy signal.
    peak_in_use: AtomicU64,
    /// Times an acquire found the class exhausted: a Fail-policy error, a
    /// blocked Wait entry, or a Grow overflow allocation all count one.
    stall_events: AtomicU64,
}

impl ClassQueue {
    fn new(class: &AStackClass) -> ClassQueue {
        ClassQueue {
            // Seeded highest-index-first, so the first acquire pops
            // `base_index` — the order the old locked Vec produced.
            free: IndexStack::full(class.base_index..class.base_index + class.primary_count),
            overflow_free: Mutex::new(Vec::new()),
            has_overflow: AtomicBool::new(false),
            waiters: WaitQueue {
                state: Mutex::new(WaitState::default()),
                available: Condvar::new(),
                waiting: AtomicUsize::new(0),
            },
            in_use: AtomicU64::new(0),
            peak_in_use: AtomicU64::new(0),
            stall_events: AtomicU64::new(0),
        }
    }
}

struct OverflowEntry {
    region: Arc<Region>,
    class: usize,
    linkage: Arc<LinkageSlot>,
}

/// All A-stacks of one binding.
pub struct AStackSet {
    primary: Arc<Region>,
    classes: Vec<AStackClass>,
    /// Procedure index → class index.
    proc_class: Vec<usize>,
    queues: Vec<ClassQueue>,
    /// Linkage slots of the primary A-stacks; index = A-stack index. Plain
    /// vector — the set never grows it, so lookup is lock-free.
    linkages: Vec<Arc<LinkageSlot>>,
    overflow: Mutex<Vec<OverflowEntry>>,
    primary_total: usize,
    /// Record/replay stream for acquire outcomes (`astack:{label}`).
    /// `None` in live mode — the lock-free fast path stays lock-free.
    rr: Option<replay::Handle>,
}

impl AStackSet {
    /// Performs the bind-time allocation for an interface: groups
    /// procedures into size classes, allocates the primary A-stacks
    /// contiguously in one region mapped as `mapping` says, and creates a
    /// linkage slot per A-stack.
    ///
    /// `per_proc` gives, per procedure, its A-stack size and simultaneous
    /// call count (from the PDL). `label` names the primary region; under a
    /// recording or replaying `session` every acquire outcome (index,
    /// overflow flag, or failure) flows through the `astack:{label}`
    /// stream.
    pub fn allocate(
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
        label: &str,
        per_proc: &[(usize, u32)],
        mapping: AStackMapping,
        session: &Arc<replay::Session>,
    ) -> AStackSet {
        // Group by exact size; the shared pool of a class gets the largest
        // count any member asked for (sharing bounds simultaneous calls by
        // the total number of shared A-stacks — a soft limit).
        let mut classes: Vec<AStackClass> = Vec::new();
        let mut proc_class = Vec::with_capacity(per_proc.len());
        for &(size, count) in per_proc {
            match classes.iter().position(|c| c.size == size) {
                Some(ci) => {
                    classes[ci].primary_count = classes[ci].primary_count.max(count as usize);
                    proc_class.push(ci);
                }
                None => {
                    classes.push(AStackClass {
                        size,
                        primary_count: count as usize,
                        base_index: 0,
                        base_offset: 0,
                    });
                    proc_class.push(classes.len() - 1);
                }
            }
        }

        // Lay the classes out contiguously.
        let mut index = 0;
        let mut offset = 0;
        for c in &mut classes {
            c.base_index = index;
            c.base_offset = offset;
            index += c.primary_count;
            offset += c.primary_count * c.size;
        }
        let primary_total = index;
        let primary = kernel.map_pairwise(label, client, server, offset.max(1));
        if mapping == AStackMapping::GloballyShared {
            // The Firefly fallback: every existing domain gets the mapping.
            for d in kernel.domains() {
                d.ctx()
                    .map(primary.id(), firefly::vm::Protection::ReadWrite);
            }
        }

        let queues = classes.iter().map(ClassQueue::new).collect();
        let linkages = (0..primary_total)
            .map(|_| Arc::new(LinkageSlot::new()))
            .collect();

        AStackSet {
            primary,
            classes,
            proc_class,
            queues,
            linkages,
            overflow: Mutex::new(Vec::new()),
            primary_total,
            rr: (!session.is_live()).then(|| session.stream(&format!("astack:{label}"))),
        }
    }

    /// The size class used by procedure `proc_index`.
    ///
    /// # Panics
    ///
    /// Panics if the procedure index is out of range; callers validate the
    /// procedure identifier first.
    pub fn class_of_proc(&self, proc_index: usize) -> usize {
        self.proc_class[proc_index]
    }

    /// The classes of this set.
    pub fn classes(&self) -> &[AStackClass] {
        &self.classes
    }

    /// Total A-stacks (primary + overflow).
    pub fn total_count(&self) -> usize {
        firefly::meter::note_sharded_lock();
        self.primary_total + self.overflow.lock().len()
    }

    /// A-stacks of one class (primary + overflow).
    pub fn class_count(&self, class: usize) -> usize {
        let primary = self.classes[class].primary_count;
        if !self.queues[class].has_overflow.load(Ordering::SeqCst) {
            return primary;
        }
        firefly::meter::note_sharded_lock();
        primary
            + self
                .overflow
                .lock()
                .iter()
                .filter(|e| e.class == class)
                .count()
    }

    /// Number of currently free A-stacks in a class.
    pub fn free_count(&self, class: usize) -> usize {
        let q = &self.queues[class];
        let mut n = q.free.len();
        if q.has_overflow.load(Ordering::SeqCst) {
            firefly::meter::note_sharded_lock();
            n += q.overflow_free.lock().len();
        }
        n
    }

    /// Number of clients currently blocked waiting for an A-stack of
    /// `class` (diagnostic; the FIFO-fairness tests observe it).
    pub fn waiters(&self, class: usize) -> usize {
        self.queues[class].waiters.waiting.load(Ordering::SeqCst)
    }

    /// Times an acquire of `class` found it exhausted (Fail errors, Wait
    /// entries and Grow allocations all count).
    pub fn stall_events(&self, class: usize) -> u64 {
        self.queues[class].stall_events.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously held A-stacks of `class`.
    pub fn peak_in_use(&self, class: usize) -> u64 {
        self.queues[class].peak_in_use.load(Ordering::Relaxed)
    }

    /// Total stall events across every class of the set.
    pub fn total_stall_events(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.stall_events.load(Ordering::Relaxed))
            .sum()
    }

    /// Pops a free A-stack of `class` if one is available: the lock-free
    /// primary stack first, then (only if the binding has grown) the
    /// overflow side list.
    fn try_pop(&self, class: usize) -> Option<usize> {
        let q = &self.queues[class];
        if let Some(idx) = q.free.pop() {
            return Some(idx);
        }
        if q.has_overflow.load(Ordering::SeqCst) {
            firefly::meter::note_sharded_lock();
            return q.overflow_free.lock().pop();
        }
        None
    }

    /// Acquires an A-stack of `class` under the given exhaustion policy.
    ///
    /// `grow` allocations need the kernel and the two domains to map the
    /// new overflow region pairwise.
    pub fn acquire(
        &self,
        class: usize,
        policy: AStackPolicy,
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
    ) -> Result<usize, CallError> {
        let result = self.acquire_inner(class, policy, kernel, client, server);
        if let Some(h) = &self.rr {
            // The acquire outcome is the nondeterministic part: which
            // index the lock-free CAS race produced (or that the overflow
            // side list was hit), or that the class was exhausted.
            let payload = match &result {
                Ok(idx) => ((*idx as u64 + 1) << 1) | u64::from(*idx >= self.primary_total),
                Err(_) => 0,
            };
            h.emit(replay::kind::ASTACK_ACQUIRE, payload);
        }
        result
    }

    fn acquire_inner(
        &self,
        class: usize,
        policy: AStackPolicy,
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
    ) -> Result<usize, CallError> {
        let q = &self.queues[class];
        let idx = match self.try_pop(class) {
            Some(idx) => idx,
            None => {
                q.stall_events.fetch_add(1, Ordering::Relaxed);
                match policy {
                    AStackPolicy::Fail => return Err(CallError::NoAStacks),
                    AStackPolicy::Wait(timeout) => self.wait_for_free(class, timeout)?,
                    AStackPolicy::Grow => self.grow(class, kernel, client, server),
                }
            }
        };
        let held = q.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        // At or below the peak the max cannot move: skip its
        // read-modify-write.
        if held > q.peak_in_use.load(Ordering::Relaxed) {
            q.peak_in_use.fetch_max(held, Ordering::Relaxed);
        }
        Ok(idx)
    }

    /// Blocks until an A-stack of `class` is released or `timeout`
    /// expires. Waiters are served in FIFO order: each waiter takes a
    /// ticket; only the front ticket polls the free stack, so a release
    /// cannot be snatched by a later arrival while an earlier one sleeps.
    ///
    /// Lossless-wakeup argument: a releaser pushes the index *first*, then
    /// reads the waiter count (both SeqCst). If it reads 0, every future
    /// waiter registers after that read and therefore polls after the
    /// push — the poll finds the index. If it reads > 0, the releaser
    /// takes the wait mutex and notifies; a registered waiter either
    /// already polled and is inside `wait` (the mutex hand-off makes the
    /// notify reach it) or has not yet polled and will find the index.
    fn wait_for_free(&self, class: usize, timeout: Duration) -> Result<usize, CallError> {
        let deadline = std::time::Instant::now() + timeout;
        let q = &self.queues[class];
        firefly::meter::note_sharded_lock();
        let mut st = q.waiters.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        q.waiters.waiting.store(st.queue.len(), Ordering::SeqCst);
        loop {
            if st.queue.front() == Some(&ticket) {
                if let Some(idx) = self.try_pop(class) {
                    st.queue.pop_front();
                    q.waiters.waiting.store(st.queue.len(), Ordering::SeqCst);
                    // The next-in-line waiter may have an index waiting
                    // for it already (multiple releases in a burst).
                    q.waiters.available.notify_all();
                    return Ok(idx);
                }
            }
            if q.waiters
                .available
                .wait_until(&mut st, deadline)
                .timed_out()
            {
                let got = if st.queue.front() == Some(&ticket) {
                    self.try_pop(class)
                } else {
                    None
                };
                st.queue.retain(|t| *t != ticket);
                q.waiters.waiting.store(st.queue.len(), Ordering::SeqCst);
                if got.is_some() {
                    q.waiters.available.notify_all();
                }
                return got.ok_or(CallError::NoAStacks);
            }
        }
    }

    /// Allocates one overflow A-stack for `class` and returns its index.
    ///
    /// "When further allocation is necessary, it is unlikely that space
    /// contiguous to the original A-stacks will be found, but other space
    /// can be used" (Section 5.2).
    pub fn grow(&self, class: usize, kernel: &Kernel, client: &Domain, server: &Domain) -> usize {
        let size = self.classes[class].size.max(1);
        let region = kernel.map_pairwise("astack-overflow", client, server, size);
        firefly::meter::note_sharded_lock();
        let mut overflow = self.overflow.lock();
        let index = self.primary_total + overflow.len();
        overflow.push(OverflowEntry {
            region,
            class,
            linkage: Arc::new(LinkageSlot::new()),
        });
        drop(overflow);
        self.queues[class]
            .has_overflow
            .store(true, Ordering::SeqCst);
        index
    }

    /// The class owning `index`, without constructing an [`AStackRef`].
    fn class_of_index(&self, index: usize) -> Option<usize> {
        if index < self.primary_total {
            self.classes
                .iter()
                .position(|c| index >= c.base_index && index < c.base_index + c.primary_count)
        } else {
            firefly::meter::note_sharded_lock();
            self.overflow
                .lock()
                .get(index - self.primary_total)
                .map(|e| e.class)
        }
    }

    /// Releases an A-stack back to its class's LIFO queue, waking the
    /// longest-blocked waiter if any.
    pub fn release(&self, index: usize) {
        let Some(class) = self.class_of_index(index) else {
            return;
        };
        let q = &self.queues[class];
        let _ = q
            .in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        if index < self.primary_total {
            q.free.push(index);
        } else {
            firefly::meter::note_sharded_lock();
            q.overflow_free.lock().push(index);
        }
        if q.waiters.waiting.load(Ordering::SeqCst) > 0 {
            firefly::meter::note_sharded_lock();
            let _st = q.waiters.state.lock();
            q.waiters.available.notify_all();
        }
    }

    /// Resolves an index to its location. Returns `None` for an index that
    /// names no A-stack of this binding.
    pub fn lookup(&self, index: usize) -> Option<AStackRef> {
        if index < self.primary_total {
            // The contiguous layout makes this a range check plus
            // arithmetic — the fast path.
            let class_idx = self.class_of_index(index)?;
            let c = &self.classes[class_idx];
            Some(AStackRef {
                index,
                class: class_idx,
                region: Arc::clone(&self.primary),
                offset: c.base_offset + (index - c.base_index) * c.size,
                size: c.size,
                overflow: false,
            })
        } else {
            firefly::meter::note_sharded_lock();
            let overflow = self.overflow.lock();
            let e = overflow.get(index - self.primary_total)?;
            Some(AStackRef {
                index,
                class: e.class,
                region: Arc::clone(&e.region),
                offset: 0,
                size: e.region.len(),
                overflow: true,
            })
        }
    }

    /// The check behind [`AStackSet::validate`], without building an
    /// [`AStackRef`]: returns whether the A-stack is an overflow one. The
    /// kernel's claim runs this alone.
    pub(crate) fn check(&self, index: usize, expected_class: usize) -> Result<bool, CallError> {
        match self.class_of_index(index) {
            Some(class) if class == expected_class => Ok(index >= self.primary_total),
            _ => Err(CallError::BadAStack),
        }
    }

    /// Call-time validation: the index must name an A-stack of this
    /// binding whose class matches the procedure's ("a simple range check
    /// guarantees their integrity"). Overflow A-stacks are flagged so the
    /// caller can charge the slower validation path.
    pub fn validate(&self, index: usize, expected_class: usize) -> Result<AStackRef, CallError> {
        self.check(index, expected_class)?;
        self.lookup(index).ok_or(CallError::BadAStack)
    }

    /// The linkage slot paired with A-stack `index` — "the correct linkage
    /// record can be quickly located given any address in the corresponding
    /// A-stack". Lock-free for primary A-stacks.
    pub fn linkage(&self, index: usize) -> Option<Arc<LinkageSlot>> {
        if index < self.primary_total {
            self.linkages.get(index).cloned()
        } else {
            firefly::meter::note_sharded_lock();
            self.overflow
                .lock()
                .get(index - self.primary_total)
                .map(|e| Arc::clone(&e.linkage))
        }
    }

    /// The primary region (for tests asserting pairwise protection).
    pub fn primary_region(&self) -> &Arc<Region> {
        &self.primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::cost::CostModel;
    use firefly::cpu::Machine;

    fn setup() -> (Arc<Kernel>, Arc<Domain>, Arc<Domain>) {
        let k = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
        let c = k.create_domain("client");
        let s = k.create_domain("server");
        (k, c, s)
    }

    fn set(k: &Kernel, c: &Domain, s: &Domain, per_proc: &[(usize, u32)]) -> AStackSet {
        let live = replay::Session::live();
        AStackSet::allocate(k, c, s, "astacks", per_proc, AStackMapping::Pairwise, &live)
    }

    #[test]
    fn same_sized_procedures_share_a_class() {
        let (k, c, s) = setup();
        // Two 12-byte procedures and one 256-byte procedure.
        let set = set(&k, &c, &s, &[(12, 5), (12, 3), (256, 5)]);
        assert_eq!(set.classes().len(), 2);
        assert_eq!(set.class_of_proc(0), set.class_of_proc(1));
        assert_ne!(set.class_of_proc(0), set.class_of_proc(2));
        // The shared class keeps the larger of the two counts.
        assert_eq!(set.classes()[0].primary_count, 5);
        assert_eq!(set.total_count(), 10);
    }

    #[test]
    fn layout_is_contiguous_and_disjoint() {
        let (k, c, s) = setup();
        let set = set(&k, &c, &s, &[(16, 3), (64, 2)]);
        let refs: Vec<AStackRef> = (0..5).map(|i| set.lookup(i).unwrap()).collect();
        for w in refs.windows(2) {
            assert!(w[0].offset + w[0].size <= w[1].offset + w[1].size);
            assert!(
                w[0].offset + w[0].size <= w[1].offset || w[0].class == w[1].class,
                "A-stacks must not overlap"
            );
        }
        assert_eq!(set.primary_region().len(), 3 * 16 + 2 * 64);
    }

    #[test]
    fn acquire_is_lifo() {
        let (k, c, s) = setup();
        let set = set(&k, &c, &s, &[(16, 3)]);
        let a = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        set.release(a);
        let b = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        assert_eq!(a, b, "A-stacks are LIFO managed by the client");
    }

    #[test]
    fn exhaustion_policies() {
        let (k, c, s) = setup();
        let set = set(&k, &c, &s, &[(16, 2)]);
        let _a = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        let _b = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        assert!(matches!(
            set.acquire(0, AStackPolicy::Fail, &k, &c, &s),
            Err(CallError::NoAStacks)
        ));
        assert!(matches!(
            set.acquire(0, AStackPolicy::Wait(Duration::from_millis(10)), &k, &c, &s),
            Err(CallError::NoAStacks)
        ));
        // Growing allocates an overflow A-stack with slower validation.
        let g = set.acquire(0, AStackPolicy::Grow, &k, &c, &s).unwrap();
        let r = set.validate(g, 0).unwrap();
        assert!(r.overflow);
        assert_eq!(set.total_count(), 3);
    }

    #[test]
    fn waiting_client_wakes_on_release() {
        let (k, c, s) = setup();
        let set = Arc::new(set(&k, &c, &s, &[(16, 1)]));
        let held = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        let waiter = {
            let (set, k, c, s) = (
                Arc::clone(&set),
                Arc::clone(&k),
                Arc::clone(&c),
                Arc::clone(&s),
            );
            std::thread::spawn(move || {
                set.acquire(0, AStackPolicy::Wait(Duration::from_secs(5)), &k, &c, &s)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        set.release(held);
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(got, held);
    }

    #[test]
    fn validation_rejects_foreign_and_mismatched_stacks() {
        let (k, c, s) = setup();
        let set = set(&k, &c, &s, &[(16, 2), (64, 2)]);
        assert!(matches!(set.validate(99, 0), Err(CallError::BadAStack)));
        // Index 2 belongs to the 64-byte class, not the 16-byte class.
        assert!(matches!(set.validate(2, 0), Err(CallError::BadAStack)));
        assert!(set.validate(2, 1).is_ok());
        assert!(matches!(set.check(99, 0), Err(CallError::BadAStack)));
        assert!(matches!(set.check(2, 0), Err(CallError::BadAStack)));
        assert!(matches!(set.check(2, 1), Ok(false)));
        let g = set.grow(1, &k, &c, &s);
        assert!(matches!(set.check(g, 1), Ok(true)));
        assert!(matches!(set.check(g, 0), Err(CallError::BadAStack)));
    }

    #[test]
    fn linkage_slots_exclude_concurrent_use() {
        let (k, c, s) = setup();
        let set = set(&k, &c, &s, &[(16, 1)]);
        let slot = set.linkage(0).unwrap();
        assert!(slot.try_claim());
        assert!(!slot.try_claim(), "second claim must fail while in use");
        assert!(slot.is_in_use());
        slot.release();
        assert!(slot.try_claim());
    }

    #[test]
    fn third_party_domain_cannot_touch_astacks() {
        let (k, c, s) = setup();
        let third = k.create_domain("third");
        let set = set(&k, &c, &s, &[(16, 1)]);
        let region = set.primary_region();
        assert!(c.ctx().check(region.id(), true, false).is_ok());
        assert!(s.ctx().check(region.id(), true, false).is_ok());
        assert!(third.ctx().check(region.id(), false, false).is_err());
    }

    #[test]
    fn lockfree_stack_survives_concurrent_churn() {
        let (k, c, s) = setup();
        let set = Arc::new(set(&k, &c, &s, &[(16, 4)]));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let set = Arc::clone(&set);
                let (k, c, s) = (Arc::clone(&k), Arc::clone(&c), Arc::clone(&s));
                scope.spawn(move || {
                    for _ in 0..500 {
                        if let Ok(idx) = set.acquire(0, AStackPolicy::Fail, &k, &c, &s) {
                            std::hint::spin_loop();
                            set.release(idx);
                        }
                    }
                });
            }
        });
        assert_eq!(set.free_count(0), 4, "all A-stacks return to the queue");
        // All four indices are still distinct and acquirable.
        let mut got: Vec<usize> = (0..4)
            .map(|_| set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn blocked_waiters_are_served_fifo() {
        let (k, c, s) = setup();
        let set = Arc::new(set(&k, &c, &s, &[(16, 1)]));
        let held = set.acquire(0, AStackPolicy::Fail, &k, &c, &s).unwrap();
        let n = 4;
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for i in 0..n {
                let set = Arc::clone(&set);
                let order = Arc::clone(&order);
                let (k, c, s) = (Arc::clone(&k), Arc::clone(&c), Arc::clone(&s));
                scope.spawn(move || {
                    // Stagger arrivals so ticket order is deterministic.
                    while set.waiters(0) != i {
                        std::thread::yield_now();
                    }
                    let idx = set
                        .acquire(0, AStackPolicy::Wait(Duration::from_secs(10)), &k, &c, &s)
                        .unwrap();
                    order.lock().push(i);
                    set.release(idx);
                });
            }
            // All four blocked, then a release chain serves them in order.
            while set.waiters(0) != n {
                std::thread::yield_now();
            }
            set.release(held);
        });
        assert_eq!(*order.lock(), vec![0, 1, 2, 3], "FIFO service order");
    }
}
