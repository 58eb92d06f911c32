//! Execution stacks (E-stacks).
//!
//! "Privately mapped E-stacks enable a thread to safely cross between
//! domains" (Section 3.2). E-stacks are large (tens of kilobytes) and are
//! therefore managed lazily: "LRPC delays the A-stack/E-stack association
//! until it is needed ... When the call returns, the E-stack and A-stack
//! remain associated with one another so that they might be used together
//! soon for another call ... Whenever the supply of E-stacks for a given
//! server domain runs low, the kernel reclaims those associated with
//! A-stacks that have not been recently used."

use std::sync::Arc;

use firefly::idhash::IdMap;
use firefly::mem::Region;
use firefly::vm::Protection;
use kernel::kernel::Kernel;
use kernel::Domain;
use parking_lot::Mutex;

/// Default E-stack size: 16 KiB ("E-stacks can be large (tens of
/// kilobytes)").
pub const DEFAULT_ESTACK_SIZE: usize = 16 * 1024;

/// Default cap on E-stacks per server domain before LRU reclamation kicks
/// in ("must be managed conservatively; otherwise a server's address space
/// could be exhausted by just a few clients").
pub const DEFAULT_MAX_ESTACKS: usize = 8;

struct Assoc {
    estack: Arc<Region>,
    last_used: u64,
    in_call: bool,
}

struct PoolInner {
    /// A-stack key → associated E-stack. The key must be unique across
    /// *all* bindings to the server (region id + index), not just within
    /// one binding — two clients' `A-stack 0` are different stacks. Keys
    /// are built from simulator ids, so they hash with the id hasher.
    assoc: IdMap<u64, Assoc>,
    tick: u64,
    lazy_hits: u64,
    allocations: u64,
    reclamations: u64,
}

/// The E-stack pool of one server domain.
///
/// The pool lock is per-server (a shard of the machine-wide E-stack
/// supply), reported to [`firefly::meter::note_sharded_lock`]; bindings
/// cache an `Arc` to their server's pool so the call path never consults
/// a global map to find it.
pub struct EStackPool {
    server: Arc<Domain>,
    estack_size: usize,
    max_estacks: usize,
    inner: Mutex<PoolInner>,
    /// Mirrors the number of in-call associations as a metrics gauge.
    /// Maintained on the in_call flips inside the pool lock, so it always
    /// agrees with [`EStackPool::busy_count`] once calls quiesce. The
    /// runtime adopts it into its registry when the pool is created.
    busy: obs::Gauge,
    /// Record/replay stream for association outcomes
    /// (`estack:{server name}`); `None` in live mode.
    rr: Option<replay::Handle>,
}

/// Usage statistics (for the lazy-vs-static ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EStackStats {
    /// Calls that reused an existing A-stack/E-stack association.
    pub lazy_hits: u64,
    /// E-stacks allocated in the server's address space. None is ever
    /// freed (reclamation re-associates one), so this is also the pool's
    /// high-water mark.
    pub allocations: u64,
    /// Associations reclaimed under address-space pressure.
    pub reclamations: u64,
}

impl EStackPool {
    /// Creates an empty pool for `server`. Under a recording or replaying
    /// `session` every association outcome (which A-stack key resolved,
    /// and whether a fresh allocation was needed) flows through the
    /// `estack:{server}` stream.
    pub fn new(
        server: Arc<Domain>,
        estack_size: usize,
        max_estacks: usize,
        session: &Arc<replay::Session>,
    ) -> EStackPool {
        EStackPool {
            rr: (!session.is_live()).then(|| session.stream(&format!("estack:{}", server.name()))),
            server,
            estack_size: estack_size.max(firefly::mem::PAGE_SIZE),
            max_estacks: max_estacks.max(1),
            inner: Mutex::new(PoolInner {
                assoc: IdMap::default(),
                tick: 0,
                lazy_hits: 0,
                allocations: 0,
                reclamations: 0,
            }),
            busy: obs::Gauge::new(),
        }
    }

    /// The live "E-stacks in a call right now" gauge (a cheap clone of it
    /// can be registered in a metrics registry).
    pub fn busy_gauge(&self) -> &obs::Gauge {
        &self.busy
    }

    /// Finds the E-stack for a call arriving on the A-stack identified by
    /// `astack_key` (globally unique across bindings), applying the lazy-
    /// association rules. Returns the E-stack and whether a fresh
    /// allocation was needed (the slow path).
    pub fn get_for_call(&self, kernel: &Kernel, astack_key: u64) -> (Arc<Region>, bool) {
        let (estack, fresh) = self.get_for_call_inner(kernel, astack_key);
        if let Some(h) = &self.rr {
            // Which A-stack asked and whether the association missed (a
            // fresh allocation) is the order-sensitive outcome here.
            h.emit(
                replay::kind::ESTACK_GET,
                (astack_key << 1) | u64::from(fresh),
            );
        }
        (estack, fresh)
    }

    fn get_for_call_inner(&self, kernel: &Kernel, astack_key: u64) -> (Arc<Region>, bool) {
        firefly::meter::note_sharded_lock();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        // Fast path: the association from a previous call still holds.
        if let Some(a) = inner.assoc.get_mut(&astack_key) {
            a.last_used = tick;
            if !a.in_call {
                self.busy.inc();
            }
            a.in_call = true;
            let estack = Arc::clone(&a.estack);
            inner.lazy_hits += 1;
            return (estack, false);
        }

        // Supply running low? Reclaim the least-recently-used idle
        // association before allocating past the cap.
        if inner.allocations >= self.max_estacks as u64 {
            let victim = inner
                .assoc
                .iter()
                .filter(|(_, a)| !a.in_call)
                .min_by_key(|(_, a)| a.last_used)
                .map(|(&k, _)| k);
            if let Some(victim) = victim {
                let a = inner.assoc.remove(&victim).expect("victim exists");
                inner.reclamations += 1;
                self.busy.inc();
                inner.assoc.insert(
                    astack_key,
                    Assoc {
                        estack: Arc::clone(&a.estack),
                        last_used: tick,
                        in_call: true,
                    },
                );
                return (a.estack, false);
            }
            // Every E-stack is mid-call: allocation past the cap is the
            // only option.
        }

        // Allocate a fresh E-stack out of the server domain.
        let estack = kernel.alloc_mapped(
            &self.server,
            format!("estack-{}", self.server.name()),
            self.estack_size,
            Protection::ReadWrite,
        );
        inner.allocations += 1;
        self.busy.inc();
        inner.assoc.insert(
            astack_key,
            Assoc {
                estack: Arc::clone(&estack),
                last_used: tick,
                in_call: true,
            },
        );
        (estack, true)
    }

    /// Marks the call on `astack_key` finished; the association is kept
    /// for reuse.
    pub fn end_call(&self, astack_key: u64) {
        firefly::meter::note_sharded_lock();
        if let Some(a) = self.inner.lock().assoc.get_mut(&astack_key) {
            if a.in_call {
                self.busy.dec();
            }
            a.in_call = false;
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> EStackStats {
        firefly::meter::note_sharded_lock();
        let inner = self.inner.lock();
        EStackStats {
            lazy_hits: inner.lazy_hits,
            allocations: inner.allocations,
            reclamations: inner.reclamations,
        }
    }

    /// Number of E-stacks currently associated with an *in-progress*
    /// call. Zero between calls — the invariant the chaos tests assert
    /// after every fault schedule (no orphaned in-call association may
    /// survive a failed or aborted call).
    pub fn busy_count(&self) -> usize {
        firefly::meter::note_sharded_lock();
        self.inner
            .lock()
            .assoc
            .values()
            .filter(|a| a.in_call)
            .count()
    }

    /// The configured E-stack size.
    pub fn estack_size(&self) -> usize {
        self.estack_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::cost::CostModel;
    use firefly::cpu::Machine;

    fn setup(max: usize) -> (Arc<Kernel>, EStackPool) {
        let k = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
        let server = k.create_domain("server");
        let pool = EStackPool::new(server, 4096, max, &replay::Session::live());
        (k, pool)
    }

    #[test]
    fn first_call_allocates_second_reuses() {
        let (k, pool) = setup(4);
        let (e1, fresh1) = pool.get_for_call(&k, 0);
        assert!(fresh1);
        pool.end_call(0);
        let (e2, fresh2) = pool.get_for_call(&k, 0);
        assert!(!fresh2, "the association persists across calls");
        assert_eq!(e1.id(), e2.id());
        let s = pool.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.lazy_hits, 1);
    }

    #[test]
    fn distinct_astacks_get_distinct_estacks() {
        let (k, pool) = setup(4);
        let (e1, _) = pool.get_for_call(&k, 0);
        let (e2, _) = pool.get_for_call(&k, 1);
        assert_ne!(e1.id(), e2.id());
        assert_eq!(pool.stats().allocations, 2);
    }

    #[test]
    fn lru_reclamation_under_pressure() {
        let (k, pool) = setup(2);
        let (e0, _) = pool.get_for_call(&k, 0);
        pool.end_call(0);
        let (_e1, _) = pool.get_for_call(&k, 1);
        pool.end_call(1);
        // A-stack 0's association is the least recently used; a third
        // A-stack reclaims it instead of allocating a third E-stack.
        let (e2, fresh) = pool.get_for_call(&k, 2);
        assert!(!fresh);
        assert_eq!(e2.id(), e0.id(), "the LRU association is recycled");
        let s = pool.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.reclamations, 1);
        // A-stack 0 lost its association: next call re-associates.
        pool.end_call(2);
        let (_e, _) = pool.get_for_call(&k, 0);
        assert_eq!(pool.stats().allocations, 2);
    }

    #[test]
    fn in_call_estacks_are_never_reclaimed() {
        let (k, pool) = setup(1);
        let (e0, _) = pool.get_for_call(&k, 0);
        // A-stack 0 is mid-call; a concurrent call must allocate past the
        // cap rather than steal e0.
        let (e1, fresh) = pool.get_for_call(&k, 1);
        assert!(fresh);
        assert_ne!(e0.id(), e1.id());
        assert_eq!(pool.stats().allocations, 2);
    }

    #[test]
    fn busy_gauge_tracks_in_call_associations() {
        let (k, pool) = setup(4);
        assert_eq!(pool.busy_gauge().get(), 0);
        pool.get_for_call(&k, 0);
        pool.get_for_call(&k, 1);
        assert_eq!(pool.busy_gauge().get(), 2);
        assert_eq!(pool.busy_gauge().get() as usize, pool.busy_count());
        pool.end_call(0);
        pool.end_call(0); // double end must not double-decrement
        assert_eq!(pool.busy_gauge().get(), 1);
        pool.end_call(1);
        assert_eq!(pool.busy_gauge().get(), 0);
        assert_eq!(pool.busy_count(), 0);
    }

    #[test]
    fn peak_allocation_tracks_high_water() {
        let (k, pool) = setup(8);
        for i in 0..5 {
            pool.get_for_call(&k, i);
        }
        assert_eq!(pool.stats().allocations, 5);
    }
}
