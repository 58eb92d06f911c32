//! Bind-time bulk arenas for large out-of-band parameters.
//!
//! Section 5.2 calls handling unexpectedly large parameters "complicated
//! and relatively expensive, but infrequent": the baseline call path maps
//! a fresh pairwise segment for every out-of-band call and unmaps it on
//! return. When an interface *declares* large variable parameters, though,
//! the traffic is not unexpected — so, exactly like the A-stack lists, the
//! segment can be allocated once at bind time and reused per call.
//!
//! A [`BulkArena`] is one pairwise-mapped region (same
//! `kernel::map_pairwise` primitive, same protection argument as the
//! A-stacks: only the client and server domains pass the mapping check),
//! carved into fixed-size chunks sized from the interface's declared
//! maxima. Chunks are handed out by a lock-free Treiber free stack — the
//! same discipline as [`crate::astack`] — so steady-state large calls
//! place their payloads by reference in the arena with zero map/unmap
//! traffic and zero locks. A call whose payload exceeds the chunk size
//! (an *unbounded* complex type that outgrew its estimate) or that finds
//! the arena exhausted falls back to the per-call segment path, which
//! stays fully functional.

use std::sync::Arc;

use firefly::mem::{Region, PAGE_SIZE};
use idl::layout::OOB_DESCRIPTOR_SIZE;
use idl::stubgen::CompiledInterface;
use idl::types::Ty;
use kernel::kernel::Kernel;
use kernel::Domain;

use crate::astack::AStackSet;
use crate::index_stack::IndexStack;

/// Chunk-size estimate for out-of-band parameters whose encoded size has
/// no declared bound (complex types). Payloads that outgrow it take the
/// per-call fallback.
pub const UNBOUNDED_ESTIMATE: usize = 4096;

/// One chunk leased from the arena for the duration of a call.
#[derive(Clone, Copy, Debug)]
pub struct BulkChunk {
    /// Chunk index (pass back to [`BulkArena::release`]).
    pub index: usize,
    /// Byte offset of the chunk within the arena region.
    pub offset: usize,
    /// Chunk capacity in bytes.
    pub size: usize,
}

/// The pairwise-shared bulk region of one binding.
pub struct BulkArena {
    region: Arc<Region>,
    chunk_size: usize,
    chunk_count: usize,
    /// Free chunk indices: the same lock-free LIFO as the A-stack queues,
    /// so chunk churn never serializes concurrent calls.
    free: IndexStack,
    /// Record/replay stream for chunk acquire outcomes (`bulk:{label}`);
    /// `None` in live mode.
    rr: Option<replay::Handle>,
}

/// Largest encoded size a type can occupy in an out-of-band segment, or
/// `None` when the type has no declared bound (complex encodings).
fn max_encoded_size(ty: &Ty) -> Option<usize> {
    match ty {
        Ty::VarBytes(max) => Some(4 + max),
        _ => ty.fixed_size(),
    }
}

/// Bytes one call of `proc` can need in the arena: each out-of-band slot
/// of one direction (arguments, then results, take the chunk in turn) at
/// its declared maximum, each with its 8-byte segment header, for the
/// direction that needs more. Unbounded types count [`UNBOUNDED_ESTIMATE`].
fn proc_oob_need(proc: &idl::stubgen::CompiledProc) -> usize {
    let need = |results| -> usize {
        proc.oob_slots(results)
            .map(|(_, ty)| max_encoded_size(ty).unwrap_or(UNBOUNDED_ESTIMATE) + OOB_DESCRIPTOR_SIZE)
            .sum()
    };
    need(false).max(need(true))
}

fn align_up(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

impl BulkArena {
    /// Allocates the bulk arena for an interface at bind time, or `None`
    /// when no procedure uses out-of-band parameters (fixed-size
    /// interfaces pay nothing). The chunk size covers the largest declared
    /// per-call need, page-aligned; the chunk count matches the binding's
    /// A-stack count, so every simultaneous call the binding admits can
    /// hold a chunk.
    pub fn for_interface(
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
        label: &str,
        iface: &CompiledInterface,
        astacks: &AStackSet,
        session: &Arc<replay::Session>,
    ) -> Option<BulkArena> {
        let need = iface
            .procs
            .iter()
            .filter(|p| p.layout.uses_out_of_band)
            .map(proc_oob_need)
            .max()
            .filter(|&n| n > 0)?;
        let chunk_size = align_up(need, PAGE_SIZE);
        let chunk_count = astacks.total_count().max(1);
        Some(BulkArena::allocate(
            kernel,
            client,
            server,
            label,
            chunk_size,
            chunk_count,
            session,
        ))
    }

    /// Allocates an arena of `chunk_count` chunks of `chunk_size` bytes,
    /// pairwise-mapped into exactly the client and server domains. Under a
    /// recording or replaying `session` every chunk acquire outcome (index
    /// or fallback) flows through the `bulk:{label}` stream.
    pub fn allocate(
        kernel: &Kernel,
        client: &Domain,
        server: &Domain,
        label: &str,
        chunk_size: usize,
        chunk_count: usize,
        session: &Arc<replay::Session>,
    ) -> BulkArena {
        let region = kernel.map_pairwise(label, client, server, (chunk_size * chunk_count).max(1));
        BulkArena {
            region,
            chunk_size,
            chunk_count,
            // Seeded highest-first, so the first acquire leases chunk 0.
            free: IndexStack::full(0..chunk_count),
            rr: (!session.is_live()).then(|| session.stream(&format!("bulk:{label}"))),
        }
    }

    /// Leases a chunk able to hold `need` bytes. `None` when the payload
    /// exceeds the chunk size or every chunk is in flight — the caller
    /// falls back to a per-call segment.
    pub fn acquire(&self, need: usize) -> Option<BulkChunk> {
        let chunk = self.acquire_inner(need);
        if let Some(h) = &self.rr {
            // Which chunk the lock-free pop produced — or that the call
            // fell back to a per-call segment — is the recorded decision.
            h.emit(
                replay::kind::BULK_ACQUIRE,
                chunk.as_ref().map_or(0, |c| c.index as u64 + 1),
            );
        }
        chunk
    }

    fn acquire_inner(&self, need: usize) -> Option<BulkChunk> {
        if need > self.chunk_size {
            return None;
        }
        let index = self.free.pop()?;
        Some(BulkChunk {
            index,
            offset: index * self.chunk_size,
            size: self.chunk_size,
        })
    }

    /// Returns a chunk to the free stack at call return.
    pub fn release(&self, index: usize) {
        debug_assert!(index < self.chunk_count);
        self.free.push(index);
    }

    /// The arena's backing region (pairwise-mapped at bind time).
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Bytes per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Total chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_count
    }

    /// Chunks currently free; the rest are leased to in-flight calls
    /// ([`LrpcRuntime::collect_metrics`](crate::LrpcRuntime::collect_metrics)
    /// exports those as `lrpc_bulk_arena_busy:{interface}`).
    pub fn free_count(&self) -> usize {
        self.free.len()
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

    fn compiled(src: &str) -> CompiledInterface {
        idl::stubgen::compile(&idl::parse(src).unwrap())
    }

    fn astack_set(k: &Kernel, c: &Domain, s: &Domain, per_proc: &[(usize, u32)]) -> AStackSet {
        let live = replay::Session::live();
        let mapping = crate::astack::AStackMapping::Pairwise;
        AStackSet::allocate(k, c, s, "astacks", per_proc, mapping, &live)
    }

    fn arena(k: &Kernel, c: &Domain, s: &Domain, chunk_size: usize, chunks: usize) -> BulkArena {
        let live = replay::Session::live();
        BulkArena::allocate(k, c, s, "bulk", chunk_size, chunks, &live)
    }

    #[test]
    fn fixed_interfaces_get_no_arena() {
        let (k, c, s) = setup();
        let iface = compiled("interface B { procedure Add(a: int32, b: int32) -> int32; }");
        let astacks = astack_set(&k, &c, &s, &[(12, 5)]);
        let live = replay::Session::live();
        assert!(BulkArena::for_interface(&k, &c, &s, "bulk", &iface, &astacks, &live).is_none());
    }

    #[test]
    fn arena_sizes_from_the_declared_maximum() {
        let (k, c, s) = setup();
        let iface = compiled("interface B { procedure Send(pkt: var bytes[8192]); }");
        let astacks = astack_set(&k, &c, &s, &[(1500, 5)]);
        let live = replay::Session::live();
        let arena = BulkArena::for_interface(&k, &c, &s, "bulk", &iface, &astacks, &live).unwrap();
        // 4-byte length prefix + 8192 payload + 8-byte segment header,
        // rounded up to a page.
        assert!(arena.chunk_size() >= 8192 + 4 + OOB_DESCRIPTOR_SIZE);
        assert_eq!(arena.chunk_size() % PAGE_SIZE, 0);
        assert_eq!(arena.chunk_count(), 5);
        assert_eq!(arena.free_count(), 5);
    }

    #[test]
    fn chunks_fit_whichever_direction_needs_more() {
        let (k, c, s) = setup();
        let live = replay::Session::live();
        // Out-of-band results alone still get an arena, sized for them.
        let iface = compiled("interface B { procedure Get(h: int32, pkt: out var bytes[8192]); }");
        let astacks = astack_set(&k, &c, &s, &[(1500, 2)]);
        let arena = BulkArena::for_interface(&k, &c, &s, "bulk", &iface, &astacks, &live).unwrap();
        assert_eq!(
            arena.chunk_size(),
            align_up(8192 + 4 + OOB_DESCRIPTOR_SIZE, PAGE_SIZE)
        );
        // Both directions out of band: the larger one sizes the chunk.
        let iface = compiled(
            "interface B { procedure Swap(a: in var bytes[2048], r: out var bytes[6000]); }",
        );
        let arena = BulkArena::for_interface(&k, &c, &s, "bulk", &iface, &astacks, &live).unwrap();
        assert_eq!(
            arena.chunk_size(),
            align_up(6000 + 4 + OOB_DESCRIPTOR_SIZE, PAGE_SIZE)
        );
    }

    #[test]
    fn chunks_are_lifo_disjoint_and_bounded() {
        let (k, c, s) = setup();
        let arena = arena(&k, &c, &s, 1024, 3);
        let a = arena.acquire(100).unwrap();
        let b = arena.acquire(1024).unwrap();
        assert_ne!(a.offset, b.offset);
        assert_eq!(a.offset, 0, "first lease takes chunk 0");
        assert!(arena.acquire(2000).is_none(), "oversized payloads refuse");
        let c3 = arena.acquire(1).unwrap();
        assert_eq!(arena.free_count(), 0);
        assert_eq!(arena.chunk_count() - arena.free_count(), 3);
        assert!(arena.acquire(1).is_none(), "exhausted arena refuses");
        arena.release(c3.index);
        arena.release(b.index);
        arena.release(a.index);
        assert_eq!(arena.free_count(), 3);
        assert_eq!(arena.chunk_count() - arena.free_count(), 0);
        // LIFO: the most recently released chunk comes back first.
        assert_eq!(arena.acquire(1).unwrap().index, a.index);
    }

    #[test]
    fn third_party_domain_cannot_touch_the_arena() {
        let (k, c, s) = setup();
        let third = k.create_domain("third");
        let arena = arena(&k, &c, &s, 512, 2);
        let region = arena.region();
        assert!(c.ctx().check(region.id(), true, false).is_ok());
        assert!(s.ctx().check(region.id(), true, false).is_ok());
        assert!(third.ctx().check(region.id(), false, false).is_err());
    }

    #[test]
    fn concurrent_lease_churn_conserves_chunks() {
        let (k, c, s) = setup();
        let arena = Arc::new(arena(&k, &c, &s, 256, 4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let arena = Arc::clone(&arena);
                scope.spawn(move || {
                    for _ in 0..500 {
                        if let Some(chunk) = arena.acquire(64) {
                            std::hint::spin_loop();
                            arena.release(chunk.index);
                        }
                    }
                });
            }
        });
        assert_eq!(arena.free_count(), 4, "all chunks return to the stack");
        assert_eq!(arena.chunk_count() - arena.free_count(), 0);
        let mut got: Vec<usize> = (0..4).map(|_| arena.acquire(1).unwrap().index).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
