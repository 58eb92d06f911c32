//! Virtual-memory contexts and protection.
//!
//! Each protection domain owns one [`VmContext`]: a table mapping region
//! ids to access rights. A memory access by a thread running in a domain is
//! checked against the domain's context — this is the software substitute
//! for the VAX MMU, and it is what makes the simulated protection domains
//! *actually protective*: a third-party domain reading a pairwise-shared
//! A-stack gets a [`MemFault::ProtectionViolation`], not data.
//!
//! Kernel-mode accesses bypass the per-domain table, modeling the kernel
//! being mapped into every context.

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockWriteGuard};

use crate::error::MemFault;
use crate::idhash::IdMap;
use crate::mem::RegionId;

/// Identifier of a virtual-memory context (one per protection domain).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub u64);

impl ContextId {
    /// The kernel's own context.
    pub const KERNEL: ContextId = ContextId(0);
}

impl fmt::Debug for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// Access rights for one region in one context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protection {
    /// Mapped read-only.
    Read,
    /// Mapped read-write (A-stacks are mapped read-write into both the
    /// client and server domains).
    ReadWrite,
}

impl Protection {
    /// True if this mapping allows writing.
    pub fn allows_write(self) -> bool {
        matches!(self, Protection::ReadWrite)
    }
}

/// Slots in a context's lookup cache. Region ids are dense, so a call's
/// A-stack, arena and ring regions fall into different slots.
const CACHE_SLOTS: usize = 8;

/// The mapping table of one protection domain, and a cache of its recent
/// successful lookups: slot `region % CACHE_SLOTS` holds `region << 2 |
/// code` (1 read-only, 2 read-write), or 0 when empty.
///
/// Invariant: no slot answers older than the last completed table change.
/// Slots fill only under the read lock, and a change empties them all under
/// the write lock before it edits, so a racing check lands before or after
/// the change, as with the lock alone.
pub struct VmContext {
    id: ContextId,
    maps: RwLock<IdMap<RegionId, Protection>>,
    cache: [AtomicU64; CACHE_SLOTS],
}

impl VmContext {
    /// Creates an empty context with the given id.
    pub fn new(id: ContextId) -> VmContext {
        VmContext {
            id,
            maps: RwLock::new(IdMap::default()),
            cache: Default::default(),
        }
    }

    /// The context's id.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// Maps (or remaps) a region with the given protection.
    pub fn map(&self, region: RegionId, prot: Protection) {
        self.change().insert(region, prot);
    }

    /// Removes a region's mapping; subsequent accesses fault.
    pub fn unmap(&self, region: RegionId) {
        self.change().remove(&region);
    }

    /// Removes every mapping (domain teardown).
    pub fn unmap_all(&self) {
        self.change().clear();
    }

    /// The write-locked table, its cache emptied under the lock.
    fn change(&self) -> RwLockWriteGuard<'_, IdMap<RegionId, Protection>> {
        let maps = self.maps.write();
        for slot in &self.cache {
            slot.store(0, Ordering::Release);
        }
        maps
    }

    /// The protection with which `region` is mapped, if at all: a cached
    /// answer without a lock, else the table's (cached if mapped).
    pub fn protection(&self, region: RegionId) -> Option<Protection> {
        let slot = &self.cache[region.0 as usize % CACHE_SLOTS];
        // Pairs with the Release stores that fill and empty the slots.
        let cached = slot.load(Ordering::Acquire);
        match cached & 3 {
            1 if cached >> 2 == region.0 => return Some(Protection::Read),
            2 if cached >> 2 == region.0 => return Some(Protection::ReadWrite),
            _ => {}
        }
        let maps = self.maps.read();
        let prot = maps.get(&region).copied();
        // Fill under the read lock: a change waits for the fill, then
        // empties the slot. A fill after dropping the lock could keep an
        // answer a change has revoked. An id too large to shift is never
        // cached.
        if let Some(p) = prot.filter(|_| region.0 <= u64::MAX >> 2) {
            let code = 1 + p.allows_write() as u64;
            slot.store(region.0 << 2 | code, Ordering::Release);
        }
        prot
    }

    /// Number of regions mapped.
    pub fn mapped_count(&self) -> usize {
        self.maps.read().len()
    }

    /// Checks that this context may access `region` with the requested
    /// intent.
    ///
    /// `kernel_mode` accesses always succeed: the kernel is mapped into
    /// every context and performs its own explicit validations.
    pub fn check(&self, region: RegionId, write: bool, kernel_mode: bool) -> Result<(), MemFault> {
        if kernel_mode {
            return Ok(());
        }
        match self.protection(region) {
            Some(p) if !write || p.allows_write() => Ok(()),
            Some(_) => Err(MemFault::ProtectionViolation {
                ctx: self.id,
                region,
                write,
            }),
            None => Err(MemFault::NotMapped {
                ctx: self.id,
                region,
            }),
        }
    }
}

impl fmt::Debug for VmContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmContext")
            .field("id", &self.id)
            .field("mapped", &self.mapped_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> VmContext {
        VmContext::new(ContextId(7))
    }

    #[test]
    fn unmapped_region_faults() {
        let c = ctx();
        let err = c.check(RegionId(3), false, false).unwrap_err();
        assert!(matches!(err, MemFault::NotMapped { .. }));
    }

    #[test]
    fn read_only_mapping_rejects_writes() {
        let c = ctx();
        c.map(RegionId(3), Protection::Read);
        assert!(c.check(RegionId(3), false, false).is_ok());
        let err = c.check(RegionId(3), true, false).unwrap_err();
        assert!(matches!(
            err,
            MemFault::ProtectionViolation { write: true, .. }
        ));
    }

    #[test]
    fn read_write_mapping_allows_both() {
        let c = ctx();
        c.map(RegionId(3), Protection::ReadWrite);
        assert!(c.check(RegionId(3), false, false).is_ok());
        assert!(c.check(RegionId(3), true, false).is_ok());
    }

    #[test]
    fn kernel_mode_bypasses_protection() {
        let c = ctx();
        assert!(c.check(RegionId(99), true, true).is_ok());
    }

    #[test]
    fn unmap_revokes_access() {
        let c = ctx();
        c.map(RegionId(3), Protection::ReadWrite);
        c.unmap(RegionId(3));
        assert!(c.check(RegionId(3), false, false).is_err());
        c.map(RegionId(4), Protection::Read);
        c.map(RegionId(5), Protection::Read);
        c.unmap_all();
        assert_eq!(c.mapped_count(), 0);
    }

    fn not_mapped(c: &VmContext, region: u64) -> bool {
        let err = c.check(RegionId(region), false, false);
        matches!(err, Err(MemFault::NotMapped { .. }))
    }

    #[test]
    fn unmap_empties_a_warm_cache() {
        let c = ctx();
        c.map(RegionId(3), Protection::ReadWrite);
        assert!(c.check(RegionId(3), true, false).is_ok());
        c.unmap(RegionId(3));
        assert!(not_mapped(&c, 3));
    }

    #[test]
    fn a_read_only_remap_revokes_a_cached_write() {
        let c = ctx();
        c.map(RegionId(3), Protection::ReadWrite);
        assert!(c.check(RegionId(3), true, false).is_ok());
        c.map(RegionId(3), Protection::Read);
        let err = c.check(RegionId(3), true, false).unwrap_err();
        assert!(matches!(
            err,
            MemFault::ProtectionViolation { write: true, .. }
        ));
        assert!(c.check(RegionId(3), false, false).is_ok());
    }

    #[test]
    fn unmap_all_empties_a_warm_cache() {
        let c = ctx();
        for r in 1..=CACHE_SLOTS as u64 {
            c.map(RegionId(r), Protection::Read);
            assert!(c.check(RegionId(r), false, false).is_ok());
        }
        c.unmap_all();
        assert!((1..=CACHE_SLOTS as u64).all(|r| not_mapped(&c, r)));
    }

    #[test]
    fn regions_sharing_a_slot_do_not_cross_talk() {
        let (a, b) = (RegionId(3), RegionId(3 + CACHE_SLOTS as u64));
        let c = ctx();
        c.map(a, Protection::ReadWrite);
        c.map(b, Protection::Read);
        for _ in 0..4 {
            assert!(c.check(a, true, false).is_ok());
            assert!(c.check(b, true, false).is_err());
            assert!(c.check(b, false, false).is_ok());
        }
        c.unmap(b);
        assert!(c.check(a, true, false).is_ok());
        assert!(not_mapped(&c, b.0));
    }

    #[test]
    fn ids_too_large_to_cache_are_checked_in_the_table() {
        let big = RegionId((1 << 62) + 3);
        let c = ctx();
        c.map(big, Protection::Read);
        for _ in 0..2 {
            assert!(c.check(big, false, false).is_ok());
            assert!(c.check(big, true, false).is_err());
            assert!(not_mapped(&c, 3), "no answer for the id's low bits");
        }
    }

    #[test]
    fn an_unmap_seen_on_another_thread_is_never_answered_stale() {
        use std::sync::mpsc::channel;
        use std::sync::Arc;

        let c = Arc::new(ctx());
        let (warmed_tx, warmed_rx) = channel::<u64>();
        let (unmapped_tx, unmapped_rx) = channel::<u64>();
        let unmapper = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for region in warmed_rx {
                    c.unmap(RegionId(region));
                    unmapped_tx.send(region).unwrap();
                }
            })
        };
        for round in 0..1_000u64 {
            let region = 1 + round % (2 * CACHE_SLOTS as u64);
            c.map(RegionId(region), Protection::ReadWrite);
            assert!(c.check(RegionId(region), true, false).is_ok());
            warmed_tx.send(region).unwrap();
            assert_eq!(unmapped_rx.recv().unwrap(), region);
            assert!(not_mapped(&c, region), "round {round}: a stale answer");
        }
        drop(warmed_tx);
        unmapper.join().unwrap();
    }
}
