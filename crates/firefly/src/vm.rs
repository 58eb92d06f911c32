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

use parking_lot::RwLock;

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

/// The mapping table of one protection domain.
pub struct VmContext {
    id: ContextId,
    maps: RwLock<IdMap<RegionId, Protection>>,
}

impl VmContext {
    /// Creates an empty context with the given id.
    pub fn new(id: ContextId) -> VmContext {
        VmContext {
            id,
            maps: RwLock::new(IdMap::default()),
        }
    }

    /// The context's id.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// Maps (or remaps) a region with the given protection.
    pub fn map(&self, region: RegionId, prot: Protection) {
        self.maps.write().insert(region, prot);
    }

    /// Removes a region's mapping; subsequent accesses fault.
    pub fn unmap(&self, region: RegionId) {
        self.maps.write().remove(&region);
    }

    /// Removes every mapping (domain teardown).
    pub fn unmap_all(&self) {
        self.maps.write().clear();
    }

    /// The protection with which `region` is mapped, if at all.
    pub fn protection(&self, region: RegionId) -> Option<Protection> {
        self.maps.read().get(&region).copied()
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
}
