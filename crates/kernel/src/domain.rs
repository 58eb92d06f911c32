//! Protection domains.
//!
//! A domain is the unit of protection: it owns a virtual-memory context and
//! the resources the kernel will reclaim when it terminates ("When a domain
//! terminates, all resources in its possession (virtual address space, open
//! file descriptors, threads, etc.) are reclaimed by the operating
//! system", Section 5.3).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use firefly::mem::RegionId;
use firefly::vm::VmContext;
use parking_lot::Mutex;

use crate::ids::DomainId;

/// Lifecycle state of a domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainState {
    /// Accepting calls.
    Active,
    /// Termination has begun; new in/out-calls are refused while the
    /// collector runs.
    Terminating,
    /// Fully reclaimed.
    Dead,
}

impl DomainState {
    fn from_u8(v: u8) -> DomainState {
        match v {
            0 => DomainState::Active,
            1 => DomainState::Terminating,
            _ => DomainState::Dead,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            DomainState::Active => 0,
            DomainState::Terminating => 1,
            DomainState::Dead => 2,
        }
    }
}

/// One protection domain.
pub struct Domain {
    id: DomainId,
    name: String,
    ctx: Arc<VmContext>,
    state: AtomicU8,
    /// Regions allocated on behalf of this domain (reclaimed at
    /// termination).
    owned_regions: Mutex<Vec<RegionId>>,
    /// Times a processor idling in this domain's context was wanted by a
    /// call but not found; the scheduler uses this to decide where idle
    /// processors should spin (Section 3.4).
    idle_misses: AtomicU64,
}

impl Domain {
    /// Creates an active domain around a fresh VM context. Used by the
    /// kernel; library users call `Kernel::create_domain`.
    pub fn new(id: DomainId, name: impl Into<String>, ctx: Arc<VmContext>) -> Domain {
        Domain {
            id,
            name: name.into(),
            ctx,
            state: AtomicU8::new(DomainState::Active.as_u8()),
            owned_regions: Mutex::new(Vec::new()),
            idle_misses: AtomicU64::new(0),
        }
    }

    /// The domain's id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's VM context.
    pub fn ctx(&self) -> &Arc<VmContext> {
        &self.ctx
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DomainState {
        DomainState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// True if the domain accepts calls.
    pub fn is_active(&self) -> bool {
        self.state() == DomainState::Active
    }

    /// Moves the domain to a new lifecycle state.
    pub fn set_state(&self, s: DomainState) {
        self.state.store(s.as_u8(), Ordering::Release);
    }

    /// Records that `region` belongs to this domain's resources.
    pub fn own_region(&self, region: RegionId) {
        self.owned_regions.lock().push(region);
    }

    /// Takes the list of owned regions (used by the termination collector).
    pub fn take_owned_regions(&self) -> Vec<RegionId> {
        std::mem::take(&mut *self.owned_regions.lock())
    }

    /// Snapshot of the owned-region list.
    pub fn owned_regions(&self) -> Vec<RegionId> {
        self.owned_regions.lock().clone()
    }

    /// Notes that a call wanted an idle processor in this domain but found
    /// none.
    pub fn note_idle_miss(&self) {
        self.idle_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Missed idle-processor opportunities so far.
    pub fn idle_misses(&self) -> u64 {
        self.idle_misses.load(Ordering::Relaxed)
    }

    /// Clears the miss counter (the scheduler does this after acting on
    /// it).
    pub fn reset_idle_misses(&self) {
        self.idle_misses.store(0, Ordering::Relaxed);
    }
}

impl core::fmt::Debug for Domain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Domain")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::vm::ContextId;

    fn domain() -> Domain {
        Domain::new(DomainId(1), "test", Arc::new(VmContext::new(ContextId(1))))
    }

    #[test]
    fn starts_active_and_transitions() {
        let d = domain();
        assert!(d.is_active());
        d.set_state(DomainState::Terminating);
        assert_eq!(d.state(), DomainState::Terminating);
        assert!(!d.is_active());
        d.set_state(DomainState::Dead);
        assert_eq!(d.state(), DomainState::Dead);
    }

    #[test]
    fn owned_regions_are_taken_once() {
        let d = domain();
        d.own_region(RegionId(10));
        d.own_region(RegionId(11));
        assert_eq!(d.take_owned_regions().len(), 2);
        assert!(d.take_owned_regions().is_empty());
    }

    #[test]
    fn idle_counters() {
        let d = domain();
        d.note_idle_miss();
        d.note_idle_miss();
        assert_eq!(d.idle_misses(), 2);
        d.reset_idle_misses();
        assert_eq!(d.idle_misses(), 0);
    }
}
