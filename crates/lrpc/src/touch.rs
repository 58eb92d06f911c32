//! TLB touch plans.
//!
//! The paper estimates "that 43 TLB misses occur during the Null call" and
//! notes that "the data structures and control sequences of LRPC were
//! designed to minimize TLB misses". To make the miss count *emerge* from
//! simulation rather than be asserted, each binding carries a touch plan:
//! the pages the call path's code and data structures occupy, grouped by
//! the phase (and therefore VM context) in which they are referenced. The
//! per-CPU TLB model does the rest — on an invalidate-on-switch machine the
//! working set re-misses after each of the two context switches.
//!
//! Page budget for the serial Null call (steady state, two invalidations
//! per call):
//!
//! | set            | pages | missed per call |
//! |----------------|-------|-----------------|
//! | client call    | 8     | 8  |
//! | kernel call    | 9     | 9  |
//! | server side    | 12    | 12 |
//! | kernel return  | 7     | 7  |
//! | client return  | 5     | 5  |
//! | A-stack page   | 1     | 2 (touched on both sides) |
//!
//! Total: 43.

use std::sync::Arc;

use firefly::mem::{PageId, Region, PAGE_SIZE};
use firefly::vm::Protection;
use kernel::kernel::Kernel;
use kernel::Domain;

/// Pages per touch set (see the module table): the client call set.
pub const CLIENT_CALL_PAGES: usize = 8;
const KERNEL_CALL_PAGES: usize = 9;
/// The server-side set.
pub const SERVER_SIDE_PAGES: usize = 12;
const KERNEL_RETURN_PAGES: usize = 7;
/// The client return set.
pub const CLIENT_RETURN_PAGES: usize = 5;

/// The per-binding working-set pages, grouped by call phase.
///
/// The page sets are precomputed once at allocation so the steady-state
/// call path borrows slices instead of rebuilding page vectors per call.
pub struct TouchPlan {
    /// Held so the regions stay allocated for the binding's lifetime.
    _client_rt: Arc<Region>,
    _kernel_rt: Arc<Region>,
    _server_rt: Arc<Region>,
    client_call: Vec<PageId>,
    kernel_call: Vec<PageId>,
    server_side: Vec<PageId>,
    kernel_return: Vec<PageId>,
    client_return: Vec<PageId>,
}

impl TouchPlan {
    /// Allocates the runtime working-set regions for a binding: client-side
    /// stub/queue/binding pages, kernel transfer-path pages, and
    /// server-side stub/PD/E-stack pages.
    pub fn allocate(kernel: &Kernel, client: &Domain, server: &Domain) -> TouchPlan {
        let client_rt = kernel.alloc_mapped(
            client,
            "lrpc-client-rt",
            (CLIENT_CALL_PAGES + CLIENT_RETURN_PAGES) * PAGE_SIZE,
            Protection::ReadWrite,
        );
        // Kernel data structures are not mapped into either domain.
        let kernel_rt = kernel.machine().mem().alloc(
            "lrpc-kernel-rt",
            (KERNEL_CALL_PAGES + KERNEL_RETURN_PAGES) * PAGE_SIZE,
        );
        let server_rt = kernel.alloc_mapped(
            server,
            "lrpc-server-rt",
            SERVER_SIDE_PAGES * PAGE_SIZE,
            Protection::ReadWrite,
        );
        TouchPlan {
            client_call: Self::pages(&client_rt, 0, CLIENT_CALL_PAGES),
            client_return: Self::pages(&client_rt, CLIENT_CALL_PAGES, CLIENT_RETURN_PAGES),
            kernel_call: Self::pages(&kernel_rt, 0, KERNEL_CALL_PAGES),
            kernel_return: Self::pages(&kernel_rt, KERNEL_CALL_PAGES, KERNEL_RETURN_PAGES),
            server_side: Self::pages(&server_rt, 0, SERVER_SIDE_PAGES),
            _client_rt: client_rt,
            _kernel_rt: kernel_rt,
            _server_rt: server_rt,
        }
    }

    fn pages(region: &Region, first: usize, count: usize) -> Vec<PageId> {
        (first..first + count)
            .map(|p| PageId::of(region.id(), p * PAGE_SIZE))
            .collect()
    }

    /// Pages the client stub touches on the call path.
    pub fn client_call(&self) -> &[PageId] {
        &self.client_call
    }

    /// Pages the kernel touches on the call path.
    pub fn kernel_call(&self) -> &[PageId] {
        &self.kernel_call
    }

    /// Pages the server stub and procedure touch.
    pub fn server_side(&self) -> &[PageId] {
        &self.server_side
    }

    /// Pages the kernel touches on the return path.
    pub fn kernel_return(&self) -> &[PageId] {
        &self.kernel_return
    }

    /// Pages the client stub touches on the return path.
    pub fn client_return(&self) -> &[PageId] {
        &self.client_return
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly::cost::CostModel;
    use firefly::cpu::Machine;

    #[test]
    fn page_sets_sum_to_41_plus_astack() {
        let k = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
        let c = k.create_domain("c");
        let s = k.create_domain("s");
        let plan = TouchPlan::allocate(&k, &c, &s);
        let total = plan.client_call().len()
            + plan.kernel_call().len()
            + plan.server_side().len()
            + plan.kernel_return().len()
            + plan.client_return().len();
        // 41 plan pages + 2 A-stack misses = the paper's 43.
        assert_eq!(total, 41);
    }

    #[test]
    fn sets_are_disjoint() {
        let k = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
        let c = k.create_domain("c");
        let s = k.create_domain("s");
        let plan = TouchPlan::allocate(&k, &c, &s);
        let mut all: Vec<PageId> = Vec::new();
        all.extend(plan.client_call());
        all.extend(plan.kernel_call());
        all.extend(plan.server_side());
        all.extend(plan.kernel_return());
        all.extend(plan.client_return());
        let n = all.len();
        all.sort_by_key(|p| p.0);
        all.dedup();
        assert_eq!(all.len(), n, "touch sets must not share pages");
    }
}
