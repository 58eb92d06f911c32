//! Simulated physical memory.
//!
//! Memory is modeled as a set of named *regions* — contiguous byte ranges
//! allocated by the kernel and mapped into zero or more virtual-memory
//! contexts (see [`crate::vm`]). The byte contents are real (`Vec<u8>`
//! behind a lock), so data transfer through A-stacks and message buffers is
//! functional, not just accounted for.
//!
//! Pages are 512 bytes, matching the VAX architecture of the C-VAX Firefly;
//! page identities feed the per-CPU TLB model.

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::MemFault;

/// The VAX page size in bytes.
pub const PAGE_SIZE: usize = 512;

/// Identifier of a physical memory region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// Identity of one page of one region, as seen by the TLB: the region id
/// above the low 32 bits, the page's number within the region in them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageId(pub u64);

/// Bits of a [`PageId`] that number the page within its region: 2^32
/// pages of 512 bytes, 2 TiB, so no region a machine can hold has a page
/// that reads as another region's.
const PAGE_BITS: u32 = 32;

impl PageId {
    /// The page covering byte `offset` of region `region`.
    pub fn of(region: RegionId, offset: usize) -> PageId {
        PageId(region.0 << PAGE_BITS | (offset / PAGE_SIZE) as u64)
    }

    /// The region the page belongs to.
    pub(crate) fn region(self) -> RegionId {
        RegionId(self.0 >> PAGE_BITS)
    }

    /// The page's number within its region.
    pub(crate) fn index(self) -> u64 {
        self.0 & ((1 << PAGE_BITS) - 1)
    }

    /// True if `self` is the page right after `prev` in the same region.
    pub(crate) fn follows(self, prev: PageId) -> bool {
        self.0 == prev.0.wrapping_add(1) && self.index() != 0
    }
}

/// A contiguous region of simulated physical memory.
pub struct Region {
    id: RegionId,
    label: String,
    len: usize,
    bytes: RwLock<Vec<u8>>,
}

impl Region {
    /// The region's identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The diagnostic label given at allocation time.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The region's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages spanned by the region.
    pub fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// The pages covering the byte range `offset..offset + len`.
    ///
    /// Returns an empty iterator for a zero-length range.
    pub fn pages_for(&self, offset: usize, len: usize) -> impl Iterator<Item = PageId> + '_ {
        let first = offset / PAGE_SIZE;
        let last = if len == 0 {
            first // Empty range: yield nothing via the range below.
        } else {
            (offset + len - 1) / PAGE_SIZE + 1
        };
        let id = self.id;
        (first..last).map(move |p| PageId(id.0 << PAGE_BITS | p as u64))
    }

    /// The end of the byte range `offset..offset + len`, or
    /// [`MemFault::OutOfRange`] if the range does not lie in the region.
    fn range_end(&self, offset: usize, len: usize) -> Result<usize, MemFault> {
        offset
            .checked_add(len)
            .filter(|&end| end <= self.len)
            .ok_or(MemFault::OutOfRange {
                region: self.id,
                offset,
                len,
            })
    }

    /// Lends the bytes `offset..offset + len` to `f` under the read lock,
    /// so a reader can decode them in place, or fails with
    /// [`MemFault::OutOfRange`] before `f` runs. No protection check: that
    /// belongs to [`crate::vm::VmContext`], which knows the accessor.
    pub fn read_with<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemFault> {
        let end = self.range_end(offset, len)?;
        Ok(f(&self.bytes.read()[offset..end]))
    }

    /// [`Region::read_with`] under the write lock, so a writer can encode
    /// into the bytes in place.
    pub fn write_with<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemFault> {
        let end = self.range_end(offset, len)?;
        Ok(f(&mut self.bytes.write()[offset..end]))
    }

    /// Copies `data` into the region at `offset`.
    pub fn write_raw(&self, offset: usize, data: &[u8]) -> Result<(), MemFault> {
        self.write_with(offset, data.len(), |bytes| bytes.copy_from_slice(data))
    }

    /// Copies `buf.len()` bytes out of the region at `offset` into `buf`.
    pub fn read_raw(&self, offset: usize, buf: &mut [u8]) -> Result<(), MemFault> {
        self.read_with(offset, buf.len(), |bytes| buf.copy_from_slice(bytes))
    }

    /// Reads `len` bytes at `offset` into a fresh vector. The range is
    /// checked before anything is allocated, so a length read from shared
    /// memory cannot make the reader allocate more than the region holds.
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>, MemFault> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Fills the whole region with `byte`.
    pub fn fill(&self, byte: u8) {
        self.bytes.write().fill(byte);
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("len", &self.len)
            .finish()
    }
}

/// The machine's physical memory: an allocator and table of regions.
///
/// The region table is a process-global lock, so its acquisitions are
/// reported to [`crate::meter::note_global_lock`]. None of them are on the
/// LRPC fast path: calls address their A-stack and E-stack through `Arc`s
/// captured at bind/associate time. Per-region byte locks in [`Region`]
/// are per-object and uncounted.
pub struct PhysMem {
    next_id: AtomicU64,
    regions: Mutex<Vec<Arc<Region>>>,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            next_id: AtomicU64::new(1),
            regions: Mutex::new(Vec::new()),
        }
    }

    /// Allocates a zero-filled region of `len` bytes.
    pub fn alloc(&self, label: impl Into<String>, len: usize) -> Arc<Region> {
        let id = RegionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let region = Arc::new(Region {
            id,
            label: label.into(),
            len,
            bytes: RwLock::new(vec![0u8; len]),
        });
        crate::meter::note_global_lock();
        self.regions.lock().push(Arc::clone(&region));
        region
    }

    /// Looks up a region by id.
    pub fn get(&self, id: RegionId) -> Option<Arc<Region>> {
        crate::meter::note_global_lock();
        self.regions.lock().iter().find(|r| r.id == id).cloned()
    }

    /// Releases a region from the table (outstanding `Arc`s keep the bytes
    /// alive; the region simply stops being addressable).
    pub fn free(&self, id: RegionId) {
        crate::meter::note_global_lock();
        self.regions.lock().retain(|r| r.id != id);
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        crate::meter::note_global_lock();
        self.regions.lock().iter().map(|r| r.len).sum()
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        crate::meter::note_global_lock();
        self.regions.lock().len()
    }
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mem = PhysMem::new();
        let r = mem.alloc("astack", 1024);
        r.write_raw(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(r.read_vec(100, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(r.read_vec(99, 1).unwrap(), vec![0]);
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let mem = PhysMem::new();
        let r = mem.alloc("small", 8);
        assert!(matches!(
            r.write_raw(6, &[0; 4]),
            Err(MemFault::OutOfRange { .. })
        ));
        assert!(matches!(
            r.read_raw(8, &mut [0; 1]),
            Err(MemFault::OutOfRange { .. })
        ));
        // Boundary case: a write ending exactly at the region end is fine.
        assert!(r.write_raw(4, &[9; 4]).is_ok());
        // Offset overflow must not panic.
        assert!(r.write_raw(usize::MAX, &[1]).is_err());
    }

    #[test]
    fn huge_read_vec_faults_without_allocating() {
        // The length may come from client-writable shared memory: it
        // must be range-checked before a buffer of that size exists.
        let mem = PhysMem::new();
        let r = mem.alloc("page", 4096);
        assert!(matches!(
            r.read_vec(64, 1 << 40),
            Err(MemFault::OutOfRange {
                offset: 64,
                len: 0x100_0000_0000,
                ..
            })
        ));
        assert!(r.read_vec(usize::MAX, 2).is_err());
        assert_eq!(r.read_vec(4090, 6).unwrap(), vec![0; 6]);
    }

    #[test]
    fn lent_ranges_are_checked_before_the_closure_runs() {
        let mem = PhysMem::new();
        let r = mem.alloc("lend", 16);
        let n = r
            .write_with(4, 8, |b| {
                b.copy_from_slice(&[7; 8]);
                b.len()
            })
            .unwrap();
        assert_eq!(n, 8);
        assert_eq!(
            r.read_with(3, 10, |b| b.to_vec()).unwrap()[..6],
            [0, 7, 7, 7, 7, 7]
        );
        let mut ran = false;
        assert!(matches!(
            r.write_with(12, 8, |_| ran = true),
            Err(MemFault::OutOfRange {
                offset: 12,
                len: 8,
                ..
            })
        ));
        assert!(r.read_with(usize::MAX, 1, |_| ran = true).is_err());
        assert!(!ran, "an out-of-range lend never reaches the closure");
    }

    #[test]
    fn page_count_and_page_ids() {
        let mem = PhysMem::new();
        let r = mem.alloc("pages", PAGE_SIZE * 2 + 1);
        assert_eq!(r.page_count(), 3);
        let pages: Vec<_> = r.pages_for(0, PAGE_SIZE + 1).collect();
        assert_eq!(pages.len(), 2);
        let pages: Vec<_> = r.pages_for(PAGE_SIZE - 1, 2).collect();
        assert_eq!(pages.len(), 2);
        let pages: Vec<_> = r.pages_for(10, 0).collect();
        assert!(pages.is_empty());
    }

    #[test]
    fn page_ids_distinct_across_regions() {
        let mem = PhysMem::new();
        let a = mem.alloc("a", PAGE_SIZE);
        let b = mem.alloc("b", PAGE_SIZE);
        assert_ne!(PageId::of(a.id(), 0), PageId::of(b.id(), 0));
    }

    #[test]
    fn page_ids_of_adjacent_regions_do_not_alias() {
        // With a 20-bit page field, page 2^20 of a region (byte 512 MiB)
        // read as page 0 of the next region. `pages_for` does not
        // range-check its offset, so two one-page regions show it.
        let far = 512 << 20;
        assert_ne!(PageId::of(RegionId(1), far), PageId::of(RegionId(2), 0));
        let mem = PhysMem::new();
        let a = mem.alloc("a", PAGE_SIZE);
        let b = mem.alloc("b", PAGE_SIZE);
        assert_eq!(b.id(), RegionId(a.id().0 + 1));
        let far_page = a.pages_for(far, 1).next().unwrap();
        assert_ne!(far_page, b.pages_for(0, 1).next().unwrap());
        assert_eq!(far_page, PageId::of(a.id(), far));
        assert_eq!((far_page.region(), far_page.index()), (a.id(), 1 << 20));
    }

    #[test]
    fn a_page_follows_its_predecessor_in_its_region_only() {
        let p = |r, page: u64| PageId::of(RegionId(r), page as usize * PAGE_SIZE);
        assert!(p(3, 8).follows(p(3, 7)));
        assert!(!p(3, 7).follows(p(3, 7)));
        assert!(!p(3, 9).follows(p(3, 7)));
        assert!(
            !p(4, 0).follows(PageId(p(4, 0).0 - 1)),
            "last page of region 3"
        );
    }

    #[test]
    fn free_removes_from_table() {
        let mem = PhysMem::new();
        let r = mem.alloc("gone", 64);
        assert!(mem.get(r.id()).is_some());
        mem.free(r.id());
        assert!(mem.get(r.id()).is_none());
        assert_eq!(mem.region_count(), 0);
    }
}
