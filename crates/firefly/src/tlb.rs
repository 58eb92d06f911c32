//! Per-processor translation lookaside buffer model.
//!
//! The C-VAX requires a full TLB invalidation on every context switch; each
//! subsequent miss adds about 0.9 µs to a memory reference, and the paper
//! estimates 43 misses during a Null LRPC — roughly 25 % of its 157 µs.
//!
//! The model tracks which pages are resident per CPU so the miss count
//! *emerges* from the pages the call path actually touches. Miss counts are
//! reported through the [`crate::meter::Meter`]; the charged per-phase cost
//! constants in [`crate::cost::CostModel`] are calibrated *inclusive* of
//! miss time (that is how the paper measured them), so misses are not
//! double-charged. The tagged-TLB ablation (Section 3.4: "The high cost of
//! frequent domain crossing can also be reduced by using a TLB that
//! includes a process tag") uses the difference in emergent miss counts to
//! credit back the avoided refill time.
//!
//! Every page touch of every simulated call goes through [`Tlb::touch`],
//! so the model is laid out for host speed. Resident `(context, page)`
//! entries sit in a FIFO ring of `capacity` slots; the oldest is the next
//! victim. A small open-addressed index over the ring (a multiplicative
//! hash of the two ids, linear probing, at most half full) answers "is
//! this entry resident?". Evicting deletes the victim's index slot by
//! backward shift, so no tombstones build up. An invalidation empties the
//! ring and clears the whole index (2 KB at capacity 256) unless nothing
//! is resident. Residency is exactly that of a FIFO set: an entry is
//! resident from its miss until `capacity` later misses evict it or an
//! invalidation drops it, and hits do not reorder. So the misses, and
//! everything charged from them, are the same as those of a `HashSet`
//! plus `VecDeque` model (the reference model in `tests/props.rs`). The
//! ids are generated by the simulator, never read from outside input, so
//! the index hashes with [`crate::idhash`]'s multiplicative mix.

use crate::idhash::mix;
use crate::mem::PageId;
use crate::vm::ContextId;

/// Replacement/invalidation behaviour of the TLB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbMode {
    /// Untagged entries; a context switch invalidates everything (C-VAX).
    InvalidateOnSwitch,
    /// Entries carry a context tag and survive switches (the ablation of
    /// Section 3.4).
    Tagged,
}

/// One resident translation: the context it was made in and its page.
type Entry = (ContextId, PageId);

/// An index slot that refers to no ring position.
const EMPTY: u32 = u32::MAX;

/// One CPU's TLB.
#[derive(Debug)]
pub struct Tlb {
    mode: TlbMode,
    /// Resident entries, `ring[..len]`. Until the ring fills they sit in
    /// miss order; once it is full, `ring[head]` is the oldest and the
    /// next victim. In untagged mode every entry's context is the
    /// currently loaded one.
    ring: Box<[Entry]>,
    head: usize,
    len: usize,
    /// Open-addressed index: each slot holds the ring position of one
    /// resident entry, or [`EMPTY`]. Its length is a power of two of at
    /// least twice the capacity.
    index: Box<[u32]>,
    /// `64 - log2(index.len())`: the hash's top bits pick the home slot.
    shift: u32,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Creates a TLB with the given entry capacity.
    ///
    /// The C-VAX translation buffer holds a few hundred entries; 256 is
    /// used as the default via [`Tlb::cvax`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit a `u32` ring position.
    pub fn new(mode: TlbMode, capacity: usize) -> Tlb {
        let capacity = capacity.max(1);
        assert!(
            capacity < EMPTY as usize,
            "TLB capacity {capacity} too large"
        );
        let slots = (2 * capacity).next_power_of_two();
        Tlb {
            mode,
            ring: vec![(ContextId(0), PageId(0)); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            index: vec![EMPTY; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// A C-VAX-like TLB: 256 untagged entries, invalidated on switch.
    pub fn cvax() -> Tlb {
        Tlb::new(TlbMode::InvalidateOnSwitch, 256)
    }

    /// The TLB's mode.
    pub fn mode(&self) -> TlbMode {
        self.mode
    }

    /// References one page in `ctx`; returns `true` on a miss (and installs
    /// the entry).
    pub fn touch(&mut self, ctx: ContextId, page: PageId) -> bool {
        let key = (ctx, page);
        let mut slot = self.home(key);
        loop {
            match self.index[slot] {
                EMPTY => break,
                pos if self.ring[pos as usize] == key => {
                    self.hits += 1;
                    return false;
                }
                _ => slot = self.next(slot),
            }
        }
        self.misses += 1;
        let pos = if self.len < self.ring.len() {
            self.len += 1;
            self.len - 1
        } else {
            // Full: the oldest entry makes room, and its deletion may
            // have opened a slot earlier on `key`'s probe sequence.
            let pos = self.head;
            self.evict(pos);
            self.head = (pos + 1) % self.ring.len();
            slot = self.home(key);
            while self.index[slot] != EMPTY {
                slot = self.next(slot);
            }
            pos
        };
        self.ring[pos] = key;
        self.index[slot] = pos as u32;
        true
    }

    /// Notifies the TLB of a context switch. In untagged mode this
    /// invalidates every entry; in tagged mode it is free.
    pub fn on_context_switch(&mut self) {
        if self.mode == TlbMode::InvalidateOnSwitch {
            self.flush();
        }
    }

    /// Unconditionally flushes the TLB (e.g. after an unmap).
    pub fn flush(&mut self) {
        // With nothing resident the index is already clear; skipping the
        // fill keeps a switch free on a machine that never touches a page
        // (the message-passing baseline's).
        if self.len > 0 {
            self.index.fill(EMPTY);
        }
        self.head = 0;
        self.len = 0;
        self.invalidations += 1;
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of currently resident entries.
    pub fn resident_count(&self) -> usize {
        self.len
    }

    /// The index slot an entry's probe sequence starts at (Fibonacci
    /// hashing: multiply, keep the top bits).
    fn home(&self, (ctx, page): Entry) -> usize {
        (mix(mix(0, ctx.0), page.0) >> self.shift) as usize
    }

    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.index.len() - 1)
    }

    /// Deletes the index slot of the entry at ring position `pos`, shifting
    /// later members of its cluster back so every probe sequence stays
    /// unbroken.
    fn evict(&mut self, pos: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.ring[pos]);
        while self.index[hole] != pos as u32 {
            hole = self.next(hole);
        }
        let mut slot = self.next(hole);
        while self.index[slot] != EMPTY {
            let home = self.home(self.ring[self.index[slot] as usize]);
            // The entry may fill the hole only if its home is not in
            // (hole, slot]; otherwise the hole would cut it off.
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[slot];
                hole = slot;
            }
            slot = self.next(slot);
        }
        self.index[hole] = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegionId;

    fn page(n: u64) -> PageId {
        PageId::of(RegionId(1), n as usize * crate::mem::PAGE_SIZE)
    }

    const CTX: ContextId = ContextId(5);
    const OTHER: ContextId = ContextId(6);

    #[test]
    fn first_touch_misses_second_hits() {
        let mut tlb = Tlb::cvax();
        assert!(tlb.touch(CTX, page(0)));
        assert!(!tlb.touch(CTX, page(0)));
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn context_switch_invalidates_untagged() {
        let mut tlb = Tlb::cvax();
        tlb.touch(CTX, page(0));
        tlb.on_context_switch();
        assert_eq!(tlb.resident_count(), 0);
        assert!(
            tlb.touch(CTX, page(0)),
            "entry must be gone after invalidation"
        );
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn tagged_entries_survive_switches() {
        let mut tlb = Tlb::new(TlbMode::Tagged, 64);
        tlb.touch(CTX, page(0));
        tlb.on_context_switch();
        assert!(
            !tlb.touch(CTX, page(0)),
            "tagged entry must survive the switch"
        );
        // A different context still misses on the same page.
        assert!(tlb.touch(OTHER, page(0)));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 2);
        tlb.touch(CTX, page(0));
        tlb.touch(CTX, page(1));
        tlb.touch(CTX, page(2)); // Evicts page 0.
        assert!(tlb.touch(CTX, page(0)), "page 0 must have been evicted");
        assert!(!tlb.touch(CTX, page(2)));
    }
}
