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
//! Replacement is FIFO: a miss installs its `(context, page)` entry and,
//! when `capacity` entries are resident, evicts the oldest; hits do not
//! reorder; an invalidation drops everything. The model keeps no FIFO.
//! Misses are numbered 1, 2, 3, … and each page keeps the number of its
//! latest miss (its *stamp*; 0 if it never missed). An entry is resident
//! iff its stamp is above the *floor*: the larger of the miss count at
//! the last invalidation and the miss count less `capacity`. That is the
//! FIFO set exactly. Since the last invalidation the FIFO has taken in
//! every missed entry, in miss order, and dropped the oldest beyond
//! `capacity`, so it holds the entries of the last `min(capacity, misses
//! since)` misses. Those entries are distinct, because a resident entry
//! cannot miss, so an entry is among them iff its latest miss is, which
//! is the stamp rule.
//!
//! So an invalidation is one store, an eviction is the floor moving up by
//! one, and there is no ring of entries, no index over them and no victim
//! to find. Stamps sit in one table per `(context, region)`, indexed by
//! page and covering the pages touched so far (8 bytes a page), found
//! through a hash map keyed by the pair with a direct-mapped hint in
//! front. A table none of whose stamps is among the last `capacity`
//! misses holds no resident page, whatever the invalidations, and never
//! will again, since the floor only rises. When the table list fills,
//! such tables are dropped and their storage is kept for new tables, so a
//! fresh region (a per-call segment) costs no allocation once the model
//! is warm. [`Tlb::touch_run`] references a *run*, pages `first, first +
//! 1, …` of one region, with one table lookup and then one stamp
//! comparison per page, re-deciding the floor after every miss, so a run
//! longer than the capacity evicts its own first pages exactly as
//! page-by-page touches do (the reference model in `tests/props.rs`
//! checks it step for step). [`crate::cpu::Cpu::touch_pages`] splits any
//! page sequence into runs.

use crate::idhash::IdMap;
use crate::mem::{PageId, RegionId};
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

/// The stamps of one `(context, region)`: `stamps[i]` is the number of
/// the latest miss on page `base + i`, or anything at or below the floor
/// if the page is not resident. It spans the lowest to the highest page
/// touched, so a table costs 8 bytes for every 512 of the region between
/// them.
#[derive(Debug)]
struct Table {
    ctx: ContextId,
    region: RegionId,
    base: u64,
    stamps: Vec<u64>,
    /// The table's latest stamp.
    newest: u64,
}

impl Table {
    /// The stamps of pages `first..first + pages`, growing the table to
    /// cover them.
    fn window(&mut self, first: u64, pages: usize) -> &mut [u64] {
        if first < self.base {
            let grow = (self.base - first) as usize;
            self.stamps.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = first;
        }
        let start = (first - self.base) as usize;
        let end = start + pages;
        if end > self.stamps.len() {
            self.stamps.resize(end, 0);
        }
        &mut self.stamps[start..end]
    }
}

/// Slots of the table-position hints.
const HINTS: usize = 64;

/// The hint slot of `(ctx, region)`. Region and context ids come from
/// counters, so the few pairs a call touches, whose regions were
/// allocated together, get slots of their own.
fn hint_slot(ctx: ContextId, region: RegionId) -> usize {
    (region.0.wrapping_mul(4).wrapping_add(ctx.0) % HINTS as u64) as usize
}

/// One CPU's TLB.
#[derive(Debug)]
pub struct Tlb {
    mode: TlbMode,
    capacity: u64,
    /// The stamp tables, and where each `(context, region)`'s sits.
    tables: Vec<Table>,
    index: IdMap<(ContextId, RegionId), usize>,
    /// Recent answers of `index`, direct-mapped by `hint_slot`: a table
    /// position to try first. Each is checked against the table's key, so
    /// one left stale by a sweep only sends the lookup on to `index`.
    hints: [usize; HINTS],
    /// The stamps of dropped tables, for new tables to take over.
    spare: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// The miss count at the last invalidation.
    flushed_at: u64,
}

impl Tlb {
    /// Creates a TLB with the given entry capacity.
    ///
    /// The C-VAX translation buffer holds a few hundred entries; 256 is
    /// used as the default via [`Tlb::cvax`].
    pub fn new(mode: TlbMode, capacity: usize) -> Tlb {
        Tlb {
            mode,
            capacity: capacity.max(1) as u64,
            tables: Vec::new(),
            index: IdMap::default(),
            hints: [usize::MAX; HINTS],
            spare: Vec::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
            flushed_at: 0,
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
        self.touch_run(ctx, page, 1) == 1
    }

    /// References `pages` consecutive pages of one region in `ctx`, from
    /// `first` up, in order; returns the number of misses (each installs
    /// its entry, evicting as it goes).
    pub fn touch_run(&mut self, ctx: ContextId, first: PageId, pages: usize) -> u64 {
        if pages == 0 {
            return 0;
        }
        let (capacity, flushed_at, before) = (self.capacity, self.flushed_at, self.misses);
        let table = self.table(ctx, first.region(), first.index());
        let mut misses = before;
        let mut floor = flushed_at.max(misses.saturating_sub(capacity));
        for stamp in table.window(first.index(), pages) {
            if *stamp <= floor {
                misses += 1;
                *stamp = misses;
                floor = flushed_at.max(misses.saturating_sub(capacity));
            }
        }
        let missed = misses - before;
        if missed > 0 {
            table.newest = misses;
        }
        self.misses = misses;
        self.hits += pages as u64 - missed;
        missed
    }

    /// Counts `n` hits on a page just touched (a page repeated right after
    /// itself, which is resident whatever came before).
    pub(crate) fn repeat_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// The table of `(ctx, region)`, a new one based at page `first` if
    /// it has none.
    fn table(&mut self, ctx: ContextId, region: RegionId, first: u64) -> &mut Table {
        let slot = hint_slot(ctx, region);
        let hint = self.hints[slot];
        if self
            .tables
            .get(hint)
            .is_some_and(|t| t.ctx == ctx && t.region == region)
        {
            return &mut self.tables[hint];
        }
        let i = match self.index.get(&(ctx, region)) {
            Some(&i) => i,
            None => self.new_table(ctx, region, first),
        };
        self.hints[slot] = i;
        &mut self.tables[i]
    }

    fn new_table(&mut self, ctx: ContextId, region: RegionId, first: u64) -> usize {
        if self.tables.len() == self.tables.capacity() {
            self.drop_stale();
        }
        // A dropped table's stamps are all at or below the floor for good,
        // so they read as not resident wherever they now stand.
        let stamps = self.spare.pop().unwrap_or_default();
        self.tables.push(Table {
            ctx,
            region,
            base: first,
            stamps,
            newest: 0,
        });
        self.index.insert((ctx, region), self.tables.len() - 1);
        self.tables.len() - 1
    }

    /// Drops every table none of whose stamps is among the last
    /// `capacity` misses, keeping its stamps for new tables. Called only
    /// when the table list is full, so the list doubles at most once per
    /// sweep that frees too little, and the sweeps cost O(1) a table.
    fn drop_stale(&mut self) {
        let stale = self.misses.saturating_sub(self.capacity);
        let spare = &mut self.spare;
        self.tables.retain_mut(|t| {
            let live = t.newest > stale;
            if !live {
                spare.push(std::mem::take(&mut t.stamps));
            }
            live
        });
        self.index.clear();
        for (i, t) in self.tables.iter().enumerate() {
            self.index.insert((t.ctx, t.region), i);
        }
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
        self.flushed_at = self.misses;
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
        (self.misses - self.flushed_at).min(self.capacity) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn a_run_evicts_its_own_first_pages() {
        // Pages 0 and 1 are resident; the run 2, 3, 0, 1 misses on 2 and
        // 3, which evict 0 and 1 before the run reaches them.
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 2);
        assert_eq!(tlb.touch_run(CTX, page(0), 2), 2);
        assert_eq!(tlb.touch_run(CTX, page(2), 2), 2);
        assert_eq!(tlb.touch_run(CTX, page(0), 2), 2);
        assert_eq!(tlb.touch_run(CTX, page(0), 2), 0);
        assert_eq!((tlb.hits(), tlb.misses()), (2, 6));
    }

    #[test]
    fn stale_tables_are_swept_when_the_table_list_fills() {
        // Each region misses once, on its page 0, until adding a table
        // sweeps the list: only the regions among the last 4 misses, and
        // the new one, keep a table.
        let mut tlb = Tlb::new(TlbMode::Tagged, 4);
        let page0 = |r: u64| PageId::of(RegionId(r), 0);
        let mut r = 0;
        loop {
            r += 1;
            let before = tlb.tables.len();
            assert!(tlb.touch(CTX, page0(r)));
            if tlb.tables.len() <= before {
                break;
            }
        }
        let mut kept: Vec<u64> = tlb.tables.iter().map(|t| t.region.0).collect();
        kept.sort_unstable();
        assert_eq!(kept, (r - 4..=r).collect::<Vec<_>>());
        assert!(!tlb.touch(CTX, page0(r - 1)), "a kept table still hits");
        assert!(tlb.touch(CTX, page0(1)), "a swept one's page is gone");
        assert_eq!(tlb.resident_count(), 4);
    }
}
