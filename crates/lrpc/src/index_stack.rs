//! The lock-free index free list behind the A-stack queues
//! ([`crate::astack`]) and the bulk-arena chunks ([`crate::bulk`]).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A lock-free Treiber LIFO over a fixed range of indices.
///
/// `head` packs an ABA-prevention version in the upper 32 bits and the
/// index's position in the range plus one in the lower 32 (0 = empty).
/// Successor links live in `links`, one per index of the range. The
/// version is bumped on every successful CAS, so a head re-pointing at a
/// node that was popped and re-pushed in between (the ABA scenario) cannot
/// be mistaken for an unchanged head.
///
/// All operations are SeqCst: the A-stack empty-queue wait protocol relies
/// on a single total order between stack pushes/pops and its waiter
/// counter.
pub(crate) struct IndexStack {
    base: usize,
    head: AtomicU64,
    links: Box<[AtomicU64]>,
    free_len: AtomicUsize,
}

const EMPTY: u64 = 0;
const LOW_MASK: u64 = 0xFFFF_FFFF;

fn pack(version: u64, node: u64) -> u64 {
    (version << 32) | node
}

impl IndexStack {
    /// A stack holding every index of `range`, seeded highest-first so the
    /// first pop returns `range.start`.
    pub(crate) fn full(range: Range<usize>) -> IndexStack {
        assert!(
            range.len() < LOW_MASK as usize,
            "indices must fit the packed head"
        );
        let stack = IndexStack {
            base: range.start,
            head: AtomicU64::new(EMPTY),
            links: range.clone().map(|_| AtomicU64::new(EMPTY)).collect(),
            free_len: AtomicUsize::new(0),
        };
        for i in range.rev() {
            stack.push(i);
        }
        stack
    }

    /// Pushes `index`, which must lie in the stack's range and not be on
    /// the stack already.
    pub(crate) fn push(&self, index: usize) {
        let pos = index - self.base;
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            self.links[pos].store(head & LOW_MASK, Ordering::SeqCst);
            let next = pack((head >> 32) + 1, pos as u64 + 1);
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.free_len.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                Err(cur) => head = cur,
            }
        }
    }

    /// Pops the most recently pushed index, or `None` when empty.
    pub(crate) fn pop(&self) -> Option<usize> {
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            let node = head & LOW_MASK;
            if node == EMPTY {
                return None;
            }
            let pos = (node - 1) as usize;
            let succ = self.links[pos].load(Ordering::SeqCst) & LOW_MASK;
            let next = pack((head >> 32) + 1, succ);
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.free_len.fetch_sub(1, Ordering::SeqCst);
                    return Some(self.base + pos);
                }
                Err(cur) => head = cur,
            }
        }
    }

    /// Indices currently on the stack.
    pub(crate) fn len(&self) -> usize {
        self.free_len.load(Ordering::SeqCst)
    }
}
