//! Lock-free per-thread flight recorder.
//!
//! Each recording thread owns one bounded ring of span slots. A slot is a
//! tiny seqlock: a sequence word plus four data words (trace id, phase
//! code, virtual start, virtual duration). The owning thread is the only
//! writer; any thread may snapshot. The write protocol is
//!
//! 1. `seq <- seq + 1` (odd: slot is mid-update),
//! 2. store the four data words,
//! 3. `seq <- seq + 2` from the original value (even: slot is stable),
//!
//! all with sequentially-consistent atomics. A reader accepts a slot only
//! when it observes the *same even* sequence number before and after
//! reading the data words; because SeqCst stores from one thread appear to
//! every reader in program order, that condition guarantees the four words
//! belong to a single write — a span can never be read torn (the property
//! test in `tests/obs_props.rs` hammers exactly this).
//!
//! Cost contract on the recording path, per span: one `fetch_add` on the
//! ring head plus six plain atomic stores. No locks, no allocation, no
//! syscalls. The only lock in this module guards the process-wide ring
//! *registry*, taken once per thread on its first recorded span (and by
//! readers when snapshotting); it is counted via [`tally::note_global_lock`]
//! so `tests/lockfree.rs` can prove the steady state never touches it.
//!
//! When the ring wraps, the oldest spans are overwritten — a flight
//! recorder keeps the recent past, not the full history. Disabling the
//! recorder does not clear existing rings; consumers isolate their own
//! call by filtering on [`TraceId`], which is process-unique.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::tally;
use crate::trace::TraceId;

/// Default per-thread ring capacity, in spans. A Null LRPC emits ~10
/// spans, so the default keeps the last few hundred calls per thread.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed phase of one call, in virtual (simulated) time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The call this phase belongs to.
    pub trace: TraceId,
    /// Phase code; the layer that recorded it owns the meaning
    /// (`firefly::meter::Phase::code()` for simulator spans).
    pub phase: u16,
    /// Virtual time at which the phase began, nanoseconds.
    pub start_ns: u64,
    /// Phase duration, nanoseconds.
    pub dur_ns: u64,
}

const SPAN_WORDS: usize = 4;
/// How many times a reader re-checks a slot that keeps changing under it
/// before giving up on that slot. In practice a slot is rewritten at most
/// once per `capacity` pushes, so collisions are rare and transient.
const READ_RETRIES: usize = 8;

struct Slot {
    /// Even: stable (0 = never written). Odd: mid-update.
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A bounded, overwrite-oldest ring of span slots.
///
/// Single-writer / multi-reader: exactly one thread may call
/// [`FlightRing::push`] (in the recorder each thread owns its ring; the
/// thread-local accessor enforces this), while any number of threads may
/// call [`FlightRing::read_all`] concurrently.
pub struct FlightRing {
    slots: Box<[Slot]>,
    /// Total pushes ever; `head % capacity` is the next slot to write.
    head: AtomicU64,
    /// Head value at the start of the most recent [`FlightRing::read_all`]:
    /// pushes numbered below this were offered to a reader.
    read_mark: AtomicU64,
    /// Spans overwritten before any `read_all` offered them to a reader.
    dropped: AtomicU64,
}

impl FlightRing {
    /// Creates a ring holding up to `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(1);
        FlightRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            read_mark: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of spans the ring can hold before overwriting.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (including ones since overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Spans lost to overwrite before any reader saw them: push `n`
    /// reuses the slot of push `n - capacity`, and if no [`read_all`]
    /// had started after that older span was pushed, it was never
    /// readable — tail attribution uses this to report span *coverage*
    /// instead of silently sampling.
    ///
    /// [`read_all`]: FlightRing::read_all
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Records one span, overwriting the oldest if the ring is full.
    /// Writer-side of the seqlock; see the module docs for the protocol.
    #[inline]
    pub fn push(&self, span: SpanRecord) {
        let prev = self.head.fetch_add(1, Ordering::SeqCst);
        let idx = prev as usize % self.slots.len();
        if let Some(victim) = prev.checked_sub(self.slots.len() as u64) {
            // Overwriting push number `victim`; it was unread if no
            // read_all began after it landed.
            if victim >= self.read_mark.load(Ordering::SeqCst) {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let slot = &self.slots[idx];
        let seq = slot.seq.load(Ordering::SeqCst);
        slot.seq.store(seq + 1, Ordering::SeqCst); // odd: mid-update
        slot.words[0].store(span.trace.raw(), Ordering::SeqCst);
        slot.words[1].store(span.phase as u64, Ordering::SeqCst);
        slot.words[2].store(span.start_ns, Ordering::SeqCst);
        slot.words[3].store(span.dur_ns, Ordering::SeqCst);
        slot.seq.store(seq + 2, Ordering::SeqCst); // even: stable
    }

    /// Reads every stable span currently in the ring, in push order
    /// (oldest surviving span first). Slots that are mid-update after
    /// [`READ_RETRIES`] attempts are skipped rather than returned torn;
    /// never-written slots are skipped.
    ///
    /// Push order means starting the walk at `head % capacity` — the next
    /// slot to be overwritten, i.e. the oldest — not at slot 0: once the
    /// ring wraps, slot order and push order diverge. The head may advance
    /// under a concurrent reader; that only rotates where the walk starts,
    /// and every slot is still visited exactly once.
    pub fn read_all(&self) -> Vec<SpanRecord> {
        let cap = self.slots.len();
        let head = self.head.load(Ordering::SeqCst);
        // Every push numbered below `head` is being offered to this
        // reader; overwriting them later is not a drop. fetch_max keeps
        // the mark monotone under concurrent readers.
        self.read_mark.fetch_max(head, Ordering::SeqCst);
        let start = head as usize % cap;
        let mut out = Vec::with_capacity(cap);
        for i in 0..cap {
            if let Some(span) = Self::read_slot(&self.slots[(start + i) % cap]) {
                out.push(span);
            }
        }
        out
    }

    fn read_slot(slot: &Slot) -> Option<SpanRecord> {
        for _ in 0..READ_RETRIES {
            let before = slot.seq.load(Ordering::SeqCst);
            if before == 0 {
                return None; // never written
            }
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue; // writer mid-update; re-check
            }
            let trace = slot.words[0].load(Ordering::SeqCst);
            let phase = slot.words[1].load(Ordering::SeqCst);
            let start_ns = slot.words[2].load(Ordering::SeqCst);
            let dur_ns = slot.words[3].load(Ordering::SeqCst);
            let after = slot.seq.load(Ordering::SeqCst);
            if before == after {
                return Some(SpanRecord {
                    trace: TraceId::from_raw(trace),
                    phase: phase as u16,
                    start_ns,
                    dur_ns,
                });
            }
            std::hint::spin_loop();
        }
        None // contended past the retry budget; drop rather than tear
    }
}

/// Process-wide recorder switch and ring registry.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static REGISTRY: Mutex<Vec<Arc<FlightRing>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's ring, created (and registered globally) on first use.
    static THREAD_RING: OnceCell<Arc<FlightRing>> = const { OnceCell::new() };
}

/// Turns the recorder on with the current capacity setting.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the recorder on and sets the capacity used for rings created
/// from now on (threads that already recorded keep their ring as-is).
pub fn enable_with_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::SeqCst);
    enable();
}

/// Turns the recorder off. Existing rings keep their contents; filter
/// snapshots by [`TraceId`] rather than relying on disable-to-clear.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether [`record`] currently captures spans.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Records one span into the calling thread's ring, if the recorder is
/// enabled. First call on a thread registers its ring (one global lock,
/// tallied); every subsequent call is lock-free.
#[inline]
pub fn record(trace: TraceId, phase: u16, start_ns: u64, dur_ns: u64) {
    if !is_enabled() {
        return;
    }
    THREAD_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(FlightRing::new(CAPACITY.load(Ordering::SeqCst)));
            tally::note_global_lock();
            REGISTRY
                .lock()
                .expect("flight registry poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(SpanRecord {
            trace,
            phase,
            start_ns,
            dur_ns,
        });
    });
}

/// Collects every stable span from every thread's ring, ordered by
/// virtual start time (then trace, then phase, for determinism).
pub fn snapshot() -> Vec<SpanRecord> {
    tally::note_global_lock();
    let rings: Vec<Arc<FlightRing>> = REGISTRY
        .lock()
        .expect("flight registry poisoned")
        .iter()
        .cloned()
        .collect();
    let mut spans: Vec<SpanRecord> = rings.iter().flat_map(|r| r.read_all()).collect();
    spans.sort_by_key(|s| (s.start_ns, s.trace, s.phase));
    spans
}

/// Like [`snapshot`], but only the calling thread's ring: a capture whose
/// calls all run on this thread sees no span that another thread recorded
/// while the recorder was on, whatever trace ids those spans carry.
pub fn thread_snapshot() -> Vec<SpanRecord> {
    let mut spans = THREAD_RING.with(|cell| cell.get().map(|r| r.read_all()).unwrap_or_default());
    spans.sort_by_key(|s| (s.start_ns, s.trace, s.phase));
    spans
}

/// Total spans lost to overwrite before any reader saw them, summed
/// across every registered ring (see [`FlightRing::dropped`]). Exported
/// by the runtime as the `obs_flight_dropped_total` counter; monotone,
/// because rings are registered for the life of the process.
pub fn dropped_total() -> u64 {
    tally::note_global_lock();
    REGISTRY
        .lock()
        .expect("flight registry poisoned")
        .iter()
        .map(|r| r.dropped())
        .sum()
}

/// Snapshot filtered to one call. This is the isolation primitive: trace
/// ids are process-unique, so concurrent tests and threads cannot pollute
/// each other's view even though rings are shared process state.
pub fn spans_for(trace: TraceId) -> Vec<SpanRecord> {
    let mut spans = snapshot();
    spans.retain(|s| s.trace == trace);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let ring = FlightRing::new(4);
        for i in 0..6u64 {
            ring.push(SpanRecord {
                trace: TraceId::from_raw(1),
                phase: i as u16,
                start_ns: i,
                dur_ns: 1,
            });
        }
        let mut phases: Vec<u16> = ring.read_all().iter().map(|s| s.phase).collect();
        phases.sort_unstable();
        assert_eq!(phases, vec![2, 3, 4, 5], "spans 0 and 1 were overwritten");
        assert_eq!(ring.pushed(), 6);
    }

    #[test]
    fn read_all_preserves_push_order_across_wraparound() {
        // Regression: read_all used to walk slots in index order, so after
        // a wrap the tail of the ring (older spans in high slots) came out
        // *before* the freshly overwritten low slots. Push spans with
        // strictly increasing start_ns and require read_all to return them
        // already monotone — no sorting allowed here.
        let ring = FlightRing::new(4);
        for i in 0..7u64 {
            ring.push(SpanRecord {
                trace: TraceId::from_raw(1),
                phase: i as u16,
                start_ns: 100 + i,
                dur_ns: 1,
            });
        }
        let spans = ring.read_all();
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(
            starts,
            vec![103, 104, 105, 106],
            "oldest surviving span first, in push order"
        );
        // An exact multiple of capacity wraps back to slot 0; order must
        // still hold.
        ring.push(SpanRecord {
            trace: TraceId::from_raw(1),
            phase: 7,
            start_ns: 107,
            dur_ns: 1,
        });
        let starts: Vec<u64> = ring.read_all().iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![104, 105, 106, 107]);
    }

    #[test]
    fn dropped_counts_only_unread_overwrites() {
        let ring = FlightRing::new(4);
        let span = |i: u64| SpanRecord {
            trace: TraceId::from_raw(1),
            phase: 0,
            start_ns: i,
            dur_ns: 1,
        };
        for i in 0..4 {
            ring.push(span(i));
        }
        assert_eq!(ring.dropped(), 0, "no overwrite yet");
        ring.push(span(4));
        assert_eq!(ring.dropped(), 1, "span 0 overwritten before any read");
        // A read marks everything pushed so far as offered; overwriting
        // those is not a drop...
        ring.read_all();
        for i in 5..9 {
            ring.push(span(i));
        }
        assert_eq!(ring.dropped(), 1, "spans 1..=4 were read before reuse");
        // ...but going a full lap past the read mark drops again.
        for i in 9..13 {
            ring.push(span(i));
        }
        assert_eq!(ring.dropped(), 5, "spans 5..=8 were never offered");
    }

    #[test]
    fn record_is_gated_by_enable() {
        // Runs in its own thread so this test owns a private ring and the
        // enable window can't capture spans from parallel tests into it.
        std::thread::spawn(|| {
            let trace = TraceId::next();
            record(trace, 7, 10, 5);
            assert!(
                spans_for(trace).is_empty(),
                "disabled recorder must drop spans"
            );
            enable();
            record(trace, 7, 10, 5);
            disable();
            let spans = spans_for(trace);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].phase, 7);
            assert_eq!(spans[0].start_ns, 10);
            assert_eq!(spans[0].dur_ns, 5);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_reads_never_tear() {
        let ring = Arc::new(FlightRing::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    // Keep all four words correlated so a torn read is
                    // detectable as an inconsistency.
                    ring.push(SpanRecord {
                        trace: TraceId::from_raw(i + 1),
                        phase: (i % 1000) as u16,
                        start_ns: i * 3,
                        dur_ns: i + 1,
                    });
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            for span in ring.read_all() {
                let i = span.trace.raw() - 1;
                assert_eq!(span.phase as u64, i % 1000, "torn span: phase");
                assert_eq!(span.start_ns, i * 3, "torn span: start");
                assert_eq!(span.dur_ns, i + 1, "torn span: duration");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
