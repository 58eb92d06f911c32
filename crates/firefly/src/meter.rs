//! Execution metering.
//!
//! A [`Meter`] records where simulated time goes during a call: one
//! [`Segment`] per charged phase, optionally attributed to a named lock
//! when the time was spent inside a critical section. The meter is what
//! regenerates the paper's Table 5 (time breakdown of the Null LRPC) and
//! the Section 3.4 claim that A-stack queue operations are under 2 % of
//! call time.
//!
//! [`Meter::charge`] (with [`Meter::charge_locked`] for time spent under a
//! lock) is the one way to charge a phase: it advances the CPU's virtual
//! clock and records the span in the same step, so every step of the
//! Table-5 breakdown passes through it.

use std::collections::BTreeMap;

use crate::cpu::Cpu;
use crate::time::Nanos;

// Lock-acquisition accounting lives in the `obs` crate (it is shared by
// layers below and above the simulator); re-export it here so existing
// `firefly::meter::note_global_lock()` call sites keep working. See
// `obs::tally` for the global/sharded taxonomy.
pub use obs::tally::{
    global_locks_on_thread, note_global_lock, note_sharded_lock, sharded_locks_on_thread,
};
pub use obs::{LockScope, LockTally, TraceId};

/// The phase of a call a charged cost belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phase {
    /// The formal procedure call into the client stub (and its returns).
    ProcedureCall,
    /// Client stub execution (both call and return halves).
    ClientStub,
    /// Kernel trap entry or exit.
    Trap,
    /// Kernel transfer path: validation and linkage management.
    KernelTransfer,
    /// Virtual-memory context switch (including TLB invalidation).
    ContextSwitch,
    /// Idle-processor exchange in place of a context switch.
    ProcessorExchange,
    /// Server stub execution (entry and return halves).
    ServerStub,
    /// The body of the server procedure itself.
    ServerProcedure,
    /// Argument/result byte copying and per-argument stub operations.
    ArgCopy,
    /// A-stack free-queue operations.
    QueueOp,
    /// Marshaling of complex values (the Modula2+ fallback path, and all
    /// of conventional RPC's stub work).
    Marshal,
    /// Message buffer allocation, management and flow control.
    BufferManagement,
    /// Enqueue/dequeue and copying of messages between domains.
    MessageTransfer,
    /// Receiver-side message interpretation and thread dispatch.
    Dispatch,
    /// Blocking the client's concrete thread and selecting a server thread.
    Scheduling,
    /// Access validation of the message sender.
    Validation,
    /// Simulated network transmission (cross-machine calls only).
    Network,
    /// Time spent waiting for a contended resource.
    Wait,
    /// Anything else.
    Other,
    /// Per-call out-of-band segment management: mapping, copying into and
    /// unmapping the fallback segment for oversized arguments. (Appended
    /// after `Other` so persisted span codes stay stable.)
    OobSegment,
}

impl Phase {
    /// Every phase, in stable declaration order (code order).
    pub const ALL: [Phase; 20] = [
        Phase::ProcedureCall,
        Phase::ClientStub,
        Phase::Trap,
        Phase::KernelTransfer,
        Phase::ContextSwitch,
        Phase::ProcessorExchange,
        Phase::ServerStub,
        Phase::ServerProcedure,
        Phase::ArgCopy,
        Phase::QueueOp,
        Phase::Marshal,
        Phase::BufferManagement,
        Phase::MessageTransfer,
        Phase::Dispatch,
        Phase::Scheduling,
        Phase::Validation,
        Phase::Network,
        Phase::Wait,
        Phase::Other,
        Phase::OobSegment,
    ];

    /// Stable numeric code used in flight-recorder spans (the `obs` crate
    /// stores phases as raw `u16`s; this is the mapping).
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Inverse of [`Phase::code`]. Unknown codes decode as [`Phase::Other`]
    /// so a flight recorded by a newer build still renders.
    pub fn from_code(code: u16) -> Phase {
        Phase::ALL
            .get(code as usize)
            .copied()
            .unwrap_or(Phase::Other)
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ProcedureCall => "procedure call",
            Phase::ClientStub => "client stub",
            Phase::Trap => "kernel trap",
            Phase::KernelTransfer => "kernel transfer",
            Phase::ContextSwitch => "context switch",
            Phase::ProcessorExchange => "processor exchange",
            Phase::ServerStub => "server stub",
            Phase::ServerProcedure => "server procedure",
            Phase::ArgCopy => "argument copy",
            Phase::QueueOp => "A-stack queue op",
            Phase::Marshal => "marshaling",
            Phase::BufferManagement => "buffer management",
            Phase::MessageTransfer => "message transfer",
            Phase::Dispatch => "dispatch",
            Phase::Scheduling => "scheduling",
            Phase::Validation => "access validation",
            Phase::Network => "network",
            Phase::Wait => "wait",
            Phase::Other => "other",
            Phase::OobSegment => "oob segment",
        }
    }
}

/// One contiguous charged span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// What the time was spent on.
    pub phase: Phase,
    /// How long.
    pub dur: Nanos,
    /// Name of the lock held while this time was spent, if any.
    pub lock: Option<&'static str>,
}

/// A recorder of charged time.
///
/// A disabled meter (the default for throughput loops) skips all segment
/// recording; charging the CPU clock is independent of the meter.
///
/// Orthogonally to the segment list, a meter stamped with a [`TraceId`]
/// mirrors every charged span into the process flight recorder
/// ([`obs::flight`]) when that recorder is enabled — including on
/// *disabled* meters, so throughput loops can be flight-recorded without
/// paying for per-call segment vectors. When the recorder is off the
/// extra cost is one atomic load per charge.
#[derive(Debug, Default)]
pub struct Meter {
    enabled: bool,
    segments: Vec<Segment>,
    tlb_misses: u64,
    trace: TraceId,
}

impl Meter {
    /// A recording meter.
    pub fn enabled() -> Meter {
        Meter {
            enabled: true,
            ..Meter::default()
        }
    }

    /// A non-recording meter (charges still advance the clock and reach
    /// the flight recorder, but keep no segments).
    pub fn disabled() -> Meter {
        Meter::default()
    }

    /// True if this meter records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps the call identity under which spans are emitted to the
    /// flight recorder. A meter with the default [`TraceId::NONE`] never
    /// emits flight spans.
    pub fn set_trace(&mut self, trace: TraceId) {
        self.trace = trace;
    }

    /// The call identity this meter is stamped with.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Charges `dur` of `phase` to `cpu`: advances its virtual clock, then
    /// records the span that ends at the clock's new reading. The clock
    /// advance reaches the replay stream even when `dur` is zero; a zero
    /// span is not recorded.
    #[inline]
    pub fn charge(&mut self, cpu: &Cpu, phase: Phase, dur: Nanos) {
        // Not `charge_locked(.., None)`: an unlocked span is recorded
        // without the lock argument, which keeps each inlined charge site
        // as small as the pairs it replaced; the larger sites changed what
        // LLVM inlined in `lrpc` and `idl` and slowed `bulk_echo`.
        cpu.charge(dur);
        self.record_span(phase, dur, cpu.now());
    }

    /// [`Meter::charge`] for time spent holding the named lock.
    #[inline]
    pub fn charge_locked(
        &mut self,
        cpu: &Cpu,
        phase: Phase,
        dur: Nanos,
        lock: Option<&'static str>,
    ) {
        cpu.charge(dur);
        self.record_locked_span(phase, dur, lock, cpu.now());
    }

    /// Records a charged span that ended at virtual time `now` and mirrors
    /// it into the flight recorder, whose span starts at `now - dur`.
    fn record_span(&mut self, phase: Phase, dur: Nanos, now: Nanos) {
        self.record_locked_span(phase, dur, None, now);
    }

    /// [`Meter::record_span`] for time spent holding the named lock.
    fn record_locked_span(
        &mut self,
        phase: Phase,
        dur: Nanos,
        lock: Option<&'static str>,
        now: Nanos,
    ) {
        if dur.is_zero() {
            return;
        }
        if self.enabled {
            self.segments.push(Segment { phase, dur, lock });
        }
        if self.trace.is_some() && obs::flight::is_enabled() {
            let start = now.saturating_sub(dur);
            obs::flight::record(self.trace, phase.code(), start.as_nanos(), dur.as_nanos());
        }
    }

    /// Adds TLB misses observed while this meter was active.
    pub fn add_tlb_misses(&mut self, n: u64) {
        if self.enabled {
            self.tlb_misses += n;
        }
    }

    /// TLB misses observed.
    pub fn tlb_misses(&self) -> u64 {
        self.tlb_misses
    }

    /// All recorded segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total recorded time.
    pub fn total(&self) -> Nanos {
        self.segments.iter().map(|s| s.dur).sum()
    }

    /// Total recorded time in one phase.
    pub fn total_for(&self, phase: Phase) -> Nanos {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.dur)
            .sum()
    }

    /// Total time spent holding the named lock.
    pub fn total_locked(&self, lock: &str) -> Nanos {
        self.segments
            .iter()
            .filter(|s| s.lock == Some(lock))
            .map(|s| s.dur)
            .sum()
    }

    /// Per-phase totals, sorted by phase.
    pub fn breakdown(&self) -> BTreeMap<Phase, Nanos> {
        let mut out = BTreeMap::new();
        for s in &self.segments {
            *out.entry(s.phase).or_insert(Nanos::ZERO) += s.dur;
        }
        out
    }

    /// Clears all recorded data, keeping the enabled state.
    pub fn reset(&mut self) {
        self.segments.clear();
        self.tlb_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Machine;

    #[test]
    fn totals_and_breakdown() {
        let machine = Machine::cvax_uniprocessor();
        let cpu = machine.cpu(0);
        let mut m = Meter::enabled();
        m.charge(cpu, Phase::Trap, Nanos::from_micros(18));
        m.charge(cpu, Phase::Trap, Nanos::from_micros(18));
        m.charge(cpu, Phase::ContextSwitch, Nanos::from_micros(33));
        assert_eq!(m.total(), Nanos::from_micros(69));
        assert_eq!(cpu.now(), m.total(), "the clock advances by the charges");
        assert_eq!(m.total_for(Phase::Trap), Nanos::from_micros(36));
        assert_eq!(m.breakdown()[&Phase::ContextSwitch], Nanos::from_micros(33));
    }

    #[test]
    fn disabled_meter_records_nothing() {
        let machine = Machine::cvax_uniprocessor();
        let cpu = machine.cpu(0);
        let mut m = Meter::disabled();
        m.charge(cpu, Phase::Trap, Nanos::from_micros(18));
        m.add_tlb_misses(10);
        assert_eq!(
            cpu.now(),
            Nanos::from_micros(18),
            "the clock still advances"
        );
        assert_eq!(m.total(), Nanos::ZERO);
        assert_eq!(m.tlb_misses(), 0);
        assert!(m.segments().is_empty());
    }

    #[test]
    fn lock_attribution() {
        let machine = Machine::cvax_uniprocessor();
        let cpu = machine.cpu(0);
        let mut m = Meter::enabled();
        for _ in 0..2 {
            let op = Nanos::from_nanos(1_400);
            m.charge_locked(cpu, Phase::QueueOp, op, Some("astack-queue"));
        }
        m.charge(cpu, Phase::KernelTransfer, Nanos::from_micros(17));
        assert_eq!(m.total_locked("astack-queue"), Nanos::from_nanos(2_800));
        assert_eq!(m.total_locked("global"), Nanos::ZERO);
    }

    #[test]
    fn zero_duration_segments_are_dropped() {
        let machine = Machine::cvax_uniprocessor();
        let mut m = Meter::enabled();
        m.charge(machine.cpu(0), Phase::Other, Nanos::ZERO);
        assert!(m.segments().is_empty());
    }

    #[test]
    fn phase_codes_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_code(p.code()), p);
        }
        assert_eq!(Phase::from_code(999), Phase::Other);
    }

    /// Serializes tests that toggle the process-wide flight recorder so a
    /// concurrent `disable()` can't swallow another test's spans.
    static FLIGHT_TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn traced_meter_mirrors_spans_into_flight_recorder() {
        let _serial = FLIGHT_TOGGLE.lock().unwrap();
        // Private thread: the thread-local ring belongs to this test alone.
        std::thread::spawn(|| {
            let machine = Machine::cvax_uniprocessor();
            let cpu = machine.cpu(0);
            cpu.charge(Nanos::from_micros(2));
            obs::flight::enable();
            let trace = TraceId::next();
            let mut m = Meter::disabled();
            m.set_trace(trace);
            m.charge(cpu, Phase::Trap, Nanos::from_micros(18));
            obs::flight::disable();
            assert!(m.segments().is_empty(), "disabled meter keeps no segments");
            let spans = obs::flight::spans_for(trace);
            assert_eq!(spans.len(), 1, "flight capture is independent of enable");
            assert_eq!(spans[0].phase, Phase::Trap.code());
            assert_eq!(spans[0].start_ns, 2_000, "start = now - dur");
            assert_eq!(spans[0].dur_ns, 18_000);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn untraced_meter_stays_out_of_flight_recorder() {
        let _serial = FLIGHT_TOGGLE.lock().unwrap();
        std::thread::spawn(|| {
            let machine = Machine::cvax_uniprocessor();
            obs::flight::enable();
            let mut m = Meter::enabled();
            m.charge(machine.cpu(0), Phase::Trap, Nanos::from_micros(18));
            obs::flight::disable();
            assert_eq!(m.total_for(Phase::Trap), Nanos::from_micros(18));
            assert!(obs::flight::spans_for(TraceId::NONE).is_empty());
        })
        .join()
        .unwrap();
    }
}
