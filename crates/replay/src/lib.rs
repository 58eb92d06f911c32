//! Whole-run deterministic record/replay.
//!
//! The simulator is deterministic by construction *given* the outcomes of
//! a small set of decision points: fault-plan draws, scheduler picks and
//! idle-CPU claims, lock-free A-stack/E-stack and bulk-arena allocation
//! results, and virtual-clock advances. This crate captures those
//! outcomes, in per-site order, into a compact append-only binary log
//! ([`RecordLog`]), and replays a workload with every decision point
//! answered from the log instead of computed live — asserting divergence
//! at the first mismatch ([`ReplayDivergence`]: site, sequence number,
//! expected vs actual).
//!
//! The design follows rr ("Lightweight User-Space Record And Replay"):
//! record only what is nondeterministic, re-execute everything else. Three
//! modes thread through the runtime ([`Mode`]):
//!
//! * **Live** — no session attached; every instrumentation point is a
//!   no-op behind an empty `OnceLock`, so the steady call path pays
//!   nothing (the lock-free tally tests keep this honest).
//! * **Record** — each decision appends one [`Event`] to its site's
//!   stream.
//! * **Replay** — each decision pops the next event from its site's
//!   stream; *resolved* decisions (fault draws) return the logged
//!   outcome, *checked* decisions (clock advances, allocation results)
//!   compare the recomputed outcome against the log. The first mismatch
//!   latches a [`ReplayDivergence`]; after that the run falls back to
//!   live decisions so it can complete and report, rather than cascade.
//!
//! Ordering is per-stream (per decision site), not global: a total order
//! over all sites cannot be replayed faithfully once real threads race,
//! but each site's own sequence is exactly reproducible — and that is
//! what the byte-equality oracle needs.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Event kinds. The kind tags what a payload means; streams may carry
/// mixed kinds (the fault stream interleaves decision types in call
/// order).
pub mod kind {
    /// One server-dispatch fault decision (packed [`super::Event`]
    /// payload: `delay_us << 3 | terminate << 2 | hang << 1 | panic`).
    pub const FAULT_DISPATCH: u16 = 1;
    /// One packet-transmission fate (packed payload:
    /// `delay_us << 8 | dup << 7 | lost << 6 | retransmissions`).
    pub const FAULT_PACKET: u16 = 2;
    /// Forged-binding decision (payload: 0 or 1).
    pub const FAULT_FORGE: u16 = 3;
    /// A-stack exhaustion injection decision (payload: 0 or 1).
    pub const FAULT_EXHAUST_ASTACKS: u16 = 4;
    /// Bulk-arena exhaustion injection decision (payload: 0 or 1).
    pub const FAULT_EXHAUST_BULK: u16 = 5;
    /// Virtual-clock charge on one CPU (payload: nanoseconds added).
    pub const CLOCK_CHARGE: u16 = 6;
    /// Virtual-clock floor advance on one CPU (payload: target ns).
    pub const CLOCK_ADVANCE: u16 = 7;
    /// Idle-CPU claim outcome (payload: claimed CPU index + 1, or 0).
    pub const IDLE_CLAIM: u16 = 8;
    /// Scheduler idle-processor assignment (payload:
    /// `domain_id << 16 | cpu_index`).
    pub const SCHED_ASSIGN: u16 = 9;
    /// A-stack acquire outcome (payload: `(index + 1) << 1 | overflow`
    /// on success, 0 on failure).
    pub const ASTACK_ACQUIRE: u16 = 10;
    /// Bulk-arena chunk acquire outcome (payload: chunk index + 1, or 0
    /// for the out-of-band fallback).
    pub const BULK_ACQUIRE: u16 = 11;
    /// E-stack lazy-association outcome (payload:
    /// `astack_key << 1 | fresh_allocation`).
    pub const ESTACK_GET: u16 = 12;
    /// Call-ring descriptor enqueue (payload: `slot << 32 | proc_index`).
    pub const RING_ENQUEUE: u16 = 13;
    /// Doorbell ring outcome (payload: 1 = rung, 2 = lost and re-rung).
    pub const RING_DOORBELL: u16 = 14;
    /// Call-ring descriptor drain on the server side (payload:
    /// `slot << 32 | proc_index`).
    pub const RING_DRAIN: u16 = 15;
    /// Ring-full fault injection decision (payload: 0 or 1).
    pub const FAULT_RING_FULL: u16 = 16;
    /// Doorbell-lost fault injection decision (payload: 0 or 1).
    pub const FAULT_DOORBELL_LOST: u16 = 17;
    /// Adaptive A-stack sizing decision applied to one interface (payload:
    /// `astacks << 32 | ring_slots`).
    pub const ADAPT: u16 = 18;

    /// Human name for a kind code (for divergence reports).
    pub fn name(kind: u16) -> &'static str {
        match kind {
            FAULT_DISPATCH => "fault-dispatch",
            FAULT_PACKET => "fault-packet",
            FAULT_FORGE => "fault-forge",
            FAULT_EXHAUST_ASTACKS => "fault-exhaust-astacks",
            FAULT_EXHAUST_BULK => "fault-exhaust-bulk",
            CLOCK_CHARGE => "clock-charge",
            CLOCK_ADVANCE => "clock-advance",
            IDLE_CLAIM => "idle-claim",
            SCHED_ASSIGN => "sched-assign",
            ASTACK_ACQUIRE => "astack-acquire",
            BULK_ACQUIRE => "bulk-acquire",
            ESTACK_GET => "estack-get",
            RING_ENQUEUE => "ring-enqueue",
            RING_DOORBELL => "ring-doorbell",
            RING_DRAIN => "ring-drain",
            FAULT_RING_FULL => "fault-ring-full",
            FAULT_DOORBELL_LOST => "fault-doorbell-lost",
            ADAPT => "adapt",
            _ => "unknown",
        }
    }
}

/// Record/replay mode, threaded through runtime construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No recording, no replaying; instrumentation points are no-ops.
    Live,
    /// Every nondeterministic decision appends an event to its stream.
    Record,
    /// Every decision point is answered from (or checked against) the
    /// log; the first mismatch latches a [`ReplayDivergence`].
    Replay,
}

/// One recorded decision: a kind tag plus a packed payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// What kind of decision this is (see [`kind`]).
    pub kind: u16,
    /// Decision outcome, packed per-kind.
    pub payload: u64,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", kind::name(self.kind), self.payload)
    }
}

/// The first point where a replayed run stopped matching its log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Decision site (stream name), e.g. `clock:cpu0` or `fault:dispatch`.
    pub site: String,
    /// 0-based sequence number within that site's stream.
    pub seq: u64,
    /// What the log said should happen here; `None` means the stream was
    /// exhausted (the replayed run made more decisions than the recorded
    /// one).
    pub expected: Option<Event>,
    /// What the replayed run actually decided or requested.
    pub got: Event,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expected {
            Some(e) => write!(
                f,
                "replay diverged at {}#{}: expected {}, got {}",
                self.site, self.seq, e, self.got
            ),
            None => write!(
                f,
                "replay diverged at {}#{}: log exhausted, got {}",
                self.site, self.seq, self.got
            ),
        }
    }
}

impl std::error::Error for ReplayDivergence {}

/// One decision site's event sequence.
struct Stream {
    name: String,
    /// Events appended in record mode.
    recorded: Mutex<Vec<Event>>,
    /// Events to answer from in replay mode.
    script: Vec<Event>,
    /// Next script position to consume in replay mode.
    cursor: AtomicUsize,
}

/// Pre-sized append buffer so the first few thousand recorded events
/// never reallocate mid-run (the recording-overhead gate counts every
/// nanosecond on the hot path).
const RECORD_RESERVE: usize = 4096;

/// A record or replay session, shared by `Arc` across every instrumented
/// layer. Streams are created on first use and addressed by site name.
pub struct Session {
    mode: Mode,
    streams: Mutex<BTreeMap<String, Arc<Stream>>>,
    meta: Mutex<BTreeMap<String, String>>,
    diverged: AtomicBool,
    divergence: Mutex<Option<ReplayDivergence>>,
}

impl Session {
    fn with_mode(mode: Mode) -> Arc<Session> {
        Arc::new(Session {
            mode,
            streams: Mutex::new(BTreeMap::new()),
            meta: Mutex::new(BTreeMap::new()),
            diverged: AtomicBool::new(false),
            divergence: Mutex::new(None),
        })
    }

    /// A session in [`Mode::Live`]: attaching it anywhere is a no-op.
    pub fn live() -> Arc<Session> {
        Session::with_mode(Mode::Live)
    }

    /// A fresh recording session.
    pub fn recorder() -> Arc<Session> {
        Session::with_mode(Mode::Record)
    }

    /// A replay session answering decisions from `log`.
    pub fn replayer(log: &RecordLog) -> Arc<Session> {
        let session = Session::with_mode(Mode::Replay);
        {
            let mut streams = session.streams.lock();
            for (name, events) in &log.streams {
                streams.insert(
                    name.clone(),
                    Arc::new(Stream {
                        name: name.clone(),
                        recorded: Mutex::new(Vec::new()),
                        script: events.clone(),
                        cursor: AtomicUsize::new(0),
                    }),
                );
            }
        }
        *session.meta.lock() = log.meta.clone();
        session
    }

    /// This session's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// True for [`Mode::Live`] sessions (instrumentation should skip
    /// attaching handles entirely).
    pub fn is_live(&self) -> bool {
        self.mode == Mode::Live
    }

    /// A handle on the named decision stream, creating it if new. Cache
    /// the handle — this takes the session's stream-map lock.
    pub fn stream(self: &Arc<Session>, name: &str) -> Handle {
        let stream = {
            let mut streams = self.streams.lock();
            match streams.get(name) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Arc::new(Stream {
                        name: name.to_string(),
                        recorded: Mutex::new(match self.mode {
                            Mode::Record => Vec::with_capacity(RECORD_RESERVE),
                            _ => Vec::new(),
                        }),
                        script: Vec::new(),
                        cursor: AtomicUsize::new(0),
                    });
                    streams.insert(name.to_string(), Arc::clone(&s));
                    s
                }
            }
        };
        Handle {
            mode: self.mode,
            session: Arc::clone(self),
            stream,
        }
    }

    /// Sets a metadata key (scenario parameters, artifact digests).
    pub fn set_meta(&self, key: &str, value: &str) {
        self.meta.lock().insert(key.to_string(), value.to_string());
    }

    /// Reads a metadata key.
    pub fn meta(&self, key: &str) -> Option<String> {
        self.meta.lock().get(key).cloned()
    }

    /// Latches the first divergence; later reports are dropped.
    fn latch(&self, d: ReplayDivergence) {
        if self
            .diverged
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            *self.divergence.lock() = Some(d);
        }
    }

    /// True once any decision point has mismatched the log.
    pub fn has_diverged(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// The first divergence, if any.
    pub fn divergence(&self) -> Option<ReplayDivergence> {
        self.divergence.lock().clone()
    }

    /// Total events recorded (record mode) or consumed (replay mode).
    pub fn event_count(&self) -> usize {
        let streams = self.streams.lock();
        match self.mode {
            Mode::Replay => streams
                .values()
                .map(|s| s.cursor.load(Ordering::Relaxed).min(s.script.len()))
                .sum(),
            _ => streams.values().map(|s| s.recorded.lock().len()).sum(),
        }
    }

    /// Replay mode: events left unconsumed across all streams (a replayed
    /// run that made *fewer* decisions than the recording shows up here,
    /// not as a divergence).
    pub fn unconsumed(&self) -> usize {
        self.streams
            .lock()
            .values()
            .map(|s| {
                s.script
                    .len()
                    .saturating_sub(s.cursor.load(Ordering::Relaxed))
            })
            .sum()
    }

    /// Record mode: packages everything recorded so far into a log.
    pub fn finish(&self) -> RecordLog {
        let streams = self
            .streams
            .lock()
            .iter()
            .map(|(name, s)| (name.clone(), s.recorded.lock().clone()))
            .collect();
        RecordLog {
            version: FORMAT_VERSION,
            meta: self.meta.lock().clone(),
            streams,
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("mode", &self.mode)
            .field("streams", &self.streams.lock().len())
            .field("events", &self.event_count())
            .field("diverged", &self.has_diverged())
            .finish()
    }
}

/// A cheap, cloneable handle on one decision stream. Instrumented
/// components cache one per site (typically in a `OnceLock` that stays
/// empty in live mode).
#[derive(Clone)]
pub struct Handle {
    /// Copy of the session's mode, so the per-event dispatch below never
    /// dereferences the session on the hot path.
    mode: Mode,
    session: Arc<Session>,
    stream: Arc<Stream>,
}

impl Handle {
    /// The owning session's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The owning session.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// A *checked* decision: in record mode the outcome is appended; in
    /// replay mode it is compared against the log and a mismatch latches
    /// the session's divergence. Live mode: no-op.
    #[inline]
    pub fn emit(&self, kind: u16, payload: u64) {
        match self.mode {
            Mode::Live => {}
            Mode::Record => self.stream.recorded.lock().push(Event { kind, payload }),
            Mode::Replay => {
                if self.session.has_diverged() {
                    return;
                }
                let got = Event { kind, payload };
                let i = self.stream.cursor.fetch_add(1, Ordering::AcqRel);
                match self.stream.script.get(i) {
                    Some(e) if *e == got => {}
                    other => self.session.latch(ReplayDivergence {
                        site: self.stream.name.clone(),
                        seq: i as u64,
                        expected: other.copied(),
                        got,
                    }),
                }
            }
        }
    }

    /// A *resolved* decision: in live mode computes `live()`; in record
    /// mode computes `live()` and appends the outcome; in replay mode
    /// returns the logged payload instead of computing (falling back to
    /// `live()` only after a kind mismatch, which latches divergence).
    #[inline]
    pub fn resolve(&self, kind: u16, live: impl FnOnce() -> u64) -> u64 {
        match self.mode {
            Mode::Live => live(),
            Mode::Record => {
                let payload = live();
                self.stream.recorded.lock().push(Event { kind, payload });
                payload
            }
            Mode::Replay => match self.expect(kind) {
                Some(payload) => payload,
                None => live(),
            },
        }
    }

    /// Replay mode: consumes the next event, which must have this kind;
    /// returns its payload, or `None` after latching a divergence (kind
    /// mismatch or exhausted stream). Returns `None` in every other mode
    /// and after a prior divergence.
    pub fn expect(&self, kind: u16) -> Option<u64> {
        if self.mode != Mode::Replay || self.session.has_diverged() {
            return None;
        }
        let i = self.stream.cursor.fetch_add(1, Ordering::AcqRel);
        match self.stream.script.get(i) {
            Some(e) if e.kind == kind => Some(e.payload),
            other => {
                self.session.latch(ReplayDivergence {
                    site: self.stream.name.clone(),
                    seq: i as u64,
                    expected: other.copied(),
                    got: Event { kind, payload: 0 },
                });
                None
            }
        }
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("stream", &self.stream.name)
            .field("mode", &self.session.mode)
            .finish()
    }
}

/// Current log format version, written into every header.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"RLOG";

/// A structured log-parsing failure (decode never panics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// The file does not start with the `RLOG` magic.
    BadMagic,
    /// The header version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The log ended mid-field at the given byte offset.
    Truncated(usize),
    /// A field held an impossible value (e.g. a non-UTF-8 name).
    Malformed(&'static str),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not a replay log (bad magic)"),
            LogError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported log version {v} (this build reads <= {FORMAT_VERSION})"
                )
            }
            LogError::Truncated(at) => write!(f, "log truncated at byte {at}"),
            LogError::Malformed(what) => write!(f, "malformed log field: {what}"),
        }
    }
}

impl std::error::Error for LogError {}

/// A compact append-only binary log of every recorded decision stream,
/// with a versioned header and a key-value metadata block.
///
/// Layout (all integers LEB128 varints unless noted):
///
/// ```text
/// "RLOG"  magic, 4 bytes
/// u32 LE  format version
/// varint  meta entry count, then per entry: key, value (varint len + bytes)
/// varint  stream count, then per stream:
///         name (varint len + bytes), varint event count,
///         then per event: varint kind, varint payload
/// ```
///
/// There is deliberately no whole-file checksum: a corrupted payload byte
/// decodes fine and then surfaces at replay as a [`ReplayDivergence`]
/// naming the exact site and sequence number — which is more useful than
/// "checksum mismatch".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordLog {
    /// Format version this log was written with.
    pub version: u32,
    /// Scenario parameters and artifact digests, for the replay driver.
    pub meta: BTreeMap<String, String>,
    /// Per-site decision sequences, keyed by stream name.
    pub streams: BTreeMap<String, Vec<Event>>,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LogError> {
        if self.pos + n > self.bytes.len() {
            return Err(LogError::Truncated(self.bytes.len()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, LogError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or(LogError::Truncated(self.bytes.len()))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(LogError::Malformed("varint longer than 64 bits"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> Result<String, LogError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LogError::Malformed("non-UTF-8 string"))
    }
}

impl RecordLog {
    /// Encodes the log into its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        put_varint(&mut out, self.meta.len() as u64);
        for (k, v) in &self.meta {
            put_bytes(&mut out, k.as_bytes());
            put_bytes(&mut out, v.as_bytes());
        }
        put_varint(&mut out, self.streams.len() as u64);
        for (name, events) in &self.streams {
            put_bytes(&mut out, name.as_bytes());
            put_varint(&mut out, events.len() as u64);
            for e in events {
                put_varint(&mut out, u64::from(e.kind));
                put_varint(&mut out, e.payload);
            }
        }
        out
    }

    /// Decodes a binary log; returns a structured [`LogError`] (never
    /// panics) on anything the format forbids.
    pub fn decode(bytes: &[u8]) -> Result<RecordLog, LogError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(LogError::BadMagic);
        }
        let version = u32::from_le_bytes(
            r.take(4)?
                .try_into()
                .expect("take(4) returned exactly 4 bytes"),
        );
        if version == 0 || version > FORMAT_VERSION {
            return Err(LogError::UnsupportedVersion(version));
        }
        let mut meta = BTreeMap::new();
        let n_meta = r.varint()?;
        for _ in 0..n_meta {
            let k = r.string()?;
            let v = r.string()?;
            meta.insert(k, v);
        }
        let mut streams = BTreeMap::new();
        let n_streams = r.varint()?;
        for _ in 0..n_streams {
            let name = r.string()?;
            let n_events = r.varint()?;
            let mut events = Vec::with_capacity(n_events.min(1 << 20) as usize);
            for _ in 0..n_events {
                let kind = r.varint()?;
                if kind > u64::from(u16::MAX) {
                    return Err(LogError::Malformed("event kind exceeds u16"));
                }
                let payload = r.varint()?;
                events.push(Event {
                    kind: kind as u16,
                    payload,
                });
            }
            streams.insert(name, events);
        }
        Ok(RecordLog {
            version,
            meta,
            streams,
        })
    }

    /// Total events across all streams.
    pub fn total_events(&self) -> usize {
        self.streams.values().map(Vec::len).sum()
    }

    /// Writes the encoded log to a file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads and decodes a log file.
    pub fn read_from(path: &std::path::Path) -> std::io::Result<Result<RecordLog, LogError>> {
        Ok(RecordLog::decode(&std::fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> RecordLog {
        let session = Session::recorder();
        session.set_meta("scenario", "unit");
        session.set_meta("seed", "42");
        let clock = session.stream("clock:cpu0");
        let fault = session.stream("fault:dispatch");
        clock.emit(kind::CLOCK_CHARGE, 125);
        clock.emit(kind::CLOCK_CHARGE, 250);
        clock.emit(kind::CLOCK_ADVANCE, 9000);
        assert_eq!(fault.resolve(kind::FAULT_DISPATCH, || 7), 7);
        session.finish()
    }

    #[test]
    fn encode_decode_round_trips() {
        let log = sample_log();
        let decoded = RecordLog::decode(&log.encode()).expect("decodes");
        assert_eq!(decoded, log);
        assert_eq!(decoded.version, FORMAT_VERSION);
        assert_eq!(decoded.meta["seed"], "42");
        assert_eq!(decoded.total_events(), 4);
    }

    #[test]
    fn live_session_records_nothing() {
        let session = Session::live();
        let h = session.stream("clock:cpu0");
        h.emit(kind::CLOCK_CHARGE, 1);
        assert_eq!(h.resolve(kind::FAULT_DISPATCH, || 3), 3);
        assert_eq!(session.finish().total_events(), 0);
    }

    #[test]
    fn replay_answers_resolved_decisions_from_log() {
        let log = sample_log();
        let session = Session::replayer(&log);
        let fault = session.stream("fault:dispatch");
        // The live closure must not run: the log answers.
        assert_eq!(
            fault.resolve(kind::FAULT_DISPATCH, || panic!("live ran")),
            7
        );
        assert!(session.divergence().is_none());
        assert_eq!(session.meta("scenario").as_deref(), Some("unit"));
    }

    #[test]
    fn replay_checks_emitted_decisions() {
        let log = sample_log();
        let session = Session::replayer(&log);
        let clock = session.stream("clock:cpu0");
        clock.emit(kind::CLOCK_CHARGE, 125);
        clock.emit(kind::CLOCK_CHARGE, 999); // recorded 250
        clock.emit(kind::CLOCK_ADVANCE, 9000); // after divergence: ignored
        let d = session.divergence().expect("diverged");
        assert_eq!(d.site, "clock:cpu0");
        assert_eq!(d.seq, 1);
        assert_eq!(
            d.expected,
            Some(Event {
                kind: kind::CLOCK_CHARGE,
                payload: 250
            })
        );
        assert_eq!(d.got.payload, 999);
        assert!(d.to_string().contains("clock:cpu0#1"));
    }

    #[test]
    fn replay_diverges_on_exhausted_stream() {
        let log = sample_log();
        let session = Session::replayer(&log);
        let fault = session.stream("fault:dispatch");
        assert_eq!(fault.expect(kind::FAULT_DISPATCH), Some(7));
        assert_eq!(fault.expect(kind::FAULT_DISPATCH), None);
        let d = session.divergence().expect("exhausted stream diverges");
        assert_eq!(d.seq, 1);
        assert!(d.expected.is_none());
        assert!(d.to_string().contains("log exhausted"));
    }

    #[test]
    fn replay_diverges_on_kind_mismatch_then_falls_back_live() {
        let log = sample_log();
        let session = Session::replayer(&log);
        let fault = session.stream("fault:dispatch");
        assert_eq!(fault.resolve(kind::FAULT_FORGE, || 1), 1, "live fallback");
        let d = session.divergence().expect("kind mismatch diverges");
        assert_eq!(d.site, "fault:dispatch");
        assert_eq!(d.got.kind, kind::FAULT_FORGE);
    }

    #[test]
    fn unconsumed_counts_leftovers() {
        let log = sample_log();
        let session = Session::replayer(&log);
        let clock = session.stream("clock:cpu0");
        clock.emit(kind::CLOCK_CHARGE, 125);
        assert_eq!(session.unconsumed(), 3);
        assert!(session.divergence().is_none());
    }

    #[test]
    fn decode_rejects_garbage_with_structured_errors() {
        assert_eq!(RecordLog::decode(b"np"), Err(LogError::Truncated(2)));
        assert_eq!(RecordLog::decode(b"nope"), Err(LogError::BadMagic));
        assert_eq!(
            RecordLog::decode(b"XLOG\x01\x00\x00\x00\x00\x00"),
            Err(LogError::BadMagic)
        );
        assert_eq!(
            RecordLog::decode(b"RLOG\xff\x00\x00\x00\x00\x00"),
            Err(LogError::UnsupportedVersion(255))
        );
        let mut truncated = sample_log().encode();
        truncated.truncate(truncated.len() - 1);
        assert!(matches!(
            RecordLog::decode(&truncated),
            Err(LogError::Truncated(_))
        ));
    }

    #[test]
    fn varints_round_trip_large_payloads() {
        let mut log = sample_log();
        log.streams.insert(
            "big".to_string(),
            vec![Event {
                kind: kind::CLOCK_ADVANCE,
                payload: u64::MAX,
            }],
        );
        let decoded = RecordLog::decode(&log.encode()).expect("decodes");
        assert_eq!(decoded.streams["big"][0].payload, u64::MAX);
    }
}
