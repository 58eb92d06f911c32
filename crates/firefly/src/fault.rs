//! Deterministic fault injection.
//!
//! The LRPC paper's robustness story (Section 5.3) is exercised here by a
//! seeded, fully deterministic *fault plan*: a set of knobs — all zero by
//! default — that the layers above consult at well-known injection sites.
//! A [`FaultPlan`] owns one [`SplitMix64`]-derived pseudo-random stream
//! *per site* (keyed by the site's name), so the fate decided at one site
//! never depends on how many decisions another site has made. Every
//! decision that actually injects a fault is appended to a globally
//! sequenced event log; replaying the same workload under the same seed
//! reproduces the log bit-for-bit, which the chaos tests assert.
//!
//! The plan decides *what* goes wrong; it never touches the machinery
//! itself. Injection sites feed the decision into the **real** failure
//! paths — an injected server panic unwinds through the clerk's
//! `catch_unwind`, an injected termination runs the real Section 5.3
//! collector, a hung server really captures the client's thread until the
//! watchdog abandons it.

use core::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

use parking_lot::{Condvar, Mutex};

use crate::time::Nanos;

/// How many times a lost packet is retransmitted before the sender gives
/// up and reports a network failure.
pub const MAX_RETRANSMISSIONS: u32 = 4;

/// The fault-injection knobs. `FaultConfig::default()` is all-zero: a plan
/// built from it never injects anything and charges no extra virtual time,
/// so a disabled plan is observationally identical to no plan at all.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for every per-site pseudo-random stream.
    pub seed: u64,
    /// Probability that any one packet transmission is lost (each loss
    /// costs one retransmission; [`MAX_RETRANSMISSIONS`] consecutive
    /// losses lose the packet for good).
    pub packet_loss: f64,
    /// Probability that a packet is duplicated in flight (the receiver
    /// pays one extra processing charge).
    pub packet_dup: f64,
    /// Probability that a packet is delayed in flight.
    pub packet_delay_prob: f64,
    /// Delay applied to a delayed packet, in microseconds.
    pub packet_delay_us: u64,
    /// Every Nth server dispatch panics inside the procedure (0 = never).
    pub server_panic_every: u64,
    /// Every Nth server dispatch hangs, capturing the client's thread
    /// until [`FaultPlan::release_hangs`] (0 = never).
    pub server_hang_every: u64,
    /// Extra scheduling delay charged to every dispatch, in microseconds.
    pub dispatch_delay_us: u64,
    /// Drain the procedure's A-stack free list just before each acquire,
    /// forcing the exhaustion path.
    pub astack_exhaust: bool,
    /// Present the binding's bulk arena as exhausted before each large
    /// call, forcing the per-call out-of-band fallback segment.
    pub bulk_exhaust: bool,
    /// Every Nth call presents a forged Binding Object (wrong nonce) to
    /// the kernel (0 = never).
    pub forge_binding_every: u64,
    /// Terminate the server domain from inside its Nth dispatch — once
    /// (0 = never).
    pub terminate_server_after: u64,
    /// Every Nth call-ring enqueue finds the submission ring full,
    /// forcing the caller to degrade that call to a single-call trap
    /// (0 = never).
    pub ring_full_every: u64,
    /// Every Nth doorbell is lost in the kernel and must be re-rung,
    /// costing the batch an extra trap (0 = never).
    pub doorbell_lost_every: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            packet_loss: 0.0,
            packet_dup: 0.0,
            packet_delay_prob: 0.0,
            packet_delay_us: 0,
            server_panic_every: 0,
            server_hang_every: 0,
            dispatch_delay_us: 0,
            astack_exhaust: false,
            bulk_exhaust: false,
            forge_binding_every: 0,
            terminate_server_after: 0,
            ring_full_every: 0,
            doorbell_lost_every: 0,
        }
    }
}

impl FaultConfig {
    /// An all-zero config with the given seed.
    pub fn with_seed(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// True if no knob is set; such a config can never inject.
    pub fn is_quiescent(&self) -> bool {
        self.packet_loss == 0.0
            && self.packet_dup == 0.0
            && self.packet_delay_prob == 0.0
            && self.server_panic_every == 0
            && self.server_hang_every == 0
            && self.dispatch_delay_us == 0
            && !self.astack_exhaust
            && !self.bulk_exhaust
            && self.forge_binding_every == 0
            && self.terminate_server_after == 0
            && self.ring_full_every == 0
            && self.doorbell_lost_every == 0
    }
}

/// One injected fault, as recorded in the plan's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global sequence number (0-based, over all sites).
    pub seq: u64,
    /// Name of the injection site that recorded the event.
    pub site: String,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {:?}", self.seq, self.site, self.kind)
    }
}

/// The kinds of fault the plan can inject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A packet was lost `retransmissions` times before getting through.
    PacketRetransmitted {
        /// Number of retransmissions that were needed.
        retransmissions: u32,
    },
    /// A packet was lost [`MAX_RETRANSMISSIONS`] times in a row.
    PacketLost,
    /// A packet was duplicated in flight.
    PacketDuplicated,
    /// A packet was delayed in flight.
    PacketDelayed {
        /// Extra in-flight time, microseconds.
        us: u64,
    },
    /// A server dispatch was delayed before running.
    DispatchDelayed {
        /// Extra scheduling time, microseconds.
        us: u64,
    },
    /// A server procedure panicked.
    ServerPanic,
    /// A server procedure hung, capturing the client's thread.
    ServerHang,
    /// The server domain was terminated from inside a dispatch.
    ServerTerminated,
    /// A class's A-stack free list was drained before an acquire.
    AStacksExhausted,
    /// The bulk arena was presented as exhausted before a large call.
    BulkArenaExhausted,
    /// A forged Binding Object was presented to the kernel.
    BindingForged,
    /// The submission ring was presented as full; the call degraded to
    /// a single-call trap.
    RingFull,
    /// A doorbell was lost in the kernel and re-rung (one extra trap).
    DoorbellLost,
}

/// What the plan decided for one server dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchFault {
    /// Extra scheduling delay to charge before running, microseconds.
    pub delay_us: u64,
    /// Terminate the server's domain from inside this dispatch.
    pub terminate_server: bool,
    /// Hang on the plan's gate (captures the calling thread).
    pub hang: bool,
    /// Panic inside the server procedure.
    pub panic: bool,
}

impl DispatchFault {
    /// Packs the decision into one replay-log payload word.
    fn pack(&self) -> u64 {
        (self.delay_us << 3)
            | (u64::from(self.terminate_server) << 2)
            | (u64::from(self.hang) << 1)
            | u64::from(self.panic)
    }

    /// Inverse of [`DispatchFault::pack`].
    fn unpack(payload: u64) -> DispatchFault {
        DispatchFault {
            delay_us: payload >> 3,
            terminate_server: payload & 0b100 != 0,
            hang: payload & 0b010 != 0,
            panic: payload & 0b001 != 0,
        }
    }
}

/// What the plan decided for one packet transmission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketFate {
    /// Times the packet had to be retransmitted (each costs a full send).
    pub retransmissions: u32,
    /// The packet never arrived, even after [`MAX_RETRANSMISSIONS`].
    pub lost_forever: bool,
    /// The packet was duplicated (receiver pays extra processing).
    pub duplicated: bool,
    /// Extra in-flight delay, microseconds.
    pub delay_us: u64,
}

impl PacketFate {
    /// Packs the decision into one replay-log payload word
    /// (retransmissions fit in 6 bits: they are capped at
    /// [`MAX_RETRANSMISSIONS`]).
    fn pack(&self) -> u64 {
        u64::from(self.retransmissions & 0x3F)
            | (u64::from(self.lost_forever) << 6)
            | (u64::from(self.duplicated) << 7)
            | (self.delay_us << 8)
    }

    /// Inverse of [`PacketFate::pack`].
    fn unpack(payload: u64) -> PacketFate {
        PacketFate {
            retransmissions: (payload & 0x3F) as u32,
            lost_forever: payload & 0x40 != 0,
            duplicated: payload & 0x80 != 0,
            delay_us: payload >> 8,
        }
    }
}

/// SplitMix64 — the tiny, well-distributed generator used for every
/// per-site stream (no dependency on the `rand` crate from this layer).
/// Public so recovery policies can derive their jitter from the same
/// deterministic source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a site name — folds the name into the seed so each site
/// gets an independent stream.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn unit_f64(bits: u64) -> f64 {
    // 53 high bits → [0, 1).
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

struct HangGate {
    released: Mutex<bool>,
    cond: Condvar,
}

/// A seeded, deterministic fault plan.
///
/// Thread-safe and shared by `Arc`; the layers that consult it hold one
/// optional `Arc<FaultPlan>` each. All counters are plan-global, so "every
/// Nth dispatch" counts dispatches across all servers sharing the plan.
pub struct FaultPlan {
    config: FaultConfig,
    sites: Mutex<std::collections::HashMap<String, u64>>,
    log: Mutex<Vec<FaultEvent>>,
    dispatches: AtomicU64,
    calls: AtomicU64,
    ring_enqueues: AtomicU64,
    doorbells: AtomicU64,
    terminated: AtomicBool,
    gate: HangGate,
    /// Record/replay session: when set (non-live), every decision this
    /// plan makes flows through a per-site `fault:{site}` stream —
    /// recorded outcomes in record mode, log-answered outcomes in replay
    /// mode (the plan's own RNG and counters are not consulted at all).
    rr: OnceLock<Arc<replay::Session>>,
    /// Cached stream handles, keyed by site name.
    rr_handles: Mutex<std::collections::HashMap<String, replay::Handle>>,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(config: FaultConfig) -> Arc<FaultPlan> {
        if !config.is_quiescent() {
            note_active_config(&config);
        }
        Arc::new(FaultPlan {
            config,
            sites: Mutex::new(std::collections::HashMap::new()),
            log: Mutex::new(Vec::new()),
            dispatches: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            ring_enqueues: AtomicU64::new(0),
            doorbells: AtomicU64::new(0),
            terminated: AtomicBool::new(false),
            gate: HangGate {
                released: Mutex::new(false),
                cond: Condvar::new(),
            },
            rr: OnceLock::new(),
            rr_handles: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Attaches a record/replay session. Live sessions are ignored (the
    /// plan keeps deciding from its own seeded streams with zero
    /// overhead); a second attach is ignored.
    pub fn attach_replay(&self, session: &Arc<replay::Session>) {
        if session.is_live() {
            return;
        }
        let _ = self.rr.set(Arc::clone(session));
    }

    /// The cached `fault:{site}` stream handle, if a session is attached.
    fn rr_handle(&self, site: &str) -> Option<replay::Handle> {
        let session = self.rr.get()?;
        let mut handles = self.rr_handles.lock();
        Some(match handles.get(site) {
            Some(h) => h.clone(),
            None => {
                let h = session.stream(&format!("fault:{site}"));
                handles.insert(site.to_string(), h.clone());
                h
            }
        })
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Next pseudo-random draw from `site`'s stream.
    fn draw(&self, site: &str) -> u64 {
        let mut sites = self.sites.lock();
        if let Some(state) = sites.get_mut(site) {
            return splitmix64(state);
        }
        let state = sites
            .entry(site.to_string())
            .or_insert_with(|| self.config.seed ^ fnv1a(site));
        splitmix64(state)
    }

    fn roll(&self, site: &str, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        unit_f64(self.draw(site)) < p
    }

    /// Appends an event to the globally sequenced log.
    fn record(&self, site: &str, kind: FaultKind) {
        let mut log = self.log.lock();
        let seq = log.len() as u64;
        log.push(FaultEvent {
            seq,
            site: site.to_string(),
            kind,
        });
    }

    /// Decides the fate of one server dispatch at `site` and records any
    /// injected faults. Counters advance even when nothing fires, so the
    /// Nth dispatch is the Nth dispatch regardless of other knobs.
    pub fn dispatch_fault(&self, site: &str) -> DispatchFault {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_DISPATCH) {
                let fault = DispatchFault::unpack(payload);
                self.record_dispatch(site, &fault);
                return fault;
            }
            let fault = self.dispatch_fault_live(site);
            h.emit(replay::kind::FAULT_DISPATCH, fault.pack());
            return fault;
        }
        if self.config.is_quiescent() {
            return DispatchFault::default();
        }
        self.dispatch_fault_live(site)
    }

    /// Appends the event-log entries a replayed dispatch decision implies,
    /// in the same order the live path records them.
    fn record_dispatch(&self, site: &str, fault: &DispatchFault) {
        if fault.delay_us > 0 {
            self.record(site, FaultKind::DispatchDelayed { us: fault.delay_us });
        }
        if fault.terminate_server {
            self.terminated.store(true, Ordering::Release);
            self.record(site, FaultKind::ServerTerminated);
        }
        if fault.hang {
            self.record(site, FaultKind::ServerHang);
        }
        if fault.panic {
            self.record(site, FaultKind::ServerPanic);
        }
    }

    fn dispatch_fault_live(&self, site: &str) -> DispatchFault {
        let n = self.dispatches.fetch_add(1, Ordering::Relaxed) + 1;
        let mut fault = DispatchFault {
            delay_us: self.config.dispatch_delay_us,
            ..DispatchFault::default()
        };
        if fault.delay_us > 0 {
            self.record(site, FaultKind::DispatchDelayed { us: fault.delay_us });
        }
        if self.config.terminate_server_after != 0
            && n >= self.config.terminate_server_after
            && self
                .terminated
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            fault.terminate_server = true;
            self.record(site, FaultKind::ServerTerminated);
        }
        if self.config.server_hang_every != 0 && n.is_multiple_of(self.config.server_hang_every) {
            fault.hang = true;
            self.record(site, FaultKind::ServerHang);
        }
        if self.config.server_panic_every != 0 && n.is_multiple_of(self.config.server_panic_every) {
            fault.panic = true;
            self.record(site, FaultKind::ServerPanic);
        }
        fault
    }

    /// Decides the fate of one packet transmission at `site` and records
    /// any injected faults.
    pub fn packet_fate(&self, site: &str) -> PacketFate {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_PACKET) {
                let fate = PacketFate::unpack(payload);
                self.record_packet(site, &fate);
                return fate;
            }
            let fate = self.packet_fate_live(site);
            h.emit(replay::kind::FAULT_PACKET, fate.pack());
            return fate;
        }
        if self.config.packet_loss == 0.0
            && self.config.packet_dup == 0.0
            && self.config.packet_delay_prob == 0.0
        {
            return PacketFate::default();
        }
        self.packet_fate_live(site)
    }

    /// Appends the event-log entries a replayed packet decision implies,
    /// in the same order the live path records them.
    fn record_packet(&self, site: &str, fate: &PacketFate) {
        if fate.lost_forever {
            self.record(site, FaultKind::PacketLost);
            return;
        }
        if fate.retransmissions > 0 {
            self.record(
                site,
                FaultKind::PacketRetransmitted {
                    retransmissions: fate.retransmissions,
                },
            );
        }
        if fate.duplicated {
            self.record(site, FaultKind::PacketDuplicated);
        }
        if fate.delay_us > 0 {
            self.record(site, FaultKind::PacketDelayed { us: fate.delay_us });
        }
    }

    fn packet_fate_live(&self, site: &str) -> PacketFate {
        let mut fate = PacketFate::default();
        while self.roll(site, self.config.packet_loss) {
            fate.retransmissions += 1;
            if fate.retransmissions >= MAX_RETRANSMISSIONS {
                fate.lost_forever = true;
                self.record(site, FaultKind::PacketLost);
                return fate;
            }
        }
        if fate.retransmissions > 0 {
            self.record(
                site,
                FaultKind::PacketRetransmitted {
                    retransmissions: fate.retransmissions,
                },
            );
        }
        if self.roll(site, self.config.packet_dup) {
            fate.duplicated = true;
            self.record(site, FaultKind::PacketDuplicated);
        }
        if self.config.packet_delay_us > 0 && self.roll(site, self.config.packet_delay_prob) {
            fate.delay_us = self.config.packet_delay_us;
            self.record(site, FaultKind::PacketDelayed { us: fate.delay_us });
        }
        fate
    }

    /// True if this call (plan-global counter) should present a forged
    /// Binding Object. Records the event when it fires.
    pub fn forge_binding(&self, site: &str) -> bool {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_FORGE) {
                if payload != 0 {
                    self.record(site, FaultKind::BindingForged);
                }
                return payload != 0;
            }
            let fire = self.forge_binding_live(site);
            h.emit(replay::kind::FAULT_FORGE, u64::from(fire));
            return fire;
        }
        if self.config.forge_binding_every == 0 {
            return false;
        }
        self.forge_binding_live(site)
    }

    fn forge_binding_live(&self, site: &str) -> bool {
        if self.config.forge_binding_every == 0 {
            return false;
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = n.is_multiple_of(self.config.forge_binding_every);
        if fire {
            self.record(site, FaultKind::BindingForged);
        }
        fire
    }

    /// True if the A-stack free list should be drained before this
    /// acquire. Records the event when it fires.
    pub fn exhaust_astacks(&self, site: &str) -> bool {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_EXHAUST_ASTACKS) {
                if payload != 0 {
                    self.record(site, FaultKind::AStacksExhausted);
                }
                return payload != 0;
            }
            let fire = self.config.astack_exhaust;
            if fire {
                self.record(site, FaultKind::AStacksExhausted);
            }
            h.emit(replay::kind::FAULT_EXHAUST_ASTACKS, u64::from(fire));
            return fire;
        }
        if self.config.astack_exhaust {
            self.record(site, FaultKind::AStacksExhausted);
        }
        self.config.astack_exhaust
    }

    /// True if the bulk arena should be presented as exhausted for this
    /// large call, forcing the per-call out-of-band fallback segment.
    /// Records the event when it fires.
    pub fn exhaust_bulk(&self, site: &str) -> bool {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_EXHAUST_BULK) {
                if payload != 0 {
                    self.record(site, FaultKind::BulkArenaExhausted);
                }
                return payload != 0;
            }
            let fire = self.config.bulk_exhaust;
            if fire {
                self.record(site, FaultKind::BulkArenaExhausted);
            }
            h.emit(replay::kind::FAULT_EXHAUST_BULK, u64::from(fire));
            return fire;
        }
        if self.config.bulk_exhaust {
            self.record(site, FaultKind::BulkArenaExhausted);
        }
        self.config.bulk_exhaust
    }

    /// True if this call-ring enqueue (plan-global counter) should find
    /// the submission ring full, degrading the call to a single-call
    /// trap. Records the event when it fires.
    pub fn ring_full(&self, site: &str) -> bool {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_RING_FULL) {
                if payload != 0 {
                    self.record(site, FaultKind::RingFull);
                }
                return payload != 0;
            }
            let fire = self.ring_full_live(site);
            h.emit(replay::kind::FAULT_RING_FULL, u64::from(fire));
            return fire;
        }
        if self.config.ring_full_every == 0 {
            return false;
        }
        self.ring_full_live(site)
    }

    fn ring_full_live(&self, site: &str) -> bool {
        if self.config.ring_full_every == 0 {
            return false;
        }
        let n = self.ring_enqueues.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = n.is_multiple_of(self.config.ring_full_every);
        if fire {
            self.record(site, FaultKind::RingFull);
        }
        fire
    }

    /// True if this doorbell (plan-global counter) should be lost in the
    /// kernel and re-rung at the cost of one extra trap. Records the
    /// event when it fires.
    pub fn lose_doorbell(&self, site: &str) -> bool {
        if let Some(h) = self.rr_handle(site) {
            if let Some(payload) = h.expect(replay::kind::FAULT_DOORBELL_LOST) {
                if payload != 0 {
                    self.record(site, FaultKind::DoorbellLost);
                }
                return payload != 0;
            }
            let fire = self.lose_doorbell_live(site);
            h.emit(replay::kind::FAULT_DOORBELL_LOST, u64::from(fire));
            return fire;
        }
        if self.config.doorbell_lost_every == 0 {
            return false;
        }
        self.lose_doorbell_live(site)
    }

    fn lose_doorbell_live(&self, site: &str) -> bool {
        if self.config.doorbell_lost_every == 0 {
            return false;
        }
        let n = self.doorbells.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = n.is_multiple_of(self.config.doorbell_lost_every);
        if fire {
            self.record(site, FaultKind::DoorbellLost);
        }
        fire
    }

    /// Blocks the calling (captured) thread on the plan's hang gate until
    /// [`FaultPlan::release_hangs`] is called. The release flag is sticky:
    /// hangs decided after release return immediately.
    pub fn wait_while_hung(&self) {
        let mut released = self.gate.released.lock();
        while !*released {
            self.gate.cond.wait(&mut released);
        }
    }

    /// Releases every thread hung on the gate, now and in the future.
    pub fn release_hangs(&self) {
        let mut released = self.gate.released.lock();
        *released = true;
        self.gate.cond.notify_all();
    }

    /// Extra virtual time a [`PacketFate`] charges the wire, given the
    /// cost of one full (re)transmission.
    pub fn retransmission_cost(fate: &PacketFate, per_send: Nanos) -> Nanos {
        per_send * u64::from(fate.retransmissions) + Nanos::from_micros(fate.delay_us)
    }

    /// A copy of the event log so far, in global sequence order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }

    /// Number of events injected so far.
    pub fn event_count(&self) -> usize {
        self.log.lock().len()
    }

    /// An order-sensitive digest of the event log (FNV-1a over the debug
    /// rendering) — two runs injected the same faults in the same order
    /// iff their digests match.
    pub fn digest(&self) -> u64 {
        let log = self.log.lock();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for e in log.iter() {
            for b in format!("{}|{}|{:?};", e.seq, e.site, e.kind).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// The most recently constructed non-quiescent fault config, kept so a
/// panic anywhere in the process can name the seed that provoked it.
static ACTIVE_CONFIG: Mutex<Option<FaultConfig>> = Mutex::new(None);
static PANIC_HOOK: Once = Once::new();

/// Remembers `config` as the active fault plan and makes sure the
/// diagnostics panic hook is installed. Called from [`FaultPlan::new`]
/// for every non-quiescent config, so any chaos/proptest failure prints
/// the seed and knobs needed to reproduce it — no log archaeology.
fn note_active_config(config: &FaultConfig) {
    *ACTIVE_CONFIG.lock() = Some(config.clone());
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Some(line) = active_fault_diagnostics() {
                eprintln!("{line}");
            }
        }));
    });
}

/// One reproduction line describing the active fault plan, if any
/// non-quiescent plan has been constructed in this process. This is what
/// the panic hook prints; tests can call it directly.
pub fn active_fault_diagnostics() -> Option<String> {
    // try_lock: a panic hook must never block, even if the panic fired
    // while the config lock was held.
    let config = ACTIVE_CONFIG.try_lock()?.clone()?;
    Some(config.diagnostics_line())
}

impl FaultConfig {
    /// The reproduction line the panic hook prints for this config.
    pub fn diagnostics_line(&self) -> String {
        format!(
            "fault-plan active: seed={} {:?} — rebuild this FaultConfig to reproduce",
            self.seed, self
        )
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("config", &self.config)
            .field("events", &self.event_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plan_never_injects() {
        let plan = FaultPlan::new(FaultConfig::with_seed(42));
        for _ in 0..100 {
            assert_eq!(plan.dispatch_fault("dispatch"), DispatchFault::default());
            assert_eq!(plan.packet_fate("net"), PacketFate::default());
            assert!(!plan.forge_binding("call"));
            assert!(!plan.exhaust_astacks("call"));
            assert!(!plan.exhaust_bulk("call"));
            assert!(!plan.ring_full("ring"));
            assert!(!plan.lose_doorbell("ring"));
        }
        assert_eq!(plan.event_count(), 0);
        assert!(plan.config().is_quiescent());
    }

    #[test]
    fn same_seed_same_fates_and_digest() {
        let config = FaultConfig {
            seed: 7,
            packet_loss: 0.3,
            packet_dup: 0.2,
            packet_delay_prob: 0.1,
            packet_delay_us: 50,
            server_panic_every: 3,
            ..FaultConfig::default()
        };
        let run = |cfg: FaultConfig| {
            let plan = FaultPlan::new(cfg);
            let fates: Vec<PacketFate> = (0..200).map(|_| plan.packet_fate("net:req")).collect();
            let dispatches: Vec<DispatchFault> =
                (0..20).map(|_| plan.dispatch_fault("dispatch")).collect();
            (fates, dispatches, plan.digest(), plan.events())
        };
        let a = run(config.clone());
        let b = run(config.clone());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        let c = run(FaultConfig { seed: 8, ..config });
        assert_ne!(a.2, c.2, "different seed must change the fault sequence");
    }

    #[test]
    fn sites_have_independent_streams() {
        let config = FaultConfig {
            seed: 7,
            packet_loss: 0.5,
            ..FaultConfig::default()
        };
        // Drawing heavily from one site must not change another's stream.
        let plan_a = FaultPlan::new(config.clone());
        for _ in 0..1000 {
            plan_a.packet_fate("noisy");
        }
        let a: Vec<PacketFate> = (0..50).map(|_| plan_a.packet_fate("quiet")).collect();
        let plan_b = FaultPlan::new(config);
        let b: Vec<PacketFate> = (0..50).map(|_| plan_b.packet_fate("quiet")).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_nth_dispatch_fires() {
        let plan = FaultPlan::new(FaultConfig {
            server_panic_every: 4,
            server_hang_every: 6,
            ..FaultConfig::default()
        });
        let fired: Vec<(bool, bool)> = (0..12)
            .map(|_| {
                let f = plan.dispatch_fault("d");
                (f.panic, f.hang)
            })
            .collect();
        let panics: Vec<usize> = fired
            .iter()
            .enumerate()
            .filter(|(_, f)| f.0)
            .map(|(i, _)| i + 1)
            .collect();
        let hangs: Vec<usize> = fired
            .iter()
            .enumerate()
            .filter(|(_, f)| f.1)
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(panics, vec![4, 8, 12]);
        assert_eq!(hangs, vec![6, 12]);
    }

    #[test]
    fn every_nth_ring_decision_fires_and_replays() {
        let plan = FaultPlan::new(FaultConfig {
            ring_full_every: 3,
            doorbell_lost_every: 2,
            ..FaultConfig::default()
        });
        let fulls: Vec<bool> = (0..9).map(|_| plan.ring_full("ring")).collect();
        let losses: Vec<bool> = (0..6).map(|_| plan.lose_doorbell("ring")).collect();
        assert_eq!(
            fulls,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(losses, vec![false, true, false, true, false, true]);
        assert_eq!(plan.event_count(), 6);

        // Recorded decisions replay identically under an all-zero config.
        let session = replay::Session::recorder();
        let rec = FaultPlan::new(FaultConfig {
            ring_full_every: 3,
            doorbell_lost_every: 2,
            ..FaultConfig::default()
        });
        rec.attach_replay(&session);
        let rec_fulls: Vec<bool> = (0..9).map(|_| rec.ring_full("ring")).collect();
        let rec_losses: Vec<bool> = (0..6).map(|_| rec.lose_doorbell("ring")).collect();
        let log = session.finish();
        let replayer = replay::Session::replayer(&log);
        let replan = FaultPlan::new(FaultConfig::default());
        replan.attach_replay(&replayer);
        let re_fulls: Vec<bool> = (0..9).map(|_| replan.ring_full("ring")).collect();
        let re_losses: Vec<bool> = (0..6).map(|_| replan.lose_doorbell("ring")).collect();
        assert_eq!(rec_fulls, re_fulls);
        assert_eq!(rec_losses, re_losses);
        assert_eq!(rec.events(), replan.events());
        assert!(replayer.divergence().is_none());
        assert_eq!(replayer.unconsumed(), 0);
    }

    #[test]
    fn termination_fires_exactly_once() {
        let plan = FaultPlan::new(FaultConfig {
            terminate_server_after: 3,
            ..FaultConfig::default()
        });
        let terms: Vec<bool> = (0..10)
            .map(|_| plan.dispatch_fault("d").terminate_server)
            .collect();
        assert_eq!(terms.iter().filter(|&&t| t).count(), 1);
        assert!(terms[2], "fires on the 3rd dispatch");
    }

    #[test]
    fn certain_loss_gives_up_after_max_retransmissions() {
        let plan = FaultPlan::new(FaultConfig {
            packet_loss: 1.0,
            ..FaultConfig::default()
        });
        let fate = plan.packet_fate("net");
        assert!(fate.lost_forever);
        assert_eq!(fate.retransmissions, MAX_RETRANSMISSIONS);
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::PacketLost,
            "loss is logged"
        );
    }

    #[test]
    fn hang_gate_release_is_sticky() {
        let plan = FaultPlan::new(FaultConfig {
            server_hang_every: 1,
            ..FaultConfig::default()
        });
        let p = Arc::clone(&plan);
        let t = std::thread::spawn(move || p.wait_while_hung());
        std::thread::sleep(std::time::Duration::from_millis(10));
        plan.release_hangs();
        t.join().unwrap();
        // Sticky: later waits return immediately.
        plan.wait_while_hung();
    }

    #[test]
    fn retransmission_cost_accumulates() {
        let fate = PacketFate {
            retransmissions: 2,
            delay_us: 100,
            ..PacketFate::default()
        };
        assert_eq!(
            FaultPlan::retransmission_cost(&fate, Nanos::from_micros(1250)),
            Nanos::from_micros(2600)
        );
    }

    #[test]
    fn pack_unpack_round_trip() {
        let d = DispatchFault {
            delay_us: 12345,
            terminate_server: true,
            hang: false,
            panic: true,
        };
        assert_eq!(DispatchFault::unpack(d.pack()), d);
        let p = PacketFate {
            retransmissions: 3,
            lost_forever: false,
            duplicated: true,
            delay_us: 777,
        };
        assert_eq!(PacketFate::unpack(p.pack()), p);
    }

    #[test]
    fn recorded_decisions_replay_identically_under_a_different_config() {
        let config = FaultConfig {
            seed: 11,
            packet_loss: 0.4,
            packet_dup: 0.2,
            packet_delay_prob: 0.2,
            packet_delay_us: 30,
            server_panic_every: 3,
            forge_binding_every: 4,
            dispatch_delay_us: 2,
            ..FaultConfig::default()
        };
        let session = replay::Session::recorder();
        let plan = FaultPlan::new(config);
        plan.attach_replay(&session);
        let fates: Vec<PacketFate> = (0..40).map(|_| plan.packet_fate("net")).collect();
        let dispatches: Vec<DispatchFault> =
            (0..12).map(|_| plan.dispatch_fault("dispatch")).collect();
        let forges: Vec<bool> = (0..12).map(|_| plan.forge_binding("call")).collect();
        let log = session.finish();

        // Replay answers every decision from the log: a default (all-zero)
        // config reproduces the exact fates, events and digest.
        let replayer = replay::Session::replayer(&log);
        let replan = FaultPlan::new(FaultConfig::default());
        replan.attach_replay(&replayer);
        let refates: Vec<PacketFate> = (0..40).map(|_| replan.packet_fate("net")).collect();
        let redispatches: Vec<DispatchFault> =
            (0..12).map(|_| replan.dispatch_fault("dispatch")).collect();
        let reforges: Vec<bool> = (0..12).map(|_| replan.forge_binding("call")).collect();
        assert_eq!(fates, refates);
        assert_eq!(dispatches, redispatches);
        assert_eq!(forges, reforges);
        assert_eq!(plan.events(), replan.events());
        assert_eq!(plan.digest(), replan.digest());
        assert!(replayer.divergence().is_none());
        assert_eq!(replayer.unconsumed(), 0);
    }

    #[test]
    fn replay_detects_an_extra_decision() {
        let session = replay::Session::recorder();
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            server_panic_every: 2,
            ..FaultConfig::default()
        });
        plan.attach_replay(&session);
        plan.dispatch_fault("dispatch");
        plan.dispatch_fault("dispatch");
        let log = session.finish();

        let replayer = replay::Session::replayer(&log);
        let replan = FaultPlan::new(FaultConfig::default());
        replan.attach_replay(&replayer);
        replan.dispatch_fault("dispatch");
        replan.dispatch_fault("dispatch");
        replan.dispatch_fault("dispatch"); // one more than recorded
        let d = replayer.divergence().expect("extra decision diverges");
        assert_eq!(d.site, "fault:dispatch");
        assert_eq!(d.seq, 2);
        assert!(d.expected.is_none(), "stream exhausted");
    }

    #[test]
    fn quiescent_recording_still_logs_default_decisions() {
        // A quiescent config short-circuits live, but under a recorder it
        // must still emit one event per decision so the replay cursor
        // stays aligned with the recorded stream.
        let session = replay::Session::recorder();
        let plan = FaultPlan::new(FaultConfig::default());
        plan.attach_replay(&session);
        assert_eq!(plan.dispatch_fault("d"), DispatchFault::default());
        assert_eq!(plan.packet_fate("n"), PacketFate::default());
        assert!(!plan.forge_binding("c"));
        let log = session.finish();
        assert_eq!(log.total_events(), 3);
        assert_eq!(plan.event_count(), 0, "no faults were injected");
    }

    #[test]
    fn active_diagnostics_name_the_seed() {
        let config = FaultConfig {
            seed: 424_242,
            server_panic_every: 9,
            ..FaultConfig::default()
        };
        let line = config.diagnostics_line();
        assert!(line.contains("seed=424242"), "got: {line}");
        assert!(line.contains("server_panic_every: 9"), "got: {line}");
        // Constructing the plan registers it globally for the panic hook.
        // (Parallel tests race on the one global slot, so only presence
        // and shape are asserted here, not the exact seed.)
        let _plan = FaultPlan::new(config);
        let active = active_fault_diagnostics().expect("non-quiescent plan registered");
        assert!(
            active.starts_with("fault-plan active: seed="),
            "got: {active}"
        );
    }

    #[test]
    fn events_are_globally_sequenced() {
        let plan = FaultPlan::new(FaultConfig {
            server_panic_every: 1,
            packet_loss: 1.0,
            ..FaultConfig::default()
        });
        plan.dispatch_fault("d");
        plan.packet_fate("n");
        plan.dispatch_fault("d");
        let events = plan.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(plan.event_count(), 3);
        assert!(events[0].to_string().starts_with("#0 d"));
    }
}
