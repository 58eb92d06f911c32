//! Deterministic fault injection.
//!
//! The LRPC paper's robustness story (Section 5.3) is exercised here by a
//! seeded, fully deterministic *fault plan*: a set of knobs — all zero by
//! default — that the layers above consult at well-known injection sites.
//! A [`FaultPlan`] owns one [`splitmix64`]-derived pseudo-random stream
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
use std::collections::HashMap;
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
#[derive(Clone, Debug, Default, PartialEq)]
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
        *self == FaultConfig::with_seed(self.seed)
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

    /// The faults this decision injects, in log order.
    fn events(&self) -> impl Iterator<Item = FaultKind> {
        [
            (self.delay_us > 0).then_some(FaultKind::DispatchDelayed { us: self.delay_us }),
            self.terminate_server.then_some(FaultKind::ServerTerminated),
            self.hang.then_some(FaultKind::ServerHang),
            self.panic.then_some(FaultKind::ServerPanic),
        ]
        .into_iter()
        .flatten()
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

    /// The faults this decision injects, in log order; a packet lost for
    /// good logs only its loss.
    fn events(&self) -> impl Iterator<Item = FaultKind> {
        let arrived = !self.lost_forever;
        [
            self.lost_forever.then_some(FaultKind::PacketLost),
            (arrived && self.retransmissions > 0).then_some(FaultKind::PacketRetransmitted {
                retransmissions: self.retransmissions,
            }),
            (arrived && self.duplicated).then_some(FaultKind::PacketDuplicated),
            (arrived && self.delay_us > 0)
                .then_some(FaultKind::PacketDelayed { us: self.delay_us }),
        ]
        .into_iter()
        .flatten()
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

/// One injection site's state.
struct Site {
    /// The site's pseudo-random stream.
    rng: u64,
    /// The site's `fault:{site}` decision stream, opened on the site's
    /// first decision after a session is attached.
    stream: Option<replay::Handle>,
}

/// A seeded, deterministic fault plan.
///
/// Thread-safe and shared by `Arc`; the layers that consult it hold one
/// optional `Arc<FaultPlan>` each. All counters are plan-global, so "every
/// Nth dispatch" counts dispatches across all servers sharing the plan.
pub struct FaultPlan {
    config: FaultConfig,
    sites: Mutex<HashMap<String, Site>>,
    log: Mutex<Vec<FaultEvent>>,
    dispatches: AtomicU64,
    calls: AtomicU64,
    ring_enqueues: AtomicU64,
    doorbells: AtomicU64,
    terminated: AtomicBool,
    gate: HangGate,
    /// Record/replay session: when set (non-live), every decision this
    /// plan makes flows through its site's decision stream — recorded
    /// outcomes in record mode, log-answered outcomes in replay mode (the
    /// plan's own RNG and counters are not consulted at all).
    rr: OnceLock<Arc<replay::Session>>,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(config: FaultConfig) -> Arc<FaultPlan> {
        if !config.is_quiescent() {
            note_active_config(&config);
        }
        Arc::new(FaultPlan {
            config,
            sites: Mutex::new(HashMap::new()),
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

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Runs `f` on `site`'s state, creating it on first use. A known site
    /// is looked up by `&str`, so naming it allocates nothing.
    fn with_site<R>(&self, site: &str, f: impl FnOnce(&mut Site) -> R) -> R {
        let mut sites = self.sites.lock();
        if let Some(state) = sites.get_mut(site) {
            return f(state);
        }
        f(sites.entry(site.to_string()).or_insert_with(|| Site {
            rng: self.config.seed ^ fnv1a(site),
            stream: None,
        }))
    }

    /// Next pseudo-random draw from `site`'s stream.
    fn draw(&self, site: &str) -> u64 {
        self.with_site(site, |state| splitmix64(&mut state.rng))
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

    /// Resolves one decision at `site`, packed as a payload of `kind`.
    /// `live()` draws it; with a session attached, the site's
    /// `fault:{site}` stream records the outcome, or in replay mode
    /// answers it from the log instead.
    fn decide(&self, site: &str, kind: u16, live: impl FnOnce() -> u64) -> u64 {
        let Some(session) = self.rr.get() else {
            return live();
        };
        let stream = self.with_site(site, |state| {
            state
                .stream
                .get_or_insert_with(|| session.stream(&format!("fault:{site}")))
                .clone()
        });
        stream.resolve(kind, live)
    }

    /// Appends `events` from `site` to the globally sequenced log.
    fn record(&self, site: &str, events: impl IntoIterator<Item = FaultKind>) {
        for kind in events {
            let mut log = self.log.lock();
            let seq = log.len() as u64;
            log.push(FaultEvent {
                seq,
                site: site.to_string(),
                kind,
            });
        }
    }

    /// A yes/no decision at `site` that `fire()` draws live; a yes logs
    /// `event`.
    fn yes_no(&self, site: &str, kind: u16, event: FaultKind, fire: impl FnOnce() -> bool) -> bool {
        let fired = self.decide(site, kind, || u64::from(fire())) != 0;
        self.record(site, fired.then_some(event));
        fired
    }

    /// A yes/no decision that fires on every `every`th tick of `counter`
    /// (never when `every` is 0, which leaves the counter alone).
    fn every_nth(
        &self,
        site: &str,
        kind: u16,
        event: FaultKind,
        every: u64,
        counter: &AtomicU64,
    ) -> bool {
        self.yes_no(site, kind, event, || {
            every != 0 && (counter.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every)
        })
    }

    /// Decides the fate of one server dispatch at `site` and records any
    /// injected faults. Counters advance even when nothing fires, so the
    /// Nth dispatch is the Nth dispatch regardless of other knobs.
    pub fn dispatch_fault(&self, site: &str) -> DispatchFault {
        let c = &self.config;
        let payload = self.decide(site, replay::kind::FAULT_DISPATCH, || {
            let n = self.dispatches.fetch_add(1, Ordering::Relaxed) + 1;
            let every = |k: u64| k != 0 && n.is_multiple_of(k);
            DispatchFault {
                delay_us: c.dispatch_delay_us,
                terminate_server: c.terminate_server_after != 0
                    && n >= c.terminate_server_after
                    && self
                        .terminated
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok(),
                hang: every(c.server_hang_every),
                panic: every(c.server_panic_every),
            }
            .pack()
        });
        let fault = DispatchFault::unpack(payload);
        if fault.terminate_server {
            // A replayed termination marks the plan too, so a live draw
            // after a divergence cannot terminate the server again.
            self.terminated.store(true, Ordering::Release);
        }
        self.record(site, fault.events());
        fault
    }

    /// Decides the fate of one packet transmission at `site` and records
    /// any injected faults.
    pub fn packet_fate(&self, site: &str) -> PacketFate {
        let c = &self.config;
        let payload = self.decide(site, replay::kind::FAULT_PACKET, || {
            let mut fate = PacketFate::default();
            while self.roll(site, c.packet_loss) {
                fate.retransmissions += 1;
                if fate.retransmissions >= MAX_RETRANSMISSIONS {
                    fate.lost_forever = true;
                    return fate.pack();
                }
            }
            fate.duplicated = self.roll(site, c.packet_dup);
            if c.packet_delay_us > 0 && self.roll(site, c.packet_delay_prob) {
                fate.delay_us = c.packet_delay_us;
            }
            fate.pack()
        });
        let fate = PacketFate::unpack(payload);
        self.record(site, fate.events());
        fate
    }

    /// True if this call (plan-global counter) should present a forged
    /// Binding Object. Records the event when it fires.
    pub fn forge_binding(&self, site: &str) -> bool {
        self.every_nth(
            site,
            replay::kind::FAULT_FORGE,
            FaultKind::BindingForged,
            self.config.forge_binding_every,
            &self.calls,
        )
    }

    /// True if the A-stack free list should be drained before this
    /// acquire. Records the event when it fires.
    pub fn exhaust_astacks(&self, site: &str) -> bool {
        self.yes_no(
            site,
            replay::kind::FAULT_EXHAUST_ASTACKS,
            FaultKind::AStacksExhausted,
            || self.config.astack_exhaust,
        )
    }

    /// True if the bulk arena should be presented as exhausted for this
    /// large call, forcing the per-call out-of-band fallback segment.
    /// Records the event when it fires.
    pub fn exhaust_bulk(&self, site: &str) -> bool {
        self.yes_no(
            site,
            replay::kind::FAULT_EXHAUST_BULK,
            FaultKind::BulkArenaExhausted,
            || self.config.bulk_exhaust,
        )
    }

    /// True if this call-ring enqueue (plan-global counter) should find
    /// the submission ring full, degrading the call to a single-call
    /// trap. Records the event when it fires.
    pub fn ring_full(&self, site: &str) -> bool {
        self.every_nth(
            site,
            replay::kind::FAULT_RING_FULL,
            FaultKind::RingFull,
            self.config.ring_full_every,
            &self.ring_enqueues,
        )
    }

    /// True if this doorbell (plan-global counter) should be lost in the
    /// kernel and re-rung at the cost of one extra trap. Records the
    /// event when it fires.
    pub fn lose_doorbell(&self, site: &str) -> bool {
        self.every_nth(
            site,
            replay::kind::FAULT_DOORBELL_LOST,
            FaultKind::DoorbellLost,
            self.config.doorbell_lost_every,
            &self.doorbells,
        )
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
            server_hang_every: 5,
            dispatch_delay_us: 2,
            astack_exhaust: true,
            bulk_exhaust: true,
            forge_binding_every: 4,
            terminate_server_after: 7,
            ring_full_every: 3,
            doorbell_lost_every: 2,
        };
        // Draws through all seven decision methods.
        let drive = |plan: &FaultPlan| {
            let fates: Vec<PacketFate> = (0..40).map(|_| plan.packet_fate("net")).collect();
            let dispatches: Vec<DispatchFault> =
                (0..12).map(|_| plan.dispatch_fault("dispatch")).collect();
            let flags: Vec<[bool; 5]> = (0..12)
                .map(|_| {
                    [
                        plan.forge_binding("call"),
                        plan.exhaust_astacks("call:astacks"),
                        plan.exhaust_bulk("call:bulk"),
                        plan.ring_full("ring-full"),
                        plan.lose_doorbell("doorbell"),
                    ]
                })
                .collect();
            (fates, dispatches, flags)
        };
        let live = FaultPlan::new(config.clone());
        let live_decisions = drive(&live);

        let session = replay::Session::recorder();
        let plan = FaultPlan::new(config);
        plan.attach_replay(&session);
        let decisions = drive(&plan);
        let log = session.finish();

        // Replay answers every decision from the log: a default (all-zero)
        // config reproduces the exact fates, events and digest.
        let replayer = replay::Session::replayer(&log);
        let replan = FaultPlan::new(FaultConfig::default());
        replan.attach_replay(&replayer);
        assert_eq!(drive(&replan), decisions);
        assert_eq!(live_decisions, decisions, "recording changes no decision");
        assert_eq!(plan.events(), replan.events());
        assert_eq!(live.events(), plan.events());
        assert_eq!(plan.digest(), replan.digest());
        assert_eq!(live.digest(), plan.digest());
        assert!(replayer.divergence().is_none());
        assert_eq!(replayer.unconsumed(), 0);
        let fired: Vec<_> = plan
            .events()
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        for kind in [
            FaultKind::PacketRetransmitted { retransmissions: 1 },
            FaultKind::PacketLost,
            FaultKind::PacketDuplicated,
            FaultKind::PacketDelayed { us: 30 },
            FaultKind::DispatchDelayed { us: 2 },
            FaultKind::ServerPanic,
            FaultKind::ServerHang,
            FaultKind::ServerTerminated,
            FaultKind::AStacksExhausted,
            FaultKind::BulkArenaExhausted,
            FaultKind::BindingForged,
            FaultKind::RingFull,
            FaultKind::DoorbellLost,
        ] {
            assert!(
                fired.contains(&std::mem::discriminant(&kind)),
                "{kind:?} never fired"
            );
        }
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
        assert!(!plan.exhaust_astacks("a"));
        assert!(!plan.exhaust_bulk("b"));
        assert!(!plan.ring_full("r"));
        assert!(!plan.lose_doorbell("l"));
        let log = session.finish();
        assert_eq!(log.total_events(), 7);
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
