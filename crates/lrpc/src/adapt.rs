//! Histogram-driven adaptive A-stack (and call-ring) sizing.
//!
//! Section 3.1 fixes the number of A-stacks per interface at bind time
//! ("a number of A-stacks equal to the number of simultaneous calls
//! allowed") — but the *right* number is a workload property, not an IDL
//! property. This module closes the feedback loop: a controller consumes
//! what one run observed per interface — A-stack occupancy high-water
//! marks and stall events from [`crate::astack::AStackSet`], batch-size
//! peaks and tail latency from [`crate::binding::BindingStats`] — and
//! recommends per-interface A-stack counts (plus ring depth for
//! batch-heavy interfaces) for the next import.
//!
//! The controller is deliberately a pure function of its snapshot: the
//! same [`ClassSnapshot`] always produces the same [`Recommendation`]
//! (the proptests pin this down), and every application of a plan is
//! emitted into the replay decision streams ([`replay::kind::ADAPT`]) so
//! a recorded adaptive run replays byte-identically.

use std::collections::BTreeMap;

/// Bounds and thresholds for the controller.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Never recommend fewer A-stacks than this.
    pub min_astacks: u32,
    /// Never recommend more A-stacks than this.
    pub max_astacks: u32,
    /// Never recommend a shallower ring than this.
    pub min_ring_slots: u32,
    /// Never recommend a deeper ring than this. A call ring is at most
    /// 256 slots deep ([`crate::CallRing::with_slots`] clamps), so larger
    /// values act as 256.
    pub max_ring_slots: u32,
    /// Interfaces whose observed p99 exceeds this get headroom beyond
    /// their bare occupancy peak even without stall events.
    pub tail_threshold_ns: u64,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            min_astacks: 2,
            max_astacks: 64,
            min_ring_slots: 16,
            max_ring_slots: 256,
            tail_threshold_ns: 1_000_000,
        }
    }
}

/// What one run observed about one A-stack class of one interface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// A-stacks the class currently has.
    pub total: u64,
    /// High-water mark of simultaneously held A-stacks.
    pub peak_in_use: u64,
    /// Times an acquire found the class exhausted.
    pub stall_events: u64,
    /// Largest batch submitted through the binding.
    pub batch_peak: u64,
    /// Observed p99 call latency, in virtual nanoseconds (0 = unknown).
    pub tail_p99_ns: u64,
}

/// The controller's output for one interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recommendation {
    /// Simultaneous-call count to allocate per procedure at import.
    pub astacks: u32,
    /// Submission/completion ring depth (slots).
    pub ring_slots: u32,
}

/// Recommends an A-stack count for one class.
///
/// Pure and monotone in the occupancy signals: more observed pressure
/// never yields a smaller recommendation, and the result is always inside
/// `[cfg.min_astacks, cfg.max_astacks]`.
pub fn recommend_class(cfg: &AdaptConfig, snap: &ClassSnapshot) -> u32 {
    // The floor every path shares: what the run actually held at once,
    // and room for the largest batch seen (a batch wants all its calls'
    // A-stacks concurrently to avoid mid-batch flush stalls).
    let mut want = snap.peak_in_use.max(snap.batch_peak);
    if snap.stall_events > 0 {
        // The class ran dry: the peak is a ceiling imposed by the old
        // total, not the demand. Double the old total and add headroom
        // proportional to how often it stalled (saturating, log-ish).
        let pressure = 64 - u64::from(snap.stall_events.leading_zeros());
        want = want
            .max(snap.total.saturating_mul(2))
            .saturating_add(pressure);
    } else if snap.tail_p99_ns > cfg.tail_threshold_ns && snap.peak_in_use >= snap.total {
        // No hard stall, but the tail is bad and the class was saturated
        // at its peak: give one headroom stack.
        want = want.saturating_add(1);
    }
    u32::try_from(want)
        .unwrap_or(u32::MAX)
        .clamp(cfg.min_astacks, cfg.max_astacks)
}

/// Recommends a ring depth from the observed batch peak: the next power
/// of two above twice the peak (submission and completion descriptors
/// share the ring), clamped to the configured bounds.
pub fn recommend_ring(cfg: &AdaptConfig, snap: &ClassSnapshot) -> u32 {
    let want = snap
        .batch_peak
        .saturating_mul(2)
        .max(u64::from(cfg.min_ring_slots))
        .next_power_of_two();
    u32::try_from(want)
        .unwrap_or(u32::MAX)
        .clamp(cfg.min_ring_slots, cfg.max_ring_slots)
}

/// Recommends both knobs for one interface.
pub fn recommend(cfg: &AdaptConfig, snap: &ClassSnapshot) -> Recommendation {
    Recommendation {
        astacks: recommend_class(cfg, snap),
        ring_slots: recommend_ring(cfg, snap),
    }
}

/// A full sizing plan: one recommendation per interface name. Attached to
/// [`crate::RuntimeConfig::adapt`], it overrides the PDL's static
/// `simultaneous_calls` guesses (and the default ring depth) at import
/// time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptPlan {
    /// Interface name → recommendation.
    pub per_interface: BTreeMap<String, Recommendation>,
}

impl AdaptPlan {
    /// The recommendation for `interface`, if the plan has one.
    pub fn get(&self, interface: &str) -> Option<Recommendation> {
        self.per_interface.get(interface).copied()
    }

    /// Packs a recommendation into one replay-event payload
    /// (`astacks << 32 | ring_slots`).
    pub fn pack(rec: Recommendation) -> u64 {
        (u64::from(rec.astacks) << 32) | u64::from(rec.ring_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_interface_gets_the_floor() {
        let cfg = AdaptConfig::default();
        let snap = ClassSnapshot::default();
        assert_eq!(recommend_class(&cfg, &snap), cfg.min_astacks);
        assert_eq!(recommend_ring(&cfg, &snap), cfg.min_ring_slots);
    }

    #[test]
    fn stalls_double_the_total() {
        let cfg = AdaptConfig::default();
        let snap = ClassSnapshot {
            total: 2,
            peak_in_use: 2,
            stall_events: 3,
            ..ClassSnapshot::default()
        };
        let rec = recommend_class(&cfg, &snap);
        assert!(rec >= 4, "stalled class at least doubles, got {rec}");
    }

    #[test]
    fn batch_peak_drives_ring_depth() {
        let cfg = AdaptConfig::default();
        let snap = ClassSnapshot {
            batch_peak: 24,
            ..ClassSnapshot::default()
        };
        assert_eq!(recommend_ring(&cfg, &snap), 64);
        assert!(recommend_class(&cfg, &snap) >= 24);
    }

    #[test]
    fn recommendations_respect_the_ceiling() {
        let cfg = AdaptConfig::default();
        let snap = ClassSnapshot {
            total: 1_000,
            peak_in_use: 1_000,
            stall_events: u64::MAX,
            batch_peak: 1_000,
            tail_p99_ns: u64::MAX,
        };
        assert_eq!(recommend_class(&cfg, &snap), cfg.max_astacks);
        assert_eq!(recommend_ring(&cfg, &snap), cfg.max_ring_slots);
    }

    #[test]
    fn saturated_bad_tail_gets_headroom() {
        let cfg = AdaptConfig::default();
        let snap = ClassSnapshot {
            total: 4,
            peak_in_use: 4,
            tail_p99_ns: cfg.tail_threshold_ns + 1,
            ..ClassSnapshot::default()
        };
        assert_eq!(recommend_class(&cfg, &snap), 5);
    }

    #[test]
    fn pack_round_trips_fields() {
        let rec = Recommendation {
            astacks: 7,
            ring_slots: 128,
        };
        let p = AdaptPlan::pack(rec);
        assert_eq!(p >> 32, 7);
        assert_eq!(p & 0xFFFF_FFFF, 128);
    }
}
