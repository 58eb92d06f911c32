//! Site-scale open-loop traffic: the load model for the tail benchmark.
//!
//! The paper's measurements are aggregate means over a four-day trace;
//! modern RPC evaluation lives at p99/p999 under sustained load. This
//! module scales the Section 2.2 statistics from single calls to a
//! *site*: hundreds of interfaces, tens of thousands of bindings, and a
//! seeded **open-loop** arrival process over virtual time — arrivals
//! fire on their own schedule regardless of whether the system has
//! caught up, so queueing delay lands in the measured latency instead of
//! being absorbed by a closed loop that only issues when idle.
//!
//! Three paper-derived skews shape the traffic:
//!
//! * **interface popularity** follows the Section 2.2 concentration (75 %
//!   of calls to the top 3, 95 % to the top 10, the long tail sharing the
//!   rest — the same shape as [`crate::PopularityModel::section_2_2`],
//!   defined for any interface count);
//! * **per-call procedure choice** mirrors the small-call dominance
//!   (3 of 4 serial calls are the scalar `Get`, the rest the 16-byte
//!   `Put`);
//! * **bulk payload sizes** are drawn from the Figure 1 byte histogram
//!   ([`SizeDistribution::figure_1`]), capped at the paper's 1448-byte
//!   maximum.
//!
//! The generator is pure: it emits a [`SitePlan`] — interface IDL
//! sources, a binding→interface map, and a time-ordered arrival list —
//! and knows nothing about the LRPC runtime. `bench::tail` executes the
//! plan; tests here pin determinism and the mix shares.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sizes::SizeDistribution;

/// Procedure index of the scalar `Get` (every interface).
pub const PROC_GET: usize = 0;
/// Procedure index of the 16-byte `Put` (every interface).
pub const PROC_PUT: usize = 1;
/// Procedure index of the variable-size `Send` (bulk-flavored only).
pub const PROC_SEND: usize = 2;

/// Largest `Send` payload: the Figure 1 maximum (1448 bytes) fits.
pub const SEND_MAX_BYTES: u32 = 1449;

/// Every `interfaces_per_bulk`-th interface carries the variable-size
/// `Send` procedure (and therefore a bulk arena at bind time); keeping
/// the rest scalar-only bounds arena memory at tens of thousands of
/// bindings.
pub const BULK_FLAVOR_STRIDE: usize = 4;

/// Fraction of serial calls that take the scalar `Get` (the rest `Put`).
pub const GET_SHARE: f64 = 0.75;

/// Parameters of one site traffic run. Everything that affects the
/// generated plan lives here, so equal specs generate byte-equal plans.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteSpec {
    /// RNG seed; the entire plan is a pure function of the spec.
    pub seed: u64,
    /// Distinct interfaces (hundreds at full scale).
    pub interfaces: usize,
    /// Client bindings, assigned round-robin over interfaces.
    pub bindings: usize,
    /// Open-loop arrivals to generate (a batch arrival is one arrival
    /// carrying `batch_size` calls).
    pub arrivals: usize,
    /// Mean of the exponential inter-arrival gap, virtual ns.
    pub mean_interarrival_ns: u64,
    /// Fraction of arrivals submitted as a `call_batch` ring flush.
    pub batch_share: f64,
    /// Fraction of arrivals that send a Figure-1-sized bulk payload.
    pub bulk_share: f64,
    /// Calls per batch arrival.
    pub batch_size: usize,
    /// Width of the latency time-series window, virtual ns.
    pub window_ns: u64,
}

impl SiteSpec {
    /// Full-scale run: hundreds of interfaces, tens of thousands of
    /// bindings. Mean service per arrival is ~220 us on the C-VAX model
    /// (serial calls are Null-class at 157 us, a batch arrival is an
    /// 8-call burst), so the 320 us mean gap offers ~0.7 utilization:
    /// queues form behind bursts and drain, instead of diverging.
    pub fn full() -> SiteSpec {
        SiteSpec {
            seed: 42,
            interfaces: 200,
            bindings: 20_000,
            arrivals: 30_000,
            mean_interarrival_ns: 320_000,
            batch_share: 0.10,
            bulk_share: 0.15,
            batch_size: 8,
            window_ns: 250_000_000,
        }
    }

    /// CI-sized run: same shape, ~8× fewer arrivals, small enough for a
    /// gate job but large enough that p999 is a real rank (> 10 calls
    /// above it).
    pub fn ci() -> SiteSpec {
        SiteSpec {
            seed: 42,
            interfaces: 40,
            bindings: 2_000,
            arrivals: 4_000,
            mean_interarrival_ns: 320_000,
            batch_share: 0.10,
            bulk_share: 0.15,
            batch_size: 8,
            window_ns: 100_000_000,
        }
    }
}

/// What one arrival asks the system to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// One synchronous call of the given procedure index.
    Serial { proc: usize },
    /// `calls` scalar `Get`s through the submission ring, one doorbell.
    Batch { calls: usize },
    /// One `Send` carrying a Figure-1-sized payload through the bulk
    /// arena.
    Bulk { bytes: u32 },
}

/// One open-loop arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual time at which the client issues the call(s).
    pub at_ns: u64,
    /// Which binding issues it.
    pub binding: usize,
    pub kind: CallKind,
}

/// A fully materialized traffic plan: pure data, runtime-agnostic.
#[derive(Clone, Debug)]
pub struct SitePlan {
    pub spec: SiteSpec,
    /// IDL source per interface, index = interface id.
    pub idls: Vec<String>,
    /// Whether each interface carries the `Send` procedure.
    pub bulk_flavored: Vec<bool>,
    /// Time-ordered arrivals (nondecreasing `at_ns`).
    pub arrivals: Vec<Arrival>,
}

/// Interface `i`'s exported name.
pub fn interface_name(i: usize) -> String {
    format!("Site{i:03}")
}

fn interface_idl(i: usize, bulk: bool, _batch_size: usize) -> String {
    // Every count is the static import-time guess of 2. Batch traffic
    // genuinely wants one A-stack per in-flight ring descriptor, but that
    // is a *workload* property: the adaptive sizing controller
    // (`lrpc::adapt`) learns it from observed occupancy and stall events
    // and overrides these guesses on the next import — the static-vs-
    // adaptive comparison in the tail benchmark measures exactly that gap.
    let get_astacks = 2;
    let mut out = format!(
        "interface {} {{\n\
         [astacks = {get_astacks}] procedure Get(handle: int32, index: int32) -> int32;\n\
         [astacks = 2] procedure Put(handle: int32, name: bytes[16]) -> int32;\n",
        interface_name(i)
    );
    if bulk {
        out.push_str(&format!(
            "[astacks = 2] procedure Send(data: in var bytes[{SEND_MAX_BYTES}] noninterpreted) \
             -> int32;\n"
        ));
    }
    out.push('}');
    out
}

/// The Section 2.2 popularity shape generalized to `n` interfaces: the
/// top 3 split 75 %, the next (up to) 7 split 20 %, everyone else splits
/// 5 %. Degenerates to uniform below 4 interfaces. Weights are relative;
/// `WeightedIndex` normalizes.
pub fn interface_weights(n: usize) -> Vec<f64> {
    if n < 4 {
        return vec![1.0; n];
    }
    let mut w = vec![0.0f64; n];
    for slot in w.iter_mut().take(3) {
        *slot = 0.75 / 3.0;
    }
    let mid = (n - 3).min(7);
    for slot in w.iter_mut().skip(3).take(mid) {
        *slot = 0.20 / mid as f64;
    }
    let rest = n - 3 - mid;
    for slot in w.iter_mut().skip(3 + mid) {
        *slot = 0.05 / rest as f64;
    }
    w
}

/// Generates the plan for `spec`. Pure: equal specs yield equal plans.
///
/// # Panics
/// If the spec is degenerate: zero interfaces/bindings, fewer bindings
/// than interfaces, a batch size of 0, or mix shares outside `[0, 1]`.
pub fn generate_site(spec: &SiteSpec) -> SitePlan {
    assert!(spec.interfaces > 0, "need at least one interface");
    assert!(
        spec.bindings >= spec.interfaces,
        "round-robin assignment needs bindings >= interfaces"
    );
    assert!(spec.batch_size > 0, "batch arrivals need a batch size");
    assert!(
        (0.0..=1.0).contains(&(spec.batch_share + spec.bulk_share)),
        "mix shares must sum within [0, 1]"
    );

    let bulk_flavored: Vec<bool> = (0..spec.interfaces)
        .map(|i| i % BULK_FLAVOR_STRIDE == 0)
        .collect();
    let idls: Vec<String> = (0..spec.interfaces)
        .map(|i| interface_idl(i, bulk_flavored[i], spec.batch_size))
        .collect();

    // Bindings are assigned round-robin: binding b serves interface
    // b % interfaces, so interface i owns bindings {i, i+n, i+2n, ...}.
    let per_iface: Vec<usize> = (0..spec.interfaces)
        .map(|i| spec.bindings / spec.interfaces + usize::from(i < spec.bindings % spec.interfaces))
        .collect();

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let iface_pick =
        WeightedIndex::new(interface_weights(spec.interfaces)).expect("non-empty weights");
    let payload = SizeDistribution::figure_1();

    let mut arrivals = Vec::with_capacity(spec.arrivals);
    let mut t: u64 = 0;
    for _ in 0..spec.arrivals {
        // Open-loop exponential gap; >= 1 ns so time strictly advances.
        let u: f64 = rng.gen();
        let gap = (-(spec.mean_interarrival_ns as f64) * (1.0 - u).ln()).round() as u64;
        t += gap.max(1);

        let iface = iface_pick.sample(&mut rng);
        let slot = rng.gen_range(0..per_iface[iface]);
        let binding = iface + slot * spec.interfaces;

        // Disjoint mix ranges; a roll whose kind needs a flavor the
        // chosen interface lacks degrades to the serial mix rather than
        // re-rolling the interface (popularity stays authoritative) or
        // leaking into the other special kind's share.
        let r: f64 = rng.gen();
        let serial = |rng: &mut StdRng| CallKind::Serial {
            proc: if rng.gen::<f64>() < GET_SHARE {
                PROC_GET
            } else {
                PROC_PUT
            },
        };
        let kind = if r < spec.bulk_share {
            if bulk_flavored[iface] {
                CallKind::Bulk {
                    bytes: payload.sample_one(&mut rng).min(SEND_MAX_BYTES - 1),
                }
            } else {
                serial(&mut rng)
            }
        } else if r < spec.bulk_share + spec.batch_share {
            if bulk_flavored[iface] {
                serial(&mut rng)
            } else {
                CallKind::Batch {
                    calls: spec.batch_size,
                }
            }
        } else {
            serial(&mut rng)
        };
        arrivals.push(Arrival {
            at_ns: t,
            binding,
            kind,
        });
    }

    SitePlan {
        spec: spec.clone(),
        idls,
        bulk_flavored,
        arrivals,
    }
}

impl SitePlan {
    /// The interface a binding serves.
    pub fn binding_interface(&self, binding: usize) -> usize {
        binding % self.spec.interfaces
    }

    /// Total individual calls the plan issues (batches expanded).
    pub fn total_calls(&self) -> usize {
        self.arrivals
            .iter()
            .map(|a| match a.kind {
                CallKind::Batch { calls } => calls,
                _ => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SiteSpec {
        SiteSpec {
            seed: 7,
            interfaces: 8,
            bindings: 80,
            arrivals: 2_000,
            mean_interarrival_ns: 100_000,
            batch_share: 0.10,
            bulk_share: 0.15,
            batch_size: 4,
            window_ns: 1_000_000,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_site(&tiny());
        let b = generate_site(&tiny());
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.idls, b.idls);
        let mut other = tiny();
        other.seed = 8;
        assert_ne!(generate_site(&other).arrivals, a.arrivals);
    }

    #[test]
    fn arrivals_are_time_ordered_and_in_range() {
        let plan = generate_site(&tiny());
        let spec = &plan.spec;
        let mut last = 0;
        for a in &plan.arrivals {
            assert!(a.at_ns > last, "virtual time must strictly advance");
            last = a.at_ns;
            assert!(a.binding < spec.bindings);
            match a.kind {
                CallKind::Serial { proc } => assert!(proc <= PROC_PUT),
                CallKind::Batch { calls } => {
                    assert_eq!(calls, spec.batch_size);
                    assert!(
                        !plan.bulk_flavored[plan.binding_interface(a.binding)],
                        "batches ride small-flavor interfaces"
                    );
                }
                CallKind::Bulk { bytes } => {
                    assert!(bytes < SEND_MAX_BYTES);
                    assert!(
                        plan.bulk_flavored[plan.binding_interface(a.binding)],
                        "bulk sends need the Send procedure"
                    );
                }
            }
        }
    }

    #[test]
    fn popularity_concentrates_on_top_interfaces() {
        let plan = generate_site(&tiny());
        let n = plan.spec.interfaces;
        let mut per_iface = vec![0usize; n];
        for a in &plan.arrivals {
            per_iface[plan.binding_interface(a.binding)] += 1;
        }
        let top3: usize = per_iface[..3].iter().sum();
        let share = top3 as f64 / plan.arrivals.len() as f64;
        assert!(
            (0.65..0.85).contains(&share),
            "top-3 share {share} should be near 0.75"
        );
    }

    #[test]
    fn mix_shares_are_respected() {
        let plan = generate_site(&tiny());
        let total = plan.arrivals.len() as f64;
        let batches = plan
            .arrivals
            .iter()
            .filter(|a| matches!(a.kind, CallKind::Batch { .. }))
            .count() as f64;
        let bulks = plan
            .arrivals
            .iter()
            .filter(|a| matches!(a.kind, CallKind::Bulk { .. }))
            .count() as f64;
        // Flavor mismatches degrade to serial, so observed shares run a
        // little under the spec knobs; they must not exceed them.
        assert!(batches / total <= 0.10 + 0.02);
        assert!(bulks / total <= 0.15 + 0.02);
        assert!(batches > 0.0 && bulks > 0.0);
    }

    #[test]
    fn idls_declare_the_flavor_split() {
        let plan = generate_site(&tiny());
        for (i, idl) in plan.idls.iter().enumerate() {
            assert!(idl.contains(&interface_name(i)));
            assert_eq!(idl.contains("procedure Send"), plan.bulk_flavored[i]);
        }
        assert_eq!(plan.spec.interfaces.div_ceil(BULK_FLAVOR_STRIDE), {
            plan.bulk_flavored.iter().filter(|&&b| b).count()
        });
    }

    #[test]
    fn weights_generalize_the_section_2_2_shape() {
        let w = interface_weights(200);
        let total: f64 = w.iter().sum();
        let top3: f64 = w[..3].iter().sum();
        let top10: f64 = w[..10].iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((top3 - 0.75).abs() < 1e-9);
        assert!((top10 - 0.95).abs() < 1e-9);
        assert_eq!(interface_weights(2), vec![1.0, 1.0]);
    }
}
