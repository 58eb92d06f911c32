//! Site-scale open-loop tail-latency benchmark with per-phase p99
//! attribution.
//!
//! `workload::site` emits the plan — hundreds of interfaces, tens of
//! thousands of bindings, seeded exponential arrivals mixing serial
//! calls, `call_batch` ring flushes, and bulk-arena payloads. This
//! module executes it on a K-CPU simulated C-VAX Firefly and accounts
//! for the tail three ways:
//!
//! * **Per-mix quantiles.** Every call's *open-loop* virtual latency
//!   (completion − scheduled arrival, so backlog queueing counts) lands
//!   in an HDR [`obs::TailHistogram`] per workload mix; host wall time
//!   is recorded alongside but never gated — the host runs a simulator.
//! * **A windowed time-series** over virtual completion time, so a burst
//!   that queues behind a batch or a bulk copy shows up in *its* window's
//!   p99 instead of being averaged away.
//! * **Tail attribution.** Calls strictly above the overall virtual p99
//!   are joined with their flight-recorder spans (every charge site
//!   emits one, even on unmetered calls) and decomposed into phase
//!   groups — open-loop queue wait, trap/crossing, cached processor
//!   handoffs, stubs, copies, A-/E-stack waits, ring descriptor ops,
//!   dispatch — whose shares sum to 100 % of the accounted virtual time
//!   by construction. The flight ring's dropped counter turns silent
//!   sampling into a reported *coverage* number.
//!
//! Multiprocessor runs dispatch each arrival on the earliest-clock CPU
//! that is *not* parked idling in a server context (falling back to the
//! global earliest only when protecting the cache would queue the
//! arrival), and park the finishing CPU idling in the *client's*
//! context — processors cached in server contexts accumulate from the
//! return path's own exchange (Section 3.4), and a window-boundary
//! `prod_idle_processors` pass rebalances them toward the domains with
//! the most claim misses. That flywheel is what `lrpc::call`'s
//! idle-processor claim exercises under contention.
//! [`run_experiment`] runs the same arrival schedule four ways — 1-CPU
//! baseline, K-CPU with domain caching, K-CPU without, and K-CPU with
//! histogram-driven adaptive A-stack sizing — and gates the deltas.
//!
//! Determinism contract: everything under the `virtual` key of the
//! persisted entry is a pure function of the [`TailSpec`] — same spec,
//! byte-identical stats — which is what lets `BENCH_tail.json` gate p99
//! across PRs at a tight tolerance.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use firefly::fault::{FaultConfig, FaultPlan};
use firefly::meter::Phase;
use firefly::time::Nanos;
use firefly::vm::ContextId;
use idl::wire::Value;
use kernel::thread::Thread;
use lrpc::{AStackPolicy, AdaptConfig, AdaptPlan, Binding, Handler, Reply, ServerCtx, TestRuntime};
use obs::latency::{TailHistogram, TailSnapshot, WindowedSeries};
use workload::site::{
    generate_site, interface_name, CallKind, SitePlan, SiteSpec, PROC_GET, PROC_PUT, PROC_SEND,
};

use crate::common::flight_lock;
use crate::json::Json;
use crate::suite::{self, Gate, Opts, SuiteRun, Table};

/// Client domains the bindings are spread over (bindings round-robin).
pub const CLIENT_DOMAINS: usize = 8;

/// Relative p99 regression the cross-PR gate tolerates. The virtual
/// stats are deterministic, so any slack only absorbs *intentional*
/// cost-model drift, not noise.
pub const P99_TOLERANCE: f64 = 0.05;

/// Minimum relative p99 improvement the K-CPU domain-caching leg must
/// show over the 1-CPU baseline at the same arrival schedule.
pub const MULTI_CPU_MIN_IMPROVEMENT: f64 = 0.20;

/// Relative cross-run tolerance on the caching-on/off p99 delta. Like
/// [`P99_TOLERANCE`] this absorbs intentional cost-model drift only.
pub const DELTA_TOLERANCE: f64 = 0.05;

/// Minimum share of above-p99 calls whose spans survived in the flight
/// ring. Check-sized runs size the ring to hold everything, so this only
/// trips if the ring was created too small (or shrunk by another user).
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Flight-ring capacity ceiling, spans (~40 B each).
const MAX_FLIGHT_CAPACITY: usize = 2_000_000;

/// Spans a single call can emit, with headroom.
const SPANS_PER_CALL: usize = 24;

/// What one tail run executes: the site plan spec, the machine shape,
/// and the injected regression knob used to prove the gate trips.
#[derive(Clone, Debug, PartialEq)]
pub struct TailSpec {
    pub site: SiteSpec,
    /// CPUs of the simulated Firefly the main legs run on.
    pub cpus: usize,
    /// Idle-processor domain caching for the main and adaptive legs.
    /// [`run_experiment`] always runs its A/B leg with caching off, so
    /// forcing this off makes the two legs identical and trips the
    /// positive-delta gate — the CI inverted step.
    pub domain_caching: bool,
    /// Whether the experiment runs the adaptive A-stack sizing leg.
    pub adaptive: bool,
    /// When nonzero, every dispatch is delayed this many virtual µs via
    /// the fault plane — the "known regression" the gate must catch.
    /// Runs with a nonzero knob are never persisted.
    pub dispatch_delay_us: u64,
}

impl TailSpec {
    pub fn full() -> TailSpec {
        TailSpec {
            site: SiteSpec::full(),
            cpus: 4,
            domain_caching: true,
            adaptive: true,
            dispatch_delay_us: 0,
        }
    }
}

/// The workload mixes stats are reported for.
pub const MIXES: [&str; 4] = ["all", "serial", "batch", "bulk"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    Serial,
    Batch,
    Bulk,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Serial => "serial",
            Mix::Batch => "batch",
            Mix::Bulk => "bulk",
        }
    }
}

/// Quantile summary of one mix, virtual or host ns.
#[derive(Clone, Debug, PartialEq)]
pub struct MixStats {
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
    pub mean: f64,
}

impl MixStats {
    fn from_snapshot(s: &TailSnapshot) -> MixStats {
        MixStats {
            count: s.count,
            p50: s.quantile(0.50).unwrap_or(0),
            p90: s.quantile(0.90).unwrap_or(0),
            p99: s.quantile(0.99).unwrap_or(0),
            p999: s.quantile(0.999).unwrap_or(0),
            max: s.max,
            mean: s.mean(),
        }
    }
}

/// One window of the virtual-time latency series.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    pub start_ns: u64,
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

/// One phase group's share of the above-p99 virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseShare {
    pub group: &'static str,
    pub ns: u64,
    pub share: f64,
}

/// Everything one tail run measured.
#[derive(Clone, Debug)]
pub struct TailReport {
    /// CPUs this leg actually ran on (the experiment overrides the spec
    /// for its baseline leg).
    pub cpus: usize,
    /// Whether idle-processor domain caching was on for this leg.
    pub domain_caching: bool,
    /// Individual calls executed (batch arrivals expanded).
    pub calls: u64,
    /// Calls that returned an error (none expected on the clean plan).
    pub errors: u64,
    /// Virtual-latency stats per mix, keyed in [`MIXES`] order.
    pub virt: Vec<(&'static str, MixStats)>,
    /// Host wall-clock stats per mix (informational, not gated).
    pub host: Vec<(&'static str, MixStats)>,
    /// Virtual-time latency series, window width `spec.site.window_ns`.
    pub windows: Vec<WindowRow>,
    /// Above-p99 phase decomposition, descending by time.
    pub attribution: Vec<PhaseShare>,
    /// Calls strictly above the overall virtual p99.
    pub tail_calls: u64,
    /// Tail calls whose flight spans survived to be joined.
    pub accounted_tail_calls: u64,
    /// `accounted / tail_calls` (1.0 when the tail is empty).
    pub span_coverage: f64,
    /// Flight spans overwritten unread during this run (process-wide
    /// delta of `obs_flight_dropped_total`).
    pub dropped_spans: u64,
    /// Idle-processor claims that found a cached context, summed over
    /// the per-interface `lrpc_domain_cache_hits:*` counters.
    pub domain_cache_hits: u64,
    /// Claims that fell back to a full context switch.
    pub domain_cache_misses: u64,
    /// A-stack acquires that found their class free list empty.
    pub astack_wait_events: u64,
    /// Latest virtual clock across every CPU at the end of the run.
    pub total_virtual_ns: u64,
    /// Host wall time of the measured loop.
    pub host_wall_ms: f64,
}

/// Maps a flight-span phase code onto an attribution group. The groups
/// follow the ISSUE's taxonomy: crossing (trap/transfer/switch), cached
/// processor handoffs (Section 3.4 exchanges, split out so the tail
/// shows cached vs full-context-switch transfer time), stubs, copies,
/// resource waits (A-stack/E-stack), ring descriptor ops,
/// dispatch+validation, the server procedure itself, and a residue.
fn phase_group(code: u16) -> &'static str {
    use Phase::*;
    match Phase::from_code(code) {
        Trap | KernelTransfer | ContextSwitch => "trap+crossing",
        ProcessorExchange => "cached handoff",
        ClientStub | ServerStub | ProcedureCall | Marshal => "stub",
        ArgCopy | MessageTransfer | BufferManagement | OobSegment => "copy",
        Wait => "astack/estack wait",
        QueueOp => "ring descriptor ops",
        Dispatch | Scheduling | Validation => "dispatch+validate",
        ServerProcedure => "server procedure",
        Network | Other => "other",
    }
}

/// The synthetic group for open-loop backlog (arrival happened while the
/// CPU was still serving earlier traffic); not a flight span.
const QUEUE_WAIT_GROUP: &str = "open-loop queue wait";

struct SiteEnv {
    rt: Arc<lrpc::LrpcRuntime>,
    threads: Vec<Arc<Thread>>,
    bindings: Vec<Binding>,
    /// Per-interface server context: the dispatcher avoids stealing CPUs
    /// idling in one of these (a cached server processor is worth more
    /// as a claim target than as a dispatch slot).
    server_ctxs: Vec<ContextId>,
    /// Per-client-domain context: a CPU that finishes a call holds the
    /// client's context, so that is where it parks as an idle processor.
    client_ctxs: Vec<ContextId>,
}

fn handlers(bulk: bool) -> Vec<Handler> {
    let mut v: Vec<Handler> = vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
        }),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(h) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(*h)))
        }),
    ];
    if bulk {
        v.push(Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(data.len() as i32)))
        }));
    }
    v
}

fn build_env(
    plan: &SitePlan,
    cpus: usize,
    domain_caching: bool,
    adapt: Option<Arc<AdaptPlan>>,
    dispatch_delay_us: u64,
) -> SiteEnv {
    // `Fail` keeps an exhausted A-stack class deterministic: a batch push
    // that finds the free list empty flushes the ring and retries instead
    // of blocking the single driver thread on a condvar.
    let mut builder = TestRuntime::new()
        .cpus(cpus)
        .domain_caching(domain_caching)
        .astack_policy(AStackPolicy::Fail);
    if let Some(plan) = adapt {
        builder = builder.adapt(plan);
    }
    let rt = builder.build();
    if dispatch_delay_us > 0 {
        rt.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            dispatch_delay_us,
            ..FaultConfig::default()
        })));
    }
    let mut server_ctxs = Vec::with_capacity(plan.idls.len());
    for (i, idl) in plan.idls.iter().enumerate() {
        let server = rt.kernel().create_domain(format!("site-srv-{i:03}"));
        server_ctxs.push(server.ctx().id());
        rt.export(&server, idl, handlers(plan.bulk_flavored[i]))
            .expect("site interface exports");
    }
    let clients: Vec<_> = (0..CLIENT_DOMAINS)
        .map(|i| rt.kernel().create_domain(format!("site-client-{i}")))
        .collect();
    let client_ctxs: Vec<ContextId> = clients.iter().map(|c| c.ctx().id()).collect();
    let threads: Vec<Arc<Thread>> = clients
        .iter()
        .map(|c| rt.kernel().spawn_thread(c))
        .collect();
    let bindings: Vec<Binding> = (0..plan.spec.bindings)
        .map(|b| {
            let iface = plan.binding_interface(b);
            rt.import(&clients[b % CLIENT_DOMAINS], &interface_name(iface))
                .expect("site binding imports")
        })
        .collect();
    SiteEnv {
        rt,
        threads,
        bindings,
        server_ctxs,
        client_ctxs,
    }
}

struct CallRec {
    trace: u64,
    mix: Mix,
    latency_ns: u64,
    queue_wait_ns: u64,
    completion_ns: u64,
    wall_ns: u64,
}

/// Runs the spec as a single leg (the machine shape is taken from the
/// spec verbatim). Holds the process-wide flight lock for the whole
/// toggle-run-snapshot window; the traffic executes on a fresh worker
/// thread so its flight ring is created at the requested capacity even
/// if this thread recorded (with a smaller ring) earlier in the process.
pub fn run(spec: &TailSpec) -> TailReport {
    let plan = generate_site(&spec.site);
    run_leg(spec, &plan, spec.cpus, spec.domain_caching, None).0
}

/// One experiment leg: builds a fresh environment, replays the plan, and
/// also harvests the runtime's adaptive sizing plan for a later leg.
fn run_leg(
    spec: &TailSpec,
    plan: &SitePlan,
    cpus: usize,
    domain_caching: bool,
    adapt: Option<Arc<AdaptPlan>>,
) -> (TailReport, AdaptPlan) {
    let env = build_env(plan, cpus, domain_caching, adapt, spec.dispatch_delay_us);

    let _flight = flight_lock();
    let capacity = (plan.total_calls() * SPANS_PER_CALL).clamp(4096, MAX_FLIGHT_CAPACITY);
    obs::flight::enable_with_capacity(capacity);
    let dropped_before = obs::flight::dropped_total();

    let wall_start = Instant::now();
    let (records, errors) =
        std::thread::scope(|s| s.spawn(|| execute(plan, &env)).join().expect("tail worker"));
    let host_wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    obs::flight::disable();
    let dropped_spans = obs::flight::dropped_total() - dropped_before;
    let total_virtual_ns = env.rt.kernel().machine().max_now().as_nanos();
    let astack_wait_events = env.rt.astack_wait_events();
    let metrics = env.rt.metrics();
    let domain_cache_hits = metrics.counter_sum("lrpc_domain_cache_hits:");
    let domain_cache_misses = metrics.counter_sum("lrpc_domain_cache_misses:");
    let harvested = env.rt.adapt_plan(&AdaptConfig::default());

    // Per-mix quantiles, virtual and host.
    let virt_all = TailHistogram::new();
    let host_all = TailHistogram::new();
    let mut virt_mix: BTreeMap<&'static str, TailHistogram> = BTreeMap::new();
    let mut host_mix: BTreeMap<&'static str, TailHistogram> = BTreeMap::new();
    let mut windows = WindowedSeries::new(spec.site.window_ns);
    for r in &records {
        virt_all.observe(r.latency_ns);
        host_all.observe(r.wall_ns);
        virt_mix
            .entry(r.mix.name())
            .or_default()
            .observe(r.latency_ns);
        host_mix.entry(r.mix.name()).or_default().observe(r.wall_ns);
        windows.observe(r.completion_ns, r.latency_ns);
    }
    let stats_for = |map: &BTreeMap<&'static str, TailHistogram>,
                     all: &TailHistogram|
     -> Vec<(&'static str, MixStats)> {
        MIXES
            .iter()
            .map(|&m| {
                let snap = if m == "all" {
                    all.snapshot()
                } else {
                    map.get(m).map(|h| h.snapshot()).unwrap_or_default()
                };
                (m, MixStats::from_snapshot(&snap))
            })
            .collect()
    };
    let virt = stats_for(&virt_mix, &virt_all);
    let host = stats_for(&host_mix, &host_all);

    let window_rows: Vec<WindowRow> = windows
        .snapshot()
        .into_iter()
        .map(|(start_ns, s)| WindowRow {
            start_ns,
            count: s.count,
            p50: s.quantile(0.50).unwrap_or(0),
            p99: s.quantile(0.99).unwrap_or(0),
            max: s.max,
        })
        .collect();

    // Tail attribution: join calls strictly above the overall virtual
    // p99 with their flight spans.
    let p99_all = virt_all.snapshot().quantile(0.99).unwrap_or(0);
    let tail_recs: Vec<&CallRec> = records.iter().filter(|r| r.latency_ns > p99_all).collect();
    let tail_traces: HashSet<u64> = tail_recs.iter().map(|r| r.trace).collect();
    let mut spans_by_trace: BTreeMap<u64, Vec<(u16, u64)>> = BTreeMap::new();
    for span in obs::flight::snapshot() {
        let raw = span.trace.raw();
        if tail_traces.contains(&raw) {
            spans_by_trace
                .entry(raw)
                .or_default()
                .push((span.phase, span.dur_ns));
        }
    }
    let mut group_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut accounted = 0u64;
    let mut accounted_ns = 0u64;
    for r in &tail_recs {
        let Some(spans) = spans_by_trace.get(&r.trace) else {
            continue; // spans overwritten; reported via coverage
        };
        accounted += 1;
        *group_ns.entry(QUEUE_WAIT_GROUP).or_insert(0) += r.queue_wait_ns;
        accounted_ns += r.queue_wait_ns;
        for &(code, dur) in spans {
            *group_ns.entry(phase_group(code)).or_insert(0) += dur;
            accounted_ns += dur;
        }
    }
    let mut attribution: Vec<PhaseShare> = group_ns
        .into_iter()
        .map(|(group, ns)| PhaseShare {
            group,
            ns,
            share: if accounted_ns > 0 {
                ns as f64 / accounted_ns as f64
            } else {
                0.0
            },
        })
        .collect();
    attribution.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.group.cmp(b.group)));
    let tail_calls = tail_recs.len() as u64;
    let span_coverage = if tail_calls == 0 {
        1.0
    } else {
        accounted as f64 / tail_calls as f64
    };

    let report = TailReport {
        cpus,
        domain_caching,
        calls: records.len() as u64,
        errors,
        virt,
        host,
        windows: window_rows,
        attribution,
        tail_calls,
        accounted_tail_calls: accounted,
        span_coverage,
        dropped_spans,
        domain_cache_hits,
        domain_cache_misses,
        astack_wait_events,
        total_virtual_ns,
        host_wall_ms,
    };
    (report, harvested)
}

/// The measured loop: replays the arrival schedule open-loop over the
/// simulated CPUs. Runs on its own thread (fresh flight ring).
///
/// The driver is identical across experiment legs; only the runtime
/// config differs. Each arrival is dispatched on the CPU with the
/// earliest virtual clock, and each finishing CPU is parked as an idle
/// processor in the called server's context so a later call into that
/// server can claim it with a cheap processor exchange (Section 3.4).
/// Parked CPUs already past the arrival instant are unparked first: a
/// real idle processor cannot drag its claimer forward in time.
fn execute(plan: &SitePlan, env: &SiteEnv) -> (Vec<CallRec>, u64) {
    let machine = env.rt.kernel().machine();
    let n = machine.num_cpus();
    let adapt = env.rt.config().adapt.clone();
    let window_ns = plan.spec.window_ns.max(1);
    let mut next_window = window_ns;
    let put_name = vec![0u8; 16];
    let mut records = Vec::with_capacity(plan.total_calls());
    let mut errors = 0u64;
    // Trailing service-time estimate (completion − arrival of the last
    // executed call), used to spot arrivals due before the current call
    // finishes.
    let mut last_service_ns = 0u64;
    for (ai, arrival) in plan.arrivals.iter().enumerate() {
        let at = Nanos::from_nanos(arrival.at_ns);
        // Window boundary: rerun the idle-processor prodding policy and,
        // when adaptive sizing is on, re-apply the plan to live bindings.
        while arrival.at_ns >= next_window {
            env.rt.rebalance_idle_processors();
            if let Some(plan) = &adapt {
                env.rt.apply_adapt(plan);
            }
            next_window += window_ns;
        }
        // Dispatch on the earliest-clock CPU (ties to the lowest id),
        // like a run queue placing the next ready thread. One twist: a
        // CPU cached in a *server* context is worth more as a claim
        // target than as a dispatch slot (stealing it forfeits the
        // domain-caching hit of every later call into that server), so
        // when some other CPU is already free at the arrival instant
        // the dispatcher takes that one instead. The protection is
        // never worth a queue: if every non-cached CPU is still busy at
        // the arrival, plain global min-clock wins.
        let mut global = (u64::MAX, 0usize);
        let mut uncached = (u64::MAX, 0usize);
        for i in 0..n {
            let c = machine.cpu(i);
            let now = c.now().as_nanos();
            if now < global.0 {
                global = (now, i);
            }
            let cached = c
                .idle_in()
                .is_some_and(|ctx| env.server_ctxs.contains(&ctx));
            if !cached && now < uncached.0 {
                uncached = (now, i);
            }
        }
        let cpu_id = if uncached.0 <= arrival.at_ns {
            uncached.1
        } else {
            global.1
        };
        let cpu = machine.cpu(cpu_id);
        // The dispatch CPU runs a client thread now; it is no longer an
        // idle processor anyone may claim.
        cpu.set_idle_in(None);
        // A parked CPU whose clock is already past this arrival is, at
        // the arrival instant, still finishing its previous call — it
        // cannot be claimed without dragging the caller forward in
        // time. Suspend its parking for the duration of this call and
        // restore it afterwards: it *is* idle for later arrivals.
        let mut suspended: Vec<(usize, ContextId)> = Vec::new();
        for i in 0..n {
            if i == cpu_id {
                continue;
            }
            let other = machine.cpu(i);
            if let Some(ctx) = other.idle_in() {
                if other.now() > at {
                    other.set_idle_in(None);
                    suspended.push((i, ctx));
                }
            }
        }
        // Reservation against claim anachronism. Calls execute one at a
        // time here, but on real hardware an arrival due *before* this
        // call's return would grab an idle processor at its own arrival
        // instant — beating the return-side claim that this simulation
        // commits first. For every arrival expected to land before this
        // call completes, set aside the oldest-clock parked CPU: claims
        // cannot consume a processor that, in real time, was already
        // taken by an earlier event. Restored with the rest after the
        // call; the next arrival then dispatches onto it normally.
        if last_service_ns > 0 {
            let deadline = arrival.at_ns.saturating_add(last_service_ns);
            let due = plan.arrivals[ai + 1..]
                .iter()
                .take_while(|a| a.at_ns <= deadline)
                .count();
            for _ in 0..due {
                let mut pick: Option<(u64, usize)> = None;
                for i in 0..n {
                    if i == cpu_id {
                        continue;
                    }
                    let other = machine.cpu(i);
                    if other.idle_in().is_some() {
                        let now = other.now().as_nanos();
                        if pick.is_none_or(|(c, _)| now < c) {
                            pick = Some((now, i));
                        }
                    }
                }
                let Some((_, i)) = pick else { break };
                let other = machine.cpu(i);
                suspended.push((i, other.idle_in().expect("picked parked")));
                other.set_idle_in(None);
            }
        }
        // Open loop: an idle CPU sleeps until the scheduled arrival; a
        // busy one is already past it and the backlog becomes queue wait
        // inside the measured latency.
        cpu.advance_to(at);
        let queue_wait_ns = (cpu.now() - at).as_nanos();
        let binding = &env.bindings[arrival.binding];
        let thread = &env.threads[arrival.binding % CLIENT_DOMAINS];
        // A finished call leaves its final CPU holding the *client's*
        // context (the return path ends in the caller's domain), so that
        // is the context it advertises while idling. Cached *server*
        // processors are parked by the runtime itself at the return-side
        // processor exchange, and rebalanced by the window prodding.
        let client_ctx = env.client_ctxs[arrival.binding % CLIENT_DOMAINS];
        let wall = Instant::now();
        let single = match arrival.kind {
            CallKind::Serial { proc: PROC_GET } => Some((
                Mix::Serial,
                PROC_GET,
                vec![Value::Int32(1), Value::Int32(2)],
            )),
            CallKind::Serial { proc: PROC_PUT } => Some((
                Mix::Serial,
                PROC_PUT,
                vec![Value::Int32(1), Value::Bytes(put_name.clone())],
            )),
            CallKind::Serial { .. } => unreachable!("serial mix only draws Get/Put"),
            CallKind::Bulk { bytes } => Some((
                Mix::Bulk,
                PROC_SEND,
                vec![Value::Var(vec![0xA5; bytes as usize])],
            )),
            CallKind::Batch { .. } => None,
        };
        if let Some((mix, proc, args)) = single {
            match binding.call_unmetered(cpu_id, thread, proc, &args) {
                Ok(out) => {
                    let end = machine.cpu(out.end_cpu);
                    records.push(CallRec {
                        trace: out.trace.raw(),
                        mix,
                        latency_ns: (end.now() - at).as_nanos(),
                        queue_wait_ns,
                        completion_ns: end.now().as_nanos(),
                        wall_ns: wall.elapsed().as_nanos() as u64,
                    });
                    end.set_idle_in(Some(client_ctx));
                }
                Err(_) => errors += 1,
            }
        } else if let CallKind::Batch { calls } = arrival.kind {
            let requests: Vec<(usize, Vec<Value>)> = (0..calls)
                .map(|i| (PROC_GET, vec![Value::Int32(i as i32), Value::Int32(2)]))
                .collect();
            match binding.call_batch(cpu_id, thread, requests) {
                Ok(out) => {
                    // Every batched call completes at the reap; its
                    // open-loop latency runs from the shared arrival.
                    // Ring flushes never exchange processors, so the
                    // batch completes on the dispatch CPU.
                    let completion_ns = cpu.now().as_nanos();
                    let latency_ns = (cpu.now() - at).as_nanos();
                    let wall_each = wall.elapsed().as_nanos() as u64 / calls.max(1) as u64;
                    for res in &out.results {
                        match res {
                            Ok(o) => records.push(CallRec {
                                trace: o.trace.raw(),
                                mix: Mix::Batch,
                                latency_ns,
                                queue_wait_ns,
                                completion_ns,
                                wall_ns: wall_each,
                            }),
                            Err(_) => errors += 1,
                        }
                    }
                    cpu.set_idle_in(Some(client_ctx));
                }
                Err(_) => errors += calls as u64,
            }
        }
        if let Some(rec) = records.last() {
            last_service_ns = rec.completion_ns.saturating_sub(arrival.at_ns);
        }
        // Still-idle CPUs whose parking was suspended for this call get
        // their cached context back. (A suspended CPU cannot have been
        // claimed, and the finishing CPU was never suspended.)
        for (i, ctx) in suspended {
            let other = machine.cpu(i);
            if other.idle_in().is_none() {
                other.set_idle_in(Some(ctx));
            }
        }
    }
    (records, errors)
}

/// The four-leg multi-CPU experiment over one arrival schedule:
///
/// * **1-CPU baseline** — same spec on a uniprocessor (`k1_p99`).
/// * **Main leg** — `spec.cpus` CPUs, `spec.domain_caching`, static
///   A-stack sizing. This is the persisted, cross-PR-gated report.
/// * **A/B leg** — identical machine with domain caching forced off;
///   `caching_off_p99 − main.p99` is the gated caching delta.
/// * **Adaptive leg** — the main leg rerun with the sizing plan
///   harvested from the main leg's own histograms applied at import
///   (and re-applied at window boundaries).
///
/// Fault-injected specs run the main leg only: the injected delay is a
/// gate-tripping probe, not an experiment.
#[derive(Clone, Debug)]
pub struct TailExperiment {
    pub main: TailReport,
    pub k1_p99: Option<u64>,
    /// The A/B leg's **serial-mix** p99. The caching deltas are
    /// measured on the serial mix because only ordinary calls can
    /// exchange processors — batch ring flushes pin the descriptor
    /// protocol to the dispatch CPU, so their share of the overall p99
    /// dilutes the A/B signal with traffic the optimization cannot
    /// touch.
    pub caching_off_p99: Option<u64>,
    /// The A/B leg's serial-mix *mean*. The positivity gate lives on
    /// the mean delta rather than the p99 delta: with a depth-1
    /// per-context cache, back-to-back arrivals on the same interface
    /// are structural misses, so *both* legs' serial p99 sits on the
    /// shared miss plateau (full context switch + fresh-E-stack
    /// premium) and their p99 delta is legitimately zero while the
    /// caching wins land across the body of the distribution — the
    /// same average-call-time framing the paper itself evaluates with.
    pub caching_off_serial_mean: Option<f64>,
    pub adaptive_p99: Option<u64>,
    pub adaptive_wait_events: Option<u64>,
}

pub fn run_experiment(spec: &TailSpec) -> TailExperiment {
    let plan = generate_site(&spec.site);
    let (main, harvested) = run_leg(spec, &plan, spec.cpus, spec.domain_caching, None);
    if spec.dispatch_delay_us > 0 {
        return TailExperiment {
            main,
            k1_p99: None,
            caching_off_p99: None,
            caching_off_serial_mean: None,
            adaptive_p99: None,
            adaptive_wait_events: None,
        };
    }
    let (k1, _) = run_leg(spec, &plan, 1, spec.domain_caching, None);
    let (off, _) = run_leg(spec, &plan, spec.cpus, false, None);
    let adaptive = spec.adaptive.then(|| {
        run_leg(
            spec,
            &plan,
            spec.cpus,
            spec.domain_caching,
            Some(Arc::new(harvested)),
        )
        .0
    });
    TailExperiment {
        main,
        k1_p99: Some(k1.p99_all()),
        caching_off_p99: Some(off.virt("serial").p99),
        caching_off_serial_mean: Some(off.virt("serial").mean),
        adaptive_p99: adaptive.as_ref().map(TailReport::p99_all),
        adaptive_wait_events: adaptive.as_ref().map(|r| r.astack_wait_events),
    }
}

impl TailExperiment {
    /// `caching_off_serial_mean − main_serial_mean`, rounded to whole
    /// ns: virtual ns the idle-processor optimization shaves off the
    /// average serial call at the same arrival schedule. This is the
    /// positivity-gated and cross-run-drift-gated caching delta.
    pub fn caching_delta(&self) -> Option<i64> {
        self.caching_off_serial_mean
            .map(|off| (off - self.main.virt("serial").mean).round() as i64)
    }

    /// `caching_off_serial_p99 − main_serial_p99`: persisted for the
    /// record, but not positivity-gated — see
    /// [`TailExperiment::caching_off_serial_mean`] for why the p99
    /// delta can legitimately sit at zero.
    pub fn caching_p99_delta(&self) -> Option<i64> {
        self.caching_off_p99
            .map(|off| off as i64 - self.main.virt("serial").p99 as i64)
    }

    /// Every gate: the main leg's run-local ones; the experiment's
    /// multi-CPU speedup over the 1-CPU baseline, actual cache hits, a
    /// positive caching delta and fewer A-stack stalls under adaptive
    /// sizing; and the cross-run p99 and caching-delta gates against a
    /// baseline's values.
    pub fn gates(&self, prev_p99_all: Option<u64>, prev_delta: Option<i64>) -> Vec<Gate> {
        let main = &self.main;
        let multi = main.cpus > 1;
        let mut gates = main.gates();
        if let (Some(k1), true) = (self.k1_p99, multi && main.domain_caching) {
            let limit = k1 as f64 * (1.0 - MULTI_CPU_MIN_IMPROVEMENT);
            let (p99, hits) = (main.p99_all() as f64, main.domain_cache_hits as f64);
            gates.push(Gate::new("p99 vs 1 CPU", p99, "<=", limit));
            gates.push(Gate::new("domain_cache_hits", hits, ">", 0.0));
        }
        if let (Some(delta), true) = (self.caching_delta(), multi) {
            gates.push(Gate::new("caching_delta_ns", delta as f64, ">", 0.0));
        }
        if let Some(wait) = self.adaptive_wait_events {
            let stalls = main.astack_wait_events as f64;
            gates.push(Gate::new("adaptive_wait_events", wait as f64, "<", stalls));
        }
        gates.extend(prev_p99_all.map(|prev| main.regression_gate(prev)));
        if let (Some(delta), Some(prev)) = (self.caching_delta(), prev_delta) {
            if prev > 0 {
                let drift = (delta - prev).abs() as f64;
                let limit = prev as f64 * DELTA_TOLERANCE;
                gates.push(Gate::new("caching delta drift", drift, "<=", limit));
            }
        }
        gates
    }
}

impl TailReport {
    /// The virtual-latency stats of one mix from [`MIXES`].
    pub fn virt(&self, mix: &str) -> &MixStats {
        let stats = self.virt.iter().find(|(m, _)| *m == mix);
        &stats.expect("MIXES covers every mix").1
    }

    /// The overall virtual p99 — the number the cross-PR gate pins.
    pub fn p99_all(&self) -> u64 {
        self.virt("all").p99
    }

    /// Run-local gates: clean execution, attribution closure and span
    /// coverage ([`suite()`] adds monotone quantiles from the tables).
    pub fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![
            Gate::new("errors", self.errors as f64, "<=", 0.0),
            Gate::new("span_coverage", self.span_coverage, ">=", MIN_SPAN_COVERAGE),
            Gate::new("span_coverage", self.span_coverage, "<=", 1.0),
        ];
        if self.accounted_tail_calls > 0 {
            let total: f64 = self.attribution.iter().map(|p| p.share).sum();
            let error = (total - 1.0).abs();
            gates.push(Gate::new("attribution share error", error, "<=", 1e-6));
        }
        gates
    }

    /// The cross-PR gate: overall virtual p99 must not regress more than
    /// [`P99_TOLERANCE`] over the previous persisted run with identical
    /// parameters.
    pub fn regression_gate(&self, prev_p99_all: u64) -> Gate {
        let limit = prev_p99_all as f64 * (1.0 + P99_TOLERANCE);
        Gate::new("p99 vs baseline", self.p99_all() as f64, "<=", limit)
    }
}

/// The `tail` suite: [`run_experiment`] on `opts.tail`, gated against the
/// newest persisted run with the same site and machine shape, and on
/// monotone quantiles in its `virtual` and `host` tables.
pub fn suite(opts: &Opts, history: &[Json]) -> SuiteRun {
    let spec = &opts.tail;
    let site = &spec.site;
    let params = vec![
        ("seed", site.seed.into()),
        ("interfaces", site.interfaces.into()),
        ("bindings", site.bindings.into()),
        ("arrivals", site.arrivals.into()),
        ("mean_interarrival_ns", site.mean_interarrival_ns.into()),
        ("batch_share", site.batch_share.into()),
        ("bulk_share", site.bulk_share.into()),
        ("batch_size", site.batch_size.into()),
        ("window_ns", site.window_ns.into()),
        ("cpus", spec.cpus.into()),
        ("domain_caching", spec.domain_caching.into()),
        ("adaptive", spec.adaptive.into()),
    ];
    let prev = suite::baseline(history, &params);
    let metric = |key: &str| prev.and_then(|e| e.get("metrics")?.get(key)?.as_f64());
    let (prev_p99, prev_delta) = (metric("p99_all"), metric("caching_delta_ns"));
    let e = run_experiment(spec);
    let r = &e.main;
    let mut metrics = vec![
        ("calls", r.calls.into()),
        ("p99_all", r.p99_all().into()),
        ("errors", r.errors.into()),
        ("domain_cache_hits", r.domain_cache_hits.into()),
        ("domain_cache_misses", r.domain_cache_misses.into()),
        ("astack_wait_events", r.astack_wait_events.into()),
    ];
    let legs = [
        ("k1_p99", e.k1_p99.map(|v| v as f64)),
        ("caching_off_p99", e.caching_off_p99.map(|v| v as f64)),
        ("caching_off_serial_mean", e.caching_off_serial_mean),
        ("caching_delta_ns", e.caching_delta().map(|v| v as f64)),
        (
            "caching_p99_delta_ns",
            e.caching_p99_delta().map(|v| v as f64),
        ),
        ("adaptive_p99", e.adaptive_p99.map(|v| v as f64)),
        (
            "adaptive_wait_events",
            e.adaptive_wait_events.map(|v| v as f64),
        ),
    ];
    metrics.extend(legs.into_iter().filter_map(|(k, v)| Some((k, v?.into()))));
    metrics.extend([
        ("total_virtual_ns", r.total_virtual_ns.into()),
        ("tail_calls", r.tail_calls.into()),
        ("accounted_tail_calls", r.accounted_tail_calls.into()),
        ("span_coverage", r.span_coverage.into()),
        ("dropped_spans", r.dropped_spans.into()),
        ("host_wall_ms", r.host_wall_ms.into()),
    ]);

    const QUANTILES: &[&str] = &["mix", "count", "p50", "p90", "p99", "p999", "max", "mean"];
    let quantiles = |name, stats: &[(&str, MixStats)]| {
        let row = |(m, s): &(&str, MixStats)| {
            let q = [s.count, s.p50, s.p90, s.p99, s.p999, s.max].map(Json::from);
            [vec![(*m).into()], q.to_vec(), vec![s.mean.into()]].concat()
        };
        let rows = stats.iter().map(row).collect();
        Table {
            name,
            columns: QUANTILES,
            rows,
        }
    };
    let windows = r.windows.iter().map(|w| {
        [w.start_ns, w.count, w.p50, w.p99, w.max]
            .map(Json::from)
            .to_vec()
    });
    let attribution = r
        .attribution
        .iter()
        .map(|p| vec![p.group.into(), p.ns.into(), p.share.into()]);
    let mut text = format!(
        "Site tail latency, open loop: virtual ns per mix (queueing included; gated), host ns \
         (simulator wall time; informational), the windowed virtual series and the above-p99 \
         phase attribution{}\n",
        if spec.dispatch_delay_us > 0 {
            format!("; FAULT: dispatch +{}us", spec.dispatch_delay_us)
        } else {
            String::new()
        }
    );
    if prev_p99.is_none() {
        text.push_str("note: no previous run with these parameters; cross-run gates vacuous\n");
    }
    let (virt, host) = (quantiles("virtual", &r.virt), quantiles("host", &r.host));
    let mut gates = e.gates(prev_p99.map(|v| v as u64), prev_delta.map(|v| v as i64));
    gates.extend([virt.monotone(), host.monotone()]);
    let tables = vec![
        virt,
        host,
        Table {
            name: "windows",
            columns: &["start_ns", "count", "p50", "p99", "max"],
            rows: windows.collect(),
        },
        Table {
            name: "attribution",
            columns: &["group", "ns", "share"],
            rows: attribution.collect(),
        },
    ];
    SuiteRun {
        text,
        params,
        metrics,
        tables,
        gates,
        probe: spec.dispatch_delay_us > 0 || !spec.domain_caching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(dispatch_delay_us: u64) -> TailSpec {
        TailSpec {
            site: SiteSpec {
                seed: 11,
                interfaces: 8,
                bindings: 64,
                arrivals: 400,
                mean_interarrival_ns: 300_000,
                batch_share: 0.10,
                bulk_share: 0.15,
                batch_size: 4,
                window_ns: 10_000_000,
            },
            cpus: 1,
            domain_caching: false,
            adaptive: false,
            dispatch_delay_us,
        }
    }

    /// A multiprocessor spec dense enough that the 1-CPU baseline
    /// queues heavily while 4 CPUs usually have an idle processor
    /// parked and claimable.
    fn tiny_mp() -> TailSpec {
        TailSpec {
            site: SiteSpec {
                seed: 11,
                interfaces: 3,
                bindings: 64,
                arrivals: 600,
                mean_interarrival_ns: 600_000,
                batch_share: 0.10,
                bulk_share: 0.05,
                batch_size: 4,
                window_ns: 10_000_000,
            },
            cpus: 4,
            domain_caching: true,
            adaptive: true,
            dispatch_delay_us: 0,
        }
    }

    fn virt_digest(r: &TailReport) -> String {
        // Everything deterministic: virtual quantiles, windows,
        // attribution. (Host stats and wall time excluded.)
        format!("{:?}|{:?}|{:?}", r.virt, r.windows, r.attribution)
    }

    #[test]
    fn run_is_deterministic_and_passes_gates() {
        let a = run(&tiny(0));
        assert!(
            a.gates().iter().all(Gate::pass),
            "gates failed: {:?}",
            a.gates()
        );
        assert_eq!(a.errors, 0);
        assert!(a.calls as usize >= tiny(0).site.arrivals);
        assert!(a.tail_calls > 0, "an open-loop run must have a tail");
        assert!(
            (a.span_coverage - 1.0).abs() < f64::EPSILON,
            "ring sized for the whole run joins every tail call"
        );
        // Attribution must include real phase groups, not just queue wait.
        assert!(a.attribution.iter().any(|p| p.group == "stub"));
        let b = run(&tiny(0));
        assert_eq!(virt_digest(&a), virt_digest(&b), "same spec, same stats");
    }

    #[test]
    fn injected_dispatch_delay_trips_the_p99_gate() {
        let clean = run(&tiny(0));
        let faulted = run(&tiny(500));
        assert!(
            faulted.p99_all() > clean.p99_all(),
            "a 500us dispatch delay must inflate p99 ({} vs {})",
            faulted.p99_all(),
            clean.p99_all()
        );
        assert!(clean.regression_gate(clean.p99_all()).pass());
        assert!(
            !faulted.regression_gate(clean.p99_all()).pass(),
            "the gate must catch the injected regression"
        );
    }

    #[test]
    fn multi_cpu_experiment_passes_its_gates() {
        let e = run_experiment(&tiny_mp());
        let gates = e.gates(None, None);
        assert!(
            gates.iter().all(Gate::pass),
            "experiment gates failed: {gates:?}"
        );
        assert!(e.main.domain_cache_hits > 0, "parked CPUs must be claimed");
        assert!(
            e.caching_delta().unwrap() > 0,
            "caching must shave the serial mean: {:?}",
            e.caching_delta()
        );
        assert!(
            e.caching_p99_delta().unwrap() >= 0,
            "caching must never worsen the serial p99: {:?}",
            e.caching_p99_delta()
        );
        assert!(
            e.adaptive_wait_events.unwrap() < e.main.astack_wait_events,
            "adaptive sizing must stall less: {:?} vs {}",
            e.adaptive_wait_events,
            e.main.astack_wait_events
        );
        // The attribution taxonomy separates cached handoffs from full
        // context switches.
        let exchange_code = (0..u16::from(u8::MAX))
            .find(|&c| matches!(Phase::from_code(c), Phase::ProcessorExchange))
            .expect("ProcessorExchange has a span code");
        assert_eq!(phase_group(exchange_code), "cached handoff");
        assert_eq!(
            phase_group(
                (0..u16::from(u8::MAX))
                    .find(|&c| matches!(Phase::from_code(c), Phase::ContextSwitch))
                    .expect("ContextSwitch has a span code")
            ),
            "trap+crossing"
        );
        // Same spec, same experiment, bit for bit.
        let f = run_experiment(&tiny_mp());
        assert_eq!(virt_digest(&e.main), virt_digest(&f.main));
        assert_eq!(e.k1_p99, f.k1_p99);
        assert_eq!(e.caching_off_p99, f.caching_off_p99);
        assert_eq!(e.caching_off_serial_mean, f.caching_off_serial_mean);
        assert_eq!(e.adaptive_p99, f.adaptive_p99);
    }

    #[test]
    fn forcing_caching_off_trips_the_delta_gate() {
        let mut spec = tiny_mp();
        spec.domain_caching = false;
        spec.adaptive = false;
        let e = run_experiment(&spec);
        let gates = e.gates(None, None);
        assert!(
            gates
                .iter()
                .any(|g| g.name == "caching_delta_ns" && !g.pass()),
            "with caching forced off the A/B legs are identical and the \
             positive-delta gate must trip: {gates:?}"
        );
    }
}
