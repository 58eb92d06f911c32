//! Record/replay drivers: scenarios, artifact capture, the byte-equality
//! oracle, recording-overhead measurement, and the fault-knob shrinker.
//!
//! [`record`] runs a named scenario under a [`replay::Session`] in record
//! mode and packages every nondeterministic decision into a
//! [`RecordLog`], together with digests of the run's observable
//! artifacts: the normalized flight trace (`spans_to_json`), the metrics
//! snapshot, the final virtual clock, and the fault-event digest.
//! [`replay()`] re-executes the scenario *from the log alone* — the fault
//! plan it installs is an all-zero dummy; every draw is answered from the
//! log — and checks the replayed artifacts byte-for-byte against the
//! recorded digests. [`shrink_chaos`] delta-debugs a failing chaos
//! configuration down to the fewest calls and fault knobs that still
//! reproduce the failure signature, verifying the minimized run under
//! record+replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use firefly::fault::{FaultConfig, FaultPlan};
use firefly::meter::Phase;
use firefly::vm::ContextId;
use idl::wire::Value;
use kernel::thread::Thread;
use lrpc::{
    AStackPolicy, AdaptPlan, Binding, BreakerConfig, Handler, LrpcRuntime, Recommendation,
    RecoveryConfig, Reply, ResilientClient, RetryPolicy, ServerCtx, TestRuntime,
};
use obs::{SpanRecord, TraceId};
use replay::{RecordLog, ReplayDivergence, Session};
use workload::trace::TraceModel;

use crate::common;
use crate::json::Json;
use crate::suite::{Gate, Opts, SuiteRun};

/// Maximum relative host-wall overhead recording may add to the serial
/// Figure-2 Null-call loop before the CI gate fails.
pub const MAX_RECORD_OVERHEAD: f64 = 0.10;

/// The interface of the chaos scenario. `Get` and `Stat` are idempotent
/// (retry-eligible); `Put` is not.
const RR_CHAOS_IDL: &str = r#"
    interface RrChaos {
        [astacks = 8] [idempotent = 1] procedure Get(x: int32) -> int32;
        [astacks = 8] procedure Put(x: int32) -> int32;
        [astacks = 8] [idempotent = 1] procedure Stat() -> int32;
    }
"#;

fn rr_chaos_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(x) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(x.wrapping_add(1))))
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(x) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(x.wrapping_mul(2))))
        }) as Handler,
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::value(Value::Int32(7)))) as Handler,
    ]
}

/// The recordable workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A seeded chaos run: a resilient client replays a trace against a
    /// server with injected panics, forged bindings and dispatch delays.
    Chaos,
    /// The serial Figure-2 workload: steady-state Null calls on one CPU.
    Fig2,
    /// A seeded batched-chaos run: `call_batch` groups of mixed
    /// procedures under injected server panics, full submission rings
    /// and lost doorbells.
    Batch,
    /// A multi-CPU site run: calls dispatched across a 4-CPU Firefly
    /// with domain caching on and a fixed adaptive sizing plan applied
    /// at import, so idle-processor claims (`sched:idle-claim`) and
    /// sizing decisions (`adapt`) both land in the decision streams.
    Site,
}

/// Every kind with its stable name, stored in the log's metadata and
/// given to the CLI's `--scenario`.
const SCENARIO_NAMES: [(ScenarioKind, &str); 4] = [
    (ScenarioKind::Chaos, "chaos"),
    (ScenarioKind::Fig2, "fig2"),
    (ScenarioKind::Batch, "batch"),
    (ScenarioKind::Site, "site"),
];

impl ScenarioKind {
    pub fn name(self) -> &'static str {
        SCENARIO_NAMES
            .iter()
            .find(|(k, _)| *k == self)
            .expect("named")
            .1
    }

    pub fn parse(name: &str) -> Option<ScenarioKind> {
        SCENARIO_NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(k, _)| *k)
    }
}

/// One concrete scenario instance.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Which workload to run.
    pub kind: ScenarioKind,
    /// Seed for the fault schedule and the retry jitter.
    pub seed: u64,
    /// Workload size (trace events for chaos, Null calls for fig2).
    pub calls: usize,
}

impl Scenario {
    /// A `kind` scenario; the Figure-2 workload is unseeded, so its seed
    /// is 0.
    pub fn new(kind: ScenarioKind, seed: u64, calls: usize) -> Scenario {
        let seed = if kind == ScenarioKind::Fig2 { 0 } else { seed };
        Scenario { kind, seed, calls }
    }

    /// A chaos scenario.
    pub fn chaos(seed: u64, calls: usize) -> Scenario {
        Scenario::new(ScenarioKind::Chaos, seed, calls)
    }

    /// A Figure-2 scenario.
    pub fn fig2(calls: usize) -> Scenario {
        Scenario::new(ScenarioKind::Fig2, 0, calls)
    }
}

/// The chaos scenario's default fault schedule for `seed`.
pub fn chaos_fault_config(seed: u64) -> FaultConfig {
    FaultConfig {
        server_panic_every: 7,
        forge_binding_every: 11,
        dispatch_delay_us: 5,
        ..FaultConfig::with_seed(seed)
    }
}

/// The batched-chaos scenario's default fault schedule for `seed`: the
/// ring-specific fault sites (submission ring presented as full, lost
/// doorbells) on top of server panics and dispatch delays.
pub fn batch_fault_config(seed: u64) -> FaultConfig {
    FaultConfig {
        server_panic_every: 5,
        ring_full_every: 7,
        doorbell_lost_every: 3,
        dispatch_delay_us: 2,
        ..FaultConfig::with_seed(seed)
    }
}

/// Everything observable about one scenario run, captured for the
/// byte-equality oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArtifacts {
    /// `spans_to_json` over the run's flight spans, trace ids normalized
    /// to dense per-run indices (raw ids are a process-global counter).
    pub trace_json: String,
    /// `metrics_to_json` over the runtime's final metrics snapshot.
    pub metrics_json: String,
    /// Final virtual clock of CPU 0, nanoseconds.
    pub vtime_ns: u64,
    /// The fault plan's event digest (0 when no plan is installed).
    pub fault_digest: u64,
    /// Fault events injected.
    pub fault_events: u64,
    /// Client calls that succeeded.
    pub ok: u32,
    /// Client calls that failed.
    pub err: u32,
}

/// 64-bit FNV-1a, used for the artifact digests stored in log metadata.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Rewrites raw (process-global) trace ids as dense 1-based per-run
/// indices, in ascending allocation order. Two runs of the same scenario
/// then produce byte-identical `spans_to_json` no matter how many trace
/// ids the rest of the process consumed in between.
fn normalize_trace_ids(spans: &mut [SpanRecord]) {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.trace.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    for s in spans.iter_mut() {
        let dense = ids
            .binary_search(&s.trace.raw())
            .expect("own id is present") as u64
            + 1;
        s.trace = TraceId::from_raw(dense);
    }
}

/// Maps one workload-trace event onto the chaos interface.
fn event_call(rank: usize, bytes: u32) -> (&'static str, Vec<Value>) {
    match rank % 3 {
        0 => ("Get", vec![Value::Int32(bytes as i32)]),
        1 => ("Put", vec![Value::Int32(bytes as i32)]),
        _ => ("Stat", vec![]),
    }
}

/// A run in progress: the runtime plus the call driver.
struct ScenarioRun {
    rt: Arc<LrpcRuntime>,
    plan: Option<Arc<FaultPlan>>,
    driver: Driver,
}

enum Driver {
    Chaos(Box<ResilientClient>),
    Fig2 {
        thread: Arc<Thread>,
        binding: Binding,
    },
    Batch {
        thread: Arc<Thread>,
        binding: Binding,
    },
    Site {
        threads: Vec<Arc<Thread>>,
        bindings: Vec<Binding>,
        server_ctx: ContextId,
    },
}

/// Client domains in the site scenario.
const SITE_CLIENTS: usize = 2;

/// CPUs in the site scenario's simulated Firefly.
const SITE_CPUS: usize = 4;

/// The site scenario's fixed sizing plan. A real adaptive run harvests
/// this from a prior leg's histograms; the recorded fixture pins the
/// import-time application path (and its `adapt` decision stream)
/// without depending on the controller's tuning.
fn site_adapt_plan() -> Arc<AdaptPlan> {
    let mut plan = AdaptPlan::default();
    plan.per_interface.insert(
        "RrChaos".to_string(),
        Recommendation {
            astacks: 4,
            ring_slots: 32,
        },
    );
    Arc::new(plan)
}

/// Calls per submitted batch in the batched-chaos scenario.
const BATCH_GROUP: usize = 8;

/// Maps one workload-trace event onto the chaos interface by procedure
/// index (the shape `call_batch` takes).
fn event_call_indexed(rank: usize, bytes: u32) -> (usize, Vec<Value>) {
    match rank % 3 {
        0 => (0, vec![Value::Int32(bytes as i32)]),
        1 => (1, vec![Value::Int32(bytes as i32)]),
        _ => (2, vec![]),
    }
}

fn build(sc: Scenario, fault: &FaultConfig, session: &Arc<Session>) -> ScenarioRun {
    let mut builder = TestRuntime::new()
        .domain_caching(false)
        .astack_policy(AStackPolicy::Fail)
        .session(Arc::clone(session));
    if sc.kind == ScenarioKind::Site {
        builder = builder
            .cpus(SITE_CPUS)
            .domain_caching(true)
            .adapt(site_adapt_plan());
    }
    let rt = builder.build();
    match sc.kind {
        ScenarioKind::Chaos => {
            let server = rt.kernel().create_domain("rr-chaos-server");
            rt.export(&server, RR_CHAOS_IDL, rr_chaos_handlers())
                .expect("export");
            let plan = FaultPlan::new(fault.clone());
            rt.set_fault_plan(Some(Arc::clone(&plan)));
            let app = rt.kernel().create_domain("rr-chaos-app");
            let client = ResilientClient::import(
                &rt,
                &app,
                "RrChaos",
                RecoveryConfig {
                    // No host-time watchdog: the scenario injects no
                    // hangs, and a wall-clock deadline is itself a
                    // nondeterministic decision the log cannot answer.
                    deadline: None,
                    retry: RetryPolicy {
                        max_retries: 2,
                        ..RetryPolicy::default()
                    },
                    breaker: BreakerConfig {
                        trip_after: 3,
                        cooldown_rejects: 2,
                    },
                    jitter_seed: sc.seed,
                    ..RecoveryConfig::default()
                },
            )
            .expect("import");
            ScenarioRun {
                rt,
                plan: Some(plan),
                driver: Driver::Chaos(Box::new(client)),
            }
        }
        ScenarioKind::Fig2 => {
            let server = rt.kernel().create_domain("bench-server");
            rt.export(&server, common::BENCH_IDL, common::lrpc_bench_handlers())
                .expect("export");
            let client = rt.kernel().create_domain("bench-client");
            let thread = rt.kernel().spawn_thread(&client);
            let binding = rt.import(&client, "Bench").expect("import");
            ScenarioRun {
                rt,
                plan: None,
                driver: Driver::Fig2 { thread, binding },
            }
        }
        ScenarioKind::Batch => {
            let server = rt.kernel().create_domain("rr-batch-server");
            rt.export(&server, RR_CHAOS_IDL, rr_chaos_handlers())
                .expect("export");
            let plan = FaultPlan::new(fault.clone());
            rt.set_fault_plan(Some(Arc::clone(&plan)));
            let app = rt.kernel().create_domain("rr-batch-app");
            let thread = rt.kernel().spawn_thread(&app);
            let binding = rt.import(&app, "RrChaos").expect("import");
            ScenarioRun {
                rt,
                plan: Some(plan),
                driver: Driver::Batch { thread, binding },
            }
        }
        ScenarioKind::Site => {
            // No fault plan: the fixture pins the clean multi-CPU path —
            // idle-processor claims, per-interface cache counters and
            // import-time adaptive sizing, not fault handling.
            let server = rt.kernel().create_domain("rr-site-server");
            let server_ctx = server.ctx().id();
            rt.export(&server, RR_CHAOS_IDL, rr_chaos_handlers())
                .expect("export");
            let mut threads = Vec::with_capacity(SITE_CLIENTS);
            let mut bindings = Vec::with_capacity(SITE_CLIENTS);
            for i in 0..SITE_CLIENTS {
                let client = rt.kernel().create_domain(format!("rr-site-client-{i}"));
                threads.push(rt.kernel().spawn_thread(&client));
                bindings.push(rt.import(&client, "RrChaos").expect("import"));
            }
            ScenarioRun {
                rt,
                plan: None,
                driver: Driver::Site {
                    threads,
                    bindings,
                    server_ctx,
                },
            }
        }
    }
}

fn drive(run: &ScenarioRun, sc: Scenario) -> (u32, u32) {
    match &run.driver {
        Driver::Chaos(client) => {
            let trace = TraceModel::taos().generate(sc.seed, sc.calls);
            let (mut ok, mut err) = (0, 0);
            for ev in &trace.events {
                let (proc, args) = event_call(ev.proc_rank, ev.bytes);
                match client.call(proc, &args) {
                    Ok(_) => ok += 1,
                    Err(_) => err += 1,
                }
            }
            (ok, err)
        }
        Driver::Fig2 { thread, binding } => {
            for _ in 0..sc.calls {
                binding
                    .call(0, thread, "Null", &[])
                    .expect("fig2 Null call");
            }
            (sc.calls as u32, 0)
        }
        Driver::Site {
            threads,
            bindings,
            server_ctx,
        } => {
            // A compact version of the tail benchmark's multiprocessor
            // driver: each call dispatches on the earliest-clock CPU and
            // the finishing CPU parks idling in the server's context, so
            // the next call's transfer claims it with a processor
            // exchange (Section 3.4) — every claim is a recorded
            // `sched:idle-claim` decision.
            let machine = run.rt.kernel().machine();
            let n = machine.num_cpus();
            let trace = TraceModel::taos().generate(sc.seed, sc.calls);
            let (mut ok, mut err) = (0, 0);
            for (rank, ev) in trace.events.iter().enumerate() {
                let (proc_index, args) = event_call_indexed(ev.proc_rank, ev.bytes);
                let cpu_id = (0..n)
                    .min_by_key(|&i| (machine.cpu(i).now(), i))
                    .expect("the machine has CPUs");
                machine.cpu(cpu_id).set_idle_in(None);
                let slot = rank % SITE_CLIENTS;
                match bindings[slot].call_unmetered(cpu_id, &threads[slot], proc_index, &args) {
                    Ok(out) => {
                        ok += 1;
                        machine.cpu(out.end_cpu).set_idle_in(Some(*server_ctx));
                    }
                    Err(_) => err += 1,
                }
            }
            (ok, err)
        }
        Driver::Batch { thread, binding } => {
            let trace = TraceModel::taos().generate(sc.seed, sc.calls);
            let (mut ok, mut err) = (0, 0);
            for group in trace.events.chunks(BATCH_GROUP) {
                let requests: Vec<(usize, Vec<Value>)> = group
                    .iter()
                    .map(|ev| event_call_indexed(ev.proc_rank, ev.bytes))
                    .collect();
                match binding.call_batch(0, thread, requests) {
                    Ok(out) => {
                        for r in &out.results {
                            match r {
                                Ok(_) => ok += 1,
                                Err(_) => err += 1,
                            }
                        }
                    }
                    Err(_) => err += group.len() as u32,
                }
            }
            (ok, err)
        }
    }
}

/// Runs one scenario under `session`, capturing the full artifact set.
/// The caller must hold [`common::flight_lock`] across the call.
fn run_scenario(sc: Scenario, fault: &FaultConfig, session: &Arc<Session>) -> RunArtifacts {
    let run = build(sc, fault, session);

    // Trace-id watermarks bracket the run: every id the run allocates is
    // strictly between them, so this thread's earlier spans are filtered
    // out of the capture. Every call of a scenario runs on this thread, so
    // only its ring is read: a parallel test calling while the recorder is
    // on records into its own thread's ring.
    let lo = TraceId::next().raw();
    obs::flight::enable();
    let (ok, err) = drive(&run, sc);
    obs::flight::disable();
    let hi = TraceId::next().raw();

    let mut spans: Vec<SpanRecord> = obs::flight::thread_snapshot()
        .into_iter()
        .filter(|s| s.trace.raw() > lo && s.trace.raw() < hi)
        .collect();
    normalize_trace_ids(&mut spans);
    let trace_json = obs::spans_to_json(&spans, &|code| Phase::from_code(code).label().to_string());
    let metrics_json = obs::metrics_to_json(&run.rt.collect_metrics());
    RunArtifacts {
        trace_json,
        metrics_json,
        vtime_ns: run.rt.kernel().machine().cpu(0).now().as_nanos(),
        fault_digest: run.plan.as_ref().map_or(0, |p| p.digest()),
        fault_events: run.plan.as_ref().map_or(0, |p| p.event_count() as u64),
        ok,
        err,
    }
}

/// A finished recording: the decision log plus the run's artifacts.
#[derive(Debug)]
pub struct Recording {
    /// The decision log, with scenario parameters and artifact digests in
    /// its metadata block.
    pub log: RecordLog,
    /// The recorded run's artifacts.
    pub artifacts: RunArtifacts,
}

/// Records `sc` under its default fault schedule.
pub fn record(sc: Scenario) -> Recording {
    let fault = match sc.kind {
        ScenarioKind::Chaos => chaos_fault_config(sc.seed),
        ScenarioKind::Fig2 | ScenarioKind::Site => FaultConfig::default(),
        ScenarioKind::Batch => batch_fault_config(sc.seed),
    };
    record_with(sc, &fault)
}

/// Records `sc` under an explicit fault schedule (the shrinker's probe).
pub fn record_with(sc: Scenario, fault: &FaultConfig) -> Recording {
    let _flight = common::flight_lock();
    let session = Session::recorder();
    let artifacts = run_scenario(sc, fault, &session);
    session.set_meta("scenario", sc.kind.name());
    session.set_meta("seed", &sc.seed.to_string());
    session.set_meta("calls", &sc.calls.to_string());
    session.set_meta("fault_config", &format!("{fault:?}"));
    session.set_meta(
        "trace_digest",
        &fnv1a(artifacts.trace_json.as_bytes()).to_string(),
    );
    session.set_meta(
        "metrics_digest",
        &fnv1a(artifacts.metrics_json.as_bytes()).to_string(),
    );
    session.set_meta("vtime_ns", &artifacts.vtime_ns.to_string());
    session.set_meta("fault_digest", &artifacts.fault_digest.to_string());
    session.set_meta("fault_events", &artifacts.fault_events.to_string());
    session.set_meta("ok", &artifacts.ok.to_string());
    session.set_meta("err", &artifacts.err.to_string());
    Recording {
        log: session.finish(),
        artifacts,
    }
}

/// The outcome of replaying a log.
pub struct ReplayReport {
    /// Artifacts of the replayed run.
    pub artifacts: RunArtifacts,
    /// First decision that mismatched the log, if any.
    pub divergence: Option<ReplayDivergence>,
    /// Logged decisions the replayed run never consumed (it made fewer
    /// decisions than the recording).
    pub unconsumed: usize,
    /// Artifact fields that differ from the recorded run, as
    /// `name: recorded vs replayed` lines.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// True when the replayed run consumed the whole log without a single
    /// divergence and every artifact matches the recording byte-for-byte.
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none() && self.unconsumed == 0 && self.mismatches.is_empty()
    }
}

fn meta_u64(meta: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    meta.get(key)
        .ok_or_else(|| format!("log metadata is missing `{key}`"))?
        .parse()
        .map_err(|_| format!("log metadata `{key}` is not a number"))
}

/// Reconstructs the scenario a log was recorded from.
pub fn scenario_of(log: &RecordLog) -> Result<Scenario, String> {
    let name = log
        .meta
        .get("scenario")
        .ok_or("log metadata is missing `scenario`")?;
    let kind =
        ScenarioKind::parse(name).ok_or_else(|| format!("unknown scenario `{name}` in log"))?;
    Ok(Scenario {
        kind,
        seed: meta_u64(&log.meta, "seed")?,
        calls: meta_u64(&log.meta, "calls")? as usize,
    })
}

/// Replays a recorded log from the log alone: the scenario is rebuilt
/// from the metadata block, the fault plan is an all-zero dummy (every
/// draw is answered from the log), and the replayed artifacts are checked
/// byte-for-byte against the recorded digests.
pub fn replay(log: &RecordLog) -> Result<ReplayReport, String> {
    let sc = scenario_of(log)?;
    let _flight = common::flight_lock();
    let session = Session::replayer(log);
    let artifacts = run_scenario(sc, &FaultConfig::default(), &session);

    let mut mismatches = Vec::new();
    let digest = |s: &str| fnv1a(s.as_bytes()).to_string();
    for (key, got) in [
        ("trace_digest", digest(&artifacts.trace_json)),
        ("metrics_digest", digest(&artifacts.metrics_json)),
        ("vtime_ns", artifacts.vtime_ns.to_string()),
        ("fault_digest", artifacts.fault_digest.to_string()),
        ("fault_events", artifacts.fault_events.to_string()),
        ("ok", artifacts.ok.to_string()),
        ("err", artifacts.err.to_string()),
    ] {
        match log.meta.get(key) {
            Some(recorded) if *recorded == got => {}
            Some(recorded) => {
                mismatches.push(format!("{key}: recorded {recorded} vs replayed {got}"))
            }
            None => mismatches.push(format!("{key}: missing from log metadata")),
        }
    }
    Ok(ReplayReport {
        artifacts,
        divergence: session.divergence(),
        unconsumed: session.unconsumed(),
        mismatches,
    })
}

/// Recording overhead on the serial Figure-2 Null-call loop: identical
/// workloads timed live and in record mode, interleaved, best-of-5 host
/// wall each.
pub struct OverheadReport {
    /// Calls per timed loop.
    pub calls: usize,
    /// Best live host wall, ns/call.
    pub live_ns_per_call: f64,
    /// Best recording host wall, ns/call.
    pub record_ns_per_call: f64,
    /// `(record - live) / live`, floored at 0.
    pub overhead: f64,
    /// Decision events one recorded loop captured.
    pub events: usize,
}

/// The `rr-overhead` suite: [`measure_overhead`] over `--rcalls` calls,
/// gated at [`MAX_RECORD_OVERHEAD`].
pub fn overhead_suite(opts: &Opts, _: &[Json]) -> SuiteRun {
    let r = measure_overhead(opts.rcalls);
    SuiteRun {
        text: "Record/replay overhead on the serial Null-call loop (host wall-clock)\n".into(),
        params: vec![("calls", r.calls.into())],
        metrics: vec![
            ("live_ns_per_call", r.live_ns_per_call.into()),
            ("record_ns_per_call", r.record_ns_per_call.into()),
            ("events", r.events.into()),
        ],
        gates: vec![Gate::new("overhead", r.overhead, "<=", MAX_RECORD_OVERHEAD)],
        ..SuiteRun::default()
    }
}

/// Measures [`OverheadReport`] for `calls` Null calls.
pub fn measure_overhead(calls: usize) -> OverheadReport {
    let _flight = common::flight_lock();
    let sc = Scenario::fig2(calls);
    let time_once = |session: &Arc<Session>| -> f64 {
        let run = build(sc, &FaultConfig::default(), session);
        let Driver::Fig2 { thread, binding } = &run.driver else {
            unreachable!("fig2 scenario builds a fig2 driver")
        };
        binding.call(0, thread, "Null", &[]).expect("warmup");
        binding.call(0, thread, "Null", &[]).expect("warmup");
        let t0 = Instant::now();
        for _ in 0..calls {
            binding.call(0, thread, "Null", &[]).expect("timed Null");
        }
        t0.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64
    };
    // Interleave live/record iterations so slow host phases (frequency
    // scaling, noisy neighbours) hit both modes alike, and take the best
    // of each: the minima approximate the undisturbed cost.
    let mut live_ns_per_call = f64::INFINITY;
    let mut record_ns_per_call = f64::INFINITY;
    let mut events = 0;
    for _ in 0..5 {
        live_ns_per_call = live_ns_per_call.min(time_once(&Session::live()));
        let session = Session::recorder();
        record_ns_per_call = record_ns_per_call.min(time_once(&session));
        events = session.event_count();
    }
    OverheadReport {
        calls,
        live_ns_per_call,
        record_ns_per_call,
        overhead: ((record_ns_per_call - live_ns_per_call) / live_ns_per_call).max(0.0),
        events,
    }
}

/// The result of shrinking a failing chaos run.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimized fault schedule.
    pub config: FaultConfig,
    /// The minimized call count.
    pub calls: usize,
    /// Candidate runs evaluated.
    pub steps: usize,
    /// The minimized run, recorded.
    pub recording: Recording,
    /// True if the minimized recording replays identically and the
    /// replayed run still exhibits the failure signature.
    pub replay_verified: bool,
}

/// One shrinkable `u64` fault knob: accessors plus how to make its
/// schedule sparser when it cannot be disabled outright (every-N knobs
/// double their interval; magnitude knobs halve their value).
struct U64Knob {
    get: fn(&FaultConfig) -> u64,
    set: fn(&mut FaultConfig, u64),
    sparser: fn(u64) -> u64,
}

fn u64_knobs() -> Vec<U64Knob> {
    fn double(v: u64) -> u64 {
        v.saturating_mul(2)
    }
    fn halve(v: u64) -> u64 {
        v / 2
    }
    vec![
        U64Knob {
            get: |c| c.server_panic_every,
            set: |c, v| c.server_panic_every = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.server_hang_every,
            set: |c, v| c.server_hang_every = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.forge_binding_every,
            set: |c, v| c.forge_binding_every = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.terminate_server_after,
            set: |c, v| c.terminate_server_after = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.ring_full_every,
            set: |c, v| c.ring_full_every = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.doorbell_lost_every,
            set: |c, v| c.doorbell_lost_every = v,
            sparser: double,
        },
        U64Knob {
            get: |c| c.dispatch_delay_us,
            set: |c, v| c.dispatch_delay_us = v,
            sparser: halve,
        },
        U64Knob {
            get: |c| c.packet_delay_us,
            set: |c, v| c.packet_delay_us = v,
            sparser: halve,
        },
    ]
}

/// Delta-debugs a failing chaos run: starting from `initial` and
/// `initial_calls`, repeatedly bisects the call count and disables or
/// sparsifies fault knobs, keeping every change under which `failing`
/// still holds, until a fixpoint. Every probe is a fresh deterministic
/// recording, so the search is reproducible. Returns `None` if the
/// initial configuration does not exhibit the failure signature.
pub fn shrink_chaos(
    seed: u64,
    initial: &FaultConfig,
    initial_calls: usize,
    failing: &dyn Fn(&RunArtifacts) -> bool,
) -> Option<ShrinkOutcome> {
    let mut steps = 0usize;
    let mut probe = |config: &FaultConfig, calls: usize| -> bool {
        steps += 1;
        failing(&record_with(Scenario::chaos(seed, calls), config).artifacts)
    };

    let mut config = initial.clone();
    let mut calls = initial_calls;
    if !probe(&config, calls) {
        return None;
    }

    loop {
        let mut changed = false;

        // Bisect the workload first: fewer calls shrink every stream.
        while calls >= 2 && probe(&config, calls / 2) {
            calls /= 2;
            changed = true;
        }

        // Flag knobs: off or on, nothing in between.
        for (get, set) in [
            (
                (|c: &FaultConfig| c.astack_exhaust) as fn(&FaultConfig) -> bool,
                (|c: &mut FaultConfig| c.astack_exhaust = false) as fn(&mut FaultConfig),
            ),
            (
                |c: &FaultConfig| c.bulk_exhaust,
                |c: &mut FaultConfig| c.bulk_exhaust = false,
            ),
        ] {
            if !get(&config) {
                continue;
            }
            let mut cand = config.clone();
            set(&mut cand);
            if probe(&cand, calls) {
                config = cand;
                changed = true;
            }
        }

        // Probability knobs: try zero.
        for set in [
            (|c: &mut FaultConfig| c.packet_loss = 0.0) as fn(&mut FaultConfig),
            |c: &mut FaultConfig| c.packet_dup = 0.0,
            |c: &mut FaultConfig| c.packet_delay_prob = 0.0,
        ] {
            let mut cand = config.clone();
            set(&mut cand);
            if cand != config && probe(&cand, calls) {
                config = cand;
                changed = true;
            }
        }

        // Numeric knobs: disable outright if the signature survives,
        // otherwise make the schedule sparser one notch per round.
        for knob in u64_knobs() {
            let current = (knob.get)(&config);
            if current == 0 {
                continue;
            }
            let mut cand = config.clone();
            (knob.set)(&mut cand, 0);
            if probe(&cand, calls) {
                config = cand;
                changed = true;
                continue;
            }
            let sparser = (knob.sparser)(current);
            if sparser != current && sparser != 0 {
                let mut cand = config.clone();
                (knob.set)(&mut cand, sparser);
                if probe(&cand, calls) {
                    config = cand;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }

    // Verify the minimized run end to end: record it, replay it from the
    // log alone, and require both byte-identity and the failure signature
    // on the *replayed* artifacts.
    let recording = record_with(Scenario::chaos(seed, calls), &config);
    let replay_verified = match replay(&recording.log) {
        Ok(report) => report.is_identical() && failing(&report.artifacts),
        Err(_) => false,
    };
    Some(ShrinkOutcome {
        config,
        calls,
        steps,
        recording,
        replay_verified,
    })
}

/// The default failure signature: the client observed at least one error.
pub fn client_saw_errors(artifacts: &RunArtifacts) -> bool {
    artifacts.err > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for kind in [
            ScenarioKind::Chaos,
            ScenarioKind::Fig2,
            ScenarioKind::Batch,
            ScenarioKind::Site,
        ] {
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn trace_normalization_is_dense_and_order_preserving() {
        let span = |raw: u64, start: u64| SpanRecord {
            trace: TraceId::from_raw(raw),
            phase: 1,
            start_ns: start,
            dur_ns: 1,
        };
        let mut spans = vec![span(900, 0), span(17, 1), span(900, 2), span(44, 3)];
        normalize_trace_ids(&mut spans);
        let raws: Vec<u64> = spans.iter().map(|s| s.trace.raw()).collect();
        assert_eq!(raws, vec![3, 1, 3, 2], "ascending raw -> dense 1-based");
    }

    #[test]
    fn fig2_record_replays_byte_identically() {
        let rec = record(Scenario::fig2(20));
        assert!(rec.log.total_events() > 0, "the run recorded decisions");
        assert_eq!(rec.artifacts.ok, 20);
        let report = replay(&rec.log).expect("well-formed log");
        assert!(
            report.is_identical(),
            "divergence {:?}, unconsumed {}, mismatches {:?}",
            report.divergence,
            report.unconsumed,
            report.mismatches
        );
        assert_eq!(report.artifacts, rec.artifacts);
    }

    #[test]
    fn chaos_record_replays_byte_identically_from_the_log_alone() {
        let rec = record(Scenario::chaos(42, 60));
        assert!(rec.artifacts.err > 0, "the schedule injected failures");
        assert!(rec.artifacts.fault_events > 0);
        // replay() installs a zero-knob dummy plan: every fault draw must
        // be answered from the log, or the artifacts cannot match.
        let report = replay(&rec.log).expect("well-formed log");
        assert!(
            report.is_identical(),
            "divergence {:?}, unconsumed {}, mismatches {:?}",
            report.divergence,
            report.unconsumed,
            report.mismatches
        );
        assert_eq!(report.artifacts.trace_json, rec.artifacts.trace_json);
        assert_eq!(report.artifacts.metrics_json, rec.artifacts.metrics_json);
    }

    #[test]
    fn batch_record_replays_byte_identically_from_the_log_alone() {
        let rec = record(Scenario::new(ScenarioKind::Batch, 5, 48));
        assert!(rec.artifacts.err > 0, "the schedule injected failures");
        assert!(rec.artifacts.fault_events > 0);
        let report = replay(&rec.log).expect("well-formed log");
        assert!(
            report.is_identical(),
            "divergence {:?}, unconsumed {}, mismatches {:?}",
            report.divergence,
            report.unconsumed,
            report.mismatches
        );
        assert_eq!(report.artifacts, rec.artifacts);
    }

    #[test]
    fn site_record_replays_byte_identically_and_claims_processors() {
        let rec = record(Scenario::new(ScenarioKind::Site, 3, 48));
        assert_eq!(rec.artifacts.err, 0, "the clean site run has no faults");
        assert_eq!(rec.artifacts.ok, 48);
        let claims = rec
            .log
            .streams
            .get("sched:idle-claim")
            .expect("multi-CPU dispatch probes the idle set");
        assert!(
            claims.iter().any(|e| e.payload != 0),
            "at least one probe claimed a parked processor"
        );
        assert!(
            rec.log.streams.contains_key("adapt"),
            "import applied the sizing plan as a recorded decision"
        );
        let report = replay(&rec.log).expect("well-formed log");
        assert!(
            report.is_identical(),
            "divergence {:?}, unconsumed {}, mismatches {:?}",
            report.divergence,
            report.unconsumed,
            report.mismatches
        );
        assert_eq!(report.artifacts, rec.artifacts);
    }

    #[test]
    fn shrinker_minimizes_a_failing_chaos_run() {
        let outcome = shrink_chaos(7, &chaos_fault_config(7), 64, &client_saw_errors)
            .expect("the initial schedule fails");
        assert!(outcome.calls <= 64);
        assert!(outcome.steps > 0);
        assert!(
            outcome.replay_verified,
            "the minimized run must replay identically and still fail"
        );
        // The shrinker must have simplified something: fewer calls or at
        // least one knob disabled relative to the initial schedule.
        let initial = chaos_fault_config(7);
        assert!(
            outcome.calls < 64
                || outcome.config.server_panic_every != initial.server_panic_every
                || outcome.config.forge_binding_every != initial.forge_binding_every
                || outcome.config.dispatch_delay_us != initial.dispatch_delay_us,
            "nothing was shrunk: {:?}",
            outcome.config
        );
    }

    #[test]
    fn shrinker_rejects_a_passing_run() {
        // A quiescent schedule injects nothing, so the signature never
        // holds and the shrinker must say so rather than "minimize".
        assert!(shrink_chaos(7, &FaultConfig::with_seed(7), 8, &client_saw_errors).is_none());
    }
}
