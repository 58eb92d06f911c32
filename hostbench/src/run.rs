//! One benchmark run: set-up, the closed measurement loop, and the report.
//!
//! The measurement window is cut into fixed slices that alternate between
//! two modes, so slow drift of the host hits both modes alike:
//!
//! * untraced runs alternate LRPC operations (the end-to-end figures) with
//!   the same operations through the Taos baseline and with timed
//!   set-ups, so set-up time is sampled across the whole window;
//! * traced runs cycle through plain LRPC operations (the baseline for the
//!   tracing overhead and the unattributed remainder), traced ones (each
//!   counts its allocations and lock acquisitions and keeps its virtual
//!   phase breakdown), and layer-by-layer replays of the same operations
//!   ([`crate::probe`]). Replays get slices of their own so that, with two
//!   threads, replay time does not thin out the contention the traced
//!   calls see.
//!
//! With two calling threads both follow the same slice clock, so they are
//! always in the same mode and contend on the same binding.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use firefly::meter::Phase;

use crate::probe::{Calibration, Layer, Replayer, Tracer};
use crate::stats::{median, quantile};
use crate::workload::{self, Call, Env, OpTrace, Workload};

/// Set-ups measured in turn, one per period, so a run's figures average
/// over several heap layouts.
const MEASURED_ENVS: usize = 3;
/// Share of samples, the quietest, that the gated latencies, rates and
/// set-up time are taken from.
const QUIET_SHARE: f64 = 0.05;
/// LRPC operations each calling thread runs to warm up a measured set-up
/// (plus one Taos operation per five).
const WARMUP_OPS: usize = 1000;
/// LRPC operations of the warm-up included in a timed set-up: enough to
/// reach every procedure of each workload's mix once, so lazy first-call
/// work counts as set-up.
const SETUP_OPS: usize = 16;

/// The operations a timed set-up warms up with: [`SETUP_OPS`] of `ops`
/// evenly spaced by payload, so every seed's set-up moves about the same
/// bytes (the first few of a shuffled `bulk_echo` pool would not).
fn setup_sample(ops: &[Vec<Call>]) -> Vec<Vec<Call>> {
    let payload = |op: &Vec<Call>| op.iter().map(|c| c.payload).sum::<u64>();
    let mut by_payload: Vec<&Vec<Call>> = ops.iter().collect();
    by_payload.sort_by_key(|op| payload(op));
    (0..SETUP_OPS)
        .map(|i| by_payload[(2 * i + 1) * ops.len() / (2 * SETUP_OPS)].clone())
        .collect()
}
/// Spans kept for the span file, per run.
const KEPT_SPANS: usize = 20_000;

/// The Table-5 phases the LRPC path charges, reported as `virt.<phase>_ns`.
const VIRT_PHASES: [(Phase, &str); 11] = [
    (Phase::ProcedureCall, "procedure_call"),
    (Phase::ClientStub, "client_stub"),
    (Phase::Trap, "trap"),
    (Phase::KernelTransfer, "kernel_transfer"),
    (Phase::ContextSwitch, "context_switch"),
    (Phase::ServerStub, "server_stub"),
    (Phase::ArgCopy, "arg_copy"),
    (Phase::QueueOp, "queue_op"),
    (Phase::Marshal, "marshal"),
    (Phase::OobSegment, "oob_segment"),
    (Phase::Other, "other"),
];

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Length of the measurement window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
pub struct Report {
    /// True if every result was correct and every invariant held.
    pub correct: bool,
    /// Calls attempted (LRPC and baseline, set-up included).
    pub attempted: u64,
    /// Calls that failed, returned a wrong result, or stalled.
    pub failed: u64,
    /// The mode's gated metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Further figures for the reader.
    pub info: Vec<Metric>,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
    /// The traced run's kept spans, as JSON lines.
    pub spans: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Plain LRPC operations.
    Lrpc,
    /// The same operations through the Taos baseline.
    Taos,
    /// LRPC operations with allocation counting, lock tallies and their
    /// virtual phase breakdown.
    Traced,
    /// Layer-by-layer replays of the operations, no real calls.
    Replay,
    /// Timed set-ups (build, export, import, short warm-up), each dropped
    /// after it is timed.
    Setup,
}

/// Untraced period: (mode, slice length).
const UNTRACED: [(Mode, Duration); 3] = [
    (Mode::Lrpc, Duration::from_millis(60)),
    (Mode::Taos, Duration::from_millis(30)),
    (Mode::Setup, Duration::from_millis(10)),
];

/// Traced period.
const TRACED: [(Mode, Duration); 3] = [
    (Mode::Lrpc, Duration::from_millis(40)),
    (Mode::Traced, Duration::from_millis(30)),
    (Mode::Replay, Duration::from_millis(30)),
];

/// One full measurement slice: one calling thread's, or (after
/// [`by_period`]) all threads' in the same period.
#[derive(Clone, Copy, Debug)]
struct Slice {
    mode: Mode,
    period: u64,
    p50: f64,
    p95: f64,
    p99: f64,
    /// Calls completed per second.
    rate: f64,
}

/// Counters a calling thread keeps; summed across threads.
#[derive(Clone, Copy, Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    virt_mismatch: u64,
    lrpc_ops: u64,
    lrpc_calls: u64,
    lrpc_host_ns: u64,
    lrpc_secs: f64,
    lrpc_virt_ns: u64,
    payload: u64,
    tlb_misses: u64,
    traced_calls: u64,
    batches: u64,
    doorbells: u64,
    traps: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.virt_mismatch += o.virt_mismatch;
        self.lrpc_ops += o.lrpc_ops;
        self.lrpc_calls += o.lrpc_calls;
        self.lrpc_host_ns += o.lrpc_host_ns;
        self.lrpc_secs += o.lrpc_secs;
        self.lrpc_virt_ns += o.lrpc_virt_ns;
        self.payload += o.payload;
        self.tlb_misses += o.tlb_misses;
        self.traced_calls += o.traced_calls;
        self.batches += o.batches;
        self.doorbells += o.doorbells;
        self.traps += o.traps;
    }
}

/// What one calling thread measured.
struct ThreadOut {
    counts: Counts,
    slices: Vec<Slice>,
    trace: OpTrace,
    tracer: Tracer,
    /// Seconds each timed set-up took.
    setup_times: Vec<f64>,
    errors: Vec<String>,
}

/// Builds, exports, imports and warms up both systems with `warmup`
/// operations per calling thread; returns the time all of it took.
fn setup(w: Workload, ops: &[Vec<Call>], warmup: usize) -> Result<(Env, Counts, f64), String> {
    let t0 = Instant::now();
    let env = workload::build(w).map_err(|e| format!("set-up: {e}"))?;
    let mut c = Counts::default();
    for cpu in 0..w.threads() {
        for (i, op) in ops.iter().cycle().take(warmup).enumerate() {
            let reqs = w.batched().then(|| workload::requests(op));
            let r = workload::lrpc_op(w, &env.lrpc, cpu, op, reqs, None);
            c.attempted += op.len() as u64;
            c.failed += r.failed;
            if i % 5 == 0 {
                let r = workload::taos_op(&env.taos, cpu, op);
                c.attempted += op.len() as u64;
                c.failed += r.failed;
            }
        }
    }
    Ok((env, c, t0.elapsed().as_secs_f64()))
}

/// One calling thread's closed loop over the shared slice clock. Each
/// period runs against the next of `envs`, the same one on every thread;
/// timed set-ups warm up with `setup_ops`.
fn worker(
    cfg: &Config,
    envs: &[Env],
    ops: &[Vec<Call>],
    setup_ops: &[Vec<Call>],
    cpu: usize,
    start: Instant,
) -> ThreadOut {
    let w = cfg.workload;
    let end = start + cfg.window;
    let sched: &[(Mode, Duration)] = if cfg.trace { &TRACED } else { &UNTRACED };
    let period = sched.iter().map(|&(_, d)| d).sum::<Duration>().as_nanos();
    let mut out = ThreadOut {
        counts: Counts::default(),
        slices: Vec::new(),
        trace: OpTrace::default(),
        tracer: Tracer::new(if cpu == 0 { KEPT_SPANS } else { 0 }),
        setup_times: Vec::new(),
        errors: Vec::new(),
    };
    let c = &mut out.counts;
    let replayers: Vec<Replayer> = envs.iter().map(|e| Replayer::new(&e.lrpc, cpu)).collect();
    // The two threads start at different points of the op pool.
    let mut next = cpu * ops.len() / 2;
    let mut samples: Vec<u64> = Vec::with_capacity(1 << 16);
    // What replays feed the latency histograms: the virtual latency of
    // the last real call.
    let mut observe = workload::NULL_VIRT_NS;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let since = (now - start).as_nanos();
        let index = (since / period) as u64;
        let e = index as usize % envs.len();
        let (env, replayer) = (&envs[e], &replayers[e]);
        let machine = env.lrpc.rt.kernel().machine();
        let mut slice_end = now - Duration::from_nanos((since % period) as u64);
        let (mut mode, mut nominal) = sched[0];
        for &(m, d) in sched {
            slice_end += d;
            (mode, nominal) = (m, d);
            if now < slice_end {
                break;
            }
        }
        let slice_end = slice_end.min(end);
        if mode == Mode::Setup {
            // One thread sets up, so set-ups never contend with each
            // other; the others wait out the slice.
            while cpu == 0 && Instant::now() < slice_end {
                match setup(w, setup_ops, SETUP_OPS) {
                    Ok((_, sc, secs)) => {
                        c.add(&sc);
                        out.setup_times.push(secs);
                    }
                    Err(e) => {
                        out.errors.push(e);
                        break;
                    }
                }
            }
            std::thread::sleep(slice_end.saturating_duration_since(Instant::now()));
            continue;
        }
        let tlb0 = machine.cpu(cpu).tlb_misses();
        let slice_start = Instant::now();
        samples.clear();
        while Instant::now() < slice_end {
            let op = &ops[next % ops.len()];
            next += 1;
            let calls = op.len() as u64;
            if mode == Mode::Replay {
                if let Err(e) = replayer.replay(&out.tracer, next as u64, op, w.batched(), observe)
                {
                    if out.errors.len() < 4 {
                        out.errors.push(format!("replay: {e}"));
                    }
                }
                continue;
            }
            c.attempted += calls;
            let reqs = w.batched().then(|| workload::requests(op));
            let r = match mode {
                Mode::Taos => workload::taos_op(&env.taos, cpu, op),
                Mode::Traced => {
                    workload::lrpc_op(w, &env.lrpc, cpu, op, reqs, Some(&mut out.trace))
                }
                _ => workload::lrpc_op(w, &env.lrpc, cpu, op, reqs, None),
            };
            samples.push(r.host_ns);
            c.failed += r.failed;
            c.virt_mismatch += r.virt_mismatch;
            match mode {
                Mode::Lrpc => {
                    c.lrpc_ops += 1;
                    c.lrpc_calls += calls;
                    c.lrpc_host_ns += r.host_ns;
                    c.lrpc_virt_ns += r.virt_ns;
                    c.payload += op.iter().map(|c| c.payload).sum::<u64>();
                    observe = r.virt_ns / calls;
                }
                Mode::Traced => {
                    c.traced_calls += calls;
                    if w.batched() {
                        c.batches += 1;
                        c.doorbells += r.doorbells;
                        c.traps += r.traps;
                    }
                }
                _ => {}
            }
        }
        let took = slice_start.elapsed();
        if mode == Mode::Lrpc {
            c.lrpc_secs += took.as_secs_f64();
            c.tlb_misses += machine.cpu(cpu).tlb_misses() - tlb0;
        }
        // Slices cut short by the end of the window are not summarized.
        if took >= nominal / 2 && !samples.is_empty() {
            out.slices.push(Slice {
                mode,
                period: index,
                p50: quantile(&mut samples, 0.5),
                p95: quantile(&mut samples, 0.95),
                p99: quantile(&mut samples, 0.99),
                rate: (samples.len() * ops[0].len()) as f64 / took.as_secs_f64(),
            });
        }
    }
    out
}

/// The `mode` slices of every thread, joined per period: mean latency
/// quantiles, summed rate. Periods some thread has no full slice for are
/// dropped.
fn by_period(outs: &[ThreadOut], mode: Mode) -> Vec<Slice> {
    let n = outs.len() as f64;
    let mut periods: BTreeMap<u64, (usize, Slice)> = BTreeMap::new();
    for s in outs
        .iter()
        .flat_map(|o| &o.slices)
        .filter(|s| s.mode == mode)
    {
        let (count, sum) = periods.entry(s.period).or_insert((
            0,
            Slice {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                rate: 0.0,
                ..*s
            },
        ));
        *count += 1;
        sum.p50 += s.p50 / n;
        sum.p95 += s.p95 / n;
        sum.p99 += s.p99 / n;
        sum.rate += s.rate;
    }
    periods
        .into_values()
        .filter(|&(count, _)| count == outs.len())
        .map(|(_, s)| s)
        .collect()
}

/// Mean of the quietest [`QUIET_SHARE`] of `values`: the lowest ones
/// (pass negated values for rates).
///
/// The host is shared: other tenants' bursts slow whole slices by up to
/// 60% and cover a different share of each run, which moves all-slice
/// figures by more than any bound could tolerate. The quiet samples are
/// the ones such bursts did not hit.
fn quiet(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = ((v.len() as f64 * QUIET_SHARE).ceil() as usize).min(v.len());
    per(v[..n].iter().sum(), n as f64)
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn mem_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Counters of the measured bindings: fresh E-stacks, bulk fallbacks,
/// out-of-band calls.
fn binding_counters(envs: &[Env]) -> [u64; 3] {
    let mut c = [0u64; 3];
    for e in envs {
        let st = e.lrpc.binding.state();
        c[0] += st.estack_pool.stats().allocations;
        c[1] += st.stats.bulk_fallbacks();
        c[2] += st.stats.bulk_bytes().map_or(0, |h| h.count());
    }
    c
}

/// Runs one benchmark run.
pub fn run(cfg: &Config) -> Report {
    let w = cfg.workload;
    let ops = workload::inputs(w, cfg.seed);
    let mut problems = Vec::new();
    let calibration = Tracer::calibrate();

    // ---- The measured environments, fully warmed up -------------------
    let mut envs: Vec<Env> = Vec::with_capacity(MEASURED_ENVS);
    let mut counts = Counts::default();
    for _ in 0..MEASURED_ENVS {
        match setup(w, &ops, WARMUP_OPS) {
            Ok((e, c, _)) => {
                counts.add(&c);
                envs.push(e);
            }
            Err(e) => {
                return Report {
                    correct: false,
                    attempted: counts.attempted.max(1),
                    failed: counts.attempted.max(1),
                    metrics: Vec::new(),
                    info: Vec::new(),
                    problems: vec![e],
                    spans: String::new(),
                };
            }
        }
    }
    let counters0 = binding_counters(&envs);

    // ---- Measurement --------------------------------------------------
    let setup_ops = setup_sample(&ops);
    let start = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let others: Vec<_> = (1..w.threads())
            .map(|cpu| {
                let (envs, ops, setup_ops) = (&envs, &ops, &setup_ops);
                s.spawn(move || worker(cfg, envs, ops, setup_ops, cpu, start))
            })
            .collect();
        let mut outs = vec![worker(cfg, &envs, &ops, &setup_ops, 0, start)];
        for h in others {
            outs.push(h.join().expect("calling thread panicked"));
        }
        outs
    });

    // ---- Merge the threads --------------------------------------------
    let mut trace = OpTrace::default();
    let tracer = &outs[0].tracer;
    let mut setup_times = Vec::new();
    for (i, o) in outs.iter().enumerate() {
        counts.add(&o.counts);
        trace.add(&o.trace);
        if i > 0 {
            tracer.merge(&o.tracer);
        }
        setup_times.extend(&o.setup_times);
        problems.extend(o.errors.iter().cloned());
    }
    let c = counts;
    // The busiest simulated CPU: Figure 2's throughput denominator.
    let busiest_virt = outs
        .iter()
        .map(|o| o.counts.lrpc_virt_ns)
        .max()
        .unwrap_or(0);
    let lrpc_slices = by_period(&outs, Mode::Lrpc);
    let taos_slices = by_period(&outs, Mode::Taos);
    let traced_slices = by_period(&outs, Mode::Traced);

    if c.failed > 0 {
        problems.push(format!(
            "{} of {} calls failed, returned a wrong result or stalled",
            c.failed, c.attempted
        ));
    }
    if c.virt_mismatch > 0 {
        problems.push(format!(
            "{} Null calls did not take {} virtual ns (Table 4)",
            c.virt_mismatch,
            workload::NULL_VIRT_NS
        ));
    }
    let other_slices = if cfg.trace {
        &traced_slices
    } else {
        &taos_slices
    };
    if lrpc_slices.is_empty() || other_slices.is_empty() || !cfg.trace && setup_times.is_empty() {
        problems.push("the window was too short to sample every mode".into());
    }

    let m = |name: &str, unit: &'static str, value: f64| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    let lrpc_p50 = quiet(lrpc_slices.iter().map(|s| s.p50));
    let virt_call_ns = per(c.lrpc_virt_ns as f64, c.lrpc_calls as f64);
    let virt_calls_per_s = per(c.lrpc_calls as f64 * 1e9, busiest_virt as f64);
    let mut metrics = Vec::new();
    let mut info = vec![
        m(
            "fail_ratio",
            "ratio",
            per(c.failed as f64, c.attempted as f64),
        ),
        m("slices", "count", lrpc_slices.len() as f64),
        m(
            "op_p50_all_ns",
            "ns",
            median(&lrpc_slices.iter().map(|s| s.p50).collect::<Vec<_>>()),
        ),
        m(
            "calls_per_s_all",
            "1/s",
            per(c.lrpc_calls as f64 * outs.len() as f64, c.lrpc_secs),
        ),
        m("virt_call_ns", "virt_ns", virt_call_ns),
        m("virt_calls_per_s", "virt_1/s", virt_calls_per_s),
    ];

    if !cfg.trace {
        let mem = mem_peak_mb();
        if mem.is_none() {
            problems.push("peak resident memory unavailable (no /proc/self/status)".into());
        }
        let taos_p50 = quiet(taos_slices.iter().map(|s| s.p50));
        metrics.extend([
            m("lrpc_over_taos", "ratio", per(lrpc_p50, taos_p50)),
            m("setup_s", "s", quiet(setup_times.iter().copied())),
            m("mem_peak_mb", "MB", mem.unwrap_or(0.0)),
        ]);
        // Printed, not gated: see README.md, "Why these metrics".
        info.extend([
            m("op_p50_ns", "ns", lrpc_p50),
            m(
                "calls_per_s",
                "1/s",
                -quiet(lrpc_slices.iter().map(|s| -s.rate)),
            ),
            m("taos_p50_ns", "ns", taos_p50),
            m("op_p95_ns", "ns", quiet(lrpc_slices.iter().map(|s| s.p95))),
            m("op_p99_ns", "ns", quiet(lrpc_slices.iter().map(|s| s.p99))),
            m(
                "bytes_per_s",
                "B/s",
                per(c.payload as f64 * outs.len() as f64, c.lrpc_secs),
            ),
            m("setups", "count", setup_times.len() as f64),
            m("setup_all_s", "s", median(&setup_times)),
        ]);
    } else {
        let cal: Calibration = calibration;
        let layer = |l: Layer| tracer.self_ns_per_call(l, cal);
        let calls_per_op = ops[0].len() as f64;
        let attributed: f64 = Layer::ALL.iter().map(|&l| layer(l)).sum::<f64>() * calls_per_op;
        let copy_kib = tracer.copy_bytes() as f64 / 1024.0;
        let mut stalls = 0;
        let mut peak = 0;
        for e in &envs {
            let a = &e.lrpc.binding.state().astacks;
            stalls += a.total_stall_events();
            for class in 0..a.classes().len() {
                peak = peak.max(a.peak_in_use(class));
            }
        }
        let counters1 = binding_counters(&envs);
        let [estack_fresh, fallbacks, bulk_calls] = [0, 1, 2].map(|k| counters1[k] - counters0[k]);
        let tc = c.traced_calls as f64;
        metrics.extend([
            m("firefly.switch_touch_ns", "ns", layer(Layer::SwitchTouch)),
            m(
                "firefly.tlb_misses_per_call",
                "count",
                per(c.tlb_misses as f64, c.lrpc_calls as f64),
            ),
            m(
                "firefly.region_copy_ns_per_kib",
                "ns/KiB",
                per(layer(Layer::RegionCopy) * tracer.calls() as f64, copy_kib),
            ),
            m("firefly.vm_check_ns", "ns", layer(Layer::VmCheck)),
            m("kernel.validate_ns", "ns", layer(Layer::Validate)),
            m("kernel.trap_ns", "ns", layer(Layer::Trap)),
            m("kernel.linkage_ns", "ns", layer(Layer::Linkage)),
            m("lrpc.astack_ns", "ns", layer(Layer::AStack)),
            m("lrpc.astack_stalls", "count", stalls as f64),
            m("lrpc.astack_peak", "count", peak as f64),
            m("lrpc.estack_ns", "ns", layer(Layer::EStack)),
            m("lrpc.estack_fresh", "count", estack_fresh as f64),
            m("lrpc.bulk_ns", "ns", layer(Layer::Bulk)),
            m(
                "lrpc.bulk_fallback_ratio",
                "ratio",
                per(fallbacks as f64, bulk_calls as f64),
            ),
            m(
                "lrpc.ring_doorbells_per_batch",
                "count",
                per(c.doorbells as f64, c.batches as f64),
            ),
            m(
                "lrpc.ring_traps_per_batch",
                "count",
                per(c.traps as f64, c.batches as f64),
            ),
            m(
                "lrpc.allocs_per_call",
                "count",
                per(trace.allocs.allocs as f64, tc),
            ),
            m(
                "lrpc.alloc_bytes_per_call",
                "bytes",
                per(trace.allocs.bytes as f64, tc),
            ),
            m(
                "lrpc.global_locks_per_call",
                "count",
                per(trace.global_locks as f64, tc),
            ),
            m(
                "lrpc.sharded_locks_per_call",
                "count",
                per(trace.sharded_locks as f64, tc),
            ),
            m("idl.push_ns", "ns", layer(Layer::Push)),
            m("idl.read_ns", "ns", layer(Layer::Read)),
            m("idl.place_ns", "ns", layer(Layer::Place)),
            m("idl.fetch_ns", "ns", layer(Layer::Fetch)),
            m("idl.compiled_frac", "ratio", tracer.compiled_frac()),
            m("obs.tail_observe_ns", "ns", layer(Layer::TailObserve)),
            m("obs.hist_observe_ns", "ns", layer(Layer::HistObserve)),
            m(
                "obs.trace_overhead_ns",
                "ns",
                quiet(traced_slices.iter().map(|s| s.p50)) - lrpc_p50,
            ),
            // Layer times are means per call, so the remainder is taken
            // from the mean operation: medians do not add up, and on a
            // size mix (bulk_echo) the median call is far from the mean.
            m(
                "lrpc.unattributed_ns",
                "ns",
                per(c.lrpc_host_ns as f64, c.lrpc_ops as f64) - attributed,
            ),
            m("virt.call_ns", "virt_ns", virt_call_ns),
            m("virt.calls_per_s", "virt_1/s", virt_calls_per_s),
        ]);
        for (phase, label) in VIRT_PHASES {
            let ns = trace.phases[phase.code() as usize] as f64;
            metrics.push(m(&format!("virt.{label}_ns"), "virt_ns", per(ns, tc)));
        }
        info.extend([
            m("op_p50_ns", "ns", lrpc_p50),
            m("replayed_calls", "count", tracer.calls() as f64),
            m("span_clock_ns", "ns", cal.empty_ns),
            m("span_footprint_ns", "ns", cal.footprint_ns),
        ]);
    }

    if metrics.iter().chain(&info).any(|x| !x.value.is_finite()) {
        problems.push("a metric is not a finite number".into());
    }
    Report {
        correct: problems.is_empty(),
        attempted: c.attempted.max(1),
        failed: c.failed,
        metrics,
        info,
        problems,
        spans: if cfg.trace {
            tracer.spans_jsonl()
        } else {
            String::new()
        },
    }
}
