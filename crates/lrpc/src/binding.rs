//! Binding: clerks, Binding Objects and the import protocol.
//!
//! "A server module exports an interface through a clerk in the LRPC
//! run-time library included in every domain. The clerk registers the
//! interface with a name server and awaits import requests from clients.
//! ... The clerk enables the binding by replying to the kernel with a
//! procedure descriptor list (PDL). ... After the binding has completed,
//! the kernel returns to the client a Binding Object" (Section 3.1).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use firefly::meter::{Meter, Phase};
use firefly::time::Nanos;
use idl::plan::InterfacePlans;
use idl::stubgen::{CompiledInterface, ProcedureDescriptor};
use idl::wire::Value;
use kernel::objects::RawHandle;
use kernel::thread::Thread;
use kernel::Domain;
use obs::histogram::{LOG2_BITS, TAIL_BITS};

use crate::astack::AStackSet;
use crate::bulk::BulkArena;
use crate::error::CallError;
use crate::runtime::LrpcRuntime;
use crate::touch::TouchPlan;

/// What a server procedure hands back.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// The return value (must be present iff the procedure declares one).
    pub ret: Option<Value>,
    /// Values for `out`/`inout` parameters, as `(param_index, value)`.
    pub outs: Vec<(usize, Value)>,
}

impl Reply {
    /// An empty reply (procedures returning nothing).
    pub fn none() -> Reply {
        Reply::default()
    }

    /// A reply carrying just a return value.
    pub fn value(v: Value) -> Reply {
        Reply {
            ret: Some(v),
            outs: Vec::new(),
        }
    }

    /// Adds an out-parameter value.
    pub fn with_out(mut self, param: usize, v: Value) -> Reply {
        self.outs.push((param, v));
        self
    }
}

/// Context handed to a server procedure while it runs in the server's
/// domain on the client's thread. It borrows what the call already holds
/// for the length of the dispatch, the call's meter included, so handing
/// it over costs no reference count traffic.
pub struct ServerCtx<'a> {
    /// The runtime (for nested out-calls).
    pub rt: &'a Arc<LrpcRuntime>,
    /// The (migrated) client thread executing the procedure.
    pub thread: &'a Arc<Thread>,
    /// The server domain.
    pub domain: &'a Arc<Domain>,
    /// The CPU the call is executing on (after any processor exchange).
    pub cpu_id: usize,
    /// The in-flight call's meter, which server-side charges land on.
    pub(crate) meter: RefCell<&'a mut Meter>,
}

impl ServerCtx<'_> {
    /// Charges server-procedure work to the executing CPU, on the call's
    /// meter.
    pub fn charge(&self, work: Nanos) {
        self.charge_as(Phase::ServerProcedure, work);
    }

    fn charge_as(&self, phase: Phase, dur: Nanos) {
        let cpu = self.rt.kernel().machine().cpu(self.cpu_id);
        self.meter.borrow_mut().charge(cpu, phase, dur);
    }
}

/// A server procedure body.
pub type Handler = Box<dyn Fn(&ServerCtx, &[Value]) -> Result<Reply, CallError> + Send + Sync>;

/// The server-side clerk for one exported interface.
pub struct Clerk {
    interface: Arc<CompiledInterface>,
    /// The interface's compiled copy plans, one per procedure: the stubs
    /// are generated once per export, and every import shares them
    /// (Section 3.3).
    plans: Arc<InterfacePlans>,
    domain: Arc<Domain>,
    handlers: Vec<Handler>,
    /// The fault plan's site name for this clerk's dispatches, built once
    /// so a call with a plan installed allocates nothing for it.
    dispatch_site: String,
}

impl Clerk {
    /// Creates a clerk and compiles its interface's copy plans; used by
    /// [`LrpcRuntime::export`].
    ///
    /// # Panics
    ///
    /// Panics if the handler count does not match the interface's procedure
    /// count — an export-time programming error, caught before any client
    /// can bind.
    pub fn new(
        interface: Arc<CompiledInterface>,
        domain: Arc<Domain>,
        handlers: Vec<Handler>,
    ) -> Clerk {
        assert_eq!(
            interface.procs.len(),
            handlers.len(),
            "interface `{}` declares {} procedures but {} handlers were supplied",
            interface.name,
            interface.procs.len(),
            handlers.len()
        );
        let dispatch_site = format!("dispatch:{}", interface.name);
        Clerk {
            plans: Arc::new(InterfacePlans::compile(&interface)),
            interface,
            domain,
            handlers,
            dispatch_site,
        }
    }

    /// The compiled interface this clerk serves.
    pub fn interface(&self) -> &Arc<CompiledInterface> {
        &self.interface
    }

    /// The compiled copy plans of the interface.
    pub fn plans(&self) -> &Arc<InterfacePlans> {
        &self.plans
    }

    /// The server domain.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// The clerk's reply to the kernel during binding: the PDL.
    pub fn pdl(&self) -> Vec<ProcedureDescriptor> {
        self.interface.pdl()
    }

    /// Invokes handler `index`.
    ///
    /// A panicking server procedure is converted into a
    /// [`CallError::ServerFault`]: protection domains exist precisely so a
    /// server bug ends in "failure isolation", not in tearing down the
    /// client ("an unhandled exception" is one of Section 5.3's
    /// termination triggers; here the call fails and the caller decides).
    pub fn dispatch(
        &self,
        index: usize,
        ctx: &ServerCtx<'_>,
        args: &[Value],
    ) -> Result<Reply, CallError> {
        let h = self
            .handlers
            .get(index)
            .ok_or(CallError::BadProcedure { index })?;
        let fault = ctx
            .rt
            .fault_plan()
            .map(|plan| (plan.dispatch_fault(&self.dispatch_site), plan));
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Injected faults run inside the unwind boundary, on the
            // migrated client thread, so each one exercises the *real*
            // failure path: a panic unwinds into the ServerFault
            // conversion below; terminating the server's own domain
            // invalidates this call's linkage (the return trap then takes
            // the call-failed path); hanging captures the thread until the
            // client-side watchdog abandons it.
            if let Some((f, plan)) = &fault {
                if f.delay_us > 0 {
                    ctx.charge_as(Phase::Dispatch, Nanos::from_micros(f.delay_us));
                }
                if f.terminate_server {
                    ctx.rt.terminate_domain(ctx.domain);
                }
                if f.hang {
                    plan.wait_while_hung();
                }
                if f.panic {
                    panic!("injected fault: server procedure crashed");
                }
            }
            h(ctx, args)
        })) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "server procedure panicked".to_string());
                Err(CallError::ServerFault(format!(
                    "unhandled exception: {msg}"
                )))
            }
        }
    }
}

/// Running statistics of one binding, with the metric handles it
/// registers at import. The steady call path updates the handles with
/// lone atomic ops, never through the registry.
#[derive(Debug)]
pub struct BindingStats {
    calls: AtomicU64,
    failures: AtomicU64,
    remote_calls: AtomicU64,
    /// Out-of-band calls that could not use the bulk arena (payload over
    /// the chunk size, arena exhausted, or fault-injected) and paid the
    /// per-call segment map/unmap instead.
    bulk_fallbacks: AtomicU64,
    /// The same four counts per interface, `lrpc_calls_total:{interface}`,
    /// `lrpc_call_failures_total:{interface}`,
    /// `lrpc_remote_calls_total:{interface}` and
    /// `lrpc_bulk_fallbacks_total:{interface}`: the registry hands every
    /// binding of the interface the same counters, which outlive the
    /// binding, so the runtime totals keep what terminated bindings counted.
    totals: [obs::Counter; 4],
    /// Per-call stub-phase (client stub + server stub + argument
    /// copy/marshal) virtual time (log2 buckets),
    /// `lrpc_stub_ns:{interface}`.
    stub_ns: obs::Histogram,
    /// Total out-of-band bytes per call (log2 buckets),
    /// `lrpc_bulk_bytes:{interface}`; `None` for a remote binding.
    bulk_bytes: Option<obs::Histogram>,
    /// Calls per submitted batch (log2 buckets),
    /// `lrpc_batch_size:{interface}`; `None` for a remote binding.
    batch_size: Option<obs::Histogram>,
    /// The binding's one latency histogram, at tail precision (128
    /// sub-buckets per octave, so p99/p999 are resolvable),
    /// `lrpc_tail_latency_ns:{interface}`. Every completion — serial,
    /// batch reap, and the remote branch — observes it once.
    tail_latency: obs::Histogram,
    /// Transfers that found a processor idling in the target context
    /// (Section 3.4's domain caching), `lrpc_domain_cache_hits:{interface}`:
    /// the processor exchanges. Call and return directions both count,
    /// including those of a call that then fails. The registry hands every
    /// binding of the interface the same counter. `None` for a remote
    /// binding.
    cache_hits: Option<obs::Counter>,
    /// Transfers that found no idle processor and paid the full context
    /// switch, `lrpc_domain_cache_misses:{interface}` (shared the same
    /// way); `None` for a remote binding.
    cache_misses: Option<obs::Counter>,
    /// Largest batch ever submitted through this binding — the adaptive
    /// sizing controller's ring-depth signal (a histogram cannot hand back
    /// its max cheaply; a `fetch_max` can).
    batch_peak: AtomicU64,
}

impl BindingStats {
    /// Registers a binding's metrics for `interface` in `metrics`. Every
    /// binding registers the four call totals; a remote binding's calls
    /// take the conventional-RPC branch, so it registers no bulk-bytes,
    /// batch or domain-cache metrics.
    pub(crate) fn register(metrics: &obs::Registry, interface: &str, remote: bool) -> BindingStats {
        BindingStats {
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            remote_calls: AtomicU64::new(0),
            bulk_fallbacks: AtomicU64::new(0),
            totals: TOTALS.map(|total| metrics.counter(&format!("{total}:{interface}"))),
            stub_ns: metrics.histogram(&format!("lrpc_stub_ns:{interface}"), LOG2_BITS),
            bulk_bytes: (!remote)
                .then(|| metrics.histogram(&format!("lrpc_bulk_bytes:{interface}"), LOG2_BITS)),
            batch_size: (!remote)
                .then(|| metrics.histogram(&format!("lrpc_batch_size:{interface}"), LOG2_BITS)),
            tail_latency: metrics
                .histogram(&format!("lrpc_tail_latency_ns:{interface}"), TAIL_BITS),
            cache_hits: (!remote)
                .then(|| metrics.counter(&format!("lrpc_domain_cache_hits:{interface}"))),
            cache_misses: (!remote)
                .then(|| metrics.counter(&format!("lrpc_domain_cache_misses:{interface}"))),
            batch_peak: AtomicU64::new(0),
        }
    }

    /// Completed calls through the binding.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls that raised an exception.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Calls that took the remote (conventional RPC) branch.
    pub fn remote_calls(&self) -> u64 {
        self.remote_calls.load(Ordering::Relaxed)
    }

    /// Out-of-band calls that fell back to a per-call segment.
    pub fn bulk_fallbacks(&self) -> u64 {
        self.bulk_fallbacks.load(Ordering::Relaxed)
    }

    pub(crate) fn note_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.totals[0].inc();
    }

    pub(crate) fn note_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.totals[1].inc();
    }

    pub(crate) fn note_remote(&self) {
        self.remote_calls.fetch_add(1, Ordering::Relaxed);
        self.totals[2].inc();
    }

    pub(crate) fn note_bulk_fallback(&self) {
        self.bulk_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.totals[3].inc();
    }

    /// Always `None`: [`BindingStats::tail_latency`] is the binding's one
    /// latency histogram. This accessor stays only while hostbench's
    /// probe, which replays the call path and observes what it returns,
    /// still calls it; it goes with the probe (ROADMAP item 1).
    pub fn latency(&self) -> Option<&obs::Histogram> {
        None
    }

    /// The stub-phase histogram; every binding has one.
    pub fn stub_ns(&self) -> Option<&obs::Histogram> {
        Some(&self.stub_ns)
    }

    pub(crate) fn observe_stub_ns(&self, stub: Nanos) {
        self.stub_ns.observe(stub.as_nanos());
    }

    /// The out-of-band bytes histogram; `None` for a remote binding.
    pub fn bulk_bytes(&self) -> Option<&obs::Histogram> {
        self.bulk_bytes.as_ref()
    }

    pub(crate) fn observe_bulk_bytes(&self, bytes: u64) {
        if let Some(h) = &self.bulk_bytes {
            h.observe(bytes);
        }
    }

    /// The batch-size histogram; `None` for a remote binding.
    pub fn batch_size(&self) -> Option<&obs::Histogram> {
        self.batch_size.as_ref()
    }

    pub(crate) fn observe_batch_size(&self, calls: u64) {
        self.batch_peak.fetch_max(calls, Ordering::Relaxed);
        if let Some(h) = &self.batch_size {
            h.observe(calls);
        }
    }

    /// Largest batch ever submitted through this binding.
    pub fn batch_peak(&self) -> u64 {
        self.batch_peak.load(Ordering::Relaxed)
    }

    /// The latency histogram; every binding has one.
    pub fn tail_latency(&self) -> Option<&obs::Histogram> {
        Some(&self.tail_latency)
    }

    pub(crate) fn observe_tail_latency(&self, elapsed: Nanos) {
        self.tail_latency.observe(elapsed.as_nanos());
    }

    /// The domain-cache hit counter; `None` for a remote binding.
    pub fn cache_hits(&self) -> Option<&obs::Counter> {
        self.cache_hits.as_ref()
    }

    pub(crate) fn note_cache_hit(&self) {
        if let Some(c) = &self.cache_hits {
            c.inc();
        }
    }

    /// The domain-cache miss counter; `None` for a remote binding.
    pub fn cache_misses(&self) -> Option<&obs::Counter> {
        self.cache_misses.as_ref()
    }

    pub(crate) fn note_cache_miss(&self) {
        if let Some(c) = &self.cache_misses {
            c.inc();
        }
    }
}

/// The runtime-wide totals [`BindingStats`] counts per interface, in the
/// order of its `totals`; [`LrpcRuntime::collect_metrics`] sums each into
/// the gauge of the same name.
pub(crate) const TOTALS: [&str; 4] = [
    "lrpc_calls_total",
    "lrpc_call_failures_total",
    "lrpc_remote_calls_total",
    "lrpc_bulk_fallbacks_total",
];

/// The kernel-side state of one binding.
pub struct BindingState {
    /// The interface bound to.
    pub interface: Arc<CompiledInterface>,
    /// The importing (client) domain.
    pub client: Arc<Domain>,
    /// The exporting (server) domain.
    pub server: Arc<Domain>,
    /// The server's clerk.
    pub clerk: Arc<Clerk>,
    /// The pairwise-allocated A-stacks and their linkage slots.
    pub astacks: AStackSet,
    /// The bind-time bulk arena for large out-of-band parameters, allocated
    /// alongside the A-stack list when the interface declares any;
    /// `None` for fixed-size interfaces and remote bindings.
    pub bulk: Option<Arc<BulkArena>>,
    /// The binding's TLB working-set plan.
    pub touch: TouchPlan,
    /// The compiled copy plans, one per procedure — the stub
    /// specialization of Section 3.3, compiled once by the clerk at export
    /// and shared by every import of it.
    pub plans: Arc<InterfacePlans>,
    /// The server's E-stack pool, cached at import time so the call path
    /// never consults the runtime's global pool map (Section 3.4: nothing
    /// global on the critical path). Safe across termination: revocation
    /// stops calls before the runtime drops its reference.
    pub estack_pool: Arc<crate::estack::EStackPool>,
    /// The pairwise submission/completion ring for doorbell-batched calls,
    /// mapped at import time; `None` for remote bindings.
    pub ring: Option<Arc<crate::ring::CallRing>>,
    /// Set when either domain terminates; "this prevents any more
    /// out-calls from the domain, and prevents other domains from making
    /// any more in-calls" (Section 5.3).
    pub(crate) revoked: AtomicBool,
    /// "If the call is to a truly remote server (indicated by a bit in the
    /// Binding Object), then a branch is taken to a more conventional RPC
    /// stub" (Section 5.1).
    pub remote: bool,
    /// Running call statistics.
    pub stats: BindingStats,
}

impl BindingState {
    /// True once the binding has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::Acquire)
    }

    /// Revokes the binding.
    pub fn revoke(&self) {
        self.revoked.store(true, Ordering::Release);
    }

    /// True if this binding involves `domain` on either side.
    pub fn involves(&self, domain: &Domain) -> bool {
        self.client.id() == domain.id() || self.server.id() == domain.id()
    }
}

/// Resolves a procedure name to its identifier in `interface`, for both
/// the LRPC and the message-RPC call paths.
pub fn resolve_proc(interface: &CompiledInterface, name: &str) -> Result<usize, CallError> {
    interface
        .proc_by_name(name)
        .map(|p| p.pd.entry)
        .ok_or_else(|| CallError::UnknownProcedure {
            interface: interface.name.clone(),
            name: name.to_string(),
        })
}

/// The client's handle on an imported interface.
///
/// Holds the kernel-validated Binding Object ([`RawHandle`]) plus the
/// client-side caches handed back at bind time (the A-stack lists).
pub struct Binding {
    rt: Arc<LrpcRuntime>,
    handle: RawHandle,
    state: Arc<BindingState>,
}

impl Binding {
    /// Creates the client-side binding; used by [`LrpcRuntime::import`].
    pub(crate) fn new(
        rt: Arc<LrpcRuntime>,
        handle: RawHandle,
        state: Arc<BindingState>,
    ) -> Binding {
        Binding { rt, handle, state }
    }

    /// The Binding Object presented to the kernel at each call.
    pub fn handle(&self) -> RawHandle {
        self.handle
    }

    /// The bound interface.
    pub fn interface(&self) -> &Arc<CompiledInterface> {
        &self.state.interface
    }

    /// The binding's internal state (A-stack lists etc.).
    pub fn state(&self) -> &Arc<BindingState> {
        &self.state
    }

    /// The runtime this binding belongs to.
    pub fn runtime(&self) -> &Arc<LrpcRuntime> {
        &self.rt
    }

    /// Resolves a procedure name to its identifier.
    pub fn proc_index(&self, name: &str) -> Result<usize, CallError> {
        resolve_proc(&self.state.interface, name)
    }

    /// Makes an LRPC through this binding on the given CPU and thread.
    ///
    /// This is the client stub entry point: argument values are pushed on
    /// an A-stack, the kernel validates the Binding Object and transfers
    /// the thread into the server domain, the server procedure runs, and
    /// results return through the A-stack. An unknown `proc` fails the
    /// call, counted like any failure of [`Binding::call_indexed`].
    pub fn call(
        &self,
        cpu_id: usize,
        thread: &Arc<Thread>,
        proc: &str,
        args: &[Value],
    ) -> Result<crate::call::CallOutcome, CallError> {
        let index = self
            .proc_index(proc)
            .inspect_err(|_| self.state.stats.note_failure())?;
        self.call_indexed(cpu_id, thread, index, args)
    }

    /// Like [`Binding::call`], addressing the procedure by identifier.
    pub fn call_indexed(
        &self,
        cpu_id: usize,
        thread: &Arc<Thread>,
        proc_index: usize,
        args: &[Value],
    ) -> Result<crate::call::CallOutcome, CallError> {
        crate::call::lrpc_call(self, cpu_id, thread, proc_index, args, true)
    }

    /// Like [`Binding::call_indexed`] but without metering, for tight
    /// throughput loops.
    pub fn call_unmetered(
        &self,
        cpu_id: usize,
        thread: &Arc<Thread>,
        proc_index: usize,
        args: &[Value],
    ) -> Result<crate::call::CallOutcome, CallError> {
        crate::call::lrpc_call(self, cpu_id, thread, proc_index, args, false)
    }

    /// A copy of this binding presenting a *forged* Binding Object (the
    /// nonce is perturbed). Exists so tests and the experiment harness can
    /// demonstrate that "the kernel can detect a forged Binding Object".
    pub fn forged(&self) -> Binding {
        Binding {
            rt: Arc::clone(&self.rt),
            handle: RawHandle {
                id: self.handle.id,
                nonce: self.handle.nonce ^ 0xDEAD_BEEF,
            },
            state: Arc::clone(&self.state),
        }
    }
}
